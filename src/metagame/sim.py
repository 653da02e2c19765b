"""Repeated-game execution: honest and adversarial strategies, discounted
accounting, and a finite-population mode.

Each advisor owns an independent random stream; the public protocol state is
a deterministic function of the observed aggregate stream, so every
participant tracking it stays synchronized.  Continuum and finite mode share
one stepper and differ only in how instructions are realized, so deviation
flags and block statistics are kept whenever protocol parameters are given.
The stepper records a run of identical periods at a time: each strategy
says how long it holds its instruction (a punishment or a prescription to
the stretch's end, an honest reviewed advisor until its next probe), and a
run lasts until the first hold ends; finite mode draws a fresh table every
period, so its runs are single periods.  The stepper interns each distinct joint instruction of a run
to a small integer, keeps the public state as the state at the start of the
current stretch plus the periods elapsed since (a stretch ends at a block
end, segment end or punishment end, so its length is known when it starts),
and stores the log as its runs.  A run realizes each distinct joint
instruction once: its continuum aggregate (and, in continuum mode, its
utilities) is memoized per run, and so are the review checks of each
aggregate per (segment, phase).  A deviation-gain estimate pairs each honest
run its caller made with one deviating run at the same seed.  Finite mode
samples each period's counts of occupied (advisor, action) cells directly,
by multinomial draws per client group and hypergeometric matching, with the
law of per-client draws and uniform matching: aggregates are the counts'
marginals, utilities count-weighted payoffs (exact for integer payoffs,
otherwise a client-by-client sum up to float rounding).  Runs are
reproducible byte-for-byte from (seed, inputs), and a log's JSON lines
format each distinct run once.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import MetagameError, ValidationError
from .games import BaseGame
from .model import (
    AggregateTable,
    InstructionProfile,
    MetaAction,
    Population,
    aggregate_mass,
    _check_advisor,
    _pure_instruction,
    _realization_utilities,
    _Terms,
)
from .oneshot import best_response
from .protocol import (
    EXCESS,
    FREQUENCY,
    ProtocolEvent,
    ProtocolParams,
    ProtocolState,
    honest_step,
    initial_state,
    prescribed_instruction,
    punishment_action,
    _advance,
    _table_flags,
)


class _Stretch:
    """The public protocol state of a run as the stepper keeps it: the state
    ``start`` loaded at the first period of the current stretch, the periods
    ``elapsed`` since then, and their summed ``discrepancies`` and ``excess``
    flags.  ``state`` is built from them by :func:`protocol._advance` on each
    read."""

    __slots__ = ("params", "start", "elapsed", "discrepancies", "excess")

    def __init__(self, params: ProtocolParams):
        self.params = params

    @property
    def state(self) -> ProtocolState:
        if not self.elapsed:
            return self.start
        return _advance(
            self.params, self.start, self.elapsed - 1, self.discrepancies, self.excess
        )[0]


class StepContext:
    """What a strategy sees when it is asked: the public protocol parameters,
    the period, its own advisor index and its own random stream, and the
    public protocol state (``None`` in a finite run without a protocol).

    ``period`` is the first period of the run being asked for (the only one
    for a strategy asked once per period).  ``stretch`` is the state at the
    first period of the current stretch, a run of periods that ends at a
    block end, segment end or punishment end; the stepper sets it when the
    stretch starts.  It agrees with ``state`` in everything
    :func:`honest_step`, :func:`punishment_action` and
    :func:`prescribed_instruction` read.  ``block_step`` is the position in
    the current block.  Neither costs anything per period; ``state`` is built
    on each read.  A run reuses one context per advisor, so a strategy reads
    it during ``act`` or ``hold`` only.
    """

    __slots__ = ("params", "period", "llm", "rng", "stretch", "_public")

    def __init__(
        self, params, llm: int, rng: np.random.Generator, public: _Stretch | None
    ):
        self.params: ProtocolParams | None = params
        self.period = 0
        self.llm = llm
        self.rng = rng
        self.stretch: ProtocolState | None = None
        self._public = public

    @property
    def state(self) -> ProtocolState | None:
        return None if self._public is None else self._public.state

    @property
    def block_step(self) -> int:
        stretch = self.stretch
        if stretch is None or stretch.mode != "review":
            return 0
        return stretch.block_step + self._public.elapsed


class Strategy:
    """Base advisor behavior; subclasses override ``act`` or ``hold``.

    ``hold(ctx, limit)`` returns an instruction and how many periods, from 1
    to ``limit``, the strategy plays it, drawing nothing from its stream after
    the first of them; ``limit`` never reaches past the current stretch or
    the horizon.  The stepper plays the instruction for all of those periods
    and asks again at the first period after them, while it may ask other
    advisors in between.  A strategy whose ``act`` is defined below its
    ``hold`` (any strategy that overrides ``act`` alone, a subclass of a
    built-in one included) is asked through ``act`` once per period, so it
    sees the exact ``ctx.state``.  ``last_probe`` flags a probe in what was
    last returned.
    """

    last_probe: bool = False

    def act(self, ctx: StepContext) -> InstructionProfile:
        return self.hold(ctx, 1)[0]

    def hold(self, ctx: StepContext, limit: int) -> tuple[InstructionProfile, int]:
        raise NotImplementedError


# A reviewed honest advisor looks for its next probe in bulk when the probe
# rate expects at least this many quiet periods first and the run may last
# as long.  Below that a bulk search (two stream-state copies and two array
# draws) costs more than the periods it skips: on heist at T = 40 it paid at
# p <= 0.15 and cost more at p >= 0.18.
BULK_GAP = 8
# A bulk search draws this many expected gaps' worth of uniforms at most.
BULK_GAPS = 4


class HonestStrategy(Strategy):
    """Follow the protocol exactly: prescriptions, probes, punishments.

    Under review it draws one uniform per period from its stream (and a
    probe's labels after a hit), as :func:`honest_step` does.  At a low probe
    rate it finds its next probe by drawing uniforms in bulk (numpy's
    ``random(n)`` gives the doubles of n scalar ``random()`` calls), then
    restores its stream and redraws exactly the quiet ones before the probe,
    so the stream is consumed as period by period, and holds its
    prescription for those quiet periods.
    """

    def hold(self, ctx: StepContext, limit: int) -> tuple[InstructionProfile, int]:
        self.last_probe = False
        params, stretch, j = ctx.params, ctx.stretch, ctx.llm
        if stretch.mode == "punishment":
            return punishment_action(params, stretch, j), limit
        prescription, p = params.prescriptions[stretch.segment][j], params.probe_rate
        if j != stretch.phase or p <= 0.0:
            return prescription, limit
        rng = ctx.rng
        if p * BULK_GAP <= 1.0 and limit >= BULK_GAP:
            state = rng.bit_generator.state
            hits = rng.random(min(limit, math.ceil(BULK_GAPS / p))) < p
            quiet = int(hits.argmax())
            if not hits[quiet]:
                return prescription, len(hits)
            rng.bit_generator.state = state
            if quiet:
                rng.random(quiet)
                return prescription, quiet
        instruction, self.last_probe = honest_step(params, stretch, j, rng)
        return instruction, 1


class FixedProfileStrategy(Strategy):
    """Play one meta-action forever, drawing mixed outcomes i.i.d. per period."""

    def __init__(self, action: MetaAction):
        self.action = action
        self._outcomes = list(action.outcomes)
        self._probs = [p for _, p in self._outcomes]

    def hold(self, ctx: StepContext, limit: int) -> tuple[InstructionProfile, int]:
        if len(self._outcomes) == 1:
            return self._outcomes[0][0], limit
        idx = int(ctx.rng.choice(len(self._outcomes), p=self._probs))
        return self._outcomes[idx][0], 1


class MyopicBestResponse(Strategy):
    """Best-respond each period to what the others are prescribed to play.

    The prescriptions change only between stretches, so the reply is kept
    for the stretch it was computed in."""

    def __init__(self, game: BaseGame, pop: Population):
        self.game = game
        self.pop = pop
        self._cache: dict = {}
        self._last = (None, None, None)  # (stretch, advisor, reply)

    def _reply(self, ctx: StepContext) -> InstructionProfile:
        params, state, j = ctx.params, ctx.stretch, ctx.llm
        last_state, last_j, last_reply = self._last
        if state is last_state and j == last_j:
            return last_reply
        others = tuple(
            prescribed_instruction(params, state, q) if q != j else None
            for q in range(self.pop.llm_count)
        )
        hit = self._cache.get(others)
        if hit is None:
            opponents = [None if o is None else MetaAction.deterministic(o)
                         for o in others]
            br = best_response(self.game, self.pop, opponents, j)
            hit = _pure_instruction(tuple(br.profile))
            self._cache[others] = hit
        self._last = (state, j, hit)
        return hit

    def hold(self, ctx: StepContext, limit: int) -> tuple[InstructionProfile, int]:
        return self._reply(ctx), limit


class BudgetedDeviator(Strategy):
    """Deviate on the first ``budget`` periods of every review block.

    Outside its deviation budget (and during punishment blocks) it follows
    the protocol, without probing.
    """

    def __init__(self, game, pop, periods_per_block: int):
        self.periods_per_block = periods_per_block
        self._myopic = MyopicBestResponse(game, pop)

    def hold(self, ctx: StepContext, limit: int) -> tuple[InstructionProfile, int]:
        stretch = ctx.stretch
        if stretch.mode == "punishment":
            return punishment_action(ctx.params, stretch, ctx.llm), limit
        left = self.periods_per_block - ctx.block_step
        if left > 0:
            return self._myopic._reply(ctx), min(limit, left)
        return ctx.params.prescriptions[stretch.segment][ctx.llm], limit


ADVERSARY_KINDS = ("honest", "light", "heavy", "greedy_myopic")


def make_adversary(
    game: BaseGame,
    pop: Population,
    params: ProtocolParams,
    kind: str,
    budget: int | None = None,
) -> Strategy:
    """Adversary factory for each of :data:`ADVERSARY_KINDS`.

    Light deviators change at most ``floor(p*T)`` periods per block; heavy
    ones at least ``ceil(p*T)`` (the whole block by default).
    """
    T = params.block_length
    p = params.probe_rate
    if kind == "honest":
        return HonestStrategy()
    if kind == "greedy_myopic":
        return MyopicBestResponse(game, pop)
    if kind == "light":
        cap = int(math.floor(p * T))
        periods = cap if budget is None else min(int(budget), cap)
        return BudgetedDeviator(game, pop, periods)
    if kind == "heavy":
        floor_periods = int(math.ceil(p * T)) if p > 0 else 1
        periods = T if budget is None else max(int(budget), floor_periods)
        return BudgetedDeviator(game, pop, min(periods, T))
    raise ValidationError(
        f"unknown adversary kind {kind!r}, not one of {', '.join(ADVERSARY_KINDS)}"
    )


class PeriodRecord(NamedTuple):
    """One period of a run, as :meth:`RunLog.iter_records` builds it from the
    log's runs."""

    period: int
    phase: int
    mode: str
    segment: int
    instructions: tuple[InstructionProfile, ...]
    aggregate: AggregateTable
    utilities: tuple[float, ...]
    probes: tuple[bool, ...]
    deviated: tuple[bool, ...]
    event: str | None
    event_llm: int | None

    def to_dict(self) -> dict:
        return {
            "t": self.period,
            "phase": self.phase,
            "mode": self.mode,
            "segment": self.segment,
            "aggregate": self.aggregate.to_dict(),
            "utilities": list(self.utilities),
            "probes": list(self.probes),
            "deviated": list(self.deviated),
            "event": self.event,
            "event_llm": self.event_llm,
            "instructions": [ip.to_dict() for ip in self.instructions],
        }


@dataclass(frozen=True)
class BlockStat:
    phase: int
    start: int
    end: int  # inclusive
    discrepancies: int
    deviation_counts: tuple[int, ...]
    probe_counts: tuple[int, ...]
    event: str | None

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def discrepancy_fraction(self) -> float:
        return self.discrepancies / self.length


@dataclass(frozen=True)
class PunishmentStat:
    punished: int
    start: int
    end: int  # inclusive


@lru_cache(maxsize=None)
def _flags(mask: int, k: int) -> tuple[bool, ...]:
    """Bit j of ``mask`` for each of ``k`` advisors."""
    return tuple(bool(mask >> j & 1) for j in range(k))


def _flag_counts(runs, slot: int, k: int) -> tuple[int, ...]:
    """Per advisor j, the periods of ``runs`` whose mask in ``slot`` has bit j."""
    return tuple(sum(run[0] for run in runs if run[slot] >> j & 1) for j in range(k))


@dataclass
class RunLog:
    """One repeated run, stored as the stepper's runs, plus derived statistics.

    ``runs`` lists each run of identical periods, in order, as ``(length,
    instructions, aggregate, utilities, probes, deviated)``: the realized
    instructions, the aggregate and the utilities (shared objects, one per
    distinct value in continuum mode), and the probe and deviation flags as
    bit masks (bit j for advisor j).  ``events`` maps a period to the event
    fired at its end, always a run's last period, and ``stretches`` lists
    ``(first period, phase, mode, segment)`` for each run of periods that
    starts at a boundary of the public state; no run crosses one.
    ``records`` builds the per-period :class:`PeriodRecord` view on first
    use.
    """

    seed_key: tuple
    delta: float
    tail_tol: float
    horizon: int
    block_stats: list[BlockStat]
    punishment_stats: list[PunishmentStat]
    runs: list[tuple]
    events: dict[int, ProtocolEvent]
    stretches: list[tuple[int, int, str, int]]
    discounted: tuple[float, ...] = field(default=())

    def _spans(self):
        """Each run with its first period and its stretch's (phase, mode,
        segment)."""
        starts = {s[0]: s[1:] for s in self.stretches}
        t, stretch = 0, None
        for run in self.runs:
            stretch = starts.get(t, stretch)
            yield t, stretch, run
            t += run[0]

    def iter_records(self) -> Iterator[PeriodRecord]:
        for t, stretch, run in self._spans():
            k = len(run[3])
            shared = (*stretch, *run[1:4], _flags(run[4], k), _flags(run[5], k))
            for period in range(t, t + run[0]):
                event = self.events.get(period)
                yield PeriodRecord(
                    period,
                    *shared,
                    event.kind if event else None,
                    event.llm if event else None,
                )

    @cached_property
    def records(self) -> list[PeriodRecord]:
        return list(self.iter_records())

    def recompute_discounted(self) -> tuple[float, ...]:
        delta = self.delta
        out = []
        for j in range(len(self.runs[0][3])):
            total = 0.0
            w = 1.0
            for n, _, _, u, _, _ in self.runs:
                x = u[j]
                for _ in range(n):
                    total += w * x
                    w *= delta
            out.append((1.0 - delta) * total)
        return tuple(out)

    def event_counts(self, llm: int) -> dict[str, int]:
        counts = {EXCESS: 0, FREQUENCY: 0}
        for event in self.events.values():
            if event.llm == llm:
                counts[event.kind] += 1
        return counts

    def mean_block_discrepancy(self) -> float:
        if not self.block_stats:
            return 0.0
        return sum(b.discrepancy_fraction for b in self.block_stats) / len(
            self.block_stats
        )

    def to_jsonl(self) -> str:
        """A header line, then ``json.dumps(record.to_dict(), sort_keys=True)``
        for each period.  The periods of a run differ only in ``t`` and in
        the event at the run's last period, so the text around them is made
        once per distinct run content and stretch."""
        lines = [
            json.dumps(
                {
                    "seed": list(self.seed_key),
                    "delta": self.delta,
                    "tail_tol": self.tail_tol,
                    "horizon": self.horizon,
                    "discounted": list(self.discounted),
                },
                sort_keys=True,
            )
        ]
        dumps = json.dumps
        parts: dict[tuple, tuple[str, str, str]] = {}  # (stretch, run) -> text
        for t, stretch, run in self._spans():
            key = (stretch, run[1:])
            hit = parts.get(key)
            if hit is None:
                phase, mode, segment = stretch
                _, instructions, aggregate, utilities, probes, deviated = run
                k = len(utilities)
                hit = parts[key] = (
                    '{"aggregate": %s, "deviated": %s, "event": '
                    % (dumps(aggregate.to_dict()), dumps(_flags(deviated, k))),
                    ', "instructions": %s, "mode": %s, "phase": %d, "probes": %s, '
                    '"segment": %d, "t": '
                    % (
                        dumps([ip.to_dict() for ip in instructions], sort_keys=True),
                        dumps(mode),
                        phase,
                        dumps(_flags(probes, k)),
                        segment,
                    ),
                    ', "utilities": %s}' % dumps(list(utilities)),
                )
            head, middle, tail = hit
            last = t + run[0] - 1
            body = f'{head}null, "event_llm": null{middle}'
            lines += [f"{body}{p}{tail}" for p in range(t, last)]
            event = self.events.get(last)
            if event is not None:
                body = f'{head}{dumps(event.kind)}, "event_llm": {event.llm}{middle}'
            lines.append(f"{body}{last}{tail}")
        return "\n".join(lines) + "\n"

    def save_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def summary_rows(self) -> list[dict]:
        rows = []
        for j, value in enumerate(self.discounted):
            counts = self.event_counts(j)
            rows.append(
                {
                    "seed": "-".join(str(s) for s in self.seed_key),
                    "llm": j,
                    "discounted_utility": value,
                    "events_excess": counts[EXCESS],
                    "events_frequency": counts[FREQUENCY],
                    "mean_d": self.mean_block_discrepancy(),
                }
            )
        return rows


def write_summary_csv(path, logs: Sequence[RunLog]) -> None:
    fieldnames = [
        "seed",
        "llm",
        "discounted_utility",
        "events_excess",
        "events_frequency",
        "mean_d",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for log in logs:
            for row in log.summary_rows():
                writer.writerow(row)


def _seed_key(seed) -> tuple:
    if isinstance(seed, int):
        return (seed,)
    return tuple(int(s) for s in seed)


def horizon_for(delta: float, tail_tol: float, payoff_cap: float) -> int:
    """Smallest horizon whose discounted tail is below ``tail_tol``."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie strictly between 0 and 1")
    if tail_tol <= 0.0:
        raise ValidationError("tail_tol must be positive")
    bound = 2.0 * payoff_cap
    if bound <= tail_tol:
        return 1
    return max(1, math.ceil(math.log(tail_tol / bound) / math.log(delta)))


def _asked_once_per_period(strategy: Strategy) -> bool:
    """Whether ``strategy``'s ``act`` is defined below its ``hold``, so that
    its ``hold`` may not say what its ``act`` does."""
    mro = type(strategy).__mro__
    act, hold = (
        next(i for i, cls in enumerate(mro) if name in vars(cls))
        for name in ("act", "hold")
    )
    return act < hold


class _Periods:
    """Bookkeeping shared by both simulators, one run of periods at a time.

    ``act(t, limit)`` asks each strategy whose last hold is over for its
    instruction and how long it holds it (see :class:`Strategy`), sets
    ``held`` to the periods until the first hold ends (at most ``limit`` and
    what is left of the stretch) and returns the run's id of the realized
    tuple, ``realized[id]``.  Tuples are interned by value; the role counts
    of a tuple's instructions are checked when it is first seen.  After the
    caller realizes the tuple, ``observe`` appends the run of ``held``
    periods from ``t`` to ``runs`` and advances the public state (when
    ``params`` are given).  With ``limit`` 1 this is one period.

    The public state (``public``) is a stretch start plus the periods
    elapsed since it.  Entering a stretch fixes its length (the periods to
    the block end or segment end in review, the punishment left otherwise).
    Each run adds its review flags, times its length, to the stretch's
    totals and its length to ``elapsed``, short of the stretch's last period;
    its deviation flags are memoized per realized tuple within a stretch, and
    its review flags per (segment, phase, table id) when the caller passes a
    table id (continuum mode) or computed directly otherwise (finite mode
    draws a fresh table every period).  A run that reaches the stretch's
    last period passes the start and the totals to :func:`protocol._advance`,
    which builds the next stretch's ``ProtocolState``; otherwise a state is
    built only when a strategy reads ``ctx.state``.
    """

    def __init__(self, game, params, strategies, streams):
        self.game = game
        self.params = params
        self.strategies = strategies
        self.public = None if params is None else _Stretch(params)
        # Per advisor: its strategy, the strategy's ``hold`` (None when it is
        # asked through ``act``) and its context; ``_holding`` and ``_until``
        # keep the instruction it holds and the period its hold ends.
        self._agents = [
            (
                s,
                None if _asked_once_per_period(s) else s.hold,
                StepContext(params, j, streams[j], self.public),
            )
            for j, s in enumerate(strategies)
        ]
        self._holding: list[InstructionProfile | None] = [None] * len(strategies)
        self._until = [0] * len(strategies)
        self._ids: dict[tuple[InstructionProfile, ...], int] = {}
        self.realized: list[tuple[InstructionProfile, ...]] = []
        self._probe_mask = 0
        self.held = 1

        self.runs: list[tuple] = []  # see RunLog
        self.events: dict[int, ProtocolEvent] = {}
        self.stretches: list[tuple[int, int, str, int]] = []
        self.block_stats: list[BlockStat] = []
        self.punishment_stats: list[PunishmentStat] = []
        # The first period and the first run of the current block or punishment.
        self._start = self._first = 0
        if params is None:
            self.stretches.append((0, -1, "none", -1))
            return
        self._checks: dict[tuple[int, int], dict[int, tuple[bool, bool]]] = {}
        self._enter(initial_state(params), 0)

    def _enter(self, state: ProtocolState, t: int) -> None:
        """Set up the stretch that ``state`` starts at period ``t``."""
        params, public = self.params, self.public
        public.start, public.elapsed = state, 0
        public.discrepancies, public.excess = 0, False
        for _, _, ctx in self._agents:
            ctx.stretch = state
        self._review = state.mode == "review"
        self._length = (
            min(
                params.block_length - state.block_step,
                params.segment_lengths[state.segment] - state.step,
            )
            if self._review
            else state.punishment_remaining
        )
        self._checked = self._checks.setdefault((state.segment, state.phase), {})
        self._prescribed = tuple(
            prescribed_instruction(params, state, j)
            for j in range(len(self.strategies))
        )
        self._deviations: dict[int, int] = {}  # realized id -> deviation mask
        self.stretches.append((t, state.phase, state.mode, state.segment))

    def act(self, t: int, limit: int = 1) -> int:
        if limit > 1 and self.public is not None:
            left = self._length - self.public.elapsed
            if left < limit:
                limit = left
        holding, until = self._holding, self._until
        end = t + limit
        mask = self._probe_mask
        changed = False
        for j, (strategy, hold, ctx) in enumerate(self._agents):
            held_to = until[j]
            if held_to <= t:
                ctx.period = t
                if hold is None:
                    instruction, n = strategy.act(ctx), 1
                else:
                    instruction, n = hold(ctx, limit)
                held_to = until[j] = t + n
                if instruction is not holding[j]:
                    holding[j], changed = instruction, True
                if strategy.last_probe:
                    mask |= 1 << j
                elif mask:
                    mask &= ~(1 << j)
            if held_to < end:
                end = held_to
        self._probe_mask = mask
        self.held = end - t
        if not changed:  # the same objects as the last run's tuple
            return self._rid
        key = tuple(holding)
        rid = self._ids.get(key)
        if rid is None:
            for j, instr in enumerate(key):
                if instr.role_count != self.game.role_count:
                    raise MetagameError(
                        f"strategy for advisor {j} emitted an invalid "
                        f"instruction at period {t}"
                    )
            rid = self._ids[key] = len(self.realized)
            self.realized.append(key)
        self._rid = rid
        return rid

    def observe(
        self, t: int, rid: int, table: AggregateTable, utilities, table_id=None
    ) -> None:
        """Record the ``held`` periods from ``t`` and advance the state;
        ``table_id`` names ``table`` among the run's distinct aggregates,
        when it has one."""
        realized = self.realized[rid]
        deviated = 0 if self.params is None else self._deviations.get(rid)
        if deviated is None:
            deviated = self._deviations[rid] = sum(
                1 << j
                for j, (a, b) in enumerate(zip(realized, self._prescribed))
                if a != b
            )
        n = self.held
        self.runs.append((n, realized, table, utilities, self._probe_mask, deviated))
        if self.params is None:
            return
        public = self.public
        if self._review:
            flags = None if table_id is None else self._checked.get(table_id)
            if flags is None:
                start = public.start
                flags = _table_flags(self.params, table, start.segment, start.phase)
                if table_id is not None:
                    self._checked[table_id] = flags
            discrepant, excess = flags
            if discrepant:
                public.discrepancies += n
            if excess:
                public.excess = True
        if public.elapsed + n < self._length:
            public.elapsed += n
        else:
            public.elapsed += n - 1
            self._boundary(t + n - 1)

    def _boundary(self, t: int) -> None:
        """End the stretch at its last period ``t``."""
        public = self.public
        start = public.start
        state, event = _advance(
            self.params, start, public.elapsed, public.discrepancies, public.excess
        )
        if event is not None:
            self.events[t] = event
        if not self._review:
            self.punishment_stats.append(
                PunishmentStat(punished=start.punished, start=self._start, end=t)
            )
            self._start, self._first = t + 1, len(self.runs)
        elif start.block_step + public.elapsed + 1 == self.params.block_length:
            self._close_block(
                t, start.phase, start.discrepancies + public.discrepancies, event
            )
            self._start, self._first = t + 1, len(self.runs)
        self._enter(state, t + 1)

    def _close_block(self, t, phase: int, discrepancies: int, event) -> None:
        """Record the review block that ends at period ``t``; no run crosses
        a block end."""
        k, runs = len(self.strategies), self.runs[self._first :]
        self.block_stats.append(
            BlockStat(
                phase=phase,
                start=self._start,
                end=t,
                discrepancies=discrepancies,
                deviation_counts=_flag_counts(runs, 5, k),
                probe_counts=_flag_counts(runs, 4, k),
                event=event.kind if event else None,
            )
        )

    def log(self, seed_key, delta, tail_tol, horizon) -> RunLog:
        return RunLog(
            seed_key=seed_key,
            delta=delta,
            tail_tol=tail_tol,
            horizon=horizon,
            block_stats=self.block_stats,
            punishment_stats=self.punishment_stats,
            runs=self.runs,
            events=self.events,
            stretches=self.stretches,
        )


def run_repeated(
    game: BaseGame,
    pop: Population,
    params: ProtocolParams,
    strategies: Sequence[Strategy],
    delta: float,
    tail_tol: float = 1e-6,
    seed=0,
) -> RunLog:
    """Simulate the repeated meta-game in continuum mode.

    The horizon truncates the discounted sum once the remaining tail is
    provably below ``tail_tol``; identical (seed, inputs) reproduce the log
    byte-for-byte.  Each step records a run of periods in which no advisor's
    instruction changes and no stream is drawn.  Strategies emit a few
    shared instruction profiles, so the aggregate and the utilities are
    computed once per distinct realized tuple and reused, and each distinct
    aggregate gets a table id for the stepper's review-check memo.
    """
    k = pop.llm_count
    if len(strategies) != k:
        raise ValidationError("one strategy per advisor is required")
    key = _seed_key(seed)
    horizon = horizon_for(delta, tail_tol, params.payoff_cap)
    streams = [
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(list(key)).spawn(k)
    ]
    steps = _Periods(game, params, strategies, streams)
    terms = _Terms(game)
    outcomes = []  # realized id -> (aggregate, utilities, table id)
    table_ids: dict[AggregateTable, int] = {}
    t = 0
    while t < horizon:
        rid = steps.act(t, horizon - t)
        if rid == len(outcomes):
            realized = steps.realized[rid]
            table = aggregate_mass(game, pop, realized)
            outcomes.append(
                (
                    table,
                    tuple(_realization_utilities(terms, pop, realized)),
                    table_ids.setdefault(table, len(table_ids)),
                )
            )
        steps.observe(t, rid, *outcomes[rid])
        t += steps.held
    log = steps.log(key, delta, tail_tol, horizon)
    log.discounted = log.recompute_discounted()
    return log


def estimate_deviation_gain(
    game: BaseGame,
    pop: Population,
    params: ProtocolParams,
    llm: int,
    kind: str,
    honest_logs: Sequence[RunLog],
    budget: int | None = None,
) -> tuple[float, float]:
    """Mean discounted gain of one deviating advisor over paired honest runs,
    with a 99% normal-approximation half-width.

    ``honest_logs`` are all-honest ``run_repeated`` runs under ``params``.
    Each is paired with one deviating run at the log's own seed, ``delta``
    and ``tail_tol``, so the two runs draw from the same streams.  A log whose
    horizon differs from its deviating run's was made under other
    parameters and raises ``ValidationError``.
    """
    _check_advisor(pop, llm)
    if len(honest_logs) < 2:
        raise ValidationError("need at least two honest logs")
    gains = []
    for base in honest_logs:
        deviant = [HonestStrategy() for _ in range(pop.llm_count)]
        deviant[llm] = make_adversary(game, pop, params, kind, budget=budget)
        dev = run_repeated(
            game, pop, params, deviant, base.delta, base.tail_tol, seed=base.seed_key
        )
        if dev.horizon != base.horizon:
            raise ValidationError(
                f"honest log {base.seed_key} has horizon {base.horizon}, but "
                f"its deviating run has {dev.horizon}: other parameters"
            )
        gains.append(dev.discounted[llm] - base.discounted[llm])
    mean = sum(gains) / len(gains)
    var = sum((g - mean) ** 2 for g in gains) / (len(gains) - 1)
    half_width = 2.5758293035489004 * math.sqrt(var / len(gains))
    return mean, half_width


def largest_remainder_counts(total: int, fractions: Sequence[float]) -> list[int]:
    """Integer split of ``total`` proportional to ``fractions``; ties favor
    earlier entries."""
    raw = [total * f for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    short = total - sum(counts)
    order = sorted(
        range(len(fractions)), key=lambda idx: (-(raw[idx] - counts[idx]), idx)
    )
    for idx in order[:short]:
        counts[idx] += 1
    return counts


@dataclass
class FiniteRunReport:
    clients_per_role: int
    periods: int
    governance_counts: tuple[tuple[int, ...], ...]
    per_period_gap: list[float]
    mean_gap: float
    max_gap: float
    warnings: list[str]
    continuum_band: float

    def to_dict(self) -> dict:
        return {
            "clients_per_role": self.clients_per_role,
            "periods": self.periods,
            "governance_counts": [list(r) for r in self.governance_counts],
            "mean_gap": self.mean_gap,
            "max_gap": self.max_gap,
            "per_period_gap": self.per_period_gap,
            "warnings": self.warnings,
            "continuum_band": self.continuum_band,
        }


def _group_plan(game, counts, realized):
    """Per role, the counts of its one-cell groups over its (owner, action)
    cells ``owner * n_i + action``, and ``(g, weights, cells)`` per group of
    ``g > 0`` clients whose strategy has several actions."""
    plan = []
    for i, labels in enumerate(game.actions):
        n = len(labels)
        index = {a: idx for idx, a in enumerate(labels)}
        fixed = np.zeros(len(counts[i]) * n, dtype=np.int64)
        draws = []
        for j, cj in enumerate(counts[i]):
            entries = realized[j].assignments[i] if cj else ()
            groups = largest_remainder_counts(cj, [f for _, f in entries])
            for (strat, _), g in zip(entries, groups):
                cells = np.array([j * n + index[a] for a, _ in strat.weights])
                if len(cells) == 1:
                    fixed[cells[0]] += g
                elif g:
                    weights = np.array([w for _, w in strat.weights])
                    draws.append((g, weights / weights.sum(), cells))
        plan.append((fixed, draws))
    return plan


# numpy's multivariate_hypergeometric (its default "marginals" method, which
# fixes the random stream) needs fewer than 10**9 items in the urn, and
# ``_sample_table``'s first urn for a role holds all N of its clients.
CLIENT_CEILING = 10**9


def _sample_table(plan, world: np.random.Generator):
    """One period's occupied joint cells (an index array per role) and their
    client counts, in lexicographic order: multinomial group counts, then
    hypergeometric partners per occupied prefix cell, the last taking the rest."""
    margins = []
    for fixed, draws in plan:
        counts = fixed.copy()
        for g, weights, cells in draws:
            counts[cells] += world.multinomial(g, weights)
        margins.append(counts)
    cells = [np.flatnonzero(margins[0])]
    sizes = margins[0][cells[0]]
    for counts in margins[1:]:
        occupied = np.flatnonzero(counts)
        pool = counts[occupied]
        parts = np.empty((len(sizes), len(occupied)), dtype=np.int64)
        for r, size in enumerate(sizes[:-1]):
            parts[r] = world.multivariate_hypergeometric(pool, size)
            pool = pool - parts[r]
        parts[-1] = pool
        rows, cols = np.nonzero(parts)
        cells = [c[rows] for c in cells] + [occupied[cols]]
        sizes = parts[rows, cols]
    return cells, sizes


def finite_population_run(
    clients_per_role: int,
    game: BaseGame,
    pop: Population,
    strategies: Sequence[Strategy],
    periods: int,
    seed=0,
    params: ProtocolParams | None = None,
) -> tuple[RunLog, FiniteRunReport]:
    """Simulate N clients per role with uniform re-matching every period.

    Governance counts, and each advisor's split of its clients across its
    instructed strategies, come from largest-remainder rounding.  A period
    reads only the counts of occupied joint (owner, action) cells, so
    ``_sample_table`` draws them with the law of per-client play at a cost
    in cells, not clients: a group of g clients on one strategy draws i.i.d.
    actions, whose counts are ``multinomial(g, w)``; a uniform matching is
    role 0 in place and roles 1..m-1 permuted uniformly, so the role-i
    partners of each occupied cell of roles 0..i-1 are a uniform subset of
    what is left of role i, a multivariate hypergeometric draw.  The
    aggregate is each role's marginal over N; an advisor's utility is the
    count-weighted payoff of the roles it owns, over N, with one
    ``game.payoff`` call per distinct action profile (exact for integer
    payoffs, else within 2.2e-16 of a per-client sum in the pinned heist
    runs).  With protocol ``params`` the public machine runs on the
    empirical aggregates, its discrepancy tolerance widened to the sampling
    band 3*sqrt(log(N)/N); the log carries the deviation flags and block and
    punishment statistics (the protocol's guarantees hold in continuum mode
    only), and a warning names each advisor whose largest role share is
    within the band, since its deviations cannot exceed the tolerance.
    """
    N = clients_per_role
    k = pop.llm_count
    if N < 1:
        raise ValidationError("need at least one client per role")
    if N >= CLIENT_CEILING:
        raise ValidationError(
            f"need fewer than {CLIENT_CEILING:,} clients per role, the limit "
            "of numpy's hypergeometric sampler"
        )
    if periods < 1:
        raise ValidationError("need at least one period")
    if len(strategies) != k:
        raise ValidationError("one strategy per advisor is required")
    band = 3.0 * math.sqrt(math.log(max(N, 2)) / N)
    run_params = None if params is None else replace(params, discrepancy_tol=band)

    counts = tuple(tuple(largest_remainder_counts(N, row)) for row in pop.shares)
    warnings = [
        f"role {i}: advisor {j} share {p:.4g} rounds to zero clients at N={N}"
        for i, row in enumerate(pop.shares)
        for j, p in enumerate(row)
        if p > 0.0 and counts[i][j] == 0
    ]
    if params is not None:
        for j in range(k):
            top = max(row[j] for row in pop.shares)
            if 0.0 < top <= band:
                warnings.append(
                    f"advisor {j}'s deviations cannot exceed the tolerance: they "
                    f"move an aggregate mass by at most its largest share "
                    f"{top:.4g}, within the sampling band {band:.4g} at N={N}"
                )

    key = _seed_key(seed)
    children = np.random.SeedSequence(list(key)).spawn(k + 1)
    streams = [np.random.Generator(np.random.PCG64(c)) for c in children[:k]]
    world = np.random.Generator(np.random.PCG64(children[k]))

    ns = [len(labels) for labels in game.actions]
    steps = _Periods(game, run_params, strategies, streams)
    gaps: list[float] = []
    terms = _Terms(game)
    plans: dict = {}  # realized id -> (continuum aggregate, _group_plan)

    for t in range(periods):
        rid = steps.act(t)
        if rid not in plans:
            realized = steps.realized[rid]
            plans[rid] = (
                aggregate_mass(game, pop, realized),
                _group_plan(game, counts, realized),
            )
        continuum, plan = plans[rid]
        cells, size = _sample_table(plan, world)
        actions = [c % n for c, n in zip(cells, ns)]
        table = AggregateTable(
            tuple(np.bincount(a, weights=size, minlength=n) / N for a, n in zip(actions, ns))
        )
        pays = size[:, None] * np.array(
            [
                terms.payoff(tuple(labels[a] for labels, a in zip(game.actions, profile)))
                for profile in zip(*(a.tolist() for a in actions))
            ]
        )
        utilities = sum(
            np.bincount(c // n, weights=pays[:, i], minlength=k)
            for i, (c, n) in enumerate(zip(cells, ns))
        )
        gaps.append(table.max_diff(continuum))
        steps.observe(t, rid, table, tuple((utilities / N).tolist()))

    log = steps.log(key, 0.0, 0.0, periods)
    log.discounted = tuple(
        sum(n * u[j] for n, _, _, u, _, _ in log.runs) / periods for j in range(k)
    )
    report = FiniteRunReport(
        clients_per_role=N,
        periods=periods,
        governance_counts=counts,
        per_period_gap=gaps,
        mean_gap=sum(gaps) / len(gaps),
        max_gap=max(gaps),
        warnings=warnings,
        continuum_band=band,
    )
    return log, report
