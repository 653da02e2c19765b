"""Repeated-game execution: honest and adversarial strategies, discounted
accounting, and a finite-population mode.

Each advisor owns an independent random stream; the public protocol state is
a deterministic function of the observed aggregate stream, so every
participant tracking it stays synchronized.  Continuum and finite mode share
one per-period stepper and differ only in how instructions are realized, so
deviation flags and block statistics are kept whenever protocol parameters
are given.  Runs are reproducible byte-for-byte from (seed, inputs).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import MetagameError, ValidationError
from .games import BaseGame
from .model import (
    AggregateTable,
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    aggregate_mass,
    _realization_utilities,
)
from .oneshot import best_response
from .protocol import (
    EXCESS,
    FREQUENCY,
    ProtocolParams,
    ProtocolState,
    honest_step,
    initial_state,
    observe_and_update,
    prescribed_instruction,
    punishment_action,
)


@dataclass
class StepContext:
    """What a strategy sees each period: the public protocol parameters and
    state (``None`` in a finite run without a protocol), the period, its own
    advisor index and its own random stream."""

    params: ProtocolParams | None
    state: ProtocolState | None
    period: int
    llm: int
    rng: np.random.Generator


class Strategy:
    """Base advisor behavior; subclasses override ``act``."""

    last_probe: bool = False

    def act(self, ctx: StepContext) -> InstructionProfile:
        raise NotImplementedError


class HonestStrategy(Strategy):
    """Follow the protocol exactly: prescriptions, probes, punishments."""

    def act(self, ctx: StepContext) -> InstructionProfile:
        if ctx.state.mode == "punishment":
            self.last_probe = False
            return punishment_action(ctx.params, ctx.state, ctx.llm)
        instruction, probed = honest_step(ctx.params, ctx.state, ctx.llm, ctx.rng)
        self.last_probe = probed
        return instruction


class FixedProfileStrategy(Strategy):
    """Play one meta-action forever, drawing mixed outcomes i.i.d. per period."""

    def __init__(self, action: MetaAction):
        self.action = action
        self._outcomes = list(action.outcomes)
        self._probs = [p for _, p in self._outcomes]

    def act(self, ctx: StepContext) -> InstructionProfile:
        self.last_probe = False
        if len(self._outcomes) == 1:
            return self._outcomes[0][0]
        idx = int(ctx.rng.choice(len(self._outcomes), p=self._probs))
        return self._outcomes[idx][0]


class MyopicBestResponse(Strategy):
    """Best-respond each period to what the others are prescribed to play."""

    def __init__(self, game: BaseGame, pop: Population, budget: float = 10**7):
        self.game = game
        self.pop = pop
        self.budget = budget
        self._cache: dict = {}

    def _reply(self, ctx: StepContext) -> InstructionProfile:
        params, state, j = ctx.params, ctx.state, ctx.llm
        others = tuple(
            prescribed_instruction(params, state, q) if q != j else None
            for q in range(self.pop.llm_count)
        )
        key = others
        hit = self._cache.get(key)
        if hit is None:
            placeholder = MetaAction.from_pure(
                tuple(a[0] for a in self.game.actions)
            )
            profile_actions = tuple(
                placeholder if q == j else MetaAction.deterministic(others[q])
                for q in range(self.pop.llm_count)
            )
            br = best_response(
                self.game, self.pop, MetaProfile(profile_actions), j, budget=self.budget
            )
            hit = InstructionProfile.pure(br.profile)
            self._cache[key] = hit
        return hit

    def act(self, ctx: StepContext) -> InstructionProfile:
        self.last_probe = False
        return self._reply(ctx)


class BudgetedDeviator(Strategy):
    """Deviate on the first ``budget`` periods of every review block.

    Outside its deviation budget (and during punishment blocks) it follows
    the protocol, without probing.
    """

    def __init__(self, game, pop, periods_per_block: int, deviation=None):
        self.periods_per_block = periods_per_block
        self.deviation = deviation
        self._myopic = MyopicBestResponse(game, pop)

    def act(self, ctx: StepContext) -> InstructionProfile:
        self.last_probe = False
        if ctx.state.mode == "punishment":
            return punishment_action(ctx.params, ctx.state, ctx.llm)
        if ctx.state.block_step < self.periods_per_block:
            if self.deviation is not None:
                return self.deviation
            return self._myopic._reply(ctx)
        return ctx.params.prescriptions[ctx.state.segment][ctx.llm]


def make_adversary(
    game: BaseGame,
    pop: Population,
    params: ProtocolParams,
    kind: str,
    budget: int | None = None,
    deviation: InstructionProfile | None = None,
) -> Strategy:
    """Adversary factory: ``honest``, ``light``, ``heavy``, ``greedy_myopic``.

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
        return BudgetedDeviator(game, pop, periods, deviation)
    if kind == "heavy":
        floor_periods = int(math.ceil(p * T)) if p > 0 else 1
        periods = T if budget is None else max(int(budget), floor_periods)
        return BudgetedDeviator(game, pop, min(periods, T), deviation)
    raise ValidationError(f"unknown adversary kind {kind!r}")


@dataclass(frozen=True)
class PeriodRecord:
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


@dataclass
class RunLog:
    """Per-period record of one repeated run plus derived statistics."""

    seed_key: tuple
    delta: float
    tail_tol: float
    horizon: int
    records: list[PeriodRecord]
    block_stats: list[BlockStat]
    punishment_stats: list[PunishmentStat]
    discounted: tuple[float, ...] = field(default=())

    def recompute_discounted(self) -> tuple[float, ...]:
        k = len(self.records[0].utilities)
        out = []
        for j in range(k):
            total = 0.0
            w = 1.0
            for rec in self.records:
                total += w * rec.utilities[j]
                w *= self.delta
            out.append((1.0 - self.delta) * total)
        return tuple(out)

    def cycles(self):
        """Review blocks with any immediately following punishment stretch:
        (phase, start, end, per-advisor plain average utility)."""
        pstarts = {p.start: p for p in self.punishment_stats}
        out = []
        k = len(self.records[0].utilities)
        for blk in self.block_stats:
            end = blk.end
            pun = pstarts.get(blk.end + 1)
            if pun is not None:
                end = pun.end
            sums = [0.0] * k
            for rec in self.records[blk.start : end + 1]:
                for j in range(k):
                    sums[j] += rec.utilities[j]
            length = end - blk.start + 1
            out.append((blk.phase, blk.start, end, tuple(s / length for s in sums)))
        return out

    def event_counts(self, llm: int) -> dict[str, int]:
        counts = {EXCESS: 0, FREQUENCY: 0}
        for rec in self.records:
            if rec.event is not None and rec.event_llm == llm:
                counts[rec.event] += 1
        return counts

    def mean_block_discrepancy(self) -> float:
        if not self.block_stats:
            return 0.0
        return sum(b.discrepancy_fraction for b in self.block_stats) / len(
            self.block_stats
        )

    def to_jsonl(self) -> str:
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
        for rec in self.records:
            lines.append(json.dumps(rec.to_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"

    def save_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def summary_rows(self) -> list[dict]:
        rows = []
        for j in range(len(self.records[0].utilities)):
            counts = self.event_counts(j)
            rows.append(
                {
                    "seed": "-".join(str(s) for s in self.seed_key),
                    "llm": j,
                    "discounted_utility": self.discounted[j],
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


class _Periods:
    """Per-period bookkeeping shared by both simulators: ``act`` asks every
    strategy for its instruction; after the caller realizes them,
    ``observe`` advances the public state (when ``params`` are given), flags
    deviations, keeps the block and punishment statistics and records the
    period."""

    def __init__(self, game, params, strategies, streams):
        self.game = game
        self.params = params
        self.strategies = strategies
        self.streams = streams
        self.state = None if params is None else initial_state(params)
        self.records: list[PeriodRecord] = []
        self.block_stats: list[BlockStat] = []
        self.punishment_stats: list[PunishmentStat] = []
        self._probes: tuple[bool, ...] = ()
        self._start = 0  # first period of the current block or punishment

    def act(self, t: int) -> tuple[InstructionProfile, ...]:
        realized = []
        probes = []
        for j, strategy in enumerate(self.strategies):
            instr = strategy.act(
                StepContext(self.params, self.state, t, j, self.streams[j])
            )
            if instr.role_count != self.game.role_count:
                raise MetagameError(
                    f"strategy for advisor {j} emitted an invalid instruction "
                    f"at period {t}"
                )
            realized.append(instr)
            probes.append(bool(strategy.last_probe))
        self._probes = tuple(probes)
        return tuple(realized)

    def observe(self, t, realized, table: AggregateTable, utilities) -> None:
        k = len(realized)
        prev = self.state
        event = None
        deviated = (False,) * k
        if prev is not None:
            self.state, event = observe_and_update(self.params, prev, table)
            deviated = tuple(
                realized[j] != prescribed_instruction(self.params, prev, j)
                for j in range(k)
            )
        self.records.append(
            PeriodRecord(
                period=t,
                phase=-1 if prev is None else prev.phase,
                mode="none" if prev is None else prev.mode,
                segment=-1 if prev is None else prev.segment,
                instructions=realized,
                aggregate=table,
                utilities=utilities,
                probes=self._probes,
                deviated=deviated,
                event=event.kind if event else None,
                event_llm=event.llm if event else None,
            )
        )
        if prev is None:
            return
        if prev.mode == "review":
            if prev.block_step == self.params.block_length - 1:
                self._close_block(t, event)
                self._start = t + 1
        elif self.state.mode == "review":
            self.punishment_stats.append(
                PunishmentStat(punished=prev.punished, start=self._start, end=t)
            )
            self._start = t + 1

    def _close_block(self, t, event) -> None:
        """Record the review block that ends at period ``t``."""
        block = self.records[self._start :]
        intended, tol = self.params.intended_aggregates, self.params.discrepancy_tol
        self.block_stats.append(
            BlockStat(
                phase=block[0].phase,
                start=self._start,
                end=t,
                discrepancies=sum(
                    rec.aggregate.max_diff(intended[rec.segment]) > tol
                    for rec in block
                ),
                deviation_counts=tuple(map(sum, zip(*(r.deviated for r in block)))),
                probe_counts=tuple(map(sum, zip(*(r.probes for r in block)))),
                event=event.kind if event else None,
            )
        )

    def log(self, seed_key, delta, tail_tol, horizon) -> RunLog:
        return RunLog(
            seed_key=seed_key,
            delta=delta,
            tail_tol=tail_tol,
            horizon=horizon,
            records=self.records,
            block_stats=self.block_stats,
            punishment_stats=self.punishment_stats,
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
    byte-for-byte.
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
    paycache: dict = {}
    counter = [0]
    for t in range(horizon):
        realized = steps.act(t)
        table = aggregate_mass(game, pop, realized)
        utilities = tuple(
            _realization_utilities(game, pop, realized, paycache, counter, math.inf)
        )
        steps.observe(t, realized, table, utilities)
    log = steps.log(key, delta, tail_tol, horizon)
    log.discounted = log.recompute_discounted()
    return log


def estimate_deviation_gain(
    game: BaseGame,
    pop: Population,
    params: ProtocolParams,
    llm: int,
    kind: str,
    trials: int = 30,
    seed: int = 0,
    delta: float = 0.995,
    tail_tol: float = 1e-6,
    budget: int | None = None,
) -> tuple[float, float]:
    """Mean discounted gain of one deviating advisor over paired-seed honest
    runs, with a 99% normal-approximation half-width."""
    if trials < 2:
        raise ValidationError("need at least two trials")
    gains = []
    for trial in range(trials):
        trial_seed = (seed, trial)
        honest = [HonestStrategy() for _ in range(pop.llm_count)]
        base = run_repeated(
            game, pop, params, honest, delta, tail_tol, seed=trial_seed
        )
        deviant = [HonestStrategy() for _ in range(pop.llm_count)]
        deviant[llm] = make_adversary(game, pop, params, kind, budget=budget)
        dev = run_repeated(
            game, pop, params, deviant, delta, tail_tol, seed=trial_seed
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


def _payoff_lookup(game: BaseGame):
    sizes = [len(a) for a in game.actions]
    if game.table is not None and game.num_profiles <= 10**6:
        arr = np.empty(sizes + [game.role_count])
        for profile in game.profiles():
            idx = tuple(game.actions[i].index(a) for i, a in enumerate(profile))
            arr[idx] = game.payoff(profile)
        return arr
    return None


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

    Governance counts come from largest-remainder rounding of the shares.
    When protocol ``params`` are given, the public machine runs on the
    empirical aggregates with its discrepancy tolerance widened to the
    sampling band 3*sqrt(log(N)/N), and the log carries the ``deviated``
    flags and the block and punishment statistics as in continuum mode; the
    protocol's guarantees are only asserted in continuum mode.  Without
    ``params`` strategies see no protocol state and no deviation is flagged.
    """
    N = clients_per_role
    k = pop.llm_count
    m = game.role_count
    if N < 1:
        raise ValidationError("need at least one client per role")
    if len(strategies) != k:
        raise ValidationError("one strategy per advisor is required")
    band = 3.0 * math.sqrt(math.log(max(N, 2)) / N)
    run_params = params
    if params is not None:
        run_params = replace(params, discrepancy_tol=band)

    warnings = []
    counts = []
    for i in range(m):
        row = largest_remainder_counts(N, pop.shares[i])
        for j, c in enumerate(row):
            if pop.shares[i][j] > 0.0 and c == 0:
                warnings.append(
                    f"role {i}: advisor {j} share {pop.shares[i][j]:.4g} rounds "
                    f"to zero clients at N={N}"
                )
        counts.append(tuple(row))
    counts = tuple(counts)

    key = _seed_key(seed)
    children = np.random.SeedSequence(list(key)).spawn(k + 1)
    streams = [np.random.Generator(np.random.PCG64(c)) for c in children[:k]]
    world = np.random.Generator(np.random.PCG64(children[k]))

    lookup = _payoff_lookup(game)
    label_index = [
        {a: idx for idx, a in enumerate(acts)} for acts in game.actions
    ]

    steps = _Periods(game, run_params, strategies, streams)
    gaps: list[float] = []
    paycache: dict = {}

    for t in range(periods):
        realized = steps.act(t)

        actions_by_role = []
        owners_by_role = []
        for i in range(m):
            acts = np.empty(N, dtype=np.int64)
            owners = np.empty(N, dtype=np.int64)
            pos = 0
            for j in range(k):
                cj = counts[i][j]
                if cj == 0:
                    continue
                groups = largest_remainder_counts(
                    cj, [f for _, f in realized[j].assignments[i]]
                )
                for (strat, _), g in zip(realized[j].assignments[i], groups):
                    if g == 0:
                        continue
                    labels = [label_index[i][a] for a, _ in strat.weights]
                    probs = [w for _, w in strat.weights]
                    if len(labels) == 1:
                        acts[pos : pos + g] = labels[0]
                    else:
                        acts[pos : pos + g] = world.choice(labels, size=g, p=probs)
                    owners[pos : pos + g] = j
                    pos += g
            perm = world.permutation(N)
            actions_by_role.append(acts[perm])
            owners_by_role.append(owners[perm])

        rows = []
        for i in range(m):
            binc = np.bincount(actions_by_role[i], minlength=len(game.actions[i]))
            rows.append(tuple(binc / N))
        table = AggregateTable(tuple(rows))

        if lookup is not None:
            pays = lookup[tuple(actions_by_role)]  # (N, m)
        else:
            pays = np.empty((N, m))
            for y in range(N):
                profile = tuple(
                    game.actions[i][actions_by_role[i][y]] for i in range(m)
                )
                pay = paycache.get(profile)
                if pay is None:
                    pay = game.payoff(profile)
                    paycache[profile] = pay
                pays[y] = pay
        utilities = []
        for j in range(k):
            total = 0.0
            for i in range(m):
                mask = owners_by_role[i] == j
                if mask.any():
                    total += float(pays[mask, i].sum())
            utilities.append(total / N)
        utilities = tuple(utilities)

        continuum = aggregate_mass(game, pop, realized)
        gaps.append(table.max_diff(continuum))
        steps.observe(t, realized, table, utilities)

    log = steps.log(key, 0.0, 0.0, periods)
    log.discounted = tuple(
        sum(rec.utilities[j] for rec in log.records) / periods
        for j in range(k)
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
