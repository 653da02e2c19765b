"""The counter-based stepper against the public protocol functions.

``sim._Periods`` keeps the public state in plain counters and builds a
``ProtocolState`` only at boundaries; ``observe_and_update`` is the reference
it must agree with on every aggregate stream.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from metagame.model import AggregateTable, InstructionProfile, aggregate_mass
from metagame.protocol import (
    EXCESS,
    FREQUENCY,
    ProtocolState,
    derive_params,
    initial_state,
    observe_and_update,
    prescribed_instruction,
    _advance,
    _table_flags,
)
from metagame.scenarios import make_scenario, scenario_population
from metagame.sim import (
    BlockStat,
    HonestStrategy,
    PunishmentStat,
    Strategy,
    _Periods,
    make_adversary,
    run_repeated,
)

T40 = {"probe_rate": 0.1, "block_length": 40}
# The discount factor of the replayed logs.
DELTA = 0.97


def _heist():
    game, pop = make_scenario("heist"), scenario_population("heist")
    params = derive_params(game, pop, (0.0, 0.0, 0.0), 1.2, 0.5, overrides=T40)
    return game, pop, params


def _pd(overrides=T40):
    game = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    return game, pop, derive_params(game, pop, (-3.6, -0.4), 1.2, 0.5, overrides=overrides)


SCENARIOS = {"heist": _heist(), "pd": _pd()}


def _table_pool(game, pop, params) -> list[AggregateTable]:
    """The intended table of each segment, then each segment's table with
    one advisor's prescription replaced by a pure profile: a single probe
    when that advisor is under review, possibly an excess otherwise."""
    pool = list(params.intended_aggregates)
    pure = [InstructionProfile.pure(p) for p in game.profiles()]
    for row in params.prescriptions:
        for q in range(pop.llm_count):
            for profile in pure:
                realized = list(row)
                realized[q] = profile
                table = aggregate_mass(game, pop, tuple(realized))
                if table not in pool:
                    pool.append(table)
    return pool


POOLS = {name: _table_pool(*scenario) for name, scenario in SCENARIOS.items()}


class _Checking(Strategy):
    """Honest play that checks, each period, that the stretch state agrees
    with the exact state in everything the protocol functions read."""

    def __init__(self):
        self.honest = HonestStrategy()

    def act(self, ctx):
        stretch, state = ctx.stretch, ctx.state
        for name in ("phase", "segment", "mode", "punished"):
            assert getattr(stretch, name) == getattr(state, name)
        assert ctx.block_step == state.block_step
        for q in range(ctx.params.llm_count):
            assert prescribed_instruction(ctx.params, stretch, q) == (
                prescribed_instruction(ctx.params, state, q)
            )
        instruction = self.honest.act(ctx)
        self.last_probe = self.honest.last_probe
        return instruction


def _replay(name, stream, memo):
    """Drive the stepper and ``observe_and_update`` with the same stream of
    pool indices; assert equal states, events and statistics throughout."""
    game, pop, params = SCENARIOS[name]
    pool = POOLS[name]
    k = pop.llm_count
    streams = [np.random.default_rng([7, j]) for j in range(k)]
    steps = _Periods(game, params, [_Checking() for _ in range(k)], streams)

    state = initial_state(params)
    assert steps.public.state == state
    block_stats, punishment_stats = [], []
    start = 0
    for t, idx in enumerate(stream):
        table = pool[idx]
        rid = steps.act(t)
        steps.observe(t, rid, table, (float(idx),) * k, idx if memo else None)
        prev = state
        state, event = observe_and_update(params, prev, table)
        assert steps.public.state == state, t
        assert steps.events.get(t) == event, t
        # The bookkeeping of the per-record stepper this one replaced.
        if prev.mode == "review":
            if prev.block_step == params.block_length - 1:
                block = range(start, t + 1)
                recs = list(steps.log((0,), 0.0, 0.0, t + 1).iter_records())
                block_stats.append(
                    BlockStat(
                        phase=prev.phase,
                        start=start,
                        end=t,
                        discrepancies=sum(
                            pool[stream[s]].max_diff(
                                params.intended_aggregates[recs[s].segment]
                            )
                            > params.discrepancy_tol
                            for s in block
                        ),
                        deviation_counts=tuple(
                            map(sum, zip(*(recs[s].deviated for s in block)))
                        ),
                        probe_counts=tuple(map(sum, zip(*(recs[s].probes for s in block)))),
                        event=event.kind if event else None,
                    )
                )
                start = t + 1
        elif state.mode == "review":
            punishment_stats.append(PunishmentStat(prev.punished, start, t))
            start = t + 1
        assert steps.block_stats == block_stats
        assert steps.punishment_stats == punishment_stats

    log = steps.log((0,), DELTA, 0.0, len(stream))
    replayed = initial_state(params)
    for t, rec in enumerate(log.iter_records()):
        assert (rec.phase, rec.mode, rec.segment) == (
            replayed.phase, replayed.mode, replayed.segment
        )
        replayed, event = observe_and_update(params, replayed, pool[stream[t]])
        assert (rec.event, rec.event_llm) == (
            (event.kind, event.llm) if event else (None, None)
        )
    return log


# No shrinking: a failing stream of up to 540 periods took minutes to shrink.
@settings(
    max_examples=40, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    name=st.sampled_from(sorted(SCENARIOS)),
    memo=st.booleans(),
    runs=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(1, 45)), min_size=1, max_size=12
    ),
)
def test_stepper_replays_observe_and_update(name, memo, runs):
    pool = POOLS[name]
    stream = [idx % len(pool) for idx, n in runs for _ in range(n)]
    log = _replay(name, stream, memo)
    # The same periods recorded in held runs give the same maximal runs.
    for each in (False, True):
        held = _held(name, runs, memo, each)
        assert held.runs == log.runs
        assert held.to_jsonl() == log.to_jsonl()
        assert _bits(held.recompute_discounted()) == _bits(log.recompute_discounted())


def _held(name, runs, memo, each):
    """The stepper fed each ``(idx, n)`` pair of ``runs`` as ``n`` periods of
    one pool table, asking honest strategies for the periods they hold; a
    held run is recorded through ``observe``, or period by period through
    ``observe_each`` as finite mode records it."""
    game, pop, params = SCENARIOS[name]
    pool = POOLS[name]
    k = pop.llm_count
    streams = [np.random.default_rng([7, j]) for j in range(k)]
    steps = _Periods(game, params, [HonestStrategy() for _ in range(k)], streams)
    t = 0
    for idx, n in runs:
        idx %= len(pool)
        outcome = (pool[idx], (float(idx),) * k, idx if memo else None)
        end = t + n
        while t < end:
            rid = steps.act(t, end - t)
            if each:
                steps.observe_each(t, rid, [outcome] * steps.held)
            else:
                steps.observe(t, rid, *outcome)
            t += steps.held
    return steps.log((0,), DELTA, 0.0, t)


def _bits(values):
    return [float(x).hex() for x in values]


def _first(name, flags, segment=0, phase=0):
    _, _, params = SCENARIOS[name]
    return next(
        i for i, table in enumerate(POOLS[name])
        if _table_flags(params, table, segment, phase) == flags
    )


@pytest.mark.parametrize("memo", [True, False])
def test_replay_covers_punishment_excess_and_segments(memo):
    # PD at T = 40: segments of 32 and 8 periods, punishment length 30.
    _, _, params = SCENARIOS["pd"]
    assert params.segment_lengths == (32, 8) and params.punish_length == 30
    probe = _first("pd", (True, False))
    excess = _first("pd", (True, True))
    intended = 0
    stream = [probe] * 40 + [intended] * 30 + [excess] * 40 + [intended] * 100
    log = _replay("pd", stream, memo)
    assert [(t, e.kind) for t, e in log.events.items()] == [(39, FREQUENCY), (109, EXCESS)]
    assert [(p.start, p.end) for p in log.punishment_stats] == [(40, 69)]
    modes = [rec.mode for rec in log.records]
    assert modes[39:41] == ["review", "punishment"] and modes[69:71] == ["punishment", "review"]
    assert [rec.segment for rec in log.records[110:152]] == [0] * 32 + [1] * 8 + [0] * 2
    assert [b.event for b in log.block_stats] == [FREQUENCY, EXCESS, None, None]


@pytest.fixture(scope="module")
def readme_pd():
    return _pd(overrides=None)


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _boundaries(log) -> int:
    """Block ends, punishment ends and segment changes inside a block."""
    recs = log.records
    block_ends = {blk.end for blk in log.block_stats}
    segment_changes = sum(
        a.mode == b.mode == "review" and a.segment != b.segment
        and a.period not in block_ends
        for a, b in zip(recs, recs[1:])
    )
    return len(log.block_stats) + len(log.punishment_stats) + segment_changes


@pytest.mark.parametrize("case", ["readme", "T40"])
@pytest.mark.parametrize("kind", ["honest", "heavy"])
def test_checks_once_per_table_and_states_once_per_boundary(
    readme_pd, monkeypatch, case, kind
):
    game, pop, params = readme_pd if case == "readme" else SCENARIOS["pd"]
    strategies = [HonestStrategy(), make_adversary(game, pop, params, kind)]
    diffs = _count(monkeypatch, AggregateTable, "max_diff")
    states = _count(monkeypatch, ProtocolState, "__init__")
    log = run_repeated(game, pop, params, strategies, 0.995, 1e-6, seed=(5, 0))
    monkeypatch.undo()
    assert log.horizon == 3289
    reviewed = {
        (rec.aggregate, rec.segment, rec.phase)
        for rec in log.records if rec.mode == "review"
    }
    assert len(diffs) <= len(reviewed)
    # One state at the start and one per boundary; these strategies read
    # only ``ctx.stretch`` and ``ctx.block_step``.
    assert len(states) <= 1 + _boundaries(log)
    if case == "readme":
        assert len(states) == 1 and len(log.block_stats) == 0
    else:
        assert log.block_stats and (kind == "honest" or log.punishment_stats)


def test_strategy_reading_state_gets_the_exact_state():
    game, pop, params = SCENARIOS["pd"]
    seen = []

    class Reader(HonestStrategy):
        def act(self, ctx):
            seen.append(ctx.state)
            return super().act(ctx)

    log = run_repeated(
        game, pop, params, [Reader(), HonestStrategy()], 0.95, 1e-3, seed=3
    )
    state = initial_state(params)
    for t, rec in enumerate(log.records):
        assert seen[t] == state
        state, _ = observe_and_update(params, state, rec.aggregate)


FLAG_PAIRS = [(False, False), (True, False), (True, True)]


def _stretch_length(params, state) -> int:
    if state.mode == "punishment":
        return state.punishment_remaining
    return min(
        params.block_length - state.block_step,
        params.segment_lengths[state.segment] - state.step,
    )


_FIRST = {
    (name, pair, segment, phase): _first(name, pair, segment, phase)
    for name, (_, _, params) in SCENARIOS.items()
    for pair in FLAG_PAIRS
    for segment in range(params.segment_count)
    for phase in range(params.llm_count)
}


def _reference(name, state, flags):
    """``observe_and_update`` over one pool table per ``(discrepant,
    excess)`` pair in ``flags``; the final state and every event."""
    _, _, params = SCENARIOS[name]
    events = []
    for pair in flags:
        table = POOLS[name][_FIRST[name, pair, state.segment, state.phase]]
        state, event = observe_and_update(params, state, table)
        events.append(event)
    return state, events


def _stretch_starts(name) -> list:
    """Every stretch start reachable from the initial state, found with
    ``observe_and_update`` alone: from each start, one flag stream per
    possible (discrepancy total, excess) over the whole stretch."""
    _, _, params = SCENARIOS[name]
    starts, queue = {initial_state(params)}, [initial_state(params)]
    while queue:
        state = queue.pop()
        n = _stretch_length(params, state)
        totals = [(0, False)] if state.mode == "punishment" else [
            (d, x) for d in range(n + 1) for x in (False, True) if d or not x
        ]
        for d, x in totals:
            flags = [(True, x and i == d - 1) for i in range(d)]
            flags += [(False, False)] * (n - d)
            nxt, _ = _reference(name, state, flags)
            if nxt not in starts:
                starts.add(nxt)
                queue.append(nxt)
    return sorted(starts, key=repr)


STARTS = {name: _stretch_starts(name) for name in SCENARIOS}


# No shrinking either: a failing draw covers every stretch start, and
# shrinking it took two minutes.
@settings(
    max_examples=10, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(data=st.data())
def test_advance_is_successive_observe_and_update(data):
    """``_advance`` from each reachable stretch start, after any number of
    periods short of the stretch's end, equals that many plus one
    ``observe_and_update`` calls on a table stream with the same flag totals;
    only the last of them may fire an event."""
    # The starts cover every phase and punishment, and segment 1 of PD starts
    # with each of segment 0's discrepancy totals, 0..32.
    pd = STARTS["pd"]
    assert {s.discrepancies for s in pd if s.segment == 1} == set(range(33))
    assert any(s.excess_seen for s in pd)
    for name, starts in STARTS.items():
        _, _, params = SCENARIOS[name]
        everyone = set(range(params.llm_count))
        assert {s.phase for s in starts} == everyone
        assert {s.punished for s in starts if s.mode == "punishment"} == everyone
        for start in starts:
            elapsed = data.draw(st.integers(0, _stretch_length(params, start) - 1))
            flags = data.draw(
                st.lists(st.sampled_from(FLAG_PAIRS), min_size=elapsed + 1,
                         max_size=elapsed + 1)
            )
            want, events = _reference(name, start, flags)
            review = start.mode == "review"
            discrepancies = sum(d for d, _ in flags) if review else 0
            excess = review and any(x for _, x in flags)
            got = _advance(params, start, elapsed, discrepancies, excess)
            assert got == (want, events[-1]), (name, start, elapsed, flags)
            assert events[:-1] == [None] * elapsed


def _threshold_totals(params, start, n):
    """Discrepancy totals for a stretch of ``n`` review periods from
    ``start``: none, the count that first trips the frequency rule at block
    end (less one, exactly, plus one, net of ``start``'s) and all ``n``."""
    T = params.block_length
    trip = next(
        (d for d in range(T + 1) if d / T > params.freq_threshold + 1e-12), T + 1
    )
    trip -= start.discrepancies
    return sorted({d for d in (0, trip - 1, trip, trip + 1, n) if 0 <= d <= n})


def test_advance_covers_every_stretch_start_exhaustively():
    """``_advance`` against ``observe_and_update`` from every reachable
    stretch start, after every number of periods short of the stretch's end,
    with discrepancy totals at 0, at the frequency threshold and one either
    side, and at the most the stretch allows, each without and with an
    excess."""
    assert sum(map(len, STARTS.values())) == 140
    fired = set()
    for name, starts in STARTS.items():
        _, _, params = SCENARIOS[name]
        for start in starts:
            review = start.mode == "review"
            for elapsed in range(_stretch_length(params, start)):
                n = elapsed + 1
                totals = _threshold_totals(params, start, n) if review else [0]
                for d in totals:
                    for excess in (False, True) if review and d else (False,):
                        flags = [(True, excess and i == d - 1) for i in range(d)]
                        flags += [(False, False)] * (n - d)
                        want, events = _reference(name, start, flags)
                        got = _advance(params, start, elapsed, d, excess)
                        assert got == (want, events[-1]), (name, start, elapsed, d, excess)
                        assert events[:-1] == [None] * elapsed
                        if events[-1] is not None:
                            fired.add((name, events[-1].kind, elapsed > 0))
    # Both events fire, at block ends reached after more than one period.
    assert {(name, kind, True) for name in SCENARIOS for kind in (EXCESS, FREQUENCY)} <= fired

