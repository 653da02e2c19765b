"""Runs of identical periods against the per-period loop.

``run_repeated`` asks the built-in strategies for a run of periods at a
time.  A subclass that overrides ``act`` alone is asked once per period, so
wrapping every strategy in one gives the per-period loop as a reference; the
two must agree bit for bit, in the log and in every stream's final state.
"""

import math

import pytest
from hypothesis import Phase, given, settings, strategies as st

from metagame import sim
from metagame.model import MetaAction
from metagame.protocol import derive_params
from metagame.scenarios import make_scenario, scenario_population
from metagame.sim import (
    ADVERSARY_KINDS,
    BULK_GAP,
    BULK_GAPS,
    BudgetedDeviator,
    FixedProfileStrategy,
    HonestStrategy,
    make_adversary,
    run_repeated,
)

GAMES = {
    "heist": (make_scenario("heist"), scenario_population("heist"), (0.0, 0.0, 0.0)),
    "pd": (
        make_scenario("pd", X=-2, Y=-4, Z=-5),
        scenario_population("pd"),
        (-3.6, -0.4),
    ),
}


def _params(name, overrides):
    game, pop, target = GAMES[name]
    return derive_params(game, pop, target, 1.2, 0.5, overrides=overrides)


_PER_PERIOD = {}


def _per_period(strategy):
    """``strategy`` as an instance of a subclass that overrides ``act`` alone,
    which the stepper asks once per period."""
    cls = type(strategy)
    if cls not in _PER_PERIOD:
        _PER_PERIOD[cls] = type(f"PerPeriod{cls.__name__}", (cls,), {"act": cls.act})
    strategy.__class__ = _PER_PERIOD[cls]
    return strategy


def _run(game, pop, params, strategies, delta, seed):
    """``run_repeated`` and the advisors' streams, in their final state."""
    seen = []
    init = sim._Periods.__init__

    def recording(self, game, params, strategies, streams):
        seen.append(streams)
        init(self, game, params, strategies, streams)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim._Periods, "__init__", recording)
        log = run_repeated(game, pop, params, strategies, delta, 1e-6, seed=seed)
    (streams,) = seen
    return log, [rng.bit_generator.state for rng in streams]


def _assert_same(run, reference):
    (log, states), (ref, ref_states) = run, reference
    lines, ref_lines = log.to_jsonl().splitlines(), ref.to_jsonl().splitlines()
    # The first differing line, not a diff of the whole log.
    differ = [(a, b) for a, b in zip(lines, ref_lines) if a != b][:1]
    assert differ == [] and len(lines) == len(ref_lines)
    assert log.block_stats == ref.block_stats
    assert log.punishment_stats == ref.punishment_stats
    assert log.discounted == ref.discounted
    assert states == ref_states


def _strategies(game, pop, params, llm, kind, budget=None):
    strategies = [HonestStrategy() for _ in range(pop.llm_count)]
    strategies[llm] = make_adversary(game, pop, params, kind, budget=budget)
    return strategies


def _check(name, params, llm, kind, budget, delta, seed):
    game, pop, _ = GAMES[name]
    run = _run(game, pop, params, _strategies(game, pop, params, llm, kind, budget),
               delta, seed)
    reference = [
        _per_period(s) for s in _strategies(game, pop, params, llm, kind, budget)
    ]
    _assert_same(run, _run(game, pop, params, reference, delta, seed))
    return run[0]


# Each adversary kind on each advisor, and a light deviator with a budget of
# one period, whose runs end the reviewed honest advisor's quiet runs early.
ADVERSARIES = [(kind, None) for kind in ADVERSARY_KINDS] + [("light", 1)]
T40 = {
    (name, p): _params(name, {"probe_rate": p, "block_length": 40})
    for name in GAMES
    for p in (0.05, 0.25, 1.0)
}


@pytest.mark.parametrize("kind, budget", ADVERSARIES)
@pytest.mark.parametrize("name, p", sorted(T40))
def test_runs_equal_the_per_period_loop_at_T40(name, p, kind, budget):
    params = T40[name, p]
    for llm in range(GAMES[name][1].llm_count):
        log = _check(name, params, llm, kind, budget, 0.99, (3, llm))
        assert log.block_stats


@pytest.fixture(scope="module")
def readme_pd():
    return _params("pd", None)


@pytest.mark.parametrize("kind, budget", ADVERSARIES)
def test_runs_equal_the_per_period_loop_on_the_readme_pd(readme_pd, kind, budget):
    for llm in range(2):
        log = _check("pd", readme_pd, llm, kind, budget, 0.995, (5, llm))
        assert log.horizon == 3289


def test_strategies_reused_in_a_second_run_equal_the_per_period_loop():
    """Quiet periods held in one run are not carried into the next, whose
    streams are new."""
    game, pop, _ = GAMES["pd"]
    params = T40["pd", 0.05]
    # The light deviator's budget of one period ends a run inside the honest
    # advisor's quiet hold at every block start.
    strategies = _strategies(game, pop, params, 1, "light", 1)
    reference = [_per_period(s) for s in _strategies(game, pop, params, 1, "light", 1)]
    for seed in (0, 1):
        _assert_same(
            _run(game, pop, params, strategies, 0.99, seed),
            _run(game, pop, params, reference, 0.99, seed),
        )


def test_fixed_profiles_pure_and_mixed_equal_the_per_period_loop():
    game, pop, _ = GAMES["pd"]
    params = T40["pd", 0.05]
    pure = MetaAction.from_pure(("C", "C"))
    mixed = MetaAction.uniform_over_pure([("C", "C"), ("D", "D")])
    for actions in ((pure, mixed), (mixed, pure)):
        _assert_same(
            _run(game, pop, params, [FixedProfileStrategy(a) for a in actions], 0.99, 2),
            _run(
                game, pop, params,
                [_per_period(FixedProfileStrategy(a)) for a in actions], 0.99, 2,
            ),
        )


# No shrinking, as in test_stepper.py: a failing run is thousands of periods.
@settings(
    max_examples=100, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    name=st.sampled_from(sorted(GAMES)),
    # As often below as above the rate at which bulk searches start.
    probe_rate=st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(0.002, 1 / BULK_GAP),
        st.floats(1 / BULK_GAP, 1.0),
    ),
    block_length=st.integers(1, 80),
    punish_length=st.integers(0, 60),
    delta=st.floats(0.9, 0.995),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(ADVERSARY_KINDS),
    budget=st.one_of(st.none(), st.integers(0, 80)),
    llm=st.integers(0, 2),
)
def test_runs_equal_the_per_period_loop_for_drawn_protocols(
    name, probe_rate, block_length, punish_length, delta, seed, kind, budget, llm
):
    overrides = {
        "probe_rate": probe_rate,
        "block_length": block_length,
        "punish_length": punish_length,
    }
    params = _params(name, overrides)
    llm %= GAMES[name][1].llm_count
    _check(name, params, llm, kind, budget, delta, seed)


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("kind", ["honest", "heavy"])
def test_readme_pd_asks_strategies_once_per_hold(readme_pd, monkeypatch, kind):
    """On the README PD config the first stretch (a block of 262,144 periods)
    outlasts the horizon of 3,289, so advisor 1 (honest and not reviewed, or
    a heavy deviator) holds its instruction to the horizon and is asked once.
    Advisor 0, under review, is asked once per hold, and a hold ends at a
    probe, just before one, or after a bulk search of
    ``m = ceil(BULK_GAPS / p)`` uniforms that found none (or the horizon cut
    it): at most ``2 * probes + horizon // m + 1`` asks.  Asking every
    advisor every period would make 6,578."""
    game, pop, params = *GAMES["pd"][:2], readme_pd
    honest = _count(monkeypatch, HonestStrategy, "hold")
    deviator = _count(monkeypatch, BudgetedDeviator, "hold")
    observed = _count(monkeypatch, sim._Periods, "observe")
    strategies = [HonestStrategy(), make_adversary(game, pop, params, kind)]
    log = run_repeated(game, pop, params, strategies, 0.995, 1e-6, seed=(5, 0))
    monkeypatch.undo()
    assert log.horizon == 3289 and len(log.stretches) == 1
    # The log keeps one entry per run the stepper recorded.
    assert len(log.runs) == len(observed) == 23
    assert sum(run[0] for run in log.runs) == log.horizon
    probes = sum(rec.probes[0] for rec in log.records)
    assert 0 < probes < 30
    m = math.ceil(BULK_GAPS / params.probe_rate)
    advisors = [ctx.llm for _, ctx, _ in honest + deviator]
    assert advisors.count(1) == 1
    assert advisors.count(0) <= 2 * probes + log.horizon // m + 1


@pytest.mark.parametrize("kind", ["honest", "heavy", "light"])
@pytest.mark.parametrize("name", sorted(GAMES))
def test_finite_runs_equal_the_per_period_loop_on_the_table_sampler(
    monkeypatch, name, kind
):
    """``finite_population_run`` asks for held runs; with every period drawn
    by ``_sample_table``, the world's stream is used as period by period, so
    the log is the per-period loop's byte for byte."""
    monkeypatch.setattr(sim, "RUN_MIN", math.inf)
    game, pop, _ = GAMES[name]
    params = T40[name, 0.25]

    def run(strategies):
        log, report = sim.finite_population_run(
            300, game, pop, strategies, periods=200, seed=4, params=params
        )
        return log.to_jsonl(), log.block_stats, report.to_dict()

    held = run(_strategies(game, pop, params, 1, kind))
    assert held == run([_per_period(s) for s in _strategies(game, pop, params, 1, kind)])
    assert held[1]
