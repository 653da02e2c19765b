import collections
import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import metagame.sim
from metagame.errors import MetagameError, ValidationError
from metagame.games import BaseGame, MixedStrategy, register_payoff_rule
from metagame.model import (
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    llm_utility,
)
from metagame.protocol import FREQUENCY, derive_params
from metagame.scenarios import (
    blame_cycle,
    make_scenario,
    pd_profile,
    scenario_population,
)
from metagame.sim import (
    ADVERSARY_KINDS,
    FixedProfileStrategy,
    HonestStrategy,
    Strategy,
    _group_plan,
    _sample_run,
    _sample_table,
    estimate_deviation_gain,
    finite_population_run,
    horizon_for,
    largest_remainder_counts,
    make_adversary,
    run_repeated,
)


@pytest.fixture(scope="module")
def heist():
    return make_scenario("heist")


@pytest.fixture(scope="module")
def heist_pop():
    return scenario_population("heist")


@pytest.fixture(scope="module")
def small_params(heist, heist_pop):
    return derive_params(
        heist, heist_pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 0.1, "block_length": 40},
    )


@pytest.fixture(scope="module")
def pd_small_params():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    target = llm_utility(pd, pop, pd_profile("CC", "CC"))
    return pd, pop, derive_params(
        pd, pop, target, epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 0.1, "block_length": 40},
    )


def test_fixed_profile_matches_one_shot(heist, heist_pop, small_params):
    profile = MetaProfile.from_pure([blame_cycle()] * 3)
    fixed = [FixedProfileStrategy(a) for a in profile.actions]
    log = run_repeated(
        heist, heist_pop, small_params, fixed, delta=0.97, tail_tol=1e-6, seed=2
    )
    expect = llm_utility(heist, heist_pop, profile)
    for j in range(3):
        assert abs(log.discounted[j] - expect[j]) <= 1e-6


def test_horizon_covers_tail():
    cap = 3.0
    horizon = horizon_for(0.99, 1e-6, cap)
    assert 0.99**horizon * 2 * cap <= 1e-6
    assert 0.99 ** (horizon - 1) * 2 * cap > 1e-6


def test_same_seed_same_bytes(heist, heist_pop, small_params):
    def once():
        return run_repeated(
            heist,
            heist_pop,
            small_params,
            [HonestStrategy() for _ in range(3)],
            delta=0.98,
            tail_tol=1e-5,
            seed=13,
        )

    assert once().to_jsonl() == once().to_jsonl()


def test_different_seeds_differ(heist, heist_pop, small_params):
    logs = [
        run_repeated(
            heist,
            heist_pop,
            small_params,
            [HonestStrategy() for _ in range(3)],
            delta=0.98,
            tail_tol=1e-5,
            seed=s,
        )
        for s in (1, 2)
    ]
    assert logs[0].to_jsonl() != logs[1].to_jsonl()


def test_discounted_identity(heist, heist_pop, small_params):
    log = run_repeated(
        heist,
        heist_pop,
        small_params,
        [HonestStrategy() for _ in range(3)],
        delta=0.98,
        tail_tol=1e-5,
        seed=4,
    )
    assert log.discounted == pytest.approx(log.recompute_discounted(), abs=0.0)


def _honest_logs(game, pop, params, seed, trials, delta, tail_tol):
    return [
        run_repeated(
            game, pop, params, [HonestStrategy() for _ in range(pop.llm_count)],
            delta, tail_tol, seed=(seed, t),
        )
        for t in range(trials)
    ]


def test_honest_adversary_gains_nothing(heist, heist_pop, small_params):
    logs = _honest_logs(heist, heist_pop, small_params, 9, 3, 0.98, 1e-5)
    mean, hw = estimate_deviation_gain(
        heist, heist_pop, small_params, 0, "honest", logs
    )
    assert mean == 0.0
    assert hw == 0.0


def test_heavy_deviator_deviates_every_period(pd_small_params):
    pd, pop, params = pd_small_params
    strategies = [HonestStrategy(), HonestStrategy()]
    strategies[1] = make_adversary(pd, pop, params, "heavy")
    log = run_repeated(pd, pop, params, strategies, delta=0.99, tail_tol=1e-4, seed=21)
    for blk in log.block_stats:
        assert blk.deviation_counts[1] == blk.length


def test_events_only_at_block_ends(pd_small_params):
    pd, pop, params = pd_small_params
    strategies = [HonestStrategy(), make_adversary(pd, pop, params, "heavy")]
    log = run_repeated(pd, pop, params, strategies, delta=0.99, tail_tol=1e-4, seed=5)
    block_ends = {b.end for b in log.block_stats}
    for rec in log.records:
        if rec.event is not None:
            assert rec.period in block_ends


def test_heavy_deviator_is_punished(pd_small_params):
    pd, pop, params = pd_small_params
    strategies = [HonestStrategy(), make_adversary(pd, pop, params, "heavy")]
    log = run_repeated(pd, pop, params, strategies, delta=0.99, tail_tol=1e-4, seed=5)
    freq_blocks = [b for b in log.block_stats if b.event == FREQUENCY]
    assert freq_blocks, "full-block deviation must trigger the frequency rule"
    assert log.punishment_stats
    for pun in log.punishment_stats:
        assert pun.end - pun.start + 1 == params.punish_length
        assert pun.punished == 1


def test_light_deviation_block_impact_bounded(pd_small_params):
    # paired-seed comparison: a deviator changing at most q periods of the
    # first block moves its own block-average payoff by at most spread * q / T
    pd, pop, params = pd_small_params
    q = int(math.floor(params.probe_rate * params.block_length))
    honest_log = run_repeated(
        pd, pop, params, [HonestStrategy(), HonestStrategy()],
        delta=0.99, tail_tol=1e-4, seed=71,
    )
    light = [HonestStrategy(), make_adversary(pd, pop, params, "light", budget=q)]
    light_log = run_repeated(
        pd, pop, params, light, delta=0.99, tail_tol=1e-4, seed=71,
    )
    T = params.block_length
    changed = sum(
        1
        for t in range(T)
        if light_log.records[t].instructions[1] != honest_log.records[t].instructions[1]
    )
    assert changed <= q
    diff = abs(
        sum(r.utilities[1] for r in light_log.records[:T]) / T
        - sum(r.utilities[1] for r in honest_log.records[:T]) / T
    )
    assert diff <= params.payoff_spread * q / T + 1e-9


def test_punished_cycle_average_below_adjusted_target(heist, heist_pop, small_params):
    strategies = [make_adversary(heist, heist_pop, small_params, "heavy"),
                  HonestStrategy(), HonestStrategy()]
    log = run_repeated(
        heist, heist_pop, small_params, strategies, delta=0.995, tail_tol=1e-4, seed=3
    )
    punished_cycles = 0
    pstarts = {p.start: p for p in log.punishment_stats}
    for blk in log.block_stats:
        pun = pstarts.get(blk.end + 1)
        if pun is None or blk.event != FREQUENCY:
            continue
        punished_cycles += 1
        span = log.records[blk.start : pun.end + 1]
        avg = sum(r.utilities[0] for r in span) / len(span)
        assert avg <= small_params.adjusted_target[0] + 1e-9
    assert punished_cycles >= 3


def test_greedy_myopic_uses_best_response(heist, heist_pop, small_params):
    from metagame.oneshot import best_response

    strategies = [make_adversary(heist, heist_pop, small_params, "greedy_myopic"),
                  HonestStrategy(), HonestStrategy()]
    log = run_repeated(
        heist, heist_pop, small_params, strategies, delta=0.98, tail_tol=1e-4, seed=6
    )
    first = log.records[0]
    br = best_response(heist, heist_pop, MetaProfile.from_pure([blame_cycle()] * 3), 0)
    assert first.instructions[0].pure_profile == br.profile


def test_strategy_validation_and_abort(heist, heist_pop, small_params):
    class Broken(Strategy):
        def act(self, ctx):
            return InstructionProfile.pure(("C", "C"))  # wrong role count

    with pytest.raises(MetagameError):
        run_repeated(
            heist,
            heist_pop,
            small_params,
            [Broken(), HonestStrategy(), HonestStrategy()],
            delta=0.98,
            tail_tol=1e-4,
            seed=0,
        )
    with pytest.raises(ValidationError):
        run_repeated(
            heist, heist_pop, small_params, [HonestStrategy()], delta=0.98,
            tail_tol=1e-4, seed=0,
        )


def test_largest_remainder_examples():
    assert largest_remainder_counts(10, [0.85, 0.15]) == [9, 1]
    assert largest_remainder_counts(1000, [0.9, 0.1]) == [900, 100]
    assert largest_remainder_counts(7, [1 / 3, 1 / 3, 1 / 3]) == [3, 2, 2]


def test_finite_single_client_matches_continuum(small_params):
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = Population(((1.0,), (1.0,)))
    profile = MetaProfile.from_pure([("C", "D")])
    log, report = finite_population_run(
        1, pd, pop, [FixedProfileStrategy(profile.actions[0])], periods=5, seed=0
    )
    expect = llm_utility(pd, pop, profile)
    assert report.max_gap == 0.0
    for rec in log.records:
        assert rec.utilities[0] == pytest.approx(expect[0], abs=1e-12)


def test_finite_pure_instructions_exact_aggregates():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    profile = pd_profile("CC", "DD")
    strategies = [FixedProfileStrategy(a) for a in profile.actions]
    log, report = finite_population_run(1000, pd, pop, strategies, periods=3, seed=1)
    for rec in log.records:
        assert rec.aggregate.mass(0, 0) == pytest.approx(0.9, abs=0.0)
    assert report.max_gap <= 1e-12
    assert report.warnings == []


def test_finite_sampling_stays_in_band():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    mixed = InstructionProfile.homogeneous(
        (
            MixedStrategy.from_weights(0, {"C": 0.5, "D": 0.5}),
            MixedStrategy.from_weights(1, {"C": 0.3, "D": 0.7}),
        )
    )
    strategies = [
        FixedProfileStrategy(MetaAction.deterministic(mixed)) for _ in range(2)
    ]
    N = 10_000
    log, report = finite_population_run(N, pd, pop, strategies, periods=100, seed=8)
    assert report.mean_gap > 0.0
    assert report.mean_gap <= report.continuum_band
    assert report.max_gap <= report.continuum_band


def test_finite_rounding_warning():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = Population(((0.95, 0.05), (0.95, 0.05)))
    profile = pd_profile("CC", "DD")
    strategies = [FixedProfileStrategy(a) for a in profile.actions]
    _, report = finite_population_run(5, pd, pop, strategies, periods=2, seed=0)
    assert report.warnings
    assert report.governance_counts[0] == (5, 0)


def test_finite_run_with_params_flags_deviations_and_blocks(pd_small_params):
    pd, pop, params = pd_small_params
    T = params.block_length
    periods = 3 * T
    heavy = [HonestStrategy(), make_adversary(pd, pop, params, "heavy")]
    log, _ = finite_population_run(
        2000, pd, pop, heavy, periods=periods, seed=5, params=params
    )
    assert len(log.block_stats) == periods // T
    for blk in log.block_stats:
        assert blk.deviation_counts[1] == blk.length
    for rec in log.records:
        if rec.mode == "review":
            assert rec.deviated[1]

    honest = [HonestStrategy(), HonestStrategy()]
    log, _ = finite_population_run(
        2000, pd, pop, honest, periods=periods, seed=5, params=params
    )
    assert any(any(rec.deviated) for rec in log.records)
    for rec in log.records:
        # A probe is a deviation unless its uniform draw hit the prescription.
        prescribed = params.prescriptions[rec.segment]
        assert rec.deviated == tuple(
            rec.probes[j] and rec.instructions[j] != prescribed[j] for j in range(2)
        )
    assert [b.probe_counts for b in log.block_stats] == [
        tuple(
            sum(rec.probes[j] for rec in log.records[b.start : b.end + 1])
            for j in range(2)
        )
        for b in log.block_stats
    ]


# sha256 of to_jsonl(); any change to the stepper, the seeding or the record
# format must keep these bytes.  The finite bytes also follow the sampler's
# random stream: its 20 periods are one held run, drawn by _sample_run.
# Every entry was regenerated when the log went to one line per maximal run
# and the header's discounted sum to one term per run.
RUNLOG_SHA256 = {
    "honest": "82ae3f08ed1dfab43e096f2e35a16164ca1d8e91e95e33b24fe47c6e45e684c8",
    "light": "4c52e7ae7165e5f4f5f7546a8ebbfd6c7b16c6075dd3bae2a4a21f83648ee6b2",
    # In punishment the punished advisor's prescription is its best reply,
    # so heavy and greedy_myopic play the same 156 periods here.
    "heavy": "2e14813964254cc23289efa62b12471e07eb333e70e48e93770433997f39e755",
    "greedy_myopic": "2e14813964254cc23289efa62b12471e07eb333e70e48e93770433997f39e755",
    "finite": "7d4104c415601ff7d491ae6a7c2fd72511ed8fd7070cc8335c2785fdf70cc771",
    # README PD with advisor 1 honest or a heavy deviator, seed (5, 0) and
    # delta 0.995: 3,289 periods in 23 maximal runs.
    "readme_pd_honest": "06b94abc9d35751fa5bf996949bd6c3dbf4af811aede9d1af0d73ff1d93a0f3a",
    "readme_pd_heavy": "ca39e32bbf6842d23b4b9c02534ea520c19bcbdaf2cf8f16ceb1fcc0a0ad6a71",
}


@pytest.mark.parametrize(
    "kind",
    ["honest", "light", "heavy", "greedy_myopic", "readme_pd_honest", "readme_pd_heavy"],
)
def test_run_repeated_log_bytes_pinned(heist, heist_pop, small_params, kind):
    if kind.startswith("readme_pd_"):
        game = make_scenario("pd", X=-2, Y=-4, Z=-5)
        pop = scenario_population("pd")
        params = derive_params(game, pop, (-3.6, -0.4), 1.2, 0.5)
        adversary = make_adversary(game, pop, params, kind[len("readme_pd_"):])
        strategies = [HonestStrategy(), adversary]
        run = {"delta": 0.995, "tail_tol": 1e-6, "seed": (5, 0)}
    else:
        game, pop, params = heist, heist_pop, small_params
        strategies = [make_adversary(game, pop, params, kind),
                      HonestStrategy(), HonestStrategy()]
        run = {"delta": 0.95, "tail_tol": 1e-3, "seed": 17}
    log = run_repeated(game, pop, params, strategies, **run)
    digest = hashlib.sha256(log.to_jsonl().encode()).hexdigest()
    assert digest == RUNLOG_SHA256[kind]


def test_finite_log_bytes_pinned():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    mixed = InstructionProfile.homogeneous(
        (
            MixedStrategy.from_weights(0, {"C": 0.5, "D": 0.5}),
            MixedStrategy.from_weights(1, {"C": 0.3, "D": 0.7}),
        )
    )
    strategies = [
        FixedProfileStrategy(MetaAction.deterministic(mixed)),
        FixedProfileStrategy(pd_profile("CC", "DD").actions[1]),
    ]
    log, _ = finite_population_run(500, pd, pop, strategies, periods=20, seed=(4, 2))
    digest = hashlib.sha256(log.to_jsonl().encode()).hexdigest()
    assert digest == RUNLOG_SHA256["finite"]


def _loop_discounted(log):
    """The discounted utilities summed period by period: the reference for
    ``RunLog.recompute_discounted``, which sums them run by run."""
    out = []
    for j in range(len(log.runs[0][3])):
        total, w = 0.0, 1.0
        for n, _, _, u, _, _ in log.runs:
            for _ in range(n):
                total += w * u[j]
                w *= log.delta
        out.append((1.0 - log.delta) * total)
    return tuple(out)


def _bits(values):
    return [float(x).hex() for x in values]


@pytest.fixture(scope="module")
def readme_pd_logs():
    """README PD runs for each adversary kind on advisor 1, seeds (0..9, 0)."""
    game = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    params = derive_params(game, pop, (-3.6, -0.4), 1.2, 0.5)
    return [
        run_repeated(
            game, pop, params, [HonestStrategy(), make_adversary(game, pop, params, kind)],
            delta=0.995, tail_tol=1e-6, seed=(seed, 0),
        )
        for kind in ADVERSARY_KINDS
        for seed in range(10)
    ]


def test_recompute_discounted_is_the_per_period_sum(readme_pd_logs, heist, heist_pop):
    params = derive_params(
        heist, heist_pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 1.0, "block_length": 40},
    )
    heist_log = run_repeated(
        heist, heist_pop, params, [HonestStrategy() for _ in range(3)],
        delta=0.999, tail_tol=1e-6, seed=3,
    )
    assert len(heist_log.runs) > 1000  # probes every period: short runs
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    pd_params = derive_params(pd, pop, (-3.6, -0.4), 1.2, 0.5)
    long_log = run_repeated(
        pd, pop, pd_params, [HonestStrategy(), HonestStrategy()],
        delta=0.9999, tail_tol=1e-6, seed=(5, 0),
    )
    assert long_log.horizon == 164_820
    for log in [*readme_pd_logs, heist_log, long_log]:
        want = _loop_discounted(log)
        assert log.recompute_discounted() == pytest.approx(want, rel=1e-12, abs=0)
        assert log.discounted == log.recompute_discounted()
    # Every term -0.0: the sum is +0.0, as the loop's, which starts at +0.0.
    log = readme_pd_logs[0]
    zero = dataclasses.replace(
        log, runs=[(n, i, a, (-0.0, -0.0), p, d) for n, i, a, _, p, d in log.runs]
    )
    assert _bits(zero.recompute_discounted()) == _bits(_loop_discounted(zero)) == _bits(
        (0.0, 0.0)
    )


def _count_calls(monkeypatch, name, module=metagame.sim):
    """Record the third argument of every call to ``module.<name>`` (the
    realization, or the protocol parameters of ``run_repeated``)."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("kind", ["honest", "heavy", "greedy_myopic"])
def test_run_repeated_realizes_each_distinct_tuple_once(
    heist, heist_pop, small_params, monkeypatch, kind
):
    aggregates = _count_calls(monkeypatch, "aggregate_mass")
    evaluated = _count_calls(monkeypatch, "llm_utility")
    strategies = [make_adversary(heist, heist_pop, small_params, kind),
                  HonestStrategy(), HonestStrategy()]
    log = run_repeated(
        heist, heist_pop, small_params, strategies, delta=0.95, tail_tol=1e-3,
        seed=17,
    )
    distinct = {rec.instructions for rec in log.records}
    assert len(log.records) > len(distinct)
    assert len(aggregates) == len(distinct) and set(aggregates) == distinct
    # Every tuple is pure, so its utilities are read off the payoff tensor.
    assert evaluated == []
    for rec in log.records:
        assert rec.utilities == llm_utility(heist, heist_pop, rec.instructions)


@pytest.mark.parametrize(
    "instruction",
    [
        # Client-level mixing: every client of both roles flips a fair coin.
        InstructionProfile.homogeneous(
            [MixedStrategy.from_weights(i, {"C": 0.5, "D": 0.5}) for i in range(2)]
        ),
        # A within-role split: 30% of the role-0 clients play C, 70% play D.
        InstructionProfile(
            (
                ((MixedStrategy.point_mass(0, "C"), 0.3),
                 (MixedStrategy.point_mass(0, "D"), 0.7)),
                ((MixedStrategy.point_mass(1, "D"), 1.0),),
            )
        ),
    ],
    ids=["client_mix", "within_role_split"],
)
def test_run_repeated_evaluates_mixed_and_split_tuples_exactly(
    pd_small_params, monkeypatch, instruction
):
    pd, pop, params = pd_small_params
    evaluated = _count_calls(monkeypatch, "llm_utility")
    strategies = [FixedProfileStrategy(MetaAction.deterministic(instruction)),
                  HonestStrategy()]
    log = run_repeated(pd, pop, params, strategies, delta=0.9, tail_tol=1e-3, seed=5)
    distinct = {rec.instructions for rec in log.records}
    assert any(ip.pure_profile is None for tup in distinct for ip in tup)
    # One evaluation per distinct tuple with a mixed or split instruction.
    assert len(evaluated) == len(distinct)
    for rec in log.records:
        want = llm_utility(pd, pop, rec.instructions)
        assert [v.hex() for v in rec.utilities] == [v.hex() for v in want]


def test_finite_run_realizes_each_distinct_tuple_once(pd_small_params, monkeypatch):
    pd, pop, params = pd_small_params
    aggregates = _count_calls(monkeypatch, "aggregate_mass")
    utilities = _count_calls(monkeypatch, "llm_utility")
    strategies = [HonestStrategy(), make_adversary(pd, pop, params, "heavy")]
    log, _ = finite_population_run(
        200, pd, pop, strategies, periods=2 * params.block_length, seed=3,
        params=params,
    )
    distinct = {rec.instructions for rec in log.records}
    assert len(aggregates) == len(distinct) and set(aggregates) == distinct
    assert utilities == []


# (mean, half_width) on PD at target (-3.6, -0.4), T = 40, p = 0.1, K = 20,
# advisor 1, honest runs at seeds (3, 0..3), delta 0.95, tail_tol 1e-4, as
# computed when the estimator still made its own honest runs.  Re-pinned
# when the discounted sum went to one term per run: the light mean moved
# from 0.06750793721575662, the heavy one from 0.29797720076114553 (the
# half-widths from 0.002614080888202886 and 0.012441054370747473).
PINNED_GAINS = {
    "light": (0.06750793721575682, 0.0026140808882030337),
    "heavy": (0.2979772007611457, 0.012441054370747402),
}


def test_deviation_gain_reuses_honest_logs(monkeypatch):
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    overrides = {"block_length": 40, "probe_rate": 0.1, "punish_length": 20}
    params = derive_params(pd, pop, (-3.6, -0.4), 1.2, 0.5, overrides=overrides)
    logs = _honest_logs(pd, pop, params, 3, 4, 0.95, 1e-4)
    runs = _count_calls(monkeypatch, "run_repeated")
    for kind, pinned in PINNED_GAINS.items():
        assert estimate_deviation_gain(pd, pop, params, 1, kind, logs) == pinned
    assert len(runs) == len(PINNED_GAINS) * len(logs)

    bad = {
        "one log": logs[:1],
        "horizon": [dataclasses.replace(logs[0], horizon=logs[0].horizon - 1)]
        + logs[1:],
    }
    for honest_logs in bad.values():
        with pytest.raises(ValidationError):
            estimate_deviation_gain(pd, pop, params, 1, "heavy", honest_logs)


def test_runs_refuse_params_derived_for_another_population_or_game():
    # README-PD params are derived at p = 0.9; a pure tuple's utilities come
    # from their payoff tensor, so a run at p = 0.5, or on a game that lists
    # the actions in another order, would silently use the wrong payoffs.
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd", p=0.9)
    params = derive_params(pd, pop, (-3.6, -0.4), 1.2, 0.5)
    logs = _honest_logs(pd, pop, params, 1, 2, 0.9, 1e-6)
    reordered = BaseGame.from_table(
        [("D", "C")] * 2, {p: pd.payoff(p) for p in pd.profiles()}
    )
    honest = [HonestStrategy(), HonestStrategy()]
    for game, other in ((pd, scenario_population("pd", p=0.5)), (reordered, pop)):
        with pytest.raises(ValidationError, match="another game or population"):
            run_repeated(game, other, params, honest, 0.9, seed=1)
        with pytest.raises(ValidationError, match="another game or population"):
            estimate_deviation_gain(game, other, params, 1, "heavy", logs)
    # An equal population built anew is the same population.
    again = run_repeated(
        pd, scenario_population("pd", p=0.9), params, honest, 0.9, 1e-6, seed=(1, 0)
    )
    assert again.to_jsonl() == logs[0].to_jsonl()


def test_finite_runs_refuse_params_derived_for_another_population_or_game():
    # With README-PD params derived at p = 0.9, an honest run at p = 0.5 would
    # read the other population's mass ceilings and payoff tensor and punish
    # advisor 0 five times in 400 periods.
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd", p=0.9)
    params = derive_params(
        pd, pop, (-3.6, -0.4), 1.2, 0.5,
        overrides={"probe_rate": 0.05, "block_length": 40},
    )
    reordered = BaseGame.from_table(
        [("D", "C")] * 2, {p: pd.payoff(p) for p in pd.profiles()}
    )
    honest = [HonestStrategy(), HonestStrategy()]
    for game, other in ((pd, scenario_population("pd", p=0.5)), (reordered, pop)):
        with pytest.raises(ValidationError, match="another game or population"):
            finite_population_run(10_000, game, other, honest, 400, seed=1, params=params)
    log, _ = finite_population_run(
        10_000, pd, scenario_population("pd", p=0.9), honest, 400, seed=1, params=params
    )
    assert log.punishment_stats == []


def test_finite_warns_when_an_advisor_is_within_the_band(pd_small_params):
    pd, pop, params = pd_small_params
    honest = [HonestStrategy(), HonestStrategy()]
    _, report = finite_population_run(
        2000, pd, pop, honest, periods=2, seed=0, params=params
    )
    assert report.continuum_band > max(row[1] for row in pop.shares)
    assert len(report.warnings) == 1
    assert "advisor 1's deviations cannot exceed the tolerance" in report.warnings[0]

    _, report = finite_population_run(
        100_000, pd, pop, honest, periods=2, seed=0, params=params
    )
    assert report.warnings == []


def test_finite_run_needs_a_period():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    strategies = [FixedProfileStrategy(a) for a in pd_profile("CC", "DD").actions]
    for periods in (0, -3):
        with pytest.raises(ValidationError):
            finite_population_run(
                10, pd, scenario_population("pd"), strategies, periods=periods
            )


def test_finite_run_clients_below_the_sampler_ceiling(monkeypatch):
    # numpy's multivariate_hypergeometric takes fewer than 10**9 items, and
    # its hypergeometric fewer than 10**9 good and bad ones; at the ceiling
    # the run used to end in a ValueError, and beyond int64 in an
    # OverflowError.  Two periods draw by _sample_table, a held run of
    # RUN_MIN periods by _sample_run.
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    mixed = InstructionProfile.homogeneous(
        (
            MixedStrategy.from_weights(0, {"C": 0.5, "D": 0.5}),
            MixedStrategy.from_weights(1, {"C": 0.5, "D": 0.5}),
        )
    )
    strategies = [FixedProfileStrategy(MetaAction.deterministic(mixed))] * 2
    pop = scenario_population("pd")
    N = metagame.sim.CLIENT_CEILING - 1
    calls = _sampler_calls(monkeypatch)
    for periods in (2, metagame.sim.RUN_MIN):
        _, report = finite_population_run(N, pd, pop, strategies, periods=periods, seed=0)
        assert report.clients_per_role == N and report.max_gap < 1e-3
    assert calls == {"table": 2, "run": [(metagame.sim.RUN_MIN, (metagame.sim.RUN_MIN, 16))]}
    for N in (metagame.sim.CLIENT_CEILING, 10**30):
        with pytest.raises(ValidationError, match="sampler"):
            finite_population_run(N, pd, pop, strategies, periods=2, seed=0)


def _record_doc(rec) -> dict:
    """A period's record as its run's JSON line gives it."""
    doc = {
        "t": rec.period,
        "event": rec.event,
        "event_llm": rec.event_llm,
        "phase": rec.phase,
        "mode": rec.mode,
        "segment": rec.segment,
        "aggregate": rec.aggregate.to_dict(),
        "utilities": rec.utilities,
        "probes": rec.probes,
        "deviated": rec.deviated,
        "instructions": [ip.to_dict() for ip in rec.instructions],
    }
    return json.loads(json.dumps(doc))


def test_to_jsonl_lines_are_the_records(pd_small_params):
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    overrides = {"block_length": 40, "probe_rate": 0.1, "punish_length": 20}
    pop = scenario_population("pd")
    params = derive_params(pd, pop, (-3.6, -0.4), 1.2, 0.5, overrides=overrides)
    heavy = [HonestStrategy(), make_adversary(pd, pop, params, "heavy")]
    log = run_repeated(pd, pop, params, heavy, delta=0.99, tail_tol=1e-3, seed=2)
    assert log.events and log.punishment_stats
    # A finite run records its periods one by one, each with its own table.
    _, _, finite_params = pd_small_params
    finite, _ = finite_population_run(
        300, pd, pop, [HonestStrategy(), make_adversary(pd, pop, finite_params, "heavy")],
        periods=90, seed=6, params=finite_params,
    )
    for log in (log, finite):
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 1 + len(log.runs) < len(log.records)
        starts = {s[0] for s in log.stretches}
        expanded, previous = [], None
        for line in lines[1:]:
            doc = json.loads(line)
            head = ["t", "periods", "event", "event_llm"]
            assert list(doc) == head + sorted(set(doc) - set(head))
            n = doc.pop("periods")
            assert n >= 1
            t, event = doc["t"], (doc["event"], doc["event_llm"])
            expanded += [
                {**doc, "t": t + i, "event": None, "event_llm": None} for i in range(n - 1)
            ]
            expanded.append({**doc, "t": t + n - 1})
            # Two neighbouring runs of one stretch differ in content.
            content = {key: doc[key] for key in doc if key not in head}
            assert t in starts or content != previous
            previous = content
            assert event == (None, None) or t + n - 1 in log.events
        assert expanded == [_record_doc(rec) for rec in log.records]
        assert any(n > 1 for n, *_ in log.runs)


def _pd_rule(X, Y, Z):
    table = {
        ("C", "C"): (X, X),
        ("D", "D"): (Y, Y),
        ("C", "D"): (Z, 0.0),
        ("D", "C"): (0.0, Z),
    }
    return table.__getitem__


register_payoff_rule("test_pd_rule", _pd_rule)


def test_finite_rule_game_matches_table_game(pd_small_params):
    pd, pop, params = pd_small_params
    rule_pd = BaseGame.from_rule(pd.actions, "test_pd_rule", X=-2.0, Y=-4.0, Z=-5.0)
    assert rule_pd.table is None
    mixed = InstructionProfile.homogeneous(
        (
            MixedStrategy.from_weights(0, {"C": 0.5, "D": 0.5}),
            MixedStrategy.from_weights(1, {"C": 0.3, "D": 0.7}),
        )
    )

    def run(game, with_params):
        if with_params:
            strategies = [HonestStrategy(), make_adversary(game, pop, params, "heavy")]
            return finite_population_run(
                300, game, pop, strategies, periods=90, seed=6, params=params
            )
        strategies = [
            FixedProfileStrategy(MetaAction.deterministic(mixed)),
            FixedProfileStrategy(pd_profile("CC", "DD").actions[1]),
        ]
        return finite_population_run(500, game, pop, strategies, periods=20, seed=(4, 2))

    for with_params in (False, True):
        table_log, table_report = run(pd, with_params)
        rule_log, rule_report = run(rule_pd, with_params)
        assert rule_log.to_jsonl() == table_log.to_jsonl()
        assert rule_report.to_dict() == table_report.to_dict()
    assert table_log.block_stats and any(any(r.deviated) for r in table_log.records)


def _mixed(role, weights):
    return MixedStrategy.from_weights(role, weights)


def _heist_finite_strategies():
    """Mixed, split and randomized instructions for the three heist advisors."""
    homogeneous = InstructionProfile.homogeneous(
        (
            _mixed(0, {"burglar": 0.3, "driver": 0.7}),
            _mixed(1, {"planner": 0.45, "driver": 0.55}),
            _mixed(2, {"planner": 1 / 3, "burglar": 2 / 3}),
        )
    )
    split = InstructionProfile(
        (
            (
                (_mixed(0, {"burglar": 0.2, "driver": 0.8}), 0.6),
                (MixedStrategy.point_mass(0, "driver"), 0.4),
            ),
            (
                (MixedStrategy.point_mass(1, "planner"), 0.5),
                (_mixed(1, {"planner": 0.9, "driver": 0.1}), 0.5),
            ),
            ((_mixed(2, {"planner": 0.25, "burglar": 0.75}), 1.0),),
        )
    )
    cycle_or_mixed = MetaAction(
        ((InstructionProfile.pure(blame_cycle()), 0.5), (homogeneous, 0.5))
    )
    return [
        FixedProfileStrategy(MetaAction.deterministic(homogeneous)),
        FixedProfileStrategy(MetaAction.deterministic(split)),
        FixedProfileStrategy(cycle_or_mixed),
    ]


def _per_client(game, k, N, cells, sizes):
    """Per-role action counts and advisor utilities of one sampled table,
    expanded to its matched instances; each client's payoff is one term of
    its advisor's correctly rounded sum."""
    ns = [len(labels) for labels in game.actions]
    actions = [[0] * n for n in ns]
    terms = [[] for _ in range(k)]
    for *cell, size in zip(*(c.tolist() for c in cells), sizes.tolist()):
        profile = tuple(labels[c % n] for labels, c, n in zip(game.actions, cell, ns))
        pay = game.payoff(profile)
        for _ in range(size):
            for i, (c, n) in enumerate(zip(cell, ns)):
                actions[i][c % n] += 1
                terms[c // n].append(pay[i])
    return actions, [math.fsum(t) / N for t in terms]


def _heist_per_client_run(heist, heist_pop, n, monkeypatch):
    """A pinned heist run and its per-client realization: every period's
    sampled table is recorded and expanded client by client."""
    tables = []
    sample = metagame.sim._sample_table

    def recording(plan, world):
        tables.append(sample(plan, world))
        return tables[-1]

    monkeypatch.setattr(metagame.sim, "_sample_table", recording)
    log, report = finite_population_run(
        n, heist, heist_pop, _heist_finite_strategies(), periods=30, seed=(11, n)
    )
    expanded = [_per_client(heist, 3, n, *table) for table in tables]
    return log, report, expanded


# Heist (conviction payoff -2.1) at N = 7, 333, 5000, 30 periods, seed
# (11, N), as computed by the per-client realization of each sampled table:
# utilities summed client by client, aggregates from per-client action counts.
# Regenerate with _heist_per_client_run after any change to the sampling.
HEIST_FINITE_PINNED = json.loads(
    (Path(__file__).parent / "data" / "finite_heist_pinned.json").read_text()
)


@pytest.mark.parametrize("n", [7, 333, 5000])
def test_finite_heist_matches_per_client_realization(heist, heist_pop, n, monkeypatch):
    log, report, expanded = _heist_per_client_run(heist, heist_pop, n, monkeypatch)
    # Finite mode draws a fresh table every period: one run per period.
    assert len(log.runs) == len(expanded) == len(log.records) == 30
    for (actions, utilities), rec in zip(expanded, log.records):
        assert [[c / n for c in row] for row in actions] == rec.aggregate.to_dict()
        assert rec.utilities == pytest.approx(utilities, abs=1e-12, rel=0)
    pinned = HEIST_FINITE_PINNED[str(n)]
    assert report.per_period_gap == pinned["gaps"]
    assert [r.aggregate.to_dict() for r in log.records] == pinned["masses"]
    assert len(log.records) == len(pinned["utilities"])
    for got, want in zip((r.utilities for r in log.records), pinned["utilities"]):
        assert got == pytest.approx(want, abs=1e-12, rel=0)


def _groups(game, pop, realized, N):
    """Per role, ``(g, cells, weights)`` per client group with ``g > 0``, in
    governance order, from the same largest-remainder splits as the run."""
    roles = []
    for i, labels in enumerate(game.actions):
        n, groups = len(labels), []
        for j, cj in enumerate(largest_remainder_counts(N, pop.shares[i])):
            entries = realized[j].assignments[i] if cj else ()
            for (strat, _), g in zip(
                entries, largest_remainder_counts(cj, [f for _, f in entries])
            ):
                if g:
                    cells = [j * n + labels.index(a) for a, _ in strat.weights]
                    groups.append((g, cells, [w for _, w in strat.weights]))
        roles.append(groups)
    return roles


def _exact_tables(game, pop, realized, N):
    """Exact probability of each joint count table: every per-client outcome,
    then every permutation of roles 1..m-1 (role 0 stays in place)."""
    clients = [
        [list(zip(cells, weights)) for g, cells, weights in groups for _ in range(g)]
        for groups in _groups(game, pop, realized, N)
    ]
    perms = list(itertools.permutations(range(N)))
    share = 1.0 / len(perms) ** (len(clients) - 1)
    tables = collections.Counter()
    for outcome in itertools.product(*(itertools.product(*role) for role in clients)):
        prob = math.prod(w for role in outcome for _, w in role) * share
        codes = [[c for c, _ in role] for role in outcome]
        for sigma in itertools.product(perms, repeat=len(codes) - 1):
            matched = [codes[0]] + [[r[s] for s in p] for r, p in zip(codes[1:], sigma)]
            tables[frozenset(collections.Counter(zip(*matched)).items())] += prob
    return tables


def _table_key(cells, sizes):
    return frozenset(zip(zip(*(c.tolist() for c in cells)), sizes.tolist()))


def _pd_split_case():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = Population(((0.6, 0.4), (0.6, 0.4)))  # 2 + 1 clients per role
    split = InstructionProfile(
        (
            ((_mixed(0, {"C": 0.3, "D": 0.7}), 0.5), (MixedStrategy.point_mass(0, "D"), 0.5)),
            ((_mixed(1, {"C": 0.5, "D": 0.5}), 0.5), (MixedStrategy.point_mass(1, "C"), 0.5)),
        )
    )
    mixed = InstructionProfile.homogeneous(
        (_mixed(0, {"C": 0.6, "D": 0.4}), _mixed(1, {"C": 0.2, "D": 0.8}))
    )
    return pd, pop, (split, mixed), 3


def _heist_case():
    heist = make_scenario("heist")
    pop = Population(((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)))
    strategies = _heist_finite_strategies()
    realized = (
        strategies[0].action.outcomes[0][0],
        strategies[1].action.outcomes[0][0],
        strategies[0].action.outcomes[0][0],
    )
    return heist, pop, realized, 2


def _plan(game, pop, realized, N):
    counts = tuple(tuple(largest_remainder_counts(N, row)) for row in pop.shares)
    return _group_plan(game, counts, realized)


def _run_keys(cells, sizes):
    """The ``_table_key`` of each period of a ``_sample_run`` draw."""
    cells = list(zip(*(c.tolist() for c in cells)))
    return [
        frozenset((cells[c], size) for c, size in enumerate(row) if size)
        for row in sizes.tolist()
    ]


@pytest.mark.parametrize("case", [_pd_split_case, _heist_case], ids=["pd", "heist"])
def test_sampled_tables_have_the_per_client_distribution(case):
    # 20,000 seeded tables against the exact law of per-client draws and
    # uniform matching; tables expected fewer than 5 times share one bin.
    # The test fails at level 0.001.
    game, pop, realized, N = case()
    plan, world = _plan(game, pop, realized, N), np.random.default_rng(20260)
    _assert_exact_law(
        case, [_table_key(*_sample_table(plan, world)) for _ in range(20_000)]
    )


@pytest.mark.parametrize("case", [_pd_split_case, _heist_case], ids=["pd", "heist"])
def test_run_tables_have_the_per_client_distribution(case):
    # The same check on 20,000 periods drawn by one _sample_run call.
    game, pop, realized, N = case()
    world = np.random.default_rng(20261)
    _assert_exact_law(case, _run_keys(*_sample_run(_plan(game, pop, realized, N), world, 20_000)))


def _assert_exact_law(case, keys):
    game, pop, realized, N = case()
    exact = _exact_tables(game, pop, realized, N)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    draws = len(keys)
    seen = collections.Counter(keys)
    assert set(seen) <= set(exact)
    rare = [t for t in exact if exact[t] * draws < 5]
    bins = [[t] for t in exact if exact[t] * draws >= 5] + ([rare] if rare else [])
    observed = [sum(seen[t] for t in b) for b in bins]
    expected = [sum(exact[t] for t in b) * draws for b in bins]
    assert len(bins) > 10
    assert scipy.stats.chisquare(observed, expected).pvalue > 1e-3


@settings(max_examples=100, deadline=None)
@given(
    scenario=st.sampled_from(["pd", "heist"]),
    N=st.integers(1, 400),
    data=st.data(),
)
def test_sampled_table_keeps_every_group_count(scenario, N, data):
    # Every role's marginal is the sum of its groups' counts, each group's
    # multinomial draw sums to its size and lands only on its own cells, and
    # every role matches all N clients.
    game = make_scenario(scenario)
    m, k = len(game.actions), 2 if scenario == "pd" else 3
    unit = st.floats(0.05, 1.0)
    shares = [data.draw(st.lists(unit, min_size=k, max_size=k)) for _ in range(m)]
    pop = Population(tuple(tuple(w / sum(r) for w in r) for r in shares))

    def strategy(i):
        labels = game.actions[i]
        pure = data.draw(st.sampled_from([None, *labels]))
        if pure is not None:
            return MixedStrategy.point_mass(i, pure)
        q = data.draw(st.floats(0.05, 0.95))
        return _mixed(i, {labels[0]: q, labels[1]: 1.0 - q})

    def assignment(i):
        fractions = data.draw(st.lists(unit, min_size=1, max_size=3))
        return tuple((strategy(i), f / sum(fractions)) for f in fractions)

    realized = tuple(
        InstructionProfile(tuple(assignment(i) for i in range(m))) for _ in range(k)
    )
    counts = tuple(tuple(largest_remainder_counts(N, row)) for row in pop.shares)
    multinomials = []

    class Recording:
        def __init__(self, seed):
            self.world = np.random.default_rng(seed)

        def multinomial(self, g, weights):
            multinomials.append((g, self.world.multinomial(g, weights)))
            return multinomials[-1][1]

        def multivariate_hypergeometric(self, pool, size):
            return self.world.multivariate_hypergeometric(pool, size)

    cells, sizes = _sample_table(
        _group_plan(game, counts, realized), Recording(data.draw(st.integers(0, 2**32 - 1)))
    )
    assert sizes.min() > 0 and sizes.sum() == N
    draws = iter(multinomials)
    for i, groups in enumerate(_groups(game, pop, realized, N)):
        margin = np.bincount(cells[i], weights=sizes, minlength=k * len(game.actions[i]))
        expect = np.zeros_like(margin)
        for g, group_cells, _ in groups:
            if len(group_cells) == 1:
                expect[group_cells[0]] += g
            else:
                size, drawn = next(draws)
                assert size == g and drawn.sum() == g and len(drawn) == len(group_cells)
                expect[group_cells] += drawn
        assert margin.tolist() == expect.tolist()
        n = len(game.actions[i])
        for j in range(k):
            assert margin[j * n : (j + 1) * n].sum() == counts[i][j]
    assert next(draws, None) is None


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(["pd", "heist"]),
    N=st.integers(1, 400),
    n=st.integers(1, 40),
    data=st.data(),
)
def test_run_keeps_every_group_count_in_every_period(scenario, N, n, data):
    # test_sampled_table_keeps_every_group_count for each period of a run:
    # each role's marginal is the sum of its groups' counts, each group's
    # multinomial draw sums to its size on its own cells, and every role
    # matches all N clients.
    game = make_scenario(scenario)
    m, k = len(game.actions), 2 if scenario == "pd" else 3
    unit = st.floats(0.05, 1.0)
    shares = [data.draw(st.lists(unit, min_size=k, max_size=k)) for _ in range(m)]
    pop = Population(tuple(tuple(w / sum(r) for w in r) for r in shares))

    def strategy(i):
        labels = game.actions[i]
        pure = data.draw(st.sampled_from([None, *labels]))
        if pure is not None:
            return MixedStrategy.point_mass(i, pure)
        q = data.draw(st.floats(0.05, 0.95))
        return _mixed(i, {labels[0]: q, labels[1]: 1.0 - q})

    def assignment(i):
        fractions = data.draw(st.lists(unit, min_size=1, max_size=3))
        return tuple((strategy(i), f / sum(fractions)) for f in fractions)

    realized = tuple(
        InstructionProfile(tuple(assignment(i) for i in range(m))) for _ in range(k)
    )
    counts = tuple(tuple(largest_remainder_counts(N, row)) for row in pop.shares)
    multinomials = []

    class Recording:
        def __init__(self, seed):
            self.world = np.random.default_rng(seed)

        def multinomial(self, g, weights, size):
            multinomials.append((g, size, self.world.multinomial(g, weights, size=size)))
            return multinomials[-1][2]

        def hypergeometric(self, good, bad, sample):
            return self.world.hypergeometric(good, bad, sample)

    cells, sizes = _sample_run(
        _group_plan(game, counts, realized),
        Recording(data.draw(st.integers(0, 2**32 - 1))),
        n,
    )
    assert sizes.shape == (n, len(cells[0])) and sizes.min() >= 0
    assert (sizes.sum(axis=1) == N).all()
    expect = []
    draws = iter(multinomials)
    for i, groups in enumerate(_groups(game, pop, realized, N)):
        role = np.zeros((n, k * len(game.actions[i])), dtype=np.int64)
        for g, group_cells, _ in groups:
            if len(group_cells) == 1:
                role[:, group_cells[0]] += g
            else:
                size, periods, drawn = next(draws)
                assert size == g and periods == n and drawn.shape == (n, len(group_cells))
                assert (drawn.sum(axis=1) == g).all()
                role[:, group_cells] += drawn
        expect.append(role)
    assert next(draws, None) is None
    for p in range(n):
        for i, labels in enumerate(game.actions):
            margin = np.bincount(cells[i], weights=sizes[p], minlength=k * len(labels))
            assert margin.tolist() == expect[i][p].tolist()
            for j in range(k):
                assert margin[j * len(labels) : (j + 1) * len(labels)].sum() == counts[i][j]


def _sampler_calls(monkeypatch):
    """Count ``_sample_table`` calls and record the period count and matrix
    shape of each ``_sample_run`` call."""
    calls = {"table": 0, "run": []}
    table, run = metagame.sim._sample_table, metagame.sim._sample_run

    def counting_table(plan, world):
        calls["table"] += 1
        return table(plan, world)

    def recording_run(plan, world, n):
        cells, sizes = run(plan, world, n)
        calls["run"].append((n, sizes.shape))
        return cells, sizes

    monkeypatch.setattr(metagame.sim, "_sample_table", counting_table)
    monkeypatch.setattr(metagame.sim, "_sample_run", recording_run)
    return calls


def _held_heist_strategies():
    """The first two of ``_heist_finite_strategies`` and a pure blame cycle:
    every advisor holds its instruction for the whole run."""
    held = _heist_finite_strategies()[:2]
    cycle = MetaAction.deterministic(InstructionProfile.pure(blame_cycle()))
    return held + [FixedProfileStrategy(cycle)]


@pytest.mark.parametrize("chunk", [None, 32])
def test_a_held_run_makes_one_sampler_call_per_chunk(heist, heist_pop, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(metagame.sim, "RUN_CHUNK", chunk)
    calls = _sampler_calls(monkeypatch)
    log, report = finite_population_run(
        500, heist, heist_pop, _held_heist_strategies(), periods=100, seed=1
    )
    step = chunk or metagame.sim.RUN_CHUNK
    lengths = [min(step, 100 - start) for start in range(0, 100, step)]
    assert [n for n, _ in calls["run"]] == lengths and calls["table"] == 0
    # The count matrices hold a chunk of periods, never the whole run.
    cells = calls["run"][0][1][1]
    assert [shape for _, shape in calls["run"]] == [(n, cells) for n in lengths]
    assert cells <= metagame.sim.RUN_CELLS
    # Each period is still its own run, with its own table and gap.
    assert [run[0] for run in log.runs] == [1] * 100
    assert len(report.per_period_gap) == 100
    assert len({rec.aggregate for rec in log.records}) > 1


def test_plans_past_the_cell_cap_stay_on_the_table_sampler(heist, heist_pop, monkeypatch):
    monkeypatch.setattr(metagame.sim, "RUN_CELLS", 8)
    calls = _sampler_calls(monkeypatch)
    finite_population_run(500, heist, heist_pop, _held_heist_strategies(), periods=100, seed=1)
    assert calls == {"table": 100, "run": []}


def test_one_period_runs_stay_on_the_table_sampler(heist, heist_pop, monkeypatch):
    # The third heist advisor mixes two outcomes, so it is asked every
    # period and every run lasts one period.
    calls = _sampler_calls(monkeypatch)
    log, _ = finite_population_run(
        333, heist, heist_pop, _heist_finite_strategies(), periods=100, seed=2
    )
    assert calls == {"table": 100, "run": []}
    assert len(log.runs) == 100


@pytest.mark.parametrize("kind", ["heavy", "greedy_myopic", "light"])
def test_runs_compare_no_equal_but_distinct_instructions(monkeypatch, kind):
    # Prescriptions, probes, myopic replies and pure punishments share one
    # object per pure profile, so interning a joint instruction and masking
    # deviations compare instructions by identity alone.
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd", p=0.9)
    params = derive_params(
        pd, pop, (-3.6, -0.4), epsilon=1.2, gamma=0.5,
        overrides={"block_length": 40, "probe_rate": 0.1, "punish_length": 20},
    )
    strategies = [HonestStrategy(), make_adversary(pd, pop, params, kind)]
    original = InstructionProfile.__eq__
    equal_but_distinct = []

    def counting(self, other):
        same = original(self, other)
        if same is True and self is not other:
            equal_but_distinct.append((self, other))
        return same

    monkeypatch.setattr(InstructionProfile, "__eq__", counting)
    log = run_repeated(pd, pop, params, strategies, delta=0.995, tail_tol=1e-6, seed=(5, 0))
    assert log.block_stats  # the run reviews, probes and deviates
    assert equal_but_distinct == []
