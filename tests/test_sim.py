import hashlib
import math

import pytest

from metagame.errors import MetagameError, ValidationError
from metagame.games import MixedStrategy
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
    heist_punishment,
    make_scenario,
    pd_profile,
    scenario_population,
)
from metagame.sim import (
    FixedProfileStrategy,
    HonestStrategy,
    Strategy,
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
    hints = {j: heist_punishment(j) for j in range(3)}
    return derive_params(
        heist, heist_pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5,
        punishment_hints=hints,
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


def test_honest_adversary_gains_nothing(heist, heist_pop, small_params):
    mean, hw = estimate_deviation_gain(
        heist, heist_pop, small_params, 0, "honest", trials=3, seed=9,
        delta=0.98, tail_tol=1e-5,
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


# sha256 of to_jsonl(); any change to the per-period stepper, the seeding or
# the record format must keep these bytes.
RUNLOG_SHA256 = {
    "honest": "1ecc1ef5f5f3ee7f08df56f0cce324ed73e275b2ee69ec5674cff4d4b2d68067",
    "light": "1773f1dd842a9a3c1168ff82af756c02e0cafa7a16fd9af7c28ab95a9ff04745",
    # In punishment the punished advisor's prescription is its best reply,
    # so heavy and greedy_myopic play the same 156 periods here.
    "heavy": "8ee489003939a7ecc3e35be3ab3b3e4f934c73d995cc2d02dd1172c31603db03",
    "greedy_myopic": "8ee489003939a7ecc3e35be3ab3b3e4f934c73d995cc2d02dd1172c31603db03",
    "finite": "2aa9f88db579de22d133edcaa0c030925dd672319b3600ba4789b26047f44bdb",
}


@pytest.mark.parametrize("kind", ["honest", "light", "heavy", "greedy_myopic"])
def test_run_repeated_log_bytes_pinned(heist, heist_pop, small_params, kind):
    strategies = [make_adversary(heist, heist_pop, small_params, kind),
                  HonestStrategy(), HonestStrategy()]
    log = run_repeated(
        heist, heist_pop, small_params, strategies, delta=0.95, tail_tol=1e-3,
        seed=17,
    )
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
