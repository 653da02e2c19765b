"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (pytest's own -v lines serve the same purpose when output
capture is on).
"""

import math
import random

import numpy as np
import pytest

from metagame.games import MixedStrategy
from metagame.model import (
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    aggregate_mass,
    average_utility,
    llm_utility,
    reduce_role_homogeneous,
)
from metagame.oneshot import (
    base_nash_2p,
    best_response_iteration,
    check_equilibrium,
    single_role_aggregate,
)
from metagame.games import StrategyProfile, expected_payoff
from metagame.feasibility import (
    certificate_from_punishment,
    check_strict_ir,
    decompose_target,
    minmax,
    payoff_vertices,
)
from metagame.protocol import (
    EXCESS,
    FREQUENCY,
    derive_params,
    honest_step,
    initial_state,
    mass_ceiling,
    observe_and_update,
    validate_params,
)
from metagame.scenarios import (
    blame_cycle,
    bounded10_equilibrium_profile,
    heist_punishment,
    make_scenario,
    pd_profile,
    scenario_population,
)
from metagame.sim import (
    HonestStrategy,
    estimate_deviation_gain,
    finite_population_run,
    FixedProfileStrategy,
    run_repeated,
)

from oracles import random_game, random_instruction, random_meta_profile, random_population


def _ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_pd_golden_numbers():
    game = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd", p=0.9)
    profile = pd_profile("CC", "DD")
    assert average_utility(game, pop, profile, 0) == pytest.approx(-2.3, abs=1e-12)
    assert average_utility(game, pop, profile, 1) == pytest.approx(-0.4, abs=1e-12)
    report = check_equilibrium(game, pop, profile, epsilon=1e-9)
    assert all(abs(r) <= 1e-9 for r in report.regrets)
    assert report.is_epsilon_equilibrium
    _ok(1, "PD averages (-2.3, -0.4) within 1e-12; regrets 0 within 1e-9")


def test_criterion_2_bounded_coordination():
    pop = scenario_population("bounded10")
    game = make_scenario("bounded10", n_actions=100)
    profile = bounded10_equilibrium_profile(game)
    totals = llm_utility(game, pop, profile, budget=10**8)
    assert totals[0] == pytest.approx(49.99, abs=1e-9)
    assert totals[1] == pytest.approx(49.0, abs=1e-9)
    assert totals[2] == pytest.approx(0.0, abs=1e-9)
    averages = [totals[j] / pop.governed_mass(j) for j in range(3)]
    assert averages == pytest.approx([9.998, 12.25, 0.0], abs=1e-9)

    small = make_scenario("bounded10", n_actions=6)
    report = check_equilibrium(
        small,
        pop,
        bounded10_equilibrium_profile(small),
        epsilon=1e-9,
        symmetry="rotation",
    )
    assert report.max_regret <= 1e-9
    _ok(
        2,
        "totals 49.99 / 49 / 0 and averages 9.998 / 12.25 / 0 within 1e-9; "
        "equilibrium certified at 6 actions with regret "
        f"{report.max_regret:.2e}",
    )


def test_criterion_3_heist_individual_rationality():
    game = make_scenario("heist")
    pop = scenario_population("heist")
    certs = []
    for j in range(3):
        cert = certificate_from_punishment(game, pop, j, heist_punishment(j))
        assert pop.governed_mass(j) == pytest.approx(1.0)
        assert cert.upper_bound <= -0.5872 + 1e-9
        certs.append(cert)

    cycle = decompose_target(payoff_vertices(game, pop), (0.0, 0.0, 0.0))
    assert cycle.support_size == 1
    assert cycle.weights == (1.0,)
    (profile,) = cycle.profiles
    assert all(
        a.outcomes[0][0].pure_profile == blame_cycle() for a in profile.actions
    )

    ir = check_strict_ir((0.0, 0.0, 0.0), certs)
    assert ir.strict
    assert all(m > 0 for m in ir.margins)
    _ok(
        3,
        f"punished averages <= -0.5872 (worst {max(c.upper_bound for c in certs):.4f}); "
        "(0,0,0) = single blame-cycle profile; strict IR margins "
        f"{tuple(round(m, 4) for m in ir.margins)}",
    )


def test_criterion_4_role_homogeneous_reduction():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(1000):
        roles = rng.choice((2, 3))
        llms = rng.choice((2, 3))
        game = random_game(rng, roles=roles, n_actions=2)
        pop = random_population(rng, roles=roles, llms=llms)
        profile = random_meta_profile(rng, game, llms)
        base = llm_utility(game, pop, profile)
        j = rng.randrange(llms)
        reduced = profile.replace(j, reduce_role_homogeneous(profile.actions[j]))
        after = llm_utility(game, pop, reduced)
        worst = max(worst, max(abs(a - b) for a, b in zip(base, after)))
    assert worst <= 1e-9
    _ok(4, f"1000 random meta-games reduction-invariant (worst drift {worst:.2e})")


def _lift(game, nash, splits=(0.3, 0.7)):
    m = game.role_count
    rows = []
    for i in range(m):
        row = [0.0] * (2 * m)
        row[2 * i] = splits[0]
        row[2 * i + 1] = splits[1]
        rows.append(tuple(row))
    pop = Population(tuple(rows))
    actions = []
    for i in range(m):
        strategies = tuple(
            nash.strategies[r]
            if r == i
            else MixedStrategy.point_mass(r, game.actions[r][0])
            for r in range(m)
        )
        inst = InstructionProfile.homogeneous(strategies)
        actions.extend([MetaAction.deterministic(inst)] * 2)
    return pop, MetaProfile(tuple(actions))


def test_criterion_5_single_role_correspondence():
    rng = random.Random(501)
    lifted = 0
    converged = 0
    for _ in range(200):
        game = random_game(rng, roles=2, n_actions=2)
        # every base Nash lifts to a meta-equilibrium
        for nash in base_nash_2p(game):
            pop, profile = _lift(game, nash)
            report = check_equilibrium(game, pop, profile, epsilon=1e-9)
            assert report.max_regret <= 1e-9
            lifted += 1
        # best-response-stable single-role profiles aggregate to a base Nash
        pop = Population(((0.4, 0.6, 0.0, 0.0), (0.0, 0.0, 0.25, 0.75)))
        start = [
            (rng.choice(game.actions[0]), rng.choice(game.actions[1]))
            for _ in range(4)
        ]
        stable = best_response_iteration(game, pop, start)
        if stable is None:
            continue
        converged += 1
        agg = single_role_aggregate(game, pop, stable)
        for i in range(2):
            base_val = expected_payoff(game, agg)[i]
            for a in game.actions[i]:
                dev = StrategyProfile(
                    tuple(
                        MixedStrategy.point_mass(i, a) if r == i else agg.strategies[r]
                        for r in range(2)
                    )
                )
                assert expected_payoff(game, dev)[i] <= base_val + 1e-9
    assert lifted >= 200
    assert converged >= 100
    _ok(
        5,
        f"{lifted} base equilibria lifted with regret <= 1e-9; "
        f"{converged} best-response-stable profiles aggregate to base Nash",
    )


def _grid_minmax(game, pop, j, resolution=200):
    profiles = list(game.profiles())
    n = len(profiles)
    opp = 1 - j
    C = np.empty((n, n))
    for b, bp in enumerate(profiles):
        for a, ap in enumerate(profiles):
            pair = [None, None]
            pair[j] = ap
            pair[opp] = bp
            C[b, a] = llm_utility(game, pop, MetaProfile.from_pure(pair))[j]
    best = np.inf
    r = np.arange(resolution + 1, dtype=np.int32)
    for i in range(resolution + 1):
        jj, kk = np.meshgrid(r[: resolution - i + 1], r[: resolution - i + 1],
                             indexing="ij")
        mask = jj + kk <= resolution - i
        y = np.empty((int(mask.sum()), 4))
        y[:, 0] = i
        y[:, 1] = jj[mask]
        y[:, 2] = kk[mask]
        y[:, 3] = resolution - i - y[:, 1] - y[:, 2]
        y /= resolution
        best = min(best, float((y @ C).max(axis=1).min()))
    return best


def test_criterion_6_minmax_grid_oracle():
    # payoff scale +-0.002 makes the lattice rounding error provably < 1e-4:
    # moving the optimal mixture to the 1/200 lattice shifts the value by at
    # most (|dy|_1 / 2) * spread(C) <= 0.01 * 0.008
    rng = random.Random(606)
    worst = 0.0
    for _ in range(50):
        game = random_game(rng, roles=2, n_actions=2, lo=-0.002, hi=0.002)
        pop = random_population(rng, roles=2, llms=2)
        j = rng.randrange(2)
        cert = minmax(game, pop, j)
        grid = _grid_minmax(game, pop, j)
        gap = abs(cert.lower_bound - grid)
        worst = max(worst, gap)
        assert gap <= 1e-4
    _ok(6, f"50 LP minmax values match the 201-per-axis grid (worst gap {worst:.2e})")


@pytest.fixture(scope="module")
def heist_setup():
    game = make_scenario("heist")
    pop = scenario_population("heist")
    return game, pop


def test_criterion_7a_own_phase_excess_never_fires(heist_setup):
    game, pop = heist_setup
    params = derive_params(
        game, pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 0.15, "block_length": 40},
    )
    rng = random.Random(7001)
    state = initial_state(params)
    honest = [params.prescriptions[0][j] for j in range(3)]
    for _ in range(10_000):
        trial = list(honest)
        trial[state.phase] = random_instruction(rng, game)
        table = aggregate_mass(game, pop, trial)
        for i in range(3):
            for a in range(2):
                assert (
                    table.mass(i, a)
                    <= mass_ceiling(params, state.segment, state.phase, i, a) + 1e-9
                )
    _ok(7, "(a) 10^4 own-phase deviations never breach a mass ceiling")


def test_criterion_7b_honest_false_punishment_rate(heist_setup):
    game, pop = heist_setup
    p, T = 0.15, 40
    params = derive_params(
        game, pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": p, "block_length": T},
    )
    blocks = 10_000
    rng = np.random.default_rng(7002)
    honest = [params.prescriptions[0][j] for j in range(3)]
    agg_cache = {}

    def table_for(instr):
        hit = agg_cache.get(instr)
        if hit is None:
            hit = aggregate_mass(game, pop, [instr, honest[1], honest[2]])
            agg_cache[instr] = hit
        return hit

    false_punishments = 0
    for _ in range(blocks):
        state = initial_state(params)
        for _ in range(T):
            instr, _ = honest_step(params, state, 0, rng)
            state, event = observe_and_update(params, state, table_for(instr))
        if event is not None and event.kind == FREQUENCY:
            false_punishments += 1
    bound = math.exp(-2.0 * p * p * T)
    sigma = math.sqrt(bound * (1.0 - bound) / blocks)
    rate = false_punishments / blocks
    assert rate <= bound + 3.0 * sigma
    _ok(
        7,
        f"(b) honest false-punishment rate {rate:.4f} <= "
        f"exp(-2 p^2 T) + 3 sigma = {bound + 3 * sigma:.4f} over {blocks} blocks",
    )


def test_criterion_7c_heavy_pre_phase_blocks_detected():
    game = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    target = llm_utility(game, pop, pd_profile("CC", "CC"))
    p, T = 0.1, 100
    params = derive_params(
        game, pop, target, epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": p, "block_length": T},
    )
    q = math.ceil(p * T)
    blocks = 2000
    rng = np.random.default_rng(7003)
    # the deviator's budget must fall inside the first cycle segment so each
    # deviating period contends with the same prescription
    assert params.segment_lengths[0] >= q
    deviant = InstructionProfile.pure(("D", "D"))
    agg_cache = {}

    def table_for(instr0, instr1):
        key = (instr0, instr1)
        hit = agg_cache.get(key)
        if hit is None:
            hit = aggregate_mass(game, pop, [instr0, instr1])
            agg_cache[key] = hit
        return hit

    detected = 0
    for _ in range(blocks):
        state = initial_state(params)
        event = None
        for t in range(T):
            instr0, _ = honest_step(params, state, 0, rng)
            honest1 = params.prescriptions[state.segment][1]
            instr1 = deviant if t < q else honest1
            state, event = observe_and_update(params, state, table_for(instr0, instr1))
        if event is not None and event.kind == EXCESS:
            detected += 1
    max_actions = max(len(a) for a in game.actions)
    bound = 1.0 - (1.0 - p / max_actions) ** q
    sigma = math.sqrt(bound * (1.0 - bound) / blocks)
    rate = detected / blocks
    assert rate >= bound - 3.0 * sigma
    _ok(
        7,
        f"(c) heavy pre-phase blocks detected at rate {rate:.3f} >= "
        f"1-(1-p/|A|)^ceil(pT) - 3 sigma = {bound - 3 * sigma:.3f}",
    )


def _protocol_end_to_end(game, pop, target, adversary_llm, seeds=30):
    params = derive_params(game, pop, target, epsilon=1.2, gamma=0.5)
    assert not params.overridden and not params.degenerate
    assert validate_params(game, pop, params) == []

    worst_gap = 0.0
    for s in range(seeds):
        log = run_repeated(
            game,
            pop,
            params,
            [HonestStrategy() for _ in range(pop.llm_count)],
            delta=0.995,
            tail_tol=1e-6,
            seed=(8000, s),
        )
        worst_gap = max(
            worst_gap,
            max(abs(u - r) for u, r in zip(log.discounted, params.target)),
        )
    assert worst_gap <= params.gamma

    baselines = [
        run_repeated(
            game,
            pop,
            params,
            [HonestStrategy() for _ in range(pop.llm_count)],
            delta=0.995,
            tail_tol=1e-6,
            seed=(8100, t),
        )
        for t in range(seeds)
    ]
    gains = {}
    for kind in ("honest", "light", "heavy", "greedy_myopic"):
        mean, hw = estimate_deviation_gain(
            game, pop, params, adversary_llm, kind, baselines
        )
        assert mean <= params.epsilon + hw
        gains[kind] = (mean, hw)
    return params, worst_gap, gains


def test_criterion_8_protocol_end_to_end(heist_setup):
    game, pop = heist_setup
    hparams, hgap, hgains = _protocol_end_to_end(game, pop, (0.0, 0.0, 0.0), 0)

    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    ppop = scenario_population("pd")
    target = llm_utility(pd, ppop, pd_profile("CC", "CC"))
    pparams, pgap, pgains = _protocol_end_to_end(pd, ppop, target, 1)

    _ok(
        8,
        "derived params machine-verified (heist T="
        f"{hparams.block_length}, PD T={pparams.block_length}); honest gaps "
        f"{hgap:.3f} / {pgap:.3f} <= gamma 0.5; worst adversary gains "
        f"heist {max(m for m, _ in hgains.values()):.3f}, "
        f"PD {max(m for m, _ in pgains.values()):.3f} <= epsilon 1.2",
    )


def test_criterion_9_finite_population_rate():
    game = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    mixed = InstructionProfile.homogeneous(
        (
            MixedStrategy.from_weights(0, {"C": 0.5, "D": 0.5}),
            MixedStrategy.from_weights(1, {"C": 0.5, "D": 0.5}),
        )
    )
    strategies = [
        FixedProfileStrategy(MetaAction.deterministic(mixed)) for _ in range(2)
    ]
    sizes = (100, 1000, 10_000)
    means = []
    for N in sizes:
        _, report = finite_population_run(
            N, game, pop, strategies, periods=100, seed=(9000, N)
        )
        means.append(report.mean_gap)
    slope = float(
        np.polyfit(np.log(np.array(sizes, dtype=float)), np.log(np.array(means)), 1)[0]
    )
    assert -0.6 <= slope <= -0.4
    _ok(
        9,
        f"aggregate gap shrinks as N^{slope:.3f} over N in (100, 1000, 10000) "
        f"(gaps {', '.join(f'{g:.4f}' for g in means)})",
    )
