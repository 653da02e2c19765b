import math
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metagame.errors import (
    InfeasibleTargetError,
    NotIndividuallyRationalError,
    ValidationError,
)
from metagame.games import BaseGame
from metagame.model import (
    DEFAULT_TERM_BUDGET,
    AggregateTable,
    InstructionProfile,
    MetaProfile,
    Population,
    aggregate_mass,
    llm_utility,
    _payoff_tensor,
)
from metagame.feasibility import certificate_from_punishment
from metagame.protocol import (
    EXCESS,
    FREQUENCY,
    best_pure_punishment,
    derive_params,
    honest_step,
    initial_state,
    mass_ceiling,
    observe_and_update,
    punishment_action,
    validate_params,
    _mass_ceilings,
    _segment_lengths,
    _table_flags,
)
from metagame.scenarios import (
    blame_cycle,
    heist_punishment,
    make_scenario,
    scenario_population,
)

from oracles import random_game, random_instruction, random_population


@pytest.fixture(scope="module")
def heist():
    return make_scenario("heist")


@pytest.fixture(scope="module")
def heist_pop():
    return scenario_population("heist")


@pytest.fixture(scope="module")
def heist_params(heist, heist_pop):
    return derive_params(heist, heist_pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5)


@pytest.fixture(scope="module")
def small_params(heist, heist_pop):
    return derive_params(
        heist, heist_pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 0.2, "block_length": 30},
    )


def test_heist_derivation_golden(heist, heist_pop, heist_params):
    p = heist_params
    assert p.slack == pytest.approx(min(1.2 / 12, 0.5 / 5) / 2, abs=1e-15)
    assert p.cycle.support_size == 1
    assert p.segment_lengths == (p.block_length,)
    (profile,) = p.cycle.profiles
    for action in profile.actions:
        assert action.outcomes[0][0].pure_profile == blame_cycle()
    assert p.punish_length == math.ceil(p.punish_ratio * p.block_length)
    assert validate_params(heist, heist_pop, p) == []


def test_params_keep_the_payoff_tensor_outside_eq_hash_and_repr(
    heist, heist_pop, heist_params
):
    again = derive_params(heist, heist_pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5)
    assert again.payoff_tensor is not heist_params.payoff_tensor
    assert again == heist_params and hash(again) == hash(heist_params)
    assert repr(again) == repr(heist_params) and "payoff_tensor" not in repr(again)
    U = _payoff_tensor(heist, heist_pop, DEFAULT_TERM_BUDGET)
    assert np.array_equal(heist_params.payoff_tensor, U)
    assert replace(heist_params, punish_length=1).payoff_tensor is heist_params.payoff_tensor


def test_pd_derivation_validates():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    target = llm_utility(pd, pop, MetaProfile.from_pure([("C", "C"), ("C", "C")]))
    params = derive_params(pd, pop, target, epsilon=1.2, gamma=0.5)
    assert validate_params(pd, pop, params) == []
    # the only deterministic punishment that holds each advisor to its bound
    for j, cert in enumerate(params.certificates):
        other = 1 - j
        assert cert.punishment[other].outcomes[0][0].pure_profile == ("D", "D")
    assert params.certificates[0].best_response == ("C", "C")


def test_infeasible_and_non_ir_targets_error(heist, heist_pop):
    with pytest.raises(InfeasibleTargetError):
        derive_params(heist, heist_pop, (5.0, 5.0, 5.0), epsilon=1.2, gamma=0.5)
    # everyone-convicts-the-planner is feasible (a vertex) but leaves the
    # planner-primary advisor below its punishment bound
    convict = MetaProfile.from_pure([("burglar", "planner", "planner")] * 3)
    target = llm_utility(heist, heist_pop, convict)
    with pytest.raises(NotIndividuallyRationalError) as exc:
        derive_params(heist, heist_pop, target, epsilon=1.2, gamma=0.5)
    assert exc.value.margins[0] <= 0


@pytest.mark.parametrize("epsilon, gamma", [(1e-300, 0.5), (1.2, 1e-300)])
def test_tolerances_no_block_length_can_meet_are_rejected(epsilon, gamma):
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    with pytest.raises(ValidationError, match="no block length up to 17179869184"):
        derive_params(pd, pop, (-3.6, -0.4), epsilon=epsilon, gamma=gamma)


@pytest.mark.parametrize("target", [(-3.8575, -0.5175), (-4.3948, -0.1333)])
def test_targets_outside_the_hull_are_infeasible(target):
    # Both lie just outside the PD hull. Checked on the adjusted target alone,
    # the first would be derived and the second reported not individually
    # rational.
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    with pytest.raises(InfeasibleTargetError):
        derive_params(pd, pop, target, epsilon=1.2, gamma=0.5)


def test_degenerate_constant_game():
    game = BaseGame.from_table(
        (("x", "y"),), {("x",): (2.5,), ("y",): (2.5,)}
    )
    pop = Population(((1.0,),))
    params = derive_params(game, pop, (2.5,), epsilon=0.5, gamma=0.5)
    assert params.degenerate
    assert params.probe_rate == 0.0
    assert params.punish_length == 0


def test_mass_ceiling_full_ownership():
    # each advisor fully owns one role: the reviewed advisor's own-role
    # ceilings are 1 for every action
    game = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = Population(((1.0, 0.0), (0.0, 1.0)))
    target = llm_utility(game, pop, MetaProfile.from_pure([("C", "C")] * 2))
    params = derive_params(game, pop, target, epsilon=6.0, gamma=2.0)
    for seg in range(params.segment_count):
        for a in range(2):
            assert mass_ceiling(params, seg, 0, 0, a) == pytest.approx(1.0)
            assert mass_ceiling(params, seg, 1, 1, a) == pytest.approx(1.0)


def test_mass_ceiling_pd_golden():
    game = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    target = llm_utility(game, pop, MetaProfile.from_pure([("C", "C"), ("C", "C")]))
    params = derive_params(game, pop, target, epsilon=1.2, gamma=0.5)
    # find the segment prescribing mutual cooperation
    seg = next(
        h for h, row in enumerate(params.prescriptions)
        if all(inst.pure_profile == ("C", "C") for inst in row)
    )
    assert mass_ceiling(params, seg, 1, 0, 0) == pytest.approx(1.0)   # action C
    assert mass_ceiling(params, seg, 1, 0, 1) == pytest.approx(0.1)   # action D


def test_honest_step_non_reviewed_never_probes(small_params):
    state = initial_state(small_params)
    rng = np.random.default_rng(0)
    for j in (1, 2):
        for _ in range(50):
            inst, probed = honest_step(small_params, state, j, rng)
            assert not probed
            assert inst == small_params.prescriptions[state.segment][j]


def test_honest_step_zero_probe_rate(heist, heist_pop):
    params = derive_params(
        heist, heist_pop, (0.0, 0.0, 0.0), epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 0.0, "block_length": 16},
    )
    state = initial_state(params)
    rng = np.random.default_rng(1)
    for _ in range(50):
        inst, probed = honest_step(params, state, 0, rng)
        assert not probed


def test_forced_probe_uniform_over_extremes():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    target = llm_utility(pd, pop, MetaProfile.from_pure([("C", "C"), ("C", "C")]))
    params = derive_params(
        pd, pop, target, epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 1.0, "block_length": 16},
    )
    state = initial_state(params)
    rng = np.random.default_rng(7)
    counts = {p: 0 for p in pd.profiles()}
    n = 10_000
    for _ in range(n):
        inst, probed = honest_step(params, state, 0, rng)
        assert probed
        counts[inst.pure_profile] += 1
    sigma = math.sqrt(0.25 * 0.75 / n)
    for profile, count in counts.items():
        assert abs(count / n - 0.25) <= 3 * sigma + 1e-12


def test_observe_honest_stream_no_events(heist, heist_pop, small_params):
    state = initial_state(small_params)
    honest = [small_params.prescriptions[0][j] for j in range(3)]
    table = aggregate_mass(heist, heist_pop, honest)
    for _ in range(2 * small_params.block_length):
        state, event = observe_and_update(small_params, state, table)
        assert event is None
        assert state.mode == "review"
        assert state.discrepancies == 0


def test_constant_probing_triggers_frequency(heist, heist_pop, small_params):
    state = initial_state(small_params)
    off_path = InstructionProfile.pure(("driver", "planner", "burglar"))
    others = [small_params.prescriptions[0][j] for j in (1, 2)]
    table = aggregate_mass(heist, heist_pop, [off_path] + others)
    event = None
    for t in range(small_params.block_length):
        state, event = observe_and_update(small_params, state, table)
        if t < small_params.block_length - 1:
            assert event is None
    assert event is not None and event.kind == FREQUENCY
    assert event.llm == 0
    assert state.mode == "punishment"
    assert state.punishment_remaining == small_params.punish_length
    # punishment runs exactly K periods, then a fresh block on the same phase
    for _ in range(small_params.punish_length):
        assert state.mode == "punishment"
        state, event = observe_and_update(small_params, state, table)
    assert state.mode == "review"
    assert state.phase == 0
    assert state.block_step == 0


def test_excess_deviation_advances_phase(heist, heist_pop, small_params):
    # Advisor 1 throws its whole burglar mass onto 'planner' while the
    # reviewed advisor's probe plays the same action: ceiling breached.
    state = initial_state(small_params)
    probe = InstructionProfile.pure(("driver", "planner", "burglar"))
    shifted = InstructionProfile.pure(("burglar", "planner", "planner"))
    honest2 = small_params.prescriptions[0][2]
    table = aggregate_mass(heist, heist_pop, [probe, shifted, honest2])
    assert table.mass(1, 0) > mass_ceiling(small_params, 0, 0, 1, 0)
    event = None
    for _ in range(small_params.block_length):
        state, event = observe_and_update(small_params, state, table)
    assert event is not None and event.kind == EXCESS
    assert event.llm == 0
    assert state.phase == 1 and state.mode == "review"


def test_excess_takes_precedence_and_wraps(heist, heist_pop, small_params):
    state = replace(initial_state(small_params), phase=2)
    probe = InstructionProfile.pure(("driver", "planner", "burglar"))
    shifted = InstructionProfile.pure(("burglar", "planner", "planner"))
    table = aggregate_mass(
        heist, heist_pop, [shifted, small_params.prescriptions[0][1], probe]
    )
    event = None
    for _ in range(small_params.block_length):
        state, event = observe_and_update(small_params, state, table)
    assert event is not None and event.kind == EXCESS
    assert state.phase == 0  # cyclic wraparound


def test_own_phase_deviations_never_breach_ceilings(heist, heist_pop, small_params):
    rng = random.Random(17)
    state = initial_state(small_params)
    honest = [small_params.prescriptions[0][j] for j in range(3)]
    for _ in range(500):
        trial = list(honest)
        trial[state.phase] = random_instruction(rng, heist)
        table = aggregate_mass(heist, heist_pop, trial)
        for i in range(3):
            for a in range(2):
                assert table.mass(i, a) <= mass_ceiling(
                    small_params, state.segment, state.phase, i, a
                ) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    roles=st.integers(2, 3),
    n_actions=st.integers(2, 3),
    llms=st.integers(2, 3),
    segments=st.integers(1, 4),
)
def test_own_phase_deviations_never_set_excess(seed, roles, n_actions, llms, segments):
    # Beyond heist: seeded random games and populations in which every
    # advisor governs a share of every role, and pure prescriptions per
    # segment as derivation writes them.  In review of advisor l during
    # segment h, l plays any instruction (mixtures and within-role splits
    # included) while the others follow their prescriptions; no mass may
    # pass the ceiling that _mass_ceilings builds.
    rng = random.Random(seed)
    game = random_game(rng, roles=roles, n_actions=n_actions)
    pop = random_population(rng, roles=roles, llms=llms)
    prescriptions = tuple(
        tuple(
            InstructionProfile.pure(tuple(rng.choice(acts) for acts in game.actions))
            for _ in range(llms)
        )
        for _ in range(segments)
    )
    params = SimpleNamespace(
        discrepancy_tol=1e-9,
        intended_aggregates=tuple(aggregate_mass(game, pop, row) for row in prescriptions),
        mass_ceilings=_mass_ceilings(game, pop, prescriptions),
    )
    for h, row in enumerate(prescriptions):
        for l in range(llms):
            for _ in range(4):
                trial = list(row)
                trial[l] = random_instruction(rng, game)
                table = aggregate_mass(game, pop, trial)
                assert _table_flags(params, table, h, l)[1] is False


def test_segment_rounding_bound():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        raw = [rng.random() + 1e-3 for _ in range(n)]
        total = sum(raw)
        weights = [v / total for v in raw]
        T = rng.randint(max(1, n), 500)
        lengths = _segment_lengths(weights, T)
        assert sum(lengths) == T
        assert all(L >= 0 for L in lengths)
        for L, w in zip(lengths, weights):
            assert abs(L / T - w) <= (n - 1) / T + 1e-12


def test_state_machine_deterministic_replay(heist, heist_pop, small_params):
    rng = np.random.default_rng(5)
    tables = []
    honest = [small_params.prescriptions[0][j] for j in range(3)]
    for _ in range(3 * small_params.block_length):
        trial = list(honest)
        if rng.random() < 0.3:
            labels = tuple(
                acts[int(rng.integers(len(acts)))] for acts in heist.actions
            )
            trial[0] = InstructionProfile.pure(labels)
        tables.append(aggregate_mass(heist, heist_pop, trial))

    def run(stream):
        state = initial_state(small_params)
        trace = []
        for table in stream:
            state, event = observe_and_update(small_params, state, table)
            trace.append((state, event))
        return trace

    assert run(tables) == run(tables)


def test_punishment_actions_golden(heist, heist_pop, small_params):
    state = replace(
        initial_state(small_params),
        mode="punishment",
        punishment_remaining=5,
        punished=0,
    )
    for j in (1, 2):
        inst = punishment_action(small_params, state, j)
        # all burglar and driver clients of the punishers name the planner
        assert inst.pure_profile[1] == "planner"
        assert inst.pure_profile[2] == "planner"
    punished = punishment_action(small_params, state, 0)
    assert punished.pure_profile == small_params.certificates[0].best_response


def test_pd_punishment_actions():
    pd = make_scenario("pd", X=-2, Y=-4, Z=-5)
    pop = scenario_population("pd")
    target = llm_utility(pd, pop, MetaProfile.from_pure([("C", "C"), ("C", "C")]))
    params = derive_params(
        pd, pop, target, epsilon=1.2, gamma=0.5,
        overrides={"probe_rate": 0.1, "block_length": 20},
    )
    state = replace(
        initial_state(params), mode="punishment", punishment_remaining=3, punished=0
    )
    assert punishment_action(params, state, 1).pure_profile == ("D", "D")
    assert punishment_action(params, state, 0).pure_profile == ("C", "C")


def _punishment_doc(cert):
    return [None if a is None else a.to_dict() for a in cert.punishment]


@pytest.mark.parametrize(
    "name, game_params, pop_params, target",
    [
        ("heist", {}, {}, (0.0, 0.0, 0.0)),
        ("pd", {"X": -2, "Y": -4, "Z": -5}, {"p": 0.9}, (-3.6, -0.4)),  # README
    ],
)
def test_derived_punishments_are_the_searched_ones(name, game_params, pop_params, target):
    # derive_params takes no punishment from its caller: each certificate is
    # the pure search's over the payoff tensor.
    game = make_scenario(name, **game_params)
    pop = scenario_population(name, **pop_params)
    params = derive_params(game, pop, target, epsilon=1.2, gamma=0.5)
    for j, cert in enumerate(params.certificates):
        searched = best_pure_punishment(game, pop, j)
        assert _punishment_doc(cert) == _punishment_doc(searched)
        assert (cert.lower_bound, cert.upper_bound) == (
            searched.lower_bound, searched.upper_bound
        )
        assert cert.best_response == searched.best_response


def test_derived_heist_punishments_match_the_named_ones(heist, heist_pop, heist_params):
    # The searched punishments hold every heist advisor as low as the
    # hand-written ones in metagame.scenarios.
    for j, cert in enumerate(heist_params.certificates):
        named = certificate_from_punishment(heist, heist_pop, j, heist_punishment(j))
        assert cert.upper_bound == pytest.approx(named.upper_bound, abs=1e-12)


def test_mode_preconditions(small_params):
    state = initial_state(small_params)
    with pytest.raises(ValidationError):
        punishment_action(small_params, state, 0)
    pstate = replace(state, mode="punishment", punishment_remaining=2, punished=1)
    with pytest.raises(ValidationError):
        honest_step(small_params, pstate, 0, np.random.default_rng(0))


def test_validator_catches_tampering(heist, heist_pop, heist_params):
    bad = replace(heist_params, punish_length=heist_params.punish_length + 7)
    assert validate_params(heist, heist_pop, bad)
    ceilings = [
        [[list(row) for row in per_role] for per_role in per_rev]
        for per_rev in heist_params.mass_ceilings
    ]
    ceilings[0][1][0][0] += 0.05
    bad2 = replace(
        heist_params,
        mass_ceilings=tuple(
            tuple(tuple(tuple(r) for r in pr) for pr in prr) for prr in ceilings
        ),
    )
    assert any("ceiling" in v for v in validate_params(heist, heist_pop, bad2))


def test_overrides_flagged(small_params):
    assert small_params.overridden
    assert small_params.probe_rate == 0.2
    assert small_params.block_length == 30
    assert small_params.freq_threshold == pytest.approx(0.6)
    assert small_params.punish_length == math.ceil(
        small_params.punish_ratio * small_params.block_length
    )


def test_degenerate_derivation_collapses():
    # Two advisors, two roles, every profile paying (1, 2): no deviation can
    # gain, so nothing is blended, probed or punished.
    game = BaseGame.from_table(
        (("a", "b"), ("a", "b")),
        {p: (1.0, 2.0) for p in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))},
    )
    pop = Population(((0.5, 0.5), (0.5, 0.5)))
    params = derive_params(game, pop, (1.5, 1.5), epsilon=0.5, gamma=0.5)
    assert params.degenerate
    assert params.block_length == max(16, params.cycle.support_size)
    assert params.blend == 0.0
    assert params.adjusted_target == params.target == (1.5, 1.5)
    assert params.freq_threshold == 0.0
    assert params.punish_length == 0
    assert validate_params(game, pop, params) == []


def test_validator_catches_tampered_intended_aggregates(heist, heist_pop, heist_params):
    rows = [list(row) for row in heist_params.intended_aggregates[0].masses]
    rows[0][0] -= 0.05
    rows[0][1] += 0.05
    bad = replace(
        heist_params,
        intended_aggregates=(AggregateTable(tuple(map(tuple, rows))),)
        + heist_params.intended_aggregates[1:],
    )
    assert validate_params(heist, heist_pop, bad) == [
        "intended aggregate mismatch in segment 0"
    ]
