import random

import pytest

from metagame.errors import (
    BudgetExceededError,
    UndefinedAverageError,
    ValidationError,
)
from metagame.games import BaseGame, MixedStrategy
from metagame.model import (
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    _pure_instruction,
    aggregate_mass,
    average_utility,
    llm_utility,
    reduce_role_homogeneous,
)
from metagame.scenarios import (
    blame_cycle,
    bounded10_equilibrium_profile,
    heist_punishment,
    make_scenario,
    pd_profile,
    scenario_population,
    split_instruction,
)

from oracles import (
    governance_utilities,
    random_game,
    random_meta_action,
    random_meta_profile,
    random_population,
)


@pytest.fixture(scope="module")
def pd():
    return make_scenario("pd", X=-2, Y=-4, Z=-5)


@pytest.fixture(scope="module")
def pd_pop():
    return scenario_population("pd")


def test_population_validation():
    with pytest.raises(ValidationError):
        Population(((0.5, 0.4),))
    with pytest.raises(ValidationError):
        Population(((0.5, 0.5), (0.5,)))
    with pytest.raises(ValidationError):
        Population(((-0.1, 1.1),))
    pop = Population(((0.9, 0.1), (0.2, 0.8)))
    assert pop.governed_mass(0) == pytest.approx(1.1)
    assert pop.governed_roles(1) == (0, 1)


def test_population_rows_are_divided_by_their_sums():
    # Rows that sum to 1 exactly are kept bit for bit; a row within the
    # tolerance of 1 is divided by its sum, so the factorized utilities and
    # the governance-product oracle read one population.
    assert Population(((0.9, 0.1), (0.2, 0.8))).shares == ((0.9, 0.1), (0.2, 0.8))
    assert Population(((1.0 - 3e-13, 0.0),)).shares == ((1.0, 0.0),)
    rng = random.Random(12)
    for _ in range(10):
        game = random_game(rng, roles=3, n_actions=2, lo=-50.0, hi=50.0)
        pop = Population(
            ((1.0 - 3e-13, 0.0), (0.0, 1.0 - 3e-13), (0.6, 0.4 - 3e-13))
        )
        assert all(abs(sum(row) - 1.0) <= 2e-16 for row in pop.shares)
        profile = random_meta_profile(rng, game, 2)
        got = llm_utility(game, pop, profile)
        assert got == pytest.approx(governance_utilities(game, pop, profile), abs=1e-12, rel=0)


def test_pd_golden_utilities(pd, pd_pop):
    profile = pd_profile("CC", "DD")
    U = llm_utility(pd, pd_pop, profile)
    assert U == pytest.approx((-4.14, -0.08), abs=1e-12)
    assert average_utility(pd, pd_pop, profile, 0) == pytest.approx(-2.3, abs=1e-12)
    assert average_utility(pd, pd_pop, profile, 1) == pytest.approx(-0.4, abs=1e-12)


def test_single_llm_pure_utility_sums_roles(pd):
    pop = Population(((1.0,), (1.0,)))
    for profile in pd.profiles():
        U = llm_utility(pd, pop, MetaProfile.from_pure([profile]))
        assert U[0] == pytest.approx(sum(pd.payoff(profile)), abs=1e-12)


def test_average_requires_positive_mass(pd):
    pop = Population(((1.0, 0.0), (1.0, 0.0)))
    profile = pd_profile("CC", "CC")
    with pytest.raises(UndefinedAverageError):
        average_utility(pd, pop, profile, 1)


def test_heist_punished_blame_cycle_value():
    # Punishers send all their burglar/driver clients after the planner; the
    # punished advisor keeps the blame cycle.  Its aggregate payoff must sit
    # under the -0.5872 certification bound, and match the enumeration oracle.
    game = make_scenario("heist")
    pop = scenario_population("heist")
    punishment = heist_punishment(0)
    actions = [
        MetaAction.from_pure(blame_cycle()) if a is None else a for a in punishment
    ]
    profile = MetaProfile(tuple(actions))
    U = llm_utility(game, pop, profile)
    oracle = governance_utilities(game, pop, profile)
    assert U == pytest.approx(oracle, abs=1e-12)
    assert average_utility(game, pop, profile, 0) <= -0.5872 + 1e-9


def test_aggregate_mass_examples(pd, pd_pop):
    # single advisor, point mass
    one = Population(((1.0,), (1.0,)))
    table = aggregate_mass(pd, one, [InstructionProfile.pure(("C", "C"))])
    assert table.masses[0] == (1.0, 0.0)

    # forced by linearity of the aggregate formula
    table = aggregate_mass(
        pd,
        pd_pop,
        [InstructionProfile.pure(("C", "C")), InstructionProfile.pure(("D", "D"))],
    )
    assert table.masses[0] == pytest.approx((0.9, 0.1), abs=1e-15)

    # within-role split: 0.9 * 0.5 + 0.1 * 0
    split = split_instruction(pd, [{"C": 0.5, "D": 0.5}, {"C": 1.0}])
    table = aggregate_mass(
        pd, pd_pop, [split, InstructionProfile.pure(("D", "D"))]
    )
    assert table.mass(0, 0) == pytest.approx(0.45, abs=1e-15)


def test_aggregate_rows_sum_to_one_and_linear(pd, pd_pop):
    rng = random.Random(3)
    for _ in range(20):
        game = random_game(rng, roles=2, n_actions=3)
        pop = random_population(rng, roles=2, llms=2)
        inst = [
            next(iter(random_meta_action(rng, game).outcomes))[0] for _ in range(2)
        ]
        table = aggregate_mass(game, pop, inst)
        for row in table.masses:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_aggregate_linear_in_one_llms_masses(pd, pd_pop):
    # blending one advisor's instruction (as a within-role split) blends the
    # aggregate table by the same coefficient
    lam = 0.3
    a = InstructionProfile.pure(("C", "C"))
    b = InstructionProfile.pure(("D", "C"))
    blended = split_instruction(pd, [{"C": lam, "D": 1 - lam}, {"C": 1.0}])
    other = InstructionProfile.pure(("D", "D"))
    t_a = aggregate_mass(pd, pd_pop, [a, other])
    t_b = aggregate_mass(pd, pd_pop, [b, other])
    t_mix = aggregate_mass(pd, pd_pop, [blended, other])
    for i in range(2):
        for col in range(2):
            want = lam * t_a.mass(i, col) + (1 - lam) * t_b.mass(i, col)
            assert t_mix.mass(i, col) == pytest.approx(want, abs=1e-12)


def test_reduce_role_homogeneous_point_mass_fixed():
    action = MetaAction.from_pure(("C", "C"))
    assert reduce_role_homogeneous(action) == action


def test_reduce_role_homogeneous_split_and_mixture_agree(pd):
    # Within-role split: half the role-1 clients cooperate, half defect.
    split = MetaAction.deterministic(
        split_instruction(pd, [{"C": 0.5, "D": 0.5}, {"D": 1.0}])
    )
    # Client-level randomization: every role-1 client mixes 0.5/0.5.
    mixed = MetaAction.deterministic(
        InstructionProfile.homogeneous(
            (
                MixedStrategy.from_weights(0, {"C": 0.5, "D": 0.5}),
                MixedStrategy.point_mass(1, "D"),
            )
        )
    )
    want = MetaAction(
        (
            (InstructionProfile.pure(("C", "D")), 0.5),
            (InstructionProfile.pure(("D", "D")), 0.5),
        )
    )
    for action in (split, mixed):
        reduced = reduce_role_homogeneous(action)
        assert reduced.is_role_homogeneous()
        assert len(reduced.outcomes) == 2
        for (got_p, got_w), (want_p, want_w) in zip(reduced.outcomes, want.outcomes):
            assert got_p == want_p
            assert got_w == pytest.approx(want_w, abs=1e-15)


def test_reduction_preserves_all_utilities():
    rng = random.Random(11)
    for trial in range(100):
        roles = rng.choice((2, 3))
        llms = rng.choice((2, 3))
        game = random_game(rng, roles=roles, n_actions=2)
        pop = random_population(rng, roles=roles, llms=llms)
        profile = random_meta_profile(rng, game, llms)
        base = llm_utility(game, pop, profile)
        j = rng.randrange(llms)
        reduced = profile.replace(j, reduce_role_homogeneous(profile.actions[j]))
        after = llm_utility(game, pop, reduced)
        assert after == pytest.approx(base, abs=1e-9)


def test_factorized_matches_governance_enumeration():
    rng = random.Random(23)
    for trial in range(40):
        roles = rng.choice((2, 3))
        llms = rng.choice((2, 3))
        game = random_game(rng, roles=roles, n_actions=2)
        pop = random_population(rng, roles=roles, llms=llms)
        profile = random_meta_profile(rng, game, llms)
        got = llm_utility(game, pop, profile)
        want = governance_utilities(game, pop, profile)
        assert got == pytest.approx(want, abs=1e-9)


def test_total_welfare_identity():
    # Sum of advisor utilities equals total expected client welfare under the
    # aggregate, independent-across-roles action distribution.
    rng = random.Random(51)
    for trial in range(25):
        game = random_game(rng, roles=2, n_actions=2)
        pop = random_population(rng, roles=2, llms=2)
        profile = random_meta_profile(rng, game, llms=2)
        total = sum(llm_utility(game, pop, profile))
        oracle = sum(governance_utilities(game, pop, profile))
        assert total == pytest.approx(oracle, abs=1e-9)


def test_majority_total_is_constant():
    game = make_scenario("majority3")
    pop = scenario_population("majority3")
    rng = random.Random(8)
    for _ in range(20):
        profile = random_meta_profile(rng, game, llms=2)
        assert sum(llm_utility(game, pop, profile)) == pytest.approx(100.0, abs=1e-9)


def test_budget_guard():
    rng = random.Random(2)
    game = random_game(rng, roles=2, n_actions=3)
    pop = random_population(rng, roles=2, llms=2)
    profile = random_meta_profile(rng, game, llms=2)
    with pytest.raises(BudgetExceededError):
        llm_utility(game, pop, profile, budget=2)


def test_dimension_mismatch(pd, pd_pop):
    three = MetaProfile.from_pure([("C", "C"), ("D", "D"), ("C", "D")])
    with pytest.raises(ValidationError):
        llm_utility(pd, pd_pop, three)


def test_meta_profile_serialization_round_trip(pd):
    rng = random.Random(4)
    profile = random_meta_profile(rng, pd, llms=2)
    doc = profile.to_dict()
    back = MetaProfile.from_dict(doc)
    assert back == profile


def test_bounded10_profiles_share_their_pure_instructions():
    game = make_scenario("bounded10", n_actions=6)
    first, second = (bounded10_equilibrium_profile(game) for _ in range(2))
    assert first == second
    for a, b in zip(first.actions, second.actions):
        for (prof, _), (again, _) in zip(a.outcomes, b.outcomes):
            assert prof is again is _pure_instruction(prof.pure_profile)


def test_instruction_profile_hash_and_equality():
    built = [
        InstructionProfile.pure(("C", "D")),
        InstructionProfile.homogeneous(
            (MixedStrategy.point_mass(0, "C"), MixedStrategy.point_mass(1, "D"))
        ),
    ]
    built.append(InstructionProfile.from_dict(built[0].to_dict()))
    # The hash is computed on first use, not at construction.
    assert all("hash" not in ip._cache for ip in built)
    first = built[0]
    assert all(ip == first for ip in built) and built[1] is not first
    assert {hash(ip) for ip in built} == {hash((first.assignments,))}
    assert all("hash" in ip._cache for ip in built)
    entries = {first: "hit"}
    assert [entries.get(ip) for ip in built] == ["hit"] * 3
    assert first.__eq__("CD") is NotImplemented

    def split(c_fraction):
        return InstructionProfile(
            (
                (
                    (MixedStrategy.point_mass(0, "C"), c_fraction),
                    (MixedStrategy.point_mass(0, "D"), 1.0 - c_fraction),
                ),
                ((MixedStrategy.point_mass(1, "D"), 1.0),),
            )
        )

    assert split(0.25) == split(0.25)
    assert split(0.25) != split(0.75)
    assert split(0.75) not in {split(0.25): "hit"}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda bad: Population(((bad, 1.0),)), NAN),
        (lambda bad: BaseGame.from_table((("x", "y"),), {("x",): (bad,), ("y",): (1.0,)}), NAN),
        (lambda bad: BaseGame.from_table((("x", "y"),), {("x",): (bad,), ("y",): (1.0,)}), INF),
        (lambda bad: MixedStrategy(0, (("C", 1.0), ("D", bad))), NAN),
        (
            lambda bad: InstructionProfile(
                (((MixedStrategy.point_mass(0, "C"), 1.0), (MixedStrategy.point_mass(0, "D"), bad)),)
            ),
            NAN,
        ),
        (
            lambda bad: MetaAction(
                ((InstructionProfile.pure(("C",)), 1.0), (InstructionProfile.pure(("D",)), bad))
            ),
            NAN,
        ),
    ],
    ids=["share NaN", "payoff NaN", "payoff inf", "weight NaN", "fraction NaN", "probability NaN"],
)
def test_model_objects_reject_non_finite_numbers(build, bad):
    # NaN fails every sign and sum check, and a lone NaN weight was dropped.
    with pytest.raises(ValidationError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "profile",
    [
        MetaProfile.from_pure([("C",), ("D",)]),
        MetaProfile.from_pure([("C", "C", "C")] * 2),  # took the pure fast path
        [InstructionProfile.pure(("C",))] * 2,
    ],
    ids=["profile with one role", "profile with three roles", "realization with one role"],
)
def test_llm_utility_rejects_instructions_for_another_role_count(pd, pd_pop, profile):
    with pytest.raises(ValidationError, match="roles"):
        llm_utility(pd, pd_pop, profile)


@pytest.mark.parametrize("labels", [("C",), ("C", "C", "C")], ids=["one role", "three roles"])
def test_aggregate_mass_rejects_instructions_for_another_role_count(pd, pd_pop, labels):
    with pytest.raises(ValidationError, match="roles"):
        aggregate_mass(pd, pd_pop, [InstructionProfile.pure(labels)] * 2)
