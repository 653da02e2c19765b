import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metagame.oneshot

from metagame.errors import BudgetExceededError, NotSingleRoleError, ValidationError
from metagame.games import (
    _RULES,
    BaseGame,
    MixedStrategy,
    StrategyProfile,
    expected_payoff,
    register_payoff_rule,
)
from metagame.model import (
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    llm_utility,
)
from metagame.oneshot import (
    base_nash_2p,
    best_response,
    best_response_iteration,
    check_equilibrium,
    meta_bimatrix,
    single_role_aggregate,
    support_enumeration_bimatrix,
    verify_rotation_symmetry,
)
from metagame.scenarios import (
    blame_cycle,
    bounded10_equilibrium_profile,
    heist_punishment,
    make_scenario,
    pd_profile,
    scenario_population,
    split_instruction,
    uniform_coordination_action,
)

import oneshot_reference
from oneshot_reference import meta_actions_close, permute_instruction, permute_meta_action
from oracles import random_game, random_instruction, random_meta_profile, random_population


@pytest.fixture(scope="module")
def pd():
    return make_scenario("pd", X=-2, Y=-4, Z=-5)


@pytest.fixture(scope="module")
def pd_pop():
    return scenario_population("pd")


def test_pd_equilibrium_certified(pd, pd_pop):
    report = check_equilibrium(pd, pd_pop, pd_profile("CC", "DD"), epsilon=1e-9)
    assert report.max_regret <= 1e-9
    assert all(r >= -1e-9 for r in report.regrets)
    assert report.is_epsilon_equilibrium


def test_epsilon_flag_matches_max_regret(pd, pd_pop):
    report = check_equilibrium(pd, pd_pop, pd_profile("DD", "DD"), epsilon=1e-9)
    assert not report.is_epsilon_equilibrium
    wide = check_equilibrium(
        pd, pd_pop, pd_profile("DD", "DD"), epsilon=report.max_regret + 1e-6
    )
    assert wide.is_epsilon_equilibrium


def test_pd_all_defect_not_equilibrium(pd, pd_pop):
    report = check_equilibrium(pd, pd_pop, pd_profile("DD", "DD"), epsilon=1e-9)
    # brute-force advisor 0's four pure replies as the oracle
    best = max(
        llm_utility(pd, pd_pop, MetaProfile.from_pure([alt, ("D", "D")]))[0]
        for alt in pd.profiles()
    )
    assert report.best_values[0] == pytest.approx(best, abs=1e-12)
    assert report.regrets[0] > 1e-6
    assert report.best_deviations[0] == ("C", "C")


def test_best_response_small_llm_defects(pd, pd_pop):
    br = best_response(pd, pd_pop, pd_profile("CC", "CC"), 1)
    assert br.profile == ("D", "D")
    assert br.value == pytest.approx(-0.08, abs=1e-12)


def test_best_response_single_llm(pd):
    one = Population(((1.0,), (1.0,)))
    br = best_response(pd, one, MetaProfile.from_pure([("D", "D")]), 0)
    assert br.profile == ("C", "C")
    assert br.value == pytest.approx(-4.0, abs=1e-12)


@pytest.mark.parametrize(
    "profile",
    [MetaProfile.from_pure([("C",), ("D",)]), MetaProfile.from_pure([("C", "C")])],
    ids=["opponent instructs one role", "one advisor of two"],
)
def test_best_response_rejects_profiles_of_another_shape(pd, pd_pop, profile):
    with pytest.raises(ValidationError):
        best_response(pd, pd_pop, profile, 0)


def _heist_term_calls():
    """Heist evaluations that sum shared-role mixed realizations."""
    game, pop = make_scenario("heist"), scenario_population("heist")
    cycle = MetaAction.from_pure(blame_cycle())
    mixed = MetaAction.uniform_over_pure([blame_cycle(), ("driver", "planner", "burglar")])
    punisher = MetaAction.uniform_over_pure([("burglar", "planner", "planner"), blame_cycle()])
    return {
        "llm_utility": lambda budget: llm_utility(
            game, pop, MetaProfile((mixed, mixed, cycle)), budget
        ),
        "best_response": lambda budget: best_response(
            game, pop, MetaProfile((cycle, punisher, punisher)), 0, budget=budget
        ),
    }


# Payoff terms each evaluation sums, found by bisecting the budget; a change
# in how terms are counted shows here.
TERM_TOTALS = {"llm_utility": 109, "best_response": 704}


@pytest.mark.parametrize("name", sorted(TERM_TOTALS))
def test_term_budget_counts_every_term(name):
    call, total = _heist_term_calls()[name], TERM_TOTALS[name]
    call(total)
    with pytest.raises(BudgetExceededError) as exc:
        call(total - 1)
    assert exc.value.needed == total


def test_heist_best_response_under_punishment_certified():
    game = make_scenario("heist")
    pop = scenario_population("heist")
    punishment = heist_punishment(0)
    placeholder = MetaAction.from_pure(tuple(a[0] for a in game.actions))
    profile = MetaProfile(
        tuple(placeholder if a is None else a for a in punishment)
    )
    br = best_response(game, pop, profile, 0)
    assert br.value <= -0.5872 * pop.governed_mass(0) + 1e-9


def test_pure_best_response_beats_mixed_deviations():
    rng = random.Random(77)
    for _ in range(10):
        game = random_game(rng, roles=2, n_actions=2)
        pop = random_population(rng, roles=2, llms=2)
        profile = random_meta_profile(rng, game, 2)
        j = rng.randrange(2)
        br = best_response(game, pop, profile, j)
        profiles = list(game.profiles())
        for _ in range(200):
            weights = [rng.random() + 1e-3 for _ in profiles]
            total = sum(weights)
            mixed = MetaAction(
                tuple(
                    (InstructionProfile.pure(p), w / total)
                    for p, w in zip(profiles, weights)
                )
            )
            value = llm_utility(game, pop, profile.replace(j, mixed))[j]
            assert value <= br.value + 1e-9


def test_single_role_aggregate_point_masses(pd):
    pop = Population(((0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5)))
    profile = MetaProfile.from_pure([("D", "D")] * 4)
    agg = single_role_aggregate(pd, pop, profile)
    assert agg.strategies[0].weight("D") == pytest.approx(1.0)
    assert agg.strategies[1].weight("D") == pytest.approx(1.0)


def test_single_role_aggregate_mixes_shares():
    game = BaseGame.from_table(
        (("H", "T"), ("H", "T")),
        {
            ("H", "H"): (1.0, -1.0),
            ("H", "T"): (-1.0, 1.0),
            ("T", "H"): (-1.0, 1.0),
            ("T", "T"): (1.0, -1.0),
        },
    )
    pop = Population(((0.5, 0.5, 0.0), (0.0, 0.0, 1.0)))
    profile = MetaProfile.from_pure([("H", "H"), ("T", "T"), ("H", "H")])
    agg = single_role_aggregate(game, pop, profile)
    assert agg.strategies[0].weight("H") == pytest.approx(0.5)
    assert agg.strategies[0].weight("T") == pytest.approx(0.5)


def test_single_role_aggregate_rejects_multi_role(pd, pd_pop):
    with pytest.raises(NotSingleRoleError):
        single_role_aggregate(pd, pd_pop, pd_profile("CC", "DD"))


def _lift_to_single_role(game, nash, splits=(0.3, 0.7)):
    """Two advisors per role, all instructed the equilibrium strategy."""
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
            nash.strategies[r] if r == i else MixedStrategy.point_mass(r, game.actions[r][0])
            for r in range(m)
        )
        inst = InstructionProfile.homogeneous(strategies)
        actions.extend([MetaAction.deterministic(inst)] * 2)
    return pop, MetaProfile(tuple(actions))


def test_base_nash_lifts_to_meta_equilibrium():
    rng = random.Random(99)
    for _ in range(20):
        game = random_game(rng, roles=2, n_actions=2)
        for nash in base_nash_2p(game):
            pop, profile = _lift_to_single_role(game, nash)
            report = check_equilibrium(game, pop, profile, epsilon=1e-9)
            assert report.max_regret <= 1e-9


def test_best_response_stable_profiles_aggregate_to_base_nash():
    rng = random.Random(123)
    converged = 0
    for _ in range(30):
        game = random_game(rng, roles=2, n_actions=2)
        pop = Population(
            (
                (0.4, 0.6, 0.0, 0.0),
                (0.0, 0.0, 0.25, 0.75),
            )
        )
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
            base = expected_payoff(game, agg)[i]
            for a in game.actions[i]:
                dev = StrategyProfile(
                    tuple(
                        MixedStrategy.point_mass(i, a) if r == i else agg.strategies[r]
                        for r in range(2)
                    )
                )
                assert expected_payoff(game, dev)[i] <= base + 1e-9
    assert converged >= 10


def test_pd_every_equilibrium_favors_small(pd, pd_pop):
    # exhaustive pure pairs plus the mixed support-enumeration check
    A, B, profiles = meta_bimatrix(pd, pd_pop)
    mass = (pd_pop.governed_mass(0), pd_pop.governed_mass(1))
    pure_eqs = []
    n = len(profiles)
    for r in range(n):
        for c in range(n):
            if A[r, c] >= A[:, c].max() - 1e-12 and B[r, c] >= B[r, :].max() - 1e-12:
                pure_eqs.append((profiles[r], profiles[c]))
                assert A[r, c] / mass[0] < B[r, c] / mass[1]
    assert pure_eqs == [(("C", "C"), ("D", "D"))]
    for x, y in support_enumeration_bimatrix(A, B):
        u1 = float(x @ A @ y) / mass[0]
        u2 = float(x @ B @ y) / mass[1]
        assert u1 < u2


def test_majority_guarantee_of_large_llm():
    game = make_scenario("majority3")
    for p in (0.6, 0.75, 0.9):
        pop = scenario_population("majority3", p=p)
        q = 1.0 - p
        bound = 100.0 / 3.0 + (50.0 / 3.0) * q * (2.0 * p - 1.0)
        coord = uniform_coordination_action(game)
        for opp in game.profiles():
            profile = MetaProfile((coord, MetaAction.from_pure(opp)))
            value = llm_utility(game, pop, profile)[0] / pop.governed_mass(0)
            assert value >= bound - 1e-9


def test_rotation_symmetry_verification():
    game = make_scenario("bounded10", n_actions=6)
    pop = scenario_population("bounded10")
    profile = bounded10_equilibrium_profile(game)
    verify_rotation_symmetry(game, profile, 1)  # passes
    skew = profile.replace(2, MetaAction.from_pure(("1",) * 10))
    with pytest.raises(ValidationError):
        verify_rotation_symmetry(game, skew, 1)


def _label_one_prize(n_roles):
    # 1.0 to each role naming label "1": not invariant under a rotation.
    return lambda profile: tuple(float(a == "1") for a in profile)


def _label_one_block(actions, n_roles):
    ones = [np.array([float(a == "1") for a in labels]) for labels in actions]
    return lambda index: np.stack(
        [one[index[:, i]] for i, one in enumerate(ones)], axis=1
    )


register_payoff_rule("test_label_one_prize", _label_one_prize)
register_payoff_rule("test_label_one_block", _label_one_prize, _label_one_block)


@pytest.mark.parametrize("rule", ["test_label_one_prize", "test_label_one_block"])
def test_rotation_check_rejects_a_rule_game_that_is_not_invariant(rule):
    labels = tuple(str(a + 1) for a in range(6))
    game = BaseGame.from_rule((labels,) * 10, rule, n_roles=10)
    assert (_RULES[rule][1] is not None) == (rule == "test_label_one_block")
    profile = bounded10_equilibrium_profile(make_scenario("bounded10", n_actions=6))
    with pytest.raises(ValidationError, match="game payoffs"):
        verify_rotation_symmetry(game, profile, 1)


@pytest.mark.parametrize("order", ["rotated", "shuffled"])
def test_rotation_check_maps_labels_to_each_roles_own_index(order):
    # Role 0 lists the labels in the order the profile rotates them; role i
    # lists them in its own order, so a label's index differs from role to
    # role.  A check that read role 0's indices as every role's would, on
    # shuffled lists, compare profiles that are not rotations of each other,
    # and reject this invariant game.
    labels = [str(a + 1) for a in range(6)]
    if order == "rotated":
        actions = [labels[i % 6 :] + labels[: i % 6] for i in range(10)]
    else:
        actions = [labels] + [random.Random(i).sample(labels, 6) for i in range(1, 10)]
    game = BaseGame.from_rule(actions, "bounded_group_prize")
    profile = bounded10_equilibrium_profile(make_scenario("bounded10", n_actions=6))
    verify_rotation_symmetry(game, profile, 1)  # passes


def test_rotation_equilibrium_check_makes_no_scalar_payoff_call(monkeypatch):
    game = make_scenario("bounded10", n_actions=6)
    pop = scenario_population("bounded10")
    profile = bounded10_equilibrium_profile(game)
    calls = []
    payoff = BaseGame.payoff
    monkeypatch.setattr(
        BaseGame, "payoff", lambda self, p: calls.append(p) or payoff(self, p)
    )
    report = check_equilibrium(game, pop, profile, 1e-9, symmetry="rotation")
    assert report.is_epsilon_equilibrium
    assert calls == []


def test_rotation_reduction_matches_full_enumeration():
    # 5 actions keeps the full enumeration affordable for every advisor
    game = make_scenario("bounded10", n_actions=5)
    pop = scenario_population("bounded10")
    profile = bounded10_equilibrium_profile(game)
    for j in range(3):
        full = best_response(game, pop, profile, j)
        reduced = best_response(game, pop, profile, j, symmetry="rotation")
        assert reduced.value == pytest.approx(full.value, abs=1e-9)


def test_budget_guard_without_symmetry():
    from metagame.errors import BudgetExceededError

    game = make_scenario("bounded10", n_actions=100)
    pop = scenario_population("bounded10")
    profile = bounded10_equilibrium_profile(game)
    with pytest.raises(BudgetExceededError):
        best_response(game, pop, profile, 0)


def _single_role_population(roles):
    """Advisor i governs role i alone."""
    return Population(tuple(tuple(float(i == j) for j in range(roles)) for i in range(roles)))


def test_best_response_iteration_matches_the_uncut_loop():
    # Two- and three-role games; shared populations give every advisor a
    # share of every role, single-role ones one advisor per role.
    rng = random.Random(31)
    cycles = converged = 0
    for g in range(150):
        roles = 2 + g % 2
        game = random_game(rng, roles=roles, n_actions=2)
        if g % 4 < 2:
            pop = random_population(rng, roles=roles, llms=rng.randint(2, 3))
        else:
            pop = _single_role_population(roles)
        start = [
            tuple(rng.choice(acts) for acts in game.actions)
            for _ in range(pop.llm_count)
        ]
        expected = oneshot_reference.best_response_iteration(game, pop, start)
        assert best_response_iteration(game, pop, start) == expected
        cycles += expected is None
        converged += expected is not None
    assert cycles >= 10 and converged >= 100


def test_best_response_iteration_stops_at_the_first_repeated_round(monkeypatch):
    # Matching pennies between two single-role advisors: pure best replies
    # cycle through the four profiles forever.
    game = BaseGame.from_table(
        (("H", "T"), ("H", "T")),
        {
            ("H", "H"): (1.0, -1.0),
            ("H", "T"): (-1.0, 1.0),
            ("T", "H"): (-1.0, 1.0),
            ("T", "T"): (1.0, -1.0),
        },
    )
    pop = _single_role_population(2)
    calls, starts = [], set()
    original = metagame.oneshot.best_response

    def counting(game, pop, profile, j, **kwargs):
        calls.append(j)
        if j == 0:
            starts.add(tuple(a.outcomes[0][0].pure_profile for a in profile.actions))
        return original(game, pop, profile, j, **kwargs)

    monkeypatch.setattr(metagame.oneshot, "best_response", counting)
    assert best_response_iteration(game, pop, [("H", "H"), ("H", "H")]) is None
    # Four profiles exist; the uncut loop makes BR_ITERATION_ROUNDS * k calls.
    assert len(starts) <= 4
    assert len(calls) <= pop.llm_count * len(starts)


# A rotation-invariant game on three labels: each role is paid by its
# label's cyclic distance to the next role's.
_CYCLIC = ("x", "y", "z")
_CYCLIC_GAME = BaseGame.from_table(
    (_CYCLIC,) * 2,
    {
        (a, b): (
            (0.0, 1.0, -2.0)[(_CYCLIC.index(b) - _CYCLIC.index(a)) % 3],
            (0.5, -1.0, 3.0)[(_CYCLIC.index(a) - _CYCLIC.index(b)) % 3],
        )
        for a in _CYCLIC
        for b in _CYCLIC
    },
)
_ROTATION_GAMES = {
    "bounded10": make_scenario("bounded10", n_actions=6),
    "cyclic3": _CYCLIC_GAME,
}


def _instruction(rng, game, kind):
    if kind == "pure":
        return InstructionProfile.pure(tuple(rng.choice(acts) for acts in game.actions))
    if kind == "client mix":
        return random_instruction(rng, game)
    # A within-role split, over every label or over a random few.
    splits = []
    for acts in game.actions:
        labels = acts if rng.random() < 0.8 else rng.sample(acts, rng.randint(1, len(acts)))
        raw = [rng.choice((1.0, 2.0, rng.random() + 0.1)) for _ in labels]
        splits.append({a: w / sum(raw) for a, w in zip(labels, raw)})
    return split_instruction(game, splits)


@settings(max_examples=300, deadline=None)
@given(
    game_name=st.sampled_from(sorted(_ROTATION_GAMES)),
    kind=st.sampled_from(["pure", "client mix", "split"]),
    copies=st.sampled_from(["one", "two drawn", "rotated"]),
    nudge=st.sampled_from([0.0, 0.5e-12, 2e-12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotation_check_agrees_with_rebuilding_the_rotated_meta_action(
    game_name, kind, copies, nudge, seed
):
    game = _ROTATION_GAMES[game_name]
    rng = random.Random(seed)
    mapping = metagame.oneshot.rotation_mapping(game)
    first = _instruction(rng, game, kind)
    if copies == "one":
        outcomes = [first]
    elif copies == "two drawn":
        outcomes = [first, _instruction(rng, game, kind)]
    else:
        # The rotation orbit of one instruction, the first copy's weight
        # raised so that neighbouring copies differ by about ``nudge``.
        outcomes = [first]
        for _ in range(len(mapping) - 1):
            outcomes.append(permute_instruction(outcomes[-1], mapping))
    raw = [1.0 + len(outcomes) * nudge] + [1.0] * (len(outcomes) - 1)
    action = MetaAction(tuple((o, w / sum(raw)) for o, w in zip(outcomes, raw)))
    invariant = meta_actions_close(permute_meta_action(action, mapping), action)
    try:
        verify_rotation_symmetry(game, [None, action], 0)
        passed = True
    except ValidationError:
        passed = False
    assert passed == invariant


@pytest.mark.parametrize(
    "nudge, invariant", [(0.0, True), (0.5e-12, True), (2e-12, False)]
)
@pytest.mark.parametrize("game_name", sorted(_ROTATION_GAMES))
def test_rotation_check_tolerates_probabilities_within_1e_12(game_name, nudge, invariant):
    game = _ROTATION_GAMES[game_name]
    mapping = metagame.oneshot.rotation_mapping(game)
    # Each role splits its clients unevenly over every label, so only the
    # fractions tell a copy from its rotation.
    labels = game.actions[0]
    split = {a: (i + 1) / (len(labels) * (len(labels) + 1) / 2) for i, a in enumerate(labels)}
    outcomes = [split_instruction(game, [split] * game.role_count)]
    for _ in range(len(labels) - 1):
        outcomes.append(permute_instruction(outcomes[-1], mapping))
    raw = [1.0 + len(outcomes) * nudge] + [1.0] * (len(outcomes) - 1)
    action = MetaAction(tuple((o, w / sum(raw)) for o, w in zip(outcomes, raw)))
    assert meta_actions_close(permute_meta_action(action, mapping), action) == invariant
    if invariant:
        verify_rotation_symmetry(game, [None, action], 0)
    else:
        with pytest.raises(ValidationError, match="advisor 1 meta-action"):
            verify_rotation_symmetry(game, [None, action], 0)
    # Alone, an uneven split is not invariant.
    with pytest.raises(ValidationError, match="advisor 1 meta-action"):
        verify_rotation_symmetry(game, [None, MetaAction.deterministic(outcomes[0])], 0)


def test_rotation_check_names_a_label_it_does_not_permute():
    game = make_scenario("bounded10", n_actions=6)
    stray = MetaAction.from_pure(("7",) + ("1",) * 9)
    with pytest.raises(ValidationError, match="advisor 1 .*'7'"):
        verify_rotation_symmetry(game, [None, stray], 0)


def _rule_bimatrix():
    def payoff(profile):
        r, c = map(int, profile)
        return (float((3 * r + 5 * c) % 7 - 3), float(2 * r * c % 5 - 2))

    return payoff


register_payoff_rule("test_rule_bimatrix", _rule_bimatrix)


@pytest.mark.parametrize("backing", ["table", "rule without a block form"])
def test_base_nash_reads_the_scalar_bimatrix_in_one_block(backing, monkeypatch):
    if backing == "table":
        game = random_game(random.Random(5), roles=2, n_actions=3)
    else:
        game = BaseGame.from_rule((("1", "2", "3"), ("1", "2", "3", "4")), "test_rule_bimatrix")
    rows, cols = game.actions
    A = np.array([[game.payoff((r, c))[0] for c in cols] for r in rows])
    B = np.array([[game.payoff((r, c))[1] for c in cols] for r in rows])
    expected = [
        StrategyProfile(
            (
                MixedStrategy(0, tuple((a, float(w)) for a, w in zip(rows, x) if w > 0)),
                MixedStrategy(1, tuple((a, float(w)) for a, w in zip(cols, y) if w > 0)),
            )
        )
        for x, y in support_enumeration_bimatrix(A, B)
    ]
    assert expected
    calls = []
    payoff = BaseGame.payoff
    monkeypatch.setattr(
        BaseGame, "payoff", lambda self, p: calls.append(p) or payoff(self, p)
    )
    assert base_nash_2p(game) == expected
    assert calls == []
