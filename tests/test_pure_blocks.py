"""``llm_utility`` and ``best_response`` on one-owner pure profiles, where
every joint realization plays one profile, against the scalar
per-realization loops of ``scalar_reference``.  The kernel does the same
float operations in the same order, so the comparisons are exact: value and
profile, to the last bit.  Also the block payoffs of table and rule games."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from metagame.errors import InvalidProfileError
from metagame.games import BaseGame, MixedStrategy
from metagame.model import (
    BLOCK_REALIZATIONS,
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    _neumaier,
    llm_utility,
)
from metagame.oneshot import best_response
from metagame.scenarios import (
    _bounded_rule,
    bounded10_equilibrium_profile,
    make_scenario,
    scenario_population,
)

from oracles import governance_utilities, random_game
import scalar_reference as ref

BUDGET = 10**8


def loop_llm_utility(game, pop, profile):
    return ref.loop_llm_utility(game, pop, profile, ref._Terms(game, BUDGET))


def loop_best_response(game, pop, profile, j, rotation=False):
    return ref.loop_best_response(
        game, pop, profile.actions, j, ref._Terms(game, BUDGET), rotation
    )


# ------------------------------------------------------------------ instances


def _one_owner_population(owners, k, share=lambda: 1.0):
    """Role i governed by advisor ``owners[i]`` alone, at ``share()``: 1.0 or
    a float within the population's 1e-12 tolerance of it."""
    return Population(
        tuple(tuple(share() if q == o else 0.0 for q in range(k)) for o in owners)
    )


def _pure_meta_action(rng, game, outcomes):
    profiles = rng.sample(list(game.profiles()), outcomes)
    raw = [rng.random() + 0.1 for _ in profiles]
    return MetaAction(
        tuple((InstructionProfile.pure(p), v / sum(raw)) for p, v in zip(profiles, raw))
    )


def _random_instances():
    rng = random.Random(20261018)
    out = []
    shapes = ((2, 2, 2), (3, 2, 3), (3, 3, 2), (4, 3, 2), (4, 2, 3), (5, 2, 2), (6, 3, 2))
    for roles, llms, n_actions in shapes:
        for shares in ((1.0,), (1.0,), (1.0, 1.0 - 3e-13)):
            game = random_game(rng, roles=roles, n_actions=n_actions)
            owners = [rng.randrange(llms) for _ in range(roles)]
            pop = _one_owner_population(owners, llms, lambda: rng.choice(shares))
            profile = MetaProfile(
                tuple(_pure_meta_action(rng, game, rng.randint(1, 3)) for _ in range(llms))
            )
            out.append((game, pop, profile))
    return out


RANDOM = _random_instances()


def _assert_block_equals_loops(game, pop, profile, rotation=False, skip=()):
    # One governing advisor per role and pure outcomes: one profile per
    # realization.
    assert all(sum(p > 0.0 for p in row) == 1 for row in pop.shares)
    assert all(a.is_role_homogeneous() for a in profile.actions)
    assert llm_utility(game, pop, profile, BUDGET) == loop_llm_utility(game, pop, profile)
    for j in range(pop.llm_count):
        if j in skip:
            continue
        br = best_response(
            game, pop, profile, j, BUDGET, symmetry="rotation" if rotation else None
        )
        assert (br.value, br.profile) == loop_best_response(game, pop, profile, j, rotation)


@pytest.mark.parametrize("case", range(len(RANDOM)))
def test_random_one_owner_table_games_match_the_loops_and_the_oracle(case):
    game, pop, profile = RANDOM[case]
    _assert_block_equals_loops(game, pop, profile)
    # The oracle weighs governance vectors by products of shares and the
    # factorized form each role by its own share; both read the rows that
    # Population divided by their sums, also where they were given as
    # 1 - 3e-13.
    oracle = governance_utilities(game, pop, profile)
    assert max(map(abs, np.subtract(llm_utility(game, pop, profile), oracle))) <= 1e-12


# Advisor 0's unreduced reply at 6 actions scores 6^5 candidates against 36
# outcomes; the scalar reference takes about 5 s there, so it is skipped.
@pytest.mark.parametrize(
    "n_actions,rotation,skip",
    [(5, False, ()), (5, True, ()), (6, False, (0,)), (6, True, ()), (7, True, ())],
)
def test_bounded10_matches_the_loops(n_actions, rotation, skip):
    game = make_scenario("bounded10", n_actions=n_actions)
    pop = scenario_population("bounded10")
    profile = bounded10_equilibrium_profile(game)
    _assert_block_equals_loops(game, pop, profile, rotation, skip)


def test_one_advisor_population():
    game = random_game(random.Random(3), roles=3, n_actions=3)
    pop = Population(((1.0,),) * 3)
    profile = MetaProfile((_pure_meta_action(random.Random(4), game, 3),))
    _assert_block_equals_loops(game, pop, profile)
    # No opponent: one outcome of weight 1, and the best reply is the best
    # pure profile of role-summed payoffs.
    br = best_response(game, pop, (None,), 0)
    best = max(game.profiles(), key=lambda p: sum(game.payoff(p)))
    assert br.profile == best


def test_advisor_governing_no_role():
    rng = random.Random(5)
    game = random_game(rng, roles=3, n_actions=2)
    pop = _one_owner_population((0, 1, 0), 3)
    profile = MetaProfile(tuple(_pure_meta_action(rng, game, 2) for _ in range(3)))
    _assert_block_equals_loops(game, pop, profile)
    assert llm_utility(game, pop, profile)[2] == 0.0
    br = best_response(game, pop, profile, 2)
    assert (br.value, br.profile) == (0.0, tuple(acts[0] for acts in game.actions))


def test_mixed_outcome_or_shared_role_matches_the_loops():
    rng = random.Random(6)
    game = random_game(rng, roles=3, n_actions=2)
    pop = _one_owner_population((0, 1, 1), 2)
    pure = _pure_meta_action(rng, game, 2)
    mixed = MetaAction.deterministic(
        InstructionProfile.homogeneous(
            [MixedStrategy(i, (("a0", 0.3), ("a1", 0.7))) for i in range(3)]
        )
    )
    profile = MetaProfile((pure, mixed))
    assert llm_utility(game, pop, profile) == loop_llm_utility(game, pop, profile)
    br = best_response(game, pop, profile, 0)
    assert (br.value, br.profile) == loop_best_response(game, pop, profile, 0)

    shared = Population(((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)))
    profile = MetaProfile((pure, _pure_meta_action(rng, game, 2)))
    assert llm_utility(game, shared, profile) == loop_llm_utility(game, shared, profile)


def test_rule_without_block_form_reads_rows_through_the_rule():
    table = random_game(random.Random(7), roles=2, n_actions=2)
    game = BaseGame(actions=table.actions, _rule=table.payoff)
    pop = _one_owner_population((0, 1), 2)
    profile = MetaProfile.from_pure([("a0", "a1"), ("a1", "a0")])
    index = np.array(list(itertools.product(range(2), repeat=2)))
    assert game.payoff_block(index).tolist() == table.payoff_block(index).tolist()
    assert game.payoff_block(index[:0]).shape == (0, 2)
    assert llm_utility(game, pop, profile) == llm_utility(table, pop, profile)


def test_unknown_owned_label_raises():
    game = make_scenario("bounded10", n_actions=5)
    pop = scenario_population("bounded10")
    good = MetaAction.from_pure(["1"] * 10)
    bad = MetaAction.from_pure(["1"] * 5 + ["9"] + ["1"] * 4)  # role 5: advisor 1
    with pytest.raises(InvalidProfileError):
        llm_utility(game, pop, MetaProfile((good, bad, good)))
    with pytest.raises(InvalidProfileError):
        best_response(game, pop, (None, bad, good), 0)
    # A label on a role the advisor does not govern is never read, as in the
    # scalar loop.
    profile = MetaProfile((good, good, bad))
    assert llm_utility(game, pop, profile) == loop_llm_utility(game, pop, profile)


# --------------------------------------------------------------- block parts


def test_neumaier_equals_the_textbook_loop():
    rng = np.random.default_rng(11)
    xs = rng.standard_normal(5000) * 10.0 ** rng.integers(-12, 12, 5000)
    s, c = 0.0, 0.0
    for x in xs.tolist():
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    half = _neumaier(0.0, 0.0, xs[:2500])
    assert _neumaier(*half, xs[2500:]) == (s, c)


def _bounded_rows(rng, n_labels, count):
    """Random rows plus rows with no winner, one group of four and two."""
    rows = [rng.integers(0, n_labels, 10) for _ in range(count)]
    rows += [
        np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 3]),  # no group of four
        np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3]),  # one group of four
        np.array([0, 1, 0, 1, 0, 1, 0, 1, 2, 3]),  # two: 8 winners share
        np.array([4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),  # a group of ten
    ]
    return np.array(rows)


@pytest.mark.parametrize("n_labels", [5, 8, 40])
def test_bounded_block_equals_the_rule(n_labels):
    game = make_scenario("bounded10", n_actions=n_labels)
    rule = _bounded_rule()
    index = _bounded_rows(np.random.default_rng(n_labels), n_labels, 3000)
    pay = game.payoff_block(index)
    assert pay.shape == index.shape
    winners = set()
    for row, got in zip(index, pay):
        labels = tuple(game.actions[i][a] for i, a in enumerate(row))
        assert tuple(got.tolist()) == rule(labels)
        winners.add(sum(v > 0 for v in got))
    assert {0, 4, 8} <= winners
    assert pay[-2].tolist() == [12.5] * 8 + [0.0, 0.0]


@pytest.mark.parametrize(
    "group_size, prize", [(2, 100.0), (3, 100.0), (5, 100.0), (4, 7.3)]
)
def test_bounded_block_equals_the_rule_beyond_the_defaults(group_size, prize):
    labels = tuple(str(a) for a in range(6))
    game = BaseGame.from_rule(
        (labels,) * 10, "bounded_group_prize", group_size=group_size, prize=prize
    )
    rule = _bounded_rule(group_size=group_size, prize=prize)
    index = np.random.default_rng(group_size).integers(
        0, 6, (BLOCK_REALIZATIONS, 10)
    )
    pay = game.payoff_block(index)
    winners = set()
    for row, got in zip(index.tolist(), pay.tolist()):
        assert tuple(got) == rule(tuple(labels[a] for a in row))
        winners.add(sum(v > 0 for v in got))
    assert len(winners) > 1


def test_bounded_block_counts_past_255_roles():
    # Every role names the one label, so each group has m = 300 members: a
    # count kept in 8 bits would wrap to 44 and pay nothing.
    m = 300
    game = BaseGame.from_rule(
        (("x", "y"),) * m, "bounded_group_prize", n_roles=m, group_size=m
    )
    pay = game.payoff_block(np.zeros((3, m), dtype=int))
    assert pay.shape == (3, m)
    assert pay.tolist() == [[100.0 / m] * m] * 3
    assert pay[0].tolist() == list(game.payoff(("x",) * m))


def test_bounded_block_compares_labels_not_indices():
    # Role i lists the labels rotated by i, so equal labels sit at unequal
    # indices.
    labels = [str(a) for a in range(6)]
    actions = [labels[i % 6 :] + labels[: i % 6] for i in range(10)]
    game = BaseGame.from_rule(actions, "bounded_group_prize")
    rng = np.random.default_rng(1)
    index = rng.integers(0, 6, (2000, 10))
    pay = game.payoff_block(index)
    for row, got in zip(index, pay):
        profile = tuple(game.actions[i][a] for i, a in enumerate(row))
        assert tuple(got.tolist()) == game.payoff(profile)


def test_table_block_equals_payoff():
    game = random_game(random.Random(9), roles=3, n_actions=3)
    index = np.array(list(itertools.product(range(3), repeat=3)))
    pay = game.payoff_block(index)
    for row, got in zip(index, pay):
        profile = tuple(game.actions[i][a] for i, a in enumerate(row))
        assert tuple(got.tolist()) == game.payoff(profile)


def test_block_memory_stays_bounded():
    """Criterion 2's 10^6 realizations in blocks: the peak of traced
    allocations stays far below what arrays over every realization would
    take (80 MB for the (10^6, 10) payoffs alone)."""
    game = make_scenario("bounded10", n_actions=100)
    pop = scenario_population("bounded10")
    profile = bounded10_equilibrium_profile(game)
    assert math.prod(len(a.outcomes) for a in profile.actions) == 10**6
    tracemalloc.start()
    try:
        totals = llm_utility(game, pop, profile, budget=BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals == pytest.approx((49.99, 49.0, 0.0), abs=1e-9)
    assert peak < 32e6
