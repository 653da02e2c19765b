"""The realization kernel behind ``llm_utility``, ``best_response`` and the
payoff tensor against the scalar per-realization reference of
``scalar_reference``, on shared roles, client-level mixes and within-role
splits: values, best replies and budget errors agree bit for bit, and the
values agree with the governance-enumeration oracle to 1e-12."""

import ast
import math
import random
from pathlib import Path

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from metagame.errors import BudgetExceededError
from metagame.games import BaseGame, MixedStrategy
from metagame.model import (
    DEFAULT_TERM_BUDGET,
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    llm_utility,
)
from metagame.oneshot import best_response
from metagame.scenarios import make_scenario, scenario_population, split_instruction

import scalar_reference as ref
from oracles import governance_utilities, random_game, random_instruction


def _population(rng, roles, llms):
    """Share rows with at least one shared role, some with zero shares."""
    rows = []
    for i in range(roles):
        row = [rng.choice((0.0, rng.random() + 0.05)) for _ in range(llms)]
        if i == 0 or sum(p > 0.0 for p in row) == 0:
            row = [rng.random() + 0.05 for _ in range(llms)]
        rows.append(tuple(p / sum(row) for p in row))
    return Population(tuple(rows))


def _instruction(rng, game):
    """A pure profile, a client-level mix or a within-role split."""
    kind = rng.randrange(3)
    if kind == 0:
        return InstructionProfile.pure(tuple(rng.choice(a) for a in game.actions))
    if kind == 1:
        return random_instruction(rng, game)
    splits = []
    for labels in game.actions:
        chosen = rng.sample(labels, rng.randint(1, len(labels)))
        raw = [rng.random() + 0.1 for _ in chosen]
        splits.append({a: v / sum(raw) for a, v in zip(chosen, raw)})
    return split_instruction(game, splits)


def _instance(seed):
    rng = random.Random(seed)
    roles, llms = rng.randint(2, 3), rng.randint(2, 3)
    game = random_game(rng, roles=roles, n_actions=rng.randint(2, 3))
    pop = _population(rng, roles, llms)
    actions = []
    for _ in range(llms):
        profs = [_instruction(rng, game) for _ in range(rng.randint(1, 2))]
        raw = [rng.random() + 0.1 for _ in profs]
        actions.append(MetaAction(tuple((p, v / sum(raw)) for p, v in zip(profs, raw))))
    return rng, game, pop, MetaProfile(tuple(actions))


def _needed(call):
    try:
        call()
    except BudgetExceededError as exc:
        return exc.needed
    return None


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(st.integers(0, 2**32 - 1))
def test_kernel_is_the_scalar_reference_bit_for_bit(seed):
    rng, game, pop, profile = _instance(seed)
    terms = ref.RecordingTerms(game)
    expected = ref.loop_llm_utility(game, pop, profile, terms)
    got = llm_utility(game, pop, profile, math.inf)
    assert _hex(got) == _hex(expected)
    oracle = governance_utilities(game, pop, profile)
    assert max(abs(a - b) for a, b in zip(got, oracle)) <= 1e-12
    # The smallest budget that passes is the reference's term count, and
    # below it both stop at the same running count.
    total = terms.used
    assert llm_utility(game, pop, profile, total) == got
    for budget in (total - 1, rng.randint(0, total - 1)):
        assert _needed(lambda: llm_utility(game, pop, profile, budget)) == _needed(
            lambda: ref.loop_llm_utility(game, pop, profile, ref._Terms(game, budget))
        )

    for j in range(pop.llm_count):
        terms = ref.RecordingTerms(game)
        value, deviation = ref.loop_best_response(game, pop, profile.actions, j, terms)
        br = best_response(game, pop, profile, j, budget=math.inf)
        assert (float(br.value).hex(), br.profile) == (value.hex(), deviation)
        total = terms.used
        assert best_response(game, pop, profile, j, budget=total) == br
        budget = rng.randint(0, total - 1)
        assert _needed(lambda: best_response(game, pop, profile, j, budget=budget)) == _needed(
            lambda: ref.loop_best_response(
                game, pop, profile.actions, j, ref._Terms(game, budget)
            )
        )


def test_a_product_past_the_budget_is_counted_before_it_is_built(monkeypatch):
    """On bounded10 every role's aggregate has six slots, so one role's
    product alone has 6 * 6^9 terms: both the kernel and the reference stop
    at that first count, and the kernel reads no payoff before it stops."""
    game = make_scenario("bounded10", n_actions=40)
    pop = scenario_population("bounded10")
    wide = InstructionProfile.homogeneous(
        [MixedStrategy.from_weights(i, {str(a): 1 / 6 for a in range(1, 7)}) for i in range(10)]
    )
    profile = MetaProfile((MetaAction.deterministic(wide),) * 3)
    needed = _needed(
        lambda: ref.loop_llm_utility(game, pop, profile, ref._Terms(game, DEFAULT_TERM_BUDGET))
    )
    assert needed == 6 * 6**9
    reads = []
    monkeypatch.setattr(
        BaseGame, "payoff_block", lambda self, index: reads.append(len(index)) or np.zeros(index.shape)
    )
    assert _needed(lambda: llm_utility(game, pop, profile)) == needed
    assert reads == []


def test_one_wide_role_costs_only_its_own_products():
    """A six-action mix on one bounded10 role and pure play on the other
    nine: every product has at most six terms, whatever the number of
    roles, and the utilities are the reference's bit for bit."""
    game = make_scenario("bounded10", n_actions=40)
    pop = scenario_population("bounded10")
    wide = InstructionProfile.homogeneous(
        [MixedStrategy.from_weights(0, {str(a): 1 / 6 for a in range(1, 7)})]
        + [MixedStrategy.point_mass(i, "7") for i in range(1, 10)]
    )
    profile = MetaProfile((MetaAction.deterministic(wide),) * 3)
    terms = ref.RecordingTerms(game)
    expected = ref.loop_llm_utility(game, pop, profile, terms)
    assert max(b - a for a, b in zip([0] + terms.checks, terms.checks)) == 6
    assert _hex(llm_utility(game, pop, profile, terms.used)) == _hex(expected)


def test_oracles_stay_independent_of_the_model():
    """``tests/oracles.py`` takes only the data classes from
    ``metagame.model`` and never the scalar reference, so it checks the
    kernel from outside."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "scalar_reference"
            if node.module == "metagame.model":
                taken.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
            assert not names & {"metagame.model", "scalar_reference"}
    assert taken <= {"InstructionProfile", "MetaAction", "MetaProfile", "Population"}
