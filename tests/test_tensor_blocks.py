"""``model._payoff_tensor``, built in numpy blocks, against the
per-realization loop of ``scalar_reference``.  Both do the same float
operations in the same order, so the tensors are compared byte for byte, and
a term budget stops both at the same running count."""

import json
import random
import sys

import pytest

import metagame.model as model
from metagame.cli import EXIT_CONFIG, EXIT_OK, run_command
from metagame.errors import BudgetExceededError
from metagame.games import _RULES, BaseGame, register_payoff_rule
from metagame.model import Population, _payoff_tensor
from metagame.scenarios import make_scenario, scenario_population

from oracles import random_game
from scalar_reference import RecordingTerms, _Terms, loop_needed, loop_payoff_tensor

BUDGET = 10**7
HEIST_TERMS = 14_048  # the loop's term count over all 512 heist realizations


# ------------------------------------------------------------------ instances


def _rule_payoff():
    """A three-valued payoff of the labels, with no vectorized form."""

    def payoff(profile):
        code = sum((r + 2) * (ord(a[-1]) - 47) for r, a in enumerate(profile))
        return tuple(float((code * (i + 3)) % 7 - 3) for i in range(len(profile)))

    return payoff


register_payoff_rule("tensor_blocks_rule", _rule_payoff)


def _shares(rng, roles, llms):
    """Share rows mixing one-owner, equal and random rows, with zero shares."""
    rows = []
    for _ in range(roles):
        kind = rng.randrange(4)
        if kind == 0:
            row = [0.0] * llms
            row[rng.randrange(llms)] = 1.0
        elif kind == 1:
            row = [1.0] * llms
        else:
            row = [rng.choice((0.0, 0.0, 1.0, rng.random())) for _ in range(llms)]
            if not any(row):
                row[rng.randrange(llms)] = 0.5
        rows.append(tuple(p / sum(row) for p in row))
    return Population(tuple(rows))


def _random_instances(count=48, seed=15):
    """Seeded shared-role games: 2-3 roles, 2-3 actions, 2-4 advisors, at
    most 4,096 realizations each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        roles, n_actions, llms = rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 4)
        while llms > 2 and (n_actions**roles) ** llms > 4096:
            llms -= 1
        pop = _shares(rng, roles, llms)
        if all(sum(p > 0.0 for p in row) == 1 for row in pop.shares):
            continue  # no shared role
        out.append((random_game(rng, roles=roles, n_actions=n_actions), pop))
    return out


def _named_instances():
    rule = BaseGame.from_rule((("a", "b"), ("a", "b", "c")), "tensor_blocks_rule")
    third = 1.0 / 3.0
    return {
        "heist": (make_scenario("heist"), scenario_population("heist")),
        "readme-pd": (
            make_scenario("pd", X=-2, Y=-4, Z=-5),
            scenario_population("pd", p=0.9),
        ),
        "majority3": (make_scenario("majority3"), scenario_population("majority3")),
        "equal-shares": (
            make_scenario("majority3"),
            Population(((third, third, third),) * 3),
        ),
        "zero-share-advisor": (
            make_scenario("heist"),
            Population(((0.8, 0.2, 0.0), (0.5, 0.5, 0.0), (0.0, 1.0, 0.0))),
        ),
        "rule-without-block": (rule, Population(((0.6, 0.4), (0.3, 0.7)))),
        "rule-three-advisors": (
            rule,
            Population(((0.5, 0.25, 0.25), (0.0, 0.5, 0.5))),
        ),
    }


NAMED = _named_instances()
RANDOM = _random_instances()


def _check_against_loop(game, pop):
    terms = RecordingTerms(game)
    ref = loop_payoff_tensor(game, pop, terms)
    U = _payoff_tensor(game, pop, BUDGET)
    assert U.shape == ref.shape
    assert U.tobytes() == ref.tobytes()
    return terms.checks


# ---------------------------------------------------------------------- tests


def test_named_instances_cover_the_cases():
    rule, _ = NAMED["rule-without-block"]
    assert _RULES[rule.rule_name][1] is None  # no vectorized form
    assert NAMED["zero-share-advisor"][1].governed_roles(2) == ()
    assert len(set(NAMED["equal-shares"][1].shares[0])) == 1
    sizes = {(g.role_count, len(g.actions[0]), p.llm_count) for g, p in RANDOM}
    assert {r for r, _, _ in sizes} == {2, 3}
    assert {a for _, a, _ in sizes} == {2, 3}
    assert {k for _, _, k in sizes} == {2, 3, 4}
    assert any(0.0 in row for _, p in RANDOM for row in p.shares)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_tensor_is_the_loop_bit_for_bit(name):
    _check_against_loop(*NAMED[name])


def test_random_shared_role_tensors_are_the_loop_bit_for_bit():
    rng = random.Random(3)
    for game, pop in RANDOM:
        checks = _check_against_loop(game, pop)
        # And the budget stops both at the same running count.
        budget = rng.randint(game.num_profiles**pop.llm_count, checks[-1] - 1)
        with pytest.raises(BudgetExceededError) as info:
            _payoff_tensor(game, pop, budget)
        assert info.value.needed == loop_needed(checks, budget)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_tensor_reads_each_payoff_once_and_no_realization(monkeypatch, name):
    """One ``payoff_block`` call over the pure profiles, and no profile read
    one at a time."""
    game, pop = NAMED[name]
    rows, payoffs = [], [0]
    original_block, original_payoff = BaseGame.payoff_block, BaseGame.payoff

    def count_block(self, index):
        rows.append(len(index))
        return original_block(self, index)

    def count_payoff(self, profile):
        payoffs[0] += 1
        return original_payoff(self, profile)

    monkeypatch.setattr(BaseGame, "payoff_block", count_block)
    monkeypatch.setattr(BaseGame, "payoff", count_payoff)
    _payoff_tensor(game, pop, BUDGET)
    assert payoffs[0] == 0
    assert len(rows) == 1 and 0 < sum(rows) <= game.num_profiles


@pytest.fixture(scope="module")
def heist_checks():
    game, pop = NAMED["heist"]
    terms = RecordingTerms(game)
    loop_payoff_tensor(game, pop, terms)
    return terms.checks


def test_heist_budget_stops_where_the_loop_stops(heist_checks):
    game, pop = NAMED["heist"]
    assert heist_checks[-1] == HEIST_TERMS
    with pytest.raises(BudgetExceededError) as info:
        loop_payoff_tensor(game, pop, _Terms(game, 1000))
    assert info.value.needed == loop_needed(heist_checks, 1000) == 1002

    rng = random.Random(1515)
    budgets = {512, 513, 1000, 1001, 1002, HEIST_TERMS - 1}
    budgets.update(rng.sample(range(512, HEIST_TERMS), 300))
    for c in heist_checks[::40]:
        budgets.update((c - 1, c))
    for budget in sorted(b for b in budgets if 512 <= b < HEIST_TERMS):
        with pytest.raises(BudgetExceededError) as info:
            _payoff_tensor(game, pop, budget)
        assert (info.value.needed, info.value.budget) == (
            loop_needed(heist_checks, budget),
            budget,
        )
    ref = _payoff_tensor(game, pop, BUDGET).tobytes()
    for budget in (HEIST_TERMS, HEIST_TERMS + 1, float(HEIST_TERMS)):
        assert _payoff_tensor(game, pop, budget).tobytes() == ref
    with pytest.raises(BudgetExceededError) as info:
        _payoff_tensor(game, pop, 511)
    assert info.value.needed == 512


def _heist_config(tmp_path):
    path = tmp_path / "heist.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "game": {"name": "heist", "params": {}},
                "population": {"scenario": "heist", "params": {}},
                "meta_profiles": {"main": {"named": "heist_blame"}},
                "folk": {"r": [0.0, 0.0, 0.0]},
                "seed": 0,
            }
        )
    )
    return path


def test_minmax_budget_error_names_the_loop_count(tmp_path, capsys):
    code = run_command(
        ["minmax", "--config", str(_heist_config(tmp_path)), "--llm", "0",
         "--budget", "1000", "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_CONFIG
    assert "needs ~1002 terms" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["minmax", "--llm", "0"], ["feasible"], ["folk", "plan"]],
    ids=["minmax", "feasible", "folk-plan"],
)
def test_each_heist_command_builds_the_tensor_once(tmp_path, monkeypatch, command):
    calls = []
    original = model._payoff_tensor

    def counting(*args):
        calls.append(args)
        return original(*args)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("metagame") and getattr(module, "_payoff_tensor", None) is original:
            monkeypatch.setattr(module, "_payoff_tensor", counting)
            patched.add(name)
    assert {"metagame.model", "metagame.feasibility", "metagame.protocol",
            "metagame.oneshot", "metagame.cli"} <= patched
    code = run_command(
        [*command, "--config", str(_heist_config(tmp_path)),
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_OK
    assert len(calls) == 1
