"""`minmax` solves each distinct punisher matrix game once per call.

The reference below is the alternating loop that solves every round's matrix
game afresh; the memoized `minmax` must return the same certificate, bit for
bit, while calling the LP once per distinct matrix.
"""

import math
import random

import numpy as np
import pytest

from metagame import feasibility
from metagame.feasibility import (
    MINMAX_ROUNDS,
    MINMAX_TOL,
    _correlated_lower_bound,
    _matrix_game_min_value,
    _mixture_meta_action,
    _outcome_weights,
    _punishment_matrix,
    _uj_matrix,
    certificate_from_punishment,
    minmax,
)
from metagame.model import DEFAULT_TERM_BUDGET, _payoff_tensor, _pure_instruction
from metagame.scenarios import make_scenario, scenario_population

from oracles import random_game, random_population


def reference_minmax(game, pop, j, starts=32, seed=0, solved=None):
    """Alternating minimization with one LP per round and punisher, no memo;
    ``solved`` collects the bytes of every matrix game it solves."""
    solved = [] if solved is None else solved
    k = pop.llm_count
    U = _payoff_tensor(game, pop, DEFAULT_TERM_BUDGET)
    profiles = list(game.profiles())
    index = {p: i for i, p in enumerate(profiles)}
    lower = _correlated_lower_bound(U, j)
    solved.append(_punishment_matrix(U, j).tobytes())
    punishers = [q for q in range(k) if q != j]
    rng = np.random.default_rng(seed)
    candidates = []
    for s_idx in range(starts):
        mixtures = {q: rng.dirichlet(np.ones(len(profiles))) for q in punishers}
        value_prev = math.inf
        for _ in range(MINMAX_ROUNDS):
            for q in punishers:
                fixed = {
                    p: _mixture_meta_action(profiles, mixtures[p])
                    for p in punishers
                    if p != q
                }
                C = _uj_matrix(U, j, q, fixed, index)
                solved.append(C.tobytes())
                value, y = _matrix_game_min_value(C)
                mixtures[q] = y
            if abs(value_prev - value) < MINMAX_TOL:
                break
            value_prev = value
        candidates.append((value, s_idx, dict(mixtures)))
    _, _, best_mix = min(candidates, key=lambda t: (t[0], t[1]))
    punishment = [None] * k
    for q in punishers:
        punishment[q] = _mixture_meta_action(profiles, best_mix[q])
    return certificate_from_punishment(
        game, pop, j, tuple(punishment), lower_bound=lower
    )


def assert_same_certificate(cert, ref):
    assert cert.llm == ref.llm
    assert cert.lower_bound == ref.lower_bound
    assert cert.upper_bound == ref.upper_bound
    assert cert.best_response == ref.best_response
    assert [a is None for a in cert.punishment] == [a is None for a in ref.punishment]
    for a, b in zip(cert.punishment, ref.punishment):
        if a is not None:
            assert a.to_dict() == b.to_dict()


@pytest.fixture(scope="module")
def heist():
    return make_scenario("heist"), scenario_population("heist")


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_heist_certificate_matches_memo_free_loop(heist, j, seed):
    game, pop = heist
    assert_same_certificate(
        minmax(game, pop, j, seed=seed), reference_minmax(game, pop, j, seed=seed)
    )


@pytest.mark.parametrize("j", [0, 1, 2])
def test_heist_solves_each_distinct_matrix_once_per_call(heist, monkeypatch, j):
    game, pop = heist
    ref_solved = []
    reference_minmax(game, pop, j, solved=ref_solved)
    assert len(ref_solved) == 129

    calls = []
    original = feasibility._matrix_game_min_value

    def recording(C):
        calls.append(C.tobytes())
        return original(C)

    monkeypatch.setattr(feasibility, "_matrix_game_min_value", recording)
    minmax(game, pop, j)
    first = list(calls)
    assert len(first) == len(set(first))
    assert set(first) == set(ref_solved)
    assert len(first) in (35, 36)

    calls.clear()
    minmax(game, pop, j)  # nothing carries over from the first call
    assert calls == first


def test_random_shared_role_games_match_memo_free_loop():
    rng = random.Random(13)
    for roles, llms in [(2, 3), (2, 3), (3, 3), (2, 4)]:
        game = random_game(rng, roles=roles, n_actions=2)
        pop = random_population(rng, roles=roles, llms=llms)
        j = rng.randrange(llms)
        seed = rng.randrange(1000)
        assert_same_certificate(
            minmax(game, pop, j, seed=seed),
            reference_minmax(game, pop, j, seed=seed),
        )


@pytest.mark.parametrize("j", [0, 1, 2])
def test_heist_builds_meta_actions_only_for_its_certificate(heist, monkeypatch, j):
    game, pop = heist
    built = []
    original = feasibility._mixture_meta_action

    def counting(profiles, weights):
        built.append(original(profiles, weights))
        return built[-1]

    monkeypatch.setattr(feasibility, "_mixture_meta_action", counting)
    cert = minmax(game, pop, j)
    assert len(built) <= pop.llm_count - 1
    punishers = [a for a in cert.punishment if a is not None]
    assert len(punishers) == len(built)
    assert all(a is b for a, b in zip(punishers, built))


def test_outcome_weights_are_the_meta_actions_outcomes(heist):
    game, _ = heist
    profiles = list(game.profiles())
    order = sorted(range(len(profiles)), key=lambda i: _pure_instruction(profiles[i]).sort_key)
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.dirichlet(np.full(len(profiles), 0.3))
        w[rng.random(len(w)) < 0.3] = rng.choice([0.0, 1e-12, 2e-12, 1e-13])
        pairs = _outcome_weights(w, order)
        outcomes = _mixture_meta_action(profiles, w).outcomes
        assert [(_pure_instruction(profiles[i]), p) for i, p in pairs] == list(outcomes)
