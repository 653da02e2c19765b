"""The payoff tensor ``U[a_1..a_k, j]`` against the brute-force oracle and
against per-realization loops over the scalar reference
(``scalar_reference``).  The arithmetic is unchanged, so the comparisons are
exact.
Every certificate's best reply, read off the tensor, is checked against the
reply of ``oneshot.best_response``, which never builds it."""

import itertools
import math
import random
import time

import numpy as np
import pytest

import metagame.feasibility as feasibility
from metagame.errors import BudgetExceededError
from metagame.feasibility import (
    MinmaxCertificate,
    PayoffVertexSet,
    Vertex,
    _correlated_lower_bound,
    _matrix_game_min_value,
    _mixture_meta_action,
    _uj_matrix,
    certificate_from_punishment,
    minmax,
    payoff_vertices,
)
from metagame.games import BaseGame
from metagame.model import InstructionProfile, MetaAction, Population, _payoff_tensor
from metagame.oneshot import best_response, meta_bimatrix
from metagame.protocol import best_pure_punishment
from metagame.scenarios import make_scenario, scenario_population

from oracles import (
    governance_realization_utilities,
    random_game,
    random_meta_action,
    random_population,
)
from scalar_reference import _realization_utilities, _Terms
from test_tensor_blocks import _random_instances

BUDGET = 10**7


# ------------------------------------------------------------ loop references


def _pure_utilities(game, pop, combo, terms):
    pure = [InstructionProfile.pure(p) for p in game.profiles()]
    return _realization_utilities(terms, pop, tuple(pure[a] for a in combo))


def loop_payoff_vertices(game, pop):
    labels = list(game.profiles())
    terms = _Terms(game, BUDGET)
    return PayoffVertexSet(
        tuple(
            Vertex(
                profiles=tuple(labels[i] for i in combo),
                payoff=tuple(_pure_utilities(game, pop, combo, terms)),
            )
            for combo in itertools.product(range(len(labels)), repeat=pop.llm_count)
        )
    )


def loop_uj_matrix(game, pop, j, row_llm, fixed_actions):
    profiles = list(game.profiles())
    n = len(profiles)
    pure = [InstructionProfile.pure(p) for p in profiles]
    others = [
        (q, list(fixed_actions[q].outcomes))
        for q in range(pop.llm_count)
        if q not in (j, row_llm)
    ]
    terms = _Terms(game, BUDGET)
    C = np.empty((n, n))
    for bi in range(n):
        for ai in range(n):
            total = 0.0
            for combo in itertools.product(*(o for _, o in others)):
                w = 1.0
                for _, prob in combo:
                    w *= prob
                realization = [None] * pop.llm_count
                realization[j] = pure[ai]
                realization[row_llm] = pure[bi]
                for (q, _), (prof, _) in zip(others, combo):
                    realization[q] = prof
                total += w * _realization_utilities(terms, pop, tuple(realization))[j]
            C[bi, ai] = total
    return C


def _loop_punishment_rows(game, pop, j):
    """rows[combo][a]: j's utility at pure profile a against punisher combo."""
    n = game.num_profiles
    k = pop.llm_count
    punishers = [q for q in range(k) if q != j]
    terms = _Terms(game, BUDGET)
    rows = []
    for combo in itertools.product(range(n), repeat=k - 1):
        row = []
        for ai in range(n):
            full = [0] * k
            full[j] = ai
            for q, bi in zip(punishers, combo):
                full[q] = bi
            row.append(_pure_utilities(game, pop, full, terms)[j])
        rows.append((combo, row))
    return rows


def loop_correlated_lower_bound(game, pop, j):
    rows = _loop_punishment_rows(game, pop, j)
    value, _ = _matrix_game_min_value(np.array([row for _, row in rows]))
    return value


def loop_best_pure_punishment(game, pop, j):
    profiles = list(game.profiles())
    best = None
    for combo, row in _loop_punishment_rows(game, pop, j):
        worst_reply = -math.inf
        for u in row:
            if u > worst_reply:
                worst_reply = u
        if best is None or worst_reply < best[0]:
            best = (worst_reply, combo)
    punishment = [None] * pop.llm_count
    punishers = [q for q in range(pop.llm_count) if q != j]
    for q, bi in zip(punishers, best[1]):
        punishment[q] = MetaAction.from_pure(profiles[bi])
    br = best_response(game, pop, punishment, j)
    lower = loop_correlated_lower_bound(game, pop, j)
    return MinmaxCertificate(j, min(lower, br.value), br.value, tuple(punishment), br.profile)


def loop_meta_bimatrix(game, pop):
    n = game.num_profiles
    A = np.empty((n, n))
    B = np.empty((n, n))
    terms = _Terms(game, BUDGET)
    for r in range(n):
        for c in range(n):
            A[r, c], B[r, c] = _pure_utilities(game, pop, (r, c), terms)
    return A, B


# ------------------------------------------------------------------ instances


def _instances():
    rng = random.Random(20240611)
    out = []
    for roles, llms in ((2, 2), (3, 2), (2, 3), (3, 3)):
        game = random_game(rng, roles=roles, n_actions=2)
        out.append((game, random_population(rng, roles=roles, llms=llms)))
    out.append((make_scenario("heist"), scenario_population("heist")))
    out.append((make_scenario("pd", X=-2, Y=-4, Z=-5), scenario_population("pd")))
    return out


INSTANCES = _instances()
IDS = ["random-r2-k2", "random-r3-k2", "random-r2-k3", "random-r3-k3", "heist", "pd"]


@pytest.mark.parametrize("game,pop", INSTANCES[:4], ids=IDS[:4])
def test_tensor_matches_governance_oracle(game, pop):
    U = _payoff_tensor(game, pop, BUDGET)
    pure = [InstructionProfile.pure(p) for p in game.profiles()]
    assert U.shape == (game.num_profiles,) * pop.llm_count + (pop.llm_count,)
    for idx in itertools.product(range(game.num_profiles), repeat=pop.llm_count):
        expected = governance_realization_utilities(
            game, pop, tuple(pure[a] for a in idx)
        )
        assert np.max(np.abs(U[idx] - np.array(expected))) <= 1e-12


@pytest.mark.parametrize("game,pop", INSTANCES, ids=IDS)
def test_tensor_reads_equal_the_loops(game, pop):
    assert payoff_vertices(game, pop) == loop_payoff_vertices(game, pop)
    U = _payoff_tensor(game, pop, BUDGET)
    profiles = list(game.profiles())
    index = {p: i for i, p in enumerate(profiles)}
    rng = np.random.default_rng(7)
    k = pop.llm_count
    for j in range(k):
        assert _correlated_lower_bound(U, j) == loop_correlated_lower_bound(game, pop, j)
        assert best_pure_punishment(game, pop, j) == loop_best_pure_punishment(game, pop, j)
        for row_llm in (q for q in range(k) if q != j):
            fixed = {
                q: _mixture_meta_action(profiles, rng.dirichlet(np.ones(len(profiles))))
                for q in range(k)
                if q not in (j, row_llm)
            }
            assert np.array_equal(
                _uj_matrix(U, j, row_llm, fixed, index),
                loop_uj_matrix(game, pop, j, row_llm, fixed),
            )
    if k == 2:
        A, B, labels = meta_bimatrix(game, pop)
        A_ref, B_ref = loop_meta_bimatrix(game, pop)
        assert labels == profiles
        assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)


def test_heist_minmax_builds_the_tensor_once(monkeypatch):
    """Each ``minmax`` builds the tensor once and reads no payoff but the
    tensor's ``num_profiles`` rows."""
    game = make_scenario("heist")
    pop = scenario_population("heist")
    builds, rows = [0], [0]
    build, block = feasibility._payoff_tensor, BaseGame.payoff_block

    def counting_build(*args):
        builds[0] += 1
        return build(*args)

    def counting_block(self, index):
        rows[0] += len(index)
        return block(self, index)

    monkeypatch.setattr(feasibility, "_payoff_tensor", counting_build)
    monkeypatch.setattr(BaseGame, "payoff_block", counting_block)
    for j in range(pop.llm_count):
        minmax(game, pop, j, starts=2)
        assert builds[0] == j + 1
        assert rows[0] <= builds[0] * game.num_profiles


# ------------------------------------------------- best replies off the tensor


def scalar_reply(game, pop, j, punishment):
    """The reference reply: ``best_response``'s value and profile."""
    br = best_response(game, pop, punishment, j)
    return br.value, br.profile


CERTIFIED = [
    (make_scenario("heist"), scenario_population("heist")),
    (make_scenario("pd", X=-2, Y=-4, Z=-5), scenario_population("pd")),
    (make_scenario("majority3"), scenario_population("majority3")),
    *_random_instances(48, 7),
]
CERTIFIED_IDS = ["heist", "pd", "majority3", *(f"random-{i}" for i in range(48))]


@pytest.mark.parametrize("game,pop", CERTIFIED, ids=CERTIFIED_IDS)
def test_certificates_equal_the_scalar_best_reply(game, pop):
    for j in range(pop.llm_count):
        for cert in (minmax(game, pop, j), best_pure_punishment(game, pop, j)):
            assert (cert.upper_bound, cert.best_response) == scalar_reply(
                game, pop, j, cert.punishment
            )


@pytest.mark.parametrize("game,pop", CERTIFIED[:6], ids=CERTIFIED_IDS[:6])
def test_split_and_mixed_punishers_match_the_scalar_best_reply(game, pop):
    rng = random.Random(29)
    k = pop.llm_count
    for j in range(k):
        for _ in range(4):
            punishment = [
                None if q == j else random_meta_action(rng, game, max_outcomes=3)
                for q in range(k)
            ]
            cert = certificate_from_punishment(game, pop, j, tuple(punishment))
            value, profile = scalar_reply(game, pop, j, punishment)
            assert abs(cert.upper_bound - value) <= 1e-12
            assert cert.best_response == profile
            assert cert.punishment == tuple(punishment)


def test_budget_fails_before_enumerating():
    game = make_scenario("bounded10", n_actions=5)  # 5**10 pure profiles
    pop = scenario_population("bounded10")
    pop2 = Population(((0.5, 0.5),) * game.role_count)
    calls = [
        *(lambda j=j: minmax(game, pop, j) for j in range(pop.llm_count)),
        lambda: best_pure_punishment(game, pop, 0),
        lambda: meta_bimatrix(game, pop2),
    ]
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            call()
        assert time.perf_counter() - start < 1.0
