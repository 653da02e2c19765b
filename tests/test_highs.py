"""``feasibility._highs`` against ``scipy.optimize.linprog``, the oracle.

``_highs`` drives HiGHS through scipy's binding with the model and options
``linprog(method="highs")`` gives it, so every LP must come out bit for bit
the same: ``x``, the objective, success, and the failure text.  It reuses
one HiGHS instance per process, cleared before each LP, so a sequence of
LPs, failed ones and ones with their own options included, must still match
the oracle call by call, and a warm ``minmax`` must construct no instance.
"""

import sys

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from metagame import feasibility
from metagame.errors import MetagameError, SolverLimitError
from metagame.feasibility import (
    RESIDUAL_TOL,
    _closest_mixture,
    _matrix_game_min_value,
    _mixture_lp,
    _separating_direction,
    _solution_holds,
    minmax,
    payoff_vertices,
)
from metagame.scenarios import make_scenario, scenario_population

_highs = feasibility._highs


def _oracle(c, A_ub, b_ub, lower, upper, A_eq=None, b_eq=None, options=None):
    return linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=np.column_stack([lower, upper]), method="highs", options=options,
    )


@pytest.fixture
def checked(monkeypatch):
    """Compares every ``_highs`` call with the oracle; one entry per LP,
    whether it succeeded."""
    seen = []

    def both(what, *lp):
        expected = _oracle(*lp)
        try:
            x, fun = _highs(what, *lp)
        except MetagameError as exc:
            assert not expected.success
            assert str(exc) == f"{what} LP failed: {expected.message}"
            seen.append(False)
            raise
        assert expected.success
        assert x.tobytes() == expected.x.tobytes()
        assert fun == expected.fun
        seen.append(True)
        return x, fun

    monkeypatch.setattr(feasibility, "_highs", both)
    return seen


@pytest.fixture(scope="module")
def vertex_matrices():
    return {
        name: payoff_vertices(make_scenario(name), scenario_population(name)).matrix
        for name in ("pd", "heist")
    }


# (rows, columns) of the matrix games minmax builds: PD's and heist's punisher
# matrices (_uj_matrix), PD's two-advisor and heist's correlated bound.
GAME_SHAPES = [(4, 4), (8, 8), (16, 4), (64, 8)]


@pytest.mark.parametrize("shape", GAME_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_matrix_games_match_linprog(checked, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for i in range(130):
        if i % 2:
            C = rng.normal(size=shape)
        else:  # integer payoffs, many zeros, ties and dominated rows
            C = rng.integers(-2, 3, size=shape).astype(float)
        _matrix_game_min_value(C)
    assert len(checked) == 130 and all(checked)


@pytest.mark.parametrize("scenario", ["pd", "heist"])
def test_closest_mixture_matches_linprog(checked, vertex_matrices, scenario):
    V = vertex_matrices[scenario]
    rng = np.random.default_rng(7)
    for push in (0.0, 1e-9, 0.3, 5.0):
        idx = rng.choice(len(V), size=3, replace=False)
        target = rng.dirichlet(np.ones(3)) @ V[idx] + push * rng.normal(size=V.shape[1])
        _closest_mixture(V, target)
        _closest_mixture(V[idx], target, {"primal_feasibility_tolerance": 1e-10})
    assert len(checked) == 8 and all(checked)


def test_separating_direction_matches_linprog(checked, vertex_matrices):
    for V, target in (
        (vertex_matrices["pd"], np.array([1.0, 1.0])),
        (vertex_matrices["heist"], np.array([5.0, -1.0, 2.0])),
    ):
        d, gap = _separating_direction(V, target)
        assert gap > 0 and np.max(np.abs(d)) <= 1.0
    assert checked == [True, True]


def test_infeasible_mixture_lp_raises_as_linprog_failed(checked):
    # t >= 10 with A w + t <= 0 and w a distribution over the columns of
    # A = I: no point is feasible.
    with pytest.raises(MetagameError, match=r"^mixture LP failed: The problem is infeasible"):
        _mixture_lp(np.eye(3), np.zeros(3), maximize=True, t_lower=10.0)
    assert checked == [False]


def test_the_reused_solver_carries_nothing_from_one_lp_to_the_next(
    checked, vertex_matrices
):
    C = np.random.default_rng(3).normal(size=(8, 8))
    first = _matrix_game_min_value(C)
    solver = feasibility._SOLVER
    with pytest.raises(MetagameError, match=r"^mixture LP failed: The problem is infeasible"):
        _mixture_lp(np.eye(3), np.zeros(3), maximize=True, t_lower=10.0)
    V = vertex_matrices["heist"]
    _closest_mixture(V, V[:3].mean(axis=0), {"primal_feasibility_tolerance": 1e-10})
    again = _matrix_game_min_value(C)
    assert checked == [True, False, True, True]
    assert again[0] == first[0] and again[1].tobytes() == first[1].tobytes()
    assert feasibility._SOLVER is solver
    # The last LP ran at the default tolerance, not the one set before it.
    assert solver.getOptionValue("primal_feasibility_tolerance")[1] == 1e-7


def test_minmax_constructs_one_solver_per_process(monkeypatch):
    game, pop = make_scenario("heist"), scenario_population("heist")
    made = []
    original = _core._Highs

    def counting():
        made.append(original())
        return made[-1]

    monkeypatch.setattr(_core, "_Highs", counting)
    monkeypatch.setattr(feasibility, "_SOLVER", None)  # as in a new process
    minmax(game, pop, 0)
    assert len(made) == 1 and feasibility._SOLVER is made[0]
    minmax(game, pop, 1)  # warm: the first call's instance serves every LP
    assert len(made) == 1


def test_solution_holds_within_linprogs_tolerance():
    x, lower, upper = np.array([0.5, 0.5]), np.zeros(2), np.ones(2)
    ok = dict(x=x, fun=0.0, lower=lower, upper=upper, slack=np.zeros(3), residual=np.zeros(1))
    assert _solution_holds(**ok)
    # A row violated by twice, and then by half, the tolerance.
    assert not _solution_holds(**{**ok, "slack": np.array([0.0, -2 * RESIDUAL_TOL, 1.0])})
    assert _solution_holds(**{**ok, "slack": np.array([0.0, -RESIDUAL_TOL / 2, 1.0])})
    assert not _solution_holds(**{**ok, "residual": np.array([2 * RESIDUAL_TOL])})
    assert not _solution_holds(**{**ok, "x": np.array([0.5, 1 + 2 * RESIDUAL_TOL])})
    assert not _solution_holds(**{**ok, "fun": float("nan")})
    assert not _solution_holds(**{**ok, "residual": np.array([np.nan])})


@pytest.mark.parametrize(
    "A, b, option",
    [
        (np.array([[1.0, -1e15]]), np.zeros(1), "large_matrix_value"),
        (np.array([[1.0, np.nan]]), np.zeros(1), "large_matrix_value"),
        (np.array([[1.0, 2.0]]), np.array([-1e20]), "infinite_bound"),
        (np.array([[1.0, 2.0]]), np.array([np.inf]), "infinite_bound"),
    ],
)
def test_inputs_beyond_the_highs_limits_are_rejected(A, b, option):
    with pytest.raises(SolverLimitError, match=f"HiGHS's {option}") as exc:
        _mixture_lp(A, b)
    assert exc.value.option == option


def test_inputs_below_the_limits_solve():
    w, t = _mixture_lp(np.array([[1.0, -9e14]]), np.array([9e19]))
    assert w.sum() == pytest.approx(1.0) and np.isfinite(t)


def test_missing_binding_names_the_scipy_it_needs(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    with pytest.raises(MetagameError, match=r"scipy >= 1\.15"):
        _matrix_game_min_value(np.eye(2))
