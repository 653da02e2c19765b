"""Feasible payoff set, target decomposition, and punishment (minmax) bounds.

The feasible set is the convex hull of the payoff vectors generated by pure
role-homogeneous profile tuples (mixtures and splits add nothing, by the
role-homogeneous reduction).  A target inside the hull is decomposed into a
short implementation cycle by a feasibility LP followed by Caratheodory
support reduction.

Three of the module's programs are one LP, :func:`_mixture_lp`: a
distribution over payoff points plus one scalar, minimized or maximized.
It finds the closest mixture to a target (the decomposition), the value of a
punishment matrix game, and, for :mod:`metagame.protocol`, the hull point of
largest margin above the punishment bounds.  Only the separating direction
of an infeasible target (a box-bounded direction and a free scalar) is a
program of its own.  The two LPs go through :func:`_highs`, which imports scipy
on the first LP, so the commands that solve none start without it.  It
drives HiGHS through scipy's private binding ``scipy.optimize._highspy._core``
rather than ``linprog``, because the LPs are tiny and many (a warm
``plan-heist`` benchmark pass solves 115, most of them 8x8 punisher matrix
games) and ``linprog``'s wrapper cost most of each one.  The model, the
options and the post-solve check are ``linprog``'s, so every solution is bit
for bit the one ``linprog`` returns.

Punishment values: with two advisors the minmax is the value of the
correlated-punishers LP, exact for a lone punisher.  With three or more,
the minimum over independent punisher mixtures is nonconvex, so the
certificate brackets it: a lower bound from that LP (a relaxation) and an
upper bound from the best punisher profile found by alternating
minimization, re-scored with an exact inner best response.  The punisher
mixtures are kept as meta-actions.  After the first round they are LP
vertex solutions, so the starts keep meeting the same punisher matrices;
one call solves each distinct matrix game, and builds its meta-action,
once.  The matrix is all the LP reads and single-threaded HiGHS is
deterministic, so the result is the one fresh solves would give.

One payoff tensor ``U[a_1, ..., a_k, j]`` per (game, population), advisor j's
utility when each advisor q instructs pure profile ``a_q``, backs the
vertices, the punishment matrices, the correlated bound, every certificate's
best reply and (in :mod:`metagame.protocol`) the best pure punishments.  Each
command built on it raises :class:`BudgetExceededError` when n^k (n pure
profiles, k advisors) exceeds the term budget, before enumerating anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleTargetError,
    MetagameError,
    SolverLimitError,
    ValidationError,
)
from .games import BaseGame, _weighted
from .model import (
    DEFAULT_TERM_BUDGET,
    MetaAction,
    MetaProfile,
    Population,
    _check_advisor,
    _check_advisors,
    _payoff_tensor,
    _pure_instruction,
    reduce_role_homogeneous,
)

RECOMBINE_TOL = 1e-9
MINMAX_ROUNDS = 500  # alternating-minimization rounds per start
MINMAX_TOL = 1e-9  # value change that ends a start early


@dataclass(frozen=True)
class Vertex:
    """Payoff vector of one pure role-homogeneous profile per advisor."""

    profiles: tuple[tuple[str, ...], ...]
    payoff: tuple[float, ...]

    def meta_profile(self) -> MetaProfile:
        return MetaProfile.from_pure(self.profiles)


@dataclass(frozen=True)
class PayoffVertexSet:
    vertices: tuple[Vertex, ...]

    @property
    def matrix(self) -> np.ndarray:
        return np.array([v.payoff for v in self.vertices])

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class CycleDecomposition:
    """Weighted profiles whose payoff average hits a target vector."""

    profiles: tuple[MetaProfile, ...]
    weights: tuple[float, ...]
    payoffs: tuple[tuple[float, ...], ...]
    target: tuple[float, ...]

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValidationError("cycle weights must sum to 1")
        if any(w < 0.0 for w in self.weights):
            raise ValidationError("cycle weights must be nonnegative")
        combo = np.array(self.payoffs).T @ np.array(self.weights)
        drift = float(np.max(np.abs(combo - np.array(self.target))))
        if drift > RECOMBINE_TOL:
            raise ValidationError(
                f"cycle recombination misses the target by {drift:.3g}"
            )

    @property
    def support_size(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class MinmaxCertificate:
    """Bracket on what advisor ``llm`` can guarantee against punishment.

    ``punishment`` holds one meta-action per punisher (``None`` in the
    punished slot); ``best_response`` is the punished advisor's exact best
    pure reply, whose value is ``upper_bound``.
    """

    llm: int
    lower_bound: float
    upper_bound: float
    punishment: tuple[MetaAction | None, ...]
    best_response: tuple[str, ...]

    def __post_init__(self):
        if self.lower_bound > self.upper_bound + 1e-12:
            raise ValidationError("certificate bounds are inverted")


@dataclass(frozen=True)
class StrictIrReport:
    strict: bool
    margins: tuple[float, ...]


def payoff_vertices(
    game: BaseGame, pop: Population, budget: float = DEFAULT_TERM_BUDGET
) -> PayoffVertexSet:
    """One payoff vertex per tuple of pure role-homogeneous profiles."""
    return _vertex_set(game, _payoff_tensor(game, pop, budget))


def _vertex_set(game: BaseGame, U: np.ndarray) -> PayoffVertexSet:
    """The vertices read off the payoff tensor ``U``, in C (product) order."""
    k = U.shape[-1]
    tuples = itertools.product(list(game.profiles()), repeat=k)
    return PayoffVertexSet(
        tuple(
            Vertex(profiles=combo, payoff=tuple(row))
            for combo, row in zip(tuples, U.reshape(-1, k).tolist())
        )
    )


# linprog's words before the status of a failed LP, so that the failure reads
# as it did through linprog; the statuses left out here (errors, and limits
# this module never sets) have none.
_STATUS_WORDS = {
    "kInfeasible": "The problem is infeasible. ",
    "kUnboundedOrInfeasible": "The problem is unbounded or infeasible. ",
    "kUnbounded": "The problem is unbounded. ",
    "kUnknown": "The HiGHS status code was not recognized. ",
}
RESIDUAL_TOL = math.sqrt(1e-9) * 10  # linprog's post-solve tolerance


def _solution_holds(x, fun, lower, upper, slack, residual) -> bool:
    """linprog's post-solve check: no NaN, and ``x`` within its bounds, the
    inequality slacks no lower and the equality residuals no larger in size
    than ``RESIDUAL_TOL``."""
    if math.isnan(fun) or any(np.isnan(a).any() for a in (x, slack, residual)):
        return False
    tol = RESIDUAL_TOL
    return not (
        (x < lower - tol).any()
        or (x > upper + tol).any()
        or (slack < -tol).any()
        or (np.abs(residual) > tol).any()
    )


def _highs(what, c, A_ub, b_ub, lower, upper, A_eq=None, b_eq=None, options=None):
    """``x`` and the value of min c.x s.t. ``A_ub x <= b_ub``,
    ``A_eq x = b_eq`` and ``lower <= x <= upper``, by one fresh HiGHS solve.

    HiGHS gets the model and options scipy's ``linprog(method="highs")``
    gives it, and the result passes the same checks, but the call goes
    through scipy's bundled binding ``scipy.optimize._highspy._core``, a
    private module (scipy >= 1.15).  On an 8x8 punisher matrix game (9
    columns, 9 rows) linprog took about 2.4 ms on a 2-vCPU Xeon, under
    0.5 ms of it in HiGHS's ``run`` and the rest in its wrapper (input
    parsing, a sparse matrix, re-validating each option); this call takes
    0.6-0.75 ms.  scipy is imported here, on the first LP, not with the
    module.

    Raises :class:`SolverLimitError` when a matrix entry or a row bound is
    NaN or as large in size as HiGHS's ``large_matrix_value`` or
    ``infinite_bound``, which HiGHS would reject as a model error, and
    :class:`MetagameError` naming ``what`` unless HiGHS reports an optimum
    that passes :func:`_solution_holds`.
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise MetagameError(
            f"the LP solver needs scipy >= 1.15 (scipy.optimize._highspy): {exc}"
        ) from None
    inf = _core.kHighsInf  # IEEE inf, so the callers' +-inf bounds pass as they are
    n_ub = len(b_ub)
    if A_eq is None:
        A, b_eq = A_ub, np.zeros(0)
    else:
        A = np.vstack([A_ub, A_eq])
    row_upper = np.concatenate([b_ub, b_eq])
    row_lower = np.concatenate([np.full(n_ub, -inf), b_eq])
    m, n = A.shape
    # Column-wise sparse matrix: the nonzeros of A.T in row-major order.
    At = A.T
    nonzero = At != 0
    value = At[nonzero]
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=start[1:])

    highs = _core._Highs()
    for option, setting in {
        "presolve": "on",
        "highs_debug_level": int(_core.HighsDebugLevel.kHighsDebugLevelNone),
        "log_to_console": False,
        "output_flag": False,
        "simplex_strategy": int(
            _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        ),
        **(options or {}),
    }.items():
        highs.setOptionValue(option, setting)
    for name, values, option in (
        ("matrix entry", value, "large_matrix_value"),
        ("bound", row_upper, "infinite_bound"),
    ):
        limit = highs.getOptionValue(option)[1]
        beyond = ~(np.abs(values) < limit)
        if beyond.any():
            raise SolverLimitError(name, float(values[beyond][0]), option, limit)

    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1].astype(np.int32)
    lp.a_matrix_.value_ = value
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper

    failed = _core.HighsStatus.kError
    if highs.passModel(lp) == failed:
        status = _core.HighsModelStatus.kModelError
        detail = highs.modelStatusToString(status)
    elif highs.run() == failed:
        status = highs.getModelStatus()
        detail = highs.modelStatusToString(status)
    else:
        status = highs.getModelStatus()
        info = highs.getInfo()
        if status == _core.HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            fun = info.objective_function_value
            slack = row_upper - solution.row_value
            if _solution_holds(x, fun, lower, upper, slack[:n_ub], slack[n_ub:]):
                return x, fun
            raise MetagameError(
                f"{what} LP failed: The solution does not satisfy the "
                f"constraints within the required tolerance of {RESIDUAL_TOL:.2E}"
            )
        detail = (
            f"model_status is {highs.modelStatusToString(status)}; primal_status"
            f" is {highs.solutionStatusToString(info.primal_solution_status)}"
        )
    words = _STATUS_WORDS.get(status.name, "")
    raise MetagameError(
        f"{what} LP failed: {words}(HiGHS Status {int(status)}: {detail})"
    )


def _separating_direction(V: np.ndarray, target: np.ndarray):
    """Direction d, |d|_inf <= 1, maximizing d.target - max_h d.V_h."""
    N, k = V.shape
    # variables: d (k), s; minimize -d.target + s  s.t.  V d - s <= 0
    c = np.concatenate([-target, [1.0]])
    A_ub = np.hstack([V, -np.ones((N, 1))])
    lower = np.append(np.full(k, -1.0), -np.inf)
    upper = np.append(np.ones(k), np.inf)
    x, _ = _highs("separating-direction", c, A_ub, np.zeros(N), lower, upper)
    d = x[:k]
    gap = float(target @ d - x[k])
    return d, gap


def _caratheodory_reduce(V: np.ndarray, weights: np.ndarray, target: np.ndarray):
    """Prune the support of a convex combination to at most k+1 points."""
    k = V.shape[1]
    w = weights.copy()
    support = [int(i) for i in np.flatnonzero(w > 1e-13)]
    while len(support) > k + 1:
        M = np.vstack([V[support].T, np.ones(len(support))])
        # s > k+1 guarantees a nontrivial null vector of the affine system
        _, _, Vt = np.linalg.svd(M)
        null = Vt[-1]
        if null.max() <= 0.0:
            null = -null
        ratios = [
            (w[i] / null[idx], idx)
            for idx, i in enumerate(support)
            if null[idx] > 1e-13
        ]
        theta, drop_idx = min(ratios)
        for idx, i in enumerate(support):
            w[i] -= theta * null[idx]
        w[support[drop_idx]] = 0.0
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        support = [int(i) for i in np.flatnonzero(w > 1e-13)]
        drift = float(np.max(np.abs(V[support].T @ w[support] - target)))
        if drift > RECOMBINE_TOL:
            raise MetagameError(
                f"support reduction drifted off target by {drift:.3g}"
            )
    return w, support


def _mixture_lp(A, b, maximize=False, t_lower=None, options=None):
    """Minimize t subject to ``A w - t <= b`` or, with ``maximize``, maximize
    t subject to ``A w + t <= b``; w is a distribution over the columns of
    ``A`` and t >= ``t_lower`` (free when ``None``).  Returns w, clipped at 0
    and renormalized, and t.  Raises :class:`MetagameError` when HiGHS
    reports no optimum."""
    n_rows, N = A.shape
    sign = -1.0 if maximize else 1.0
    c = np.zeros(N + 1)
    c[N] = sign
    A_eq = np.zeros((1, N + 1))
    A_eq[0, :N] = 1.0
    lower = np.zeros(N + 1)
    lower[N] = -np.inf if t_lower is None else t_lower
    x, _ = _highs(
        "mixture",
        c,
        np.hstack([A, -sign * np.ones((n_rows, 1))]),
        b,
        lower,
        np.full(N + 1, np.inf),
        A_eq,
        np.ones(1),
        options,
    )
    w = np.clip(x[:N], 0.0, None)
    w /= w.sum()
    return w, float(x[N])


def _closest_mixture(V: np.ndarray, target: np.ndarray, options=None):
    """Weights w (a distribution) and the smallest sup-norm miss t of
    sum_h w_h V_h = target."""
    A, b = np.vstack([V.T, -V.T]), np.concatenate([target, -target])
    return _mixture_lp(A, b, t_lower=0.0, options=options)


def decompose_target(vertices: PayoffVertexSet, target) -> CycleDecomposition:
    """Express a feasible target as a short convex combination of vertices.

    Raises :class:`InfeasibleTargetError` with a separating direction when the
    target lies outside the hull, or when no weights recombine to it within
    ``RECOMBINE_TOL``.
    """
    target = np.asarray(target, dtype=float)
    V = vertices.matrix
    if target.shape != (V.shape[1],):
        raise ValidationError(
            f"target has shape {target.shape}, vertices are {V.shape[1]}-dimensional"
        )
    # A target that is itself a vertex payoff decomposes as that single
    # profile; scan in enumeration order for determinism.
    for vtx in vertices.vertices:
        if max(abs(a - b) for a, b in zip(vtx.payoff, target)) <= RECOMBINE_TOL:
            return CycleDecomposition(
                profiles=(vtx.meta_profile(),),
                weights=(1.0,),
                payoffs=(vtx.payoff,),
                target=tuple(target),
            )

    w, miss = _closest_mixture(V, target)
    if miss <= RECOMBINE_TOL:
        w, support = _caratheodory_reduce(V, w, target)
        S, w = V[support], w[support]
        if np.max(np.abs(S.T @ w - target)) > RECOMBINE_TOL:
            # Near the hull boundary the LP meets HiGHS's feasibility
            # tolerance while its clipped weights miss ours: solve again on
            # the support at a tighter tolerance.
            w, _ = _closest_mixture(S, target, {"primal_feasibility_tolerance": 1e-10})
        if np.max(np.abs(S.T @ w - target)) <= RECOMBINE_TOL:
            return CycleDecomposition(
                profiles=tuple(vertices.vertices[i].meta_profile() for i in support),
                weights=tuple(w),
                payoffs=tuple(vertices.vertices[i].payoff for i in support),
                target=tuple(target),
            )
    d, gap = _separating_direction(V, target)
    raise InfeasibleTargetError(target, d, gap)


def _matrix_game_min_value(C: np.ndarray):
    """Minimize over row mixtures the best column reply: min_y max_a y.C[:,a]."""
    y, value = _mixture_lp(C.T, np.zeros(C.shape[1]))
    return value, y


def _mixture_meta_action(profiles: list[tuple[str, ...]], weights) -> MetaAction:
    """The mixture with ``weights`` over pure ``profiles``, entries of weight
    1e-12 or less dropped and the rest renormalized; each outcome is the
    shared :func:`_pure_instruction` object."""
    outcomes = [
        (_pure_instruction(p), float(w))
        for p, w in zip(profiles, weights)
        if w > 1e-12
    ]
    total = sum(w for _, w in outcomes)
    return MetaAction(tuple((p, w / total) for p, w in outcomes))


def _uj_matrix(U, j, row_llm, fixed_actions, index):
    """C[b, a]: utility of advisor j playing pure profile a while ``row_llm``
    plays pure profile b and every other advisor q follows the mixture over
    pure profiles ``fixed_actions[q]`` (j's and ``row_llm``'s entries, if
    any, are ignored); ``index`` maps a profile to its axis position in the
    payoff tensor ``U``.  With ``row_llm=None`` every advisor but j follows
    its mixture and the result is j's reply vector C[a]."""
    k = U.ndim - 1
    front = [j] if row_llm is None else [row_llm, j]
    others = [fixed_actions[q].outcomes for q in range(k) if q not in front]
    # Axes: row_llm (if any), j, then the remaining advisors in index order.
    Uj = np.moveaxis(U[..., j], front, range(len(front)))
    C = np.zeros(Uj.shape[: len(front)])
    for w, profs in _weighted(others):
        C += w * Uj[(Ellipsis, *(index[prof.pure_profile] for prof in profs))]
    return C


def _certificate(game, U, j, punishment, lower_bound=None) -> MinmaxCertificate:
    """Advisor j's certificate against ``punishment`` on the payoff tensor
    ``U``: j's best reply is the first maximum in ``game.profiles()`` order,
    bit for bit :func:`metagame.oneshot.best_response`'s when every punisher
    outcome is a pure profile (a punisher with another outcome counts as its
    :func:`reduce_role_homogeneous` equivalent).  The lower bound defaults to
    the correlated-punishers LP, or ``inf`` for a lone advisor."""
    profiles = list(game.profiles())
    pure = [
        a if a is None or a.is_role_homogeneous() else reduce_role_homogeneous(a)
        for a in punishment
    ]
    reply = _uj_matrix(U, j, None, pure, {p: i for i, p in enumerate(profiles)})
    best = int(np.argmax(reply))
    value = float(reply[best])
    if lower_bound is None:
        lower_bound = _correlated_lower_bound(U, j) if U.ndim > 2 else math.inf
    return MinmaxCertificate(
        llm=j,
        lower_bound=min(lower_bound, value),
        upper_bound=value,
        punishment=tuple(punishment),
        best_response=profiles[best],
    )


def certificate_from_punishment(
    game: BaseGame,
    pop: Population,
    j: int,
    punishment: tuple[MetaAction | None, ...],
    budget: float = DEFAULT_TERM_BUDGET,
    lower_bound: float | None = None,
) -> MinmaxCertificate:
    """Certificate induced by an explicit punisher profile.

    The upper bound is the punished advisor's exact best-response value; any
    punisher profile certifies one.  When no lower bound is supplied the
    correlated-punishers LP provides it.  Both are read off the payoff
    tensor (see :func:`_certificate`), whose n^k entries ``budget`` bounds.
    """
    _check_advisor(pop, j)
    if len(punishment) != pop.llm_count or punishment[j] is not None:
        raise ValidationError("punishment must leave exactly slot j empty")
    _check_advisors(game, pop, punishment, skip=j)
    U = _payoff_tensor(game, pop, budget)
    for a in filter(None, punishment):
        for prof, _ in reduce_role_homogeneous(a).outcomes:
            game.payoff(prof.pure_profile)  # raises on a label the game lacks
    return _certificate(game, U, j, punishment, lower_bound)


def _punishment_matrix(U: np.ndarray, j: int) -> np.ndarray:
    """M[b, a]: advisor j's utility playing pure profile a against the pure
    punisher combination b, combinations flattened in product order."""
    return np.moveaxis(U[..., j], j, -1).reshape(-1, U.shape[j])


def _correlated_lower_bound(U: np.ndarray, j: int) -> float:
    """Value when punishers may correlate: a relaxation, hence a lower bound."""
    value, _ = _matrix_game_min_value(_punishment_matrix(U, j))
    return value


def minmax(
    game: BaseGame,
    pop: Population,
    j: int,
    starts: int = 32,
    seed: int = 0,
    budget: float = DEFAULT_TERM_BUDGET,
) -> MinmaxCertificate:
    """Certified bracket on advisor ``j``'s guaranteed (minmax) payoff.

    The upper bound is j's exact best reply to the punishers, read off the
    payoff tensor by :func:`_certificate`.  A lone advisor faces no
    punishers: both bounds are that reply's value.  With two advisors the
    lower bound is the correlated-punishers LP on :func:`_punishment_matrix`,
    exact for one punisher.  With three or more it is a relaxation, and each
    of ``starts`` alternating minimizations begins at flat-Dirichlet punisher
    mixtures drawn from ``seed`` and stops once the value moves by less than
    ``MINMAX_TOL``, or after ``MINMAX_ROUNDS`` rounds; the best start's
    punishers are re-scored by the best reply.  Punisher mixtures are kept
    as meta-actions.  Each distinct punisher matrix game is solved once per
    call and its (value, meta-action) reused by later rounds and starts;
    since the matrix is all the LP reads, the certificate is the one fresh
    solves would give.
    Raises :class:`ValidationError` unless ``0 <= j < k`` and
    ``starts >= 1``.
    """
    _check_advisor(pop, j)
    if starts < 1:
        raise ValidationError(f"starts = {starts} must be at least 1")
    k = pop.llm_count
    U = _payoff_tensor(game, pop, budget)
    profiles = list(game.profiles())
    punishment: list[MetaAction | None] = [None] * k
    lower = None  # the correlated-punishers LP, or inf for a lone advisor
    if k == 2:
        lower, y = _matrix_game_min_value(_punishment_matrix(U, j))
        punishment[1 - j] = _mixture_meta_action(profiles, y)
    elif k > 2:
        n = len(profiles)
        index = {p: i for i, p in enumerate(profiles)}
        punishers = [q for q in range(k) if q != j]
        rng = np.random.default_rng(seed)
        # C.tobytes() -> (value, the row punisher's mixture as a meta-action)
        solved: dict[bytes, tuple[float, MetaAction]] = {}
        candidates: list[tuple[float, int, dict]] = []
        for s_idx in range(starts):
            actions = {
                q: _mixture_meta_action(profiles, rng.dirichlet(np.ones(n)))
                for q in punishers
            }
            value_prev = math.inf
            for _ in range(MINMAX_ROUNDS):
                for q in punishers:
                    C = _uj_matrix(U, j, q, actions, index)
                    key = C.tobytes()
                    if key not in solved:
                        value, y = _matrix_game_min_value(C)
                        solved[key] = value, _mixture_meta_action(profiles, y)
                    value, actions[q] = solved[key]
                if abs(value_prev - value) < MINMAX_TOL:
                    break
                value_prev = value
            candidates.append((value, s_idx, actions))
        best = min(candidates, key=lambda t: t[:2])[2]
        punishment = [best.get(q) for q in range(k)]
    return _certificate(game, U, j, punishment, lower)


def check_strict_ir(target, certificates) -> StrictIrReport:
    """Strict individual rationality of a target against certified bounds."""
    target = tuple(float(v) for v in target)
    if len(target) != len(certificates):
        raise ValidationError("one certificate per advisor is required")
    margins = []
    for j, cert in enumerate(certificates):
        if cert.llm != j:
            raise ValidationError(f"certificate {j} is for advisor {cert.llm}")
        margins.append(target[j] - cert.upper_bound)
    return StrictIrReport(strict=all(m > 0.0 for m in margins), margins=tuple(margins))
