"""Best responses and equilibrium certification for one-shot meta-games.

Because an advisor's utility is linear in its own mixture over deterministic
instruction profiles, and any deterministic profile is payoff-equivalent to a
mixture over pure role-homogeneous profiles, a pure role-homogeneous profile
is always among the best responses.  The checker therefore enumerates pure
deviations, lexicographically in action-list order, and certifies a profile
by the worst advisor regret.

Games whose labels are interchangeable admit an exact reduction: if the game
and every opponent meta-action are invariant under a label rotation, deviation
values depend only on the rotation orbit, so it suffices to score one
representative per orbit (first governed role pinned to the first action).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    NotSingleRoleError,
    ValidationError,
)
from .games import BaseGame, MixedStrategy, StrategyProfile
from .model import (
    BLOCK_REALIZATIONS,
    DEFAULT_TERM_BUDGET,
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    _check_advisor,
    _check_advisors,
    _grid,
    _ordered_sum,
    _payoff_tensor,
    _pure_instruction,
    _realization_block,
    _supports,
    _utilities,
    llm_utility,
)

REGRET_TOL = 1e-9
SUPPORT_TOL = 1e-9  # sign and best-reply slack of support enumeration
ROTATION_SAMPLES = 100  # sampled profiles of a rule game's symmetry check, one block
BR_ITERATION_ROUNDS = 50


@dataclass(frozen=True)
class BestResponse:
    llm: int
    value: float
    profile: tuple[str, ...]


@dataclass(frozen=True)
class RegretReport:
    """Per-advisor regret against the best pure role-homogeneous deviation."""

    utilities: tuple[float, ...]
    best_values: tuple[float, ...]
    best_deviations: tuple[tuple[str, ...], ...]
    epsilon: float

    @property
    def regrets(self) -> tuple[float, ...]:
        return tuple(b - u for b, u in zip(self.best_values, self.utilities))

    @property
    def max_regret(self) -> float:
        return max(self.regrets)

    @property
    def is_epsilon_equilibrium(self) -> bool:
        return self.max_regret <= self.epsilon

    def to_dict(self) -> dict:
        return {
            "utilities": list(self.utilities),
            "best_values": list(self.best_values),
            "best_deviations": [list(p) for p in self.best_deviations],
            "regrets": list(self.regrets),
            "epsilon": self.epsilon,
            "is_epsilon_equilibrium": self.is_epsilon_equilibrium,
        }


def _permute_strategy(strategy: MixedStrategy, mapping: dict[str, str]) -> MixedStrategy:
    return MixedStrategy(
        strategy.role, tuple((mapping[a], w) for a, w in strategy.weights)
    )


def permute_instruction(
    instr: InstructionProfile, mapping: dict[str, str]
) -> InstructionProfile:
    return InstructionProfile(
        tuple(
            tuple((_permute_strategy(s, mapping), f) for s, f in entries)
            for entries in instr.assignments
        )
    )


def permute_meta_action(action: MetaAction, mapping: dict[str, str]) -> MetaAction:
    return MetaAction(
        tuple((permute_instruction(p, mapping), w) for p, w in action.outcomes)
    )


def meta_actions_close(a: MetaAction, b: MetaAction) -> bool:
    if len(a.outcomes) != len(b.outcomes):
        return False
    for (pa, wa), (pb, wb) in zip(a.outcomes, b.outcomes):
        if pa != pb or abs(wa - wb) > 1e-12:
            return False
    return True


def _common_labels(game: BaseGame) -> tuple[str, ...]:
    labels = game.actions[0]
    if any(set(acts) != set(labels) for acts in game.actions):
        raise ValidationError(
            "label-rotation reduction needs a common action set across roles"
        )
    return labels


def rotation_mapping(game: BaseGame) -> dict[str, str]:
    """Cyclic shift of the common label set, in role 0's order (a
    relabeling-group generator); other roles may list the set in any order."""
    labels = _common_labels(game)
    return {labels[i]: labels[(i + 1) % len(labels)] for i in range(len(labels))}


def verify_rotation_symmetry(
    game: BaseGame, profile: MetaProfile | Sequence[MetaAction | None], j: int
) -> None:
    """Check that the game and every opponent of j are rotation-invariant.

    Tabular games are checked on every profile, rule-backed games on
    ``ROTATION_SAMPLES`` profiles of role 0's labels drawn from a fixed
    seed, each against its rotation in one
    :meth:`~metagame.games.BaseGame.payoff_block` call per side, every
    label at its index in each role's own list.  Raises ``ValidationError``
    on any violation.
    """
    mapping = rotation_mapping(game)
    labels = game.actions[0]
    m = game.role_count
    drawn = (
        _grid((len(labels),) * m, 0, game.num_profiles)
        if game.table is not None
        else np.random.default_rng(0).integers(len(labels), size=(ROTATION_SAMPLES, m))
    )
    # at[a, i]: role i's index of role 0's a-th label, whose rotation is
    # role 0's (a + 1)-th.
    at = np.array([[acts.index(x) for acts in game.actions] for x in labels])
    roles = np.arange(m)
    if not np.array_equal(
        game.payoff_block(at[(drawn + 1) % len(labels), roles]),
        game.payoff_block(at[drawn, roles]),
    ):
        raise ValidationError("game payoffs are not rotation-invariant")
    actions = profile.actions if isinstance(profile, MetaProfile) else profile
    for q, action in enumerate(actions):
        if q == j:
            continue
        if not meta_actions_close(permute_meta_action(action, mapping), action):
            raise ValidationError(
                f"advisor {q} meta-action is not rotation-invariant; "
                "orbit reduction would be unsound"
            )


def best_response(
    game: BaseGame,
    pop: Population,
    profile: MetaProfile | Sequence[MetaAction | None],
    j: int,
    budget: float = DEFAULT_TERM_BUDGET,
    symmetry: str | None = None,
) -> BestResponse:
    """Best pure role-homogeneous deviation of advisor ``j``.

    ``profile`` holds one meta-action per advisor; its j-th entry is ignored
    and may be ``None``.  Every other entry must instruct the population's
    roles, else :class:`ValidationError`.  ``symmetry='rotation'`` scores one
    representative per label-rotation orbit after verifying that the game and
    all opponents are rotation-invariant; the reported profile is then a
    maximizer up to relabeling.  The candidates are the pure profiles of the
    roles j governs (with rotation, all but the first), in lexicographic
    order; every other role plays its first action, which leaves j's value
    unchanged and makes the profile lexicographically smallest.  Candidates
    times opponent outcomes are scored by :func:`metagame.model._utilities`
    in blocks of at most ``BLOCK_REALIZATIONS``; each candidate's value sums
    its outcomes in order from 0.0, and the first maximum wins.
    """
    _check_advisor(pop, j)
    if symmetry not in (None, "rotation"):
        raise ValidationError(f"unknown symmetry reduction {symmetry!r}")
    actions = profile.actions if isinstance(profile, MetaProfile) else tuple(profile)
    _check_advisors(game, pop, actions, skip=j)
    if symmetry == "rotation":
        verify_rotation_symmetry(game, actions, j)

    free = list(pop.governed_roles(j)[1 if symmetry else 0 :])
    sizes = [len(game.actions[i]) for i in free]
    n_cand = math.prod(sizes)
    # Slot j holds one pure outcome of weight 1, whose actions each candidate
    # fills in, so each weight is the product over the opponents alone.
    first = _pure_instruction(tuple(acts[0] for acts in game.actions))
    supports = [((first, 1.0),) if q == j else a.outcomes for q, a in enumerate(actions)]
    n_out = math.prod(len(s) for s in supports)
    if n_cand * n_out > budget:
        raise BudgetExceededError(n_cand * n_out, budget)
    sup = _supports(game, pop, supports)
    cand_step = max(1, BLOCK_REALIZATIONS // n_out)
    out_step = min(n_out, BLOCK_REALIZATIONS)
    used, best_val, best = 0, None, None
    for c0 in range(0, n_cand, cand_step):
        cands = np.zeros((min(cand_step, n_cand - c0), game.role_count), dtype=np.intp)
        cands[:, free] = _grid(sizes, c0, c0 + len(cands))
        totals = np.zeros(len(cands))
        for o0 in range(0, n_out, out_step):
            gid, weights = _realization_block(sup, o0, min(o0 + out_step, n_out))
            fill = np.zeros((game.role_count, len(cands), len(gid)), dtype=np.intp)
            fill[free] = cands.T[free, :, None]
            vals, used = _utilities(
                pop, sup, game.payoff_block, np.tile(gid, (len(cands), 1)),
                {j: fill.reshape(game.role_count, -1)}, used, budget,
            )
            totals = _ordered_sum(weights[:, None] * vals[j].reshape(len(cands), -1).T, totals)
        top = int(np.argmax(totals))
        if best_val is None or totals[top] > best_val:
            best_val, best = float(totals[top]), cands[top]
    profile = tuple(acts[a] for acts, a in zip(game.actions, best))
    return BestResponse(llm=j, value=best_val, profile=profile)


def check_equilibrium(
    game: BaseGame,
    pop: Population,
    profile: MetaProfile,
    epsilon: float,
    budget: float = DEFAULT_TERM_BUDGET,
    symmetry: str | None = None,
) -> RegretReport:
    """Regret of every advisor against its best deviation."""
    utilities = llm_utility(game, pop, profile, budget)
    values = []
    deviations = []
    for j in range(pop.llm_count):
        br = best_response(game, pop, profile, j, budget=budget, symmetry=symmetry)
        values.append(br.value)
        deviations.append(br.profile)
    return RegretReport(
        utilities=tuple(utilities),
        best_values=tuple(values),
        best_deviations=tuple(deviations),
        epsilon=epsilon,
    )


def single_role_aggregate(
    game: BaseGame, pop: Population, profile: MetaProfile
) -> StrategyProfile:
    """Aggregate base-game mixed profile when every advisor is single-role."""
    for j in range(pop.llm_count):
        if not pop.is_single_role(j):
            raise NotSingleRoleError(
                f"advisor {j} governs roles {pop.governed_roles(j)}"
            )
    strategies = []
    for i in range(game.role_count):
        masses: dict[str, float] = {}
        for j in range(pop.llm_count):
            p = pop.shares[i][j]
            if p <= 0.0:
                continue
            for prof, prob in profile.actions[j].outcomes:
                for a, mass in prof.action_mass(i).items():
                    masses[a] = masses.get(a, 0.0) + p * prob * mass
        strategies.append(MixedStrategy(i, tuple(masses.items())))
    return StrategyProfile(tuple(strategies))


def meta_bimatrix(
    game: BaseGame, pop: Population
) -> tuple[np.ndarray, np.ndarray, list[tuple[str, ...]]]:
    """Two-advisor meta-game as a bimatrix over pure role-homogeneous profiles."""
    if pop.llm_count != 2:
        raise ValidationError("bimatrix form needs exactly two advisors")
    U = _payoff_tensor(game, pop, DEFAULT_TERM_BUDGET)
    return U[..., 0], U[..., 1], list(game.profiles())


def support_enumeration_bimatrix(
    A: np.ndarray, B: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """All equal-support-size mixed equilibria of a bimatrix game.

    Covers every equilibrium of nondegenerate games; degenerate support pairs
    whose indifference systems are singular are skipped.
    """
    m, n = A.shape
    found: list[tuple[np.ndarray, np.ndarray]] = []
    seen: set = set()
    for size in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                xy = _solve_support(A, B, rows, cols)
                if xy is None:
                    continue
                x, y = xy
                key = (tuple(np.round(x, 9)), tuple(np.round(y, 9)))
                if key not in seen:
                    seen.add(key)
                    found.append((x, y))
    return found


def _solve_support(A, B, rows, cols):
    m, n = A.shape
    size = len(rows)
    # y makes the row player indifferent across `rows`; x the column player
    # across `cols`.
    My = np.zeros((size + 1, size + 1))
    My[:size, :size] = A[np.ix_(rows, cols)]
    My[:size, size] = -1.0
    My[size, :size] = 1.0
    by = np.zeros(size + 1)
    by[size] = 1.0
    Mx = np.zeros((size + 1, size + 1))
    Mx[:size, :size] = B[np.ix_(rows, cols)].T
    Mx[:size, size] = -1.0
    Mx[size, :size] = 1.0
    try:
        sol_y = np.linalg.solve(My, by)
        sol_x = np.linalg.solve(Mx, by)
    except np.linalg.LinAlgError:
        return None
    y_s, v = sol_y[:size], sol_y[size]
    x_s, w = sol_x[:size], sol_x[size]
    if (y_s < -SUPPORT_TOL).any() or (x_s < -SUPPORT_TOL).any():
        return None
    x = np.zeros(m)
    y = np.zeros(n)
    x[list(rows)] = np.clip(x_s, 0.0, None)
    y[list(cols)] = np.clip(y_s, 0.0, None)
    x /= x.sum()
    y /= y.sum()
    if (A @ y).max() > v + SUPPORT_TOL or (x @ B).max() > w + SUPPORT_TOL:
        return None
    return x, y


def base_nash_2p(game: BaseGame) -> list[StrategyProfile]:
    """Mixed Nash equilibria of a two-role base game by support enumeration."""
    if game.role_count != 2:
        raise ValidationError("support enumeration covers two-role games")
    rows, cols = game.actions
    A = np.array([[game.payoff((r, c))[0] for c in cols] for r in rows])
    B = np.array([[game.payoff((r, c))[1] for c in cols] for r in rows])
    out = []
    for x, y in support_enumeration_bimatrix(A, B):
        out.append(
            StrategyProfile(
                (
                    MixedStrategy(0, tuple((a, float(w)) for a, w in zip(rows, x) if w > 0)),
                    MixedStrategy(1, tuple((a, float(w)) for a, w in zip(cols, y) if w > 0)),
                )
            )
        )
    return out


def best_response_iteration(
    game: BaseGame,
    pop: Population,
    start: Sequence[Sequence[str]],
) -> MetaProfile | None:
    """Iterate pure best responses for up to ``BR_ITERATION_ROUNDS`` rounds;
    return the fixed point if one is reached."""
    current = [tuple(p) for p in start]
    for _ in range(BR_ITERATION_ROUNDS):
        changed = False
        for j in range(pop.llm_count):
            profile = MetaProfile.from_pure(current)
            br = best_response(game, pop, profile, j)
            base = llm_utility(game, pop, profile)[j]
            if br.value > base + REGRET_TOL:
                current[j] = br.profile
                changed = True
        if not changed:
            return MetaProfile.from_pure(current)
    return None
