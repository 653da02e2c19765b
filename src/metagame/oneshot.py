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
from .games import BaseGame, MixedStrategy, StrategyProfile, _weighted
from .model import (
    BLOCK_REALIZATIONS,
    DEFAULT_TERM_BUDGET,
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    _block_utilities,
    _check_advisor,
    _check_advisors,
    _grid,
    _payoff_tensor,
    _pure_supports,
    _realization_block,
    _realization_utilities,
    _Terms,
    llm_utility,
)

REGRET_TOL = 1e-9
SUPPORT_TOL = 1e-9  # sign and best-reply slack of support enumeration
ROTATION_SAMPLES = 100  # sampled profiles when checking a rule game's symmetry
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
    if any(acts != labels for acts in game.actions):
        raise ValidationError(
            "label-rotation reduction needs a common action set across roles"
        )
    return labels


def rotation_mapping(game: BaseGame) -> dict[str, str]:
    """Cyclic shift of the common label set (a relabeling-group generator)."""
    labels = _common_labels(game)
    return {labels[i]: labels[(i + 1) % len(labels)] for i in range(len(labels))}


def verify_rotation_symmetry(
    game: BaseGame, profile: MetaProfile | Sequence[MetaAction | None], j: int
) -> None:
    """Check that the game and every opponent of j are rotation-invariant.

    Tabular games are checked exhaustively; rule-backed games on
    ``ROTATION_SAMPLES`` profiles drawn from a fixed seed.  Raises
    ``ValidationError`` on any violation.
    """
    mapping = rotation_mapping(game)
    if game.table is not None:
        for prof in game.profiles():
            permuted = tuple(mapping[a] for a in prof)
            if game.payoff(permuted) != game.payoff(prof):
                raise ValidationError("game payoffs are not rotation-invariant")
    else:
        rng = np.random.default_rng(0)
        labels = game.actions[0]
        for _ in range(ROTATION_SAMPLES):
            prof = tuple(
                labels[rng.integers(len(labels))] for _ in range(game.role_count)
            )
            permuted = tuple(mapping[a] for a in prof)
            if game.payoff(permuted) != game.payoff(prof):
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


def _deviation_candidates(
    game: BaseGame, pop: Population, j: int, reduce_rotations: bool
):
    """Pure deviation profiles in lexicographic order.

    Ungoverned roles are pinned to the first action (payoff-irrelevant for j,
    and the lexicographically smallest completion).  With rotation reduction
    the first governed role is pinned too, yielding one orbit representative.
    """
    governed = pop.governed_roles(j)
    if not governed:
        yield tuple(acts[0] for acts in game.actions)
        return
    free = list(governed)
    if reduce_rotations:
        free.pop(0)
    for combo in itertools.product(*(game.actions[i] for i in free)):
        full = [acts[0] for acts in game.actions]
        for role, a in zip(free, combo):
            full[role] = a
        yield tuple(full)


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
    maximizer up to relabeling.  When each role has one governing advisor
    and every opponent outcome is a pure profile, candidates and opponent
    outcomes are scored in numpy blocks (see :mod:`metagame.model`), with
    the same value and profile to the last bit.
    """
    _check_advisor(pop, j)
    if symmetry not in (None, "rotation"):
        raise ValidationError(f"unknown symmetry reduction {symmetry!r}")
    actions = profile.actions if isinstance(profile, MetaProfile) else tuple(profile)
    _check_advisors(game, pop, actions, skip=j)
    if symmetry == "rotation":
        verify_rotation_symmetry(game, actions, j)

    free = pop.governed_roles(j)[1 if symmetry else 0 :]
    candidates = math.prod(len(game.actions[i]) for i in free)
    # Slot j becomes the single outcome None of weight 1, so each weight is
    # the product over the opponents alone, to the last bit.
    supports = [((None, 1.0),) if q == j else a.outcomes for q, a in enumerate(actions)]
    outcome_combos = math.prod(len(s) for s in supports)
    if candidates * outcome_combos > budget:
        raise BudgetExceededError(candidates * outcome_combos, budget)

    pure = _pure_supports(game, pop, supports)
    if pure is not None:
        return _best_block_response(game, pop, j, free, pure)
    outcomes = list(_weighted(supports))
    terms = _Terms(game, budget)
    best_val = None
    best_profile = None
    for candidate in _deviation_candidates(game, pop, j, symmetry == "rotation"):
        cand_instr = InstructionProfile.pure(candidate)
        total = 0.0
        for w, others in outcomes:
            realization = others[:j] + (cand_instr,) + others[j + 1 :]
            total += w * _realization_utilities(terms, pop, realization)[j]
        if best_val is None or total > best_val:
            best_val = total
            best_profile = candidate
    return BestResponse(llm=j, value=best_val, profile=best_profile)


def _best_block_response(game, pop, j, free, pure) -> BestResponse:
    """:func:`best_response` on the block path: candidates (action indices on
    the ``free`` roles, the rest at index 0) times opponent outcomes, in
    numpy blocks of at most ``BLOCK_REALIZATIONS``.  Each candidate's total
    is summed over the outcomes in order from 0.0 (``np.add.accumulate``
    adds left to right), and the first maximum wins, as in the scalar loop."""
    owners, rows, probs = pure
    sizes = [len(game.actions[i]) for i in free]
    n_cand = math.prod(sizes)
    n_out = math.prod(len(p) for p in probs)
    cand_step = max(1, BLOCK_REALIZATIONS // n_out)
    out_step = min(n_out, BLOCK_REALIZATIONS)
    best_val, best = None, None
    for c0 in range(0, n_cand, cand_step):
        cands = _grid(sizes, c0, min(c0 + cand_step, n_cand))
        totals = np.zeros(len(cands))
        for o0 in range(0, n_out, out_step):
            index, weights = _realization_block(
                owners, rows, probs, o0, min(o0 + out_step, n_out)
            )
            index = np.repeat(index[None], len(cands), axis=0)
            index[:, :, list(free)] = cands[:, None, :]
            vals = _block_utilities(
                pop, game.payoff_block(index.reshape(-1, len(owners)))
            )[:, j]
            weighted = weights * vals.reshape(len(cands), -1)
            totals = np.add.accumulate(
                np.concatenate([totals[:, None], weighted], axis=1), axis=1
            )[:, -1]
        top = int(np.argmax(totals))
        if best_val is None or totals[top] > best_val:
            best_val, best = float(totals[top]), cands[top]
    profile = [acts[0] for acts in game.actions]
    for i, a in zip(free, best):
        profile[i] = game.actions[i][a]
    return BestResponse(llm=j, value=best_val, profile=tuple(profile))


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
