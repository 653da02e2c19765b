"""The scalar per-realization evaluator, kept as the reference the numpy
kernel in ``metagame.model`` is compared against bit for bit.

``_Terms``, ``_role_value`` and ``_realization_utilities`` are the
library's former scalar path, unchanged: each joint realization is summed
one payoff term at a time, a one-profile realization reading one payoff
vector and any other summing, per governed (advisor, role) and instructed
strategy, the strategy against the other roles' first-named aggregate slots.
The ``loop_*`` functions walk joint realizations through it in the order
``llm_utility``, ``best_response`` and the payoff tensor use.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from metagame.errors import BudgetExceededError
from metagame.games import BaseGame, MixedStrategy, _weighted
from metagame.model import InstructionProfile, Population, _role_masses


@dataclass(slots=True)
class _Terms:
    """The payoff memo, term count and term budget of one evaluation.

    ``memo`` maps a pure profile to its payoff vector; ``used`` counts the
    payoff terms summed so far, and :meth:`spend` raises
    :class:`BudgetExceededError` once it passes ``budget``."""

    game: BaseGame
    budget: float = math.inf
    memo: dict = field(default_factory=dict)
    used: int = 0

    def spend(self, n: int) -> None:
        self.used += n
        if self.used > self.budget:
            raise BudgetExceededError(self.used, self.budget)

    def payoff(self, profile: tuple[str, ...]) -> tuple[float, ...]:
        pay = self.memo.get(profile)
        if pay is None:
            pay = self.memo[profile] = self.game.payoff(profile)
        return pay


def _role_value(
    terms: _Terms,
    role: int,
    strategy: MixedStrategy,
    tots: Sequence[dict[str, float]],
) -> float:
    """Expected payoff of a role-``role`` client playing ``strategy`` while every
    other role's action is drawn from the population aggregate."""
    per_role = [
        strategy.weights if r == role else tuple(tots[r].items())
        for r in range(terms.game.role_count)
    ]
    terms.spend(math.prod(len(x) for x in per_role))
    total = 0.0
    for w, key in _weighted(per_role):
        total += w * terms.payoff(key)[role]
    return total


def _realization_utilities(
    terms: _Terms,
    pop: Population,
    realization: Sequence[InstructionProfile],
) -> list[float]:
    """Each advisor's utility at one joint realization, whose advisor and
    role counts the caller has checked against ``pop``."""
    m = terms.game.role_count
    k = pop.llm_count
    shares = pop.shares

    # Fast path: every instruction is pure and, per role, all governing
    # advisors prescribe the same action, so every instance plays one profile.
    pures = [inst.pure_profile for inst in realization]
    if None not in pures:
        joint: list[str] = []
        for i in range(m):
            row = shares[i]
            ai = None
            for q in range(k):
                if row[q] > 0.0:
                    cand = pures[q][i]
                    if ai is None:
                        ai = cand
                    elif cand != ai:
                        ai = None
                        break
            if ai is None:
                break
            joint.append(ai)
        else:
            pay = terms.payoff(tuple(joint))
            terms.spend(1)
            return [
                sum(shares[i][j] * pay[i] for i in range(m) if shares[i][j] > 0.0)
                for j in range(k)
            ]

    tots = _role_masses(pop, realization)
    out = [0.0] * k
    for j in range(k):
        uj = 0.0
        for i in range(m):
            pij = shares[i][j]
            if pij <= 0.0:
                continue
            for strat, frac in realization[j].assignments[i]:
                uj += pij * frac * _role_value(terms, i, strat, tots)
        out[j] = uj
    return out


# ------------------------------------------------------- walks over realizations


class RecordingTerms(_Terms):
    """``_Terms`` that notes the running count at every budget check."""

    def __init__(self, game, budget=math.inf):
        super().__init__(game, budget)
        self.checks = []

    def spend(self, n):
        self.checks.append(self.used + n)
        super().spend(n)


def loop_needed(checks, budget):
    """The loop's ``BudgetExceededError.needed`` at ``budget``, given its
    running counts at every check, or ``None`` when the loop finishes."""
    at = bisect.bisect_right(checks, budget)
    return checks[at] if at < len(checks) else None


def loop_llm_utility(game, pop, profile, terms):
    """Neumaier sums of ``_realization_utilities`` over the joint
    realizations of ``profile`` (a meta-profile or one realization), one
    Python step per realization, as ``llm_utility`` summed them."""
    mixed = not isinstance(profile, (tuple, list))
    supports = [a.outcomes for a in profile.actions] if mixed else [((a, 1.0),) for a in profile]
    combos = math.prod(map(len, supports))
    if combos > terms.budget:
        raise BudgetExceededError(combos, terms.budget)
    k = pop.llm_count
    s, c = [0.0] * k, [0.0] * k
    for weight, realization in _weighted(supports):
        vals = _realization_utilities(terms, pop, realization)
        for j in range(k):
            x = weight * vals[j]
            t = s[j] + x
            if abs(s[j]) >= abs(x):
                c[j] += (s[j] - t) + x
            else:
                c[j] += (x - t) + s[j]
            s[j] = t
    return tuple(s[j] + c[j] for j in range(k))


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


def loop_best_response(game, pop, actions, j, terms, rotation=False):
    """(value, profile) of the first best pure deviation of advisor ``j``
    against ``actions`` (slot j ignored), one ``_realization_utilities``
    call per candidate and opponent outcome, candidates outermost."""
    supports = [((None, 1.0),) if q == j else a.outcomes for q, a in enumerate(actions)]
    free = pop.governed_roles(j)[1 if rotation else 0 :]
    candidates = math.prod(len(game.actions[i]) for i in free)
    combos = candidates * math.prod(len(s) for s in supports)
    if combos > terms.budget:
        raise BudgetExceededError(combos, terms.budget)
    outcomes = list(_weighted(supports))
    best = None
    for candidate in _deviation_candidates(game, pop, j, rotation):
        instr = InstructionProfile.pure(candidate)
        total = 0.0
        for w, others in outcomes:
            realization = others[:j] + (instr,) + others[j + 1 :]
            total += w * _realization_utilities(terms, pop, realization)[j]
        if best is None or total > best[0]:
            best = (total, candidate)
    return best


def loop_payoff_tensor(game, pop, terms):
    """The tensor one realization at a time through ``_realization_utilities``."""
    n = game.num_profiles
    k = pop.llm_count
    pure = [InstructionProfile.pure(p) for p in game.profiles()]
    U = np.empty((n,) * k + (k,))
    for idx in itertools.product(range(n), repeat=k):
        U[idx] = _realization_utilities(terms, pop, tuple(pure[a] for a in idx))
    return U
