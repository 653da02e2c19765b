"""Client populations, meta-actions, and advisor utilities.

The strategic actors are k advisors; advisor j governs a fraction
``shares[i][j]`` of the role-i client population.  A deterministic meta-action
(:class:`InstructionProfile`) tells each governed client what strategy to
play, possibly splitting a role's clients across several strategies.  A
:class:`MetaAction` is a finite-support mixture over instruction profiles.

Because clients are matched into game instances uniformly at random and
governance is independent across roles, an advisor's aggregate utility
factorizes: a role-i client of advisor j plays its own instructed strategy
against the population-average action mass of every other role.
:func:`llm_utility` evaluates that product form exactly;
``tests/oracles.py`` re-derives the same numbers by brute-force enumeration
of governance vectors.

Every exact evaluation (a utility, a payoff tensor, a best reply, a
simulated run) creates one ``_Terms``: its payoff memo, the number of
payoff terms summed so far and the budget that number may not pass.

When every role has exactly one governing advisor, every outcome read is a
pure profile and the game has :meth:`~metagame.games.BaseGame.payoff_block`,
each joint realization plays one pure profile.  :func:`llm_utility` and
:func:`metagame.oneshot.best_response` then evaluate realizations in numpy
blocks of at most ``BLOCK_REALIZATIONS`` (:func:`_pure_supports`,
:func:`_realization_block`, :func:`_block_utilities`), with the same float
operations in the same order as the scalar path, so the results agree bit for
bit.  Any other input takes the scalar path.

The payoff tensor behind the vertices, the punishments and ``minmax``
(:func:`_payoff_tensor`) covers shared roles as well: it reads the n pure
payoff vectors once and evaluates the n^k pure realizations in numpy blocks,
one-profile realizations as the fast path sums them and the others from
per-role aggregate slots as :func:`_role_value` sums them, so it too equals
the per-realization loop bit for bit and stops at the same term count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    UndefinedAverageError,
    ValidationError,
)
from .games import BaseGame, MixedStrategy, PROB_TOL, _weighted

DEFAULT_TERM_BUDGET = 10**7

# Pure realizations per numpy block; bounds the block path's memory to a few
# megabytes whatever the number of realizations.
BLOCK_REALIZATIONS = 1 << 13

AGGREGATE_TOL = 1e-9


@dataclass(frozen=True)
class Population:
    """Governance shares: ``shares[i][j]`` is the role-i fraction under advisor j.

    Each row must sum to 1 within ``PROB_TOL``; it is stored divided by its sum.
    """

    shares: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(p) for p in row) for row in self.shares)
        if not rows:
            raise ValidationError("population needs at least one role")
        k = len(rows[0])
        if k < 1:
            raise ValidationError("population needs at least one advisor")
        for i, row in enumerate(rows):
            if len(row) != k:
                raise ValidationError("share rows have inconsistent advisor counts")
            for p in row:
                if not math.isfinite(p):
                    raise ValidationError(f"non-finite share {p} in role {i}")
                if p < 0.0:
                    raise ValidationError(f"negative share {p} in role {i}")
            if abs(sum(row) - 1.0) > PROB_TOL:
                raise ValidationError(
                    f"role {i} shares sum to {sum(row)}, expected 1"
                )
        # One definition of the shares: a row within the tolerance of 1 is
        # scaled to sum to 1, so every form of the utilities weighs it alike.
        rows = tuple(tuple(p / s for p in row) for row, s in zip(rows, map(sum, rows)))
        object.__setattr__(self, "shares", rows)

    @property
    def role_count(self) -> int:
        return len(self.shares)

    @property
    def llm_count(self) -> int:
        return len(self.shares[0])

    def governed_mass(self, j: int) -> float:
        return sum(row[j] for row in self.shares)

    def governed_roles(self, j: int) -> tuple[int, ...]:
        return tuple(i for i, row in enumerate(self.shares) if row[j] > 0.0)

    def is_single_role(self, j: int) -> bool:
        return len(self.governed_roles(j)) <= 1

    def to_dict(self) -> dict:
        return {"shares": [list(row) for row in self.shares]}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Population":
        return cls(tuple(tuple(row) for row in doc["shares"]))


@dataclass(frozen=True)
class InstructionProfile:
    """Deterministic meta-action: per role, a split of clients across strategies.

    ``assignments[i]`` lists ``(strategy, fraction)`` pairs; fractions are the
    shares of the advisor's role-i clients receiving each strategy and sum
    to 1.

    The hash is computed on the first ``hash()`` call and then kept on the
    object; like every ``str`` hash it is per-process, so the cached value
    must not travel to another process.  Equality tests identity first.
    """

    assignments: tuple[tuple[tuple[MixedStrategy, float], ...], ...]

    def __post_init__(self):
        canon = []
        for i, entries in enumerate(self.assignments):
            merged: dict[MixedStrategy, float] = {}
            for strat, frac in entries:
                frac = float(frac)
                if not math.isfinite(frac):
                    raise ValidationError(f"non-finite fraction {frac} in role {i}")
                if strat.role != i:
                    raise ValidationError(
                        f"instruction for role {i} uses a role-{strat.role} strategy"
                    )
                if frac < -PROB_TOL:
                    raise ValidationError(f"negative fraction {frac} in role {i}")
                if frac > 0.0:
                    merged[strat] = merged.get(strat, 0.0) + frac
            total = sum(merged.values())
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError(
                    f"role-{i} instruction fractions sum to {total}, expected 1"
                )
            canon.append(tuple(sorted(merged.items(), key=lambda kv: kv[0].weights)))
        object.__setattr__(self, "assignments", tuple(canon))
        # Derived values, filled on first use: action masses by role, the
        # pure profile and the hash.
        object.__setattr__(self, "_cache", {})

    def __hash__(self) -> int:
        cache = self._cache  # type: ignore[attr-defined]
        h = cache.get("hash")
        if h is None:
            h = cache["hash"] = hash((self.assignments,))
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.assignments == other.assignments

    @property
    def role_count(self) -> int:
        return len(self.assignments)

    @classmethod
    def pure(cls, profile: Sequence[str]) -> "InstructionProfile":
        """Every role-i client plays the single action ``profile[i]``."""
        return cls(
            tuple(
                ((MixedStrategy.point_mass(i, a), 1.0),)
                for i, a in enumerate(profile)
            )
        )

    @classmethod
    def homogeneous(cls, strategies: Sequence[MixedStrategy]) -> "InstructionProfile":
        """All role-i clients receive the same (possibly mixed) strategy."""
        return cls(tuple(((s, 1.0),) for s in strategies))

    def action_mass(self, role: int) -> dict[str, float]:
        """Induced action distribution of a random role-``role`` client."""
        cache = self._cache  # type: ignore[attr-defined]
        row = cache.get(role)
        if row is None:
            row = {}
            for strat, frac in self.assignments[role]:
                for a, w in strat.weights:
                    row[a] = row.get(a, 0.0) + frac * w
            cache[role] = row
        return row

    @property
    def pure_profile(self) -> tuple[str, ...] | None:
        """The pure action profile, if every role is a point mass on one action."""
        cache = self._cache  # type: ignore[attr-defined]
        if "pure" not in cache:
            out = []
            for entries in self.assignments:
                if len(entries) != 1:
                    out = None
                    break
                a = entries[0][0].pure_action
                if a is None:
                    out = None
                    break
                out.append(a)
            cache["pure"] = tuple(out) if out is not None else None
        return cache["pure"]

    @property
    def sort_key(self):
        return tuple(
            tuple((s.weights, f) for s, f in entries) for entries in self.assignments
        )

    def to_dict(self) -> list:
        return [
            [{"weights": dict(s.weights), "fraction": f} for s, f in entries]
            for entries in self.assignments
        ]

    @classmethod
    def from_dict(cls, doc: Sequence) -> "InstructionProfile":
        return cls(
            tuple(
                tuple(
                    (MixedStrategy.from_weights(i, e["weights"]), e["fraction"])
                    for e in entries
                )
                for i, entries in enumerate(doc)
            )
        )


@lru_cache(maxsize=4096)
def _pure_instruction(labels: tuple[str, ...]) -> InstructionProfile:
    """The one shared :meth:`InstructionProfile.pure` object of ``labels``."""
    return InstructionProfile.pure(labels)


@dataclass(frozen=True)
class MetaAction:
    """Finite-support mixture over instruction profiles."""

    outcomes: tuple[tuple[InstructionProfile, float], ...]

    def __post_init__(self):
        merged: dict[InstructionProfile, float] = {}
        for prof, prob in self.outcomes:
            prob = float(prob)
            if not math.isfinite(prob):
                raise ValidationError(f"non-finite outcome probability {prob}")
            if prob < -PROB_TOL:
                raise ValidationError(f"negative outcome probability {prob}")
            if prob > 0.0:
                merged[prof] = merged.get(prof, 0.0) + prob
        total = sum(merged.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"outcome probabilities sum to {total}, expected 1")
        roles = {p.role_count for p in merged}
        if len(roles) > 1:
            raise ValidationError("outcomes disagree on role count")
        object.__setattr__(
            self,
            "outcomes",
            tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key)),
        )

    @property
    def role_count(self) -> int:
        return self.outcomes[0][0].role_count

    @classmethod
    def deterministic(cls, instruction: InstructionProfile) -> "MetaAction":
        return cls(((instruction, 1.0),))

    @classmethod
    def from_pure(cls, profile: Sequence[str]) -> "MetaAction":
        return cls.deterministic(InstructionProfile.pure(profile))

    @classmethod
    def uniform_over_pure(cls, profiles: Iterable[Sequence[str]]) -> "MetaAction":
        profs = [InstructionProfile.pure(p) for p in profiles]
        w = 1.0 / len(profs)
        return cls(tuple((p, w) for p in profs))

    def is_role_homogeneous(self) -> bool:
        return all(prof.pure_profile is not None for prof, _ in self.outcomes)

    def to_dict(self) -> list:
        return [
            {"probability": prob, "instruction": prof.to_dict()}
            for prof, prob in self.outcomes
        ]

    @classmethod
    def from_dict(cls, doc: Sequence) -> "MetaAction":
        return cls(
            tuple(
                (InstructionProfile.from_dict(e["instruction"]), e["probability"])
                for e in doc
            )
        )


@dataclass(frozen=True)
class MetaProfile:
    """One meta-action per advisor."""

    actions: tuple[MetaAction, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ValidationError("meta-profile needs at least one advisor")
        roles = {a.role_count for a in self.actions}
        if len(roles) > 1:
            raise ValidationError("advisors disagree on role count")

    @property
    def llm_count(self) -> int:
        return len(self.actions)

    @classmethod
    def from_pure(cls, profiles: Sequence[Sequence[str]]) -> "MetaProfile":
        return cls(tuple(MetaAction.from_pure(p) for p in profiles))

    def replace(self, j: int, action: MetaAction) -> "MetaProfile":
        acts = list(self.actions)
        acts[j] = action
        return MetaProfile(tuple(acts))

    def to_dict(self) -> list:
        return [a.to_dict() for a in self.actions]

    @classmethod
    def from_dict(cls, doc: Sequence) -> "MetaProfile":
        return cls(tuple(MetaAction.from_dict(a) for a in doc))


@dataclass(frozen=True)
class AggregateTable:
    """Public per-(role, action) population masses, rows in game action order."""

    masses: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.masses)
        object.__setattr__(self, "masses", rows)
        for i, row in enumerate(rows):
            if abs(sum(row) - 1.0) > AGGREGATE_TOL:
                raise ValidationError(
                    f"role-{i} aggregate masses sum to {sum(row)}, expected 1"
                )

    def mass(self, role: int, action_index: int) -> float:
        return self.masses[role][action_index]

    def max_diff(self, other: "AggregateTable") -> float:
        if len(self.masses) != len(other.masses):
            raise ValidationError("aggregate tables have different role counts")
        worst = 0.0
        for row_a, row_b in zip(self.masses, other.masses):
            if len(row_a) != len(row_b):
                raise ValidationError("aggregate tables have different action counts")
            for a, b in zip(row_a, row_b):
                d = abs(a - b)
                if d > worst:
                    worst = d
        return worst

    def to_dict(self) -> list:
        return [list(row) for row in self.masses]


def _check_advisor(pop: Population, j: int) -> None:
    """Raise :class:`ValidationError` unless ``0 <= j < k``."""
    if not 0 <= j < pop.llm_count:
        raise ValidationError(f"advisor j = {j} must lie in [0, {pop.llm_count})")


def _check_advisors(
    game: BaseGame, pop: Population, advisors: Sequence, skip: int | None = None
) -> None:
    """Raise :class:`ValidationError` unless ``game`` and ``pop`` have the
    same roles and ``advisors`` holds one entry per advisor of ``pop``, each
    but ``skip`` instructing those roles."""
    if pop.role_count != game.role_count:
        raise ValidationError("population and game disagree on role count")
    if len(advisors) != pop.llm_count:
        raise ValidationError(
            f"{len(advisors)} advisors given, population has {pop.llm_count}"
        )
    for j, advisor in enumerate(advisors):
        if j != skip and advisor.role_count != pop.role_count:
            raise ValidationError(
                f"advisor {j} instructions cover {advisor.role_count} roles, "
                f"population has {pop.role_count}"
            )


def _role_masses(
    pop: Population,
    realization: Sequence[InstructionProfile],
    skip: int | None = None,
) -> list[dict[str, float]]:
    """Per role, the share-weighted action masses of every advisor but
    ``skip``.  Each mass is summed from 0.0 over advisors in index order, so
    every caller gets the same float."""
    out = []
    for i, row in enumerate(pop.shares):
        masses: dict[str, float] = {}
        for q, p in enumerate(row):
            if p <= 0.0 or q == skip:
                continue
            for a, mass in realization[q].action_mass(i).items():
                masses[a] = masses.get(a, 0.0) + p * mass
        out.append(masses)
    return out


def aggregate_mass(
    game: BaseGame,
    pop: Population,
    realization: Sequence[InstructionProfile],
) -> AggregateTable:
    """Public aggregate action masses induced by one realized instruction per
    advisor; an action the game lacks raises :class:`InvalidProfileError`."""
    _check_advisors(game, pop, realization)
    rows = []
    for i, masses in enumerate(_role_masses(pop, realization)):
        row = [0.0] * len(game.actions[i])
        for a, mass in masses.items():
            row[game.action_index(i, a)] = mass
        rows.append(tuple(row))
    return AggregateTable(tuple(rows))


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


def _payoff_tensor(game: BaseGame, pop: Population, budget: float) -> np.ndarray:
    """``U[a_0, ..., a_{k-1}, j]``: advisor j's utility when each advisor q
    instructs the pure profile with index ``a_q`` in ``game.profiles()`` order.

    Equal, bit for bit, to :func:`_realization_utilities` of each pure
    realization, and built in numpy blocks of at most
    ``BLOCK_REALIZATIONS`` realizations in product order from the n payoff
    vectors, read once.  A realization in which every governing advisor
    names the same action on every role plays one profile: advisor j's
    utility is ``shares[i][j] * pay[i]`` summed over its roles in role order
    from 0.0, as on the scalar fast path.  In any other realization each
    role's aggregate has one slot per distinct named action, in the order
    the advisors first name it, holding the shares of its advisors summed in
    index order (:func:`_role_masses`).  For each role i that advisor j
    governs, the value of j's role-i action against the other roles' slots
    sums ``w * pay[..., i]`` over slot combinations in product order from
    0.0, with ``w`` the slot masses multiplied left to right
    (:func:`_role_value`); padded slots are masked out and add no term.
    Advisor j's utility sums ``shares[i][j] * value`` over its roles in role
    order from 0.0.

    Raises :class:`BudgetExceededError` before building anything when the
    n^k realizations exceed ``budget``.  Otherwise the terms are counted as
    the scalar path counts them, 1 for a one-profile realization and, for
    each (j, i), the product of the other roles' slot counts: the error is
    raised with the first running count, in product order, that passes
    ``budget``.
    """
    n = game.num_profiles
    k = pop.llm_count
    if n**k > budget:
        raise BudgetExceededError(n**k, budget)
    sizes = tuple(len(a) for a in game.actions)
    m = len(sizes)
    pay = np.array([game.payoff(p) for p in game.profiles()], dtype=float)
    pay = pay.reshape(sizes + (m,))
    named_by = _grid(sizes, 0, n)  # profile index -> action index per role
    shares = pop.shares
    governing = [[q for q, p in enumerate(row) if p > 0.0] for row in shares]
    U = np.empty((n,) * k + (k,))
    flat = U.reshape(-1, k)
    used = 0
    for start in range(0, n**k, BLOCK_REALIZATIONS):
        stop = min(start + BLOCK_REALIZATIONS, n**k)
        named = named_by[_grid((n,) * k, start, stop)]  # (B, k, m)
        lead = named[:, [g[0] for g in governing], range(m)]  # (B, m)
        one = np.ones(stop - start, dtype=bool)
        for i, g in enumerate(governing):
            for q in g[1:]:
                one &= named[:, q, i] == lead[:, i]
        vals = np.empty((stop - start, k))
        vals[one] = _block_utilities(pop, pay[tuple(lead[one].T)])
        vals[~one], counts = _mixed_utilities(pop, pay, governing, named[~one])
        terms = np.ones(stop - start, dtype=np.int64)
        terms[~one] = counts.sum(axis=1)
        running = used + np.cumsum(terms)
        if running[-1] > budget:
            # The scalar path checks after each (advisor, role) increment:
            # replay the increments of the first row that passes the budget.
            b = int(np.argmax(running > budget))
            used = int(running[b] - terms[b])
            row = [1] if one[b] else counts[int(np.sum(~one[:b]))].tolist()
            for c in row:
                used += c
                if used > budget:
                    raise BudgetExceededError(used, budget)
        used = int(running[-1])
        flat[start:stop] = vals
    return U


def _mixed_utilities(
    pop: Population,
    pay: np.ndarray,
    governing: Sequence[Sequence[int]],
    named: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """For the ``(S, k, m)`` action indices ``named`` of S pure realizations
    that play more than one profile: the ``(S, k)`` advisor utilities, summed
    as :func:`_payoff_tensor` describes, and the ``(S, P)`` term counts of
    the P governed (advisor, role) pairs in (advisor, role) order."""
    S, k, m = named.shape
    rows = np.arange(S)
    slots, counts = [], []  # per role: (actions, masses, valid) and slot counts
    for r, g in enumerate(governing):
        width = min(len(g), pay.shape[r])
        act = np.zeros((S, width), dtype=np.intp)
        mass = np.zeros((S, width))
        count = np.zeros(S, dtype=np.intp)
        for q in g:
            a = named[:, q, r]
            s = count.copy()  # a new slot, unless an earlier advisor named a
            for u in range(width):
                s = np.where((u < count) & (act[:, u] == a), u, s)
            act[rows, s] = a
            mass[rows, s] += pop.shares[r][q]
            count += s == count
        slots.append((act, mass, np.arange(width) < count[:, None]))
        counts.append(count)
    out = np.zeros((S, k))
    pair_counts = []
    for j in range(k):
        for i in range(m):
            p = pop.shares[i][j]
            if p <= 0.0:
                continue
            terms = np.ones(S, dtype=np.int64)
            for r in range(m):
                if r != i:
                    terms *= counts[r]
            pair_counts.append(terms)
            value = np.zeros(S)
            widths = [1 if r == i else slots[r][0].shape[1] for r in range(m)]
            for combo in itertools.product(*map(range, widths)):
                w = np.ones(S)
                live = np.ones(S, dtype=bool)
                index = []
                for r, s in enumerate(combo):
                    if r == i:
                        index.append(named[:, j, i])
                        continue
                    act, mass, valid = slots[r]
                    w = w * mass[:, s]
                    live &= valid[:, s]
                    index.append(act[:, s])
                term = w * pay[(*index, i)]
                value = np.where(live, value + term, value)
            out[:, j] += p * value
    return out, np.stack(pair_counts, axis=1)


def _pure_supports(
    game: BaseGame,
    pop: Population,
    supports: Sequence[Sequence[tuple[InstructionProfile | None, float]]],
) -> tuple[list[int], list[np.ndarray], list[np.ndarray]] | None:
    """The inputs of :func:`_realization_block`, or ``None`` when the block
    path does not apply.

    It applies when every role has one governing advisor, every outcome in
    ``supports`` is a pure profile and the game has a block payoff.  A
    ``None`` outcome is a placeholder whose roles the caller fills in.
    Returns each role's owner and, per advisor, its outcomes' action indices
    on the roles it owns (one row per outcome) and their probabilities.  An
    owned label the game lacks raises :class:`InvalidProfileError`."""
    owners = []
    for row in pop.shares:
        governing = [q for q, p in enumerate(row) if p > 0.0]
        if len(governing) != 1:
            return None
        owners.append(governing[0])
    if not game.has_payoff_block or any(
        prof is not None and prof.pure_profile is None
        for support in supports
        for prof, _ in support
    ):
        return None
    rows, probs = [], []
    for q, support in enumerate(supports):
        index = np.zeros((len(support), len(owners)), dtype=np.intp)
        for o, (prof, _) in enumerate(support):
            if prof is not None:
                for i, owner in enumerate(owners):
                    if owner == q:
                        index[o, i] = game.action_index(i, prof.pure_profile[i])
        rows.append(index)
        probs.append(np.array([prob for _, prob in support]))
    return owners, rows, probs


def _grid(sizes: Sequence[int], start: int, stop: int) -> np.ndarray:
    """Entries ``start .. stop - 1`` of ``itertools.product(*map(range,
    sizes))`` as a ``(stop - start, len(sizes))`` index array."""
    flat = np.arange(start, stop)
    out = np.empty((stop - start, len(sizes)), dtype=np.intp)
    for col in range(len(sizes) - 1, -1, -1):
        flat, out[:, col] = np.divmod(flat, sizes[col])
    return out


def _realization_block(
    owners: Sequence[int],
    rows: Sequence[np.ndarray],
    probs: Sequence[np.ndarray],
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint realizations ``start .. stop - 1`` of the product of the
    advisors' outcomes, in :func:`games._weighted` order: the ``(B, m)``
    action indices each plays and the ``(B,)`` weights, each a product taken
    left to right from 1.0 as ``_weighted`` takes it."""
    pick = _grid([len(p) for p in probs], start, stop)
    weights = np.ones(stop - start)
    for q, p in enumerate(probs):
        weights *= p[pick[:, q]]
    index = np.empty((stop - start, len(owners)), dtype=np.intp)
    for i, q in enumerate(owners):
        index[:, i] = rows[q][pick[:, q], i]
    return index, weights


def _block_utilities(pop: Population, pay: np.ndarray) -> np.ndarray:
    """``(B, k)`` advisor utilities at B pure profiles whose ``(B, m)``
    payoff vectors are ``pay``: advisor j's is ``shares[i][j] * pay[:, i]``
    summed over the roles it governs, in role order from 0.0, as the scalar
    fast path of :func:`_realization_utilities` sums it."""
    out = np.zeros((len(pay), pop.llm_count))
    for i, row in enumerate(pop.shares):
        for j, p in enumerate(row):
            if p > 0.0:
                out[:, j] += p * pay[:, i]
    return out


def _neumaier(s: float, c: float, xs: np.ndarray) -> tuple[float, float]:
    """The Neumaier sum ``s`` and compensation ``c`` after adding the terms
    ``xs`` in order.  ``np.add.accumulate`` adds left to right, so the
    running sums, the compensation terms and their sum are the floats of the
    textbook loop ``t = s + x; c += (s - t) + x if |s| >= |x| else (x - t)
    + s; s = t``."""
    run = np.add.accumulate(np.concatenate(([s], xs)))
    prev, t = run[:-1], run[1:]
    comp = np.where(np.abs(prev) >= np.abs(xs), (prev - t) + xs, (xs - t) + prev)
    return float(run[-1]), float(np.add.accumulate(np.concatenate(([c], comp)))[-1])


def llm_utility(
    game: BaseGame,
    pop: Population,
    profile: MetaProfile | Sequence[InstructionProfile],
    budget: float = DEFAULT_TERM_BUDGET,
) -> tuple[float, ...]:
    """Aggregate expected utility of each advisor's governed clients.

    Accepts a (possibly mixed) :class:`MetaProfile` or a single joint
    realization.  Exact at desk scale; raises :class:`BudgetExceededError`
    when the enumeration would exceed ``budget`` payoff terms.  Each
    advisor's total is a Neumaier-compensated sum over the joint
    realizations in product order.  When each role has one governing
    advisor and every outcome is a pure profile, the realizations are
    evaluated in numpy blocks (see the module docstring), with the same
    result to the last bit.
    """
    mixed = isinstance(profile, MetaProfile)
    advisors = profile.actions if mixed else tuple(profile)
    _check_advisors(game, pop, advisors)
    # A joint realization is a profile whose every advisor has one outcome.
    supports = [a.outcomes if mixed else ((a, 1.0),) for a in advisors]
    combos = math.prod(map(len, supports))
    if combos > budget:
        raise BudgetExceededError(combos, budget)
    k = pop.llm_count
    s = [0.0] * k
    c = [0.0] * k
    pure = _pure_supports(game, pop, supports)
    if pure is not None:
        for start in range(0, combos, BLOCK_REALIZATIONS):
            stop = min(start + BLOCK_REALIZATIONS, combos)
            index, weights = _realization_block(*pure, start, stop)
            vals = _block_utilities(pop, game.payoff_block(index))
            for j in range(k):
                s[j], c[j] = _neumaier(s[j], c[j], weights * vals[:, j])
        return tuple(s[j] + c[j] for j in range(k))
    terms = _Terms(game, budget)
    # Inline Neumaier-compensated accumulation: joint supports can run to
    # millions of realizations and the golden comparisons sit at 1e-9.
    # Kept apart from _neumaier: through its numpy calls, llm_utility of one
    # heist realization took about 1.6 times as long.
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


def average_utility(
    game: BaseGame,
    pop: Population,
    profile: MetaProfile | Sequence[InstructionProfile],
    llm: int,
) -> float:
    """Per-client average utility of advisor ``llm``."""
    _check_advisor(pop, llm)
    mass = pop.governed_mass(llm)
    if mass <= 0.0:
        raise UndefinedAverageError(f"advisor {llm} governs zero client mass")
    return llm_utility(game, pop, profile)[llm] / mass


def reduce_role_homogeneous(action: MetaAction) -> MetaAction:
    """Collapse an arbitrary meta-action to its role-homogeneous equivalent.

    Client-level randomization and within-role splits both induce, per role,
    an action distribution for a randomly matched client; drawing one action
    per role from those distributions and instructing it uniformly yields the
    same distribution over realized pure profiles, hence the same payoffs for
    every advisor.
    """
    masses: dict[tuple[str, ...], float] = {}
    for prof, prob in action.outcomes:
        per_role = [tuple(prof.action_mass(i).items()) for i in range(prof.role_count)]
        for w, key in _weighted(per_role, prob):
            masses[key] = masses.get(key, 0.0) + w
    return MetaAction(
        tuple(
            (InstructionProfile.pure(profile), w)
            for profile, w in sorted(masses.items())
        )
    )
