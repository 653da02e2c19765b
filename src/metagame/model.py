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

One numpy kernel, :func:`_utilities`, sums the advisors' utilities at a
block of joint realizations (one instruction per advisor).  Each
(advisor, role) contributes a weighted support (:class:`_Supports`): its
action masses to the role's aggregate, its instructed strategies to its own
value.  A realization in which every instruction is a pure profile and each
role's governing advisors name one action plays one profile
(:func:`_block_utilities`); any other values each governed (advisor, role,
strategy) against the other roles' first-named aggregate slots
(:func:`_mixed_utilities`).  Payoffs are read through
:meth:`~metagame.games.BaseGame.payoff_block`.

:func:`llm_utility` sums a meta-profile's realizations,
:func:`metagame.oneshot.best_response` each pure deviation against the
opponents' outcomes, and :func:`_payoff_tensor` every pure realization, in
blocks of at most ``BLOCK_REALIZATIONS``.  Each counts a block's payoff
terms against a budget before it reads any of them, and raises
:class:`BudgetExceededError` at the first running count that passes it, so
no product past the budget is built.  The float operations and their order are
those of the per-realization loop kept in ``tests/scalar_reference.py``, so
the results and the counts agree with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# Realizations per numpy block, and about the payoff terms per chunk of a
# product; bounds the kernel's memory to a few megabytes whatever the number
# of realizations or the size of a product.
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
        profs = [_pure_instruction(tuple(p)) for p in profiles]
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
class _Supports:
    """The advisors' outcomes as the padded arrays the kernel gathers from.

    Advisor q has ``sizes[q]`` outcomes; its outcome o is entry
    ``start[q] + o``, on the entry axis of every array, of probability
    ``prob[start[q] + o]``, and ``pure`` marks the pure profiles.  Per role
    r, for an entry whose advisor governs r (zero counts elsewhere):

    * ``items``: its action masses times the advisor's role-r share, in
      :meth:`InstructionProfile.action_mass` order, as ``(m, N, w)`` action
      indices and masses and ``(m, N)`` counts (role first, so that a role's
      items gather as rows);
    * ``strategies``: its instructed strategies as ``(N, m, T, E)`` action
      indices and weights, ``(N, m, T)`` support sizes (0 past its last
      strategy) and ``(N, m, T)`` fractions times the share.
    """

    sizes: list[int]
    start: np.ndarray
    prob: np.ndarray
    pure: np.ndarray
    items: tuple[np.ndarray, np.ndarray, np.ndarray]
    strategies: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    governing: list[list[int]]


def _supports(
    game: BaseGame,
    pop: Population,
    supports: Sequence[Sequence[tuple[InstructionProfile, float]]],
) -> _Supports:
    """The :class:`_Supports` of ``supports[q]``, advisor q's outcomes.  A
    label the game lacks on a governed role raises
    :class:`InvalidProfileError`; other roles' labels are never read."""
    items, strats, pure = [], [], []
    for q, support in enumerate(supports):
        roles = pop.governed_roles(q)
        for prof, _ in support:
            o = len(pure)
            pure.append(prof.pure_profile is not None)
            for r in roles:
                p = pop.shares[r][q]
                items += [
                    (r, o, u, game.action_index(r, a), p * x)
                    for u, (a, x) in enumerate(prof.action_mass(r).items())
                ]
                strats += [
                    (o, r, t, e, game.action_index(r, a), w, p * frac)
                    for t, (strat, frac) in enumerate(prof.assignments[r])
                    for e, (a, w) in enumerate(strat.weights)
                ]
    it, st = np.array(items).T, np.array(strats).T
    at, sat = tuple(it[:3].astype(np.intp)), tuple(st[:4].astype(np.intp))
    N, m = len(pure), pop.role_count
    act = np.zeros((m, N, at[2].max() + 1), dtype=np.intp)
    mass = np.zeros(act.shape)
    count = np.zeros((m, N), dtype=np.intp)
    act[at], mass[at] = it[3], it[4]
    np.add.at(count, at[:2], 1)
    sact = np.zeros((N, m, sat[2].max() + 1, sat[3].max() + 1), dtype=np.intp)
    sw = np.zeros(sact.shape)
    size = np.zeros(sact.shape[:3], dtype=np.intp)
    frac = np.zeros(size.shape)
    sact[sat], sw[sat], frac[sat[:3]] = st[4], st[5], st[6]
    np.add.at(size, sat[:3], 1)
    return _Supports(
        sizes=[len(s) for s in supports],
        start=np.cumsum([0] + [len(s) for s in supports[:-1]]),
        prob=np.array([prob for s in supports for _, prob in s]),
        pure=np.array(pure),
        items=(act, mass, count),
        strategies=(sact, sw, size, frac),
        governing=[[q for q, p in enumerate(row) if p > 0.0] for row in pop.shares],
    )


def _ordered_sum(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``start`` plus the rows of ``x`` added one at a time, first to last,
    as a Python loop adds them (``np.sum`` may add pairwise)."""
    return np.add.accumulate(np.concatenate([start[None], x]))[-1]


def _grid(sizes: Sequence[int], start: int, stop: int) -> np.ndarray:
    """Entries ``start .. stop - 1`` of ``itertools.product(*map(range,
    sizes))`` as a ``(stop - start, len(sizes))`` index array, each column
    contiguous."""
    flat = np.arange(start, stop)
    out = np.empty((len(sizes), stop - start), dtype=np.intp)
    for col in range(len(sizes) - 1, -1, -1):
        flat, out[col] = np.divmod(flat, sizes[col])
    return out.T


def _realization_block(
    sup: _Supports, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint realizations ``start .. stop - 1`` of the product of the
    advisors' outcomes, in :func:`games._weighted` order: the ``(B, k)``
    entries each picks and the ``(B,)`` weights, each a product taken left to
    right from 1.0 as ``_weighted`` takes it."""
    gid = _grid(sup.sizes, start, stop) + sup.start
    weights = sup.prob[gid[:, 0]]
    for q in range(1, gid.shape[1]):
        weights = weights * sup.prob[gid[:, q]]
    return gid, weights


def _utilities(
    pop: Population,
    sup: _Supports,
    read,
    gid: np.ndarray,
    fills: Mapping[int, np.ndarray],
    used: int,
    budget: float,
) -> tuple[np.ndarray, int]:
    """Every advisor's utility at B joint realizations, the one place they
    are summed, and the payoff term count after them.

    ``gid[b, q]`` is advisor q's entry in realization b, and ``fills[q]``,
    when given, the ``(m, B)`` action indices that replace those of q's
    pure entry; ``read`` maps ``(n, m)`` action indices to payoff vectors.
    A realization in which every instruction is a pure profile and, on
    every role, every governing advisor names the same action plays one
    profile: one payoff term, summed by :func:`_block_utilities`.  Any other
    is summed by :func:`_mixed_utilities`, in the groups
    :func:`_mixed_groups` forms.  The counts are charged to ``used``
    (:func:`_charge`) before any payoff is read.  Returns the ``(k, B)``
    utilities and the new count."""
    B, k = gid.shape
    act = sup.items[0]
    # Each role's first-named action; a realization plays one profile when
    # every instruction is pure and every governing advisor names it.
    lead = np.empty((len(act), B), dtype=np.intp)
    one = np.ones(B, dtype=bool)
    for q in range(k):
        one &= sup.pure[gid[:, q]]
    for r, governing in enumerate(sup.governing):
        for q in governing:
            named = fills[q][r] if q in fills else act[r, :, 0][gid[:, q]]
            if q == governing[0]:
                lead[r] = named
            else:
                one &= named == lead[r]
    rest = np.flatnonzero(~one)
    groups, steps = (
        _mixed_groups(sup, gid[rest], {q: f[:, rest] for q, f in fills.items()})
        if len(rest)
        else ((), np.empty((0, 0)))
    )
    used = _charge(used, budget, one, steps)
    # Every row plays its first-named profile here; the others are replaced.
    vals = _block_utilities(pop, read(lead.T))
    for at, args in groups:
        vals[:, rest[at]] = _mixed_utilities(read, *args)
    return vals, used


def _mixed_groups(
    sup: _Supports, gid: np.ndarray, fills: Mapping[int, np.ndarray]
) -> tuple[list, np.ndarray]:
    """For S realizations that do not play one profile (arguments as
    :func:`_utilities` takes them): each role's aggregate (:func:`_aggregate`)
    and each advisor's instructed strategies, in groups of the realizations
    with the same slot counts, as ``(rows, args)`` pairs with ``args`` the
    arguments of :func:`_mixed_utilities`; and the ``(S, P)`` term counts,
    per realization in (advisor, role, strategy) order: a governed one
    counts its support size times the other roles' slot counts."""
    slot_act, slot_mass, slots = _aggregate(sup, gid, fills)
    sact, sw, size, frac = (x[gid] for x in sup.strategies)
    for q, f in fills.items():
        sact[:, q, :, 0, 0] = f.T
    S, k, m, T = size.shape
    others = np.prod(slots, axis=0, dtype=float) / slots  # exact below 2**53
    steps = (size * others.T[:, None, :, None]).reshape(S, k * m * T)
    order = np.lexsort(slots)  # the same slot counts together
    kinds = slots[:, order]
    first = np.ones(S, dtype=bool)  # the first realization of each slot count
    first[1:] = (kinds[:, 1:] != kinds[:, :-1]).any(axis=0)
    bounds = [*np.flatnonzero(first), S]
    groups = []
    for a, b in zip(bounds, bounds[1:]):
        at = order[a:b]
        groups.append((at, (
            kinds[:, a].tolist(),
            (slot_act[..., at], slot_mass[..., at]),
            (sact[at], sw[at], size[at], frac[at]),
        )))
    return groups, steps


def _aggregate(
    sup: _Supports, gid: np.ndarray, fills: Mapping[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each role's aggregate at the B realizations ``gid`` (with
    ``fills``, as :func:`_utilities` takes them): one slot per action its
    governing advisors' items name, in the order first named, advisors in
    index order, holding the masses naming it summed in that order from
    0.0, as :func:`_role_masses` fills its dicts.  Returns the ``(m, L,
    B)`` slot actions and masses and the ``(m, B)`` slot counts."""
    act, mass, count = sup.items
    B, (m, N, w) = len(gid), act.shape
    L = w * max(map(len, sup.governing))
    slot_act = np.zeros((m, L + 1, B), dtype=np.intp)  # slot L takes the padding
    slot_mass = np.zeros(slot_act.shape)
    slots = np.empty((m, B), dtype=np.intp)
    cols, before = np.arange(B), np.arange(L)[:, None]
    for r, governing in enumerate(sup.governing):
        for q in governing:
            e = gid[:, q]
            acts, masses, n_items = act[r][e].T, mass[r][e].T, count[r][e]
            if q in fills:
                acts[0] = fills[q][r]
            if q == governing[0]:  # distinct actions: the first slots
                slot_act[r, :w], slot_mass[r, :w], n = acts, masses, n_items
                continue
            for u in range(w):
                named = (slot_act[r, :L] == acts[u]) & (before < n)
                at = np.where(named.any(axis=0), named.argmax(axis=0), n)
                at = np.where(u < n_items, at, L)
                slot_act[r, at, cols] = acts[u]
                slot_mass[r, at, cols] += masses[u]
                n = n + (at == n)
        slots[r] = n
    return slot_act[:, :L], slot_mass[:, :L], slots


def _mixed_utilities(
    read,
    counts: Sequence[int],
    slots: tuple[np.ndarray, np.ndarray],
    strategies: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """The ``(k, S)`` advisor utilities at S realizations whose role r has
    ``counts[r]`` aggregate slots, given as ``(m, L, S)`` actions and masses
    (:func:`_aggregate`), and whose instructed strategies are
    ``(S, k, m, T, E)`` actions and weights and ``(S, k, m, T)`` support
    sizes and share-weighted fractions (:class:`_Supports`; a size is 0
    where the advisor does not govern the role).

    The value of advisor j's strategy t on role i sums ``w * pay[i]`` over
    the product of the other roles' slots and, at position i, the
    strategy's support, in product order from 0.0, ``w`` the slot masses
    and the strategy weight multiplied left to right from 1.0.  Advisor j's
    utility sums ``share * fraction * value`` over its roles and strategies
    in order from 0.0.  Each product is walked in chunks of its entries,
    about ``BLOCK_REALIZATIONS`` terms over all strategies at a time."""
    slot_act, slot_mass = slots
    sact, sw, size, frac = strategies
    m = len(counts)
    vals = np.zeros(size.shape[:2])
    for i in range(m):
        own = size[:, :, i]  # (S, k, T)
        E = int(own.max())
        own_act, own_w = (x[:, :, i, :, :E].transpose(3, 0, 1, 2) for x in (sact, sw))
        sizes = [E if r == i else counts[r] for r in range(m)]
        entries = math.prod(sizes)
        step = max(1, BLOCK_REALIZATIONS // own.size)
        value = np.zeros(own.shape)
        for c0 in range(0, entries, step):
            pos = _grid(sizes, c0, min(c0 + step, entries))  # (C, m)
            index = np.empty((len(pos),) + own.shape + (m,), dtype=np.intp)
            w = 1.0
            for r, p in enumerate(pos.T):
                if r == i:
                    index[..., r], f = own_act[p], own_w[p]
                else:
                    index[..., r], f = slot_act[r, p, :, None, None], slot_mass[r, p, :, None, None]
                w = w * f
            pay = read(index.reshape(-1, m))[:, i].reshape(w.shape)
            live = pos[:, i, None, None, None] < own
            value = _ordered_sum(np.where(live, w * pay, 0.0), value)
        for t in range(own.shape[2]):  # a fraction is 0.0 where a value is 0.0
            vals = vals + frac[:, :, i, t] * value[..., t]
    return vals.T


def _block_utilities(pop: Population, pay: np.ndarray) -> np.ndarray:
    """``(k, B)`` advisor utilities at B pure profiles whose ``(B, m)``
    payoff vectors are ``pay``: advisor j's is ``shares[i][j] * pay[:, i]``
    summed over the roles it governs, in role order from 0.0."""
    out = np.zeros((pop.llm_count, len(pay)))
    for i, row in enumerate(pop.shares):
        for j, p in enumerate(row):
            if p > 0.0:
                out[j] += p * pay[:, i]
    return out


def _charge(used: int, budget: float, one: np.ndarray, steps: np.ndarray) -> int:
    """The term count after a block of realizations on top of ``used``: one
    term for each realization that plays one profile (``one``), and for
    each other the ``(S, P)`` counts ``steps``, in order.  Raises
    :class:`BudgetExceededError` with the first running count, step by
    step, that passes ``budget``."""
    total = used + len(one) - len(steps) + steps.sum()
    if total <= budget:
        return int(total)
    terms = np.ones(len(one))
    terms[~one] = steps.sum(axis=1)
    running = used + np.cumsum(terms)
    b = int(np.argmax(running > budget))
    used = int(running[b] - terms[b])
    for c in [1] if one[b] else steps[int(np.sum(~one[:b]))].tolist():
        used += int(c)
        if used > budget:
            raise BudgetExceededError(used, budget)


def _payoff_tensor(game: BaseGame, pop: Population, budget: float) -> np.ndarray:
    """``U[a_0, ..., a_{k-1}, j]``: advisor j's utility when each advisor q
    instructs the pure profile with index ``a_q`` in ``game.profiles()`` order.

    Reads the n pure payoff vectors with one
    :meth:`~metagame.games.BaseGame.payoff_block` call and evaluates the
    n^k realizations in product order through :func:`_utilities`, in blocks
    of at most ``BLOCK_REALIZATIONS``.  Raises :class:`BudgetExceededError`
    before building anything when the n^k realizations exceed ``budget``,
    and otherwise at the first running term count that passes it.
    """
    n = game.num_profiles
    k = pop.llm_count
    if n**k > budget:
        raise BudgetExceededError(n**k, budget)
    sizes = tuple(len(a) for a in game.actions)
    named_by = _grid(sizes, 0, n)  # profile index -> action index per role
    pay = game.payoff_block(named_by)
    placeholder = _pure_instruction(tuple(a[0] for a in game.actions))
    sup = _supports(game, pop, [((placeholder, 1.0),)] * k)
    U = np.empty((n,) * k + (k,))
    flat = U.reshape(-1, k)
    used = 0
    for start in range(0, n**k, BLOCK_REALIZATIONS):
        stop = min(start + BLOCK_REALIZATIONS, n**k)
        named = named_by.T[:, _grid((n,) * k, start, stop).T]  # (m, k, B)
        gid = np.broadcast_to(sup.start, (stop - start, k))
        vals, used = _utilities(
            pop, sup, lambda index: pay[np.ravel_multi_index(index.T, sizes)], gid,
            dict(enumerate(named.swapaxes(0, 1))), used, budget,
        )
        flat[start:stop] = vals.T
    return U


def _neumaier(s, c, xs: np.ndarray):
    """The Neumaier sums ``s`` and compensations ``c`` after adding the terms
    ``xs`` in order along its last axis (one row per sum).
    ``np.add.accumulate`` adds in order, so the running sums, the
    compensation terms and their sum are the floats of the textbook loop
    ``t = s + x; c += (s - t) + x if |s| >= |x| else (x - t) + s; s = t``."""
    head = xs.shape[:-1] + (1,)
    run = np.add.accumulate(np.concatenate([np.reshape(s, head), xs], axis=-1), axis=-1)
    prev, t = run[..., :-1], run[..., 1:]
    comp = np.where(np.abs(prev) >= np.abs(xs), (prev - t) + xs, (xs - t) + prev)
    comp = np.concatenate([np.reshape(c, head), comp], axis=-1)
    # Copies, so the running sums are freed before the next block.
    return run[..., -1].copy(), np.add.accumulate(comp, axis=-1)[..., -1].copy()


def llm_utility(
    game: BaseGame,
    pop: Population,
    profile: MetaProfile | Sequence[InstructionProfile],
    budget: float = DEFAULT_TERM_BUDGET,
) -> tuple[float, ...]:
    """Aggregate expected utility of each advisor's governed clients.

    Accepts a (possibly mixed) :class:`MetaProfile` or a single joint
    realization.  Exact at desk scale; raises :class:`BudgetExceededError`
    when the enumeration would exceed ``budget`` payoff terms.  The joint
    realizations are evaluated in product order by :func:`_utilities`, in
    blocks of at most ``BLOCK_REALIZATIONS``, and each advisor's total is
    their Neumaier-compensated sum.
    """
    mixed = isinstance(profile, MetaProfile)
    advisors = profile.actions if mixed else tuple(profile)
    _check_advisors(game, pop, advisors)
    # A joint realization is a profile whose every advisor has one outcome.
    supports = [a.outcomes if mixed else ((a, 1.0),) for a in advisors]
    combos = math.prod(map(len, supports))
    if combos > budget:
        raise BudgetExceededError(combos, budget)
    s = c = np.zeros(pop.llm_count)
    sup = _supports(game, pop, supports)
    used = 0
    for start in range(0, combos, BLOCK_REALIZATIONS):
        gid, weights = _realization_block(sup, start, min(start + BLOCK_REALIZATIONS, combos))
        vals, used = _utilities(pop, sup, game.payoff_block, gid, {}, used, budget)
        s, c = _neumaier(s, c, weights * vals)
    return tuple((s + c).tolist())


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
