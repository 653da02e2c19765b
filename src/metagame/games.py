"""Normal-form base games with string action labels.

A :class:`BaseGame` is an m-role game whose payoffs are either stored as an
explicit table (small games) or computed by a registered rule (games whose
profile space is too large to tabulate).  Mixed strategies and profiles are
finite-support distributions over action labels; :func:`expected_payoff` is
the multilinear extension of the pure payoff function.

:meth:`BaseGame.payoff_block` evaluates a block of pure profiles, given as
rows of action indices, and every game has it: a table game reads a dense
array built on first use, a rule game calls the vectorized form registered
with its rule, and a rule registered without one evaluates the rows one by
one through the rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidProfileError, ValidationError

PROB_TOL = 1e-12

PayoffRule = Callable[[tuple[str, ...]], tuple[float, ...]]
BlockRule = Callable[[np.ndarray], np.ndarray]

# Registry of named payoff rules, so rule-backed games can round-trip through
# serialization without pickling callables: name -> (factory, block factory).
_RULES: dict[str, tuple[Callable[..., PayoffRule], Callable[..., BlockRule] | None]] = {}


def register_payoff_rule(
    name: str,
    factory: Callable[..., PayoffRule],
    block: Callable[..., BlockRule] | None = None,
) -> None:
    """Register ``factory(**params)``, the payoff rule called ``name``.

    ``block(actions, **params)``, when given, returns the rule's vectorized
    form: a function from a ``(B, m)`` array of action indices into
    ``actions`` to the ``(B, m)`` payoff vectors of those profiles, equal to
    the rule's own, bit for bit.  Without it the game's
    :meth:`BaseGame.payoff_block` calls the rule once per row."""
    _RULES[name] = (factory, block)


def _rule_rows(rule: PayoffRule, actions: tuple[tuple[str, ...], ...]) -> BlockRule:
    """The block form of a rule registered without one: each row through
    the rule."""

    def block(index: np.ndarray) -> np.ndarray:
        pays = [rule(tuple(acts[a] for acts, a in zip(actions, row))) for row in index.tolist()]
        return np.array(pays, dtype=float).reshape(len(index), len(actions))

    return block


def _weighted(supports: Iterable[Sequence[tuple[object, float]]], weight: float = 1.0):
    """Yield ``(weight * w_1 * ... * w_n, (x_1, ..., x_n))`` for every choice
    of one ``(x_i, w_i)`` pair per support, in product order.  The product is
    taken left to right from ``weight``, so every caller gets the same float."""
    for combo in itertools.product(*supports):
        w = weight
        for _, wi in combo:
            w *= wi
        yield w, tuple(x for x, _ in combo)


@dataclass(frozen=True)
class BaseGame:
    """Finite m-role game.

    ``actions[i]`` is the ordered tuple of labels available to role ``i``;
    ordering is significant (deterministic tie-breaking downstream uses it).
    Exactly one of ``table`` / ``rule_name`` backs the payoff function.
    """

    actions: tuple[tuple[str, ...], ...]
    table: Mapping[tuple[str, ...], tuple[float, ...]] | None = None
    rule_name: str | None = None
    rule_params: tuple[tuple[str, object], ...] = ()
    _rule: PayoffRule | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.actions:
            raise ValidationError("a game needs at least one role")
        for i, labels in enumerate(self.actions):
            if not labels:
                raise ValidationError(f"role {i} has an empty action set")
            if len(set(labels)) != len(labels):
                raise ValidationError(f"role {i} has duplicate action labels")
        if (self.table is None) == (self.rule_name is None and self._rule is None):
            raise ValidationError("exactly one of table / rule must be given")
        if self.table is not None:
            expected = math.prod(len(a) for a in self.actions)
            if len(self.table) != expected:
                raise ValidationError(
                    f"payoff table has {len(self.table)} entries, "
                    f"needs {expected} (one per pure profile)"
                )
            m = self.role_count
            clean = {}
            for profile, vector in self.table.items():
                key = self._check_profile(profile)
                if len(vector) != m:
                    raise ValidationError(f"payoff vector for {profile} is not length {m}")
                clean[key] = tuple(float(v) for v in vector)
                if not all(map(math.isfinite, clean[key])):
                    raise ValidationError(f"payoff vector for {profile} is not finite")
            object.__setattr__(self, "table", clean)
        block = None
        if self.table is None and self._rule is None:
            if self.rule_name not in _RULES:
                raise ValidationError(f"unknown payoff rule {self.rule_name!r}")
            factory, block_factory = _RULES[self.rule_name]
            params = dict(self.rule_params)
            object.__setattr__(self, "_rule", factory(**params))
            if block_factory is not None:
                block = block_factory(self.actions, **params)
        if self.table is None and block is None:
            block = _rule_rows(self._rule, self.actions)
        # The vectorized payoff; a table game builds its dense array on first use.
        object.__setattr__(self, "_block", block)

    @property
    def role_count(self) -> int:
        return len(self.actions)

    @property
    def num_profiles(self) -> int:
        return math.prod(len(a) for a in self.actions)

    def action_index(self, role: int, label: str) -> int:
        try:
            return self.actions[role].index(label)
        except ValueError:
            raise InvalidProfileError(
                f"role {role} has no action {label!r}"
            ) from None

    def _check_profile(self, profile: Sequence[str]) -> tuple[str, ...]:
        if len(profile) != self.role_count:
            raise InvalidProfileError(
                f"profile has {len(profile)} entries, game has {self.role_count} roles"
            )
        for i, a in enumerate(profile):
            if a not in self.actions[i]:
                raise InvalidProfileError(f"role {i} has no action {a!r}")
        return tuple(profile)

    def payoff(self, profile: Sequence[str]) -> tuple[float, ...]:
        """Payoff vector of a pure action profile."""
        key = self._check_profile(profile)
        if self.table is not None:
            return tuple(self.table[key])
        return tuple(self._rule(key))

    def payoff_block(self, index: np.ndarray) -> np.ndarray:
        """Payoff vectors of the pure profiles whose action indices are the
        rows of the ``(B, m)`` integer array ``index``: a ``(B, m)`` float
        array whose row b equals :meth:`payoff` of row b's labels.  Indices
        are not range-checked."""
        if self._block is None:
            sizes = tuple(len(a) for a in self.actions)
            dense = np.array([self.table[p] for p in self.profiles()])
            dense = dense.reshape(sizes + (self.role_count,))
            object.__setattr__(self, "_block", lambda idx: dense[tuple(idx.T)])
        return self._block(index)

    def profiles(self) -> Iterator[tuple[str, ...]]:
        """All pure profiles in per-role list order (lexicographic)."""
        return itertools.product(*self.actions)

    def to_dict(self) -> dict:
        doc: dict = {
            "roles": self.role_count,
            "actions": [list(a) for a in self.actions],
        }
        if self.table is not None:
            doc["payoffs"] = [
                {"profile": list(p), "vector": list(self.table[p])}
                for p in self.profiles()
            ]
        else:
            doc["payoffs"] = {
                "procedural": self.rule_name,
                "params": dict(self.rule_params),
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "BaseGame":
        actions = tuple(tuple(a) for a in doc["actions"])
        payoffs = doc["payoffs"]
        if isinstance(payoffs, Mapping):
            params = payoffs.get("params", {})
            if not isinstance(params, Mapping):
                raise ValidationError("procedural payoff params must be an object")
            return cls(
                actions=actions,
                rule_name=payoffs["procedural"],
                rule_params=tuple(sorted(params.items())),
            )
        table = {
            tuple(entry["profile"]): tuple(float(v) for v in entry["vector"])
            for entry in payoffs
        }
        return cls(actions=actions, table=table)

    @classmethod
    def from_table(
        cls,
        actions: Sequence[Sequence[str]],
        table: Mapping[Sequence[str], Sequence[float]],
    ) -> "BaseGame":
        return cls(
            actions=tuple(tuple(a) for a in actions),
            table={tuple(p): tuple(float(v) for v in vec) for p, vec in table.items()},
        )

    @classmethod
    def from_rule(
        cls, actions: Sequence[Sequence[str]], rule_name: str, **params
    ) -> "BaseGame":
        return cls(
            actions=tuple(tuple(a) for a in actions),
            rule_name=rule_name,
            rule_params=tuple(sorted(params.items())),
        )


@dataclass(frozen=True)
class MixedStrategy:
    """Finite-support distribution over one role's action labels."""

    role: int
    weights: tuple[tuple[str, float], ...]

    def __post_init__(self):
        merged: dict[str, float] = {}
        for label, w in self.weights:
            w = float(w)
            if not math.isfinite(w):
                raise ValidationError(f"non-finite weight {w} on action {label!r}")
            if w < -PROB_TOL:
                raise ValidationError(f"negative weight {w} on action {label!r}")
            if w > 0.0:
                merged[label] = merged.get(label, 0.0) + w
        total = sum(merged.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"strategy weights sum to {total}, expected 1")
        object.__setattr__(
            self, "weights", tuple(sorted(merged.items()))
        )

    @classmethod
    def point_mass(cls, role: int, action: str) -> "MixedStrategy":
        return cls(role, ((action, 1.0),))

    @classmethod
    def from_weights(cls, role: int, weights: Mapping[str, float]) -> "MixedStrategy":
        return cls(role, tuple(weights.items()))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.weights)

    def weight(self, action: str) -> float:
        for label, w in self.weights:
            if label == action:
                return w
        return 0.0

    @property
    def pure_action(self) -> str | None:
        """The single supported action, or None if genuinely mixed."""
        if len(self.weights) == 1:
            return self.weights[0][0]
        return None


@dataclass(frozen=True)
class StrategyProfile:
    """One mixed strategy per role, in role order."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        for i, s in enumerate(self.strategies):
            if s.role != i:
                raise ValidationError(
                    f"strategy at position {i} is for role {s.role}"
                )

    @classmethod
    def pure(cls, profile: Sequence[str]) -> "StrategyProfile":
        return cls(tuple(MixedStrategy.point_mass(i, a) for i, a in enumerate(profile)))

    def __iter__(self):
        return iter(self.strategies)

    def __len__(self):
        return len(self.strategies)


def expected_payoff(game: BaseGame, profile: StrategyProfile) -> tuple[float, ...]:
    """Multilinear extension of the payoff function to mixed profiles.

    Equals ``game.payoff`` exactly when every strategy is a point mass.
    """
    if len(profile) != game.role_count:
        raise InvalidProfileError(
            f"profile has {len(profile)} strategies, game has {game.role_count} roles"
        )
    supports = []
    for i, strat in enumerate(profile):
        for label in strat.support:
            if label not in game.actions[i]:
                raise InvalidProfileError(f"role {i} has no action {label!r}")
        supports.append(strat.weights)
    m = game.role_count
    totals = [0.0] * m
    for w, labels in _weighted(supports):
        pay = game.payoff(labels)
        for i in range(m):
            totals[i] += w * pay[i]
    return tuple(totals)
