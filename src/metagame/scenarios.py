"""Scenario library: the example games, their canonical populations, and
the named profiles used throughout the tests and the CLI.

Scenarios:

* ``pd``: two-role prisoner's dilemma with payoffs X (mutual cooperation),
  Y (mutual defection), Z (sucker), ordered 0 > X > Y > Z.
* ``majority3``: three roles pick 0/1; 100 is split among the majority roles.
* ``bounded10``: ten symmetric roles over a common action set; roles whose
  action is chosen by exactly four roles split a prize of 100.
* ``heist``: planner / burglar / driver each name another role; a role named
  by both others is convicted (-2.1) and the namers get leniency (+1);
  otherwise everyone walks (0).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .games import BaseGame, MixedStrategy, register_payoff_rule
from .model import InstructionProfile, MetaAction, MetaProfile, Population

HEIST_ROLES = ("planner", "burglar", "driver")
CONVICTION_PAYOFF = -2.1
LENIENCY_PAYOFF = 1.0


def _pd_game(X: float = -2.0, Y: float = -4.0, Z: float = -5.0) -> BaseGame:
    if not (0 > X > Y > Z):
        raise ValidationError(
            f"pd requires 0 > X > Y > Z, got X={X}, Y={Y}, Z={Z}"
        )
    actions = (("C", "D"), ("C", "D"))
    table = {
        ("C", "C"): (X, X),
        ("D", "D"): (Y, Y),
        ("C", "D"): (Z, 0.0),
        ("D", "C"): (0.0, Z),
    }
    return BaseGame(actions=actions, table=table)


def _majority3_game() -> BaseGame:
    actions = (("0", "1"), ("0", "1"), ("0", "1"))
    table = {}
    for profile in ((a, b, c) for a in "01" for b in "01" for c in "01"):
        counts = Counter(profile)
        majority = max(counts, key=lambda a: counts[a])
        winners = [i for i, a in enumerate(profile) if a == majority]
        prize = 100.0 / len(winners)
        table[profile] = tuple(
            prize if i in winners else 0.0 for i in range(3)
        )
    return BaseGame(actions=actions, table=table)


def _bounded_rule(n_roles: int = 10, group_size: int = 4, prize: float = 100.0):
    def payoff(profile):
        counts = Counter(profile)
        winners = [i for i, a in enumerate(profile) if counts[a] == group_size]
        if not winners:
            return (0.0,) * n_roles
        share = prize / len(winners)
        win = set(winners)
        return tuple(share if i in win else 0.0 for i in range(n_roles))

    return payoff


def _bounded_block(
    actions, n_roles: int = 10, group_size: int = 4, prize: float = 100.0
):
    """:func:`_bounded_rule` on a ``(B, m)`` block of action indices.  Labels
    are compared through one integer code per distinct label, so roles with
    different action lists count alike only on equal labels.  The block is
    worked role-major: an ``(m, B)`` array of codes, whose group sizes are
    summed by m row comparisons into the smallest unsigned type that holds
    m, so no ``(B, m, m)`` cube is built.  The counts are integers, so every
    payoff is the rule's float.  Raises :class:`ValidationError` unless the
    game has ``n_roles`` roles and ``prize`` is finite (``TypeError`` when
    it is not a number)."""
    if len(actions) != n_roles or not math.isfinite(prize):
        raise ValidationError(
            f"bounded_group_prize needs {len(actions)} roles and a finite prize, "
            f"got n_roles = {n_roles!r} and prize = {prize!r}"
        )
    codes: dict[str, int] = {}
    per_role = [
        np.array([codes.setdefault(a, len(codes)) for a in labels])
        for labels in actions
    ]
    count_type = np.min_scalar_type(n_roles)

    def payoff(index):
        label = np.stack([per_role[i][index[:, i]] for i in range(n_roles)])
        counts = np.zeros(label.shape, count_type)
        for row in label:
            counts += label == row
        win = counts == group_size
        share = prize / np.maximum(win.sum(axis=0), 1)
        return np.where(win, share, 0.0).T

    return payoff


register_payoff_rule("bounded_group_prize", _bounded_rule, _bounded_block)


def _bounded10_game(n_actions: int = 100) -> BaseGame:
    if n_actions < 5:
        raise ValidationError("bounded10 needs at least 5 actions")
    labels = tuple(str(i + 1) for i in range(n_actions))
    return BaseGame.from_rule(
        (labels,) * 10, "bounded_group_prize", n_roles=10, group_size=4, prize=100.0
    )


def _heist_game() -> BaseGame:
    # Each role names one of the other two, ordered by the named role's index.
    actions = tuple(
        tuple(HEIST_ROLES[r] for r in range(3) if r != i) for i in range(3)
    )
    table = {}
    for profile in (
        (a, b, c) for a in actions[0] for b in actions[1] for c in actions[2]
    ):
        named = Counter(profile)
        convicted = [r for r, name in enumerate(HEIST_ROLES) if named[name] == 2]
        if convicted:
            (culprit,) = convicted
            table[profile] = tuple(
                CONVICTION_PAYOFF if i == culprit else LENIENCY_PAYOFF
                for i in range(3)
            )
        else:
            table[profile] = (0.0, 0.0, 0.0)
    return BaseGame(actions=actions, table=table)


def _pd_population(p: float = 0.9) -> Population:
    return Population(((p, 1.0 - p), (p, 1.0 - p)))


def _majority3_population(p: float = 0.9) -> Population:
    return Population(((p, 1.0 - p),) * 3)


def _bounded10_population() -> Population:
    # Advisor 0 governs roles 1..5, advisor 1 roles 6..9, advisor 2 role 10.
    owners = (0,) * 5 + (1,) * 4 + (2,)
    return Population(tuple(tuple(float(j == o) for j in range(3)) for o in owners))


def _heist_population() -> Population:
    # Each advisor has a primary role (80%) plus 10% of each other role.
    return Population(
        tuple(tuple(0.8 if j == i else 0.1 for j in range(3)) for i in range(3))
    )


# name -> (game builder, canonical population builder)
_SCENARIOS = {
    "pd": (_pd_game, _pd_population),
    "majority3": (_majority3_game, _majority3_population),
    "bounded10": (_bounded10_game, _bounded10_population),
    "heist": (_heist_game, _heist_population),
}


def _builders(name: str):
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValidationError(
            f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}"
        ) from None


def make_scenario(name: str, **params) -> BaseGame:
    """Build a library game by name (``pd``, ``majority3``, ``bounded10``, ``heist``)."""
    return _builders(name)[0](**params)


def scenario_population(name: str, **params) -> Population:
    """Canonical population for a library game; an unknown parameter raises
    ``TypeError``."""
    return _builders(name)[1](**params)


def blame_cycle() -> tuple[str, ...]:
    """Planner names burglar, burglar names driver, driver names planner."""
    return ("burglar", "driver", "planner")


def heist_blame_profile() -> MetaProfile:
    """All three advisors instruct the blame cycle."""
    return MetaProfile.from_pure([blame_cycle()] * 3)


def heist_punishment(punished: int) -> tuple[MetaAction | None, ...]:
    """Punishment against one heist advisor: the other two send every burglar
    and driver client they govern after the planner-primary target's role.

    All burglar and driver clients of the punishers name the punished
    advisor's primary role; their remaining clients keep the blame-cycle
    instruction.
    """
    target_role = HEIST_ROLES[punished]
    cycle = blame_cycle()
    out: list[MetaAction | None] = []
    for j in range(3):
        if j == punished:
            out.append(None)
            continue
        # Roles other than the target's own can name it; the punishers' clients
        # in the target role itself keep the blame-cycle instruction.
        labels = [
            target_role if i != punished else cycle[i] for i in range(3)
        ]
        out.append(MetaAction.from_pure(labels))
    return tuple(out)


def pd_profile(llm1: str, llm2: str) -> MetaProfile:
    """Role-homogeneous PD meta-profile from two-letter action strings like 'CC'."""
    return MetaProfile.from_pure([tuple(llm1), tuple(llm2)])


def bounded10_equilibrium_profile(game: BaseGame) -> MetaProfile:
    """The coordination profile of the ten-role scenario.

    The large advisor draws an action x uniformly, puts its first four roles
    on x and its fifth on the cyclically next action; the medium advisor puts
    all four of its roles on a uniform y; the small advisor plays a uniform z.
    Roles an advisor does not govern are padded with the drawn action.
    """
    labels = game.actions[0]
    n = len(labels)
    large = []
    medium = []
    small = []
    for idx, a in enumerate(labels):
        nxt = labels[(idx + 1) % n]
        large.append([a, a, a, a, nxt] + [a] * 5)
        medium.append([a] * 10)
        small.append([a] * 10)
    return MetaProfile(
        (
            MetaAction.uniform_over_pure(large),
            MetaAction.uniform_over_pure(medium),
            MetaAction.uniform_over_pure(small),
        )
    )


def uniform_coordination_action(game: BaseGame) -> MetaAction:
    """Mix uniformly between the all-0 and all-1 coordinated instructions."""
    m = game.role_count
    return MetaAction.uniform_over_pure([("0",) * m, ("1",) * m])


def split_instruction(
    game: BaseGame, splits: Sequence[dict[str, float]]
) -> InstructionProfile:
    """Instruction giving each role a within-role split over pure actions."""
    entries = []
    for i, split in enumerate(splits):
        entries.append(
            tuple(
                (MixedStrategy.point_mass(i, a), frac)
                for a, frac in split.items()
            )
        )
    return InstructionProfile(tuple(entries))
