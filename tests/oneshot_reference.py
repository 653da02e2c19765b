"""The one-shot layer's former helpers, kept as the references the library
is compared against.

``permute_meta_action`` relabels a meta-action by building every strategy,
instruction and meta-action anew, and ``meta_actions_close`` compares two
canonical meta-actions outcome by outcome; together they are the rotation
check's former opponent test.  ``best_response_iteration`` is the former
loop, which runs out all ``BR_ITERATION_ROUNDS`` rounds on a cycle.
"""

from __future__ import annotations

from typing import Sequence

from metagame.games import BaseGame, MixedStrategy
from metagame.model import (
    InstructionProfile,
    MetaAction,
    MetaProfile,
    Population,
    llm_utility,
)
from metagame.oneshot import BR_ITERATION_ROUNDS, REGRET_TOL, best_response


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
