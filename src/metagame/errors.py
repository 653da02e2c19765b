"""Exception types shared across the package."""


class MetagameError(Exception):
    """Base class for all library errors."""


class ValidationError(MetagameError):
    """An object or configuration violates a structural invariant."""


class InvalidProfileError(ValidationError):
    """An action profile refers to unknown labels or has the wrong arity."""


class BudgetExceededError(MetagameError):
    """An exact enumeration would exceed the configured term budget."""

    def __init__(self, needed, budget):
        super().__init__(
            f"exact enumeration needs ~{needed:g} terms, budget is {budget:g}"
        )
        self.needed = needed
        self.budget = budget


class NotSingleRoleError(MetagameError):
    """An aggregation step requires every advisor to govern at most one role."""


class UndefinedAverageError(MetagameError):
    """Average utility requested for an advisor that governs zero mass."""


class InfeasibleTargetError(MetagameError):
    """Target payoff vector lies outside the feasible set.

    Carries a separating direction ``direction`` with
    ``direction @ target > max_h direction @ vertex_h`` by ``gap``.
    """

    def __init__(self, target, direction, gap):
        super().__init__(
            f"target {tuple(target)} is not feasible (separation gap {gap:.3g})"
        )
        self.target = tuple(target)
        self.direction = tuple(direction)
        self.gap = gap


class NotIndividuallyRationalError(MetagameError):
    """Target payoff vector is not strictly above the punishment bounds."""

    def __init__(self, target, margins):
        bad = [j for j, m in enumerate(margins) if m <= 0]
        super().__init__(
            f"target {tuple(target)} is not strictly individually rational "
            f"(non-positive margins for advisors {bad})"
        )
        self.target = tuple(target)
        self.margins = tuple(margins)


class SolverLimitError(ValidationError):
    """An LP input HiGHS cannot take: NaN, or a value whose size reaches the
    HiGHS limit named by ``option``."""

    def __init__(self, what, value, option, limit):
        super().__init__(
            f"LP {what} {value:g} must be a number smaller in size than "
            f"HiGHS's {option} ({limit:g})"
        )
        self.option = option
