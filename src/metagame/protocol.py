"""The repeated-game review-and-punish protocol.

The repeated strategy sustains a feasible, strictly individually rational
payoff target against deviations that are visible only in anonymous
aggregates.  One advisor at a time is under review.  Review blocks cycle
through the target's implementation profiles; the reviewed advisor probes
(replaces its instructions by a uniformly drawn pure profile) with small
probability each period, at privately chosen times.

Detection uses two public rules, applied at block end:

* excess rule: some (role, action) mass exceeded the ceiling that the
  reviewed advisor could have produced alone.  That proves a third party
  deviated, clears the reviewed advisor, and advances the review cyclically.
* frequency rule: the fraction of periods whose aggregate differed from the
  intended one exceeds the threshold.  Honest probing stays under it with
  overwhelming probability, so the blame lands on the reviewed advisor, who
  is punished at its certified punishment profile for a fixed stretch.

Parameter derivation fixes the slack unit from the requested tolerances and
then chooses the probe rate, block length, and punishment length so that the
rounding, concentration, and per-period-impact inequalities all hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    MetagameError,
    NotIndividuallyRationalError,
    ValidationError,
)
from .games import BaseGame
from .model import (
    DEFAULT_TERM_BUDGET,
    AggregateTable,
    InstructionProfile,
    MetaAction,
    Population,
    aggregate_mass,
    _check_advisor,
    _payoff_tensor,
    _pure_instruction,
    _role_masses,
)
from .feasibility import (
    CycleDecomposition,
    MinmaxCertificate,
    check_strict_ir,
    decompose_target,
    _certificate,
    _mixture_lp,
    _punishment_matrix,
    _vertex_set,
)

MAX_BLOCK_LENGTH = 2**34

EXCESS = "excess_deviation"
FREQUENCY = "frequency_deviation"


@dataclass(frozen=True)
class ProtocolEvent:
    kind: str
    llm: int


@dataclass(frozen=True)
class ProtocolParams:
    """Everything the public strategy machine needs, all derived up front."""

    target: tuple[float, ...]
    adjusted_target: tuple[float, ...]
    epsilon: float
    gamma: float
    slack: float
    blend: float
    action_sets: tuple[tuple[str, ...], ...]
    cycle: CycleDecomposition
    prescriptions: tuple[tuple[InstructionProfile, ...], ...]  # [segment][advisor]
    intended_aggregates: tuple[AggregateTable, ...]
    mass_ceilings: tuple  # [segment][reviewed][role][action] -> mass bound
    segment_lengths: tuple[int, ...]
    block_length: int
    punish_length: int
    punish_ratio: float
    probe_rate: float
    freq_threshold: float
    payoff_spread: float
    payoff_cap: float
    max_payoffs: tuple[float, ...]
    certificates: tuple[MinmaxCertificate, ...]
    degenerate: bool = False
    overridden: bool = False
    discrepancy_tol: float = 1e-9

    @property
    def llm_count(self) -> int:
        return len(self.certificates)

    @property
    def segment_count(self) -> int:
        return len(self.segment_lengths)


@dataclass(frozen=True)
class ProtocolState:
    """Public state: review phase, block position, and detection counters."""

    phase: int
    segment: int
    step: int
    block_step: int
    discrepancies: int
    excess_seen: bool
    mode: str  # "review" | "punishment"
    punishment_remaining: int
    punished: int | None


def mass_ceiling(params: ProtocolParams, segment: int, reviewed: int,
                 role: int, action_index: int) -> float:
    """Largest (role, action) mass the reviewed advisor could cause alone."""
    return params.mass_ceilings[segment][reviewed][role][action_index]


def _first_active_segment(lengths, start=0):
    h = start
    while h < len(lengths) and lengths[h] == 0:
        h += 1
    return h


def initial_state(params: ProtocolParams) -> ProtocolState:
    return _fresh_block(params, 0)


def _fresh_block(params: ProtocolParams, phase: int) -> ProtocolState:
    return ProtocolState(
        phase=phase,
        segment=_first_active_segment(params.segment_lengths),
        step=0,
        block_step=0,
        discrepancies=0,
        excess_seen=False,
        mode="review",
        punishment_remaining=0,
        punished=None,
    )


def prescribed_instruction(
    params: ProtocolParams, state: ProtocolState, j: int
) -> InstructionProfile:
    """What advisor j is supposed to play right now, probes aside."""
    if state.mode == "punishment":
        return punishment_action(params, state, j)
    return params.prescriptions[state.segment][j]


def honest_step(
    params: ProtocolParams, state: ProtocolState, j: int, rng: np.random.Generator
) -> tuple[InstructionProfile, bool]:
    """Honest review-mode behavior; returns (instruction, probed).

    The reviewed advisor replaces its prescription, with probability
    ``probe_rate``, by a uniformly drawn pure profile.  Probe timing and
    content come from the advisor's own stream; the public state never sees
    them.
    """
    if state.mode != "review":
        raise ValidationError("honest_step applies in review mode only")
    prescription = params.prescriptions[state.segment][j]
    if j != state.phase or params.probe_rate <= 0.0:
        return prescription, False
    if rng.random() >= params.probe_rate:
        return prescription, False
    labels = tuple(
        acts[int(rng.integers(len(acts)))] for acts in params.action_sets
    )
    return _pure_instruction(labels), True


def punishment_action(
    params: ProtocolParams, state: ProtocolState, j: int
) -> InstructionProfile:
    """Deterministic punishment-block behavior from the stored certificate."""
    if state.mode != "punishment":
        raise ValidationError("punishment_action applies in punishment mode only")
    cert = params.certificates[state.punished]
    if j == state.punished:
        return _pure_instruction(cert.best_response)
    action = cert.punishment[j]
    (instruction, _), = action.outcomes
    return instruction


def observe_and_update(
    params: ProtocolParams, state: ProtocolState, table: AggregateTable
) -> tuple[ProtocolState, ProtocolEvent | None]:
    """Advance the public machine by one observed aggregate: the
    ``elapsed = 0`` case of :func:`_advance`.

    Excess checks run per period but both rules fire at block end, excess
    first.  Identical aggregate streams produce identical trajectories no
    matter who runs the machine.
    """
    if state.mode == "punishment":
        return _advance(params, state, 0, 0, False)
    return _advance(
        params, state, 0, *_table_flags(params, table, state.segment, state.phase)
    )


def _table_flags(
    params: ProtocolParams, table: AggregateTable, segment: int, phase: int
) -> tuple[bool, bool]:
    """``(discrepant, excess)`` of one aggregate observed in review of advisor
    ``phase`` during ``segment``: it differs from the intended aggregate, or
    some mass exceeds what the reviewed advisor could have caused alone."""
    tol = params.discrepancy_tol
    discrepant = table.max_diff(params.intended_aggregates[segment]) > tol
    ceilings = params.mass_ceilings[segment][phase]
    for i, row in enumerate(table.masses):
        limits = ceilings[i]
        for a, mass in enumerate(row):
            if mass > limits[a] + tol:
                return discrepant, True
    return discrepant, False


def _advance(
    params: ProtocolParams,
    state: ProtocolState,
    elapsed: int,
    discrepancies: int,
    excess: bool,
) -> tuple[ProtocolState, ProtocolEvent | None]:
    """The state ``elapsed + 1`` periods after ``state``, and the event fired
    at the end of the last of them, when no boundary (block end, segment end,
    punishment end) falls before that last period.  ``discrepancies`` and
    ``excess`` total those periods' :func:`_table_flags` (ignored in
    punishment).  Inside such a stretch only the counters move, so its
    length is known when it starts: ``min(T - block_step,
    segment_lengths[segment] - step)`` in review and ``punishment_remaining``
    in punishment.  Builds exactly one new state."""
    n = elapsed + 1
    if state.mode == "punishment":
        remaining = state.punishment_remaining - n
        if remaining > 0:
            return replace(state, punishment_remaining=remaining), None
        return _fresh_block(params, state.punished), None

    discrepancies += state.discrepancies
    excess = excess or state.excess_seen
    block_step = state.block_step + n
    if block_step < params.block_length:
        segment, step = state.segment, state.step + n
        if step >= params.segment_lengths[segment]:
            segment = _first_active_segment(params.segment_lengths, segment + 1)
            step = 0
        state = replace(state, segment=segment, step=step, block_step=block_step,
                        discrepancies=discrepancies, excess_seen=excess)
        return state, None

    # Block complete: excess clears the reviewed advisor, frequency punishes it.
    if excess:
        event = ProtocolEvent(EXCESS, state.phase)
        return _fresh_block(params, (state.phase + 1) % params.llm_count), event
    if discrepancies / params.block_length > params.freq_threshold + 1e-12:
        event = ProtocolEvent(FREQUENCY, state.phase)
        if params.punish_length > 0:  # ``step`` keeps the last period's value
            state = replace(state, step=state.step + elapsed, block_step=0,
                            discrepancies=0, excess_seen=False, mode="punishment",
                            punishment_remaining=params.punish_length,
                            punished=state.phase)
            return state, event
        return _fresh_block(params, state.phase), event
    return _fresh_block(params, state.phase), None


def _max_margin_point(V: np.ndarray, ir_upper) -> tuple[float, ...]:
    """Hull point maximizing the minimum margin above the punishment bounds:
    the largest t with (V^T w)_j - t >= ir_upper_j for every j."""
    w, _ = _mixture_lp(-V.T, -np.asarray(ir_upper, dtype=float), maximize=True)
    return tuple(V.T @ w)


def best_pure_punishment(
    game: BaseGame,
    pop: Population,
    j: int,
    budget: float = DEFAULT_TERM_BUDGET,
) -> MinmaxCertificate:
    """Best deterministic punishment of advisor j.

    Enumerates every pure punisher combination exactly and keeps the one that
    minimizes j's exact best-response value, so punishment blocks stay
    deterministic.
    """
    _check_advisor(pop, j)
    return _best_pure_punishment(game, _payoff_tensor(game, pop, budget), j)


def _best_pure_punishment(game, U, j) -> MinmaxCertificate:
    """:func:`best_pure_punishment` on the payoff tensor ``U`` of (game, pop).
    Each punisher's instruction is the shared :func:`_pure_instruction`
    object."""
    # First minimizer in product order of the punished advisor's best reply.
    worst_reply = _punishment_matrix(U, j).max(axis=1)
    combo = np.unravel_index(int(np.argmin(worst_reply)), U.shape[:-2])
    profiles = list(game.profiles())
    punishment: list[MetaAction | None] = [
        MetaAction.deterministic(_pure_instruction(profiles[bi])) for bi in combo
    ]
    punishment.insert(j, None)
    return _certificate(game, U, j, punishment)


def _segment_lengths(weights, T: int) -> tuple[int, ...]:
    lengths = [int(math.floor(T * w)) for w in weights[:-1]]
    lengths.append(T - sum(lengths))
    return tuple(lengths)


def _large_T_violations(
    T: int, payoffs, weights, slack, spread, cap, c, p, tau
) -> list[str]:
    """The four block-length inequalities at block length ``T``."""
    out = []
    lengths = _segment_lengths(weights, T)
    k = len(payoffs[0])
    worst = 0.0
    for j in range(k):
        sched = sum(L / T * pay[j] for L, pay in zip(lengths, payoffs))
        exact = sum(w * pay[j] for w, pay in zip(weights, payoffs))
        worst = max(worst, abs(sched - exact))
    if worst > slack:
        out.append(f"schedule rounding error {worst:.3g} exceeds {slack:.3g}")
    if 2.0 * cap * math.exp(-2.0 * p * p * T) * (2.0 + c) > slack:
        out.append("concentration bound exceeds the slack unit")
    if spread * math.ceil(p * T) / T > 1.5 * slack:
        out.append("per-block probe impact exceeds 1.5x slack")
    if spread * math.ceil(tau * T) / T > 1.5 * slack:
        out.append("per-block discrepancy impact exceeds 1.5x slack")
    return out


def derive_params(
    game: BaseGame,
    pop: Population,
    target,
    epsilon: float,
    gamma: float,
    overrides: dict | None = None,
    budget: float = DEFAULT_TERM_BUDGET,
) -> ProtocolParams:
    """Derive a full protocol parameterization for a target payoff vector.

    Each advisor's punishment is its :func:`best_pure_punishment`, searched
    over the payoff tensor that also gives the vertices.
    Raises :class:`InfeasibleTargetError` / :class:`NotIndividuallyRationalError`
    when the target fails the preconditions, and :class:`ValidationError`
    when epsilon or gamma is so small that no block length up to
    ``MAX_BLOCK_LENGTH`` meets the block-length inequalities.  The adjusted target moves the
    target toward the hull point of largest margin above the punishment
    bounds, by at most the slack unit; the punishment ratio c and the probe
    rate follow from it, the block length T is the first power of two from
    16 that meets the block-length inequalities, and the punishment length
    is ceil(c*T).  A game whose profiles all pay one vector is degenerate:
    no deviation can gain, so the blend, c, the probe rate and the
    punishment length are 0 and T is max(16, cycle support).  ``overrides``
    may pin ``probe_rate`` / ``block_length`` / ``punish_length`` for
    small-scale experiments; overridden parameterizations skip the
    block-length inequalities and are flagged.  Prescriptions and pure
    punishments are the shared :func:`_pure_instruction` objects, so the
    stepper compares them by identity.
    """
    if epsilon <= 0 or gamma <= 0:
        raise ValidationError("epsilon and gamma must be positive")
    target = tuple(float(v) for v in target)
    k = pop.llm_count
    U = _payoff_tensor(game, pop, budget)
    vertices = _vertex_set(game, U)
    V = vertices.matrix

    certs = [_best_pure_punishment(game, U, j) for j in range(k)]
    ir_upper = [c.upper_bound for c in certs]

    # Not a duplicate of the decomposition below: that one decomposes the
    # adjusted target, which can be feasible when the target is not (PD at
    # (-3.8575, -0.5175)), and an infeasible target could otherwise be
    # reported as not individually rational (PD at (-4.3948, -0.1333)).
    decompose_target(vertices, target)  # raises InfeasibleTargetError

    slack = min(epsilon / 12.0, gamma / 5.0) / 2.0
    max_payoffs = tuple(float(V[:, j].max()) for j in range(k))
    min_payoffs = tuple(float(V[:, j].min()) for j in range(k))
    spread = max(hi - lo for hi, lo in zip(max_payoffs, min_payoffs))
    cap = float(np.abs(V).max())
    degenerate = spread == 0.0

    if degenerate:
        # Every profile yields the same payoff vector: no deviation can gain
        # and no punishment is needed, so the machinery collapses.
        blend, adjusted, c, probe_rate = 0.0, target, 0.0, 0.0
    else:
        ir_report = check_strict_ir(target, certs)
        if not ir_report.strict:
            raise NotIndividuallyRationalError(target, ir_report.margins)
        interior = _max_margin_point(V, ir_upper)
        diff = max(abs(s - r) for s, r in zip(interior, target))
        blend = 1.0 if diff <= slack else slack / diff
        adjusted = tuple(
            (1.0 - blend) * r + blend * s for r, s in zip(target, interior)
        )
        raw_c = max(
            (max_payoffs[j] - adjusted[j]) / (adjusted[j] - ir_upper[j])
            for j in range(k)
        )
        c = max(0.0, raw_c) * 1.1
        probe_rate = min(0.25, slack / (3.0 * spread))
    cycle = decompose_target(vertices, adjusted)

    overrides = dict(overrides or {})
    overridden = bool(overrides)
    probe_rate = float(overrides.get("probe_rate", probe_rate))
    tau = 3.0 * probe_rate

    if "block_length" in overrides:
        T = int(overrides["block_length"])
        if T < 1:
            raise ValidationError("block_length override must be positive")
    elif degenerate:
        # At spread 0 the probe rate is 0, so the concentration term below
        # stays 4 * cap and doubling T need not end.
        T = max(16, cycle.support_size)
    else:
        T = 16
        while _large_T_violations(
            T, cycle.payoffs, cycle.weights, slack, spread, cap, c, probe_rate, tau
        ):
            T *= 2
            if T > MAX_BLOCK_LENGTH:
                raise ValidationError(
                    f"no block length up to {MAX_BLOCK_LENGTH} meets the block-length "
                    f"inequalities at epsilon = {epsilon:g}, gamma = {gamma:g}"
                )
    K = int(overrides.get("punish_length", math.ceil(c * T)))

    prescriptions = tuple(
        tuple(
            _pure_instruction(action.outcomes[0][0].pure_profile)
            for action in profile.actions
        )
        for profile in cycle.profiles
    )
    params = ProtocolParams(
        target=target,
        adjusted_target=adjusted,
        epsilon=epsilon,
        gamma=gamma,
        slack=slack,
        blend=blend,
        action_sets=game.actions,
        cycle=cycle,
        prescriptions=prescriptions,
        intended_aggregates=tuple(
            aggregate_mass(game, pop, row) for row in prescriptions
        ),
        mass_ceilings=_mass_ceilings(game, pop, prescriptions),
        segment_lengths=_segment_lengths(cycle.weights, T),
        block_length=T,
        punish_length=K,
        punish_ratio=c,
        probe_rate=probe_rate,
        freq_threshold=tau,
        payoff_spread=spread,
        payoff_cap=cap,
        max_payoffs=max_payoffs,
        certificates=tuple(certs),
        degenerate=degenerate,
        overridden=overridden,
    )
    if not overridden and not degenerate:
        problems = validate_params(game, pop, params)
        if problems:
            raise MetagameError(
                "derived parameters violate their invariants: " + "; ".join(problems)
            )
    return params


def _mass_ceilings(game: BaseGame, pop: Population, prescriptions) -> tuple:
    """``[segment][reviewed][role][action]``: the mass the other advisors'
    prescriptions put on the action, plus the reviewed advisor's own share
    of the role, added last."""
    return tuple(
        tuple(
            tuple(
                tuple(masses.get(a, 0.0) + pop.shares[i][l] for a in game.actions[i])
                for i, masses in enumerate(_role_masses(pop, row, skip=l))
            )
            for l in range(pop.llm_count)
        )
        for row in prescriptions
    )


def validate_params(game: BaseGame, pop: Population, params: ProtocolParams) -> list[str]:
    """Re-check every derived-parameter invariant; empty list means all hold.

    The tolerance and punishment-ratio checks apply to every
    parameterization; a degenerate one stops there.  The others check the
    threshold, the segment lengths, K = ceil(c*T) and the block-length
    inequalities (the last two only when nothing was overridden), and then
    recompute the mass ceilings (:func:`_mass_ceilings`) and the intended
    aggregates from the prescriptions, each to 1e-12.
    """
    out = []
    if not 12.0 * params.slack < params.epsilon:
        out.append("slack too large for epsilon")
    if not 5.0 * params.slack < params.gamma:
        out.append("slack too large for gamma")
    diff = max(
        abs(a - b) for a, b in zip(params.adjusted_target, params.target)
    )
    if diff > params.slack + 1e-12:
        out.append(f"adjusted target drifts {diff:.3g} from the target")
    for j in range(params.llm_count):
        ub = params.certificates[j].upper_bound
        lhs = (params.max_payoffs[j] + params.punish_ratio * ub) / (
            1.0 + params.punish_ratio
        )
        if lhs > params.adjusted_target[j] + 1e-9:
            out.append(f"punishment-ratio inequality fails for advisor {j}")
    if params.degenerate:
        return out
    if not params.freq_threshold < 1.0:
        out.append("frequency threshold must stay below 1")
    if params.payoff_spread * params.freq_threshold > params.slack + 1e-12:
        out.append("threshold-impact bound fails")
    if sum(params.segment_lengths) != params.block_length:
        out.append("segment lengths do not fill the block")
    n = params.segment_count
    for h, (L, w) in enumerate(zip(params.segment_lengths, params.cycle.weights)):
        if abs(L / params.block_length - w) > (n - 1) / params.block_length + 1e-12:
            out.append(f"segment {h} misses its weight beyond (n-1)/T")
    if not params.overridden:
        if params.punish_length != math.ceil(params.punish_ratio * params.block_length):
            out.append("punishment length is not ceil(c*T)")
        out.extend(_large_T_violations(
            params.block_length, params.cycle.payoffs, params.cycle.weights,
            params.slack, params.payoff_spread, params.payoff_cap,
            params.punish_ratio, params.probe_rate, params.freq_threshold,
        ))
    ceilings = _mass_ceilings(game, pop, params.prescriptions)
    for h, per_reviewed in enumerate(ceilings):
        for l, per_role in enumerate(per_reviewed):
            for i, row in enumerate(per_role):
                for a, (label, want) in enumerate(zip(game.actions[i], row)):
                    if abs(params.mass_ceilings[h][l][i][a] - want) > 1e-12:
                        out.append(f"mass ceiling mismatch at h={h} l={l} ({i},{label})")
    for h in range(params.segment_count):
        want = aggregate_mass(game, pop, params.prescriptions[h])
        if want.max_diff(params.intended_aggregates[h]) > 1e-12:
            out.append(f"intended aggregate mismatch in segment {h}")
    return out
