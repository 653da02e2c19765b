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
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

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
    _payoff_tensor,
)
from .feasibility import (
    CycleDecomposition,
    MinmaxCertificate,
    certificate_from_punishment,
    check_strict_ir,
    decompose_target,
    minmax,
    _correlated_lower_bound,
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
    interior_point: tuple[float, ...]
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


@lru_cache(maxsize=4096)
def _pure_instruction(labels: tuple[str, ...]) -> InstructionProfile:
    return InstructionProfile.pure(labels)


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
    """Advance the public machine by one observed aggregate.

    Excess checks run per period but both rules fire at block end, excess
    first.  Identical aggregate streams produce identical trajectories no
    matter who runs the machine.
    """
    if state.mode == "punishment":
        remaining = state.punishment_remaining - 1
        if remaining > 0:
            return replace(state, punishment_remaining=remaining), None
        return _fresh_block(params, state.punished), None

    h = state.segment
    tol = params.discrepancy_tol
    discrepant = table.max_diff(params.intended_aggregates[h]) > tol
    ceilings = params.mass_ceilings[h][state.phase]
    excess = False
    for i, row in enumerate(table.masses):
        limits = ceilings[i]
        for a, mass in enumerate(row):
            if mass > limits[a] + tol:
                excess = True
                break
        if excess:
            break

    discrepancies = state.discrepancies + (1 if discrepant else 0)
    excess_seen = state.excess_seen or excess
    block_step = state.block_step + 1

    if block_step < params.block_length:
        step = state.step + 1
        segment = h
        if step >= params.segment_lengths[segment]:
            segment = _first_active_segment(params.segment_lengths, segment + 1)
            step = 0
        return (
            replace(
                state,
                segment=segment,
                step=step,
                block_step=block_step,
                discrepancies=discrepancies,
                excess_seen=excess_seen,
            ),
            None,
        )

    # Block complete: excess clears the reviewed advisor, frequency punishes it.
    if excess_seen:
        event = ProtocolEvent(EXCESS, state.phase)
        return _fresh_block(params, (state.phase + 1) % params.llm_count), event
    if discrepancies / params.block_length > params.freq_threshold + 1e-12:
        event = ProtocolEvent(FREQUENCY, state.phase)
        if params.punish_length > 0:
            return (
                ProtocolState(
                    phase=state.phase,
                    segment=state.segment,
                    step=state.step,
                    block_step=0,
                    discrepancies=0,
                    excess_seen=False,
                    mode="punishment",
                    punishment_remaining=params.punish_length,
                    punished=state.phase,
                ),
                event,
            )
        return _fresh_block(params, state.phase), event
    return _fresh_block(params, state.phase), None


def _max_margin_point(V: np.ndarray, ir_upper):
    """Hull point maximizing the minimum margin above the punishment bounds."""
    N, k = V.shape
    # variables: w (N), t; maximize t  s.t.  (V^T w)_j - t >= ir_upper_j
    c = np.zeros(N + 1)
    c[N] = -1.0
    A_ub = np.hstack([-V.T, np.ones((k, 1))])
    b_ub = -np.asarray(ir_upper, dtype=float)
    A_eq = np.zeros((1, N + 1))
    A_eq[0, :N] = 1.0
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * N + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise MetagameError(f"interior-point LP failed: {res.message}")
    w = np.clip(res.x[:N], 0.0, None)
    w /= w.sum()
    return tuple(V.T @ w), float(res.x[N])


def best_pure_punishment(
    game: BaseGame,
    pop: Population,
    j: int,
    budget: float = DEFAULT_TERM_BUDGET,
    hint: tuple[MetaAction | None, ...] | None = None,
) -> MinmaxCertificate:
    """Best deterministic punishment of advisor j.

    Enumerates every pure punisher combination exactly and keeps the one that
    minimizes j's exact best-response value, so punishment blocks stay
    deterministic.  A pure ``hint`` profile short-circuits the search.
    """
    U = _payoff_tensor(game, pop, budget)
    return _best_pure_punishment(game, pop, j, U, budget, hint)


def _best_pure_punishment(game, pop, j, U, budget, hint) -> MinmaxCertificate:
    """:func:`best_pure_punishment` on the payoff tensor ``U`` of (game, pop)."""
    k = pop.llm_count
    if hint is not None:
        for q, action in enumerate(hint):
            if q == j:
                if action is not None:
                    raise ValidationError("hint must leave the punished slot empty")
            elif len(action.outcomes) != 1 or action.outcomes[0][0].pure_profile is None:
                raise ValidationError("punishment hints must be deterministic")
        punishment = tuple(hint)
    elif k == 1:
        return minmax(game, pop, j, budget=budget)
    else:
        # First minimizer in product order of the punished advisor's best reply.
        worst_reply = _punishment_matrix(U, j).max(axis=1)
        combo = np.unravel_index(int(np.argmin(worst_reply)), U.shape[: k - 1])
        profiles = list(game.profiles())
        punishers = [q for q in range(k) if q != j]
        punishment = [None] * k
        for q, bi in zip(punishers, combo):
            punishment[q] = MetaAction.from_pure(profiles[bi])
        punishment = tuple(punishment)
    return certificate_from_punishment(
        game, pop, j, punishment, budget=budget,
        lower_bound=_correlated_lower_bound(U, j),
    )


def _segment_lengths(weights, T: int) -> tuple[int, ...]:
    n = len(weights)
    lengths = [int(math.floor(T * w)) for w in weights[:-1]]
    lengths.append(T - sum(lengths))
    return tuple(lengths)


def _large_T_violations(params_like, T: int) -> list[str]:
    """The four block-length inequalities, on explicit arguments."""
    (payoffs, weights, slack, spread, cap, c, p, tau) = params_like
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
    punishment_hints: dict[int, tuple[MetaAction | None, ...]] | None = None,
    budget: float = DEFAULT_TERM_BUDGET,
) -> ProtocolParams:
    """Derive a full protocol parameterization for a target payoff vector.

    Raises :class:`InfeasibleTargetError` / :class:`NotIndividuallyRationalError`
    when the target fails the preconditions.  ``overrides`` may pin
    ``probe_rate`` / ``block_length`` / ``punish_length`` for small-scale
    experiments; overridden parameterizations skip the block-length
    inequalities and are flagged.
    """
    if epsilon <= 0 or gamma <= 0:
        raise ValidationError("epsilon and gamma must be positive")
    target = tuple(float(v) for v in target)
    k = pop.llm_count
    U = _payoff_tensor(game, pop, budget)
    vertices = _vertex_set(game, U)
    V = vertices.matrix

    certs = []
    for j in range(k):
        hint = punishment_hints.get(j) if punishment_hints else None
        certs.append(_best_pure_punishment(game, pop, j, U, budget, hint))
    ir_upper = [c.upper_bound for c in certs]

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
        interior = target
        blend = 0.0
        adjusted = target
    else:
        ir_report = check_strict_ir(target, certs)
        if not ir_report.strict:
            raise NotIndividuallyRationalError(target, ir_report.margins)
        interior, _ = _max_margin_point(V, ir_upper)
        diff = max(abs(s - r) for s, r in zip(interior, target))
        blend = 1.0 if diff <= slack else slack / diff
        adjusted = tuple(
            (1.0 - blend) * r + blend * s for r, s in zip(target, interior)
        )
    cycle = decompose_target(vertices, adjusted)

    if degenerate:
        c = 0.0
    else:
        raw_c = max(
            (max_payoffs[j] - adjusted[j]) / (adjusted[j] - ir_upper[j])
            for j in range(k)
        )
        c = max(0.0, raw_c) * 1.1

    if degenerate:
        probe_rate = 0.0
    else:
        probe_rate = min(0.25, slack / (3.0 * spread))
    tau = 3.0 * probe_rate

    overrides = dict(overrides or {})
    overridden = bool(overrides)
    if "probe_rate" in overrides:
        probe_rate = float(overrides["probe_rate"])
        tau = 3.0 * probe_rate

    if "block_length" in overrides:
        T = int(overrides["block_length"])
        if T < 1:
            raise ValidationError("block_length override must be positive")
    elif degenerate:
        T = max(16, cycle.support_size)
    else:
        T = 16
        ineq_args = (cycle.payoffs, cycle.weights, slack, spread, cap, c, probe_rate, tau)
        while _large_T_violations(ineq_args, T):
            T *= 2
            if T > MAX_BLOCK_LENGTH:
                raise MetagameError(
                    "no block length satisfies the inequalities below the cap"
                )

    if "punish_length" in overrides:
        K = int(overrides["punish_length"])
    elif degenerate:
        K = 0
    else:
        K = math.ceil(c * T)

    lengths = _segment_lengths(cycle.weights, T)
    prescriptions = []
    for profile in cycle.profiles:
        row = []
        for action in profile.actions:
            (instruction, _), = action.outcomes
            row.append(instruction)
        prescriptions.append(tuple(row))
    prescriptions = tuple(prescriptions)

    intended = tuple(
        aggregate_mass(game, pop, row) for row in prescriptions
    )
    ceilings = []
    for h, row in enumerate(prescriptions):
        per_reviewed = []
        for l in range(k):
            per_role = []
            for i in range(game.role_count):
                labels = game.actions[i]
                base = [0.0] * len(labels)
                for q in range(k):
                    if q == l:
                        continue
                    p_iq = pop.shares[i][q]
                    if p_iq <= 0.0:
                        continue
                    for a, massv in row[q].action_mass(i).items():
                        base[labels.index(a)] += p_iq * massv
                p_il = pop.shares[i][l]
                per_role.append(tuple(b + p_il for b in base))
            per_reviewed.append(tuple(per_role))
        ceilings.append(tuple(per_reviewed))

    params = ProtocolParams(
        target=target,
        adjusted_target=adjusted,
        epsilon=epsilon,
        gamma=gamma,
        slack=slack,
        blend=blend,
        interior_point=tuple(interior),
        action_sets=game.actions,
        cycle=cycle,
        prescriptions=prescriptions,
        intended_aggregates=intended,
        mass_ceilings=tuple(ceilings),
        segment_lengths=lengths,
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


def validate_params(game: BaseGame, pop: Population, params: ProtocolParams) -> list[str]:
    """Re-check every derived-parameter invariant; empty list means all hold."""
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
        ineq_args = (
            params.cycle.payoffs,
            params.cycle.weights,
            params.slack,
            params.payoff_spread,
            params.payoff_cap,
            params.punish_ratio,
            params.probe_rate,
            params.freq_threshold,
        )
        out.extend(_large_T_violations(ineq_args, params.block_length))
    # ceilings must match their defining formula
    for h in range(params.segment_count):
        for l in range(params.llm_count):
            for i in range(game.role_count):
                labels = game.actions[i]
                for a, label in enumerate(labels):
                    want = pop.shares[i][l]
                    for q in range(params.llm_count):
                        if q != l:
                            want += pop.shares[i][q] * params.prescriptions[h][q].action_mass(i).get(label, 0.0)
                    got = params.mass_ceilings[h][l][i][a]
                    if abs(got - want) > 1e-12:
                        out.append(f"mass ceiling mismatch at h={h} l={l} ({i},{label})")
    for h in range(params.segment_count):
        want = aggregate_mass(game, pop, params.prescriptions[h])
        if want.max_diff(params.intended_aggregates[h]) > 1e-12:
            out.append(f"intended aggregate mismatch in segment {h}")
    return out
