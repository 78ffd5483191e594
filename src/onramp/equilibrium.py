"""Choice equilibrium of the mixed selfish/altruistic population.

The closed-form solver maps a population (alpha, beta*error) to the unique
equilibrium bypass share of a meaningful-set configuration; two independent
oracles cross-check it: exhaustive verification on a feasibility grid, and
fractional best-response dynamics whose fixed points are exactly the verified
equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import AnalysisSummary, altruistic_intersection, require_meaningful
from .model import (
    DelayCoefficients,
    DelayProfile,
    FlowDistribution,
    OnRampConfig,
    check_population,
    check_share,
    cost_gaps,
    delays,
    social_delay,
    validate_flow_distribution,
)


class EquilibriumCase(Enum):
    """Which branch of the equilibrium map produced the result.

    BASELINE: no effective altruism (level zero or no altruists); all-selfish split.
    CASE_B: altruists scarce (alpha <= phi); total share pinned at the selfish crossing.
    CASE_C: all altruists bypass but saturate below their own cost crossing.
    CASE_D: altruists split exactly at the altruistic-cost crossing.
    """

    BASELINE = "baseline"
    CASE_B = "case_b"
    CASE_C = "case_c"
    CASE_D = "case_d"


@dataclass(frozen=True)
class EquilibriumResult:
    flow: FlowDistribution
    x_hat_b: float
    case: EquilibriumCase
    delays: DelayProfile
    social_delay: float


def solve_equilibrium(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    alpha: float,
    beta: float,
    error: float = 1.0,
) -> EquilibriumResult:
    """Closed-form equilibrium for a meaningful-set configuration.

    The total bypass share is phi when the effective level beta*error is zero
    or alpha <= phi, and min(alpha, crossing(beta*error)) otherwise.  With an
    inert level the altruists are indifferent; the canonical decomposition
    puts min(alpha, phi) of them on bypass, the level -> 0+ limit of the
    active cases.  Boundary ties resolve to CASE_B at alpha == phi and to
    CASE_D at alpha == crossing; the share is the same either way.
    """
    require_meaningful(summary)
    check_population(alpha, beta, error)
    level = beta * error
    phi = summary.phi
    if level == 0.0 or alpha == 0.0:
        case = EquilibriumCase.BASELINE
        altruistic_bypass = min(alpha, phi)
        selfish_bypass = phi - altruistic_bypass
        x_hat_b = phi
    elif alpha <= phi:
        case = EquilibriumCase.CASE_B
        altruistic_bypass = alpha
        selfish_bypass = phi - alpha
        x_hat_b = phi
    else:
        crossing = altruistic_intersection(phi, summary.delta, level)
        if alpha < crossing:
            case = EquilibriumCase.CASE_C
            x_hat_b = alpha
        else:
            case = EquilibriumCase.CASE_D
            x_hat_b = crossing
        altruistic_bypass = x_hat_b
        selfish_bypass = 0.0
    flow = FlowDistribution(
        selfish_steadfast=(1.0 - alpha) - selfish_bypass,
        selfish_bypass=selfish_bypass,
        altruistic_steadfast=alpha - altruistic_bypass,
        altruistic_bypass=altruistic_bypass,
    )
    return EquilibriumResult(
        flow=flow,
        x_hat_b=x_hat_b,
        case=case,
        delays=delays(derived, x_hat_b),
        social_delay=social_delay(config, derived, x_hat_b),
    )


@dataclass(frozen=True)
class WardropReport:
    """The four switching products of the equilibrium definition.

    Each product pairs a class mass with the cost advantage of the option it
    occupies; the flow is an equilibrium at tolerance ``tol`` exactly when no
    product exceeds it.
    """

    selfish_steadfast: float
    selfish_bypass: float
    altruistic_steadfast: float
    altruistic_bypass: float
    tol: float

    @property
    def products(self) -> tuple[float, float, float, float]:
        return (
            self.selfish_steadfast,
            self.selfish_bypass,
            self.altruistic_steadfast,
            self.altruistic_bypass,
        )

    @property
    def max_product(self) -> float:
        return max(self.products)

    @property
    def passed(self) -> bool:
        return self.max_product <= self.tol


def verify_wardrop(
    config: OnRampConfig,
    derived: DelayCoefficients,
    flow: FlowDistribution,
    beta: float,
    error: float = 1.0,
    tol: float = 1e-9,
) -> WardropReport:
    """Evaluate the equilibrium definition at a feasible flow."""
    check_share(flow.total_bypass)
    check_population(beta=beta, error=error)
    travel_gap, perceived_gap = cost_gaps(config, derived, flow.total_bypass, beta * error)
    return WardropReport(
        selfish_steadfast=flow.selfish_steadfast * travel_gap,
        selfish_bypass=flow.selfish_bypass * -travel_gap,
        altruistic_steadfast=flow.altruistic_steadfast * perceived_gap,
        altruistic_bypass=flow.altruistic_bypass * -perceived_gap,
        tol=tol,
    )


def inclusive_grid(lower: float, upper: float, step: float) -> np.ndarray:
    """Multiples of ``step`` from ``lower``, with ``upper`` always included, as an array."""
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if upper < lower:
        raise ValueError(f"empty grid: [{lower}, {upper}]")
    span = (upper - lower) / step
    if not (math.isfinite(span) and math.isfinite(step)):
        raise ValueError(f"grid [{lower}, {upper}] with step {step} is not finite")
    count = int(math.floor(span + 1e-9))
    grid = lower + np.arange(count + 1, dtype=float) * step
    if grid[-1] > upper:
        grid[-1] = upper
    elif upper - grid[-1] > 1e-12:
        grid = np.append(grid, upper)
    return grid


def brute_force_equilibrium(
    config: OnRampConfig,
    derived: DelayCoefficients,
    alpha: float,
    beta: float,
    error: float = 1.0,
    grid_step: float = 1e-3,
) -> list[FlowDistribution]:
    """Enumerate feasible decompositions on a grid and keep the verified ones.

    The verification tolerance scales with the grid step times the summed
    slope magnitudes, so the affine cost gaps cannot jump past it between
    neighboring grid points and the true equilibrium share is always covered
    within one step.  At small effective levels the altruists' near
    indifference widens the verified band to a few steps around the true
    share; the band tightens as the level grows.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ValueError(f"grid step must lie in (0, 0.1], got {grid_step}")
    check_population(alpha, beta, error)
    tol = (
        derived.steadfast_slope + derived.bypass_slope + derived.lane2_slope
    ) * grid_step

    selfish_bypass = inclusive_grid(0.0, 1.0 - alpha, grid_step)[:, None]
    altruistic_bypass = inclusive_grid(0.0, alpha, grid_step)[None, :]
    selfish_steadfast = (1.0 - alpha) - selfish_bypass
    altruistic_steadfast = alpha - altruistic_bypass
    travel_gap, perceived_gap = cost_gaps(
        config, derived, selfish_bypass + altruistic_bypass, beta * error
    )

    ok = (
        (selfish_steadfast * travel_gap <= tol)
        & (selfish_bypass * -travel_gap <= tol)
        & (altruistic_steadfast * perceived_gap <= tol)
        & (altruistic_bypass * -perceived_gap <= tol)
    )
    rows, cols = np.nonzero(ok)
    xb = selfish_bypass[:, 0]
    xtb = altruistic_bypass[0, :]
    return [
        FlowDistribution(
            selfish_steadfast=(1.0 - alpha) - xb[i],
            selfish_bypass=float(xb[i]),
            altruistic_steadfast=alpha - xtb[j],
            altruistic_bypass=float(xtb[j]),
        )
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


@dataclass(frozen=True)
class DynamicsStep:
    iteration: int
    flow: FlowDistribution
    max_product: float


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple[DynamicsStep, ...]
    converged: bool
    iterations: int

    @property
    def final(self) -> DynamicsStep:
        return self.steps[-1]


def best_response_dynamics(
    config: OnRampConfig,
    derived: DelayCoefficients,
    alpha: float,
    beta: float,
    error: float,
    initial: FlowDistribution,
    step_size: float = 0.5,
    max_iters: int = 10000,
    tol: float = 1e-9,
    step_decay: float = 0.0,
    record_every: int = 1,
) -> DynamicsTrace:
    """Fractional best-response dynamics over the two driver classes.

    Each iteration moves a fraction of the mass sitting on the currently
    worse option toward the better one, selfish drivers by travel delay and
    altruists by perceived cost, clamped to feasibility.  The run terminates
    when every switching product falls below ``tol`` (a verified fixed point)
    or after ``max_iters`` moves.

    With a constant fraction the iterates orbit interior fixed points inside
    a band proportional to step_size times the moving mass; a positive
    ``step_decay`` shrinks the fraction harmonically,
    fraction_k = step_size / (1 + step_decay * k), collapsing the orbit onto
    the fixed point.  Fixed points are the same either way.
    """
    check_population(alpha, beta, error)
    if not 0.0 < step_size <= 1.0:
        raise ValueError(f"step size must lie in (0, 1], got {step_size}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    if step_decay < 0.0:
        raise ValueError(f"step decay must be >= 0, got {step_decay}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if validate_flow_distribution(initial, alpha):
        raise ValueError("initial flow is not feasible for the given alpha")

    level = beta * error
    selfish_mass = 1.0 - alpha
    xb = initial.selfish_bypass
    xtb = initial.altruistic_bypass

    steps: list[DynamicsStep] = []
    converged = False
    moves = 0
    for moves in range(max_iters + 1):
        xs = selfish_mass - xb
        xts = alpha - xtb
        travel_gap, perceived_gap = cost_gaps(config, derived, xb + xtb, level)
        worst = max(xs * travel_gap, xb * -travel_gap, xts * perceived_gap, xtb * -perceived_gap)
        terminal = worst <= tol or moves == max_iters
        if terminal or moves % record_every == 0:
            steps.append(
                DynamicsStep(
                    iteration=moves,
                    flow=FlowDistribution(xs, xb, xts, xtb),
                    max_product=worst,
                )
            )
        if worst <= tol:
            converged = True
            break
        if moves == max_iters:
            break
        fraction = step_size / (1.0 + step_decay * moves)
        if travel_gap > 0.0:
            xb += fraction * xs
        elif travel_gap < 0.0:
            xb -= fraction * xb
        if perceived_gap > 0.0:
            xtb += fraction * xts
        elif perceived_gap < 0.0:
            xtb -= fraction * xtb
        xb = min(max(xb, 0.0), selfish_mass)
        xtb = min(max(xtb, 0.0), alpha)
    return DynamicsTrace(steps=tuple(steps), converged=converged, iterations=moves)
