"""Worst-case social delay under marginal-cost measurement error.

The price of anarchy takes the supremum of the equilibrium social delay over
the error interval and over abundant altruistic ratios, normalized by the
optimum.  Closed-form evaluation reduces both suprema to two endpoint solves;
a grid oracle re-derives the optimal altruism level by brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import (
    AnalysisSummary,
    ErrorInterval,
    Regime,
    altruistic_intersection,
    require_meaningful,
    worst_case_regime,
)
from .equilibrium import inclusive_grid, solve_equilibrium
from .errors import TransitionUndefinedError, ZeroOptimumError
from .model import DelayCoefficients, OnRampConfig, check_population, social_delay


@dataclass(frozen=True)
class WorstCasePoint:
    error: float
    alpha: float
    x_hat_b: float
    j_soc: float


@dataclass(frozen=True)
class RobustnessSummary:
    poa: float
    beta_star: float
    branch: Regime
    transition_level_at_full_altruism: float | None
    worst_case_points: tuple[WorstCasePoint, ...]


def worst_case_social_delay(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    beta: float,
    interval: ErrorInterval,
) -> tuple[float, tuple[WorstCasePoint, ...]]:
    """Supremum of the equilibrium social delay over errors and abundant ratios.

    The ratio supremum is attained at full altruism, and the error supremum at
    an interval endpoint: the equilibrium bypass share is monotone in the
    error factor while the social delay is convex in the share, so no interior
    error can dominate both endpoints.  Returns the supremum and the endpoint
    evaluations achieving it (both, on a tie).  The configuration and beta are
    checked by solve_equilibrium.
    """
    points = []
    for error in dict.fromkeys((interval.e_lower, interval.e_upper)):
        result = solve_equilibrium(config, derived, summary, alpha=1.0, beta=beta, error=error)
        points.append(
            WorstCasePoint(
                error=error, alpha=1.0, x_hat_b=result.x_hat_b, j_soc=result.social_delay
            )
        )
    supremum = max(point.j_soc for point in points)
    achieving = tuple(p for p in points if p.j_soc >= supremum - 1e-12)
    return supremum, achieving


def require_positive_optimum(summary: AnalysisSummary) -> None:
    """Raise ZeroOptimumError when the optimum is zero and delay ratios are undefined."""
    if summary.j_opt <= 0.0:
        raise ZeroOptimumError("optimal social delay is zero; ratio undefined")


def price_of_anarchy(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    beta: float,
    interval: ErrorInterval,
) -> float:
    """Worst-case social delay normalized by the optimum; always >= 1."""
    require_positive_optimum(summary)
    supremum, _ = worst_case_social_delay(config, derived, summary, beta, interval)
    return supremum / summary.j_opt


def transition_beta(alpha: float, phi: float, delta: float) -> float:
    """Effective level beyond which the equilibrium sticks at the share alpha.

    Defined only while 2*delta - phi - alpha > 0; at alpha == delta it equals
    1, and at alpha == 1 (when defined) it equals the regime ratio.
    """
    denominator = 2.0 * delta - phi - alpha
    if denominator <= 0.0:
        raise TransitionUndefinedError(
            f"no finite transition level: 2*delta - phi - alpha = {denominator} <= 0"
        )
    return (alpha - phi) / denominator


def optimal_altruism_level(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    interval: ErrorInterval,
) -> RobustnessSummary:
    """Altruism level minimizing the price of anarchy, with its achieved value.

    In the endpoint-symmetric regime the minimizer is the reciprocal of the
    interval's geometric mean, placing the two endpoint crossings at equal
    social delay.  In the transition-limited regime it is 1/(e_lower * pi),
    equalizing the lower endpoint against the flat stage that starts at
    effective level pi.
    """
    require_meaningful(summary)
    regime = worst_case_regime(summary.pi, interval)
    if regime is Regime.TRANSITION_LIMITED:
        beta_star = 1.0 / (interval.e_lower * summary.pi)
    else:
        beta_star = 1.0 / interval.geometric_mean
    require_positive_optimum(summary)
    supremum, points = worst_case_social_delay(config, derived, summary, beta_star, interval)
    transition = (
        summary.pi if math.isfinite(summary.pi) and summary.pi > 0.0 else None
    )
    return RobustnessSummary(
        poa=supremum / summary.j_opt,
        beta_star=beta_star,
        branch=regime,
        transition_level_at_full_altruism=transition,
        worst_case_points=points,
    )


def grid_poa(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    beta: float,
    interval: ErrorInterval,
    inner_grid_step: float = 1e-2,
) -> float:
    """Grid-sampled price of anarchy: errors and ratios enumerated exhaustively.

    Evaluates the equilibrium share min(alpha, crossing(beta*error)) on the
    product grid, every error on the grid at once; valid for the
    abundant-ratio range where alpha > phi.
    """
    poa = _grid_poa_of_level(config, derived, summary, interval, inner_grid_step)
    check_population(beta=beta, error=interval.e_upper)
    return poa(beta)


def _grid_poa_of_level(config, derived, summary, interval, inner_grid_step):
    """grid_poa as a function of an unchecked level, with its two grids built once."""
    import numpy as np
    if inner_grid_step <= 0.0:
        raise ValueError(f"inner grid step must be > 0, got {inner_grid_step}")
    require_meaningful(summary)
    require_positive_optimum(summary)
    errors = np.array(inclusive_grid(interval.e_lower, interval.e_upper, inner_grid_step))
    delta_clamped = min(max(summary.delta, 0.0), 1.0)
    alphas = np.array(inclusive_grid(delta_clamped, 1.0, inner_grid_step))[None, :]

    def poa(beta: float) -> float:
        crossings = altruistic_intersection(summary.phi, summary.delta, beta * errors)
        shares = np.minimum(alphas, crossings[:, None])
        return float(social_delay(config, derived, shares).max()) / summary.j_opt

    return poa


def grid_optimal_beta(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    interval: ErrorInterval,
    beta_grid_step: float = 1e-3,
    inner_grid_step: float = 1e-2,
) -> float:
    """Brute-force minimizer of the grid-sampled price of anarchy.

    Searches levels on (0, 2/e_lower], a range that provably contains both
    closed-form minimizers; ties resolve to the smallest level.
    """
    beta_max = 2.0 / interval.e_lower
    if beta_grid_step > beta_max:
        raise ValueError("beta grid step larger than the search range")
    try:
        levels = inclusive_grid(0.0, beta_max, beta_grid_step)[1:]
    except ValueError as exc:
        raise ValueError(
            f"beta search range (0, 2/e_lower] with e_lower = {interval.e_lower}: {exc}"
        ) from exc
    poa = _grid_poa_of_level(config, derived, summary, interval, inner_grid_step)
    check_population(beta=levels[-1], error=interval.e_upper)
    return min(levels, key=poa)
