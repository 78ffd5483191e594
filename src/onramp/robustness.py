"""Worst-case social delay under marginal-cost measurement error.

The price of anarchy takes the supremum of the equilibrium social delay over
the error interval and over abundant altruistic ratios, normalized by the
optimum.  Closed-form evaluation reduces both suprema to two endpoint solves,
made as plain tuples in one private helper that poa, worst_case_social_delay
and optimal_beta share.  The grid oracles sample errors at alpha = 1 (the
social delay increases on [delta, 1]) and levels in one pass.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .analysis import _TRANSITION_LIMITED, ErrorInterval, Regime, _crossing
from .analysis import require_meaningful, worst_case_regime
from .equilibrium import _equilibrium_split, inclusive_grid
from .errors import TransitionUndefinedError, ZeroOptimumError
from .model import FLOAT_MAX, LEVEL_MAX, OnRamp, check_population, positive, real, social_delay

_J_SOC = itemgetter(2)  # of an (error, x_hat_b, j_soc) endpoint
# cells of a grid-oracle block, unless one level's errors are more: 10**6 cells took
# `onramp optimal-beta --verify` on [0.25, 4] to 91 MB peak RSS, this bound to 30 MB
_CHUNK_CELLS = 2**14


class WorstCasePoint(NamedTuple):
    error: float
    alpha: float
    x_hat_b: float
    j_soc: float


class RobustnessSummary(NamedTuple):
    poa: float
    beta_star: float
    branch: Regime
    transition_level_at_full_altruism: float | None
    worst_case_points: tuple[WorstCasePoint, ...]


def worst_case_social_delay(
    ramp: OnRamp, beta: float, interval: ErrorInterval
) -> tuple[float, tuple[WorstCasePoint, ...]]:
    """Supremum of the equilibrium social delay over errors and abundant ratios.

    The ratio supremum is attained at full altruism, and the error supremum at
    an interval endpoint: the equilibrium bypass share is monotone in the
    error factor while the social delay is convex in the share, so no interior
    error can dominate both endpoints.  Returns the supremum and the endpoint
    evaluations achieving it (both, on a tie: within 1e-12 of the supremum, relative to
    it, so that the rule does not depend on the unit of delay), building a point for
    those only.
    """
    ends = _endpoints(ramp, beta, interval)
    supremum = max(map(_J_SOC, ends))
    achieving = tuple(
        WorstCasePoint(error, 1.0, x_hat_b, j_soc)
        for error, x_hat_b, j_soc in ends
        if j_soc >= supremum - 1e-12 * supremum
    )
    return supremum, achieving


def _endpoints(ramp, beta, interval) -> list[tuple[float, float, float]]:
    """(error, x_hat_b, j_soc) at full altruism for each distinct endpoint of the interval.

    The one home of the endpoint rule: the configuration and beta are checked
    as solve checks them, whose case analysis gives each share.
    """
    require_meaningful(ramp)
    ends = []
    e_lower, e_upper = interval.e_lower, interval.e_upper
    for error in (e_lower,) if e_lower == e_upper else (e_lower, e_upper):
        _, level = check_population(1.0, beta, error)
        _, x_hat_b, _, _ = _equilibrium_split(ramp.phi, ramp.delta, 1.0, level)
        ends.append((error, x_hat_b, social_delay(ramp, x_hat_b)))
    return ends


def require_positive_optimum(ramp: OnRamp) -> None:
    """Raise ZeroOptimumError when the optimum is zero and delay ratios are undefined."""
    if ramp.j_opt <= 0.0:
        raise ZeroOptimumError("optimal social delay is zero; ratio undefined")


def poa(ramp: OnRamp, beta: float, interval: ErrorInterval) -> float:
    """Worst-case social delay normalized by the optimum; always >= 1."""
    require_positive_optimum(ramp)
    return max(map(_J_SOC, _endpoints(ramp, beta, interval))) / ramp.j_opt


def price_of_anarchy(config, derived, ramp, beta, interval) -> float:
    return poa(ramp, beta, interval)  # until perfbench calls the one-object forms


def transition_beta(alpha: float, phi: float, delta: float) -> float:
    """Effective level beyond which the equilibrium sticks at the share alpha.

    Defined only while 2*delta - phi - alpha > 0; at alpha == delta it equals
    1, and at alpha == 1 (when defined) it equals the regime ratio.  Each input is
    taken by the number rule and must be finite.
    """
    alpha, phi, delta = real("alpha", alpha), real("phi", phi), real("delta", delta)
    for name, value in (("alpha", alpha), ("phi", phi), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    denominator = 2.0 * delta - phi - alpha
    if denominator <= 0.0:
        raise TransitionUndefinedError(
            f"no finite transition level: 2*delta - phi - alpha = {denominator} <= 0"
        )
    return (alpha - phi) / denominator


def optimal_beta(ramp: OnRamp, interval: ErrorInterval) -> RobustnessSummary:
    """Altruism level minimizing the price of anarchy, with its achieved value.

    In the endpoint-symmetric regime the minimizer is the reciprocal of the
    interval's geometric mean, placing the two endpoint crossings at equal
    social delay.  In the transition-limited regime it is 1/(e_lower * pi),
    equalizing the lower endpoint against the flat stage that starts at
    effective level pi.
    """
    require_meaningful(ramp)
    regime = worst_case_regime(ramp.pi, interval)
    if regime is _TRANSITION_LIMITED:
        denominator = interval.e_lower * ramp.pi
    else:
        denominator = interval.geometric_mean
    beta_star = 1.0 / denominator  # not 0: e_lower > 0, and a positive pi here exceeds 1
    if not beta_star * interval.e_upper <= LEVEL_MAX:  # the level at the upper bound
        shown = f"error interval ({interval.e_lower}, {interval.e_upper})"
        if beta_star > FLOAT_MAX:
            raise ValueError(f"beta_star = 1/{denominator} overflows on the {shown}")
        raise ValueError(f"{shown} is too wide: beta_star * e_upper > {LEVEL_MAX}")
    require_positive_optimum(ramp)
    supremum, points = worst_case_social_delay(ramp, beta_star, interval)
    transition = ramp.pi if math.isfinite(ramp.pi) and ramp.pi > 0.0 else None
    return RobustnessSummary(supremum / ramp.j_opt, beta_star, regime, transition, points)


def optimal_altruism_level(config, derived, ramp, interval) -> RobustnessSummary:
    return optimal_beta(ramp, interval)  # until perfbench calls the one-object forms


def grid_poa(
    ramp: OnRamp, beta: float, interval: ErrorInterval, inner_grid_step: float = 1e-2
) -> float:
    """Grid-sampled price of anarchy: the worst error on a grid, at full altruism.

    Checks the error supremum at the interval endpoints, and beta* through
    grid_optimal_beta.  Reuses the altruistic crossing (analysis._crossing)
    for the share min(1, crossing), so it does not check the equilibrium map.
    """
    return _grid_poa_at_levels(ramp, [beta], interval, inner_grid_step)[0]


def _grid_poa_at_levels(ramp, levels, interval, inner_grid_step):
    """grid_poa at each of the increasing ``levels``, evaluated in (level x error) blocks."""
    import numpy as np
    inner_grid_step = positive("inner grid step", inner_grid_step)
    require_meaningful(ramp)
    require_positive_optimum(ramp)
    errors = np.array(inclusive_grid(interval.e_lower, interval.e_upper, inner_grid_step))
    check_population(beta=levels[-1], error=interval.e_upper)
    rows = max(1, _CHUNK_CELLS // len(errors))
    poas = []
    for start in range(0, len(levels), rows):
        block = np.array(levels[start:start + rows], dtype=float)[:, None] * errors
        shares = np.minimum(1.0, _crossing(ramp.phi, ramp.delta, block))
        poas += (social_delay(ramp, shares).max(axis=1) / ramp.j_opt).tolist()
    return poas


def grid_optimal_beta(
    ramp: OnRamp,
    interval: ErrorInterval,
    beta_grid_step: float = 1e-3,
    inner_grid_step: float = 1e-2,
) -> float:
    """Brute-force minimizer of the grid-sampled price of anarchy.

    Searches levels on (0, 2/e_lower], a range that provably contains both
    closed-form minimizers; ties resolve to the smallest level.
    """
    beta_grid_step = positive("beta grid step", beta_grid_step)
    beta_max = 2.0 / interval.e_lower
    if beta_grid_step > beta_max:
        raise ValueError("beta grid step larger than the search range")
    try:
        levels = inclusive_grid(0.0, beta_max, beta_grid_step)[1:]
    except ValueError as exc:
        raise ValueError(
            f"beta search range (0, 2/e_lower] with e_lower = {interval.e_lower}: {exc}"
        ) from exc
    poas = _grid_poa_at_levels(ramp, levels, interval, inner_grid_step)
    return min(zip(levels, poas), key=itemgetter(1))[0]
