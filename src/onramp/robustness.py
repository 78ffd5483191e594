"""Worst-case social delay under marginal-cost measurement error.

The price of anarchy takes the supremum of the equilibrium social delay over
the error interval and over abundant altruistic ratios, normalized by the
optimum.  Closed-form evaluation reduces both suprema to two endpoint solves,
made as plain tuples in one private helper that poa, worst_case_social_delay
and optimal_beta share.  The grid oracles sample log-spaced errors at alpha = 1
(the social delay increases on [delta, 1]) in plain floats, and search the
level by golden section.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .analysis import _TRANSITION_LIMITED, ErrorInterval, Regime, _crossing
from .analysis import require_meaningful, worst_case_regime
from .equilibrium import _equilibrium_split
from .errors import TransitionUndefinedError, ZeroOptimumError
from .model import FLOAT_MAX, LEVEL_MAX, OnRamp, check_population, real, social_delay

_J_SOC = itemgetter(2)  # of an (error, x_hat_b, j_soc) endpoint
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # the share of a golden-section bracket kept
GRID_ERRORS = 129  # the errors that the grid oracles sample
MAX_ERROR_RATIO = 1e12  # the widest e_upper/e_lower on which grid_optimal_beta places beta*
TIE_RTOL = 1e-12  # worst-case delays this close to the larger one, relative to it, tie


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
    evaluations achieving it (both, on a tie: within TIE_RTOL of the supremum, relative
    to it, so that the rule does not depend on the unit of delay), building a point for
    those only.
    """
    ends = _endpoints(ramp, beta, interval)
    supremum = max(map(_J_SOC, ends))
    achieving = tuple(
        WorstCasePoint(error, 1.0, x_hat_b, j_soc)
        for error, x_hat_b, j_soc in ends
        if j_soc >= supremum - TIE_RTOL * supremum
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


def grid_poa(ramp: OnRamp, beta: float, interval: ErrorInterval) -> float:
    """Sampled price of anarchy, at full altruism; shares by analysis._crossing, not solve."""
    sampled_poa = _sampler(ramp, interval)
    check_population(beta=beta, error=interval.e_upper)
    return sampled_poa(float(beta))


def _sampler(ramp, interval):
    """The PoA at a level, worst of GRID_ERRORS log-spaced errors: both bounds, or the point."""
    require_meaningful(ramp)
    require_positive_optimum(ramp)
    lower, upper, phi, delta = interval.e_lower, interval.e_upper, ramp.phi, ramp.delta
    start, step = math.log(lower), (math.log(upper) - math.log(lower)) / (GRID_ERRORS - 1)
    interior = range(1, GRID_ERRORS - 1 if lower < upper else 0)  # exp(log x) may miss x
    errors = [min(max(math.exp(start + k * step), lower), upper) for k in interior]
    errors += {lower, upper}
    return lambda beta: max(
        social_delay(ramp, min(1.0, _crossing(phi, delta, beta * e))) for e in errors) / ramp.j_opt


def grid_optimal_beta(ramp: OnRamp, interval: ErrorInterval) -> float:
    """Golden-section minimizer of the sampled price of anarchy over log beta.

    At each error the share min(1, crossing(beta*error)) is nondecreasing in beta and the
    social delay is convex in the share, so their worst case is quasi-convex in beta: a
    golden-section search (Kiefer 1953) on log beta over [1/(2*e_upper), 2/e_lower], a range
    holding both closed forms, finds its least minimizer to 1e-12 relative (ties go left),
    or to about sqrt(eps)/(delta - phi) at a quadratic minimum (a point interval).  Past an
    error ratio of 1e16 the sampled worst case is flat in floats; past MAX_ERROR_RATIO, refused.
    """
    sampled_poa = _sampler(ramp, interval)
    lower, upper = interval.e_lower, interval.e_upper
    if not upper / lower <= MAX_ERROR_RATIO:
        raise ValueError(f"error ratio e_upper/e_lower = {upper / lower} exceeds"
                         f" {MAX_ERROR_RATIO:g}, too wide to place beta_star")
    lowest = 0.5 / upper  # the largest level searched, 2/e_lower * e_upper, is at most 2e12
    check_population(beta=lowest, error=upper)  # 1/(2*e_upper) overflows at a subnormal e_upper

    def probe(log_beta):  # (log beta, sampled PoA)
        return log_beta, sampled_poa(math.exp(log_beta))
    left, right = math.log(lowest), math.log(min(2.0 / lower, FLOAT_MAX))
    inner, outer = probe(right - _GOLDEN * (right - left)), probe(left + _GOLDEN * (right - left))
    while right - left > 1e-12:
        if inner[1] <= outer[1]:  # a tie moves left, toward the least minimizer
            right, outer = outer[0], inner
            inner = probe(right - _GOLDEN * (right - left))
        else:
            left, inner = inner[0], outer
            outer = probe(left + _GOLDEN * (right - left))
    return math.exp((inner if inner[1] <= outer[1] else outer)[0])
