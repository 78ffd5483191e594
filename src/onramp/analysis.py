"""Structural quantities of the on-ramp choice game.

Everything here is closed-form: the all-selfish equilibrium bypass share, the
social-delay minimizer, the regime ratio governing the worst-case analysis,
and the membership/classification predicates built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateConfigError, NotInMeaningfulSetError
from .model import DelayCoefficients, OnRampConfig, check_population, require_finite, social_delay


@dataclass(frozen=True)
class ErrorInterval:
    """Multiplicative bounds on the marginal-cost measurement error.

    A degenerate interval (equal bounds) is allowed and means no uncertainty.
    """

    e_lower: float
    e_upper: float

    def __post_init__(self):
        if not (
            math.isfinite(self.e_lower)
            and math.isfinite(self.e_upper)
            and 0.0 < self.e_lower <= self.e_upper
        ):
            raise ValueError(
                f"need 0 < e_lower <= e_upper, got ({self.e_lower}, {self.e_upper})"
            )

    @property
    def ratio_sqrt(self) -> float:
        return math.sqrt(self.e_upper / self.e_lower)

    @property
    def geometric_mean(self) -> float:
        return math.sqrt(self.e_lower * self.e_upper)


def selfish_equilibrium_flow(derived: DelayCoefficients) -> float:
    """Bypass share at which the steadfast and bypass travel delays cross."""
    if derived.slope_sum <= 0.0:
        raise DegenerateConfigError("all delay slopes vanish; no interior crossing")
    return require_finite(
        "phi",
        (derived.steadfast_slope + derived.steadfast_intercept - derived.bypass_intercept)
        / derived.slope_sum,
    )


def social_optimum(
    config: OnRampConfig, derived: DelayCoefficients
) -> tuple[float, float]:
    """Unconstrained minimizer of the social delay and the optimum over [0, 1].

    The minimizer comes from the stationarity of the convex quadratic: its
    second-order coefficient is the slope sum, its linear coefficient collects
    the intercept gap and the neighboring-flow weights.  The optimal value
    clamps the minimizer into [0, 1] before evaluating.  Both must be finite.
    """
    if derived.slope_sum <= 0.0:
        raise DegenerateConfigError("social delay is not strictly convex")
    n0, n2 = config.n0, config.n2
    minimizer = (
        2.0 * derived.steadfast_slope
        + derived.steadfast_intercept
        - derived.bypass_intercept
        + n0 * derived.steadfast_slope
        - n2 * derived.lane2_slope
    ) / (2.0 * derived.slope_sum)
    require_finite("delta", minimizer)
    optimum = social_delay(config, derived, min(max(minimizer, 0.0), 1.0))
    return minimizer, require_finite("j_opt", optimum)


def altruistic_intersection(phi: float, delta: float, beta_e: float) -> float:
    """Bypass share where the two altruistic costs cross at effective level beta_e.

    A weighted average of phi (weight (1-beta_e)/(1+beta_e)) and delta (weight
    2*beta_e/(1+beta_e)); it equals phi at level 0, delta at level 1, and
    increases toward 2*delta - phi as the level grows.  ``beta_e`` may also
    be a numpy array of levels, which the caller keeps nonnegative.
    """
    if isinstance(beta_e, (int, float)) and beta_e < 0.0:
        raise ValueError(f"effective altruism level must be >= 0, got {beta_e}")
    return ((1.0 - beta_e) * phi + 2.0 * beta_e * delta) / (1.0 + beta_e)


def pi_value(phi: float, delta: float) -> float:
    """Regime ratio (1 - phi) / (2*delta - phi - 1).

    Inside the meaningful set the ratio is either negative or greater than 1;
    it is the effective level at which the altruistic crossing reaches 1.  At
    a zero denominator it is the limit: +/-inf with the sign of 1 - phi, or
    NaN when 1 - phi is zero too.
    """
    numerator, denominator = 1.0 - phi, 2.0 * delta - phi - 1.0
    if denominator == 0.0:
        return math.copysign(math.inf, numerator) if numerator != 0.0 else math.nan
    return numerator / denominator


class Regime(Enum):
    """Worst-case regimes of the uncertainty analysis.

    TRANSITION_LIMITED: the ratio is positive and small enough that the upper
    error bound lands on the flat stage of the worst-case curve, so the best
    level equalizes the lower bound against the transition point.
    ENDPOINT_SYMMETRIC: the best level equalizes the two interval endpoints.
    """

    TRANSITION_LIMITED = "transition_limited"
    ENDPOINT_SYMMETRIC = "endpoint_symmetric"
    NOT_IN_MEANINGFUL_SET = "not_in_meaningful_set"


@dataclass(frozen=True)
class Classification:
    regime: Regime
    reason: str | None = None

    @property
    def in_meaningful_set(self) -> bool:
        return self.regime is not Regime.NOT_IN_MEANINGFUL_SET


def _membership_reason(phi: float, delta: float) -> str | None:
    if not phi > 0.0:
        return "Phi <= 0"
    if not phi < delta:
        return "Phi >= Delta"
    if not delta < 1.0:
        return "Delta >= 1"
    return None


def worst_case_regime(pi: float, interval: ErrorInterval) -> Regime:
    """Regime of a meaningful-set configuration with regime ratio ``pi`` (see classify)."""
    if 0.0 < pi < interval.ratio_sqrt:
        return Regime.TRANSITION_LIMITED
    return Regime.ENDPOINT_SYMMETRIC


def classify(
    config: OnRampConfig, derived: DelayCoefficients, interval: ErrorInterval
) -> Classification:
    """Place a configuration in a worst-case regime for the given error interval.

    Membership in the meaningful set requires 0 < phi < delta < 1.  Among
    members, the transition-limited regime requires the regime ratio to lie
    strictly between 0 and sqrt(e_upper / e_lower).  Members have 1 - phi > 0,
    so a singular ratio is +inf and falls in the endpoint branch.
    """
    phi = selfish_equilibrium_flow(derived)
    delta, _ = social_optimum(config, derived)
    reason = _membership_reason(phi, delta)
    if reason is not None:
        return Classification(Regime.NOT_IN_MEANINGFUL_SET, reason)
    return Classification(worst_case_regime(pi_value(phi, delta), interval))


@dataclass(frozen=True)
class AnalysisSummary:
    """Closed-form structure of one configuration.

    ``pi`` is the pi_value limit when its denominator vanishes;
    ``decrease_interval`` is open on the left (alpha must strictly exceed phi
    to help) while ``optimize_interval`` is closed.
    """

    phi: float
    delta: float
    pi: float
    j_opt: float
    j_soc_at_phi: float
    in_meaningful_set: bool
    exclusion_reason: str | None
    decrease_interval: tuple[float, float]
    optimize_interval: tuple[float, float]


def analyze(config: OnRampConfig, derived: DelayCoefficients) -> AnalysisSummary:
    """Evaluate all structural quantities of a configuration in one pass."""
    phi = selfish_equilibrium_flow(derived)
    delta, j_opt = social_optimum(config, derived)
    reason = _membership_reason(phi, delta)
    return AnalysisSummary(
        phi=phi,
        delta=delta,
        pi=pi_value(phi, delta),
        j_opt=j_opt,
        j_soc_at_phi=require_finite("j_soc_at_phi", social_delay(config, derived, phi)),
        in_meaningful_set=reason is None,
        exclusion_reason=reason,
        decrease_interval=(phi, 1.0),
        optimize_interval=(min(max(delta, 0.0), 1.0), 1.0),
    )


def require_meaningful(summary: AnalysisSummary) -> None:
    """Raise NotInMeaningfulSetError unless the configuration is in the meaningful set."""
    if not summary.in_meaningful_set:
        raise NotInMeaningfulSetError(
            summary.exclusion_reason or "configuration outside the meaningful set"
        )


class ImprovementFlags(NamedTuple):
    decreases: bool
    optimizes: bool


def improvement_conditions(
    alpha: float, beta: float, summary: AnalysisSummary
) -> ImprovementFlags:
    """Whether a population (alpha, beta) strictly decreases or optimizes the social delay.

    The social delay strictly improves on the all-selfish equilibrium exactly
    when the level is positive and the altruistic share exceeds phi; it
    reaches the optimum exactly when the level is 1 and the share is at least
    delta.
    """
    require_meaningful(summary)
    check_population(alpha, beta)
    decreases = beta > 0.0 and alpha > summary.phi
    optimizes = beta == 1.0 and alpha >= summary.delta
    return ImprovementFlags(decreases=decreases, optimizes=optimizes)
