"""Closed-form predicates on the structure of the on-ramp choice game.

``model.OnRamp`` computes the structure once: the all-selfish equilibrium
bypass share, the social-delay minimizer, the regime ratio and meaningful-set
membership.  Built on them here: the altruistic crossing, the worst-case
regime for an error interval, and the improvement conditions of a population.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import NotInMeaningfulSetError
from .model import FLOAT_MAX, Frozen, OnRamp, check_population, real


class ErrorInterval(Frozen):
    """Multiplicative bounds on the marginal-cost measurement error.

    A degenerate interval (equal bounds) is allowed and means no uncertainty.
    """

    __slots__ = ("e_lower", "e_upper")

    def __init__(self, e_lower, e_upper):
        lower, upper = real("e_lower", e_lower), real("e_upper", e_upper)
        if not 0.0 < lower <= upper <= FLOAT_MAX:
            raise ValueError(f"need 0 < e_lower <= e_upper, got ({e_lower}, {e_upper})")
        object.__setattr__(self, "e_lower", lower)  # each bound as the float it equals
        object.__setattr__(self, "e_upper", upper)

    @property
    def ratio_sqrt(self) -> float:
        return math.sqrt(self.e_upper / self.e_lower)

    @property
    def geometric_mean(self) -> float:
        product = self.e_lower * self.e_upper
        if sys.float_info.min <= product <= FLOAT_MAX:
            return math.sqrt(product)
        return math.sqrt(self.e_lower) * math.sqrt(self.e_upper)  # the product under- or overflows


def _crossing(phi, delta, level):
    """Bypass share where the two altruistic costs cross at effective level ``level``.

    A weighted average of phi (weight (1-level)/(1+level)) and delta (weight
    2*level/(1+level)); it equals phi at level 0, delta at level 1, and
    increases toward 2*delta - phi as the level grows.  Unchecked: the level
    must lie in [0, LEVEL_MAX], where 2*level*delta is still finite, and may be
    a numpy array of levels.
    """
    return ((1.0 - level) * phi + 2.0 * level * delta) / (1.0 + level)


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


# members read once here, not through the Enum metaclass on every call
_TRANSITION_LIMITED, _ENDPOINT_SYMMETRIC, _NOT_IN_MEANINGFUL_SET = Regime


class Classification(NamedTuple):
    regime: Regime
    reason: str | None = None


def worst_case_regime(pi: float, interval: ErrorInterval) -> Regime:
    """Regime of a meaningful-set configuration with regime ratio ``pi`` (see classification)."""
    if 0.0 < pi < interval.ratio_sqrt:
        return _TRANSITION_LIMITED
    return _ENDPOINT_SYMMETRIC


def classification(ramp: OnRamp, interval: ErrorInterval) -> Classification:
    """Place a configuration in a worst-case regime for the given error interval.

    Membership in the meaningful set requires 0 < phi < delta < 1.  Among
    members, the transition-limited regime requires the regime ratio to lie
    strictly between 0 and sqrt(e_upper / e_lower).  Members have 1 - phi > 0,
    so a singular ratio is +inf and falls in the endpoint branch.
    """
    if not ramp.in_meaningful_set:
        return Classification(_NOT_IN_MEANINGFUL_SET, ramp.exclusion_reason)
    return Classification(worst_case_regime(ramp.pi, interval))


def classify(config, ramp, interval) -> Classification:
    return classification(ramp, interval)  # until perfbench calls the one-object forms


def analyze(config, ramp) -> OnRamp:
    return ramp  # until perfbench calls the one-object forms


def require_meaningful(ramp: OnRamp) -> None:
    """Raise NotInMeaningfulSetError unless the configuration is in the meaningful set."""
    if not ramp.in_meaningful_set:
        raise NotInMeaningfulSetError(
            ramp.exclusion_reason or "configuration outside the meaningful set"
        )


class ImprovementFlags(NamedTuple):
    decreases: bool
    optimizes: bool


def improvement_conditions(ramp: OnRamp, alpha: float, beta: float) -> ImprovementFlags:
    """Whether a population (alpha, beta) strictly decreases or optimizes the social delay.

    The social delay strictly improves on the all-selfish equilibrium exactly
    when the level is positive and the altruistic share exceeds phi; it
    reaches the optimum exactly when the level is 1 and the share is at least
    delta.
    """
    require_meaningful(ramp)
    alpha, beta = check_population(alpha, beta)  # at error factor 1 the level is beta
    decreases = beta > 0.0 and alpha > ramp.phi
    optimizes = beta == 1.0 and alpha >= ramp.delta
    return ImprovementFlags(decreases=decreases, optimizes=optimizes)
