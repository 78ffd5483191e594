"""Choice equilibrium of the mixed selfish/altruistic population.

The closed-form solver maps a population (alpha, beta*error) to the unique
equilibrium bypass share of a meaningful-set configuration; two independent
oracles cross-check it: an exact check of the candidate shares in rational
arithmetic, and a bisection on the share that best responses ask for,
certified by the Wardrop switching products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .analysis import _crossing, require_meaningful
from .model import DelayProfile, FlowDistribution, OnRamp, check_population
from .model import _new, check_share, cost_gaps, delays, social_delay


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


_BASELINE, _CASE_B, _CASE_C, _CASE_D = EquilibriumCase  # read once, not via the metaclass


# a frozen dataclass only for perfbench's self-test, which copies it with
# dataclasses.replace.  Its constructor stores the fields in the instance __dict__,
# where the generated one calls object.__setattr__ per field: on CPython 3.11 a build
# takes 0.4 us against 0.95 us, and reading the five fields 150 ns against 55-90 ns.
@dataclass(frozen=True, init=False)
class EquilibriumResult:
    flow: FlowDistribution
    x_hat_b: float
    case: EquilibriumCase
    delays: DelayProfile
    social_delay: float

    def __init__(self, flow, x_hat_b, case, delays, social_delay):
        fields = self.__dict__
        fields["flow"] = flow
        fields["x_hat_b"] = x_hat_b
        fields["case"] = case
        fields["delays"] = delays
        fields["social_delay"] = social_delay


def _equilibrium_split(
    phi: float, delta: float, alpha: float, level: float
) -> tuple[EquilibriumCase, float, float, float]:
    """(case, x_hat_b, altruistic bypass, selfish bypass) of a checked population.

    The case analysis of solve, without its input checks; worst_case_social_delay
    calls it after its own, and the sweeps' column kernel must equal it.
    """
    if level == 0.0 or alpha == 0.0:
        altruistic_bypass = min(alpha, phi)
        return _BASELINE, phi, altruistic_bypass, phi - altruistic_bypass
    if alpha <= phi:
        return _CASE_B, phi, alpha, phi - alpha
    crossing = _crossing(phi, delta, level)
    if alpha < crossing:
        return _CASE_C, alpha, alpha, 0.0
    return _CASE_D, crossing, crossing, 0.0


def solve(ramp: OnRamp, alpha: float, beta: float, error: float = 1.0) -> EquilibriumResult:
    """Closed-form equilibrium for a meaningful-set configuration.

    The total bypass share is phi when the effective level beta*error is zero
    or alpha <= phi, and min(alpha, crossing(beta*error)) otherwise.  With an
    inert level the altruists are indifferent; the canonical decomposition
    puts min(alpha, phi) of them on bypass, the level -> 0+ limit of the
    active cases.  Boundary ties resolve to CASE_B at alpha == phi and to
    CASE_D at alpha == crossing; the share is the same either way.
    """
    require_meaningful(ramp)
    alpha, level = check_population(alpha, beta, error)
    case, x_hat_b, altruistic_bypass, selfish_bypass = _equilibrium_split(
        ramp.phi, ramp.delta, alpha, level
    )
    flow = _new(FlowDistribution, (
        (1.0 - alpha) - selfish_bypass, selfish_bypass, alpha - altruistic_bypass, altruistic_bypass
    ))
    return EquilibriumResult(
        flow, x_hat_b, case, delays(ramp, x_hat_b), social_delay(ramp, x_hat_b)
    )


def solve_equilibrium(config, derived, ramp, alpha, beta, error=1.0) -> EquilibriumResult:
    return solve(ramp, alpha, beta, error)  # until perfbench calls the one-object forms


WARDROP_RTOL = 1e-12  # per unit of slope_sum, both gaps' slope: a mass times a share distance


class WardropReport(NamedTuple):
    """The four switching products of the equilibrium definition.

    Each product pairs a class mass with the cost advantage (cost_gaps) of the option it
    occupies; the flow passes when none exceeds ``tol``, WARDROP_RTOL * slope_sum.
    """

    selfish_steadfast: float
    selfish_bypass: float
    altruistic_steadfast: float
    altruistic_bypass: float
    tol: float

    @property
    def products(self) -> tuple[float, float, float, float]:
        return self[:4]

    @property
    def max_product(self) -> float:
        """The largest product, or NaN when any product is NaN, so that ``passed`` is false."""
        products = self.products
        return math.nan if any(map(math.isnan, products)) else max(products)

    @property
    def passed(self) -> bool:
        return self.max_product <= self.tol


def _wardrop_report(ramp, flow, level) -> WardropReport:
    """The WardropReport of a flow, unchecked, at a level that the caller checked."""
    travel_gap, perceived_gap = cost_gaps(ramp, flow.total_bypass, level)
    return WardropReport(
        flow.selfish_steadfast * travel_gap,
        flow.selfish_bypass * -travel_gap,
        flow.altruistic_steadfast * perceived_gap,
        flow.altruistic_bypass * -perceived_gap,
        WARDROP_RTOL * ramp.slope_sum,
    )


def verify_wardrop(
    ramp: OnRamp, flow: FlowDistribution, beta: float, error: float = 1.0
) -> WardropReport:
    """Evaluate the equilibrium definition at a feasible flow."""
    check_share(flow.total_bypass)
    _, level = check_population(beta=beta, error=error)
    return _wardrop_report(ramp, flow, level)


def exact_equilibria(ramp: OnRamp, alpha: float, beta: float, error: float = 1.0) -> list[float]:
    """Every equilibrium share, found in exact rational arithmetic, each as its nearest float.

    Each class's gap (steadfast minus bypass cost; positive favors bypass) is
    affine in the total bypass share x, p - q*x, with p and q formed here from
    the ramp's seven numbers as Fractions; no float code is shared with solve.
    A share can be an equilibrium only at 0, 1, alpha, 1 - alpha or a gap's
    zero.  A candidate x in [0, 1] is kept when the classes whose gap is
    positive fit in x and those whose gap is not negative fill it.  No
    tolerance and no grid.
    """
    from fractions import Fraction

    alpha, level = check_population(alpha, beta, error)
    n0, n2, ks, bs, kb, bb, k2 = map(Fraction, (
        ramp.n0, ramp.n2, ramp.steadfast_slope, ramp.steadfast_intercept, ramp.bypass_slope,
        ramp.bypass_intercept, ramp.lane2_slope))
    alpha, level = Fraction(alpha), Fraction(level)
    travel = (ks + bs - bb, ks + kb)
    perceived = (travel[0] + level * (ks * (1 + n0) - k2 * n2), travel[1] * (1 + level))
    classes = ((1 - alpha, travel), (alpha, perceived))
    candidates = {Fraction(0), Fraction(1), alpha, 1 - alpha}
    candidates.update(p / q for _, (p, q) in classes if q)
    return sorted({
        float(x) for x in candidates
        if 0 <= x <= 1
        and sum(mass for mass, (p, q) in classes if p - q * x > 0) <= x
        <= sum(mass for mass, (p, q) in classes if p - q * x >= 0)
    })


# bisection steps on the share bracket [0, 1]: enough to reach adjacent doubles
# near any share, or a width of 2**-64 at the all-steadfast corner
MAX_HALVINGS = 64


class DynamicsTrace(NamedTuple):
    """Oracle flow with its certificate, the largest Wardrop switching product."""

    flow: FlowDistribution
    max_product: float
    converged: bool
    iterations: int


def _bypass_range(gap_lo: float, gap_hi: float, mass: float) -> tuple[float, float]:
    """Bypass masses a class accepts across a share bracket, from its gaps at the ends."""
    return (mass if gap_hi > 0.0 else 0.0), (0.0 if gap_lo < 0.0 else mass)


def best_response_dynamics(
    ramp: OnRamp, alpha: float, beta: float, error: float = 1.0
) -> DynamicsTrace:
    """Equilibrium by bisection on the total bypass share, certified by its Wardrop products.

    Both class gaps decrease in the total share x, so the share that best
    responses ask for at x, the mass of every class whose gap favors bypass,
    is nonincreasing and meets x at an equilibrium.  Bisection brackets that
    point; a class that prefers one option across the final bracket takes
    it, and indifferent classes fill the midpoint share, altruists first.
    Only the cost gaps are used, never phi, delta or the crossing, so the
    oracle is independent of the case analysis in solve.
    """
    alpha, level = check_population(alpha, beta, error)
    selfish_mass = 1.0 - alpha
    lo, hi, mid = 0.0, 1.0, 0.5
    halvings = 0
    while halvings < MAX_HALVINGS and lo < mid < hi:
        travel_gap, perceived_gap = cost_gaps(ramp, mid, level)
        asked = selfish_mass * (travel_gap > 0.0) + alpha * (perceived_gap > 0.0)
        if asked > mid:
            lo = mid
        else:
            hi = mid
        halvings += 1
        mid = 0.5 * (lo + hi)

    travel_lo, perceived_lo = cost_gaps(ramp, lo, level)
    travel_hi, perceived_hi = cost_gaps(ramp, hi, level)
    selfish_min, selfish_max = _bypass_range(travel_lo, travel_hi, selfish_mass)
    altruistic_min, altruistic_max = _bypass_range(perceived_lo, perceived_hi, alpha)
    altruistic_bypass = min(max(mid - selfish_min, altruistic_min), altruistic_max)
    selfish_bypass = min(max(mid - altruistic_bypass, selfish_min), selfish_max)
    flow = FlowDistribution(
        selfish_mass - selfish_bypass, selfish_bypass, alpha - altruistic_bypass, altruistic_bypass
    )
    report = _wardrop_report(ramp, flow, level)
    return DynamicsTrace(flow, report.max_product, report.passed, halvings)
