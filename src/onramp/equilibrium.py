"""Choice equilibrium of the mixed selfish/altruistic population.

The closed-form solver maps a population (alpha, beta*error) to the unique
equilibrium bypass share of a meaningful-set configuration; two independent
oracles cross-check it: exhaustive verification on a feasibility grid, and a
bisection on the share that best responses ask for, certified by the Wardrop
switching products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .analysis import _crossing, require_meaningful
from .model import FLOAT_MAX, DelayProfile, FlowDistribution, OnRamp, check_population
from .model import _new, check_share, cost_gaps, delays, positive, social_delay


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


class WardropReport(NamedTuple):
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
        return self[:4]

    @property
    def max_product(self) -> float:
        """The largest product, or NaN when any product is NaN, so that ``passed`` is false."""
        products = self.products
        return math.nan if any(map(math.isnan, products)) else max(products)

    @property
    def passed(self) -> bool:
        return self.max_product <= self.tol


def _switching_products(ramp, flow, level):
    """WardropReport's four products, unchecked; the flow's fields may be numpy arrays."""
    travel_gap, perceived_gap = cost_gaps(ramp, flow.total_bypass, level)
    return (
        flow.selfish_steadfast * travel_gap,
        flow.selfish_bypass * -travel_gap,
        flow.altruistic_steadfast * perceived_gap,
        flow.altruistic_bypass * -perceived_gap,
    )


def verify_wardrop(
    ramp: OnRamp, flow: FlowDistribution, beta: float, error: float = 1.0, tol: float = 1e-9
) -> WardropReport:
    """Evaluate the equilibrium definition at a feasible flow."""
    check_share(flow.total_bypass)
    _, level = check_population(beta=beta, error=error)
    tol = positive("tolerance", tol, most=FLOAT_MAX)
    return WardropReport(*_switching_products(ramp, flow, level), tol)


# largest grid, or brute-force product grid, that is built; larger ones are refused
MAX_GRID_POINTS = 10**6


def inclusive_grid(lower: float, upper: float, step: float) -> list[float]:
    """Multiples of ``step`` from ``lower``, with ``upper`` always included, as a list."""
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if upper < lower:
        raise ValueError(f"empty grid: [{lower}, {upper}]")
    span = (upper - lower) / step
    if not (math.isfinite(span) and math.isfinite(step)):
        raise ValueError(f"grid [{lower}, {upper}] with step {step} is not finite")
    count = int(math.floor(span + 1e-9))
    if count >= MAX_GRID_POINTS:
        raise ValueError(
            f"grid [{lower}, {upper}] with step {step} has more than {MAX_GRID_POINTS} points"
        )
    grid = [lower + i * step for i in range(count + 1)]
    if grid[-1] > upper:
        grid[-1] = upper
    elif upper - grid[-1] > 1e-12:
        grid.append(upper)
    return grid


def brute_force_equilibrium(
    ramp: OnRamp, alpha: float, beta: float, error: float = 1.0, grid_step: float = 1e-3
) -> list[FlowDistribution]:
    """Enumerate feasible decompositions on a grid and keep the verified ones.

    The verification tolerance scales with the grid step times the summed
    slope magnitudes, so the affine cost gaps cannot jump past it between
    neighboring grid points and the true equilibrium share is always covered
    within one step.  At small effective levels the altruists' near
    indifference widens the verified band to a few steps around the true
    share; the band tightens as the level grows.
    """
    import numpy as np
    grid_step = positive("grid step", grid_step, most=0.1)
    alpha, level = check_population(alpha, beta, error)
    tol = (ramp.slope_sum + ramp.lane2_slope) * grid_step

    xb = inclusive_grid(0.0, 1.0 - alpha, grid_step)
    xtb = inclusive_grid(0.0, alpha, grid_step)
    if len(xb) * len(xtb) > MAX_GRID_POINTS:
        raise ValueError(f"grid step {grid_step} gives more than {MAX_GRID_POINTS} decompositions")
    selfish_bypass = np.array(xb)[:, None]
    altruistic_bypass = np.array(xtb)[None, :]
    grid = FlowDistribution(
        (1.0 - alpha) - selfish_bypass, selfish_bypass, alpha - altruistic_bypass, altruistic_bypass
    )
    products = _switching_products(ramp, grid, level)
    ok = np.logical_and.reduce([product <= tol for product in products])
    rows, cols = np.nonzero(ok)
    return [
        FlowDistribution((1.0 - alpha) - xb[i], xb[i], alpha - xtb[j], xtb[j])
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


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
    ramp: OnRamp, alpha: float, beta: float, error: float = 1.0, tol: float = 1e-9
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
    tol = positive("tolerance", tol, most=FLOAT_MAX)
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
    report = WardropReport(*_switching_products(ramp, flow, level), tol)
    return DynamicsTrace(flow, report.max_product, report.passed, halvings)
