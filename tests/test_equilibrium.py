"""Unit tests for the closed-form solver and its two oracles."""

import copy
import math
import random

import pytest
from hypothesis import given, settings

import onramp
from onramp import equilibrium
from onramp.analysis import _crossing
from onramp.equilibrium import EquilibriumCase
from onramp.errors import NotInMeaningfulSetError
from onramp.model import LEVEL_MAX, cost_gaps

from conftest import (
    DEMO_DELTA,
    DEMO_PHI,
    bisect_selfish_crossing,
    meaningful_configs,
    sample_meaningful,
)


def test_all_selfish_baseline(demo_ramp):
    result = onramp.solve(demo_ramp, alpha=0.0, beta=1.0)
    assert result.case is EquilibriumCase.BASELINE
    assert result.x_hat_b == pytest.approx(DEMO_PHI, abs=1e-12)
    assert result.x_hat_b == pytest.approx(bisect_selfish_crossing(demo_ramp), abs=1e-9)
    assert result.flow.selfish_bypass == pytest.approx(DEMO_PHI, abs=1e-12)
    assert result.flow.altruistic_bypass == 0.0


def test_inert_level_canonical_decomposition(demo_ramp):
    result = onramp.solve(demo_ramp, alpha=0.7, beta=0.0)
    assert result.case is EquilibriumCase.BASELINE
    assert result.x_hat_b == pytest.approx(DEMO_PHI, abs=1e-12)
    assert result.flow.altruistic_bypass == pytest.approx(DEMO_PHI, abs=1e-12)
    assert result.flow.selfish_bypass == 0.0
    scarce = onramp.solve(demo_ramp, alpha=0.2, beta=0.0)
    assert scarce.flow.altruistic_bypass == pytest.approx(0.2, abs=1e-12)
    assert scarce.flow.selfish_bypass == pytest.approx(DEMO_PHI - 0.2, abs=1e-12)


def test_full_altruism_reaches_optimum(demo_ramp):
    result = onramp.solve(demo_ramp, alpha=1.0, beta=1.0)
    assert result.case is EquilibriumCase.CASE_D
    assert result.x_hat_b == pytest.approx(DEMO_DELTA, abs=1e-12)
    assert result.social_delay == pytest.approx(demo_ramp.j_opt, abs=1e-12)


def test_case_c_saturated_altruists(demo_ramp):
    result = onramp.solve(demo_ramp, alpha=0.55, beta=1.0)
    assert result.case is EquilibriumCase.CASE_C
    assert result.x_hat_b == pytest.approx(0.55, abs=1e-12)
    assert result.flow.selfish_bypass == 0.0
    assert result.flow.altruistic_steadfast == 0.0
    candidates = onramp.brute_force_equilibrium(demo_ramp, alpha=0.55, beta=1.0, grid_step=1e-3)
    assert min(abs(f.total_bypass - 0.55) for f in candidates) <= 1e-3


def test_case_b_scarce_altruists(demo_ramp):
    result = onramp.solve(demo_ramp, alpha=0.3, beta=1.0)
    assert result.case is EquilibriumCase.CASE_B
    assert result.x_hat_b == pytest.approx(DEMO_PHI, abs=1e-12)
    assert result.flow.altruistic_bypass == pytest.approx(0.3, abs=1e-12)
    assert result.flow.selfish_bypass == pytest.approx(DEMO_PHI - 0.3, abs=1e-12)


def test_boundary_ties(demo_ramp):
    at_phi = onramp.solve(demo_ramp, alpha=demo_ramp.phi, beta=0.7)
    assert at_phi.case is EquilibriumCase.CASE_B
    crossing = _crossing(demo_ramp.phi, demo_ramp.delta, 0.7)
    at_crossing = onramp.solve(demo_ramp, alpha=crossing, beta=0.7)
    assert at_crossing.case is EquilibriumCase.CASE_D
    assert at_crossing.x_hat_b == pytest.approx(crossing, abs=1e-12)


def test_unified_formula_above_phi(demo_ramp):
    for alpha in (0.6, 0.75, 0.9, 1.0):
        for level in (0.25, 0.5, 1.0, 2.0):
            result = onramp.solve(demo_ramp, alpha=alpha, beta=level)
            crossing = _crossing(demo_ramp.phi, demo_ramp.delta, level)
            assert result.x_hat_b == min(alpha, crossing)


def test_population_validation(demo_ramp):
    with pytest.raises(ValueError):
        onramp.solve(demo_ramp, alpha=1.5, beta=1.0)
    with pytest.raises(ValueError):
        onramp.solve(demo_ramp, alpha=0.5, beta=-0.1)
    with pytest.raises(ValueError):
        onramp.solve(demo_ramp, alpha=0.5, beta=1.0, error=0.0)


def test_solver_requires_membership():
    config = onramp.OnRampConfig(
        n0=0.1, c1t=1.0, c1m=1.0, c2t=50.0, c2m=0.1, mu=1.0, gamma=1.0
    )
    ramp = onramp.OnRamp.from_config(config)
    with pytest.raises(NotInMeaningfulSetError):
        onramp.solve(ramp, 0.5, 1.0)


def _assert_feasible(flow, alpha, tol=1e-9):
    """Both class masses balance and no component is negative, within ``tol``."""
    assert abs(flow.selfish_steadfast + flow.selfish_bypass - (1.0 - alpha)) <= tol, flow
    assert abs(flow.altruistic_steadfast + flow.altruistic_bypass - alpha) <= tol, flow
    assert min(flow) >= -tol, flow


def test_solver_outputs_verify(demo_ramp):
    for alpha in (0.0, 0.2, 0.55, 0.8, 1.0):
        for beta in (0.0, 0.5, 1.0):
            for error in (0.5, 1.0, 2.0):
                result = onramp.solve(demo_ramp, alpha=alpha, beta=beta, error=error)
                _assert_feasible(result.flow, alpha)
                report = onramp.verify_wardrop(demo_ramp, result.flow, beta, error)
                assert report.passed, report


def test_verify_rejects_overshooting_selfish_bypass(demo_ramp):
    # all selfish mass bypassing far above the crossing: bypass is the
    # costlier option there, so the selfish-bypass product must be positive
    flow = onramp.FlowDistribution(0.0, 0.8, 0.05, 0.15)
    report = onramp.verify_wardrop(demo_ramp, flow, beta=1.0)
    assert report.selfish_bypass > 0.0
    assert not report.passed


def test_verify_rejects_all_steadfast(demo_ramp):
    # at zero bypass the bypass option is strictly cheaper inside the
    # meaningful set, so an all-steadfast split cannot be an equilibrium
    flow = onramp.FlowDistribution(1.0, 0.0, 0.0, 0.0)
    report = onramp.verify_wardrop(demo_ramp, flow, beta=0.0)
    assert report.selfish_steadfast > 0.0
    assert not report.passed


def test_brute_force_covers_closed_form(demo_ramp):
    flows = onramp.brute_force_equilibrium(demo_ramp, alpha=0.8, beta=1.0, grid_step=1e-3)
    assert flows
    shares = [flow.total_bypass for flow in flows]
    closest = min(shares, key=lambda s: abs(s - DEMO_DELTA))
    assert abs(closest - DEMO_DELTA) <= 1e-3
    # one contiguous cluster around the optimum, a few steps wide
    assert min(shares) >= DEMO_DELTA - 5e-3
    assert max(shares) <= DEMO_DELTA + 1e-3


def test_brute_force_inert_level_reports_indifference_family(
    demo_ramp
):
    flows = onramp.brute_force_equilibrium(demo_ramp, alpha=0.5, beta=0.0, grid_step=2e-3)
    shares = sorted({round(f.total_bypass, 9) for f in flows})
    decompositions = {
        (round(f.selfish_bypass, 9), round(f.altruistic_bypass, 9)) for f in flows
    }
    assert len(decompositions) > len(shares)
    for flow in flows:
        assert abs(flow.total_bypass - DEMO_PHI) <= 1e-2


def test_brute_force_all_selfish(demo_ramp):
    flows = onramp.brute_force_equilibrium(demo_ramp, alpha=0.0, beta=1.0, grid_step=1e-3)
    assert flows
    shares = [flow.total_bypass for flow in flows]
    assert min(abs(s - DEMO_PHI) for s in shares) <= 1e-3
    # single-class band: |x - phi| <= tol / (mass * slope_sum), about two steps here
    for flow in flows:
        assert flow.altruistic_bypass == 0.0
        assert abs(flow.total_bypass - DEMO_PHI) <= 3e-3


def _mass_cap_band(ramp, alpha, level, step, side):
    """First grid distance at which no decomposition can pass the product caps.

    At total share x the class masses on the dispreferred side are capped by
    tol / gap; when the caps cannot add up to x (above the crossing) or to
    1 - x (below the selfish split) the point is provably excluded.  The caps
    shrink with distance, so the first failing multiple of the step bounds
    every verified point on that side.
    """
    slope_sum = ramp.slope_sum
    tol = (slope_sum + ramp.lane2_slope) * step
    crossing = _crossing(ramp.phi, ramp.delta, level)
    for multiple in range(1, 2000):
        d = multiple * step
        if side == "above":
            x = crossing + d
            if x > 1.0:
                return d
            cap_selfish = min(1.0 - alpha, tol / ((x - ramp.phi) * slope_sum))
            cap_altruistic = min(alpha, tol / (d * (1.0 + level) * slope_sum))
            if cap_selfish + cap_altruistic < x - 1e-12:
                return d
        else:
            x = ramp.phi - d
            if x < 0.0:
                return d
            cap_selfish = min(1.0 - alpha, tol / (d * slope_sum))
            cap_altruistic = min(
                alpha, tol / ((crossing - x) * (1.0 + level) * slope_sum)
            )
            if cap_selfish + cap_altruistic < (1.0 - x) - 1e-12:
                return d
    return 2000 * step


def test_brute_force_case_exclusion_random():
    rng = random.Random(77)
    for _ in range(12):
        ramp = sample_meaningful(rng)
        alpha = rng.uniform(0.1, 0.95)
        level = rng.uniform(0.25, 1.5)
        step = 2e-3
        flows = onramp.brute_force_equilibrium(ramp, alpha=alpha, beta=level, grid_step=step)
        assert flows
        crossing = _crossing(ramp.phi, ramp.delta, level)
        band_above = _mass_cap_band(ramp, alpha, level, step, "above")
        band_below = _mass_cap_band(ramp, alpha, level, step, "below")
        shares = [flow.total_bypass for flow in flows]
        # the verified set stays inside the provable indifference band around
        # [phi, crossing]; nothing survives near the all-steadfast or
        # all-bypass corners
        assert min(shares) >= ramp.phi - band_below
        assert max(shares) <= crossing + band_above
        # and it covers the closed-form answer within one grid step
        target = onramp.solve(ramp, alpha, level).x_hat_b
        assert min(abs(s - target) for s in shares) <= step


def test_brute_force_grid_step_validated(demo_ramp):
    with pytest.raises(ValueError):
        onramp.brute_force_equilibrium(demo_ramp, 0.5, 1.0, grid_step=0.5)
    with pytest.raises(ValueError):
        onramp.brute_force_equilibrium(demo_ramp, 0.5, 1.0, grid_step=0.0)
    with pytest.raises(ValueError, match="more than 1000000 decompositions"):
        onramp.brute_force_equilibrium(demo_ramp, 0.5, 1.0, grid_step=1e-6)


def _corner_band(ramp, corner, beta, step):
    """Verified-band width at a corner: mass caps from the two cost gaps there."""
    tol = (ramp.slope_sum + ramp.lane2_slope) * step
    travel_gap, perceived_gap = cost_gaps(ramp, corner, beta)
    return tol / abs(travel_gap) + tol / abs(perceived_gap)


def test_brute_force_corner_all_steadfast_outside_set():
    # bypass intercept dominates everywhere: the only equilibrium is the
    # all-steadfast corner, which the oracle finds without membership checks
    config = onramp.OnRampConfig(
        n0=0.1, c1t=1.0, c1m=1.0, c2t=50.0, c2m=0.1, mu=1.0, gamma=1.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert not ramp.in_meaningful_set
    step = 2e-3
    flows = onramp.brute_force_equilibrium(ramp, alpha=0.4, beta=1.0, grid_step=step)
    assert flows
    band = _corner_band(ramp, 0.0, 1.0, step)
    assert max(f.total_bypass for f in flows) <= band + step


def test_brute_force_corner_all_bypass_outside_set():
    # steadfast is the costlier option over the whole range: all-bypass corner
    config = onramp.OnRampConfig(
        n0=0.8, c1t=1.0, c1m=1.0, c2t=1.0, c2m=0.0, mu=2.0, gamma=0.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert ramp.phi > 1.0
    assert not ramp.in_meaningful_set
    step = 2e-3
    flows = onramp.brute_force_equilibrium(ramp, alpha=0.4, beta=0.5, grid_step=step)
    assert flows
    shares = [f.total_bypass for f in flows]
    assert max(shares) == 1.0
    band = _corner_band(ramp, 1.0, 0.5, step)
    assert min(shares) >= 1.0 - band - step


def test_dynamics_converges_to_optimum(demo_ramp):
    trace = onramp.best_response_dynamics(demo_ramp, alpha=0.8, beta=1.0, error=1.0, tol=1e-12)
    assert trace.converged
    assert trace.max_product <= 1e-12
    assert abs(trace.flow.total_bypass - DEMO_DELTA) <= 1e-12


def test_dynamics_fixed_point_at_crossing(demo_ramp):
    trace = onramp.best_response_dynamics(demo_ramp, alpha=0.0, beta=1.0, error=1.0, tol=1e-9)
    assert trace.converged
    assert 0 < trace.iterations <= equilibrium.MAX_HALVINGS
    assert trace.flow.selfish_bypass == pytest.approx(demo_ramp.phi, abs=1e-12)
    report = onramp.verify_wardrop(demo_ramp, trace.flow, beta=1.0, tol=1e-9)
    assert report.passed
    assert report.max_product == trace.max_product


# configurations outside the meaningful set: the all-bypass corner of
# test_brute_force_corner_all_bypass_outside_set and the golden excluded.json
OUTSIDE_SET = {
    "all_bypass": dict(n0=0.8, c1t=1.0, c1m=1.0, c2t=1.0, c2m=0.0, mu=2.0, gamma=0.0),
    "excluded": dict(n0=1.0, c1t=1.0, c1m=21.3, c2t=1.0, c2m=1.0, mu=2.4, gamma=0.0),
}


def _tie_point(tie, ramp):
    """(alpha, beta) at a tie rule of a configuration, or one ulp off it."""
    phi = ramp.phi
    return {
        "level_0": (0.8, 0.0),
        "alpha_0": (0.0, 1.0),
        "alpha_phi": (phi, 1.0),
        "alpha_phi_minus_ulp": (math.nextafter(phi, 0.0), 1.0),
        "alpha_phi_plus_ulp": (math.nextafter(phi, 1.0), 1.0),
        "alpha_crossing": (_crossing(phi, ramp.delta, 0.5), 0.5),
        "alpha_1": (1.0, 1.0),
        "all_bypass": (0.4, 0.5),
        "excluded": (0.8, 1.0),
    }[tie]


@pytest.mark.parametrize(
    "tie",
    [
        "level_0",
        "alpha_0",
        "alpha_phi",
        "alpha_phi_minus_ulp",
        "alpha_phi_plus_ulp",
        "alpha_crossing",
        "alpha_1",
        *OUTSIDE_SET,
    ],
)
def test_dynamics_tie_rules(demo_ramp, tie):
    if tie in OUTSIDE_SET:
        config = onramp.OnRampConfig(**OUTSIDE_SET[tie])
        ramp = onramp.OnRamp.from_config(config)
        assert not ramp.in_meaningful_set
    else:
        ramp = demo_ramp
    alpha, beta = _tie_point(tie, ramp)
    trace = onramp.best_response_dynamics(ramp, alpha, beta, tol=1e-10)
    assert trace.converged, trace
    _assert_feasible(trace.flow, alpha)
    if ramp.in_meaningful_set:
        closed = onramp.solve(demo_ramp, alpha, beta)
        assert abs(trace.flow.total_bypass - closed.x_hat_b) <= 1e-12


def test_dynamics_validates_inputs(demo_ramp):
    with pytest.raises(ValueError, match="alpha must lie in"):
        onramp.best_response_dynamics(demo_ramp, 1.5, 1.0)
    bound = r"tolerance must lie in \(0, 1.7976931348623157e\+308\]"  # a finite tolerance
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError, match=bound):
            onramp.best_response_dynamics(demo_ramp, 0.8, 1.0, tol=tol)


def test_solver_matches_brute_force_random():
    rng = random.Random(501)
    for _ in range(20):
        ramp = sample_meaningful(rng)
        alpha = rng.uniform(0.1, 0.95)
        level = rng.uniform(0.25, 1.25)
        result = onramp.solve(ramp, alpha, level)
        flows = onramp.brute_force_equilibrium(ramp, alpha, level, grid_step=1e-3)
        assert flows
        closest = min(flows, key=lambda f: abs(f.total_bypass - result.x_hat_b))
        assert abs(closest.total_bypass - result.x_hat_b) <= 2e-3


@pytest.mark.parametrize(
    "beta, error, message",
    [
        (float("nan"), 1.0, "beta must be finite"),
        (float("inf"), 1.0, "beta must be finite"),
        (1.0, float("nan"), "error factor must be finite"),
        (1.0, float("inf"), "error factor must be finite"),
    ],
)
def test_non_finite_level_rejected_with_its_cause(
    demo_ramp, beta, error, message
):
    with pytest.raises(ValueError, match=message):
        onramp.solve(demo_ramp, 0.8, beta, error)
    with pytest.raises(ValueError, match=message):
        onramp.brute_force_equilibrium(demo_ramp, 0.8, beta, error)
    with pytest.raises(ValueError, match=message):
        onramp.best_response_dynamics(demo_ramp, 0.8, beta, error)
    flow = onramp.FlowDistribution(0.2, 0.0, 0.8, 0.0)
    with pytest.raises(ValueError, match=message):
        onramp.verify_wardrop(demo_ramp, flow, beta, error)


def test_closed_form_takes_the_right_case_up_to_the_level_bound(demo_ramp):
    # at LEVEL_MAX the crossing is finite, just below its limit 2*delta - phi < 0.8
    result = onramp.solve(demo_ramp, 0.8, LEVEL_MAX)
    assert result.case is EquilibriumCase.CASE_D
    assert result.x_hat_b == pytest.approx(2.0 * DEMO_DELTA - DEMO_PHI, abs=1e-15)
    with pytest.raises(ValueError, match="exceeds the bound"):
        onramp.solve(demo_ramp, 0.8, math.nextafter(LEVEL_MAX, math.inf))


def test_wardrop_report_fails_closed_on_nan_products(demo_ramp):
    # at level 5e307 both perceived costs overflow and their gap is inf - inf
    flow = onramp.FlowDistribution(0.2, 0.0, 0.0, 0.8)
    report = onramp.verify_wardrop(demo_ramp, flow, 5e307)
    assert report.products[0] < 0.0 and report.products[1] == 0.0
    assert all(math.isnan(product) for product in report.products[2:])
    assert math.isnan(report.max_product)
    assert not report.passed


@pytest.mark.parametrize("position", range(4))
def test_wardrop_max_product_is_nan_wherever_the_nan_is(position):
    products = [-1.0, 0.0, -2.0, 0.0]
    products[position] = math.nan
    report = equilibrium.WardropReport(*products, tol=1e-9)
    assert math.isnan(report.max_product)
    assert not report.passed


def test_dynamics_not_converged_on_a_nan_certificate(demo_ramp):
    trace = onramp.best_response_dynamics(demo_ramp, 0.8, 5e307)
    assert trace.converged is False


def _blind(ramp):
    """A copy of ``ramp`` whose analysis reads NaN: phi, delta, pi and j_opt."""
    blind = copy.copy(ramp)
    for name in ("phi", "delta", "pi", "j_opt"):
        object.__setattr__(blind, name, math.nan)
    return blind


def _assert_oracles_ignore_the_analysis(ramp):
    blind = _blind(ramp)
    phi, delta = ramp.phi, ramp.delta
    points = {  # (alpha, beta) per case; at level 1 the crossing is delta
        EquilibriumCase.BASELINE: (0.5, 0.0),
        EquilibriumCase.CASE_B: (0.5 * phi, 1.0),
        EquilibriumCase.CASE_C: (0.5 * (phi + delta), 1.0),
        EquilibriumCase.CASE_D: (1.0, 1.0),
    }
    for case, (alpha, beta) in points.items():
        result = onramp.solve(ramp, alpha, beta)
        assert result.case is case
        assert onramp.verify_wardrop(blind, result.flow, beta) == onramp.verify_wardrop(
            ramp, result.flow, beta
        )
        assert onramp.brute_force_equilibrium(
            blind, alpha, beta, grid_step=1e-2
        ) == onramp.brute_force_equilibrium(ramp, alpha, beta, grid_step=1e-2)
        assert onramp.best_response_dynamics(blind, alpha, beta) == (
            onramp.best_response_dynamics(ramp, alpha, beta)
        )


def test_oracles_ignore_the_analysis_on_the_demo(demo_ramp):
    _assert_oracles_ignore_the_analysis(demo_ramp)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(config=meaningful_configs())
def test_oracles_ignore_the_analysis(config):
    _assert_oracles_ignore_the_analysis(onramp.OnRamp.from_config(config))
