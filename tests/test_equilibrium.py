"""Unit tests for the closed-form solver and its two oracles."""

import copy
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import onramp
from onramp import equilibrium
from onramp.analysis import _crossing
from onramp.equilibrium import EquilibriumCase
from onramp.errors import NotInMeaningfulSetError
from onramp.model import LEVEL_MAX, cost_gaps

from conftest import (
    DEMO_DELTA,
    DEMO_PHI,
    SOLVE_ULPS,
    bisect_selfish_crossing,
    meaningful_configs,
    sample_meaningful,
    ulps_apart,
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
    assert onramp.exact_equilibria(demo_ramp, alpha=0.55, beta=1.0) == [0.55]


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


def _assert_one_share_near(shares, x, ulps=SOLVE_ULPS):
    """The exact oracle found exactly one share, and ``x`` is within ``ulps`` of it."""
    assert len(shares) == 1, shares
    assert ulps_apart(x, shares[0]) <= ulps, (x, shares)


def test_exact_oracle_finds_the_closed_form(demo_ramp):
    shares = onramp.exact_equilibria(demo_ramp, alpha=0.8, beta=1.0)
    _assert_one_share_near(shares, onramp.solve(demo_ramp, 0.8, 1.0).x_hat_b)
    assert shares[0] == pytest.approx(DEMO_DELTA, abs=1e-15)


@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.5, 0.0)], ids=["all_selfish", "inert"])
def test_exact_oracle_at_the_selfish_crossing(demo_ramp, alpha, beta):
    shares = onramp.exact_equilibria(demo_ramp, alpha, beta)
    _assert_one_share_near(shares, onramp.solve(demo_ramp, alpha, beta).x_hat_b)
    assert shares[0] == pytest.approx(DEMO_PHI, abs=1e-15)
    assert shares[0] == pytest.approx(bisect_selfish_crossing(demo_ramp), abs=1e-12)


def test_exact_oracle_corner_all_steadfast_outside_set():
    # bypass intercept dominates everywhere: the only equilibrium is the
    # all-steadfast corner, which the oracle finds without membership checks
    config = onramp.OnRampConfig(
        n0=0.1, c1t=1.0, c1m=1.0, c2t=50.0, c2m=0.1, mu=1.0, gamma=1.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert not ramp.in_meaningful_set
    assert onramp.exact_equilibria(ramp, alpha=0.4, beta=1.0) == [0.0]


def test_exact_oracle_corner_all_bypass_outside_set():
    # steadfast is the costlier option over the whole range: all-bypass corner
    config = onramp.OnRampConfig(
        n0=0.8, c1t=1.0, c1m=1.0, c2t=1.0, c2m=0.0, mu=2.0, gamma=0.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert ramp.phi > 1.0
    assert not ramp.in_meaningful_set
    assert onramp.exact_equilibria(ramp, alpha=0.4, beta=0.5) == [1.0]


def test_dynamics_converges_to_optimum(demo_ramp):
    trace = onramp.best_response_dynamics(demo_ramp, alpha=0.8, beta=1.0, error=1.0)
    assert trace.converged
    assert trace.max_product <= 1e-12
    assert abs(trace.flow.total_bypass - DEMO_DELTA) <= 1e-12


def test_dynamics_fixed_point_at_crossing(demo_ramp):
    trace = onramp.best_response_dynamics(demo_ramp, alpha=0.0, beta=1.0, error=1.0)
    assert trace.converged
    assert 0 < trace.iterations <= equilibrium.MAX_HALVINGS
    assert trace.flow.selfish_bypass == pytest.approx(demo_ramp.phi, abs=1e-12)
    report = onramp.verify_wardrop(demo_ramp, trace.flow, beta=1.0)
    assert report.passed
    assert report.max_product == trace.max_product


# configurations outside the meaningful set: the all-bypass corner of
# test_exact_oracle_corner_all_bypass_outside_set and the golden excluded.json
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
    trace = onramp.best_response_dynamics(ramp, alpha, beta)
    assert trace.converged, trace
    assert trace.max_product <= 1e-10
    _assert_feasible(trace.flow, alpha)
    if ramp.in_meaningful_set:
        closed = onramp.solve(demo_ramp, alpha, beta)
        assert abs(trace.flow.total_bypass - closed.x_hat_b) <= 1e-12


def test_dynamics_validates_inputs(demo_ramp):
    with pytest.raises(ValueError, match="alpha must lie in"):
        onramp.best_response_dynamics(demo_ramp, 1.5, 1.0)


@pytest.mark.parametrize("seed, draws, top", [(77, 12, 1.5), (501, 20, 1.25)])
def test_solver_matches_exact_oracle_random(seed, draws, top):
    rng = random.Random(seed)
    for _ in range(draws):
        ramp = sample_meaningful(rng)
        alpha = rng.uniform(0.1, 0.95)
        level = rng.uniform(0.25, top)
        shares = onramp.exact_equilibria(ramp, alpha, level)
        _assert_one_share_near(shares, onramp.solve(ramp, alpha, level).x_hat_b)


def _population(ramp, level, pick, draw):
    """alpha for one pick: a draw, a corner, or phi or the crossing, exact or one ulp off."""
    if pick == "draw":
        return draw
    if pick in ("zero", "one"):
        return float(pick == "one")
    name, _, side = pick.partition(" ")
    tie = ramp.phi if name == "phi" else _crossing(ramp.phi, ramp.delta, level)
    tie = {"": tie, "-": math.nextafter(tie, 0.0), "+": math.nextafter(tie, 1.0)}[side]
    return min(tie, 1.0)


PICKS = ("draw", "zero", "one", "phi", "phi -", "phi +", "crossing", "crossing -", "crossing +")
LEVELS = st.one_of(
    st.just(0.0), st.floats(0.0, 5.0), st.floats(-300.0, 300.0).map(lambda power: 10.0**power)
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=meaningful_configs(), level=LEVELS, draw=st.floats(0.0, 1.0))
def test_solve_is_within_ulps_of_the_one_exact_share(config, level, draw):
    ramp = onramp.OnRamp.from_config(config)
    for pick in PICKS:
        alpha = _population(ramp, level, pick, draw)
        shares = onramp.exact_equilibria(ramp, alpha, level)
        _assert_one_share_near(shares, onramp.solve(ramp, alpha, level).x_hat_b)


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
        onramp.exact_equilibria(demo_ramp, 0.8, beta, error)
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


def _nan_perceived_gap(monkeypatch):
    """Make the altruists' cost gap read NaN in the certificate and the dynamics."""
    def gaps(ramp, x_hat_b, level):
        return cost_gaps(ramp, x_hat_b, level)[0], math.nan
    monkeypatch.setattr(equilibrium, "cost_gaps", gaps)


def test_wardrop_report_is_finite_and_passes_up_to_the_level_bound(demo_ramp):
    # the altruists' gap is divided by 1 + level, so it stays finite where level * marginal
    # overflows, and one threshold in units of slope_sum serves every level
    for level in (1.0, 1e6, 5e307, LEVEL_MAX):
        result = onramp.solve(demo_ramp, 0.8, level)
        report = onramp.verify_wardrop(demo_ramp, result.flow, level)
        assert all(map(math.isfinite, report.products)), report
        assert report.passed and report.tol == equilibrium.WARDROP_RTOL * demo_ramp.slope_sum
        assert onramp.best_response_dynamics(demo_ramp, 0.8, level).converged


def test_wardrop_report_fails_closed_on_nan_products(demo_ramp, monkeypatch):
    _nan_perceived_gap(monkeypatch)
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


def test_dynamics_not_converged_on_a_nan_certificate(demo_ramp, monkeypatch):
    _nan_perceived_gap(monkeypatch)
    trace = onramp.best_response_dynamics(demo_ramp, 0.8, 5e307)
    assert math.isnan(trace.max_product)
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
        assert onramp.exact_equilibria(blind, alpha, beta) == (
            onramp.exact_equilibria(ramp, alpha, beta)
        )
        assert onramp.best_response_dynamics(blind, alpha, beta) == (
            onramp.best_response_dynamics(ramp, alpha, beta)
        )


def test_oracles_ignore_the_analysis_on_the_demo(demo_ramp):
    _assert_oracles_ignore_the_analysis(demo_ramp)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(config=meaningful_configs())
def test_oracles_ignore_the_analysis(config):
    _assert_oracles_ignore_the_analysis(onramp.OnRamp.from_config(config))


@st.composite
def singular_ramps(draw):
    """A meaningful ramp whose 2*delta - phi - 1 is zero or within ulps of it (pi near inf).

    2*delta - phi - 1 = (n0*ks - n2*k2 - kb) / (ks + kb), so kb = n0*ks - n2*k2 puts it at
    zero; delta is then (1 + phi) / 2, inside the meaningful set for any phi in (0, 1).  phi
    stays above 0.25, where its numerator ks + bs - bb does not cancel beyond SOLVE_ULPS.
    """
    n0 = draw(st.floats(0.4, 0.9))
    ks, k2 = draw(st.floats(2.0, 20.0)), draw(st.floats(0.1, 1.0))
    kb, shift = n0 * ks - (1.0 - n0) * k2, draw(st.integers(-3, 3))
    for _ in range(abs(shift)):  # up to 3 ulps off the singular kb, either side
        kb = math.nextafter(kb, math.copysign(math.inf, shift))
    bs, phi = draw(st.floats(0.0, 0.1)) * ks, draw(st.floats(0.25, 0.9))
    ramp = onramp.OnRamp(n0, 1.0 - n0, ks, bs, kb, ks + bs - phi * (ks + kb), k2)
    assert ramp.in_meaningful_set and abs(2.0 * ramp.delta - ramp.phi - 1.0) < 1e-14
    return ramp


SPECIAL = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
           1e-300, 0.5, 2.0, 5e307, LEVEL_MAX, math.nextafter(LEVEL_MAX, math.inf), 1e308]
ULPS = st.sampled_from([-math.inf, 0.0, math.inf])  # one ulp down, the tie, one ulp up
REJECTED = r"^(alpha|beta|error factor|effective level beta\*error) "


def _ulp(value: float, step: float) -> float:
    return math.nextafter(value, step) if step else value


# (beta, error) pairs: beta == 1, level 0 (also from beta > 0, as 5e-324 * 0.5 rounds to 0),
# levels up to the bound, ordinary levels, and pairs of boundary values
LEVELS = st.one_of(
    ULPS.map(lambda step: (_ulp(1.0, step), 1.0)),
    st.sampled_from([(0.0, 1.0), (-0.0, 2.0), (5e-324, 0.5), (5e-324, 1.0)]),
    st.tuples(st.sampled_from([1e6, 1e300, 5e307, LEVEL_MAX]), st.sampled_from([1.0, 0.5])),
    st.tuples(st.floats(0.0, 10.0) | st.floats(-300, 300).map(lambda e: 10.0 ** e),
              st.just(1.0) | st.floats(0.01, 100.0)),
    st.tuples(st.sampled_from(SPECIAL), st.sampled_from(SPECIAL)),
)


@st.composite
def populations(draw):
    """(ramp, alpha, beta, error) around every tie rule and float boundary of solve."""
    ramp = draw(st.one_of(meaningful_configs().map(onramp.OnRamp.from_config), singular_ramps()))
    beta, error = draw(LEVELS)
    level = beta * error
    tie = draw(st.sampled_from(["phi", "crossing", "zero", "one", "random", "special"]))
    if tie == "crossing" and 0.0 <= level <= LEVEL_MAX:
        alpha = _crossing(ramp.phi, ramp.delta, level)
    elif tie in ("phi", "crossing"):
        alpha = ramp.phi
    else:
        alpha = {"zero": 0.0, "one": 1.0}.get(tie) or draw(
            st.floats(0.0, 1.0) if tie == "random" else st.sampled_from(SPECIAL))
    return ramp, _ulp(alpha, draw(ULPS)), beta, error


def _rejection(call):
    """The message of the ValueError that ``call`` raises, or None with its result."""
    try:
        return None, call()
    except ValueError as exc:
        assert type(exc) is ValueError and re.match(REJECTED, str(exc)), exc
        return str(exc), None


def _phi_ulps(ramp) -> float:
    """How far ramp.phi lies from the exact phi of its float constants, in ulps."""
    ks, bs, kb, bb = map(Fraction, (ramp.steadfast_slope, ramp.steadfast_intercept,
                                    ramp.bypass_slope, ramp.bypass_intercept))
    return ulps_apart(ramp.phi, float((ks + bs - bb) / (ks + kb)))


# phi's numerator ks + bs - bb = 2.16 - 2.00 cancels, leaving phi 13 ulps from its exact value
_CANCELLING_RAMP = onramp.OnRamp(
    0.5, 0.5, 2.0, 0.16112464547138017, 0.5, 2.0048746454713804, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(point=populations())
@example(point=(_CANCELLING_RAMP, 0.0625, -0.0, 1.0))
def test_every_population_is_refused_by_name_or_certified_by_every_oracle(point):
    # beta < 0, NaN and inf are refused, naming the input; anything else gets one share that
    # solve, the exact oracle, the bisection and the Wardrop certificate agree on
    ramp, alpha, beta, error = point
    message, result = _rejection(lambda: onramp.solve(ramp, alpha, beta, error))
    exact_message, shares = _rejection(lambda: onramp.exact_equilibria(ramp, alpha, beta, error))
    dynamics_message, trace = _rejection(
        lambda: onramp.best_response_dynamics(ramp, alpha, beta, error))
    assert exact_message == dynamics_message == message
    flow = onramp.FlowDistribution(0.5, 0.0, 0.0, 0.5)  # the certificate takes no alpha
    certified, _ = _rejection(lambda: onramp.verify_wardrop(ramp, flow, beta, error))
    if message is None or not message.startswith("alpha"):
        assert certified == message
    if beta < 0.0:  # no spite: this model's altruists do not seek the others' delay
        assert certified.startswith("beta must be >= 0")
    if message is not None:
        return
    # where phi's numerator cancels, phi itself lies beyond SOLVE_ULPS, and solve starts from it
    _assert_one_share_near(shares, result.x_hat_b, max(SOLVE_ULPS, _phi_ulps(ramp)))
    assert trace.converged, trace  # its largest product is finite and within the threshold
    assert abs(trace.flow.total_bypass - result.x_hat_b) <= 1e-12, (trace, result)
    report = onramp.verify_wardrop(ramp, result.flow, beta, error)
    assert all(map(math.isfinite, report.products)) and report.passed, report
