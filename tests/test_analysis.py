"""Unit tests for the structural quantities and classification."""

import math
import random

import numpy as np
import pytest

import onramp
from onramp.analysis import _crossing
from onramp.errors import ConfigError, DegenerateConfigError, NotInMeaningfulSetError
from onramp.model import LEVEL_MAX, _pi_value

from conftest import (
    DEMO_DELTA,
    DEMO_J_OPT,
    DEMO_J_SOC_AT_PHI,
    DEMO_PHI,
    DEMO_PI,
    DEMO_VALUES,
    bisect_selfish_crossing,
    grid_scan_minimizer,
    make_transition_limited,
    meaningful_batch,
    sample_meaningful,
)


def test_selfish_crossing_matches_bisection(demo_ramp):
    phi = demo_ramp.phi
    assert phi == pytest.approx(DEMO_PHI, abs=1e-12)
    assert phi == pytest.approx(bisect_selfish_crossing(demo_ramp), abs=1e-9)


def test_selfish_crossing_symmetric_config():
    config = onramp.OnRampConfig(
        n0=0.5, c1t=1.0, c1m=1.0, c2t=1.0, c2m=1.0, mu=1.0, gamma=1.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert ramp.steadfast_slope == ramp.bypass_slope
    assert ramp.steadfast_intercept == ramp.bypass_intercept
    assert ramp.phi == pytest.approx(0.5, abs=1e-12)


def test_selfish_crossing_negative_outside_set():
    config = onramp.OnRampConfig(
        n0=0.1, c1t=1.0, c1m=1.0, c2t=50.0, c2m=0.1, mu=1.0, gamma=1.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert ramp.bypass_intercept > ramp.steadfast_slope + ramp.steadfast_intercept
    assert ramp.phi < 0.0
    assert not ramp.in_meaningful_set
    assert ramp.exclusion_reason == "Phi <= 0"


def test_degenerate_config_raises():
    config = onramp.OnRampConfig(
        n0=0.4, c1t=0.0, c1m=0.0, c2t=0.0, c2m=0.0, mu=0.0, gamma=0.0
    )
    with pytest.raises(DegenerateConfigError):
        onramp.OnRamp.from_config(config)


def test_social_optimum_matches_grid_scan(demo_ramp):
    minimizer, optimum = demo_ramp.delta, demo_ramp.j_opt
    assert minimizer == pytest.approx(DEMO_DELTA, abs=1e-12)
    scanned = grid_scan_minimizer(demo_ramp, step=1e-5)
    assert minimizer == pytest.approx(scanned, abs=1e-4)
    # interior minimizer: the optimum is the unclamped vertex value
    assert optimum == pytest.approx(onramp.social_delay(demo_ramp, minimizer), abs=0.0)
    assert optimum == pytest.approx(DEMO_J_OPT, abs=1e-12)


def test_social_optimum_clamps_to_boundary():
    config = onramp.OnRampConfig(
        n0=0.9, c1t=1.0, c1m=10.0, c2t=0.05, c2m=0.0, mu=1.0, gamma=0.0
    )
    ramp = onramp.OnRamp.from_config(config)
    minimizer, optimum = ramp.delta, ramp.j_opt
    assert minimizer > 1.0
    assert optimum == onramp.social_delay(ramp, 1.0)


def test_altruistic_intersection_endpoints(demo_ramp):
    phi, delta = demo_ramp.phi, demo_ramp.delta
    assert _crossing(phi, delta, 0.0) == phi
    assert _crossing(phi, delta, 1.0) == delta
    limit = 2.0 * delta - phi
    assert _crossing(phi, delta, 1e6) == pytest.approx(limit, abs=1e-5)


def test_altruistic_intersection_is_bounded_at_the_level_bound(demo_ramp):
    phi, delta = demo_ramp.phi, demo_ramp.delta
    limit = 2.0 * delta - phi
    assert _crossing(phi, delta, LEVEL_MAX) == pytest.approx(limit, abs=1e-15)
    assert _crossing(phi, delta, -0.0) == phi


def test_altruistic_intersection_monotone(demo_ramp):
    phi, delta = demo_ramp.phi, demo_ramp.delta
    levels = [i * 0.1 for i in range(100)]
    values = [_crossing(phi, delta, level) for level in levels]
    assert all(b > a for a, b in zip(values, values[1:]))
    inside = [v for level, v in zip(levels, values) if level <= 1.0]
    assert all(phi <= v <= delta for v in inside)


def test_pi_value_examples(demo_ramp):
    assert _pi_value(demo_ramp.phi, demo_ramp.delta) == pytest.approx(DEMO_PI, abs=1e-12)
    assert _pi_value(0.0, 0.75) == pytest.approx(2.0, abs=1e-12)
    assert _pi_value(0.5, 0.7) == pytest.approx(-5.0, abs=1e-12)
    # zero denominator: the limit, +/-inf with the sign of 1 - phi, or NaN at 0/0
    assert _pi_value(0.5, 0.75) == math.inf
    assert _pi_value(1.5, 1.25) == -math.inf
    assert math.isnan(_pi_value(1.0, 1.0))


def test_demo_summary_fields(demo_ramp):
    assert demo_ramp.in_meaningful_set
    assert demo_ramp.exclusion_reason is None
    assert demo_ramp.pi == pytest.approx(DEMO_PI, abs=1e-12)
    assert demo_ramp.j_soc_at_phi == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)
    assert demo_ramp.j_opt <= demo_ramp.j_soc_at_phi
    assert demo_ramp.decrease_interval == (demo_ramp.phi, 1.0)
    assert demo_ramp.optimize_interval == (demo_ramp.delta, 1.0)


def test_classify_demo_config(demo_ramp):
    for bounds in ((0.5, 2.0), (1.0, 1.0), (0.1, 10.0)):
        label = onramp.classification(demo_ramp, onramp.ErrorInterval(*bounds))
        assert label.regime is onramp.Regime.ENDPOINT_SYMMETRIC


def test_classify_outside_set_reports_reason():
    config = onramp.OnRampConfig(
        n0=0.05, c1t=1.0, c1m=30.0, c2t=0.4, c2m=0.1, mu=5.0, gamma=1.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert not ramp.in_meaningful_set
    label = onramp.classification(ramp, onramp.ErrorInterval(0.5, 2.0))
    assert label.regime is onramp.Regime.NOT_IN_MEANINGFUL_SET
    assert label.reason == ramp.exclusion_reason


def test_classify_transition_limited_constructed():
    rng = random.Random(11)
    ramp = make_transition_limited(rng)
    # interval wide enough that the ratio falls below sqrt(e_upper / e_lower)
    interval = onramp.ErrorInterval(1.0, (ramp.pi * 1.5) ** 2)
    label = onramp.classification(ramp, interval)
    assert label.regime is onramp.Regime.TRANSITION_LIMITED
    # narrow interval: same configuration classifies as endpoint-symmetric
    narrow = onramp.ErrorInterval(1.0, min(1.1, (ramp.pi * 0.9) ** 2))
    assert onramp.classification(ramp, narrow).regime is onramp.Regime.ENDPOINT_SYMMETRIC


def test_error_interval_validation():
    onramp.ErrorInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        onramp.ErrorInterval(0.0, 1.0)
    with pytest.raises(ValueError):
        onramp.ErrorInterval(2.0, 1.0)


@pytest.mark.parametrize(
    "bounds, name",
    [((True, 2.0), "e_lower"), ((0.5, False), "e_upper"), (("a", "b"), "e_lower"),
     ((None, 2.0), "e_lower"), ((0.5, "2"), "e_upper"), ((np.bool_(True), 2.0), "e_lower")],
)
def test_error_interval_names_a_bound_that_is_not_a_number(bounds, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
        onramp.ErrorInterval(*bounds)


def test_error_interval_accepts_ints_and_numpy_scalars():
    for bounds in [(1, 2), (np.int64(1), 2.0), (np.float32(0.5), np.float64(2.0))]:
        assert onramp.ErrorInterval(*bounds).geometric_mean == math.sqrt(bounds[0] * bounds[1])



@pytest.mark.parametrize(
    "bounds, mean",
    [((1e-300, 1e-300), 1e-300), ((1e-200, 1e-170), 1e-185), ((1e300, 1e300), 1e300),
     ((1e-320, 1e-320), math.sqrt(1e-320) ** 2), ((10**200, 10**300), 1e250)],
)
def test_geometric_mean_of_bounds_whose_product_is_not_a_normal_float(bounds, mean):
    # the product underflows to zero or a subnormal, or overflows: each bound's root is taken
    assert onramp.ErrorInterval(*bounds).geometric_mean == pytest.approx(mean, rel=1e-15, abs=0.0)


def test_improvement_conditions(demo_ramp):
    assert onramp.improvement_conditions(demo_ramp, 0.8, 1.0) == (True, True)
    assert onramp.improvement_conditions(demo_ramp, 0.55, 1.0) == (True, False)
    assert onramp.improvement_conditions(demo_ramp, 0.8, 0.0) == (False, False)
    assert onramp.improvement_conditions(demo_ramp, 0.3, 1.0) == (False, False)


def test_improvement_conditions_require_membership():
    config = onramp.OnRampConfig(
        n0=0.1, c1t=1.0, c1m=1.0, c2t=50.0, c2m=0.1, mu=1.0, gamma=1.0
    )
    ramp = onramp.OnRamp.from_config(config)
    with pytest.raises(NotInMeaningfulSetError):
        onramp.improvement_conditions(ramp, 0.8, 1.0)


def _ulps(x):
    """x one ulp below, exactly, and one ulp above."""
    return math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)


def test_improvement_conditions_tie_rules(demo_ramp):
    phi, delta = demo_ramp.phi, demo_ramp.delta

    def flags(alpha, beta):
        return onramp.improvement_conditions(demo_ramp, alpha, beta)

    # alpha == phi: the share must strictly exceed phi to decrease the delay
    assert [flags(a, 1.0).decreases for a in _ulps(phi)] == [False, False, True]
    # beta == 0: the level must be strictly positive; one ulp below is no level at all
    below_zero, zero, above_zero = _ulps(0.0)
    assert [flags(0.8, b).decreases for b in (zero, above_zero)] == [False, True]
    # beta == 1 and alpha == delta: the optimum needs level exactly 1 and alpha >= delta
    assert [flags(0.8, b).optimizes for b in _ulps(1.0)] == [False, True, False]
    assert [flags(a, 1.0).optimizes for a in _ulps(delta)] == [False, True, True]
    # populations every other entry point rejects
    for alpha, beta, cause in [
        (0.8, below_zero, "beta must be >= 0"),
        (0.8, math.nan, "beta must be finite"),
        (0.8, math.inf, "beta must be finite"),
        (math.nan, 1.0, "alpha must lie in"),
        (2.0, 1.0, "alpha must lie in"),
        (math.nextafter(0.0, -1.0), 1.0, "alpha must lie in"),
    ]:
        with pytest.raises(ValueError, match=cause):
            flags(alpha, beta)


@pytest.mark.parametrize(
    "kwargs, cause",
    [
        # finite derived constants, but 2 * steadfast_slope overflows the optimum
        ({"mu": 1e308}, "delta = nan is not finite"),
        # lane 2 dominates: phi is huge and negative, the delay at phi overflows
        ({"c2t": 1e300, "gamma": 0.0, "c2m": 0.0}, "j_soc_at_phi = .* is not finite"),
    ],
)
def test_overflowing_configs_name_the_cause(kwargs, cause):
    config = onramp.OnRampConfig(**dict(DEMO_VALUES, **kwargs))
    with pytest.raises(ConfigError, match=cause):
        onramp.OnRamp.from_config(config)


def test_classify_overflow_is_a_config_error():
    config = onramp.OnRampConfig(**dict(DEMO_VALUES, mu=1e308))
    with pytest.raises(ConfigError, match="delta = nan is not finite"):
        onramp.classification(onramp.OnRamp.from_config(config), onramp.ErrorInterval(0.5, 2.0))


def test_meaningful_set_invariants_on_random_configs():
    for ramp in meaningful_batch(60, seed=401):
        assert 0.0 < ramp.phi < ramp.delta < 1.0
        # ratio dichotomy: negative or above 1, never inside (0, 1]
        assert ramp.pi < 0.0 or ramp.pi > 1.0
        # the crossing stays between the selfish split and the optimum
        for level in (0.1, 0.5, 0.9, 1.0):
            crossing = _crossing(ramp.phi, ramp.delta, level)
            assert ramp.phi - 1e-12 <= crossing <= ramp.delta + 1e-12
        # travel delays really do cross at phi
        profile = onramp.delays(ramp, ramp.phi)
        assert profile.steadfast == pytest.approx(profile.bypass, abs=1e-9)
        # the optimum dominates a coarse grid
        for i in range(21):
            x = i * 0.05
            value = onramp.social_delay(ramp, min(x, 1.0))
            assert ramp.j_opt <= value + 1e-12


def test_analysis_stationarity_matches_grid_on_random_configs():
    rng = random.Random(402)
    for _ in range(10):
        ramp = sample_meaningful(rng)
        scanned = grid_scan_minimizer(ramp, step=1e-5)
        assert ramp.delta == pytest.approx(scanned, abs=1e-4)
