"""Unit tests for the configuration types and delay evaluations."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import onramp
from onramp.errors import ConfigError
from onramp.model import check_population

from conftest import DEMO_DELTA, DEMO_VALUES


def test_demo_derived_constants(demo_derived):
    assert demo_derived.steadfast_slope == pytest.approx(10.281, abs=1e-12)
    assert demo_derived.steadfast_intercept == pytest.approx(0.888, abs=1e-12)
    assert demo_derived.bypass_slope == pytest.approx(9.23, abs=1e-12)
    assert demo_derived.bypass_intercept == pytest.approx(0.63, abs=1e-12)
    assert demo_derived.lane2_slope == pytest.approx(1.63, abs=1e-12)


def test_derived_zero_ramp_flow():
    config = onramp.OnRampConfig(
        n0=0.0, c1t=1.3, c1m=7.0, c2t=0.8, c2m=2.0, mu=3.0, gamma=4.0
    )
    derived = onramp.derive_coefficients(config)
    assert derived.steadfast_intercept == 0.0
    assert derived.bypass_slope == pytest.approx(0.8 * 4.0 + 2.0, abs=1e-12)
    assert derived.bypass_intercept == pytest.approx(0.8, abs=1e-12)


def test_derived_all_zero_costs():
    config = onramp.OnRampConfig(
        n0=0.4, c1t=0.0, c1m=0.0, c2t=0.0, c2m=0.0, mu=0.0, gamma=0.0
    )
    derived = onramp.derive_coefficients(config)
    assert derived == onramp.DelayCoefficients(0.0, 0.0, 0.0, 0.0, 0.0)


def test_derive_is_deterministic(demo_config):
    assert onramp.derive_coefficients(demo_config) == onramp.derive_coefficients(
        demo_config
    )


def test_raw_and_rewritten_delay_forms_agree(demo_config, demo_derived):
    # the affine constants must reproduce the raw coefficient expressions
    c = demo_config
    n0, n2 = c.n0, c.n2
    for x in (0.0, 0.25, 0.5401568346061195, 0.8, 1.0):
        steadfast_share = 1.0 - x
        raw_steadfast = c.c1t * c.mu * (steadfast_share + n0) + c.c1m * steadfast_share * n0
        raw_bypass = c.c2t * (c.gamma * x + n2) + c.c2m * x * n2
        raw_lane2 = (c.c2t + c.c2m * n2) * x + c.c2t * n2
        profile = onramp.delays(demo_derived, x)
        assert profile.steadfast == pytest.approx(raw_steadfast, abs=1e-12)
        assert profile.bypass == pytest.approx(raw_bypass, abs=1e-12)
        assert profile.lane2 == pytest.approx(raw_lane2, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n0": -0.1},
        {"n0": 1.2},
        {"c1m": -1.0},
        {"gamma": -0.5},
        {"mu": float("nan")},
    ],
)
def test_invalid_configs_rejected(kwargs):
    values = dict(DEMO_VALUES)
    values.update(kwargs)
    with pytest.raises(ConfigError):
        onramp.OnRampConfig(**values)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n0": math.nan, "c1m": -1.0}, "neighbor flows must be finite numbers"),
        ({"n0": 1.2, "c1m": -1.0}, "nonnegative, got n0=1.2, n2=-0.1999"),
        ({"c1m": -1.0, "gamma": math.inf}, "cost coefficient c1m must be"),
        ({"gamma": math.inf}, "cost coefficient gamma must be finite and >= 0, got inf"),
    ],
)
def test_config_reports_the_first_invalid_field(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        onramp.OnRampConfig(**dict(DEMO_VALUES, **kwargs))


def test_config_lane2_share_closes_the_flow(demo_config):
    assert demo_config.n2 == 1.0 - DEMO_VALUES["n0"]
    assert onramp.OnRampConfig(**dict(DEMO_VALUES, n0=1.0)).n2 == 0.0
    assert dataclasses.replace(demo_config, n0=0.25).n2 == 0.75
    assert onramp.OnRampConfig(*DEMO_VALUES.values()) == demo_config


@pytest.mark.parametrize(
    "kwargs, constant",
    [
        ({"c1t": 1e308, "c1m": 1e308, "mu": 1e308}, "steadfast_slope"),
        ({"c2t": 1e200, "gamma": 1e200}, "bypass_slope"),
    ],
)
def test_derived_constant_overflow_is_named(kwargs, constant):
    config = onramp.OnRampConfig(**dict(DEMO_VALUES, **kwargs))
    with pytest.raises(ConfigError, match=f"^{constant} = inf is not finite"):
        onramp.derive_coefficients(config)


def test_delays_at_zero_bypass(demo_derived):
    profile = onramp.delays(demo_derived, 0.0)
    assert profile.steadfast == pytest.approx(11.169, abs=1e-12)
    assert profile.bypass == pytest.approx(0.63, abs=1e-12)
    assert profile.on_ramp == profile.steadfast
    assert profile.lane2 == pytest.approx(0.63, abs=1e-12)


def test_delays_equal_at_selfish_crossing(demo_derived, demo_summary):
    profile = onramp.delays(demo_derived, demo_summary.phi)
    assert profile.steadfast == pytest.approx(profile.bypass, abs=1e-9)


def test_delays_domain_checked(demo_derived):
    with pytest.raises(ValueError):
        onramp.delays(demo_derived, 1.2)
    with pytest.raises(ValueError):
        onramp.delays(demo_derived, -0.01)


def test_social_delay_zero_config():
    config = onramp.OnRampConfig(
        n0=0.4, c1t=0.0, c1m=0.0, c2t=0.0, c2m=0.0, mu=0.0, gamma=0.0
    )
    derived = onramp.derive_coefficients(config)
    for x in (-0.5, 0.0, 0.3, 1.0, 1.5):
        assert onramp.social_delay(config, derived, x) == 0.0


def test_social_delay_above_minimum(demo_config, demo_derived):
    at_minimum = onramp.social_delay(demo_config, demo_derived, DEMO_DELTA)
    assert onramp.social_delay(demo_config, demo_derived, 0.5) > at_minimum
    assert onramp.social_delay(demo_config, demo_derived, 0.7) > at_minimum


def test_altruistic_costs_reduce_to_delays(demo_config, demo_derived):
    for x in (0.0, 0.3, 1.0):
        profile = onramp.delays(demo_derived, x)
        pair = onramp.altruistic_costs(demo_config, demo_derived, x, beta=0.0, error=3.0)
        assert pair.steadfast_cost == profile.steadfast
        assert pair.bypass_cost == profile.bypass


def test_altruistic_costs_depend_on_product_only(demo_config, demo_derived):
    a = onramp.altruistic_costs(demo_config, demo_derived, 0.4, beta=0.5, error=2.0)
    b = onramp.altruistic_costs(demo_config, demo_derived, 0.4, beta=1.0, error=1.0)
    assert a == b
    c = onramp.altruistic_costs(demo_config, demo_derived, 0.4, beta=0.5 * 2.0, error=1.0)
    assert a == c


def test_altruistic_costs_cross_at_intersection(demo_config, demo_derived, demo_summary):
    crossing = onramp.altruistic_intersection(demo_summary.phi, demo_summary.delta, 1.0)
    pair = onramp.altruistic_costs(demo_config, demo_derived, crossing, beta=1.0, error=1.0)
    assert pair.steadfast_cost == pytest.approx(pair.bypass_cost, abs=1e-9)


def test_altruistic_costs_domain_checks(demo_config, demo_derived):
    with pytest.raises(ValueError):
        onramp.altruistic_costs(demo_config, demo_derived, 0.4, beta=1.0, error=0.0)
    with pytest.raises(ValueError):
        onramp.altruistic_costs(demo_config, demo_derived, 0.4, beta=-0.2)


def test_validate_flow_distribution_examples():
    feasible = onramp.FlowDistribution(0.3, 0.2, 0.1, 0.4)
    assert onramp.validate_flow_distribution(feasible, alpha=0.5) == []

    unbalanced = onramp.FlowDistribution(0.6, 0.2, 0.1, 0.4)
    violations = onramp.validate_flow_distribution(unbalanced, alpha=0.5)
    assert [v.constraint for v in violations] == ["selfish_mass_balance"]
    assert violations[0].residual == pytest.approx(0.3, abs=1e-12)

    negative = onramp.FlowDistribution(0.3, -0.1, 0.4, 0.4)
    violations = onramp.validate_flow_distribution(negative, alpha=0.8)
    assert [v.constraint for v in violations] == ["nonnegative_selfish_bypass"]
    assert violations[0].residual == pytest.approx(0.1, abs=1e-12)


def test_config_roundtrip_from_file(demo_config_file, demo_config):
    assert onramp.load_config(demo_config_file) == demo_config


def test_config_missing_key_named(tmp_path):
    values = dict(DEMO_VALUES)
    del values["mu"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(values))
    with pytest.raises(ConfigError, match="mu"):
        onramp.load_config(path)


def test_config_unknown_key_rejected(tmp_path):
    values = dict(DEMO_VALUES, extra=1.0)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(values))
    with pytest.raises(ConfigError, match="extra"):
        onramp.load_config(path)


def test_config_non_numeric_rejected(tmp_path):
    values = dict(DEMO_VALUES)
    values["mu"] = "fast"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(values))
    with pytest.raises(ConfigError, match="mu"):
        onramp.load_config(path)
    values["mu"] = True
    path.write_text(json.dumps(values))
    with pytest.raises(ConfigError, match="mu"):
        onramp.load_config(path)


def test_config_malformed_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        onramp.load_config(path)


def test_config_not_utf8_is_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(json.dumps(DEMO_VALUES).encode("utf-8") + b"\xe9")
    with pytest.raises(ConfigError, match="UTF-8"):
        onramp.load_config(path)


def test_config_integer_too_large_for_float_is_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(DEMO_VALUES).replace("21.3", "1" + "0" * 400))
    with pytest.raises(ConfigError, match="c1m"):
        onramp.load_config(path)


NON_FINITE = (math.nan, math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
def test_population_rejects_non_finite_beta_and_error(demo_config, demo_derived, value):
    with pytest.raises(ValueError, match="beta must be finite"):
        check_population(alpha=0.5, beta=value)
    with pytest.raises(ValueError, match="beta must be finite"):
        onramp.altruistic_costs(demo_config, demo_derived, 0.5, beta=value)
    with pytest.raises(ValueError, match="error factor must be finite"):
        onramp.altruistic_costs(demo_config, demo_derived, 0.5, beta=1.0, error=value)
    with pytest.raises(ValueError, match="alpha must lie in"):
        check_population(alpha=value, beta=1.0)


def test_population_rejects_an_overflowing_level(demo_config, demo_derived, demo_summary):
    check_population(alpha=0.8, beta=1e308, error=1.0)
    check_population(alpha=0.8, beta=1e307, error=10.0)
    overflow = r"effective level beta\*error = 1e\+308 \* 10.0 is not finite"
    with pytest.raises(ValueError, match=overflow):
        check_population(alpha=0.8, beta=1e308, error=10.0)
    flow = onramp.FlowDistribution(0.2, 0.0, 0.2, 0.6)
    for evaluate in (
        lambda: onramp.altruistic_costs(demo_config, demo_derived, 0.5, 1e308, 10.0),
        lambda: onramp.solve_equilibrium(
            demo_config, demo_derived, demo_summary, 0.8, 1e308, 10.0
        ),
        lambda: onramp.verify_wardrop(demo_config, demo_derived, flow, 1e308, 10.0),
        lambda: onramp.brute_force_equilibrium(demo_config, demo_derived, 0.8, 1e308, 10.0),
        lambda: onramp.best_response_dynamics(demo_config, demo_derived, 0.8, 1e308, 10.0),
    ):
        with pytest.raises(ValueError, match=overflow):
            evaluate()


config_values = st.fixed_dictionaries(
    {
        "n0": st.floats(0.0, 1.0),
        "c1t": st.floats(0.0, 10.0),
        "c1m": st.floats(0.0, 40.0),
        "c2t": st.floats(0.0, 10.0),
        "c2m": st.floats(0.0, 10.0),
        "mu": st.floats(0.0, 8.0),
        "gamma": st.floats(0.0, 15.0),
    }
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=config_values, x=st.floats(0.05, 0.95), h=st.floats(1e-6, 0.05))
def test_social_delay_convexity(values, x, h):
    config = onramp.OnRampConfig(**values)
    derived = onramp.derive_coefficients(config)
    j = lambda point: onramp.social_delay(config, derived, point)
    assert j(x - h) + j(x + h) - 2.0 * j(x) >= -1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=config_values, x=st.floats(0.0, 1.0))
def test_on_ramp_delay_mirrors_steadfast(values, x):
    config = onramp.OnRampConfig(**values)
    derived = onramp.derive_coefficients(config)
    profile = onramp.delays(derived, x)
    assert profile.on_ramp == profile.steadfast


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    values=config_values,
    x=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 3.0),
    error=st.floats(0.1, 5.0),
)
def test_altruistic_cost_product_sufficiency(values, x, beta, error):
    config = onramp.OnRampConfig(**values)
    derived = onramp.derive_coefficients(config)
    direct = onramp.altruistic_costs(config, derived, x, beta, error)
    folded = onramp.altruistic_costs(config, derived, x, beta * error, 1.0)
    assert direct == folded
    if beta == 0.0:
        profile = onramp.delays(derived, x)
        assert direct == onramp.AltruisticCostPair(profile.steadfast, profile.bypass)
