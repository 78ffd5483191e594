"""Unit tests for the configuration types and delay evaluations."""

import copy
import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import onramp
from onramp.analysis import _crossing
from onramp.errors import ConfigError, DegenerateConfigError
from onramp.model import _CONSTANTS, CONFIG_KEYS, LEVEL_MAX, check_population, cost_gaps

from conftest import DEMO_DELTA, DEMO_VALUES
from test_golden import SEEDED


def test_demo_derived_constants(demo_ramp):
    assert demo_ramp.steadfast_slope == pytest.approx(10.281, abs=1e-12)
    assert demo_ramp.steadfast_intercept == pytest.approx(0.888, abs=1e-12)
    assert demo_ramp.bypass_slope == pytest.approx(9.23, abs=1e-12)
    assert demo_ramp.bypass_intercept == pytest.approx(0.63, abs=1e-12)
    assert demo_ramp.lane2_slope == pytest.approx(1.63, abs=1e-12)


def test_derived_zero_ramp_flow():
    config = onramp.OnRampConfig(
        n0=0.0, c1t=1.3, c1m=7.0, c2t=0.8, c2m=2.0, mu=3.0, gamma=4.0
    )
    ramp = onramp.OnRamp.from_config(config)
    assert ramp.steadfast_intercept == 0.0
    assert ramp.bypass_slope == pytest.approx(0.8 * 4.0 + 2.0, abs=1e-12)
    assert ramp.bypass_intercept == pytest.approx(0.8, abs=1e-12)


def test_derived_all_zero_costs():
    config = onramp.OnRampConfig(
        n0=0.4, c1t=0.0, c1m=0.0, c2t=0.0, c2m=0.0, mu=0.0, gamma=0.0
    )
    with pytest.raises(DegenerateConfigError, match="all delay slopes vanish"):
        onramp.OnRamp.from_config(config)


def test_derive_is_deterministic(demo_config):
    assert onramp.OnRamp.from_config(demo_config) == onramp.OnRamp.from_config(
        demo_config
    )


def test_the_analysis_follows_the_constants(demo_ramp):
    # the analysis fields are not arguments: a model rebuilt from other constants re-analyzes
    moved = dataclasses.replace(demo_ramp, bypass_intercept=0.7)
    k_s, b_s = moved.steadfast_slope, moved.steadfast_intercept
    assert moved.phi == (k_s + b_s - 0.7) / moved.slope_sum
    assert moved.phi < demo_ramp.phi
    assert moved.j_soc_at_phi == onramp.social_delay(moved, moved.phi)
    with pytest.raises(TypeError):
        onramp.OnRamp(0.37, 0.63, 10.281, 0.888, 9.23, 0.63, 1.63, phi=0.5)


def test_the_model_stays_frozen(demo_ramp):
    # the derived fields are written past the frozen __setattr__, and only those
    with pytest.raises(dataclasses.FrozenInstanceError):
        demo_ramp.phi = 0.0
    assert vars(demo_ramp).keys() == {f.name for f in dataclasses.fields(onramp.OnRamp)}


def test_raw_and_rewritten_delay_forms_agree(demo_config, demo_ramp):
    # the affine constants must reproduce the raw coefficient expressions
    c = demo_config
    n0, n2 = c.n0, c.n2
    for x in (0.0, 0.25, 0.5401568346061195, 0.8, 1.0):
        steadfast_share = 1.0 - x
        raw_steadfast = c.c1t * c.mu * (steadfast_share + n0) + c.c1m * steadfast_share * n0
        raw_bypass = c.c2t * (c.gamma * x + n2) + c.c2m * x * n2
        raw_lane2 = (c.c2t + c.c2m * n2) * x + c.c2t * n2
        profile = onramp.delays(demo_ramp, x)
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
        # ints too large for a float
        ({"n0": 10**400}, "^config key n0 is too large for a float$"),
        ({"n0": -(10**400)}, "^config key n0 is too large for a float$"),
        ({"c1t": 10**400, "gamma": 10**400}, "^config key c1t is too large for a float$"),
        ({"c1m": -1.0, "c2t": 10**400}, "cost coefficient c1m must be"),
        # each field's type and range come before the next field's
        ({"n0": -1.0, "c1t": "x"}, "^neighbor flows must be nonnegative, got n0=-1.0, n2=2.0$"),
        ({"n0": 2.0, "c1t": "x"}, "^neighbor flows must be nonnegative, got n0=2.0, n2=-1.0$"),
        ({"c1m": -1, "c2t": "x"}, "^cost coefficient c1m must be finite and >= 0, got -1.0$"),
    ],
)
def test_config_reports_the_first_invalid_field(kwargs, message):
    doc = dict(DEMO_VALUES, **kwargs)
    for build in (onramp.OnRampConfig.from_dict, lambda doc: onramp.OnRampConfig(**doc)):
        with pytest.raises(ConfigError, match=message):
            build(doc)


# a second spoil, put on each other field in turn: for n0 only, 2.0 is out of range
SECOND_SPOILS = ("x", None, 10**400, math.inf, -1.0, 2.0)


@pytest.mark.parametrize("key", CONFIG_KEYS)
@pytest.mark.parametrize(
    "spoil", ["0.37", None, True, False, [1.0], Fraction(1, 2), 10**400, math.nan, -1.0]
)
def test_direct_config_names_a_bad_value_as_from_dict_does(key, spoil):
    doc = dict(DEMO_VALUES, **{key: spoil})
    pairs = [dict(doc, **{other: second}) for other in CONFIG_KEYS if other != key
             for second in SECOND_SPOILS]
    for spoiled in [doc, *pairs]:
        with pytest.raises(ConfigError) as parsed:
            onramp.OnRampConfig.from_dict(spoiled)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(parsed.value))}$"):
            onramp.OnRampConfig(**spoiled)


def test_direct_config_names_the_first_non_number_and_stores_floats():
    with pytest.raises(ConfigError, match=r"^config key c1t must be a number, got 'x'$"):
        onramp.OnRampConfig(**dict(DEMO_VALUES, c1t="x", gamma=None))
    # a kept int reached the model's arithmetic, where a huge one overflowed the float conversion
    config = onramp.OnRampConfig(**dict(DEMO_VALUES, n0=0, c1t=1, mu=np.float64(2.4)))
    assert (type(config.n0), type(config.c1t), type(config.mu)) == (float, float, float)
    assert (config.n0, config.c1t, config.mu) == (0.0, 1.0, 2.4)


def test_huge_int_coefficients_overflow_as_from_dict_names_it():
    doc = dict(DEMO_VALUES, c1t=10**200, mu=10**200)
    message = "^steadfast_slope = inf is not finite; the config values are too large$"
    for config in (onramp.OnRampConfig.from_dict(doc), onramp.OnRampConfig(**doc)):
        with pytest.raises(ConfigError, match=message):
            onramp.OnRamp.from_config(config)


def test_an_all_int_config_builds_a_model_of_floats():
    ramp = onramp.OnRamp.from_config(
        onramp.OnRampConfig(n0=0, c1t=1, c1m=21, c2t=1, c2m=1, mu=9, gamma=8)
    )
    floats = [field.name for field in dataclasses.fields(ramp) if field.type == "float"]
    assert len(floats) == 12
    assert [name for name in floats if type(getattr(ramp, name)) is not float] == []


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
        onramp.OnRamp.from_config(config)


def test_delays_at_zero_bypass(demo_ramp):
    profile = onramp.delays(demo_ramp, 0.0)
    assert profile.steadfast == pytest.approx(11.169, abs=1e-12)
    assert profile.bypass == pytest.approx(0.63, abs=1e-12)
    assert profile.on_ramp == profile.steadfast
    assert profile.lane2 == pytest.approx(0.63, abs=1e-12)


def test_delays_equal_at_selfish_crossing(demo_ramp):
    profile = onramp.delays(demo_ramp, demo_ramp.phi)
    assert profile.steadfast == pytest.approx(profile.bypass, abs=1e-9)


def test_delays_domain_checked(demo_ramp):
    with pytest.raises(ValueError):
        onramp.delays(demo_ramp, 1.2)
    with pytest.raises(ValueError):
        onramp.delays(demo_ramp, -0.01)


def test_social_delay_zero_config(demo_ramp):
    # all-zero costs build no model (test_derived_all_zero_costs): zero the constants of a copy
    ramp = copy.copy(demo_ramp)
    for name in _CONSTANTS:
        object.__setattr__(ramp, name, 0.0)
    for x in (-0.5, 0.0, 0.3, 1.0, 1.5):
        assert onramp.social_delay(ramp, x) == 0.0


def test_social_delay_above_minimum(demo_ramp):
    at_minimum = onramp.social_delay(demo_ramp, DEMO_DELTA)
    assert onramp.social_delay(demo_ramp, 0.5) > at_minimum
    assert onramp.social_delay(demo_ramp, 0.7) > at_minimum


def test_altruistic_costs_reduce_to_delays(demo_ramp):
    # at level 0 an altruist perceives the travel delays: the two gaps are one
    for x in (0.0, 0.3, 1.0):
        profile = onramp.delays(demo_ramp, x)
        travel_gap, perceived_gap = cost_gaps(demo_ramp, x, 0.0)
        assert travel_gap == perceived_gap == profile.steadfast - profile.bypass


def test_altruistic_costs_depend_on_product_only(demo_ramp):
    flow = onramp.FlowDistribution(0.3, 0.1, 0.3, 0.3)
    a = onramp.verify_wardrop(demo_ramp, flow, beta=0.5, error=2.0)
    b = onramp.verify_wardrop(demo_ramp, flow, beta=1.0, error=1.0)
    assert a == b


def test_altruistic_costs_cross_at_intersection(demo_ramp):
    for level in (0.0, 0.5, 1.0, 2.0):
        crossing = _crossing(demo_ramp.phi, demo_ramp.delta, level)
        _, perceived_gap = cost_gaps(demo_ramp, crossing, level)
        assert perceived_gap == pytest.approx(0.0, abs=1e-9)


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


_VALID = json.dumps(DEMO_VALUES, indent=2)


@pytest.mark.parametrize("raw", [
    _VALID.replace("\n", "\r\n").encode(),
    _VALID.replace("\n", "\r").encode(),
    b'{\r\n  "n0": x\r\n}',  # text mode reports char 10, the raw text char 11
    b'{\r  "n0": 0.37,\r  "mu": x\r}',
    b"\xef\xbb\xbf" + _VALID.encode(),
    _VALID.encode()[:20] + b"\xe9" + _VALID.encode()[20:],
    _VALID.encode() + b"\xe2\x82",  # a multibyte character cut short at the end
    b"",
    _VALID.encode("utf-16"),
], ids=["crlf", "cr", "json-error-after-crlf", "json-error-after-cr", "utf8-bom",
        "invalid-utf8", "truncated-utf8", "empty", "utf16-bom"])
def test_config_bytes_read_as_text_mode_reads_them(tmp_path, raw):
    path = tmp_path / "c.json"
    path.write_bytes(raw)
    try:
        expected = onramp.OnRampConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except UnicodeDecodeError as exc:
        expected = f"config file is not valid UTF-8: {exc}"
    except json.JSONDecodeError as exc:
        expected = f"config file is not valid JSON: {exc}"
    try:
        assert onramp.load_config(path) == expected
    except ConfigError as exc:
        assert str(exc) == expected


def test_config_integer_too_large_for_float_is_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(DEMO_VALUES).replace("21.3", "1" + "0" * 400))
    with pytest.raises(ConfigError, match="c1m"):
        onramp.load_config(path)


NON_FINITE = (math.nan, math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
def test_population_rejects_non_finite_beta_and_error(value):
    with pytest.raises(ValueError, match="beta must be finite"):
        check_population(alpha=0.5, beta=value)
    with pytest.raises(ValueError, match="error factor must be finite"):
        check_population(alpha=0.5, beta=1.0, error=value)
    with pytest.raises(ValueError, match="alpha must lie in"):
        check_population(alpha=value, beta=1.0)


def test_population_rejects_an_overflowing_level(demo_ramp):
    # above LEVEL_MAX the crossing's 2*level*delta overflows; the bound is exact
    check_population(alpha=0.8, beta=LEVEL_MAX, error=1.0)
    check_population(alpha=0.8, beta=LEVEL_MAX / 8, error=8.0)
    above = math.nextafter(LEVEL_MAX, math.inf)
    for beta, error in ((above, 1.0), (1e308, 1.0), (1e307, 10.0), (LEVEL_MAX, 1.5)):
        message = f"effective level beta*error = {beta} * {error} exceeds the bound {LEVEL_MAX}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_population(alpha=0.8, beta=beta, error=error)
    overflow = r"effective level beta\*error = 1e\+308 \* 10.0 is not finite"
    with pytest.raises(ValueError, match=overflow):
        check_population(alpha=0.8, beta=1e308, error=10.0)
    flow = onramp.FlowDistribution(0.2, 0.0, 0.2, 0.6)
    for evaluate in (
        lambda: onramp.solve(demo_ramp, 0.8, 1e308, 10.0),
        lambda: onramp.verify_wardrop(demo_ramp, flow, 1e308, 10.0),
        lambda: onramp.brute_force_equilibrium(demo_ramp, 0.8, 1e308, 10.0),
        lambda: onramp.best_response_dynamics(demo_ramp, 0.8, 1e308, 10.0),
    ):
        with pytest.raises(ValueError, match=overflow):
            evaluate()


HUGE = 10**400


def test_api_rejects_integers_too_large_for_a_float(demo_ramp):
    for evaluate, name in (
        (lambda: check_population(beta=HUGE), "beta"),
        (lambda: check_population(beta=-HUGE), "beta"),
        (lambda: check_population(alpha=10**5000), "alpha"),
        # an int product compares below inf, so this one used to pass
        (lambda: check_population(alpha=0.5, beta=1, error=HUGE), "error factor"),
        (lambda: onramp.ErrorInterval(HUGE, 10 * HUGE), "e_lower"),
        (lambda: onramp.ErrorInterval(1, HUGE), "e_upper"),
        (lambda: onramp.solve(demo_ramp, 0.8, HUGE), "beta"),
        (lambda: onramp.beta_e_sweep(demo_ramp, [0.8], HUGE, 0.01), "beta_e_max"),
        (lambda: onramp.beta_e_sweep(demo_ramp, [0.8], 4.0, HUGE), "step"),
    ):
        with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
            evaluate()
    with pytest.raises(ValueError, match=r"effective level beta\*error = .* is not finite"):
        check_population(beta=10**200, error=10**200)
    check_population(alpha=1, beta=8 * 10**307, error=1)


@pytest.mark.parametrize("narrow", [np.float32, np.float16])
def test_narrow_numpy_floats_give_the_results_of_floats(demo_ramp, narrow):
    # numpy compares a float32 or float16 with FLOAT_MAX in its own type, where the bound
    # overflows and warns; the checks compare, and form the level, in float64
    ramp, interval = demo_ramp, onramp.ErrorInterval(0.5, 2.0)
    narrow_interval = onramp.ErrorInterval(narrow(0.5), narrow(2.0))
    assert narrow_interval == interval
    for beta, error in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.25)):
        result = onramp.solve(ramp, 0.8, narrow(beta), narrow(error))
        assert result == onramp.solve(ramp, 0.8, beta, error)
        report = onramp.verify_wardrop(ramp, result.flow, narrow(beta), narrow(error))
        assert report == onramp.verify_wardrop(ramp, result.flow, beta, error)
    assert onramp.poa(ramp, narrow(1.0), narrow_interval) == onramp.poa(ramp, 1.0, interval)
    assert onramp.optimal_beta(ramp, narrow_interval) == onramp.optimal_beta(ramp, interval)
    assert type(narrow_interval.e_lower) is type(narrow_interval.e_upper) is float
    # float32 rounds 0.1 up, out of the step's range; float16 rounds it down
    for step in (narrow(0.1), narrow(0.05)):
        wide = float(step)
        if wide <= 0.1:
            assert onramp.alpha_sweep(ramp, [1.0], step) == onramp.alpha_sweep(ramp, [1.0], wide)
            continue
        message = f"alpha step must lie in (0, 0.1], got {wide}"
        for given in (step, wide):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                onramp.alpha_sweep(ramp, [1.0], given)
    rows = onramp.beta_e_sweep(ramp, [0.8], narrow(2.0), 0.5)
    assert rows == onramp.beta_e_sweep(ramp, [0.8], 2.0, 0.5)
    assert {type(row.beta_e) for row in rows} == {float}
    flags = onramp.improvement_conditions(ramp, narrow(0.8), narrow(1.0))
    assert flags == onramp.improvement_conditions(ramp, 0.8, 1.0)
    assert [type(flag) for flag in flags] == [bool, bool]
    for build, values in (
        (lambda beta, error: onramp.solve(ramp, 0.8, beta, error),
         [(-1.0, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, math.nan)]),
        (onramp.ErrorInterval, [(2.0, 1.0), (0.5, math.inf), (-0.5, 2.0)]),
    ):
        for first, second in values:
            with pytest.raises(ValueError) as wide:
                build(first, second)
            with pytest.raises(ValueError, match=f"^{re.escape(str(wide.value))}$"):
                build(narrow(first), narrow(second))


def test_a_narrow_interval_gives_a_float_beta_star():
    # transition-limited on [0.25, 4]: beta* = 1 / (e_lower * pi), formed from the stored bound
    ramp = onramp.OnRamp.from_config(onramp.OnRampConfig(**SEEDED["limited"]))
    interval = onramp.ErrorInterval(np.float32(0.25), np.float32(4.0))
    beta_star = onramp.optimal_beta(ramp, interval).beta_star
    assert type(beta_star) is float and beta_star == 1.7362966917396074


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


def _ramp_or_reject(values):
    """The model of a drawn config; a draw that builds none (no slope, overflow) is rejected."""
    try:
        return onramp.OnRamp.from_config(onramp.OnRampConfig(**values))
    except onramp.OnRampError:
        reject()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=config_values, x=st.floats(0.05, 0.95), h=st.floats(1e-6, 0.05))
def test_social_delay_convexity(values, x, h):
    ramp = _ramp_or_reject(values)
    j = lambda point: onramp.social_delay(ramp, point)
    assert j(x - h) + j(x + h) - 2.0 * j(x) >= -1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=config_values, x=st.floats(0.0, 1.0))
def test_on_ramp_delay_mirrors_steadfast(values, x):
    ramp = _ramp_or_reject(values)
    profile = onramp.delays(ramp, x)
    assert profile.on_ramp == profile.steadfast


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    values=config_values,
    x=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 3.0),
    error=st.floats(0.1, 5.0),
)
def test_altruistic_cost_product_sufficiency(values, x, beta, error):
    ramp = _ramp_or_reject(values)
    # each class splits its half of the flow alike, so the classes differ only in their gaps
    bypass, steadfast = 0.5 * x, 0.5 * (1.0 - x)
    flow = onramp.FlowDistribution(steadfast, bypass, steadfast, bypass)
    direct = onramp.verify_wardrop(ramp, flow, beta, error)
    folded = onramp.verify_wardrop(ramp, flow, beta * error, 1.0)
    assert direct == folded
    if beta == 0.0:
        assert direct.products[2:] == direct.products[:2]
