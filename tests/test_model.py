"""Unit tests for the configuration types and delay evaluations."""

import copy
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import onramp
from onramp.analysis import _crossing
from onramp.errors import ConfigError, DegenerateConfigError
from onramp.model import _CONSTANTS, CONFIG_KEYS, LEVEL_MAX, check_population, cost_gaps

from conftest import DEMO_DELTA, DEMO_PHI, DEMO_VALUES
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
    constants = [getattr(demo_ramp, name) for name in ("n0", "n2", *_CONSTANTS)]
    moved = onramp.OnRamp(*constants[:5], 0.7, constants[6])
    assert moved.bypass_intercept == 0.7
    k_s, b_s = moved.steadfast_slope, moved.steadfast_intercept
    assert moved.phi == (k_s + b_s - 0.7) / moved.slope_sum
    assert moved.phi < demo_ramp.phi
    assert moved.j_soc_at_phi == onramp.social_delay(moved, moved.phi)
    with pytest.raises(TypeError):
        onramp.OnRamp(0.37, 0.63, 10.281, 0.888, 9.23, 0.63, 1.63, phi=0.5)


def test_the_model_stays_frozen(demo_config, demo_ramp):
    # the fields are written past the frozen __setattr__, and no record has a __dict__
    with pytest.raises(AttributeError, match="^cannot assign to field 'phi'$"):
        demo_ramp.phi = 0.0
    with pytest.raises(AttributeError, match="^cannot delete field 'n0'$"):
        del demo_ramp.n0
    assert demo_ramp.phi == DEMO_PHI
    for record in (demo_config, demo_ramp, onramp.ErrorInterval(0.5, 2.0)):
        assert not hasattr(record, "__dict__"), record


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
    "spoil", ["0.37", None, True, False, [1.0], Decimal("0.5"), 10**400, math.nan, -1.0]
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


@pytest.mark.parametrize("real", [int, np.int64, np.float32, Fraction])
def test_a_config_of_other_reals_equals_the_one_of_python_floats(demo_ramp, real):
    # any real but a bool is taken, as every other numeric input is, and stored as a float
    given = {key: real(value) for key, value in DEMO_VALUES.items()}
    expected = onramp.OnRampConfig(**{key: float(value) for key, value in given.items()})
    for config in (onramp.OnRampConfig(**given), onramp.OnRampConfig.from_dict(given)):
        assert config == expected
        assert [type(getattr(config, key)) for key in CONFIG_KEYS] == [float] * 7
    message = f"^config key c1t must be a number, got {re.escape(repr(np.True_))}$"
    with pytest.raises(ConfigError, match=message):
        onramp.OnRampConfig(**dict(DEMO_VALUES, c1t=np.True_))
    # the API's numeric inputs, given as whole numbers of the same type, give the float's results
    ramp, wide = demo_ramp, onramp.ErrorInterval(1.0, 4.0)
    interval = onramp.ErrorInterval(real(1), real(4))
    assert interval == wide and type(interval.e_lower) is type(interval.e_upper) is float
    for call in (
        lambda number: onramp.solve(ramp, 0.8, number(2), number(1)),
        lambda number: onramp.verify_wardrop(ramp, FLOW, number(2), number(1)),
        lambda number: onramp.improvement_conditions(ramp, 0.8, number(1)),
        lambda number: onramp.poa(ramp, number(1), wide),
        lambda number: onramp.beta_e_sweep(ramp, [0.8], number(4), number(1)),
        lambda number: onramp.best_response_dynamics(ramp, 0.8, number(1), number(1)),
        lambda number: onramp.grid_poa(ramp, number(1), wide),
        lambda number: onramp.grid_optimal_beta(ramp, onramp.ErrorInterval(number(1), number(4))),
        lambda number: onramp.social_delay(ramp, number(1)),
    ):
        result = call(real)
        assert result == call(float)
        assert type(result) is not onramp.WardropReport or type(result.tol) is float
    # and every number of a result is a Python float: == alone would pass a leaked np.float32,
    # since numpy compares it in float32
    for numbers in RESULT_NUMBERS:
        given = numbers(ramp, real(0), real(1), real(2))
        assert given == numbers(ramp, 0.0, 1.0, 2.0)
        assert {type(number) for number in given} == {float}


def _solve_numbers(result) -> list:
    """The numbers of an EquilibriumResult: its flow, share, delays and social delay."""
    return [*result.flow, result.x_hat_b, *result.delays, result.social_delay]


def _row_numbers(rows) -> list:
    """The numbers of sweep rows: every field but the case."""
    return [number for row in rows for number in (*row[:3], row[4])]


# per call on (ramp, zero, alpha, beta), all of one type: the numbers of its results
RESULT_NUMBERS = (
    lambda ramp, zero, alpha, beta: _solve_numbers(onramp.solve(ramp, zero, beta)),
    lambda ramp, zero, alpha, beta: _solve_numbers(onramp.solve(ramp, alpha, beta)),
    lambda ramp, zero, alpha, beta: onramp.exact_equilibria(ramp, alpha, beta),
    lambda ramp, zero, alpha, beta: list(onramp.delays(ramp, alpha)),
    lambda ramp, zero, alpha, beta: [onramp.social_delay(ramp, alpha)],
    lambda ramp, zero, alpha, beta: _row_numbers(onramp.alpha_sweep(ramp, [zero, beta], 0.0625)),
    lambda ramp, zero, alpha, beta: _row_numbers(
        onramp.beta_e_sweep(ramp, [zero, alpha], beta, 0.5)),
)


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
    others = ("in_meaningful_set", "exclusion_reason", "decrease_interval", "optimize_interval")
    floats = [name for name in onramp.OnRamp.__slots__ if name not in others]
    assert len(floats) == 12
    assert [name for name in floats if type(getattr(ramp, name)) is not float] == []


def test_config_lane2_share_closes_the_flow(demo_config):
    assert demo_config.n2 == 1.0 - DEMO_VALUES["n0"]
    assert onramp.OnRampConfig(**dict(DEMO_VALUES, n0=1.0)).n2 == 0.0
    assert onramp.OnRampConfig(**dict(DEMO_VALUES, n0=0.25)).n2 == 0.75
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


def test_perceived_gap_is_the_perceived_cost_gap_over_one_plus_level(demo_ramp):
    # (1 - w) * travel + w * marginal, w = level / (1 + level): the steadfast-minus-bypass
    # perceived-cost gap over 1 + level, falling by slope_sum per unit of share like travel
    ramp = demo_ramp
    ks, kb, k2 = ramp.steadfast_slope, ramp.bypass_slope, ramp.lane2_slope
    for level in (0.5, 3.0, 1e6):
        for x in (0.0, 0.3, 1.0):
            profile = onramp.delays(ramp, x)
            steadfast_cost = profile.steadfast + level * ks * ((1.0 - x) + ramp.n0)
            bypass_cost = profile.bypass + level * (kb * x + k2 * ramp.n2)
            expected = (steadfast_cost - bypass_cost) / (1.0 + level)
            assert cost_gaps(ramp, x, level)[1] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        for gap in (0, 1):
            fall = cost_gaps(ramp, 0.0, level)[gap] - cost_gaps(ramp, 1.0, level)[gap]
            assert fall == pytest.approx(ramp.slope_sum, rel=1e-12)


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
        lambda: onramp.exact_equilibria(demo_ramp, 0.8, 1e308, 10.0),
        lambda: onramp.best_response_dynamics(demo_ramp, 0.8, 1e308, 10.0),
    ):
        with pytest.raises(ValueError, match=overflow):
            evaluate()


HUGE = 10**400
INTERVAL = onramp.ErrorInterval(0.5, 2.0)
FLOW = onramp.FlowDistribution(0.2, 0.0, 0.2, 0.6)
# each public numeric input of the API, by the name its messages give it: (name, call)
NUMBER_SITES = {
    "solve alpha": ("alpha", lambda ramp, v: onramp.solve(ramp, v, 1.0)),
    "solve beta": ("beta", lambda ramp, v: onramp.solve(ramp, 0.8, v)),
    "solve error": ("error factor", lambda ramp, v: onramp.solve(ramp, 0.8, 1.0, v)),
    "delays share": ("bypass share", lambda ramp, v: onramp.delays(ramp, v)),
    "social_delay share": ("bypass share", lambda ramp, v: onramp.social_delay(ramp, v)),
    "verify_wardrop beta": ("beta", lambda ramp, v: onramp.verify_wardrop(ramp, FLOW, v)),
    "verify_wardrop error": (
        "error factor", lambda ramp, v: onramp.verify_wardrop(ramp, FLOW, 1.0, v)),
    "improvement alpha": ("alpha", lambda ramp, v: onramp.improvement_conditions(ramp, v, 1.0)),
    "improvement beta": ("beta", lambda ramp, v: onramp.improvement_conditions(ramp, 0.8, v)),
    "e_lower": ("e_lower", lambda ramp, v: onramp.ErrorInterval(v, 2.0)),
    "e_upper": ("e_upper", lambda ramp, v: onramp.ErrorInterval(0.5, v)),
    "poa beta": ("beta", lambda ramp, v: onramp.poa(ramp, v, INTERVAL)),
    "alpha_sweep beta": ("beta", lambda ramp, v: onramp.alpha_sweep(ramp, [v], 0.1)),
    "alpha_sweep step": ("alpha step", lambda ramp, v: onramp.alpha_sweep(ramp, [1.0], v)),
    "beta_e_sweep alpha": ("alpha", lambda ramp, v: onramp.beta_e_sweep(ramp, [v], 2.0, 0.5)),
    "beta_e_sweep max": (
        "beta_e_max", lambda ramp, v: onramp.beta_e_sweep(ramp, [0.8], v, 0.5)),
    "beta_e_sweep step": ("step", lambda ramp, v: onramp.beta_e_sweep(ramp, [0.8], 2.0, v)),
    "grid_poa beta": ("beta", lambda ramp, v: onramp.grid_poa(ramp, v, INTERVAL)),
    "transition_beta alpha": (
        "alpha", lambda ramp, v: onramp.transition_beta(v, ramp.phi, ramp.delta)),
    "transition_beta phi": ("phi", lambda ramp, v: onramp.transition_beta(0.5, v, ramp.delta)),
    "transition_beta delta": ("delta", lambda ramp, v: onramp.transition_beta(0.5, ramp.phi, v)),
}
NOT_NUMBERS = {"True": True, "np.True_": np.True_, "str": "1", "None": None,
               "Decimal": Decimal("1"), "huge int": HUGE}


def _number_message(name: str, value) -> str:
    """The exact message of the one number rule for ``value`` given as ``name``."""
    if value is HUGE:
        return f"^{re.escape(name)} is too large for a float$"
    return f"^{re.escape(name)} must be a number, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("site", ["config field", *NUMBER_SITES])
def test_every_numeric_input_takes_only_a_number(demo_ramp, site, value):
    # a bool, a non-number or an int beyond the float range, wherever a number is taken
    if site == "config field":
        for key in CONFIG_KEYS:
            doc = dict(DEMO_VALUES, **{key: value})
            for build in (onramp.OnRampConfig.from_dict, lambda doc: onramp.OnRampConfig(**doc)):
                with pytest.raises(ConfigError, match=_number_message(f"config key {key}", value)):
                    build(doc)
        return
    name, call = NUMBER_SITES[site]
    with pytest.raises(ValueError, match=_number_message(name, value)) as raised:
        call(demo_ramp, value)
    assert raised.type is ValueError


# the NUMBER_SITES that take only a positive number, each with the largest value it takes
POSITIVE_SITES = {
    "alpha_sweep step": 0.1,
    "beta_e_sweep max": math.inf,
    "beta_e_sweep step": math.inf,
}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{label}")
    for site, most in POSITIVE_SITES.items()
    for label, value in (("nan", math.nan), ("zero", 0.0), ("negative", -1.0), ("inf", math.inf))
    if label != "inf" or most < math.inf  # inf passes a bound that is itself infinite
])
def test_every_positive_input_names_itself_at_nan_zero_and_below(demo_ramp, site, value):
    name, call = NUMBER_SITES[site]
    most = POSITIVE_SITES[site]
    bound = "be > 0" if most == math.inf else f"lie in (0, {most}]"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must {bound}, got {value}')}$"):
        call(demo_ramp, value)


def test_api_rejects_integers_too_large_for_a_float(demo_ramp):
    # -HUGE at every site; HUGE is one case of test_every_numeric_input_takes_only_a_number
    for name, call in NUMBER_SITES.values():
        with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
            call(demo_ramp, -HUGE)
    for evaluate, name in (
        (lambda: check_population(alpha=10**5000), "alpha"),
        # an int product compares below inf, so this one used to pass
        (lambda: check_population(alpha=0.5, beta=1, error=HUGE), "error factor"),
        (lambda: onramp.ErrorInterval(HUGE, 10 * HUGE), "e_lower"),
        (lambda: onramp.ErrorInterval(1, HUGE), "e_upper"),
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
    # an alpha too, and every number of a result is a Python float
    for numbers in RESULT_NUMBERS:
        given = numbers(ramp, narrow(0.0), narrow(0.75), narrow(2.0))
        assert given == numbers(ramp, 0.0, 0.75, 2.0)
        assert {type(number) for number in given} == {float}
    flags = onramp.improvement_conditions(ramp, narrow(0.8), narrow(1.0))
    assert flags == onramp.improvement_conditions(ramp, 0.8, 1.0)
    assert [type(flag) for flag in flags] == [bool, bool]
    # the oracles' levels and bounds, at values that both widths hold exactly
    for call in (
        lambda number: onramp.best_response_dynamics(ramp, 0.8, number(0.5)),
        lambda number: onramp.verify_wardrop(ramp, FLOW, number(0.5)),
        lambda number: onramp.grid_poa(ramp, number(0.5), interval),
        lambda number: onramp.grid_optimal_beta(
            ramp, onramp.ErrorInterval(number(0.5), number(2.0))),
    ):
        assert call(narrow) == call(float)
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
