"""The closed forms on the library's hot path: what they build, and what they raise first.

Each public closed form validates its inputs in one pass in the common case and
builds only the records it returns.  These tests pin that down: results agree
exactly with the functions they are made from, and every error is the first
one the field-by-field rules or the guards give, called in their documented
order.
"""

import math
import random

from hypothesis import given, settings, strategies as st

import onramp
from onramp import robustness
from onramp.analysis import _crossing, require_meaningful
from onramp.model import CONFIG_KEYS, check_population
from onramp.robustness import require_positive_optimum

from conftest import sample_config, sample_meaningful

SPOILS = (math.nan, math.inf, -1.0, -0.0, True, 10**400, -(10**400), 2, "1.0", None)
INTERVALS = st.sampled_from([(0.5, 2.0), (0.25, 4.0), (1.0, 1.0), (0.7, 0.7)]) | st.tuples(
    st.floats(0.05, 2.0), st.floats(1.0, 6.0)
).map(lambda bounds: (min(bounds), max(bounds)))
BETAS = st.sampled_from([0.0, 1.0, 1e300, math.nan, -1.0]) | st.floats(0.0, 4.0)


def _config_error(doc) -> str | None:
    """The message of the first rule ``doc`` breaks: its keys, then each field's type and range."""
    if set(doc) != set(CONFIG_KEYS):
        unknown = sorted(set(doc) - set(CONFIG_KEYS))
        if unknown:
            return f"unknown config keys: {', '.join(unknown)}"
        return f"missing config key: {next(key for key in CONFIG_KEYS if key not in doc)}"
    for key in CONFIG_KEYS:
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"config key {key} must be a number, got {value!r}"
        try:
            value = float(value)
        except OverflowError:
            return f"config key {key} is too large for a float"
        if key == "n0" and not math.isfinite(value):
            return "neighbor flows must be finite numbers"
        if key == "n0" and (value < 0.0 or 1.0 - value < 0.0):
            return f"neighbor flows must be nonnegative, got n0={value}, n2={1.0 - value}"
        if key != "n0" and (not math.isfinite(value) or value < 0.0):
            return f"cost coefficient {key} must be finite and >= 0, got {value}"
    return None


def _outcome(call, *args):
    """(result, None) or (None, the exception) of ``call(*args)``."""
    try:
        return call(*args), None
    except Exception as exc:  # each outcome is compared by type and message
        return None, exc


def _first_error(*checks):
    """The exception of the first check that raises, in order, or None."""
    for check in checks:
        _, error = _outcome(check)
        if error is not None:
            return error
    return None


def _same_error(actual, expected) -> bool:
    if expected is None:
        return actual is None
    return type(actual) is type(expected) and str(actual) == str(expected)


def _endpoint_checks(beta, interval):
    errors = dict.fromkeys((interval.e_lower, interval.e_upper))
    return [lambda error=error: check_population(1.0, beta, error) for error in errors]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    spoils=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(SPOILS)), max_size=2),
    shape=st.sampled_from([None, "unknown", "missing"]),
    bounds=INTERVALS,
    beta=BETAS,
    alpha_kind=st.sampled_from(["phi", "crossing", "drawn"]),
    drawn_alpha=st.floats(0.0, 1.0) | st.sampled_from([-0.5, 1.5, math.nan]),
)
def test_closed_forms_match_their_parts_and_raise_the_first_error(
    seed, spoils, shape, bounds, beta, alpha_kind, drawn_alpha
):
    config = sample_config(random.Random(seed))
    doc = {key: getattr(config, key) for key in CONFIG_KEYS}
    doc.update(spoils)
    if shape == "unknown":
        doc["lanes"] = 3.0
    elif shape == "missing":  # often with a spoiled field before the missing key
        del doc[CONFIG_KEYS[seed % len(CONFIG_KEYS)]]

    config, error = _outcome(onramp.OnRampConfig.from_dict, doc)
    if shape is None:  # the constructor names the same first fault, or builds the same config
        direct, direct_error = _outcome(lambda: onramp.OnRampConfig(**doc))
        assert direct == config and _same_error(direct_error, error)
    expected = _config_error(doc)
    if expected is not None:
        assert isinstance(error, onramp.ConfigError) and str(error) == expected
        return
    assert error is None and {type(getattr(config, key)) for key in CONFIG_KEYS} == {float}
    ramp = onramp.OnRamp.from_config(config)
    interval = onramp.ErrorInterval(*bounds)

    poa, error = _outcome(onramp.poa, ramp, beta, interval)
    expected = _first_error(
        lambda: require_positive_optimum(ramp),
        lambda: require_meaningful(ramp),
        *_endpoint_checks(beta, interval),
    )
    assert _same_error(error, expected)
    if expected is None:
        supremum, _ = onramp.worst_case_social_delay(ramp, beta, interval)
        assert poa == supremum / ramp.j_opt

    _, error = _outcome(onramp.worst_case_social_delay, ramp, beta, interval)
    expected = _first_error(lambda: require_meaningful(ramp), *_endpoint_checks(beta, interval))
    assert _same_error(error, expected)

    robust, error = _outcome(onramp.optimal_beta, ramp, interval)
    expected = _first_error(
        lambda: require_meaningful(ramp), lambda: require_positive_optimum(ramp)
    )
    assert _same_error(error, expected)
    if robust is not None:
        supremum, points = onramp.worst_case_social_delay(ramp, robust.beta_star, interval)
        assert (robust.poa, robust.worst_case_points) == (supremum / ramp.j_opt, points)

    if alpha_kind == "phi":
        alpha = ramp.phi
    elif alpha_kind == "crossing" and beta >= 0.0:
        alpha = _crossing(ramp.phi, ramp.delta, beta)
    else:
        alpha = drawn_alpha
    result, error = _outcome(onramp.solve, ramp, alpha, beta)
    expected = _first_error(
        lambda: require_meaningful(ramp), lambda: check_population(alpha, beta, 1.0)
    )
    assert _same_error(error, expected)
    if result is not None:
        assert result.social_delay == onramp.social_delay(ramp, result.x_hat_b)
        assert result.delays == onramp.delays(ramp, result.x_hat_b)


def test_only_the_returned_worst_case_points_are_built(monkeypatch):
    built = []

    def counting_point(*fields):
        built.append(fields)
        return onramp.WorstCasePoint(*fields)

    monkeypatch.setattr(robustness, "WorstCasePoint", counting_point)
    ramp = sample_meaningful(random.Random(11))
    for bounds in ((0.5, 2.0), (0.25, 4.0), (1.0, 1.0)):
        interval = onramp.ErrorInterval(*bounds)
        for beta in (0.0, 0.5, 1.0, 2.0):
            built.clear()
            onramp.poa(ramp, beta, interval)
            assert built == []
            j_socs = [
                onramp.solve(ramp, 1.0, beta, error).social_delay
                for error in dict.fromkeys(bounds)
            ]
            reaching = sum(j_soc >= max(j_socs) - 1e-12 for j_soc in j_socs)
            _, points = onramp.worst_case_social_delay(ramp, beta, interval)
            assert len(built) == len(points) == reaching
            # an inert level puts both endpoints at phi: a tie, so both are built
            assert reaching == len(j_socs) or beta > 0.0
        built.clear()
        robust = onramp.optimal_beta(ramp, interval)
        assert len(built) == len(robust.worst_case_points) >= 1
