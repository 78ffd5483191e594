"""Unit tests for the worst-case analysis and the optimal altruism level."""

import copy
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import onramp
from onramp import robustness
from onramp.analysis import _crossing
from onramp.equilibrium import inclusive_grid
from onramp.errors import TransitionUndefinedError, ZeroOptimumError
from onramp.model import LEVEL_MAX

from conftest import (
    DEMO_J_OPT,
    DEMO_J_SOC_AT_PHI,
    DEMO_VALUES,
    make_transition_limited,
    meaningful_configs,
    sample_meaningful,
)
from test_golden import SEEDED


def test_worst_case_degenerate_interval_at_level_one(demo_ramp):
    ramp = demo_ramp
    supremum, points = onramp.worst_case_social_delay(
        ramp, beta=1.0, interval=onramp.ErrorInterval(1.0, 1.0)
    )
    assert supremum == pytest.approx(DEMO_J_OPT, abs=1e-12)
    assert len(points) == 1
    assert points[0].error == 1.0
    assert points[0].alpha == 1.0


def test_worst_case_inert_level(demo_ramp):
    ramp = demo_ramp
    supremum, _ = onramp.worst_case_social_delay(
        ramp, beta=0.0, interval=onramp.ErrorInterval(0.5, 2.0)
    )
    assert supremum == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)


def test_worst_case_endpoint_evaluation(demo_ramp):
    ramp = demo_ramp
    interval = onramp.ErrorInterval(0.5, 2.0)
    supremum, points = onramp.worst_case_social_delay(ramp, beta=1.0, interval=interval)
    endpoint_values = []
    for error in (0.5, 2.0):
        crossing = _crossing(ramp.phi, ramp.delta, error)
        endpoint_values.append(onramp.social_delay(ramp, crossing))
    assert supremum == pytest.approx(max(endpoint_values), abs=1e-12)
    # geometric-mean level: both endpoints tie, so both are reported
    assert len(points) == 2


def test_worst_case_dominates_error_grid(demo_ramp):
    ramp = demo_ramp
    interval = onramp.ErrorInterval(0.5, 2.0)
    for beta in (0.3, 1.0, 1.7):
        supremum, _ = onramp.worst_case_social_delay(ramp, beta, interval)
        for i in range(151):
            error = 0.5 + i * 0.01
            for j in range(41):
                alpha = ramp.delta + j * (1.0 - ramp.delta) / 40.0
                result = onramp.solve(ramp, alpha, beta, error)
                assert result.social_delay <= supremum + 1e-12


def test_worst_case_points_are_the_solver_equilibria():
    rng = random.Random(23)
    for _ in range(30):
        ramp = sample_meaningful(rng)
        for beta in (0.0, 0.4, 1.0, 3.0, ramp.pi if ramp.pi > 0.0 else 7.0):
            interval = onramp.ErrorInterval(rng.uniform(0.2, 1.0), rng.uniform(1.0, 5.0))
            supremum, points = onramp.worst_case_social_delay(ramp, beta, interval)
            solved = {
                error: onramp.solve(ramp, 1.0, beta, error)
                for error in (interval.e_lower, interval.e_upper)
            }
            assert supremum == max(result.social_delay for result in solved.values())
            for point in points:
                result = solved[point.error]
                assert (point.alpha, point.x_hat_b, point.j_soc) == (
                    1.0, result.x_hat_b, result.social_delay
                )


def test_worst_case_checks_membership_before_the_level():
    excluded = dict(n0=0.1, c1t=1.0, c1m=1.0, c2t=50.0, c2m=0.1, mu=1.0, gamma=1.0)
    config = onramp.OnRampConfig(**excluded)
    ramp = onramp.OnRamp.from_config(config)
    with pytest.raises(onramp.NotInMeaningfulSetError):
        onramp.worst_case_social_delay(ramp, float("nan"), onramp.ErrorInterval(0.5, 2.0))


def test_price_of_anarchy_values(demo_ramp):
    ramp = demo_ramp
    assert onramp.poa(ramp, 1.0, onramp.ErrorInterval(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    inert = onramp.poa(ramp, 0.0, onramp.ErrorInterval(0.5, 2.0))
    assert inert == pytest.approx(DEMO_J_SOC_AT_PHI / DEMO_J_OPT, abs=1e-12)
    assert inert > 1.0


def test_price_of_anarchy_zero_optimum_guarded(demo_ramp):
    broke = copy.copy(demo_ramp)
    object.__setattr__(broke, "j_opt", 0.0)
    with pytest.raises(ZeroOptimumError):
        onramp.poa(broke, 1.0, onramp.ErrorInterval(0.5, 2.0))


def test_endpoint_equalization_at_geometric_mean(demo_ramp):
    ramp = demo_ramp
    interval = onramp.ErrorInterval(0.5, 2.0)
    beta_star = 1.0 / interval.geometric_mean
    assert beta_star == pytest.approx(1.0, abs=1e-12)
    low = _crossing(ramp.phi, ramp.delta, beta_star * 0.5)
    high = _crossing(ramp.phi, ramp.delta, beta_star * 2.0)
    assert onramp.social_delay(ramp, low) == pytest.approx(
        onramp.social_delay(ramp, high), abs=1e-9
    )


def test_transition_beta_properties(demo_ramp):
    phi, delta = demo_ramp.phi, demo_ramp.delta
    assert onramp.transition_beta(delta, phi, delta) == pytest.approx(1.0, abs=1e-12)
    value = onramp.transition_beta(0.63, phi, delta)
    assert value == pytest.approx(2.28800219281071, abs=1e-9)
    crossing = _crossing(phi, delta, value)
    assert crossing == pytest.approx(0.63, abs=1e-9)
    # out of regime once 2*delta - phi - alpha <= 0
    with pytest.raises(TransitionUndefinedError):
        onramp.transition_beta(2.0 * delta - phi, phi, delta)


def test_transition_beta_takes_alpha_by_the_number_rule(demo_ramp):
    phi, delta = demo_ramp.phi, demo_ramp.delta
    value = onramp.transition_beta(np.float32(0.6), phi, delta)
    assert type(value) is float
    assert value == onramp.transition_beta(float(np.float32(0.6)), phi, delta)
    for alpha in ("x", True):
        with pytest.raises(ValueError, match=f"^alpha must be a number, got {alpha!r}$") as raised:
            onramp.transition_beta(alpha, phi, delta)
        assert raised.type is ValueError


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "phi", "delta"])
def test_transition_beta_refuses_a_non_finite_input(demo_ramp, name, value):
    # the finite inputs give a finite level, so only the one non-finite input is refused
    inputs = {"alpha": 0.6, "phi": demo_ramp.phi, "delta": demo_ramp.delta}
    assert math.isfinite(onramp.transition_beta(**inputs))
    inputs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$") as raised:
        onramp.transition_beta(**inputs)
    assert raised.type is ValueError


def test_transition_beta_at_full_altruism_equals_ratio():
    rng = random.Random(21)
    ramp = make_transition_limited(rng)
    value = onramp.transition_beta(1.0, ramp.phi, ramp.delta)
    assert value == pytest.approx(ramp.pi, abs=1e-12)


# the scales of the demo's four cost coefficients at which the tie rule is read
DELAY_SCALES = (1e-13, 1.0, 1e6, 1e12)


def test_worst_case_tie_rule_is_free_of_the_unit_of_delay():
    # scaling c1t, c1m, c2t and c2m scales every delay and leaves phi, delta and every PoA as
    # they are, so the endpoints that achieve the supremum must be the same at every scale;
    # an absolute tie bound would keep a 0.34% lower endpoint at 1e-13 and drop a tie at 1e6
    counts = {}
    for scale in DELAY_SCALES:
        values = dict(DEMO_VALUES, **{key: DEMO_VALUES[key] * scale
                                      for key in ("c1t", "c1m", "c2t", "c2m")})
        ramp = onramp.OnRamp.from_config(onramp.OnRampConfig(**values))
        for bounds in ((0.5, 2.0), (0.25, 4.0)):
            interval = onramp.ErrorInterval(*bounds)
            summary = onramp.optimal_beta(ramp, interval)
            for beta in (0.5, 3.0, summary.beta_star):
                _, points = onramp.worst_case_social_delay(ramp, beta, interval)
                counts.setdefault((bounds, beta if beta != summary.beta_star else "beta*"),
                                  []).append(len(points))
            counts.setdefault((bounds, "optimal_beta"), []).append(
                len(summary.worst_case_points))
    # one endpoint at 0.5 and 3; both at beta*, where they tie by construction
    assert counts == {
        (bounds, beta): [2 if beta in ("beta*", "optimal_beta") else 1] * len(DELAY_SCALES)
        for bounds in ((0.5, 2.0), (0.25, 4.0))
        for beta in (0.5, 3.0, "beta*", "optimal_beta")
    }


def test_optimal_level_demo_interval(demo_ramp):
    ramp = demo_ramp
    result = onramp.optimal_beta(ramp, onramp.ErrorInterval(0.5, 2.0))
    assert result.beta_star == pytest.approx(1.0, abs=1e-12)
    assert result.branch is onramp.Regime.ENDPOINT_SYMMETRIC
    assert result.transition_level_at_full_altruism is None
    assert result.poa >= 1.0
    assert result.poa == pytest.approx(
        onramp.poa(ramp, 1.0, onramp.ErrorInterval(0.5, 2.0)),
        abs=1e-12,
    )


def test_optimal_level_degenerate_interval(demo_ramp):
    ramp = demo_ramp
    result = onramp.optimal_beta(ramp, onramp.ErrorInterval(1.0, 1.0))
    assert result.beta_star == pytest.approx(1.0, abs=1e-12)
    assert result.poa == pytest.approx(1.0, abs=1e-12)


def test_optimal_level_pinned_ratio():
    # inverse-constructed ratio of exactly 1.5 with interval (1, 4):
    # sqrt(4/1) = 2 > 1.5, so the transition-limited formula applies
    rng = random.Random(44)
    ramp = make_transition_limited(rng, pi_target=1.5)
    assert ramp.pi == pytest.approx(1.5, abs=1e-9)
    interval = onramp.ErrorInterval(1.0, 4.0)
    assert onramp.classification(ramp, interval).regime is onramp.Regime.TRANSITION_LIMITED
    result = onramp.optimal_beta(ramp, interval)
    assert result.beta_star == pytest.approx(1.0 / 1.5, abs=1e-9)
    sampled = onramp.grid_optimal_beta(ramp, interval, beta_grid_step=1e-3, inner_grid_step=1e-2)
    assert abs(sampled - result.beta_star) <= 2e-3


def test_optimal_beta_names_the_interval_when_beta_star_overflows(demo_ramp):
    limited = make_transition_limited(random.Random(44), pi_target=1.5)
    for ramp, bounds, regime in (
        (demo_ramp, (1e-320, 1e-320), onramp.Regime.ENDPOINT_SYMMETRIC),
        (limited, (5e-324, 1e-300), onramp.Regime.TRANSITION_LIMITED),
    ):
        interval = onramp.ErrorInterval(*bounds)
        assert onramp.classification(ramp, interval).regime is regime
        shown = re.escape(f"on the error interval ({interval.e_lower}, {interval.e_upper})")
        with pytest.raises(ValueError, match=rf"^beta_star = 1/\S+ overflows {shown}$"):
            onramp.optimal_beta(ramp, interval)
    interval = onramp.ErrorInterval(1e-300, 1e-300)
    assert onramp.optimal_beta(demo_ramp, interval).beta_star == pytest.approx(1e300)


def test_optimal_beta_names_the_interval_when_it_is_too_wide(demo_ramp):
    # beta_star is finite, but the level at the upper bound, beta_star * e_upper, is not
    limited = onramp.OnRamp.from_config(onramp.OnRampConfig(**SEEDED["limited"]))
    for ramp, bounds, regime in (
        (demo_ramp, (5e-324, 1.7e308), onramp.Regime.ENDPOINT_SYMMETRIC),
        (limited, (1e-160, 1e160), onramp.Regime.TRANSITION_LIMITED),
    ):
        interval = onramp.ErrorInterval(*bounds)
        assert onramp.classification(ramp, interval).regime is regime
        message = (f"error interval ({interval.e_lower}, {interval.e_upper}) is too wide:"
                   f" beta_star * e_upper > {LEVEL_MAX}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            onramp.optimal_beta(ramp, interval)
    # the widest intervals of each regime tried here that keep the upper level in bounds
    for ramp, bounds in ((demo_ramp, (1e-300, 1e300)), (limited, (1e-150, 1e150))):
        interval = onramp.ErrorInterval(*bounds)
        result = onramp.optimal_beta(ramp, interval)
        assert result.beta_star * interval.e_upper <= LEVEL_MAX
        assert result.poa == onramp.poa(ramp, result.beta_star, interval) >= 1.0


def test_grid_oracle_degenerate_interval(demo_ramp):
    ramp = demo_ramp
    sampled = onramp.grid_optimal_beta(
        ramp, onramp.ErrorInterval(1.0, 1.0),
        beta_grid_step=1e-3, inner_grid_step=1e-2,
    )
    assert abs(sampled - 1.0) <= 1e-3


def test_grid_oracle_rejects_unusable_level_grids(demo_ramp):
    ramp = demo_ramp
    interval = onramp.ErrorInterval(0.5, 2.0)
    with pytest.raises(ValueError, match="larger than the search range"):
        onramp.grid_optimal_beta(ramp, interval, beta_grid_step=4.5)
    # the limit names the search range (0, 2/e_lower] that the interval produced
    with pytest.raises(ValueError, match=r"\(0, 2/e_lower\] with e_lower = 1e-06: .* more than"):
        onramp.grid_optimal_beta(ramp, onramp.ErrorInterval(1e-6, 1.0))
    with pytest.raises(ValueError, match=r"^inner grid step must be > 0, got 0.0$"):
        onramp.grid_poa(ramp, 1.0, interval, inner_grid_step=0.0)


def test_optimal_level_transition_limited_branch():
    rng = random.Random(33)
    ramp = make_transition_limited(rng)
    interval = onramp.ErrorInterval(1.0, (ramp.pi * 1.5) ** 2)
    result = onramp.optimal_beta(ramp, interval)
    assert result.branch is onramp.Regime.TRANSITION_LIMITED
    assert result.beta_star == pytest.approx(1.0 / (interval.e_lower * ramp.pi), abs=1e-12)
    assert result.transition_level_at_full_altruism == pytest.approx(ramp.pi, abs=1e-12)
    # equalization: the lower endpoint matches the flat stage that starts at the ratio
    low = _crossing(ramp.phi, ramp.delta, result.beta_star * interval.e_lower)
    flat = _crossing(ramp.phi, ramp.delta, ramp.pi)
    assert flat == pytest.approx(1.0, abs=1e-9)
    assert onramp.social_delay(ramp, low) == pytest.approx(
        onramp.social_delay(ramp, flat), abs=1e-9
    )


def test_grid_oracle_agrees_on_demo_interval(demo_ramp):
    ramp = demo_ramp
    sampled = onramp.grid_optimal_beta(
        ramp, onramp.ErrorInterval(0.5, 2.0),
        beta_grid_step=1e-3, inner_grid_step=1e-2,
    )
    assert abs(sampled - 1.0) <= 1e-3


def test_grid_oracle_agrees_on_transition_limited():
    rng = random.Random(99)
    ramp = make_transition_limited(rng)
    interval = onramp.ErrorInterval(1.0, (ramp.pi * 1.5) ** 2)
    analytic = onramp.optimal_beta(ramp, interval)
    sampled = onramp.grid_optimal_beta(ramp, interval, beta_grid_step=1e-3, inner_grid_step=1e-2)
    analytic_poa = analytic.poa
    sampled_poa = onramp.grid_poa(ramp, sampled, interval, 1e-2)
    # the sampled sup can undershoot the true one; bound its slack explicitly
    slope_sum = ramp.slope_sum
    lipschitz_delay = 2.0 * slope_sum * max(1.0 - ramp.delta, ramp.delta - ramp.phi)
    lipschitz_error = (
        lipschitz_delay * (2.0 / interval.e_lower) * 2.0 * (ramp.delta - ramp.phi)
    )
    slack = lipschitz_error * 1e-2 / ramp.j_opt  # alpha = 1 is evaluated exactly
    assert analytic_poa <= sampled_poa + slack


def test_poa_at_least_one_random_configs():
    rng = random.Random(123)
    for _ in range(15):
        ramp = sample_meaningful(rng)
        e_lower = rng.uniform(0.3, 1.2)
        interval = onramp.ErrorInterval(e_lower, e_lower * rng.uniform(1.0, 4.0))
        for beta in (0.0, 0.5, 1.0, 2.0):
            assert (
                onramp.poa(ramp, beta, interval)
                >= 1.0 - 1e-12
            )


def test_grid_poa_brackets_closed_form(demo_ramp):
    ramp = demo_ramp
    interval = onramp.ErrorInterval(0.5, 2.0)
    for beta in (0.2, 0.7, 1.0, 1.6):
        exact = onramp.poa(ramp, beta, interval)
        sampled = onramp.grid_poa(ramp, beta, interval, 1e-2)
        # the grid includes both interval endpoints and the full-altruism ratio,
        # so it can only undersample the supremum, never exceed it
        assert sampled <= exact + 1e-12
        slope_sum = ramp.slope_sum
        reach = max(1.0 - ramp.delta, ramp.delta - ramp.phi)
        lipschitz_delay = 2.0 * slope_sum * reach
        lipschitz_error = lipschitz_delay * beta * 2.0 * (ramp.delta - ramp.phi)
        slack = lipschitz_error * 1e-2 / ramp.j_opt  # only the error axis is sampled
        assert sampled >= exact - slack


def test_analytic_level_optimal_on_random_configs():
    rng = random.Random(818)
    for _ in range(50):
        ramp = sample_meaningful(rng)
        lower = rng.uniform(0.4, 1.2)
        interval = onramp.ErrorInterval(lower, lower * rng.uniform(1.1, 3.5))
        result = onramp.optimal_beta(ramp, interval)
        best = onramp.grid_optimal_beta(ramp, interval, beta_grid_step=5e-3, inner_grid_step=5e-2)
        sampled_minimum = onramp.grid_poa(ramp, best, interval, 5e-2)
        reach = max(1.0 - ramp.delta, ramp.delta - ramp.phi)
        lipschitz_delay = 2.0 * ramp.slope_sum * reach
        lipschitz_error = (
            lipschitz_delay * (2.0 / interval.e_lower) * 2.0 * (ramp.delta - ramp.phi)
        )
        slack = lipschitz_error * 5e-2 / ramp.j_opt  # only the error axis is sampled
        # no level on the oracle grid beats the analytic one beyond the grid slack
        assert result.poa <= sampled_minimum + 2.0 * slack


def test_effective_level_equivalence(demo_ramp):
    ramp = demo_ramp
    base = onramp.poa(ramp, 0.8, onramp.ErrorInterval(0.5, 2.0))
    for scale in (0.25, 2.0, 5.0):
        scaled = onramp.poa(
            ramp,
            0.8 * scale,
            onramp.ErrorInterval(0.5 / scale, 2.0 / scale),
        )
        assert scaled == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_non_finite_beta_rejected_with_its_cause(demo_ramp, beta):
    interval = onramp.ErrorInterval(0.5, 2.0)
    for evaluate in (
        onramp.worst_case_social_delay,
        onramp.poa,
        onramp.grid_poa,
    ):
        with pytest.raises(ValueError, match="beta must be finite"):
            evaluate(demo_ramp, beta, interval)


def test_overflowing_level_rejected_at_the_upper_error(demo_ramp):
    interval = onramp.ErrorInterval(0.5, 2.0)
    for evaluate in (
        onramp.worst_case_social_delay,
        onramp.poa,
        onramp.grid_poa,
    ):
        with pytest.raises(ValueError, match=r"beta\*error = 1e\+308 \* 2.0 is not finite"):
            evaluate(demo_ramp, 1e308, interval)
    # the largest searched level, 2/e_lower, times e_upper overflows
    with pytest.raises(ValueError, match=r"beta\*error = 200.0 \* 1e\+307 is not finite"):
        onramp.grid_optimal_beta(
            demo_ramp, onramp.ErrorInterval(0.01, 1e307), beta_grid_step=1.0, inner_grid_step=1e306
        )


@pytest.mark.parametrize("seed", range(4))
def test_branch_follows_classify_at_the_regime_boundary(seed):
    ramp = make_transition_limited(random.Random(seed))
    for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        interval = onramp.ErrorInterval(1.0, (ramp.pi * scale) ** 2)
        label = onramp.classification(ramp, interval)
        robust = onramp.optimal_beta(ramp, interval)
        assert robust.branch is label.regime
    assert robust.branch is onramp.Regime.TRANSITION_LIMITED


def _product_grid_poa(ramp, beta, interval, step):
    """grid_poa as the (error x alpha) product grid it once evaluated, alpha on [delta, 1]."""
    errors = np.array(inclusive_grid(interval.e_lower, interval.e_upper, step))
    alphas = np.array(inclusive_grid(min(max(ramp.delta, 0.0), 1.0), 1.0, step))[None, :]
    level = beta * errors
    crossings = ((1.0 - level) * ramp.phi + 2.0 * level * ramp.delta) / (1.0 + level)
    shares = np.minimum(alphas, crossings[:, None])
    return float(onramp.social_delay(ramp, shares).max()) / ramp.j_opt


@st.composite
def grid_cases(draw):
    """A meaningful config, an error interval (sometimes a point) and a grid step."""
    ramp = onramp.OnRamp.from_config(draw(meaningful_configs()))
    e_lower = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.1, 2.0))
    e_upper = e_lower * draw(st.sampled_from([1.0]) | st.floats(1.0, 6.0))
    step = draw(st.sampled_from([1e-2, 5e-2, 0.3]))
    return ramp, onramp.ErrorInterval(e_lower, e_upper), step


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=grid_cases(), scale=st.floats(0.0, 4.0), past=st.floats(1.0, 20.0))
def test_grid_poa_equals_the_product_grid(case, scale, past):
    ramp, interval, step = case
    levels = [0.0, scale]
    if ramp.pi > 0.0:  # past pi / e_upper the crossing reaches 1 at the upper error
        levels += [ramp.pi / interval.e_upper, ramp.pi / interval.e_upper * past]
    for beta in levels:
        assert onramp.grid_poa(ramp, beta, interval, step) == (
            _product_grid_poa(ramp, beta, interval, step)
        )


def _argmin_cases():
    """Two configs on [0.25, 4], and one transition-limited whose PoA is flat past beta*."""
    cases = []
    for seed in range(2):
        cases.append((sample_meaningful(random.Random(seed)), onramp.ErrorInterval(0.25, 4.0)))
    ramp = make_transition_limited(random.Random(5))
    cases.append((ramp, onramp.ErrorInterval(1.0, (ramp.pi * 1.5) ** 2)))
    return cases


@pytest.mark.parametrize("chunk_cells", [robustness._CHUNK_CELLS, 7])
@pytest.mark.parametrize("case", range(3))
def test_grid_optimal_beta_is_the_first_argmin_of_the_product_grid(case, chunk_cells, monkeypatch):
    # 7 cells puts one level in each block; the default bound spans several blocks here
    monkeypatch.setattr(robustness, "_CHUNK_CELLS", chunk_cells)
    ramp, interval = _argmin_cases()[case]
    levels = inclusive_grid(0.0, 2.0 / interval.e_lower, 0.05)[1:]
    errors = inclusive_grid(interval.e_lower, interval.e_upper, 1e-2)
    assert len(levels) * len(errors) > robustness._CHUNK_CELLS
    poas = [_product_grid_poa(ramp, b, interval, 1e-2) for b in levels]
    best = onramp.grid_optimal_beta(ramp, interval, beta_grid_step=0.05, inner_grid_step=1e-2)
    assert best == levels[poas.index(min(poas))]
    if case == 2:  # on the flat stage the smallest of the tied levels wins
        assert poas.count(min(poas)) > 1


def test_grid_poa_samples_no_ratio_axis(demo_ramp):
    # no ratio grid is built, so a step too fine for [delta, 1] passes on a point interval
    ramp = demo_ramp
    point = onramp.ErrorInterval(1.0, 1.0)
    assert onramp.grid_poa(ramp, 1.0, point, 1e-7) == pytest.approx(
        onramp.poa(ramp, 1.0, point), abs=1e-12
    )
