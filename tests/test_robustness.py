"""Unit tests for the worst-case analysis and the optimal altruism level."""

import random

import pytest

import onramp
from onramp.errors import TransitionUndefinedError, ZeroOptimumError

from conftest import (
    DEMO_J_OPT,
    DEMO_J_SOC_AT_PHI,
    make_transition_limited,
    sample_meaningful,
)


@pytest.fixture()
def demo(demo_config, demo_derived, demo_summary):
    return demo_config, demo_derived, demo_summary


def test_worst_case_degenerate_interval_at_level_one(demo):
    config, derived, summary = demo
    supremum, points = onramp.worst_case_social_delay(
        config, derived, summary, beta=1.0, interval=onramp.ErrorInterval(1.0, 1.0)
    )
    assert supremum == pytest.approx(DEMO_J_OPT, abs=1e-12)
    assert len(points) == 1
    assert points[0].error == 1.0
    assert points[0].alpha == 1.0


def test_worst_case_inert_level(demo):
    config, derived, summary = demo
    supremum, _ = onramp.worst_case_social_delay(
        config, derived, summary, beta=0.0, interval=onramp.ErrorInterval(0.5, 2.0)
    )
    assert supremum == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)


def test_worst_case_endpoint_evaluation(demo):
    config, derived, summary = demo
    interval = onramp.ErrorInterval(0.5, 2.0)
    supremum, points = onramp.worst_case_social_delay(
        config, derived, summary, beta=1.0, interval=interval
    )
    endpoint_values = []
    for error in (0.5, 2.0):
        crossing = onramp.altruistic_intersection(summary.phi, summary.delta, error)
        endpoint_values.append(onramp.social_delay(config, derived, crossing))
    assert supremum == pytest.approx(max(endpoint_values), abs=1e-12)
    # geometric-mean level: both endpoints tie, so both are reported
    assert len(points) == 2


def test_worst_case_dominates_error_grid(demo):
    config, derived, summary = demo
    interval = onramp.ErrorInterval(0.5, 2.0)
    for beta in (0.3, 1.0, 1.7):
        supremum, _ = onramp.worst_case_social_delay(config, derived, summary, beta, interval)
        for i in range(151):
            error = 0.5 + i * 0.01
            for j in range(41):
                alpha = summary.delta + j * (1.0 - summary.delta) / 40.0
                result = onramp.solve_equilibrium(config, derived, summary, alpha, beta, error)
                assert result.social_delay <= supremum + 1e-12


def test_price_of_anarchy_values(demo):
    config, derived, summary = demo
    assert onramp.price_of_anarchy(
        config, derived, summary, 1.0, onramp.ErrorInterval(1.0, 1.0)
    ) == pytest.approx(1.0, abs=1e-12)
    inert = onramp.price_of_anarchy(
        config, derived, summary, 0.0, onramp.ErrorInterval(0.5, 2.0)
    )
    assert inert == pytest.approx(DEMO_J_SOC_AT_PHI / DEMO_J_OPT, abs=1e-12)
    assert inert > 1.0


def test_price_of_anarchy_zero_optimum_guarded(demo):
    config, derived, summary = demo
    broke = onramp.AnalysisSummary(
        phi=summary.phi,
        delta=summary.delta,
        pi=summary.pi,
        j_opt=0.0,
        j_soc_at_phi=summary.j_soc_at_phi,
        in_meaningful_set=True,
        exclusion_reason=None,
        decrease_interval=summary.decrease_interval,
        optimize_interval=summary.optimize_interval,
    )
    with pytest.raises(ZeroOptimumError):
        onramp.price_of_anarchy(config, derived, broke, 1.0, onramp.ErrorInterval(0.5, 2.0))


def test_endpoint_equalization_at_geometric_mean(demo):
    config, derived, summary = demo
    interval = onramp.ErrorInterval(0.5, 2.0)
    beta_star = 1.0 / interval.geometric_mean
    assert beta_star == pytest.approx(1.0, abs=1e-12)
    low = onramp.altruistic_intersection(summary.phi, summary.delta, beta_star * 0.5)
    high = onramp.altruistic_intersection(summary.phi, summary.delta, beta_star * 2.0)
    assert onramp.social_delay(config, derived, low) == pytest.approx(
        onramp.social_delay(config, derived, high), abs=1e-9
    )


def test_transition_beta_properties(demo_summary):
    phi, delta = demo_summary.phi, demo_summary.delta
    assert onramp.transition_beta(delta, phi, delta) == pytest.approx(1.0, abs=1e-12)
    value = onramp.transition_beta(0.63, phi, delta)
    assert value == pytest.approx(2.28800219281071, abs=1e-9)
    crossing = onramp.altruistic_intersection(phi, delta, value)
    assert crossing == pytest.approx(0.63, abs=1e-9)
    # out of regime once 2*delta - phi - alpha <= 0
    with pytest.raises(TransitionUndefinedError):
        onramp.transition_beta(2.0 * delta - phi, phi, delta)


def test_transition_beta_at_full_altruism_equals_ratio():
    rng = random.Random(21)
    _, _, summary = make_transition_limited(rng)
    value = onramp.transition_beta(1.0, summary.phi, summary.delta)
    assert value == pytest.approx(summary.pi, abs=1e-12)


def test_optimal_level_demo_interval(demo):
    config, derived, summary = demo
    result = onramp.optimal_altruism_level(
        config, derived, summary, onramp.ErrorInterval(0.5, 2.0)
    )
    assert result.beta_star == pytest.approx(1.0, abs=1e-12)
    assert result.branch is onramp.Regime.ENDPOINT_SYMMETRIC
    assert result.transition_level_at_full_altruism is None
    assert result.poa >= 1.0
    assert result.poa == pytest.approx(
        onramp.price_of_anarchy(config, derived, summary, 1.0, onramp.ErrorInterval(0.5, 2.0)),
        abs=1e-12,
    )


def test_optimal_level_degenerate_interval(demo):
    config, derived, summary = demo
    result = onramp.optimal_altruism_level(
        config, derived, summary, onramp.ErrorInterval(1.0, 1.0)
    )
    assert result.beta_star == pytest.approx(1.0, abs=1e-12)
    assert result.poa == pytest.approx(1.0, abs=1e-12)


def test_optimal_level_pinned_ratio():
    # inverse-constructed ratio of exactly 1.5 with interval (1, 4):
    # sqrt(4/1) = 2 > 1.5, so the transition-limited formula applies
    rng = random.Random(44)
    config, derived, summary = make_transition_limited(rng, pi_target=1.5)
    assert summary.pi == pytest.approx(1.5, abs=1e-9)
    interval = onramp.ErrorInterval(1.0, 4.0)
    assert onramp.classify(config, derived, interval).regime is onramp.Regime.TRANSITION_LIMITED
    result = onramp.optimal_altruism_level(config, derived, summary, interval)
    assert result.beta_star == pytest.approx(1.0 / 1.5, abs=1e-9)
    sampled = onramp.grid_optimal_beta(
        config, derived, summary, interval, beta_grid_step=1e-3, inner_grid_step=1e-2
    )
    assert abs(sampled - result.beta_star) <= 2e-3


def test_grid_oracle_degenerate_interval(demo):
    config, derived, summary = demo
    sampled = onramp.grid_optimal_beta(
        config, derived, summary, onramp.ErrorInterval(1.0, 1.0),
        beta_grid_step=1e-3, inner_grid_step=1e-2,
    )
    assert abs(sampled - 1.0) <= 1e-3


def test_grid_oracle_rejects_unusable_level_grids(demo):
    config, derived, summary = demo
    interval = onramp.ErrorInterval(0.5, 2.0)
    with pytest.raises(ValueError, match="larger than the search range"):
        onramp.grid_optimal_beta(config, derived, summary, interval, beta_grid_step=4.5)
    # the limit names the search range (0, 2/e_lower] that the interval produced
    with pytest.raises(ValueError, match=r"\(0, 2/e_lower\] with e_lower = 1e-06: .* more than"):
        onramp.grid_optimal_beta(config, derived, summary, onramp.ErrorInterval(1e-6, 1.0))


def test_optimal_level_transition_limited_branch():
    rng = random.Random(33)
    config, derived, summary = make_transition_limited(rng)
    interval = onramp.ErrorInterval(1.0, (summary.pi * 1.5) ** 2)
    result = onramp.optimal_altruism_level(config, derived, summary, interval)
    assert result.branch is onramp.Regime.TRANSITION_LIMITED
    assert result.beta_star == pytest.approx(1.0 / (interval.e_lower * summary.pi), abs=1e-12)
    assert result.transition_level_at_full_altruism == pytest.approx(summary.pi, abs=1e-12)
    # equalization: the lower endpoint matches the flat stage that starts at the ratio
    low = onramp.altruistic_intersection(
        summary.phi, summary.delta, result.beta_star * interval.e_lower
    )
    flat = onramp.altruistic_intersection(summary.phi, summary.delta, summary.pi)
    assert flat == pytest.approx(1.0, abs=1e-9)
    assert onramp.social_delay(config, derived, low) == pytest.approx(
        onramp.social_delay(config, derived, flat), abs=1e-9
    )


def test_grid_oracle_agrees_on_demo_interval(demo):
    config, derived, summary = demo
    sampled = onramp.grid_optimal_beta(
        config, derived, summary, onramp.ErrorInterval(0.5, 2.0),
        beta_grid_step=1e-3, inner_grid_step=1e-2,
    )
    assert abs(sampled - 1.0) <= 1e-3


def test_grid_oracle_agrees_on_transition_limited():
    rng = random.Random(99)
    config, derived, summary = make_transition_limited(rng)
    interval = onramp.ErrorInterval(1.0, (summary.pi * 1.5) ** 2)
    analytic = onramp.optimal_altruism_level(config, derived, summary, interval)
    sampled = onramp.grid_optimal_beta(
        config, derived, summary, interval, beta_grid_step=1e-3, inner_grid_step=1e-2
    )
    analytic_poa = analytic.poa
    sampled_poa = onramp.grid_poa(config, derived, summary, sampled, interval, 1e-2)
    # the sampled sup can undershoot the true one; bound its slack explicitly
    slope_sum = derived.slope_sum
    lipschitz_delay = 2.0 * slope_sum * max(1.0 - summary.delta, summary.delta - summary.phi)
    lipschitz_error = (
        lipschitz_delay * (2.0 / interval.e_lower) * 2.0 * (summary.delta - summary.phi)
    )
    slack = (lipschitz_error * 1e-2 + lipschitz_delay * 1e-2) / summary.j_opt
    assert analytic_poa <= sampled_poa + slack


def test_poa_at_least_one_random_configs():
    rng = random.Random(123)
    for _ in range(15):
        config, derived, summary = sample_meaningful(rng)
        e_lower = rng.uniform(0.3, 1.2)
        interval = onramp.ErrorInterval(e_lower, e_lower * rng.uniform(1.0, 4.0))
        for beta in (0.0, 0.5, 1.0, 2.0):
            assert (
                onramp.price_of_anarchy(config, derived, summary, beta, interval)
                >= 1.0 - 1e-12
            )


def test_grid_poa_brackets_closed_form(demo):
    config, derived, summary = demo
    interval = onramp.ErrorInterval(0.5, 2.0)
    for beta in (0.2, 0.7, 1.0, 1.6):
        exact = onramp.price_of_anarchy(config, derived, summary, beta, interval)
        sampled = onramp.grid_poa(config, derived, summary, beta, interval, 1e-2)
        # the grid includes both interval endpoints and the full-altruism ratio,
        # so it can only undersample the supremum, never exceed it
        assert sampled <= exact + 1e-12
        slope_sum = derived.slope_sum
        reach = max(1.0 - summary.delta, summary.delta - summary.phi)
        lipschitz_delay = 2.0 * slope_sum * reach
        lipschitz_error = lipschitz_delay * beta * 2.0 * (summary.delta - summary.phi)
        slack = (lipschitz_error * 1e-2 + lipschitz_delay * 1e-2) / summary.j_opt
        assert sampled >= exact - slack


def test_analytic_level_optimal_on_random_configs():
    rng = random.Random(818)
    for _ in range(50):
        config, derived, summary = sample_meaningful(rng)
        lower = rng.uniform(0.4, 1.2)
        interval = onramp.ErrorInterval(lower, lower * rng.uniform(1.1, 3.5))
        result = onramp.optimal_altruism_level(config, derived, summary, interval)
        best = onramp.grid_optimal_beta(
            config, derived, summary, interval, beta_grid_step=5e-3, inner_grid_step=5e-2
        )
        sampled_minimum = onramp.grid_poa(config, derived, summary, best, interval, 5e-2)
        reach = max(1.0 - summary.delta, summary.delta - summary.phi)
        lipschitz_delay = 2.0 * derived.slope_sum * reach
        lipschitz_error = (
            lipschitz_delay * (2.0 / interval.e_lower) * 2.0 * (summary.delta - summary.phi)
        )
        slack = (lipschitz_error * 5e-2 + lipschitz_delay * 5e-2) / summary.j_opt
        # no level on the oracle grid beats the analytic one beyond the grid slack
        assert result.poa <= sampled_minimum + 2.0 * slack


def test_effective_level_equivalence(demo):
    config, derived, summary = demo
    base = onramp.price_of_anarchy(
        config, derived, summary, 0.8, onramp.ErrorInterval(0.5, 2.0)
    )
    for scale in (0.25, 2.0, 5.0):
        scaled = onramp.price_of_anarchy(
            config,
            derived,
            summary,
            0.8 * scale,
            onramp.ErrorInterval(0.5 / scale, 2.0 / scale),
        )
        assert scaled == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_non_finite_beta_rejected_with_its_cause(demo, beta):
    interval = onramp.ErrorInterval(0.5, 2.0)
    for evaluate in (
        onramp.worst_case_social_delay,
        onramp.price_of_anarchy,
        onramp.grid_poa,
    ):
        with pytest.raises(ValueError, match="beta must be finite"):
            evaluate(*demo, beta, interval)


def test_overflowing_level_rejected_at_the_upper_error(demo):
    interval = onramp.ErrorInterval(0.5, 2.0)
    for evaluate in (
        onramp.worst_case_social_delay,
        onramp.price_of_anarchy,
        onramp.grid_poa,
    ):
        with pytest.raises(ValueError, match=r"beta\*error = 1e\+308 \* 2.0 is not finite"):
            evaluate(*demo, 1e308, interval)
    # the largest searched level, 2/e_lower, times e_upper overflows
    with pytest.raises(ValueError, match=r"beta\*error = 200.0 \* 1e\+307 is not finite"):
        onramp.grid_optimal_beta(
            *demo, onramp.ErrorInterval(0.01, 1e307), beta_grid_step=1.0, inner_grid_step=1e306
        )


@pytest.mark.parametrize("seed", range(4))
def test_branch_follows_classify_at_the_regime_boundary(seed):
    config, derived, summary = make_transition_limited(random.Random(seed))
    for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        interval = onramp.ErrorInterval(1.0, (summary.pi * scale) ** 2)
        label = onramp.classify(config, derived, interval)
        robust = onramp.optimal_altruism_level(config, derived, summary, interval)
        assert robust.branch is label.regime
    assert robust.branch is onramp.Regime.TRANSITION_LIMITED
