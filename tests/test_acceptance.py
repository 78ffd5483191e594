"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is either pinned arithmetic or re-derived by an
independent oracle (bisection, grid scan, exhaustive grid, dynamics) inside
the test.
"""

import json
import random
import subprocess
import sys

import pytest

import onramp
from onramp.cli import main as cli_main
from onramp.sweeps import inclusive_grid, sweep_alpha, sweep_beta_e

from conftest import (
    DEMO_VALUES,
    bisect_selfish_crossing,
    make_transition_limited,
    meaningful_batch,
    refined_grid_minimizer,
    sample_meaningful,
)

BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _passed(number, message):
    print(f"ACCEPTANCE {number} PASS - {message}")


@pytest.fixture(scope="module")
def demo(demo_config, demo_derived, demo_summary):
    return demo_config, demo_derived, demo_summary


def test_criterion_1_demo_anchors(demo):
    config, derived, summary = demo
    assert summary.in_meaningful_set
    assert summary.pi < 0.0
    label = onramp.classify(config, derived, onramp.ErrorInterval(0.5, 2.0))
    assert label.regime is onramp.Regime.ENDPOINT_SYMMETRIC

    bisected = bisect_selfish_crossing(derived)
    assert abs(summary.phi - bisected) <= 1e-6
    scanned = refined_grid_minimizer(config, derived)
    assert abs(summary.delta - scanned) <= 1e-6
    _passed(
        1,
        f"demo anchors: phi={summary.phi:.6f} delta={summary.delta:.6f} "
        f"pi={summary.pi:.4f} inside the meaningful set, endpoint-symmetric regime",
    )


@pytest.fixture(scope="module")
def improvement_instances(demo):
    instances = [demo]
    instances += meaningful_batch(100, seed=20260810, grid_safe=True)
    return instances


def test_criterion_2_improvement_conditions(improvement_instances):
    checked = 0
    for config, derived, summary in improvement_instances:
        baseline = summary.j_soc_at_phi
        for alpha in inclusive_grid(0.0, 1.0, 0.05):
            for beta in BETA_GRID:
                result = onramp.solve_equilibrium(config, derived, summary, alpha, beta)
                flags = onramp.improvement_conditions(alpha, beta, summary)
                decreased = result.social_delay < baseline - 1e-9
                assert decreased == flags.decreases, (alpha, beta, summary)
                optimized = abs(result.social_delay - summary.j_opt) <= 1e-9
                assert optimized == flags.optimizes, (alpha, beta, summary)
                checked += 1
    _passed(2, f"improvement iff conditions held at all {checked} grid points")


def test_criterion_3_ratio_sweep_shape(demo):
    config, derived, summary = demo
    rows = sweep_alpha(config, derived, summary, betas=[0.2, 0.5, 1.0], alpha_step=0.01)
    by_beta = {beta: [r for r in rows if r.beta == beta] for beta in (0.2, 0.5, 1.0)}
    full = by_beta[1.0]

    flat_left = [r for r in full if r.alpha <= summary.phi]
    assert flat_left
    for row in flat_left:
        assert abs(row.j_soc - summary.j_soc_at_phi) <= 1e-9

    interior = [r for r in full if summary.phi < r.alpha < summary.delta]
    assert interior
    for a, b in zip(interior, interior[1:]):
        assert b.j_soc <= a.j_soc - 1e-9

    flat_right = [r for r in full if r.alpha >= summary.delta]
    assert flat_right
    for row in flat_right:
        assert abs(row.j_soc - summary.j_opt) <= 1e-9

    for beta in (0.2, 0.5):
        for weak, strong in zip(by_beta[beta], full):
            assert weak.alpha == strong.alpha
            assert weak.j_soc >= strong.j_soc - 1e-12
    _passed(
        3,
        "ratio sweep: flat at the selfish delay below phi, strictly decreasing "
        "to the optimum, flat at the optimum beyond delta, smaller levels dominated",
    )


def test_criterion_4_level_sweep_shape(demo):
    config, derived, summary = demo
    rows = sweep_beta_e(
        config, derived, summary, alphas=[0.63, 0.8], beta_e_max=4.0, step=0.01
    )
    abundant = [r for r in rows if r.alpha == 0.8]
    scarce = [r for r in rows if r.alpha == 0.63]

    at_unit = [r for r in abundant if r.beta_e == 1.0]
    assert len(at_unit) == 1
    assert abs(at_unit[0].j_soc - summary.j_opt) <= 1e-9
    assert min(r.j_soc for r in abundant) >= at_unit[0].j_soc - 1e-12
    before = [r for r in abundant if r.beta_e <= 1.0]
    after = [r for r in abundant if r.beta_e >= 1.0]
    for a, b in zip(before, before[1:]):
        assert b.j_soc <= a.j_soc + 1e-12
    for a, b in zip(after, after[1:]):
        assert b.j_soc >= a.j_soc - 1e-12

    analytic_transition = onramp.transition_beta(0.63, summary.phi, summary.delta)
    flat = [r for r in scarce if r.x_hat_b == 0.63]
    assert flat
    first_flat = min(r.beta_e for r in flat)
    assert abs(first_flat - analytic_transition) <= 0.01 + 1e-12
    level_value = onramp.social_delay(config, derived, 0.63)
    for row in scarce:
        if row.beta_e >= analytic_transition:
            assert abs(row.j_soc - level_value) <= 1e-9
    _passed(
        4,
        f"level sweep: abundant curve bottoms at level 1 with the optimal delay; "
        f"scarce curve flattens at level {first_flat:.2f} "
        f"(analytic {analytic_transition:.5f})",
    )


def _poa_slack(summary, derived, interval, step_error):
    """Bound on how much a supremum sampled on an error grid can undershoot the true one.

    The grid evaluates full altruism exactly, so only the error step counts.
    """
    reach = max(1.0 - summary.delta, summary.delta - summary.phi)
    lipschitz_delay = 2.0 * derived.slope_sum * reach
    lipschitz_error = (
        lipschitz_delay * (2.0 / interval.e_lower) * 2.0 * (summary.delta - summary.phi)
    )
    return lipschitz_error * step_error / summary.j_opt


def test_criterion_5_optimal_level(demo):
    config, derived, summary = demo
    interval = onramp.ErrorInterval(0.5, 2.0)
    analytic = onramp.optimal_altruism_level(config, derived, summary, interval)
    assert analytic.beta_star == pytest.approx(1.0, abs=1e-12)
    sampled = onramp.grid_optimal_beta(
        config, derived, summary, interval, beta_grid_step=1e-3, inner_grid_step=1e-2
    )
    assert abs(sampled - analytic.beta_star) <= 1e-3 + 1e-12

    rng = random.Random(515)
    endpoint_cases = []
    while len(endpoint_cases) < 25:
        cfg, der, summ = sample_meaningful(rng)
        lower = rng.uniform(0.4, 1.2)
        span = onramp.ErrorInterval(lower, lower * rng.uniform(1.2, 4.0))
        if onramp.classify(cfg, der, span).regime is onramp.Regime.ENDPOINT_SYMMETRIC:
            endpoint_cases.append((cfg, der, summ, span))
    limited_cases = []
    while len(limited_cases) < 10:
        cfg, der, summ = make_transition_limited(rng)
        lower = rng.uniform(0.4, 1.0)
        span = onramp.ErrorInterval(lower, lower * (summ.pi * rng.uniform(1.2, 1.8)) ** 2)
        assert onramp.classify(cfg, der, span).regime is onramp.Regime.TRANSITION_LIMITED
        limited_cases.append((cfg, der, summ, span))

    for cfg, der, summ, span in endpoint_cases + limited_cases:
        result = onramp.optimal_altruism_level(cfg, der, summ, span)
        sampled_best = onramp.grid_optimal_beta(
            cfg, der, summ, span, beta_grid_step=2e-3, inner_grid_step=2e-2
        )
        sampled_minimum = onramp.grid_poa(cfg, der, summ, sampled_best, span, 2e-2)
        slack = _poa_slack(summ, der, span, 2e-2)
        assert result.poa <= sampled_minimum + slack

        def crossing_delay(level):
            share = onramp.altruistic_intersection(summ.phi, summ.delta, level)
            return onramp.social_delay(cfg, der, share)

        if result.branch is onramp.Regime.ENDPOINT_SYMMETRIC:
            assert crossing_delay(result.beta_star * span.e_lower) == pytest.approx(
                crossing_delay(result.beta_star * span.e_upper), abs=1e-9
            )
        else:
            assert crossing_delay(result.beta_star * span.e_lower) == pytest.approx(
                crossing_delay(summ.pi), abs=1e-9
            )
    _passed(
        5,
        "optimal level: demo interval gives level 1 (grid oracle within 1e-3); "
        "35 random/constructed cases at or below the grid minimum with both "
        "equalization identities holding",
    )


@pytest.fixture(scope="module")
def oracle_instances():
    return meaningful_batch(200, seed=606)


def test_criterion_6a_brute_force_agreement(oracle_instances):
    rng = random.Random(607)
    for config, derived, summary in oracle_instances:
        alpha = rng.uniform(0.05, 0.95)
        level = rng.uniform(0.25, 1.25)
        closed = onramp.solve_equilibrium(config, derived, summary, alpha, level)
        candidates = onramp.brute_force_equilibrium(
            config, derived, alpha, level, grid_step=1e-3
        )
        assert candidates, (alpha, level)
        gap = min(abs(f.total_bypass - closed.x_hat_b) for f in candidates)
        assert gap <= 2e-3, (alpha, level, gap)
    _passed(
        6,
        "oracle agreement (grid): 200 random instances covered the closed form "
        "within 2e-3",
    )


def test_criterion_6b_dynamics_agreement(oracle_instances):
    rng = random.Random(608)
    for config, derived, summary in oracle_instances[:50]:
        alpha = rng.uniform(0.05, 0.95)
        level = rng.uniform(0.25, 1.25)
        closed = onramp.solve_equilibrium(config, derived, summary, alpha, level)
        trace = onramp.best_response_dynamics(config, derived, alpha, level, 1.0, tol=1e-12)
        assert trace.converged, (alpha, level, trace)
        gap = abs(trace.flow.total_bypass - closed.x_hat_b)
        assert gap <= 1e-9, (alpha, level, gap)
    _passed(
        6,
        "oracle agreement (dynamics): 50 random instances converged at tol 1e-12 "
        "and matched the closed form within 1e-9",
    )


def test_criterion_7_wardrop_residuals(demo):
    instances = [demo] + meaningful_batch(20, seed=707)
    checked = 0
    for config, derived, summary in instances:
        for alpha in inclusive_grid(0.0, 1.0, 0.1):
            for beta in BETA_GRID:
                for error in (0.5, 1.0, 2.0):
                    result = onramp.solve_equilibrium(
                        config, derived, summary, alpha, beta, error
                    )
                    report = onramp.verify_wardrop(
                        config, derived, result.flow, beta, error, tol=1e-9
                    )
                    assert report.passed, (alpha, beta, error, report)
                    checked += 1
    _passed(7, f"all {checked} solver outputs passed the equilibrium definition at 1e-9")


def test_criterion_8_cli_contract(tmp_path, capsys):
    config_path = tmp_path / "onramp.json"
    config_path.write_text(json.dumps(DEMO_VALUES), encoding="utf-8")

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert cli_main(
            ["sweep-alpha", "--config", str(config_path), "--out", str(out)]
        ) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    level_a = tmp_path / "la.csv"
    level_b = tmp_path / "lb.csv"
    for out in (level_a, level_b):
        assert cli_main(
            ["sweep-beta-e", "--config", str(config_path), "--out", str(out)]
        ) == 0
    assert level_a.read_bytes() == level_b.read_bytes()

    # process-level determinism of the same command
    runs = [
        subprocess.run(
            [sys.executable, "-m", "onramp", "sweep-alpha", "--config", str(config_path)],
            capture_output=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout

    missing = dict(DEMO_VALUES)
    del missing["gamma"]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(missing), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(bad_path)]) == 1

    bad_path.write_text("{oops", encoding="utf-8")
    assert cli_main(["analyze", "--config", str(bad_path)]) == 1

    outside = dict(DEMO_VALUES, n0=1.0, gamma=0.0)
    outside_path = tmp_path / "outside.json"
    outside_path.write_text(json.dumps(outside), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(outside_path)]) == 2
    diagnostics = capsys.readouterr()
    assert "exclusion_reason" in diagnostics.out
    assert cli_main(
        ["equilibrium", "--config", str(outside_path), "--alpha", "0.5", "--beta", "1.0"]
    ) == 2
    capsys.readouterr()
    _passed(
        8,
        "CLI contract: byte-identical CSV within and across processes, exit 1 on "
        "malformed input, exit 2 with diagnostics outside the meaningful set",
    )
