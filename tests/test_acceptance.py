"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is either pinned arithmetic or re-derived by an
independent oracle (bisection, grid scan, exact candidate shares, dynamics) inside
the test.
"""

import json
import random
import subprocess
import sys

import pytest

import onramp
from onramp.analysis import _crossing
from onramp.cli import main as cli_main
from onramp.sweeps import alpha_sweep, beta_e_sweep, inclusive_grid

from conftest import (
    DEMO_VALUES,
    SOLVE_ULPS,
    bisect_selfish_crossing,
    make_transition_limited,
    meaningful_batch,
    refined_grid_minimizer,
    sample_meaningful,
    sampled_error_gap,
    ulps_apart,
)

BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _passed(number, message):
    print(f"ACCEPTANCE {number} PASS - {message}")


def test_criterion_1_demo_anchors(demo_ramp):
    ramp = demo_ramp
    assert ramp.in_meaningful_set
    assert ramp.pi < 0.0
    label = onramp.classification(ramp, onramp.ErrorInterval(0.5, 2.0))
    assert label.regime is onramp.Regime.ENDPOINT_SYMMETRIC

    bisected = bisect_selfish_crossing(ramp)
    assert abs(ramp.phi - bisected) <= 1e-6
    scanned = refined_grid_minimizer(ramp)
    assert abs(ramp.delta - scanned) <= 1e-6
    _passed(
        1,
        f"demo anchors: phi={ramp.phi:.6f} delta={ramp.delta:.6f} "
        f"pi={ramp.pi:.4f} inside the meaningful set, endpoint-symmetric regime",
    )


@pytest.fixture(scope="module")
def improvement_instances(demo_ramp):
    instances = [demo_ramp]
    instances += meaningful_batch(100, seed=20260810, grid_safe=True)
    return instances


def test_criterion_2_improvement_conditions(improvement_instances):
    checked = 0
    for ramp in improvement_instances:
        baseline = ramp.j_soc_at_phi
        for alpha in inclusive_grid(0.0, 1.0, 0.05):
            for beta in BETA_GRID:
                result = onramp.solve(ramp, alpha, beta)
                flags = onramp.improvement_conditions(ramp, alpha, beta)
                decreased = result.social_delay < baseline - 1e-9
                assert decreased == flags.decreases, (alpha, beta, ramp)
                optimized = abs(result.social_delay - ramp.j_opt) <= 1e-9
                assert optimized == flags.optimizes, (alpha, beta, ramp)
                checked += 1
    _passed(2, f"improvement iff conditions held at all {checked} grid points")


def test_criterion_3_ratio_sweep_shape(demo_ramp):
    ramp = demo_ramp
    rows = alpha_sweep(ramp, betas=[0.2, 0.5, 1.0], alpha_step=0.01)
    by_beta = {beta: [r for r in rows if r.beta == beta] for beta in (0.2, 0.5, 1.0)}
    full = by_beta[1.0]

    flat_left = [r for r in full if r.alpha <= ramp.phi]
    assert flat_left
    for row in flat_left:
        assert abs(row.j_soc - ramp.j_soc_at_phi) <= 1e-9

    interior = [r for r in full if ramp.phi < r.alpha < ramp.delta]
    assert interior
    for a, b in zip(interior, interior[1:]):
        assert b.j_soc <= a.j_soc - 1e-9

    flat_right = [r for r in full if r.alpha >= ramp.delta]
    assert flat_right
    for row in flat_right:
        assert abs(row.j_soc - ramp.j_opt) <= 1e-9

    for beta in (0.2, 0.5):
        for weak, strong in zip(by_beta[beta], full):
            assert weak.alpha == strong.alpha
            assert weak.j_soc >= strong.j_soc - 1e-12
    _passed(
        3,
        "ratio sweep: flat at the selfish delay below phi, strictly decreasing "
        "to the optimum, flat at the optimum beyond delta, smaller levels dominated",
    )


def test_criterion_4_level_sweep_shape(demo_ramp):
    ramp = demo_ramp
    rows = beta_e_sweep(ramp, alphas=[0.63, 0.8], beta_e_max=4.0, step=0.01)
    abundant = [r for r in rows if r.alpha == 0.8]
    scarce = [r for r in rows if r.alpha == 0.63]

    at_unit = [r for r in abundant if r.beta_e == 1.0]
    assert len(at_unit) == 1
    assert abs(at_unit[0].j_soc - ramp.j_opt) <= 1e-9
    assert min(r.j_soc for r in abundant) >= at_unit[0].j_soc - 1e-12
    before = [r for r in abundant if r.beta_e <= 1.0]
    after = [r for r in abundant if r.beta_e >= 1.0]
    for a, b in zip(before, before[1:]):
        assert b.j_soc <= a.j_soc + 1e-12
    for a, b in zip(after, after[1:]):
        assert b.j_soc >= a.j_soc - 1e-12

    analytic_transition = onramp.transition_beta(0.63, ramp.phi, ramp.delta)
    flat = [r for r in scarce if r.x_hat_b == 0.63]
    assert flat
    first_flat = min(r.beta_e for r in flat)
    assert abs(first_flat - analytic_transition) <= 0.01 + 1e-12
    level_value = onramp.social_delay(ramp, 0.63)
    for row in scarce:
        if row.beta_e >= analytic_transition:
            assert abs(row.j_soc - level_value) <= 1e-9
    _passed(
        4,
        f"level sweep: abundant curve bottoms at level 1 with the optimal delay; "
        f"scarce curve flattens at level {first_flat:.2f} "
        f"(analytic {analytic_transition:.5f})",
    )


def _poa_slack(ramp, interval):
    """Bound on how much a supremum sampled on the oracles' errors can undershoot the true one.

    The oracle evaluates full altruism exactly, so only the widest gap between errors counts.
    """
    reach = max(1.0 - ramp.delta, ramp.delta - ramp.phi)
    lipschitz_delay = 2.0 * ramp.slope_sum * reach
    lipschitz_error = (
        lipschitz_delay * (2.0 / interval.e_lower) * 2.0 * (ramp.delta - ramp.phi)
    )
    return lipschitz_error * sampled_error_gap(interval) / ramp.j_opt


def test_criterion_5_optimal_level(demo_ramp):
    ramp = demo_ramp
    interval = onramp.ErrorInterval(0.5, 2.0)
    analytic = onramp.optimal_beta(ramp, interval)
    assert analytic.beta_star == pytest.approx(1.0, abs=1e-12)
    sampled = onramp.grid_optimal_beta(ramp, interval)
    assert abs(sampled - analytic.beta_star) <= 1e-5 * analytic.beta_star

    rng = random.Random(515)
    endpoint_cases = []
    while len(endpoint_cases) < 25:
        ramp = sample_meaningful(rng)
        lower = rng.uniform(0.4, 1.2)
        span = onramp.ErrorInterval(lower, lower * rng.uniform(1.2, 4.0))
        if onramp.classification(ramp, span).regime is onramp.Regime.ENDPOINT_SYMMETRIC:
            endpoint_cases.append((ramp, span))
    limited_cases = []
    while len(limited_cases) < 10:
        ramp = make_transition_limited(rng)
        lower = rng.uniform(0.4, 1.0)
        span = onramp.ErrorInterval(lower, lower * (ramp.pi * rng.uniform(1.2, 1.8)) ** 2)
        assert onramp.classification(ramp, span).regime is onramp.Regime.TRANSITION_LIMITED
        limited_cases.append((ramp, span))

    for ramp, span in endpoint_cases + limited_cases:
        result = onramp.optimal_beta(ramp, span)
        sampled_best = onramp.grid_optimal_beta(ramp, span)
        assert abs(sampled_best - result.beta_star) <= 1e-5 * result.beta_star
        sampled_minimum = onramp.grid_poa(ramp, sampled_best, span)
        assert result.poa <= sampled_minimum + _poa_slack(ramp, span)

        def crossing_delay(level):
            share = _crossing(ramp.phi, ramp.delta, level)
            return onramp.social_delay(ramp, share)

        if result.branch is onramp.Regime.ENDPOINT_SYMMETRIC:
            assert crossing_delay(result.beta_star * span.e_lower) == pytest.approx(
                crossing_delay(result.beta_star * span.e_upper), abs=1e-9
            )
        else:
            assert crossing_delay(result.beta_star * span.e_lower) == pytest.approx(
                crossing_delay(ramp.pi), abs=1e-9
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


def test_criterion_6a_exact_agreement(oracle_instances):
    rng = random.Random(607)
    for ramp in oracle_instances:
        alpha = rng.uniform(0.05, 0.95)
        level = rng.uniform(0.25, 1.25)
        closed = onramp.solve(ramp, alpha, level)
        shares = onramp.exact_equilibria(ramp, alpha, level)
        assert len(shares) == 1, (alpha, level, shares)
        assert ulps_apart(closed.x_hat_b, shares[0]) <= SOLVE_ULPS, (alpha, level, shares)
    _passed(
        6,
        f"oracle agreement (exact): 200 random instances each had one equilibrium share, "
        f"within {SOLVE_ULPS} ulps of the closed form",
    )


def test_criterion_6b_dynamics_agreement(oracle_instances):
    rng = random.Random(608)
    for ramp in oracle_instances[:50]:
        alpha = rng.uniform(0.05, 0.95)
        level = rng.uniform(0.25, 1.25)
        closed = onramp.solve(ramp, alpha, level)
        trace = onramp.best_response_dynamics(ramp, alpha, level, 1.0)
        assert trace.converged and trace.max_product <= 1e-12, (alpha, level, trace)
        gap = abs(trace.flow.total_bypass - closed.x_hat_b)
        assert gap <= 1e-9, (alpha, level, gap)
    _passed(
        6,
        "oracle agreement (dynamics): 50 random instances converged, every switching product "
        "at most 1e-12, "
        "and matched the closed form within 1e-9",
    )


def test_criterion_7_wardrop_residuals(demo_ramp):
    instances = [demo_ramp] + meaningful_batch(20, seed=707)
    checked = 0
    for ramp in instances:
        for alpha in inclusive_grid(0.0, 1.0, 0.1):
            for beta in BETA_GRID:
                for error in (0.5, 1.0, 2.0):
                    result = onramp.solve(ramp, alpha, beta, error)
                    report = onramp.verify_wardrop(ramp, result.flow, beta, error)
                    assert report.passed and report.max_product <= 1e-9, (alpha, beta, error)
                    checked += 1
    _passed(7, f"all {checked} solver outputs passed the equilibrium definition, within 1e-9")


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
