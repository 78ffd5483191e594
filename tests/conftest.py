"""Shared fixtures, deterministic samplers, and independent numeric oracles."""

from __future__ import annotations

import json
import math
import random
from itertools import zip_longest

import pytest
from hypothesis import Phase, settings, strategies as st

import onramp

# without the explain phase: under its tracer, pytest's explanation of a failed == between
# two long texts took minutes over the shrink steps of one failing property
settings.register_profile("onramp", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("onramp")

# calibrated demo configuration used throughout the tests
DEMO_VALUES = {
    "n0": 0.37,
    "c1t": 1.0,
    "c1m": 21.3,
    "c2t": 1.0,
    "c2m": 1.0,
    "mu": 2.4,
    "gamma": 8.6,
}

# frozen anchors for that configuration; every one is re-derived from an
# independent oracle (bisection / grid scan) in the tests that use it
DEMO_PHI = 0.5401568346061195
DEMO_DELTA = 0.6047119573573881
DEMO_PI = -1.3903761547080171
DEMO_J_OPT = 8.563714806200348
DEMO_J_SOC_AT_PHI = 8.645024242734868


# a meaningful configuration whose delta exceeds phi by only 4.2e-4: on a point interval
# its sampled PoA is flat in floats over 3.7e-5 of the level around beta* = 1/error
FLAT_MINIMUM_VALUES = {
    "n0": 0.253,
    "c1t": 0.711,
    "c1m": 12.897,
    "c2t": 1.483,
    "c2m": 1.445,
    "mu": 3.515,
    "gamma": 10.679,
}


def assert_same_text(actual: str, expected: str) -> None:
    """Fail with the first differing line of two texts, not pytest's diff of the whole texts."""
    if actual != expected:
        pairs = enumerate(zip_longest(actual.splitlines(True), expected.splitlines(True)), 1)
        number, (got, want) = next((n, pair) for n, pair in pairs if pair[0] != pair[1])
        raise AssertionError(f"texts differ at line {number}: {got!r} != {want!r}")


@pytest.fixture(scope="session")
def demo_config():
    return onramp.OnRampConfig(**DEMO_VALUES)


@pytest.fixture(scope="session")
def demo_ramp(demo_config):
    return onramp.OnRamp.from_config(demo_config)


@pytest.fixture()
def demo_config_file(tmp_path):
    path = tmp_path / "onramp.json"
    path.write_text(json.dumps(DEMO_VALUES), encoding="utf-8")
    return path


def sample_config(rng: random.Random) -> onramp.OnRampConfig:
    return onramp.OnRampConfig(
        n0=rng.uniform(0.08, 0.92),
        c1t=rng.uniform(0.3, 2.0),
        c1m=rng.uniform(0.5, 30.0),
        c2t=rng.uniform(0.3, 2.0),
        c2m=rng.uniform(0.1, 4.0),
        mu=rng.uniform(1.0, 5.0),
        gamma=rng.uniform(1.0, 12.0),
    )


@st.composite
def meaningful_configs(draw):
    """A meaningful configuration from ``sample_config``, seeded by the draw."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        config = sample_config(rng)
        if onramp.OnRamp.from_config(config).in_meaningful_set:
            return config


RATIO_GRID = [i * 0.05 for i in range(21)]


def _clear_of_grid(value: float, margin: float) -> bool:
    return all(abs(value - point) > margin for point in RATIO_GRID)


def sample_meaningful(
    rng: random.Random,
    margin: float = 0.03,
    grid_safe: bool = False,
):
    """Draw one configuration inside the meaningful set with comfortable margins.

    ``grid_safe`` additionally keeps phi and delta away from the 0.05 ratio
    grid so that strict-inequality claims are not decided by float dust.
    """
    while True:
        ramp = onramp.OnRamp.from_config(sample_config(rng))
        if not (
            ramp.phi > margin
            and ramp.delta - ramp.phi > margin
            and ramp.delta < 1.0 - margin
        ):
            continue
        if grid_safe and not (
            _clear_of_grid(ramp.phi, 2e-3) and _clear_of_grid(ramp.delta, 2e-3)
        ):
            continue
        return ramp


def meaningful_batch(count: int, seed: int, **kwargs):
    rng = random.Random(seed)
    return [sample_meaningful(rng, **kwargs) for _ in range(count)]


def make_transition_limited(rng: random.Random, pi_target: float | None = None):
    """Construct a meaningful-set configuration with a prescribed positive ratio.

    Samples targets (phi, ratio) plus a partial parameterization, solves the
    two crossing equations for the remaining derived constants, and inverts
    them back to raw coefficients.  Retries until every recovered coefficient
    is nonnegative.
    """
    for _ in range(500):
        n0 = rng.uniform(0.75, 0.95)
        n2 = 1.0 - n0
        phi0 = rng.uniform(0.35, 0.6)
        pi0 = pi_target if pi_target is not None else rng.uniform(1.3, 2.5)
        q = 1.0 + (1.0 - phi0) / pi0  # 2*delta - phi
        k_s = rng.uniform(3.0, 12.0)
        b_s = rng.uniform(0.02, 0.08) * k_s
        slope_lo = max(k_s * 1.0001, (k_s - b_s) / (n2 + q - phi0))
        slope_hi = min((k_s * n0 - b_s) / (q - phi0), 0.97 * k_s * (1.0 + n0) / q)
        if slope_lo >= slope_hi:
            continue
        total = rng.uniform(slope_lo, slope_hi)
        k_b = total - k_s
        b_b = k_s + b_s - phi0 * total
        k2 = (k_s * (1.0 + n0) - q * total) / n2
        if min(k_b, b_b, k2) <= 0.0:
            continue
        c2t = b_b / n2
        c2m = (k2 - c2t) / n2
        gamma = (k_b - c2m * n2) / c2t
        mu = b_s / n0
        c1m = (k_s - mu) / n0
        if min(c2m, gamma, mu, c1m) < 0.0:
            continue
        ramp = onramp.OnRamp.from_config(
            onramp.OnRampConfig(n0=n0, c1t=1.0, c1m=c1m, c2t=c2t, c2m=c2m, mu=mu, gamma=gamma)
        )
        assert ramp.in_meaningful_set
        assert abs(ramp.phi - phi0) < 1e-9
        assert abs(ramp.pi - pi0) < 1e-6
        return ramp
    raise AssertionError("failed to construct a positive-ratio configuration")


def sampled_error_gap(interval) -> float:
    """The widest gap between the grid oracles' log-spaced errors: the last, below e_upper."""
    ratio = interval.e_upper / interval.e_lower
    return interval.e_upper * (1.0 - ratio ** (-1.0 / (onramp.robustness.GRID_ERRORS - 1)))


# the most ulps between solve's share and the exact oracle's: 8 in 36,000 draws of a
# meaningful config from sample_config, a level of 0, up to 5 or 10**U(-300, 300), and alpha
# random, 0, 1, phi or the crossing, each exact and one ulp off; calibrated only where phi's
# numerator ks + bs - bb does not cancel, as where it does phi itself lies further off
SOLVE_ULPS = 8


def ulps_apart(x: float, exact: float) -> float:
    """The distance from ``x`` to ``exact`` in units of ``exact``'s last place."""
    return abs(x - exact) / math.ulp(exact)


def bisect_selfish_crossing(ramp, lo=0.0, hi=1.0, iters=100) -> float:
    """Independent bisection oracle on the travel-delay gap."""

    def gap(x):
        steadfast = ramp.steadfast_slope * (1.0 - x) + ramp.steadfast_intercept
        bypass = ramp.bypass_slope * x + ramp.bypass_intercept
        return steadfast - bypass

    gap_lo = gap(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (gap(mid) > 0.0) == (gap_lo > 0.0):
            lo, gap_lo = mid, gap(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_scan_minimizer(ramp, lo=-1.0, hi=2.0, step=1e-5) -> float:
    """Independent grid-scan oracle for the social-delay minimizer.

    Evaluates the flow-weighted delay itself from the ramp's constants, as
    bisect_selfish_crossing does, so no library formula is shared.
    """
    import numpy as np  # only this oracle needs numpy: collecting the tests does not

    x = lo + np.arange(int(round((hi - lo) / step)) + 1) * step
    steadfast = ramp.steadfast_slope * (1.0 - x) + ramp.steadfast_intercept
    bypass = ramp.bypass_slope * x + ramp.bypass_intercept
    lane2 = ramp.lane2_slope * x + ramp.bypass_intercept
    values = (1.0 - x + ramp.n0) * steadfast + x * bypass + ramp.n2 * lane2
    return float(x[int(np.argmin(values))])


def refined_grid_minimizer(ramp, coarse_step=1e-5, fine_step=1e-8) -> float:
    """Two-stage grid scan: coarse sweep, then a fine sweep around the winner."""
    coarse = grid_scan_minimizer(ramp, step=coarse_step)
    return grid_scan_minimizer(
        ramp, lo=coarse - 2.0 * coarse_step, hi=coarse + 2.0 * coarse_step, step=fine_step
    )
