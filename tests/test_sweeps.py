"""Unit tests for the sweep generators and CSV emission."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import onramp
from onramp.sweeps import (
    ALPHA_SWEEP_COLUMNS,
    LEVEL_SWEEP_COLUMNS,
    format_number,
    inclusive_grid,
    sweep_alpha,
    sweep_beta_e,
    write_alpha_sweep,
    write_beta_e_sweep,
)

from conftest import DEMO_J_OPT, DEMO_J_SOC_AT_PHI


@pytest.fixture()
def demo(demo_config, demo_derived, demo_summary):
    return demo_config, demo_derived, demo_summary


def test_inclusive_grid_hits_endpoints():
    grid = inclusive_grid(0.0, 1.0, 0.01)
    assert len(grid) == 101
    assert grid[0] == 0.0 and grid[-1] == 1.0
    ragged = inclusive_grid(0.0, 1.0, 0.03)
    assert ragged[-1] == 1.0
    assert all(b > a for a, b in zip(ragged, ragged[1:]))
    assert inclusive_grid(0.5, 2.0, 0.01)[-1] == 2.0


def test_inclusive_grid_values_match_scalar_arithmetic():
    ragged = inclusive_grid(0.0, 1.0, 0.03)
    assert ragged == [i * 0.03 for i in range(34)] + [1.0]
    assert inclusive_grid(0.5, 0.5, 0.01) == [0.5]
    assert all(type(value) is float for value in ragged)


def _numpy_reference_grid(lower, upper, step):
    """The grid as numpy builds it: an arange times step, then clamp or append upper."""
    count = int(math.floor((upper - lower) / step + 1e-9))
    grid = lower + np.arange(count + 1) * step
    if grid[-1] > upper:
        grid[-1] = upper
    elif upper - grid[-1] > 1e-12:
        grid = np.append(grid, upper)
    return grid.tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    lower=st.floats(-100.0, 100.0),
    step=st.floats(1e-3, 1.0),
    multiple=st.integers(0, 2000),
    # ragged spans, and spans within rounding of a whole number of steps
    offset=st.floats(0.0, 1.0) | st.sampled_from([1e-15, 1e-12, 1e-9, 1.0 - 1e-12]),
)
def test_inclusive_grid_matches_numpy_reference(lower, step, multiple, offset):
    upper = lower + (multiple + offset) * step
    grid = inclusive_grid(lower, upper, step)
    assert grid == _numpy_reference_grid(lower, upper, step)
    assert all(type(value) is float for value in grid)
    assert grid[0] == lower and upper - 1e-12 <= grid[-1] <= upper


@pytest.mark.parametrize(
    "lower, upper, step",
    [(0.0, float("inf"), 0.01), (0.0, float("nan"), 0.01), (0.0, 1.0, float("inf")),
     (0.0, 1.0, float("nan")), (0.0, 1.0, 0.0), (1.0, 0.0, 0.01), (0.0, 1e13, 0.01)],
)
def test_inclusive_grid_rejects_bad_bounds_and_steps(lower, upper, step):
    with pytest.raises(ValueError):
        inclusive_grid(lower, upper, step)


def test_alpha_sweep_row_count_and_order(demo):
    rows = sweep_alpha(*demo, betas=[0.2, 0.5, 1.0], alpha_step=0.01)
    assert len(rows) == 303
    for offset in range(0, 303, 101):
        block = rows[offset : offset + 101]
        assert all(b.alpha > a.alpha for a, b in zip(block, block[1:]))
        assert len({row.beta for row in block}) == 1


def test_alpha_sweep_inert_level_flat(demo):
    rows = [row for row in sweep_alpha(*demo, betas=[0.0], alpha_step=0.05)]
    assert all(row.j_soc == rows[0].j_soc for row in rows)
    assert rows[0].j_soc == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)


def test_alpha_sweep_full_level_reaches_optimum(demo):
    rows = sweep_alpha(*demo, betas=[1.0], alpha_step=0.01)
    assert rows[-1].alpha == 1.0
    assert rows[-1].j_soc == pytest.approx(DEMO_J_OPT, abs=1e-12)


def test_beta_e_sweep_includes_inert_row(demo):
    rows = sweep_beta_e(*demo, alphas=[0.63, 0.8], beta_e_max=4.0, step=0.01)
    assert len(rows) == 2 * 401
    first = rows[0]
    assert first.beta_e == 0.0
    assert first.j_soc == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)
    per_alpha = rows[:401]
    assert all(b.beta_e > a.beta_e for a, b in zip(per_alpha, per_alpha[1:]))


def test_beta_e_sweep_optimum_at_unit_level(demo):
    rows = sweep_beta_e(*demo, alphas=[0.8], beta_e_max=4.0, step=0.01)
    at_one = [row for row in rows if row.beta_e == 1.0]
    assert len(at_one) == 1
    assert at_one[0].j_soc == pytest.approx(DEMO_J_OPT, abs=1e-9)


def test_alpha_sweep_nonincreasing_in_ratio(demo):
    for beta in (0.2, 0.5, 1.0):
        rows = sweep_alpha(*demo, betas=[beta], alpha_step=0.01)
        for a, b in zip(rows, rows[1:]):
            assert b.j_soc <= a.j_soc + 1e-12


def test_beta_e_sweep_inert_rows_all_ratios(demo):
    rows = sweep_beta_e(*demo, alphas=[0.63, 0.8], beta_e_max=1.0, step=0.25)
    inert = [row for row in rows if row.beta_e == 0.0]
    assert len(inert) == 2
    for row in inert:
        assert row.j_soc == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)


def test_alpha_sweep_csv_schema_and_roundtrip(demo, demo_config, demo_derived):
    rows = sweep_alpha(*demo, betas=[0.5, 1.0], alpha_step=0.05)
    buffer = io.StringIO()
    write_alpha_sweep(rows, buffer)
    text = buffer.getvalue()
    lines = text.split("\n")
    assert lines[0] == ",".join(ALPHA_SWEEP_COLUMNS)
    assert text.endswith("\n")
    assert '"' not in text and "\r" not in text
    body = [line for line in lines[1:] if line]
    assert len(body) == len(rows)
    for line, row in zip(body, rows):
        fields = line.split(",")
        assert fields[3] == row.case.value
        # re-evaluating the social delay from the stored share reproduces j_soc
        share = float(fields[2])
        stored = float(fields[4])
        assert onramp.social_delay(demo_config, demo_derived, share) == pytest.approx(
            stored, abs=1e-9
        )


def test_beta_e_sweep_csv_schema(demo):
    rows = sweep_beta_e(*demo, alphas=[0.8], beta_e_max=0.5, step=0.05)
    buffer = io.StringIO()
    write_beta_e_sweep(rows, buffer)
    lines = buffer.getvalue().split("\n")
    assert lines[0] == ",".join(LEVEL_SWEEP_COLUMNS)
    cases = {line.split(",")[3] for line in lines[1:] if line}
    assert cases <= {"baseline", "case_b", "case_c", "case_d"}


def test_number_format_is_twelve_significant_digits():
    assert format_number(0.5401568346061195) == "0.540156834606"
    assert format_number(1.0) == "1"
    assert format_number(8.563714806200348) == "8.5637148062"


def test_sweep_rows_carry_delays(demo):
    rows = sweep_alpha(*demo, betas=[1.0], alpha_step=0.1)
    for row in rows:
        assert row.delays.on_ramp == row.delays.steadfast


def test_sweep_validates_step(demo):
    with pytest.raises(ValueError):
        sweep_alpha(*demo, betas=[1.0], alpha_step=0.5)
    with pytest.raises(ValueError):
        sweep_beta_e(*demo, alphas=[0.8], beta_e_max=-1.0, step=0.01)
