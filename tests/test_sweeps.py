"""Unit tests for the sweep generators and CSV emission."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import onramp
from onramp import sweeps
from onramp.analysis import _crossing
from onramp.equilibrium import EquilibriumCase
from onramp.errors import DegenerateConfigError, NotInMeaningfulSetError
from onramp.model import LEVEL_MAX, NUMBER_FORMAT, format_number
from onramp.sweeps import (
    ALPHA_SWEEP_COLUMNS,
    LEVEL_SWEEP_COLUMNS,
    AlphaSweepRow,
    LevelSweepRow,
    alpha_sweep,
    beta_e_sweep,
    inclusive_grid,
    write_alpha_sweep,
    write_beta_e_sweep,
)

from conftest import DEMO_DELTA, DEMO_J_OPT, DEMO_J_SOC_AT_PHI, assert_same_text, meaningful_configs


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


def test_alpha_sweep_row_count_and_order(demo_ramp):
    rows = alpha_sweep(demo_ramp, betas=[0.2, 0.5, 1.0], alpha_step=0.01)
    assert len(rows) == 303
    for offset in range(0, 303, 101):
        block = rows[offset : offset + 101]
        assert all(b.alpha > a.alpha for a, b in zip(block, block[1:]))
        assert len({row.beta for row in block}) == 1


def test_alpha_sweep_inert_level_flat(demo_ramp):
    rows = [row for row in alpha_sweep(demo_ramp, betas=[0.0], alpha_step=0.05)]
    assert all(row.j_soc == rows[0].j_soc for row in rows)
    assert rows[0].j_soc == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)


def test_alpha_sweep_full_level_reaches_optimum(demo_ramp):
    rows = alpha_sweep(demo_ramp, betas=[1.0], alpha_step=0.01)
    assert rows[-1].alpha == 1.0
    assert rows[-1].j_soc == pytest.approx(DEMO_J_OPT, abs=1e-12)


def test_beta_e_sweep_includes_inert_row(demo_ramp):
    rows = beta_e_sweep(demo_ramp, alphas=[0.63, 0.8], beta_e_max=4.0, step=0.01)
    assert len(rows) == 2 * 401
    first = rows[0]
    assert first.beta_e == 0.0
    assert first.j_soc == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)
    per_alpha = rows[:401]
    assert all(b.beta_e > a.beta_e for a, b in zip(per_alpha, per_alpha[1:]))


def test_beta_e_sweep_optimum_at_unit_level(demo_ramp):
    rows = beta_e_sweep(demo_ramp, alphas=[0.8], beta_e_max=4.0, step=0.01)
    at_one = [row for row in rows if row.beta_e == 1.0]
    assert len(at_one) == 1
    assert at_one[0].j_soc == pytest.approx(DEMO_J_OPT, abs=1e-9)


def test_alpha_sweep_nonincreasing_in_ratio(demo_ramp):
    for beta in (0.2, 0.5, 1.0):
        rows = alpha_sweep(demo_ramp, betas=[beta], alpha_step=0.01)
        for a, b in zip(rows, rows[1:]):
            assert b.j_soc <= a.j_soc + 1e-12


def test_beta_e_sweep_inert_rows_all_ratios(demo_ramp):
    rows = beta_e_sweep(demo_ramp, alphas=[0.63, 0.8], beta_e_max=1.0, step=0.25)
    inert = [row for row in rows if row.beta_e == 0.0]
    assert len(inert) == 2
    for row in inert:
        assert row.j_soc == pytest.approx(DEMO_J_SOC_AT_PHI, abs=1e-12)


def test_alpha_sweep_csv_schema_and_roundtrip(demo_ramp):
    rows = alpha_sweep(demo_ramp, betas=[0.5, 1.0], alpha_step=0.05)
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
        assert onramp.social_delay(demo_ramp, share) == pytest.approx(stored, abs=1e-9)


def test_beta_e_sweep_csv_schema(demo_ramp):
    rows = beta_e_sweep(demo_ramp, alphas=[0.8], beta_e_max=0.5, step=0.05)
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


def test_sweep_validates_step(demo_ramp):
    with pytest.raises(ValueError):
        alpha_sweep(demo_ramp, betas=[1.0], alpha_step=0.5)
    with pytest.raises(ValueError):
        beta_e_sweep(demo_ramp, alphas=[0.8], beta_e_max=-1.0, step=0.01)


def _assert_row_solves(ramp, row, alpha, beta):
    result = onramp.solve(ramp, alpha, beta)
    assert (row.x_hat_b, row.case, row.j_soc) == (result.x_hat_b, result.case, result.social_delay)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    config=meaningful_configs(),
    betas=st.lists(st.floats(0.0, 10.0) | st.integers(0, 4), max_size=3),
    alphas=st.lists(st.floats(0.0, 1.0) | st.integers(0, 1), max_size=3),
    alpha_step=st.sampled_from([0.01, 0.03, 0.1]),
    beta_e_max=st.floats(0.1, 5.0),
    steps=st.integers(1, 60),
    tie_at=st.integers(0, 60),
)
def test_sweep_rows_equal_the_solver(
    config, betas, alphas, alpha_step, beta_e_max, steps, tie_at
):
    """Every row is solve at its point, exactly, ties included.

    Level 0 and alpha 0 are on every grid; the outer values add beta == pi
    (when positive), alpha == phi and alpha == the crossing at a grid level.
    """
    ramp = onramp.OnRamp.from_config(config)
    step = beta_e_max / steps
    level = inclusive_grid(0.0, beta_e_max, step)[min(tie_at, steps)]
    crossing = _crossing(ramp.phi, ramp.delta, level)
    betas = [0.0, *betas] + ([ramp.pi] if ramp.pi > 0.0 else [])
    alphas = [0.0, ramp.phi, *alphas] + ([crossing] if crossing <= 1.0 else [])
    for row in alpha_sweep(ramp, betas, alpha_step):
        _assert_row_solves(ramp, row, row.alpha, row.beta)
    for row in beta_e_sweep(ramp, alphas, beta_e_max, step):
        _assert_row_solves(ramp, row, row.alpha, row.beta_e)


def _assert_columns_solve(ramp, outer, grid, levels_on_grid):
    tails, columns = sweeps._sweep_columns(ramp, outer, grid, levels_on_grid)
    for value, column in zip(outer, columns):
        for point, k in zip(grid, column):
            alpha, level = (value, point) if levels_on_grid else (point, value)
            result = onramp.solve(ramp, alpha, level)
            assert tails[k] == (result.x_hat_b, result.case, result.social_delay)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=meaningful_configs(), level=st.floats(1e-3, 10.0), ulps=st.integers(-1, 1))
def test_column_kernel_resolves_ties_on_the_grid(config, level, ulps):
    """Grid alphas at phi and at the crossing, and grid levels at an alpha's crossing.

    The public grids hold such points only by chance; the kernel gets them
    directly, each exact or one ulp off.
    """
    ramp = onramp.OnRamp.from_config(config)
    crossing = _crossing(ramp.phi, ramp.delta, level)

    def near(x):
        return math.nextafter(x, ulps * math.inf) if ulps else x

    alphas = sorted({0.0, near(ramp.phi), ramp.phi, min(near(crossing), 1.0), 1.0})
    _assert_columns_solve(ramp, [0.0, level, near(level)], alphas, False)
    levels = sorted({0.0, near(level), level, 2.0 * level})
    outer = [ramp.phi, near(ramp.phi), min(crossing, 1.0), min(near(crossing), 1.0)]
    _assert_columns_solve(ramp, outer, levels, True)


@pytest.mark.parametrize("alphas", [[1.0], [1.0, 0.8], [1.0, DEMO_DELTA]], ids=str)
@pytest.mark.parametrize("grid", [
    [0.0, 1e-300, 0.5], [0.0, 0.5, 1e17, 1e20, 4e20], [0.0, 0.5, 1.0, 2.0]])
def test_level_kernel_evaluates_each_share_once_where_shares_repeat(
    demo_ramp, monkeypatch, grid, alphas
):
    """Levels whose crossings equal phi, equal each other, or equal an alpha, and none do.

    At level 1e-300 the crossing rounds to phi, past 1e17 all crossings round to
    2*delta - phi, and at level 1 it is delta; [0.0, 0.5, 1.0, 2.0] with alphas 1.0
    and 0.8 repeats none.
    """
    shares = []

    def counting_social_delay(ramp, x_hat_b):
        shares.append(x_hat_b)
        return onramp.social_delay(ramp, x_hat_b)

    monkeypatch.setattr(sweeps, "social_delay", counting_social_delay)
    tails, columns = sweeps._sweep_columns(demo_ramp, alphas, grid, True)
    assert sorted(shares) == sorted({tails[k][0] for column in columns for k in column})
    monkeypatch.undo()
    _assert_columns_solve(demo_ramp, alphas, grid, True)


def test_level_sweep_stops_at_the_level_bound(demo_ramp):
    rows = beta_e_sweep(demo_ramp, alphas=[0.8], beta_e_max=LEVEL_MAX, step=LEVEL_MAX / 4)
    assert (rows[-1].beta_e, rows[-1].case) == (LEVEL_MAX, EquilibriumCase.CASE_D)
    above = math.nextafter(LEVEL_MAX, math.inf)
    message = f"beta_e_max = {above} exceeds the level bound {LEVEL_MAX}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        beta_e_sweep(demo_ramp, alphas=[0.8], beta_e_max=above, step=above / 4)


def test_level_sweep_resolves_the_ties(demo_ramp):
    phi, delta = demo_ramp.phi, demo_ramp.delta
    level = inclusive_grid(0.0, 2.0, 0.25)[3]
    crossing = _crossing(phi, delta, level)
    rows = beta_e_sweep(demo_ramp, alphas=[phi, crossing], beta_e_max=2.0, step=0.25)
    at_phi, at_crossing = rows[:9], rows[9:]
    assert at_phi[0].case is EquilibriumCase.BASELINE
    assert {row.case for row in at_phi[1:]} == {EquilibriumCase.CASE_B}
    assert at_crossing[3].beta_e == level
    assert at_crossing[3].case is EquilibriumCase.CASE_D
    assert at_crossing[3].x_hat_b == crossing


# outside the meaningful set: Phi <= 0
EXCLUDED_VALUES = dict(n0=0.1, c1t=1.0, c1m=1.0, c2t=50.0, c2m=0.1, mu=1.0, gamma=1.0)


def _ramp(values):
    return onramp.OnRamp.from_config(onramp.OnRampConfig(**values))


def test_sweeps_check_membership_before_the_outer_values():
    excluded = _ramp(EXCLUDED_VALUES)
    with pytest.raises(NotInMeaningfulSetError):
        alpha_sweep(excluded, betas=[math.nan], alpha_step=0.1)
    with pytest.raises(NotInMeaningfulSetError):
        beta_e_sweep(excluded, alphas=[1.5], beta_e_max=1.0, step=0.1)
    degenerate = dict(n0=0.4, c1t=0.0, c1m=0.0, c2t=0.0, c2m=0.0, mu=0.0, gamma=0.0)
    with pytest.raises(DegenerateConfigError):
        alpha_sweep(_ramp(degenerate), betas=[math.nan], alpha_step=0.1)


@pytest.mark.parametrize(
    "beta, message",
    [
        (math.nan, "beta must be finite, got nan"),
        (math.inf, "beta must be finite, got inf"),
        (-0.5, "beta must be >= 0, got -0.5"),
    ],
)
def test_alpha_sweep_names_a_bad_beta(demo_ramp, beta, message):
    with pytest.raises(ValueError) as info:
        alpha_sweep(demo_ramp, betas=[0.5, beta], alpha_step=0.1)
    assert str(info.value) == message


@pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan, math.inf])
def test_level_sweep_names_a_bad_alpha(demo_ramp, alpha):
    with pytest.raises(ValueError) as info:
        beta_e_sweep(demo_ramp, alphas=[0.8, alpha], beta_e_max=1.0, step=0.1)
    assert str(info.value) == f"alpha must lie in [0, 1], got {alpha}"


def test_sweeps_check_every_outer_value_before_the_grid(demo_ramp):
    with pytest.raises(ValueError, match="^beta must be >= 0, got -1.0$"):
        alpha_sweep(demo_ramp, betas=[-1.0], alpha_step=0.5)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
        beta_e_sweep(demo_ramp, alphas=[1.5], beta_e_max=-1.0, step=0.01)
    with pytest.raises(ValueError, match="^alpha step"):  # an iterator is read once
        alpha_sweep(demo_ramp, betas=iter([0.5, 1.0]), alpha_step=0.5)
    assert alpha_sweep(demo_ramp, iter([0.5]), 0.1) == alpha_sweep(demo_ramp, [0.5], 0.1)


def test_empty_outer_list_gives_no_rows(demo_ramp):
    excluded = _ramp(EXCLUDED_VALUES)
    for case in (demo_ramp, excluded):
        assert alpha_sweep(case, betas=[], alpha_step=0.1) == []
        assert beta_e_sweep(case, alphas=[], beta_e_max=1.0, step=0.1) == []


def _reference_csv(rows, columns):
    """The CSV as format() writes it, one cell at a time."""
    lines = [",".join(columns)]
    for row in rows:
        cells = [getattr(row, name) for name in columns]
        lines.append(",".join(
            cell.value if name == "case" else format(cell, NUMBER_FORMAT)
            for name, cell in zip(columns, cells)
        ))
    return "\n".join(lines) + "\n"


CSV_NUMBERS = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5, math.nan,
                       math.inf, -math.inf, 0.1 + 0.2])
    | st.integers(-(10**20), 10**20)
)


def test_row_fields_are_the_csv_columns():
    for row_type, columns in (
        (AlphaSweepRow, ALPHA_SWEEP_COLUMNS),
        (LevelSweepRow, LEVEL_SWEEP_COLUMNS),
    ):
        assert row_type._fields == columns


def test_writers_refuse_rows_of_another_sweep(demo_ramp):
    alpha_rows = alpha_sweep(demo_ramp, betas=[0.5], alpha_step=0.1)
    level_rows = beta_e_sweep(demo_ramp, [0.8], 2, 1)
    for write, rows in (
        (write_alpha_sweep, level_rows),
        (write_beta_e_sweep, alpha_rows),
        (write_alpha_sweep, [tuple(alpha_rows[0])]),
    ):
        buffer = io.StringIO()
        with pytest.raises(TypeError, match="expected"):
            write(rows, buffer)
        assert buffer.getvalue() == ""


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    cells=st.lists(st.tuples(CSV_NUMBERS, CSV_NUMBERS, CSV_NUMBERS,
                             st.sampled_from(list(EquilibriumCase)), CSV_NUMBERS),
                   max_size=4),
)
def test_csv_lines_match_per_cell_format(cells):
    for row_type, columns, write in (
        (AlphaSweepRow, ALPHA_SWEEP_COLUMNS, write_alpha_sweep),
        (LevelSweepRow, LEVEL_SWEEP_COLUMNS, write_beta_e_sweep),
    ):
        rows = [row_type(*values) for values in cells]
        buffer = io.StringIO()
        write(rows, buffer)
        assert buffer.getvalue() == _reference_csv(rows, columns)


def test_csv_of_integer_inputs_matches_per_cell_format(demo_ramp):
    for sweep, outer, write, columns in (
        (lambda values: alpha_sweep(demo_ramp, values, 0.05), [0, 1, 3], write_alpha_sweep,
         ALPHA_SWEEP_COLUMNS),
        (lambda values: beta_e_sweep(demo_ramp, values, 2, 0.25), [0, 1], write_beta_e_sweep,
         LEVEL_SWEEP_COLUMNS),
    ):
        rows, float_rows = sweep(outer), sweep([float(value) for value in outer])
        text, float_text = io.StringIO(), io.StringIO()
        write(rows, text)
        write(float_rows, float_text)
        assert text.getvalue() == _reference_csv(rows, columns) == float_text.getvalue()


# numbers that repeat across cells, among them equal numbers that print
# differently (0.0 and -0.0), NaN objects, ints equal to floats, and one share
# that comes with two cases and two social delays
POOL_NUMBERS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1, 1.0,
                                0.25, 0.1 + 0.2, 0.3])
POOL_TAILS = st.sampled_from([
    (0.3, case, j_soc)
    for case in (EquilibriumCase.CASE_C, EquilibriumCase.CASE_D)
    for j_soc in (8.6, 8.645024242734868)
]) | st.tuples(POOL_NUMBERS, st.sampled_from(list(EquilibriumCase)), POOL_NUMBERS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    cells=st.lists(st.tuples(POOL_NUMBERS, POOL_NUMBERS, POOL_TAILS), min_size=2, max_size=40)
)
def test_csv_caches_repeat_the_per_cell_format(cells):
    for row_type, columns, write in (
        (AlphaSweepRow, ALPHA_SWEEP_COLUMNS, write_alpha_sweep),
        (LevelSweepRow, LEVEL_SWEEP_COLUMNS, write_beta_e_sweep),
    ):
        rows = [row_type(value, point, *tail) for value, point, tail in cells]
        buffer = io.StringIO()
        write(rows, buffer)
        assert buffer.getvalue() == _reference_csv(rows, columns)


# library rows may hold numpy numbers: float64 scalars and 0-d arrays
NUMPY_NUMBERS = st.tuples(POOL_NUMBERS, st.sampled_from([float, np.float64, np.array])).map(
    lambda pair: pair[1](pair[0])
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    cells=st.lists(st.tuples(NUMPY_NUMBERS, NUMPY_NUMBERS, NUMPY_NUMBERS,
                             st.sampled_from(list(EquilibriumCase)), NUMPY_NUMBERS),
                   min_size=1, max_size=20)
)
def test_csv_of_numpy_numbers_matches_per_cell_format(cells):
    for row_type, columns, write in (
        (AlphaSweepRow, ALPHA_SWEEP_COLUMNS, write_alpha_sweep),
        (LevelSweepRow, LEVEL_SWEEP_COLUMNS, write_beta_e_sweep),
    ):
        for rows in ([row_type(*cell) for cell in cells], (row_type(*cell) for cell in cells)):
            buffer = io.StringIO()
            write(rows, buffer)
            assert buffer.getvalue() == _reference_csv([row_type(*c) for c in cells], columns)


def test_csv_of_zero_dimensional_arrays(demo_ramp):
    rows = alpha_sweep(demo_ramp, betas=[0.5, 1.0], alpha_step=0.1)
    array_rows = [
        AlphaSweepRow(np.array(row.beta), np.float64(row.alpha), np.array(row.x_hat_b), row.case,
                      np.array(row.j_soc))
        for row in rows
    ]
    text, array_text = io.StringIO(), io.StringIO()
    write_alpha_sweep(rows, text)
    write_alpha_sweep(array_rows, array_text)
    assert array_text.getvalue() == text.getvalue() == _reference_csv(rows, ALPHA_SWEEP_COLUMNS)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    config=meaningful_configs(),
    betas=st.lists(st.floats(0.0, 10.0) | st.integers(0, 10**20), max_size=3),
    alphas=st.lists(st.floats(0.0, 1.0) | st.integers(0, 1), max_size=3),
    alpha_step=st.sampled_from([0.01, 0.03, 0.1]),
    beta_e_max=st.floats(0.1, 5.0) | st.integers(1, 5),
    steps=st.integers(1, 60),
    tie_at=st.integers(0, 60),
)
def test_column_csv_is_the_library_writers_csv(
    config, betas, alphas, alpha_step, beta_e_max, steps, tie_at
):
    """The column formatter writes write_*_sweep's bytes for the same library inputs.

    The CLI passes only floats; library outer values may also be ints, 0 and
    -0.0, alpha == phi and alpha == the crossing at a grid level.
    """
    ramp = onramp.OnRamp.from_config(config)
    step = beta_e_max / steps
    level = inclusive_grid(0.0, beta_e_max, step)[min(tie_at, steps)]
    crossing = _crossing(ramp.phi, ramp.delta, level)
    betas = [0, -0.0, *betas] + ([ramp.pi] if ramp.pi > 0.0 else [])
    alphas = [0, -0.0, ramp.phi, *alphas] + ([crossing] if crossing <= 1.0 else [])
    for header, columns, rows, write in (
        (ALPHA_SWEEP_COLUMNS, sweeps._alpha_columns(ramp, betas, alpha_step),
         alpha_sweep(ramp, betas, alpha_step), write_alpha_sweep),
        (LEVEL_SWEEP_COLUMNS, sweeps._level_columns(ramp, alphas, beta_e_max, step),
         beta_e_sweep(ramp, alphas, beta_e_max, step), write_beta_e_sweep),
    ):
        buffer = io.StringIO()
        write(rows, buffer)
        assert_same_text(sweeps._columns_csv(header, *columns), buffer.getvalue())


def test_sweeps_evaluate_each_distinct_share_once(demo_ramp, monkeypatch):
    ramp = demo_ramp
    shares = []

    def counting_social_delay(ramp, x_hat_b):
        shares.append(x_hat_b)
        return onramp.social_delay(ramp, x_hat_b)

    monkeypatch.setattr(sweeps, "social_delay", counting_social_delay)
    rows = beta_e_sweep(demo_ramp, alphas=[0.0, 0.3, ramp.phi], beta_e_max=4.0, step=0.01)
    assert len(rows) == 3 * 401 and len(shares) <= 2
    shares.clear()
    rows = alpha_sweep(demo_ramp, betas=[0.0, 0.2, 0.5, 1.0], alpha_step=0.01)
    assert len(rows) == 4 * 101
    assert sorted(shares) == sorted({row.x_hat_b for row in rows})
    for row in rows:
        assert row.j_soc == onramp.social_delay(ramp, row.x_hat_b)
