"""Parameter sweeps over the altruistic ratio and the effective level, with CSV emission.

Every input is checked once, before any work.  One column kernel takes the case analysis per
run of cells: per outer value, a few runs of grid points that share one (x_hat_b, case, j_soc)
tail or take their own grid point's, their edges found by bisect or a scan.  alpha_sweep /
beta_e_sweep expand the runs into rows, and _columns_csv into the CLI's CSV text, each grid
point and tail formatted once and each run joined whole.  The library writers format the rows
they are given one cell at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import groupby, repeat
from operator import lt
from typing import IO, Iterable, NamedTuple, Sequence

from .analysis import _crossing, require_meaningful
from .equilibrium import _BASELINE, _CASE_B, _CASE_C, _CASE_D, EquilibriumCase
from .model import FLOAT_MAX, LEVEL_MAX, NUMBER_FORMAT, OnRamp, _new
from .model import check_population, positive, social_delay


class AlphaSweepRow(NamedTuple):
    beta: float
    alpha: float
    x_hat_b: float
    case: EquilibriumCase
    j_soc: float


class LevelSweepRow(NamedTuple):
    alpha: float
    beta_e: float
    x_hat_b: float
    case: EquilibriumCase
    j_soc: float


ALPHA_SWEEP_COLUMNS = AlphaSweepRow._fields
LEVEL_SWEEP_COLUMNS = LevelSweepRow._fields
MAX_GRID_POINTS = 10**6  # largest grid that is built; larger ones are refused


def inclusive_grid(lower: float, upper: float, step: float) -> list[float]:
    """Multiples of ``step`` from ``lower``, with ``upper`` always included, as a list."""
    if not step > 0.0 or upper < lower:  # a NaN bound is left to the finiteness check
        raise ValueError(f"grid [{lower}, {upper}] with step {step} needs lower <= upper, step > 0")
    span = (upper - lower) / step
    if not (math.isfinite(span) and math.isfinite(step)):
        raise ValueError(f"grid [{lower}, {upper}] with step {step} is not finite")
    steps = int(math.floor(span + 1e-9))
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"grid [{lower}, {upper}] with step {step} has more than"
                         f" {MAX_GRID_POINTS} points")
    grid = [lower + i * step for i in range(steps + 1)]
    if grid[-1] > upper:
        grid[-1] = upper
    elif upper - grid[-1] > 1e-12:
        grid.append(upper)
    return grid


def _checked_outer(ramp, outer, name: str) -> list:
    """The outer values as floats, each checked as solve checks ``name``; none, no membership."""
    values = list(outer)
    if values:
        require_meaningful(ramp)
    taken = 0 if name == "alpha" else 1  # a beta at error factor 1 is its own level
    return [check_population(**{name: value})[taken] for value in values]


def _sweep_columns(ramp, values, grid, levels_on_grid: bool) -> tuple[list, tuple, list]:
    """(tails, aligned, columns): each outer value's column as nonempty runs (start, stop, k).

    The cells grid[start:stop] share the tail tails[k] = (x_hat_b, case, j_soc), or, where k is
    None, take their own: with aligned = (first, case, shares, j_socs), grid point first + i
    has (shares[i], case, j_socs[i]).  It must equal _equilibrium_split, whose tie rules it
    restates per run on a grid ascending from 0.0: BASELINE at value 0.0 or -0.0 and grid index
    0, CASE_B where alpha <= phi, CASE_C where alpha < crossing(level), else CASE_D.  The own
    tails are CASE_C on the alpha grid and CASE_D on the level grid.  bisect finds the edges,
    or a scan where the level crossings do not rise strictly (they tie or jitter in floats at
    levels of 1e17 or more, or delta a few ulps above phi); a level whose CASE_D tail no cell
    takes then holds a NaN j_soc.  Each crossing, tail and j_soc is made once, where a cell uses
    it; the CASE_D j_socs skip the cache if the crossings rise strictly, missing phi and alphas.
    """
    phi, delta, size = ramp.phi, ramp.delta, len(grid)
    tails, j_socs, columns = [], {}, []

    def j_soc(ramp, x_hat_b) -> float:  # social_delay through the cache
        if x_hat_b not in j_socs:
            j_socs[x_hat_b] = social_delay(ramp, x_hat_b)
        return j_socs[x_hat_b]

    def tail(x_hat_b, case) -> int:
        tails.append((x_hat_b, case, j_soc(ramp, x_hat_b)))
        return len(tails) - 1

    if not values:
        return tails, (0, _CASE_D, [], []), columns
    base, case_b = tail(phi, _BASELINE), tail(phi, _CASE_B)
    if levels_on_grid:
        active = [alpha for alpha in values if alpha > phi]
        crossings = [_crossing(phi, delta, level) for level in grid[1:]] if active else []
        top = max(active, default=phi)
        ordered = all(map(lt, crossings, crossings[1:]))  # and so no two shares equal
        # ordered, the levels whose CASE_D tail a cell takes come first
        shares = crossings[:bisect_right(crossings, top)] if ordered else crossings
        if ordered and {phi, *active}.isdisjoint(shares):  # no cache needed
            d_socs = [social_delay(ramp, x) for x in shares]
        else:
            d_socs = [j_soc(ramp, x) if x <= top else math.nan for x in shares]
        for alpha in values:
            if alpha <= phi:  # alpha 0.0 too, as phi > 0
                runs = [(0, size, base)] if alpha == 0.0 else [(0, 1, base), (1, size, case_b)]
            elif ordered:  # CASE_D up to the last crossing <= alpha, then CASE_C
                d_end = bisect_right(crossings, alpha) + 1
                runs = [(0, 1, base), (1, d_end, None),
                        (d_end, size, tail(alpha, _CASE_C) if d_end < size else None)]
            else:
                c = tail(alpha, _CASE_C) if alpha < max(crossings) else None
                runs = [(0, 1, base)]
                for is_c, run in groupby(map(lt, repeat(alpha), crossings)):
                    runs.append((runs[-1][1], runs[-1][1] + len([*run]), c if is_c else None))
            columns.append([run for run in runs if run[0] < run[1]])
        return tails, (1, _CASE_D, shares, d_socs), columns
    b_end = bisect_right(grid, phi, 1)
    alphas, c_socs = [], []  # the grid alphas from b_end whose CASE_C tail is made
    for level in values:
        if level == 0.0:
            columns.append([(0, size, base)])
            continue
        crossing = _crossing(phi, delta, level)
        c_end = bisect_left(grid, crossing, b_end)
        if c_end > b_end + len(alphas):
            alphas = grid[b_end:c_end]
            c_socs += [j_soc(ramp, x) for x in alphas[len(c_socs):]]
        d = tail(crossing, _CASE_D) if c_end < size else None
        runs = [(0, 1, base), (1, b_end, case_b), (b_end, c_end, None), (c_end, size, d)]
        columns.append([run for run in runs if run[0] < run[1]])
    return tails, (b_end, _CASE_C, alphas, c_socs), columns


def _alpha_columns(ramp, betas, alpha_step) -> tuple:
    """(betas, alpha grid, tails, aligned, columns) of alpha_sweep, for its rows and the CLI."""
    betas = _checked_outer(ramp, betas, "beta")
    alpha_step = positive("alpha step", alpha_step, most=0.1)
    grid = inclusive_grid(0.0, 1.0, alpha_step)
    return betas, grid, *_sweep_columns(ramp, betas, grid, levels_on_grid=False)


def _level_columns(ramp, alphas, beta_e_max, step) -> tuple:
    """(alphas, level grid, tails, aligned, columns) of beta_e_sweep, for its rows and the CLI."""
    alphas = _checked_outer(ramp, alphas, "alpha")
    beta_e_max = positive("beta_e_max", beta_e_max)
    if LEVEL_MAX < beta_e_max <= FLOAT_MAX:
        raise ValueError(f"beta_e_max = {beta_e_max} exceeds the level bound {LEVEL_MAX}")
    grid = inclusive_grid(0.0, beta_e_max, positive("step", step))
    return alphas, grid, *_sweep_columns(ramp, alphas, grid, levels_on_grid=True)


def _columns_csv(header, values, grid, tails, aligned, columns) -> str:
    """A sweep's CSV: the points and each list of tails formatted in one pass, runs joined."""
    number = "%" + NUMBER_FORMAT
    points = (f",{number},\n" * len(grid) % tuple(grid)).split("\n")
    tail = f"{number},%s,{number}\n"
    texts = [tail % (x, case._value_, j) for x, case, j in tails]
    first, case, shares, j_socs = aligned  # each aligned tail formatted after its point
    cells = [None] * (3 * len(shares))  # interleaved by slice, with no tuple per cell
    cells[::3], cells[1::3], cells[2::3] = points[first:first + len(shares)], shares, j_socs
    cells = (("%s" + tail.replace("%s", case._value_)) * len(shares) % (*cells,)).splitlines(True)
    lines = [",".join(header) + "\n"]
    for value, runs in zip(values, columns):
        head = number % value  # starts each line: the first, and after each other's newline
        for start, stop, k in runs:
            if k is None:
                lines += head, head.join(cells[start - first:stop - first])
            else:
                lines += head, (texts[k] + head).join(points[start:stop]), texts[k]
    return "".join(lines)


def _rows(row_type, values, grid, tails, aligned, columns) -> list:
    first, case, shares, j_socs = aligned
    own, rows = [None] * first + list(zip(shares, repeat(case), j_socs)), []
    for value, runs in zip(values, columns):
        for start, stop, k in runs:
            cells = own[start:stop] if k is None else repeat(tails[k])
            rows += [_new(row_type, (value, point, *t)) for point, t in zip(grid[start:stop], cells)]
    return rows


def alpha_sweep(ramp: OnRamp, betas: Sequence[float], alpha_step: float) -> list[AlphaSweepRow]:
    """One row per (beta, alpha) with alpha on a [0, 1] grid, error factor 1."""
    return _rows(AlphaSweepRow, *_alpha_columns(ramp, betas, alpha_step))


def beta_e_sweep(
    ramp: OnRamp, alphas: Sequence[float], beta_e_max: float, step: float
) -> list[LevelSweepRow]:
    """One row per (alpha, beta_e) with the effective level on a [0, max] grid.

    The level is applied as the altruism level itself (error factor 1), which
    is equivalent to any (beta, error) pair with the same product.
    """
    return _rows(LevelSweepRow, *_level_columns(ramp, alphas, beta_e_max, step))


# perfbench's signatures, until perfbench calls the one-object forms
def sweep_alpha(config, derived, ramp, betas, alpha_step) -> list[AlphaSweepRow]:
    return alpha_sweep(ramp, betas, alpha_step)


def sweep_beta_e(config, derived, ramp, alphas, beta_e_max, step) -> list[LevelSweepRow]:
    return beta_e_sweep(ramp, alphas, beta_e_max, step)


def _write_rows(rows: Iterable[tuple], stream: IO[str], row_type: type) -> None:
    """Header line, then one line per row: numbers in NUMBER_FORMAT, the case as its label.

    The first row must be a row_type: the other sweep's rows, or plain tuples,
    would otherwise be written under this header.
    """
    rows = list(rows)
    if rows and not isinstance(rows[0], row_type):
        raise TypeError(f"expected {row_type.__name__} rows, got {type(rows[0]).__name__}")
    f = NUMBER_FORMAT
    lines = [",".join(row_type._fields) + "\n"]
    lines += [f"{v:{f}},{p:{f}},{x:{f}},{c.value},{j:{f}}\n" for v, p, x, c, j in rows]
    stream.write("".join(lines))


def write_alpha_sweep(rows: Iterable[AlphaSweepRow], stream: IO[str]) -> None:
    _write_rows(rows, stream, AlphaSweepRow)


def write_beta_e_sweep(rows: Iterable[LevelSweepRow], stream: IO[str]) -> None:
    _write_rows(rows, stream, LevelSweepRow)
