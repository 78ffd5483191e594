"""Parameter sweeps over the altruistic ratio and the effective level, with CSV emission.

Every input is checked once, before any work.  One column kernel takes the case analysis
per run of cells: the distinct (x_hat_b, case, j_soc) tails, and per outer value a tail
index per grid point.  alpha_sweep / beta_e_sweep build rows from it, and _columns_csv the
CLI's CSV text, each grid point and tail formatted once.  The library writers format the
rows they are given one cell at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count, repeat
from operator import add, lt
from typing import IO, Iterable, NamedTuple, Sequence

from .analysis import _crossing, require_meaningful
from .equilibrium import _BASELINE, _CASE_B, _CASE_C, _CASE_D, EquilibriumCase, inclusive_grid
from .model import FLOAT_MAX, LEVEL_MAX, NUMBER_FORMAT, OnRamp
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


def _checked_outer(ramp, outer, name: str) -> list:
    """The outer values as floats, each checked as solve checks ``name``; none, no membership."""
    values = list(outer)
    if values:
        require_meaningful(ramp)
    taken = 0 if name == "alpha" else 1  # a beta at error factor 1 is its own level
    return [check_population(**{name: value})[taken] for value in values]


def _sweep_columns(ramp, values, grid, levels_on_grid: bool) -> tuple[list, list]:
    """The distinct (x_hat_b, case, j_soc) tails, and per value a tail index per grid point.

    It must equal _equilibrium_split, whose tie rules it restates per run of cells on a grid
    (of levels or alphas) ascending from 0.0: BASELINE at value 0.0 or -0.0 and grid index 0,
    CASE_B where alpha <= phi, CASE_C where alpha < crossing(level), else CASE_D.  Made once,
    and only where a cell uses it: each crossing and CASE_D tail per level, each CASE_C tail
    per alpha, each j_soc per share.  A level grid's CASE_D tails are made in one pass, with
    no cache lookup, when sorting their shares with phi and the alphas finds no two equal;
    otherwise each share goes through the cache.  An alpha at or above every crossing takes
    the CASE_D tail at every level, with no comparison.
    """
    phi, delta = ramp.phi, ramp.delta
    tails, j_socs, columns = [], {}, []

    def tail(x_hat_b, case) -> int:
        j_soc = j_socs.get(x_hat_b)
        if j_soc is None:
            j_soc = j_socs[x_hat_b] = social_delay(ramp, x_hat_b)
        tails.append((x_hat_b, case, j_soc))
        return len(tails) - 1

    if not values:
        return tails, columns
    base, case_b, size = tail(phi, _BASELINE), tail(phi, _CASE_B), len(grid)
    if levels_on_grid:
        active = [alpha for alpha in values if alpha > phi]
        if active:
            crossings = [_crossing(phi, delta, level) for level in grid[1:]]
            top, peak = max(active), max(crossings)
            shares = [x for x in crossings if x <= top]  # each level's CASE_D share, if used
            known = sorted([*shares, *{phi, *active}])
            if all(map(lt, known, known[1:])):  # no share is another's, phi or an alpha's
                index = count(len(tails))
                tails += zip(shares, repeat(_CASE_D), [social_delay(ramp, x) for x in shares])
                d_tails = [next(index) if x <= top else None for x in crossings]
            else:
                d_tails = [tail(x, _CASE_D) if x <= top else None for x in crossings]
        for alpha in values:
            if alpha <= phi:  # alpha 0.0 too, as phi > 0
                column = [base if alpha == 0.0 else case_b] * (size - 1)
            elif alpha >= peak:  # CASE_D at every level
                column = d_tails
            else:
                c = tail(alpha, _CASE_C)
                column = [c if alpha < x else d for x, d in zip(crossings, d_tails)]
            columns.append([base, *column])
        return tails, columns
    b_end, c_tails = bisect_right(grid, phi, 1), []  # c_tails[i] is grid[b_end + i]'s
    for level in values:
        if level == 0.0:
            columns.append([base] * size)
            continue
        crossing = _crossing(phi, delta, level)
        c_end = bisect_left(grid, crossing, b_end)
        c_tails += [tail(alpha, _CASE_C) for alpha in grid[b_end + len(c_tails):c_end]]
        d = tail(crossing, _CASE_D) if c_end < size else None
        columns.append([base] + [case_b] * (b_end - 1) + c_tails[:c_end - b_end]
                       + [d] * (size - c_end))
    return tails, columns


def _alpha_columns(ramp, betas, alpha_step) -> tuple:
    """(betas, alpha grid, tails, columns) of alpha_sweep, for its rows and the CLI."""
    betas = _checked_outer(ramp, betas, "beta")
    alpha_step = positive("alpha step", alpha_step, most=0.1)
    grid = inclusive_grid(0.0, 1.0, alpha_step)
    return betas, grid, *_sweep_columns(ramp, betas, grid, levels_on_grid=False)


def _level_columns(ramp, alphas, beta_e_max, step) -> tuple:
    """(alphas, level grid, tails, columns) of beta_e_sweep, for its rows and the CLI."""
    alphas = _checked_outer(ramp, alphas, "alpha")
    beta_e_max = positive("beta_e_max", beta_e_max)
    if LEVEL_MAX < beta_e_max <= FLOAT_MAX:
        raise ValueError(f"beta_e_max = {beta_e_max} exceeds the level bound {LEVEL_MAX}")
    grid = inclusive_grid(0.0, beta_e_max, positive("step", step))
    return alphas, grid, *_sweep_columns(ramp, alphas, grid, levels_on_grid=True)


def _columns_csv(header, values, grid, tails, columns) -> str:
    """A sweep's CSV: grid points and tails formatted once (labels by ``_value_``), joined."""
    number = "%" + NUMBER_FORMAT
    points = [f",{number % point}," for point in grid]
    tail = f"{number},%s,{number}\n"
    texts = [tail % (x, case._value_, j) for x, case, j in tails]
    lines = [",".join(header) + "\n"]
    for value, column in zip(values, columns):
        head = number % value  # starts each line: the first, and after each other's newline
        lines += [head, head.join(map(add, points, map(texts.__getitem__, column)))]
    return "".join(lines)


def _rows(row_type, values, grid, tails, columns) -> list:
    return [row_type(value, point, *tails[k])
            for value, column in zip(values, columns) for point, k in zip(grid, column)]


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
