"""Parameter sweeps over the altruistic ratio and the effective level, with CSV emission.

Each row comes from the case analysis that solve uses, with the inputs checked
once, before any work: every outer value, then the grid arguments.  Each
distinct share is evaluated once.  A row holds exactly the CSV columns; the CLI
writes the cells without building rows, through a writer that formats each
distinct number once and never caches zeros (-0.0 == 0.0 but prints "-0").
"""

from __future__ import annotations

from typing import IO, Iterable, NamedTuple, Sequence

from .analysis import require_meaningful
from .equilibrium import EquilibriumCase, _equilibrium_split, inclusive_grid
from .model import FLOAT_MAX, LEVEL_MAX, OnRamp
from .model import check_float, check_population, social_delay

__all__ = [
    "AlphaSweepRow", "LevelSweepRow", "alpha_sweep", "beta_e_sweep", "sweep_alpha",
    "sweep_beta_e", "write_alpha_sweep", "write_beta_e_sweep",
]

NUMBER_FORMAT = ".12g"


def format_number(value: float) -> str:
    """CSV number format: 12 significant digits, below every tolerance in use."""
    return format(value, NUMBER_FORMAT)


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


def _by_beta(beta, alpha):
    return alpha, beta


def _by_alpha(alpha, level):
    return alpha, level


def _checked_outer(ramp, outer, population) -> list:
    """The outer values as a list, each checked as solve checks it at the grid's first point.

    ``population(value, point)`` gives the (alpha, level) of a grid point; the
    grid points are in range by construction.  No values, no membership check.
    """
    values = list(outer)
    if values:
        require_meaningful(ramp)
    for value in values:
        check_population(*population(value, 0.0))
    return values


def _sweep_cells(ramp, values, grid, population) -> list[tuple]:
    """A (value, point, x_hat_b, case, j_soc) cell per checked value and grid point, in order.

    Each share is phi, alpha or a crossing no larger than alpha, so in [0, 1].
    """
    phi, delta = ramp.phi, ramp.delta
    j_socs = {}  # each distinct share is evaluated once
    cells = []
    for value in values:
        for point in grid:
            alpha, level = population(value, point)
            case, x_hat_b, _, _ = _equilibrium_split(phi, delta, alpha, level)
            if x_hat_b not in j_socs:
                j_socs[x_hat_b] = social_delay(ramp, x_hat_b)
            cells.append((value, point, x_hat_b, case, j_socs[x_hat_b]))
    return cells


def _alpha_cells(ramp, betas, alpha_step) -> list[tuple]:
    """The cells of alpha_sweep; the CLI writes them without building rows."""
    betas = _checked_outer(ramp, betas, _by_beta)
    if not 0.0 < alpha_step <= 0.1:
        raise ValueError(f"alpha step must lie in (0, 0.1], got {alpha_step}")
    return _sweep_cells(ramp, betas, inclusive_grid(0.0, 1.0, alpha_step), _by_beta)


def _level_cells(ramp, alphas, beta_e_max, step) -> list[tuple]:
    """The cells of beta_e_sweep; the CLI writes them without building rows."""
    alphas = _checked_outer(ramp, alphas, _by_alpha)
    check_float("beta_e_max", beta_e_max)
    check_float("step", step)
    if beta_e_max <= 0.0:
        raise ValueError(f"beta_e_max must be > 0, got {beta_e_max}")
    if LEVEL_MAX < beta_e_max <= FLOAT_MAX:
        raise ValueError(f"beta_e_max = {beta_e_max} exceeds the level bound {LEVEL_MAX}")
    return _sweep_cells(ramp, alphas, inclusive_grid(0.0, beta_e_max, step), _by_alpha)


def alpha_sweep(ramp: OnRamp, betas: Sequence[float], alpha_step: float) -> list[AlphaSweepRow]:
    """One row per (beta, alpha) with alpha on a [0, 1] grid, error factor 1."""
    return [AlphaSweepRow(*cell) for cell in _alpha_cells(ramp, betas, alpha_step)]


def sweep_alpha(config, derived, ramp, betas, alpha_step) -> list[AlphaSweepRow]:
    return alpha_sweep(ramp, betas, alpha_step)  # perfbench's signature, until ROADMAP item 4


def beta_e_sweep(
    ramp: OnRamp, alphas: Sequence[float], beta_e_max: float, step: float
) -> list[LevelSweepRow]:
    """One row per (alpha, beta_e) with the effective level on a [0, max] grid.

    The level is applied as the altruism level itself (error factor 1), which
    is equivalent to any (beta, error) pair with the same product.
    """
    return [LevelSweepRow(*cell) for cell in _level_cells(ramp, alphas, beta_e_max, step)]


def sweep_beta_e(config, derived, ramp, alphas, beta_e_max, step) -> list[LevelSweepRow]:
    return beta_e_sweep(  # perfbench's signature, until ROADMAP item 4
        ramp, alphas, beta_e_max, step
    )


def _write_cells(cells: Sequence[tuple], stream: IO[str], columns: Sequence[str]) -> None:
    """Header line, then one line per (value, point, x_hat_b, case, j_soc) cell.

    Numbers are written in NUMBER_FORMAT, the case as its label.  Each outer value and
    case label is made once per run, each grid point and tail once per distinct value;
    cells holding an unhashable number, such as a 0-d numpy array, are formatted per cell.
    """
    number = "%" + NUMBER_FORMAT
    points, cases = {}, {}  # point -> text; case -> (label, {(x_hat_b, j_soc): tail})
    lines = [",".join(columns) + "\n"]
    value = run_case = object()
    try:
        for v, p, x, case, j in cells:
            if v is not value:
                value, head = v, number % v
            if case is not run_case:
                run_case, (label, tails) = case, cases.setdefault(case, (case.value, {}))
            point = points.get(p) if p else None
            if point is None:
                point = points[p] = number % p
            tail = tails.get((x, j)) if x and j else None
            if tail is None:
                tail = tails[x, j] = f"{number % x},{label},{number % j}\n"
            lines.append(f"{head},{point},{tail}")
    except TypeError:  # an unhashable number: no caches
        f = NUMBER_FORMAT
        lines[1:] = [f"{v:{f}},{p:{f}},{x:{f}},{c.value},{j:{f}}\n" for v, p, x, c, j in cells]
    stream.write("".join(lines))


def _write_rows(rows: Iterable[tuple], stream: IO[str], row_type: type) -> None:
    """The rows' cells under row_type's columns.

    The first row must be a row_type: the other sweep's rows, or plain tuples,
    would otherwise be written under this header.
    """
    rows = list(rows)
    if rows and not isinstance(rows[0], row_type):
        raise TypeError(f"expected {row_type.__name__} rows, got {type(rows[0]).__name__}")
    _write_cells(rows, stream, row_type._fields)


def write_alpha_sweep(rows: Iterable[AlphaSweepRow], stream: IO[str]) -> None:
    _write_rows(rows, stream, AlphaSweepRow)


def write_beta_e_sweep(rows: Iterable[LevelSweepRow], stream: IO[str]) -> None:
    _write_rows(rows, stream, LevelSweepRow)
