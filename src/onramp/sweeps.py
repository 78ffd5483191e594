"""Parameter sweeps over the altruistic ratio and the effective level, with CSV emission.

Each row comes from the case analysis that solve_equilibrium uses, with the
inputs checked once per outer value instead of once per grid point, and each
distinct share checked and evaluated once.  A row holds exactly the CSV columns;
the CLI writes the cells without building rows, through a writer that formats
each distinct number once and never caches zeros (-0.0 == 0.0 but prints "-0").
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import IO, Iterable, Sequence

from .analysis import AnalysisSummary, require_meaningful
from .equilibrium import EquilibriumCase, _equilibrium_split, inclusive_grid
from .model import FLOAT_MAX, LEVEL_MAX, DelayCoefficients, OnRampConfig
from .model import check_float, check_population, check_share, social_delay

ALPHA_SWEEP_COLUMNS = ("beta", "alpha", "x_hat_b", "case", "j_soc")
LEVEL_SWEEP_COLUMNS = ("alpha", "beta_e", "x_hat_b", "case", "j_soc")
NUMBER_FORMAT = ".12g"


def format_number(value: float) -> str:
    """CSV number format: 12 significant digits, below every tolerance in use."""
    return format(value, NUMBER_FORMAT)


@dataclass(frozen=True)
class AlphaSweepRow:
    beta: float
    alpha: float
    x_hat_b: float
    case: EquilibriumCase
    j_soc: float


@dataclass(frozen=True)
class LevelSweepRow:
    alpha: float
    beta_e: float
    x_hat_b: float
    case: EquilibriumCase
    j_soc: float


def _sweep_cells(config, derived, summary, outer, grid, population) -> list[tuple]:
    """A (value, point, x_hat_b, case, j_soc) cell per outer value and grid point, in order.

    ``population(value, point)`` gives the (alpha, level) of a grid point.
    Each outer value is checked as solve_equilibrium checks it, paired with
    the grid's first point 0.0; the grid points are in range by construction.
    """
    phi, delta = summary.phi, summary.delta
    j_socs = {}  # each distinct share is checked and evaluated once
    cells = []
    for value in outer:
        require_meaningful(summary)
        check_population(*population(value, 0.0))
        for point in grid:
            alpha, level = population(value, point)
            case, x_hat_b, _, _ = _equilibrium_split(phi, delta, alpha, level)
            if x_hat_b not in j_socs:
                check_share(x_hat_b)
                j_socs[x_hat_b] = social_delay(config, derived, x_hat_b)
            cells.append((value, point, x_hat_b, case, j_socs[x_hat_b]))
    return cells


def _alpha_cells(config, derived, summary, betas, alpha_step) -> list[tuple]:
    """The cells of sweep_alpha; the CLI writes them without building rows."""
    if not 0.0 < alpha_step <= 0.1:
        raise ValueError(f"alpha step must lie in (0, 0.1], got {alpha_step}")
    grid = inclusive_grid(0.0, 1.0, alpha_step)
    return _sweep_cells(config, derived, summary, betas, grid, lambda beta, alpha: (alpha, beta))


def _level_cells(config, derived, summary, alphas, beta_e_max, step) -> list[tuple]:
    """The cells of sweep_beta_e; the CLI writes them without building rows."""
    check_float("beta_e_max", beta_e_max)
    check_float("step", step)
    if beta_e_max <= 0.0:
        raise ValueError(f"beta_e_max must be > 0, got {beta_e_max}")
    if LEVEL_MAX < beta_e_max <= FLOAT_MAX:
        raise ValueError(f"beta_e_max = {beta_e_max} exceeds the level bound {LEVEL_MAX}")
    grid = inclusive_grid(0.0, beta_e_max, step)
    return _sweep_cells(config, derived, summary, alphas, grid, lambda alpha, level: (alpha, level))


def sweep_alpha(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    betas: Sequence[float],
    alpha_step: float,
) -> list[AlphaSweepRow]:
    """One row per (beta, alpha) with alpha on a [0, 1] grid, error factor 1."""
    cells = _alpha_cells(config, derived, summary, betas, alpha_step)
    return [AlphaSweepRow(*cell) for cell in cells]


def sweep_beta_e(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    alphas: Sequence[float],
    beta_e_max: float,
    step: float,
) -> list[LevelSweepRow]:
    """One row per (alpha, beta_e) with the effective level on a [0, max] grid.

    The level is applied as the altruism level itself (error factor 1), which
    is equivalent to any (beta, error) pair with the same product.
    """
    cells = _level_cells(config, derived, summary, alphas, beta_e_max, step)
    return [LevelSweepRow(*cell) for cell in cells]


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


def write_alpha_sweep(rows: Iterable[AlphaSweepRow], stream: IO[str]) -> None:
    _write_cells(list(map(attrgetter(*ALPHA_SWEEP_COLUMNS), rows)), stream, ALPHA_SWEEP_COLUMNS)


def write_beta_e_sweep(rows: Iterable[LevelSweepRow], stream: IO[str]) -> None:
    _write_cells(list(map(attrgetter(*LEVEL_SWEEP_COLUMNS), rows)), stream, LEVEL_SWEEP_COLUMNS)
