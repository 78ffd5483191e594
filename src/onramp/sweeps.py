"""Parameter sweeps over the altruistic ratio and the effective level, with CSV emission.

Each row comes from the case analysis that solve_equilibrium uses, with the
inputs checked once per outer value instead of once per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import IO, Iterable, Sequence

from .analysis import AnalysisSummary, require_meaningful
from .equilibrium import EquilibriumCase, _equilibrium_split, inclusive_grid
from .model import DelayCoefficients, DelayProfile, OnRampConfig
from .model import check_population, delays, social_delay

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
    delays: DelayProfile


@dataclass(frozen=True)
class LevelSweepRow:
    alpha: float
    beta_e: float
    x_hat_b: float
    case: EquilibriumCase
    j_soc: float
    delays: DelayProfile


def _sweep(row_type: type, config, derived, summary, outer, grid, population) -> list:
    """A ``row_type`` row per outer value and grid point, in that order.

    ``population(value, point)`` gives the (alpha, level) of a grid point.
    Each outer value is checked as solve_equilibrium checks it, paired with
    the grid's first point 0.0; the grid points are in range by construction.
    """
    phi, delta = summary.phi, summary.delta
    rows = []
    for value in outer:
        require_meaningful(summary)
        check_population(*population(value, 0.0))
        for point in grid:
            alpha, level = population(value, point)
            case, x_hat_b, _, _ = _equilibrium_split(phi, delta, alpha, level)
            j_soc = social_delay(config, derived, x_hat_b)
            rows.append(row_type(value, point, x_hat_b, case, j_soc, delays(derived, x_hat_b)))
    return rows


def sweep_alpha(
    config: OnRampConfig,
    derived: DelayCoefficients,
    summary: AnalysisSummary,
    betas: Sequence[float],
    alpha_step: float,
) -> list[AlphaSweepRow]:
    """One row per (beta, alpha) with alpha on a [0, 1] grid, error factor 1."""
    if not 0.0 < alpha_step <= 0.1:
        raise ValueError(f"alpha step must lie in (0, 0.1], got {alpha_step}")
    grid = inclusive_grid(0.0, 1.0, alpha_step)
    return _sweep(
        AlphaSweepRow, config, derived, summary, betas, grid, lambda beta, alpha: (alpha, beta)
    )


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
    if beta_e_max <= 0.0:
        raise ValueError(f"beta_e_max must be > 0, got {beta_e_max}")
    grid = inclusive_grid(0.0, beta_e_max, step)
    return _sweep(
        LevelSweepRow, config, derived, summary, alphas, grid, lambda alpha, level: (alpha, level)
    )


def _write_csv(rows: Iterable, stream: IO[str], columns: Sequence[str]) -> None:
    """Header line, then one line per row with each column read as a row attribute.

    Numbers are written in NUMBER_FORMAT, the ``case`` column as its label.
    """
    cells = attrgetter(*(name + ".value" if name == "case" else name for name in columns))
    line = ",".join("%s" if name == "case" else "%" + NUMBER_FORMAT for name in columns) + "\n"
    stream.write(",".join(columns) + "\n")
    stream.write("".join([line % cells(row) for row in rows]))


def write_alpha_sweep(rows: Iterable[AlphaSweepRow], stream: IO[str]) -> None:
    _write_csv(rows, stream, ALPHA_SWEEP_COLUMNS)


def write_beta_e_sweep(rows: Iterable[LevelSweepRow], stream: IO[str]) -> None:
    _write_csv(rows, stream, LEVEL_SWEEP_COLUMNS)
