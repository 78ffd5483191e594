"""Parameter sweeps over the altruistic ratio and the effective level, with CSV emission."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import IO, Iterable, Sequence

from .analysis import AnalysisSummary
from .equilibrium import EquilibriumCase, inclusive_grid, solve_equilibrium
from .model import DelayCoefficients, DelayProfile, OnRampConfig

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


def _sweep(row_type: type, outer: Sequence[float], grid: list[float], solve) -> list:
    """A ``row_type`` row per outer value and grid point, in that order, from ``solve``."""
    rows = []
    for value in outer:
        for point in grid:
            result = solve(value, point)
            rows.append(
                row_type(
                    value, point, result.x_hat_b, result.case, result.social_delay, result.delays
                )
            )
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
    return _sweep(
        AlphaSweepRow,
        betas,
        inclusive_grid(0.0, 1.0, alpha_step),
        lambda beta, alpha: solve_equilibrium(config, derived, summary, alpha, beta),
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
    return _sweep(
        LevelSweepRow,
        alphas,
        inclusive_grid(0.0, beta_e_max, step),
        lambda alpha, level: solve_equilibrium(config, derived, summary, alpha, beta=level),
    )


def _write_csv(rows: Iterable, stream: IO[str], columns: Sequence[str]) -> None:
    """Header line, then one line per row with each column read as a row attribute.

    Numbers are written in NUMBER_FORMAT, the ``case`` column as its label.
    """
    stream.write(",".join(columns) + "\n")
    cells = attrgetter(*(name + ".value" if name == "case" else name for name in columns))
    formats = ["" if name == "case" else NUMBER_FORMAT for name in columns]
    for row in rows:
        stream.write(",".join(map(format, cells(row), formats)) + "\n")


def write_alpha_sweep(rows: Iterable[AlphaSweepRow], stream: IO[str]) -> None:
    _write_csv(rows, stream, ALPHA_SWEEP_COLUMNS)


def write_beta_e_sweep(rows: Iterable[LevelSweepRow], stream: IO[str]) -> None:
    _write_csv(rows, stream, LEVEL_SWEEP_COLUMNS)
