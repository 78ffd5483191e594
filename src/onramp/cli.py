"""Command line front end.

Exit codes: 0 success, 1 input error (flags or config file), 2 configuration
outside the meaningful set where membership is required, 3 oracle
verification mismatch.

`main` sends a known command straight to its own parser.  `onramp -h`, a
missing or unknown command and options before the command go through the
top-level parser, which also reports arguments that the command's parser
leaves unrecognized.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import ErrorInterval, require_meaningful, worst_case_regime
from .equilibrium import best_response_dynamics, brute_force_equilibrium, solve, verify_wardrop
from .errors import ConfigError, DegenerateConfigError, NotInMeaningfulSetError
from .model import _CONSTANTS, OnRamp, load_config
from .robustness import grid_optimal_beta, optimal_beta, poa, worst_case_social_delay
from .sweeps import ALPHA_SWEEP_COLUMNS, LEVEL_SWEEP_COLUMNS, _alpha_columns, _columns_csv
from .sweeps import _level_columns, format_number as fmt

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_MEANINGFUL = 2
EXIT_VERIFY_FAILED = 3

DEFAULT_SWEEP_BETAS = (0.2, 0.5, 1.0)
DEFAULT_SWEEP_ALPHAS = (0.63, 0.8)
# the model's fields that analyze prints first, in field order
_ANALYZE_FIELDS = ("n0", "n2", *_CONSTANTS, "phi", "delta", "pi", "j_opt", "j_soc_at_phi")
_INTERVAL_FIELDS = ("e_lower", "e_upper")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subparsers action's map of command to parser."""
    # `onramp -h` shows the docstring without its last paragraph, which is on parsing
    parser = _Parser(prog="onramp", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.set_defaults(command=name, handler=handler)
        return cmd

    analyze_cmd = add("analyze", _cmd_analyze, "derived coefficients and structural quantities")
    analyze_cmd.add_argument("--e-lower", type=float, default=None)
    analyze_cmd.add_argument("--e-upper", type=float, default=None)

    eq_cmd = add(
        "equilibrium", _cmd_equilibrium, "closed-form equilibrium at one population point"
    )
    eq_cmd.add_argument("--alpha", type=float, required=True)
    eq_cmd.add_argument("--beta", type=float, required=True)
    eq_cmd.add_argument("--error", type=float, default=1.0)

    sa_cmd = add("sweep-alpha", _cmd_sweep_alpha, "CSV sweep of the altruistic ratio per level")
    sa_cmd.add_argument(
        "--beta", type=float, action="append", default=None,
        help=f"repeatable; default {list(DEFAULT_SWEEP_BETAS)}",
    )
    sa_cmd.add_argument("--step", type=float, default=0.01)
    sa_cmd.add_argument("--out", default=None, help="output path (default: stdout)")

    sb_cmd = add("sweep-beta-e", _cmd_sweep_beta_e, "CSV sweep of the effective level per ratio")
    sb_cmd.add_argument(
        "--alpha", type=float, action="append", default=None,
        help=f"repeatable; default {list(DEFAULT_SWEEP_ALPHAS)}",
    )
    sb_cmd.add_argument("--beta-e-max", type=float, default=4.0)
    sb_cmd.add_argument("--step", type=float, default=0.01)
    sb_cmd.add_argument("--out", default=None, help="output path (default: stdout)")

    poa_cmd = add("poa", _cmd_poa, "price of anarchy at a given level")
    poa_cmd.add_argument("--beta", type=float, required=True)
    poa_cmd.add_argument("--e-lower", type=float, required=True)
    poa_cmd.add_argument("--e-upper", type=float, required=True)
    poa_cmd.add_argument("--verify", action="store_true",
                         help="cross-check the closed form against the grid minimizer")

    ob_cmd = add("optimal-beta", _cmd_optimal_beta, "worst-case-optimal altruism level")
    ob_cmd.add_argument("--e-lower", type=float, required=True)
    ob_cmd.add_argument("--e-upper", type=float, required=True)
    ob_cmd.add_argument("--verify", action="store_true",
                        help="cross-check the closed form against the grid minimizer")

    ver_cmd = add("verify", _cmd_verify, "closed form vs. grid and dynamics oracles at one point")
    ver_cmd.add_argument("--alpha", type=float, default=0.8)
    ver_cmd.add_argument("--beta", type=float, default=1.0)
    ver_cmd.add_argument("--error", type=float, default=1.0)
    ver_cmd.add_argument("--step", type=float, default=1e-3, help="oracle grid step")
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """What ``parse_args`` gives, without the top-level pass for a known command."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args
    if argv and not argv[0].startswith("-"):
        # argparse's own wording of this message varies across Python releases
        parser.error(f"argument command: invalid choice: {argv[0]!r}"
                     f" (choose from {', '.join(map(repr, commands))})")
    return parser.parse_args(argv)


def _print(key, value):
    if isinstance(value, float):
        value = fmt(value)
    sys.stdout.write(f"{key} = {value}\n")


def _print_fields(record, prefix="", names=None):
    """Print a record's fields, all of a NamedTuple's in field order unless named."""
    for name in names or record._fields:
        _print(prefix + name, getattr(record, name))


def _interval(args) -> ErrorInterval:
    try:
        return ErrorInterval(args.e_lower, args.e_upper)
    except ValueError as exc:
        raise ConfigError(f"invalid error interval: {exc}") from exc


def _cmd_analyze(args, ramp) -> int:
    _print_fields(ramp, names=_ANALYZE_FIELDS)
    _print("decrease_alpha_above", ramp.decrease_interval[0])
    _print("optimize_alpha_from", ramp.optimize_interval[0])
    _print("meaningful_set", "true" if ramp.in_meaningful_set else "false")
    if not ramp.in_meaningful_set:
        _print("exclusion_reason", ramp.exclusion_reason)
        return EXIT_NOT_MEANINGFUL
    if args.e_lower is not None or args.e_upper is not None:
        if args.e_lower is None or args.e_upper is None:
            raise ConfigError("--e-lower and --e-upper must be given together")
        _print("regime", worst_case_regime(ramp.pi, _interval(args)).value)
    return EXIT_OK


def _cmd_equilibrium(args, ramp) -> int:
    result = solve(ramp, args.alpha, args.beta, args.error)
    _print("case", result.case.value)
    _print("x_hat_b", result.x_hat_b)
    _print_fields(result.flow)
    _print_fields(result.delays, "delay_")
    _print("j_soc", result.social_delay)
    report = verify_wardrop(ramp, result.flow, args.beta, args.error)
    _print_fields(report, "wardrop_", result.flow._fields)
    _print("wardrop_pass", "true" if report.passed else "false")
    return EXIT_OK


def _write_sweep(path, text: str) -> int:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
    return EXIT_OK


def _cmd_sweep_alpha(args, ramp) -> int:
    sweep = _alpha_columns(ramp, args.beta or DEFAULT_SWEEP_BETAS, args.step)
    return _write_sweep(args.out, _columns_csv(ALPHA_SWEEP_COLUMNS, *sweep))


def _cmd_sweep_beta_e(args, ramp) -> int:
    sweep = _level_columns(ramp, args.alpha or DEFAULT_SWEEP_ALPHAS, args.beta_e_max, args.step)
    return _write_sweep(args.out, _columns_csv(LEVEL_SWEEP_COLUMNS, *sweep))


def _print_worst_case(points):
    for index, point in enumerate(points):
        sys.stdout.write(
            f"worst_case[{index}] = error={fmt(point.error)}"
            f" alpha={fmt(point.alpha)} x_hat_b={fmt(point.x_hat_b)} j_soc={fmt(point.j_soc)}\n"
        )


def _print_summary(result) -> None:
    _print("beta_star", result.beta_star)
    _print("branch", result.branch.value)
    _print("poa_at_beta_star", result.poa)
    if result.transition_level_at_full_altruism is not None:
        _print("transition_level_at_full_altruism", result.transition_level_at_full_altruism)


def _verify_beta_star(ramp, interval, beta_star) -> int:
    sampled = grid_optimal_beta(ramp, interval, beta_grid_step=1e-3, inner_grid_step=1e-2)
    gap = abs(beta_star - sampled)
    _print("grid_beta_star", sampled)
    _print("grid_beta_star_gap", gap)
    return _verdict(gap <= 2e-3)


def _verdict(ok: bool) -> int:
    _print("verify_pass", "true" if ok else "false")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_poa(args, ramp) -> int:
    interval = _interval(args)
    supremum, points = worst_case_social_delay(ramp, args.beta, interval)
    _print("beta", args.beta)
    _print_fields(interval, names=_INTERVAL_FIELDS)
    _print("j_opt", ramp.j_opt)
    _print("worst_case_j_soc", supremum)
    _print("poa", poa(ramp, args.beta, interval))
    _print_worst_case(points)
    result = optimal_beta(ramp, interval)
    _print_summary(result)
    if args.verify:
        return _verify_beta_star(ramp, interval, result.beta_star)
    return EXIT_OK


def _cmd_optimal_beta(args, ramp) -> int:
    interval = _interval(args)
    result = optimal_beta(ramp, interval)
    _print_fields(interval, names=_INTERVAL_FIELDS)
    _print("j_opt", ramp.j_opt)
    _print_summary(result)
    _print_worst_case(result.worst_case_points)
    if args.verify:
        return _verify_beta_star(ramp, interval, result.beta_star)
    return EXIT_OK


def _cmd_verify(args, ramp) -> int:
    result = solve(ramp, args.alpha, args.beta, args.error)
    candidates = brute_force_equilibrium(
        ramp, args.alpha, args.beta, args.error, grid_step=args.step
    )
    _print("closed_form_x_hat_b", result.x_hat_b)
    _print("case", result.case.value)
    _print("brute_force_count", len(candidates))
    ok = bool(candidates)
    if candidates:
        closest = min(candidates, key=lambda flow: abs(flow.total_bypass - result.x_hat_b))
        gap = abs(closest.total_bypass - result.x_hat_b)
        _print("brute_force_closest", closest.total_bypass)
        _print("brute_force_gap", gap)
        ok = gap <= 2.0 * args.step
    trace = best_response_dynamics(ramp, args.alpha, args.beta, args.error, tol=1e-10)
    dynamics_x = trace.flow.total_bypass
    dynamics_gap = abs(dynamics_x - result.x_hat_b)
    _print("dynamics_x_hat_b", dynamics_x)
    _print("dynamics_gap", dynamics_gap)
    _print("dynamics_iterations", trace.iterations)
    _print("dynamics_converged", "true" if trace.converged else "false")
    ok &= trace.converged and dynamics_gap <= 1e-9
    report = verify_wardrop(ramp, result.flow, args.beta, args.error)
    _print("wardrop_max_product", report.max_product)
    return _verdict(ok and report.passed)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        ramp = OnRamp.from_config(load_config(args.config))
        if args.command != "analyze" and not ramp.in_meaningful_set:
            print("meaningful_set = false", file=sys.stderr)
            print(f"exclusion_reason = {ramp.exclusion_reason}", file=sys.stderr)
            require_meaningful(ramp)
        return args.handler(args, ramp)
    except (NotInMeaningfulSetError, DegenerateConfigError) as exc:
        print(f"onramp: configuration outside the meaningful set: {exc}", file=sys.stderr)
        return EXIT_NOT_MEANINGFUL
    except (ValueError, OSError) as exc:
        print(f"onramp: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
