"""Command line front end.

Exit codes: 0 success, 1 input error (flags or config file), 2 configuration
outside the meaningful set where membership is required, 3 oracle
verification mismatch.

Each command's flags are declared once, in `_COMMANDS`.  `main` reads
`<command> (--flag value | --switch)*` in one plain pass over that table, with
each flag exact and once, each value of its flag's type and not starting with
`-`, and every required flag.  Other argv, such as `-h`, `--flag=value` or
`--alp`, goes to argparse, which is imported and built from it only then.
The handlers reach `equilibrium`, `robustness` and `sweeps` through the
package, which imports each on first use, so a command loads only those it runs.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
from types import SimpleNamespace
from typing import NamedTuple

import onramp

from .analysis import ErrorInterval, require_meaningful, worst_case_regime
from .errors import ConfigError, DegenerateConfigError, NotInMeaningfulSetError
from .model import _CONSTANTS, NUMBER_FORMAT, OnRamp, format_number as fmt, load_config

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_MEANINGFUL = 2
EXIT_VERIFY_FAILED = 3

DEFAULT_SWEEP_BETAS = (0.2, 0.5, 1.0)
DEFAULT_SWEEP_ALPHAS = (0.63, 0.8)
# the model's fields that analyze prints first, in field order
_ANALYZE_FIELDS = ("n0", "n2", *_CONSTANTS, "phi", "delta", "pi", "j_opt", "j_soc_at_phi")


class _Flag(NamedTuple):
    """A command's flag, as argparse's add_argument takes it; its dest is the option's."""

    option: str
    type: type | None = float
    default: object = None
    required: bool = False
    action: str = "store"  # or "append", or "store_true" (whose type is None)
    help: str | None = None


def _print(key, value):
    if isinstance(value, float):
        sys.stdout.write(f"{key} = {value:{NUMBER_FORMAT}}\n")
    else:
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
    interval = None  # checked before anything is printed, as every other command's flags
    if args.e_lower is not None or args.e_upper is not None:
        if args.e_lower is None or args.e_upper is None:
            raise ConfigError("--e-lower and --e-upper must be given together")
        interval = _interval(args)
    _print_fields(ramp, names=_ANALYZE_FIELDS)
    _print("decrease_alpha_above", ramp.decrease_interval[0])
    _print("optimize_alpha_from", ramp.optimize_interval[0])
    _print("meaningful_set", "true" if ramp.in_meaningful_set else "false")
    if not ramp.in_meaningful_set:
        _print("exclusion_reason", ramp.exclusion_reason)
        return EXIT_NOT_MEANINGFUL
    if interval is not None:
        _print("regime", worst_case_regime(ramp.pi, interval).value)
    return EXIT_OK


def _cmd_equilibrium(args, ramp) -> int:
    result = onramp.equilibrium.solve(ramp, args.alpha, args.beta, args.error)
    _print("case", result.case.value)
    _print("x_hat_b", result.x_hat_b)
    _print_fields(result.flow)
    _print_fields(result.delays, "delay_")
    _print("j_soc", result.social_delay)
    report = onramp.equilibrium.verify_wardrop(ramp, result.flow, args.beta, args.error)
    _print_fields(report, "wardrop_", result.flow._fields)
    _print("wardrop_pass", "true" if report.passed else "false")
    return EXIT_OK


def _write_sweep(path, text: str) -> int:
    """Write ``text`` to stdout, or over the file at ``path`` and then cut it to length.

    The file is not truncated to zero first: on ext4, closing a file that was truncated to
    zero, or renaming a new file over it, starts its writeback, which cost a third of an
    in-process ``sweep-alpha``.  /dev/null or a pipe is written and not cut.
    """
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as stream:
        stream.write(text.encode())
        if stat.S_ISREG(os.fstat(fd).st_mode):
            stream.truncate()
    return EXIT_OK


def _cmd_sweep_alpha(args, ramp) -> int:
    sweeps = onramp.sweeps
    sweep = sweeps._alpha_columns(ramp, args.beta or DEFAULT_SWEEP_BETAS, args.step)
    return _write_sweep(args.out, sweeps._columns_csv(sweeps.ALPHA_SWEEP_COLUMNS, *sweep))


def _cmd_sweep_beta_e(args, ramp) -> int:
    sweeps = onramp.sweeps
    sweep = sweeps._level_columns(
        ramp, args.alpha or DEFAULT_SWEEP_ALPHAS, args.beta_e_max, args.step)
    return _write_sweep(args.out, sweeps._columns_csv(sweeps.LEVEL_SWEEP_COLUMNS, *sweep))


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
    sampled = onramp.robustness.grid_optimal_beta(
        ramp, interval, beta_grid_step=1e-3, inner_grid_step=1e-2)
    gap = abs(beta_star - sampled)
    _print("grid_beta_star", sampled)
    _print("grid_beta_star_gap", gap)
    return _verdict(gap <= 2e-3)


def _verdict(ok: bool) -> int:
    _print("verify_pass", "true" if ok else "false")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_poa(args, ramp) -> int:
    robustness = onramp.robustness
    interval = _interval(args)
    supremum, points = robustness.worst_case_social_delay(ramp, args.beta, interval)
    _print("beta", args.beta)
    _print_fields(interval, names=interval.__slots__)
    _print("j_opt", ramp.j_opt)
    _print("worst_case_j_soc", supremum)
    robustness.require_positive_optimum(ramp)
    _print("poa", supremum / ramp.j_opt)
    _print_worst_case(points)
    result = robustness.optimal_beta(ramp, interval)
    _print_summary(result)
    if args.verify:
        return _verify_beta_star(ramp, interval, result.beta_star)
    return EXIT_OK


def _cmd_optimal_beta(args, ramp) -> int:
    interval = _interval(args)
    result = onramp.robustness.optimal_beta(ramp, interval)
    _print_fields(interval, names=interval.__slots__)
    _print("j_opt", ramp.j_opt)
    _print_summary(result)
    _print_worst_case(result.worst_case_points)
    if args.verify:
        return _verify_beta_star(ramp, interval, result.beta_star)
    return EXIT_OK


def _cmd_verify(args, ramp) -> int:
    equilibrium = onramp.equilibrium
    result = equilibrium.solve(ramp, args.alpha, args.beta, args.error)
    candidates = equilibrium.brute_force_equilibrium(
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
    trace = equilibrium.best_response_dynamics(ramp, args.alpha, args.beta, args.error, tol=1e-10)
    dynamics_x = trace.flow.total_bypass
    dynamics_gap = abs(dynamics_x - result.x_hat_b)
    _print("dynamics_x_hat_b", dynamics_x)
    _print("dynamics_gap", dynamics_gap)
    _print("dynamics_iterations", trace.iterations)
    _print("dynamics_converged", "true" if trace.converged else "false")
    ok &= trace.converged and dynamics_gap <= 1e-9
    report = equilibrium.verify_wardrop(ramp, result.flow, args.beta, args.error)
    _print("wardrop_max_product", report.max_product)
    return _verdict(ok and report.passed)


_CONFIG = _Flag("--config", str, required=True, help="path to a JSON config file")
_SWEEP = (_Flag("--step", default=0.01), _Flag("--out", str, help="output path (default: stdout)"))
_VERIFY = _Flag("--verify", None, False, action="store_true",
                help="cross-check the closed form against the grid minimizer")
_INTERVAL = (_Flag("--e-lower", required=True), _Flag("--e-upper", required=True), _VERIFY)
# per command, in the order of `onramp -h`: its handler, its help and its flags in usage order
_COMMANDS = {
    "analyze": (_cmd_analyze, "derived coefficients and structural quantities",
                (_CONFIG, _Flag("--e-lower"), _Flag("--e-upper"))),
    "equilibrium": (_cmd_equilibrium, "closed-form equilibrium at one population point", (
        _CONFIG, _Flag("--alpha", required=True), _Flag("--beta", required=True),
        _Flag("--error", default=1.0))),
    "sweep-alpha": (_cmd_sweep_alpha, "CSV sweep of the altruistic ratio per level", (
        _CONFIG, _Flag("--beta", action="append",
                       help=f"repeatable; default {list(DEFAULT_SWEEP_BETAS)}"), *_SWEEP)),
    "sweep-beta-e": (_cmd_sweep_beta_e, "CSV sweep of the effective level per ratio", (
        _CONFIG, _Flag("--alpha", action="append",
                       help=f"repeatable; default {list(DEFAULT_SWEEP_ALPHAS)}"),
        _Flag("--beta-e-max", default=4.0), *_SWEEP)),
    "poa": (_cmd_poa, "price of anarchy at a given level",
            (_CONFIG, _Flag("--beta", required=True), *_INTERVAL)),
    "optimal-beta": (_cmd_optimal_beta, "worst-case-optimal altruism level", (_CONFIG, *_INTERVAL)),
    "verify": (_cmd_verify, "closed form vs. grid and dynamics oracles at one point", (
        _CONFIG, _Flag("--alpha", default=0.8), _Flag("--beta", default=1.0),
        _Flag("--error", default=1.0), _Flag("--step", default=1e-3, help="oracle grid step"))),
}
# per command, its handler and each flag by option with the dest argparse derives from it
_LOOKUP = {
    name: (handler, {flag.option: (flag, flag.option[2:].replace("-", "_")) for flag in flags})
    for name, (handler, _, flags) in _COMMANDS.items()
}


@functools.cache
def _build_parser():
    """The top-level parser, with one subparser per command."""
    import argparse  # only -h and malformed argv need it: see the module docstring

    class _Parser(argparse.ArgumentParser):
        """Argument parser that reports usage problems with exit code 1."""

        def error(self, message):
            self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    # `onramp -h` shows the docstring without its last paragraph, which is on parsing
    parser = _Parser(prog="onramp", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in flags:  # a None is add_argument's own default, and store_true takes no type
            kwargs = {key: value for key, value in flag._asdict().items() if value is not None}
            cmd.add_argument(kwargs.pop("option"), **kwargs)
        cmd.set_defaults(command=name, handler=handler)
    return parser


def _plain(argv):
    """``parse_args``' namespace for a well-formed ``argv`` (see the module docstring), or None."""
    if not argv or argv[0] not in _LOOKUP:
        return None
    handler, known = _LOOKUP[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for option in tokens:
        entry = known.get(option)
        if entry is None:
            return None
        flag, dest = entry
        if dest in given:
            return None
        if flag.action == "store_true":
            given[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            given[dest] = [flag.type(value)] if flag.action == "append" else flag.type(value)
        except ValueError:
            return None
    if any(flag.required and dest not in given for flag, dest in known.values()):
        return None
    return SimpleNamespace(command=argv[0], handler=handler, **{
        dest: given.get(dest, flag.default) for flag, dest in known.values()})


def _parse(argv):
    """What ``parse_args`` gives, from the plain pass when ``argv`` is well formed."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv)
    if args is not None:
        return args
    parser = _build_parser()
    if argv and argv[0] not in _COMMANDS and not argv[0].startswith("-"):
        # argparse's own wording of this message varies across Python releases
        parser.error(f"argument command: invalid choice: {argv[0]!r}"
                     f" (choose from {', '.join(map(repr, _COMMANDS))})")
    return parser.parse_args(argv)


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
