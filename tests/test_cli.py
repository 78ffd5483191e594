"""End-to-end tests of the command-line interface and its exit-code contract."""

import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import onramp
from onramp import sweeps
from onramp.analysis import _crossing
from onramp.cli import DEFAULT_SWEEP_ALPHAS, DEFAULT_SWEEP_BETAS, _COMMANDS, _build_parser, _parse
from onramp.cli import _verify_beta_star, main
from onramp.equilibrium import EquilibriumCase
from onramp.sweeps import inclusive_grid
from onramp.model import CONFIG_KEYS, cost_gaps

from conftest import DEMO_VALUES, FLAT_MINIMUM_VALUES, assert_same_text, meaningful_configs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            values[key] = value
    return values


def write_config(tmp_path, values, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(values), encoding="utf-8")
    return str(path)


def test_analyze_demo_config(capsys, demo_config_file):
    code, out, _ = run_cli(capsys, "analyze", "--config", str(demo_config_file))
    assert code == 0
    values = parse_kv(out)
    assert values["meaningful_set"] == "true"
    assert float(values["phi"]) == pytest.approx(0.5401568346061195, abs=1e-9)
    assert float(values["delta"]) == pytest.approx(0.6047119573573881, abs=1e-9)
    assert float(values["pi"]) == pytest.approx(-1.3903761547080171, abs=1e-9)
    assert float(values["steadfast_slope"]) == pytest.approx(10.281, abs=1e-9)


def test_analyze_with_interval_reports_regime(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "analyze", "--config", str(demo_config_file),
        "--e-lower", "0.5", "--e-upper", "2.0",
    )
    assert code == 0
    assert parse_kv(out)["regime"] == "endpoint_symmetric"


def test_analyze_outside_set_exits_two(capsys, tmp_path):
    values = dict(DEMO_VALUES, n0=1.0, gamma=0.0)
    code, out, _ = run_cli(capsys, "analyze", "--config", write_config(tmp_path, values))
    assert code == 2
    printed = parse_kv(out)
    assert printed["meaningful_set"] == "false"
    assert "exclusion_reason" in printed


def test_analyze_partial_interval_exits_one(capsys, demo_config_file):
    code, out, err = run_cli(
        capsys, "analyze", "--config", str(demo_config_file), "--e-lower", "0.5"
    )
    assert code == 1
    assert out == ""
    assert "together" in err


@pytest.mark.parametrize("bounds, message", [
    (("--e-lower", "0.5"), "--e-lower and --e-upper must be given together"),
    (("--e-lower", "2", "--e-upper", "0.5"),
     "invalid error interval: need 0 < e_lower <= e_upper, got (2.0, 0.5)"),
])
def test_analyze_checks_its_interval_before_the_meaningful_set(capsys, tmp_path, bounds, message):
    """An excluded config with a bad interval exits 1, the input error, with nothing printed:
    the flags are checked before any output, and before the exit 2 of an excluded config."""
    config = write_config(tmp_path, dict(DEMO_VALUES, n0=1.0, gamma=0.0))
    code, out, err = run_cli(capsys, "analyze", "--config", config, *bounds)
    assert (code, out, err) == (1, "", f"onramp: error: {message}\n")
    code, out, _ = run_cli(capsys, "analyze", "--config", config, "--e-lower", "0.5",
                           "--e-upper", "2")
    assert code == 2
    assert "regime" not in parse_kv(out)


def test_analyze_missing_key_exits_one(capsys, tmp_path):
    values = dict(DEMO_VALUES)
    del values["mu"]
    code, _, err = run_cli(capsys, "analyze", "--config", write_config(tmp_path, values))
    assert code == 1
    assert "mu" in err


def test_analyze_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 1
    assert "JSON" in err or "json" in err


def test_missing_file_exits_one(capsys, tmp_path):
    # open() names the path, for a directory too
    for path, reason in ((str(tmp_path / "absent.json"), "[Errno 2] No such file or directory"),
                         (str(tmp_path), "[Errno 21] Is a directory")):
        assert run_cli(capsys, "analyze", "--config", path) == (
            1, "", f"onramp: error: {reason}: {path!r}\n")


def test_unknown_flag_exits_one(capsys, demo_config_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--config", str(demo_config_file), "--bogus"])
    assert excinfo.value.code == 1


def _parsed(parse, argv):
    """The namespace's fields by repr (a nan equals itself), or the exit code; what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {name: repr(value) for name, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", "c.json"],
    ["analyze", "--config", "c.json", "--e-lower", "0.5", "--e-upper", "2"],
    ["equilibrium", "--config", "c.json", "--alpha", "0.8", "--beta", "1", "--error", "0.5"],
    ["sweep-alpha", "--config", "c.json", "--step", "0.1", "--out", "a.csv"],
    ["sweep-beta-e", "--config", "c.json", "--alpha", "0.9", "--beta-e-max", "2", "--step", "0.1"],
    ["poa", "--config", "c.json", "--beta", "1", "--e-lower", "0.5", "--e-upper", "2"],
    ["optimal-beta", "--config", "c.json", "--e-lower", "0.25", "--e-upper", "4"],
    ["verify", "--config", "c.json", "--alpha", "0.4", "--beta", "0.6", "--error", "1.5"],
    ["verify", "--config", "c.json", "--step", "0.002"],
    ["equilibrium", "--config", "c.json", "--alpha=0.8", "--beta", "1"],
    ["equilibrium", "--config", "c.json", "--alp", "0.8", "--beta", "1"],
    ["equilibrium", "--config", "c.json", "--alpha", "0.8", "--beta", "-1"],
    ["sweep-alpha", "--config", "c.json", "--beta", "0.5", "--beta", "2"],
    ["optimal-beta", "--config", "c.json", "--e-lower", "0.5", "--e-upper", "2", "--verify"],
    ["equilibrium", "-h"],
    ["analyze", "--config", "c.json", "--bogus"],
    ["analyze", "--config", "c.json", "one", "two"],
    ["equilibrium", "--config", "c.json", "--alpha", "0.8"],
    ["equilibrium", "--config", "c.json", "--alpha", "x", "--beta", "1"],
    [],
    ["-h"],
    ["--config", "c.json", "analyze"],
])
def test_parse_matches_the_top_level_parser(argv):
    assert _parsed(_parse, argv) == _parsed(_build_parser().parse_args, argv)


COMMANDS = list(_COMMANDS)
FLAGS = sorted({flag.option for _, _, flags in _COMMANDS.values() for flag in flags})
ODD_FLAGS = ["--alp", "--conf", "--e-l", "--b", "--ver", "--alpha=0.8", "--config=c.json",
             "--verify=1", "-h", "--help", "--", "-"]
# well-formed values by the flag's type
VALUES = {float: ["0.5", "2", "1e-3", "1e400", "nan"], str: ["c.json", "a b.csv", ""]}
ODD_VALUES = ["-1", "-.5", "-inf", "-", "--", "-h", "--beta", "inf", "x"]
TOKENS = COMMANDS + FLAGS + ODD_FLAGS + VALUES[float] + VALUES[str] + ODD_VALUES


@st.composite
def argvs(draw):
    """A command and most of its flags, each value most often well formed, then up to
    two tokens of any kind put in anywhere."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    for flag in draw(st.permutations(_COMMANDS[command][2])):
        if draw(st.integers(0, 7)) < 7:
            argv.append(flag.option)
            if flag.action != "store_true":
                odd = draw(st.integers(0, 3)) == 3
                argv.append(draw(st.sampled_from(ODD_VALUES if odd else VALUES[flag.type])))
    for _ in range(draw(st.integers(1, 2)) if draw(st.integers(0, 2)) == 2 else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
def test_parse_matches_the_top_level_parser_on_drawn_argv(argv):
    # argparse words an unknown command differently across Python releases; _parse does not
    assume(argv[0] in COMMANDS or argv[0].startswith("-"))
    assert _parsed(_parse, argv) == _parsed(_build_parser().parse_args, argv)


def test_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        _parse(["frobnicate", "--config", "c.json"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == (
        "onramp: error: argument command: invalid choice: 'frobnicate' (choose from 'analyze',"
        " 'equilibrium', 'sweep-alpha', 'sweep-beta-e', 'poa', 'optimal-beta', 'verify')\n"
    )


def test_equilibrium_full_altruism(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file),
        "--alpha", "1.0", "--beta", "1.0",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["case"] == "case_d"
    assert float(values["x_hat_b"]) == pytest.approx(0.6047119573573881, abs=1e-9)
    assert float(values["j_soc"]) == pytest.approx(8.563714806200348, abs=1e-9)
    assert values["wardrop_pass"] == "true"


def test_equilibrium_scarce_altruists(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file),
        "--alpha", "0.3", "--beta", "0.5",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["case"] == "case_b"
    assert float(values["x_hat_b"]) == pytest.approx(0.5401568346061195, abs=1e-9)


def test_equilibrium_alpha_out_of_range_exits_one(capsys, demo_config_file):
    code, _, err = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file),
        "--alpha", "1.5", "--beta", "1.0",
    )
    assert code == 1
    assert "alpha" in err


def test_equilibrium_outside_set_exits_two(capsys, tmp_path):
    values = dict(DEMO_VALUES, n0=1.0, gamma=0.0)
    code, _, err = run_cli(
        capsys, "equilibrium", "--config", write_config(tmp_path, values),
        "--alpha", "0.5", "--beta", "1.0",
    )
    assert code == 2


def test_sweep_alpha_deterministic_and_schema(capsys, demo_config_file, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out_path in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "sweep-alpha", "--config", str(demo_config_file),
            "--step", "0.01", "--out", str(out_path),
        )
        assert code == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    lines = bytes_a.decode().split("\n")
    assert lines[0] == "beta,alpha,x_hat_b,case,j_soc"
    assert len([line for line in lines[1:] if line]) == 303
    assert b"\r" not in bytes_a


def test_sweep_alpha_stdout_and_custom_betas(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "sweep-alpha", "--config", str(demo_config_file),
        "--beta", "1.0", "--step", "0.1",
    )
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert len(lines) == 1 + 11
    assert all(line.split(",")[0] == "1" for line in lines[1:])


def test_sweep_beta_e_schema_and_rows(capsys, demo_config_file, tmp_path):
    out_path = tmp_path / "levels.csv"
    code, _, _ = run_cli(
        capsys, "sweep-beta-e", "--config", str(demo_config_file),
        "--alpha", "0.63", "--alpha", "0.8",
        "--beta-e-max", "4.0", "--step", "0.01", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().split("\n")
    assert lines[0] == "alpha,beta_e,x_hat_b,case,j_soc"
    assert len([line for line in lines[1:] if line]) == 2 * 401


def test_out_is_written_over_a_longer_file_and_cut_to_length(demo_config_file, tmp_path):
    out_path = tmp_path / "sweep.csv"
    argvs = [[kind, "--config", str(demo_config_file)] for kind in ("sweep-beta-e", "sweep-alpha")]
    assert _cli_bytes(argvs[0], out_path)[:2] == (0, "")
    longer = out_path.read_bytes()
    code, stdout, _ = _cli_bytes(argvs[1], None)
    assert code == 0 and len(stdout) < len(longer)
    assert _cli_bytes(argvs[1], out_path) == (0, "", stdout.encode())


def test_out_to_a_device_is_written_and_left_untruncated(capsys, demo_config_file):
    for kind in ("sweep-alpha", "sweep-beta-e"):
        assert run_cli(
            capsys, kind, "--config", str(demo_config_file), "--out", os.devnull) == (0, "", "")


def test_out_to_a_directory_or_a_missing_one_exits_one(capsys, demo_config_file, tmp_path):
    # os.open names the path, as open() did
    for path, reason in ((str(tmp_path), "[Errno 21] Is a directory"),
                         (str(tmp_path / "absent" / "sweep.csv"),
                          "[Errno 2] No such file or directory")):
        assert run_cli(capsys, "sweep-alpha", "--config", str(demo_config_file), "--out", path) == (
            1, "", f"onramp: error: {reason}: {path!r}\n")


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_out_file_takes_its_mode_from_the_umask(demo_config_file, tmp_path, umask):
    out_path = tmp_path / "sweep.csv"
    previous = os.umask(umask)
    try:
        code = _cli_bytes(["sweep-alpha", "--config", str(demo_config_file)], out_path)[0]
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask


def _cli_bytes(argv, out_path):
    """Exit code, stdout and the --out file's bytes (None if absent) of one CLI call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + (["--out", str(out_path)] if out_path else []))
    written = out_path.read_bytes() if out_path and out_path.exists() else None
    return code, stdout.getvalue(), written


def _assert_cli_writes(argvs, expected, scratch):
    """Each command writes its expected text to stdout, and with --out to the file only."""
    for kind, argv in argvs.items():
        code, out, written = _cli_bytes(argv, None)
        assert (code, written) == (0, None)
        assert_same_text(out, expected[kind])
        code, out, written = _cli_bytes(argv, scratch / f"{kind}.csv")
        assert (code, out) == (0, "")
        assert_same_text(written.decode(), expected[kind])


def _library_csv(write, rows):
    buffer = io.StringIO()
    write(rows, buffer)
    return buffer.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    config=meaningful_configs(),
    betas=st.lists(st.floats(0.0, 10.0), max_size=2),
    alphas=st.lists(st.floats(0.0, 1.0), max_size=2),
    alpha_step=st.sampled_from([0.01, 0.03, 0.1]) | st.floats(0.005, 0.1),
    beta_e_max=st.floats(0.1, 5.0),
    steps=st.integers(1, 60),
    tie_at=st.integers(0, 60),
)
def test_cli_sweeps_write_the_library_csv(
    config, betas, alphas, alpha_step, beta_e_max, steps, tie_at
):
    """The CLI's sweep bytes, on stdout and in --out, are write_*_sweep(sweep_*(...)).

    Level 0 is on every level grid and outer beta 0 is always swept; the
    outer alphas add alpha == phi and alpha == the crossing at a grid level.
    """
    ramp = onramp.OnRamp.from_config(config)
    step = beta_e_max / steps
    level = inclusive_grid(0.0, beta_e_max, step)[min(tie_at, steps)]
    crossing = _crossing(ramp.phi, ramp.delta, level)
    betas = [0.0, *betas] + ([ramp.pi] if ramp.pi > 0.0 else [])
    alphas = [ramp.phi, *alphas] + ([crossing] if crossing <= 1.0 else [])
    expected = {
        "sweep-alpha": _library_csv(onramp.write_alpha_sweep, onramp.alpha_sweep(
            ramp, betas, alpha_step)),
        "sweep-beta-e": _library_csv(onramp.write_beta_e_sweep, onramp.beta_e_sweep(
            ramp, alphas, beta_e_max, step)),
    }
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.json"
        values = {name: getattr(config, name) for name in CONFIG_KEYS}
        path.write_text(json.dumps(values), encoding="utf-8")
        argvs = {
            "sweep-alpha": ["sweep-alpha", "--config", str(path), "--step", repr(alpha_step)]
            + [arg for beta in betas for arg in ("--beta", repr(beta))],
            "sweep-beta-e": ["sweep-beta-e", "--config", str(path), "--step", repr(step),
                             "--beta-e-max", repr(beta_e_max)]
            + [arg for alpha in alphas for arg in ("--alpha", repr(alpha))],
        }
        _assert_cli_writes(argvs, expected, Path(scratch))


def _solver_csv(ramp, header, cells):
    """The CSV of (outer, point, alpha, level) cells, each line from solve and format()."""
    lines = [header]
    for outer, point, alpha, level in cells:
        result = onramp.solve(ramp, alpha, level)
        lines.append(",".join([
            format(outer, ".12g"), format(point, ".12g"), format(result.x_hat_b, ".12g"),
            result.case.value, format(result.social_delay, ".12g"),
        ]))
    return "\n".join(lines) + "\n"


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    config=meaningful_configs(),
    beta=st.floats(0.0, 10.0),
    alpha=st.floats(0.0, 1.0),
    alpha_step=st.sampled_from([0.05, 0.1]) | st.floats(0.03, 0.1),
    beta_e_max=st.floats(0.1, 5.0),
    steps=st.integers(1, 40),
    tie_at=st.integers(0, 40),
)
def test_cli_sweeps_write_the_solver_cell_by_cell(
    config, beta, alpha, alpha_step, beta_e_max, steps, tie_at
):
    """The CLI's sweep bytes, on stdout and in --out, are solve and format() at every cell.

    The outer values hold -0.0, 0.0 and 1.0, beta == pi (when positive),
    alpha == phi and alpha == the crossing at a grid level.
    """
    ramp = onramp.OnRamp.from_config(config)
    step = beta_e_max / steps
    levels = inclusive_grid(0.0, beta_e_max, step)
    crossing = _crossing(ramp.phi, ramp.delta, levels[min(tie_at, steps)])
    betas = [-0.0, 0.0, 1.0, beta] + ([ramp.pi] if ramp.pi > 0.0 else [])
    alphas = [-0.0, 0.0, 1.0, ramp.phi, alpha] + ([crossing] if crossing <= 1.0 else [])
    expected = {
        "sweep-alpha": _solver_csv(ramp, "beta,alpha,x_hat_b,case,j_soc", [
            (b, a, a, b) for b in betas for a in inclusive_grid(0.0, 1.0, alpha_step)
        ]),
        "sweep-beta-e": _solver_csv(ramp, "alpha,beta_e,x_hat_b,case,j_soc", [
            (a, level, a, level) for a in alphas for level in levels
        ]),
    }
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.json"
        path.write_text(json.dumps({name: getattr(config, name) for name in CONFIG_KEYS}))
        argvs = {
            "sweep-alpha": ["sweep-alpha", "--config", str(path), "--step", repr(alpha_step)]
            + [arg for b in betas for arg in ("--beta", repr(b))],
            "sweep-beta-e": ["sweep-beta-e", "--config", str(path), "--step", repr(step),
                             "--beta-e-max", repr(beta_e_max)]
            + [arg for a in alphas for arg in ("--alpha", repr(a))],
        }
        _assert_cli_writes(argvs, expected, Path(scratch))


# every level of the default level grid is case D for both default alphas
ALL_CASE_D = dict(n0=0.33, c1t=1.11, c1m=17.71, c2t=1.84, c2m=2.07, mu=2.13, gamma=9.31)


@pytest.mark.parametrize("values", [DEMO_VALUES, ALL_CASE_D])
def test_cli_sweeps_evaluate_each_distinct_share_once(tmp_path, monkeypatch, values):
    path = write_config(tmp_path, values)
    ramp = onramp.OnRamp.from_config(onramp.OnRampConfig(**values))
    rows = {
        "sweep-alpha": onramp.alpha_sweep(ramp, DEFAULT_SWEEP_BETAS, 0.01),
        "sweep-beta-e": onramp.beta_e_sweep(
            ramp, DEFAULT_SWEEP_ALPHAS, 4.0, 0.01),
    }
    shares, kernels = [], []
    kernel = sweeps._sweep_columns

    def counting_social_delay(ramp, x_hat_b):
        shares.append(x_hat_b)
        return onramp.social_delay(ramp, x_hat_b)

    def recording_kernel(*args, **kwargs):
        kernels.append(kernel(*args, **kwargs))
        return kernels[-1]

    monkeypatch.setattr(sweeps, "social_delay", counting_social_delay)
    monkeypatch.setattr(sweeps, "_sweep_columns", recording_kernel)
    for kind, kind_rows in rows.items():
        shares.clear()
        assert _cli_bytes([kind, "--config", path], None)[0] == 0
        assert sorted(shares) == sorted({row.x_hat_b for row in kind_rows})
    tails, aligned, (first, second) = kernels[-1]
    if values is ALL_CASE_D:  # one run of the case-D tails per level, shared by both alphas
        assert first == second == [(0, 1, 0), (1, 401, None)]
        assert tails[0][1] is EquilibriumCase.BASELINE and len(tails) == 2
        assert aligned[:2] == (1, EquilibriumCase.CASE_D) and len(aligned[2]) == 400


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-alpha", "--step", "0.5"], "alpha step must lie in (0, 0.1], got 0.5"),
        (["sweep-beta-e", "--step", "0"], "step must be > 0, got 0.0"),
        (["sweep-alpha", "--beta", "0.5", "--beta", "nan"], "beta must be finite, got nan"),
        (["sweep-beta-e", "--alpha", "nan"], "alpha must lie in [0, 1], got nan"),
        (["sweep-beta-e", "--alpha", "0.8", "--alpha", "1.5"],
         "alpha must lie in [0, 1], got 1.5"),
    ],
)
@pytest.mark.parametrize("to_file", [False, True])
def test_bad_sweep_input_writes_nothing(capsys, demo_config_file, tmp_path, argv, message, to_file):
    out_path = tmp_path / "sweep.csv" if to_file else None
    argv = [argv[0], "--config", str(demo_config_file), *argv[1:]]
    code, stdout, written = _cli_bytes(argv, out_path)
    assert (code, stdout, written) == (1, "", None)
    assert capsys.readouterr().err == f"onramp: error: {message}\n"


def test_poa_command(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "poa", "--config", str(demo_config_file),
        "--beta", "1.0", "--e-lower", "0.5", "--e-upper", "2.0", "--verify",
    )
    assert code == 0
    values = parse_kv(out)
    assert float(values["poa"]) >= 1.0
    assert float(values["beta_star"]) == pytest.approx(1.0, abs=1e-12)
    assert values["branch"] == "endpoint_symmetric"
    assert float(values["grid_beta_star_gap"]) <= 1e-5 * float(values["beta_star"])
    assert values["verify_pass"] == "true"
    assert "worst_case[0]" in out


def test_poa_invalid_interval_exits_one(capsys, demo_config_file):
    code, _, err = run_cli(
        capsys, "poa", "--config", str(demo_config_file),
        "--beta", "1.0", "--e-lower", "2.0", "--e-upper", "0.5",
    )
    assert code == 1


def test_optimal_beta_command(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "optimal-beta", "--config", str(demo_config_file),
        "--e-lower", "0.5", "--e-upper", "2.0", "--verify",
    )
    assert code == 0
    values = parse_kv(out)
    assert float(values["beta_star"]) == pytest.approx(1.0, abs=1e-12)
    assert values["branch"] == "endpoint_symmetric"
    assert float(values["poa_at_beta_star"]) >= 1.0
    assert float(values["grid_beta_star_gap"]) <= 1e-5 * float(values["beta_star"])
    assert values["verify_pass"] == "true"



@pytest.mark.parametrize(
    "bounds, beta_star",
    [(("1e-300", "1e-300"), "1e+300"), (("1e-200", "1e-170"), "1e+185"),
     (("1e300", "1e300"), "1e-300")],
)
def test_optimal_beta_on_bounds_whose_product_is_not_a_normal_float(
    capsys, demo_config_file, bounds, beta_star
):
    code, out, err = run_cli(
        capsys, "optimal-beta", "--config", str(demo_config_file),
        "--e-lower", bounds[0], "--e-upper", bounds[1],
    )
    assert (code, err, parse_kv(out)["beta_star"]) == (0, "", beta_star)


# the oracle places beta* in any unit, up to an error ratio of 1e12, and names a wider one
@pytest.mark.parametrize("bounds, code", [
    (("0.5", "2"), 0), (("0.25", "4"), 0), (("0.001", "0.01"), 0), (("1e-6", "1"), 0),
    (("1e-300", "2e-300"), 0), (("0.3", "0.3"), 0), (("1e-10", "1e10"), 1),
])
def test_optimal_beta_verify_passes_on_every_interval_it_serves(
    capsys, demo_config_file, bounds, code
):
    got, out, err = run_cli(
        capsys, "optimal-beta", "--config", str(demo_config_file),
        "--e-lower", bounds[0], "--e-upper", bounds[1], "--verify",
    )
    values = parse_kv(out)
    assert got == code
    if code == 0:
        assert values["verify_pass"] == "true" and err == ""
        gap, beta_star = float(values["grid_beta_star_gap"]), float(values["beta_star"])
        assert gap <= 1e-5 * beta_star
    else:
        assert "verify_pass" not in values
        assert err == ("onramp: error: error ratio e_upper/e_lower = 1e+20 exceeds 1e+12,"
                       " too wide to place beta_star\n")


@pytest.mark.parametrize("command", [("optimal-beta",), ("poa", "--beta", "1")])
def test_verify_passes_on_a_minimum_flat_in_floats(capsys, tmp_path, command):
    # the oracle's level misses beta* = 1 by more than 1e-5, at the same sampled PoA
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(FLAT_MINIMUM_VALUES), encoding="utf-8")
    code, out, err = run_cli(
        capsys, *command, "--config", str(path), "--e-lower", "1", "--e-upper", "1", "--verify")
    values = parse_kv(out)
    assert (code, err, values["beta_star"], values["verify_pass"]) == (0, "", "1", "true")
    assert float(values["grid_beta_star_gap"]) > 1e-5


@pytest.mark.parametrize("beta_star, code", [(1.0, 0), (1.0 + 1e-6, 0), (1.01, 3), (0.99, 3)])
def test_verify_on_a_flat_minimum_still_fails_a_level_of_worse_poa(capsys, beta_star, code):
    # the sampled PoA decides where the level gap cannot: 1% off beta* is worse by > 1e-12
    ramp = onramp.OnRamp.from_config(onramp.OnRampConfig(**FLAT_MINIMUM_VALUES))
    args = SimpleNamespace(verify=True)
    assert _verify_beta_star(args, ramp, onramp.ErrorInterval(1.0, 1.0), beta_star) == code
    assert parse_kv(capsys.readouterr().out)["verify_pass"] == ("true" if code == 0 else "false")


def test_optimal_beta_on_bounds_too_small_to_invert_exits_one(capsys, demo_config_file):
    code, out, err = run_cli(
        capsys, "optimal-beta", "--config", str(demo_config_file),
        "--e-lower", "1e-320", "--e-upper", "1e-320",
    )
    message = "beta_star = 1/1e-320 overflows on the error interval (1e-320, 1e-320)"
    assert (code, out, err) == (1, "", f"onramp: error: {message}\n")


def test_verify_command(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(demo_config_file),
        "--alpha", "0.8", "--beta", "1.0",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["verify_pass"] == "true"
    assert values["exact_count"] == "1"
    assert float(values["exact_gap"]) <= 1e-9
    assert float(values["dynamics_gap"]) <= 1e-9
    assert values["dynamics_converged"] == "true"


# the certificate's threshold is in units of slope_sum and the altruists' gap is divided by
# 1 + level, so the dynamics converge at every level
@pytest.mark.parametrize("beta, code", [("1", 0), ("1000", 0), ("1e6", 0), ("5e307", 0)])
def test_verify_finds_one_exact_share_at_every_level(capsys, demo_config_file, beta, code):
    got, out, err = run_cli(
        capsys, "verify", "--config", str(demo_config_file), "--alpha", "0.8", "--beta", beta
    )
    values = parse_kv(out)
    assert (got, err, values["exact_count"], values["exact_gap"]) == (code, "", "1", "0")
    assert values["exact_x_hat_b"] == values["closed_form_x_hat_b"]
    assert values["dynamics_converged"] == values["verify_pass"] == "true"
    assert 0.0 <= float(values["wardrop_max_product"]) <= 1e-12


def test_console_entrypoint_subprocess(demo_config_file):
    result = subprocess.run(
        [sys.executable, "-m", "onramp", "analyze", "--config", str(demo_config_file)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "phi = 0.540156834606" in result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["poa", "--beta", "nan", "--e-lower", "0.5", "--e-upper", "2"],
        ["equilibrium", "--alpha", "0.8", "--beta", "nan"],
    ],
)
def test_nan_beta_exits_one_naming_beta(capsys, demo_config_file, argv):
    code, out, err = run_cli(capsys, argv[0], "--config", str(demo_config_file), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "onramp: error: beta must be finite, got nan\n"


def test_equilibrium_certificate_is_finite_and_passes_near_the_level_bound(
        capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file), "--alpha", "0.8",
        "--beta", "5e307",
    )
    assert code == 0
    values = parse_kv(out)
    products = [float(values[f"wardrop_{name}"]) for name in onramp.FlowDistribution._fields]
    assert all(map(math.isfinite, products)) and max(products) <= 1e-12
    assert values["wardrop_pass"] == "true"


def test_a_negative_zero_prints_as_zero(capsys, demo_config_file):
    """At the crossing the altruists' perceived gap is 0.0, and their product -0.0."""
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file), "--alpha", "0.8",
        "--beta", "5e307",
    )
    assert code == 0
    assert "= -0\n" not in out
    assert parse_kv(out)["wardrop_altruistic_bypass"] == "0"


def _nan_perceived_gap(monkeypatch):
    """Make the altruists' cost gap read NaN in the certificate and the dynamics."""
    from onramp import equilibrium

    def gaps(ramp, x_hat_b, level):
        return cost_gaps(ramp, x_hat_b, level)[0], math.nan
    monkeypatch.setattr(equilibrium, "cost_gaps", gaps)


def test_equilibrium_with_a_nan_certificate_fails_wardrop(capsys, demo_config_file, monkeypatch):
    _nan_perceived_gap(monkeypatch)
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file), "--alpha", "0.8",
        "--beta", "5e307",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["wardrop_altruistic_bypass"] == "nan"
    assert values["wardrop_pass"] == "false"


def test_verify_with_a_nan_certificate_is_not_converged(capsys, demo_config_file, monkeypatch):
    _nan_perceived_gap(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(demo_config_file), "--alpha", "0.8", "--beta", "5e307"
    )
    assert code == 3
    values = parse_kv(out)
    assert (values["exact_count"], values["exact_gap"]) == ("1", "0")
    assert values["dynamics_converged"] == "false"
    assert values["wardrop_max_product"] == "nan"
    assert values["verify_pass"] == "false"


def test_poa_evaluates_the_worst_case_once_at_the_given_beta(
    capsys, demo_config_file, monkeypatch
):
    import onramp.robustness

    betas = []
    original = onramp.robustness.worst_case_social_delay

    def counting(ramp, beta, interval):
        betas.append(beta)
        return original(ramp, beta, interval)

    # the CLI and optimal_beta both call it through the module
    monkeypatch.setattr(onramp.robustness, "worst_case_social_delay", counting)
    endpoint_betas = []
    endpoints = onramp.robustness._endpoints

    def counting_endpoints(ramp, beta, interval):
        endpoint_betas.append(beta)
        return endpoints(ramp, beta, interval)

    # the printed poa divides that supremum, with no second evaluation at the given beta
    monkeypatch.setattr(onramp.robustness, "_endpoints", counting_endpoints)
    code, out, _ = run_cli(
        capsys, "poa", "--config", str(demo_config_file),
        "--beta", "0.3", "--e-lower", "0.5", "--e-upper", "2",
    )
    assert code == 0
    assert betas.count(0.3) == 1
    assert endpoint_betas.count(0.3) == 1 and len(endpoint_betas) == 2
    values = parse_kv(out)
    assert float(values["poa"]) == pytest.approx(
        float(values["worst_case_j_soc"]) / float(values["j_opt"]), rel=1e-10
    )
