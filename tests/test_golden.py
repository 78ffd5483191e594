"""Golden CLI and demo transcripts: every subcommand, error exit and demo, byte for byte.

Each case runs ``onramp.cli.main`` in-process on fixed configuration files
and records its exit code, stdout, stderr and any ``--out`` file.  The
expected transcript is ``golden_cli.txt`` beside this file.  The three demos
run on a copy of ``demos/``; ``golden_demos.txt`` holds their stdout and the
line count and sha256 of each CSV they write.  After an intended change of
output, regenerate both and review the diff:

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from onramp.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")
DEMOS_GOLDEN = Path(__file__).with_name("golden_demos.txt")
DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_SCRIPTS = ("run_analysis.py", "run_robustness.py", "run_sweeps.py")

DEMO = {"n0": 0.37, "c1t": 1.0, "c1m": 21.3, "c2t": 1.0, "c2m": 1.0, "mu": 2.4, "gamma": 8.6}

# meaningful-set configurations drawn once by the conftest samplers
# (sample_meaningful with seeds 1 and 2, make_transition_limited with seed 3)
# and frozen here so the transcript does not depend on the samplers
SEEDED = {
    "seed1": {
        "n0": 0.7425276149538311, "c1t": 0.45956129751619934, "c1m": 1.336250557399186,
        "c2t": 1.7208006766637785, "c2m": 1.7877915648297082, "mu": 4.0491203298317675,
        "gamma": 1.0231665868622177,
    },
    "seed2": {
        "n0": 0.33883462437488115, "c1t": 1.3301050816533861, "c1m": 18.40065114240472,
        "c2t": 1.2880468290904052, "c2m": 0.7176931939937417, "mu": 2.7226785611650746,
        "gamma": 5.328850022259085,
    },
    # positive regime ratio pi ~ 2.30: transition-limited on [0.25, 4]
    "limited": {
        "n0": 0.9491289671020925, "c1t": 1.0, "c1m": 7.205793466963233,
        "c2t": 74.05907152417886, "c2m": 19.008586998950598, "mu": 0.4479515678441944,
        "gamma": 0.002469574314236455,
    },
}

# text files written next to the JSON configs; absent.json is never written
FILES = {
    "demo.json": json.dumps(DEMO),
    **{f"{name}.json": json.dumps(values) for name, values in SEEDED.items()},
    "excluded.json": json.dumps(dict(DEMO, n0=1.0, gamma=0.0)),
    "degenerate.json": json.dumps(dict.fromkeys(DEMO, 0.0)),
    "bad.json": "{oops",
    "array.json": "[1, 2]",
    "missing_key.json": json.dumps({k: v for k, v in DEMO.items() if k != "mu"}),
    "extra_key.json": json.dumps(dict(DEMO, extra=1.0)),
    "negative.json": json.dumps(dict(DEMO, gamma=-1.0)),
    "string_value.json": json.dumps(dict(DEMO, mu="2.4")),
    "huge_int.json": json.dumps(DEMO).replace("21.3", "1" + "0" * 400),
    # finite values whose derived constants, or whose social optimum, overflow
    "overflow.json": json.dumps(dict(DEMO, c1t=1e308, c1m=1e308, mu=1e308)),
    "mu_overflow.json": json.dumps(dict(DEMO, mu=1e308)),
}
BYTE_FILES = {"latin1.json": json.dumps(DEMO).replace("21.3", "21.3 ").encode() + b"\xe9"}

INTERVAL = ["--e-lower", "0.5", "--e-upper", "2"]
WIDE = ["--e-lower", "0.25", "--e-upper", "4"]


def _model_cases(name: str, verify: bool):
    config = f"{name}.json"
    yield config, ["analyze"]
    yield config, ["analyze", *INTERVAL]
    yield config, ["analyze", *WIDE]
    yield config, ["equilibrium", "--alpha", "0.8", "--beta", "1"]
    yield config, ["equilibrium", "--alpha", "0.3", "--beta", "0.5"]
    yield config, ["equilibrium", "--alpha", "1", "--beta", "2", "--error", "0.5"]
    yield config, ["equilibrium", "--alpha", "0.7", "--beta", "0"]
    yield config, ["sweep-alpha", "--step", "0.1"]
    yield config, ["sweep-beta-e", "--step", "0.25"]
    yield config, ["poa", "--beta", "1", *INTERVAL, *(["--verify"] if verify else [])]
    yield config, ["poa", "--beta", "0.3", *WIDE]
    yield config, ["optimal-beta", *WIDE, *(["--verify"] if verify else [])]
    yield config, ["optimal-beta", *INTERVAL]
    yield config, ["verify"]
    yield config, ["verify", "--alpha", "0.4", "--beta", "0.6", "--error", "1.5"]


def cases():
    """(config file, argv after the config) pairs, in transcript order."""
    yield from _model_cases("demo", verify=True)
    # large levels, up to near the level bound: the certificate holds at each
    for beta in ("1000", "1e6", "5e307"):
        yield "demo.json", ["verify", "--alpha", "0.8", "--beta", beta]
    for name in SEEDED:
        yield from _model_cases(name, verify=name == "limited")
    # full default grids, recorded by digest
    yield "demo.json", ["sweep-alpha"]
    yield "demo.json", ["sweep-beta-e"]
    yield "demo.json", ["sweep-alpha", "--beta", "0.5", "--beta", "2", "--step", "0.05",
                        "--out", "{dir}/alpha.csv"]
    yield "demo.json", ["sweep-beta-e", "--alpha", "0.9", "--beta-e-max", "2", "--step", "0.1",
                        "--out", "{dir}/level.csv"]
    for command in ("analyze", "equilibrium", "sweep-alpha", "sweep-beta-e", "poa",
                    "optimal-beta", "verify"):
        extra = {
            "equilibrium": ["--alpha", "0.8", "--beta", "1"],
            "poa": ["--beta", "1", *INTERVAL],
            "optimal-beta": INTERVAL,
        }.get(command, [])
        yield "excluded.json", [command, *extra]
        yield "degenerate.json", [command, *extra]
    # config files that cannot be used
    for name in ("bad.json", "absent.json", "missing_key.json", "extra_key.json",
                 "negative.json", "string_value.json", "latin1.json", "huge_int.json",
                 "overflow.json", "mu_overflow.json", "array.json"):
        yield name, ["analyze"]
    # flag errors, in the order the CLI reports them
    for argv in (
        ["equilibrium", "--alpha", "1.5", "--beta", "1"],
        ["equilibrium", "--alpha", "0.8", "--beta", "-1"],
        ["equilibrium", "--alpha", "0.8", "--beta", "1", "--error", "0"],
        ["sweep-alpha", "--beta", "-1"],
        ["sweep-alpha", "--beta", "-1", "--step", "0.5"],
        ["sweep-alpha", "--step", "0.5"],
        ["sweep-alpha", "--step", "0"],
        ["sweep-beta-e", "--alpha", "1.5"],
        ["sweep-beta-e", "--alpha", "1.5", "--step", "0"],
        ["sweep-beta-e", "--beta-e-max", "0"],
        ["sweep-beta-e", "--step", "0"],
        ["poa", "--beta", "-1", *INTERVAL],
        ["poa", "--beta", "-1", "--e-lower", "2", "--e-upper", "0.5"],
        ["poa", "--beta", "1", "--e-lower", "2", "--e-upper", "0.5"],
        ["poa", "--beta", "1", "--e-lower", "0", "--e-upper", "2"],
        ["optimal-beta", "--e-lower", "2", "--e-upper", "0.5"],
        ["analyze", "--e-lower", "0.5"],
        ["analyze", "--e-lower", "2", "--e-upper", "0.5"],
        ["verify", "--alpha", "1.5"],
        ["analyze", "--bogus"],
        ["poa", "--beta", "1"],
        ["equilibrium", "--alpha", "x", "--beta", "1"],
    ):
        yield "demo.json", argv
    # non-finite flag values
    for argv in (
        ["equilibrium", "--alpha", "0.8", "--beta", "nan"],
        ["equilibrium", "--alpha", "0.8", "--beta", "inf"],
        ["equilibrium", "--alpha", "0.8", "--beta=-inf"],
        ["equilibrium", "--alpha", "nan", "--beta", "1"],
        ["equilibrium", "--alpha", "0.8", "--beta", "1", "--error", "nan"],
        ["equilibrium", "--alpha", "0.8", "--beta", "1", "--error", "inf"],
        ["poa", "--beta", "nan", *INTERVAL],
        ["poa", "--beta", "inf", *INTERVAL],
        ["poa", "--beta", "1", "--e-lower", "nan", "--e-upper", "2"],
        ["sweep-alpha", "--beta", "nan"],
        ["sweep-alpha", "--step", "nan"],
        ["sweep-beta-e", "--alpha", "nan"],
        ["sweep-beta-e", "--step", "nan"],
        ["sweep-beta-e", "--beta-e-max", "inf"],
        ["verify", "--beta", "nan"],
        ["verify", "--error", "inf"],
        # finite flags whose effective level beta*error overflows
        ["equilibrium", "--alpha", "0.8", "--beta", "1e308", "--error", "10"],
        ["verify", "--alpha", "0.8", "--beta", "1e308", "--error", "10"],
        # finite effective levels whose altruistic crossing, 2*level*delta, overflows
        ["equilibrium", "--alpha", "0.8", "--beta", "1e308"],
        ["poa", "--beta", "6e307", *INTERVAL],
        ["sweep-beta-e", "--alpha", "0.8", "--beta-e-max", "1.7e308", "--step", "1.7e303"],
    ):
        yield "demo.json", argv
    # a grid too large to build
    yield "demo.json", ["sweep-beta-e", "--beta-e-max", "1e13"]
    # the beta* oracle in any unit, and past the widest error ratio it places beta* on
    for lower, upper in (("1e-6", "1"), ("0.001", "0.01"), ("1e-10", "1e10")):
        yield "demo.json", ["optimal-beta", "--e-lower", lower, "--e-upper", upper, "--verify"]
    # an error interval so small that beta_star, the reciprocal of its mean, overflows
    yield "demo.json", ["optimal-beta", "--e-lower", "1e-320", "--e-upper", "1e-320"]
    # an error interval so wide that the level at its upper bound, beta_star * e_upper, overflows
    yield "demo.json", ["optimal-beta", "--e-lower", "5e-324", "--e-upper", "1.7e308"]
    # no subcommand, an unknown one, no --config
    yield None, []
    yield None, ["frobnicate"]
    yield None, ["analyze"]


def _run(argv: list[str]) -> tuple[str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = str(main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # recorded, so a crash shows up in the transcript
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def transcript(workdir: Path) -> str:
    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    for name, data in BYTE_FILES.items():
        (workdir / name).write_bytes(data)
    blocks = []
    for config, args in cases():
        args = [arg.replace("{dir}", str(workdir)) for arg in args]
        argv = args[:1] + ["--config", str(workdir / config)] + args[1:] if config else args
        code, out, err = _run(argv)
        shown = " ".join(argv).replace(str(workdir), "<dir>")
        lines = [f"=== onramp {shown}".rstrip(), f"exit: {code}"]
        if len(out) > 4096:
            digest = hashlib.sha256(out.encode()).hexdigest()
            lines.append(f"--- stdout: {out.count(chr(10))} lines, sha256 {digest}")
        else:
            lines.append("--- stdout")
            lines.append(out.rstrip("\n"))
        lines.append("--- stderr")
        lines.append(err.replace(str(workdir), "<dir>").rstrip("\n"))
        if "--out" in args:
            path = Path(args[args.index("--out") + 1])
            lines.append("--- out file")
            lines.append(path.read_bytes().decode() if path.exists() else "<absent>")
            path.unlink(missing_ok=True)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def demos_transcript(workdir: Path) -> str:
    """Each demo's stdout, run on a copy of demos/, then each CSV by line count and digest."""
    shutil.copy(DEMOS / "onramp.json", workdir / "onramp.json")
    blocks = []
    for script in DEMO_SCRIPTS:
        shutil.copy(DEMOS / script, workdir / script)
        out = io.StringIO()
        with redirect_stdout(out):
            runpy.run_path(str(workdir / script), run_name="__main__")
        blocks.append(f"=== python demos/{script}\n{out.getvalue().rstrip()}")
    for path in sorted((workdir / "output").glob("*.csv")):
        data = path.read_bytes()
        lines, digest = data.count(b"\n"), hashlib.sha256(data).hexdigest()
        blocks.append(f"=== demos/output/{path.name}: {lines} lines, sha256 {digest}")
    return "\n\n".join(blocks) + "\n"


def test_cli_transcript_matches_golden(tmp_path, monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


def test_demos_match_golden(tmp_path):
    assert demos_transcript(tmp_path) == DEMOS_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(Path(tmp)), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        DEMOS_GOLDEN.write_text(demos_transcript(Path(tmp)), encoding="utf-8")
    print(f"wrote {GOLDEN} and {DEMOS_GOLDEN}")
