"""The two benchmark workloads.

Each workload draws its inputs from a seed when it is built, runs one op per
call to ``op`` (the timed part) and checks that op's outcome in ``check``
(untimed) against ``reference``, never against the function under test.  A
check that fails raises ``CheckFailed``.  Both are closed loops with one
client: the next op starts when the previous one has ended.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import onramp
import onramp.cli

from reference import Reference, close

# ranges of tests/conftest.py::sample_config
CONFIG_RANGES = (
    ("n0", 0.08, 0.92),
    ("c1t", 0.3, 2.0),
    ("c1m", 0.5, 30.0),
    ("c2t", 0.3, 2.0),
    ("c2m", 0.1, 4.0),
    ("mu", 1.0, 5.0),
    ("gamma", 1.0, 12.0),
)

# error intervals of the closed forms; the wider one makes some configs
# transition-limited
INTERVALS = (onramp.ErrorInterval(0.5, 2.0), onramp.ErrorInterval(0.25, 4.0))
POA_BETAS = (0.5, 1.0, 2.0)
# (alpha, beta, error) points; over a pool they reach all four equilibrium cases
POPULATION_POINTS = (
    (0.5, 0.0, 1.0),
    (0.05, 1.0, 1.0),
    (0.6, 1.0, 1.0),
    (0.9, 0.5, 2.0),
    (1.0, 2.0, 0.5),
    (1.0, 1.0, 1.0),
)

# the CLI's sweep defaults
SWEEP_BETAS = (0.2, 0.5, 1.0)
SWEEP_ALPHAS = (0.63, 0.8)
SWEEP_BETA_E_MAX = 4.0
CLI_SWEEP_STEP = 0.01

class CheckFailed(Exception):
    """An op's outcome disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def draw_doc(rng: random.Random) -> dict:
    return {key: rng.uniform(low, high) for key, low, high in CONFIG_RANGES}


def draw_meaningful(rng: random.Random) -> dict:
    while True:
        doc = draw_doc(rng)
        if Reference(doc).meaningful:
            return doc


def build(doc: dict):
    config = onramp.OnRampConfig.from_dict(doc)
    derived = onramp.derive_coefficients(config)
    return config, derived, onramp.analyze(config, derived)


def check_flow(ref: Reference, result, alpha: float, level: float) -> None:
    flow = result.flow
    require(
        abs(result.x_hat_b - ref.share(alpha, level)) <= 1e-9,
        f"share {result.x_hat_b} != {ref.share(alpha, level)} at alpha={alpha}, level={level}",
    )
    require(
        abs(flow.selfish_bypass + flow.altruistic_bypass - result.x_hat_b) <= 1e-12
        and abs(flow.selfish_steadfast + flow.selfish_bypass - (1.0 - alpha)) <= 1e-12
        and abs(flow.altruistic_steadfast + flow.altruistic_bypass - alpha) <= 1e-12
        and min(flow.selfish_steadfast, flow.selfish_bypass,
                flow.altruistic_steadfast, flow.altruistic_bypass) >= -1e-12,
        f"infeasible flow {flow} at alpha={alpha}",
    )
    product = ref.max_switching_product(flow, level)
    require(product <= ref.product_tol(), f"switching product {product} at alpha={alpha}")


class Workload:
    name = ""
    POOL = 1  # distinct inputs; op(index) runs input index % POOL
    tracer = None  # set by a traced run while it runs the ops

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, outcome) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class ClosedFormOutcome:
    summary: object
    excluded_error: Exception | None = None
    labels: tuple = ()
    robust: tuple = ()
    poas: tuple = ()
    equilibria: tuple = ()


class ClosedFormBatch(Workload):
    """Config documents from the sample ranges; about 55% are meaningful."""

    name = "closed_form_batch"
    POOL = 4096

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.docs = [draw_doc(self.rng) for _ in range(self.POOL)]
        self._refs: dict[int, Reference] = {}

    def op(self, index):
        config, derived, summary = build(self.docs[index % self.POOL])
        if not summary.in_meaningful_set:
            try:
                onramp.optimal_altruism_level(config, derived, summary, INTERVALS[0])
            except onramp.NotInMeaningfulSetError as exc:
                return ClosedFormOutcome(summary, excluded_error=exc)
            return ClosedFormOutcome(summary)
        return ClosedFormOutcome(
            summary,
            labels=tuple(onramp.classify(config, derived, iv) for iv in INTERVALS),
            robust=tuple(
                onramp.optimal_altruism_level(config, derived, summary, iv) for iv in INTERVALS
            ),
            poas=tuple(
                onramp.price_of_anarchy(config, derived, summary, beta, INTERVALS[0])
                for beta in POA_BETAS
            ),
            equilibria=tuple(
                onramp.solve_equilibrium(config, derived, summary, alpha, beta, error)
                for alpha, beta, error in POPULATION_POINTS
            ),
        )

    def check(self, index, outcome):
        slot = index % self.POOL
        ref = self._refs.get(slot)
        if ref is None:
            ref = self._refs[slot] = Reference(self.docs[slot])
        summary = outcome.summary
        require(
            close(summary.phi, ref.phi) and close(summary.delta, ref.delta)
            and close(summary.j_opt, ref.j_opt),
            f"analyze gave phi={summary.phi}, delta={summary.delta}, j_opt={summary.j_opt}",
        )
        require(
            summary.in_meaningful_set == ref.meaningful and summary.exclusion_reason == ref.reason,
            f"exclusion reason {summary.exclusion_reason!r} != {ref.reason!r}",
        )
        if not ref.meaningful:
            require(
                isinstance(outcome.excluded_error, onramp.NotInMeaningfulSetError),
                "excluded config did not raise NotInMeaningfulSetError",
            )
            return
        for interval, label, robust in zip(INTERVALS, outcome.labels, outcome.robust):
            bounds = (interval.e_lower, interval.e_upper)
            limited = ref.transition_limited(*bounds)
            require(
                (label.regime.value == "transition_limited") == limited
                and label.regime is robust.branch,
                f"regime {label.regime.value} on {bounds}",
            )
            beta_star = ref.beta_star(*bounds)
            require(close(robust.beta_star, beta_star), f"beta* {robust.beta_star} != {beta_star}")
            require(close(robust.poa, ref.poa(beta_star, *bounds)), f"PoA at beta* on {bounds}")
        for beta, poa in zip(POA_BETAS, outcome.poas):
            expected = ref.poa(beta, INTERVALS[0].e_lower, INTERVALS[0].e_upper)
            require(close(poa, expected), f"PoA {poa} != {expected} at beta={beta}")
        for (alpha, beta, error), result in zip(POPULATION_POINTS, outcome.equilibria):
            check_flow(ref, result, alpha, beta * error)


def spawn(argv: list[str], env: dict, out_path: Path, err_path: Path):
    """Run one child to completion with stdout and stderr in files.

    Returns (exit code, wall seconds from spawn to reap, peak RSS in KiB).
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def child_env() -> dict:
    """The environment with the package's source tree first on the path."""
    env = dict(os.environ)
    src = str(Path(onramp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def parse_keyed(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


class CliSession(Workload):
    """The CLI's `main` with one argv per op, cycling through KINDS, in this
    process; stdout and stderr go to strings.

    The fresh interpreter and `import onramp` that a user waits for before
    `main` runs are the workload's setup_s.  A traced run also spawns one
    `python -m onramp` process per kind, checks it like an op and reports
    the time outside `main` as cli.process_s.  `verify` and `--verify` are
    left out: timed as their own workload, the oracles they run proved too
    unsteady to gate on a shared VM (see README.md).
    """

    name = "cli_session"
    KINDS = (
        "analyze", "equilibrium", "poa", "optimal-beta",
        "sweep-alpha", "sweep-beta-e", "malformed", "excluded",
    )
    POOL = len(KINDS)
    MALFORMED = '{"n0": 0.3, "c1t": 1.0,'

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out_path = workdir / "cli.stdout"
        self.err_path = workdir / "cli.stderr"
        self.csv_path = workdir / "cli_sweep.csv"
        excluded = draw_doc(self.rng)
        while Reference(excluded).meaningful:
            excluded = draw_doc(self.rng)
        self.docs = [draw_meaningful(self.rng), excluded]
        texts = {
            "meaningful": json.dumps(self.docs[0]),
            "excluded": json.dumps(excluded),
            "malformed": self.MALFORMED,
        }
        self.files = {group: workdir / f"{group}.json" for group in texts}
        for group, text in texts.items():
            self.files[group].write_text(text, encoding="utf-8")

    def argv(self, index: int) -> tuple[str, list[str]]:
        kind = self.KINDS[index % len(self.KINDS)]
        config = str(self.files.get(kind, self.files["meaningful"]))
        args = {
            "analyze": ["analyze", "--e-lower", "0.5", "--e-upper", "2"],
            "equilibrium": ["equilibrium", "--alpha", "0.8", "--beta", "1"],
            "poa": ["poa", "--beta", "1", "--e-lower", "0.5", "--e-upper", "2"],
            "optimal-beta": ["optimal-beta", "--e-lower", "0.25", "--e-upper", "4"],
            "sweep-alpha": ["sweep-alpha", "--out", str(self.csv_path)],
            "sweep-beta-e": ["sweep-beta-e", "--out", str(self.csv_path)],
            "malformed": ["analyze"],
            "excluded": ["equilibrium", "--alpha", "0.8", "--beta", "1"],
        }[kind]
        return kind, [args[0], "--config", config, *args[1:]]

    def op(self, index):
        kind, args = self.argv(index)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is None:
                code = onramp.cli.main(args)
            else:
                with self.tracer.span(f"cli.main.{kind}"):
                    code = onramp.cli.main(args)
        return CliOutcome(code, out.getvalue(), err.getvalue())

    def process_seconds(self) -> list[float]:
        """Per kind, the wall time of one `python -m onramp` process minus
        that of the same argv through `main` here; each process is checked."""
        env = child_env()
        seconds = []
        for index in range(self.POOL):
            _, args = self.argv(index)
            code, wall, _ = spawn(
                [sys.executable, "-m", "onramp", *args], env, self.out_path, self.err_path
            )
            self.check(index, CliOutcome(
                code,
                self.out_path.read_text(encoding="utf-8"),
                self.err_path.read_text(encoding="utf-8"),
            ))
            start = time.perf_counter()
            self.op(index)
            seconds.append(wall - (time.perf_counter() - start))
        return seconds

    def check(self, index, outcome):
        kind, args = self.argv(index)
        config_path = args[2]
        if kind == "malformed":
            require(outcome.code == 1, f"malformed config: exit {outcome.code}")
            require(outcome.stderr.startswith("onramp: error:"), f"stderr {outcome.stderr!r}")
            try:
                onramp.load_config(config_path)
            except onramp.ConfigError:
                return
            raise CheckFailed("library accepted the malformed config")
        config = onramp.load_config(config_path)
        derived = onramp.derive_coefficients(config)
        summary = onramp.analyze(config, derived)
        if kind == "excluded":
            require(outcome.code == 2, f"excluded config: exit {outcome.code}")
            require(
                not summary.in_meaningful_set and summary.exclusion_reason in outcome.stderr,
                f"stderr {outcome.stderr!r} lacks {summary.exclusion_reason!r}",
            )
            return
        require(outcome.code == 0, f"{kind}: exit {outcome.code}, stderr {outcome.stderr!r}")
        if kind.startswith("sweep"):
            stream = io.StringIO(newline="")
            if kind == "sweep-alpha":
                rows = onramp.sweep_alpha(config, derived, summary, SWEEP_BETAS, CLI_SWEEP_STEP)
                onramp.write_alpha_sweep(rows, stream)
            else:
                rows = onramp.sweep_beta_e(
                    config, derived, summary, SWEEP_ALPHAS, SWEEP_BETA_E_MAX, CLI_SWEEP_STEP
                )
                onramp.write_beta_e_sweep(rows, stream)
            require(
                self.csv_path.read_text(encoding="utf-8") == stream.getvalue(),
                f"{kind}: CSV differs from the library's",
            )
            return
        if kind == "analyze":
            label = onramp.classify(config, derived, INTERVALS[0])
            expected = {
                "phi": summary.phi, "delta": summary.delta, "pi": summary.pi,
                "j_opt": summary.j_opt, "meaningful_set": "true", "regime": label.regime.value,
            }
        elif kind == "equilibrium":
            result = onramp.solve_equilibrium(config, derived, summary, 0.8, 1.0)
            expected = {
                "case": result.case.value, "x_hat_b": result.x_hat_b,
                "j_soc": result.social_delay, "wardrop_pass": "true",
            }
        else:
            interval = INTERVALS[0] if kind == "poa" else INTERVALS[1]
            robust = onramp.optimal_altruism_level(config, derived, summary, interval)
            expected = {"beta_star": robust.beta_star, "branch": robust.branch.value}
            if kind == "poa":
                expected["poa"] = onramp.price_of_anarchy(config, derived, summary, 1.0, interval)
            else:
                expected["poa_at_beta_star"] = robust.poa
        printed = parse_keyed(outcome.stdout)
        for key, value in expected.items():
            require(
                printed.get(key) == fmt(value),
                f"{kind}: {key} = {printed.get(key)!r}, library gives {fmt(value)!r}",
            )


WORKLOADS = {cls.name: cls for cls in (ClosedFormBatch, CliSession)}
