"""Benchmark of the onramp library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn in its own process.  With ``--trace 0`` the run measures the
end-to-end metrics of BENCHMARK.json over whole rounds of the workload's
input pool for S seconds, set-up probes included, rounded up to a whole
round; an op's time is the fastest of its input over the run.  With
``--trace 1`` it runs one round untraced, then twice traced, checks that
every count repeats exactly, and reports the per-layer metrics (S is not
used).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the metrics by name and the run's provenance.

Everything the run writes goes to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("closed_form_batch", "cli_session")

# fresh interpreters timed per run for setup_s, spread evenly over the run,
# after one untimed that writes the bytecode cache; setup_s is their first decile
SETUP_PROBES = 30
IMPORT_PROBES = 5
# the timed phase runs whole rounds over the workload's pool of inputs
MIN_ROUNDS = 2
TAIL_BEYOND = 10
FAILURES_SHOWN = 5


class Loop:
    """Closed loop, one client: ops run back to back, each timed and checked.

    Ops run in whole rounds over the workload's pool, and ``fastest`` keeps
    each input's fastest op.  A shared machine runs the same code 1.4 to 2
    times slower for seconds at a time (2-core Xeon VM).  An op of a few
    milliseconds or less falls into a calm spell and each input gets one in
    a run, so its fastest time follows the program, not how long the slow
    spells lasted; a whole round often has no calm spell as long as itself.
    A cost that hits an input only in some rounds, such as a garbage
    collection pass landing on it, is left out; ``busy`` keeps the sum over
    all timed ops for the ungated mean.  Nothing here grows with the number
    of ops: besides one time per input only the TAIL_BEYOND + 1 largest
    latencies are kept.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.timed = 0
        self.rounds = 0
        self.busy = 0.0
        self.fastest = [math.inf] * workload.POOL
        self.largest: list[float] = []  # min-heap

    def run_op(self, index: int, tracer=None, timed=True) -> None:
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                outcome = self.workload.op(index)
            else:
                with tracer.span("op"):
                    outcome = self.workload.op(index)
            elapsed = time.perf_counter() - start
            self.workload.check(index, outcome)
        except Exception as exc:  # any failure of an op counts, and the run goes on
            self.failed += 1
            if self.failed <= FAILURES_SHOWN:
                print(f"op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        if not timed:
            return
        self.timed += 1
        self.busy += elapsed
        slot = index % self.workload.POOL
        self.fastest[slot] = min(self.fastest[slot], elapsed)
        if len(self.largest) <= TAIL_BEYOND:
            heapq.heappush(self.largest, elapsed)
        else:
            heapq.heappushpop(self.largest, elapsed)

    def fastest_ops(self) -> list[float]:
        """Each input's fastest op; an input whose every op failed has none."""
        if math.inf in self.fastest:
            raise RuntimeError("an input of the pool never ran without a failed op")
        return self.fastest

    def tail(self):
        """(latency, percentile) at the highest percentile with TAIL_BEYOND
        samples beyond it, or None with too few samples."""
        if len(self.largest) <= TAIL_BEYOND:
            return None
        return self.largest[0], 100.0 * (self.timed - TAIL_BEYOND) / self.timed

    def for_seconds(self, seconds: float, pause, pauses: int) -> None:
        """Whole rounds over the pool until ``seconds`` have passed; ``pause``
        runs ``pauses`` times, spread evenly over the same seconds."""
        self.run_op(0, timed=False)  # warm-up: file cache, bytecode, first allocations
        pool = self.workload.POOL
        done = 0
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if index % pool == 0 and index >= MIN_ROUNDS * pool and elapsed >= seconds:
                break
            if done < pauses and elapsed >= seconds * done / pauses:
                pause()
                done += 1
                continue
            self.run_op(index)
            index += 1
        self.rounds = index // pool
        for _ in range(pauses - done):
            pause()

    def for_ops(self, count: int, tracer=None) -> None:
        for index in range(count):
            self.run_op(index, tracer)


def spawn_probe(argv, workdir: Path):
    from workloads import child_env, spawn

    workdir.mkdir(parents=True, exist_ok=True)
    out, err = workdir / "probe.stdout", workdir / "probe.stderr"
    spawned = time.monotonic()
    code, _, _ = spawn(argv, child_env(), out, err)
    if code != 0:
        raise RuntimeError(f"probe {argv[1:]} exited {code}: {err.read_text()[-2000:]}")
    return spawned, out.read_text(), err.read_text()


class SetupProbe:
    """Times a fresh interpreter from spawn to the workload's first op."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.argv = [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed),
                     str(workdir)]
        self.workdir = workdir
        self.samples: list[float] = []

    def __call__(self) -> None:
        spawned, out, _ = spawn_probe(self.argv, self.workdir)
        self.samples.append(json.loads(out.splitlines()[-1])["ready"] - spawned)


def import_seconds(workdir: Path) -> tuple[float, float]:
    """Median `import onramp` cost split into numpy and the package itself,
    from `python -X importtime` in fresh interpreters."""
    argv = [sys.executable, "-X", "importtime", "-c", "import onramp"]
    numpy_s, package_s = [], []
    for _ in range(IMPORT_PROBES):
        _, _, err = spawn_probe(argv, workdir)
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        numpy = cumulative.get("numpy", 0.0)
        numpy_s.append(numpy)
        package_s.append(cumulative["onramp"] - numpy)
    return statistics.median(numpy_s), statistics.median(package_s)


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in stream if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # numpy starts its BLAS threads at import; the benchmark leaves their number alone
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "threads_after_import": threads,
    }


def untraced(args, workdir: Path):
    from workloads import WORKLOADS

    probe = SetupProbe(args.workload, args.seed, workdir / "setup")
    probe()  # untimed: writes the bytecode cache
    probe.samples.clear()
    loop = Loop(WORKLOADS[args.workload](args.seed, workdir / "run"))
    loop.for_seconds(args.seconds, probe, SETUP_PROBES)
    best = loop.fastest_ops()
    metrics = {
        "setup_s": statistics.quantiles(probe.samples, n=10)[0],
        "ops_per_s": len(best) / sum(best),
        "op_p50_s": statistics.median(best),
        "peak_rss_mb": loop.workload.peak_rss_mb(),
    }
    notes = {
        "pool": len(best),
        "rounds": loop.rounds,
        "timed_ops": loop.timed,
        "op_mean_s": loop.busy / loop.timed,
        "op_tail_s": loop.tail(),
        "failed_share": loop.failed / loop.attempted,
        "setup_probes_s": probe.samples,
    }
    return [loop], metrics, notes, True


def traced(args, workdir: Path):
    from tracer import Tracer
    from workloads import WORKLOADS

    numpy_s, package_s = import_seconds(workdir / "imports")
    workload = WORKLOADS[args.workload](args.seed, workdir / "run")
    ops = workload.POOL
    plain = Loop(workload)
    plain.run_op(0, timed=False)
    plain.for_ops(ops)
    loops, tracers = [plain], []
    for _ in range(2):
        loop, tracer = Loop(workload), Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            loop.for_ops(ops, tracer)
        finally:
            tracer.uninstall()
            workload.tracer = None
        loops.append(loop)
        tracers.append(tracer)
    repeated = tracers[0].exact_counts() == tracers[1].exact_counts()
    if not repeated:
        print("traced counts differ between two passes over the same inputs", file=sys.stderr)
    metrics = tracers[0].layer_metrics(ops)
    metrics["import.numpy_s"] = numpy_s
    metrics["import.onramp_s"] = package_s
    metrics["trace.overhead_s"] = (
        statistics.median(loops[1].fastest_ops()) - statistics.median(plain.fastest_ops())
    )
    if hasattr(workload, "process_seconds"):
        metrics["cli.process_s"] = statistics.median(workload.process_seconds())
    spans = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracers[0].dump(spans)
    notes = {"traced_ops": ops, "counts_repeat": repeated, "spans": str(spans.relative_to(ROOT))}
    return loops, metrics, notes, repeated


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import subprocess

    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "onramp" / "__init__.py").is_file():
        print(f"error: no onramp source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import onramp

    if Path(onramp.__file__).resolve().parent != SRC / "onramp":
        print(f"error: imported onramp from {onramp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        measure = traced if args.trace else untraced
        loops, values, notes, correct = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print("# provenance " + json.dumps(provenance(args)))
    print("# notes " + json.dumps(notes))
    metrics = {}
    for entry in wanted:
        # a traced workload that never reaches a layer has no spans for it
        value = float(values.get(entry["name"], 0.0) if args.trace else values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload} {entry['name']} = {value:.6g} {entry['unit']}")
    if not args.trace:
        print(f"{args.workload} op_mean_s = {notes['op_mean_s']:.6g} s "
              f"(mean of {notes['timed_ops']} timed ops; not gated)")
        if notes["op_tail_s"]:
            tail_s, percentile = notes["op_tail_s"]
            print(f"{args.workload} op_tail_s = {tail_s:.6g} s "
                  f"(p{percentile:.2f} of {notes['timed_ops']} timed ops; not gated)")
        print(f"{args.workload} failed_share = {notes['failed_share']:.6g} "
              f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
