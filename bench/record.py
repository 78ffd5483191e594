"""Record an A/B comparison of two commits with the benchmark in perfbench/.

Usage, from the root of the repository:

    python3 bench/record.py --parent REF --change REF --out BENCH_<pr>.json

Both commits are exported with ``git archive`` into fresh directories under
``--workdir``.  Each of the PAIRS pairs runs

    python3 perfbench/run.py --workload all --seed i --seconds S

once in each checkout, with S the ``run_seconds`` of BENCHMARK.json and
i = 0 .. PAIRS-1; the parent runs first in even pairs, the change in odd
ones.  One more pair on HELD_OUT_SEED is reported apart, and last, each
checkout gets one ``--trace 1`` run for the per-layer metrics.  The file
written holds the provenance that run.py prints, and for every end-to-end
metric and workload both sides' values, medians and quartiles and the
number of pairs the change won, by the direction BENCHMARK.json gives.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# ten pairs is the least that can back a claim of a gain
PAIRS = 10
HELD_OUT_SEED = 1000


def resolve(ref: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", ref + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def export(commit: str, workdir: Path) -> Path:
    """A fresh tree of ``commit``, made with git archive."""
    target = workdir / commit
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(target, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return target


def run_bench(checkout: Path, seed: int, seconds: float, trace: int) -> dict:
    """One ``--workload all`` run: per workload its provenance and result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    results, provenance = {}, None
    for line in done.stdout.splitlines():
        if line.startswith("# provenance "):
            provenance = json.loads(line[len("# provenance "):])
        elif line.startswith("{"):
            results[provenance["workload"]] = {"provenance": provenance, **json.loads(line)}
    if done.returncode != 0 or not results:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return results


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def compare(runs: dict, spec: dict) -> dict:
    """Per workload and end-to-end metric: both sides' values, quartiles and pairs won."""
    table = {}
    for workload in runs["parent"][0]:
        table[workload] = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            values = {
                side: [run[workload]["metrics"][name]["value"] for run in runs[side]]
                for side in SIDES
            }
            sign = 1.0 if entry["better"] == "higher" else -1.0
            won = sum(
                sign * (change - parent) > 0.0
                for parent, change in zip(values["parent"], values["change"])
            )
            row = {"unit": entry["unit"], "better": entry["better"], "pairs_won": won}
            for side in SIDES:
                q1, median, q3 = quartiles(values[side])
                row[side] = {"median": median, "q1": q1, "q3": q3, "values": values[side]}
            row["median_change"] = row["change"]["median"] - row["parent"]["median"]
            table[workload][name] = row
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the baseline")
    parser.add_argument("--change", required=True, help="commit measured against it")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_build" / "record",
                        help="where the two checkouts are exported")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    commits = {side: resolve(getattr(args, side)) for side in SIDES}
    trees = {side: export(commits[side], args.workdir) for side in SIDES}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    def pair(seed: int, parent_first: bool) -> dict:
        order = SIDES if parent_first else SIDES[::-1]
        results = {}
        for side in order:
            started = time.monotonic()
            results[side] = run_bench(trees[side], seed, seconds, trace=0)
            print(f"seed {seed} {side}: {time.monotonic() - started:.0f} s", file=sys.stderr)
        return results

    runs = {side: [] for side in SIDES}
    for seed in range(PAIRS):
        results = pair(seed, parent_first=seed % 2 == 0)
        for side in SIDES:
            runs[side].append(results[side])
    document = {
        "commits": commits,
        "command": f"python3 perfbench/run.py --workload all --seed i --seconds {seconds:g}",
        "pairs": PAIRS,
        "order": "parent first in even pairs, change first in odd pairs",
        "provenance": {
            side: {name: result["provenance"] for name, result in runs[side][0].items()}
            for side in SIDES
        },
        "correct": {
            side: all(result["correct"] for run in runs[side] for result in run.values())
            for side in SIDES
        },
        "failed_ops": {
            side: sum(result["failed"] for run in runs[side] for result in run.values())
            for side in SIDES
        },
        "end_to_end": compare(runs, spec),
    }
    results = pair(HELD_OUT_SEED, parent_first=True)
    held = compare({side: [results[side]] for side in SIDES}, spec)
    document["held_out"] = {"seed": HELD_OUT_SEED, "end_to_end": held}
    document["traced"] = {}
    for side in SIDES:
        for name, result in run_bench(trees[side], 0, seconds, trace=1).items():
            layer = {key: value["value"] for key, value in result["metrics"].items()}
            entry = document["traced"].setdefault(name, {})
            entry[side] = {"correct": result["correct"], "metrics": layer}
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
