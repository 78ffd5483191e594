"""Record an A/B comparison of two commits with the benchmark in perfbench/.

Usage, from the root of the repository:

    python3 bench/record.py --parent REF --change REF --out BENCH_<pr>.json

Each side is exported with ``git archive`` into a fresh directory of its own
under ``--workdir``, and each tree's ``src`` is byte-compiled with ``compileall``.
Each of the PAIRS pairs runs

    python3 perfbench/run.py --workload all --seed i --seconds S

once in each checkout, with S the ``run_seconds`` of BENCHMARK.json and
i = 0 .. PAIRS-1; the parent runs first in even pairs, the change in odd
ones.  One more pair on HELD_OUT_SEED is reported apart.  Then PAIRS more
pairs, in the same order, run with ``--trace 1`` for the per-layer metrics.
The file written holds the provenance that run.py prints, and per workload
the summary row (below) of every end-to-end metric, in the direction
BENCHMARK.json gives; the ``traced`` table holds one per per-layer metric.
When a BENCH_<n>.json with n below the number in ``--out`` sits beside it,
the newest such file is the previous one: per workload and end-to-end
metric, the new file also holds that file's change-side median and this
run's change median minus it.  The two were run at different times, so
that difference carries the machine's drift as well as the code's.  When
that file's change commit and this run's parent commit hold the same
``src`` and ``perfbench`` trees, the code did not move between them, and
``since_previous`` says so with ``"drift": true``.  The file also records,
per side, the ``PYTHONDONTWRITEBYTECODE`` that the runs inherit and the
``sys.flags.dont_write_bytecode`` that a fresh interpreter reports under it,
with ``compiled: true`` for the compiled ``src``: compileall writes the cache
even with that variable set, so that no fresh process times the compiler.

Apart from the gated end-to-end table, the file also holds ungated timings
of single calls.  In each of ORACLE_REPEATS rounds, alternating which side
goes first, each checkout runs FRESH_CODE in one fresh interpreter.  It times
``import onramp.cli`` first (L6), then, each call through ``best_time``,
``closed_form_times`` (reading demos/onramp.json, each L0-L3 closed form and
three CLI commands) and ``oracle_times`` (each L5 oracle on that config).
Each round also times, from outside, one whole process per side of ``python
-m onramp analyze --config demos/onramp.json`` (``process[analyze]``: the
start-up and imports that a user waits for), of ``onramp verify`` (the exact
and dynamics oracles), of ``onramp optimal-beta`` on [0.25, 4] with
``--verify`` (the beta* oracle) and of the bare interpreter with and without
the site module (``process[python -c pass]`` and ``process[python -S -c
pass]``: the start-up that no change to onramp can move).  Each round also
runs the analyze process under ``python -X importtime``: the ``import_times``
table holds each module's self time, so it shows which modules a change took
off start-up or put on it.  None of
these timings is gated: perfbench/README.md shows why the oracles are too
unsteady on a shared VM to gate on, and a single call is far shorter than a
benchmark op.

Every row of every table is the one ``summary`` row: its unit and better
direction; each side's values, one per pair or round, with their median and
quartiles (a side's best is the least of its values); each pair's or round's
change/parent ratio with its quartiles, null unless every parent value is
positive; the pairs or rounds the change won; and the change of the medians.
A module that only one side imports is null on the other side, with no ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# ten pairs is the least that can back a claim of a gain
PAIRS = 10
HELD_OUT_SEED = 1000
ORACLE_REPEATS = 5
# each closed form is timed over CALL_REPEATS loops of CALLS_PER_LOOP calls
CALL_REPEATS, CALLS_PER_LOOP = 20, 500
DEMO_CONFIG = "demos/onramp.json"


# the trees whose identity makes two commits the same code to the benchmark
CODE_TREES = ("src", "perfbench")


def resolve(ref: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", ref + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def same_code(first: str, second: str) -> bool:
    """Whether the two commits hold the same CODE_TREES; False if git cannot tell."""
    def trees(commit: str) -> list[str] | None:
        done = subprocess.run(["git", "rev-parse", *(f"{commit}:{path}" for path in CODE_TREES)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        return done.stdout.split() if done.returncode == 0 else None

    first_trees = trees(first)
    return first_trees is not None and first_trees == trees(second)


def export(commit: str, workdir: Path, side: str) -> Path:
    """A fresh tree of ``commit`` in ``workdir / side``, made with git archive, its ``src``
    byte-compiled: one tree per side, so that a commit measured against itself runs in two."""
    target = workdir / side
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(target, filter="data")
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {commit} failed")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=target, check=True)
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


def best_time(call, repeat: int, number: int) -> float:
    """Seconds per call: the best of ``repeat`` timeit loops (perf_counter, garbage collector
    off) of ``number`` calls of ``call``."""
    return min(timeit.repeat(call, repeat=repeat, number=number)) / number


def oracle_times() -> dict[str, float]:
    """Seconds of one call of each L5 oracle on the demo config, as the CLI makes it.

    Imports onramp from sys.path, so run it where the checkout's src/ is first.  An
    oracle that the checkout's onramp does not have, on one side of an A/B, is left out.
    """
    import onramp
    ramp = onramp.OnRamp.from_config(onramp.load_config(DEMO_CONFIG))
    narrow, wide = onramp.ErrorInterval(0.5, 2.0), onramp.ErrorInterval(0.25, 4.0)
    calls = {
        "grid_optimal_beta[0.5,2]": lambda: onramp.grid_optimal_beta(ramp, narrow),
        "grid_optimal_beta[0.25,4]": lambda: onramp.grid_optimal_beta(ramp, wide),
        "exact_equilibria": lambda: onramp.exact_equilibria(ramp, 0.8, 1.0),
        "best_response_dynamics": lambda: onramp.best_response_dynamics(ramp, 0.8, 1.0),
        "grid_poa": lambda: onramp.grid_poa(ramp, 1.0, narrow),
    }
    return {name: best_time(call, 1, 1) for name, call in calls.items()
            if hasattr(onramp, name.partition("[")[0])}


def closed_form_times(path=DEMO_CONFIG) -> dict[str, float]:
    """Best seconds per call of each L0-L3 closed form on the config at ``path``.

    Each call is timed by best_time over CALL_REPEATS loops of CALLS_PER_LOOP calls.
    ``load_config`` reads and parses the file, and ``from_config`` is the whole model
    build.  The ``cli.main[...]`` keys time the CLI's ``main`` on the config with the
    flags of perfbench's cli_session, its stdout sent to a fresh StringIO.  The config
    must lie in the meaningful set.
    """
    import onramp.cli
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    config = onramp.OnRampConfig.from_dict(data)
    ramp = onramp.OnRamp.from_config(config)
    interval = onramp.ErrorInterval(0.5, 2.0)
    calls = {
        "load_config": lambda: onramp.load_config(path),
        "from_dict": lambda: onramp.OnRampConfig.from_dict(data),
        "from_config": lambda: onramp.OnRamp.from_config(config),
        "classification": lambda: onramp.classification(ramp, interval),
        "optimal_beta": lambda: onramp.optimal_beta(ramp, interval),
        "poa": lambda: onramp.poa(ramp, 1.0, interval),
        "solve": lambda: onramp.solve(ramp, 0.8, 1.0),
    }
    for args in (["analyze", "--e-lower", "0.5", "--e-upper", "2"],
                 ["equilibrium", "--alpha", "0.8", "--beta", "1"],
                 ["optimal-beta", "--e-lower", "0.25", "--e-upper", "4"]):
        argv = [args[0], "--config", str(path), *args[1:]]

        def command(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return onramp.cli.main(argv)

        if command() != 0:
            raise RuntimeError(f"onramp {' '.join(argv)} failed")
        calls[f"cli.main[{args[0]}]"] = command
    return {name: best_time(call, CALL_REPEATS, CALLS_PER_LOOP) for name, call in calls.items()}


# code run in a fresh interpreter, which prints on its last line one JSON object: the
# seconds of the closed forms, the first import of onramp.cli timed before anything else,
# then those of the oracles, run after the closed forms
BENCH = str(ROOT / "bench")
FRESH_TABLES = ("oracles", "closed_forms", "import_times")
FRESH_CODE = ("import time; start = time.perf_counter(); import onramp.cli; "
              "seconds = time.perf_counter() - start; "
              f"import json, sys; sys.path.insert(0, {BENCH!r}); import record; "
              "closed_forms = {'import onramp.cli': seconds, **record.closed_form_times()}; "
              "print(json.dumps({'closed_forms': closed_forms, "
              "'oracles': record.oracle_times()}))")


def run_python(checkout: Path, args: tuple[str, ...]) -> subprocess.CompletedProcess:
    """One fresh ``python`` process on ``args`` in ``checkout``, which must exit 0.

    The exported trees are byte-compiled, so the process loads cached bytecode.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, *args]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return done


def run_fresh(checkout: Path, code: str) -> dict:
    """The JSON object ``code`` prints last, run fresh on the checkout's src/."""
    return json.loads(run_python(checkout, ("-c", code)).stdout.splitlines()[-1])


# the CLI command whose whole process is timed, and its row in the closed-form table
PROCESS_ARGV = ("analyze", "--config", DEMO_CONFIG)
PROCESS_KEY = f"process[{PROCESS_ARGV[0]}]"
# per row, the interpreter arguments of a timed process: the CLI command, the verify command
# (the exact and dynamics oracles), the beta* oracle on the wider demo interval, then the
# bare interpreter with and without the site module, the start-up that any command pays first
PROCESSES = {
    PROCESS_KEY: ("-m", "onramp", *PROCESS_ARGV),
    "process[verify]": ("-m", "onramp", "verify", "--config", DEMO_CONFIG),
    "process[optimal-beta --verify]": ("-m", "onramp", "optimal-beta", "--config", DEMO_CONFIG,
                                       "--e-lower", "0.25", "--e-upper", "4", "--verify"),
    "process[python -c pass]": ("-c", "pass"),
    "process[python -S -c pass]": ("-S", "-c", "pass"),
}


# the same CLI process, with each module's import timed by the interpreter
IMPORTTIME_ARGS = ("-X", "importtime", *PROCESSES[PROCESS_KEY])


def process_seconds(checkout: Path, args: tuple[str, ...]) -> float:
    """Wall seconds of one fresh ``python`` process on ``args`` in ``checkout``."""
    start = time.perf_counter()
    run_python(checkout, args)
    return time.perf_counter() - start


def import_self_times(stderr: str) -> dict[str, float]:
    """Per module, in import order, the self seconds that ``-X importtime`` wrote to ``stderr``."""
    times = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = int(fields[0]) / 1e6
    return times


def import_times(checkout: Path) -> dict[str, float]:
    """Per module, its self seconds in one IMPORTTIME_ARGS process in ``checkout``."""
    return import_self_times(run_python(checkout, IMPORTTIME_ARGS).stderr)


def fresh_rounds(trees: dict) -> dict:
    """ORACLE_REPEATS rounds, parent first in even ones: per table, side and name, its runs.

    Each round runs FRESH_CODE once, for the ``oracles`` and ``closed_forms``
    tables; then times each of PROCESSES as a whole process, by its key among
    the closed forms; then runs IMPORTTIME_ARGS once for ``import_times``.
    """
    runs = {table: {side: {} for side in SIDES} for table in FRESH_TABLES}
    for round_ in range(ORACLE_REPEATS):
        for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
            times = run_fresh(trees[side], FRESH_CODE)
            times["closed_forms"].update(
                (key, process_seconds(trees[side], args)) for key, args in PROCESSES.items())
            times["import_times"] = import_times(trees[side])
            for table in FRESH_TABLES:
                for name, value in times[table].items():
                    runs[table][side].setdefault(name, []).append(value)
    return runs


# printed by a fresh interpreter: the bytecode setting that the runs inherit
BYTECODE_CODE = ("import json, os, sys; print(json.dumps({'PYTHONDONTWRITEBYTECODE': "
                 "os.environ.get('PYTHONDONTWRITEBYTECODE'), "
                 "'dont_write_bytecode': bool(sys.flags.dont_write_bytecode)}))")


def spread(values: list[float]) -> dict:
    """The values with their median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summary(parent: list[float] | None, change: list[float] | None, better: str,
            unit: str) -> dict:
    """The one row of every table, from each side's values in pair or round order.

    ``pairs_won`` counts the pairs the change won in the ``better`` direction.  ``ratio``
    holds each pair's change/parent value with its quartiles, so that a claim can be read
    against the pairs' own spread; it is null unless every parent value is positive.  A
    side given None, which never made the timed call, is null, and so are ``ratio`` and
    ``median_change``.
    """
    pairs = list(zip(parent or (), change or ()))  # empty unless both sides have values
    sign = 1.0 if better == "higher" else -1.0
    row = {"unit": unit, "better": better,
           "pairs_won": sum(sign * (after - before) > 0.0 for before, after in pairs),
           "parent": spread(parent) if parent else None,
           "change": spread(change) if change else None}
    positive = pairs and all(before > 0.0 for before, _ in pairs)
    row["ratio"] = spread([after / before for before, after in pairs]) if positive else None
    row["median_change"] = row["change"]["median"] - row["parent"]["median"] if pairs else None
    return row


def compare(runs: dict, spec: dict) -> dict:
    """Per workload and end-to-end metric: the summary row of both sides' values."""
    return {
        workload: {
            entry["name"]: summary(*(
                [run[workload]["metrics"][entry["name"]]["value"] for run in runs[side]]
                for side in SIDES
            ), entry["better"], entry["unit"])
            for entry in spec["end_to_end"]
        }
        for workload in runs["parent"][0]
    }


def timings(runs: dict) -> dict:
    """Per name that either side timed, in seconds: the summary row of both sides' runs."""
    names = dict.fromkeys([*runs["parent"], *runs["change"]])
    return {name: summary(runs["parent"].get(name), runs["change"].get(name), "lower", "s")
            for name in names}


def all_correct(runs: dict) -> dict[str, bool]:
    """Per side, whether every workload of every run checked its outputs as correct."""
    return {side: all(result["correct"] for run in runs[side] for result in run.values())
            for side in SIDES}


def traced_table(runs: dict, spec: dict) -> dict:
    """The traced pairs: per side whether all were correct, and compare's table per layer."""
    return {
        "correct": all_correct(runs),
        "per_layer": compare(runs, {"end_to_end": spec["per_layer"]}),
    }


def previous_file(out: Path) -> Path | None:
    """The BENCH_<n>.json beside ``out`` with the largest n below out's own."""
    def number(path: Path) -> int | None:
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        return int(match.group(1)) if match else None

    limit = number(out)
    numbered = {number(path): path for path in out.parent.glob("BENCH_*.json")}
    older = [n for n in numbered if n is not None and limit is not None and n < limit]
    return numbered[max(older)] if older else None


def since_previous(previous: dict, table: dict) -> dict:
    """Per workload and metric in both: the previous change-side median and the move from it."""
    moves = {}
    for workload, metrics in table.items():
        for name, row in metrics.items():
            before = previous["end_to_end"].get(workload, {}).get(name)
            if before is not None:
                median = before["change"]["median"]
                moves.setdefault(workload, {})[name] = {
                    "previous_median": median,
                    "change_since": row["change"]["median"] - median,
                }
    return moves


def since_previous_section(previous: Path, earlier: dict, parent: str, table: dict) -> dict:
    """The since_previous entry: the previous file, its change commit, the moves, and drift.

    ``drift`` is true when that change commit and this run's ``parent`` hold the same code.
    """
    return {
        "file": previous.name,
        "commit": earlier["commits"]["change"],
        "drift": same_code(earlier["commits"]["change"], parent),
        "end_to_end": since_previous(earlier, table),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the baseline")
    parser.add_argument("--change", required=True, help="commit measured against it")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_build" / "record",
                        help="where the two checkouts are exported")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    commits = {side: resolve(getattr(args, side)) for side in SIDES}
    previous = previous_file(args.out.resolve())
    if previous is not None:  # read before the runs, so a bad file costs no run
        earlier = json.loads(previous.read_text(encoding="utf-8"))
    trees = {side: export(commits[side], args.workdir, side) for side in SIDES}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    def pair(seed: int, parent_first: bool, trace: int = 0) -> dict:
        order = SIDES if parent_first else SIDES[::-1]
        results = {}
        for side in order:
            started = time.monotonic()
            results[side] = run_bench(trees[side], seed, seconds, trace)
            print(f"seed {seed} {side} trace {trace}: {time.monotonic() - started:.0f} s",
                  file=sys.stderr)
        return results

    def pairs(trace: int) -> dict:
        """PAIRS pairs on seeds 0 .. PAIRS-1, parent first in even pairs: per side its runs."""
        runs = {side: [] for side in SIDES}
        for seed in range(PAIRS):
            results = pair(seed, seed % 2 == 0, trace)
            for side in SIDES:
                runs[side].append(results[side])
        return runs

    runs = pairs(trace=0)
    document = {
        "commits": commits,
        "command": f"python3 perfbench/run.py --workload all --seed i --seconds {seconds:g}",
        "pairs": PAIRS,
        "order": "parent first in even pairs, change first in odd pairs",
        "provenance": {
            side: {name: result["provenance"] for name, result in runs[side][0].items()}
            for side in SIDES
        },
        "bytecode": {
            side: {**run_fresh(trees[side], BYTECODE_CODE), "compiled": True} for side in SIDES
        },
        "correct": all_correct(runs),
        "failed_ops": {
            side: sum(result["failed"] for run in runs[side] for result in run.values())
            for side in SIDES
        },
        "end_to_end": compare(runs, spec),
    }
    results = pair(HELD_OUT_SEED, parent_first=True)
    held = compare({side: [results[side]] for side in SIDES}, spec)
    document["held_out"] = {"seed": HELD_OUT_SEED, "end_to_end": held}
    document["traced"] = traced_table(pairs(trace=1), spec)
    tables = {table: timings(side_runs) for table, side_runs in fresh_rounds(trees).items()}
    rounds = f"one run per side in each of {ORACLE_REPEATS} rounds, the sides alternating"
    document["oracles"] = {
        "gated": False,
        "config": DEMO_CONFIG,
        "timer": f"per call, the best of 1 timeit loop of 1 call, after the closed forms in the"
                 f" same fresh process; {rounds}",
        "timings": tables["oracles"],
    }
    document["closed_forms"] = {
        "gated": False,
        "config": DEMO_CONFIG,
        "timer": f"'import onramp.cli': time.perf_counter around the first import of onramp;"
                 " each 'process[...]': time.perf_counter around one whole process,"
                 f" {PROCESS_KEY!r} being 'python -m onramp {' '.join(PROCESS_ARGV)}',"
                 f" 'process[verify]' 'python {' '.join(PROCESSES['process[verify]'])}',"
                 " 'process[optimal-beta --verify]'"
                 f" 'python {' '.join(PROCESSES['process[optimal-beta --verify]'])}';"
                 f" the others: per call, the best of {CALL_REPEATS} timeit loops of"
                 f" {CALLS_PER_LOOP} calls, in one fresh process; {rounds}",
        "timings": tables["closed_forms"],
    }
    document["import_times"] = {
        "gated": False,
        "command": f"python {' '.join(IMPORTTIME_ARGS)}",
        "timer": f"each module's self time as -X importtime prints it; {rounds};"
                 " null where the side does not import the module",
        "self_s": tables["import_times"],
    }
    if previous is not None:
        document["since_previous"] = since_previous_section(
            previous, earlier, commits["parent"], document["end_to_end"]
        )
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
