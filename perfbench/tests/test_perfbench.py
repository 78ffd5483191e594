"""Tests of the benchmark itself, at a reduced run length.

Run from the root of the repository: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import onramp  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = result(workload, 1, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = {entry["name"]: entry["unit"] for entry in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"] for name, metric in res["metrics"].items()} == wanted
    if not trace:
        assert all(metric["value"] > 0 for metric in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_changes_inputs_but_not_metric_names(workload, tmp_path):
    def docs(seed, name):
        path = tmp_path / name
        path.mkdir()
        return WORKLOADS[workload](seed, path).docs

    assert docs(1, "a") == docs(1, "b")
    assert docs(1, "c") != docs(2, "d")
    assert result(workload, 1, 0)["metrics"].keys() == result(workload, 2, 0)["metrics"].keys()


def test_traced_counts_repeat_across_runs():
    first = result("closed_form_batch", 1, 1)
    proc = bench("--workload", "closed_form_batch", "--seed", "1", "--seconds", "1", "--trace", "1")
    second = json.loads(proc.stdout.splitlines()[-1])
    counts = [entry["name"] for entry in SPEC["per_layer"] if entry["unit"] in ("count", "B")]
    assert [first["metrics"][name] for name in counts] == [second["metrics"][name] for name in counts]
    assert first["metrics"]["analysis.classify.calls"]["value"] > 0


def test_perturbed_library_result_counts_as_failed(monkeypatch, tmp_path):
    workload = WORKLOADS["closed_form_batch"](3, tmp_path)
    clean = run.Loop(workload)
    clean.for_ops(40)
    assert clean.failed == 0

    solve = onramp.solve_equilibrium

    def shifted(*args, **kwargs):
        found = solve(*args, **kwargs)
        return dataclasses.replace(found, x_hat_b=found.x_hat_b + 1e-6)

    monkeypatch.setattr(onramp, "solve_equilibrium", shifted)
    perturbed = run.Loop(workload)
    perturbed.for_ops(40)
    meaningful = sum(bool(workload.op(i).equilibria) for i in range(40))
    assert 0 < meaningful < 40
    assert perturbed.failed == meaningful
    assert perturbed.failed / perturbed.attempted > 0


class _Counting:
    """A workload whose op 5, in the second round, fails its check, and whose
    input 1 is slow in every round but the third."""

    POOL = 4

    def op(self, index):
        if index % self.POOL == 1 and index // self.POOL != 2:
            time.sleep(0.002)
        return index

    def check(self, index, outcome):
        if index == 5:
            raise CheckFailed("planted")


def test_loop_keeps_each_inputs_fastest_op_and_a_bounded_tail():
    loop = run.Loop(_Counting())
    loop.for_ops(4 * 50)
    assert (loop.attempted, loop.failed, loop.timed) == (200, 1, 199)
    fastest = loop.fastest_ops()
    assert len(fastest) == 4 and max(fastest) < 0.002
    assert loop.busy >= 48 * 0.002 and loop.busy / loop.timed > max(fastest)
    assert len(loop.largest) == run.TAIL_BEYOND + 1
    latency, percentile = loop.tail()
    assert latency == min(loop.largest) >= 0.002
    assert percentile == 100.0 * (199 - run.TAIL_BEYOND) / 199


def test_loop_refuses_an_input_that_always_failed():
    class AlwaysFails(_Counting):
        def check(self, index, outcome):
            if index % self.POOL == 3:
                raise CheckFailed("planted")

    loop = run.Loop(AlwaysFails())
    loop.for_ops(4 * 3)
    assert loop.failed == 3
    with pytest.raises(RuntimeError):
        loop.fastest_ops()


PERTURBATIONS = {
    "closed_form_batch": lambda w, o: dataclasses.replace(
        o, poas=(o.poas[0] * (1 + 1e-6),) + o.poas[1:]
    ),
    "cli_session": lambda w, o: dataclasses.replace(
        o, stdout=o.stdout.replace("phi = ", "phi = 1")
    ),
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_checks_catch_a_perturbed_outcome(workload, tmp_path):
    bench_workload = WORKLOADS[workload](5, tmp_path)
    index = next(i for i in range(64) if workload != "closed_form_batch"
                 or bench_workload.op(i).equilibria)
    outcome = bench_workload.op(index)
    bench_workload.check(index, outcome)
    with pytest.raises(CheckFailed):
        bench_workload.check(index, PERTURBATIONS[workload](bench_workload, outcome))


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "closed_form_batch", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
