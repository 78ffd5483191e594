"""Unit tests for the A/B summary of bench/record.py."""

import importlib.util
import json
import random
import subprocess
from pathlib import Path

import pytest

from onramp.model import CONFIG_KEYS, OnRamp

from conftest import sample_config

_PATH = Path(__file__).resolve().parents[1] / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]}


def _run(ops_per_s, setup_s):
    metrics = {"ops_per_s": {"value": ops_per_s}, "setup_s": {"value": setup_s}}
    return {"w": {"metrics": metrics}}


def test_compare_counts_pairs_won_in_the_better_direction():
    runs = {
        "parent": [_run(100.0, 0.10), _run(110.0, 0.10), _run(120.0, 0.10)],
        "change": [_run(150.0, 0.12), _run(100.0, 0.09), _run(130.0, 0.10)],
    }
    table = record.compare(runs, SPEC)["w"]
    assert table["ops_per_s"]["pairs_won"] == 2
    assert table["setup_s"]["pairs_won"] == 1
    assert table["ops_per_s"]["parent"]["median"] == 110.0
    assert table["ops_per_s"]["change"]["values"] == [150.0, 100.0, 130.0]
    assert table["ops_per_s"]["median_change"] == 20.0


def test_compare_quartiles_of_ten_runs():
    runs = {side: [_run(float(v), 0.1) for v in range(1, 11)] for side in record.SIDES}
    row = record.compare(runs, SPEC)["w"]["ops_per_s"]
    assert (row["parent"]["q1"], row["parent"]["median"], row["parent"]["q3"]) == pytest.approx(
        (2.75, 5.5, 8.25)
    )
    assert row["pairs_won"] == 0


def test_compare_keeps_each_pairs_ratio_and_its_quartiles():
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [90.0, 121.0, 108.0, 143.0, 140.0]
    runs = {"parent": [_run(v, 0.1) for v in parent], "change": [_run(v, 0.0) for v in change]}
    table = record.compare(runs, SPEC)["w"]
    ratio = table["ops_per_s"]["ratio"]
    assert ratio["values"] == pytest.approx([0.9, 1.1, 0.9, 1.1, 1.0])
    # statistics.quantiles' exclusive method on the sorted 0.9, 0.9, 1.0, 1.1, 1.1
    assert (ratio["q1"], ratio["median"], ratio["q3"]) == pytest.approx((0.9, 1.0, 1.1))
    assert table["setup_s"]["ratio"]["values"] == [0.0] * 5
    # the median ratio is not the ratio of the medians: the pairs are read one by one
    assert table["ops_per_s"]["change"]["median"] / table["ops_per_s"]["parent"]["median"] \
        == pytest.approx(121.0 / 120.0)
    zero = {"parent": [_run(1.0, 0.0), _run(2.0, 0.1)], "change": [_run(1.0, 0.1)] * 2}
    assert record.compare(zero, SPEC)["w"]["setup_s"]["ratio"] is None
    one = {"parent": [_run(100.0, 0.1)], "change": [_run(80.0, 0.1)]}
    row = record.compare(one, SPEC)["w"]["ops_per_s"]["ratio"]
    assert (row["q1"], row["median"], row["q3"]) == (0.8, 0.8, 0.8)


def _traced_run(seconds, rows, correct=True):
    metrics = {"w.self_s": {"value": seconds}, "rows": {"value": rows}}
    return {"w": {"correct": correct, "metrics": metrics}}


def test_traced_table_compares_every_per_layer_metric():
    spec = {"per_layer": [{"name": "w.self_s", "unit": "s", "better": "lower"},
                          {"name": "rows", "unit": "count", "better": "lower"}]}
    runs = {
        "parent": [_traced_run(s, 10.0) for s in (4e-4, 1e-4, 3e-4, 2e-4)],
        "change": [_traced_run(s, 10.0) for s in (2e-4, 3e-4, 1e-4, 1e-4)],
    }
    table = record.traced_table(runs, spec)
    assert table["correct"] == {"parent": True, "change": True}
    row = table["per_layer"]["w"]["w.self_s"]
    assert (row["unit"], row["better"], row["pairs_won"]) == ("s", "lower", 3)
    assert row["parent"]["median"] == pytest.approx(2.5e-4)
    assert row["change"]["median"] == pytest.approx(1.5e-4)
    assert row["change"]["values"] == [2e-4, 3e-4, 1e-4, 1e-4]
    assert row["median_change"] == pytest.approx(-1e-4)
    assert table["per_layer"]["w"]["rows"]["pairs_won"] == 0  # equal counts win no pair
    runs["change"][2] = _traced_run(1e-4, 10.0, correct=False)
    assert record.traced_table(runs, spec)["correct"] == {"parent": True, "change": False}


def _document(medians):
    """A BENCH document with only the change-side medians of its end-to-end table."""
    return {"end_to_end": {
        workload: {name: {"change": {"median": value}} for name, value in metrics.items()}
        for workload, metrics in medians.items()
    }}


def test_since_previous_reads_the_previous_change_medians():
    previous = _document({"w": {"ops_per_s": 1000.0, "setup_s": 0.1}, "gone": {"ops_per_s": 5.0}})
    current = _document({"w": {"ops_per_s": 1250.0, "setup_s": 0.125}, "new": {"ops_per_s": 7.0}})
    moves = record.since_previous(previous, current["end_to_end"])
    assert moves == {"w": {
        "ops_per_s": {"previous_median": 1000.0, "change_since": 250.0},
        "setup_s": {"previous_median": 0.1, "change_since": pytest.approx(0.025)},
    }}


def test_previous_file_is_the_newest_below_the_out_number(tmp_path):
    for name in ("BENCH_3.json", "BENCH_6.json", "BENCH_9.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert record.previous_file(tmp_path / "BENCH_7.json") == tmp_path / "BENCH_6.json"
    assert record.previous_file(tmp_path / "BENCH_6.json") == tmp_path / "BENCH_3.json"
    assert record.previous_file(tmp_path / "BENCH_3.json") is None
    assert record.previous_file(tmp_path / "out.json") is None


def test_oracle_table_keeps_runs_best_and_ratio():
    times = {
        "parent": {"grid_poa": [0.5, 0.2, 0.4], "best_response_dynamics": [1e-4, 2e-4]},
        "change": {"grid_poa": [0.3, 0.1, 0.6], "best_response_dynamics": [3e-4, 4e-4]},
    }
    table = record.oracle_table(times)
    assert set(table) == {"grid_poa", "best_response_dynamics"}
    row = table["grid_poa"]
    assert row["parent"] == {"best_s": 0.2, "runs_s": [0.5, 0.2, 0.4]}
    assert row["change"] == {"best_s": 0.1, "runs_s": [0.3, 0.1, 0.6]}
    assert row["change_over_parent"] == 0.5
    assert table["best_response_dynamics"]["change_over_parent"] == pytest.approx(3.0)
    # each round pairs the two sides' runs: 0.3/0.5, 0.1/0.2 and 0.6/0.4
    assert row["round_ratios"] == pytest.approx({"min": 0.5, "median": 0.6, "max": 1.5})
    assert table["best_response_dynamics"]["round_ratios"] == pytest.approx(
        {"min": 2.0, "median": 2.5, "max": 3.0}
    )


CLOSED_FORMS = {"load_config", "from_dict", "from_config", "classification", "optimal_beta", "poa",
                "solve", "cli.main[analyze]", "cli.main[equilibrium]", "cli.main[optimal-beta]"}
ORACLES = {"grid_optimal_beta[0.5,2]", "grid_optimal_beta[0.25,4]", "brute_force_equilibrium",
           "best_response_dynamics", "grid_poa"}


def test_closed_form_times_on_a_synthetic_document(tmp_path, monkeypatch):
    rng = random.Random(3)
    config = sample_config(rng)
    while not OnRamp.from_config(config).in_meaningful_set:
        config = sample_config(rng)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: getattr(config, key) for key in CONFIG_KEYS}))
    monkeypatch.setattr(record, "CALL_REPEATS", 2)
    monkeypatch.setattr(record, "CALLS_PER_LOOP", 3)
    times = record.closed_form_times(path)
    assert set(times) == CLOSED_FORMS
    assert all(0.0 < seconds < 0.1 for seconds in times.values())


def test_oracle_times_time_each_oracle_once(monkeypatch):
    monkeypatch.chdir(_PATH.parents[1])
    times = record.oracle_times()
    assert set(times) == ORACLES
    assert all(seconds > 0.0 for seconds in times.values())


def test_run_fresh_reads_the_last_line_and_names_a_failure():
    root = _PATH.parents[1]
    assert record.run_fresh(root, "print('warm-up'); print('{\"x\": 0.5}')") == {"x": 0.5}
    with pytest.raises(RuntimeError, match="exited 3"):
        record.run_fresh(root, "raise SystemExit(3)")


def test_closed_form_code_times_the_cli_import_first():
    times = record.run_fresh(_PATH.parents[1], record.CLOSED_FORM_CODE)
    assert set(times) == CLOSED_FORMS | {"import onramp.cli"}
    assert all(seconds > 0.0 for seconds in times.values())


def _git(root, *args):
    argv = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
            "-c", "commit.gpgsign=false", *args]
    return subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def _commit(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "commit")
    return _git(root, "rev-parse", "HEAD")


@pytest.fixture
def history(tmp_path, monkeypatch):
    """Four commits of a scratch repository, which record's git calls then read."""
    _git(tmp_path, "init", "-q")
    commits = {
        "base": _commit(tmp_path, {"src/a.py": "1", "perfbench/run.py": "1", "README.md": "1"}),
        "docs": _commit(tmp_path, {"README.md": "2", "BENCH_2.json": "{}"}),
        "src": _commit(tmp_path, {"src/a.py": "2"}),
        "perfbench": _commit(tmp_path, {"src/a.py": "1", "perfbench/run.py": "2"}),
    }
    monkeypatch.setattr(record, "ROOT", tmp_path)
    return commits


def test_same_code_compares_the_src_and_perfbench_trees(history):
    assert record.same_code(history["base"], history["docs"])
    assert not record.same_code(history["docs"], history["src"])
    assert not record.same_code(history["base"], history["perfbench"])
    assert not record.same_code(history["base"], "0" * 40)
    assert not record.same_code("0" * 40, "0" * 40)


@pytest.mark.parametrize("parent, drift", [("docs", True), ("src", False), ("perfbench", False)])
def test_since_previous_is_drift_only_between_the_same_code(history, tmp_path, parent, drift):
    earlier = {"commits": {"change": history["base"]}, **_document({"w": {"ops_per_s": 1000.0}})}
    table = _document({"w": {"ops_per_s": 1100.0}})["end_to_end"]
    section = record.since_previous_section(
        tmp_path / "BENCH_2.json", earlier, history[parent], table
    )
    assert section == {
        "file": "BENCH_2.json",
        "commit": history["base"],
        "drift": drift,
        "end_to_end": {"w": {"ops_per_s": {"previous_median": 1000.0, "change_since": 100.0}}},
    }


@pytest.mark.parametrize("value, flag", [("1", True), (None, False)])
def test_bytecode_code_reports_the_inherited_setting(monkeypatch, value, flag):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    setting = record.run_fresh(_PATH.parents[1], record.BYTECODE_CODE)
    assert setting == {"PYTHONDONTWRITEBYTECODE": value, "dont_write_bytecode": flag}


def test_export_byte_compiles_the_src_modules(history, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    tree = record.export(history["base"], tmp_path / "work")
    assert (tree / "src" / "a.py").read_text() == "1"
    assert list((tree / "src" / "__pycache__").glob("a.*.pyc"))


def test_process_seconds_times_a_whole_cli_process(tmp_path):
    assert record.PROCESS_KEY == "process[analyze]"
    cli = record.PROCESSES[record.PROCESS_KEY]
    assert 0.0 < record.process_seconds(_PATH.parents[1], cli) < 30.0
    fake = tmp_path / "src" / "onramp"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text("import sys\nsys.exit('no config')")
    with pytest.raises(RuntimeError, match="exited 1:\nno config"):
        record.process_seconds(tmp_path, cli)


def test_process_seconds_times_a_whole_verify_process():
    # the command that imports numpy, on the config of the analyze row
    args = record.PROCESSES["process[verify]"]
    assert args == ("-m", "onramp", "verify", "--config", record.DEMO_CONFIG)
    assert record.DEMO_CONFIG == record.PROCESS_ARGV[-1]
    assert 0.0 < record.process_seconds(_PATH.parents[1], args) < 30.0


@pytest.mark.parametrize("key, args", [("process[python -c pass]", ("-c", "pass")),
                                       ("process[python -S -c pass]", ("-S", "-c", "pass"))])
def test_process_seconds_times_the_bare_interpreter(tmp_path, key, args):
    assert record.PROCESSES[key] == args
    assert 0.0 < record.process_seconds(tmp_path, args) < 30.0


def test_fresh_rounds_alternate_the_sides_and_add_the_process_row(monkeypatch):
    calls = []

    def run_fresh(checkout, code):
        calls.append((checkout.name, "oracles" if code == record.ORACLE_CODE else "closed"))
        return {"oracle": 1.0} if code == record.ORACLE_CODE else {"solve": 2.0}

    def process_seconds(checkout, args):
        calls.append((checkout.name, " ".join(args)))
        return 3.0 if args[-1] == "pass" else 4.0

    def import_times(checkout):
        calls.append((checkout.name, "importtime"))
        return {"onramp": 5.0, checkout.name: 6.0}

    monkeypatch.setattr(record, "run_fresh", run_fresh)
    monkeypatch.setattr(record, "process_seconds", process_seconds)
    monkeypatch.setattr(record, "import_times", import_times)
    monkeypatch.setattr(record, "ORACLE_REPEATS", 2)
    oracle_runs, closed_form_runs, import_runs = record.fresh_rounds(
        {side: Path(side) for side in record.SIDES})
    kinds = ("oracles", "closed", "-m onramp analyze --config demos/onramp.json",
             "-m onramp verify --config demos/onramp.json", "-c pass", "-S -c pass", "importtime")
    assert calls == [(side, kind) for side in ("parent", "change", "change", "parent")
                     for kind in kinds]
    assert oracle_runs == {side: {"oracle": [1.0, 1.0]} for side in record.SIDES}
    rows = {"solve": [2.0, 2.0], "process[analyze]": [4.0, 4.0], "process[verify]": [4.0, 4.0],
            "process[python -c pass]": [3.0, 3.0], "process[python -S -c pass]": [3.0, 3.0],
            "process[analyze] net of process[python -c pass]": [1.0, 1.0],
            "process[verify] net of process[python -c pass]": [1.0, 1.0]}
    assert closed_form_runs == {side: rows for side in record.SIDES}
    assert set(record.oracle_table(closed_form_runs)) == set(rows)
    assert import_runs == {side: {"onramp": [5.0, 5.0], side: [6.0, 6.0]} for side in record.SIDES}
    assert record.import_table(import_runs) == {
        "change": {"parent": None, "change": 6.0},
        "onramp": {"parent": 5.0, "change": 5.0},
        "parent": {"parent": 6.0, "change": None},
    }


def test_fresh_rounds_take_each_net_row_against_the_same_rounds_baseline(monkeypatch):
    # each process's seconds move by round and side, so only the same round's baseline
    # leaves the fixed cost of the command
    rounds = {side: 0 for side in record.SIDES}
    cost = {"analyze": 0.25, "verify": 2.0}

    def process_seconds(checkout, args):
        side = checkout.name
        drift = 1.0 + 10.0 * rounds[side] + (0.5 if side == "change" else 0.0)
        if args == record.PROCESSES["process[python -S -c pass]"]:
            rounds[side] += 1  # the last process of a side's round
        return drift + (cost[args[2]] if args[:2] == ("-m", "onramp") else 0.0)

    monkeypatch.setattr(record, "run_fresh", lambda checkout, code: {})
    monkeypatch.setattr(record, "process_seconds", process_seconds)
    monkeypatch.setattr(record, "import_times", lambda checkout: {})
    monkeypatch.setattr(record, "ORACLE_REPEATS", 3)
    _, runs, _ = record.fresh_rounds({side: Path(side) for side in record.SIDES})
    for side in record.SIDES:
        assert runs[side]["process[verify]"] == [
            3.0 + 10.0 * i + (0.5 if side == "change" else 0.0) for i in range(3)]
        assert runs[side]["process[analyze] net of process[python -c pass]"] == [0.25] * 3
        assert runs[side]["process[verify] net of process[python -c pass]"] == [2.0] * 3
    table = record.oracle_table(runs)
    assert table["process[verify] net of process[python -c pass]"]["change_over_parent"] == 1.0
    assert table["process[verify]"]["change_over_parent"] == 3.5 / 3.0


IMPORTTIME_STDERR = """\
import time: self [us] | cumulative | imported package
import time:       412 |        412 |   _io
import time:      1034 |       1500 | onramp
import time:        20 |         20 |     onramp.errors
a line that some other module wrote
import time:      2500 |       2520 |   onramp.model
"""


def test_import_self_times_reads_each_module_line():
    assert record.import_self_times(IMPORTTIME_STDERR) == {
        "_io": 412e-6, "onramp": 1034e-6, "onramp.errors": 20e-6, "onramp.model": 2500e-6,
    }


def test_import_times_of_the_cli_process_leave_out_what_analyze_does_not_run():
    assert record.IMPORTTIME_ARGS == ("-X", "importtime", *record.PROCESSES[record.PROCESS_KEY])
    times = record.import_times(_PATH.parents[1])
    assert {"onramp", "onramp.cli", "onramp.model", "onramp.analysis"} <= times.keys()
    assert not {"onramp.equilibrium", "onramp.sweeps", "dataclasses"} & times.keys()
    assert all(seconds >= 0.0 for seconds in times.values())
