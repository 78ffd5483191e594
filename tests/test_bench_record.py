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


def _pairs(values):
    """Faked runs, one per pair of (ops_per_s, setup_s) of workload a, then of workload b."""
    return [{workload: {"correct": True, "metrics": {"ops_per_s": {"value": ops},
                                                     "setup_s": {"value": setup}}}
             for workload, ops, setup in (("a", *run[:2]), ("b", *run[2:]))} for run in values]


PINNED_RUNS = {
    "parent": _pairs([(100.0, 0.25, 8.0, 0.0), (125.0, 0.5, 10.0, 0.5), (80.0, 0.5, 4.0, 0.25)]),
    "change": _pairs([(125.0, 0.25, 6.0, 0.25), (100.0, 0.25, 12.0, 0.5), (100.0, 1.0, 5.0, 0.0)]),
}


def _row(unit, better, won, parent, change, ratio, median_change):
    """A summary row written out: each spread as (median, q1, q3, values)."""
    def spread(median, q1, q3, values):
        return {"median": median, "q1": q1, "q3": q3, "values": values}

    return {"unit": unit, "better": better, "pairs_won": won, "parent": spread(*parent),
            "change": spread(*change), "ratio": ratio and spread(*ratio),
            "median_change": median_change}


# every key and value of compare's table on PINNED_RUNS: the end-to-end, held-out and traced
# tables are built by it
PINNED_TABLE = {
    "a": {
        "ops_per_s": _row("1/s", "higher", 2, (100.0, 80.0, 125.0, [100.0, 125.0, 80.0]),
                          (100.0, 100.0, 125.0, [125.0, 100.0, 100.0]),
                          (1.25, 0.8, 1.25, [1.25, 0.8, 1.25]), 0.0),
        "setup_s": _row("s", "lower", 1, (0.5, 0.25, 0.5, [0.25, 0.5, 0.5]),
                        (0.25, 0.25, 1.0, [0.25, 0.25, 1.0]), (1.0, 0.5, 2.0, [1.0, 0.5, 2.0]),
                        -0.25),
    },
    "b": {
        "ops_per_s": _row("1/s", "higher", 2, (8.0, 4.0, 10.0, [8.0, 10.0, 4.0]),
                          (6.0, 5.0, 12.0, [6.0, 12.0, 5.0]),
                          (1.2, 0.75, 1.25, [0.75, 1.2, 1.25]), -2.0),
        # a zero parent value: no ratio
        "setup_s": _row("s", "lower", 1, (0.25, 0.0, 0.5, [0.0, 0.5, 0.25]),
                        (0.25, 0.0, 0.5, [0.25, 0.5, 0.0]), None, 0.0),
    },
}


def test_compare_keeps_every_key_and_value_of_the_gated_tables():
    assert record.compare(PINNED_RUNS, SPEC) == PINNED_TABLE
    held = record.compare({side: PINNED_RUNS[side][:1] for side in record.SIDES}, SPEC)
    assert held["a"]["ops_per_s"] == _row("1/s", "higher", 1, (100.0, 100.0, 100.0, [100.0]),
                                          (125.0, 125.0, 125.0, [125.0]),
                                          (1.25, 1.25, 1.25, [1.25]), 25.0)
    assert held["b"]["setup_s"]["ratio"] is None
    traced = record.traced_table(PINNED_RUNS, {"per_layer": SPEC["end_to_end"]})
    assert traced == {"correct": {"parent": True, "change": True}, "per_layer": PINNED_TABLE}


def test_every_table_has_the_one_summary_row():
    keys = set(PINNED_TABLE["a"]["ops_per_s"])
    assert keys == {"unit", "better", "pairs_won", "parent", "change", "ratio", "median_change"}
    held = record.compare({side: PINNED_RUNS[side][:1] for side in record.SIDES}, SPEC)
    traced = record.traced_table(PINNED_RUNS, {"per_layer": SPEC["end_to_end"]})["per_layer"]
    fresh = {"oracles": {side: {"grid_poa": [0.2, 0.3]} for side in record.SIDES},
             "closed_forms": {side: {"solve": [2e-6, 3e-6], "process[analyze] net of "
                                     "process[python -c pass]": [-1e-3, 2e-3]}
                              for side in record.SIDES},
             "import_times": {"parent": {"onramp": [1e-3, 2e-3], "dataclasses": [4e-4, 5e-4]},
                              "change": {"onramp": [2e-3, 1e-3]}}}
    rows = [row for table in (record.compare(PINNED_RUNS, SPEC), held, traced)
            for metrics in table.values() for row in metrics.values()]
    rows += [row for runs in fresh.values() for row in record.timings(runs).values()]
    assert len(rows) == 4 + 4 + 4 + 1 + 2 + 2
    assert all(set(row) == keys for row in rows)
    for row in rows:
        for side in record.SIDES:
            assert row[side] is None or set(row[side]) == {"median", "q1", "q3", "values"}


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


def test_timings_keep_each_sides_runs_best_and_round_ratios():
    times = {
        "parent": {"grid_poa": [0.5, 0.2, 0.4], "best_response_dynamics": [1e-4, 2e-4]},
        "change": {"grid_poa": [0.3, 0.1, 0.6], "best_response_dynamics": [3e-4, 4e-4]},
    }
    table = record.timings(times)
    assert list(table) == ["grid_poa", "best_response_dynamics"]
    row = table["grid_poa"]
    assert (row["unit"], row["better"], row["pairs_won"]) == ("s", "lower", 2)
    assert row["parent"] == {"median": 0.4, "q1": 0.2, "q3": 0.5, "values": [0.5, 0.2, 0.4]}
    assert row["change"]["values"] == [0.3, 0.1, 0.6]
    # each side's best stays readable as the least of its runs
    assert (min(row["parent"]["values"]), min(row["change"]["values"])) == (0.2, 0.1)
    # each round pairs the two sides' runs: 0.3/0.5, 0.1/0.2 and 0.6/0.4
    assert row["ratio"]["values"] == pytest.approx([0.6, 0.5, 1.5])
    assert (row["ratio"]["q1"], row["ratio"]["median"], row["ratio"]["q3"]) == pytest.approx(
        (0.5, 0.6, 1.5))
    assert row["median_change"] == pytest.approx(-0.1)
    other = table["best_response_dynamics"]
    assert other["ratio"]["values"] == pytest.approx([3.0, 2.0])
    assert other["ratio"]["median"] == pytest.approx(2.5)
    assert other["pairs_won"] == 0


def test_timings_of_a_net_row_with_a_non_positive_parent_value_have_no_ratio():
    # a net row is a difference of two processes, so it can read zero or below
    times = {"parent": {"net": [2e-3, -1e-3, 3e-3], "zero": [0.0, 1.0]},
             "change": {"net": [1e-3, 2e-3, 4e-3], "zero": [1.0, 1.0]}}
    table = record.timings(times)
    row = table["net"]
    assert row["ratio"] is None
    # the median and quartiles are those of the per-round differences themselves
    assert row["parent"] == {"median": 2e-3, "q1": -1e-3, "q3": 3e-3,
                             "values": [2e-3, -1e-3, 3e-3]}
    assert row["median_change"] == pytest.approx(0.0)
    assert row["pairs_won"] == 1
    assert table["zero"]["ratio"] is None


def test_timings_of_a_module_only_one_side_imports_are_null_on_the_other():
    runs = {"parent": {"onramp": [1e-3, 2e-3], "dataclasses": [4e-4, 5e-4]},
            "change": {"onramp": [2e-3, 2e-3], "onramp.lazy": [1e-4, 3e-4]}}
    table = record.timings(runs)
    assert list(table) == ["onramp", "dataclasses", "onramp.lazy"]
    for name, missing in (("dataclasses", "change"), ("onramp.lazy", "parent")):
        row = table[name]
        assert row[missing] is None
        assert row["ratio"] is None and row["median_change"] is None and row["pairs_won"] == 0
    assert table["dataclasses"]["parent"]["values"] == [4e-4, 5e-4]
    assert table["onramp.lazy"]["change"]["median"] == pytest.approx(2e-4)
    assert table["onramp"]["ratio"]["values"] == [2.0, 1.0]


def test_best_time_is_the_best_timeit_loop_per_call(monkeypatch):
    seen = []

    def repeat(call, repeat, number):
        seen.append((call, repeat, number))
        return [0.5, 0.25, 0.75]

    monkeypatch.setattr(record.timeit, "repeat", repeat)
    call = object()
    assert record.best_time(call, 3, 10) == 0.025
    assert seen == [(call, 3, 10)]


CLOSED_FORM_ORDER = ["load_config", "from_dict", "from_config", "classification", "optimal_beta",
                     "poa", "solve", "cli.main[analyze]", "cli.main[equilibrium]",
                     "cli.main[optimal-beta]"]
CLOSED_FORMS = set(CLOSED_FORM_ORDER)
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


def test_fresh_code_times_the_cli_import_first_then_the_closed_forms_then_the_oracles():
    times = record.run_fresh(_PATH.parents[1], record.FRESH_CODE)
    assert list(times) == ["closed_forms", "oracles"]
    assert list(times["closed_forms"]) == ["import onramp.cli", *CLOSED_FORM_ORDER]
    assert set(times["oracles"]) == ORACLES
    assert all(seconds > 0.0 for table in times.values() for seconds in table.values())
    # the import is timed before the recorder loads any module of its own
    code = record.FRESH_CODE
    assert code.index("import onramp.cli") < code.index("import json") < code.index(
        "closed_form_times()") < code.index("oracle_times()")


def test_closed_form_times_leave_numpy_to_the_oracles():
    code = (f"import json, sys; sys.path.insert(0, {record.BENCH!r}); import record; "
            "record.CALL_REPEATS = record.CALLS_PER_LOOP = 1; record.closed_form_times(); "
            "print(json.dumps('numpy' in sys.modules))")
    assert record.run_fresh(_PATH.parents[1], code) is False


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
    tree = record.export(history["base"], tmp_path / "work", "parent")
    assert tree == tmp_path / "work" / "parent"
    assert (tree / "src" / "a.py").read_text() == "1"
    assert list((tree / "src" / "__pycache__").glob("a.*.pyc"))


def test_export_gives_each_side_its_own_tree_of_the_same_commit(history, tmp_path):
    # a commit measured against itself runs in two copies, not twice in one
    work = tmp_path / "work"
    trees = {side: record.export(history["docs"], work, side) for side in record.SIDES}
    assert trees["parent"] != trees["change"]
    for tree in trees.values():
        assert (tree / "README.md").read_text() == "2"
        assert (tree / "src" / "a.py").read_text() == "1"
    (trees["parent"] / "README.md").write_text("edited")
    assert (trees["change"] / "README.md").read_text() == "2"
    # a later export of one side starts its tree afresh and leaves the other's
    record.export(history["src"], work, "change")
    assert (trees["change"] / "src" / "a.py").read_text() == "2"
    assert (trees["parent"] / "README.md").read_text() == "edited"


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
        assert code == record.FRESH_CODE
        calls.append((checkout.name, "fresh"))
        return {"closed_forms": {"solve": 2.0}, "oracles": {"oracle": 1.0}}

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
    runs = record.fresh_rounds({side: Path(side) for side in record.SIDES})
    assert list(runs) == ["oracles", "closed_forms", "import_times"]
    kinds = ("fresh", "-m onramp analyze --config demos/onramp.json",
             "-m onramp verify --config demos/onramp.json", "-c pass", "-S -c pass", "importtime")
    assert calls == [(side, kind) for side in ("parent", "change", "change", "parent")
                     for kind in kinds]
    assert runs["oracles"] == {side: {"oracle": [1.0, 1.0]} for side in record.SIDES}
    rows = {"solve": [2.0, 2.0], "process[analyze]": [4.0, 4.0], "process[verify]": [4.0, 4.0],
            "process[python -c pass]": [3.0, 3.0], "process[python -S -c pass]": [3.0, 3.0],
            "process[analyze] net of process[python -c pass]": [1.0, 1.0],
            "process[verify] net of process[python -c pass]": [1.0, 1.0]}
    assert runs["closed_forms"] == {side: rows for side in record.SIDES}
    assert set(record.timings(runs["closed_forms"])) == set(rows)
    assert runs["import_times"] == {side: {"onramp": [5.0, 5.0], side: [6.0, 6.0]}
                                    for side in record.SIDES}
    table = record.timings(runs["import_times"])
    assert list(table) == ["onramp", "parent", "change"]
    assert table["onramp"]["parent"]["median"] == table["onramp"]["change"]["median"] == 5.0
    assert table["parent"]["change"] is None and table["parent"]["parent"]["median"] == 6.0
    assert table["change"]["parent"] is None and table["change"]["change"]["median"] == 6.0


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

    monkeypatch.setattr(record, "run_fresh",
                        lambda checkout, code: {"closed_forms": {}, "oracles": {}})
    monkeypatch.setattr(record, "process_seconds", process_seconds)
    monkeypatch.setattr(record, "import_times", lambda checkout: {})
    monkeypatch.setattr(record, "ORACLE_REPEATS", 3)
    runs = record.fresh_rounds({side: Path(side) for side in record.SIDES})["closed_forms"]
    for side in record.SIDES:
        assert runs[side]["process[verify]"] == [
            3.0 + 10.0 * i + (0.5 if side == "change" else 0.0) for i in range(3)]
        assert runs[side]["process[analyze] net of process[python -c pass]"] == [0.25] * 3
        assert runs[side]["process[verify] net of process[python -c pass]"] == [2.0] * 3
    table = record.timings(runs)
    net = table["process[verify] net of process[python -c pass]"]
    assert net["ratio"]["values"] == [1.0] * 3 and net["median_change"] == 0.0
    # the round ratios of the whole process carry each round's drift
    assert table["process[verify]"]["ratio"]["values"] == [3.5 / 3.0, 13.5 / 13.0, 23.5 / 23.0]
    assert table["process[verify]"]["median_change"] == 0.5


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
