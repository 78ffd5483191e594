"""Unit tests for the A/B summary of bench/record.py."""

import importlib.util
from pathlib import Path

import pytest

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
