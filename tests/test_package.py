"""The package surface: the public names in ``__all__`` and the demo scripts."""

import runpy
import shutil
from pathlib import Path

import pytest

import onramp

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# names of model types, knobs and errors that were folded away
REMOVED = (
    "NeighborFlows",
    "CostCoefficients",
    "FLOW_CLOSURE_TOL",
    "PopulationParams",
    "SingularPiError",
)


def test_public_names_resolve_once():
    for name in onramp.__all__:
        assert getattr(onramp, name) is not None, name
    assert len(set(onramp.__all__)) == len(onramp.__all__)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in onramp.__all__
        for module in (onramp, onramp.model, onramp.analysis, onramp.errors):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(onramp.OnRampConfig, "from_values")


@pytest.mark.parametrize("script", ["run_analysis.py", "run_sweeps.py", "run_robustness.py"])
def test_demo_runs_on_a_copy(script, tmp_path, capsys):
    for name in (script, "onramp.json"):
        shutil.copy(DEMOS / name, tmp_path / name)
    runpy.run_path(str(tmp_path / script), run_name="__main__")
    assert capsys.readouterr().out
    if script == "run_sweeps.py":
        for name in ("ratio_sweep.csv", "level_sweep.csv"):
            assert (tmp_path / "output" / name).read_text(encoding="utf-8").count("\n") > 1
