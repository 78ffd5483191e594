"""The package surface: the public names in ``__all__``, the demo scripts and the imports."""

import copy
import dataclasses
import json
import os
import pickle
import runpy
import shutil
import subprocess
import sys
from enum import Enum
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import onramp
import onramp.cli

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# names of model types, knobs, errors and helpers that were folded away
REMOVED = (
    "NeighborFlows",
    "CostCoefficients",
    "FLOW_CLOSURE_TOL",
    "PopulationParams",
    "SingularPiError",
    "DelayCoefficients",
    "AnalysisSummary",
    "selfish_equilibrium_flow",
    "social_optimum",
    "AltruisticCostPair",
    "altruistic_costs",
    "ConstraintViolation",
    "validate_flow_distribution",
    "altruistic_intersection",
    "pi_value",
)


def test_public_names_resolve_once():
    for name in onramp.__all__:
        assert getattr(onramp, name) is not None, name
    assert len(set(onramp.__all__)) == len(onramp.__all__)


def test_star_import_binds_exactly_all_each_from_its_module():
    namespace = {}
    exec("from onramp import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(onramp.__all__)
    for module, names in onramp._PUBLIC.items():
        for name in names:
            assert namespace[name] is vars(import_module(f"onramp.{module}"))[name], name
    assert {*onramp.__all__, *onramp._PUBLIC} <= set(dir(onramp))
    with pytest.raises(AttributeError, match="^module 'onramp' has no attribute 'nothing'$"):
        onramp.nothing


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in onramp.__all__
        for module in (onramp, onramp.model, onramp.analysis, onramp.errors):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(onramp.OnRampConfig, "from_values")


def test_perfbench_signatures_forward_to_the_one_model_forms():
    config = onramp.OnRampConfig(n0=0.37, c1t=1.0, c1m=21.3, c2t=1.0, c2m=1.0, mu=2.4, gamma=8.6)
    ramp = onramp.derive_coefficients(config)
    assert ramp == onramp.OnRamp.from_config(config)
    assert onramp.analyze(config, ramp) is ramp
    interval = onramp.ErrorInterval(0.5, 2.0)
    assert onramp.classify(config, ramp, interval) == onramp.classification(ramp, interval)
    assert onramp.solve_equilibrium(config, ramp, ramp, 0.8, 1.0, 0.5) == onramp.solve(
        ramp, 0.8, 1.0, 0.5
    )
    assert onramp.price_of_anarchy(config, ramp, ramp, 1.0, interval) == onramp.poa(
        ramp, 1.0, interval
    )
    assert onramp.optimal_altruism_level(config, ramp, ramp, interval) == onramp.optimal_beta(
        ramp, interval
    )
    assert onramp.sweep_alpha(config, ramp, ramp, [0.5], 0.1) == onramp.alpha_sweep(
        ramp, [0.5], 0.1
    )
    assert onramp.sweep_beta_e(config, ramp, ramp, [0.8], 2.0, 0.5) == onramp.beta_e_sweep(
        ramp, [0.8], 2.0, 0.5
    )


# the classes whose construction validates or derives, on the frozen slotted base
RECORDS = (onramp.OnRampConfig, onramp.ErrorInterval, onramp.OnRamp)
# perfbench's self-test copies EquilibriumResult with dataclasses.replace
DATACLASSES = (onramp.EquilibriumResult,)
# what a result module binds from dataclasses: the decorator of EquilibriumResult
FROM_DATACLASSES = {"onramp.equilibrium": ["dataclass"]}


def test_public_classes_are_enums_errors_validating_dataclasses_or_named_tuples():
    for name in onramp.__all__:
        value = getattr(onramp, name)
        if not isinstance(value, type) or issubclass(value, (Enum, onramp.OnRampError)):
            continue
        if value in RECORDS:
            assert issubclass(value, onramp.model.Frozen) and "__slots__" in vars(value), name
            assert not dataclasses.is_dataclass(value), name
        elif value in DATACLASSES:
            assert dataclasses.is_dataclass(value), name
        else:
            assert issubclass(value, tuple) and hasattr(value, "_fields"), name


def test_result_modules_bind_nothing_from_dataclasses():
    for module in (onramp.equilibrium, onramp.robustness, onramp.sweeps, onramp.cli):
        bound = [
            name for name, value in vars(module).items()
            if getattr(value, "__module__", None) == "dataclasses"
        ]
        assert bound == FROM_DATACLASSES.get(module.__name__, []), (module.__name__, bound)


def _as_dataclass(record):
    """``record`` as an instance of the frozen dataclass of its fields, as the package had."""
    fields = type(record).__slots__
    old = dataclasses.make_dataclass(type(record).__qualname__, fields, frozen=True)
    return old(*(getattr(record, name) for name in fields))


def test_records_compare_hash_repr_copy_and_pickle_as_the_frozen_dataclasses():
    config = onramp.load_config(DEMOS / "onramp.json")
    intervals = [onramp.ErrorInterval(0.5, 2), onramp.ErrorInterval(np.float32(0.5), 1.0)]
    records = [config, onramp.OnRamp.from_config(config), *intervals]
    for record in records:
        old = _as_dataclass(record)
        assert repr(record) == repr(old)
        assert hash(record) == hash(old)
        assert record.__eq__(old) is NotImplemented and record != old
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [copy.copy(record), copy.deepcopy(record),
                  *(pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols)]
        for copied in copies:
            assert type(copied) is type(record) and copied is not record
            assert copied == record and hash(copied) == hash(record)
            assert repr(copied) == repr(record)
    assert onramp.OnRampConfig(**dict(vars(_as_dataclass(config)), n0=0.25)) != config


@pytest.mark.parametrize("script", ["run_analysis.py", "run_sweeps.py", "run_robustness.py"])
def test_demo_runs_on_a_copy(script, tmp_path, capsys):
    for name in (script, "onramp.json"):
        shutil.copy(DEMOS / name, tmp_path / name)
    runpy.run_path(str(tmp_path / script), run_name="__main__")
    assert capsys.readouterr().out
    if script == "run_sweeps.py":
        for name in ("ratio_sweep.csv", "level_sweep.csv"):
            assert (tmp_path / "output" / name).read_text(encoding="utf-8").count("\n") > 1


# run in a fresh interpreter: whether numpy is loaded after the import and after each command;
# given a second argument "hide", numpy is hidden first, so that importing it fails
NUMPY_PROBE = """
import contextlib, io, json, sys
if sys.argv[2:] == ["hide"]:
    sys.modules["numpy"] = None
import onramp, onramp.cli
loaded = [sys.modules.get("numpy") is not None]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        loaded.append([onramp.cli.main(argv), sys.modules.get("numpy") is not None])
print(json.dumps(loaded))
"""


def test_no_command_loads_numpy(tmp_path):
    config = ["--config", str(DEMOS / "onramp.json")]
    interval = ["--e-lower", "0.5", "--e-upper", "2"]
    commands = [
        ["analyze", *config],
        ["equilibrium", *config, "--alpha", "0.8", "--beta", "1"],
        ["poa", *config, "--beta", "1", *interval],
        ["optimal-beta", *config, *interval],
        ["sweep-alpha", *config, "--out", str(tmp_path / "alpha.csv")],
        ["sweep-beta-e", *config, "--out", str(tmp_path / "level.csv")],
        ["verify", *config],
        ["verify", *config, "--beta", "1000"],
        ["poa", *config, "--beta", "1", *interval, "--verify"],
        ["optimal-beta", *config, *interval, "--verify"],
        ["optimal-beta", *config, "--e-lower", "1e-6", "--e-upper", "1", "--verify"],
        ["verify", *config, "--beta", "5e307"],
        ["optimal-beta", *config, "--e-lower", "1e-10", "--e-upper", "1e10", "--verify"],
    ]
    expected = [False] + [[0, False]] * 12 + [[1, False]]
    assert _probe(NUMPY_PROBE, commands) == expected
    # and each command exits as it does with numpy when numpy cannot be imported
    assert _probe(NUMPY_PROBE, commands, "hide") == expected


def _probe(code, argvs, *extra):
    """What ``code`` prints as JSON, run on ``argvs`` (and ``extra`` arguments) in a fresh
    interpreter importing this src."""
    src = str(Path(onramp.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    probe = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs), *extra],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(probe.stdout)


# run in a fresh interpreter: whether argparse is loaded after the import and after each
# argv; each argv starts without it
ARGPARSE_PROBE = """
import contextlib, io, json, sys
import onramp.cli
loaded = ["argparse" in sys.modules]
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = onramp.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded.append([code, "argparse" in set(sys.modules) - before])
    sys.modules.pop("argparse", None)
    onramp.cli._build_parser.cache_clear()
print(json.dumps(loaded))
"""


def test_argparse_is_loaded_only_for_help_and_malformed_argv(tmp_path):
    config = ["--config", str(DEMOS / "onramp.json")]
    interval = ["--e-lower", "0.5", "--e-upper", "2"]
    well_formed = [
        ["analyze", *config, *interval],
        ["equilibrium", *config, "--alpha", "0.8", "--beta", "1", "--error", "0.5"],
        ["poa", *config, "--beta", "1", *interval],
        ["optimal-beta", *config, *interval],
        ["sweep-alpha", *config, "--beta", "0.5", "--step", "0.1", "--out", str(tmp_path / "a")],
        ["sweep-beta-e", *config, "--alpha", "0.8", "--out", str(tmp_path / "b")],
        ["verify", *config, "--beta", "1000"],
    ]
    malformed = [["-h"], ["analyze", "--bogus"], ["analyze", "--config=x"],
                 ["verify", *config, "--step", "0.01"]]
    after_import, *after_argv = _probe(ARGPARSE_PROBE, well_formed + malformed)
    assert after_import is False
    assert after_argv == [[0, False]] * 7 + [[0, True], [1, True], [1, True], [1, True]]


# run in a fresh interpreter: the package modules after `import onramp.cli`, whether
# dataclasses and inspect are loaded then, and the package modules that one command adds
MODULES_PROBE = """
import contextlib, io, json, sys
import onramp.cli
def package():
    return {name for name in sys.modules if name.partition(".")[0] == "onramp"}
before = package()
loaded = [sorted(before), "dataclasses" in sys.modules, "inspect" in sys.modules]
(argv,) = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    loaded.append(onramp.cli.main(argv))
print(json.dumps([*loaded, sorted(package() - before)]))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    config = ["--config", str(DEMOS / "onramp.json")]
    interval = ["--e-lower", "0.5", "--e-upper", "2"]
    added = {
        ("analyze", *config): [],
        ("equilibrium", *config, "--alpha", "0.8", "--beta", "1"): ["equilibrium"],
        ("poa", *config, "--beta", "1", *interval): ["equilibrium", "robustness"],
        ("optimal-beta", *config, *interval): ["equilibrium", "robustness"],
        ("sweep-alpha", *config, "--out", str(tmp_path / "a.csv")): ["equilibrium", "sweeps"],
        ("sweep-beta-e", *config, "--out", str(tmp_path / "b.csv")): ["equilibrium", "sweeps"],
        ("verify", *config): ["equilibrium"],
    }
    start = ["onramp", "onramp.analysis", "onramp.cli", "onramp.errors", "onramp.model"]
    for argv, modules in added.items():
        expected = [start, False, False, 0, [f"onramp.{module}" for module in modules]]
        assert _probe(MODULES_PROBE, [argv]) == expected, argv


# in a fresh interpreter without site, which itself imports pathlib on some installs
PATHLIB_PROBE = """
import contextlib, io, sys
import onramp.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = onramp.cli.main(["analyze", "--config", sys.argv[1]])
print(code, "pathlib" in sys.modules)
"""


def test_cli_start_up_does_not_load_pathlib():
    src = str(Path(onramp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run(
        [sys.executable, "-S", "-c", PATHLIB_PROBE, str(DEMOS / "onramp.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.split() == ["0", "False"]
