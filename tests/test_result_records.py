"""The record contract of the closed forms' results, as solve and the worst case build them.

``solve`` builds its ``FlowDistribution`` and ``DelayProfile`` with
``tuple.__new__`` and its ``EquilibriumResult`` with a constructor that stores
the fields in the instance ``__dict__``.  Each record must behave as a twin
built by the ordinary constructor: the NamedTuple's own ``__new__``, or the
``__init__`` that ``dataclass(frozen=True)`` generates for the same fields.

The module needs neither pytest nor numpy, so that the contract can be run
under any installed Python:

    PYTHONPATH=src python tests/test_result_records.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import sys
from pathlib import Path

import onramp
from onramp.equilibrium import EquilibriumCase, EquilibriumResult

DEMO = Path(__file__).resolve().parents[1] / "demos" / "onramp.json"
RAMP = onramp.OnRamp.from_config(
    onramp.OnRampConfig.from_dict(json.loads(DEMO.read_text(encoding="utf-8")))
)
# (alpha, beta) per case on the demo: phi ~ 0.540, delta ~ 0.605, the crossing at level 1
POINTS = {
    EquilibriumCase.BASELINE: (0.7, 0.0),
    EquilibriumCase.CASE_B: (0.3, 1.0),
    EquilibriumCase.CASE_C: (0.55, 1.0),
    EquilibriumCase.CASE_D: (1.0, 1.0),
}
# the class that @dataclass(frozen=True) makes of EquilibriumResult's fields; its
# generated __init__ sets each field with object.__setattr__, on any instance
GENERATED = dataclasses.make_dataclass(
    "EquilibriumResult",
    [(field.name, field.type) for field in dataclasses.fields(EquilibriumResult)],
    frozen=True,
)


def raises(error: type[Exception], call, *args) -> None:
    try:
        call(*args)
    except error:
        return
    raise AssertionError(f"{call.__name__}{args[1:]} did not raise {error.__name__}")


def copies(record) -> list:
    return [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


def assert_same_record(built, twin) -> None:
    """``built`` is of ``twin``'s type, equal and equally hashed, shown, copied and pickled."""
    assert type(built) is type(twin)
    assert built == twin and twin == built and not built != twin
    assert hash(built) == hash(twin)
    assert repr(built) == repr(twin)
    for copied in copies(built):
        assert type(copied) is type(twin)
        assert copied == twin and hash(copied) == hash(twin) and repr(copied) == repr(twin)


def assert_same_named_tuple(built, fields: tuple[str, ...]) -> None:
    twin = type(built)(*built)
    assert type(built)._fields == fields
    assert_same_record(built, twin)
    assert tuple(built) == tuple(twin) and len(built) == len(fields)
    assert [getattr(built, name) for name in fields] == list(twin)
    raises(AttributeError, setattr, built, fields[0], 0.0)
    raises(AttributeError, delattr, built, fields[0])
    moved = built._replace(**{fields[-1]: 0.5})
    assert type(moved) is type(built) and moved == twin._replace(**{fields[-1]: 0.5})


def fields_of(record) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(record))


def twin_of(result: EquilibriumResult) -> EquilibriumResult:
    """An EquilibriumResult of the same fields, set by the generated frozen __init__."""
    twin = object.__new__(EquilibriumResult)
    GENERATED.__init__(twin, *(getattr(result, name) for name in fields_of(GENERATED)))
    return twin


def test_equilibrium_results_behave_as_the_generated_dataclass():
    results = {case: onramp.solve(RAMP, alpha, beta) for case, (alpha, beta) in POINTS.items()}
    for case, result in results.items():
        twin = twin_of(result)
        assert result.case is case
        assert fields_of(result) == fields_of(GENERATED) == fields_of(EquilibriumResult)
        assert dataclasses.is_dataclass(result) and vars(result) == vars(twin)
        assert_same_record(result, twin)
        assert repr(result) == repr(GENERATED(**vars(result)))
        assert hash(result) == hash(GENERATED(**vars(result)))
        assert EquilibriumResult(**vars(result)) == result
        assert all(result != other for other in results.values() if other is not result)
        for name in fields_of(result):
            raises(dataclasses.FrozenInstanceError, setattr, result, name, 0.0)
            raises(dataclasses.FrozenInstanceError, delattr, result, name)
        raises(dataclasses.FrozenInstanceError, setattr, result, "extra", 0.0)
        moved = dataclasses.replace(result, x_hat_b=0.25)
        assert type(moved) is EquilibriumResult and moved.x_hat_b == 0.25
        assert moved == dataclasses.replace(twin, x_hat_b=0.25)
        assert vars(moved) == {**vars(result), "x_hat_b": 0.25}


def test_flows_and_delays_behave_as_their_named_tuples():
    for alpha, beta in POINTS.values():
        result = onramp.solve(RAMP, alpha, beta)
        assert_same_named_tuple(result.flow, (
            "selfish_steadfast", "selfish_bypass", "altruistic_steadfast", "altruistic_bypass"
        ))
        assert_same_named_tuple(result.delays, ("steadfast", "bypass", "on_ramp", "lane2"))
        assert result.flow.total_bypass == result.x_hat_b
        assert onramp.delays(RAMP, result.x_hat_b) == result.delays


def test_worst_case_points_behave_as_their_named_tuple():
    fields = ("error", "alpha", "x_hat_b", "j_soc")
    intervals = [onramp.ErrorInterval(*bounds) for bounds in ((0.5, 2.0), (0.25, 4.0), (1.0, 1.0))]
    for interval in intervals:
        for beta in (0.5, 1.0, onramp.optimal_beta(RAMP, interval).beta_star):
            _, points = onramp.worst_case_social_delay(RAMP, beta, interval)
            assert type(points) is tuple and 1 <= len(points) <= 2
            for point in points:
                assert_same_named_tuple(point, fields)
    # at beta* of an endpoint-symmetric interval both endpoints achieve the supremum
    assert len(onramp.optimal_beta(RAMP, intervals[0]).worst_case_points) == 2


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} record-contract tests passed on Python {sys.version.split()[0]}")
