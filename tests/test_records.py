"""The computed values are immutable records: equal by value, printed
field by field, and checked on every way of building one."""

import copy
import dataclasses
import pickle

import pytest

from mdiqkd import (
    CalibrationResult,
    DecoyEstimate,
    DetectorParams,
    DistanceGrid,
    DomainError,
    FiniteKeyConfig,
    GainSet,
    KeyRatePoint,
    Scenario,
    SinglePhotonQuantities,
    SourceKind,
    SourceSpec,
    SystemParams,
    YieldTable,
)

# name: (builds a valid record from fresh values, fields its checks reject)
RECORDS = {
    "SourceSpec": (lambda: SourceSpec(SourceKind.NONIDEAL_CSS, 0.1, 0.7), {"mu": -1.0}),
    "DetectorParams": (lambda: DetectorParams(0.4, 1e-7), {"efficiency": 2.0}),
    "YieldTable": (lambda: YieldTable(DetectorParams(0.4, 1e-7), 15), None),
    "GainSet": (lambda: GainSet(0.1, 0.01, 0.2, 0.02), {"total_x": 1.5}),
    "SinglePhotonQuantities": (lambda: SinglePhotonQuantities(0.5, 0.4, 0.01, None), None),
    "KeyRatePoint": (
        lambda: KeyRatePoint(
            100.0, "css", "standard", 0.1, 0.01, GainSet(0.1, 0.01, 0.2, 0.02),
            0.3, 0.05, 0.003, 1e-4, 1e-4, frozenset({"clamped_to_zero"}),
        ),
        None,
    ),
    "DecoyEstimate": (lambda: DecoyEstimate(0.3, 0.05, frozenset()), None),
    "CalibrationResult": (lambda: CalibrationResult(1e14, 200.0, True), None),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_values(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and not dataclasses.is_dataclass(a)
    assert a == b and a is not b and hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    fields = ", ".join(f"{field}={getattr(a, field)!r}" for field in a._fields)
    assert repr(a) == f"{name}({fields})"


@pytest.mark.parametrize("name", RECORDS)
def test_every_way_of_building_a_record_checks_it(name):
    make, bad = RECORDS[name]
    record = make()
    cls = type(record)
    rebuilt = [
        cls(**record._asdict()),
        cls._make(record),
        record._replace(),
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ]
    assert all(type(r) is cls and r == record for r in rebuilt)
    if bad is None:
        return
    values = dict(record._asdict(), **bad)
    # a record that skipped its checks, as only tuple.__new__ can build
    forged = tuple.__new__(cls, values.values())
    paths = {
        "constructor": lambda: cls(**values),
        "_make": lambda: cls._make(values.values()),
        "_replace": lambda: record._replace(**bad),
        "copy": lambda: copy.copy(forged),
        "deepcopy": lambda: copy.deepcopy(forged),
        "pickle": lambda: pickle.loads(pickle.dumps(forged)),
    }
    for path, build in paths.items():
        with pytest.raises(DomainError):
            build()
            pytest.fail(f"{path} built {name} with {bad}")


def test_a_pickled_source_spec_keeps_its_emitted_head():
    spec = SourceSpec.wcs(0.4)
    head = spec.emitted_head
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec and again.emitted_head == head


def test_configuration_types_stay_dataclasses():
    """``dataclasses.replace`` rebuilds them and re-runs their checks."""
    for config in (Scenario(), SystemParams(), FiniteKeyConfig(), DistanceGrid()):
        assert dataclasses.is_dataclass(config)
    with pytest.raises(DomainError):
        dataclasses.replace(SystemParams(), dark_count=1.0)
