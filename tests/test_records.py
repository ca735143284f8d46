"""The package's value records: each compares, hashes, prints, copies and
pickles by its fields, refuses assignment, and takes its fields by keyword."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import persum
from persum.covering import ResidueClass, ResidueSystem, WindowClassResult
from persum.cyclotomic import IntPolynomial
from persum.groups import IntVector, ModInt
from persum.reconstruction import (
    CoefficientTable,
    ConstancyResult,
    PeriodicMap,
    SumOfPeriodicMaps,
    coefficient_table,
)
from persum.spectrum import PeriodSystem, Spectrum

# (class, keyword arguments, repr); the first argument is the one assigned
RECORDS = [
    (ModInt, {"value": 10, "modulus": 7}, "ModInt(value=3, modulus=7)"),
    (IntVector, {"entries": [1, -2]}, "IntVector(entries=(1, -2))"),
    (PeriodSystem, {"periods": [4, 6]}, "PeriodSystem(periods=(4, 6))"),
    (Spectrum, {"modulus": 2, "numerators": [0, 1]}, "Spectrum(modulus=2, numerators=(0, 1))"),
    (IntPolynomial, {"coeffs": [1, -1, 1, 0]}, "IntPolynomial(coeffs=(1, -1, 1))"),
    (PeriodicMap, {"values": [1, 2]}, "PeriodicMap(values=(1, 2))"),
    (
        SumOfPeriodicMaps,
        {"components": [PeriodicMap((1,)), PeriodicMap((0, 1))]},
        "SumOfPeriodicMaps(components=(PeriodicMap(values=(1,)), PeriodicMap(values=(0, 1))))",
    ),
    (
        CoefficientTable,
        {"system": PeriodSystem((2,)), "recurrence": (0, 1), "rows": ((1, 0), (0, 1))},
        "CoefficientTable(system=PeriodSystem(periods=(2,)), recurrence=(0, 1), rows=((1, 0), (0, 1)))",
    ),
    (ConstancyResult, {"is_constant": True, "constant": 5}, "ConstancyResult(is_constant=True, constant=5)"),
    (ResidueClass, {"residue": -2, "modulus": 3}, "ResidueClass(residue=1, modulus=3)"),
    (
        ResidueSystem,
        {"classes": [ResidueClass(0, 2), ResidueClass(1, 2)]},
        "ResidueSystem(classes=(ResidueClass(residue=0, modulus=2), ResidueClass(residue=1, modulus=2)))",
    ),
    (
        WindowClassResult,
        {"ok": True, "window": (1, 1), "start": 0},
        "WindowClassResult(ok=True, window=(1, 1), start=0)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_record_repr_is_its_fields_by_name(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_record_equality_and_hash_follow_the_fields(cls, kwargs, text):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != tuple(kwargs.values())


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_record_refuses_assignment_and_deletion(cls, kwargs, text):
    record = cls(**kwargs)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, kwargs[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_record_round_trips_through_pickle_and_copy(cls, kwargs, text, clone):
    record = cls(**kwargs)
    back = clone(record)
    assert type(back) is cls
    assert back == record
    assert repr(back) == text


@pytest.mark.parametrize("a, b", [
    (ModInt(1, 2), ResidueClass(1, 2)),
    (IntVector((4, 6)), PeriodSystem((4, 6))),
    (PeriodicMap((1, 2)), IntPolynomial((1, 2))),
])
def test_records_of_different_classes_differ_on_equal_fields(a, b):
    assert a != b and b != a
    assert not a == b


def test_constancy_result_constant_defaults_to_none():
    assert ConstancyResult(True).constant is None
    assert ConstancyResult(False) == ConstancyResult(is_constant=False, constant=None)


def test_tables_compare_without_their_period_system():
    a = coefficient_table(PeriodSystem((4, 6)))
    b = coefficient_table(PeriodSystem((6, 4, 2)))
    assert a.system != b.system
    assert a == b and hash(a) == hash(b)
    assert repr(a) != repr(b)


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh interpreter; comparing against the modules present before the
    # import keeps the test valid where site has loaded others already
    env = dict(os.environ, PYTHONPATH=str(Path(persum.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import persum.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout
    assert "'persum.cli'" in added
    assert "'dataclasses'" not in added


def test_importing_persum_loads_no_json_until_a_json_system_is_parsed():
    # `import persum` loads no submodule; json is imported where a JSON
    # residue system is read, which loads covering on first use
    env = dict(os.environ, PYTHONPATH=str(Path(persum.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import persum\n"
        "print(sorted(set(sys.modules) - before))\n"
        "persum.parse_residue_system('[[0, 2]]')\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, parsed = proc.stdout.splitlines()
    assert imported == "['persum']"
    assert "'persum.covering'" in parsed
    assert "'json'" in parsed
