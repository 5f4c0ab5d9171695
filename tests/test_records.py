"""The public names of the package and the behaviour of its record types:
keyword construction, defaults, equality, hashing, immutability, repr and
validation errors."""

from __future__ import annotations

import sys

import pytest

import diffcover
from diffcover.construct import (
    BadParams,
    FourMFamilyParams,
    OddFamilyParams,
    SixMuFamilyParams,
    SpectrumEntry,
    construct_by_method,
)
from diffcover.core import Form, Kind, ResidueArray
from diffcover.latin import LatinSquare, check_row_complete
from diffcover.search import SearchConfig
from diffcover.verify import Check, VerificationReport, Witness, verify_dca


def test_every_public_name_resolves():
    assert diffcover.__all__ == sorted(set(diffcover.__all__))
    listed = dir(diffcover)
    for name in diffcover.__all__:
        namespace: dict[str, object] = {}
        exec(f"from diffcover import {name}", namespace)
        obj = namespace[name]
        assert obj is getattr(diffcover, name)
        # The name is the object of the module that defines it.
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diffcover.no_such_name
    with pytest.raises(ImportError):
        exec("from diffcover import no_such_name", {})


def test_search_errors_live_in_core():
    import diffcover.core as core
    import diffcover.search as search

    for name in ("BudgetExhausted", "InfeasibleFixedColumns", "NoSolution"):
        assert getattr(search, name) is getattr(core, name) is getattr(diffcover, name)
        assert issubclass(getattr(core, name), core.DesignError)


# One record of each type, with every field given by keyword in field order.
RECORDS = [
    (ResidueArray, {"kind": Kind.DCA, "order": 6, "hole": 0, "form": Form.REDUCED,
                    "entries": ((0, 1, 3), (1, 3, 0), (2, 5, 4), (3, 0, 1), (4, 2, 5), (5, 4, 2))}),
    (Witness, {"pair": (1, 0), "column": None, "residue": 2, "expected": 1, "actual": 0}),
    (Check, {"name": "coverage", "passed": False, "witness": Witness(column=1)}),
    (VerificationReport, {"checks": (Check("coverage", True),), "meta": {"rows": 7}}),
    (LatinSquare, {"order": 3, "offsets": (0, 2, 1)}),
    (SearchConfig, {"order": 14, "col0": None, "col1": None, "node_budget": 50,
                    "result_limit": 2, "status_interval": 0}),
    (OddFamilyParams, {"m": 13, "f": 16}),
    (FourMFamilyParams, {"m": 2, "f": 2}),
    (SixMuFamilyParams, {"mu": 1}),
    (SpectrumEntry, {"order": 6, "constructible_by": ("table",), "status": "internal",
                     "source": "table"}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_behaviour(cls, fields):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    for name, value in fields.items():
        assert getattr(record, name) == value
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    if cls is VerificationReport:
        # Its meta is a dict, so a report is not hashable.
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(cls(**fields)) == hash(record)


def test_record_equality():
    assert LatinSquare(3, (0, 2, 1)) == LatinSquare(order=3, offsets=(0, 2, 1))
    assert LatinSquare(3, (0, 2, 1)) != LatinSquare(3, (1, 0, 2))
    assert SearchConfig(14) != SearchConfig(14, node_budget=5)
    assert Witness(pair=(1, 0)) != Witness(pair=(2, 0))


def test_record_defaults():
    assert SearchConfig(14) == SearchConfig(14, None, None, 10**9, None, 0)
    assert Witness() == Witness(None, None, None, None, None)
    assert Check("x", True).witness is None
    assert VerificationReport(()).meta == {}


def test_reports_do_not_share_meta():
    assert VerificationReport(()).meta is not VerificationReport(()).meta
    square = LatinSquare(4, (0, 1, 2, 3))
    first, second = check_row_complete(square), check_row_complete(square)
    assert first.meta == {} and first.meta is not second.meta
    arr, _ = construct_by_method(26)
    assert verify_dca(arr).meta is not verify_dca(arr).meta
    first.meta["touched"] = True
    assert second.meta == {} and VerificationReport(()).meta == {}


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0, 1), (1,))), ValueError, "ragged rows"),
        (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0, 6),)), ValueError, "entry 6 outside [0, 6)"),
        (lambda: ResidueArray(Kind.DCA, 0, 0, Form.FULL, ((0,),)), ValueError, "order must be positive, got 0"),
        (lambda: ResidueArray(kind=Kind.DM, order=6, hole=2, form=Form.FULL, entries=((0,),)),
         ValueError, "DM arrays carry no hole"),
        (lambda: LatinSquare(3, (0, 0, 1)), ValueError, "offsets are not a permutation of 0..2"),
        (lambda: SearchConfig(order=14, node_budget=0), ValueError, "node budget must be positive, got 0"),
        (lambda: SearchConfig(14, result_limit=0), ValueError, "result limit must be positive, got 0"),
        (lambda: OddFamilyParams(13, 13), BadParams, "gcd(f, 2m) = gcd(13, 26) = 13, expected 2"),
        (lambda: OddFamilyParams(m=13, f=14), BadParams, "f^2+f+1 = 211 is not 13 mod 26"),
        (lambda: FourMFamilyParams(6, 10), BadParams, "gcd(f-1, 4m) = gcd(9, 24) = 3, expected 1"),
        (lambda: SixMuFamilyParams(mu=2), BadParams, "mu must be an odd positive integer, got 2"),
    ],
)
def test_record_validation(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_replace_and_make_validate():
    # A record changed or rebuilt through the NamedTuple helpers is checked
    # like a new one.
    assert SearchConfig(14)._replace(node_budget=5).node_budget == 5
    with pytest.raises(ValueError, match="node budget must be positive, got 0"):
        SearchConfig(14)._replace(node_budget=0)
    with pytest.raises(ValueError, match="offsets are not a permutation"):
        LatinSquare._make((3, (0, 0, 1)))
    with pytest.raises(BadParams, match="mu must be an odd positive integer, got 4"):
        SixMuFamilyParams(1)._replace(mu=4)
    arr = ResidueArray(**RECORDS[0][1])
    with pytest.raises(ValueError, match="entry 6 outside"):
        arr._replace(entries=((6, 0, 0),) * 6)
