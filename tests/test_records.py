"""The public names of the package, the behaviour of its record types
(keyword construction, defaults, equality, hashing, immutability, repr)
and the validation errors of records, constructors, conversions,
verifiers and searches."""

from __future__ import annotations

import sys

import pytest

import diffcover
from diffcover.construct import (
    SpectrumEntry,
    construct_6mu,
    construct_by_method,
    construct_odd,
    dm_prime,
)
from diffcover.core import Form, Kind, ResidueArray, to_full, write_array
from diffcover.latin import LatinSquare, check_row_complete
from diffcover.search import search_hdm, search_third_column
from diffcover.verify import Check, VerificationReport, verify_dca, verify_hdm

from conftest import exit_code


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


def test_mapped_errors_live_in_core():
    # Every domain error the CLI maps to an exit code is defined in core,
    # so the exit-code table needs no other module; each module that
    # raises one uses that same class.
    import diffcover.cli as cli
    import diffcover.construct as construct
    import diffcover.core as core
    import diffcover.search as search
    import diffcover.verify as verify

    raisers = {
        "CertificationFailed": [verify, construct],
        "BudgetExhausted": [search],
        "NoSolution": [search, construct],
    }
    mapped = [cls for cls in cli.EXIT_CODES if issubclass(cls, core.DesignError)]
    assert {cls.__name__ for cls in mapped} == {*raisers, "ParseError"}
    for cls in mapped:
        name = cls.__name__
        assert cls.__module__ == "diffcover.core"
        assert cls is getattr(core, name) is getattr(diffcover, name)
        for module in raisers.get(name, []):
            assert getattr(module, name) is cls


# One record of each type, with every field given by keyword in field order.
RECORDS = [
    (ResidueArray, {"kind": Kind.DCA, "order": 6, "hole": 0, "form": Form.REDUCED,
                    "cols": ((0, 1, 2, 3, 4, 5), (1, 3, 5, 0, 2, 4), (3, 0, 4, 1, 5, 2))}),
    (Check, {"name": "coverage", "witness": {"pair": [1, 0], "residue": 2, "expected": 1, "actual": 0}}),
    (VerificationReport, {"checks": (Check("coverage"),), "meta": {"rows": 7}}),
    (LatinSquare, {"order": 3, "offsets": (0, 2, 1)}),
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
    if cls in (Check, VerificationReport):
        # A witness and a meta are dicts, so neither record is hashable.
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(cls(**fields)) == hash(record)


def test_record_equality():
    assert LatinSquare(3, (0, 2, 1)) == LatinSquare(order=3, offsets=(0, 2, 1))
    assert LatinSquare(3, (0, 2, 1)) != LatinSquare(3, (1, 0, 2))
    assert Check("coverage", {"column": 1}) != Check("coverage", {"column": 2})


def test_record_defaults():
    # A check holds exactly when it has no witness.
    assert Check("x") == Check("x", None) and Check("x").passed
    assert not Check("x", {"column": 0}).passed
    with pytest.raises(TypeError):
        VerificationReport(())


def test_reports_do_not_share_meta():
    square = LatinSquare(4, (0, 1, 2, 3))
    identity = [0, 1, 2, 3]
    first, second = check_row_complete(square, identity), check_row_complete(square, identity)
    assert first.meta == {} and first.meta is not second.meta
    arr, _ = construct_by_method(26)
    assert verify_dca(arr).meta is not verify_dca(arr).meta
    first.meta["touched"] = True
    assert second.meta == {}


@pytest.mark.parametrize(
    "make, error, message",
    [
        # The entries are given as columns.
        (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0, 1), (1,))), ValueError, "ragged rows"),
        (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0,), (6,))), ValueError, "entry 6 outside [0, 6)"),
        (lambda: ResidueArray(Kind.DCA, 0, 0, Form.FULL, ((0,),)), ValueError, "order must be positive, got 0"),
        (lambda: ResidueArray(kind=Kind.DM, order=6, hole=2, form=Form.FULL, cols=((0,),)),
         ValueError, "DM arrays carry no hole"),
        # Each kind's row count: n+1 rows for a full DCA, a multiple of
        # n-h for an HDM and of n for a DM.
        (lambda: ResidueArray(Kind.DCA, 4, 0, Form.FULL, ((0, 1, 2, 3), (0, 0, 0, 0))),
         ValueError, "full DCA over Z_4 needs 5 rows, got 4"),
        (lambda: ResidueArray(Kind.HDM, 6, 2, Form.FULL, ((1,), (0,))),
         ValueError, "HDM over Z_6 with hole 2 needs a multiple of 4 rows, got 1"),
        (lambda: ResidueArray(Kind.DM, 6, 0, Form.FULL, ((0,) * 7,) * 2),
         ValueError, "DM over Z_6 needs a multiple of 6 rows, got 7"),
        (lambda: to_full(to_full(construct_by_method(6)[0])), ValueError, "to_full expects a reduced-form DCA"),
        (lambda: write_array(dm_prime(5, 4), "xml"), ValueError, "unknown format 'xml'"),
        (lambda: verify_hdm(dm_prime(5, 4)), ValueError, "verify_hdm expects an HDM array, got DM"),
        (lambda: LatinSquare(3, (0, 0, 1)), ValueError, "offsets are not a permutation of 0..2"),
        (lambda: search_third_column(14, node_budget=0), ValueError, "node budget must be positive, got 0"),
        (lambda: search_third_column(14, result_limit=0), ValueError, "result limit must be positive, got 0"),
        (lambda: search_third_column(14, status_interval=-1), ValueError,
         "status interval must be non-negative, got -1"),
        (lambda: search_hdm(10, 2, status_interval=-3), ValueError, "status interval must be non-negative, got -3"),
        (lambda: construct_odd(13, 13), ValueError, "gcd(f, 2m) = gcd(13, 26) = 13, expected 2"),
        (lambda: construct_odd(m=13, f=14), ValueError, "f^2+f+1 = 211 is not 13 mod 26"),
        (lambda: construct_odd(5, 8), ValueError, "gcd(f+2, 2m) = gcd(10, 10) = 10, expected 2"),
        (lambda: construct_odd(13, 42), ValueError, "f = 42 outside [m+3, 2m-4] = [16, 22]"),
        (lambda: dm_prime(0, 1), ValueError, "0 is not prime"),
        (lambda: dm_prime(1, 1), ValueError, "1 is not prime"),
        (lambda: construct_6mu(mu=2), ValueError, "mu must be an odd positive integer, got 2"),
    ],
)
def test_record_validation(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message
    # Each is a bad argument, which the CLI maps to exit 2.
    assert exit_code(info.value) == 2


# Each shape error of an array given as columns.
SHAPES = {
    "no-column": (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ()), "array must have at least one column"),
    "no-row": (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((), ())), "array must have at least one row"),
    # The first bad entry in row order is named: 7 in row 0, not 9, which
    # comes first in column 0.
    "bad-entries": (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0, 9), (7, 0))), "entry 7 outside [0, 6)"),
    "negative-entry": (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0, 1), (0, -1))), "entry -1 outside [0, 6)"),
    # Columns of unequal length are ragged, never cut to fit, whether a
    # later column is shorter than the first (a short last row) or longer.
    "short-row": (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0, 1, 2), (1, 2, 3), (2, 3))), "ragged rows"),
    "long-row": (lambda: ResidueArray(Kind.DCA, 6, 0, Form.FULL, ((0, 1), (1, 2, 3), (2, 3))), "ragged rows"),
}


@pytest.mark.parametrize("case", SHAPES)
def test_array_shape_errors(case):
    make, message = SHAPES[case]
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError and str(info.value) == message


def test_replace_and_make_validate():
    # A record changed or rebuilt through the NamedTuple helpers is checked
    # like a new one.
    with pytest.raises(ValueError, match="offsets are not a permutation"):
        LatinSquare._make((3, (0, 0, 1)))
    arr = ResidueArray(**RECORDS[0][1])
    with pytest.raises(ValueError, match="entry 6 outside"):
        arr._replace(cols=((6,) * 6, (0,) * 6, (0,) * 6))
