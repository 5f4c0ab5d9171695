"""Verifier behavior on golden arrays, degenerate cases, and mutations."""

from __future__ import annotations

from collections import Counter

import pytest

from diffcover.construct import dm_prime
from diffcover.core import CertificationFailed, Kind, ResidueArray, diff_counts
from diffcover.verify import verify_dca, verify_dm, verify_hdm

from conftest import mutate


def brute_force_pair_counts(arr: ResidueArray, j: int, jp: int) -> Counter:
    return Counter((row[j] - row[jp]) % arr.order for row in arr.entries)


def test_verify_dm_prime_5_4():
    dm = dm_prime(5, 4)
    report = verify_dm(dm)
    assert report.passed and report.meta["lambda"] == 1
    # Independent recount of all six column-pair difference multisets.
    for j in range(4):
        for jp in range(j):
            counts = brute_force_pair_counts(dm, j, jp)
            assert counts == Counter({d: 1 for d in range(5)})


def test_verify_dm_degenerate_order_one():
    arr = ResidueArray.from_rows(Kind.DM, 1, [(0, 0, 0, 0)])
    report = verify_dm(arr)
    assert report.passed and report.meta["lambda"] == 1


def test_verify_dm_rejects_dca_structure(b_reduced):
    # The reduced golden DCA relabeled as a DM: differences are doubled at
    # 3 and miss 0, so the balance check fails at the first column pair.
    as_dm = ResidueArray.from_rows(Kind.DM, 6, b_reduced.entries)
    report = verify_dm(as_dm)
    assert not report.passed
    witness = report.checks[0].witness
    assert witness == {"pair": [1, 0], "residue": 0, "expected": 1, "actual": 0}
    assert brute_force_pair_counts(as_dm, 1, 0)[3] == 2


def test_verify_dm_kind_precondition(b_full):
    with pytest.raises(ValueError):
        verify_dm(b_full)


def test_verify_hdm_rejects_hole_difference():
    # Over Z_4 with hole {0, 2}: the differences of the pair are 2, 2.
    arr = ResidueArray.from_rows(Kind.HDM, 4, [(1, 3), (3, 1)], hole=2)
    report = verify_hdm(arr)
    assert not report.passed
    hole = report.checks[0]
    assert hole.name == "hole-avoidance"
    assert hole.witness == {"pair": [1, 0], "residue": 2, "expected": 0, "actual": 2}


def test_verify_hdm_accepts_valid():
    # Hand-checked HDM(2, 4; 2): single pair differences {1, 3}.
    arr = ResidueArray.from_rows(Kind.HDM, 4, [(1, 0), (3, 0)], hole=2)
    report = verify_hdm(arr)
    assert report.passed and report.meta["lambda"] == 1
    names = [c.name for c in report.checks]
    assert "hole-entries-confined" in names


def test_verify_hdm_confinement_check():
    # Valid differences but a hole entry parked in a non-last column.
    arr = ResidueArray.from_rows(Kind.HDM, 4, [(1, 2), (3, 0)], hole=2)
    report = verify_hdm(arr)
    confined = [c for c in report.checks if c.name == "hole-entries-confined"]
    assert not confined[0].passed if confined else not report.passed


def test_verify_dca_strict_golden(b_full):
    report = verify_dca(b_full, strict=True)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "coverage",
        "zero-twice-per-column",
        "difference-profile",
    ]
    # The repeated difference is 3 = 6/2 in all three off-pairs.
    for j in range(3):
        for jp in range(j):
            counts = diff_counts(b_full.column(j)[:6], b_full.column(jp)[:6], 6)
            assert counts[3] == 2 and counts[0] == 0


def test_verify_dca_reduced_input(b_reduced):
    assert verify_dca(b_reduced, strict=True).passed


def test_verify_dca_witness_on_mutation(b_full):
    bad = mutate(b_full, 0, 1, 2)
    report = verify_dca(bad, strict=True)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    profile = [c for c in failing if c.name == "difference-profile"][0]
    assert profile.witness == {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}


def test_verify_dca_coverage_only_mode(b_full):
    bad = mutate(b_full, 0, 1, 2)
    report = verify_dca(bad, strict=False)
    assert [c.name for c in report.checks] == ["coverage"]
    assert report.meta["min_coverage"] == 0
    assert not report.passed


def test_verify_dca_odd_order_strict():
    rows = [(i, 0) for i in range(5)] + [(0, 0)]
    arr = ResidueArray.from_rows(Kind.DCA, 5, rows)
    with pytest.raises(CertificationFailed, match="^strict checks need even order, got 5$"):
        verify_dca(arr, strict=True)
    assert verify_dca(arr, strict=False).passed


def test_verify_dca_kind_precondition():
    with pytest.raises(ValueError):
        verify_dca(dm_prime(5, 4))


def test_report_json_shape(b_full):
    import json

    obj = json.loads(verify_dca(b_full, strict=True).to_json())
    assert obj["verdict"] == "pass"
    assert all(set(c) == {"name", "pass", "witness"} for c in obj["checks"])


def test_every_constructed_array_verifies(b_reduced):
    # Cross-check: the matching verifier passes for representative outputs
    # of each constructor family (full sweeps live in the acceptance suite).
    from diffcover.construct import (
        construct_4m,
        construct_6mu,
        construct_by_method,
        construct_odd,
    )

    for arr in [
        construct_odd(13, 16),
        construct_4m(0),
        construct_6mu(1),
        construct_by_method(24, "table")[0],
        b_reduced,
    ]:
        assert verify_dca(arr, strict=True).passed
