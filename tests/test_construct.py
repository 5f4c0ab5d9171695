"""Direct families, table lookups, prime DMs, and the combinators."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from diffcover.construct import (
    ASYMPTOTIC_THRESHOLD,
    METHODS,
    RECORD,
    BadParams,
    construct_4m,
    construct_6mu,
    construct_by_method,
    construct_odd,
    dm_prime,
    hdm_product,
    insert_hole,
    methods_for_order,
    params_odd,
    spectrum_report,
)
from diffcover.core import Form, Kind, NoSolution, ResidueArray, read_array, write_array
from diffcover.search import search_hdm, search_third_column
from diffcover.tables import SEARCHED_THIRD_COLUMNS, odd_even_column
from diffcover.verify import verify_dca, verify_dm, verify_hdm

from conftest import mutate

# The worked 26-row example: columns b, c and the three difference rows.
EXAMPLE_26_B = (13, 3, 19, 9, 25, 15, 5, 21, 11, 1, 17, 7, 23,
                2, 18, 8, 24, 14, 4, 20, 10, 0, 16, 6, 22, 12)
EXAMPLE_26_C = (15, 24, 7, 16, 12, 21, 4, 13, 22, 5, 14, 23, 6,
                0, 9, 18, 1, 10, 19, 2, 11, 20, 3, 25, 8, 17)
EXAMPLE_26_B_MINUS_A = (13, 2, 17, 6, 21, 10, 25, 14, 3, 18, 7, 22, 11,
                        15, 4, 19, 8, 23, 12, 1, 16, 5, 20, 9, 24, 13)
EXAMPLE_26_C_MINUS_A = (15, 23, 5, 13, 8, 16, 24, 6, 14, 22, 4, 12, 20,
                        13, 21, 3, 11, 19, 1, 9, 17, 25, 7, 2, 10, 18)
EXAMPLE_26_C_MINUS_B = (2, 21, 14, 7, 13, 6, 25, 18, 11, 4, 23, 16, 9,
                        24, 17, 10, 3, 22, 15, 8, 1, 20, 13, 19, 12, 5)


def test_construct_odd_worked_example():
    arr = construct_odd(13, 16)
    assert arr.form is Form.REDUCED and arr.order == 26
    assert arr.column(0) == tuple(range(26))
    assert arr.column(1) == EXAMPLE_26_B
    assert arr.column(2) == EXAMPLE_26_C
    assert arr.entries[0] == (0, 13, 15)
    assert arr.entries[4] == (4, 25, 12)
    assert arr.entries[13] == (13, 2, 0)
    assert verify_dca(arr, strict=True).passed


def test_construct_odd_difference_rows_match_example():
    arr = construct_odd(13, 16)
    b_minus_a = tuple((row[1] - row[0]) % 26 for row in arr.entries)
    c_minus_a = tuple((row[2] - row[0]) % 26 for row in arr.entries)
    c_minus_b = tuple((row[2] - row[1]) % 26 for row in arr.entries)
    assert b_minus_a == EXAMPLE_26_B_MINUS_A
    assert c_minus_a == EXAMPLE_26_C_MINUS_A
    assert c_minus_b == EXAMPLE_26_C_MINUS_B
    # The half-order value 13 appears exactly twice in each difference row.
    for diffs in (b_minus_a, c_minus_a, c_minus_b):
        assert diffs.count(13) == 2


@pytest.mark.parametrize(
    "m,f,fragment",
    [
        (13, 15, "gcd(f, 2m)"),      # odd f
        (13, 18, "f^2+f+1"),         # right parity, wrong congruence
        (13, 42, "outside"),         # congruence holds, range violated
    ],
)
def test_construct_odd_bad_params(m, f, fragment):
    with pytest.raises(BadParams) as exc:
        construct_odd(m, f)
    assert fragment in str(exc.value)


def test_params_odd():
    assert params_odd(0) == (13, 16)
    assert params_odd(4)[0] == 133
    for bad in (2, 5, -1):
        with pytest.raises(BadParams, match="not 2 mod 3"):
            params_odd(bad)


def test_params_odd_satisfies_invariants():
    for i in (0, 1, 3, 4, 6):
        m, f = params_odd(i)
        assert f == m + 3 + 2 * i
        # construct_odd checks every condition on (m, f).
        assert construct_odd(m, f).order == 2 * m


def test_construct_4m():
    arr = construct_4m(0)
    assert arr.order == 8
    assert arr.column(1) == (1, 3, 5, 7, 0, 2, 4, 6)
    assert arr.column(2) == (3, 7, 6, 2, 5, 1, 0, 4)
    assert verify_dca(arr, strict=True).passed
    assert construct_4m(2).order == 40
    with pytest.raises(BadParams, match="not 1 mod 3, got 1"):
        construct_4m(1)
    with pytest.raises(BadParams, match="not 1 mod 3, got -2"):
        construct_4m(-2)


def test_construct_6mu():
    arr = construct_6mu(1)
    assert arr.order == 10
    assert arr.entries[0] == (7, 4, 9)
    # First column is a non-identity permutation of the residues.
    assert sorted(arr.column(0)) == list(range(10))
    assert arr.column(0) != tuple(range(10))
    assert verify_dca(arr, strict=True).passed
    assert construct_6mu(5).order == 34
    for bad in (2, 0, -3):
        with pytest.raises(BadParams):
            construct_6mu(bad)


# The first 16 hex digits of sha256(write_array(...)) for arrays of every
# family, and a general (m, f) outside the odd-f subfamily: another valid
# DCA would pass every structural test, so these pin the exact rows.
@pytest.mark.parametrize(
    "build, args, digest",
    [
        (construct_6mu, (1,), "39ebc38f5584ed76"),
        (construct_6mu, (3,), "2271fa74a047c644"),
        (construct_6mu, (101,), "f00d1dafa398bd8e"),
        (construct_4m, (2,), "c9af2b3c540fce46"),
        (construct_4m, (3,), "b99eca3d72e879e5"),
        (construct_odd, params_odd(1), "b57cc125ded3124e"),
        (construct_odd, (19, 26), "3e64bf652c510596"),
        (construct_4m, (0,), "05f1cf03d5dae16f"),
        (construct_4m, (5,), "26de4b69aab02aa6"),
        (construct_4m, (6,), "639fedaa7e9e8a01"),
        (construct_4m, (8,), "ab82e58ce4d49e82"),
        (construct_4m, (9,), "c2b33e46e47039f3"),
        (construct_4m, (1875,), "1d5d6e1b1cc671df"),  # order 30008
    ],
)
def test_family_rows_are_pinned(build, args, digest):
    assert hashlib.sha256(write_array(build(*args)).encode()).hexdigest()[:16] == digest


# The first 16 hex digits of sha256 of the text and the JSON that
# write_array gives, recorded when arrays were still stored as rows.  One
# array of each family near order 1,000, a prime DM, an HDM x DM product and
# a hole insertion.
WRITTEN = {
    "table-54": (lambda: construct_by_method(54, "table")[0], "5967d0440414eb59", "28d6c2d5cecfa74a"),
    "odd-f-926": (lambda: construct_by_method(926, "odd-f")[0], "169165334e153db8", "b5f7e809753bde10"),
    "four-m-1000": (lambda: construct_by_method(1000, "four-m")[0], "46308a11509ce92e", "9da3c6b4100de157"),
    "six-mu-994": (lambda: construct_by_method(994, "six-mu")[0], "fb145cbc71c7188e", "2d5a890ea4f804e6"),
    "dm-1009": (lambda: dm_prime(1009, 4), "75e69b7eb561c64d", "5618ea3ef415cc38"),
    "hdm-10-2-x-dm-101": (lambda: hdm_product(search_hdm(10, 2), dm_prime(101, 4)),
                          "c30fe72abdf60730", "7e15a915742cc2b0"),
    "hole-1010": (lambda: insert_hole(hdm_product(search_hdm(10, 2), dm_prime(101, 4)), construct_by_method(202)[0]),
                  "add58ac8afa1dbbe", "e5ced716c82f2416"),
}


@pytest.mark.parametrize("case", WRITTEN)
def test_written_bytes_are_pinned(case):
    build, text_digest, json_digest = WRITTEN[case]
    arr = build()
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        payload = write_array(arr, fmt)
        assert hashlib.sha256(payload.encode()).hexdigest()[:16] == digest
        assert write_array(read_array(payload), fmt) == payload


def test_table_method(b_reduced):
    assert construct_by_method(6, "table") == (b_reduced, "table")
    # The classical order-6 column is the only one the search finds.
    assert search_third_column(6) == [SEARCHED_THIRD_COLUMNS[6]]
    t24 = construct_by_method(24, "table")[0]
    assert t24.column(2)[:6] == (2, 0, 3, 1, 14, 21)
    t54 = construct_by_method(54, "table")[0]
    assert t54.column(2)[-4:] == (10, 43, 29, 8)
    with pytest.raises(NoSolution, match="^no table family covers order 26$"):
        construct_by_method(26, "table")


@pytest.mark.parametrize("order", [6, 24, 28, 32, 36, 44, 48, 52, 54])
def test_table_orders_strict(order):
    assert verify_dca(construct_by_method(order, "table")[0], strict=True).passed


def test_dm_prime():
    dm = dm_prime(5, 4)
    assert verify_dm(dm).passed and verify_dm(dm).meta["lambda"] == 1
    assert dm.is_normalized
    assert verify_dm(dm_prime(7, 4)).passed
    with pytest.raises(BadParams, match="6 is not prime"):
        dm_prime(6, 4)
    # Prime squares, whose only factor is the square root.
    for p in (9, 25, 49):
        with pytest.raises(BadParams, match=f"{p} is not prime"):
            dm_prime(p, 4)
    with pytest.raises(BadParams, match="k = 6 exceeds p = 5"):
        dm_prime(5, 6)
    with pytest.raises(BadParams, match="k must be positive, got 0"):
        dm_prime(5, 0)
    assert verify_dm(dm_prime(5, 1)).passed


def test_dm_prime_sweep():
    primes = [p for p in range(5, 98) if all(p % d for d in range(2, p))]
    for p in primes:
        for k in (2, min(p, 6)):
            report = verify_dm(dm_prime(p, k))
            assert report.passed and report.meta["lambda"] == 1


def test_no_strict_dca_over_hole_two():
    # Exhaustive: no 3x4 array over Z_2 passes the strict checks, so hole
    # size 2 admits no insertion ingredient.
    for bits in itertools.product(range(2), repeat=12):
        rows = [bits[0:4], bits[4:8], bits[8:12]]
        arr = ResidueArray.from_rows(Kind.DCA, 2, rows)
        assert not verify_dca(arr, strict=True).passed


def test_insert_hole_errors(b_reduced):
    from diffcover.search import search_hdm

    hdm = search_hdm(10, 2)
    # No strict DCA(4,3;2) exists; any candidate is rejected.
    candidate = ResidueArray.from_rows(Kind.DCA, 2, [(0, 1, 1, 0), (1, 0, 1, 0), (0, 0, 0, 0)])
    with pytest.raises(BadParams):
        insert_hole(hdm, candidate)
    # Hole size mismatch: the order-6 golden array does not fit hole 2.
    with pytest.raises(BadParams):
        insert_hole(hdm, b_reduced)
    # Broken HDM ingredient.
    with pytest.raises(BadParams):
        insert_hole(mutate(hdm, 0, 1, 3), b_reduced)
    # A valid HDM with lambda = 2 has too many rows to take a hole.
    doubled = search_hdm(24, 6)
    doubled = doubled._replace(cols=tuple(col * 2 for col in doubled.cols))
    assert verify_hdm(doubled).passed and verify_hdm(doubled).meta["lambda"] == 2
    with pytest.raises(BadParams, match="HDM ingredient must have lambda = 1"):
        insert_hole(doubled, b_reduced)
    # A hole of odd order admits no strict check.
    odd_hole = ResidueArray.from_rows(Kind.DCA, 1, [(0, 0, 0, 0)] * 2)
    with pytest.raises(BadParams, match="^strict checks need even order, got 1$"):
        insert_hole(search_hdm(5, 1), odd_hole)


def test_insert_hole_mismatched_k(b_reduced):
    from diffcover.search import search_hdm

    hdm = search_hdm(10, 2)
    wide = ResidueArray.from_rows(
        Kind.DCA, 6, [row + (0,) for row in b_reduced.entries], form=Form.REDUCED
    )
    with pytest.raises(BadParams, match="column counts differ: 4 vs 5"):
        insert_hole(hdm, wide)  # full hole form has 5 columns vs 4


def test_hdm_product_rejects_lambda_two():
    from diffcover.search import search_hdm

    hdm = search_hdm(10, 2)
    doubled = ResidueArray.from_rows(
        Kind.DM, 5, dm_prime(5, 4).entries + dm_prime(5, 4).entries
    )
    assert verify_dm(doubled).meta["lambda"] == 2
    with pytest.raises(BadParams):
        hdm_product(hdm, doubled)
    with pytest.raises(BadParams, match="column counts differ: 4 vs 3"):
        hdm_product(hdm, dm_prime(5, 3))


def test_no_cyclic_dm_6_3():
    # A cyclic DM(6,3;1) needs a permutation whose deviation from the
    # identity is again a permutation; Z_6 has none.
    found = []
    for perm in itertools.permutations(range(6)):
        if sorted((v - i) % 6 for i, v in enumerate(perm)) == list(range(6)):
            found.append(perm)
    assert found == []


def test_construct_auto_dispatch():
    for order, want in [(26, "odd-f i=0"), (34, "six-mu mu=5"), (24, "table"), (8, "four-m k=0")]:
        arr, tag = construct_by_method(order)
        assert tag == want
        assert verify_dca(arr, strict=True).passed
    with pytest.raises(NoSolution):
        construct_by_method(64)
    with pytest.raises(ValueError):
        construct_by_method(7)
    with pytest.raises(ValueError):
        construct_by_method(4)


def test_construct_by_method():
    arr, tag = construct_by_method(26, "odd-f")
    assert tag == "odd-f i=0"
    with pytest.raises(NoSolution):
        construct_by_method(26, "table")
    with pytest.raises(NoSolution):
        construct_by_method(24, "four-m")
    with pytest.raises(ValueError):
        construct_by_method(24, "bogus")


def test_methods_for_order():
    assert methods_for_order(26) == ("odd-f",)
    assert methods_for_order(24) == ("table",)
    assert methods_for_order(34) == ("six-mu",)
    assert methods_for_order(40) == ("four-m",)
    assert methods_for_order(64) == ()


def test_registry_agrees_with_construction():
    # methods_for_order names exactly the methods that build a strict DCA,
    # in priority order, and auto dispatch returns the first of them.
    for order in range(6, 1001, 2):
        built = {}
        for name in (m.name for m in METHODS):
            try:
                arr, tag = construct_by_method(order, name)
            except NoSolution:
                continue
            if verify_dca(arr, strict=True).passed:
                built[name] = (arr, tag)
        assert methods_for_order(order) == tuple(built), order
        if built:
            assert construct_by_method(order) == next(iter(built.values())), order
        else:
            with pytest.raises(NoSolution):
                construct_by_method(order)


def test_spectrum_report():
    entries = {e.order: e for e in spectrum_report(6, 360)}
    assert entries[146].status == "open"
    assert entries[24].constructible_by == ("table",)
    assert entries[6].constructible_by == ("table",)
    assert entries[26].constructible_by == ("odd-f",)
    for order in (64, 68, 72, 74, 76):
        assert entries[order].status == "covered-externally"
        assert entries[order].source == "block-design"
    # 358 = 6*59+4 is reached internally; 360 falls to the asymptotic bound.
    assert entries[358].constructible_by == ("six-mu",)
    assert entries[360].source == "asymptotic"
    # Every order is accounted for: internal, external, or the open case.
    assert all(
        e.constructible_by or e.status in ("covered-externally", "open")
        for e in entries.values()
    )
    assert [e.order for e in spectrum_report(6, 360)] == list(range(6, 361, 2))


def test_spectrum_report_bounds():
    for lo, hi in [(8, 6), (5, 10), (6, 11), (2, 10)]:
        with pytest.raises(ValueError):
            spectrum_report(lo, hi)
    with pytest.raises(ValueError, match=r"bounds must be even, got 9\.\.10"):
        spectrum_report(9, 10)


def test_transcribed_orders_are_ones_the_registry_misses():
    # spectrum reports an internal method before any transcribed label, so
    # a transcribed order that a method covers would never be read; and
    # only one label per order could be.  Below the asymptotic threshold
    # the record must hold every order the methods miss, since spectrum
    # has no label for an order in neither.
    transcribed = [order for orders in RECORD.values() for order in orders]
    assert len(transcribed) == len(set(transcribed))
    assert [order for order in transcribed if methods_for_order(order)] == []
    missed = [order for order in range(6, ASYMPTOTIC_THRESHOLD, 2) if not methods_for_order(order)]
    assert sorted(transcribed) == missed


def test_searched_columns_pair_with_stated_pattern():
    # The stored third columns are tied to the identity and odd-even
    # patterns; re-derive the arrays from raw table data.
    for order, col2 in SEARCHED_THIRD_COLUMNS.items():
        arr = ResidueArray.from_rows(
            Kind.DCA,
            order,
            zip(range(order), odd_even_column(order), col2),
            form=Form.REDUCED,
        )
        assert verify_dca(arr, strict=True).passed
