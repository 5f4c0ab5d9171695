"""The verifiers agree with the literal reference verifiers of
``verify_oracle`` on random, valid and mutated arrays of order at most 16:
the same report object, or an error of the same class."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from diffcover.construct import construct_by_method, dm_prime
from diffcover.core import DesignError, Form, Kind, ResidueArray, to_full
from diffcover.search import search_hdm, search_third_column
from diffcover.tables import odd_even_column
from diffcover.verify import verify_dca, verify_dm, verify_hdm

import verify_oracle

VERIFIERS = {Kind.DCA: verify_dca, Kind.HDM: verify_hdm, Kind.DM: verify_dm}
ORACLES = {Kind.DCA: verify_oracle.verify_dca, Kind.HDM: verify_oracle.verify_hdm, Kind.DM: verify_oracle.verify_dm}


def _searched_dca(n: int) -> ResidueArray:
    (col2,) = search_third_column(n, result_limit=1)
    rows = zip(range(n), odd_even_column(n), col2)
    return ResidueArray.from_rows(Kind.DCA, n, rows, form=Form.REDUCED)


# Valid arrays of every kind with n <= 16; each passes its verifier.
VALID_DCAS = [construct_by_method(n)[0] for n in (6, 8, 10)] + [_searched_dca(n) for n in (12, 14, 16)]
VALID_HDMS = [search_hdm(n, h) for n, h in ((8, 2), (10, 2), (12, 2), (14, 2), (15, 3), (16, 2))]
VALID_DMS = [dm_prime(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, min(p, 5) + 1)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DesignError, verify_oracle.OracleError) as exc:
        return type(exc).__name__


def assert_agrees(arr: ResidueArray, strict: bool = False) -> dict | str:
    args = (arr, strict) if arr.kind is Kind.DCA else (arr,)
    got = outcome(lambda *a: VERIFIERS[arr.kind](*a).to_obj(), *args)
    want = outcome(ORACLES[arr.kind], *args)
    assert got == want
    return got


def with_entries(arr: ResidueArray, rows) -> ResidueArray:
    return ResidueArray.from_rows(arr.kind, arr.order, rows, hole=arr.hole, form=arr.form)


@st.composite
def mutated(draw, pool: list[ResidueArray], first_col: int = 0) -> ResidueArray:
    """A pool array with its rows permuted or not, and 0-3 entries in
    columns ``first_col`` and later replaced."""
    arr = draw(st.sampled_from(pool))
    rows = [list(row) for row in arr.entries]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(min(first_col, arr.columns - 1), arr.columns - 1))
        rows[i][j] = draw(st.integers(0, arr.order - 1))
    return with_entries(arr, rows)


@st.composite
def random_array(draw, kind: Kind) -> ResidueArray:
    """Random entries with a row count that fits the kind.  Now and then
    any count is drawn: one that does not fit must be refused when the
    array is built, and the fitting count is used instead."""
    n = draw(st.integers(2 if kind is Kind.HDM else 1, 16))
    k = draw(st.integers(1, 5))
    hole, form = 0, Form.FULL
    if kind is Kind.DCA:
        form = draw(st.sampled_from(Form))
        count = n + 1 if form is Form.FULL else n
    elif kind is Kind.HDM:
        hole = draw(st.sampled_from([h for h in range(1, n) if n % h == 0]))
        count = (n - hole) * draw(st.integers(1, 2))
    else:
        count = n * draw(st.integers(1, 2))
    entry = st.integers(0, n - 1)

    def rows(count: int) -> list[list[int]]:
        return draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=count, max_size=count))

    if draw(st.integers(0, 9)) == 0:
        other = draw(st.integers(1, 2 * n + 2))
        fits = {Kind.DCA: other == count, Kind.HDM: other % (n - hole) == 0, Kind.DM: other % n == 0}
        if fits[kind]:
            count = other
        else:
            with pytest.raises(ValueError, match=f" rows, got {other}$"):
                ResidueArray.from_rows(kind, n, rows(other), hole=hole, form=form)
    return ResidueArray.from_rows(kind, n, rows(count), hole=hole, form=form)


def reduced_or_full(arr: ResidueArray, full: bool) -> ResidueArray:
    return to_full(arr) if full and arr.form is Form.REDUCED else arr


def test_pools_are_valid():
    for arr in VALID_DCAS:
        assert verify_dca(arr, strict=True).passed and verify_dca(to_full(arr), strict=True).passed
    for arr in VALID_HDMS:
        assert verify_hdm(arr).passed
    for arr in VALID_DMS:
        assert verify_dm(arr).passed


@settings(max_examples=300)
@given(st.one_of(random_array(Kind.DCA), mutated(VALID_DCAS)), st.booleans(), st.booleans())
def test_verify_dca_matches_oracle(arr, full, strict):
    assert_agrees(reduced_or_full(arr, full), strict)


@settings(max_examples=300)
@given(st.one_of(random_array(Kind.HDM), mutated(VALID_HDMS)))
def test_verify_hdm_matches_oracle(arr):
    assert_agrees(arr)


@settings(max_examples=300)
@given(st.one_of(random_array(Kind.DM), mutated(VALID_DMS)))
def test_verify_dm_matches_oracle(arr):
    assert_agrees(arr)


@settings(max_examples=300)
@given(mutated(VALID_DCAS, first_col=2), st.booleans())
def test_verify_dca_later_pair_mutations(arr, full):
    # Column 1 is untouched, so pair (1, 0) passes and any profile
    # failure is found in a later pair.
    assert_agrees(reduced_or_full(arr, full), strict=True)


@settings(max_examples=300)
@given(st.sampled_from(VALID_HDMS), st.data())
def test_verify_hdm_later_pair_hole_differences(hdm, data):
    # Copying column 1 into column 2 in some rows puts the hole residue 0
    # among the differences of pair (2, 1), the third pair.
    rows = [list(row) for row in hdm.entries]
    for i in data.draw(st.sets(st.integers(0, hdm.rows - 1), min_size=1, max_size=3)):
        rows[i][2] = rows[i][1]
    assert_agrees(with_entries(hdm, rows))


@pytest.mark.parametrize("arr", VALID_DCAS, ids=lambda a: str(a.order))
def test_profile_witness_in_a_later_pair(arr):
    # Swap two entries of the last column of the reduced array: every
    # pair it is in fails the profile, and (2, 0) is the first of them.
    full = to_full(arr)
    rows = [list(row) for row in full.entries]
    rows[0][2], rows[1][2] = rows[1][2], rows[0][2]
    obj = assert_agrees(with_entries(full, rows), strict=True)
    assert obj["checks"][2]["name"] == "difference-profile"
    assert obj["checks"][2]["witness"]["pair"] == [2, 0]


@pytest.mark.parametrize("hdm", VALID_HDMS, ids=lambda a: f"{a.order}-{a.hole}")
def test_hole_witness_in_a_later_pair(hdm):
    rows = [list(row) for row in hdm.entries]
    rows[0][2] = rows[0][1]
    obj = assert_agrees(with_entries(hdm, rows))
    assert obj["checks"][0]["name"] == "hole-avoidance"
    assert obj["checks"][0]["witness"]["pair"] == [2, 1]


@settings(max_examples=100)
@given(st.sampled_from(VALID_DCAS), st.data())
def test_profile_reads_the_first_n_rows(arr, data):
    # The profile leaves out the last row, so any last row keeps it.
    full = to_full(arr)
    last = data.draw(st.lists(st.integers(0, arr.order - 1), min_size=4, max_size=4))
    obj = assert_agrees(with_entries(full, full.entries[:-1] + (tuple(last),)), strict=True)
    assert obj["checks"][2] == {"name": "difference-profile", "pass": True, "witness": None}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_balance_witness_in_the_last_pair(p):
    # A shifted copy of column 3 in column 4 keeps every pair with
    # columns 0-2 balanced; only the last pair, (4, 3), fails.
    rows = [row[:4] + ((row[3] + 1) % p,) for row in dm_prime(p, 5).entries]
    obj = assert_agrees(with_entries(dm_prime(p, 5), rows))
    assert obj["checks"][0]["witness"]["pair"] == [4, 3]
