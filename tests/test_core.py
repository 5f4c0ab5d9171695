"""Core model: difference multisets, forms, serialization."""

from __future__ import annotations

import pytest

from diffcover.core import (
    Form,
    Kind,
    NotNormalized,
    ParseError,
    ResidueArray,
    diff_multiset,
    read_array,
    to_full,
    to_reduced,
    write_array,
)

from conftest import B_TEXT, mutate


def test_diff_multiset_on_golden(b_full):
    dm = diff_multiset(b_full, 1, 0, range(6))
    assert dm.counts == {1: 1, 2: 1, 3: 2, 4: 1, 5: 1}
    assert sum(dm.counts.values()) == 6


def test_diff_multiset_same_column_rejected(b_full):
    with pytest.raises(ValueError):
        diff_multiset(b_full, 1, 1)


def test_diff_multiset_bad_indices(b_full):
    with pytest.raises(IndexError):
        diff_multiset(b_full, 0, 4)
    with pytest.raises(IndexError):
        diff_multiset(b_full, 1, 0, range(8))


def test_diff_against_zero_column_is_entry_multiset(b_full):
    dm = diff_multiset(b_full, 0, 3)
    assert sum(dm.counts.values()) == 7
    expected = {}
    for v in b_full.column(0):
        expected[v] = expected.get(v, 0) + 1
    assert dm.counts == expected


def test_diff_total_matches_row_range(b_full):
    for start in range(6):
        dm = diff_multiset(b_full, 2, 1, range(start, 7))
        assert sum(dm.counts.values()) == 7 - start


def test_to_reduced_golden(b_full, b_reduced):
    assert to_reduced(b_full) == b_reduced


def test_full_reduced_round_trips(b_full, b_reduced):
    assert to_full(to_reduced(b_full)) == b_full
    assert to_reduced(to_full(b_reduced)) == b_reduced


def test_to_reduced_rejects_unnormalized(b_full):
    bad = mutate(b_full, 6, 1, 2)
    with pytest.raises(NotNormalized):
        to_reduced(bad)


def test_to_reduced_rejects_reduced_input(b_reduced):
    with pytest.raises(ValueError):
        to_reduced(b_reduced)


def test_array_validation():
    with pytest.raises(ValueError):
        ResidueArray.from_rows(Kind.DCA, 0, [(0,)])
    with pytest.raises(ValueError):
        ResidueArray.from_rows(Kind.DCA, 6, [(0, 6)])
    with pytest.raises(ValueError):
        ResidueArray.from_rows(Kind.DCA, 6, [(0, 1), (0,)])
    with pytest.raises(ValueError):
        ResidueArray.from_rows(Kind.HDM, 10, [(1, 0)], hole=3)
    with pytest.raises(ValueError):
        ResidueArray.from_rows(Kind.DM, 5, [(0, 0)], hole=1)
    with pytest.raises(ValueError):
        ResidueArray.from_rows(Kind.DM, 5, [(0, 0)], form=Form.REDUCED)


def test_read_golden_text(b_full):
    assert read_array(B_TEXT) == b_full


def test_read_tolerates_comments_and_blank_lines(b_full):
    noisy = "# golden array\n\n" + B_TEXT.replace("0 1 3 0", "0 1 3 0  # first row")
    assert read_array(noisy) == b_full


def test_read_rejects_out_of_range_entry():
    with pytest.raises(ParseError):
        read_array(B_TEXT.replace("2 5 4 0", "2 6 4 0"))


def test_read_rejects_bad_shape():
    truncated = "\n".join(B_TEXT.splitlines()[:-1]) + "\n"
    with pytest.raises(ParseError):
        read_array(truncated)
    with pytest.raises(ParseError):
        read_array(B_TEXT.replace("3 0 1 0", "3 0 1"))


def test_read_rejects_bad_header():
    with pytest.raises(ParseError):
        read_array(B_TEXT.replace("kind=DCA", "kind=XYZ"))
    with pytest.raises(ParseError):
        read_array(B_TEXT.replace(" form=full", ""))
    with pytest.raises(ParseError):
        read_array("")


def test_dm_lambda_header_round_trip():
    text = "kind=DM k=2 n=2 h=0 form=full lambda=2\n0 0\n1 0\n0 1\n1 1\n"
    arr = read_array(text)
    assert write_array(arr) == text
    with pytest.raises(ParseError):
        read_array(text.replace("lambda=2", "lambda=3"))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_round_trip_bit_exact(fmt, b_full, b_reduced):
    for arr in (b_full, b_reduced):
        payload = write_array(arr, fmt=fmt)
        again = read_array(payload)
        assert again == arr
        assert write_array(again, fmt=fmt) == payload


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_round_trip_constructed_arrays(fmt):
    # Serialization is exact for a representative of every constructor.
    from diffcover.construct import (
        construct_4m,
        construct_6mu,
        construct_from_table,
        construct_odd,
        dm_prime,
        hdm_product,
    )
    from diffcover.search import search_hdm

    hdm = search_hdm(10, 2)
    arrays = [
        construct_odd(13, 16),
        construct_4m(0),
        construct_6mu(1),
        construct_from_table(24),
        to_full(construct_from_table(6)),
        dm_prime(7, 4),
        hdm,
        hdm_product(hdm, dm_prime(7, 4)),
    ]
    for arr in arrays:
        payload = write_array(arr, fmt=fmt)
        assert read_array(payload) == arr
        assert write_array(read_array(payload), fmt=fmt) == payload


def test_json_read_errors():
    with pytest.raises(ParseError):
        read_array("{not json")
    with pytest.raises(ParseError):
        read_array('{"kind": "DCA"}')
