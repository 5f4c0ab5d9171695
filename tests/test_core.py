"""Core model: difference counts, forms, serialization."""

from __future__ import annotations

import json

import pytest

from diffcover.core import (
    CertificationFailed,
    Form,
    Kind,
    ParseError,
    ResidueArray,
    diff_counts,
    read_array,
    to_full,
    to_reduced,
    write_array,
)

from conftest import B_TEXT, mutate


def test_diff_multiset_on_golden(b_full):
    counts = diff_counts(b_full.column(1)[:6], b_full.column(0)[:6], 6)
    assert counts == [0, 1, 1, 2, 1, 1]
    assert sum(counts) == 6


def test_diff_against_zero_column_is_entry_multiset(b_full):
    counts = diff_counts(b_full.column(0), b_full.column(3), 6)
    assert sum(counts) == 7
    expected = [0] * 6
    for v in b_full.column(0):
        expected[v] += 1
    assert counts == expected


def test_diff_total_matches_row_range(b_full):
    for start in range(6):
        counts = diff_counts(b_full.column(2)[start:], b_full.column(1)[start:], 6)
        assert sum(counts) == 7 - start


def test_to_reduced_golden(b_full, b_reduced):
    assert to_reduced(b_full) == b_reduced


def test_full_reduced_round_trips(b_full, b_reduced):
    assert to_full(to_reduced(b_full)) == b_full
    assert to_reduced(to_full(b_reduced)) == b_reduced


def test_to_reduced_rejects_unnormalized(b_full):
    bad = mutate(b_full, 6, 1, 2)
    with pytest.raises(CertificationFailed, match="^last row and last column must be all zero$"):
        to_reduced(bad)


def test_to_reduced_rejects_reduced_input(b_reduced):
    with pytest.raises(ValueError, match="^to_reduced expects a full-form DCA$"):
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
    # The smallest shapes the bounds admit: order 1, and hole 1.
    assert ResidueArray.from_rows(Kind.DM, 1, [(0, 0)]).order == 1
    assert ResidueArray.from_rows(Kind.HDM, 2, [(1, 1)], hole=1).hole == 1


def test_column_index_bounds(b_reduced):
    assert b_reduced.column(2) == (3, 0, 4, 1, 5, 2)
    with pytest.raises(IndexError, match=r"column 3 outside \[0, 3\)"):
        b_reduced.column(3)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("n", [11, 1009])
def test_text_rows_match_joined_str(n, k):
    # Each row is written with one "%d ..." format; the bytes are those
    # of joining str() of the entries, the earlier rendering.
    rows = [tuple(i * (j + 1) % n for j in range(k - 1)) + (0,) for i in range(n)]
    arr = ResidueArray.from_rows(Kind.DM, n, rows)
    header = f"kind=DM k={k} n={n} h=0 form=full lambda=1"
    want = "\n".join([header, *(" ".join(str(v) for v in row) for row in rows)]) + "\n"
    assert write_array(arr) == want


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_round_trip_constructed_arrays(fmt):
    # Serialization is exact for a representative of every constructor.
    from diffcover.construct import (
        construct_4m,
        construct_6mu,
        construct_by_method,
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
        construct_by_method(24, "table")[0],
        to_full(construct_by_method(6, "table")[0]),
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


def _golden_json(**changes) -> str:
    obj = json.loads(write_array(read_array(B_TEXT), fmt="json"))
    obj.update(changes)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text",
    [
        _golden_json(**{"lambda": "x"}),
        _golden_json(**{"lambda": None}),
        _golden_json().replace("[0, 1, 3, 0]", "[1e400, 1, 3, 0]", 1),
        "kind=HDM k=2 n=4 h=4 form=full\n0 0\n",
        json.dumps({"kind": "DM", "k": 2, "n": 0, "h": 0, "form": "full", "entries": [[0, 0]]}),
        '{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "kind=HDM k=2 n=4 h=2 form=full\n1 1\n1 3\n3 3\n",
        "kind=DM k=2 n=3 h=0 form=full\n0 0\n1 0\n",
    ],
    ids=[
        "lambda-str", "lambda-null", "entry-1e400", "hdm-h-equals-n", "dm-n-zero", "deep-json",
        "hdm-row-count", "dm-row-count",
    ],
)
def test_read_rejects_malformed_file_with_parse_error(text):
    with pytest.raises(ParseError):
        read_array(text)


@pytest.mark.parametrize("key", ["k", "n", "h", "lambda"])
@pytest.mark.parametrize("value", [True, 6.0, "6"], ids=["bool", "float", "str"])
def test_json_counts_must_be_integers(key, value):
    with pytest.raises(ParseError):
        read_array(_golden_json(**{key: value}))


@pytest.mark.parametrize("value", ["true", "0.0", '"0"'])
def test_json_entries_must_be_integers(value):
    with pytest.raises(ParseError):
        read_array(_golden_json().replace("[0, 1, 3, 0]", f"[{value}, 1, 3, 0]", 1))


@pytest.mark.parametrize(
    "text",
    [
        "kind=DCA k=2 n=6 h=0 form=full\n0 7\n9 0\n",
        '{"kind": "DCA", "k": 2, "n": 6, "h": 0, "form": "full", "entries": [[0, 7], [9, 0]]}',
    ],
    ids=["text", "json"],
)
def test_first_bad_entry_in_row_order_is_named(text):
    # 7 comes first in row order, 9 first in column order.
    with pytest.raises(ParseError, match=r"^entry 7 outside \[0, 6\)$"):
        read_array(text)


def test_text_header_and_entries_go_through_int(b_full):
    # Text tokens keep int()'s spelling rules, e.g. a leading '+'.
    assert read_array(B_TEXT.replace("n=6", "n=+6").replace("1 3 0 0", "+1 3 0 0")) == b_full
