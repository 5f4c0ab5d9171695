"""``read_array`` agrees with the line-by-line reference parser of
``read_oracle``: the same array, or a ParseError with the same message.

The inputs are the contract suite's generated files, canonical files
respelled in ways the text format allows (line endings, separators,
blank lines, integer spellings ``int`` accepts) or breaks, JSON files
with non-integer or misplaced entries, and HDM and DM files one row
short.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffcover.core import Kind, ParseError, read_array, write_array

import read_oracle
from test_contract_properties import VALID_ARRAYS, file_texts

# Line boundaries of str.splitlines, and whitespace of str.split that
# does not end a line.
ENDINGS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
SEPARATORS = (" ", "  ", "\t", " \t", "\x1f", "\xa0", "\u2003", "\u3000")
EDGES = ("", "\n", "\n\n", "  \n", "\t\r\n")
# Spellings of a residue v that int() reads as v, by index.
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
SPELLINGS = (
    str,
    lambda v: f"+{v}",
    lambda v: f"0{v}",
    lambda v: f"{v // 10}_{v % 10}" if v >= 10 else str(v),
    lambda v: str(v).translate(ARABIC_INDIC),
    lambda v: str(v).translate(FULLWIDTH),
)
# Tokens that make a text file fail: out of range, not an integer, a comment.
BAD_TOKENS = ("-1", "99", "x", "1.0", "#", "0#", "1,", "")


def outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return "ParseError", str(exc)


def assert_agrees(text: str) -> None:
    assert outcome(read_array, text) == outcome(read_oracle.read_array, text)


@st.composite
def text_variants(draw) -> str:
    arr = draw(st.sampled_from(VALID_ARRAYS))
    header, *rows = write_array(arr).splitlines()
    cells = [[int(tok) for tok in row.split()] for row in rows]
    spell = SPELLINGS[draw(st.integers(0, len(SPELLINGS) - 1))]
    lines = [[spell(v) for v in row] for row in cells]
    # At most one cell changed: another spelling or a bad token.
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1))
        respelled = st.sampled_from(SPELLINGS).map(lambda f: f(cells[i][j]))
        lines[i][j] = draw(st.one_of(respelled, st.sampled_from(BAD_TOKENS)))
    if draw(st.booleans()):
        k = arr.columns
        ks = ("0", "00", str(k + 1), str(k - 1), f"+{k}", f"0{k}")
        header = header.replace(f"k={k}", "k=" + draw(st.sampled_from(ks)))
    sep = draw(st.sampled_from(SEPARATORS))
    body = [sep.join(tokens) for tokens in lines]
    # At most one blank, padded or commented line inside the body.
    if draw(st.booleans()):
        i = draw(st.integers(0, len(body)))
        extra = draw(st.sampled_from(("", "  ", "\t", "# note", "  # note")))
        body.insert(i, extra)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(body) - 1))
        pad = draw(st.sampled_from(("  ", "\t", "\xa0")))
        body[i] = pad + body[i] + draw(st.sampled_from(("", " ", "\t")))
    end = draw(st.sampled_from(ENDINGS))
    text = end.join([header.replace(" ", sep), *body]) + end
    return draw(st.sampled_from(EDGES)) + text + draw(st.sampled_from(EDGES))


@st.composite
def json_variants(draw) -> str:
    obj = json.loads(write_array(draw(st.sampled_from(VALID_ARRAYS)), fmt="json"))
    rows = obj["entries"]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    how = draw(st.integers(0, 8))
    if how == 1:
        rows[i][j] = True
    elif how == 2:
        rows[i][j] = [rows[i][j]]
    elif how == 3:
        rows[i] = rows[i][:-1]
    elif how == 4:
        rows[i] = rows[i] + [0]
    elif how == 5:
        rows[i][j] = float(rows[i][j])
    elif how == 6:
        rows[i][j] = str(rows[i][j])
    elif how == 7:
        rows[i] = {"row": rows[i]}
    elif how == 8:
        obj["entries"] = [rows]
    if draw(st.booleans()):
        k = obj["k"]
        obj["k"] = draw(st.sampled_from((True, float(k), str(k), k + 1, [k], None)))
    return json.dumps(obj, indent=draw(st.sampled_from((None, 1, "\t"))))


@settings(max_examples=300)
@given(file_texts)
# A lambda header on each kind: refused on a DCA, checked against
# rows/(n-h) on an HDM.
@example("kind=DCA k=1 n=2 h=0 form=full lambda=1\n0\n0\n0\n")
@example('{"kind": "DCA", "k": 1, "n": 2, "h": 0, "form": "reduced", "lambda": 7, "entries": [[0], [1]]}')
@example("kind=HDM k=2 n=4 h=2 form=full lambda=1\n1 0\n3 0\n")
@example("kind=HDM k=2 n=4 h=2 form=full lambda=2\n1 0\n3 0\n")
def test_read_array_matches_oracle_on_contract_files(text):
    assert_agrees(text)


@settings(max_examples=300)
@given(text_variants())
# A blank line is a row of no entries to a one-pass split, but the line
# reader skips it.
@example("kind=DCA k=0 n=6 h=0 form=full\n\n")
@example("kind=DM k=0 n=1 h=0 form=full\n \n\t\n")
def test_read_array_matches_oracle_on_text_variants(text):
    assert_agrees(text)


@settings(max_examples=300)
@given(json_variants())
def test_read_array_matches_oracle_on_json_variants(text):
    assert_agrees(text)


def test_respelled_files_read_back():
    # Every integer spelling, separator and line ending above is valid on
    # its own: the file reads back as the array written.
    arr = max(VALID_ARRAYS, key=lambda a: a.order)
    header, *rows = write_array(arr).splitlines()
    for spell in SPELLINGS:
        for sep in SEPARATORS:
            for end in ENDINGS:
                body = [sep.join(spell(int(tok)) for tok in row.split()) for row in rows]
                text = end.join([header.replace(" ", sep), *body]) + end
                assert read_array(text) == read_oracle.read_array(text) == arr, (spell, sep, end)


def without_last_row(text: str) -> str:
    """A written file with its last row dropped (an array that short
    cannot be built, so the file is cut instead)."""
    if text.startswith("{"):
        obj = json.loads(text)
        del obj["entries"][-1]
        return json.dumps(obj) + "\n"
    return text[: text.rindex("\n", 0, -1) + 1]


# Each HDM and DM file one row short, in both formats: the row count
# fits neither kind.
SHORT_FILES = [
    without_last_row(write_array(arr, fmt=fmt))
    for arr in VALID_ARRAYS
    if arr.kind is not Kind.DCA
    for fmt in ("text", "json")
]


@pytest.mark.parametrize("text", SHORT_FILES)
def test_read_array_matches_oracle_on_short_files(text):
    with pytest.raises(ParseError, match="rows, got"):
        read_array(text)
    assert_agrees(text)
