"""Property tests: the parser is total and the exit-code contract holds.

``read_array`` raises only ParseError on arbitrary text and on JSON
objects built from arbitrary values under the known keys.  ``main(argv)``
returns 0, 1, 2 or 3 and never raises, for argv drawn from a small grammar
of the five subcommands at small orders and budgets, with input files
written from generated text.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcover.cli import main
from diffcover.construct import METHODS, construct_by_method, dm_prime, methods_for_order
from diffcover.core import ParseError, read_array, to_full, write_array
from diffcover.search import search_hdm

from conftest import mutate

MAX_ORDER = 40
KEYS = ("kind", "k", "n", "h", "form", "lambda", "entries")
WORDS = ("DCA", "HDM", "DM", "full", "reduced", "LS", "")

small_ints = st.integers(-2, 12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.integers(),
    st.floats(),
    st.sampled_from(WORDS),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=30,
)
entry_rows = st.lists(st.lists(small_ints, max_size=5), max_size=14)
values = {key: json_values for key in KEYS} | {"entries": json_values | entry_rows}
tokens = st.one_of(small_ints.map(str), st.sampled_from(WORDS), st.text(max_size=4))


def _valid_arrays() -> list:
    arrays = []
    for n in range(6, MAX_ORDER + 1, 2):
        if methods_for_order(n):
            arr = construct_by_method(n)[0]
            arrays += [arr, to_full(arr)]
    return arrays + [search_hdm(10, 2), dm_prime(5, 3), dm_prime(7, 4)]


VALID_ARRAYS = _valid_arrays()
VALID_OBJECTS = [json.loads(write_array(arr, fmt="json")) for arr in VALID_ARRAYS]
# Start from a valid file or from nothing and change at most two fields,
# so that one bad field often meets otherwise valid ones.
bases = st.one_of(st.sampled_from(VALID_OBJECTS), st.just({}))
changes = st.lists(st.tuples(st.sampled_from(KEYS), st.integers(0, 4)), max_size=2)


@st.composite
def json_files(draw) -> str:
    obj = dict(draw(bases))
    for key, how in draw(changes):
        if how:
            obj[key] = draw(values[key])
        else:
            obj.pop(key, None)
    return json.dumps(obj)


@st.composite
def text_files(draw) -> str:
    obj = draw(bases)
    header = {key: str(obj[key]) for key in KEYS[:-1] if key in obj}
    rows = [[str(v) for v in row] for row in obj.get("entries", [])]
    for key, how in draw(changes):
        if key == "entries":
            rows = draw(st.lists(st.lists(tokens, max_size=5), max_size=14))
        elif key == "lambda" and how == 1:
            # A malformed header token rather than a bad value.
            header["x"] = draw(tokens)
        elif how:
            header[key] = draw(tokens)
        else:
            header.pop(key, None)
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(tokens, max_size=5))
    head = " ".join(f"{key}={value}" for key, value in header.items())
    comment = draw(st.sampled_from(("", "  # note", "#")))
    return "\n".join([head + comment] + [" ".join(row) for row in rows])


valid_files = st.tuples(st.sampled_from(VALID_ARRAYS), st.sampled_from(("text", "json"))).map(
    lambda af: write_array(af[0], fmt=af[1])
)
mutated_files = st.builds(
    lambda arr, i, j, v, fmt: write_array(
        mutate(arr, i % arr.rows, j % arr.columns, v % arr.order), fmt=fmt
    ),
    st.sampled_from(VALID_ARRAYS),
    st.integers(0, 100),
    st.integers(0, 10),
    st.integers(0, 100),
    st.sampled_from(("text", "json")),
)
file_texts = st.one_of(
    valid_files, mutated_files, text_files(), json_files(), st.text(max_size=200)
)


def _parse(text: str) -> None:
    try:
        read_array(text)
    except ParseError:
        pass


@settings(max_examples=300)
@given(st.one_of(st.text(), text_files()))
def test_read_array_on_text_raises_only_parse_error(text):
    _parse(text)


@settings(max_examples=300)
@given(json_files())
def test_read_array_on_json_raises_only_parse_error(text):
    _parse(text)


# Mostly valid values, with the edges and bad values mixed in.
even_orders = st.integers(3, MAX_ORDER // 2).map(lambda m: 2 * m)
orders = st.one_of(even_orders, st.integers(-2, MAX_ORDER)).map(str)
formats = st.sampled_from(("text", "json"))


def _opt(flag: str, values) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _flag(flag: str) -> st.SearchStrategy[list[str]]:
    return st.sampled_from(([], [flag]))


def _concat(*parts) -> st.SearchStrategy[list[str]]:
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


FILE = "input"  # stands for the path of the generated file

construct_argv = _concat(
    st.just(["construct", "--order"]),
    orders.map(lambda o: [o]),
    _opt("--method", st.sampled_from(["auto"] + [m.name for m in METHODS])),
    _opt("--format", formats),
    _opt("--out", st.sampled_from(("-", "out.txt", "missing/dir/out.txt"))),
)
verify_argv = _concat(
    st.just(["verify", FILE]), _flag("--strict"), _opt("--format", formats)
)
search_argv = _concat(
    st.just(["search"]),
    st.one_of(
        orders.map(lambda o: ["--order", o]),
        st.tuples(st.integers(-1, MAX_ORDER), st.integers(-1, MAX_ORDER)).map(
            lambda nh: ["--hdm", f"{nh[0]},{nh[1]}"]
        ),
        st.tuples(st.integers(2, 8), st.sampled_from((2, 4))).map(
            lambda mh: ["--hdm", f"{mh[0] * mh[1]},{mh[1]}"]
        ),
        tokens.map(lambda t: ["--hdm", t]),
        st.just([]),
    ),
    st.one_of(st.integers(1, 10**4), st.integers(-1, 0)).map(lambda b: ["--budget", str(b)]),
    _opt("--limit", st.integers(-1, 3)),
    _opt("--status-interval", st.integers(1, 5000)),
    _opt("--format", formats),
)
latin_argv = _concat(
    st.just(["latin", FILE]),
    _opt("--square", st.sampled_from(("all", "0", "1", "2", "3", "-1", "x", ""))),
    _flag("--williams"),
    _flag("--classify"),
    _opt("--format", formats),
)
spectrum_argv = st.tuples(
    st.one_of(st.integers(3, 200).map(lambda m: 2 * m), st.integers(-4, 400)),
    st.one_of(st.integers(0, 39).map(lambda m: 2 * m), st.integers(-2, 78)),
    st.sampled_from(("json", "csv")),
).map(lambda t: ["spectrum", "--min", str(t[0]), "--max", str(t[0] + t[1]), "--format", t[2]])
argvs = st.one_of(
    construct_argv, verify_argv, search_argv, latin_argv, spectrum_argv,
    st.lists(st.sampled_from(("construct", "verify", "latin", "--order", "6", "--help", "x")), max_size=4),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=300)
@given(argv=argvs, text=file_texts)
def test_main_returns_a_contract_code(workdir, argv, text):
    path = workdir / "input.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if tok == FILE else tok for tok in argv]
    argv = [str(workdir / tok) if tok.endswith("out.txt") else tok for tok in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
