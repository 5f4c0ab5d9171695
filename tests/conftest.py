"""Shared fixtures: the classical order-6 golden array and helpers."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import pytest
from hypothesis import settings

from diffcover.core import Form, Kind, ResidueArray, read_array

# Property tests replay the same examples on every run: no example
# database, no random seed, and no timing-dependent failures.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# The classical cyclic DCA(4,7;6) in the text file format.
B_TEXT = """\
kind=DCA k=4 n=6 h=0 form=full
0 1 3 0
1 3 0 0
2 5 4 0
3 0 1 0
4 2 5 0
5 4 2 0
0 0 0 0
"""

B_REDUCED_COLUMNS = (
    (0, 1, 2, 3, 4, 5),
    (1, 3, 5, 0, 2, 4),
    (3, 0, 4, 1, 5, 2),
)


@pytest.fixture
def b_full() -> ResidueArray:
    return read_array(B_TEXT)


@pytest.fixture
def b_reduced() -> ResidueArray:
    return ResidueArray(Kind.DCA, 6, 0, Form.REDUCED, B_REDUCED_COLUMNS)


def from_rows(
    kind: Kind, order: int, rows: Iterable[Iterable[int]], hole: int = 0, form: Form = Form.FULL
) -> ResidueArray:
    """An array written row by row, as the paper prints its examples.  No
    rows is one empty column, which the array refuses; rows of different
    lengths raise ValueError from zip."""
    rows = [tuple(row) for row in rows]
    return ResidueArray(kind, order, hole, form, tuple(zip(*rows, strict=True)) if rows else ((),))


def rows_of(arr: ResidueArray) -> tuple[tuple[int, ...], ...]:
    """The rows of an array, built from its columns."""
    return tuple(zip(*arr.cols))


def exit_code(exc: BaseException) -> int:
    """The code ``main`` returns when ``exc`` reaches it."""
    from diffcover.cli import EXIT_CODES

    return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


@contextmanager
def refused(match: str | None = None) -> Iterator[pytest.ExceptionInfo]:
    """Expect a bad argument: a ValueError of exactly that type, so the CLI
    exits 2 on it."""
    with pytest.raises(ValueError, match=match) as info:
        yield info
    assert type(info.value) is ValueError and exit_code(info.value) == 2


def mutate(arr: ResidueArray, i: int, j: int, value: int) -> ResidueArray:
    """The array with entry (i, j) set to ``value``."""
    cols = [list(col) for col in arr.cols]
    cols[j][i] = value
    return arr._replace(cols=tuple(map(tuple, cols)))
