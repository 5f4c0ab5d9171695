"""Shared fixtures: the classical order-6 golden array and helpers."""

from __future__ import annotations

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
    return ResidueArray.from_rows(
        Kind.DCA, 6, zip(*B_REDUCED_COLUMNS), form=Form.REDUCED
    )


def mutate(arr: ResidueArray, i: int, j: int, value: int) -> ResidueArray:
    rows = [list(row) for row in arr.entries]
    rows[i][j] = value
    return ResidueArray.from_rows(arr.kind, arr.order, rows, hole=arr.hole, form=arr.form)
