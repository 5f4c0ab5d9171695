"""The fixed column pair of the small DCAs, its stored third columns and
the builder of such a DCA: what the searches and the table method load."""

from __future__ import annotations

from .core import Form, Kind, ResidueArray


def odd_even_column(n: int) -> tuple[int, ...]:
    """The fixed second column [1, 3, ..., n-1, 0, 2, ..., n-2]."""
    return tuple(range(1, n, 2)) + tuple(range(0, n, 2))


def dca_from_third_column(col2: tuple[int, ...]) -> ResidueArray:
    """Reduced array whose first two columns are the fixed pair (the
    identity and the odd-then-even column) and whose third column is
    ``col2``."""
    n = len(col2)
    return ResidueArray(Kind.DCA, n, 0, Form.REDUCED, (tuple(range(n)), odd_even_column(n), tuple(col2)))


# Third columns pairing with the identity first column and
# odd_even_column(n) second column: order 6 is the classical DCA(4,7;6),
# the search's only solution there; 24..54 were computer-searched.
SEARCHED_THIRD_COLUMNS: dict[int, tuple[int, ...]] = {
    6: (3, 0, 4, 1, 5, 2),
    24: (2, 0, 3, 1, 14, 21, 20, 19, 23, 15, 6, 18, 16, 10, 17, 8, 11,
         22, 5, 13, 4, 9, 7, 12),
    28: (2, 0, 3, 1, 11, 16, 22, 25, 20, 23, 4, 8, 21, 5, 18, 10, 19,
         13, 24, 27, 7, 26, 15, 9, 6, 14, 17, 12),
    32: (2, 0, 3, 6, 1, 13, 22, 30, 21, 25, 28, 26, 7, 5, 23, 20, 12,
         10, 24, 17, 31, 15, 29, 27, 11, 14, 4, 9, 8, 19, 18, 16),
    36: (5, 35, 13, 20, 11, 9, 1, 31, 10, 2, 30, 33, 4, 34, 32, 25, 28, 16,
         27, 22, 3, 29, 19, 24, 18, 15, 6, 23, 17, 7, 0, 8, 14, 12, 21, 26),
    44: (39, 13, 26, 21, 35, 3, 17, 16, 40, 28, 38, 25, 6, 10, 34, 5, 18, 30,
         43, 15, 19, 36, 7, 24, 32, 14, 4, 0, 31, 12, 2, 9, 23, 37, 11, 42,
         41, 29, 20, 1, 33, 27, 8, 22),
    48: (5, 41, 23, 40, 1, 39, 34, 25, 28, 8, 4, 9, 21, 30, 43, 18, 12, 2, 42, 45,
         32, 37, 33, 0, 26, 15, 13, 22, 10, 35, 44, 7, 36, 16, 27, 19, 46, 38,
         3, 47, 31, 29, 17, 14, 11, 24, 20, 6),
    52: (18, 12, 50, 37, 16, 6, 45, 4, 31, 34, 47, 21, 29, 2, 5, 22, 38, 3, 39,
         27, 0, 15, 51, 7, 28, 24, 42, 40, 48, 32, 9, 26, 20, 11, 1, 41, 19,
         35, 43, 13, 49, 33, 14, 17, 46, 8, 36, 23, 10, 30, 25, 44),
    54: (6, 5, 31, 27, 20, 38, 19, 4, 30, 51, 3, 52, 49, 14, 48, 23, 41, 12, 25,
         0, 32, 40, 21, 50, 9, 45, 16, 1, 46, 11, 28, 42, 47, 35, 39, 2, 22, 13,
         34, 33, 24, 44, 15, 53, 7, 17, 37, 36, 26, 18, 10, 43, 29, 8),
}
