"""Grid-based oracle for the Latin layer.

``diffcover.latin`` decides orthogonality and row completeness from the
offset columns of cyclic squares.  The functions here decide the same
things the long way, by scanning full n x n grids, so the fast path can
be checked against them.  They accept any object with ``order`` and
``grid`` attributes: a ``GridSquare`` built naively from offsets, or a
``LatinSquare`` through its derived ``grid``.  ``mnols_set_check`` is the
set-level check the tests apply to the squares of a DCA.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from diffcover.latin import Classification, classify_pair
from diffcover.verify import Check, VerificationReport


@dataclass(frozen=True)
class GridSquare:
    order: int
    grid: tuple[tuple[int, ...], ...]


def cyclic_grid(n: int, offsets) -> GridSquare:
    """The square L[i][j] = offsets[i] + j mod n, cell by cell."""
    return GridSquare(n, tuple(tuple((c + j) % n for j in range(n)) for c in offsets))


def is_latin(square) -> bool:
    symbols = set(range(square.order))
    rows = square.grid
    return (
        len(rows) == square.order
        and all(len(row) == square.order and set(row) == symbols for row in rows)
        and all(set(col) == symbols for col in zip(*rows))
    )


@dataclass(frozen=True)
class PairProfile:
    """Counts of superimposed cell pairs, stored flat at index a*n + b."""

    order: int
    flat: tuple[int, ...]

    def count(self, a: int, b: int) -> int:
        return self.flat[a * self.order + b]


def superimpose(a, b) -> PairProfile:
    """Count, for every ordered symbol pair (x, y), the cells where the
    first square shows x and the second shows y."""
    if a.order != b.order:
        raise ValueError(f"orders differ: {a.order} vs {b.order}")
    n = a.order
    flat = [0] * (n * n)
    for ra, rb in zip(a.grid, b.grid):
        for x, y in zip(ra, rb):
            flat[x * n + y] += 1
    return PairProfile(n, tuple(flat))


def classify(a, b) -> Classification:
    """The orthogonality label read symbol by symbol off the full profile."""
    n = a.order
    flat = superimpose(a, b).flat
    if all(c == 1 for c in flat):
        return Classification.ORTHOGONAL
    diagonal_free = True
    for x in range(n):
        row = flat[x * n : (x + 1) * n]
        if row.count(2) != 1 or row.count(0) != 1 or row.count(1) != n - 2:
            return Classification.NONE
        if row[x] != 0:
            diagonal_free = False
    if diagonal_free:
        return Classification.NEARLY_ORTHOGONAL
    return Classification.PSEUDO_ORTHOGONAL


def adjacent_pairs(square, ordering) -> Counter:
    """How often each ordered symbol pair sits side by side in a row once
    the columns are permuted by ``ordering``."""
    pairs: Counter = Counter()
    for row in square.grid:
        permuted = [row[p] for p in ordering]
        pairs.update(zip(permuted, permuted[1:]))
    return pairs


def check_row_complete(square, ordering) -> VerificationReport:
    """Pass iff the rows, columns permuted by ``ordering``, cover every
    ordered pair of distinct symbols exactly once; on failure the witness
    is the first pair met twice, scanning rows top to bottom."""
    n = square.order
    seen = bytearray(n * n)
    for row in square.grid:
        prev = row[ordering[0]]
        for j in range(1, n):
            cur = row[ordering[j]]
            idx = prev * n + cur
            if seen[idx]:
                witness = {"pair": [prev, cur], "expected": 1, "actual": 2}
                return VerificationReport((Check("row-complete", witness),), {})
            seen[idx] = 1
            prev = cur
    return VerificationReport((Check("row-complete"),), {})


def mnols_set_check(squares) -> VerificationReport:
    """Pass iff every unordered pair of squares classifies as
    NearlyOrthogonal (a set of mutually nearly orthogonal squares)."""
    if len(squares) < 2:
        raise ValueError(f"need at least two squares, got {len(squares)}")
    orders = {sq.order for sq in squares}
    if len(orders) > 1:
        raise ValueError(f"orders differ: {sorted(orders)}")
    checks = []
    for s in range(1, len(squares)):
        for t in range(s):
            label = classify_pair(squares[s], squares[t])
            want = Classification.NEARLY_ORTHOGONAL
            witness = None if label is want else {"pair": [s, t], "expected": want.value, "actual": label.value}
            checks.append(Check(f"pair({s},{t})", witness))
    return VerificationReport(tuple(checks), {})
