"""Latin squares derived from reduced DCAs, orthogonality classification,
and row-complete column orderings.

Every square here is cyclic, L[i][j] = c_i + j mod n, and is stored as its
offset column c (one column of a reduced DCA).  Superimposing the squares
of columns a and b pairs x with y exactly #{i : b_i - a_i = y - x} times,
and row completeness under a column ordering holds iff the ordering's
successive differences are distinct, so both are decided in O(n).
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from typing import NamedTuple

from .core import DesignError, Form, Kind, Record, ResidueArray, diff_counts
from .verify import Check, VerificationReport, Witness


class OrderMismatch(DesignError):
    """Operation requires Latin squares of equal order."""


class BadOrdering(DesignError):
    """Column ordering is not a permutation of the column indices."""


class OddOrder(DesignError):
    """No zig-zag ordering with all-distinct differences exists."""


def _is_permutation(seq, n: int) -> bool:
    return len(seq) == n and set(seq) == set(range(n))


class _LatinSquare(NamedTuple):
    order: int
    offsets: tuple[int, ...]


class LatinSquare(Record, _LatinSquare):
    """The cyclic Latin square L[i][j] = offsets[i] + j mod n.  It is Latin
    iff the offsets are a permutation of the residues 0..n-1 (validated on
    construction)."""

    __slots__ = ()

    def _check(self) -> None:
        if not _is_permutation(self.offsets, self.order):
            raise ValueError(f"offsets are not a permutation of 0..{self.order - 1}")

    @property
    def grid(self) -> tuple[tuple[int, ...], ...]:
        base = tuple(range(self.order))
        return tuple(base[c:] + base[:c] for c in self.offsets)


class Classification(str, Enum):
    ORTHOGONAL = "Orthogonal"
    NEARLY_ORTHOGONAL = "NearlyOrthogonal"
    PSEUDO_ORTHOGONAL = "PseudoOrthogonal"
    NONE = "None"


def latin_from_dca(dca: ResidueArray, s: int) -> LatinSquare:
    """The Latin square L[i][j] = q(i, s) + j mod n read off column s of a
    reduced DCA.  Each column of the reduced array is a permutation, so
    the result is always Latin."""
    if dca.kind is not Kind.DCA or dca.form is not Form.REDUCED:
        raise ValueError("latin_from_dca expects a reduced DCA")
    if not 0 <= s < dca.columns:
        raise IndexError(f"column {s} outside [0, {dca.columns})")
    return LatinSquare(dca.order, tuple(row[s] for row in dca.entries))


def classify_pair(a: LatinSquare, b: LatinSquare) -> Classification:
    """Strongest applicable orthogonality label for a pair of squares.

    Orthogonal: every pair exactly once.  PseudoOrthogonal: each symbol
    of the first square meets one partner twice, misses one, and meets
    the rest once.  NearlyOrthogonal: pseudo-orthogonal with no symbol
    ever meeting itself.  Symbol x meets x + d as often as d occurs among
    the offset differences b_i - a_i, the same counts for every x.
    """
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    n = a.order
    counts = diff_counts(b.offsets, a.offsets, n)
    ones = counts.count(1)
    if ones == n:
        return Classification.ORTHOGONAL
    # The other two counts are not 1 and sum to 2: one 2 and one 0.
    if ones != n - 2:
        return Classification.NONE
    if counts[0] == 0:
        return Classification.NEARLY_ORTHOGONAL
    return Classification.PSEUDO_ORTHOGONAL


def mnols_set_check(squares: list[LatinSquare]) -> VerificationReport:
    """Pass iff every unordered pair of squares classifies as
    NearlyOrthogonal (a set of mutually nearly orthogonal squares)."""
    if len(squares) < 2:
        raise ValueError(f"need at least two squares, got {len(squares)}")
    orders = {sq.order for sq in squares}
    if len(orders) > 1:
        raise OrderMismatch(f"orders differ: {sorted(orders)}")
    checks = []
    for s in range(1, len(squares)):
        for t in range(s):
            label = classify_pair(squares[s], squares[t])
            ok = label is Classification.NEARLY_ORTHOGONAL
            witness = None
            if not ok:
                witness = Witness(
                    pair=(s, t),
                    expected=Classification.NEARLY_ORTHOGONAL.value,
                    actual=label.value,
                )
            checks.append(Check(f"pair({s},{t})", ok, witness))
    return VerificationReport(tuple(checks))


def williams_order(n: int) -> list[int]:
    """The zig-zag column ordering 0, 1, n-1, 2, n-2, ..., n/2 whose
    successive differences exhaust the nonzero residues; defined for even
    n only."""
    if n % 2:
        raise OddOrder(f"order must be even, got {n}")
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    out = [0]
    for t in range(1, n // 2 + 1):
        out.append(t)
        if n - t != t:
            out.append(n - t)
    return out


def check_row_complete(
    square: LatinSquare, ordering: list[int] | None = None
) -> VerificationReport:
    """Pass iff, after permuting columns by ``ordering`` (identity when
    omitted), horizontally adjacent cells over all rows cover every
    ordered pair of distinct symbols exactly once.

    Adjacent columns p, q of the cyclic square cover the n pairs
    (x, x + q - p), one per row, so this holds iff the successive
    differences of the ordering are distinct.
    """
    n = square.order
    if ordering is None:
        ordering = list(range(n))
    elif not _is_permutation(ordering, n):
        raise BadOrdering("ordering must be a permutation of the column indices")
    seen = bytearray(n)
    for j in range(1, n):
        d = (ordering[j] - ordering[j - 1]) % n
        if seen[d]:
            # Row 0 covers this pair here, and the earlier column pair
            # with difference d covers it in another row.
            c = square.offsets[0]
            pair = ((c + ordering[j - 1]) % n, (c + ordering[j]) % n)
            witness = Witness(pair=pair, expected=1, actual=2)
            return VerificationReport((Check("row-complete", False, witness),))
        seen[d] = 1
    return VerificationReport((Check("row-complete", True),))


def write_latin(square: LatinSquare) -> str:
    """Serialize a Latin square in the grid format with an LS header."""
    n = square.order
    line = " ".join(map(str, range(n)))
    # Row c is the line rotated to start at symbol c: one slice of it doubled.
    starts = list(accumulate((len(str(v)) + 1 for v in range(n - 1)), initial=0))
    doubled = line + " " + line
    rows = (doubled[starts[c] : starts[c] + len(line)] for c in square.offsets)
    return "\n".join([f"kind=LS n={n}", *rows]) + "\n"
