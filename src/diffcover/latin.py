"""Latin squares derived from reduced DCAs, orthogonality classification,
and row-complete column orderings."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import DesignError, Form, Kind, ResidueArray
from .verify import Check, VerificationReport, Witness


class OrderMismatch(DesignError):
    """Operation requires Latin squares of equal order."""


class BadOrdering(DesignError):
    """Column ordering is not a permutation of the column indices."""


class OddOrder(DesignError):
    """No zig-zag ordering with all-distinct differences exists."""


@dataclass(frozen=True)
class LatinSquare:
    """An order-n array in which every row and column is a permutation of
    the residues 0..n-1 (validated on construction)."""

    order: int
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.order
        symbols = frozenset(range(n))
        if len(self.grid) != n:
            raise ValueError(f"grid has {len(self.grid)} rows, expected {n}")
        for row in self.grid:
            if len(row) != n or set(row) != symbols:
                raise ValueError("row is not a permutation of the symbols")
        for col in zip(*self.grid):
            if set(col) != symbols:
                raise ValueError("column is not a permutation of the symbols")


@dataclass(frozen=True)
class PairProfile:
    """Counts of superimposed cell pairs, stored flat at index a*n + b."""

    order: int
    flat: tuple[int, ...]

    def count(self, a: int, b: int) -> int:
        return self.flat[a * self.order + b]


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
    n = dca.order
    grid = tuple(
        tuple((row[s] + j) % n for j in range(n)) for row in dca.entries
    )
    return LatinSquare(n, grid)


def superimpose(a: LatinSquare, b: LatinSquare) -> PairProfile:
    """Count, for every ordered symbol pair (x, y), the cells where the
    first square shows x and the second shows y."""
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    n = a.order
    flat = [0] * (n * n)
    for ra, rb in zip(a.grid, b.grid):
        for x, y in zip(ra, rb):
            flat[x * n + y] += 1
    return PairProfile(n, tuple(flat))


def classify_pair(a: LatinSquare, b: LatinSquare) -> Classification:
    """Strongest applicable orthogonality label for a pair of squares.

    Orthogonal: every pair exactly once.  PseudoOrthogonal: each symbol
    of the first square meets one partner twice, misses one, and meets
    the rest once.  NearlyOrthogonal: pseudo-orthogonal with no symbol
    ever meeting itself.
    """
    profile = superimpose(a, b)
    n = a.order
    flat = profile.flat
    if all(c == 1 for c in flat):
        return Classification.ORTHOGONAL
    diagonal_free = True
    for x in range(n):
        row = flat[x * n : (x + 1) * n]
        twos = zeros = 0
        for c in row:
            if c == 2:
                twos += 1
            elif c == 0:
                zeros += 1
            elif c != 1:
                return Classification.NONE
        if twos != 1 or zeros != 1:
            return Classification.NONE
        if row[x] != 0:
            diagonal_free = False
    if diagonal_free:
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
    ordered pair of distinct symbols exactly once."""
    n = square.order
    if ordering is None:
        ordering = list(range(n))
    elif sorted(ordering) != list(range(n)):
        raise BadOrdering("ordering must be a permutation of the column indices")
    seen = bytearray(n * n)
    for row in square.grid:
        prev = row[ordering[0]]
        for j in range(1, n):
            cur = row[ordering[j]]
            idx = prev * n + cur
            if seen[idx]:
                witness = Witness(pair=(prev, cur), expected=1, actual=2)
                return VerificationReport((Check("row-complete", False, witness),))
            seen[idx] = 1
            prev = cur
    # n(n-1) distinct pairs out of n(n-1) adjacencies: all pairs covered.
    return VerificationReport((Check("row-complete", True),))


def write_latin(square: LatinSquare) -> str:
    """Serialize a Latin square in the grid format with an LS header."""
    lines = [f"kind=LS n={square.order}"]
    lines.extend(" ".join(str(v) for v in row) for row in square.grid)
    return "\n".join(lines) + "\n"
