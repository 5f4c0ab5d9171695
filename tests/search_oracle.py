"""Exhaustive oracle for the third-column search.

``diffcover.search.search_third_column`` prunes with bitset candidate
masks.  The function here decides the same thing the long way: a third
column is admissible when it is a permutation of the residues whose
difference counts against both fixed columns stay within capacity.
Counts only grow along a permutation, so a prefix that exceeds a
capacity has no admissible completion; the oracle extends prefixes in
ascending order of value and drops exactly those, which keeps order 12
(12! permutations) under a second.  It shares no code with the search,
so the search can be checked against it.
"""

from __future__ import annotations

from collections import Counter

from diffcover.core import DesignError
from diffcover.tables import odd_even_column


class OrderTooLarge(DesignError):
    """Exhaustive enumeration is limited to orders up to 12."""


def enumerate_third_columns(order: int) -> list[tuple[int, ...]]:
    """Every admissible third column against the identity and the
    odd-then-even column, in lexicographic order."""
    if order > 12:
        raise OrderTooLarge(f"exhaustive enumeration capped at order 12, got {order}")
    if order % 2 or order < 2:
        raise ValueError(f"order must be even and positive, got {order}")
    c0 = tuple(range(order))
    c1 = odd_even_column(order)
    # Difference capacities: 0 for the zero residue, 2 for n/2, 1 otherwise.
    caps = [1] * order
    caps[0] = 0
    caps[order // 2] = 2
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def within_caps(col: tuple[int, ...]) -> bool:
        counts = Counter((v - c) % order for v, c in zip(prefix, col))
        return all(k <= caps[d] for d, k in counts.items())

    def extend() -> None:
        if len(prefix) == order:
            out.append(tuple(prefix))
            return
        for v in range(order):
            if v in prefix:
                continue
            prefix.append(v)
            if within_caps(c0) and within_caps(c1):
                extend()
            prefix.pop()

    extend()
    return out
