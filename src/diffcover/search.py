"""Deterministic backtracking searches over bitset candidate masks.

Both searches hold each set of differences that still has capacity as a
doubled mask: bits d and d + n are both set for a difference d.  The
values v with v - s in such a set D are then the low n bits of
``D >> (n - s)``, with no rotation and no ``% n``.  Candidates are taken
lowest bit first, so values are tried in ascending order.

Third-column search: depth-first over rows in fixed order, against the
fixed first two columns, the identity and the odd-then-even column.  The
candidates for row i are the unused values that keep both constrained
column pairs within their difference capacities: 0 for the zero residue,
2 for n/2, 1 otherwise.  The solution list is in lexicographic order.

HDM search: columns 1 and 2 are assigned jointly row by row; the next row
is the pending one with the fewest remaining (value, value) options, with
ties and candidates resolved in ascending order.  Row choice affects only
speed, never the set of solutions, and is deterministic.

Both searches take their settings as keyword arguments: ``node_budget``
(nodes before BudgetExhausted), ``status_interval`` and ``status`` (a
callback given a counter dict every ``status_interval`` nodes when the
interval is positive, and once more at the end unless the budget runs
out with nothing found), and for the third-column search
``result_limit`` (stop after this many solutions).

Searches never self-certify; callers verify outputs independently.
"""

from __future__ import annotations

import sys
from typing import Callable

from .core import BudgetExhausted, Kind, NoSolution, ResidueArray
from .tables import odd_even_column

StatusFn = Callable[[dict[str, int]], None]


# Frames left below the recursion limit for the search's callers and its
# status callback.
_CALLER_FRAMES = 100


def _check_settings(node_budget: int, status_interval: int, result_limit: int | None = None) -> None:
    if node_budget < 1:
        raise ValueError(f"node budget must be positive, got {node_budget}")
    if result_limit is not None and result_limit < 1:
        raise ValueError(f"result limit must be positive, got {result_limit}")
    if status_interval < 0:
        raise ValueError(f"status interval must be non-negative, got {status_interval}")


def _check_depth(depth: int) -> None:
    """Refuse a search that needs ``depth`` nested calls when they do not
    fit under the recursion limit beside the caller's frames."""
    room = sys.getrecursionlimit() - _CALLER_FRAMES
    if depth > room:
        raise ValueError(f"search needs {depth} nested calls, more than the {room} the recursion limit leaves")


class _Budget(Exception):
    pass


def _doubled_bits(n: int) -> list[int]:
    """Entry d is bits d and d + n.  Indexed by a difference in (-n, n),
    Python's negative indexing reduces it mod n."""
    return [1 << d | 1 << d + n for d in range(n)]


def search_third_column(
    order: int,
    *,
    node_budget: int = 10**9,
    result_limit: int | None = None,
    status_interval: int = 0,
    status: StatusFn | None = None,
) -> list[tuple[int, ...]]:
    """All third columns completing the identity and the odd-then-even
    column to a strict reduced DCA(4, n+1; n), in lexicographic order, up
    to ``result_limit``.

    Raises BudgetExhausted only when the budget runs out with nothing
    found; a partial list is returned otherwise.
    """
    _check_settings(node_budget, status_interval, result_limit)
    n = order
    if n % 2 or n < 6:
        raise ValueError(f"order must be even and at least 6, got {n}")
    # One call per row, and one more for the complete column.
    _check_depth(n + 1)
    col1 = odd_even_column(n)

    full = (1 << n) - 1
    dbl = _doubled_bits(n)
    # n/2 has capacity 2.  Its entry in dbl is 0, which sends it to the
    # spare bit 2n: its first use clears the spare, its second its bits.
    half = dbl[n // 2]
    spare = 1 << 2 * n
    dbl[n // 2] = 0
    column = [0] * n
    solutions: list[tuple[int, ...]] = []
    nodes = 0
    every = status_interval if status is not None else 0

    def dfs(i: int, free: int, a0: int, a1: int) -> bool:
        nonlocal nodes
        if i == n:
            solutions.append(tuple(column))
            return len(solutions) == result_limit
        c1 = col1[i]
        cand = free & a0 >> n - i & a1 >> n - c1
        while cand:
            b = cand & -cand
            cand ^= b
            nodes += 1
            if nodes > node_budget:
                raise _Budget
            if every and not nodes % every:
                status({"nodes": nodes, "depth": i, "solutions": len(solutions)})
            v = b.bit_length() - 1
            column[i] = v
            u0 = dbl[v - i] or (spare if a0 & spare else half)
            u1 = dbl[v - c1] or (spare if a1 & spare else half)
            if dfs(i + 1, free ^ b, a0 ^ u0, a1 ^ u1):
                return True
        return False

    # Every difference but 0 has capacity, and n/2 has its spare.
    avail = (full | full << n) ^ dbl[0] | spare
    try:
        dfs(0, full, avail, avail)
    except _Budget:
        if not solutions:
            raise BudgetExhausted(f"no solution within {node_budget} nodes") from None
    if status is not None:
        status({"nodes": nodes, "depth": n, "solutions": len(solutions)})
    return solutions


def search_hdm(
    n: int,
    h: int,
    *,
    node_budget: int = 10**9,
    status_interval: int = 0,
    status: StatusFn | None = None,
) -> ResidueArray:
    """First cyclic HDM(4, n; h) found, with the last column all zero and
    the first column the non-hole residues ascending (both lossless row
    and column normalizations).

    Raises NoSolution when the space is exhausted, BudgetExhausted when
    the node budget runs out first.
    """
    _check_settings(node_budget, status_interval)
    if h < 1 or h >= n or n % h:
        raise ValueError(f"hole {h} must divide order {n} with 1 <= h < n")
    # One call per non-hole row, and one more once every row is filled.
    _check_depth(n - h + 1)
    every = status_interval if status is not None else 0
    u = n // h
    hole = {j * u for j in range(h)}
    nonhole = [v for v in range(n) if v not in hole]
    nonhole_mask = 0
    for v in nonhole:
        nonhole_mask |= 1 << v
    dbl = _doubled_bits(n)
    col1 = [0] * n
    col2 = [0] * n
    nodes = 0

    def dfs(pending: list[int], free1: int, free2: int, d10: int, d20: int, d21: int) -> bool:
        nonlocal nodes
        if not pending:
            return True
        # Most-constrained row first: fewest (b, c) candidate combinations.
        best = -1
        best_score = -1
        best_mb = best_mc = 0
        for a in pending:
            mb = d10 >> n - a & free1
            if not mb:
                return False
            mc = d20 >> n - a & free2
            if not mc:
                return False
            score = mb.bit_count() * mc.bit_count()
            if best_score < 0 or score < best_score:
                best, best_score, best_mb, best_mc = a, score, mb, mc
        a = best
        rest = [x for x in pending if x != a]
        depth = len(nonhole) - len(pending)
        mb = best_mb
        while mb:
            b = mb & -mb
            mb ^= b
            bv = b.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                raise _Budget
            if every and not nodes % every:
                status({"nodes": nodes, "depth": depth, "solutions": 0})
            mc = best_mc & d21 >> n - bv
            while mc:
                c = mc & -mc
                mc ^= c
                cv = c.bit_length() - 1
                nodes += 1
                if nodes > node_budget:
                    raise _Budget
                if every and not nodes % every:
                    status({"nodes": nodes, "depth": depth, "solutions": 0})
                col1[a] = bv
                col2[a] = cv
                if dfs(rest, free1 ^ b, free2 ^ c,
                       d10 ^ dbl[bv - a], d20 ^ dbl[cv - a], d21 ^ dbl[cv - bv]):
                    return True
        return False

    # The allowed differences are the non-hole residues, doubled.
    avail = nonhole_mask | nonhole_mask << n
    try:
        found = dfs(nonhole, nonhole_mask, nonhole_mask, avail, avail, avail)
    except _Budget:
        raise BudgetExhausted(f"no HDM(4,{n};{h}) within {node_budget} nodes") from None
    if status is not None:
        status({"nodes": nodes, "depth": n - h, "solutions": int(found)})
    if not found:
        raise NoSolution(f"no cyclic HDM(4,{n};{h}) with the fixed normalizations")
    rows = [(a, col1[a], col2[a], 0) for a in nonhole]
    return ResidueArray.from_rows(Kind.HDM, n, rows, hole=h)
