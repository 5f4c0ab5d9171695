"""Property tests: the offset-column Latin layer against the grid oracle.

Squares are random offset permutations for n in 1..40, plus planted
pairs whose label is known: orthogonal (offsets sigma and 2*sigma at odd
n), nearly orthogonal (two columns of a constructed DCA, rows shuffled)
and pseudo-orthogonal (the same with the second column shifted by n/2).
"""

from __future__ import annotations

from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from diffcover.construct import construct_by_method, methods_for_order
from diffcover.latin import (
    Classification,
    LatinSquare,
    check_row_complete,
    classify_pair,
    williams_order,
    write_latin,
)

import latin_oracle as oracle

MAX_ORDER = 40


def grid(square: LatinSquare) -> oracle.GridSquare:
    return oracle.cyclic_grid(square.order, square.offsets)


# Columns of the reduced DCA that construction gives at each order it covers.
DCA_COLUMNS = {
    n: construct_by_method(n)[0].cols
    for n in range(6, MAX_ORDER + 1, 2)
    if methods_for_order(n)
}

orders = st.integers(1, MAX_ORDER)


def permutation_of(n: int):
    return st.permutations(range(n)).map(tuple)


random_pairs = orders.flatmap(
    lambda n: st.tuples(permutation_of(n), permutation_of(n)).map(
        lambda p: (LatinSquare(n, p[0]), LatinSquare(n, p[1]))
    )
)


@st.composite
def planted_pairs(draw):
    kind = draw(st.sampled_from(["orthogonal", "nearly", "pseudo"]))
    if kind == "orthogonal":
        n = draw(st.integers(0, (MAX_ORDER - 1) // 2)) * 2 + 1
        sigma = draw(permutation_of(n))
        doubled = tuple(2 * c % n for c in sigma)
        return LatinSquare(n, sigma), LatinSquare(n, doubled), Classification.ORTHOGONAL
    n = draw(st.sampled_from(sorted(DCA_COLUMNS)))
    columns = DCA_COLUMNS[n]
    s, t = draw(st.permutations(range(len(columns))))[:2]
    rows = draw(permutation_of(n))
    a = tuple(columns[s][i] for i in rows)
    b = tuple(columns[t][i] for i in rows)
    if kind == "pseudo":
        b = tuple((c + n // 2) % n for c in b)
        label = Classification.PSEUDO_ORTHOGONAL
    else:
        label = Classification.NEARLY_ORTHOGONAL
    return LatinSquare(n, a), LatinSquare(n, b), label


@given(orders.flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), min_size=n, max_size=n))))
def test_validation_matches_latin_grid(case):
    n, offsets = case
    latin = all(0 <= c < n for c in offsets) and oracle.is_latin(oracle.cyclic_grid(n, offsets))
    try:
        LatinSquare(n, tuple(offsets))
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == latin


@given(orders.flatmap(permutation_of))
def test_grid_matches_naive_grid(offsets):
    square = LatinSquare(len(offsets), offsets)
    assert square.grid == grid(square).grid


@given(random_pairs)
def test_classify_matches_oracle_on_random_pairs(pair):
    a, b = pair
    assert classify_pair(a, b) is oracle.classify(grid(a), grid(b))


@given(planted_pairs())
def test_classify_matches_oracle_on_planted_pairs(case):
    a, b, label = case
    assert oracle.classify(grid(a), grid(b)) is label
    assert classify_pair(a, b) is label


@st.composite
def square_and_ordering(draw):
    n = draw(orders)
    square = LatinSquare(n, draw(permutation_of(n)))
    if n % 2 == 0 and draw(st.booleans()):
        # A Williams ordering times a unit, rotated: still row complete.
        unit = draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]))
        shift = draw(st.integers(0, n - 1))
        ordering = [(unit * p + shift) % n for p in williams_order(n)]
    else:
        ordering = list(draw(permutation_of(n)))
    return square, ordering


@given(square_and_ordering())
def test_row_complete_matches_oracle(case):
    square, ordering = case
    report = check_row_complete(square, ordering)
    assert report.passed == oracle.check_row_complete(grid(square), ordering).passed
    if not report.passed:
        assert oracle.adjacent_pairs(grid(square), ordering)[tuple(report.checks[0].witness["pair"])] >= 2


@given(st.integers(0, 120).flatmap(permutation_of))
def test_write_latin_matches_naive_rendering(offsets):
    square = LatinSquare(len(offsets), offsets)
    rows = grid(square).grid
    want = f"kind=LS n={square.order}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    assert write_latin(square) == want
