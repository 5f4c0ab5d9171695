"""Latin squares from DCAs: derivation, orthogonality, row completeness."""

from __future__ import annotations

import pytest

from diffcover.construct import construct_6mu, construct_odd
from diffcover.latin import (
    Classification,
    LatinSquare,
    check_row_complete,
    classify_pair,
    latin_from_dca,
    williams_order,
    write_latin,
)

from latin_oracle import adjacent_pairs, mnols_set_check, superimpose


def cyclic_square(n: int, multiplier: int) -> LatinSquare:
    return LatinSquare(n, tuple(multiplier * i % n for i in range(n)))


def test_latin_square_validation():
    # Offsets (0, 0): both rows read 0 1, so column 0 repeats symbol 0.
    with pytest.raises(ValueError):
        LatinSquare(2, (0, 0))
    with pytest.raises(ValueError):
        LatinSquare(2, (0, 2))
    with pytest.raises(ValueError):
        LatinSquare(3, (0, 1))
    with pytest.raises(ValueError):
        LatinSquare(2, (0, 1, 1))


def test_latin_from_dca_identity_column(b_reduced):
    sq = latin_from_dca(b_reduced, 0)
    assert all(sq.grid[i][j] == (i + j) % 6 for i in range(6) for j in range(6))
    assert sq.grid[2][3] == 5


def test_latin_from_dca_third_column(b_reduced):
    sq = latin_from_dca(b_reduced, 2)
    assert sq.offsets == (3, 0, 4, 1, 5, 2)
    assert sq.grid[0] == (3, 4, 5, 0, 1, 2)


def test_latin_from_dca_preconditions(b_full, b_reduced):
    with pytest.raises(ValueError):
        latin_from_dca(b_full, 0)
    with pytest.raises(IndexError):
        latin_from_dca(b_reduced, 3)


def test_superimpose_self(b_reduced):
    sq = latin_from_dca(b_reduced, 0)
    profile = superimpose(sq, sq)
    for x in range(6):
        for y in range(6):
            assert profile.count(x, y) == (6 if x == y else 0)
    assert sum(profile.flat) == 36


def test_superimpose_golden_pair(b_reduced):
    a = latin_from_dca(b_reduced, 0)
    b = latin_from_dca(b_reduced, 1)
    profile = superimpose(a, b)
    for x in range(6):
        for y in range(6):
            want = 0 if x == y else 2 if y == (x + 3) % 6 else 1
            assert profile.count(x, y) == want


def test_superimpose_order_mismatch(b_reduced):
    with pytest.raises(ValueError, match="orders differ: 6 vs 8"):
        superimpose(latin_from_dca(b_reduced, 0), cyclic_square(8, 1))


def test_classify_pairs(b_reduced):
    a = latin_from_dca(b_reduced, 0)
    b = latin_from_dca(b_reduced, 1)
    assert classify_pair(a, b) is Classification.NEARLY_ORTHOGONAL
    assert classify_pair(a, a) is Classification.NONE
    # Cyclic squares i+j and 2i+j over Z_5 are fully orthogonal.
    assert classify_pair(cyclic_square(5, 1), cyclic_square(5, 2)) is Classification.ORTHOGONAL
    with pytest.raises(ValueError, match="orders differ: 6 vs 8"):
        classify_pair(a, cyclic_square(8, 1))


def test_classify_pseudo_but_not_nearly(b_reduced):
    # Shifting the partner square's symbols by 3 moves the doubled pairs
    # onto the diagonal: still pseudo-orthogonal, no longer nearly.
    a = latin_from_dca(b_reduced, 0)
    b = latin_from_dca(b_reduced, 1)
    shifted = LatinSquare(6, tuple((c + 3) % 6 for c in b.offsets))
    assert classify_pair(a, shifted) is Classification.PSEUDO_ORTHOGONAL


def test_mnols_set_check(b_reduced):
    squares = [latin_from_dca(b_reduced, s) for s in range(3)]
    assert mnols_set_check(squares).passed
    report = mnols_set_check([squares[0], squares[0]])
    assert not report.passed
    assert report.checks[0].witness == {"pair": [1, 0], "expected": "NearlyOrthogonal", "actual": "None"}
    with pytest.raises(ValueError, match="need at least two squares"):
        mnols_set_check(squares[:1])
    with pytest.raises(ValueError, match=r"orders differ: \[6, 8\]"):
        mnols_set_check([squares[0], cyclic_square(8, 1)])


def test_mnols_from_worked_example():
    arr = construct_odd(13, 16)
    squares = [latin_from_dca(arr, s) for s in range(3)]
    assert mnols_set_check(squares).passed


def test_williams_order():
    assert williams_order(6) == [0, 1, 5, 2, 4, 3]
    assert williams_order(2) == [0, 1]
    seq = williams_order(6)
    diffs = {(seq[j + 1] - seq[j]) % 6 for j in range(5)}
    assert diffs == {1, 2, 3, 4, 5}
    with pytest.raises(ValueError, match="order must be even, got 5"):
        williams_order(5)
    with pytest.raises(ValueError, match="order must be at least 2, got 0"):
        williams_order(0)


def test_williams_differences_cover_small_orders():
    for n in range(2, 101, 2):
        seq = williams_order(n)
        diffs = [(seq[j + 1] - seq[j]) % n for j in range(n - 1)]
        assert sorted(diffs) == list(range(1, n))


def test_check_row_complete(b_reduced):
    sq = latin_from_dca(b_reduced, 0)
    assert check_row_complete(sq, williams_order(6)).passed
    report = check_row_complete(sq, list(range(6)))  # all adjacents differ by 1
    assert not report.passed
    assert report.checks[0].witness == {"pair": [1, 2], "expected": 1, "actual": 2}
    assert adjacent_pairs(sq, range(6))[1, 2] >= 2
    with pytest.raises(ValueError, match="ordering must be a permutation"):
        check_row_complete(sq, [0, 1, 2, 3, 4, 4])


def test_row_complete_equals_difference_criterion(b_reduced):
    # For squares that are row-shuffled cyclic tables, row completeness
    # under an ordering is equivalent to its successive differences being
    # all distinct and nonzero.
    squares = [latin_from_dca(b_reduced, s) for s in range(3)]
    squares += [latin_from_dca(construct_6mu(1), s) for s in range(3)]
    orderings = [
        williams_order(6),
        list(range(6)),
        list(reversed(williams_order(6))),
        [3, 0, 4, 1, 5, 2],
        [0, 2, 4, 1, 3, 5],
    ]
    for sq in squares[:3]:
        for ordering in orderings:
            n = sq.order
            diffs = [(ordering[j + 1] - ordering[j]) % n for j in range(n - 1)]
            criterion = sorted(diffs) == list(range(1, n))
            assert check_row_complete(sq, ordering).passed == criterion
    for sq in squares[3:]:
        ordering = williams_order(10)
        assert check_row_complete(sq, ordering).passed


def test_shared_ordering_works_for_whole_set(b_reduced):
    ordering = williams_order(6)
    for s in range(3):
        assert check_row_complete(latin_from_dca(b_reduced, s), ordering).passed


def test_write_latin(b_reduced):
    sq = latin_from_dca(b_reduced, 0)
    text = write_latin(sq)
    lines = text.splitlines()
    assert lines[0] == "kind=LS n=6"
    assert lines[1] == "0 1 2 3 4 5"
    assert len(lines) == 7
