"""Backtracking searches against enumeration oracles and verifiers."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, strategies as st

from diffcover.core import Form, Kind, ResidueArray
from diffcover.search import (
    _CALLER_FRAMES,
    BudgetExhausted,
    NoSolution,
    search_hdm,
    search_third_column,
)
from diffcover.tables import odd_even_column
from diffcover.verify import verify_dca, verify_hdm

from conftest import B_REDUCED_COLUMNS
from search_oracle import OrderTooLarge, enumerate_third_columns


def assemble(order: int, col2: tuple[int, ...]) -> ResidueArray:
    rows = zip(range(order), odd_even_column(order), col2)
    return ResidueArray.from_rows(Kind.DCA, order, rows, form=Form.REDUCED)


def test_order_six_default_columns_match_golden():
    # The default fixed columns at order 6 are exactly the golden array's.
    assert odd_even_column(6) == B_REDUCED_COLUMNS[1]
    solutions = search_third_column(6)
    assert B_REDUCED_COLUMNS[2] in solutions


def test_search_equals_enumeration_at_order_six():
    assert search_third_column(6) == enumerate_third_columns(6)


@pytest.mark.parametrize("order", [8, 10, 12])
def test_search_equals_enumeration(order):
    # Pruning soundness: the capacity-pruned search agrees with the
    # unpruned filter over all permutations.
    pruned = search_third_column(order)
    unpruned = enumerate_third_columns(order)
    assert pruned == unpruned
    assert pruned  # solutions exist at these orders


def test_solutions_verify_strict():
    for col2 in search_third_column(8):
        assert verify_dca(assemble(8, col2), strict=True).passed


def test_lexicographic_and_deterministic():
    first = search_third_column(8)
    second = search_third_column(8)
    assert first == second == sorted(first)


def test_budget_exhausted():
    with pytest.raises(BudgetExhausted):
        search_third_column(6, node_budget=1)


def test_partial_results_returned_when_budget_hits_late():
    # Enough budget for the first solutions but not the whole tree.
    full = search_third_column(8)
    clipped = search_third_column(8, node_budget=2000)
    assert clipped == full[: len(clipped)]
    assert clipped


def test_result_limit():
    full = search_third_column(8)
    assert search_third_column(8, result_limit=1) == full[:1]


def test_fixed_column_validation():
    with pytest.raises(ValueError):
        search_third_column(7)
    for order in (2, 4):
        with pytest.raises(ValueError, match=f"order must be even and at least 6, got {order}"):
            search_third_column(order)
    with pytest.raises(ValueError):
        search_third_column(6, node_budget=0)


def test_enumerate_order_too_large():
    with pytest.raises(OrderTooLarge):
        enumerate_third_columns(14)


def test_status_stream():
    events = []
    search_third_column(6, status_interval=5, status=events.append)
    assert events
    assert all(set(e) == {"nodes", "depth", "solutions"} for e in events)
    assert events[-1]["solutions"] == 1


def test_search_hdm_ten_two():
    arr = search_hdm(10, 2)
    assert (arr.order, arr.hole, arr.columns, arr.rows) == (10, 2, 4, 8)
    assert verify_hdm(arr).passed
    assert arr.column(3) == (0,) * 8
    assert arr.column(0) == (1, 2, 3, 4, 6, 7, 8, 9)


def test_search_hdm_deterministic():
    assert search_hdm(10, 2) == search_hdm(10, 2)


def test_search_hdm_no_solution():
    # All non-hole residues are odd, so their differences land in the hole.
    with pytest.raises(NoSolution):
        search_hdm(10, 5)


def test_search_hdm_budget():
    with pytest.raises(BudgetExhausted):
        search_hdm(14, 2, node_budget=3)


def test_budgets_are_exact():
    # A budget of exactly the nodes a search takes is enough, and one
    # node fewer is not, at each place a node is counted.
    first = THIRD_PINS[14][1]
    assert search_third_column(14, result_limit=1, node_budget=15_994) == [first]
    with pytest.raises(BudgetExhausted):
        search_third_column(14, result_limit=1, node_budget=15_993)
    assert search_hdm(14, 2, node_budget=1231).entries == search_hdm(14, 2).entries
    with pytest.raises(BudgetExhausted):
        search_hdm(14, 2, node_budget=1230)
    with pytest.raises(NoSolution):
        search_hdm(6, 1, node_budget=150)
    with pytest.raises(BudgetExhausted):
        search_hdm(6, 1, node_budget=149)


def test_search_hdm_hole_of_one():
    arr = search_hdm(5, 1)
    assert (arr.order, arr.hole, arr.rows) == (5, 1, 4)
    assert verify_hdm(arr).passed


def test_search_hdm_bad_hole():
    with pytest.raises(ValueError, match="hole 3 must divide order 10"):
        search_hdm(10, 3)
    with pytest.raises(ValueError, match="hole 10 must divide order 10"):
        search_hdm(10, 10)


def test_order_fourteen_pipeline_ingredient():
    cols = search_third_column(14, result_limit=1)
    assert len(cols) == 1
    assert verify_dca(assemble(14, cols[0]), strict=True).passed


@given(st.sampled_from([6, 8, 10, 12]), st.integers(1, 40_000))
def test_budget_clipped_search_is_a_prefix(order, budget):
    full = search_third_column(order)
    try:
        clipped = search_third_column(order, node_budget=budget)
    except BudgetExhausted:
        return
    assert clipped == full[: len(clipped)]


# Final node counts and first results.  A faster search must walk the
# same tree, so these never change with a speed-up.
THIRD_PINS = {
    14: (15_994, (2, 8, 7, 0, 12, 1, 5, 10, 9, 13, 3, 6, 4, 11)),
    18: (48_546, (2, 0, 7, 12, 15, 1, 4, 14, 11, 3, 16, 8, 13, 17, 5, 10, 6, 9)),
}
HDM_PINS = {
    (14, 2): (1_231, ((1, 2, 3), (2, 11, 10), (3, 13, 8), (4, 1, 5), (5, 9, 11), (6, 5, 2), (8, 10, 6),
                      (9, 12, 4), (10, 8, 13), (11, 3, 1), (12, 6, 9), (13, 4, 12))),
    (18, 2): (292_867, ((1, 2, 3), (2, 10, 16), (3, 15, 13), (4, 1, 5), (5, 16, 11), (6, 4, 1),
                        (7, 11, 14), (8, 7, 12), (10, 12, 8), (11, 14, 4), (12, 17, 6),
                        (13, 8, 10), (14, 6, 17), (15, 3, 2), (16, 5, 15), (17, 13, 7))),
}


@pytest.mark.parametrize("order", sorted(THIRD_PINS))
def test_third_column_pinned(order):
    nodes, first = THIRD_PINS[order]
    events = []
    found = search_third_column(order, result_limit=1, status=events.append)
    assert found == [first]
    assert events == [{"nodes": nodes, "depth": order, "solutions": 1}]


@pytest.mark.parametrize("n,h", sorted(HDM_PINS))
def test_hdm_pinned(n, h):
    nodes, rows = HDM_PINS[n, h]
    events = []
    arr = search_hdm(n, h, status=events.append)
    assert arr.entries == tuple(row + (0,) for row in rows)
    assert events == [{"nodes": nodes, "depth": n - h, "solutions": 1}]


def test_status_events_pinned():
    events = []
    search_third_column(14, result_limit=1, status_interval=1000, status=events.append)
    depths = [7, 5, 7, 8, 9, 4, 6, 6, 8, 8, 7, 8, 6, 8, 5]
    assert events == [
        {"nodes": 1000 * (j + 1), "depth": d, "solutions": 0} for j, d in enumerate(depths)
    ] + [{"nodes": 15_994, "depth": 14, "solutions": 1}]
    events = []
    search_hdm(14, 2, status_interval=1000, status=events.append)
    assert events == [
        {"nodes": 1000, "depth": 7, "solutions": 0},
        {"nodes": 1231, "depth": 12, "solutions": 1},
    ]


@pytest.mark.parametrize("n, h, every", [(14, 2, 7), (14, 2, 50), (14, 2, 333), (22, 2, 100_000)])
def test_hdm_status_events_every_interval(n, h, every):
    # Both kinds of HDM node, a b value and a (b, c) pair, can land on a
    # multiple of the interval; each multiple reports once.
    events = []
    search_hdm(n, h, status_interval=every, status=events.append)
    total = events[-1]["nodes"]
    assert [e["nodes"] for e in events[:-1]] == list(range(every, total + 1, every))
    assert all(e["solutions"] == 0 for e in events[:-1])


@pytest.mark.parametrize(
    "search",
    [
        lambda: search_third_column(2400, node_budget=1),
        lambda: search_hdm(2400, 2, node_budget=1),
        lambda: search_third_column(20_000, node_budget=1),
    ],
    ids=["order-2400", "hdm-2400-2", "order-20000"],
)
def test_searches_refuse_depths_past_the_recursion_limit(search):
    # Each search recurses once per row.  A depth that cannot fit is a
    # ValueError raised before any mask is built or node counted, not a
    # RecursionError.
    with pytest.raises(ValueError, match="recursion limit"):
        search()


def test_deepest_admitted_searches_fit_the_recursion_limit():
    # With the limit lowered so that order 14 (15 nested calls) and HDM
    # 14,2 (13) are the deepest searches admitted, both run to their
    # pinned results beneath pytest's own frames; one step deeper is
    # refused.
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(_CALLER_FRAMES + 15)
        assert search_third_column(14, result_limit=1) == [THIRD_PINS[14][1]]
        with pytest.raises(ValueError, match="recursion limit"):
            search_third_column(16, node_budget=1)
        sys.setrecursionlimit(_CALLER_FRAMES + 13)
        assert search_hdm(14, 2).entries == tuple(row + (0,) for row in HDM_PINS[14, 2][1])
        with pytest.raises(ValueError, match="recursion limit"):
            search_hdm(16, 2, node_budget=1)
    finally:
        sys.setrecursionlimit(limit)
