"""Backtracking searches against enumeration oracles and verifiers."""

from __future__ import annotations

import _thread
import contextlib
import gc
import os
import resource
import signal
import sys
import threading
import time
from typing import Callable

import pytest
from hypothesis import given, strategies as st

from diffcover import search
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
    assert all(set(e) == {"nodes", "depth", "solutions"} for e in events[:-1])
    assert events[-1] == {"nodes": events[-1]["nodes"], "depth": 6, "solutions": 1, "reason": "exhausted"}


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
    with pytest.raises(BudgetExhausted, match="^no solution within 15993 nodes$"):
        search_third_column(14, result_limit=1, node_budget=15_993)
    assert search_hdm(14, 2, node_budget=1231).entries == search_hdm(14, 2).entries
    with pytest.raises(BudgetExhausted, match=r"^no HDM\(4,14;2\) within 1230 nodes$"):
        search_hdm(14, 2, node_budget=1230)
    with pytest.raises(NoSolution):
        search_hdm(6, 1, node_budget=150)
    with pytest.raises(BudgetExhausted, match=r"^no HDM\(4,6;1\) within 149 nodes$"):
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
    12: (3_919, (3, 6, 11, 1, 8, 0, 5, 9, 2, 10, 4, 7)),
    14: (15_994, (2, 8, 7, 0, 12, 1, 5, 10, 9, 13, 3, 6, 4, 11)),
    16: (100_335, (2, 6, 0, 11, 14, 1, 5, 13, 12, 10, 3, 8, 15, 4, 9, 7)),
    18: (48_546, (2, 0, 7, 12, 15, 1, 4, 14, 11, 3, 16, 8, 13, 17, 5, 10, 6, 9)),
    20: (1_376_650, (2, 0, 7, 14, 17, 1, 18, 8, 15, 13, 19, 6, 10, 16, 11, 5, 4, 3, 12, 9)),
}
HDM_PINS = {
    (12, 2): (3_903, ((1, 2, 3), (2, 11, 10), (3, 5, 2), (4, 8, 1), (5, 10, 8), (7, 3, 11), (8, 7, 9), (9, 4, 7),
                      (10, 1, 5), (11, 9, 4))),
    (14, 2): (1_231, ((1, 2, 3), (2, 11, 10), (3, 13, 8), (4, 1, 5), (5, 9, 11), (6, 5, 2), (8, 10, 6),
                      (9, 12, 4), (10, 8, 13), (11, 3, 1), (12, 6, 9), (13, 4, 12))),
    (18, 2): (292_867, ((1, 2, 3), (2, 10, 16), (3, 15, 13), (4, 1, 5), (5, 16, 11), (6, 4, 1),
                        (7, 11, 14), (8, 7, 12), (10, 12, 8), (11, 14, 4), (12, 17, 6),
                        (13, 8, 10), (14, 6, 17), (15, 3, 2), (16, 5, 15), (17, 13, 7))),
    (16, 2): (55_672, ((1, 2, 3), (2, 11, 13), (3, 5, 12), (4, 1, 5), (5, 9, 15), (6, 4, 9), (7, 13, 6),
                       (9, 12, 7), (10, 15, 14), (11, 6, 2), (12, 3, 1), (13, 7, 10), (14, 10, 4),
                       (15, 14, 11))),
    (20, 4): (10_436, ((1, 2, 3), (2, 9, 1), (3, 19, 12), (4, 8, 11), (6, 3, 2), (7, 13, 19), (8, 16, 14),
                       (9, 18, 7), (11, 4, 8), (12, 14, 16), (13, 12, 6), (14, 6, 17), (16, 7, 4),
                       (17, 11, 18), (18, 1, 9), (19, 17, 13))),
    (24, 6): (11_142, ((1, 2, 3), (2, 13, 7), (3, 5, 22), (5, 3, 2), (6, 23, 13), (7, 10, 17), (9, 6, 15),
                       (10, 1, 23), (11, 18, 5), (13, 22, 11), (14, 19, 1), (15, 21, 18), (17, 7, 10),
                       (18, 17, 19), (19, 14, 9), (21, 15, 6), (22, 11, 21), (23, 9, 14))),
}


@pytest.mark.parametrize("order", sorted(THIRD_PINS))
def test_third_column_pinned(order):
    nodes, first = THIRD_PINS[order]
    events = []
    found = search_third_column(order, result_limit=1, status=events.append)
    assert found == [first]
    assert events == [{"nodes": nodes, "depth": order, "solutions": 1, "reason": "solution"}]


@pytest.mark.parametrize("n,h", sorted(HDM_PINS))
def test_hdm_pinned(n, h):
    nodes, rows = HDM_PINS[n, h]
    events = []
    arr = search_hdm(n, h, status=events.append)
    assert arr.entries == tuple(row + (0,) for row in rows)
    assert events == [{"nodes": nodes, "depth": n - h, "solutions": 1, "reason": "solution"}]


def test_status_events_pinned():
    events = []
    search_third_column(14, result_limit=1, status_interval=1000, status=events.append)
    depths = [7, 5, 7, 8, 9, 4, 6, 6, 8, 8, 7, 8, 6, 8, 5]
    assert events == [
        {"nodes": 1000 * (j + 1), "depth": d, "solutions": 0} for j, d in enumerate(depths)
    ] + [{"nodes": 15_994, "depth": 14, "solutions": 1, "reason": "solution"}]
    events = []
    search_hdm(14, 2, status_interval=1000, status=events.append)
    assert events == [
        {"nodes": 1000, "depth": 7, "solutions": 0},
        {"nodes": 1231, "depth": 12, "solutions": 1, "reason": "solution"},
    ]
    # A budget that ends between two multiples: the events before it, a
    # final event at the budget, then the exception.
    events = []
    with pytest.raises(BudgetExhausted, match="^no solution within 2500 nodes$"):
        search_third_column(14, node_budget=2500, status_interval=1000, status=events.append)
    assert events == [
        {"nodes": 1000, "depth": 7, "solutions": 0},
        {"nodes": 2000, "depth": 5, "solutions": 0},
        {"nodes": 2500, "depth": 14, "solutions": 0, "reason": "budget"},
    ]
    events = []
    with pytest.raises(BudgetExhausted, match=r"^no HDM\(4,14;2\) within 1100 nodes$"):
        search_hdm(14, 2, node_budget=1100, status_interval=1000, status=events.append)
    assert events == [
        {"nodes": 1000, "depth": 7, "solutions": 0},
        {"nodes": 1100, "depth": 12, "solutions": 0, "reason": "budget"},
    ]
    # A budget that runs out after some solutions returns them.
    events = []
    assert len(search_third_column(10, node_budget=300, status=events.append)) == 1
    assert events == [{"nodes": 300, "depth": 10, "solutions": 1, "reason": "budget"}]
    events = []
    with pytest.raises(NoSolution):
        search_hdm(6, 1, status=events.append)
    assert events == [{"nodes": 150, "depth": 5, "solutions": 0, "reason": "exhausted"}]


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


# Workers: each search splits at a fixed depth and counts the subtrees
# below it on forked processes once it has run search._WARMUP nodes alone,
# unless they could count fewer than search._WARMUP nodes of a subtree.
# With the warm-up patched to 0 the workers fork at the first subtree,
# even at order 14 and with any interval, and every result and event must
# stay the sequential one.


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers forked."""
    fork, pids = os.fork, []

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.fixture
def forks(forked, monkeypatch):
    """No warm-up; yields the pids of the workers forked, which must be
    some when two CPUs are available."""
    monkeypatch.setattr(search, "_WARMUP", 0)
    yield forked
    assert forked or cpus() < 2


PINNED = {
    **{f"third-{order}": lambda order=order: test_third_column_pinned(order) for order in (14, 16, 18, 20)},
    **{f"all-{order}": lambda order=order: test_search_equals_enumeration(order) for order in (8, 10, 12)},
    **{f"hdm-{n}-{h}": lambda n=n, h=h: test_hdm_pinned(n, h) for n, h in HDM_PINS},
    "status-events": test_status_events_pinned,
    "hdm-every-7": lambda: test_hdm_status_events_every_interval(14, 2, 7),
    "hdm-every-333": lambda: test_hdm_status_events_every_interval(14, 2, 333),
    "budgets": test_budgets_are_exact,
}


@pytest.mark.parametrize("case", PINNED)
def test_pins_hold_with_workers_at_once(case, forks):
    PINNED[case]()


ENDS = {
    "third-12": lambda: search_third_column(12, result_limit=1),
    "third-10-all": lambda: search_third_column(10),
    "hdm-10-2": lambda: search_hdm(10, 2),
    "no-solution": lambda: search_hdm(6, 1),
    "budget": lambda: search_third_column(14, node_budget=100),
}


@pytest.mark.parametrize("workers", [False, True], ids=["alone", "workers"])
@pytest.mark.parametrize("case", ENDS)
def test_a_finished_search_leaves_no_cycle(case, workers, request, monkeypatch):
    # Each search's dfs holds itself through its closure, and the workers
    # hold a closure that holds dfs.  The search clears that cell on every
    # way out, so what it made is freed at once, not by the cycle collector.
    monkeypatch.setattr(search, "_WARMUP", 1 << 60)
    if workers:
        request.getfixturevalue("forks")

    def to_its_end():
        with contextlib.suppress(NoSolution, BudgetExhausted):
            ENDS[case]()

    to_its_end()  # the first imports leave garbage of their own
    gc.collect()
    gc.disable()
    try:
        to_its_end()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_searches_under_the_warm_up_run_alone(monkeypatch):
    # Third column 12 (3,919 nodes) and HDM 12,2 (3,903) end before
    # search._WARMUP (4,096) nodes, so they never fork.
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    test_third_column_pinned(12)
    test_hdm_pinned(12, 2)


# Searches whose workers could count `cap` nodes of a subtree: the status
# interval, or the nodes from the fork to the budget's end.  Third column
# 12 reaches its fork at 4,106 nodes and HDM 18,2 at 4,111.
CAPPED = {
    "third-interval": lambda cap, status: search_third_column(18, result_limit=1, status_interval=cap, status=status),
    "hdm-interval": lambda cap, status: search_hdm(16, 2, status_interval=cap, status=status).entries,
    "third-budget": lambda cap, status: search_third_column(12, node_budget=4105 + cap, status=status),
    "hdm-budget": lambda cap, status: search_hdm(18, 2, node_budget=4110 + cap, status=status).entries,
}


def capped(case: str, cap: int) -> tuple:
    """The result or exception text and the events of a capped search."""
    events = []
    try:
        result = CAPPED[case](cap, events.append)
    except BudgetExhausted as e:
        result = str(e)
    return result, events


@pytest.mark.parametrize("cap", [search._WARMUP, search._WARMUP - 1], ids=["warm-up", "one-less"])
@pytest.mark.parametrize("case", CAPPED)
def test_a_cap_under_the_warm_up_runs_alone(case, cap, forked, monkeypatch):
    # A cap of search._WARMUP nodes forks and one node less runs alone,
    # with the results and events of a search that never forks.
    with monkeypatch.context() as alone:
        alone.setattr(search, "_WARMUP", 1 << 60)
        want = capped(case, cap)
    if cap < search._WARMUP:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert capped(case, cap) == want
    assert forked or cap < search._WARMUP or cpus() < 2


def test_default_warm_up_keeps_events_and_messages():
    # Each search forks after the warm-up of 4,096 nodes, before its first
    # status event: third column 20 at subtree 16 of 1,043, and HDM 22,2
    # at subtree 19 of 3,207, so workers serve all 56 multiples of 12,345.
    events = []
    found = search_third_column(20, result_limit=1, status_interval=300_001, status=events.append)
    assert found == [(2, 0, 7, 14, 17, 1, 18, 8, 15, 13, 19, 6, 10, 16, 11, 5, 4, 3, 12, 9)]
    assert [(e["nodes"], e["depth"], e["solutions"]) for e in events] == [
        (300_001, 11, 0), (600_002, 9, 0), (900_003, 13, 0), (1_200_004, 9, 0), (1_376_650, 20, 1),
    ]
    events = []
    arr = search_hdm(22, 2, status_interval=12_345, status=events.append)
    assert verify_hdm(arr).passed
    depths = [12, 11, 10, 13, 13, 14, 13, 12, 11, 10, 13, 12, 14, 12, 11, 13, 12, 12, 12, 13, 11, 13,
              14, 12, 12, 11, 11, 14, 13, 14, 11, 13, 11, 12, 12, 11, 12, 13, 13, 13, 13, 13, 13, 12,
              14, 13, 13, 13, 14, 12, 13, 12, 13, 15, 13, 12]
    assert events == [
        {"nodes": 12_345 * (j + 1), "depth": d, "solutions": 0} for j, d in enumerate(depths)
    ] + [{"nodes": 694_407, "depth": 20, "solutions": 1, "reason": "solution"}]
    # The budget ends on a multiple of the interval: that event comes,
    # then the final event and the exception.
    events = []
    with pytest.raises(BudgetExhausted, match=r"^no HDM\(4,22;2\) within 400000 nodes$"):
        search_hdm(22, 2, node_budget=400_000, status_interval=200_000, status=events.append)
    assert events == [
        {"nodes": 200_000, "depth": 12, "solutions": 0},
        {"nodes": 400_000, "depth": 13, "solutions": 0},
        {"nodes": 400_000, "depth": 20, "solutions": 0, "reason": "budget"},
    ]


def interrupt(event: dict[str, int]) -> None:
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "search_to_its_end, error",
    [
        (lambda: search_third_column(14, result_limit=1), None),
        (lambda: search_hdm(6, 1), NoSolution),
        (lambda: search_hdm(14, 2, node_budget=1000), BudgetExhausted),
        (lambda: search_third_column(14, status_interval=5000, status=interrupt), KeyboardInterrupt),
    ],
    ids=["solution", "no-solution", "budget", "interrupt"],
)
def test_no_worker_outlives_its_search(search_to_its_end, error, forks):
    if error is None:
        search_to_its_end()
    else:
        with pytest.raises(error):
            search_to_its_end()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_keep_their_speed_below_deep_callers(forks):
    # Stacked on the caller's frames, a worker's recursion could straddle
    # a boundary of CPython's frame-stack chunks and map a fresh chunk on
    # nearly every node.  Its walk runs on a thread of its own, so its
    # page faults do not depend on how deep the caller is.
    def at_depth(k, search):
        return search() if k == 0 else at_depth(k - 1, search)

    faults = []
    for k in range(0, 128, 4):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        assert at_depth(k, lambda: search_third_column(18, result_limit=1)) == [THIRD_PINS[18][1]]
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    assert max(faults) <= 2 * min(faults) + 1000, faults


@pytest.fixture
def posts(monkeypatch):
    """The posts the main process reads from its workers, in order, and
    b"" for each read that found the pipe's end."""
    lines, fds, read = [], set(), os.read

    class Workers(search._Workers):
        def _start(self, nodes):
            super()._start(nodes)
            fds.add(self.posts)

    def tee(fd, size):
        data = read(fd, size)
        if fd in fds:
            lines.extend(data.splitlines(keepends=True) or [data])
        return data

    monkeypatch.setattr(search, "_Workers", Workers)
    monkeypatch.setattr(os, "read", tee)
    return lines


@pytest.mark.parametrize(
    "search_to_its_end, warm_up, cap",
    [
        (lambda: search_third_column(18, result_limit=1, status_interval=100, status=len), 0, 100),
        (lambda: search_hdm(18, 2, status_interval=50, status=len), 0, 50),
        (lambda: search_third_column(18, node_budget=40), 0, 35),
        (lambda: search_hdm(22, 2, node_budget=350), 100, 133),
    ],
    ids=["third-interval", "hdm-interval", "third-budget", "hdm-budget"],
)
def test_workers_stop_where_a_count_stops_being_of_use(search_to_its_end, warm_up, cap, forks, posts, monkeypatch):
    # A count that reaches the next status multiple or the budget's end is
    # never added, so a worker stops its subtree there and posts -1: the
    # main process waits for no more than that before it searches the
    # subtree itself.  In the budget cases the workers fork at a split
    # node `cap` nodes before the budget runs out, 6 nodes in (third
    # column) or 218 (HDM), and the main process searches that subtree and
    # then waits for the next, of 39 or 168 nodes.
    monkeypatch.setattr(search, "_WARMUP", warm_up)
    with contextlib.suppress(BudgetExhausted):
        search_to_its_end()
    counts = [int(line.split()[1]) for line in posts if line]
    assert counts or cpus() < 2
    assert all(-1 <= c < cap for c in counts), max(counts)
    assert -1 in counts or cpus() < 2


def test_more_workers_than_cpus_count_every_subtree(forks, posts, monkeypatch):
    # Six workers race for the shared claim counter over the whole space
    # of order 14.  A lost claim makes two workers count one subtree, and
    # their counts must agree; a subtree that no worker claimed would leave
    # the main process reading the pipe to its end.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    events = []
    found = search_third_column(14, status_interval=0, status=events.append)
    assert len(forks) == 6
    assert (len(found), found == sorted(found)) == (82, True)
    assert events == [{"nodes": 600_918, "depth": 14, "solutions": 82, "reason": "exhausted"}]
    assert b"" not in posts
    counts = {}
    for line in posts:
        t, c = line.split()
        assert counts.setdefault(t, c) == c
    assert len(counts) > 1000, len(counts)


def interrupt_at(nodes: int, events: list) -> Callable[[dict[str, int]], None]:
    """A status callback that records each event and raises
    KeyboardInterrupt at the event of ``nodes``."""

    def status(event: dict[str, int]) -> None:
        events.append(event)
        if event["nodes"] == nodes and "reason" not in event:
            raise KeyboardInterrupt

    return status


@pytest.mark.parametrize("workers", [False, True], ids=["alone", "workers"])
def test_an_interrupt_ends_with_a_final_event(workers, request):
    # The interrupt comes from the status callback, at the second multiple
    # of the interval; the final event names it, then it propagates.
    if workers:
        request.getfixturevalue("forks")
    events = []
    with pytest.raises(KeyboardInterrupt):
        search_third_column(16, status_interval=3000, status=interrupt_at(6000, events))
    assert events == [
        {"nodes": 3000, "depth": 9, "solutions": 0},
        {"nodes": 6000, "depth": 8, "solutions": 0},
        {"nodes": 6000, "depth": 16, "solutions": 0, "reason": "interrupt"},
    ]
    events = []
    with pytest.raises(KeyboardInterrupt):
        search_hdm(16, 2, status_interval=3000, status=interrupt_at(6000, events))
    assert events == [
        {"nodes": 3000, "depth": 8, "solutions": 0},
        {"nodes": 6000, "depth": 7, "solutions": 0},
        {"nodes": 6000, "depth": 14, "solutions": 0, "reason": "interrupt"},
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_ignore_sigint_and_sigterm(forks):
    # Workers are born with both blocked, so no handler of the caller's
    # runs in one; the search's own end kills them.
    alive = []

    def poke(event):
        if "reason" in event:
            return
        for pid in forks:
            os.kill(pid, signal.SIGINT)
            os.kill(pid, signal.SIGTERM)
        time.sleep(0.05)
        alive.extend(os.waitpid(pid, os.WNOHANG) == (0, 0) for pid in forks)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        search_third_column(22, status_interval=10_000, status=poke)
    assert alive == [True] * len(forks)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_reaped_elsewhere_is_no_error(forks, monkeypatch):
    # With SIGCHLD ignored, a worker that ends by itself is reaped at once.
    # Each kill waits for its worker to finish its walk, so every worker
    # is gone before the search kills it.
    kill = os.kill

    def late_kill(pid, sig):
        deadline = time.monotonic() + 30
        with contextlib.suppress(ProcessLookupError):
            while time.monotonic() < deadline:
                kill(pid, 0)
                time.sleep(0.01)
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", late_kill)
    ignored = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with pytest.raises(NoSolution):
            search_hdm(6, 1)
    finally:
        signal.signal(signal.SIGCHLD, ignored)


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the test, rather than hang, when its body runs past ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


@pytest.mark.parametrize("death", ["exit", "kill"])
@pytest.mark.parametrize("case, claim", [("third-18", 1), ("hdm-18-2", 1), ("hdm-18-2", 2000)])
def test_a_dead_worker_does_not_stall_the_search(case, claim, death, forks, monkeypatch):
    # A worker dies on a chosen claim without posting it.  The main process
    # finds it dead while it waits for that post, ends the other workers and
    # searches the rest alone, to the pinned result.  Waiting for the post
    # alone would last until the others had counted the whole remaining
    # space, far past the deadline.
    main = os.getpid()

    class Workers(search._Workers):
        def __init__(self, run, *rest):
            def dying(args, stop):
                if os.getpid() != main and self.t == claim:
                    if death == "exit":
                        os._exit(1)
                    os.kill(os.getpid(), signal.SIGKILL)
                return run(args, stop)

            super().__init__(dying, *rest)

    monkeypatch.setattr(search, "_Workers", Workers)
    with deadline(20):
        PINNED[case]()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for_one_thread() -> None:
    """A joined thread can outlive its join for a moment; wait until it
    is gone, so that the next search may fork."""
    deadline = time.monotonic() + 30
    while search._threads() > 1 and time.monotonic() < deadline:
        time.sleep(0.001)


@pytest.mark.parametrize("unsafe", ["one-cpu", "thread", "os-thread", "short-interval"])
def test_unsafe_searches_run_alone(unsafe, monkeypatch):
    # Each search would fork at its first subtree past the warm-up, but one
    # CPU, a live thread (also one the threading module does not know of)
    # or a status interval below the warm-up (1000 < 1001 nodes) keeps it
    # alone, with the same events.
    monkeypatch.setattr(search, "_WARMUP", 1001 if unsafe == "short-interval" else 0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if unsafe == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(30,))
    if unsafe == "thread":
        thread.start()
    held = _thread.allocate_lock()
    held.acquire()
    if unsafe == "os-thread":
        _thread.start_new_thread(held.acquire, (True, 30))
    try:
        test_status_events_pinned()
    finally:
        done.set()
        held.release()
        if unsafe == "thread":
            thread.join(30)
            assert not thread.is_alive()
        wait_for_one_thread()
