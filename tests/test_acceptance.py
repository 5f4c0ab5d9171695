"""Acceptance suite: one test per criterion, each printing a pass line
with its measured runtime (run with ``pytest -s`` to see them inline).

The heavy searched ingredients are computed once and memoized so the
derivation criteria can reuse them without re-searching.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import pytest

from diffcover.construct import (
    BadParams,
    construct_4m,
    construct_6mu,
    construct_from_table,
    construct_odd,
    dm_prime,
    hdm_product,
    insert_hole,
    params_odd,
    spectrum_report,
)
from diffcover.core import Form, ResidueArray, diff_counts, read_array, to_reduced
from diffcover.latin import (
    check_row_complete,
    latin_from_dca,
    williams_order,
)
from diffcover.search import search_hdm, search_third_column
from diffcover.tables import SEARCHED_THIRD_COLUMNS, dca_from_third_column
from diffcover.verify import verify_dca, verify_hdm

from conftest import B_TEXT, mutate
from latin_oracle import mnols_set_check, superimpose
from search_oracle import enumerate_third_columns
from test_construct import (
    EXAMPLE_26_B,
    EXAMPLE_26_B_MINUS_A,
    EXAMPLE_26_C,
    EXAMPLE_26_C_MINUS_A,
    EXAMPLE_26_C_MINUS_B,
)

DATA_DIR = Path(__file__).parent / "data"

ODD_SWEEP = (0, 1, 3, 4, 6, 7, 9, 10, 12)
FOUR_M_SWEEP = tuple(k for k in range(25) if k % 3 != 1)
SIX_MU_SWEEP = tuple(range(1, 30, 2))

_cache: dict[str, object] = {}


def report_line(num: int, name: str, elapsed: float, budget: float) -> None:
    print(f"criterion {num:02d} {name}: PASS ({elapsed:.4f}s < {budget:g}s budget)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.3f}s"


def best_of(runs: int, fn):
    best = None
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def searched_fourteen() -> ResidueArray:
    if "dca14" not in _cache:
        cols = search_third_column(14, result_limit=1)
        _cache["dca14"] = dca_from_third_column(cols[0])
    return _cache["dca14"]


def pipeline_seventy() -> ResidueArray:
    if "dca70" not in _cache:
        hdm70 = hdm_product(search_hdm(10, 2), dm_prime(7, 4))
        _cache["dca70"] = insert_hole(hdm70, searched_fourteen())
    return _cache["dca70"]


def pipeline_thirty() -> ResidueArray:
    if "dca30" not in _cache:
        _cache["dca30"] = insert_hole(search_hdm(30, 6), construct_from_table(6))
    return _cache["dca30"]


def searched_twenty_four() -> ResidueArray:
    if "dca24" not in _cache:
        cols = search_third_column(24, result_limit=1, node_budget=10**8)
        _cache["dca24"] = dca_from_third_column(cols[0])
    return _cache["dca24"]


def produced_dcas():
    """Reduced forms of every strict DCA produced by criteria 2 to 6,
    deduplicated, yielded one at a time to bound memory."""
    seen: set[tuple] = set()

    def emit(label: str, arr: ResidueArray):
        reduced = to_reduced(arr) if arr.form is Form.FULL else arr
        if reduced.entries not in seen:
            seen.add(reduced.entries)
            return [(label, reduced)]
        return []

    yield from emit("worked-example", construct_odd(13, 16))
    for i in ODD_SWEEP:
        yield from emit(f"odd-f i={i}", construct_odd(*params_odd(i)))
    for k in FOUR_M_SWEEP:
        yield from emit(f"four-m k={k}", construct_4m(k))
    for mu in SIX_MU_SWEEP:
        yield from emit(f"six-mu mu={mu}", construct_6mu(mu))
    for order in (6, 24, 28, 32, 36, 44, 48, 52, 54):
        yield from emit(f"table {order}", construct_from_table(order))
    yield from emit("searched 24", searched_twenty_four())
    yield from emit("searched 14", searched_fourteen())
    yield from emit("pipeline 70", pipeline_seventy())
    yield from emit("pipeline 30", pipeline_thirty())


def test_criterion_01_golden_example():
    def work():
        arr = read_array(B_TEXT)
        assert verify_dca(arr, strict=True).passed
        for j in range(3):
            for jp in range(j):
                counts = diff_counts(arr.column(j)[:6], arr.column(jp)[:6], 6)
                assert counts == [0, 1, 1, 2, 1, 1]
                assert counts[3] == 2 and 3 == 6 // 2
        return arr

    _, elapsed = best_of(3, work)
    report_line(1, "golden-example", elapsed, 0.001)


def test_criterion_02_worked_example_reproduction():
    def work():
        arr = construct_odd(13, 16)
        assert arr.column(0) == tuple(range(26))
        assert arr.column(1) == EXAMPLE_26_B
        assert arr.column(2) == EXAMPLE_26_C
        diffs = {
            (1, 0): EXAMPLE_26_B_MINUS_A,
            (2, 0): EXAMPLE_26_C_MINUS_A,
            (2, 1): EXAMPLE_26_C_MINUS_B,
        }
        for (j, jp), expected in diffs.items():
            got = tuple((row[j] - row[jp]) % 26 for row in arr.entries)
            assert got == expected
            assert got.count(13) == 2
        return arr

    _, elapsed = best_of(3, work)
    report_line(2, "worked-example", elapsed, 0.001)


def test_criterion_03_family_sweeps():
    t0 = time.perf_counter()
    count = 0
    for i in ODD_SWEEP:
        m, f = params_odd(i)
        assert m == 2 * (2 * i * i + 7 * i + 6) + 1
        arr = construct_odd(m, f)
        assert verify_dca(arr, strict=True).passed
        count += 1
    for k in FOUR_M_SWEEP:
        arr = construct_4m(k)
        assert arr.order == 16 * k + 8
        assert verify_dca(arr, strict=True).passed
        count += 1
    for mu in SIX_MU_SWEEP:
        arr = construct_6mu(mu)
        assert arr.order == 6 * mu + 4
        assert verify_dca(arr, strict=True).passed
        count += 1
    assert count == len(ODD_SWEEP) + len(FOUR_M_SWEEP) + len(SIX_MU_SWEEP)
    report_line(3, f"family-sweeps ({count} arrays, orders up to 1514)", time.perf_counter() - t0, 10.0)


def test_criterion_04_table_orders():
    t0 = time.perf_counter()
    for order in (6, 24, 28, 32, 36, 44, 48, 52, 54):
        assert verify_dca(construct_from_table(order), strict=True).passed
    report_line(4, "table-orders", time.perf_counter() - t0, 1.0)


def test_criterion_05_search_reproduction():
    t0 = time.perf_counter()
    found = searched_twenty_four()
    assert verify_dca(found, strict=True).passed
    # The published order-24 column is itself a solution: the assembled
    # array passes the independent checker.
    published = dca_from_third_column(SEARCHED_THIRD_COLUMNS[24])
    assert verify_dca(published, strict=True).passed
    # At order 6 the pruned search reproduces the exhaustive oracle.
    assert search_third_column(6) == enumerate_third_columns(6)
    report_line(5, "search-reproduction", time.perf_counter() - t0, 300.0)


def test_criterion_06_composition_pipelines():
    t0 = time.perf_counter()
    hdm10 = search_hdm(10, 2)
    assert verify_hdm(hdm10).passed
    hdm70 = hdm_product(hdm10, dm_prime(7, 4))
    assert (hdm70.order, hdm70.hole) == (70, 14)
    assert verify_hdm(hdm70).passed
    dca14 = searched_fourteen()
    assert verify_dca(dca14, strict=True).passed
    big = pipeline_seventy()
    assert (big.order, big.rows) == (70, 71)
    assert verify_dca(big, strict=True).passed
    second = pipeline_thirty()
    assert (second.order, second.rows) == (30, 31)
    assert verify_dca(second, strict=True).passed
    report_line(6, "composition-pipelines", time.perf_counter() - t0, 600.0)


def test_criterion_07_mnols_derivation():
    t0 = time.perf_counter()
    expected_by_order: dict[int, tuple[int, ...]] = {}
    checked = 0
    for label, reduced in produced_dcas():
        n = reduced.order
        squares = [latin_from_dca(reduced, s) for s in range(reduced.columns)]
        assert mnols_set_check(squares).passed, label
        if n not in expected_by_order:
            half = n // 2
            expected_by_order[n] = tuple(
                0 if x == y else 2 if y == (x + half) % n else 1
                for x in range(n)
                for y in range(n)
            )
        expected = expected_by_order[n]
        for s in range(1, len(squares)):
            for tt in range(s):
                assert superimpose(squares[s], squares[tt]).flat == expected, label
        checked += 1
    assert checked >= 50
    report_line(7, f"mnols-derivation ({checked} arrays)", time.perf_counter() - t0, 30.0)


def test_criterion_08_row_completeness():
    t0 = time.perf_counter()
    for n in range(2, 401, 2):
        seq = williams_order(n)
        diffs = sorted((seq[j + 1] - seq[j]) % n for j in range(n - 1))
        assert diffs == list(range(1, n))
    for label, reduced in produced_dcas():
        ordering = williams_order(reduced.order)
        for s in range(reduced.columns):
            square = latin_from_dca(reduced, s)
            assert check_row_complete(square, ordering).passed, label
    report_line(8, "row-completeness", time.perf_counter() - t0, 30.0)


def _witness_is_correct(bad: ResidueArray, report) -> bool:
    """Re-count the reported violation directly on the mutated array."""
    failing = next(c for c in report.checks if not c.passed)
    w = failing.witness
    if w is None:
        return False
    if failing.name == "coverage":
        j, jp = w["pair"]
        counts = Counter((row[j] - row[jp]) % bad.order for row in bad.entries)
        return counts.get(w["residue"], 0) == w["actual"] == 0
    if failing.name == "zero-twice-per-column":
        zeros = sum(1 for row in bad.entries if row[w["column"]] == 0)
        return zeros == w["actual"] < 2
    if failing.name == "difference-profile":
        j, jp = w["pair"]
        counts = Counter((row[j] - row[jp]) % bad.order for row in bad.entries[:-1])
        d = w["residue"]
        want = 0 if d == 0 else 2 if d == bad.order // 2 else 1
        return counts.get(d, 0) == w["actual"] != want == w["expected"]
    return False


def test_criterion_09_negative_controls():
    t0 = time.perf_counter()
    golden = read_array(B_TEXT)
    mutations = []
    for i in range(7):
        for j in range(4):
            if (i, j) == (6, 3):
                # The only cell whose value never shows in any check: it
                # meets all-covering columns and sits outside the profile
                # rows, so mutations here are undetectable by design.
                continue
            for v in range(6):
                if v != golden.entries[i][j]:
                    mutations.append((i, j, v))
    assert len(mutations) >= 100
    for i, j, v in mutations[:100]:
        bad = mutate(golden, i, j, v)
        report = verify_dca(bad, strict=True)
        assert not report.passed, (i, j, v)
        assert _witness_is_correct(bad, report), (i, j, v)
    with pytest.raises(BadParams):
        construct_odd(13, 15)
    with pytest.raises(BadParams, match="not 1 mod 3"):
        construct_4m(1)
    with pytest.raises(BadParams):
        construct_6mu(2)
    report_line(9, "negative-controls (100 mutations)", time.perf_counter() - t0, 30.0)


def test_criterion_10_spectrum_report():
    t0 = time.perf_counter()
    live = json.loads(json.dumps([e._asdict() for e in spectrum_report(6, 360)]))
    expected = json.loads((DATA_DIR / "spectrum_6_360.json").read_text())
    assert live == expected
    by_order = {e["order"]: e for e in live}
    assert by_order[146]["status"] == "open"
    # Orders listed with explicit constructions are matched to their
    # internal methods.
    for order in (6, 24, 28, 32, 36, 44, 48, 52, 54):
        assert "table" in by_order[order]["constructible_by"]
    for order in (26, 266):
        assert "odd-f" in by_order[order]["constructible_by"]
    for order in (40, 56, 88, 104, 136, 152, 184, 200, 232, 248, 280, 296, 328, 344):
        assert "four-m" in by_order[order]["constructible_by"]
    for order in (34, 58, 82, 106, 130, 154, 178, 202, 226, 250, 274, 298, 322, 346):
        assert "six-mu" in by_order[order]["constructible_by"]
    # Orders resolved only through block-design recursions are external.
    for order in (64, 68, 72, 74, 76, 92, 96, 108, 116, 122, 124, 128, 144,
                  148, 162, 164, 172, 188, 192, 194, 212, 218, 236, 244, 256,
                  268, 284, 288, 292, 314, 316, 332, 348, 356):
        assert by_order[order]["status"] == "covered-externally"
        assert by_order[order]["source"] == "block-design"
    # Every even order in range is accounted for.
    assert {e["order"] for e in live} == set(range(6, 361, 2))
    for e in live:
        assert e["status"] in ("internal", "covered-externally", "open")
        assert e["source"] != "unlisted"
    report_line(10, "spectrum-report", time.perf_counter() - t0, 10.0)
