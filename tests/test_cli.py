"""Command-line surface: exit codes, payloads, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffcover
from diffcover.cli import main
from diffcover.construct import (
    METHODS,
    construct_by_method,
    construct_odd,
    dm_prime,
    hdm_product,
    spectrum_report,
)
from diffcover.core import Form, read_array, write_array
from diffcover.latin import williams_order
from diffcover.search import search_hdm, search_third_column
from diffcover.tables import dca_from_third_column
from diffcover.verify import verify_dca

import latin_oracle as oracle
from conftest import B_TEXT, mutate


@pytest.fixture
def b_file(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text(B_TEXT)
    return str(path)


def test_construct_to_file(tmp_path, capsys):
    out = tmp_path / "a26.txt"
    code = main(["construct", "--order", "26", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "method=odd-f i=0 verified=pass\n"
    arr = read_array(out.read_text())
    assert arr == construct_odd(13, 16)


def test_construct_to_stdout_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--order", "6"]) == 0
    assert capsys.readouterr().out == write_array(construct_by_method(6)[0])
    assert list(tmp_path.iterdir()) == []


def test_construct_to_stdout(capsys):
    code = main(["construct", "--order", "24"])
    captured = capsys.readouterr()
    assert code == 0
    arr = read_array(captured.out)
    assert verify_dca(arr, strict=True).passed
    assert "method=table verified=pass" in captured.err


def test_construct_json_format(capsys):
    code = main(["construct", "--order", "34", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    obj = json.loads(captured.out)
    assert obj["kind"] == "DCA" and obj["n"] == 34


def test_construct_no_method(capsys):
    assert main(["construct", "--order", "64"]) == 3


def test_construct_usage_errors(capsys):
    assert main(["construct", "--order", "7"]) == 2
    assert main(["construct"]) == 2


def test_unknown_method_lists_the_registry(capsys):
    # The registry, not argparse, validates --method.
    assert main(["construct", "--order", "26", "--method", "nope"]) == 2
    captured = capsys.readouterr()
    names = ", ".join(["auto", *(m.name for m in METHODS)])
    assert names == "auto, table, odd-f, four-m, six-mu"
    assert captured.out == ""
    assert captured.err == f"error: unknown method 'nope' (choose from {names})\n"
    assert main(["construct", "--help"]) == 0


def test_verify_golden(b_file, capsys):
    code = main(["verify", b_file, "--strict"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.endswith("verdict: pass\n")


def test_verify_reads_stdin(b_file, monkeypatch, capsys):
    assert main(["verify", b_file, "--strict"]) == 0
    want = capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(B_TEXT))
    assert main(["verify", "-", "--strict"]) == 0
    assert capsys.readouterr() == want


def test_verify_json(b_file, capsys):
    code = main(["verify", b_file, "--strict", "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0 and obj["verdict"] == "pass"


def test_verify_mutated(tmp_path, capsys):
    arr = read_array(B_TEXT)
    bad = mutate(arr, 0, 1, 2)
    path = tmp_path / "bad.txt"
    path.write_text(write_array(bad))
    code = main(["verify", str(path), "--strict"])
    captured = capsys.readouterr()
    assert code == 1
    assert "fail" in captured.out and "witness" not in captured.err


def test_verify_hdm_file(tmp_path, capsys):
    # An HDM file is checked as an HDM; one changed entry fails with a
    # witness on its check's line.
    arr = hdm_product(search_hdm(10, 2), dm_prime(7, 4))
    path = tmp_path / "hdm70.txt"
    path.write_text(write_array(arr))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    path.write_text(write_array(mutate(arr, 0, 1, (arr.entries[0][1] + 1) % arr.order)))
    assert main(["verify", str(path)]) == 1
    *lines, verdict = capsys.readouterr().out.splitlines()
    assert verdict == "verdict: fail"
    failed = [line for line in lines if ": fail " in line]
    assert failed and all(json.loads(line.split(": fail ", 1)[1]) for line in failed)


# Mutated files whose reports hold a witness of every check.
WITNESS_FILES = {
    # The golden DCA with entry (0, 0) set to 1: every check fails.
    "dca-all": "kind=DCA k=4 n=6 h=0 form=full\n1 1 3 0\n1 3 0 0\n2 5 4 0\n3 0 1 0\n4 2 5 0\n5 4 2 0\n0 0 0 0\n",
    # The golden DCA with entry (6, 0) set to 1: the profile still holds.
    "dca-zeros": "kind=DCA k=4 n=6 h=0 form=full\n0 1 3 0\n1 3 0 0\n2 5 4 0\n3 0 1 0\n4 2 5 0\n5 4 2 0\n1 0 0 0\n",
    # search_hdm(10, 2) with entry (0, 0) set to 5, a hole residue.
    "hdm-all": (
        "kind=HDM k=4 n=10 h=2 form=full\n"
        "5 2 3 0\n2 4 6 0\n3 9 2 0\n4 7 1 0\n6 3 9 0\n7 1 8 0\n8 6 4 0\n9 8 7 0\n"
    ),
    # search_hdm(10, 2) with entry (0, 0) set to 4: only the balance fails.
    "hdm-balance": (
        "kind=HDM k=4 n=10 h=2 form=full\n"
        "4 2 3 0\n2 4 6 0\n3 9 2 0\n4 7 1 0\n6 3 9 0\n7 1 8 0\n8 6 4 0\n9 8 7 0\n"
    ),
    # dm_prime(5, 3) with entry (0, 1) set to 3.
    "dm": "kind=DM k=3 n=5 h=0 form=full lambda=1\n1 3 0\n2 4 0\n3 1 0\n4 3 0\n0 0 0\n",
}

DCA_ALL_STRICT_JSON = (
    '{"verdict": "fail", "checks": ['
    '{"name": "coverage", "pass": false, "witness": {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}}, '
    '{"name": "zero-twice-per-column", "pass": false, '
    '"witness": {"column": 0, "residue": 0, "expected": 2, "actual": 1}}, '
    '{"name": "difference-profile", "pass": false, '
    '"witness": {"pair": [1, 0], "residue": 0, "expected": 0, "actual": 1}}'
    '], "meta": {"rows": 7, "min_coverage": 0}}\n'
)

# ``--strict`` adds two checks on a DCA and changes nothing on an HDM or
# a DM, so those pins hold in both modes.
BOTH_MODES = ([], ["--strict"])

# (file, the flag lists, the exact stdout as text, the exact stdout as JSON)
PINNED_VERIFY = [
    (
        "dca-all",
        [[]],
        'coverage: fail {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}\nverdict: fail\n',
        '{"verdict": "fail", "checks": ['
        '{"name": "coverage", "pass": false, "witness": {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}}'
        '], "meta": {"rows": 7, "min_coverage": 0}}\n',
    ),
    (
        "dca-all",
        [["--strict"]],
        'coverage: fail {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}\n'
        'zero-twice-per-column: fail {"column": 0, "residue": 0, "expected": 2, "actual": 1}\n'
        'difference-profile: fail {"pair": [1, 0], "residue": 0, "expected": 0, "actual": 1}\n'
        "verdict: fail\n",
        DCA_ALL_STRICT_JSON,
    ),
    (
        "dca-zeros",
        [[]],
        'coverage: fail {"pair": [1, 0], "residue": 0, "expected": 1, "actual": 0}\nverdict: fail\n',
        '{"verdict": "fail", "checks": ['
        '{"name": "coverage", "pass": false, "witness": {"pair": [1, 0], "residue": 0, "expected": 1, "actual": 0}}'
        '], "meta": {"rows": 7, "min_coverage": 0}}\n',
    ),
    (
        "dca-zeros",
        [["--strict"]],
        'coverage: fail {"pair": [1, 0], "residue": 0, "expected": 1, "actual": 0}\n'
        'zero-twice-per-column: fail {"column": 0, "residue": 0, "expected": 2, "actual": 1}\n'
        "difference-profile: pass\n"
        "verdict: fail\n",
        '{"verdict": "fail", "checks": ['
        '{"name": "coverage", "pass": false, "witness": {"pair": [1, 0], "residue": 0, "expected": 1, "actual": 0}}, '
        '{"name": "zero-twice-per-column", "pass": false, '
        '"witness": {"column": 0, "residue": 0, "expected": 2, "actual": 1}}, '
        '{"name": "difference-profile", "pass": true, "witness": null}'
        '], "meta": {"rows": 7, "min_coverage": 0}}\n',
    ),
    (
        "hdm-all",
        BOTH_MODES,
        'hole-avoidance: fail {"pair": [3, 0], "residue": 5, "expected": 0, "actual": 1}\n'
        'difference-balance: fail {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}\n'
        'hole-entries-confined: fail {"column": 0, "residue": 5, "expected": 0, "actual": 1}\n'
        "verdict: fail\n",
        '{"verdict": "fail", "checks": ['
        '{"name": "hole-avoidance", "pass": false, '
        '"witness": {"pair": [3, 0], "residue": 5, "expected": 0, "actual": 1}}, '
        '{"name": "difference-balance", "pass": false, '
        '"witness": {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}}, '
        '{"name": "hole-entries-confined", "pass": false, '
        '"witness": {"column": 0, "residue": 5, "expected": 0, "actual": 1}}'
        '], "meta": {"lambda": 1}}\n',
    ),
    (
        "hdm-balance",
        BOTH_MODES,
        "hole-avoidance: pass\n"
        'difference-balance: fail {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}\n'
        "hole-entries-confined: pass\n"
        "verdict: fail\n",
        '{"verdict": "fail", "checks": ['
        '{"name": "hole-avoidance", "pass": true, "witness": null}, '
        '{"name": "difference-balance", "pass": false, '
        '"witness": {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}}, '
        '{"name": "hole-entries-confined", "pass": true, "witness": null}'
        '], "meta": {"lambda": 1}}\n',
    ),
    (
        "dm",
        BOTH_MODES,
        'difference-balance: fail {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}\nverdict: fail\n',
        '{"verdict": "fail", "checks": ['
        '{"name": "difference-balance", "pass": false, '
        '"witness": {"pair": [1, 0], "residue": 1, "expected": 1, "actual": 0}}'
        '], "meta": {"lambda": 1}}\n',
    ),
]


@pytest.mark.parametrize(
    "name, modes, text, js",
    PINNED_VERIFY,
    ids=[f"{name}{'-strict' if modes == [['--strict']] else ''}" for name, modes, _, _ in PINNED_VERIFY],
)
def test_verify_stdout_bytes(name, modes, text, js, tmp_path, capsys):
    # The exact bytes of every witness: its keys, their order and spacing.
    path = tmp_path / f"{name}.txt"
    path.write_text(WITNESS_FILES[name])
    for flags in modes:
        assert main(["verify", str(path), *flags]) == 1, flags
        assert capsys.readouterr() == (text, ""), flags
        assert main(["verify", str(path), *flags, "--format", "json"]) == 1, flags
        assert capsys.readouterr() == (js, ""), flags


def test_latin_failing_input_stderr_bytes(tmp_path, capsys):
    path = tmp_path / "dca-all.txt"
    path.write_text(WITNESS_FILES["dca-all"])
    assert main(["latin", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: input fails strict verification: " + DCA_ALL_STRICT_JSON)


def test_verify_checks_the_lambda_header(tmp_path, capsys):
    # An HDM's lambda is rows/(n-h); a DCA has none to declare.
    hdm = write_array(search_hdm(10, 2)).replace("form=full", "form=full lambda={}", 1)
    reduced = write_array(construct_odd(13, 16)).replace("form=reduced", "form=reduced lambda=7", 1)
    path = tmp_path / "a.txt"
    for text, code, err in [
        (hdm.format(1), 0, ""),
        (hdm.format(5), 2, "error: lambda=5 inconsistent with 8 rows over Z_10 with hole 2\n"),
        (B_TEXT.replace("form=full", "form=full lambda=1"), 2, "error: a DCA header carries no lambda\n"),
        (reduced, 2, "error: a DCA header carries no lambda\n"),
    ]:
        path.write_text(text)
        assert main(["verify", str(path)]) == code, text
        assert capsys.readouterr().err == err, text
    obj = json.loads(write_array(read_array(B_TEXT), fmt="json"))
    path.write_text(json.dumps({**obj, "lambda": 1}))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: a DCA header carries no lambda\n"


def test_verify_truncated(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(B_TEXT.splitlines()[:-1]) + "\n")
    assert main(["verify", str(path)]) == 2


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/x.txt"]) == 2


def test_search_order(capsys):
    code = main(["search", "--order", "6", "--limit", "1"])
    captured = capsys.readouterr()
    assert code == 0
    arr = read_array(captured.out)
    assert verify_dca(arr, strict=True).passed
    status = [json.loads(line) for line in captured.err.splitlines()]
    assert status and status[-1]["solutions"] == 1


@pytest.mark.parametrize(
    "argv, depth, message",
    [
        (["--hdm", "30,6"], 24, "no HDM(4,30;6) within 50000 nodes"),
        (["--order", "22"], 22, "no solution within 50000 nodes"),
    ],
    ids=["hdm", "third"],
)
def test_search_budget_ends_with_a_final_event(argv, depth, message, capsys):
    assert main(["search", *argv, "--budget", "50000", "--status-interval", "20000"]) == 3
    *events, error = capsys.readouterr().err.splitlines()
    assert error == f"error: {message}"
    events = [json.loads(line) for line in events]
    assert [e["nodes"] for e in events] == [20000, 40000, 50000]
    assert events[-1] == {"nodes": 50000, "depth": depth, "solutions": 0, "reason": "budget"}


def test_search_order_limit_separates_arrays(capsys):
    # Each array found is printed in turn, with a blank line between two.
    # Order 10 has four third columns (order 8 has one).
    assert main(["search", "--order", "10", "--limit", "2"]) == 0
    arrays = [dca_from_third_column(col) for col in search_third_column(10, result_limit=2)]
    assert len(arrays) == 2
    assert capsys.readouterr().out == "\n".join(map(write_array, arrays))


def test_search_order_prints_one_array_by_default(capsys):
    # Order 10 has four third columns; without --limit only the first is printed.
    assert main(["search", "--order", "10"]) == 0
    first = search_third_column(10, result_limit=1)[0]
    assert capsys.readouterr().out == write_array(dca_from_third_column(first))


@pytest.mark.parametrize("argv", [["--order", "2400"], ["--hdm", "2400,2"], ["--order", "20000"]])
def test_search_past_the_recursion_limit_is_a_usage_error(argv, capsys):
    code = main(["search", *argv])
    captured = capsys.readouterr()
    _assert_usage_error(code, captured)
    assert captured.err.count("\n") == 1 and "recursion limit" in captured.err


def test_search_budget_exhausted(capsys):
    assert main(["search", "--order", "24", "--budget", "1"]) == 3


def test_search_hdm(capsys):
    code = main(["search", "--hdm", "10,2"])
    captured = capsys.readouterr()
    assert code == 0
    arr = read_array(captured.out)
    assert arr.kind.value == "HDM" and arr.hole == 2


def test_search_hdm_no_solution(capsys):
    assert main(["search", "--hdm", "10,5"]) == 3


def test_search_usage(capsys):
    for argv in (
        [],
        ["--hdm", "banana"],
        ["--order", "9"],
        ["--hdm", "10,0"],
        ["--hdm", "11,2"],
        ["--order", "6", "--budget", "0"],
        ["--order", "6", "--limit", "0"],
        ["--order", "10", "--status-interval", "-1"],
        ["--hdm", "10,2", "--status-interval", "-1"],
        # Exactly one mode, and --limit only with --order.
        ["--limit", "1"],
        ["--order", "9", "--hdm", "10,2"],
        ["--hdm", "10,2", "--order", "6"],
        ["--hdm", "10,2", "--limit", "1"],
        ["--hdm", "10,2", "--limit", "0"],
        ["--hdm", "10,2", "--limit", "-5"],
    ):
        assert main(["search", *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err, argv
    assert main(["search", "--hdm", "10,2", "--limit", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --limit applies to --order searches only\n")
    # With two bad values the budget is the one reported.
    for argv in (["--order", "4", "--budget", "0"], ["--hdm", "10,0", "--budget", "0"]):
        assert main(["search", *argv]) == 2, argv
        assert capsys.readouterr() == ("", "error: node budget must be positive, got 0\n"), argv


def test_latin_classify(b_file, capsys):
    code = main(["latin", b_file, "--classify"])
    captured = capsys.readouterr()
    assert code == 0
    for pair in ("0 1", "0 2", "1 2"):
        assert f"classify {pair} NearlyOrthogonal" in captured.out


def test_latin_williams(b_file, capsys):
    code = main(["latin", b_file, "--williams"])
    captured = capsys.readouterr()
    assert code == 0
    for s in range(3):
        assert f"row-complete {s} pass" in captured.out


def test_latin_json(b_file, capsys):
    code = main(["latin", b_file, "--classify", "--williams", "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0
    assert obj["row_complete"] == [True, True, True]
    assert obj["classification"][0][1] == "NearlyOrthogonal"
    assert len(obj["squares"]) == 3


def test_latin_single_square(b_file, capsys):
    code = main(["latin", b_file, "--square", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("kind=LS n=6\n1 2 3 4 5 0\n")
    for bad in ("x", "3", "-1"):
        assert main(["latin", b_file, "--square", bad]) == 2, bad
        assert "error:" in capsys.readouterr().err, bad


def test_latin_rejects_failing_input(tmp_path, capsys):
    arr = read_array(B_TEXT)
    path = tmp_path / "bad.txt"
    path.write_text(write_array(mutate(arr, 0, 1, 2)))
    assert main(["latin", str(path)]) == 1


def naive_latin_stdout(reduced, indices, fmt: str) -> str:
    """What ``latin --classify --williams`` prints, rendered from cell-by-cell
    grids and the grid oracle's verdicts."""
    n = reduced.order
    columns = list(zip(*reduced.entries))
    squares = [oracle.cyclic_grid(n, columns[s]) for s in indices]
    ordering = williams_order(n)
    labels = [[oracle.classify(a, b).value for b in squares] for a in squares]
    complete = [oracle.check_row_complete(sq, ordering).passed for sq in squares]
    if fmt == "json":
        obj = {
            "order": n,
            "square_indices": indices,
            "squares": [[list(row) for row in sq.grid] for sq in squares],
            "ordering": ordering,
            "row_complete": complete,
            "classification": labels,
        }
        return json.dumps(obj) + "\n"
    out = []
    for sq in squares:
        out.append(f"kind=LS n={n}\n")
        out.extend(" ".join(str(v) for v in row) + "\n" for row in sq.grid)
    for a, si in enumerate(indices):
        for b, sj in enumerate(indices):
            if si < sj:
                out.append(f"classify {si} {sj} {labels[a][b]}\n")
    out.append("ordering " + " ".join(str(v) for v in ordering) + "\n")
    for s, ok in zip(indices, complete):
        out.append(f"row-complete {s} {'pass' if ok else 'fail'}\n")
    return "".join(out)


@pytest.mark.parametrize("order", [34, 40, 26])  # six-mu, four-m, odd-f
def test_latin_stdout_matches_naive_rendering(order, tmp_path, capsys):
    arr, _ = construct_by_method(order)
    assert arr.form is Form.REDUCED
    path = tmp_path / f"dca{order}.txt"
    path.write_text(write_array(arr))
    for fmt in ("text", "json"):
        code = main(["latin", str(path), "--classify", "--williams", "--format", fmt])
        assert code == 0
        assert capsys.readouterr().out == naive_latin_stdout(arr, [0, 1, 2], fmt), fmt
    assert main(["latin", str(path), "--square", "1"]) == 0
    square = oracle.cyclic_grid(order, [row[1] for row in arr.entries])
    want = f"kind=LS n={order}\n" + "".join(" ".join(map(str, row)) + "\n" for row in square.grid)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["verify", "latin"])
def test_non_utf8_input_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    assert main([command, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def _assert_usage_error(code: int, captured) -> None:
    assert code == 2
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_construct_unwritable_out_is_a_usage_error(capsys):
    code = main(["construct", "--order", "26", "--out", "/nonexistent/dir/x.txt"])
    _assert_usage_error(code, capsys.readouterr())


def test_latin_on_dm_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "dm7.txt"
    path.write_text(write_array(dm_prime(7, 4)))
    code = main(["latin", str(path)])
    assert (code, capsys.readouterr()) == (2, ("", "error: latin derivation needs a DCA, got DM\n"))


def test_latin_on_single_column_dca_is_a_usage_error(tmp_path, capsys):
    # A strict full DCA with k=1 reduces to zero columns: no square to derive.
    path = tmp_path / "k1.txt"
    path.write_text("kind=DCA k=1 n=2 h=0 form=full\n0\n0\n0\n")
    assert main(["verify", str(path), "--strict"]) == 0
    capsys.readouterr()
    code = main(["latin", str(path)])
    _assert_usage_error(code, capsys.readouterr())


_ODD5 = "kind=DCA k=3 n=5 h=0 form=full\n" + "0 0 0\n" * 6
# The order-6 DCA with a 1 at the foot of its zero column: it passes
# strict verification but has no reduced form.
_UNNORMALIZED6 = "kind=DCA k=4 n=6 h=0 form=full\n0 1 3 0\n1 3 0 0\n2 5 4 0\n3 0 1 0\n4 2 5 0\n5 4 2 0\n0 0 0 1\n"


@pytest.mark.parametrize(
    "argv, text, code, err",
    [
        (["verify", "{}", "--strict"], _ODD5, 1, "strict checks need even order, got 5"),
        (["latin", "{}"], _ODD5, 1, "strict checks need even order, got 5"),
        (["latin", "{}"], _UNNORMALIZED6, 1, "last row and last column must be all zero"),
        (["construct", "--order", "38"], "", 3, "no implemented family covers order 38"),
        (["construct", "--order", "26", "--method", "table"], "", 3, "no table family covers order 26"),
    ],
    ids=["verify-odd", "latin-odd", "latin-unnormalized", "construct-auto", "construct-table"],
)
def test_failure_exit_code_and_stderr(argv, text, code, err, tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(text)
    if text == _UNNORMALIZED6:
        assert main(["verify", str(path), "--strict"]) == 0
        capsys.readouterr()
    assert main([arg.format(path) for arg in argv]) == code
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_verify_rejects_float_json_fields(tmp_path, capsys):
    # int() would truncate n 6.9 to 6 and the entry 0.7 to 0, passing the golden array.
    obj = json.loads(write_array(read_array(B_TEXT), fmt="json"))
    obj["n"] = 6.9
    obj["entries"][0][0] = 0.7
    path = tmp_path / "float.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", str(path), "--strict"])
    _assert_usage_error(code, capsys.readouterr())


def _pinned_spectrum() -> list[dict]:
    return json.loads((Path(__file__).parent / "data" / "spectrum_6_360.json").read_text())


def test_spectrum_stdout_bytes(capsys):
    pinned = _pinned_spectrum()
    assert main(["spectrum", "--min", "6", "--max", "360"]) == 0
    assert capsys.readouterr().out == json.dumps(pinned) + "\n"
    assert main(["spectrum", "--min", "6", "--max", "360", "--format", "csv"]) == 0
    want = "order,methods,status,source\n" + "".join(
        f"{e['order']},{';'.join(e['constructible_by'])},{e['status']},{e['source']}\n"
        for e in pinned
    )
    assert capsys.readouterr().out == want


def test_spectrum_report_is_lazy():
    entries = spectrum_report(6, 360)
    assert iter(entries) is entries
    first = next(iter(spectrum_report(6, 10**12)))
    assert first.order == 6 and first.status == "internal"


def test_spectrum_json(capsys):
    code = main(["spectrum", "--min", "6", "--max", "360"])
    entries = json.loads(capsys.readouterr().out)
    assert code == 0
    by_order = {e["order"]: e for e in entries}
    assert by_order[146]["status"] == "open"
    assert by_order[24]["constructible_by"] == ["table"]


def test_spectrum_csv(capsys):
    code = main(["spectrum", "--min", "24", "--max", "54", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "order,methods,status,source"
    assert "24,table,internal,table" in lines


def test_spectrum_bad_bounds(capsys):
    assert main(["spectrum", "--min", "10", "--max", "8"]) == 2
    assert main(["spectrum", "--min", "7", "--max", "9"]) == 2
    capsys.readouterr()
    assert main(["spectrum", "--min", "9", "--max", "10"]) == 2
    assert capsys.readouterr().err == "error: bounds must be even, got 9..10\n"


def test_stdout_byte_identical(b_file, capsys):
    main(["latin", b_file, "--classify", "--williams"])
    first = capsys.readouterr().out
    main(["latin", b_file, "--classify", "--williams"])
    second = capsys.readouterr().out
    assert first == second

    main(["spectrum", "--min", "6", "--max", "100"])
    first = capsys.readouterr().out
    main(["spectrum", "--min", "6", "--max", "100"])
    second = capsys.readouterr().out
    assert first == second


def test_help_exits_zero():
    assert main(["--help"]) == 0


def _run_python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(diffcover.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=60
    )


def test_python_m_matches_main(capsys):
    code = main(["construct", "--order", "26"])
    want = capsys.readouterr().out
    proc = _run_python("-m", "diffcover", "construct", "--order", "26")
    assert (proc.returncode, proc.stdout) == (code, want)


def test_cli_import_loads_no_dataclasses():
    proc = _run_python("-c", "import sys, diffcover.cli; print(*sys.modules)")
    loaded = set(proc.stdout.split())
    assert {name for name in loaded if name.startswith("diffcover")} == {
        "diffcover",
        "diffcover.core",
        "diffcover.cli",
    }
    assert not loaded & {"dataclasses", "inspect", "json"}


# The modules of the package, and json, that each command runs; a
# command loads no other of them.
CHECKED_MODULES = {
    "dataclasses",
    "inspect",
    "json",
    "diffcover.construct",
    "diffcover.latin",
    "diffcover.search",
    "diffcover.tables",
    "diffcover.verify",
}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["spectrum", "--min", "6", "--max", "6"], "construct tables json"),
        (["spectrum", "--min", "6", "--max", "6", "--format", "csv"], "construct tables"),
        (["construct", "--order", "26"], "construct tables verify"),
        (["construct", "--order", "26", "--format", "json"], "construct tables verify json"),
        (["verify", "{b_file}", "--strict"], "verify"),
        (["verify", "{b_json}", "--strict"], "verify json"),
        (["verify", "{b_file}", "--format", "json"], "verify json"),
        (["latin", "{b_file}", "--classify", "--williams"], "latin verify"),
        (["latin", "{b_file}", "--format", "json"], "latin verify json"),
        (["search", "--order", "14"], "search tables verify json"),
        (["search", "--hdm", "14,2"], "search tables verify json"),
    ],
    ids=[
        "spectrum", "spectrum-csv", "construct", "construct-json", "verify", "verify-json-file",
        "verify-json-report", "latin", "latin-json", "search", "search-hdm",
    ],
)
def test_commands_import_only_their_modules(argv, loads, b_file, tmp_path):
    # Which modules a command loads, read off sys.modules after it ran.
    b_json = tmp_path / "b.json"
    b_json.write_text(write_array(read_array(B_TEXT), fmt="json"))
    script = (
        "import sys\n"
        "from diffcover.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *sorted(sys.modules), file=sys.stderr)\n"
    )
    argv = [arg.format(b_file=b_file, b_json=b_json) for arg in argv]
    proc = _run_python("-c", script, *argv)
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0"
    assert proc.stdout
    want = {name if name == "json" else f"diffcover.{name}" for name in loads.split()}
    assert CHECKED_MODULES.intersection(loaded) == want


def test_a_layer_name_replaced_on_cli_is_the_one_a_command_calls():
    # The names cli binds can be read and replaced before main runs; a
    # search that finds nothing is then a no-result exit.
    script = (
        "import sys, diffcover\n"
        "from diffcover import cli\n"
        "assert all(getattr(cli, name) is getattr(diffcover, name) for name in diffcover.__all__)\n"
        "print(cli.search_third_column.__module__)\n"
        "cli.search_third_column = lambda *args, **kwargs: []\n"
        "sys.exit(cli.main(['search', '--order', '8']))\n"
    )
    proc = _run_python("-c", script)
    assert (proc.returncode, proc.stdout) == (3, "diffcover.search\n")
    assert proc.stderr == "error: search space exhausted without a solution\n"


def test_cli_has_no_other_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        diffcover.cli.no_such_name


def test_emit_array_check_survives_optimize():
    # Under -O a failing report must still stop emission.
    script = (
        "import sys\n"
        "from diffcover.cli import _emit_array\n"
        "from diffcover.core import read_array\n"
        "arr = read_array(sys.stdin.read())\n"
        "_emit_array(arr, 'text')\n"
    )
    bad = write_array(mutate(read_array(B_TEXT), 0, 1, 2))
    proc = _run_python("-O", "-c", script, stdin=bad)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "CertificationFailed" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--min", "6", "--max", "1000000"],
        ["latin", "dca610.txt", "--classify"],
        ["construct", "--order", "29998"],
    ],
    ids=["spectrum", "latin", "construct"],
)
def test_short_read_of_stdout_is_success(argv, tmp_path):
    # A reader that stops early (``| head -c 100``) is not a usage error.
    assert main(["construct", "--order", "610", "--out", str(tmp_path / "dca610.txt")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(diffcover.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "diffcover", *argv],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert len(head) == 100
    assert proc.returncode == 0
    assert b"error" not in err and b"Traceback" not in err


def test_reader_closed_before_the_flush_is_success():
    # With buffered stdout nothing reaches the pipe before main's flush, so
    # a reader that closes at once makes that flush raise; main points
    # stdout at devnull and still exits 0 without a word on stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(diffcover.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "diffcover", "spectrum", "--min", "6", "--max", "6"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize(
    "name, exc, argv, code, line",
    [
        ("search_hdm", KeyboardInterrupt, ["search", "--hdm", "22,2"], 130, "error: KeyboardInterrupt\n"),
        ("construct_by_method", MemoryError, ["construct", "--order", "26"], 3, "error: MemoryError\n"),
    ],
    ids=["interrupt", "out-of-memory"],
)
def test_errors_without_text_are_one_named_line(name, exc, argv, code, line, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(diffcover.cli, name, fail)
    assert main(argv) == code
    assert capsys.readouterr() == ("", line)
