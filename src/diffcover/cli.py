"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 budget exhausted, no method/solution or out of memory, 130 interrupted.
Arrays are always re-verified before emission, and stdout is
byte-identical across identical runs.
Each command imports only the modules it runs; ``json`` is imported
only where JSON is read or written.

A ``diffcover`` process (``run``, the console script and ``python -m
diffcover``) ends once ``main`` has returned: it runs the callbacks
registered with ``atexit``, flushes stdout and stderr, and leaves by
``os._exit`` with ``main``'s code, skipping the interpreter's teardown.
A broken pipe at that flush keeps the code and prints nothing.  Under a
profiler or tracer (one set by ``sys.setprofile``, ``sys.settrace`` or,
from Python 3.12, ``sys.monitoring``), or when ``main`` raises, the
process exits the normal way.  ``main`` itself returns its code to any
caller.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from importlib import import_module
from itertools import combinations
from typing import TYPE_CHECKING

from . import _EXPORTS, _MODULES
from .core import (
    BudgetExhausted,
    CertificationFailed,
    Form,
    Kind,
    NoSolution,
    ParseError,
    ResidueArray,
    read_array,
    to_reduced,
    write_array,
)

if TYPE_CHECKING:
    from .construct import construct_by_method, spectrum_report
    from .latin import check_row_complete, classify_pair, latin_from_dca, williams_order, write_latin
    from .search import search_hdm, search_third_column
    from .tables import dca_from_third_column
    from .verify import VerificationReport, verify_dca, verify_dm, verify_hdm

# Each command binds the modules it runs when it starts, so no command
# imports a module it does not use; the package's export table says which
# names a module defines.  Reading any public name from outside binds its
# module too (``__getattr__``), so a caller may read or replace a layer
# function beforehand; a name bound already, such as such a replacement,
# is kept.
def _bind(*modules: str) -> None:
    for module in modules:
        mod = import_module(f"{__package__}.{module}")
        for name in _MODULES[module]:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_EXPORTS[name])
    return globals()[name]


EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NO_RESULT = 3

# The one place an error becomes an exit code: ``main`` prints
# ``error: {exc}`` for any of these, or the class name when the error has
# no text (an interrupt or running out of memory), and returns the first
# matching code.  ValueError covers UnicodeDecodeError from a file that is
# not UTF-8.
EXIT_CODES: dict[type[BaseException], int] = {
    CertificationFailed: EXIT_VERIFY,
    NoSolution: EXIT_NO_RESULT,
    BudgetExhausted: EXIT_NO_RESULT,
    ParseError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    MemoryError: EXIT_NO_RESULT,
    KeyboardInterrupt: 130,  # the shell's code for an interrupt, 128 + SIGINT
}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _report_lines(report: VerificationReport) -> str:
    lines = []
    for check in report.checks:
        line = f"{check.name}: {'pass' if check.passed else 'fail'}"
        if check.witness is not None:
            import json

            line += f" {json.dumps(check.witness)}"
        lines.append(line)
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def _verify_for_kind(arr: ResidueArray, strict: bool) -> VerificationReport:
    if arr.kind is Kind.DM:
        return verify_dm(arr)
    if arr.kind is Kind.HDM:
        return verify_hdm(arr)
    return verify_dca(arr, strict=strict)


def _emit_array(arr: ResidueArray, fmt: str, out: str = "-") -> None:
    # Each array is verified by its kind; emitting a failing one is a bug.
    _bind("verify")
    report = _verify_for_kind(arr, strict=True)
    if not report.passed:
        raise CertificationFailed(f"attempted to emit a failing array: {report.to_json()}")
    payload = write_array(arr, fmt=fmt)
    if out == "-":
        sys.stdout.write(payload)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(payload)


def cmd_construct(args: argparse.Namespace) -> int:
    _bind("construct")
    arr, tag = construct_by_method(args.order, args.method)
    _emit_array(arr, args.format, args.out)
    # _emit_array raises on any other verdict.
    summary = f"method={tag} verified=pass"
    # The summary goes to whichever stream the array does not.
    print(summary, file=sys.stderr if args.out == "-" else sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _bind("verify")
    arr = read_array(_read_input(args.file))
    report = _verify_for_kind(arr, args.strict)
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(_report_lines(report))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_search(args: argparse.Namespace) -> int:
    import json

    _bind("search")

    def status(payload: dict[str, int]) -> None:
        sys.stderr.write(json.dumps(payload) + "\n")

    if args.hdm is not None:
        if args.limit is not None:
            raise ValueError("--limit applies to --order searches only")
        try:
            n, h = (int(tok) for tok in args.hdm.split(","))
        except ValueError:
            raise ValueError(f"--hdm expects n,h, got {args.hdm!r}") from None
        arr = search_hdm(
            n, h, node_budget=args.budget, status_interval=args.status_interval, status=status
        )
        _emit_array(arr, args.format)
        return EXIT_OK
    columns = search_third_column(
        args.order,
        node_budget=args.budget,
        result_limit=1 if args.limit is None else args.limit,
        status_interval=args.status_interval,
        status=status,
    )
    if not columns:
        raise NoSolution("search space exhausted without a solution")
    _bind("tables")
    for i, col2 in enumerate(columns):
        if i:
            sys.stdout.write("\n")
        _emit_array(dca_from_third_column(col2), args.format)
    return EXIT_OK


def cmd_latin(args: argparse.Namespace) -> int:
    _bind("latin", "verify")
    arr = read_array(_read_input(args.file))
    if arr.kind is not Kind.DCA:
        raise ValueError(f"latin derivation needs a DCA, got {arr.kind.value}")
    report = verify_dca(arr, strict=True)
    if not report.passed:
        raise CertificationFailed(f"input fails strict verification: {report.to_json()}")
    reduced = to_reduced(arr) if arr.form is Form.FULL else arr
    if args.square == "all":
        indices = list(range(reduced.columns))
    elif args.square.isdecimal() and int(args.square) < reduced.columns:
        indices = [int(args.square)]
    else:
        raise ValueError(f"--square must be 'all' or an index in [0, {reduced.columns})")
    squares = [latin_from_dca(reduced, s) for s in indices]
    n = reduced.order
    ordering = williams_order(n) if args.williams else None
    row_complete = None
    if ordering is not None:
        row_complete = [check_row_complete(sq, ordering).passed for sq in squares]
    if args.format == "json":
        import json

        obj: dict[str, object] = {
            "order": n,
            "square_indices": indices,
            "squares": [sq.grid for sq in squares],
        }
        if ordering is not None:
            obj["ordering"] = ordering
            obj["row_complete"] = row_complete
        if args.classify:
            obj["classification"] = [
                [classify_pair(a, b).value for b in squares] for a in squares
            ]
        sys.stdout.write(json.dumps(obj) + "\n")
        return EXIT_OK
    for sq in squares:
        sys.stdout.write(write_latin(sq))
    if args.classify:
        # Text mode prints each unordered pair once, so classify only those.
        for (si, a), (sj, b) in combinations(zip(indices, squares), 2):
            sys.stdout.write(f"classify {si} {sj} {classify_pair(a, b).value}\n")
    if ordering is not None:
        sys.stdout.write("ordering " + " ".join(str(v) for v in ordering) + "\n")
        for s, ok in zip(indices, row_complete):
            sys.stdout.write(f"row-complete {s} {'pass' if ok else 'fail'}\n")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    _bind("construct")
    entries = spectrum_report(args.min, args.max)
    write = sys.stdout.write
    if args.format == "csv":
        write("order,methods,status,source\n")
        for e in entries:
            write(f"{e.order},{';'.join(e.constructible_by)},{e.status},{e.source}\n")
        return EXIT_OK
    import json

    # Element by element, the same bytes as json.dumps of the whole list.
    write("[")
    for i, e in enumerate(entries):
        write((", " if i else "") + json.dumps(e._asdict()))
    write("]\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcover",
        description="Construct, verify, and search cyclic difference covering arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="construct a strict DCA of a given order")
    p.add_argument("--order", type=int, required=True)
    # construct_by_method checks the name against its registry.
    p.add_argument("--method", default="auto", help="'auto' or a construction method name")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify an array file")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search third columns or small HDMs")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--order", type=int)
    mode.add_argument("--hdm", metavar="N,H")
    p.add_argument("--limit", type=int, help="third columns to find with --order (default 1)")
    p.add_argument("--budget", type=int, default=10**9)
    p.add_argument("--status-interval", type=int, default=1_000_000)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("latin", help="derive Latin squares from a strict DCA")
    p.add_argument("file")
    p.add_argument("--square", default="all", help="column index or 'all'")
    p.add_argument("--williams", action="store_true")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_latin)

    p = sub.add_parser("spectrum", help="spectrum bookkeeping for a range of even orders")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, which is not a failure.
        _drop_stdout()
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


def _drop_stdout() -> None:
    # Point stdout at devnull, so no later flush can fail again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run() -> None:
    code = main()
    # A profiler or tracer reports at the normal exit.  From Python 3.12
    # cProfile registers through sys.monitoring, not sys.setprofile.
    mon = getattr(sys, "monitoring", None)
    watched = mon and (mon.get_tool(mon.PROFILER_ID) or mon.get_tool(mon.DEBUGGER_ID))
    if watched or sys.getprofile() or sys.gettrace():
        sys.exit(code)
    # The interpreter's own order: the atexit callbacks, then the flush, so
    # a callback's output is written too.
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
