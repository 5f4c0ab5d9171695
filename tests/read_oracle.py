"""Reference parser for the property tests: ``read_array`` written the
plain, line-by-line way.

Every text line has its comment stripped and is skipped when blank; the
first remaining line is the header, and each later one is split and
converted token by token, with the row width checked as it goes.  JSON
entries go through the same loop with ``_json_int``.  Nothing here takes
a fast path, so ``diffcover.core.read_array`` must agree with it on every
input: the same array, or a ParseError with the same message.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from diffcover.core import Form, Kind, ParseError, ResidueArray

HEADER_KEYS = ("kind", "k", "n", "h", "form", "lambda")


def _json_int(v: object) -> int:
    if type(v) is not int:
        raise ParseError(f"expected a JSON integer, got {type(v).__name__}")
    return v


def _build(fields: dict, rows: Iterable[Iterable], number: Callable[[object], int] = int) -> ResidueArray:
    missing = [k for k in ("kind", "k", "n", "h", "form") if k not in fields]
    if missing:
        raise ParseError(f"header missing {', '.join(missing)}")
    try:
        kind, form = Kind(fields["kind"]), Form(fields["form"])
        k, n, h = number(fields["k"]), number(fields["n"]), number(fields["h"])
        lam = number(fields["lambda"]) if "lambda" in fields else None
        entries = []
        for row in rows:
            row = tuple(map(number, row))
            if len(row) != k:
                raise ParseError(f"row {len(entries)} has {len(row)} entries, expected {k}")
            entries.append(row)
        arr = ResidueArray.from_rows(kind, n, entries, h, form)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc
    count = arr.rows
    if kind is Kind.DCA:
        want = n + 1 if form is Form.FULL else n
        if count != want:
            raise ParseError(f"{form.value} DCA over Z_{n} needs {want} rows, got {count}")
        if lam is not None:
            raise ParseError("a DCA header carries no lambda")
    elif kind is Kind.HDM:
        if count % (n - h):
            raise ParseError(f"HDM over Z_{n} with hole {h} needs a multiple of {n - h} rows, got {count}")
        if lam is not None and count != lam * (n - h):
            raise ParseError(f"lambda={lam} inconsistent with {count} rows over Z_{n} with hole {h}")
    else:
        if count % n:
            raise ParseError(f"DM over Z_{n} needs a multiple of {n} rows, got {count}")
        if lam is not None and count != lam * n:
            raise ParseError(f"lambda={lam} inconsistent with {count} rows over Z_{n}")
    return arr


def read_array(text: str) -> ResidueArray:
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ParseError("JSON array file must be an object")
        if "entries" not in obj:
            raise ParseError("JSON array file has no entries")
        return _build(obj, obj["entries"], _json_int)
    lines = (c for raw in text.splitlines() if (c := raw.split("#", 1)[0].strip()))
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    fields: dict[str, str] = {}
    for token in header.split():
        key, sep, value = token.partition("=")
        if not sep or key not in HEADER_KEYS or key in fields:
            raise ParseError(f"bad header token {token!r}")
        fields[key] = value
    return _build(fields, (line.split() for line in lines))
