"""The shared array model for difference designs.

One rectangular array type carries the three design kinds used throughout:
difference matrices (DM), holey difference matrices (HDM) and difference
covering arrays (DCA), all over the cyclic group Z_n.  Entries are stored
as canonical residues in [0, n); piecewise construction formulas are
evaluated in ordinary integers and reduced once on entry.  The defining
properties of all three are read off difference counts: how often each
residue occurs as a difference of two columns (:func:`diff_counts`).
"""

from __future__ import annotations

import json
from enum import Enum
from operator import sub
from typing import Callable, Iterable, NamedTuple


class DesignError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(DesignError):
    """Malformed array file: bad header, row shape, or out-of-range entry."""


class NotNormalized(DesignError):
    """Array lacks the all-zero last row/column required by the operation."""


class BudgetExhausted(DesignError):
    """Node budget ran out before any result was found."""


class InfeasibleFixedColumns(DesignError):
    """The fixed column pair violates the difference profile."""


class NoSolution(DesignError):
    """The full search space was exhausted without a solution."""


class Record:
    """Base of the validated records.  Listed before a NamedTuple of the
    fields, it runs the subclass's ``_check`` on every construction,
    ``_make`` and ``_replace`` included; a failing check raises."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Kind(str, Enum):
    DM = "DM"
    HDM = "HDM"
    DCA = "DCA"


class Form(str, Enum):
    FULL = "full"
    REDUCED = "reduced"


class _ResidueArray(NamedTuple):
    kind: Kind
    order: int
    hole: int
    form: Form
    entries: tuple[tuple[int, ...], ...]


class ResidueArray(Record, _ResidueArray):
    """Rectangular array of residues mod ``order`` with design metadata.

    ``hole`` is 0 for DM/DCA; for an HDM it is the order h of the hole
    subgroup H = {0, u, 2u, ...} with u = order/h.  ``form`` is reduced
    only for DCAs (the all-zero last row and column stripped).
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        if not self.entries:
            raise ValueError("array must have at least one row")
        width = len(self.entries[0])
        if width < 1:
            raise ValueError("array must have at least one column")
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            for v in row:
                if not 0 <= v < self.order:
                    raise ValueError(f"entry {v} outside [0, {self.order})")
        if self.kind is Kind.HDM:
            if not 1 <= self.hole < self.order:
                raise ValueError(f"HDM hole must satisfy 1 <= h < n, got {self.hole}")
            if self.order % self.hole:
                raise ValueError(f"hole {self.hole} does not divide order {self.order}")
            if self.form is not Form.FULL:
                raise ValueError("HDM arrays are always in full form")
        else:
            if self.hole != 0:
                raise ValueError(f"{self.kind.value} arrays carry no hole")
        if self.form is Form.REDUCED and self.kind is not Kind.DCA:
            raise ValueError("reduced form applies to DCA arrays only")

    @classmethod
    def from_rows(
        cls,
        kind: Kind,
        order: int,
        rows: Iterable[Iterable[int]],
        hole: int = 0,
        form: Form = Form.FULL,
    ) -> ResidueArray:
        return cls(kind, order, hole, form, tuple(tuple(r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def columns(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.columns:
            raise IndexError(f"column {j} outside [0, {self.columns})")
        return tuple(row[j] for row in self.entries)

    @property
    def is_normalized(self) -> bool:
        """True when the last row and last column are all zero."""
        return all(v == 0 for v in self.entries[-1]) and all(
            row[-1] == 0 for row in self.entries
        )


def diff_counts(x: Iterable[int], y: Iterable[int], n: int) -> list[int]:
    """Difference counts of two columns: entry d is the number of paired
    entries with x_i - y_i = d mod n."""
    counts = [0] * n
    for d in map(sub, x, y):
        counts[d % n] += 1
    return counts


def to_reduced(a: ResidueArray) -> ResidueArray:
    """Strip the all-zero last row and column of a normalized full DCA."""
    if a.kind is not Kind.DCA or a.form is not Form.FULL:
        raise ValueError("to_reduced expects a full-form DCA")
    if not a.is_normalized:
        raise NotNormalized("last row and last column must be all zero")
    entries = tuple(row[:-1] for row in a.entries[:-1])
    return ResidueArray(Kind.DCA, a.order, 0, Form.REDUCED, entries)


def to_full(a: ResidueArray) -> ResidueArray:
    """Append an all-zero column and an all-zero row to a reduced DCA."""
    if a.form is not Form.REDUCED:
        raise ValueError("to_full expects a reduced-form DCA")
    entries = tuple(row + (0,) for row in a.entries) + (
        tuple(0 for _ in range(a.columns + 1)),
    )
    return ResidueArray(Kind.DCA, a.order, 0, Form.FULL, entries)


_HEADER_KEYS = ("kind", "k", "n", "h", "form", "lambda")


def write_array(a: ResidueArray, fmt: str = "text") -> str:
    """Serialize an array; ``fmt`` is "text" or "json".

    Output is canonical, so identical arrays serialize to identical bytes
    and read/write round trips are exact.
    """
    lam = a.rows // a.order if a.kind is Kind.DM and a.rows % a.order == 0 else None
    if fmt == "json":
        obj: dict[str, object] = {
            "kind": a.kind.value,
            "k": a.columns,
            "n": a.order,
            "h": a.hole,
            "form": a.form.value,
        }
        if lam is not None:
            obj["lambda"] = lam
        obj["entries"] = [list(row) for row in a.entries]
        return json.dumps(obj) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    header = f"kind={a.kind.value} k={a.columns} n={a.order} h={a.hole} form={a.form.value}"
    if lam is not None:
        header += f" lambda={lam}"
    # One format string per row: "%d %d %d" for three columns.
    row = " ".join(["%d"] * a.columns)
    return "\n".join([header, *map(row.__mod__, a.entries)]) + "\n"


def _json_int(v: object) -> int:
    if type(v) is not int:
        raise ParseError(f"expected a JSON integer, got {type(v).__name__}")
    return v


def _build(fields: dict, rows: Iterable[Iterable], number: Callable[[object], int] = int) -> ResidueArray:
    """The one validator behind both file formats: header ``fields`` and
    entry ``rows`` in, a checked array or ParseError out.  ``number``
    converts each header count and entry (``int`` for text tokens)."""
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
        arr = ResidueArray(kind, n, h, form, tuple(entries))
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc
    # The array checks above guarantee n >= 1 and 1 <= h < n, so the
    # divisions below are safe.
    count = arr.rows
    if kind is Kind.DCA:
        want = n + 1 if form is Form.FULL else n
        if count != want:
            raise ParseError(f"{form.value} DCA over Z_{n} needs {want} rows, got {count}")
    elif kind is Kind.HDM:
        if count % (n - h):
            raise ParseError(f"HDM over Z_{n} with hole {h} needs a multiple of {n - h} rows, got {count}")
    else:
        if count % n:
            raise ParseError(f"DM over Z_{n} needs a multiple of {n} rows, got {count}")
        if lam is not None and count != lam * n:
            raise ParseError(f"lambda={lam} inconsistent with {count} rows over Z_{n}")
    return arr


def read_array(text: str) -> ResidueArray:
    """Parse an array from its text or JSON serialization.

    Text files may carry ``#`` comments; the first content line is the
    header.  JSON counts and entries must be JSON integers.  Row counts
    must match the declared kind and form.
    """
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
        if not sep or key not in _HEADER_KEYS or key in fields:
            raise ParseError(f"bad header token {token!r}")
        fields[key] = value
    return _build(fields, (line.split() for line in lines))
