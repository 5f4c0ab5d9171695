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

from enum import Enum
from itertools import chain
from operator import sub
from typing import Callable, Iterable, NamedTuple


class DesignError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(DesignError):
    """Malformed array file: bad header, row shape, or out-of-range entry."""


class BudgetExhausted(DesignError):
    """Node budget ran out before any result was found."""


class NoSolution(DesignError):
    """No result: no implemented method covers the order, or a search
    space was exhausted without a solution."""


class CertificationFailed(DesignError):
    """An array lacks a property its operation needs: passing verification,
    an even order for a strict check, or the zero last row and column that
    the reduced form strips."""


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
    cols: tuple[tuple[int, ...], ...]


class ResidueArray(Record, _ResidueArray):
    """Rectangular array of residues mod ``order`` with design metadata, held
    as its columns ``cols``; ``from_rows`` builds one from rows, ``entries``
    gives them back.

    ``hole`` is 0 for DM/DCA; for an HDM it is the order h of the hole
    subgroup H = {0, u, 2u, ...} with u = order/h.  ``form`` is reduced
    only for DCAs (the all-zero last row and column stripped).
    """

    __slots__ = ()

    def _check(self) -> None:
        cols, n = self.cols, self.order
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if not cols:
            raise ValueError("array must have at least one column")
        if len(set(map(len, cols))) > 1:
            raise ValueError("ragged rows")
        if not cols[0]:
            raise ValueError("array must have at least one row")
        if min(map(min, cols)) < 0 or max(map(max, cols)) >= n:
            v = next(v for row in zip(*cols) for v in row if not 0 <= v < n)
            raise ValueError(f"entry {v} outside [0, {n})")
        if self.kind is Kind.HDM:
            if not 1 <= self.hole < n:
                raise ValueError(f"HDM hole must satisfy 1 <= h < n, got {self.hole}")
            if n % self.hole:
                raise ValueError(f"hole {self.hole} does not divide order {n}")
        else:
            if self.hole != 0:
                raise ValueError(f"{self.kind.value} arrays carry no hole")
        if self.form is Form.REDUCED and self.kind is not Kind.DCA:
            raise ValueError("reduced form applies to DCA arrays only")
        # The row count of each kind: n+1 (full) or n (reduced) for a DCA,
        # a multiple of n-h for an HDM or a DM (whose hole is 0).
        count, h = len(cols[0]), self.hole
        if self.kind is Kind.DCA:
            want = n + 1 if self.form is Form.FULL else n
            if count != want:
                raise ValueError(f"{self.form.value} DCA over Z_{n} needs {want} rows, got {count}")
        elif count % (n - h):
            hole = f" with hole {h}" if h else ""
            raise ValueError(f"{self.kind.value} over Z_{n}{hole} needs a multiple of {n - h} rows, got {count}")

    @classmethod
    def from_rows(
        cls,
        kind: Kind,
        order: int,
        rows: Iterable[Iterable[int]],
        hole: int = 0,
        form: Form = Form.FULL,
    ) -> ResidueArray:
        rows = tuple(map(tuple, rows))
        if len(set(map(len, rows))) > 1:  # zip would drop a longer row's extra entries
            raise ValueError("ragged rows")
        # No rows is one empty column, which the check refuses.
        return cls(kind, order, hole, form, tuple(zip(*rows)) if rows else ((),))

    @property
    def rows(self) -> int:
        return len(self.cols[0])

    @property
    def columns(self) -> int:
        return len(self.cols)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The rows, built on each read."""
        return tuple(zip(*self.cols))

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.columns:
            raise IndexError(f"column {j} outside [0, {self.columns})")
        return self.cols[j]

    @property
    def is_normalized(self) -> bool:
        """True when the last row and last column are all zero."""
        return not any(self.cols[-1]) and not any(col[-1] for col in self.cols)


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
        raise CertificationFailed("last row and last column must be all zero")
    return ResidueArray(Kind.DCA, a.order, 0, Form.REDUCED, tuple(col[:-1] for col in a.cols[:-1]))


def to_full(a: ResidueArray) -> ResidueArray:
    """Append an all-zero column and an all-zero row to a reduced DCA."""
    if a.form is not Form.REDUCED:
        raise ValueError("to_full expects a reduced-form DCA")
    cols = tuple(col + (0,) for col in a.cols) + ((0,) * (a.rows + 1),)
    return ResidueArray(Kind.DCA, a.order, 0, Form.FULL, cols)


_HEADER_KEYS = ("kind", "k", "n", "h", "form", "lambda")


def write_array(a: ResidueArray, fmt: str = "text") -> str:
    """Serialize an array; ``fmt`` is "text" or "json".

    Output is canonical, so identical arrays serialize to identical bytes
    and read/write round trips are exact.
    """
    fields: dict[str, object] = {
        "kind": a.kind.value, "k": a.columns, "n": a.order, "h": a.hole, "form": a.form.value
    }
    if a.kind is Kind.DM:
        fields["lambda"] = a.rows // a.order
    if fmt == "json":
        # Imported only for JSON, so text-only commands never load it.
        import json

        # json.dumps's bytes, one format string per row: "[%d, %d, %d]" for k = 3.
        row = "[" + ", ".join(["%d"] * a.columns) + "]"
        return f'{json.dumps(fields)[:-1]}, "entries": [{", ".join(map(row.__mod__, zip(*a.cols)))}]}}\n'
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    header = " ".join(f"{key}={value}" for key, value in fields.items())
    # One format string per row: "%d %d %d" for three columns.
    row = " ".join(["%d"] * a.columns)
    return "\n".join([header, *map(row.__mod__, zip(*a.cols))]) + "\n"


def _json_int(v: object) -> int:
    if type(v) is not int:
        raise ParseError(f"expected a JSON integer, got {type(v).__name__}")
    return v


def _build(
    fields: dict, rows: Iterable[Iterable], number: Callable[[object], int] = int, *, cols: tuple | None = None
) -> ResidueArray:
    """The one validator behind both file formats: header ``fields`` and
    entry ``rows`` in, a checked array or ParseError out.  ``number``
    converts each header count and entry (``int`` for text tokens).
    ``cols``, when given, are the entries already as columns of ints; the
    array's own check still range-checks every entry."""
    missing = [k for k in _HEADER_KEYS[:-1] if k not in fields]  # lambda is optional
    if missing:
        raise ParseError(f"header missing {', '.join(missing)}")
    try:
        kind, form = Kind(fields["kind"]), Form(fields["form"])
        k, n, h = number(fields["k"]), number(fields["n"]), number(fields["h"])
        lam = number(fields["lambda"]) if "lambda" in fields else None
        if cols is None:
            # Lists of k entries convert in one pass after the loop; any other row
            # converts at once, with those before it, so errors come in row order.
            flat, i = [], -1
            for i, row in enumerate(rows):
                if type(row) is not list or len(row) != k:
                    flat = list(map(number, chain(flat, row)))
                    if len(row) != k:
                        raise ParseError(f"row {i} has {len(row)} entries, expected {k}")
                else:
                    flat += row
            flat = tuple(map(number, flat))
            cols = tuple(flat[j::k] for j in range(k)) if i >= 0 else ((),)
        arr = ResidueArray(kind, n, h, form, cols)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc
    # The array checks the row count of its kind; only a header carries
    # lambda, rows/(n-h) of a DM or HDM, so it is checked here.
    if lam is not None:
        if kind is Kind.DCA:
            raise ParseError("a DCA header carries no lambda")
        if arr.rows != lam * (n - h):
            hole = f" with hole {h}" if kind is Kind.HDM else ""
            raise ParseError(f"lambda={lam} inconsistent with {arr.rows} rows over Z_{n}{hole}")
    return arr


def _json_columns(rows: object, k: object) -> tuple[tuple[int, ...], ...] | None:
    """The columns of ``rows`` when it is a list of lists of exactly ``k``
    JSON integers, else None.  ``type(v) is int`` rejects ``true``."""
    if (
        type(k) is int
        and type(rows) is list
        and set(map(type, rows)) == {list}
        and set(map(len, rows)) == {k}
        and set(map(type, chain.from_iterable(rows))) == {int}
    ):
        return tuple(zip(*rows))
    return None


def read_array(text: str) -> ResidueArray:
    """Parse an array from its text or JSON serialization.

    Text files may carry ``#`` comments and blank lines; the first
    content line is the header.  JSON counts and entries must be JSON
    integers.  Row counts must match the declared kind and form.
    """
    if text.lstrip().startswith("{"):
        import json

        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        # Text that starts with "{" and parses is an object.
        if "entries" not in obj:
            raise ParseError("JSON array file has no entries")
        rows = obj["entries"]
        return _build(obj, rows, _json_int, cols=_json_columns(rows, obj.get("k")))
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    # Every content line as its tokens; blank lines split to nothing.
    rows = filter(None, map(str.split, lines))
    header = next(rows, None)
    if header is None:
        raise ParseError("empty file")
    fields: dict[str, str] = {}
    for token in header:
        key, sep, value = token.partition("=")
        if not sep or key not in _HEADER_KEYS or key in fields:
            raise ParseError(f"bad header token {token!r}")
        fields[key] = value
    return _build(fields, rows)
