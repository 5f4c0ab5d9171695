"""In-process tracing of the CLI.

The traced run calls ``diffcover.cli.main(argv)`` in this process, with the
layer functions that ``diffcover.cli`` imports replaced by wrappers that
record a span (name, start, end, parent) around each call.  Spans stay in
memory until the run ends.  The program itself is not changed: spans sit
at the boundary between the ``cli`` layer and the layer it calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

# Function imported by diffcover.cli -> (span name, counter, count function).
# A count function maps (args, result) to the amount the span adds to its
# counter.
WRAPPED = {
    "read_array": ("core.read_array", "core.bytes_parsed", lambda a, r: len(a[0])),
    "write_array": ("core.write_array", "core.bytes_written", lambda a, r: len(r)),
    "construct_by_method": ("construct.build", "construct.arrays", lambda a, r: 1),
    "verify_dca": ("verify.dca", "verify.entries_checked", lambda a, r: a[0].rows * a[0].columns),
    "verify_hdm": ("verify.hdm", "verify.entries_checked", lambda a, r: a[0].rows * a[0].columns),
    "verify_dm": ("verify.dm", "verify.entries_checked", lambda a, r: a[0].rows * a[0].columns),
    "latin_from_dca": ("latin.derive", None, None),
    "classify_pair": ("latin.classify", "latin.classify_calls", lambda a, r: 1),
    "check_row_complete": ("latin.row_complete", None, None),
    "write_latin": ("latin.write", "latin.cells", lambda a, r: a[0].order ** 2),
    "search_third_column": ("search.third", None, None),
    "search_hdm": ("search.hdm", None, None),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_s: float = 0.0

    @property
    def self_s(self) -> float:
        # Calls are sequential, so the children never overlap and their
        # durations sum to the part of this span they cover.
        return self.end - self.start - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start

    def count(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, fn, name: str, counter: str | None, measure):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                self.count(counter, measure(args, result))
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def to_obj(self) -> list[dict[str, object]]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]


class patched:
    """Context manager that swaps the wrapped names in ``diffcover.cli``."""

    def __init__(self, cli_module, tracer: Tracer):
        self.cli = cli_module
        self.tracer = tracer
        self.saved: dict[str, object] = {}

    def __enter__(self) -> Tracer:
        for attr, (name, counter, measure) in WRAPPED.items():
            fn = getattr(self.cli, attr)
            self.saved[attr] = fn
            setattr(self.cli, attr, self.tracer.wrap(fn, name, counter, measure))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for attr, fn in self.saved.items():
            setattr(self.cli, attr, fn)

