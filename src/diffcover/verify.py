"""Independent verifiers for the defining difference properties.

Each verifier takes one count per column pair, through
:func:`diffcover.core.diff_counts` (by entry counts against a reduced
DCA's stripped zero column), and reads every check off those lists; no
constructor formula is reused, so the verifiers serve as oracles for
everything the package builds.  Residues are walked only to find the
witness of a failing check, which is deterministic: smallest column pair
first (pairs enumerated (1,0), (2,0), (2,1), ...), then smallest residue.

The row count and hole of each kind are rules of the array itself,
checked whenever one is built, so every array a verifier sees has the
shape of its kind.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import CertificationFailed, Form, Kind, ResidueArray, diff_counts


class Check(NamedTuple):
    """One named property of a report.  It holds iff it has no witness:
    the location of a violation, as the dict printed for it (``pair``,
    ``column``, ``residue``, ``expected``, ``actual``; only the keys that
    apply, in that order)."""

    name: str
    witness: dict[str, object] | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


class VerificationReport(NamedTuple):
    checks: tuple[Check, ...]
    meta: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_obj(self) -> dict[str, object]:
        return {
            "verdict": self.verdict,
            "checks": [{"name": c.name, "pass": c.passed, "witness": c.witness} for c in self.checks],
            "meta": self.meta,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_obj())


def _pair_counts(cols: Sequence[tuple[int, ...]], n: int) -> dict[tuple[int, int], list[int]]:
    """The difference counts mod ``n`` of every pair of columns ``cols``,
    keyed (j, jp) in witness order: (1,0), (2,0), (2,1), ..."""
    return {(j, jp): diff_counts(cols[j], cols[jp], n) for j in range(1, len(cols)) for jp in range(j)}


def _balance_check(
    name: str,
    pairs: dict[tuple[int, int], list[int]],
    expected: list[int],
    residues: Iterable[int] | None = None,
) -> Check:
    """Pass iff every pair's counts equal ``expected`` at each of
    ``residues`` (all residues when omitted).  Whole lists are compared
    first; residues are walked only for a pair that differs."""
    if residues is None:
        residues = range(len(expected))
    for pair, counts in pairs.items():
        if counts == expected:
            continue
        for d in residues:
            if counts[d] != expected[d]:
                witness = {"pair": list(pair), "residue": d, "expected": expected[d], "actual": counts[d]}
                return Check(name, witness)
    return Check(name)


def verify_dm(a: ResidueArray) -> VerificationReport:
    """Check the difference-matrix property: each residue appears exactly
    lambda = rows/n times in every column-pair difference multiset."""
    if a.kind is not Kind.DM:
        raise ValueError(f"verify_dm expects a DM array, got {a.kind.value}")
    n = a.order
    lam = a.rows // n
    check = _balance_check("difference-balance", _pair_counts(a.cols, n), [lam] * n)
    return VerificationReport((check,), meta={"lambda": lam})


def verify_hdm(a: ResidueArray) -> VerificationReport:
    """Check the holey difference-matrix property over G minus the hole
    subgroup H = {0, u, 2u, ...}: hole residues never occur as differences,
    all other residues occur exactly lambda times."""
    if a.kind is not Kind.HDM:
        raise ValueError(f"verify_hdm expects an HDM array, got {a.kind.value}")
    n, h = a.order, a.hole
    lam = a.rows // (n - h)
    u = n // h
    hole = range(0, n, u)
    expected = [lam] * n
    for d in hole:
        expected[d] = 0
    cols = a.cols
    pairs = _pair_counts(cols, n)
    checks = [
        _balance_check("hole-avoidance", pairs, expected, hole),
        _balance_check("difference-balance", pairs, expected, [d for d in range(n) if d % u]),
    ]
    if not any(cols[-1]):
        # With an all-zero last column, hole residues may not occur as
        # entries of the remaining columns (so no row carries two zeros).
        confined = Check("hole-entries-confined")
        for j, col in enumerate(cols[:-1]):
            hits = [v for v in col if v in hole]
            if hits:
                witness = {"column": j, "residue": min(hits), "expected": 0, "actual": len(hits)}
                confined = Check("hole-entries-confined", witness)
                break
        checks.append(confined)
    return VerificationReport(tuple(checks), meta={"lambda": lam})


def verify_dca(a: ResidueArray, strict: bool = False) -> VerificationReport:
    """Check DCA coverage, and with ``strict`` the two extra properties:
    the zero residue occurs at least twice per column, and every column
    pair off the last column covers the nonzero residues exactly once
    apiece with n/2 doubled (the forced repeated difference).

    Reduced input is checked as its full form without building that array:
    the stripped row adds a difference 0 to every pair, and the stripped
    zero column's pair with column j counts -v for each entry v there.
    """
    if a.kind is not Kind.DCA:
        raise ValueError(f"verify_dca expects a DCA array, got {a.kind.value}")
    n = a.order
    cols = a.cols
    pairs = _pair_counts(cols, n)
    if a.form is Form.REDUCED:
        for counts in pairs.values():
            counts[0] += 1
        for j, col in enumerate(cols):
            counts = [1] + [0] * (n - 1)
            for v in col:
                counts[v] += 1
            pairs[len(cols), j] = counts[:1] + counts[:0:-1]
        cols = [col + (0,) for col in cols]
        cols.append((0,) * len(cols[0]))
    rows = len(cols[0])
    coverage = Check("coverage")
    for pair, counts in pairs.items():
        if 0 in counts:
            witness = {"pair": list(pair), "residue": counts.index(0), "expected": 1, "actual": 0}
            coverage = Check("coverage", witness)
            break
    checks = [coverage]
    min_coverage = min(map(min, pairs.values())) if pairs else None
    meta: dict[str, object] = {"rows": rows, "min_coverage": min_coverage}
    if strict:
        if n % 2:
            raise CertificationFailed(f"strict checks need even order, got {n}")
        zero_twice = Check("zero-twice-per-column")
        for j, col in enumerate(cols):
            zeros = col.count(0)
            if zeros < 2:
                witness = {"column": j, "residue": 0, "expected": 2, "actual": zeros}
                zero_twice = Check("zero-twice-per-column", witness)
                break
        checks.append(zero_twice)
        # The profile covers the first n rows of the pairs off the last
        # column: each pair's counts less the last row's difference.
        last = [col[-1] for col in cols]
        off_last = {}
        for (j, jp), counts in pairs.items():
            if j < len(cols) - 1:
                counts = counts.copy()
                counts[(last[j] - last[jp]) % n] -= 1
                off_last[j, jp] = counts
        profile = [1] * n
        profile[0] = 0
        profile[n // 2] = 2
        checks.append(_balance_check("difference-profile", off_last, profile))
    return VerificationReport(tuple(checks), meta=meta)
