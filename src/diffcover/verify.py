"""Independent verifiers for the defining difference properties.

Every check counts differences per column pair through
:func:`diffcover.core.diff_multiset`; no constructor formula is reused,
so the verifiers serve as oracles for everything the package builds.
Failure witnesses are deterministic: smallest column pair first (pairs
enumerated (1,0), (2,0), (2,1), ...), then smallest residue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from .core import DesignError, Form, Kind, ResidueArray, diff_multiset, to_full


class BadShape(DesignError):
    """Row count incompatible with the declared kind and order."""


class BadHole(DesignError):
    """Hole size does not divide the group order."""


class OddOrderStrict(DesignError):
    """Strict DCA checks require even order (the forced repeat is n/2)."""


class CertificationFailed(DesignError):
    """An array about to be returned or emitted failed its verification."""


@dataclass(frozen=True)
class Witness:
    """Location of a violation: column pair or single column, offending
    residue, and the expected/actual multiplicities."""

    pair: tuple[int, int] | None = None
    column: int | None = None
    residue: int | None = None
    expected: int | str | None = None
    actual: int | str | None = None

    def to_obj(self) -> dict[str, object]:
        obj: dict[str, object] = {}
        if self.pair is not None:
            obj["pair"] = list(self.pair)
        if self.column is not None:
            obj["column"] = self.column
        if self.residue is not None:
            obj["residue"] = self.residue
        if self.expected is not None:
            obj["expected"] = self.expected
        if self.actual is not None:
            obj["actual"] = self.actual
        return obj


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def witness(self) -> Witness | None:
        for c in self.checks:
            if not c.passed:
                return c.witness
        return None

    def to_obj(self) -> dict[str, object]:
        return {
            "verdict": self.verdict,
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "witness": c.witness.to_obj() if c.witness else None,
                }
                for c in self.checks
            ],
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())


def _pairs(k: int) -> Iterator[tuple[int, int]]:
    for j in range(1, k):
        for jp in range(j):
            yield j, jp


def _balance_check(
    name: str,
    a: ResidueArray,
    expected: dict[int, int],
    columns: range | None = None,
    rows: range | None = None,
) -> Check:
    """Pass iff, for every column pair, each residue in ``expected`` occurs
    in the difference multiset exactly as often as stated."""
    cols = columns if columns is not None else range(a.columns)
    residues = sorted(expected)
    for j, jp in _pairs(len(cols)):
        dm = diff_multiset(a, cols[j], cols[jp], rows)
        for d in residues:
            want = expected[d]
            got = dm[d]
            if got != want:
                return Check(name, False, Witness(pair=(cols[j], cols[jp]), residue=d, expected=want, actual=got))
    return Check(name, True)


def verify_dm(a: ResidueArray) -> VerificationReport:
    """Check the difference-matrix property: each residue appears exactly
    lambda = rows/n times in every column-pair difference multiset."""
    if a.kind is not Kind.DM:
        raise ValueError(f"verify_dm expects a DM array, got {a.kind.value}")
    n = a.order
    if a.rows % n:
        raise BadShape(f"DM rows {a.rows} not a multiple of order {n}")
    lam = a.rows // n
    check = _balance_check("difference-balance", a, {d: lam for d in range(n)})
    return VerificationReport((check,), meta={"lambda": lam})


def verify_hdm(a: ResidueArray) -> VerificationReport:
    """Check the holey difference-matrix property over G minus the hole
    subgroup H = {0, u, 2u, ...}: hole residues never occur as differences,
    all other residues occur exactly lambda times."""
    if a.kind is not Kind.HDM:
        raise ValueError(f"verify_hdm expects an HDM array, got {a.kind.value}")
    n, h = a.order, a.hole
    if h < 1 or n % h:
        raise BadHole(f"hole {h} does not divide order {n}")
    if a.rows % (n - h):
        raise BadShape(f"HDM rows {a.rows} not a multiple of {n - h}")
    lam = a.rows // (n - h)
    u = n // h
    hole = {i * u for i in range(h)}
    checks = [
        _balance_check("hole-avoidance", a, {d: 0 for d in sorted(hole)}),
        _balance_check("difference-balance", a, {d: lam for d in range(n) if d not in hole}),
    ]
    if all(row[-1] == 0 for row in a.entries):
        # With an all-zero last column, hole residues may not occur as
        # entries of the remaining columns (so no row carries two zeros).
        confined = Check("hole-entries-confined", True)
        for j in range(a.columns - 1):
            hits = [v for v in a.column(j) if v in hole]
            if hits:
                confined = Check(
                    "hole-entries-confined",
                    False,
                    Witness(column=j, residue=min(hits), expected=0, actual=len(hits)),
                )
                break
        checks.append(confined)
    return VerificationReport(tuple(checks), meta={"lambda": lam})


def verify_dca(a: ResidueArray, strict: bool = False) -> VerificationReport:
    """Check DCA coverage, and with ``strict`` the two extra properties:
    the zero residue occurs at least twice per column, and every column
    pair off the last column covers the nonzero residues exactly once
    apiece with n/2 doubled (the forced repeated difference).

    Reduced input is completed to full form internally.
    """
    if a.kind is not Kind.DCA:
        raise ValueError(f"verify_dca expects a DCA array, got {a.kind.value}")
    full = to_full(a) if a.form is Form.REDUCED else a
    n = full.order
    checks: list[Check] = []
    coverage = Check("coverage", True)
    min_coverage: int | None = None
    for j, jp in _pairs(full.columns):
        dm = diff_multiset(full, j, jp)
        for d in range(n):
            got = dm[d]
            min_coverage = got if min_coverage is None else min(min_coverage, got)
            if got < 1 and coverage.passed:
                coverage = Check("coverage", False, Witness(pair=(j, jp), residue=d, expected=1, actual=0))
    checks.append(coverage)
    meta: dict[str, object] = {"rows": full.rows, "min_coverage": min_coverage}
    if strict:
        if n % 2:
            raise OddOrderStrict(f"strict checks need even order, got {n}")
        if full.rows != n + 1:
            raise BadShape(f"full DCA over Z_{n} needs {n + 1} rows, got {full.rows}")
        zero_twice = Check("zero-twice-per-column", True)
        for j in range(full.columns):
            zeros = sum(1 for v in full.column(j) if v == 0)
            if zeros < 2:
                zero_twice = Check(
                    "zero-twice-per-column",
                    False,
                    Witness(column=j, residue=0, expected=2, actual=zeros),
                )
                break
        checks.append(zero_twice)
        profile = {d: 1 for d in range(n)}
        profile[0] = 0
        profile[n // 2] = 2
        checks.append(
            _balance_check(
                "difference-profile",
                full,
                profile,
                columns=range(full.columns - 1),
                rows=range(n),
            )
        )
    return VerificationReport(tuple(checks), meta=meta)


def check_column_bound(k: int, p: int) -> bool:
    """Whether a cyclic DCA(k+1, 2p+1; 2p) with the strict properties is
    not excluded by the column bound: k <= p+1, strictly below when p is
    even."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if p % 2 == 0:
        return k < p + 1
    return k <= p + 1
