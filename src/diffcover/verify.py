"""Independent verifiers for the defining difference properties.

Each verifier takes one count per column pair, through
:func:`diffcover.core.diff_counts`, and reads every check off those
lists; no constructor formula is reused, so the verifiers serve as
oracles for everything the package builds.  Residues are walked only to
find the witness of a failing check, which is deterministic: smallest
column pair first (pairs enumerated (1,0), (2,0), (2,1), ...), then
smallest residue.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .core import DesignError, Form, Kind, ResidueArray, diff_counts, to_full


class BadShape(DesignError):
    """Row count incompatible with the declared kind and order."""


class BadHole(DesignError):
    """Hole size does not divide the group order."""


class OddOrderStrict(DesignError):
    """Strict DCA checks require even order (the forced repeat is n/2)."""


class CertificationFailed(DesignError):
    """An array about to be returned or emitted failed its verification."""


class Witness(NamedTuple):
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


class Check(NamedTuple):
    name: str
    passed: bool
    witness: Witness | None = None


class _VerificationReport(NamedTuple):
    checks: tuple[Check, ...]
    meta: dict


class VerificationReport(_VerificationReport):
    __slots__ = ()

    def __new__(cls, checks: tuple[Check, ...], meta: dict | None = None) -> VerificationReport:
        # Each report gets a dict of its own when none is given.
        return super().__new__(cls, checks, {} if meta is None else meta)

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


def _pair_counts(a: ResidueArray) -> dict[tuple[int, int], list[int]]:
    """The difference counts of every column pair over all rows, keyed
    (j, jp) in witness order: (1,0), (2,0), (2,1), ..."""
    cols = list(zip(*a.entries))
    n = a.order
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
                return Check(name, False, Witness(pair=pair, residue=d, expected=expected[d], actual=counts[d]))
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
    check = _balance_check("difference-balance", _pair_counts(a), [lam] * n)
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
    hole = range(0, n, u)
    expected = [lam] * n
    for d in hole:
        expected[d] = 0
    pairs = _pair_counts(a)
    checks = [
        _balance_check("hole-avoidance", pairs, expected, hole),
        _balance_check("difference-balance", pairs, expected, [d for d in range(n) if d % u]),
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
    pairs = _pair_counts(full)
    coverage = Check("coverage", True)
    for pair, counts in pairs.items():
        if 0 in counts:
            coverage = Check("coverage", False, Witness(pair=pair, residue=counts.index(0), expected=1, actual=0))
            break
    checks = [coverage]
    min_coverage = min(map(min, pairs.values())) if pairs else None
    meta: dict[str, object] = {"rows": full.rows, "min_coverage": min_coverage}
    if strict:
        if n % 2:
            raise OddOrderStrict(f"strict checks need even order, got {n}")
        if full.rows != n + 1:
            raise BadShape(f"full DCA over Z_{n} needs {n + 1} rows, got {full.rows}")
        zero_twice = Check("zero-twice-per-column", True)
        for j in range(full.columns):
            zeros = full.column(j).count(0)
            if zeros < 2:
                zero_twice = Check(
                    "zero-twice-per-column",
                    False,
                    Witness(column=j, residue=0, expected=2, actual=zeros),
                )
                break
        checks.append(zero_twice)
        # The profile covers the first n rows of the pairs off the last
        # column: each pair's counts less the last row's difference.
        last = full.entries[-1]
        off_last = {}
        for (j, jp), counts in pairs.items():
            if j < full.columns - 1:
                counts = counts.copy()
                counts[(last[j] - last[jp]) % n] -= 1
                off_last[j, jp] = counts
        profile = [1] * n
        profile[0] = 0
        profile[n // 2] = 2
        checks.append(_balance_check("difference-profile", off_last, profile))
    return VerificationReport(tuple(checks), meta=meta)
