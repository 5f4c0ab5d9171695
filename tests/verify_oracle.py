"""Reference verifiers for the property tests: the difference checks of
``diffcover.verify`` written the slow, literal way.

Every check builds its own difference multiset (a dict of residue counts)
for each column pair and row range it needs, and walks the residues one
at a time.  Reports come back as the dicts ``VerificationReport.to_obj``
gives, and failures raise this module's own error classes, whose names
match the package's.  Nothing here imports ``diffcover.verify``.
"""

from __future__ import annotations

from diffcover.core import Form, ResidueArray, to_full


class OracleError(Exception):
    pass


class BadShape(OracleError):
    pass


class BadHole(OracleError):
    pass


class CertificationFailed(OracleError):
    pass


def multiset(a: ResidueArray, j: int, jp: int, rows: range | None = None) -> dict[int, int]:
    """Counts of column(j) - column(jp) mod n over ``rows`` (all rows by default)."""
    entries = tuple(zip(*a.cols))
    counts: dict[int, int] = {}
    for i in rows if rows is not None else range(a.rows):
        d = (entries[i][j] - entries[i][jp]) % a.order
        counts[d] = counts.get(d, 0) + 1
    return counts


def pairs(k: int):
    for j in range(1, k):
        for jp in range(j):
            yield j, jp


def check(name: str, witness: dict | None = None) -> dict:
    return {"name": name, "pass": witness is None, "witness": witness}


def report(checks: list[dict], meta: dict) -> dict:
    verdict = "pass" if all(c["pass"] for c in checks) else "fail"
    return {"verdict": verdict, "checks": checks, "meta": meta}


def balance(name: str, a: ResidueArray, expected: dict[int, int], columns=None, rows=None) -> dict:
    cols = columns if columns is not None else range(a.columns)
    for j, jp in pairs(len(cols)):
        counts = multiset(a, cols[j], cols[jp], rows)
        for d in sorted(expected):
            got = counts.get(d, 0)
            if got != expected[d]:
                pair = [cols[j], cols[jp]]
                return check(name, {"pair": pair, "residue": d, "expected": expected[d], "actual": got})
    return check(name)


def verify_dm(a: ResidueArray) -> dict:
    n = a.order
    if a.rows % n:
        raise BadShape
    lam = a.rows // n
    return report([balance("difference-balance", a, {d: lam for d in range(n)})], {"lambda": lam})


def verify_hdm(a: ResidueArray) -> dict:
    n, h = a.order, a.hole
    if h < 1 or n % h:
        raise BadHole
    if a.rows % (n - h):
        raise BadShape
    lam = a.rows // (n - h)
    hole = {i * (n // h) for i in range(h)}
    checks = [
        balance("hole-avoidance", a, {d: 0 for d in hole}),
        balance("difference-balance", a, {d: lam for d in range(n) if d not in hole}),
    ]
    entries = tuple(zip(*a.cols))
    if all(row[-1] == 0 for row in entries):
        confined = check("hole-entries-confined")
        for j in range(a.columns - 1):
            hits = [row[j] for row in entries if row[j] in hole]
            if hits:
                confined = check(
                    "hole-entries-confined",
                    {"column": j, "residue": min(hits), "expected": 0, "actual": len(hits)},
                )
                break
        checks.append(confined)
    return report(checks, {"lambda": lam})


def verify_dca(a: ResidueArray, strict: bool = False) -> dict:
    full = to_full(a) if a.form is Form.REDUCED else a
    n = full.order
    coverage = check("coverage")
    min_coverage = None
    for j, jp in pairs(full.columns):
        counts = multiset(full, j, jp)
        for d in range(n):
            got = counts.get(d, 0)
            min_coverage = got if min_coverage is None else min(min_coverage, got)
            if got == 0 and coverage["pass"]:
                coverage = check("coverage", {"pair": [j, jp], "residue": d, "expected": 1, "actual": 0})
    checks = [coverage]
    meta = {"rows": full.rows, "min_coverage": min_coverage}
    if strict:
        if n % 2:
            raise CertificationFailed
        if full.rows != n + 1:
            raise BadShape
        zero_twice = check("zero-twice-per-column")
        entries = tuple(zip(*full.cols))
        for j in range(full.columns):
            zeros = sum(1 for row in entries if row[j] == 0)
            if zeros < 2:
                zero_twice = check(
                    "zero-twice-per-column",
                    {"column": j, "residue": 0, "expected": 2, "actual": zeros},
                )
                break
        checks.append(zero_twice)
        profile = {d: 1 for d in range(n)}
        profile[0] = 0
        profile[n // 2] = 2
        checks.append(balance("difference-profile", full, profile, range(full.columns - 1), range(n)))
    return report(checks, meta)

