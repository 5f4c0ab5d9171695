"""Constructions of cyclic DCAs: three direct parametric families, the
searched small-order tables, prime-field difference matrices, and the
composition combinators (hole insertion and the HDM x DM product).

Every family builds a reduced 2m x 3 array whose full form is a cyclic
DCA(4, 2m+1; 2m) with zero occurring twice per column and every off-pair
difference multiset equal to the nonzero residues with n/2 doubled.
Constructors validate their parameters; the verifiers in
:mod:`diffcover.verify` independently certify every output.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Callable, Iterator, NamedTuple

from . import tables
from .core import CertificationFailed, DesignError, Form, Kind, NoMethod, OddOrderStrict, ResidueArray, to_full


class BadParams(DesignError):
    """A constructor argument is unusable: family or prime-DM parameters
    violate a gcd, congruence, range, index or primality condition, or a
    combinator input fails its verifier or shape requirements."""


def _reduced_dca(order: int, rows: list[tuple[int, int, int]]) -> ResidueArray:
    return ResidueArray.from_rows(Kind.DCA, order, rows, form=Form.REDUCED)


def construct_odd(m: int, f: int) -> ResidueArray:
    """Reduced cyclic DCA(4, 2m+1; 2m) for odd m, driven by an even
    multiplier f with gcd(f, 2m) = gcd(f+2, 2m) = 2, f^2+f+1 = m mod 2m
    and m+3 <= f <= 2m-4.

    Row a carries (a, b(a), c(a)) where b jumps by f and c by -(f+1) on
    each of four intervals of the first column.
    """
    n = 2 * m
    if m < 2:
        raise BadParams(f"m must be at least 2, got {m}")
    if gcd(f, n) != 2:
        raise BadParams(f"gcd(f, 2m) = gcd({f}, {n}) = {gcd(f, n)}, expected 2")
    if gcd(f + 2, n) != 2:
        raise BadParams(f"gcd(f+2, 2m) = gcd({f + 2}, {n}) = {gcd(f + 2, n)}, expected 2")
    if (f * f + f + 1 - m) % n:
        raise BadParams(f"f^2+f+1 = {f * f + f + 1} is not {m} mod {n}")
    if not m + 3 <= f <= n - 4:
        raise BadParams(f"f = {f} outside [m+3, 2m-4] = [{m + 3}, {n - 4}]")
    # Consequences of the assumptions; failures would be internal bugs.
    assert gcd(f, m) == 1 and gcd(f + 1, m) == 1 and gcd(f - 1, m) == 1
    assert gcd(2 * f + 1, m) == 1 and (m * f) % n == 0
    rows = []
    for a in range(n):
        # The four intervals [0, m+f], [m+f+1, m-1], [m, m-f-1], [m-f, n-1]
        # mod n; with m+3 <= f <= 2m-4 they split [0, n) at f-m+1, m and 3m-f.
        idx = (a > f - m) + (a >= m) + (a >= 3 * m - f)
        b = (a * f + m) if idx < 2 else ((a + 1) * f + m - 1)
        if idx == 0:
            c = -(a - 1) * (f + 1) - 2
        elif idx == 1:
            c = -(a - 1) * (f + 1) + m - 2
        elif idx == 2:
            c = -a * (f + 1) + m
        else:
            c = -a * (f + 1)
        rows.append((a, b % n, c % n))
    return _reduced_dca(n, rows)


def params_odd(i: int) -> tuple[int, int]:
    """Parameters of the infinite subfamily indexed by i >= 0, i != 2 mod 3:
    m = 2(2i^2+7i+6)+1 and f = m+3+2i."""
    if i < 0 or i % 3 == 2:
        raise BadParams(f"index must be non-negative and not 2 mod 3, got {i}")
    m = 2 * (2 * i * i + 7 * i + 6) + 1
    return m, m + 3 + 2 * i


def construct_4m_general(m: int, f: int) -> ResidueArray:
    """Reduced cyclic DCA(4, 4m+1; 4m) for m = 2 mod 4 and even f with
    gcd(f, 4m) = 2, gcd(f-1, 4m) = 1 and f^2+f-2 = 2m mod 4m."""
    n = 4 * m
    if m % 4 != 2:
        raise BadParams(f"m must be 2 mod 4, got {m}")
    if gcd(f, n) != 2:
        raise BadParams(f"gcd(f, 4m) = gcd({f}, {n}) = {gcd(f, n)}, expected 2")
    if gcd(f - 1, n) != 1:
        raise BadParams(f"gcd(f-1, 4m) = gcd({f - 1}, {n}) = {gcd(f - 1, n)}, expected 1")
    if (f * f + f - 2 - 2 * m) % n:
        raise BadParams(f"f^2+f-2 = {f * f + f - 2} is not {2 * m} mod {n}")
    assert gcd(2 * m + 2 - f, n) == 4 and gcd(2 * m - f + 1, n) == 1
    assert gcd(2 * m - 2 * f + 2, n) == 2 and (m * f - 2 * m) % n == 0
    t = 2 * m - f + 2
    rows = []
    for a in range(n):
        idx = a // m
        b = (a + 1) * f - 1 if idx < 2 else a * f
        if idx == 0:
            c = (a + 1) * t - 1
        elif idx == 1:
            c = a * t - m
        elif idx == 2:
            c = (a + 1) * t + m - 1
        else:
            c = a * t
        rows.append((a, b % n, c % n))
    return _reduced_dca(n, rows)


def construct_4m(k: int) -> ResidueArray:
    """Subfamily of order 16k+8 with m = 4k+2 and f = 2m-2, defined for
    k >= 0 with k != 1 mod 3."""
    if k < 0 or k % 3 == 1:
        raise BadParams(f"index must be non-negative and not 1 mod 3, got {k}")
    m = 4 * k + 2
    return construct_4m_general(m, 2 * m - 2)


_SIX_MU_A_OFFSETS = (4, 2, 4, 3, 1, 3)  # 3*alpha + offset (+3*mu on even pieces)


def construct_6mu(mu: int) -> ResidueArray:
    """Reduced cyclic DCA(4, 6mu+5; 6mu+4) for odd mu >= 1.

    Unlike the other families the first column is itself a non-identity
    permutation of the residues; rows are indexed by alpha over six
    intervals.
    """
    if mu < 1 or mu % 2 == 0:
        raise BadParams(f"mu must be an odd positive integer, got {mu}")
    n = 6 * mu + 4
    bounds = [
        (0, mu - 1),
        (mu, 2 * mu),
        (2 * mu + 1, 3 * mu + 1),
        (3 * mu + 2, 4 * mu + 2),
        (4 * mu + 3, 5 * mu + 2),
        (5 * mu + 3, 6 * mu + 3),
    ]
    rows = []
    for idx, (lo, hi) in enumerate(bounds):
        high_piece = idx in (0, 2, 3, 5)
        for alpha in range(lo, hi + 1):
            a = 3 * alpha + _SIX_MU_A_OFFSETS[idx] + (3 * mu if high_piece else 0)
            b = 3 * alpha * (mu + 1) + (2 * mu + 2 if idx < 3 else 2 * mu + 1)
            c = alpha * (3 * mu + 4) + 5 * mu + 4
            rows.append((a % n, b % n, c % n))
    arr = _reduced_dca(n, rows)
    if sorted(arr.column(0)) != list(range(n)):
        raise CertificationFailed(f"six-mu column 0 is not a permutation at order {n}")
    return arr


def construct_from_table(order: int) -> ResidueArray:
    """Reduced DCA(4, order+1; order) from the fixed column pair and the
    stored third column of that order (6, and the eight computer-searched
    orders 24..54)."""
    if order not in tables.SEARCHED_THIRD_COLUMNS:
        raise NoMethod(f"no stored table for order {order}")
    return tables.dca_from_third_column(tables.SEARCHED_THIRD_COLUMNS[order])


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def dm_prime(p: int, k: int) -> ResidueArray:
    """Cyclic DM(p, k; 1) over Z_p, p prime, p >= k: the multiplication
    table q(i, j) = i*(j+1) for j < k-1 with an all-zero last column, rows
    rotated so the zero row comes last."""
    if not _is_prime(p):
        raise BadParams(f"{p} is not prime")
    if k > p:
        raise BadParams(f"k = {k} exceeds p = {p}")
    if k < 1:
        raise BadParams(f"k must be positive, got {k}")
    rows = []
    for i in list(range(1, p)) + [0]:
        rows.append(tuple((i * (j + 1)) % p for j in range(k - 1)) + (0,))
    return ResidueArray.from_rows(Kind.DM, p, rows)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadParams(message)


def insert_hole(hdm: ResidueArray, dca_hole: ResidueArray) -> ResidueArray:
    """Fill the hole of an HDM(k, n; h) with a strict DCA(k, h+1; h) whose
    entries are embedded into the hole subgroup by multiplying by u = n/h,
    yielding a full strict DCA(k, n+1; n)."""
    # The combinators alone verify here; importing verify in them keeps it
    # out of `spectrum`, which only reads the registry.
    from .verify import verify_dca, verify_hdm

    _require(hdm.kind is Kind.HDM, "first ingredient must be an HDM")
    _require(dca_hole.kind is Kind.DCA, "second ingredient must be a DCA")
    full_hole = to_full(dca_hole) if dca_hole.form is Form.REDUCED else dca_hole
    _require(
        hdm.columns == full_hole.columns, f"column counts differ: {hdm.columns} vs {full_hole.columns}"
    )
    hdm_report = verify_hdm(hdm)
    _require(hdm_report.passed, "HDM ingredient fails verification")
    _require(hdm_report.meta["lambda"] == 1, "HDM ingredient must have lambda = 1")
    n, h = hdm.order, hdm.hole
    _require(dca_hole.order == h, f"hole DCA order {dca_hole.order} != hole size {h}")
    try:
        _require(verify_dca(dca_hole, strict=True).passed, "hole DCA fails strict verification")
    except OddOrderStrict as exc:
        raise BadParams(str(exc)) from exc
    _require(full_hole.is_normalized, "hole DCA must have zero last row and column")
    u = n // h
    embedded = tuple(tuple((v * u) % n for v in row) for row in full_hole.entries)
    out = ResidueArray(Kind.DCA, n, 0, Form.FULL, hdm.entries + embedded)
    if not verify_dca(out, strict=True).passed:
        raise CertificationFailed("hole insertion produced an invalid DCA")
    return out


def hdm_product(hdm: ResidueArray, dm: ResidueArray) -> ResidueArray:
    """Product of an HDM(k, n; h) with a DM(n', k; 1): entries
    a(i,j) + n*b(i',j) over Z_{n n'}, giving an HDM(k, n n'; h n')."""
    from .verify import verify_dm, verify_hdm

    _require(hdm.kind is Kind.HDM, "first ingredient must be an HDM")
    _require(dm.kind is Kind.DM, "second ingredient must be a DM")
    _require(hdm.columns == dm.columns, f"column counts differ: {hdm.columns} vs {dm.columns}")
    _require(verify_hdm(hdm).passed, "HDM ingredient fails verification")
    dm_report = verify_dm(dm)
    _require(dm_report.passed, "DM ingredient fails verification")
    _require(dm_report.meta["lambda"] == 1, "DM ingredient must have lambda = 1")
    n = hdm.order
    big = n * dm.order
    rows = []
    for arow in hdm.entries:
        for brow in dm.entries:
            rows.append(tuple((a + n * b) % big for a, b in zip(arow, brow)))
    out = ResidueArray.from_rows(Kind.HDM, big, rows, hole=hdm.hole * dm.order)
    # The product formula is not trusted: every output is re-certified.
    if not verify_hdm(out).passed:
        raise CertificationFailed("product produced an invalid HDM")
    return out


def _odd_f_index(order: int) -> int | None:
    # order = 2m with m = 2(2i^2+7i+6)+1 exactly when 2*order - 3 = (4i+7)^2.
    i = (isqrt(max(2 * order - 3, 0)) - 7) // 4
    return i if i >= 0 and i % 3 != 2 and 2 * params_odd(i)[0] == order else None


def _four_m_index(order: int) -> int | None:
    k = (order - 8) // 16
    return k if order % 16 == 8 and k % 3 != 1 else None


class Method(NamedTuple):
    """A direct construction.  ``params_for(order)`` is the parameter with
    which the family covers an even order, or None; ``label`` names that
    parameter in the method tag, which is the bare name when it is empty."""

    name: str
    params_for: Callable[[int], int | None]
    build: Callable[[int], ResidueArray]
    label: str = ""


# In priority order: automatic dispatch takes the first method that covers
# an order.
METHODS: tuple[Method, ...] = (
    Method("table", lambda order: order if order in tables.SEARCHED_THIRD_COLUMNS else None,
           construct_from_table),
    Method("odd-f", _odd_f_index, lambda i: construct_odd(*params_odd(i)), "i"),
    Method("four-m", _four_m_index, construct_4m, "k"),
    Method("six-mu", lambda order: (order - 4) // 6 if order % 12 == 10 else None, construct_6mu, "mu"),
)


def construct_by_method(order: int, method: str = "auto") -> tuple[ResidueArray, str]:
    """Construct a reduced strict DCA of an even order by a named method,
    or by the first method in ``METHODS`` that covers it when ``method`` is
    "auto".  Returns the array and a method tag."""
    if order % 2 or order < 6:
        raise ValueError(f"order must be even and at least 6, got {order}")
    candidates = METHODS if method == "auto" else [m for m in METHODS if m.name == method]
    if not candidates:
        names = ", ".join(["auto", *(m.name for m in METHODS)])
        raise ValueError(f"unknown method {method!r} (choose from {names})")
    for m in candidates:
        params = m.params_for(order)
        if params is not None:
            return m.build(params), f"{m.name} {m.label}={params}" if m.label else m.name
    raise NoMethod(f"no {'implemented' if method == 'auto' else method} family covers order {order}")


def methods_for_order(order: int) -> tuple[str, ...]:
    """Names of all methods that cover an even order (without building)."""
    return tuple(m.name for m in METHODS if m.params_for(order) is not None)


class SpectrumEntry(NamedTuple):
    """Spectrum row: which internal methods construct the order, and how
    the published record resolves it otherwise."""

    order: int
    constructible_by: tuple[str, ...]
    status: str  # "internal", "covered-externally" or "open"
    source: str


def spectrum_report(lo: int, hi: int) -> Iterator[SpectrumEntry]:
    """Spectrum table for even orders lo..hi (bounds even, lo >= 6).

    The bounds are checked at once; the entries are made as they are
    consumed, so any range starts producing immediately."""
    if lo % 2 or hi % 2:
        raise ValueError(f"bounds must be even, got {lo}..{hi}")
    if not 6 <= lo <= hi:
        raise ValueError(f"need 6 <= min <= max, got {lo}..{hi}")
    return map(_spectrum_entry, range(lo, hi + 1, 2))


def _spectrum_entry(order: int) -> SpectrumEntry:
    methods = methods_for_order(order)
    if methods:
        return SpectrumEntry(order, methods, "internal", methods[0])
    if order in tables.OPEN_ORDERS:
        return SpectrumEntry(order, methods, "open", "open")
    # An order in no transcribed list is "unlisted"; the published record
    # still covers every even order except 146.
    label = tables.external_source(order) or "unlisted"
    return SpectrumEntry(order, methods, "covered-externally", label)
