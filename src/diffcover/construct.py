"""Constructions of cyclic DCAs: three direct parametric families, the
searched small-order tables, prime-field difference matrices, and the
composition combinators (hole insertion and the HDM x DM product).

Every family builds a reduced 2m x 3 array whose full form is a cyclic
DCA(4, 2m+1; 2m) with zero occurring twice per column and every off-pair
difference multiset equal to the nonzero residues with n/2 doubled.
Constructors validate their parameters and raise ValueError on a bad
one; the verifiers in :mod:`diffcover.verify` independently certify
every output.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Callable, Iterator, NamedTuple

from . import tables
from .core import CertificationFailed, Form, Kind, NoSolution, ResidueArray, to_full


def _affine_dca(
    n: int, bounds: tuple[int, ...], slopes: tuple[int, ...], offsets: tuple[tuple[int, ...], ...]
) -> ResidueArray:
    """Reduced DCA of order n given as a piece table: row r of piece p, the
    rows [bounds[p], bounds[p+1]), holds offsets[p][j] + slopes[j]*r mod n
    in column j."""
    pieces = list(zip(bounds, bounds[1:], offsets))
    cols = tuple(
        tuple([v % n for lo, hi, o in pieces for v in range(o[j] + s * lo, o[j] + s * hi, s)])
        for j, s in enumerate(slopes)
    )
    return ResidueArray(Kind.DCA, n, 0, Form.REDUCED, cols)


def construct_odd(m: int, f: int) -> ResidueArray:
    """Reduced cyclic DCA(4, 2m+1; 2m) for odd m, driven by an even
    multiplier f with gcd(f, 2m) = gcd(f+2, 2m) = 2, f^2+f+1 = m mod 2m
    and m+3 <= f <= 2m-4.

    Row a carries (a, b(a), c(a)) where b jumps by f and c by -(f+1) on
    each of four intervals of the first column.
    """
    n = 2 * m
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if gcd(f, n) != 2:
        raise ValueError(f"gcd(f, 2m) = gcd({f}, {n}) = {gcd(f, n)}, expected 2")
    if gcd(f + 2, n) != 2:
        raise ValueError(f"gcd(f+2, 2m) = gcd({f + 2}, {n}) = {gcd(f + 2, n)}, expected 2")
    if (f * f + f + 1 - m) % n:
        raise ValueError(f"f^2+f+1 = {f * f + f + 1} is not {m} mod {n}")
    if not m + 3 <= f <= n - 4:
        raise ValueError(f"f = {f} outside [m+3, 2m-4] = [{m + 3}, {n - 4}]")
    # Consequences of the assumptions; failures would be internal bugs.
    assert gcd(f, m) == 1 and gcd(f + 1, m) == 1 and gcd(f - 1, m) == 1
    assert gcd(2 * f + 1, m) == 1 and (m * f) % n == 0
    # The four intervals [0, m+f], [m+f+1, m-1], [m, m-f-1], [m-f, n-1] mod n;
    # with m+3 <= f <= 2m-4 they split [0, n) at f-m+1, m and 3m-f.
    offsets = ((0, m, f - 1), (0, m, f + m - 1), (0, f + m - 1, m), (0, f + m - 1, 0))
    return _affine_dca(n, (0, f - m + 1, m, 3 * m - f, n), (1, f, -(f + 1)), offsets)


def params_odd(i: int) -> tuple[int, int]:
    """Parameters of the infinite subfamily indexed by i >= 0, i != 2 mod 3:
    m = 2(2i^2+7i+6)+1 and f = m+3+2i."""
    if i < 0 or i % 3 == 2:
        raise ValueError(f"index must be non-negative and not 2 mod 3, got {i}")
    m = 2 * (2 * i * i + 7 * i + 6) + 1
    return m, m + 3 + 2 * i


def construct_4m(k: int) -> ResidueArray:
    """Reduced cyclic DCA(4, 4m+1; 4m) of order 16k+8, m = 4k+2, for
    k >= 0 with k != 1 mod 3.

    The family's even multiplier f, with gcd(f, 4m) = 2, gcd(f-1, 4m) = 1
    and f^2+f-2 = 2m mod 4m, is forced: f-1 is an odd unit mod 4m, so
    (f+2)(f-1) = 2m makes f+2 = 2m mod 4m, and f = 2m-2 meets the gcd
    conditions exactly when 3 does not divide m, that is k != 1 mod 3.
    Column 2 then has slope 2m-f+2 = 4.
    """
    if k < 0 or k % 3 == 1:
        raise ValueError(f"index must be non-negative and not 1 mod 3, got {k}")
    m = 4 * k + 2
    offsets = ((0, 2 * m - 3, 3), (0, 2 * m - 3, -m), (0, 0, m + 3), (0, 0, 0))
    return _affine_dca(4 * m, (0, m, 2 * m, 3 * m, 4 * m), (1, 2 * m - 2, 4), offsets)


def construct_6mu(mu: int) -> ResidueArray:
    """Reduced cyclic DCA(4, 6mu+5; 6mu+4) for odd mu >= 1.

    Unlike the other families the first column is itself a non-identity
    permutation of the residues; rows are indexed by alpha over six
    intervals.
    """
    if mu < 1 or mu % 2 == 0:
        raise ValueError(f"mu must be an odd positive integer, got {mu}")
    n = 6 * mu + 4
    h, b, c = 3 * mu, 2 * mu + 2, 5 * mu + 4
    bounds = (0, mu, 2 * mu + 1, 3 * mu + 2, 4 * mu + 3, 5 * mu + 3, n)
    offsets = ((h + 4, b, c), (2, b, c), (h + 4, b, c), (h + 3, b - 1, c), (1, b - 1, c), (h + 3, b - 1, c))
    arr = _affine_dca(n, bounds, (3, h + 3, h + 4), offsets)
    if sorted(arr.column(0)) != list(range(n)):
        raise CertificationFailed(f"six-mu column 0 is not a permutation at order {n}")
    return arr


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
        raise ValueError(f"{p} is not prime")
    if k > p:
        raise ValueError(f"k = {k} exceeds p = {p}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    cols = [tuple([v % p for v in range(s, s * p, s)] + [0]) for s in range(1, k)]
    return ResidueArray(Kind.DM, p, 0, Form.FULL, (*cols, (0,) * p))


def _require(condition: bool, message: str) -> None:
    """Refuse a bad combinator input; the CLI maps ValueError to exit 2."""
    if not condition:
        raise ValueError(message)


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
    _require(h % 2 == 0, f"strict checks need even order, got {h}")
    _require(verify_dca(dca_hole, strict=True).passed, "hole DCA fails strict verification")
    _require(full_hole.is_normalized, "hole DCA must have zero last row and column")
    u = n // h
    cols = tuple(col + tuple([v * u % n for v in hcol]) for col, hcol in zip(hdm.cols, full_hole.cols))
    out = ResidueArray(Kind.DCA, n, 0, Form.FULL, cols)
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
    # Every row of the DM under each row of the HDM, column by column.
    nbs = [[n * b for b in bcol] for bcol in dm.cols]
    cols = tuple(tuple([(a + nb) % big for a in acol for nb in nbcol]) for acol, nbcol in zip(hdm.cols, nbs))
    out = ResidueArray(Kind.HDM, big, hdm.hole * dm.order, Form.FULL, cols)
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
    """A direct construction.  ``params_for(order)`` is the family's
    parameter for an even order it covers (the stored third column for
    ``table``), or None; ``label`` names that parameter in the method tag,
    which is the bare name when it is empty."""

    name: str
    params_for: Callable[[int], int | tuple[int, ...] | None]
    build: Callable[..., ResidueArray]
    label: str = ""


# In priority order: automatic dispatch takes the first method that covers
# an order.
METHODS: tuple[Method, ...] = (
    Method("table", tables.SEARCHED_THIRD_COLUMNS.get, tables.dca_from_third_column),
    Method("odd-f", _odd_f_index, lambda i: construct_odd(*params_odd(i)), "i"),
    Method("four-m", _four_m_index, construct_4m, "k"),
    Method("six-mu", lambda order: (order - 4) // 6 if order % 12 == 10 else None, construct_6mu, "mu"),
)


# A build's peak memory grows by about 230 bytes per unit of order (22.5 MB
# at order 29,998, 153.8 MB at 599,998), so MAX_ORDER keeps one under about
# half a gigabyte.
_BYTES_PER_ORDER = 230
MAX_ORDER = 2_000_000


def construct_by_method(order: int, method: str = "auto") -> tuple[ResidueArray, str]:
    """Construct a reduced strict DCA of an even order by a named method,
    or by the first method in ``METHODS`` that covers it when ``method`` is
    "auto".  Returns the array and a method tag.  An order above
    ``MAX_ORDER`` is refused before anything is built."""
    if order % 2 or order < 6:
        raise ValueError(f"order must be even and at least 6, got {order}")
    if order > MAX_ORDER:
        raise ValueError(
            f"order {order} is above the largest order built, {MAX_ORDER:,}: at about {_BYTES_PER_ORDER}"
            f" bytes per unit of order its build would take about {order * _BYTES_PER_ORDER // 10**6:,} MB"
        )
    candidates = METHODS if method == "auto" else [m for m in METHODS if m.name == method]
    if not candidates:
        names = ", ".join(["auto", *(m.name for m in METHODS)])
        raise ValueError(f"unknown method {method!r} (choose from {names})")
    for m in candidates:
        params = m.params_for(order)
        if params is not None:
            return m.build(params), f"{m.name} {m.label}={params}" if m.label else m.name
    raise NoSolution(f"no {'implemented' if method == 'auto' else method} family covers order {order}")


def methods_for_order(order: int) -> tuple[str, ...]:
    """Names of all methods that cover an even order (without building)."""
    return tuple(m.name for m in METHODS if m.params_for(order) is not None)


# The published record for 3-MNOLS(n), n even: each label names the
# external construction that covers its orders.  It lists only orders no
# method here covers; with the methods it spans every even order below
# ASYMPTOTIC_THRESHOLD, and 146 is the one open case.
RECORD: dict[str, frozenset[int]] = {
    "known-small": frozenset(
        [12, 14, 16, 18, 20, 38, 86, 110, 134, 158, 206, 230, 254, 278, 302,
         326, 350]
    ),
    "product-hole-2": frozenset(
        [50, 98, 170, 242, 290, 338,           # via prime-order doubled holes
         90, 126, 198, 234, 306, 342,          # via odd orders coprime to 9
         60, 80, 84, 100, 112, 120, 132, 156, 160, 168, 176, 180, 204, 208,
         224, 228, 240, 252, 264, 272, 276, 300, 304, 312, 320, 336, 352]
    ),
    "product-hole-4": frozenset([140, 196, 220, 260, 308, 340]),
    "product-hole-6": frozenset(
        [30, 42, 66, 78, 102, 114, 138, 150, 174, 186, 210, 222, 246, 258,
         282, 294, 318, 330, 354]
    ),
    "product-power-3": frozenset([216, 270, 324]),
    "block-design": frozenset(
        [76, 92, 96, 108, 116, 124, 128, 144, 148, 164, 172, 188, 192, 212,
         236, 244, 256, 268, 284, 288, 292, 316, 332, 348, 356,
         64, 68, 72, 74, 122, 162, 194, 218, 314]
    ),
    "open": frozenset([146]),
}

ASYMPTOTIC_THRESHOLD = 358
_SOURCE = {order: label for label, orders in RECORD.items() for order in orders}


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
    source = "asymptotic" if order >= ASYMPTOTIC_THRESHOLD else _SOURCE[order]
    return SpectrumEntry(order, methods, "open" if source == "open" else "covered-externally", source)
