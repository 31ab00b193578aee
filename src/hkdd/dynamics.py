"""Dynamical degree spectra, entropy, and the Salem search.

The degree law for hyperkahler-type isometries says d_k = d_1^min(k, 2n-k)
across k = 0..2n, with entropy n*ln(d_1). The first degree is the Salem root
of the characteristic polynomial on the lattice (or exactly 1 when every
factor is cyclotomic). A DegreeSpectrum is d_1 and the exponents, with
exact symbolic entries; spectrum_decimals renders it at a precision from one
walk of d_1's certified isolating interval, the entropy included, each
decimal correctly rounded (polynomial.rounded_decimal). No floating point
is used: a structure violation is reported with the exact reason the Salem
test gave.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from functools import cmp_to_key
from operator import mul

from . import linalg
from .errors import SpectralStructureViolatedError
from .lattice import GramLattice, LatticeIsometry, affine_points
from .polynomial import (
    AlgebraicReal,
    IntPolynomial,
    LOG10_2_Q31,
    char_poly,
    power_traces,
    quadratic_surd_parts,
    quadratic_surd_str,
    reciprocal_char_poly,
    rounded_decimal,
)
from .salem import (
    ALL_CYCLOTOMIC,
    SALEM_STRUCTURE,
    SalemClassification,
    classify_charpoly,
)

# d_1 is either an exact AlgebraicReal larger than 1 or the exact integer 1.
FirstDegree = AlgebraicReal | int

# 1/ln(10) < 10000/23025, as ln(10) = 2.302585...
INV_LN10_UPPER = (10000, 23025)


@dataclass(frozen=True)
class SpectrumEntry:
    k: int
    exponent: int  # min(k, 2n - k)
    exact: str


@dataclass(frozen=True)
class DegreeSpectrum:
    """The table (k, d_k) for k = 0..2n plus entropy, palindromic by the
    degree law. Entries are exact symbolic powers of d_1; their decimals and
    the entropy's come from spectrum_decimals at a chosen precision."""

    half_dim: int
    d1: FirstDegree
    entries: tuple[SpectrumEntry, ...]
    entropy_exact: str


@dataclass(frozen=True)
class SpectrumDecimals:
    """Correctly rounded decimals at one precision: the d_k of a degree table,
    k = 0..2n (or d_1^e in the order power_decimal was asked), and the
    entropy n*ln(d_1) in nats and n*log10(d_1)."""

    entries: tuple[str, ...]
    nats: str
    log10: str


@dataclass(frozen=True)
class ShapeReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def first_dynamical_degree(iso: LatticeIsometry) -> FirstDegree:
    """Salem root of char(M) when the spectral structure holds, else exact 1.

    Raises SpectralStructureViolatedError when the characteristic polynomial
    is not cyclotomic x Salem; such a matrix cannot come from a hyperkahler
    automorphism.
    """
    return degree_from_classification(classify_charpoly(char_poly(iso.rows())))


def degree_from_classification(cls: SalemClassification) -> FirstDegree:
    if cls.kind == ALL_CYCLOTOMIC:
        return 1
    if cls.kind == SALEM_STRUCTURE:
        return cls.salem_root
    raise SpectralStructureViolatedError(
        f"characteristic polynomial is not cyclotomic x Salem; its remainder "
        f"({cls.remainder}) fails the Salem test: {cls.reason}"
    )


# ---------------------------------------------------------------------------
# exact powers and their rendering
# ---------------------------------------------------------------------------


def exact_power_str(d1: FirstDegree, exponents: list[int]) -> list[str]:
    """Symbolic renderings of d1^e for every e in exponents, in their order.

    A monic quadratic d1 gets closed forms A + B*sqrt(D), from one pass of
    arithmetic in Z[d1] up to the largest exponent; any other d1 is rendered
    as powers of its exact string, which is built once.
    """
    if isinstance(d1, int):
        return ["1"] * len(exponents)
    parts = quadratic_surd_parts(d1) if d1.poly.is_monic else None
    if parts is None:
        base = d1.exact_str()
        return ["1" if e == 0 else base if e == 1 else f"({base})^{e}" for e in exponents]
    a0, b0, d = parts
    c0, c1, _ = d1.poly.coeffs
    closed = ["1"]
    # d1^e = u + v*d1 times d1 is -v*c0 + (u - v*c1)*d1, as d1^2 = -c1*d1 - c0
    u, v = 0, 1
    for _ in range(max(exponents, default=0)):
        closed.append(quadratic_surd_str(u + v * a0, v * b0, d))
        u, v = -v * c0, u - v * c1
    return [closed[e] for e in exponents]


def power_decimal(
    d1: AlgebraicReal, exponents: list[int], sig_digits: int, scale: int = 1
) -> SpectrumDecimals:
    """Correctly rounded decimals of d1^e for every e in exponents, in their
    order, and of scale*ln(d1) and scale*log10(d1), from one walk of d1's
    interval.

    d1's interval (lo, hi] is halved twice between checks. At a check each
    pending exponent, in ascending order, first meets the width gate
    (hi^e - lo^e) * 10^(sig_digits + 2) < lo^e and then rounded_decimal on
    [lo^e, hi^e]; the first it cannot yet decide waits for the next check,
    and so do the larger ones. The logarithms are tried, on the bounds of
    _log_bounds, at each check with (hi - lo) * 10^(sig_digits + 2) < lo - 1
    until both are decided.

    d1 must be an algebraic unit larger than 1 (leading coefficient and
    constant term +-1), as every first dynamical degree is: it is an
    eigenvalue of an integer matrix of determinant +-1. Then no value sits on
    a rounding boundary, which is rational, so the walk ends: d1^e for
    e >= 1 is a unit larger than 1, so irrational; ln(d1) is transcendental
    (Lindemann); and scale*log10(d1) = a/b would make the unit d1^b equal
    10^a.
    """
    if any(e < 0 for e in exponents):
        raise ValueError("power decimals need nonnegative exponents")
    coeffs = d1.poly.coeffs
    if abs(coeffs[0]) != 1 or abs(coeffs[-1]) != 1:
        raise ValueError("power decimals need an algebraic unit")
    if d1.compare_rational(1) <= 0:
        raise ValueError("power decimals need a base larger than 1")
    done = {0: "1"}
    pending = sorted(set(exponents) - {0})
    logs = None
    gate = 10 ** (sig_digits + 2)
    for step, (a, b, den) in enumerate(d1.bisection_path()):
        if step % 2:
            continue
        while pending and a > 0:
            e = pending[0]
            lo_e, hi_e = a**e, b**e
            if (hi_e - lo_e) * gate >= lo_e:
                break
            text = rounded_decimal(lo_e, hi_e, den**e, sig_digits)
            if text is None:
                break
            done[e] = text
            pending.pop(0)
        if logs is None and (b - a) * gate < a - den:
            bounds = _log_bounds(a, b, den)
            logs = [rounded_decimal(scale * lo, scale * hi, d, sig_digits) for lo, hi, d in bounds]
            if None in logs:
                logs = None
        if not pending and logs is not None:
            return SpectrumDecimals(tuple(done[e] for e in exponents), *logs)


def _log_bounds(a: int, b: int, den: int) -> list[tuple[int, int, int]]:
    """Bounds (low, high, d) with low/d <= log(x) <= high/d for every x in
    [a/den, b/den], 1 < a/den, for ln and then log10.

    lo = a/den is rounded down to a Decimal; Decimal.ln and .log10 round
    correctly, so one step down from each is a lower bound, and as
    log(hi) - log(lo) <= (hi/lo - 1) / ln(e or 10), one call per logarithm
    bounds it from above too. The working precision is the digits of
    b/(b - a) plus a guard, so it grows as the interval narrows; for x near 1
    that counts the leading zeros of x - 1, which carry none of ln(x).
    """
    out = []
    with localcontext() as ctx:
        ctx.prec = ((b.bit_length() - (b - a).bit_length()) * LOG10_2_Q31 >> 31) + 6
        ctx.rounding = ROUND_FLOOR
        lo = Decimal(a) / den
        num, dn = lo.as_integer_ratio()
        # x / lo - 1 <= rise / rise_den
        rise, rise_den = b * dn - den * num, den * num
        for log, (per, per_den) in ((Decimal.ln, (1, 1)), (Decimal.log10, INV_LN10_UPPER)):
            at_lo = log(lo)
            low, low_den = at_lo.next_minus().as_integer_ratio()
            high, high_den = at_lo.next_plus().as_integer_ratio()
            # high/high_den + rise/rise_den * per/per_den, over one denominator
            high = high * rise_den * per_den + rise * per * high_den
            high_den *= rise_den * per_den
            out.append((low * high_den, high * low_den, low_den * high_den))
    return out


def degree_spectrum(n: int, d1: FirstDegree) -> DegreeSpectrum:
    """Full degree table d_k = d1^min(k, 2n-k) for k = 0..2n with entropy,
    in exact symbolic form.

    d1 = 1 (the AllCyclotomic case) gives the all-ones table and entropy 0.
    """
    if n < 1:
        raise ValueError("half dimension n must be >= 1")
    if isinstance(d1, int) and d1 != 1:
        raise ValueError("integer d1 must be exactly 1")
    exponents = [min(k, 2 * n - k) for k in range(2 * n + 1)]
    exact = exact_power_str(d1, exponents)
    return DegreeSpectrum(
        half_dim=n,
        d1=d1,
        entries=tuple(SpectrumEntry(k, e, s) for k, (e, s) in enumerate(zip(exponents, exact))),
        entropy_exact="0" if isinstance(d1, int) else f"{n}*log({exact[1]})",
    )


def spectrum_decimals(spec: DegreeSpectrum, sig_digits: int) -> SpectrumDecimals:
    """The decimals a report prints for spec, from one power_decimal walk:
    each d_k, and n*ln(d_1) and n*log10(d_1), all correctly rounded."""
    if isinstance(spec.d1, int):
        return SpectrumDecimals(("1",) * len(spec.entries), "0", "0")
    return power_decimal(spec.d1, [e.exponent for e in spec.entries], sig_digits, spec.half_dim)


def validate_spectrum_shape(
    values: Sequence[str | Decimal | int | float],
    tolerance: Decimal | float = 1e-9,
) -> ShapeReport:
    """Check a degree table against the structural laws: palindromic symmetry,
    endpoints 1, log-concavity, the power law d_k = d1^min(k, 2n-k), and
    strict growth up to the middle when d1 > 1 (constancy when d1 = 1).

    values are the decimals of d_0..d_2n, such as the certified strings of
    spectrum_decimals. Each is read exactly as a Decimal and the checks run
    in Decimal arithmetic with twice the digits of the longest value, so no
    table is too large to judge. Equalities hold up to the relative
    tolerance; a table printed to p significant digits needs about 10^(2-p).

    No command calls it: a table built by the power law meets it whatever
    d_1 is, so it cannot catch a wrong d_1 (beauville-demo checks
    d_1(M^l) = d_1(M)^l exactly instead). It stays here, with ShapeReport,
    because perfbench/tracing.py wraps it by name.
    """
    values = [Decimal(v) for v in values]
    tol = Decimal(tolerance)
    if len(values) % 2 != 1 or len(values) < 3:
        return ShapeReport((f"table length {len(values)} is not odd and >= 3",))
    violations: list[str] = []
    n = (len(values) - 1) // 2
    with localcontext() as ctx:
        ctx.prec = 2 * max(len(v.as_tuple().digits) for v in values) + 10
        if abs(values[0] - 1) > tol or abs(values[-1] - 1) > tol:
            violations.append(f"endpoints d_0 = {values[0]}, d_2n = {values[-1]} are not 1")
        for k in range(2 * n + 1):
            if abs(values[k] - values[2 * n - k]) > tol * max(1, abs(values[k])):
                violations.append(f"palindrome broken at k={k}: {values[k]} vs {values[2 * n - k]}")
                break
        for k, v in enumerate(values):
            if v <= 0:
                violations.append(f"nonpositive degree d_{k} = {v}")
                return ShapeReport(tuple(violations))
        for k in range(1, 2 * n):
            if values[k - 1] * values[k + 1] > values[k] ** 2 * (1 + tol):
                violations.append(f"log-concavity violated at k={k}")
        d1 = values[1]
        for k in range(2 * n + 1):
            expected = d1 ** min(k, 2 * n - k)
            if abs(values[k] - expected) > tol * max(1, expected):
                violations.append(
                    f"power-law violation at k={k}: d_k = {values[k]}, "
                    f"d_1^{min(k, 2 * n - k)} = {expected}"
                )
        if d1 > 1 + tol:
            for k in range(n):
                if not values[k] < values[k + 1]:
                    violations.append(f"not strictly increasing at k={k}")
        else:
            for k, v in enumerate(values):
                if abs(v - 1) > tol:
                    violations.append(f"d1 = 1 but d_{k} = {v} != 1")
    return ShapeReport(tuple(violations))


# ---------------------------------------------------------------------------
# bounded isometry search
# ---------------------------------------------------------------------------


def enumerate_isometries(lat: GramLattice, entry_bound: int) -> list[list[list[int]]]:
    """All integer matrices with entries in [-bound, bound] and M^T G M = G.

    Column-by-column backtracking: column j must have norm G[j][j] and the
    right pairings with all earlier columns. Candidate columns come from
    norm buckets, one lattice.affine_points walk of the box per needed
    norm, so each bucket is in lexicographic order and the output order is
    deterministic. G*v is computed once per bucket vector for the pairing
    checks.

    The last column (j = r-1 >= 1) is solved: its r-1 pairing equations
    leave u0 + t*k when their integer kernel is one-dimensional, and the
    norm is then a quadratic in t whose nonzero solutions inside the box
    are the candidates, sorted. Another kernel dimension, or a quadratic
    with a = k^T G k and b = 2 u0^T G k both 0, falls back to filtering
    the bucket.
    """
    if entry_bound < 1:
        raise ValueError("entry bound must be >= 1")
    g = lat.gram_rows()
    r = lat.rank
    buckets = {
        norm: [v for v in affine_points(g, norm, entry_bound) if any(v)]
        for norm in {g[j][j] for j in range(r)}
    }
    gv = {v: linalg.mat_vec(g, v) for bucket in buckets.values() for v in bucket}

    def filtered(j: int) -> list[tuple[int, ...]]:
        vs = buckets[g[j][j]]
        for i, c in enumerate(cols):
            w, t = gv[c], g[i][j]
            vs = [v for v in vs if sum(map(mul, v, w)) == t]
        return vs

    def last_column() -> list[tuple[int, ...]]:
        j = r - 1
        solution = linalg.solve_integer_system([gv[c] for c in cols], g[j][:j])
        if solution is None:
            return []
        u0, kernel = solution
        if len(kernel) == 1:
            gk = linalg.mat_vec(g, kernel[0])
            if sum(map(mul, kernel[0], gk)) or sum(map(mul, u0, gk)):
                return sorted(
                    v
                    for v in affine_points(g, g[j][j], entry_bound, u0, kernel)
                    if any(v) and max(map(abs, v)) <= entry_bound
                )
        return filtered(j)

    results: list[list[list[int]]] = []
    cols: list[tuple[int, ...]] = []

    def backtrack(j: int):
        if j == r:
            results.append([list(row) for row in zip(*cols)])
            return
        for v in last_column() if j and j == r - 1 else filtered(j):
            cols.append(v)
            backtrack(j + 1)
            cols.pop()

    backtrack(0)
    return results


def search_salem_isometries(
    lat: GramLattice, entry_bound: int
) -> list[tuple[list[list[int]], AlgebraicReal]]:
    """Catalogue of Salem-structure isometries found within the entry bound,
    one representative per Salem polynomial (the least in row-major order),
    sorted by increasing root.

    Besides the directly enumerated matrices, products of pairs of found
    involutions are classified too: positive-entropy elements often arise as
    such compositions while their own entries exceed the bound. As
    char(ab) = char(ba), each unordered pair {a, b} is classified once. On a
    nondegenerate form (det G != 0), char(ab) is reciprocal up to the sign
    (-1)^n det a det b, with each involution's determinant computed once, so
    it follows from tr((ab)^k) for k <= n/2 (reciprocal_char_poly): at rank
    3 that is tr(ab) alone, formed without the product, and at rank 4 one
    product and one trace-only product. A degenerate form takes char_poly of
    the product. ab (at rank 3) and ba are formed, to compete as
    representatives, only when the pair has the Salem structure. A dict local
    to the call maps characteristic polynomials to their classification, so
    each distinct polynomial is classified once per search.
    """
    isometries = enumerate_isometries(lat, entry_bound)
    n = lat.rank
    classes: dict[tuple[int, ...], SalemClassification] = {}
    hits: dict[tuple[int, ...], tuple[tuple[int, ...], list[list[int]], AlgebraicReal]] = {}

    def classify(p: IntPolynomial) -> SalemClassification:
        cls = classes.get(p.coeffs)
        if cls is None:
            cls = classes[p.coeffs] = classify_charpoly(p)
        return cls

    def consider(m: list[list[int]], cls: SalemClassification):
        if cls.kind != SALEM_STRUCTURE:
            return
        key = cls.salem_factor.coeffs
        flat = tuple(itertools.chain.from_iterable(m))
        cur = hits.get(key)
        if cur is None or flat < cur[0]:
            hits[key] = (flat, m, cls.salem_root)

    for m in isometries:
        consider(m, classify(char_poly(m)))
    ident = linalg.identity(n)
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    nondegenerate = linalg.det_bareiss(lat.gram_rows()) != 0
    dets = [linalg.det_bareiss(m) for m in involutions] if nondegenerate else []
    # (sign, t_1, ..., t_(n//2)) -> classification of the polynomial they give
    by_traces: dict[tuple[int, ...], SalemClassification] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(involutions), 2):
        # at rank 3 the one trace needed is tr(ab), which takes no product
        ab = None if nondegenerate and n < 4 else linalg.mat_mul(a, b)
        if not nondegenerate:
            cls = classify(char_poly(ab))
        else:
            sign = (-1) ** n * dets[i] * dets[j]
            traces = [linalg.trace_of_product(a, b)] if ab is None else power_traces(ab, n // 2)
            key = (sign, *traces)
            cls = by_traces.get(key)
            if cls is None:
                cls = by_traces[key] = classify(reciprocal_char_poly(n, traces, sign))
        if cls.kind == SALEM_STRUCTURE:
            consider(ab or linalg.mat_mul(a, b), cls)
            consider(linalg.mat_mul(b, a), cls)
    found = [(m, root) for _, m, root in hits.values()]
    found.sort(key=cmp_to_key(lambda x, y: x[1].compare_to(y[1])))
    return found
