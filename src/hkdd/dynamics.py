"""Dynamical degree spectra, entropy, symmetric powers, and the Salem search.

The degree law for hyperkahler-type isometries says d_k = d_1^min(k, 2n-k)
across k = 0..2n, with entropy n*ln(d_1). The first degree is the Salem root
of the characteristic polynomial on the lattice (or exactly 1 when every
factor is cyclotomic); all decimals here are produced from certified
isolating intervals. Floating point appears only in the cross-checking
oracles (power iteration, eigenvalue moduli), never in the exact path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from . import linalg
from .errors import SpectralStructureViolatedError
from .lattice import GramLattice, LatticeIsometry
from .polynomial import (
    AlgebraicReal,
    IntPolynomial,
    char_poly,
    format_fraction,
    quadratic_surd_parts,
    quadratic_surd_str,
    square_free_part,
    sturm_count,
)
from .salem import (
    ALL_CYCLOTOMIC,
    SALEM_STRUCTURE,
    SalemClassification,
    classify_charpoly,
)

# d_1 is either an exact AlgebraicReal larger than 1 or the exact integer 1.
FirstDegree = AlgebraicReal | int


@dataclass(frozen=True)
class SpectrumEntry:
    k: int
    exponent: int  # min(k, 2n - k)
    exact: str
    decimal: float  # d_1^exponent rounded to a double; math.inf past the double range


@dataclass(frozen=True)
class DegreeSpectrum:
    """The table (k, d_k) for k = 0..2n plus entropy, palindromic by the
    degree law. Exact entries are symbolic powers of d_1; decimals are
    certified approximations."""

    half_dim: int
    d1: FirstDegree
    entries: tuple[SpectrumEntry, ...]
    entropy_nats: float
    entropy_log10: float
    entropy_exact: str

    @property
    def decimals(self) -> list[float]:
        return [e.decimal for e in self.entries]


@dataclass(frozen=True)
class ShapeReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def float_spectral_radius(m: list[list[int]]) -> float:
    """Eigenvalue-based spectral radius estimate (diagnostic only)."""
    import numpy as np

    return float(np.abs(np.linalg.eigvals(np.array(m, dtype=float))).max())


def power_iteration_radius(m: list[list[int]], iters: int = 500, tol: float = 1e-12) -> float:
    """Spectral radius by plain power iteration with a deterministic start."""
    import numpy as np

    a = np.array(m, dtype=float)
    n = a.shape[0]
    x = np.ones(n) / math.sqrt(n)
    estimate = 0.0
    for _ in range(iters):
        y = a @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        if abs(norm - estimate) <= tol * max(1.0, norm):
            return norm
        estimate = norm
        x = y / norm
    return estimate


def first_dynamical_degree(iso: LatticeIsometry) -> FirstDegree:
    """Salem root of char(M) when the spectral structure holds, else exact 1.

    Raises SpectralStructureViolatedError (with a float spectral radius
    diagnostic) when the characteristic polynomial is not cyclotomic x Salem;
    such a matrix cannot come from a hyperkahler automorphism.
    """
    cls = classify_charpoly(char_poly(iso.rows()))
    return degree_from_classification(cls, iso.rows())


def degree_from_classification(
    cls: SalemClassification, m: list[list[int]]
) -> FirstDegree:
    if cls.kind == ALL_CYCLOTOMIC:
        return 1
    if cls.kind == SALEM_STRUCTURE:
        return cls.salem_root
    raise SpectralStructureViolatedError(
        "characteristic polynomial is not cyclotomic x Salem",
        float_spectral_radius(m),
    )


# ---------------------------------------------------------------------------
# exact powers and their rendering
# ---------------------------------------------------------------------------


def _companion(p: IntPolynomial) -> list[list[int]]:
    d = p.degree
    if not p.is_monic or d < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    c = [[0] * d for _ in range(d)]
    for i in range(1, d):
        c[i][i - 1] = 1
    for i in range(d):
        c[i][d - 1] = -p.coeffs[i]
    return c


def power_iterate_degree(d1: AlgebraicReal, power: int) -> AlgebraicReal:
    """Exact representation of d1^power for a certified d1 > 1.

    The defining polynomial of the power is the (square-free part of the)
    characteristic polynomial of the power-th companion-matrix power, so the
    degree never grows. The isolating interval is the image of d1's.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    if power == 1:
        return d1
    base = d1
    while base.lo < 1:
        base = base.refined((base.hi - base.lo) / 2)
    q = square_free_part(char_poly(linalg.mat_pow(_companion(base.poly), power)))
    lo, hi = base.lo, base.hi
    while sturm_count(q, lo**power, hi**power) != 1:
        base = base.refined((base.hi - base.lo) / 2)
        lo, hi = base.lo, base.hi
    return AlgebraicReal(q, lo**power, hi**power)


def _quadratic_power_parts(
    d1: AlgebraicReal, e: int
) -> tuple[Fraction, Fraction, int] | None:
    """(A, B, D) with d1^e = A + B*sqrt(D), via arithmetic in Z[d1]."""
    parts = quadratic_surd_parts(d1)
    if parts is None:
        return None
    a0, b0, d = parts
    if not d1.poly.is_monic:
        return None
    c0, c1, _ = d1.poly.coeffs
    # alpha^2 = -c1*alpha - c0; compute alpha^e = u + v*alpha by repeated product
    u, v = 1, 0
    for _ in range(e):
        u, v = -v * c0, u - v * c1
    return u + v * a0, v * b0, d


def exact_power_str(d1: FirstDegree, e: int) -> str:
    """Symbolic rendering of d1^e; closed form for quadratic d1."""
    if e == 0 or d1 == 1 or isinstance(d1, int):
        return "1"
    parts = _quadratic_power_parts(d1, e)
    if parts is not None:
        return quadratic_surd_str(*parts)
    base = d1.exact_str()
    return base if e == 1 else f"({base})^{e}"


def power_decimal(
    d1: AlgebraicReal, exponents: list[int], sig_digits: int
) -> list[tuple[Fraction, str]]:
    """Certified decimals of d1^e for every e in exponents, in their order.

    d1's interval (lo, hi] is halved twice between checks, once lo > 0.
    Exponent e is done at the first check where
    (hi^e - lo^e) * 10^(sig_digits + 2) < lo^e, and d1^e is then the
    midpoint of (lo^e, hi^e]. As (hi/lo)^e grows with e, a larger exponent
    never finishes earlier, so one walk serves all exponents in ascending
    order and each stops at the interval a walk of its own would stop at.
    """
    if any(e < 0 for e in exponents):
        raise ValueError("power decimals need nonnegative exponents")
    if d1.compare_rational(0) <= 0:
        raise ValueError("power decimals need a positive base")
    done: dict[int, tuple[Fraction, str]] = {0: (Fraction(1), "1")}
    pending = sorted(set(exponents) - {0})
    scale = 10 ** (sig_digits + 2)
    for step, (a, b, den) in enumerate(d1.bisection_path()):
        while pending and step % 2 == 0 and a > 0:
            e = pending[0]
            lo_e, hi_e = a**e, b**e
            if (hi_e - lo_e) * scale >= lo_e:
                break
            mid = Fraction(lo_e + hi_e, 2 * den**e)
            done[e] = (mid, format_fraction(mid, sig_digits))
            pending.pop(0)
        if not pending:
            break
    return [done[e] for e in exponents]


def _as_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def degree_spectrum(n: int, d1: FirstDegree) -> DegreeSpectrum:
    """Full degree table d_k = d1^min(k, 2n-k) for k = 0..2n with entropy.

    d1 = 1 (the AllCyclotomic case) gives the all-ones table and entropy 0.
    Entropy is reported in nats (natural log) with a log10 companion value.
    """
    if n < 1:
        raise ValueError("half dimension n must be >= 1")
    trivial = isinstance(d1, int)
    if trivial and d1 != 1:
        raise ValueError("integer d1 must be exactly 1")
    exponents = [min(k, 2 * n - k) for k in range(2 * n + 1)]
    if trivial:
        entries = [SpectrumEntry(k, e, "1", 1.0) for k, e in enumerate(exponents)]
        h_nats, h_log10 = 0.0, 0.0
        h_exact = "0"
    else:
        exact = {e: exact_power_str(d1, e) for e in set(exponents)}
        entries = [
            SpectrumEntry(k, e, exact[e], _as_float(mid))
            for k, (e, (mid, _)) in enumerate(zip(exponents, power_decimal(d1, exponents, 17)))
        ]
        d1_float = float(d1)
        h_nats = n * math.log(d1_float)
        h_log10 = n * math.log10(d1_float)
        h_exact = f"{n}*log({exact[1]})"
    return DegreeSpectrum(
        half_dim=n,
        d1=d1,
        entries=tuple(entries),
        entropy_nats=h_nats,
        entropy_log10=h_log10,
        entropy_exact=h_exact,
    )


def validate_spectrum_shape(
    spectrum: DegreeSpectrum | list[float],
    tolerance: float = 1e-9,
) -> ShapeReport:
    """Check a degree table against the structural laws: palindromic symmetry,
    endpoints 1, log-concavity, the power law d_k = d1^min(k, 2n-k), and
    strict growth up to the middle when d1 > 1 (constancy when d1 = 1).

    Accepts a DegreeSpectrum or a bare list of decimals (odd length). A
    non-finite entry, such as a degree past the double range, is reported
    as a violation: the float checks cannot judge it.
    """
    if isinstance(spectrum, DegreeSpectrum):
        values = spectrum.decimals
    else:
        values = list(spectrum)
    violations: list[str] = []
    if len(values) % 2 != 1 or len(values) < 3:
        return ShapeReport((f"table length {len(values)} is not odd and >= 3",))
    nonfinite = [k for k, v in enumerate(values) if not math.isfinite(v)]
    if nonfinite:
        k = nonfinite[0]
        return ShapeReport(
            (f"{len(nonfinite)} non-finite degree(s), first d_{k} = {values[k]}",)
        )
    n = (len(values) - 1) // 2
    if abs(values[0] - 1.0) > tolerance or abs(values[-1] - 1.0) > tolerance:
        violations.append(f"endpoints d_0 = {values[0]}, d_2n = {values[-1]} are not 1")
    for k in range(2 * n + 1):
        if abs(values[k] - values[2 * n - k]) > tolerance * max(1.0, abs(values[k])):
            violations.append(f"palindrome broken at k={k}: {values[k]} vs {values[2 * n - k]}")
            break
    logs = []
    for k, v in enumerate(values):
        if v <= 0:
            violations.append(f"nonpositive degree d_{k} = {v}")
            return ShapeReport(tuple(violations))
        logs.append(math.log(v))
    for k in range(1, 2 * n):
        if logs[k - 1] + logs[k + 1] > 2 * logs[k] + tolerance:
            violations.append(f"log-concavity violated at k={k}")
    d1 = values[1]
    for k in range(2 * n + 1):
        e = min(k, 2 * n - k)
        try:
            expected = d1**e
        except OverflowError:
            violations.append(f"power-law violation at k={k}: d_1^{e} is past the double range")
            continue
        if abs(values[k] - expected) > tolerance * max(1.0, expected):
            violations.append(
                f"power-law violation at k={k}: d_k = {values[k]}, d_1^{e} = {expected}"
            )
    if d1 > 1 + tolerance:
        for k in range(n):
            if not values[k] < values[k + 1]:
                violations.append(f"not strictly increasing at k={k}")
    else:
        for k, v in enumerate(values):
            if abs(v - 1.0) > tolerance:
                violations.append(f"d1 = 1 but d_{k} = {v} != 1")
    return ShapeReport(tuple(violations))


# ---------------------------------------------------------------------------
# symmetric powers
# ---------------------------------------------------------------------------


def sym_power_dim(rank: int, k: int) -> int:
    return math.comb(rank + k - 1, k)


def sym_power_matrix(m: list[list[int]], k: int) -> list[list[int]]:
    """Induced action on Sym^k in the basis of sorted degree-k monomials.

    Column J (a multiset of basis indices) is the expansion of the product
    of the images of its factors; eigenvalues of the result are the k-fold
    products of eigenvalues of m.
    """
    if k < 1:
        raise ValueError("symmetric power k must be >= 1")
    r = len(m)
    basis = list(itertools.combinations_with_replacement(range(r), k))
    index = {mono: i for i, mono in enumerate(basis)}
    out = [[0] * len(basis) for _ in range(len(basis))]
    for col, mono in enumerate(basis):
        acc: dict[tuple[int, ...], int] = {(): 1}
        for j in mono:
            nxt: dict[tuple[int, ...], int] = {}
            for part, coef in acc.items():
                for i in range(r):
                    mij = m[i][j]
                    if mij == 0:
                        continue
                    key = tuple(sorted(part + (i,)))
                    nxt[key] = nxt.get(key, 0) + coef * mij
            acc = nxt
        for part, coef in acc.items():
            if coef:
                out[index[part]][col] = coef
    return out


def multiplicity_one_check(m: list[list[int]], k: int) -> bool:
    """Is d1^k attained by exactly one eigenvalue multiset of size k?

    Eigenvalues of Sym^k are products over index multisets. With the Salem
    structure the moduli are one root > 1 (simple), one < 1, and the rest
    exactly 1, so a product reaches modulus d1^k only by choosing the large
    root k times; the count is C(mult + k - 1, k) for its multiplicity.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cls = classify_charpoly(char_poly(m))
    if cls.kind != SALEM_STRUCTURE:
        raise SpectralStructureViolatedError(
            f"classification is {cls.kind}, need SalemStructure",
            float_spectral_radius(m),
        )
    # the Salem factor occurs exactly once (the peeled remainder is the
    # factor itself) and its large root is simple (square-free certificate)
    large_root_multiplicity = 1
    count = math.comb(large_root_multiplicity + k - 1, k)
    return count == 1


# ---------------------------------------------------------------------------
# bounded isometry search
# ---------------------------------------------------------------------------


def enumerate_isometries(lat: GramLattice, entry_bound: int) -> list[list[list[int]]]:
    """All integer matrices with entries in [-bound, bound] and M^T G M = G.

    Column-by-column backtracking: column j must have norm G[j][j] and the
    right pairings with all earlier columns. Candidate columns are tried in
    lexicographic order, so the output order is deterministic.
    """
    if entry_bound < 1:
        raise ValueError("entry bound must be >= 1")
    g = lat.gram_rows()
    r = lat.rank
    needed = set(g[j][j] for j in range(r))
    buckets: dict[int, list[tuple[int, ...]]] = {norm: [] for norm in needed}
    for v in itertools.product(range(-entry_bound, entry_bound + 1), repeat=r):
        if not any(v):
            continue
        norm = linalg.bilinear(g, list(v), list(v))
        if norm in buckets:
            buckets[norm].append(v)
    # cache G * column for the pairing checks
    gv_cache: dict[tuple[int, ...], list[int]] = {}

    def g_times(v: tuple[int, ...]) -> list[int]:
        got = gv_cache.get(v)
        if got is None:
            got = linalg.mat_vec(g, list(v))
            gv_cache[v] = got
        return got

    results: list[list[list[int]]] = []
    cols: list[tuple[int, ...]] = []

    def backtrack(j: int):
        if j == r:
            results.append([[cols[c][i] for c in range(r)] for i in range(r)])
            return
        for v in buckets[g[j][j]]:
            ok = True
            for i in range(j):
                gi = g_times(cols[i])
                if sum(x * y for x, y in zip(v, gi)) != g[i][j]:
                    ok = False
                    break
            if ok:
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
    char(ab) = char(ba), each unordered pair {a, b} costs one product and
    one characteristic polynomial; ba is formed only when ab has the Salem
    structure, to compete as a representative. A dict local to the call
    maps characteristic polynomials to their classification, so each
    distinct polynomial is classified once per search.
    """
    isometries = enumerate_isometries(lat, entry_bound)
    classes: dict[tuple[int, ...], SalemClassification] = {}
    hits: dict[tuple[int, ...], tuple[tuple[int, ...], list[list[int]], AlgebraicReal]] = {}

    def classify(m: list[list[int]]) -> SalemClassification:
        p = char_poly(m)
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
        consider(m, classify(m))
    ident = linalg.identity(lat.rank)
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    for a, b in itertools.combinations(involutions, 2):
        ab = linalg.mat_mul(a, b)
        cls = classify(ab)
        if cls.kind == SALEM_STRUCTURE:
            consider(ab, cls)
            consider(linalg.mat_mul(b, a), cls)
    found = [(m, root) for _, m, root in hits.values()]
    found.sort(key=cmp_to_key(lambda x, y: x[1].compare_to(y[1])))
    return found
