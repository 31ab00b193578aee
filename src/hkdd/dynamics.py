"""Dynamical degree spectra, entropy, and the Salem search.

The degree law for hyperkahler-type isometries says d_k = d_1^min(k, 2n-k)
across k = 0..2n, with entropy n*ln(d_1). The first degree is the Salem root
of the characteristic polynomial on the lattice (or exactly 1 when every
factor is cyclotomic). The law leaves n + 1 distinct values in 2n + 1
rows: a DegreeSpectrum holds d_1^0..d_1^n in exact form, from
exact_power_str, the one exact renderer, and spectrum_decimals renders them
and the entropy from one walk of d_1's certified isolating interval, each
decimal correctly rounded (polynomial.rounded_decimal); spectrum_rows alone
lays out the 2n + 1 rows. No floating point is used, and no decimal: the
entropy's logarithms are bounded on integers (_log_bounds), and a structure
violation is reported with the exact reason the Salem test gave. The
bounded Salem search takes nondegenerate lattices only (det G = 0 ends in exit 2) and
classifies every candidate, a sign representative or an involution pair,
by its reciprocity sign and half power traces.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence
from math import isqrt
from operator import itemgetter, mul

from . import linalg
from .errors import HkddError, SpectralStructureViolatedError
from .lattice import GramLattice, LatticeIsometry, box_points
from .polynomial import (
    AlgebraicReal,
    DIGITS_BOUND,
    LOG10_2_Q31,
    char_poly,
    format_fraction,
    power_traces,
    quadratic_surd_str,
    reciprocal_char_poly,
    rounded_decimal,
    square_part,
)
from .salem import (
    ALL_CYCLOTOMIC,
    SALEM_STRUCTURE,
    SalemClassification,
    classify_charpoly,
)

# d_1 is either the exact integer 1 or a Salem root, an exact AlgebraicReal.
FirstDegree = AlgebraicReal | int


# The degree table at half dimension n: powers holds the exact forms of
# d_1^0..d_1^n, a tuple of str, and entropy_exact that of n*ln(d_1); their
# decimals come from spectrum_decimals, and the rows from spectrum_rows.
DegreeSpectrum = namedtuple("DegreeSpectrum", "half_dim d1 powers entropy_exact")
# Correctly rounded decimal strings at one precision: entries[e] is that of
# d_1^e for e = 0..top (top = n for a spectrum), and the entropy n*ln(d_1)
# in nats and n*log10(d_1).
SpectrumDecimals = namedtuple("SpectrumDecimals", "entries nats log10")


class ShapeReport(namedtuple("ShapeReport", "violations")):
    """The violations, a tuple of str, that validate_spectrum_shape found."""

    __slots__ = ()

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


def exact_power_str(d1: FirstDegree, top: int) -> list[str]:
    """Exact renderings of d1^e for e = 0..top.

    d1 is 1 or a Salem root lambda > 1; its polynomial S must be monic and
    reciprocal. For S = x^2 - s*x + 1, lambda^e = (V_e + U_e*t*sqrt(D))/2,
    s^2 - 4 = t^2*D (square_part), from the integer Lucas sequences V_0 = 2,
    V_1 = s, U_0 = 0, U_1 = 1, X_(e+1) = s*X_e - X_(e-1). The walk stops at
    V_e >= 2*DIGITS_BOUND, past the digit bound even when halved, and forms
    are written largest first, so a column past the bound fails before any
    string is built. Otherwise lambda is "root #2 of S in [lo, hi]", as the
    certificate puts the real roots of S at 1/lambda < 1 < lambda.
    """
    if isinstance(d1, int):
        return ["1"] * (top + 1)
    coeffs = d1.poly.coeffs
    if coeffs[-1] != 1 or coeffs != coeffs[::-1]:
        raise ValueError(f"exact powers need 1 or a Salem root, not a root of {d1.poly}")
    if d1.poly.degree > 2:
        lo, hi = format_fraction(d1.a, d1.den, 8), format_fraction(d1.b, d1.den, 8)
        base = f"root #2 of {d1.poly} in [{lo}, {hi}]"
        return ["1" if e == 0 else base if e == 1 else f"({base})^{e}" for e in range(top + 1)]
    s = -coeffs[1]
    t, d = square_part(s * s - 4)
    v, tu = [2, s], [0, t]  # V_e and t*U_e
    while len(v) <= top and v[-1] < 2 * DIGITS_BOUND:
        v.append(s * v[-1] - v[-2])
        tu.append(s * tu[-1] - tu[-2])
    # a walk stopped short ends at a V_e that quadratic_surd_str rejects
    forms = [quadratic_surd_str(v[e], tu[e], d) for e in range(min(top, len(v) - 1), 0, -1)]
    return ["1", *reversed(forms)]


def power_decimal(d1: AlgebraicReal, n: int, sig_digits: int) -> SpectrumDecimals:
    """Correctly rounded decimals of d1^e for e = 0..n
    (AlgebraicReal.power_decimals), and of n*ln(d1) and n*log10(d1), from
    the one walk of d1's interval (AlgebraicReal.quadratic_path), which the
    logarithms carry on from the narrowest interval the powers reached.

    The logarithms are tried, on the integer bounds of _log_bounds, three
    floored logarithms per try (of lo, of 2 and of 5/4), at each interval
    (lo, hi] with
    (hi - lo) * 10^(sig_digits + 2) < lo - 1 until both are decided, with
    the digit budget grown by half after each failure.

    d1 must be an algebraic unit larger than 1, as every first dynamical
    degree is: it is an eigenvalue of an integer matrix of determinant +-1.
    Then no logarithm sits on a rounding boundary, which is rational, so the
    walk ends: ln(d1) is transcendental (Lindemann), and n*log10(d1) = a/b
    would make the unit d1^b equal 10^a.
    """
    entries = d1.power_decimals(n, sig_digits)
    gate = 10 ** (sig_digits + 2)
    log_digits = sig_digits + 10
    for a, b, den in d1.quadratic_path():
        if (b - a) * gate < a - den:
            bounds = _log_bounds(a, b, den, log_digits)
            logs = [rounded_decimal(n * lo, n * hi, d, sig_digits) for lo, hi, d in bounds]
            if None not in logs:
                return SpectrumDecimals(entries, *logs)
            log_digits += log_digits // 2


def _log_bounds(a: int, b: int, den: int, digits: int) -> list[tuple[int, int, int]]:
    """Bounds (low, high, 2^P) with low/2^P <= log(x) <= high/2^P for every
    x in [a/den, b/den], 1 < a/den, for ln and then log10, on integers.

    ln(a/den) = k*ln(2) + ln(y) with y = a/(den*2^k) in [1, 2), and
    ln(10) = 3*ln(2) + ln(5/4); _ln_fixed bounds each of the three
    logarithms from below with one floored pass, to within its error count.
    ln(b/den) <= ln(a/den) + (b - a)/a gives the upper ln bound, and the
    log10 bounds are the ln bounds divided by the upper and then the lower
    bound on ln(10), which keeps both outward as all are positive.

    The working precision is the digits of b/(b - a) plus a guard, so it
    follows the interval's width, but at most digits plus the digits of
    a/(a - den): the caller rounds to fewer than digits, and for x near 1
    the leading zeros of x - 1 carry none of ln(x). It is at least those
    leading digits plus 3, which keeps the lower ln bound above 0. P is
    that many digits in bits, plus guard bits for the error counts.
    """
    width_digits = (b.bit_length() - (b - a).bit_length()) * LOG10_2_Q31 >> 31
    near_one = (a.bit_length() - (a - den).bit_length()) * LOG10_2_Q31 >> 31
    prec = max(min(width_digits + 6, digits + near_one), near_one + 3)
    bits = -(-prec * 3322 // 1000)  # log2(10) < 3.322
    bits += isqrt(bits) + bits.bit_length() + 8
    k = a.bit_length() - den.bit_length()
    if a < den << k:
        k -= 1
    ln2, err2 = _ln_fixed(2, 1, bits)
    low, err = _ln_fixed(a, den << k, bits)
    low, err = low + k * ln2, err + k * err2
    # (b - a)/a >= ln(b/den) - ln(a/den), rounded up onto the grid
    high = low + err - ((a - b) << bits) // a
    ln10, err10 = _ln_fixed(5, 4, bits)
    ln10, err10 = ln10 + 3 * ln2, err10 + 3 * err2
    return [
        (low, high, 1 << bits),
        ((low << bits) // (ln10 + err10), -((-high << bits) // ln10), 1 << bits),
    ]


def _ln_fixed(n: int, d: int, bits: int) -> tuple[int, int]:
    """(low, err) with low <= ln(n/d) * 2^bits <= low + err, for
    1 <= n/d <= 2, in one floored pass (Brent & Zimmermann, Modern Computer
    Arithmetic, 4.2 and 4.4): y = n/d on the grid 2^-bits, j = isqrt(bits)
    square roots of y by isqrt, so ln(y) = 2^j * ln(y_j), and the series
    ln(y_j) = 2 * atanh(t), t = (y_j - 1)/(y_j + 1) < 2^-(j+1), summed
    term by term until the floored power t^(2m+1) is 0.

    Each step floors, so low stays below. In units of the sum, which
    approximates atanh(t) * 2^bits: the quotient and each root leave it
    less than 2 units low (less than 1 in ln(y_j)), each term less than 2,
    and the tail after the last term less than 3 (the power it stopped at
    is below 2 units, and t^2 < 1/9). ln(y) = 2^(j+1) * atanh(t) multiplies
    the sum and the count alike.
    """
    one = 1 << bits
    roots = isqrt(bits)
    y = (n << bits) // d
    for _ in range(roots):
        y = isqrt(y << bits)
    t = ((y - one) << bits) // (y + one)
    t2 = t * t >> bits
    total, power, m = 0, t, 1
    while power:
        total += power // m
        power, m = power * t2 >> bits, m + 2
    terms = m // 2
    return total << (roots + 1), (2 * (roots + 1) + 2 * terms + 3) << (roots + 1)


def degree_spectrum(n: int, d1: FirstDegree) -> DegreeSpectrum:
    """The degree table at half dimension n, in exact symbolic form: the
    powers d1^0..d1^n and the entropy n*log(d1).

    d1 = 1 (the AllCyclotomic case) gives the all-ones table and entropy 0.
    """
    if n < 1:
        raise ValueError("half dimension n must be >= 1")
    if isinstance(d1, int) and d1 != 1:
        raise ValueError("integer d1 must be exactly 1")
    powers = tuple(exact_power_str(d1, n))
    entropy = "0" if isinstance(d1, int) else f"{n}*log({powers[1]})"
    return DegreeSpectrum(half_dim=n, d1=d1, powers=powers, entropy_exact=entropy)


def spectrum_decimals(spec: DegreeSpectrum, sig_digits: int) -> SpectrumDecimals:
    """The decimals a report prints for spec, from one power_decimal walk:
    d1^e for e = 0..n, n*ln(d_1) and n*log10(d_1), all correctly rounded."""
    if isinstance(spec.d1, int):
        return SpectrumDecimals(("1",) * (spec.half_dim + 1), "0", "0")
    return power_decimal(spec.d1, spec.half_dim, sig_digits)


def spectrum_rows(spec: DegreeSpectrum, dec: SpectrumDecimals):
    """Yield the rows (k, e, exact, decimal) of spec's table, k = 0..2n:
    d_k = d1^e with e = min(k, 2n - k), read from the n + 1 powers and
    their decimals dec. The one place that knows the palindromic layout."""
    n = spec.half_dim
    for k in range(2 * n + 1):
        e = min(k, 2 * n - k)
        yield k, e, spec.powers[e], dec.entries[e]


def validate_spectrum_shape(values: Sequence, tolerance=1e-9) -> ShapeReport:
    """Check a degree table against the structural laws: palindromic symmetry,
    endpoints 1, log-concavity, the power law d_k = d1^min(k, 2n-k), and
    strict growth up to the middle when d1 > 1 (constancy when d1 = 1).

    values are the decimals of d_0..d_2n, such as spectrum_rows reads from
    spectrum_decimals. Each is read exactly as a Decimal and the checks run
    in Decimal arithmetic with twice the digits of the longest value, so no
    table is too large to judge. Equalities hold up to the relative
    tolerance; a table printed to p significant digits needs about 10^(2-p).

    No command calls it: a table built by the power law meets it whatever
    d_1 is, so it cannot catch a wrong d_1 (beauville-demo checks
    d_1(M^l) = d_1(M)^l exactly instead). It stays here, with ShapeReport,
    because perfbench/tracing.py wraps it by name, and it alone imports
    decimal, inside its body, so that no command loads it.
    """
    from decimal import Decimal, localcontext

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
        for k in range(n + 1):  # the palindrome check above covers k > n
            expected = d1**k
            if abs(values[k] - expected) > tol * max(1, expected):
                violations.append(f"power-law violation at k={k}: d_k = {values[k]}, d_1^{k} = {expected}")
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
    """One of each pair +-M of integer matrices with entries in
    [-bound, bound] and M^T G M = G: the M whose first column has a
    positive first nonzero entry, in lexicographic order of their columns.

    Column-by-column backtracking: column j must have norm G[j][j] and
    pair with each earlier column c_i as G[i][j]. Every column, the last
    one included, starts from its norm bucket, in lexicographic order; one
    lattice.box_points walk of the box fills the buckets of every norm
    on the diagonal. Choosing c_j filters the list of every later column k
    once, in order, to the u with u.G c_j = G[j][k] (G c_j computed once
    per choice); the first list left empty prunes the choice, and the lists
    after it are not filtered. So the last column's list holds exactly the
    vectors that complete an isometry.

    Half the tree is walked. With M, -M is an isometry in the box, and a
    bucket is closed under negation, so the walk takes only first columns
    whose first nonzero entry is positive, the upper half of their bucket.
    The isometries under the lower half are the returned ones negated.

    A list still closed under negation (closed[j][k]: a bucket, or one
    filtered with c = 0 alone) pairs on its upper half: in lexicographic
    order its (h + i)-th and (h - 1 - i)-th of 2h vectors are u and -u, so
    one product u.G c_j keeps u when it is c and -u when it is -c.
    """
    if entry_bound < 1:
        raise ValueError("entry bound must be >= 1")
    g = lat.gram_rows()
    r = lat.rank
    buckets = {g[j][j]: [] for j in range(r)}
    for norm, v in box_points(g, buckets, entry_bound):
        if any(v):
            buckets[norm].append(v)

    results: list[list[list[int]]] = []
    cols: list[tuple[int, ...]] = []
    closed = [[not any(g[i][k] for i in range(j)) for k in range(r)] for j in range(r)]

    def backtrack(j: int, lists: list[list[tuple[int, ...]]]):
        if j == r:
            results.append([list(row) for row in zip(*cols)])
            return
        vs, row, later = lists[0], g[j], lists[1:]
        for v in vs[len(vs) // 2 :] if j == 0 else vs:
            w, rest = later and linalg.mat_vec(g, v), []
            for k, us in enumerate(later, j + 1):
                if closed[j][k]:
                    h, c = len(us) // 2, row[k]
                    dots = [sum(map(mul, u, w)) for u in us[h:]]
                    rest.append([u for u, x in zip(us[:h], reversed(dots)) if x == -c]
                                + [u for u, x in zip(us[h:], dots) if x == c])
                else:
                    rest.append([u for u in us if sum(map(mul, u, w)) == row[k]])
                if not rest[-1]:
                    break
            else:
                cols.append(v)
                backtrack(j + 1, rest)
                cols.pop()

    backtrack(0, [buckets[g[j][j]] for j in range(r)])
    return results


def search_salem_isometries(
    lat: GramLattice, entry_bound: int
) -> list[tuple[list[list[int]], AlgebraicReal]]:
    """Catalogue of Salem-structure isometries found within the entry bound,
    one representative per Salem polynomial (the least in row-major order),
    sorted by increasing root (AlgebraicReal.compare_to).

    The lattice must be nondegenerate, as H^2 and Neron-Severi lattices
    are: det G = 0 ends in an exit-2 HkddError before any enumeration.
    Besides the enumerated matrices, products of pairs of found involutions
    are classified: positive-entropy elements often arise as such
    compositions while their own entries exceed the bound.

    Both run on sign representatives, the matrices enumerate_isometries
    returns, one of each +-M. An M with the Salem structure has its root l > 1
    as an eigenvalue, so -M has -l < -1: at most one of +-M is Salem. Pairs
    run over representatives a, b alone: {+-a, +-b} give +-ab, and {a, -a}
    gives -I. As char(ab) = char(ba), each pair is classified once.

    Every candidate X takes one path: as G is nondegenerate, char(X) is
    reciprocal up to the sign (-1)^n det X, so it follows from its key:
    that sign and t_k = tr(X^k), k <= n/2 (reciprocal_char_poly). -X, of sign
    (-1)^n times X's and traces (-1)^k t_k, is tried only when X is not
    Salem. One dict maps each key, and its negation with it, to its answer,
    so each polynomial is classified at most once per search, and
    classify_charpoly certifies each remainder once (salem._certify).

    A Salem-structure X has tr X > 4 - n. Its eigenvalues are l and 1/l,
    whose sum exceeds 2 as l > 1, and n - 2 on the unit circle, each of
    real part >= -1; tr X is the sum of their real parts. So a candidate
    with |t_1| <= 4 - n is not classified, and at rank 1, where there is no
    t_1, nothing is. Involutions (_as_involution) are never Salem; other
    representatives take a det only past that bound, and pairs of
    involutions take their keys from _pair_traces. A Salem candidate, an
    enumerated s*M or a pair's s*ab and s*ba, is compared with the kept
    representative from its (0, 0) entry on, one entry at a time while
    they tie, and formed only when it replaces it.
    """
    if linalg.det_bareiss(lat.gram_rows()) == 0:
        raise HkddError("search needs a nondegenerate lattice (det G = 0)")
    reps = enumerate_isometries(lat, entry_bound)
    n = lat.rank
    answers: dict[tuple[int, ...], tuple[int, SalemClassification | None]] = {}
    hits: dict[tuple[int, ...], tuple[tuple[int, ...], AlgebraicReal]] = {}

    def salem_sign(key: tuple[int, ...]) -> tuple[int, SalemClassification | None]:
        """1 when X, of this key (sign, t_1, ..., t_(n//2)), is Salem, -1
        when -X is, else 0; with the Salem classification. The answer is
        kept in answers for the key and, negated, for -X's key."""
        negated = ((-1) ** n * key[0], *(-t if k % 2 else t for k, t in enumerate(key[1:], 1)))
        answer = 0, None
        # when -X has X's key, neither is Salem, as at most one of +-X is
        for s, cand in ((1, key), (-1, negated)) if negated != key else ():
            if cand[1] > 4 - n:
                cls = classify_charpoly(reciprocal_char_poly(n, list(cand[1:]), cand[0]))
                if cls.kind == SALEM_STRUCTURE:
                    answer = s, cls
                    break
        answers[negated] = -answer[0], answer[1]
        answers[key] = answer
        return answer

    def consider(cls: SalemClassification, s: int, rows: list[list[int]], cols=None):
        """Make s * rows * cols, or s * rows when cols is None, cls's
        representative if it strictly precedes the kept one in row-major
        order. The (0, 0) entries are compared first; later entries are
        formed one at a time only while all before them tie, and the rest
        only when the matrix replaces the kept one. On a tie throughout the
        kept one stays."""
        key = cls.salem_factor.coeffs
        kept = hits.get(key)
        first = rows[0][0] if cols is None else sum(map(mul, rows[0], cols[0]))
        if kept is not None and s * first > kept[0][0]:
            return
        if cols is None:
            entries = (s * x for row in rows for x in row)
        else:
            entries = (s * sum(map(mul, row, col)) for row in rows for col in cols)
        prefix = ()
        if kept is not None:
            for i, (x, y) in enumerate(zip(entries, kept[0])):
                if x != y:
                    if x > y:
                        return
                    prefix = (*kept[0][:i], x)
                    break
            else:
                return
        hits[key] = (*prefix, *entries), cls.salem_root

    ident = linalg.identity(n)
    involutions = []
    for m in reps:
        traces = power_traces(m, max(n // 2, 2))
        involution = _as_involution(m, traces, ident)
        if involution:
            involutions.append(involution)
        elif n > 1 and abs(traces[0]) > 4 - n:
            key = ((-1) ** n * linalg.det_bareiss(m), *traces[: n // 2])
            s, cls = answers.get(key) or salem_sign(key)
            if s:
                consider(cls, s, m)
    for (a, _, a_cols), (b, _, b_cols), key in _pair_traces(involutions):
        s, cls = answers.get(key) or salem_sign(key)
        if s:
            consider(cls, s, a, b_cols)
            consider(cls, s, b, a_cols)
    return [
        ([list(flat[k : k + n]) for k in range(0, n * n, n)], root)
        for flat, root in sorted(hits.values(), key=itemgetter(1))
    ]


def _as_involution(m: list[list[int]], traces: list[int], ident: list[list[int]]):
    """(m, det m, the columns of m) when the isometry m, with traces
    t_1 = tr m and t_2 = tr(m^2), is an involution, else None. m^2 = I is
    tested only when t_2 = n, as it must then be; an involution has
    eigenvalues +-1 alone, so det m = (-1)^((n - t_1)/2)."""
    n = len(m)
    if traces[1] == n and linalg.mat_mul(m, m) == ident:
        return m, (-1) ** ((n - traces[0]) // 2), linalg.transpose(m)
    return None


def _second_compound(m: list[list[int]]) -> list[int]:
    """The entries, row by row, of the second compound of the square m:
    its 2 x 2 minors, rows and columns indexed by the pairs i < j in
    lexicographic order."""
    pairs = list(itertools.combinations(range(len(m)), 2))
    return [m[i][k] * m[j][l] - m[i][l] * m[j][k] for i, j in pairs for k, l in pairs]


def _pair_traces(involutions: list[tuple[list[list[int]], int, list[list[int]]]]):
    """Yield (x, y, key) for each pair x, y of involutions, x before y in
    the list, whose product ab is not ruled out with -ab by the trace gate
    |t_1| <= 4 - n; x = (a, det a, columns of a) and y likewise, as
    _as_involution gives them. key is (sign, t_1, ..., t_(n//2)) of ab,
    with sign = (-1)^n det(ab).

    Each involution is flattened once, rows and columns, so t_1 = tr(ab)
    is one sum of n^2 products and no matrix is formed. t_2 = tr((ab)^2),
    needed at ranks 4 and 5, is t_1^2 - 2 tr(C(ab)), where C is the second
    compound: tr C(X) is the second elementary symmetric function of X's
    eigenvalues, and C(ab) = C(a) C(b) (Cauchy-Binet), so tr C(ab) is one
    sum of (n choose 2)^2 products from C(a) and C(b)^T = C(b^T), both
    taken once per involution. At rank 4 with sign -1 the reciprocity makes
    the middle coefficient c_2 = -c_2 = 0, so t_2 = t_1^2 by Newton's
    identity. Only at rank 6 and up is ab formed, for power_traces.
    """
    n = len(involutions[0][0]) if involutions else 0
    if n < 2:
        return
    gate, parity, compounds = 4 - n, (-1) ** n, n in (4, 5)
    flat = [
        (
            x,
            list(itertools.chain.from_iterable(x[0])),
            list(itertools.chain.from_iterable(x[2])),
            parity * x[1],
            _second_compound(x[0]) if compounds else None,
            _second_compound(x[2]) if compounds else None,
        )
        for x in involutions
    ]
    for i, (x, rows, _, sign_x, compound, _) in enumerate(flat):
        for y, _, cols, sign_y, _, compound_t in flat[i + 1 :]:
            t1 = sum(map(mul, rows, cols))
            if -gate <= t1 <= gate:
                continue
            sign = parity * sign_x * sign_y
            if n < 4:
                yield x, y, (sign, t1)
            elif n == 4 and sign < 0:
                yield x, y, (sign, t1, t1 * t1)
            elif compounds:
                yield x, y, (sign, t1, t1 * t1 - 2 * sum(map(mul, compound, compound_t)))
            else:
                yield x, y, (sign, *power_traces(linalg.product_from_columns(x[0], y[2]), n // 2))
