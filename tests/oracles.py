"""Independent references that only the tests use: a float power
iteration, a symmetric power and its dimension, a Fraction rank, integer
solvability by determinantal divisors, the product a classification
multiplies back to, the coefficient-list decoder of the JSON polynomial
format and the reader of its algebraic reals, the argparse parser of the
command line, the combination search for the Beauville involution,
the Salem search over every pair of involutions, the affine-lattice walk
that solves the last coordinate alone and the norm buckets it fills with
one walk per norm, the bisection walk of a root and its decimals, of any
real algebraic number and of the powers and logarithms of a unit, with
exact powers, logarithm bounds from one Decimal.ln and one Decimal.log10
call, the decimal-module forms of the logarithm bounds, the rounded
decimal and the quotient that src/hkdd now computes on integers, and the
rounding-boundary test, the Salem root by isolation, a
reciprocality test, the constructor of an algebraic real from Fraction
ends, its interval as Fractions and its float, the exact powers of a root
rendered by Fraction arithmetic with a Sturm-indexed positional form, the
Salem certificate from three root counts on the square-free trace
polynomial, and the block extension of a base isometry to a Hilbert
lattice.
"""

import argparse
import functools
import itertools
import math
import operator
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np

from fraction_sturm import fraction_sturm_count
from hkdd import linalg
from hkdd.dynamics import SpectrumDecimals, enumerate_isometries
from hkdd.errors import HkddError, NotIsometryError
from hkdd.hyperkahler import BeauvilleSolution, CandidateRecord, HilbertLattice, _e_slot_order
from hkdd.jsonio import decode_int
from hkdd.lattice import LatticeIsometry, _integer_quadratic_roots, invariant_sublattice, verify_isometry
from hkdd.polynomial import (
    LOG10_2_Q31,
    MAX_DIGITS,
    AlgebraicReal,
    Coeffs,
    IntPolynomial,
    _half_even,
    _scaled_floor,
    _sign_at,
    _weights,
    char_poly,
    cyclotomic,
    is_palindromic,
    is_perfect_square,
    isolate_real_roots,
    power_traces,
    reciprocal_char_poly,
    rounded_decimal,
    square_free_part,
    square_part,
    sturm_count,
    trace_polynomial,
)
from hkdd.salem import SALEM_STRUCTURE, SalemCheck, SalemClassification, classify_charpoly, salem_root_of


def power_iteration_radius(m: list[list[int]], iters: int = 500, tol: float = 1e-12) -> float:
    """Spectral radius by plain power iteration with a deterministic start."""
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


def rational_rank(a: list[list[int]]) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    if not a or not a[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def leibniz_det(m: list[list[int]]) -> int:
    """Determinant as the signed sum over permutations (1 for 0 x 0)."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
        total += (-1) ** inversions * math.prod(m[i][p] for i, p in enumerate(perm))
    return total


def minors_gcd(a: list[list[int]], k: int) -> int:
    """gcd of the k x k minors of a (the k-th determinantal divisor)."""
    return math.gcd(
        *(
            leibniz_det([[a[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(range(len(a)), k)
            for cs in itertools.combinations(range(len(a[0])), k)
        )
    )


def integer_solvable(a: list[list[int]], b: list[int]) -> bool:
    """Does a x = b have an integer solution? Yes exactly when a and [a | b]
    share their rank r and the gcd of their r x r minors."""
    augmented = [[*row, x] for row, x in zip(a, b)]
    r = rational_rank(a)
    return r == rational_rank(augmented) and minors_gcd(a, r) == minors_gcd(augmented, r)


def rebuild_product(c: SalemClassification) -> IntPolynomial:
    """Multiply the classified factors, the remainder included, back together."""
    out = c.remainder
    for n, mult in c.cyclotomic_factors:
        for _ in range(mult):
            out = out * cyclotomic(n)
    return out


def algebraic_real_from_json(obj: dict) -> AlgebraicReal:
    """The AlgebraicReal of a JSON root: its poly, whose coefficients past
    53 bits are decimal strings, and interval (lo, hi]."""
    poly = IntPolynomial(tuple(decode_coeffs(obj["poly"])))
    return algebraic_real(poly, Fraction(obj["lo"]), Fraction(obj["hi"]))


def algebraic_real(p: IntPolynomial, lo: Fraction, hi: Fraction) -> AlgebraicReal:
    """The AlgebraicReal of p on (lo, hi], rational ends put on their
    common denominator."""
    den = math.lcm(lo.denominator, hi.denominator)
    return AlgebraicReal(p, lo.numerator * den // lo.denominator, hi.numerator * den // hi.denominator, den)


def interval(root: AlgebraicReal) -> tuple[Fraction, Fraction]:
    """The isolating interval (lo, hi] of root as Fractions, each in lowest terms."""
    return Fraction(root.a, root.den), Fraction(root.b, root.den)


def root_index(roots: list[tuple[Fraction, Fraction]], x: AlgebraicReal) -> int:
    """The index of x among roots, the fraction_isolate intervals of a
    multiple of x.poly: the one whose overlap with x's interval holds a root
    of x.poly."""
    lo, hi = interval(x)
    overlaps = [(i, max(lo, u), min(hi, v)) for i, (u, v) in enumerate(roots)]
    hits = [i for i, a, b in overlaps if a < b and fraction_sturm_count(x.poly, a, b)]
    assert len(hits) == 1
    return hits[0]


def as_float(x: AlgebraicReal) -> float:
    """A float near x, its 17-digit decimal, to compare with float oracles."""
    return float(bisection_decimal_str(x, 17))


def is_reciprocal(p: IntPolynomial) -> bool:
    """True iff x^deg * p(1/x) equals p or -p."""
    if p.is_zero:
        raise HkddError("reciprocality undefined for the zero polynomial")
    rev = tuple(reversed(p.coeffs))
    return rev == p.coeffs or rev == tuple(-c for c in p.coeffs)


def isolation_salem_root(p: IntPolynomial) -> AlgebraicReal:
    """salem_root_of by isolation: the last root isolate_real_roots finds,
    walked two bisection steps at a time until its interval lies right of 1."""
    root = isolate_real_roots(p)[-1]
    for a, b, den in itertools.islice(bisection_path(root), 0, None, 2):
        if a > den:
            return AlgebraicReal(root.poly, a, b, den)


def decode_coeffs(obj) -> list[int]:
    if not isinstance(obj, list):
        raise HkddError("polynomial must be a list of coefficients")
    return [decode_int(x) for x in obj]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its command table: the
    reference that the table's parser must agree with on every command line
    it accepts, apart from global options after the command."""
    parser = argparse.ArgumentParser(
        prog="hkdd",
        description=(
            "Exact dynamical degree spectra and entropy of hyperkahler lattice "
            "automorphisms, with Salem classification of characteristic "
            "polynomials."
        ),
        epilog=(
            "Polynomial coefficients are given constant term FIRST: x^2 - 34x + 1 "
            "is '1 -34 1'."
        ),
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format (default: table)",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=12,
        help="significant digits for decimals (default: 12, minimum 3, maximum 4300)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="rank, parity, signature, determinant")
    p.add_argument("lattice", help="lattice JSON file")

    p = sub.add_parser("degrees", help="full dynamical degree spectrum and entropy")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    p.add_argument("--half-dim", type=int, default=2, help="n with dim = 2n (default 2)")

    p = sub.add_parser("salem-check", help="classify a monic integer polynomial")
    p.add_argument("coeffs", type=int, nargs="+", help="coefficients, constant first")

    p = sub.add_parser("kummer", help="spectrum of an SL(2,Z) torus automorphism")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--half-dim", type=int, default=2, help="points on the Kummer surface (default 2)")

    sub.add_parser(
        "beauville-demo",
        help="reproduce the quartic-pair example end to end (no inputs needed)",
    )

    p = sub.add_parser(
        "natural-check",
        help="necessary condition for being induced from a surface automorphism",
    )
    p.add_argument("--lattice", required=True, help="extended lattice JSON file")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    p.add_argument("--half-dim", type=int, default=2, help="points n (default 2)")
    p.add_argument(
        "--e-index",
        type=int,
        default=None,
        help='index of the exceptional class (default: the basis labelled "e")',
    )

    p = sub.add_parser("search", help="catalogue Salem isometries within an entry bound")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--bound", type=int, default=8, help="entry bound (default 8)")

    return parser


def product_beauville(hilb, quartic_class_index: int, budget: int) -> BeauvilleSolution | None:
    """solve_beauville as a search: verify every combination of the candidate
    images of the basis vectors other than h and e, and keep the one that is
    an isometric involution with a fixed sublattice of rank 1. A candidate's
    reason is the first filter failed by the first combination holding it.

    The candidates of x are the points of norm (x, x) on the solutions
    u0 + sum t_i k_i of the two pairing constraints, with the last t solved
    from its quadratic, all in [-64, 64] (last_coordinate_points).

    Returns None when the combinations number more than budget, and raises
    ValueError when none or several survive.
    """
    lat = hilb.extended
    h = quartic_class_index
    e = hilb.e_index
    r = lat.rank
    iota_h = [0] * r
    iota_h[h], iota_h[e] = 3, -4
    iota_e = [0] * r
    iota_e[h], iota_e[e] = 2, -3
    others = [i for i in range(r) if i not in (h, e)]
    g = lat.gram_rows()
    rows = [linalg.mat_vec(g, iota_h), linalg.mat_vec(g, iota_e)]
    per_vector: list[list[tuple[int, ...]]] = []
    for x in others:
        u0, kernel = linalg.solve_integer_system(rows, [g[x][h], g[x][e]])
        cands = sorted(last_coordinate_points(g, g[x][x], 64, u0, kernel))
        if not cands:
            raise ValueError(f"no integer image for basis vector {lat.labels[x]}")
        per_vector.append(cands)
    if math.prod(map(len, per_vector)) > budget:
        return None

    survivors = []
    rejection_by_vector: dict[int, dict[tuple[int, ...], str]] = {x: {} for x in others}

    def note(combo, reason):
        for x, img in zip(others, combo):
            rejection_by_vector[x].setdefault(img, reason)

    for combo in itertools.product(*per_vector):
        m = [[0] * r for _ in range(r)]
        for i in range(r):
            m[i][h] = iota_h[i]
            m[i][e] = iota_e[i]
        for x, img in zip(others, combo):
            for i in range(r):
                m[i][x] = img[i]
        try:
            iso = verify_isometry(lat, m)
        except NotIsometryError:
            note(combo, "not an isometry")
            continue
        if linalg.mat_mul(m, m) != linalg.identity(r):
            note(combo, "square is not the identity")
            continue
        fixed = invariant_sublattice(iso)
        if len(fixed) != 1:
            note(combo, f"invariant sublattice has rank {len(fixed)}, need 1")
            continue
        survivors.append(({x: img for x, img in zip(others, combo)}, iso))

    if len(survivors) != 1:
        raise ValueError(f"{len(survivors)} combinations survive the involution filters")
    chosen_map, iso = survivors[0]
    records = tuple(
        CandidateRecord(
            basis_index=x,
            candidates=tuple(cands),
            chosen=chosen_map[x],
            rejections=tuple(
                (cand, rejection_by_vector[x].get(cand, "rejected in combination"))
                for cand in cands
                if cand != chosen_map[x]
            ),
        )
        for x, cands in zip(others, per_vector)
    )
    return BeauvilleSolution(
        isometry=iso,
        h_index=h,
        e_index=e,
        records=records,
        assumed_hypotheses=("quartic class is very ample", "the surface contains no line"),
    )


def all_isometries(lat, entry_bound: int) -> list[list[list[int]]]:
    """Every isometry in the box, in lexicographic order of columns:
    enumerate_isometries returns one of each +-M, those whose first column
    has a positive first nonzero entry, and the rest are those negated, in
    reverse order, before them."""
    half = enumerate_isometries(lat, entry_bound)
    return [[[-x for x in row] for row in m] for m in reversed(half)] + half


def all_pairs_search(lat, entry_bound: int) -> list[tuple[list[list[int]], AlgebraicReal]]:
    """search_salem_isometries without sign representatives: every
    enumerated isometry is classified, and every unordered pair of distinct
    involutions, -a and -b included, is classified once, by its half power
    traces on a nondegenerate form and by char_poly of the product on a
    degenerate one. ab and ba compete for a Salem pair."""
    isometries = all_isometries(lat, entry_bound)
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
    by_traces: dict[tuple[int, ...], SalemClassification] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(involutions), 2):
        ab = None if nondegenerate and n < 4 else linalg.mat_mul(a, b)
        if not nondegenerate:
            cls = classify(char_poly(ab))
        else:
            sign = (-1) ** n * dets[i] * dets[j]
            traces = [linalg.trace_of_product(a, zip(*b))] if ab is None else power_traces(ab, n // 2)
            key = (sign, *traces)
            cls = by_traces.get(key)
            if cls is None:
                cls = by_traces[key] = classify(reciprocal_char_poly(n, traces, sign))
        if cls.kind == SALEM_STRUCTURE:
            consider(ab or linalg.mat_mul(a, b), cls)
            consider(linalg.mat_mul(b, a), cls)
    found = [(m, root) for _, m, root in hits.values()]
    found.sort(key=functools.cmp_to_key(lambda x, y: x[1].compare_to(y[1])))
    return found


def last_coordinate_prefixes(gram, xs, q0: int = 0, lin0=None):
    """Every prefix (v_1, ..., v_(n-1)) with entries in xs, in lexicographic
    order, as (prefix, q, b): the value of q0 + lin0 . v + v^T G v on
    (prefix, x) is q + b*x + g_nn*x^2."""
    n = len(gram)
    lin0 = [0] * n if lin0 is None else list(lin0)
    if n == 1:
        yield (), q0, lin0[0]
        return
    xs = tuple(xs)
    stack = [((), q0, lin0)]
    while stack:
        prefix, q, lin = stack.pop()
        k = len(prefix)
        row = gram[k]
        gkk, lk = row[k], lin[0]
        if k == n - 2:
            gkl, ll = 2 * row[k + 1], lin[1]
            for x in xs:
                yield prefix + (x,), q + (gkk * x + lk) * x, ll + gkl * x
            continue
        rest, tail = row[k + 1:], lin[1:]
        for x in reversed(xs):
            stack.append(
                (
                    prefix + (x,),
                    q + (gkk * x + lk) * x,
                    [l + 2 * c * x for l, c in zip(tail, rest)],
                )
            )


def last_coordinate_points(gram, value: int, bound: int, u0=None, kernel=None):
    """Every v = u0 + sum t_i k_i with v^T G v = value, in lexicographic
    order of t: t_1..t_(m-1) run over [-bound, bound] and t_m is solved from
    its quadratic, the roots in [-bound, bound], and all of [-bound, bound]
    when the quadratic vanishes identically. With m = 0 the one point is
    u0."""
    if kernel is None:
        form, q0, lin0, point = gram, 0, None, tuple
    else:
        q0 = linalg.bilinear(gram, u0, u0)
        if not kernel:
            if q0 == value:
                yield tuple(u0)
            return
        g_k = [linalg.mat_vec(gram, k) for k in kernel]
        form = [[sum(map(operator.mul, k, g_l)) for g_l in g_k] for k in kernel]
        lin0 = [2 * sum(map(operator.mul, u0, g_l)) for g_l in g_k]
        rows = list(zip(*kernel))

        def point(t):
            return tuple(u + sum(map(operator.mul, t, row)) for u, row in zip(u0, rows))

    a = form[-1][-1]
    for ts, q, b in last_coordinate_prefixes(form, range(-bound, bound + 1), q0, lin0):
        for t in _integer_quadratic_roots(a, b, q - value, bound):
            if -bound <= t <= bound:
                yield point(ts + (t,))


def per_norm_buckets(gram, bound: int) -> dict[int, list[tuple[int, ...]]]:
    """The nonzero vectors of the box [-bound, bound]^r by norm, for every
    norm on the diagonal of G, one last_coordinate_points walk per norm."""
    return {
        norm: [v for v in last_coordinate_points(gram, norm, bound) if any(v)]
        for norm in {gram[j][j] for j in range(len(gram))}
    }


def bisection_path(x: AlgebraicReal):
    """Yield x's isolating interval as integers (a, b, den), lo = a/den
    and hi = b/den, first as it is and then after each bisection step.

    Signs come from q = square_free_part(p), of which the root is a
    simple root and the only one in the interval; so q changes sign at
    the root and nowhere else there. A step keeps (mid, hi] when q(hi) = 0
    (the root is hi) or when q(mid) is nonzero and of the other sign
    than q(hi), otherwise (lo, mid]: only one half holds the root.
    """
    a, b, den = x.a, x.b, x.den
    yield a, b, den
    # after k steps the endpoints are over den * 2^k
    weights = _weights(square_free_part(x.poly).coeffs, den)
    s_hi = _sign_at(weights, b, 0)
    k = 0
    while True:
        m, a, b, k = a + b, 2 * a, 2 * b, k + 1
        s_mid = _sign_at(weights, m, k)
        if s_hi and s_mid * s_hi >= 0:
            b, s_hi = m, s_mid
        else:
            a = m
        yield a, b, den << k


def bisection_decimal_str(root: AlgebraicReal, sig_digits: int) -> str:
    """The root correctly rounded (half-even), whatever real algebraic
    number it is, on bisection_path: the walk asks rounded_decimal once the
    interval, on the root's side of zero, is narrower than
    10^-(sig_digits+2) of its end nearer zero, and tests the rounding
    boundary when the ends round to adjacent strings."""
    if root.poly(0) == 0 and root.a < 0 <= root.b:
        return "0"
    scale = 10 ** (sig_digits + 2)
    for a, b, den in bisection_path(root):
        sign, lo, hi = (1, a, b) if a > 0 else (-1, -b, -a)
        if (hi - lo) * scale >= lo:
            continue
        text = rounded_decimal(lo, hi, den, sig_digits)
        if text is None:
            text = boundary_decimal(root.poly.coeffs, sign, lo, hi, den, sig_digits)
        if text is not None:
            return text if sign > 0 else "-" + text


def boundary_decimal(coeffs: Coeffs, sign: int, lo: int, hi: int, den: int, sig_digits: int) -> str | None:
    """The rounded value of sign * B when B, the rounding boundary between
    the differently rounded ends of [lo/den, hi/den], a hundredth of a unit
    wide, is the root there of the polynomial with these coeffs; else None.

    B = (q + 1/2) * 10^-s from the digits q of lo. The isolating interval
    leaves out lo (sign > 0) or hi (sign < 0, negated); a root there is
    another root.
    """
    q, s, h = _scaled_floor(lo, den, sig_digits)
    num, d = (2 * q + 1, 2 * 10**s) if s >= 0 else ((2 * q + 1) * 10**-s, 2)
    open_end = lo if sign > 0 else hi
    if h > 0 or num * den == open_end * d or _sign_at(_weights(coeffs, d), sign * num, 0):
        return None
    return rounded_decimal(num, num, d, sig_digits)


def bisection_power_decimal(
    d1: AlgebraicReal, exponents: list[int], sig_digits: int, scale: int = 1
) -> SpectrumDecimals:
    """dynamics.power_decimal on bisection_path with exact powers: d1's
    interval (lo, hi] is halved twice between checks, and at a check each
    pending exponent, ascending, meets the width gate and rounded_decimal on
    the exact [lo^e, hi^e]; the logarithms come from width_log_bounds."""
    done = {0: "1"}
    pending = sorted(set(exponents) - {0})
    logs = None
    gate = 10 ** (sig_digits + 2)
    for step, (a, b, den) in enumerate(bisection_path(d1)):
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
            bounds = width_log_bounds(a, b, den)
            logs = [rounded_decimal(scale * lo, scale * hi, d, sig_digits) for lo, hi, d in bounds]
            if None in logs:
                logs = None
        if not pending and logs is not None:
            return SpectrumDecimals(tuple(done[e] for e in exponents), *logs)


def decimal_rounded_decimal(a: int, b: int, den: int, sig_digits: int) -> str | None:
    """polynomial.rounded_decimal as it was with decimal: both ends rounded
    half-even by _half_even, None unless they agree, and the digits written
    by str(Decimal)."""
    q, s = _half_even(a, den, sig_digits)
    if _half_even(b, den, sig_digits) != (q, s):
        return None
    return str(Decimal(f"{q}E{-s}"))


def decimal_quotient(n: int, den: int, sig_digits: int) -> str:
    """polynomial.format_fraction as it was: Decimal division at
    sig_digits digits."""
    with localcontext() as ctx:
        ctx.prec = sig_digits
        return str(Decimal(n) / Decimal(den))


def decimal_log_bounds(a: int, b: int, den: int, digits: int) -> list[tuple[int, int, int]]:
    """dynamics._log_bounds as it was with decimal: bounds (low, high, d) on
    ln and then log10 of every x in [a/den, b/den], 1 < a/den, from one
    Decimal.ln at lo = a/den rounded down and one of 10.

    Decimal.ln rounds correctly, so one step down from ln(lo) is a lower
    bound on ln(x), and as ln(x) - ln(lo) <= x/lo - 1, one step up plus
    that rise is an upper bound. log10(x) = ln(x)/ln(10), and ln(10) lies
    between one step either side of Decimal(10).ln(): the lower ln bound is
    divided by the upper end of that pair and the upper ln bound by the
    lower end. The working precision is the one _log_bounds keeps.
    """
    with localcontext() as ctx:
        width_digits = (b.bit_length() - (b - a).bit_length()) * LOG10_2_Q31 >> 31
        near_one = (a.bit_length() - (a - den).bit_length()) * LOG10_2_Q31 >> 31
        ctx.prec = max(min(width_digits + 6, digits + near_one), near_one + 3)
        ctx.rounding = ROUND_FLOOR
        lo = Decimal(a) / den
        num, dn = lo.as_integer_ratio()
        # x / lo - 1 <= rise / rise_den
        rise, rise_den = b * dn - den * num, den * num
        at_lo, ln10 = lo.ln(), Decimal(10).ln()
        low, low_den = at_lo.next_minus().as_integer_ratio()
        high, high_den = at_lo.next_plus().as_integer_ratio()
        ten_low, ten_low_den = ln10.next_minus().as_integer_ratio()
        ten_high, ten_high_den = ln10.next_plus().as_integer_ratio()
    high, high_den = high * rise_den + rise * high_den, high_den * rise_den
    low10, low10_den = low * ten_high_den, low_den * ten_high
    high10, high10_den = high * ten_low_den, high_den * ten_low
    return [
        (low * high_den, high * low_den, low_den * high_den),
        (low10 * high10_den, high10 * low10_den, low10_den * high10_den),
    ]


# 1/ln(10) < 10000/23025, as ln(10) = 2.302585...
INV_LN10_UPPER = (10000, 23025)


def width_log_bounds(a: int, b: int, den: int) -> list[tuple[int, int, int]]:
    """Bounds (low, high, d) on ln and then log10 of every x in
    [a/den, b/den], 1 < a/den, from two_call_bounds at a working precision
    of the digits of b/(b - a) plus a guard alone."""
    return two_call_bounds(a, b, den, ((b.bit_length() - (b - a).bit_length()) * LOG10_2_Q31 >> 31) + 6)


def two_call_log_bounds(a: int, b: int, den: int, digits: int) -> list[tuple[int, int, int]]:
    """dynamics._log_bounds as it was before decimal_log_bounds: the
    bounds of two_call_bounds at the digits of b/(b - a) plus a guard, but
    at most digits plus the digits of a/(a - den), with no floor."""
    width_digits = (b.bit_length() - (b - a).bit_length()) * LOG10_2_Q31 >> 31
    near_one = (a.bit_length() - (a - den).bit_length()) * LOG10_2_Q31 >> 31
    return two_call_bounds(a, b, den, min(width_digits + 6, digits + near_one))


def two_call_bounds(a: int, b: int, den: int, prec: int) -> list[tuple[int, int, int]]:
    """Bounds (low, high, d) on ln and then log10 of every x in
    [a/den, b/den], 1 < a/den, from one correctly rounded Decimal.ln and one
    Decimal.log10 at lo = a/den rounded down to prec digits, each widened
    above by the rise x/lo - 1 >= ln(x) - ln(lo), times INV_LN10_UPPER for
    log10."""
    out = []
    with localcontext() as ctx:
        ctx.prec = prec
        ctx.rounding = ROUND_FLOOR
        lo = Decimal(a) / den
        num, dn = lo.as_integer_ratio()
        rise, rise_den = b * dn - den * num, den * num
        for log, (per, per_den) in ((Decimal.ln, (1, 1)), (Decimal.log10, INV_LN10_UPPER)):
            at_lo = log(lo)
            low, low_den = at_lo.next_minus().as_integer_ratio()
            high, high_den = at_lo.next_plus().as_integer_ratio()
            high = high * rise_den * per_den + rise * per * high_den
            high_den *= rise_den * per_den
            out.append((low * high_den, high * low_den, low_den * high_den))
    return out


def fraction_exact_power_str(d1, exponents: list[int]) -> list[str]:
    """dynamics.exact_power_str as Fraction arithmetic in Z[d1]: a monic
    quadratic d1 gets closed forms A + B*sqrt(D), with the branch picked by
    comparing d1 with the vertex; any other d1 is rendered as powers of its
    Sturm-indexed positional string."""
    if isinstance(d1, int):
        return ["1"] * len(exponents)
    parts = quadratic_surd_parts(d1) if d1.poly.is_monic else None
    if parts is None:
        base = sturm_root_str(d1)
        return ["1" if e == 0 else base if e == 1 else f"({base})^{e}" for e in exponents]
    a0, b0, d = parts
    c0, c1, _ = d1.poly.coeffs
    closed = ["1"]
    # d1^e = u + v*d1 times d1 is -v*c0 + (u - v*c1)*d1, as d1^2 = -c1*d1 - c0
    u, v = 0, 1
    for _ in range(max(exponents, default=0)):
        closed.append(fraction_surd_str(u + v * a0, v * b0, d))
        u, v = -v * c0, u - v * c1
    return [closed[e] for e in exponents]


def fraction_surd_str(a: Fraction, b: Fraction, d: int) -> str:
    """Render a + b*sqrt(d) with a common denominator, e.g. (7+3*sqrt(5))/2.
    An integer of the form past MAX_DIGITS digits ends in an exit-2 HkddError."""
    denom = math.lcm(a.denominator, b.denominator)
    p = int(a * denom)
    q = int(b * denom)
    if max(abs(p), abs(q), d, denom) >= 10**MAX_DIGITS:
        raise HkddError(f"exact form has an integer of more than {MAX_DIGITS} digits")
    if q == 0:
        return str(Fraction(p, denom))
    root = f"sqrt({d})" if abs(q) == 1 else f"{abs(q)}*sqrt({d})"
    if p == 0:
        core = root if q > 0 else f"-{root}"
    else:
        core = f"{p}+{root}" if q > 0 else f"{p}-{root}"
    if denom == 1:
        return core
    return f"({core})/{denom}"


def quadratic_surd_parts(a: AlgebraicReal) -> tuple[Fraction, Fraction, int] | None:
    """Write a degree-2 algebraic real as A + B*sqrt(D), D > 1 square-free
    up to SQUARE_PART_LIMIT (see square_part); the form is exact either way.

    Returns None when the defining polynomial is not an irrational quadratic.
    """
    p = a.poly
    if p.degree != 2:
        return None
    c0, c1, c2 = p.coeffs
    disc = c1 * c1 - 4 * c0 * c2
    if disc <= 0 or is_perfect_square(disc):
        return None
    s, d = square_part(disc)
    vertex = Fraction(-c1, 2 * c2)
    # the vertex is no root, as the discriminant is positive
    plus_branch = a.compare_rational(vertex.numerator, vertex.denominator) > 0
    if c2 < 0:
        plus_branch = not plus_branch
    coef = Fraction(s, 2 * c2) if plus_branch else Fraction(-s, 2 * c2)
    return vertex, coef, d


def sturm_root_str(a: AlgebraicReal) -> str:
    """Closed form for degree <= 2, else the root's index among the real
    roots by a Sturm count and its interval to 8 digits."""
    p = a.poly
    if p.degree == 1:
        return str(Fraction(-p.coeffs[0], p.coeffs[1]))
    parts = quadratic_surd_parts(a)
    if parts is not None:
        return fraction_surd_str(*parts)
    lo, hi = interval(a)
    idx = sturm_count(p, None, lo) + 1
    ends = (decimal_quotient(end.numerator, end.denominator, 8) for end in (lo, hi))
    return f"root #{idx} of {p} in [{', '.join(ends)}]"


def sturm_count_certify(p: IntPolynomial) -> SalemCheck:
    """salem._certify with three sturm_count calls, each of which takes the
    square-free part of the trace polynomial and builds its own chain."""
    if p.degree % 2 != 0:
        return SalemCheck(False, f"odd degree {p.degree}")
    if not is_palindromic(p):
        return SalemCheck(False, "coefficient vector is not palindromic")
    d = p.degree // 2
    q = trace_polynomial(p)
    if q(2) == 0 or q(-2) == 0:
        return SalemCheck(False, "trace polynomial vanishes at +/-2")
    total = sturm_count(q, None, None)
    above = sturm_count(q, 2, None)
    inside = sturm_count(q, -2, 2)
    if total != d or above != 1 or inside != d - 1:
        return SalemCheck(
            False,
            f"trace root layout {total} real / {above} above 2 / {inside} in (-2,2), "
            f"need {d} / 1 / {d - 1}",
            real_roots_total=total,
            roots_above_2=above,
            roots_inside=inside,
        )
    root = salem_root_of(p)
    return SalemCheck(
        True,
        "salem certificate holds",
        real_roots_total=total,
        roots_above_2=above,
        roots_inside=inside,
        root=root,
    )


def natural_isometry(g: LatticeIsometry, hilb: HilbertLattice) -> LatticeIsometry:
    """Block extension of a base isometry fixing e; d_1 is unchanged since the
    extra eigenvalue is 1."""
    if g.lattice.gram != hilb.base.gram:
        raise HkddError("isometry does not act on the base lattice")
    r = hilb.base.rank
    order = _e_slot_order(r, hilb.e_index)
    m = [[*row, 0] for row in g.matrix] + [[0] * r + [1]]
    return verify_isometry(hilb.extended, [[m[i][j] for j in order] for i in order])
