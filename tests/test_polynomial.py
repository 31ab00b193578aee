import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdd import linalg
from hkdd.dynamics import power_decimal
from hkdd.errors import (
    NotDivisibleError,
    NotPalindromicError,
    OddDegreeError,
    ZeroPolynomialError,
)
from hkdd.polynomial import (
    AlgebraicReal,
    IntPolynomial,
    ONE_POLY,
    char_poly,
    cyclotomic,
    divide_exact,
    is_reciprocal,
    isolate_real_roots,
    poly,
    rounded_decimal,
    square_free_part,
    square_part,
    sturm_count,
    trace_polynomial,
)
from conftest import assert_correctly_rounded, mp_root
from oracles import algebraic_real_from_json

LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


# --- characteristic polynomial ---------------------------------------------


def det_xI_minus_M(m):
    """Independent charpoly oracle: cofactor expansion with polynomial entries."""
    n = len(m)
    entries = [
        [poly(-m[i][j], 1) if i == j else poly(-m[i][j]) for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return rows[0][cols[0]]
        total = IntPolynomial(())
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = rows[0][c] * minor
            total = total + term if idx % 2 == 0 else total - term
        return total

    return det(entries, list(range(n)))


def test_char_poly_fixture_matrices(m1, m1m2):
    assert char_poly(m1m2) == poly(-1, 35, -35, 1)
    assert char_poly(m1) == poly(-1, 1) * poly(1, 1) * poly(1, 1)
    assert char_poly(linalg.identity(4)) == poly(-1, 1) * poly(-1, 1) * poly(-1, 1) * poly(-1, 1)


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(23)
    for n in range(1, 6):
        for _ in range(12):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert char_poly(m) == det_xI_minus_M(m)


def faddeev_leverrier(m):
    """Reference char poly: M_k = M (M_(k-1) + c_(n-k+1) I), c_(n-k) = -tr(M_k)/k."""
    n = len(m)
    coeffs = [0] * n + [1]
    mk = [row[:] for row in m]
    coeffs[n - 1] = -sum(mk[i][i] for i in range(n))
    for k in range(2, n + 1):
        shifted = [[mk[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        mk = linalg.mat_mul(m, shifted)
        tr = sum(mk[i][i] for i in range(n))
        assert tr % k == 0
        coeffs[n - k] = -tr // k
    return IntPolynomial(tuple(coeffs))


square_matrices = st.integers(1, 10).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(square_matrices, st.lists(st.integers(-60, 60), min_size=3, max_size=3, unique=True))
def test_char_poly_newton_matches_references(m, points):
    p = char_poly(m)
    assert p == faddeev_leverrier(m)
    n = len(m)
    for x in points:
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        assert p(x) == linalg.det_bareiss(shifted)


def test_char_poly_is_monic_of_full_degree():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        p = char_poly(m)
        assert p.degree == n and p.is_monic


# --- reciprocality, division, cyclotomics -----------------------------------


def test_is_reciprocal():
    assert is_reciprocal(poly(1, -34, 1))
    assert is_reciprocal(poly(-1, 1))  # anti-palindromic
    assert is_reciprocal(poly(1, -3, 1))
    assert not is_reciprocal(poly(2, -3, 1))
    with pytest.raises(ZeroPolynomialError):
        is_reciprocal(IntPolynomial(()))


def test_divide_exact():
    assert divide_exact(poly(-1, 35, -35, 1), poly(-1, 1)) == poly(1, -34, 1)
    p = poly(3, -2, 5)
    assert divide_exact(p, ONE_POLY) == p
    with pytest.raises(NotDivisibleError):
        divide_exact(poly(1, 0, 1), poly(-1, 1))
    with pytest.raises(NotDivisibleError):
        divide_exact(poly(1, 1), poly(2))  # quotient not integral
    with pytest.raises(NotDivisibleError):
        divide_exact(poly(1, 1), poly(1, 0, 1))  # divisor degree too high


def fraction_divides(p: IntPolynomial, q: IntPolynomial) -> bool:
    """Reference: long division over Q, then an integrality check."""
    rem = [Fraction(c) for c in p.coeffs]
    quot = []
    for i in range(p.degree - q.degree, -1, -1):
        f = rem[i + q.degree] / q.coeffs[-1]
        quot.append(f)
        for j, b in enumerate(q.coeffs):
            rem[i + j] -= f * b
    return not any(rem) and all(f.denominator == 1 for f in quot)


def test_divide_exact_matches_fraction_reference():
    rng = random.Random(43)
    for _ in range(300):
        lead = rng.choice((1, -1, 2, 3))
        q = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))) + (lead,))
        r = IntPolynomial(tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5))))
        if r.is_zero:
            continue
        assert divide_exact(q * r, q) == r
        p = q * r + IntPolynomial(tuple(rng.randint(-1, 1) for _ in range(q.degree + 1)))
        if p.degree < q.degree:
            continue
        if fraction_divides(p, q):
            assert divide_exact(p, q) * q == p
        else:
            with pytest.raises(NotDivisibleError):
                divide_exact(p, q)


def test_cyclotomic_small():
    assert cyclotomic(1) == poly(-1, 1)
    assert cyclotomic(2) == poly(1, 1)
    assert cyclotomic(4) == poly(1, 0, 1)
    assert cyclotomic(12) == poly(1, 0, -1, 0, 1)


def test_cyclotomic_product_is_x_n_minus_1():
    for n in range(1, 61):
        prod = ONE_POLY
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPolynomial((-1,) + (0,) * (n - 1) + (1,))


# --- sturm counting and isolation -------------------------------------------


def test_sturm_count_examples():
    assert sturm_count(poly(1, -34, 1), 2, 10**9) == 1
    assert sturm_count(poly(1, 0, 1), -10, 10) == 0
    assert sturm_count(poly(-2, 0, 1), 0, 2) == 1
    # multiple roots counted once; half-open includes the right endpoint
    cube = poly(-1, 1) * poly(-1, 1) * poly(-1, 1)
    assert sturm_count(cube, 0, 1) == 1
    assert sturm_count(cube, 1, 2) == 0
    assert sturm_count(poly(-2, 0, 1), None, None) == 2


def test_isolate_real_roots_quadratic():
    roots = isolate_real_roots(poly(1, -34, 1))
    assert len(roots) == 2
    small, large = [float(r) for r in roots]
    assert small == pytest.approx(17 - 12 * math.sqrt(2), abs=1e-12)
    assert large == pytest.approx(17 + 12 * math.sqrt(2), abs=1e-12)


def test_isolate_multiplicity_collapsed():
    cube = poly(-1, 1) * poly(-1, 1) * poly(-1, 1)
    roots = isolate_real_roots(cube)
    assert len(roots) == 1
    assert roots[0].poly == poly(-1, 1)
    assert float(roots[0]) == 1.0


def test_isolate_lehmer():
    roots = isolate_real_roots(LEHMER)
    assert len(roots) == 2
    assert float(roots[-1]) == pytest.approx(1.17628081825992, abs=1e-10)


def test_isolation_count_matches_sturm_random():
    rng = random.Random(31)
    for _ in range(40):
        # product of distinct linear factors and an irreducible quadratic
        roots = rng.sample(range(-8, 9), rng.randint(1, 4))
        p = ONE_POLY
        for a in roots:
            p = p * poly(-a, 1)
        if rng.random() < 0.5:
            p = p * poly(1, 0, 1)  # no real roots added
        isolated = isolate_real_roots(p)
        assert len(isolated) == len(set(roots))
        assert len(isolated) == sturm_count(p, None, None)
        values = sorted(float(r) for r in isolated)
        assert values == pytest.approx(sorted(roots), abs=1e-9)
        # intervals are disjoint and each isolates exactly one root
        for r, s in zip(isolated, isolated[1:]):
            assert r.hi <= s.lo
        for r in isolated:
            assert sturm_count(p, r.lo, r.hi) == 1


def test_isolation_against_numpy_oracle():
    rng = random.Random(37)
    for _ in range(30):
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        p = IntPolynomial(tuple(coeffs))
        got = [float(r) for r in isolate_real_roots(p)]
        np_roots = np.roots(list(reversed(square_free_part(p).coeffs)))
        expected = sorted(
            float(z.real) for z in np_roots if abs(z.imag) < 1e-9
        )
        assert len(got) == len(expected)
        assert got == pytest.approx(expected, abs=1e-6)


def test_refine_nests_and_shrinks():
    root = isolate_real_roots(poly(-2, 0, 1))[-1]
    fine = root.refined(Fraction(1, 10**6))
    assert root.lo <= fine.lo < fine.hi <= root.hi
    assert fine.hi - fine.lo < Fraction(1, 10**6)
    assert float(fine) == pytest.approx(math.sqrt(2), abs=1e-6)
    finer = fine.refined(Fraction(1, 10**9))
    assert fine.lo <= finer.lo < finer.hi <= fine.hi
    big_root = isolate_real_roots(poly(1, -34, 1))[-1].refined(Fraction(1, 10**9))
    assert float(big_root) == pytest.approx(33.970562748477, abs=1e-9)


def sturm_refined(a: AlgebraicReal, eps) -> tuple[Fraction, Fraction]:
    """Reference refinement: bisect, keeping (lo, mid] when its Sturm count is 1."""
    lo, hi = a.lo, a.hi
    while hi - lo >= eps:
        mid = (lo + hi) / 2
        if sturm_count(a.poly, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def assert_refines_like_reference(a: AlgebraicReal, eps) -> AlgebraicReal:
    r = a.refined(eps)
    assert (r.lo, r.hi) == sturm_refined(a, eps)
    assert a.lo <= r.lo < r.hi <= a.hi
    assert r.hi - r.lo < eps
    assert sturm_count(a.poly, r.lo, r.hi) == 1
    return r


@st.composite
def polys(draw):
    """Products of random factors; dyadic linear factors put rational roots
    where bisection midpoints land."""
    dyadic = st.builds(lambda n, j: poly(-n, 2**j), st.integers(-40, 40), st.integers(0, 5))
    general = st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(lambda c: IntPolynomial(tuple(c)))
    p = ONE_POLY
    for f in draw(st.lists(st.one_of(dyadic, general), min_size=1, max_size=3)):
        if not f.is_zero:
            p = p * f
    assume(p.degree >= 1)
    return p


@st.composite
def isolated_roots(draw):
    """A root of a random polynomial with its isolating interval."""
    roots = isolate_real_roots(draw(polys()))
    assume(roots)
    return roots[draw(st.integers(0, len(roots) - 1))]


@st.composite
def roots_after_a_rational_root(draw):
    """The next root after a rational root x0, isolated by (x0, hi]: p(lo) = 0."""
    x0 = Fraction(draw(st.integers(-40, 40)), 2 ** draw(st.integers(0, 5)))
    p = poly(-x0.numerator, x0.denominator) * draw(polys())
    later = [r for r in isolate_real_roots(p) if r.compare_rational(x0) > 0]
    assume(later)
    return AlgebraicReal(later[0].poly, x0, later[0].hi)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(isolated_roots(), roots_after_a_rational_root()),
    st.integers(1, 9),
    st.integers(0, 40),
    st.integers(1, 9),
)
def test_refined_matches_sturm_bisection(root, num, digits, shrink):
    eps = Fraction(num, 10**digits)
    fine = assert_refines_like_reference(root, eps)
    assert_refines_like_reference(fine, eps / (shrink + 1))


def test_refined_with_root_on_open_end():
    # roots 1 and 2: p(lo) = 0, so the sign at lo cannot steer the bisection
    a = AlgebraicReal(poly(2, -3, 1), 1, 3)
    r = assert_refines_like_reference(a, Fraction(1, 10**30))
    assert r.lo < 2 <= r.hi
    assert_refines_like_reference(a, Fraction(1, 3))


def test_refined_rational_root_hit_by_midpoint():
    # (2x - 1)(x - 3): the first midpoint of (0, 1] is the root 1/2
    a = AlgebraicReal(poly(3, -7, 2), 0, 1)
    r = assert_refines_like_reference(a, Fraction(1, 10**20))
    assert r.hi == Fraction(1, 2)
    b = AlgebraicReal(poly(-3, 4), Fraction(1, 2), 1)  # root 3/4, hit at step 1
    assert assert_refines_like_reference(b, Fraction(1, 10**15)).hi == Fraction(3, 4)


def test_refined_non_dyadic_interval_from_json():
    a = algebraic_real_from_json({"poly": [-2, 0, 1], "lo": "4/3", "hi": "3/2"})
    r = assert_refines_like_reference(a, Fraction(1, 10**25))
    back = algebraic_real_from_json(r.to_json())
    assert (back.lo, back.hi) == (r.lo, r.hi)


def test_refined_non_square_free_poly_uses_sturm_counts():
    # (x^2 - 2)^2 keeps its sign across sqrt(2); only the Sturm count can steer
    a = AlgebraicReal(poly(-2, 0, 1) * poly(-2, 0, 1), 1, 2)
    r = assert_refines_like_reference(a, Fraction(1, 10**12))
    assert r.lo < Fraction(14142135623731, 10**13) and r.hi > Fraction(14142135623730, 10**13)


def test_refined_lehmer_matches_reference_at_50_digits():
    root = isolate_real_roots(LEHMER)[-1]
    assert_refines_like_reference(root, Fraction(1, 10**50))


@pytest.mark.parametrize(
    "defining",
    [LEHMER, poly(1, -7, 1), poly(1, -3134, 1)],  # Lehmer; Kummer traces 3 and 56
    ids=["lehmer", "kummer_t3", "kummer_t56"],
)
def test_power_decimal_one_walk_matches_per_exponent(defining):
    d1 = isolate_real_roots(defining)[-1]
    root = mp_root(defining, d1)
    exponents = [0, 1, 2, 3, 2, 1, 0, 7, 12, 5]
    for sig_digits in (12, 17, 50):
        got = power_decimal(d1, exponents, sig_digits).entries
        for e, text in zip(exponents, got):
            if e == 0:
                assert text == "1"
            else:
                assert_correctly_rounded(text, lambda: root() ** e, sig_digits)


def test_decimal_str():
    root = isolate_real_roots(poly(1, -34, 1))[-1]
    assert root.decimal_str(12) == "33.9705627485"
    assert root.decimal_str(6) == "33.9706"
    neg = isolate_real_roots(poly(-4, 0, 1))[0]
    assert neg.decimal_str(6) == "-2.00000"


@pytest.mark.parametrize("digits", [3, 12, 50, 200])
@pytest.mark.parametrize("defining", [LEHMER, poly(1, -34, 1), poly(-2, 0, 1), poly(1, 3, -5, -1)], ids=str)
def test_decimal_str_correctly_rounded(defining, digits):
    for root in isolate_real_roots(defining):
        assert_correctly_rounded(root.decimal_str(digits), mp_root(defining, root), digits)


def test_decimal_str_on_a_rounding_boundary():
    # 249/2000 = 0.1245 lies on the boundary of 0.124 and 0.125; half-even
    # keeps the even 0.124, on either side of zero
    assert AlgebraicReal(poly(-249, 2000), 0, 1).decimal_str(3) == "0.124"
    assert AlgebraicReal(poly(249, 2000), -1, 0).decimal_str(3) == "-0.124"
    assert AlgebraicReal(poly(-9995, 1000), 9, 10).decimal_str(3) == "10.0"
    # a boundary that is the closed end of the interval, and one that is the
    # open end and another root: 1/8 = 0.125 at 2 digits
    def two_digits(p, lo, hi):
        return AlgebraicReal(p, Fraction(*lo), Fraction(*hi)).decimal_str(2)

    assert two_digits(poly(-1, 8) * poly(-13, 100), (1, 16), (1, 8)) == "0.12"
    assert two_digits(poly(1, 8) * poly(13, 100), (-13, 100), (-1, 8)) == "-0.12"
    assert two_digits(poly(-1, 8) * poly(-13, 100), (1, 8), (13, 100)) == "0.13"
    assert two_digits(poly(1, 8) * poly(12, 100), (-1, 8), (-1, 10)) == "-0.12"


def test_rounded_decimal():
    assert rounded_decimal(4700, 4701, 100, 3) == "47.0"
    assert rounded_decimal(1245, 1245, 10000, 3) == "0.124"  # half-even
    assert rounded_decimal(1235, 1235, 10000, 3) == "0.124"
    assert rounded_decimal(1244, 1246, 10000, 3) is None
    assert rounded_decimal(99951, 99952, 10000, 3) == "10.0"  # carried into 10.0
    assert rounded_decimal(10**600 + 1, 10**600 + 2, 3, 3) == "3.33E+599"
    assert rounded_decimal(1, 2, 10**600 * 3, 3) is None
    assert rounded_decimal(1, 1, 10**600 * 3, 3) == "3.33E-601"


def test_exact_str_quadratics():
    roots = isolate_real_roots(poly(1, -34, 1))
    assert roots[0].exact_str() == "17-12*sqrt(2)"
    assert roots[1].exact_str() == "17+12*sqrt(2)"
    roots7 = isolate_real_roots(poly(1, -7, 1))
    assert roots7[1].exact_str() == "(7+3*sqrt(5))/2"


def test_algebraic_comparisons():
    r2 = isolate_real_roots(poly(-2, 0, 1))[-1]
    r2_again = isolate_real_roots(poly(-2, 0, 1) * poly(-5, 1))[1]
    assert r2.equals(r2_again)
    r3 = isolate_real_roots(poly(-3, 0, 1))[-1]
    assert r2 < r3
    assert r3 > r2
    assert r2.compare_rational(Fraction(3, 2)) < 0
    assert r2.compare_rational(1) > 0
    one = isolate_real_roots(poly(-1, 1))[0]
    assert one.compare_rational(1) == 0


# --- trace polynomial --------------------------------------------------------


def expand_trace(q: IntPolynomial, d: int) -> IntPolynomial:
    """Oracle: x^d * q(x + 1/x) = sum_j q_j x^(d-j) (x^2+1)^j."""
    total = IntPolynomial(())
    for j, c in enumerate(q.coeffs):
        term = poly(c)
        for _ in range(j):
            term = term * poly(1, 0, 1)
        shift = d - j
        term = term * IntPolynomial((0,) * shift + (1,))
        total = total + term
    return total


def test_trace_polynomial_examples():
    assert trace_polynomial(poly(1, -34, 1)) == poly(-34, 1)
    assert trace_polynomial(poly(1, 0, 1)) == poly(0, 1)
    assert trace_polynomial(cyclotomic(12)) == poly(-3, 0, 1)
    with pytest.raises(NotPalindromicError):
        trace_polynomial(poly(2, -3, 1))
    with pytest.raises(OddDegreeError):
        trace_polynomial(poly(1, 0, 0, 1))  # x^3 + 1, palindromic-odd


def test_trace_polynomial_roundtrip_random():
    rng = random.Random(41)
    for _ in range(100):
        d = rng.randint(1, 5)
        outer = rng.randint(1, 9) * rng.choice((-1, 1))
        body = [rng.randint(-9, 9) for _ in range(d - 1)]
        middle = rng.randint(-9, 9)
        coeffs = [outer] + body + [middle] + list(reversed(body)) + [outer]
        p = IntPolynomial(tuple(coeffs))
        assert p.degree == 2 * d
        assert p.coeffs == tuple(reversed(p.coeffs))
        q = trace_polynomial(p)
        assert q.degree == d
        assert expand_trace(q, d) == p


def test_square_part():
    assert square_part(1152) == (24, 2)
    assert square_part(45) == (3, 5)
    assert square_part(49) == (7, 1)
    assert square_part(1) == (1, 1)


def test_square_part_beyond_the_trial_limit():
    big = 1000003  # a prime above SQUARE_PART_LIMIT
    other = 1000033  # another one
    assert square_part(12 * big**2) == (2 * big, 3)  # a square cofactor is pulled out
    assert square_part(big * other) == (1, big * other)
    # d is square-free only up to the limit: big^2 stays inside d here
    assert square_part(5 * big**2 * other) == (1, 5 * big**2 * other)
    n = (10**30 - 1) * (10**30 + 3)  # discriminant of x^2 - (10^30 + 1) x + 1
    s, d = square_part(n)
    assert s * s * d == n and s == 3
