import importlib
import itertools
import math
import pathlib
import pkgutil
import random
import re
import signal
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hkdd
from hkdd import cli, linalg, polynomial
from hkdd.dynamics import power_decimal
from hkdd.errors import HkddError
from hkdd.polynomial import (
    AlgebraicReal,
    IntPolynomial,
    ONE_POLY,
    char_poly,
    cyclotomic,
    _half_even,
    divide_exact,
    format_fraction,
    isolate_real_roots,
    poly,
    power_traces,
    quadratic_surd_str,
    rounded_decimal,
    square_free_part,
    square_part,
    sturm_count,
    trace_polynomial,
)
from hkdd.salem import salem_root_of
from conftest import assert_correctly_rounded, assert_walk_nests, mp_root
from fraction_sturm import fraction_sturm_count
from oracles import (
    algebraic_real,
    algebraic_real_from_json,
    as_float,
    bisection_decimal_str,
    bisection_path,
    bisection_power_decimal,
    decimal_quotient,
    decimal_rounded_decimal,
    division_cyclotomic,
    interval,
    is_reciprocal,
    poly_add,
    poly_mul,
    poly_sub,
    poly_value,
)

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
            term = poly_mul(rows[0][c], minor)
            total = poly_add(total, term) if idx % 2 == 0 else poly_sub(total, term)
        return total

    return det(entries, list(range(n)))


def test_char_poly_fixture_matrices(m1, m1m2):
    assert char_poly(m1m2) == poly(-1, 35, -35, 1)
    assert char_poly(m1) == poly_mul(poly(-1, 1), poly(1, 1), poly(1, 1))
    assert char_poly(linalg.identity(4)) == poly_mul(*[poly(-1, 1)] * 4)


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


@settings(max_examples=120)
@given(square_matrices, st.lists(st.integers(-60, 60), min_size=3, max_size=3, unique=True))
def test_char_poly_newton_matches_references(m, points):
    p = char_poly(m)
    assert p == faddeev_leverrier(m)
    n = len(m)
    for x in points:
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        assert poly_value(p, x) == linalg.det_bareiss(shifted)


@pytest.mark.parametrize("count", range(6))
def test_power_traces_returns_count_traces(count):
    # count = 0 asks for none: a rank-1 search takes n//2 = 0 traces
    m = [[2, 1, 0], [1, 1, -1], [0, 3, -2]]
    want = [sum(linalg.mat_pow(m, k)[i][i] for i in range(3)) for k in range(1, count + 1)]
    assert power_traces(m, count) == want


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
    with pytest.raises(HkddError, match="reciprocality undefined for the zero polynomial"):
        is_reciprocal(IntPolynomial(()))


def test_divide_exact():
    assert divide_exact(poly(-1, 35, -35, 1), poly(-1, 1)) == poly(1, -34, 1)
    p = poly(3, -2, 5)
    assert divide_exact(p, ONE_POLY) == p
    with pytest.raises(HkddError, match="no quotient over Z"):
        divide_exact(poly(1, 0, 1), poly(-1, 1))
    with pytest.raises(HkddError, match="no quotient over Z"):
        divide_exact(poly(1, 1), poly(2))  # quotient not integral
    with pytest.raises(HkddError, match="no quotient over Z"):
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
        assert divide_exact(poly_mul(q, r), q) == r
        p = poly_add(poly_mul(q, r), IntPolynomial(tuple(rng.randint(-1, 1) for _ in range(q.degree + 1))))
        if p.degree < q.degree:
            continue
        if fraction_divides(p, q):
            assert poly_mul(divide_exact(p, q), q) == p
        else:
            with pytest.raises(HkddError, match="no quotient over Z"):
                divide_exact(p, q)


def test_cyclotomic_small():
    assert cyclotomic(1) == poly(-1, 1)
    assert cyclotomic(2) == poly(1, 1)
    assert cyclotomic(4) == poly(1, 0, 1)
    assert cyclotomic(12) == poly(1, 0, -1, 0, 1)


def test_cyclotomic_matches_the_division_reference():
    # Phi_n from its least prime factor against x^n - 1 divided by every
    # Phi_d, d | n, d < n
    for n in range(1, 400):
        assert cyclotomic(n) == division_cyclotomic(n), n


def test_cyclotomic_product_is_x_n_minus_1():
    for n in range(1, 61):
        prod = poly_mul(*(cyclotomic(d) for d in range(1, n + 1) if n % d == 0))
        assert prod == IntPolynomial((-1,) + (0,) * (n - 1) + (1,))


# --- sturm counting and isolation -------------------------------------------


def test_sturm_count_examples():
    assert sturm_count(poly(1, -34, 1), 2, 10**9) == 1
    assert sturm_count(poly(1, 0, 1), -10, 10) == 0
    assert sturm_count(poly(-2, 0, 1), 0, 2) == 1
    # multiple roots counted once; half-open includes the right endpoint
    cube = poly_mul(*[poly(-1, 1)] * 3)
    assert sturm_count(cube, 0, 1) == 1
    assert sturm_count(cube, 1, 2) == 0
    assert sturm_count(poly(-2, 0, 1), None, None) == 2


def test_isolate_real_roots_quadratic():
    roots = isolate_real_roots(poly(1, -34, 1))
    assert len(roots) == 2
    small, large = [as_float(r) for r in roots]
    assert small == pytest.approx(17 - 12 * math.sqrt(2), abs=1e-12)
    assert large == pytest.approx(17 + 12 * math.sqrt(2), abs=1e-12)


def test_isolate_multiplicity_collapsed():
    cube = poly_mul(*[poly(-1, 1)] * 3)
    roots = isolate_real_roots(cube)
    assert len(roots) == 1
    assert roots[0].poly == poly(-1, 1)
    assert as_float(roots[0]) == 1.0


def test_isolate_lehmer():
    roots = isolate_real_roots(LEHMER)
    assert len(roots) == 2
    assert as_float(roots[-1]) == pytest.approx(1.17628081825992, abs=1e-10)


def test_isolation_count_matches_sturm_random():
    rng = random.Random(31)
    for _ in range(40):
        # product of distinct linear factors and an irreducible quadratic
        roots = rng.sample(range(-8, 9), rng.randint(1, 4))
        p = poly_mul(*(poly(-a, 1) for a in roots))
        if rng.random() < 0.5:
            p = poly_mul(p, poly(1, 0, 1))  # no real roots added
        isolated = isolate_real_roots(p)
        assert len(isolated) == len(set(roots))
        assert len(isolated) == sturm_count(p, None, None)
        values = sorted(as_float(r) for r in isolated)
        assert values == pytest.approx(sorted(roots), abs=1e-9)
        # intervals are disjoint and each isolates exactly one root
        for r, s in zip(isolated, isolated[1:]):
            assert interval(r)[1] <= interval(s)[0]
        for r in isolated:
            assert sturm_count(p, *interval(r)) == 1


def test_isolation_against_numpy_oracle():
    rng = random.Random(37)
    for _ in range(30):
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        p = IntPolynomial(tuple(coeffs))
        got = [as_float(r) for r in isolate_real_roots(p)]
        np_roots = np.roots(list(reversed(square_free_part(p).coeffs)))
        expected = sorted(
            float(z.real) for z in np_roots if abs(z.imag) < 1e-9
        )
        assert len(got) == len(expected)
        assert got == pytest.approx(expected, abs=1e-6)


def test_algebraic_real_ends_in_lowest_terms():
    a = AlgebraicReal(poly(-2, 0, 1), 2, 6, 4)
    assert (a.a, a.b, a.den) == (1, 3, 2)
    assert interval(a) == (Fraction(1, 2), Fraction(3, 2))
    assert AlgebraicReal(poly(-2, 0, 1), 1, 2).den == 1
    for a, b, den in [(1, 2, 0), (1, 2, -1), (2, 2, 1), (3, 2, 1)]:
        with pytest.raises(ValueError):
            AlgebraicReal(poly(-2, 0, 1), a, b, den)


def test_int_polynomial_is_an_immutable_value():
    p = IntPolynomial((1, True, -3, 0, 0))
    assert p.coeffs == (1, 1, -3) and all(type(c) is int for c in p.coeffs)
    assert IntPolynomial((0, 0)).coeffs == () and IntPolynomial(coeffs=[2]).coeffs == (2,)
    assert p == IntPolynomial([1, 1, -3]) and hash(p) == hash(IntPolynomial((1, 1, -3, 0)))
    assert p != IntPolynomial((1, 1, 3)) and p != (1, 1, -3)
    assert {p: 1}[poly(1, 1, -3)] == 1
    assert repr(p) == "IntPolynomial(coeffs=(1, 1, -3))"
    with pytest.raises(AttributeError):
        p.coeffs = (1,)


def test_algebraic_real_is_immutable_with_identity_equality():
    a = AlgebraicReal(poly(-2, 0, 1), 1, 2)
    b = AlgebraicReal(poly(-2, 0, 1), a=1, b=2, den=1)
    assert a == a and a != b and len({a, b}) == 2
    assert repr(a) == "AlgebraicReal(poly=IntPolynomial(coeffs=(-2, 0, 1)), a=1, b=2, den=1)"
    for name in ("poly", "a", "b", "den"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    assert (a.a, a.b, a.den) == (1, 2, 1)


def test_no_float_in_the_package():
    source = pathlib.Path(hkdd.__file__).parent
    for path in source.glob("*.py"):
        assert not re.search(r"\bfloat\(", path.read_text()), path.name
    for info in pkgutil.iter_modules([str(source)]):
        module = importlib.import_module(f"hkdd.{info.name}")
        for obj in vars(module).values():
            assert not (isinstance(obj, type) and hasattr(obj, "__float__") and obj.__module__.startswith("hkdd")), obj


def test_refine_nests_and_shrinks():
    root = isolate_real_roots(poly(-2, 0, 1))[-1]
    (lo, hi), fine = interval(root), root.refined(Fraction(1, 10**6))
    fine_lo, fine_hi = interval(fine)
    assert lo <= fine_lo < fine_hi <= hi
    assert fine_hi - fine_lo < Fraction(1, 10**6)
    assert as_float(fine) == pytest.approx(math.sqrt(2), abs=1e-6)
    finer_lo, finer_hi = interval(fine.refined(Fraction(1, 10**9)))
    assert fine_lo <= finer_lo < finer_hi <= fine_hi
    big_root = isolate_real_roots(poly(1, -34, 1))[-1].refined(Fraction(1, 10**9))
    assert as_float(big_root) == pytest.approx(33.970562748477, abs=1e-9)


def assert_refines_by_the_walk(a: AlgebraicReal, eps) -> AlgebraicReal:
    """refined(eps) nests in a's isolating interval, is narrower than eps, is
    the first interval of a fresh _quadratic_walk narrower than eps, and
    holds one root of a.poly by the Fraction reference."""
    r = a.refined(eps)
    (lo, hi), (r_lo, r_hi) = interval(a), interval(r)
    assert lo <= r_lo < r_hi <= hi
    assert r_hi - r_lo < eps
    walk = ((Fraction(u, den), Fraction(v, den)) for u, v, den in a._quadratic_walk())
    assert (r_lo, r_hi) == next(x for x in walk if x[1] - x[0] < eps)
    assert fraction_sturm_count(a.poly, r_lo, r_hi) == 1
    return r


@st.composite
def polys(draw):
    """Products of random factors; dyadic linear factors put rational roots
    where bisection midpoints land."""
    dyadic = st.builds(lambda n, j: poly(-n, 2**j), st.integers(-40, 40), st.integers(0, 5))
    general = st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(lambda c: IntPolynomial(tuple(c)))
    p = poly_mul(*(f for f in draw(st.lists(st.one_of(dyadic, general), min_size=1, max_size=3)) if not f.is_zero))
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
    p = poly_mul(poly(-x0.numerator, x0.denominator), draw(polys()))
    later = [r for r in isolate_real_roots(p) if r.compare_rational(x0.numerator, x0.denominator) > 0]
    assume(later)
    return algebraic_real(later[0].poly, x0, interval(later[0])[1])


@settings(max_examples=150)
@given(
    st.one_of(isolated_roots(), roots_after_a_rational_root()),
    st.integers(1, 9),
    st.integers(0, 40),
    st.integers(1, 9),
)
def test_refined_is_the_first_narrow_walk_interval(root, num, digits, shrink):
    eps = Fraction(num, 10**digits)
    fine = assert_refines_by_the_walk(root, eps)
    assert_refines_by_the_walk(fine, eps / (shrink + 1))


def test_refined_with_root_on_open_end():
    # roots 1 and 2: p(lo) = 0, so the sign at lo cannot steer the walk
    a = AlgebraicReal(poly(2, -3, 1), 1, 3)
    r = assert_refines_by_the_walk(a, Fraction(1, 10**30))
    assert interval(r)[0] < 2 <= interval(r)[1]
    assert_refines_by_the_walk(a, Fraction(1, 3))


def test_refined_rational_root_hit_by_midpoint():
    # (2x - 1)(x - 3): the first midpoint of (0, 1] is the root 1/2
    a = AlgebraicReal(poly(3, -7, 2), 0, 1)
    r = assert_refines_by_the_walk(a, Fraction(1, 10**20))
    assert interval(r)[0] < Fraction(1, 2) <= interval(r)[1]
    b = algebraic_real(poly(-3, 4), Fraction(1, 2), Fraction(1))  # root 3/4, hit at step 1
    lo, hi = interval(assert_refines_by_the_walk(b, Fraction(1, 10**15)))
    assert lo < Fraction(3, 4) <= hi


def test_refined_non_dyadic_interval_from_json():
    a = algebraic_real_from_json({"poly": [-2, 0, 1], "lo": "4/3", "hi": "3/2"})
    r = assert_refines_by_the_walk(a, Fraction(1, 10**25))
    back = algebraic_real_from_json(cli._root_json(r, bisection_decimal_str(r, 12)))
    assert interval(back) == interval(r)


def test_refined_non_square_free_poly():
    # (x^2 - 2)^2 keeps its sign across sqrt(2); the walk steers by x^2 - 2
    a = AlgebraicReal(poly_mul(poly(-2, 0, 1), poly(-2, 0, 1)), 1, 2)
    r = assert_refines_by_the_walk(a, Fraction(1, 10**12))
    lo, hi = interval(r)
    assert lo < Fraction(14142135623731, 10**13) and hi > Fraction(14142135623730, 10**13)


def test_refined_lehmer_at_50_digits():
    root = isolate_real_roots(LEHMER)[-1]
    assert_refines_by_the_walk(root, Fraction(1, 10**50))


@pytest.mark.parametrize(
    "root",
    [
        AlgebraicReal(poly(2, -3, 1), 1, 3),  # roots 1 and 2: p(lo) = 0
        AlgebraicReal(poly_mul(poly(-2, 0, 1), poly(-2, 0, 1)), 1, 2),  # (x^2 - 2)^2
        AlgebraicReal(poly(-3, 4), 0, 1),  # 3/4, the right end of cell 3 of 4
        AlgebraicReal(poly_mul(poly(-3, 4), poly(-3, 0, 1)), 0, 1),  # 3/4 beside sqrt(3)
        AlgebraicReal(poly_mul(poly(-5, 8), poly(1, 1, -1)), 0, 1),  # 5/8 beside the golden ratio
        isolate_real_roots(poly(-2, 0, 1))[0],  # negative roots: -sqrt(2)
        isolate_real_roots(poly(1, 3, -5, -1))[0],  # -5.51140 in (-6, -3]
        AlgebraicReal(poly(1, 3, -5, -1), -1, 0),  # -0.241113, an end at 0
        algebraic_real_from_json({"poly": [-2, 0, 1], "lo": "4/3", "hi": "3/2"}),
    ],
    ids=["open-end-root", "square", "dyadic-linear", "dyadic-cubic", "dyadic-5/8",
         "minus-sqrt2", "cubic-negative", "cubic-negative-to-0", "non-dyadic"],
)
def test_quadratic_path_nests_on_the_grid(root):
    assert_walk_nests(root, Fraction(1, 10**60))


def test_quadratic_path_reaches_200_digits_in_few_steps():
    # bisection takes 667 halvings from (9/8, 19/16] to the 200-digit gate
    root = isolate_real_roots(LEHMER)[-1]
    gate = 10**202
    steps = next(i for i, (a, b, den) in enumerate(root.quadratic_path()) if (b - a) * gate < a)
    assert steps < 20
    assert next(i for i, (a, b, den) in enumerate(bisection_path(root)) if (b - a) * gate < a) > 600


def is_unit_above_one(root: AlgebraicReal) -> bool:
    c = root.poly.coeffs
    return abs(c[0]) == abs(c[-1]) == 1 and root.compare_rational(1) > 0


@settings(max_examples=150)
@given(st.one_of(isolated_roots(), roots_after_a_rational_root()), st.sampled_from((3, 12, 50, 200)))
def test_decimal_str_matches_bisection_oracle(root, digits):
    # decimal_str prints a unit larger than 1 and refuses any other root
    assert_walk_nests(root, Fraction(1, 10**40))
    want = bisection_decimal_str(root, digits)
    if is_unit_above_one(root):
        assert root.decimal_str(digits) == want
    else:
        with pytest.raises(ValueError):
            root.decimal_str(digits)


@pytest.mark.parametrize(
    "defining",
    [LEHMER, poly(1, -7, 1), poly(1, -3134, 1)],  # Lehmer; Kummer traces 3 and 56
    ids=["lehmer", "kummer_t3", "kummer_t56"],
)
def test_power_decimal_one_walk_matches_per_exponent(defining):
    d1 = isolate_real_roots(defining)[-1]
    root = mp_root(defining, d1)
    for sig_digits in (12, 17, 50):
        got = power_decimal(d1, 12, sig_digits).entries
        assert len(got) == 13
        for e, text in enumerate(got):
            if e == 0:
                assert text == "1"
            else:
                assert_correctly_rounded(text, lambda: root() ** e, sig_digits)


def test_decimal_str():
    root = isolate_real_roots(poly(1, -34, 1))[-1]
    assert root.decimal_str(12) == "33.9705627485"
    assert root.decimal_str(6) == "33.9706"
    neg = isolate_real_roots(poly(-4, 0, 1))[0]
    assert bisection_decimal_str(neg, 6) == "-2.00000"


@pytest.mark.parametrize("digits", [3, 12, 50, 200])
@pytest.mark.parametrize("defining", [LEHMER, poly(1, -34, 1), poly(-2, 0, 1), poly(1, 3, -5, -1)], ids=str)
def test_decimal_str_correctly_rounded(defining, digits):
    # decimal_str on the units larger than 1, the oracle on every other root
    for root in isolate_real_roots(defining):
        text = root.decimal_str(digits) if is_unit_above_one(root) else bisection_decimal_str(root, digits)
        assert_correctly_rounded(text, mp_root(defining, root), digits)


@pytest.mark.parametrize(
    "root",
    [
        isolate_real_roots(LEHMER)[-1],
        isolate_real_roots(poly(1, -34, 1))[-1],  # 17+12*sqrt(2)
        isolate_real_roots(poly(1, 0, -1, -1, -1, 0, 1))[-1],  # degree 6, of T_{3,3,4}
    ],
    ids=["lehmer", "root34", "degree6"],
)
@pytest.mark.parametrize("digits", [3, 12, 50, 200])
def test_decimal_str_power_decimal_and_bisection_agree(root, digits):
    want = bisection_decimal_str(root, digits)
    assert root.decimal_str(digits) == power_decimal(root, 1, digits).entries[1] == want


@pytest.mark.parametrize(
    "root",
    [
        isolate_real_roots(poly(-2, 0, 1))[-1],  # sqrt(2): no unit
        isolate_real_roots(poly(1, -34, 1))[0],  # 1/lambda = 17-12*sqrt(2) < 1
        AlgebraicReal(poly(-249, 2000), 0, 1),  # 249/2000, on a 3-digit rounding boundary
    ],
    ids=["sqrt2", "below-one", "boundary"],
)
def test_decimal_str_refuses_a_root_that_is_not_a_unit_above_one(root, monkeypatch):
    walk = AlgebraicReal._quadratic_walk

    def bounded(self):
        yield from itertools.islice(walk(self), 200)
        raise AssertionError("walked without end")

    monkeypatch.setattr(AlgebraicReal, "_quadratic_walk", bounded)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        root.decimal_str(3)
    assert time.perf_counter() - start < 1


def test_decimal_str_on_a_rounding_boundary():
    # 249/2000 = 0.1245 lies on the boundary of 0.124 and 0.125; half-even
    # keeps the even 0.124, on either side of zero
    assert bisection_decimal_str(AlgebraicReal(poly(-249, 2000), 0, 1), 3) == "0.124"
    assert bisection_decimal_str(AlgebraicReal(poly(249, 2000), -1, 0), 3) == "-0.124"
    assert bisection_decimal_str(AlgebraicReal(poly(-9995, 1000), 9, 10), 3) == "10.0"
    # a boundary that is the closed end of the interval, and one that is the
    # open end and another root: 1/8 = 0.125 at 2 digits
    def two_digits(p, lo, hi):
        return bisection_decimal_str(algebraic_real(p, Fraction(*lo), Fraction(*hi)), 2)

    assert two_digits(poly_mul(poly(-1, 8), poly(-13, 100)), (1, 16), (1, 8)) == "0.12"
    assert two_digits(poly_mul(poly(1, 8), poly(13, 100)), (-13, 100), (-1, 8)) == "-0.12"
    assert two_digits(poly_mul(poly(-1, 8), poly(-13, 100)), (1, 8), (13, 100)) == "0.13"
    assert two_digits(poly_mul(poly(1, 8), poly(12, 100)), (-1, 8), (-1, 10)) == "-0.12"


def test_rounded_decimal():
    assert rounded_decimal(4700, 4701, 100, 3) == "47.0"
    assert rounded_decimal(1245, 1245, 10000, 3) == "0.124"  # half-even
    assert rounded_decimal(1235, 1235, 10000, 3) == "0.124"
    assert rounded_decimal(1244, 1246, 10000, 3) is None
    assert rounded_decimal(99951, 99952, 10000, 3) == "10.0"  # carried into 10.0
    assert rounded_decimal(10**600 + 1, 10**600 + 2, 3, 3) == "3.33E+599"
    assert rounded_decimal(1, 2, 10**600 * 3, 3) is None
    assert rounded_decimal(1, 1, 10**600 * 3, 3) == "3.33E-601"


@pytest.mark.parametrize("a", [0, -3])
def test_rounded_decimal_refuses_a_lower_end_not_above_zero(a):
    # no scale gives 0 three significant digits, so a search for one would
    # not end; the alarm turns such a hang into a failure
    def too_slow(signum, frame):
        raise TimeoutError("rounded_decimal did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(ValueError, match=f"^lower end {a}/1 is not positive$"):
            rounded_decimal(a, 1, 1, 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tie(q: int, s: int) -> tuple[int, int]:
    """The rounding boundary (q + 1/2) * 10^-s as (num, den)."""
    return ((2 * q + 1), 2 * 10**s) if s >= 0 else ((2 * q + 1) * 10**-s, 2)


@settings(max_examples=500)
@given(
    st.integers(1, 10**40),
    st.integers(0, 10**40),
    st.one_of(st.integers(1, 10**30), st.integers(0, 140).map(lambda k: 1 << k)),
    st.integers(3, 30),
)
def test_rounded_decimal_matches_the_decimal_oracle(a, width, den, digits):
    """One comparison at b decides what rounding both ends with decimal
    decided, on any 0 < a <= b, dyadic den included, and on intervals that
    end exactly on a rounding boundary, (2q + 1) * den / (2 * 10^s), at
    either end, with q odd and even."""
    b = a + width % (a + 1)
    assert rounded_decimal(a, b, den, digits) == decimal_rounded_decimal(a, b, den, digits)
    q, s = _half_even(a, den, digits)
    for q_tie in (q - 1, q, q + 1):
        num, d = tie(q_tie, s)
        for lo, hi in ((num, num), (num - 1, num), (num, num + 1), (max(1, num - width), num + width)):
            if lo > 0:
                assert rounded_decimal(lo, hi, d, digits) == decimal_rounded_decimal(lo, hi, d, digits)


@pytest.mark.parametrize("q, s, text", [
    (470, 1, "47.0"), (820613852651, -493, "8.20613852651E+504"), (12, -1, "1.2E+2"), (7, 0, "7"),
    (1, 6, "0.000001"), (10, 7, "0.0000010"), (1, 7, "1E-7"), (123, 9, "1.23E-7"), (5, 1, "0.5"),
])
def test_scientific_writes_as_decimal_does(q, s, text):
    assert polynomial._scientific(q, s) == text == str(Decimal(f"{q}E{-s}"))


@settings(max_examples=500)
@given(st.integers(1, 10**45), st.integers(-40, 40))
def test_scientific_matches_decimal_in_both_notations(q, s):
    """Positional notation while the exponent -s <= 0 and the adjusted
    exponent is at least -6, d.dddE+x otherwise, on coefficients of 1 to 46
    digits, across both edges."""
    assert polynomial._scientific(q, s) == str(Decimal(f"{q}E{-s}"))


@settings(max_examples=500)
@given(
    st.integers(-(10**40), 10**40),
    st.one_of(st.integers(1, 10**30), st.integers(0, 140).map(lambda k: 1 << k)),
    st.integers(3, 30),
    st.booleans(),
)
def test_format_fraction_matches_decimal_division(n, den, digits, exact):
    """Decimal division at digits digits, exact quotients included: those
    drop trailing zeros down to the units digit, whether the digits run out
    before it (1/4 = 0.25) or not (10/5 = 2)."""
    if exact:  # r / (2^i * 5^j) with r < 10^6, i < 5 and j < 3, over any den
        n, den = n % 10**6 * den, den * 2 ** (n % 5) * 5 ** (n % 3)
    assert format_fraction(n, den, digits) == decimal_quotient(n, den, digits)


def test_quadratic_surd_str_halves_even_pairs():
    assert quadratic_surd_str(34, 24, 2) == "17+12*sqrt(2)"
    assert quadratic_surd_str(7, 3, 5) == "(7+3*sqrt(5))/2"
    assert quadratic_surd_str(3, 1, 5) == "(3+sqrt(5))/2"
    assert quadratic_surd_str(4, 2, 3) == "2+sqrt(3)"
    assert quadratic_surd_str(6, 4, 2) == "3+2*sqrt(2)"
    assert quadratic_surd_str(2 * 10**4300 - 2, 2, 5).startswith("9" * 4300 + "+sqrt(5)")
    with pytest.raises(HkddError, match="more than 4300 digits"):
        quadratic_surd_str(2 * 10**4300, 2, 5)
    with pytest.raises(HkddError, match="more than 4300 digits"):
        quadratic_surd_str(10**4300 + 1, 1, 5)


def test_algebraic_comparisons():
    r2 = isolate_real_roots(poly(-2, 0, 1))[-1]
    r2_again = isolate_real_roots(poly_mul(poly(-2, 0, 1), poly(-5, 1)))[1]
    assert r2.compare_to(r2_again) == 0
    r3 = isolate_real_roots(poly(-3, 0, 1))[-1]
    assert r2 < r3
    assert r3 > r2
    assert r2.compare_rational(3, 2) < 0
    assert r2.compare_rational(1) > 0
    one = isolate_real_roots(poly(-1, 1))[0]
    assert one.compare_rational(1) == 0


def test_compare_rational_refuses_a_denominator_below_1():
    # (3 + sqrt(5))/2 = 2.618... > 5/2: with n/d = -5/-2 the signs would
    # flip each cross-multiplied test, and d = 0 names no number
    root = salem_root_of(poly(1, -3, 1))
    assert root.compare_rational(5, 2) == 1
    for n, d in ((-5, -2), (5, 0), (0, 0), (1, -1)):
        with pytest.raises(ValueError, match="denominator"):
            root.compare_rational(n, d)


# --- quadratic Salem roots ----------------------------------------------------

# s of x^2 - s*x + 1: every s up to 10^6, and some up to 10^60
TRACES = st.one_of(st.integers(3, 10**6), st.integers(3, 10**60))


def quadratic_root(s: int) -> AlgebraicReal:
    return salem_root_of(poly(1, -s, 1))


@settings(max_examples=200)
@given(TRACES)
def test_quadratic_walk_is_isqrt_cells_holding_the_root(s):
    # each cell nests in the one before, holds (s + sqrt(s^2 - 4))/2 and
    # has a power-of-two denominator 2^(w+1), w = 64, 128, ...; by Liouville
    # the root is about 2^-(w+1)/s of a cell or more from either end, so 2w
    # bits and twice those of s tell it apart
    root = quadratic_root(s)
    walk = root._quadratic_walk()
    prev = next(walk)
    assert prev == (root.a, root.b, root.den) and root.a >= root.den
    for w in (64 << i for i in range(5)):
        a, b, den = next(walk)
        assert (b - a, den) == (1, 2 << w)
        assert prev[0] * den <= a * prev[2] and b * prev[2] <= prev[1] * den
        with mpmath.workprec(2 * w + 2 * s.bit_length() + 16):
            lam = (s + mpmath.sqrt(mpmath.mpf(s) ** 2 - 4)) / 2
            assert mpmath.mpf(a) / den < lam < mpmath.mpf(b) / den
        prev = a, b, den


@settings(max_examples=60)
@given(st.integers(3, 10**6), st.sampled_from((1, 3, 12, 50, 200)))
def test_quadratic_decimals_match_the_bisection_oracles(s, digits):
    # power_decimals reads a fresh root, whose walk starts at its isolating
    # interval, not at the cell decimal_str reached
    root = quadratic_root(s)
    assert root.decimal_str(digits) == bisection_decimal_str(root, digits)
    want = bisection_power_decimal(root, list(range(6)), digits).entries
    assert quadratic_root(s).power_decimals(5, digits) == want


@settings(max_examples=200)
@given(TRACES, TRACES)
def test_quadratic_roots_compare_as_their_traces(s, t):
    # the root grows with s; equal s share their root, found by the gcd test
    assert quadratic_root(s).compare_to(quadratic_root(t)) == (s > t) - (s < t)


@settings(max_examples=300)
@given(TRACES, st.integers(1, 2**400), st.integers(0, 2**400), st.integers(-3, 3))
def test_quadratic_root_against_a_rational(s, d, k, offset):
    # n/d > 1 lies below the root exactly when p(n/d) < 0: n/d anywhere in
    # (1, s + 1], and n/d within 2^-200 of the root, n = floor(lambda * e) + offset
    e = d << 202
    near = (s * e + math.isqrt((s * s - 4) * e * e)) // 2 + offset
    for n, den in ((d + 1 + k % (s * d), d), (near, e)):
        want = s * n * den - n * n - den * den
        assert quadratic_root(s).compare_rational(n, den) == (want > 0) - (want < 0)


@pytest.mark.parametrize(
    "other",
    [LEHMER, poly(1, -1, -2, -1, 1), poly(1, -2, -2, -2, 1), poly(1, -5, 4, -5, 1)],
    ids=["lehmer", "quartic-2.08", "quartic-2.89", "quartic-4.33"],
)
@pytest.mark.parametrize("s", [3, 4, 5])
def test_quadratic_root_against_a_qir_root_matches_mpmath(other, s):
    root = isolate_real_roots(other)[-1]
    with mpmath.workdps(30):
        diff = (s + mpmath.sqrt(s * s - 4)) / 2 - mp_root(other, root)()
    assert quadratic_root(s).compare_to(root) == (diff > 0) - (diff < 0)
    assert root.compare_to(quadratic_root(s)) == (diff < 0) - (diff > 0)


# --- trace polynomial --------------------------------------------------------


def expand_trace(q: IntPolynomial, d: int) -> IntPolynomial:
    """Oracle: x^d * q(x + 1/x) = sum_j q_j x^(d-j) (x^2+1)^j."""
    total = IntPolynomial(())
    for j, c in enumerate(q.coeffs):
        term = poly_mul(c, *[poly(1, 0, 1)] * j, IntPolynomial((0,) * (d - j) + (1,)))
        total = poly_add(total, term)
    return total


def test_trace_polynomial_examples():
    assert trace_polynomial(poly(1, -34, 1)) == poly(-34, 1)
    assert trace_polynomial(poly(1, 0, 1)) == poly(0, 1)
    assert trace_polynomial(cyclotomic(12)) == poly(-3, 0, 1)
    with pytest.raises(HkddError, match=r"\(x\^2 - 3\*x \+ 2\) is not palindromic"):
        trace_polynomial(poly(2, -3, 1))
    with pytest.raises(HkddError, match="degree 3 is odd"):
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
