"""The integer Sturm machinery against the Fraction reference in
fraction_sturm.py: the same root counts, square-free parts and isolating
intervals on random polynomials, square-free or not, with rational roots
placed where bisection midpoints land, the same order of roots and
rationals as the reference isolation of their product gives, and root
walks that hold the root without counting Sturm variations."""

import itertools
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraction_sturm import fraction_isolate, fraction_square_free_part, fraction_sturm_count
from oracles import bisection_path, interval, poly_mul, root_index
from hkdd import polynomial
from hkdd.polynomial import (
    AlgebraicReal,
    IntPolynomial,
    ONE_POLY,
    isolate_real_roots,
    poly,
    square_free_part,
    sturm_count,
)

# dyadic roots n / 2^j, and 0, which is the first midpoint of every
# isolation (its start interval is symmetric about 0)
dyadic = st.builds(lambda n, j: poly(-n, 2**j), st.integers(-40, 40), st.integers(0, 5))
general = st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(lambda c: IntPolynomial(tuple(c)))
factors = st.tuples(st.one_of(dyadic, general, st.just(poly(0, 1))), st.integers(1, 2))


@st.composite
def polys(draw):
    """Products of random factors, some of them squared."""
    p = ONE_POLY
    for f, power in draw(st.lists(factors, min_size=1, max_size=3)):
        for _ in range(power):
            p = poly_mul(p, f)
    assume(not p.is_zero and p.degree >= 1)
    return p


def endpoints(p: IntPolynomial, draw) -> list:
    """None, random rationals, and every endpoint the isolation produced."""
    pts = [None, Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 16)))]
    for lo, hi in fraction_isolate(p):
        pts += [lo, hi]
    return pts


@settings(max_examples=150)
@given(polys(), st.data())
def test_integer_sturm_matches_fraction_reference(p, data):
    assert square_free_part(p) == fraction_square_free_part(p)
    assert [interval(r) for r in isolate_real_roots(p)] == fraction_isolate(p)
    pts = endpoints(p, data.draw)
    for lo in pts:
        for hi in pts:
            assert sturm_count(p, lo, hi) == fraction_sturm_count(p, lo, hi)


def test_roots_on_midpoints_match_reference():
    # x^3 - x has bound 2; its roots -1 and 0 are bisection midpoints
    p = poly(0, -1, 0, 1)
    intervals = fraction_isolate(p)
    assert [interval(r) for r in isolate_real_roots(p)] == intervals
    assert [hi for _, hi in intervals] == [-1, 0, 2]
    # x^2 - 3x + 2 has bound 4 and roots 1 = B/4 and 2 = B/2
    r = poly(2, -3, 1)
    intervals = fraction_isolate(r)
    assert [interval(a) for a in isolate_real_roots(r)] == intervals
    assert [hi for _, hi in intervals] == [1, 2]
    # a repeated root on the first midpoint, and a square-free part with content
    q = poly_mul(poly(0, 0, 2), poly(-3, 6), poly(-3, 6))
    assert square_free_part(q) == fraction_square_free_part(q) == poly(0, -1, 2)
    assert [interval(r) for r in isolate_real_roots(q)] == fraction_isolate(q)


def sign(n: int) -> int:
    return (n > 0) - (n < 0)


@settings(max_examples=80)
@given(polys(), st.one_of(dyadic, general), st.one_of(dyadic, general))
@example(poly(-2, 0, 1), poly(1), poly(-1, 3))  # sqrt(2) on the grids of den 1 and den 4
@example(poly(1), poly(-2, 0, 1), poly(-99, 70))  # sqrt(2) < 99/70, isolated by overlapping intervals
def test_compare_to_matches_fraction_isolation(f, g, h):
    """Every root of f*g against every root of f*h: the roots of f come up
    under both, on the grids of two Cauchy bounds when g and h lead
    differently; the rest are neighbours whose intervals may overlap."""
    p, q = poly_mul(f, g), poly_mul(f, h)
    assume(not p.is_zero and not q.is_zero)
    roots = fraction_isolate(poly_mul(p, q))
    xs = [(x, root_index(roots, x)) for x in isolate_real_roots(p)]
    ys = [(y, root_index(roots, y)) for y in isolate_real_roots(q)]
    for x, i in xs:
        for y, j in ys:
            assert x.compare_to(y) == sign(i - j)


def test_compare_to_on_two_grids_and_overlapping_intervals():
    x = isolate_real_roots(poly(-2, 0, 1))[-1]
    y = isolate_real_roots(poly_mul(poly(-2, 0, 1), poly(-1, 3)))[-1]
    assert (x.den, y.den) == (1, 4)
    assert x.compare_to(y) == y.compare_to(x) == 0
    z = isolate_real_roots(poly(-99, 70))[0]  # 99/70 = sqrt(2) + 0.00007...
    assert z.a * x.den < x.b * z.den and x.a * z.den < z.b * x.den
    assert x.compare_to(z) == -1 and z.compare_to(x) == 1


@settings(max_examples=80)
@given(polys(), st.integers(-60, 60), st.integers(1, 16))
def test_compare_rational_matches_fraction_isolation(p, n, d):
    """compare_rational at a random n/d and at both ends of the interval, as
    the unreduced pairs (a, den) and (b, den)."""
    for x in isolate_real_roots(p):
        for m, e in [(n, d), (x.a, x.den), (x.b, x.den)]:
            roots = fraction_isolate(poly_mul(x.poly, poly(-m, e)))
            at = next(i for i, (u, v) in enumerate(roots) if u < Fraction(m, e) <= v)
            assert x.compare_rational(m, e) == sign(root_index(roots, x) - at)


def test_compare_to_runs_the_shared_root_test_only_on_coincident_roots(monkeypatch):
    x = isolate_real_roots(poly(-2, 0, 1))[-1]
    y = isolate_real_roots(poly_mul(poly(-2, 0, 1), poly(-1, 3)))[-1]
    z = isolate_real_roots(poly(-99, 70))[0]  # 99/70 = sqrt(2) + 0.00007..., overlapping both
    w = isolate_real_roots(poly(-3, 0, 1))[-1]
    assert z.a * x.den < x.b * z.den and z.a * y.den < y.b * z.den
    calls = []
    remainder_sequence = polynomial._remainder_sequence
    monkeypatch.setattr(
        polynomial, "_remainder_sequence", lambda a, b: calls.append((a, b)) or remainder_sequence(a, b)
    )
    assert sorted([w, z, y, x], key=cmp_to_key(AlgebraicReal.compare_to)) == [y, x, z, w]
    # a Sturm chain's call pairs a polynomial with its derivative; the
    # shared-root test pairs the two polynomials compared
    polys = {r.poly.coeffs for r in (w, z, y, x)}
    assert {frozenset(pair) for pair in calls if set(pair) <= polys} == {frozenset((x.poly.coeffs, y.poly.coeffs))}


def forbidden(*args):
    raise AssertionError("a walk counted Sturm sign variations")


def assert_walks_hold_the_root(x: AlgebraicReal) -> None:
    """bisection_path for 80 steps and _quadratic_walk for 12, with Sturm
    variations forbidden: every interval nests in the one before, and the
    last holds one root of x.poly by the Fraction reference. The first, the
    isolating interval, holds only that root, so every interval holds it."""
    assert fraction_sturm_count(x.poly, *interval(x)) == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomial, "_chain_variations", forbidden)
        walks = [list(itertools.islice(path, steps + 1)) for path, steps in
                 ((bisection_path(x), 80), (x._quadratic_walk(), 12))]
    for walk in walks:
        prev = interval(x)
        for a, b, den in walk:
            lo, hi = Fraction(a, den), Fraction(b, den)
            assert prev[0] <= lo < hi <= prev[1]
            prev = lo, hi
        assert fraction_sturm_count(x.poly, *prev) == 1


@settings(max_examples=100, derandomize=True)
@given(polys())
@example(poly_mul(poly(-2, 0, 1), poly(-2, 0, 1)))
@example(poly(0, -1, 0, 1))  # -1 and 0 on midpoints: each is the open end of the next interval
def test_walks_never_count_sturm_variations(p):
    """Each isolating interval of p, with p itself as the polynomial,
    square-free or not, so the walks must take their signs from its
    square-free part; dyadic roots fall on midpoints and on open ends."""
    for r in isolate_real_roots(p):
        assert_walks_hold_the_root(AlgebraicReal(p, r.a, r.b, r.den))


def test_walks_steer_by_the_sign_at_hi_when_lo_is_a_root():
    # 2 in (1, 3], with the other root of x^2 - 3x + 2 on the open end
    assert_walks_hold_the_root(AlgebraicReal(poly(2, -3, 1), 1, 3))
    # 1 in (0, 1], a root on the closed end, with 0 on the open end
    assert_walks_hold_the_root(AlgebraicReal(poly_mul(poly(0, -1, 1), poly(0, -1, 1)), 0, 1))
