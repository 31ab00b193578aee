"""The integer Sturm machinery against the Fraction reference in
fraction_sturm.py: the same root counts, square-free parts and isolating
intervals on random polynomials, square-free or not, with rational roots
placed where bisection midpoints land, and the same order of roots and
rationals as the reference isolation of their product gives."""

import random
from fractions import Fraction
from functools import cmp_to_key

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraction_sturm import fraction_isolate, fraction_square_free_part, fraction_sturm_count
from oracles import interval
from hkdd.polynomial import (
    AlgebraicReal,
    IntPolynomial,
    ONE_POLY,
    isolate_real_roots,
    poly,
    sorted_order,
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
            p = p * f
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
    q = poly(0, 0, 2) * poly(-3, 6) * poly(-3, 6)
    assert square_free_part(q) == fraction_square_free_part(q) == poly(0, -1, 2)
    assert [interval(r) for r in isolate_real_roots(q)] == fraction_isolate(q)


def root_index(roots: list[tuple[Fraction, Fraction]], x: AlgebraicReal) -> int:
    """The index of x among roots, the fraction_isolate intervals of a
    multiple of x.poly: the one whose overlap with x's interval holds a root
    of x.poly."""
    lo, hi = interval(x)
    overlaps = [(i, max(lo, u), min(hi, v)) for i, (u, v) in enumerate(roots)]
    hits = [i for i, a, b in overlaps if a < b and fraction_sturm_count(x.poly, a, b)]
    assert len(hits) == 1
    return hits[0]


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
    p, q = f * g, f * h
    assume(not p.is_zero and not q.is_zero)
    roots = fraction_isolate(p * q)
    xs = [(x, root_index(roots, x)) for x in isolate_real_roots(p)]
    ys = [(y, root_index(roots, y)) for y in isolate_real_roots(q)]
    for x, i in xs:
        for y, j in ys:
            assert x.compare_to(y) == sign(i - j)


def test_compare_to_on_two_grids_and_overlapping_intervals():
    x = isolate_real_roots(poly(-2, 0, 1))[-1]
    y = isolate_real_roots(poly(-2, 0, 1) * poly(-1, 3))[-1]
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
            roots = fraction_isolate(x.poly * poly(-m, e))
            at = next(i for i, (u, v) in enumerate(roots) if u < Fraction(m, e) <= v)
            assert x.compare_rational(m, e) == sign(root_index(roots, x) - at)


@settings(max_examples=80)
@given(polys(), st.one_of(dyadic, general), st.one_of(dyadic, general), st.randoms(use_true_random=False))
# sqrt(2) under x^2 - 2 and under (x^2 - 2)(3x - 1), on the grids of den 1 and den 4
@example(poly(-2, 0, 1), poly(1), poly(-1, 3), random.Random(0))
def test_sorted_order_matches_compare_to(f, g, h, rnd):
    """The roots of f*g and of f*h, shuffled: the roots of f come up under
    both, so sorted_order meets coincident roots under two polynomials."""
    p, q = f * g, f * h
    assume(not p.is_zero and not q.is_zero)
    reals = isolate_real_roots(p) + isolate_real_roots(q)
    rnd.shuffle(reals)
    assert [reals[i] for i in sorted_order(reals)] == sorted(reals, key=cmp_to_key(AlgebraicReal.compare_to))


def test_sorted_order_leaves_only_coincident_roots_to_compare_to(monkeypatch):
    calls = []
    compare_to = AlgebraicReal.compare_to
    monkeypatch.setattr(AlgebraicReal, "compare_to", lambda x, y: calls.append((x, y)) or compare_to(x, y))
    x = isolate_real_roots(poly(-2, 0, 1))[-1]
    y = isolate_real_roots(poly(-2, 0, 1) * poly(-1, 3))[-1]
    z = isolate_real_roots(poly(-99, 70))[0]  # 99/70 = sqrt(2) + 0.00007..., overlapping both
    w = isolate_real_roots(poly(-3, 0, 1))[-1]
    assert sorted_order([w, z, y, x]) == [2, 3, 1, 0]
    assert {frozenset(pair) for pair in calls} == {frozenset((x, y))}
