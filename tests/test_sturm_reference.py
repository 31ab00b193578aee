"""The integer Sturm machinery against the Fraction reference in
fraction_sturm.py: the same root counts, square-free parts and isolating
intervals on random polynomials, square-free or not, with rational roots
placed where bisection midpoints land."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraction_sturm import fraction_isolate, fraction_square_free_part, fraction_sturm_count
from hkdd.polynomial import (
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
            p = p * f
    assume(not p.is_zero and p.degree >= 1)
    return p


def endpoints(p: IntPolynomial, draw) -> list:
    """None, random rationals, and every endpoint the isolation produced."""
    pts = [None, Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 16)))]
    for lo, hi in fraction_isolate(p):
        pts += [lo, hi]
    return pts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polys(), st.data())
def test_integer_sturm_matches_fraction_reference(p, data):
    assert square_free_part(p) == fraction_square_free_part(p)
    assert [(r.lo, r.hi) for r in isolate_real_roots(p)] == fraction_isolate(p)
    pts = endpoints(p, data.draw)
    for lo in pts:
        for hi in pts:
            assert sturm_count(p, lo, hi) == fraction_sturm_count(p, lo, hi)


def test_roots_on_midpoints_match_reference():
    # x^3 - x has bound 2; its roots -1 and 0 are bisection midpoints
    p = poly(0, -1, 0, 1)
    intervals = fraction_isolate(p)
    assert [(r.lo, r.hi) for r in isolate_real_roots(p)] == intervals
    assert [hi for _, hi in intervals] == [-1, 0, 2]
    # x^2 - 3x + 2 has bound 4 and roots 1 = B/4 and 2 = B/2
    r = poly(2, -3, 1)
    intervals = fraction_isolate(r)
    assert [(a.lo, a.hi) for a in isolate_real_roots(r)] == intervals
    assert [hi for _, hi in intervals] == [1, 2]
    # a repeated root on the first midpoint, and a square-free part with content
    q = poly(0, 0, 2) * poly(-3, 6) * poly(-3, 6)
    assert square_free_part(q) == fraction_square_free_part(q) == poly(0, -1, 2)
    assert [(r.lo, r.hi) for r in isolate_real_roots(q)] == fraction_isolate(q)
