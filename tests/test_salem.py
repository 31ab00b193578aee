import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdd import salem
from hkdd.errors import DegreeTooSmallError, NotMonicError
from hkdd.polynomial import ONE_POLY, IntPolynomial, char_poly, cyclotomic, isolate_real_roots, poly
from hkdd.salem import (
    ALL_CYCLOTOMIC,
    NOT_SPECTRALLY_VALID,
    SALEM_STRUCTURE,
    classify_charpoly,
    is_salem_polynomial,
    peel_cyclotomic,
)
from oracles import rebuild_product

LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
X2_34 = poly(1, -34, 1)


def test_peel_cyclotomic_examples(m1):
    factors, rem = peel_cyclotomic(poly(-1, 35, -35, 1))
    assert factors == [(1, 1)]
    assert rem == X2_34
    factors, rem = peel_cyclotomic(char_poly(m1))
    assert factors == [(1, 1), (2, 2)]
    assert rem.degree == 0
    factors, rem = peel_cyclotomic(poly(-2, 0, 1))
    assert factors == []
    assert rem == poly(-2, 0, 1)
    with pytest.raises(NotMonicError):
        peel_cyclotomic(poly(1, -3, 2))


def test_peel_handles_high_cyclotomic_indices():
    p = cyclotomic(12) * cyclotomic(30) * X2_34
    factors, rem = peel_cyclotomic(p)
    assert dict(factors) == {12: 1, 30: 1}
    assert rem == X2_34


def test_is_salem_accepts_known_salem_numbers():
    check = is_salem_polynomial(X2_34)
    assert check
    assert check.roots_above_2 == 1 and check.real_roots_total == 1
    assert check.root.decimal_str(13) == "33.97056274848"
    check = is_salem_polynomial(LEHMER)
    assert check
    assert check.real_roots_total == 5
    assert check.roots_inside == 4
    assert check.root.decimal_str(6) == "1.17628"


def test_is_salem_rejections():
    assert not is_salem_polynomial(poly(2, -3, 1))  # not palindromic
    assert not is_salem_polynomial(poly(1, 0, 0, 1, 0, 0, 1))  # Phi_9, cyclotomic
    for n in range(1, 31):
        p = cyclotomic(n)
        if p.degree < 2:
            with pytest.raises(DegreeTooSmallError):
                is_salem_polynomial(p)
        else:
            assert not is_salem_polynomial(p)
    with pytest.raises(NotMonicError):
        is_salem_polynomial(poly(1, -34, 2))
    # negative dominant root is not a Salem number
    assert not is_salem_polynomial(poly(1, 34, 1))


def test_salem_certificate_float_moduli():
    for p in (X2_34, LEHMER, poly(1, -3, 1), poly(1, -7, 1)):
        check = is_salem_polynomial(p)
        assert check
        moduli = sorted(np.abs(np.roots(list(reversed(p.coeffs)))))
        assert moduli[-1] > 1 + 1e-6
        assert moduli[0] < 1 - 1e-6
        for m in moduli[1:-1]:
            assert abs(m - 1.0) <= 1e-6
        assert float(check.root) == pytest.approx(moduli[-1], rel=1e-9)


def test_salem_reciprocity():
    for p in (X2_34, LEHMER):
        assert tuple(reversed(p.coeffs)) == p.coeffs


def test_classify_charpoly_examples(m1, m1m2):
    cls = classify_charpoly(char_poly(m1m2))
    assert cls.kind == SALEM_STRUCTURE
    assert cls.cyclotomic_factors == ((1, 1),)
    assert cls.salem_factor == X2_34
    assert cls.salem_root.exact_str() == "17+12*sqrt(2)"
    assert cls.salem_root.lo > 1

    cls = classify_charpoly(char_poly(m1))
    assert cls.kind == ALL_CYCLOTOMIC
    assert cls.cyclotomic_factors == ((1, 1), (2, 2))

    cls = classify_charpoly(poly(1, -3, 1) * poly(-1, 1))
    assert cls.kind == SALEM_STRUCTURE
    assert cls.salem_root.exact_str() == "(3+sqrt(5))/2"


def test_classify_not_spectrally_valid():
    # square of a Salem polynomial is reciprocal but not Salem
    assert classify_charpoly(X2_34 * X2_34).kind == NOT_SPECTRALLY_VALID
    # x^2 - 3 has two real roots off the unit circle but is not reciprocal
    assert classify_charpoly(poly(-3, 0, 1)).kind == NOT_SPECTRALLY_VALID
    # negative dominant eigenvalue
    assert classify_charpoly(poly(1, 34, 1)).kind == NOT_SPECTRALLY_VALID


def test_classification_multiplies_back():
    rng = random.Random(61)
    for _ in range(40):
        p = poly(1)
        for _ in range(rng.randint(0, 3)):
            p = p * cyclotomic(rng.randint(1, 12))
        if rng.random() < 0.7:
            p = p * X2_34
        cls = classify_charpoly(p)
        assert rebuild_product(cls) == p
        assert cls.kind != NOT_SPECTRALLY_VALID


def test_constant_one_classifies_all_cyclotomic():
    cls = classify_charpoly(poly(1))
    assert cls.kind == ALL_CYCLOTOMIC
    assert cls.cyclotomic_factors == ()


def test_involution_family_never_spectrally_invalid(rank3, m1, m2, m1m2, quartic_pair):
    """The matrices the theory actually produces (involution pulls, their
    compositions and powers, natural extensions) always classify cleanly."""
    from hkdd import linalg
    from hkdd.dynamics import search_salem_isometries
    from hkdd.hyperkahler import hilbert_lattice, natural_isometry
    from hkdd.lattice import verify_isometry

    family = [m1, m2, m1m2, linalg.identity(3)]
    for ell in (2, 3, 4):
        family.append(linalg.mat_pow(m1m2, ell))
    hilb = hilbert_lattice(quartic_pair, 2, e_index=1)
    for base_m, _ in search_salem_isometries(quartic_pair, 5):
        base_iso = verify_isometry(quartic_pair, base_m)
        family.append(natural_isometry(base_iso, hilb).rows())
    for m in family:
        assert classify_charpoly(char_poly(m)).kind != NOT_SPECTRALLY_VALID


# --- oracles: exactness, one peel, sympy, comparison order ------------------

CYCLOTOMIC_INDICES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20, 24, 30)
SALEM = (X2_34, LEHMER, poly(1, -3, 1), poly(1, 0, 0, -1, -1, -1, 0, 0, 1), poly(1, 0, -1, -1, -1, 0, 1))


@st.composite
def palindromes(draw):
    """Monic palindromic polynomials of even degree 2..8 with small entries."""
    half = draw(st.lists(st.integers(-4, 4), min_size=0, max_size=3))
    middle = draw(st.integers(-9, 9))
    return IntPolynomial(tuple([1] + half + [middle] + half[::-1] + [1]))


@st.composite
def reciprocal_products(draw):
    """Products of cyclotomic polynomials with Salem, palindromic and
    anti-palindromic factors, some of them repeated."""
    p = ONE_POLY
    for n in draw(st.lists(st.sampled_from(CYCLOTOMIC_INDICES), max_size=4)):
        p = p * cyclotomic(n)
    for f in draw(st.lists(st.one_of(st.sampled_from(SALEM), palindromes()), max_size=2)):
        p = p * f
    if draw(st.booleans()):
        p = p * poly(-1, 0, 1)  # an anti-palindromic factor, (x - 1)(x + 1)
    return p


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(reciprocal_products())
def test_classification_rebuilds_the_input(p):
    cls = classify_charpoly(p)
    assert rebuild_product(cls) == p
    if cls.kind == NOT_SPECTRALLY_VALID:
        # the remainder that failed the Salem test has no cyclotomic factor
        rest = cls.remainder
        assert rest.degree >= 1 and peel_cyclotomic(rest) == ([], rest)


def sympy_classification(p: IntPolynomial):
    """(kind, cyclotomic factors, Salem factor) from sympy's factorization;
    a factor is Salem when numpy finds one real root above 1 and every
    other root but its inverse on the unit circle."""
    x = sympy.symbols("x")
    _, found = sympy.Poly(list(reversed(p.coeffs)), x).factor_list()
    cyc, rest = [], []
    for f, mult in found:
        if f.is_cyclotomic:
            n = next(n for n in range(1, 1000) if sympy.Poly(sympy.cyclotomic_poly(n, x), x) == f)
            cyc.append((n, mult))
        else:
            rest.append((IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs()))), mult))
    cyc = tuple(sorted(cyc))
    if not rest:
        return ALL_CYCLOTOMIC, cyc, None
    if len(rest) == 1 and rest[0][1] == 1 and looks_salem(rest[0][0]):
        return SALEM_STRUCTURE, cyc, rest[0][0]
    return NOT_SPECTRALLY_VALID, cyc, None


def looks_salem(f: IntPolynomial) -> bool:
    if f.degree < 2 or not f.is_monic:
        return False
    roots = np.roots(list(reversed(f.coeffs)))
    above = [r for r in roots if abs(r) > 1 + 1e-7]
    below = [r for r in roots if abs(r) < 1 - 1e-7]
    return len(above) == 1 == len(below) and abs(above[0].imag) < 1e-9 and above[0].real > 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(reciprocal_products())
def test_classification_matches_sympy_factorization(p):
    cls = classify_charpoly(p)
    kind, cyc, salem_factor = sympy_classification(p)
    assert cls.kind == kind
    assert cls.cyclotomic_factors == cyc
    if kind == SALEM_STRUCTURE:
        assert cls.salem_factor == salem_factor


def test_one_peel_per_classification(monkeypatch):
    calls = []
    original = salem.peel_cyclotomic

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(salem, "peel_cyclotomic", counting)
    inputs = [LEHMER, X2_34 * cyclotomic(1), X2_34 * X2_34, cyclotomic(12) * cyclotomic(3), poly(1, 34, 1),
              LEHMER * cyclotomic(7) * cyclotomic(1) * cyclotomic(1)]
    for p in inputs:
        classify_charpoly(p)
    assert calls == inputs


def test_peel_with_the_graeffe_test():
    # remainders of degree GRAEFFE_MIN_DEGREE and more go through the test
    big = LEHMER * cyclotomic(7) * cyclotomic(1) * cyclotomic(1) * cyclotomic(30)
    assert big.degree >= salem.GRAEFFE_MIN_DEGREE
    factors, rem = peel_cyclotomic(big)
    assert factors == [(1, 2), (7, 1), (30, 1)]
    assert rem == LEHMER
    # (x - 2)(x - 4) shares the root 4 with its Graeffe iterate, so the test
    # cannot rule out a cyclotomic factor, and the scan finds none
    alarm = poly(8, -6, 1) * LEHMER
    assert salem._may_have_cyclotomic_factor(alarm.coeffs)
    assert peel_cyclotomic(alarm) == ([], alarm)
    # roots at 0 are stripped before the test, so they raise no alarm
    assert not salem._may_have_cyclotomic_factor((poly(0, 0, 1) * LEHMER).coeffs)
    assert peel_cyclotomic(poly(0, 0, 1) * LEHMER) == ([], poly(0, 0, 1) * LEHMER)


def test_graeffe_test_flags_every_cyclotomic_factor():
    for n in range(1, 80):
        p = cyclotomic(n) * LEHMER
        assert salem._may_have_cyclotomic_factor(p.coeffs), n
    for p in SALEM:
        assert not salem._may_have_cyclotomic_factor(p.coeffs)


def test_peel_finds_high_index_factors_of_large_degree():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice([11, 13, 16, 22, 25, 27, 33, 42, 44, 60])
        p = cyclotomic(n) * LEHMER * LEHMER
        factors, rem = peel_cyclotomic(p)
        assert factors == [(n, 1)] and rem == LEHMER * LEHMER


def pooled_roots():
    """Real roots of polynomials that share roots: sqrt(2) of x^2 - 2 and of
    (x^2 - 2)(x - 3), 3 of x - 3 and of (x - 3)(x^2 - 7), and others."""
    defining = [poly(-2, 0, 1), poly(-2, 0, 1) * poly(-3, 1), poly(-3, 1), poly(-3, 1) * poly(-7, 0, 1),
                poly(-7, 0, 1), X2_34, LEHMER, poly(1, -3, 1) * poly(-2, 0, 1), poly(-1, 0, 0, 1) * poly(1, -3, 1)]
    return [r for p in defining for r in isolate_real_roots(p)]


def test_compare_to_is_antisymmetric_and_transitive():
    roots = pooled_roots()
    values = [float(r) for r in roots]
    cmp = {(i, j): roots[i].compare_to(roots[j]) for i in range(len(roots)) for j in range(len(roots))}
    for (i, j), c in cmp.items():
        assert c == -cmp[j, i]
        if abs(values[i] - values[j]) > 1e-9:
            assert c == (1 if values[i] > values[j] else -1)
    equal_pairs = [(i, j) for (i, j), c in cmp.items() if c == 0 and i < j]
    # sqrt(2), 3, sqrt(7) and (3 + sqrt(5))/2 each occur in two polynomials
    assert len(equal_pairs) >= 4
    n = len(roots)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if cmp[i, j] <= 0 and cmp[j, k] <= 0:
                    assert cmp[i, k] <= 0
                if cmp[i, j] == 0 and cmp[j, k] == 0:
                    assert cmp[i, k] == 0
