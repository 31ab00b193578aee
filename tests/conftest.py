from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from hkdd import fixtures, linalg
from hkdd.hyperkahler import hilbert_lattice
from hkdd.lattice import make_lattice, verify_isometry
from hkdd.polynomial import IntPolynomial, isolate_real_roots
from oracles import algebraic_real_from_json


@pytest.fixture(scope="session")
def rank3():
    """The <H1, e, H2> lattice with gram [[4,0,8],[0,-2,0],[8,0,4]]."""
    return fixtures.rank3_lattice()


@pytest.fixture(scope="session")
def quartic_pair():
    return fixtures.quartic_pair_lattice()


@pytest.fixture(scope="session")
def hilb2(quartic_pair):
    return hilbert_lattice(quartic_pair, 2, e_index=1)


@pytest.fixture(scope="session")
def m1():
    return fixtures.m1_matrix()


@pytest.fixture(scope="session")
def m2():
    return fixtures.m2_matrix()


@pytest.fixture(scope="session")
def m1m2(m1, m2):
    return linalg.mat_mul(m1, m2)


@pytest.fixture(scope="session")
def iso_m1m2(rank3, m1m2):
    return verify_isometry(rank3, m1m2)


def correctly_rounded(value, p: int) -> str:
    """The value rounded half-even to p significant digits by mpmath, written
    as str(Decimal) writes p digits (47.0, 8.20613852651E+504).

    value is a callable returning an mpmath number; it runs at 3p + 20
    digits, so only a value within about 10^-(2p+20) of a rounding boundary,
    relatively, could be misjudged.
    """
    with mpmath.workdps(3 * p + 20):
        x = value()
        sign, x = ("-" if x < 0 else ""), abs(x)
        e = int(mpmath.floor(mpmath.log10(x)))
        q = x * mpmath.mpf(10) ** (p - 1 - e)
        if q >= 10**p:
            e, q = e + 1, q / 10
        elif q < 10 ** (p - 1):
            e, q = e - 1, q * 10
        digits = int(mpmath.floor(q))
        half = q - digits - mpmath.mpf(1) / 2
        if half > 0 or (half == 0 and digits % 2):
            digits += 1
        if digits == 10**p:
            digits, e = digits // 10, e + 1
    return sign + str(Decimal(f"{digits}E{e - p + 1}"))


def assert_correctly_rounded(s: str, value, p: int) -> None:
    """s is value correctly rounded (half-even) to p significant digits."""
    assert s == correctly_rounded(value, p), (s, correctly_rounded(value, p))


def mp_root(p, near):
    """A callable for correctly_rounded: the root of the integer polynomial p
    that the AlgebraicReal near isolates, found by mpmath at its working
    precision from the midpoint of near refined to width 10^-15."""
    r = near.refined(Fraction(1, 10**15))
    coeffs, mid = list(reversed(p.coeffs)), (r.lo + r.hi) / 2

    def value():
        start = mpmath.mpf(mid.numerator) / mid.denominator
        return mpmath.findroot(lambda x: mpmath.polyval(coeffs, x), start)

    return value


def decimals_of(report) -> list:
    """(printed, value) for every rounded decimal of a JSON report: each
    root's, and each spectrum's d_1, d_k (k with exponent > 0) and entropy;
    value is a callable for correctly_rounded."""
    found = []

    def walk(node):
        if isinstance(node, list):
            for x in node:
                walk(x)
        elif isinstance(node, dict) and {"poly", "lo", "hi", "decimal"} <= node.keys():
            root = algebraic_real_from_json(node)
            found.append((node["decimal"], mp_root(root.poly, root)))
        elif isinstance(node, dict) and "entropy" in node and node["d1"]["poly"] is not None:
            poly = IntPolynomial(tuple(node["d1"]["poly"]))
            d1, n = mp_root(poly, isolate_real_roots(poly)[-1]), node["half_dim"]
            found.append((node["d1"]["decimal"], d1))
            for e in node["entries"]:
                if e["exponent"]:
                    found.append((e["decimal"], lambda k=e["exponent"]: d1() ** k))
            found.append((node["entropy"]["nats"], lambda: n * mpmath.log(d1())))
            found.append((node["entropy"]["log10"], lambda: n * mpmath.log10(d1())))
        elif isinstance(node, dict):
            for x in node.values():
                walk(x)

    walk(report)
    return found
