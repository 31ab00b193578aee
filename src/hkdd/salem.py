"""Salem polynomial recognition and the cyclotomic x Salem factor structure.

A monic integer polynomial is classified by peeling off every cyclotomic
factor; what remains is either 1, a single Salem polynomial, or evidence that
the input cannot be the characteristic polynomial of a hyperkahler-type
isometry. Salem recognition is certified via the trace polynomial: the roots
on the unit circle map into (-2, 2) under y = x + 1/x and the root pair
alpha, 1/alpha maps to a single value in (2, oo). A search key whose char
poly is +-1 roots times one quadratic x^2 - s*x + 1 is classified from s
alone, with no polynomial built and no peel (classify_reciprocal).

Degree-2 reciprocal units such as 17+12*sqrt(2) count as Salem numbers here:
the condition on the remaining conjugates is vacuous for them. Some texts
require degree >= 4; this package deliberately does not.

No geometric realizability is claimed for arbitrary user input: the
classification reports the spectral structure and nothing more.
"""

from __future__ import annotations

import functools
import struct
from collections import namedtuple
from itertools import zip_longest
from math import isqrt

from .errors import HkddError
from .polynomial import (
    ONE_POLY,
    AlgebraicReal,
    IntPolynomial,
    _quotient,
    _sign_at,
    _sturm_chain,
    _variations,
    _variations_at,
    _weights,
    cauchy_bound,
    cyclotomic,
    is_palindromic,
    reciprocal_char_poly,
    trace_polynomial,
)

ALL_CYCLOTOMIC = "AllCyclotomic"
SALEM_STRUCTURE = "SalemStructure"
NOT_SPECTRALLY_VALID = "NotSpectrallyValid"


class SalemCheck(namedtuple("SalemCheck", "accepted reason real_roots_total roots_above_2 roots_inside root",
                            defaults=(0, 0, 0, None))):
    """Outcome of the Salem test with the Sturm-count certificate; root, an
    AlgebraicReal, when accepted. True when accepted."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.accepted


class SalemClassification(namedtuple("SalemClassification", "kind cyclotomic_factors remainder salem_root reason",
                                     defaults=("",))):
    """kind is one of AllCyclotomic / SalemStructure / NotSpectrallyValid.

    The input is the product of the cyclotomic factors, (n, multiplicity)
    pairs, and the remainder, an IntPolynomial: 1 when AllCyclotomic, the
    Salem factor when SalemStructure, whose AlgebraicReal root is salem_root.
    reason says why a NotSpectrallyValid remainder failed the Salem test.
    """

    __slots__ = ()

    @property
    def salem_factor(self) -> IntPolynomial | None:
        return self.remainder if self.kind == SALEM_STRUCTURE else None


# any prime keeps the test sound; this one keeps each product in one
# machine word and makes a false alarm, which only costs the exact peel,
# rare (a chance of about 1/TEST_PRIME on a polynomial free of them)
TEST_PRIME = 32749
# below this degree, trying the few Phi_n left costs less than the test
GRAEFFE_MIN_DEGREE = 8


def _square(a: list[int]) -> list[int]:
    """Coefficients of a(x)^2 for 0 <= a_i < TEST_PRIME, unreduced.

    Kronecker substitution: a(2^64) is squared as one integer, and as each
    coefficient of the square is below TEST_PRIME^2 * len(a) < 2^64, its
    64-bit words are those coefficients.
    """
    n = int.from_bytes(struct.pack(f"<{len(a)}Q", *a), "little")
    return list(struct.unpack(f"<{2 * len(a) - 1}Q", (n * n).to_bytes(16 * len(a) - 8, "little")))


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _graeffe_mod(f: list[int]) -> list[int]:
    """g with g(x^2) = +-f(x) f(-x), mod TEST_PRIME: even(y)^2 - y odd(y)^2."""
    odd = [0] + _square(f[1::2]) if len(f) > 1 else []
    return _trim([(e - o) % TEST_PRIME for e, o in zip_longest(_square(f[0::2]), odd, fillvalue=0)])


def _coprime_mod(a: list[int], b: list[int]) -> bool:
    """Is the gcd of a and b, reduced mod TEST_PRIME and trimmed, a constant?"""
    while len(b) > 1:
        inv = pow(b[-1], -1, TEST_PRIME)
        db = len(b) - 1
        while len(a) > db:
            f = a.pop() * inv % TEST_PRIME
            if f:
                s = len(a) - db
                a[s:] = [(x - f * y) % TEST_PRIME for x, y in zip(a[s:], b)]
        a, b = b, _trim(a)
    return bool(b) or len(a) == 1


def _may_have_cyclotomic_factor(coeffs: tuple[int, ...]) -> bool:
    """False only when the polynomial has no cyclotomic factor.

    The Graeffe iterate f_(k+1)(x^2) = +-f_k(x) f_k(-x), f_0 = f, has the
    squares of the roots of f_k as its roots. Squaring takes a root of
    unity of order 2^a m, m odd, to one of order m in a steps, and keeps
    it of order m after that (Bradford and Davenport, ISSAC '88). So a
    factor Phi_n of f, 2^a exactly dividing n, puts Phi_m into every f_k
    with k >= a. As 2^(a-1) <= phi(n) <= deg f, a <= A = bit length of
    deg f, and f_A and f_(A+1) share every such Phi_m. The iterates are
    taken mod a prime, which keeps the monic Phi_m a common factor, so a
    constant gcd there rules out every cyclotomic factor.
    """
    low = next(i for i, c in enumerate(coeffs) if c)  # roots at 0 are no roots of unity
    f = _trim([c % TEST_PRIME for c in coeffs[low:]])
    for _ in range((len(f) - 1).bit_length()):
        f = _graeffe_mod(f)
    return not _coprime_mod(f, _graeffe_mod(f))


@functools.lru_cache(maxsize=None)
def _cyclotomic_indices(bound: int) -> tuple[tuple[int, int], ...]:
    """(n, phi(n)) for every n with phi(n) <= bound, ascending in n.

    n = prod q^e has phi(n) = prod q^(e-1) (q - 1), so only primes
    q <= bound + 1 occur; each prime power joins every index built from
    smaller primes while phi stays within the bound.
    """
    out = [(1, 1)]
    for q in range(2, bound + 2):
        if any(q % r == 0 for r in range(2, isqrt(q) + 1)):
            continue
        grown = []
        for n, phi in out:
            n, phi = n * q, phi * (q - 1)
            while phi <= bound:
                grown.append((n, phi))
                n, phi = n * q, phi * q
        out += grown
    return tuple(sorted(out))


def peel_cyclotomic(
    p: IntPolynomial,
) -> tuple[list[tuple[int, int]], IntPolynomial]:
    """Divide out every cyclotomic factor Phi_n with multiplicity.

    The Phi_n with phi(n) <= the degree still left are tried in ascending
    n. From Phi_3 on, a remainder of degree GRAEFFE_MIN_DEGREE or more
    first meets a modular Graeffe test (_may_have_cyclotomic_factor),
    again after each factor found, which ends the scan once it shows that
    the remainder has no cyclotomic factor. So such an input with none
    costs two trial divisions and one test. A remainder of degree phi(n)
    is compared with Phi_n, not divided by it. The remainder has no
    cyclotomic factor left.
    """
    if not p.is_monic:
        raise HkddError(f"({p}) is not monic")
    factors: list[tuple[int, int]] = []
    rem = p.coeffs
    test_due = True
    for n, phi in _cyclotomic_indices(p.degree):
        if phi >= len(rem):
            continue
        if n > 2 and test_due and len(rem) > GRAEFFE_MIN_DEGREE:
            if not _may_have_cyclotomic_factor(rem):
                break
            test_due = False
        cyc, mult = cyclotomic(n).coeffs, 0
        while phi < len(rem):
            # the monic rem of degree phi(n) has the factor Phi_n only as itself
            quot = _quotient(rem, cyc) if phi < len(rem) - 1 else (1,) if rem == cyc else None
            if quot is None:
                break
            rem, mult = quot, mult + 1
        if mult:
            factors.append((n, mult))
            test_due = True
    return factors, IntPolynomial(rem)


def is_salem_polynomial(p: IntPolynomial) -> SalemCheck:
    """Certified Salem test.

    Accepts monic p of even degree 2d that is palindromic, carries no
    cyclotomic factor, and whose trace polynomial has d distinct real roots:
    exactly one in (2, oo), the other d-1 in (-2, 2), none at the endpoints.
    Any proper factor with all roots on the unit circle would be cyclotomic
    (Kronecker), so irreducibility needs no separate factorization.
    """
    if not p.is_monic:
        raise HkddError(f"({p}) is not monic")
    if p.degree < 2:
        raise HkddError(f"degree {p.degree} < 2")
    if p.degree % 2 == 0 and is_palindromic(p):
        factors, _ = peel_cyclotomic(p)
        if factors:
            names = ", ".join(f"Phi_{n}" for n, _ in factors)
            return SalemCheck(False, f"has cyclotomic factor(s) {names}")
    return _certify(p)


@functools.lru_cache(maxsize=None)
def _certify(p: IntPolynomial) -> SalemCheck:
    """The test of is_salem_polynomial for a monic p of degree >= 1 with no
    cyclotomic factor: even degree, palindromic, and the trace-root layout.

    The counts are differences of the sign variations of the Sturm chain of
    the trace polynomial q at -oo, -2, 2 and +oo. Divided by its last term
    gcd(q, q'), the chain is a Sturm sequence of q's square-free part with
    the same variations wherever that gcd is nonzero: at +-2, as q(+-2) != 0.
    x^2 - s*x + 1 with s > 2 needs no chain: q = y - s has its one root
    above 2.

    Each p is certified once per process, and its root isolated once: the
    char polys of a search share few Salem factors among many keys, and the
    check, its root included, is immutable."""
    if p.degree == 2 and p.coeffs[0] == 1 and p.coeffs[1] < -2:
        return SalemCheck(True, "salem certificate holds", 1, 1, 0, salem_root_of(p))
    if p.degree % 2 != 0:
        return SalemCheck(False, f"odd degree {p.degree}")
    if not is_palindromic(p):
        return SalemCheck(False, "coefficient vector is not palindromic")
    d = p.degree // 2
    chain = _sturm_chain(trace_polynomial(p).coeffs)
    # signs at the integers -2 and 2 by Horner, as the weights for D = 1
    # are the coefficients; the chain starts with q itself
    at_ends = [[_sign_at(c, x, 0) for c in chain] for x in (-2, 2)]
    if not at_ends[0][0] or not at_ends[1][0]:
        return SalemCheck(False, "trace polynomial vanishes at +/-2")
    low, high = (_variations_at(chain, None, side) for side in (-1, 1))
    at_minus_2, at_2 = map(_variations, at_ends)
    total, above, inside = layout = (low - high, at_2 - high, at_minus_2 - at_2)
    if layout != (d, 1, d - 1):
        reason = f"trace root layout {total} real / {above} above 2 / {inside} in (-2,2), need {d} / 1 / {d - 1}"
        return SalemCheck(False, reason, *layout)
    return SalemCheck(True, "salem certificate holds", *layout, salem_root_of(p))


def salem_root_of(p: IntPolynomial) -> AlgebraicReal:
    """The root lambda > 1 of a certified Salem polynomial S, isolated right of 1.

    The certificate puts the real roots at 1/lambda and lambda, neither
    rational, with S < 0 between them: m < lambda iff S(m) < 0 or m < 1.
    Bisecting the Cauchy bound's (-N/D, N/D] toward lambda with one sign per
    step first drops 1/lambda where S(lo) < 0, on the interval that
    isolate_real_roots returns; from there the steps go in pairs until
    lo > 1.

    p must have p(1) < 0 < lead(p), or ValueError is raised: then p has a
    root above 1, where the bisection ends. A Salem factor is negative at 1,
    which lies between 1/lambda and lambda.
    """
    if not sum(p.coeffs) < 0 < p.coeffs[-1]:
        raise ValueError(f"({p}) has no root above 1 to isolate: need p(1) < 0 < lead(p)")
    n, den = cauchy_bound(p)
    weights = _weights(p.coeffs, den)
    a, b, k, s_lo = -n, n, 0, 1
    while s_lo > 0 or a <= den << k:
        for _ in range(1 if s_lo > 0 else 2):
            m, k = a + b, k + 1
            s = _sign_at(weights, m, k)
            a, b, s_lo = (m, 2 * b, s) if s < 0 or m < den << k else (2 * a, m, s_lo)
    return AlgebraicReal(p, a, b, den << k)


def classify_charpoly(p: IntPolynomial) -> SalemClassification:
    """Peel cyclotomic factors; remainder 1 means AllCyclotomic, a Salem
    remainder gives SalemStructure, anything else is NotSpectrallyValid with
    the reason the remainder failed the Salem test.

    A SalemStructure certificate also settles multiplicity one: the Salem
    factor is the whole remainder, so it occurs once, it is square-free (its
    trace polynomial has distinct real roots), and exactly one of its roots
    exceeds 1. So d1 is a simple eigenvalue and, as every other eigenvalue
    has modulus at most 1, d1^k is attained once among the k-fold products
    that are the eigenvalues of Sym^k.
    """
    factors, rem = peel_cyclotomic(p)
    return _classified(tuple(factors), rem)


# x^2 - s*x + 1 for |s| <= 2, as cyclotomic factors (n, multiplicity)
_CYCLOTOMIC_QUADRATICS = {2: ((1, 2),), 1: ((6, 1),), 0: ((4, 1),), -1: ((3, 1),), -2: ((2, 2),)}


def classify_reciprocal(n: int, traces: list[int], sign: int) -> SalemClassification:
    """classify_charpoly(reciprocal_char_poly(n, traces, sign)), the char
    poly p of rank n with x^n p(1/x) = sign * p(x) and power traces t_k.

    Two shapes, the ones the search catalogue's rank-3 and rank-4 lattices
    reach, are +-1 roots times one quadratic x^2 - s*x + 1, read off t_1
    with no polynomial built and no peel:
    - rank 3: (x + sign)(x^2 - s*x + 1), s = t_1 + sign, as the roots sum
      to t_1; the linear factor is Phi_2 for sign +1, Phi_1 for sign -1;
    - rank 4, sign -1: c_2 = -c_2 = 0, so p is (x^2 - 1)(x^2 - t_1*x + 1),
      s = t_1, with Phi_1 * Phi_2.
    The quadratic is cyclotomic for |s| <= 2, Salem for s > 2, and else the
    remainder, which fails the Salem test: all as the peel finds them, with
    the certificate of salem._certify. Every other key, rank 2, rank 4 with
    sign +1 or rank 5 and up, takes the general path.
    """
    if n == 3:
        cyc, s = {1 if sign < 0 else 2: 1}, traces[0] + sign
    elif n == 4 and sign < 0:
        cyc, s = {1: 1, 2: 1}, traces[0]
    else:
        return classify_charpoly(reciprocal_char_poly(n, traces, sign))
    if -2 <= s <= 2:
        for k, m in _CYCLOTOMIC_QUADRATICS[s]:
            cyc[k] = cyc.get(k, 0) + m
        return _classified(tuple(sorted(cyc.items())), ONE_POLY)
    return _classified(tuple(sorted(cyc.items())), IntPolynomial((1, -s, 1)))


def _classified(cyc: tuple[tuple[int, int], ...], rem: IntPolynomial) -> SalemClassification:
    """The classification of the product of the cyclotomic factors cyc and
    rem, a polynomial free of them."""
    if rem.degree == 0:
        return SalemClassification(ALL_CYCLOTOMIC, cyc, rem, None)
    check = _certify(rem)
    if check:
        return SalemClassification(SALEM_STRUCTURE, cyc, rem, check.root)
    return SalemClassification(NOT_SPECTRALLY_VALID, cyc, rem, None, check.reason)
