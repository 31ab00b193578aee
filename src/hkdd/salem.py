"""Salem polynomial recognition and the cyclotomic x Salem factor structure.

A monic integer polynomial is classified by peeling off every cyclotomic
factor; what remains is either 1, a single Salem polynomial, or evidence that
the input cannot be the characteristic polynomial of a hyperkahler-type
isometry. Salem recognition is certified via the trace polynomial: the roots
on the unit circle map into (-2, 2) under y = x + 1/x and the root pair
alpha, 1/alpha maps to a single value in (2, oo).

Degree-2 reciprocal units such as 17+12*sqrt(2) count as Salem numbers here:
the condition on the remaining conjugates is vacuous for them. Some texts
require degree >= 4; this package deliberately does not.

No geometric realizability is claimed for arbitrary user input: the
classification reports the spectral structure and nothing more.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from itertools import zip_longest
from math import isqrt

from .errors import DegreeTooSmallError, NotMonicError
from .polynomial import (
    AlgebraicReal,
    IntPolynomial,
    _quotient,
    cyclotomic,
    is_palindromic,
    isolate_real_roots,
    sturm_count,
    trace_polynomial,
)

ALL_CYCLOTOMIC = "AllCyclotomic"
SALEM_STRUCTURE = "SalemStructure"
NOT_SPECTRALLY_VALID = "NotSpectrallyValid"


@dataclass(frozen=True)
class SalemCheck:
    """Outcome of the Salem test with the Sturm-count certificate."""

    accepted: bool
    reason: str
    real_roots_total: int = 0
    roots_above_2: int = 0
    roots_inside: int = 0
    root: AlgebraicReal | None = None

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class SalemClassification:
    """kind is one of AllCyclotomic / SalemStructure / NotSpectrallyValid.

    The input is the product of the cyclotomic factors and the remainder:
    1 when AllCyclotomic, the Salem factor when SalemStructure. reason says
    why a NotSpectrallyValid remainder failed the Salem test.
    """

    kind: str
    cyclotomic_factors: tuple[tuple[int, int], ...]
    remainder: IntPolynomial
    salem_root: AlgebraicReal | None
    reason: str = ""

    @property
    def salem_factor(self) -> IntPolynomial | None:
        return self.remainder if self.kind == SALEM_STRUCTURE else None

    def to_json(self, sig_digits: int = 12, root_decimal: str | None = None) -> dict:
        """root_decimal, when given, is the Salem root's decimal at sig_digits."""
        return {
            "kind": self.kind,
            "cyclotomic": [[n, m] for n, m in self.cyclotomic_factors],
            "salem_poly": list(self.salem_factor.coeffs) if self.salem_factor else None,
            "salem_root": self.salem_root.to_json(sig_digits, root_decimal) if self.salem_root else None,
        }


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
    costs two trial divisions and one test. The remainder has no
    cyclotomic factor left.
    """
    if not p.is_monic:
        raise NotMonicError(f"({p}) is not monic")
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
        mult = 0
        while phi < len(rem) and (quot := _quotient(rem, cyclotomic(n).coeffs)) is not None:
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
        raise NotMonicError(f"({p}) is not monic")
    if p.degree < 2:
        raise DegreeTooSmallError(f"degree {p.degree} < 2")
    if p.degree % 2 == 0 and is_palindromic(p):
        factors, _ = peel_cyclotomic(p)
        if factors:
            names = ", ".join(f"Phi_{n}" for n, _ in factors)
            return SalemCheck(False, f"has cyclotomic factor(s) {names}")
    return _certify(p)


def _certify(p: IntPolynomial) -> SalemCheck:
    """The test of is_salem_polynomial for a monic p of degree >= 1 with no
    cyclotomic factor: even degree, palindromic, and the trace-root layout."""
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


def salem_root_of(p: IntPolynomial) -> AlgebraicReal:
    """The unique real root > 1 of a (certified) Salem polynomial, with its
    isolating interval refined until it lies strictly right of 1."""
    roots = isolate_real_roots(p)
    root = roots[-1]
    while root.lo <= 1:
        root = root.refined((root.hi - root.lo) / 2)
    return root


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
    if not p.is_monic:
        raise NotMonicError(f"({p}) is not monic")
    factors, rem = peel_cyclotomic(p)
    cyc = tuple(factors)
    if rem.degree == 0:
        return SalemClassification(ALL_CYCLOTOMIC, cyc, rem, None)
    check = _certify(rem)
    if check:
        return SalemClassification(SALEM_STRUCTURE, cyc, rem, check.root)
    return SalemClassification(NOT_SPECTRALLY_VALID, cyc, rem, None, check.reason)
