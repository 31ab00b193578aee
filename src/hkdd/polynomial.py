"""Exact integer polynomials, Sturm sequences, and certified real roots.

Coefficients are arbitrary-precision ints, constant term first. Sturm
sequences, square-free parts and gcds are integer pseudo-remainder
sequences with the content divided out; each term is a positive multiple
of its rational counterpart, so every sign and root count is the rational
one. Signs at rational points come from homogeneous Horner over int, and
isolation and refinement bisect at the same midpoints as over Q. Only the
interval endpoints are Fractions. Decimal output is produced from
certified isolating intervals, never from floats: rounded_decimal gives
the correctly rounded (half-even) decimal that both ends of an interval
agree on, and every value printed as a decimal comes from it; format_fraction
writes only the exact endpoints in a root's positional description.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import linalg
from .errors import (
    NonSquareError,
    NotDivisibleError,
    NotPalindromicError,
    OddDegreeError,
    ZeroPolynomialError,
)

Rational = Fraction | int


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Rational) -> Rational:
        acc: Rational = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-x for x in self.coeffs))

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(tuple(other * x for x in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> IntPolynomial:
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" {sign} {term}")
        return "".join(parts)


def poly(*coeffs: int) -> IntPolynomial:
    """Shorthand constructor, constant term first: poly(1, -34, 1)."""
    return IntPolynomial(tuple(coeffs))


X = poly(0, 1)
ONE_POLY = poly(1)


def char_poly(m: list[list[int]]) -> IntPolynomial:
    """det(xI - m) from the power traces t_k = tr(m^k) by Newton's identities.

    With c_0 = 1 for the leading coefficient and c_k for that of x^(n-k),
    Newton's identities give k*c_k = -(t_k c_0 + ... + t_1 c_(k-1)), exactly
    divisible over Z.
    """
    if not m or not linalg.is_square(m):
        raise NonSquareError("characteristic polynomial needs a square matrix")
    return IntPolynomial(tuple(reversed(_newton(power_traces(m, len(m))))))


def power_traces(m: list[list[int]], count: int) -> list[int]:
    """t_k = tr(m^k) for k = 1..count.

    The powers m^1..m^h, h = ceil(count/2), are full products; every t_k
    with k > h is a trace-only product tr(m^a m^b), a + b = k, which costs
    n^2 multiplications.
    """
    half = (count + 1) // 2
    powers = [m]
    for _ in range(1, half):
        powers.append(linalg.mat_mul(powers[-1], m))
    traces = [sum(p[i][i] for i in range(len(m))) for p in powers]
    for k in range(half + 1, count + 1):
        traces.append(linalg.trace_of_product(powers[half - 1], powers[k - half - 1]))
    return traces


def reciprocal_char_poly(n: int, traces: list[int], sign: int) -> IntPolynomial:
    """The characteristic polynomial p of an n x n matrix with
    x^n p(1/x) = sign * p(x), from t_1..t_(n//2) alone.

    An isometry M of a nondegenerate form G has M^-1 = G^-1 M^T G, whose
    characteristic polynomial is that of M, so its p satisfies this with
    sign = (-1)^n det M. Newton's
    identities give c_0..c_(n//2) as in char_poly, and c_k = sign*c_(n-k)
    gives the rest.
    """
    half = n // 2
    c = _newton(traces[:half])
    c += [sign * c[n - k] for k in range(half + 1, n + 1)]
    return IntPolynomial(tuple(reversed(c)))


def _newton(traces: list[int]) -> list[int]:
    """c_0 = 1, c_1, ..., c_len(traces) from the power traces t_1, t_2, ..."""
    c = [1]
    for k in range(1, len(traces) + 1):
        total = sum(traces[i] * c[k - 1 - i] for i in range(k))
        if total % k != 0:
            raise ArithmeticError("Newton identity division failed")
        c.append(-total // k)
    return c


def is_reciprocal(p: IntPolynomial) -> bool:
    """True iff x^deg * p(1/x) equals p or -p."""
    if p.is_zero:
        raise ZeroPolynomialError("reciprocality undefined for the zero polynomial")
    rev = tuple(reversed(p.coeffs))
    return rev == p.coeffs or rev == tuple(-c for c in p.coeffs)


def is_palindromic(p: IntPolynomial) -> bool:
    if p.is_zero:
        return False
    return tuple(reversed(p.coeffs)) == p.coeffs


def divide_exact(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Quotient r with p = q * r over Z; raises NotDivisibleError otherwise."""
    if q.is_zero:
        raise ZeroPolynomialError("division by the zero polynomial")
    if p.is_zero:
        return IntPolynomial(())
    quot = _quotient(p.coeffs, q.coeffs)
    if quot is None:
        raise NotDivisibleError("no quotient over Z")
    return IntPolynomial(quot)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return poly(-1, 1)
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            num = divide_exact(num, cyclotomic(d))
    return num


def trace_polynomial(p: IntPolynomial) -> IntPolynomial:
    """The q of degree d with p(x) = x^d q(x + 1/x), for palindromic p of degree 2d.

    Uses the Chebyshev-like recurrence expressing x^k + x^(-k) in y = x + 1/x.
    """
    if p.is_zero:
        raise ZeroPolynomialError("trace polynomial of the zero polynomial")
    if p.degree % 2 != 0:
        raise OddDegreeError(f"degree {p.degree} is odd")
    if not is_palindromic(p):
        raise NotPalindromicError(f"({p}) is not palindromic")
    d = p.degree // 2
    q = [p.coeffs[d]] + [0] * d
    t_prev, t_cur = [2], [0, 1]  # x^0 + x^0 = 2, x + 1/x = y
    for k in range(1, d + 1):
        c = p.coeffs[d + k]
        for i, t in enumerate(t_cur):
            q[i] += c * t
        t_next = [0] + t_cur
        for i, t in enumerate(t_prev):
            t_next[i] -= t
        t_prev, t_cur = t_cur, t_next
    return IntPolynomial(tuple(q))


# ---------------------------------------------------------------------------
# integer remainder sequences (Sturm machinery)
# ---------------------------------------------------------------------------

Coeffs = tuple[int, ...]


def _primitive(c: list[int] | Coeffs) -> Coeffs:
    """c divided by its (positive) content."""
    g = gcd(*c)
    return tuple(x // g for x in c) if g > 1 else tuple(c)


def _pseudo_remainder(a: Coeffs, b: Coeffs) -> list[int]:
    """A positive multiple of the remainder of a by b over Q.

    Each step scales the running remainder by |lc(b)| / gcd(lead, lc(b))
    before cancelling its leading term, so the result is the rational
    remainder times a positive integer and has its sign at every point.
    """
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    mag, sgn = abs(lead), (lead > 0) - (lead < 0)
    body = b[:-1]
    while len(r) > db:
        top = r.pop()
        if top:
            g = gcd(top, mag)
            if g != mag:
                scale = mag // g
                r = [scale * x for x in r]
            f = sgn * (top // g)
            shift = len(r) - db
            r[shift:] = [x - f * c for x, c in zip(r[shift:], body)]
    while r and r[-1] == 0:
        r.pop()
    return r


def _remainder_sequence(a: Coeffs, b: Coeffs) -> list[Coeffs]:
    """a, b, -rem(a, b), ... over Z, for deg a >= deg b and b nonzero.

    Each term after a is the rational term divided by a positive number,
    so every sign, and every sign variation count, is that of the rational
    sequence. The last term is a primitive gcd(a, b).
    """
    seq = [a, _primitive(b)]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive([-x for x in r]))
    return seq


@functools.lru_cache(maxsize=None)
def _sturm_chain(coeffs: Coeffs) -> tuple[Coeffs, ...]:
    """Sturm sequence p, p', -rem(p, p'), ... of the polynomial with these
    coeffs (see _remainder_sequence); the last term is gcd(p, p')."""
    derivative = tuple(i * c for i, c in enumerate(coeffs) if i > 0)
    return tuple(_remainder_sequence(coeffs, derivative)) if derivative else (coeffs,)


def _quotient(p: Coeffs, q: Coeffs) -> Coeffs | None:
    """The r with p = q * r over Z, or None when there is none."""
    dq = len(q) - 1
    if len(p) <= dq:
        return None
    rem = list(p)
    lead = q[-1]
    quot = [0] * (len(p) - dq)
    for i in range(len(quot) - 1, -1, -1):
        f, r = divmod(rem[i + dq], lead)
        if r:
            return None
        quot[i] = f
        if f:
            for j in range(dq):
                rem[i + j] -= f * q[j]
    if any(rem[:dq]):
        return None
    return tuple(quot)


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), made primitive with positive leading coefficient."""
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if p.degree == 0:
        return ONE_POLY
    g = _sturm_chain(p.coeffs)[-1]
    q = _primitive(p.coeffs if len(g) == 1 else _quotient(p.coeffs, g))
    return IntPolynomial(q if q[-1] > 0 else tuple(-c for c in q))


def _weights(coeffs: Coeffs, den: int) -> list[int]:
    """w_i = c_i * den^(d-i), the input of _sign_at."""
    out, scale = [], 1
    for c in reversed(coeffs):
        out.append(c * scale)
        scale *= den
    out.reverse()
    return out


def _sign_at(weights: list[int], n: int, k: int) -> int:
    """Sign of p(n / (D * 2^k)) for D > 0, given w_i = c_i * D^(d-i): the
    sign of sum w_i n^i 2^(k(d-i)), by homogeneous Horner over int."""
    acc, shift = 0, 0
    for w in reversed(weights):
        acc = acc * n + (w << shift)
        shift += k
    return (acc > 0) - (acc < 0)


def _sign_of(coeffs: Coeffs, x: Rational) -> int:
    """Sign of the polynomial with these coeffs at the rational x."""
    return _sign_at(_weights(coeffs, x.denominator), x.numerator, 0)


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _chain_variations(weighted: list[list[int]], n: int, k: int) -> int:
    """Sign variations of a chain at n / (D * 2^k), given each term's weights for D."""
    return _variations([_sign_at(w, n, k) for w in weighted])


def _variations_at(chain: tuple[Coeffs, ...], x: Rational | None, side: int) -> int:
    """Sign variations at x; x=None means -infinity (side<0) or +infinity."""
    if x is None:
        signs = [(1 if c[-1] > 0 else -1) * (-1 if side < 0 and len(c) % 2 == 0 else 1) for c in chain]
    else:
        signs = [_sign_of(c, x) for c in chain]
    return _variations(signs)


def sturm_count(
    p: IntPolynomial,
    lo: Rational | None,
    hi: Rational | None,
) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    None endpoints mean -infinity / +infinity. The square-free part is taken
    internally, so multiple roots are counted once.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    q = square_free_part(p)
    if q.degree < 1:
        return 0
    chain = _sturm_chain(q.coeffs)
    vlo = _variations_at(chain, None if lo is None else Fraction(lo), -1)
    vhi = _variations_at(chain, None if hi is None else Fraction(hi), +1)
    return max(0, vlo - vhi)


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """All real roots of p lie in (-B, B] for this B = 1 + max |c_i / c_d|."""
    if p.is_zero or p.degree < 1:
        return Fraction(1)
    lead = abs(p.coeffs[-1])
    return Fraction(lead + max(abs(c) for c in p.coeffs[:-1]), lead)


# ---------------------------------------------------------------------------
# real algebraic numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlgebraicReal:
    """A real algebraic number: square-free defining polynomial plus an
    isolating half-open interval (lo, hi] containing exactly one of its roots.

    Instances are immutable; refinement returns a new value with a nested
    interval. Ordering comparisons are exact (interval refinement plus a gcd
    test for shared roots), so `sorted` never misorders close roots.
    """

    poly: IntPolynomial
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError("isolating interval must satisfy lo < hi")

    def bisection_path(self):
        """Yield the isolating interval as integers (a, b, den), lo = a/den
        and hi = b/den, first as it is and then after each bisection step.

        A step keeps (lo, mid] when p(mid) is 0 or its sign differs from the
        sign of p(lo), otherwise (mid, hi]. For a square-free p whose
        interval holds one root, that is the half the Sturm count picks.
        While p(lo) = 0 (a neighbouring root sits on the open end) or p is
        not square-free, the sign says nothing and the step counts Sturm
        sign variations instead.
        """
        lo, hi = self.lo, self.hi
        den = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (den // lo.denominator)
        b = hi.numerator * (den // hi.denominator)
        yield a, b, den
        coeffs = self.poly.coeffs
        # after k steps the endpoints are over den * 2^k
        chain = _sturm_chain(coeffs)
        weights = _weights(coeffs, den)
        weighted = None  # the whole chain's weights, made when first needed
        square_free = len(chain[-1]) == 1
        s_lo = _sign_at(weights, a, 0)
        k = 0
        while True:
            m, a, b, k = a + b, 2 * a, 2 * b, k + 1
            if square_free and s_lo:
                left = _sign_at(weights, m, k) != s_lo
            else:
                weighted = weighted or [_weights(c, den) for c in chain]
                left = _chain_variations(weighted, a, k) - _chain_variations(weighted, m, k) == 1
            if left:
                b = m
            else:
                a = m
                if not s_lo:
                    s_lo = _sign_at(weights, a, k)
            yield a, b, den << k

    def refined(self, eps: Rational) -> AlgebraicReal:
        """Shrink the isolating interval to width < eps by bisection."""
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        for a, b, den in self.bisection_path():
            if (b - a) * eps.denominator < eps.numerator * den:
                return AlgebraicReal(self.poly, Fraction(a, den), Fraction(b, den))

    def decimal_str(self, sig_digits: int = 12) -> str:
        """The root correctly rounded (half-even) to sig_digits digits.

        The walk of bisection_path asks rounded_decimal once the interval,
        on the root's side of zero, is narrower than 10^-(sig_digits+2) of
        its end nearer zero. When the ends round to adjacent strings, the
        boundary between them is tested: a root of the polynomial there is
        the value. Any other value lies off the boundary, so the walk ends.
        """
        if self.poly(0) == 0 and self.lo < 0 <= self.hi:
            return "0"
        scale = 10 ** (sig_digits + 2)
        for a, b, den in self.bisection_path():
            sign, lo, hi = (1, a, b) if a > 0 else (-1, -b, -a)
            if (hi - lo) * scale >= lo:
                continue
            text = rounded_decimal(lo, hi, den, sig_digits)
            if text is None:
                text = _boundary_decimal(self.poly.coeffs, sign, lo, hi, den, sig_digits)
            if text is not None:
                return text if sign > 0 else "-" + text

    def __float__(self) -> float:
        return float(self.decimal_str(17))

    def compare_to(self, other: AlgebraicReal) -> int:
        """Exact three-way comparison: -1, 0, or 1.

        Both intervals are bisected in step until they are disjoint, or
        until their overlap holds a root of gcd(p, q), which is then the
        one root of p in the first interval and of q in the second.
        """
        common = None
        for (a, b, da), (c, d, dc) in zip(self.bisection_path(), other.bisection_path()):
            if b * dc <= c * da:
                return -1
            if d * da <= a * dc:
                return 1
            if common is None:
                pair = sorted((self.poly.coeffs, other.poly.coeffs), key=len, reverse=True)
                common = IntPolynomial(_remainder_sequence(*pair)[-1])
            if common.degree >= 1:
                ilo = max(Fraction(a, da), Fraction(c, dc))
                ihi = min(Fraction(b, da), Fraction(d, dc))
                if ilo < ihi and sturm_count(common, ilo, ihi) >= 1:
                    return 0

    def equals(self, other: AlgebraicReal) -> bool:
        return self.compare_to(other) == 0

    def __lt__(self, other):
        return self.compare_to(other) < 0

    def __le__(self, other):
        return self.compare_to(other) <= 0

    def __gt__(self, other):
        return self.compare_to(other) > 0

    def __ge__(self, other):
        return self.compare_to(other) >= 0

    def compare_rational(self, x: Rational) -> int:
        """Sign of (root - x), exactly: 0 when lo < x <= hi and p(x) = 0, as
        the one root in (lo, hi] is then x; otherwise one walk of
        bisection_path until x leaves the interval."""
        x = Fraction(x)
        if self.lo < x <= self.hi and _sign_of(self.poly.coeffs, x) == 0:
            return 0
        n, d = x.numerator, x.denominator
        for a, b, den in self.bisection_path():
            if n * den >= b * d:
                return -1
            if n * den <= a * d:
                return 1

    def exact_str(self) -> str:
        """Closed form for degree <= 2, positional description otherwise."""
        return _exact_root_str(self)

    def to_json(self, sig_digits: int = 12, decimal: str | None = None) -> dict:
        """decimal, when given, is this root's decimal_str(sig_digits)."""
        return {
            "poly": list(self.poly.coeffs),
            "lo": f"{self.lo.numerator}/{self.lo.denominator}",
            "hi": f"{self.hi.numerator}/{self.hi.denominator}",
            "decimal": decimal or self.decimal_str(sig_digits),
        }

    def __repr__(self) -> str:
        return f"AlgebraicReal({self.exact_str()})"


def format_fraction(fr: Fraction, sig_digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = sig_digits
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return str(d)


# log10(2) * 2^31, for the decimal exponent of a ratio from bit lengths
LOG10_2_Q31 = 646456993


def _scaled_floor(n: int, den: int, sig_digits: int) -> tuple[int, int, int]:
    """(q, s, h) for n/den > 0: q = floor(n/den * 10^s) has sig_digits
    digits, and h is the sign of n/den * 10^s - q - 1/2. The bit-length
    estimate of s is off by at most one, so this takes one divmod or two."""
    top = 10**sig_digits
    s = sig_digits - 1 - ((n.bit_length() - den.bit_length()) * LOG10_2_Q31 >> 31)
    while True:
        num, d = (n * 10**s, den) if s >= 0 else (n, den * 10**-s)
        q, r = divmod(num, d)
        if q >= top:
            s -= 1
        elif 10 * q < top:
            s += 1
        else:
            return q, s, (2 * r > d) - (2 * r < d)


def _half_even(n: int, den: int, sig_digits: int) -> tuple[int, int]:
    """The digits q and scale s of n/den rounded half-even, q * 10^-s."""
    q, s, h = _scaled_floor(n, den, sig_digits)
    if h > 0 or (h == 0 and q & 1):
        q += 1
        if q == 10**sig_digits:
            return q // 10, s - 1
    return q, s


def rounded_decimal(a: int, b: int, den: int, sig_digits: int) -> str | None:
    """The half-even, sig_digits-significant decimal that every x in
    [a/den, b/den] rounds to, for 0 < a <= b, as str(Decimal) writes it
    (47.0, 8.20613852651E+504); None when the two ends round differently
    (Ziv's test). Rounding is monotone, so agreeing ends decide all between.
    """
    q, s = _half_even(a, den, sig_digits)
    if _half_even(b, den, sig_digits) != (q, s):
        return None
    return str(Decimal(f"{q}E{-s}"))


def _boundary_decimal(
    coeffs: Coeffs, sign: int, lo: int, hi: int, den: int, sig_digits: int
) -> str | None:
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


def isolate_real_roots(p: IntPolynomial) -> list[AlgebraicReal]:
    """Disjoint isolating intervals for every distinct real root, ascending.

    (-B, B], B = N/D the Cauchy bound, is bisected at midpoints until each
    interval holds one root. At depth k every endpoint is n / (D * 2^k) for
    an integer n, so the Sturm signs come from _sign_at on the chain's
    weights for D.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    q = square_free_part(p)
    if q.degree < 1:
        return []
    bound = cauchy_bound(q)
    den = bound.denominator
    weighted = [_weights(c, den) for c in _sturm_chain(q.coeffs)]
    lo, hi = -bound.numerator, bound.numerator
    roots: list[tuple[Fraction, Fraction]] = []
    work = [(lo, hi, 0, _chain_variations(weighted, lo, 0), _chain_variations(weighted, hi, 0))]
    while work:
        a, b, k, va, vb = work.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            roots.append((Fraction(a, den << k), Fraction(b, den << k)))
            continue
        m, a, b, k = a + b, 2 * a, 2 * b, k + 1
        vm = _chain_variations(weighted, m, k)
        work.append((a, m, k, va, vm))
        work.append((m, b, k, vm, vb))
    roots.sort()
    return [AlgebraicReal(q, a, b) for a, b in roots]


# square_part trial-divides by the integers below this bound only
SQUARE_PART_LIMIT = 10**4


def square_part(n: int) -> tuple[int, int]:
    """Decompose n > 0 as s^2 * d; returns (s, d).

    Trial division by f < SQUARE_PART_LIMIT finds the small primes; a
    cofactor left over moves into s when it is a perfect square and into d
    otherwise. So n = s^2 * d always holds, and d is square-free up to the
    limit: a prime above it can divide d twice only if the cofactor is not
    itself a square. A cofactor below the limit squared is 1 or a prime.
    """
    if n <= 0:
        raise ValueError("square_part needs a positive integer")
    s, d = 1, 1
    m = n
    f = 2
    while f * f <= m and f < SQUARE_PART_LIMIT:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    root = isqrt(m)
    if root * root == m:
        return s * root, d
    return s, d * m


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def quadratic_surd_str(a: Fraction, b: Fraction, d: int) -> str:
    """Render a + b*sqrt(d) with a common denominator, e.g. (7+3*sqrt(5))/2."""
    denom = lcm(a.denominator, b.denominator)
    p = int(a * denom)
    q = int(b * denom)
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
    plus_branch = a.compare_rational(vertex) > 0
    if c2 < 0:
        plus_branch = not plus_branch
    coef = Fraction(s, 2 * c2) if plus_branch else Fraction(-s, 2 * c2)
    return vertex, coef, d


def _exact_root_str(a: AlgebraicReal) -> str:
    p = a.poly
    if p.degree == 1:
        return str(Fraction(-p.coeffs[0], p.coeffs[1]))
    parts = quadratic_surd_parts(a)
    if parts is not None:
        return quadratic_surd_str(*parts)
    idx = sturm_count(p, None, a.lo) + 1
    lo_s = format_fraction(a.lo, 8)
    hi_s = format_fraction(a.hi, 8)
    return f"root #{idx} of {p} in [{lo_s}, {hi_s}]"

