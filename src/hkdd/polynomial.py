"""Exact integer polynomials, Sturm sequences, and certified real roots.

Coefficients are arbitrary-precision ints, constant term first. Root
counting and isolation use rational (Fraction) Sturm sequences; refinement
of an isolating interval is integer-only sign bisection. Decimal output is
produced from certified isolating intervals, never from floats.
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
    dq = q.degree
    if p.degree < dq:
        raise NotDivisibleError("dividend degree is below divisor degree")
    rem = list(p.coeffs)
    qc = q.coeffs
    lead = qc[-1]
    quot = [0] * (p.degree - dq + 1)
    for i in range(len(quot) - 1, -1, -1):
        f, r = divmod(rem[i + dq], lead)
        if r:
            raise NotDivisibleError("quotient has a non-integer coefficient")
        quot[i] = f
        if f:
            for j in range(dq):
                rem[i + j] -= f * qc[j]
    if any(rem[:dq]):
        raise NotDivisibleError("nonzero remainder")
    return IntPolynomial(tuple(quot))


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
    t_prev, t_cur = poly(2), poly(0, 1)  # x^0 + x^0 = 2, x + 1/x = y
    q = p.coeffs[d] * ONE_POLY
    for k in range(1, d + 1):
        q = q + p.coeffs[d + k] * t_cur
        t_prev, t_cur = t_cur, poly(0, 1) * t_cur - t_prev
    return q


# ---------------------------------------------------------------------------
# rational-coefficient helpers (Sturm machinery)
# ---------------------------------------------------------------------------

FPoly = tuple[Fraction, ...]


def _fp_normalize(c: list[Fraction]) -> FPoly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_from_int(p: IntPolynomial) -> FPoly:
    return tuple(Fraction(c) for c in p.coeffs)


def _fp_eval(c: FPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _fp_deriv(c: FPoly) -> FPoly:
    return tuple(i * a for i, a in enumerate(c) if i > 0)


def _fp_rem(a: FPoly, b: FPoly) -> FPoly:
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        f = r[-1] / lead
        shift = len(r) - 1 - db
        for j, bc in enumerate(b):
            r[shift + j] -= f * bc
        r.pop()
    return _fp_normalize(r)


def _fp_gcd(a: FPoly, b: FPoly) -> FPoly:
    while b:
        a, b = b, _fp_rem(a, b)
    if a:
        lead = a[-1]
        a = tuple(x / lead for x in a)
    return a


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), made primitive with positive leading coefficient."""
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if p.degree == 0:
        return ONE_POLY
    g = _fp_gcd(_fp_from_int(p), _fp_deriv(_fp_from_int(p)))
    if len(g) == 1:
        q = [Fraction(c) for c in p.coeffs]
    else:
        q = list(_fp_from_int(p))
        # exact long division by the monic gcd
        out = [Fraction(0)] * (len(q) - len(g) + 1)
        for i in range(len(out) - 1, -1, -1):
            f = q[i + len(g) - 1]
            out[i] = f
            if f:
                for j, bc in enumerate(g):
                    q[i + j] -= f * bc
        q = out
    denom_lcm = 1
    for c in q:
        denom_lcm = lcm(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in q]
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    if content > 1:
        ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(tuple(ints))


@functools.lru_cache(maxsize=None)
def _sturm_chain(coeffs: tuple[int, ...]) -> tuple[FPoly, ...]:
    """Sturm sequence of the (already square-free) polynomial with these coeffs."""
    f = tuple(Fraction(c) for c in coeffs)
    chain = [f, _fp_deriv(f)]
    while chain[-1]:
        nxt = tuple(-c for c in _fp_rem(chain[-2], chain[-1]))
        if not nxt:
            break
        chain.append(nxt)
    return tuple(c for c in chain if c)


def _sign_at(weights: list[int], n: int, k: int) -> int:
    """Sign of p(n / (D * 2^k)) for D > 0, given w_i = c_i * D^(d-i): the
    sign of sum w_i n^i 2^(k(d-i)), by homogeneous Horner over int."""
    acc, shift = 0, 0
    for w in reversed(weights):
        acc = acc * n + (w << shift)
        shift += k
    return (acc > 0) - (acc < 0)


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations_at(chain: tuple[FPoly, ...], x: Fraction | None, side: int) -> int:
    """Sign variations at x; x=None means -infinity (side<0) or +infinity."""
    if x is None:
        signs = [
            _sign(c[-1]) * ((-1) ** (len(c) - 1) if side < 0 else 1) for c in chain
        ]
    else:
        signs = [_sign(_fp_eval(c, x)) for c in chain]
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
    """All real roots of p lie in (-B, B] for this B."""
    if p.is_zero or p.degree < 1:
        return Fraction(1)
    lead = abs(p.coeffs[-1])
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


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

    def _chain(self):
        return _sturm_chain(self.poly.coeffs)

    def _count(self, lo: Fraction, hi: Fraction) -> int:
        chain = self._chain()
        return _variations_at(chain, lo, -1) - _variations_at(chain, hi, +1)

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
        d = len(coeffs) - 1
        # after k steps the endpoints are over den * 2^k
        weights = [c * den ** (d - i) for i, c in enumerate(coeffs)]
        square_free = len(self._chain()[-1]) == 1
        s_lo = _sign_at(weights, a, 0)
        k = 0
        while True:
            m, a, b, k = a + b, 2 * a, 2 * b, k + 1
            if square_free and s_lo:
                left = _sign_at(weights, m, k) != s_lo
            else:
                left = self._count(Fraction(a, den << k), Fraction(m, den << k)) == 1
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

    def approx(self, eps: Rational) -> Fraction:
        """Rational approximation within eps of the root."""
        r = self.refined(Fraction(eps) * 2)
        return (r.lo + r.hi) / 2

    def _nonzero_interval(self) -> AlgebraicReal:
        """Refine until zero is strictly outside [lo, hi] (requires root != 0)."""
        a = self
        while a.lo <= 0 <= a.hi:
            a = a.refined((a.hi - a.lo) / 2)
        return a

    def is_zero_root(self) -> bool:
        return self.poly(0) == 0 and self.lo < 0 <= self.hi

    def decimal_str(self, sig_digits: int = 12) -> str:
        """Decimal rendering with sig_digits significant digits, certified by
        refining the isolating interval first."""
        if self.is_zero_root():
            return "0"
        a = self._nonzero_interval()
        scale = min(abs(a.lo), abs(a.hi))
        a = a.refined(scale * Fraction(1, 10 ** (sig_digits + 2)))
        mid = (a.lo + a.hi) / 2
        return format_fraction(mid, sig_digits)

    def __float__(self) -> float:
        if self.is_zero_root():
            return 0.0
        a = self._nonzero_interval()
        scale = min(abs(a.lo), abs(a.hi))
        a = a.refined(scale * Fraction(1, 10**18))
        return float((a.lo + a.hi) / 2)

    def compare_to(self, other: AlgebraicReal) -> int:
        """Exact three-way comparison: -1, 0, or 1."""
        a, b = self, other
        while True:
            if a.hi <= b.lo:
                return -1
            if b.hi <= a.lo:
                return 1
            g = _fp_gcd(_fp_from_int(a.poly), _fp_from_int(b.poly))
            if len(g) > 1:
                ilo, ihi = max(a.lo, b.lo), min(a.hi, b.hi)
                if ilo < ihi:
                    gint = _clear_denominators(g)
                    if sturm_count(gint, ilo, ihi) >= 1:
                        return 0
            a = a.refined((a.hi - a.lo) / 2)
            b = b.refined((b.hi - b.lo) / 2)

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
        """Sign of (root - x), exactly."""
        x = Fraction(x)
        a = self
        while True:
            if x >= a.hi:
                if x == a.hi and a.poly(x) == 0:
                    return 0
                return -1
            if x <= a.lo:
                return 1
            if a.poly(x) == 0:
                # lo < x < hi and x is a root: the unique root here is x
                return 0
            a = a.refined((a.hi - a.lo) / 2)

    def exact_str(self) -> str:
        """Closed form for degree <= 2, positional description otherwise."""
        return _exact_root_str(self)

    def to_json(self, sig_digits: int = 12) -> dict:
        return {
            "poly": list(self.poly.coeffs),
            "lo": f"{self.lo.numerator}/{self.lo.denominator}",
            "hi": f"{self.hi.numerator}/{self.hi.denominator}",
            "decimal": self.decimal_str(sig_digits),
        }

    @staticmethod
    def from_json(obj: dict) -> AlgebraicReal:
        return AlgebraicReal(
            IntPolynomial(tuple(obj["poly"])),
            Fraction(obj["lo"]),
            Fraction(obj["hi"]),
        )

    def __repr__(self) -> str:
        return f"AlgebraicReal({self.exact_str()})"


def _clear_denominators(c: FPoly) -> IntPolynomial:
    denom_lcm = 1
    for x in c:
        denom_lcm = lcm(denom_lcm, x.denominator)
    return IntPolynomial(tuple(int(x * denom_lcm) for x in c))


def format_fraction(fr: Fraction, sig_digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = sig_digits
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return str(d)


def isolate_real_roots(p: IntPolynomial) -> list[AlgebraicReal]:
    """Disjoint isolating intervals for every distinct real root, ascending."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    q = square_free_part(p)
    if q.degree < 1:
        return []
    chain = _sturm_chain(q.coeffs)
    bound = cauchy_bound(q)
    lo, hi = -bound, bound

    def var(x: Fraction) -> int:
        return _variations_at(chain, x, 0)

    roots: list[tuple[Fraction, Fraction]] = []
    work = [(lo, hi, var(lo), var(hi))]
    while work:
        a, b, va, vb = work.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            roots.append((a, b))
            continue
        mid = (a + b) / 2
        vm = var(mid)
        work.append((a, mid, va, vm))
        work.append((mid, b, vm, vb))
    roots.sort()
    return [AlgebraicReal(q, a, b) for a, b in roots]


def square_part(n: int) -> tuple[int, int]:
    """Decompose n > 0 as s^2 * d with d square-free; returns (s, d)."""
    if n <= 0:
        raise ValueError("square_part needs a positive integer")
    s, d = 1, 1
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    d *= m
    return s, d


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
    """Write a degree-2 algebraic real as A + B*sqrt(D) with D > 1 square-free.

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
    r = a
    while r.lo < vertex < r.hi:
        r = r.refined((r.hi - r.lo) / 2)
    plus_branch = r.lo >= vertex
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

