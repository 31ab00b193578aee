"""Exact integer polynomials, Sturm sequences, and certified real roots.

Coefficients are arbitrary-precision ints, constant term first. Sturm
sequences, square-free parts and gcds are integer pseudo-remainder
sequences with the content divided out; each term is a positive multiple
of its rational counterpart, so every sign and root count is the rational
one. Signs at rational points come from homogeneous Horner over int, and
isolation bisects at the same midpoints as over Q. A root has one walk
from its isolating interval, held as integers (a, b, den): isqrt cells for
a quadratic Salem root, else quadratic interval refinement on the same
grid, which reads only the signs of the square-free part, of which the
root is the one root there. refined, decimals and compare_to, the one
comparison, all walk it.
Decimal output comes from certified isolating intervals, never from
floats: rounded_decimal gives the correctly rounded (half-even) decimal
that both ends of an interval agree on, and every value printed as a
decimal comes from it, through one loop, AlgebraicReal.power_decimals, for
a unit root larger than 1; format_fraction writes only the exact endpoints in
a root's positional description. Both round on integers and write as
str(Decimal) does, through _scientific, without the decimal module. A root
has no exact string of its own: dynamics.exact_power_str, the one exact
renderer, writes the positional form and, through quadratic_surd_str, the
closed forms (p + q*sqrt(d))/2 from plain integers.
"""

from __future__ import annotations

import functools
from math import gcd, isqrt

from . import linalg
from .errors import HkddError


class _Immutable:
    """Base of the value classes here: __init__ sets each slot once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntPolynomial(_Immutable):
    """Dense integer polynomial; coeffs[i] is the coefficient of x^i, as ints
    without trailing zeros. Equal and hashed by coeffs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = tuple(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        """p(x) by Horner's rule, exact for an int or any exact rational x."""
        acc = 0
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


ONE_POLY = poly(1)


def char_poly(m: list[list[int]]) -> IntPolynomial:
    """det(xI - m) from the power traces t_k = tr(m^k) by Newton's identities.

    With c_0 = 1 for the leading coefficient and c_k for that of x^(n-k),
    Newton's identities give k*c_k = -(t_k c_0 + ... + t_1 c_(k-1)), exactly
    divisible over Z.
    """
    if not m or not linalg.is_square(m):
        raise HkddError("characteristic polynomial needs a square matrix")
    return IntPolynomial(tuple(reversed(_newton(power_traces(m, len(m))))))


def power_traces(m: list[list[int]], count: int) -> list[int]:
    """t_k = tr(m^k) for k = 1..count.

    The powers m^1..m^h, h = ceil(count/2), are full products; every t_k
    with k > h is a trace-only product tr(m^a m^b), a + b = k, which costs
    n^2 multiplications.
    """
    half = (count + 1) // 2
    powers = [m] if half else []
    for _ in range(1, half):
        powers.append(linalg.mat_mul(powers[-1], m))
    traces = [sum(p[i][i] for i in range(len(m))) for p in powers]
    for k in range(half + 1, count + 1):
        traces.append(linalg.trace_of_product(powers[half - 1], zip(*powers[k - half - 1])))
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


def is_palindromic(p: IntPolynomial) -> bool:
    if p.is_zero:
        return False
    return tuple(reversed(p.coeffs)) == p.coeffs


def divide_exact(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Quotient r with p = q * r over Z; raises HkddError otherwise."""
    if q.is_zero:
        raise HkddError("division by the zero polynomial")
    if p.is_zero:
        return IntPolynomial(())
    quot = _quotient(p.coeffs, q.coeffs)
    if quot is None:
        raise HkddError("no quotient over Z")
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
        raise HkddError("trace polynomial of the zero polynomial")
    if p.degree % 2 != 0:
        raise HkddError(f"degree {p.degree} is odd")
    if not is_palindromic(p):
        raise HkddError(f"({p}) is not palindromic")
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
        raise HkddError("square-free part of the zero polynomial")
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


def _value_at(weights: list[int], n: int, k: int) -> int:
    """p(n / (D * 2^k)) * (D * 2^k)^d for D > 0, given w_i = c_i * D^(d-i):
    sum w_i n^i 2^(k(d-i)), by homogeneous Horner over int."""
    acc, shift = 0, 0
    for w in reversed(weights):
        acc = acc * n + (w << shift)
        shift += k
    return acc


def _sign_at(weights: list[int], n: int, k: int) -> int:
    """Sign of p(n / (D * 2^k)), the sign of _value_at."""
    acc = _value_at(weights, n, k)
    return (acc > 0) - (acc < 0)


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _chain_variations(weighted: list[list[int]], n: int, k: int) -> int:
    """Sign variations of a chain at n / (D * 2^k), given each term's weights for D."""
    return _variations([_sign_at(w, n, k) for w in weighted])


def _variations_at(chain: tuple[Coeffs, ...], x, side: int) -> int:
    """Sign variations at the rational x; None means -infinity (side<0) or +infinity."""
    if x is None:
        signs = [(1 if c[-1] > 0 else -1) * (-1 if side < 0 and len(c) % 2 == 0 else 1) for c in chain]
    else:
        signs = [_sign_at(_weights(c, x.denominator), x.numerator, 0) for c in chain]
    return _variations(signs)


def sturm_count(p: IntPolynomial, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    lo and hi are rationals, read through .numerator and .denominator (an
    int has both); None means -infinity / +infinity. The square-free part
    is taken internally, so multiple roots are counted once.
    """
    if p.is_zero:
        raise HkddError("root counting needs a nonzero polynomial")
    q = square_free_part(p)
    if q.degree < 1:
        return 0
    chain = _sturm_chain(q.coeffs)
    return max(0, _variations_at(chain, lo, -1) - _variations_at(chain, hi, +1))


def cauchy_bound(p: IntPolynomial) -> tuple[int, int]:
    """(N, D) with N/D = 1 + max |c_i / c_d|: the real roots lie in (-N/D, N/D]."""
    lead = abs(p.coeffs[-1])
    return lead + max(abs(c) for c in p.coeffs[:-1]), lead


# ---------------------------------------------------------------------------
# real algebraic numbers
# ---------------------------------------------------------------------------

SORT_BITS = 64  # compare_to tests for a shared root below width 2^-SORT_BITS


class AlgebraicReal(_Immutable):
    """A real algebraic number: defining polynomial plus an isolating half-open
    interval (a/den, b/den] containing exactly one of its roots, held as
    ints with den > 0 and gcd(a, b, den) = 1; each end on its own, a/den or
    b/den, need not be in lowest terms.

    Instances are immutable; refinement returns a new value with a nested
    interval, from isqrt for a quadratic Salem root. The one ordering, <, is
    exact (compare_to: interval refinement plus a gcd test for shared
    roots), so `sorted` never misorders close roots. Two instances are
    equal only when they are the same object. The one walk of
    quadratic_path an instance keeps changes none of its values.
    """

    __slots__ = ("poly", "a", "b", "den", "_walk")

    def __init__(self, poly: IntPolynomial, a: int, b: int, den: int = 1):
        if den <= 0 or a >= b:
            raise ValueError("isolating interval must satisfy den > 0 and lo < hi")
        g = gcd(a, b, den)
        for name, value in (("poly", poly), ("a", a // g), ("b", b // g), ("den", den // g), ("_walk", [])):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"AlgebraicReal(poly={self.poly!r}, a={self.a!r}, b={self.b!r}, den={self.den!r})"

    def quadratic_path(self):
        """Yield intervals (a, b, den * 2^k), each nested in the one before
        and holding the root, narrowed by isqrt cells or by quadratic
        interval refinement (_quadratic_walk).

        The instance keeps one walk: a call starts from the narrowest
        interval any earlier call reached and carries that walk on. So a
        root that a sort, a decimal and a comparison read in turn, as a
        search report does, is walked once, and no reader sees an interval
        wider than one already found.
        """
        walk = self._walk
        if not walk:
            path = self._quadratic_walk()
            walk += [path, next(path)]
        yield walk[1]
        for interval in walk[0]:
            walk[1] = interval
            yield interval

    def _quadratic_walk(self):
        """Yield the intervals of quadratic_path from the isolating interval
        on. The root (s + sqrt(s^2 - 4))/2 of x^2 - s*x + 1, s > 2, isolated
        above 1 over a power of two, is irrational, so it lies inside the
        cell (t, t + 1] / 2^(w+1), t = s*2^w + isqrt((s^2 - 4) * 4^w), for
        w = max(64, bit length of den), doubled at each step. Other roots
        are narrowed by quadratic interval refinement (Abbott,
        arXiv:1203.1227), with the values of q = square_free_part(p).

        The interval is cut into N = 2^m cells. The secant through q's values
        at both ends picks one, and the exact signs at the cell's two ends
        confirm it: a hit keeps that half-open cell, so a root on its right
        end is in it, and doubles m. A miss halves m, down to 2, and takes
        one bisection step: q changes sign only at the root, so the step
        keeps (mid, hi] when q(hi) = 0 or q(mid) != 0 has the other sign
        than q(hi), else (lo, mid]. Near a simple root the secant hits, so
        the bits gained double with each step. While q(lo) = 0 (a
        neighbouring root on the open end) the secant cannot point, and the
        steps are bisection steps alone.
        """
        a, b, den = self.a, self.b, self.den
        yield a, b, den
        c = self.poly.coeffs
        if len(c) == 3 and c[0] == c[2] == 1 and c[1] < -2 and a >= den and not den & (den - 1):
            w = max(64, den.bit_length())
            while True:
                t = (-c[1] << w) + isqrt((c[1] * c[1] - 4) << 2 * w)
                yield t, t + 1, 2 << w
                w *= 2
        coeffs = square_free_part(self.poly).coeffs
        weights = _weights(coeffs, den)
        degree = len(coeffs) - 1  # a value scales by 2^degree per step of k
        f_lo, f_hi, k, m = _value_at(weights, a, 0), _value_at(weights, b, 0), 0, 2
        while True:
            if f_lo:
                cells, w = 1 << m, b - a
                c = (a << m) + min(cells * f_lo // (f_lo - f_hi), cells - 1) * w
                f_c, f_d = _value_at(weights, c, k + m), _value_at(weights, c + w, k + m)
                if f_c * f_lo > 0 >= f_d * f_lo:
                    a, b, k, m, f_lo, f_hi = c, c + w, k + m, 2 * m, f_c, f_d
                    yield a, b, den << k
                    continue
            mid, a, b, k, m = a + b, 2 * a, 2 * b, k + 1, max(2, m // 2)
            f_mid = _value_at(weights, mid, k)
            if f_hi and f_mid * f_hi >= 0:
                b, f_lo, f_hi = mid, f_lo << degree, f_mid
            else:
                a, f_lo, f_hi = mid, f_mid, f_hi << degree
            yield a, b, den << k

    def refined(self, eps) -> AlgebraicReal:
        """The first interval of a fresh _quadratic_walk narrower than eps, a
        positive rational read through .numerator and .denominator. A fresh
        walk, not the instance's quadratic_path, keeps the result a function
        of the isolating interval and eps alone."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        for a, b, den in self._quadratic_walk():
            if (b - a) * eps.denominator < eps.numerator * den:
                return AlgebraicReal(self.poly, a, b, den)

    def decimal_str(self, sig_digits: int = 12) -> str:
        """The root correctly rounded (half-even) to sig_digits digits, for a
        unit larger than 1, as every d_1 and Salem root is: power_decimals
        up to the exponent 1."""
        return self.power_decimals(1, sig_digits)[1]

    def power_decimals(self, top: int, sig_digits: int) -> tuple[str, ...]:
        """Correctly rounded decimals of x^e for e = 0..top, from the walk of
        quadratic_path.

        Once an interval (lo, hi] of the walk has
        (hi - lo) * 10^(sig_digits + 2) * top < lo, _power_bounds yields
        bounds [L_e, H_e] / 2^W of [lo^e, hi^e], e = 1..top, from fixed-point
        products with W = ceil(3.33 (sig_digits + 2)) + bitlen(top) + 16
        fraction bits to start with. Each e not yet done, in ascending order,
        meets the width gate (H_e - L_e) * 10^(sig_digits + 2) < L_e and then
        rounded_decimal on [L_e, H_e] / 2^W; the first it cannot decide waits
        for a later interval, with the larger ones and W grown by half.

        x must be an algebraic unit larger than 1 (leading coefficient and
        constant term +-1), or ValueError is raised: then x^e for e >= 1 is a
        unit larger than 1, so irrational, and never sits on a rounding
        boundary, which is rational, so the walk ends. An isolating interval
        with lo >= 1 shows x > 1 without a comparison.
        """
        coeffs = self.poly.coeffs
        if abs(coeffs[0]) != 1 or abs(coeffs[-1]) != 1:
            raise ValueError("power decimals need an algebraic unit")
        if self.a < self.den and self.compare_rational(1) <= 0:
            raise ValueError("power decimals need a base larger than 1")
        done = ["1"]  # the decimal of x^e is done[e]
        gate = 10 ** (sig_digits + 2)
        bits = -(-333 * (sig_digits + 2) // 100) + top.bit_length() + 16
        walk = self.quadratic_path()
        while len(done) <= top:
            a, b, den = next(walk)
            if (b - a) * gate * top >= a:
                continue
            for e, (lo_e, hi_e) in zip(range(1, top + 1), _power_bounds(a, b, den, bits)):
                if e < len(done):
                    continue
                if (hi_e - lo_e) * gate >= lo_e:
                    break
                text = rounded_decimal(lo_e, hi_e, 1 << bits, sig_digits)
                if text is None:
                    break
                done.append(text)
            bits += bits // 2
        return tuple(done)

    def compare_to(self, other: AlgebraicReal) -> int:
        """Exact three-way comparison: -1, 0, or 1.

        Each step walks the wider of the two intervals one interval further
        on its quadratic_path, until they are disjoint. Once both are
        narrower than 2^-SORT_BITS, as coincident roots make them, each step
        first asks whether their overlap holds a root of gcd(p, q), which is
        then the one root of p in the first interval and of q in the second.
        The overlap's ends are ints over the product of the two denominators,
        where the Sturm chain of gcd(p, q) counts its roots.
        """
        x, y = self.quadratic_path(), other.quadratic_path()
        (a, b, da), (c, d, dc) = next(x), next(y)
        weighted = None
        while True:
            if b * dc <= c * da:
                return -1
            if d * da <= a * dc:
                return 1
            self_wider = (b - a) * dc >= (d - c) * da
            width, den = (b - a, da) if self_wider else (d - c, dc)
            if width << SORT_BITS < den:
                if weighted is None:
                    pair = sorted((self.poly.coeffs, other.poly.coeffs), key=len, reverse=True)
                    common = square_free_part(IntPolynomial(_remainder_sequence(*pair)[-1]))
                    base = da * dc
                    weighted = [_weights(t, base) for t in _sturm_chain(common.coeffs)]
                # the overlap (max(a/da, c/dc), min(b/da, d/dc)] over da * dc = base * 2^k
                k = (da * dc).bit_length() - base.bit_length()
                lo, hi = max(a * dc, c * da), min(b * dc, d * da)
                if _chain_variations(weighted, lo, k) - _chain_variations(weighted, hi, k) >= 1:
                    return 0
            if self_wider:
                a, b, da = next(x)
            else:
                c, d, dc = next(y)

    def __lt__(self, other):
        return self.compare_to(other) < 0

    def compare_rational(self, n: int, d: int = 1) -> int:
        """Sign of (root - n/d) for ints n and d > 0, exactly: 0 when n/d is
        in (a/den, b/den] and p(n/d) = 0, as the one root there is then n/d;
        otherwise one walk of quadratic_path until n/d leaves the interval."""
        if self.a * d < n * self.den <= self.b * d and _sign_at(_weights(self.poly.coeffs, d), n, 0) == 0:
            return 0
        for a, b, den in self.quadratic_path():
            if n * den >= b * d:
                return -1
            if n * den <= a * d:
                return 1


def format_fraction(n: int, den: int, sig_digits: int) -> str:
    """n/den, den > 0, rounded half-even to sig_digits significant digits
    and written as str(Decimal(n) / Decimal(den)) writes it at that
    precision: an exact quotient drops its trailing zeros down to the units
    digit (1/4 is 0.25, 10/5 is 2)."""
    if n == 0:
        return "0"
    q, s = _half_even(abs(n), den, sig_digits)
    num, d = (q * den, abs(n) * 10**s) if s >= 0 else (q * den * 10**-s, abs(n))
    if num == d:
        while s > 0 and q % 10 == 0:
            q, s = q // 10, s - 1
    return "-" * (n < 0) + _scientific(q, s)


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
    (Ziv's test). Rounding is monotone, so agreeing ends decide all between:
    a rounds to q * 10^-s, and b to the same digits unless it lies above
    the boundary (q + 1/2) * 10^-s, or on it with q odd.
    """
    q, s = _half_even(a, den, sig_digits)
    c = 2 * b * 10**s - (2 * q + 1) * den if s >= 0 else 2 * b - (2 * q + 1) * den * 10**-s
    if c > 0 or (c == 0 and q & 1):
        return None
    return _scientific(q, s)


def _scientific(q: int, s: int) -> str:
    """q * 10^-s, for q > 0, as Decimal's to-scientific-string writes the
    coefficient q and exponent -s: positional when -s <= 0 and the adjusted
    exponent, that of the leading digit, is at least -6, else d.dddE+x."""
    digits = str(q)
    adjusted = len(digits) - 1 - s
    if s >= 0 and adjusted >= -6:
        if s == 0:
            return digits
        if len(digits) > s:
            return f"{digits[:-s]}.{digits[-s:]}"
        return f"0.{digits.zfill(s)}"
    mantissa = f"{digits[0]}.{digits[1:]}" if len(digits) > 1 else digits
    return f"{mantissa}E{adjusted:+d}"


def _power_bounds(a: int, b: int, den: int, bits: int):
    """(L_e, H_e) for e = 1, 2, ... without end, with L_e / 2^bits <=
    (a/den)^e and (b/den)^e <= H_e / 2^bits, for 0 <= a <= b: L_1 and H_1
    are a/den and b/den on the grid 2^-bits rounded outward, and each later
    pair is the one before times (L_1, H_1), shifted right by bits and
    rounded outward. So the e-th pair has bits + e * log2(b/den) bits,
    however long a, b and den are."""
    low, high = (a << bits) // den, -((-b << bits) // den)
    lo_e, hi_e = low, high
    while True:
        yield lo_e, hi_e
        lo_e, hi_e = lo_e * low >> bits, -(-hi_e * high >> bits)


def isolate_real_roots(p: IntPolynomial) -> list[AlgebraicReal]:
    """Disjoint isolating intervals for every distinct real root, ascending.

    (-N/D, N/D], the Cauchy bound, is bisected at midpoints until each
    interval holds one root. At depth k every endpoint is n / (D * 2^k) for
    an integer n, so the Sturm signs come from _sign_at on the chain's
    weights for D. Left halves go first, so the roots come out ascending.
    """
    if p.is_zero:
        raise HkddError("cannot isolate roots of the zero polynomial")
    q = square_free_part(p)
    if q.degree < 1:
        return []
    bound, den = cauchy_bound(q)
    weighted = [_weights(c, den) for c in _sturm_chain(q.coeffs)]
    lo, hi = -bound, bound
    roots = []
    work = [(lo, hi, 0, _chain_variations(weighted, lo, 0), _chain_variations(weighted, hi, 0))]
    while work:
        a, b, k, va, vb = work.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            roots.append(AlgebraicReal(q, a, b, den << k))
            continue
        m, a, b, k = a + b, 2 * a, 2 * b, k + 1
        vm = _chain_variations(weighted, m, k)
        work.append((m, b, k, vm, vb))
        work.append((a, m, k, va, vm))
    return roots


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


# CPython 3.11 converts an int to or from a string of at most this many digits
MAX_DIGITS = 4300
DIGITS_BOUND = 10**MAX_DIGITS


def quadratic_surd_str(p: int, q: int, d: int) -> str:
    """Render (p + q*sqrt(d))/2 for integers p, q > 0, halving both when they
    are even: (7+3*sqrt(5))/2, 17+12*sqrt(2). An integer of the form past
    MAX_DIGITS digits ends in an exit-2 HkddError, before any is written."""
    halved = p % 2 == q % 2 == 0
    if halved:
        p, q = p // 2, q // 2
    if max(p, q, d) >= DIGITS_BOUND:
        raise HkddError(f"exact form has an integer of more than {MAX_DIGITS} digits")
    core = f"{p}+sqrt({d})" if q == 1 else f"{p}+{q}*sqrt({d})"
    return core if halved else f"({core})/2"
