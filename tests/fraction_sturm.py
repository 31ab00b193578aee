"""Reference Sturm machinery over Fraction, kept as a test oracle.

This is the rational remainder sequence the package used before its Sturm
chains, square-free parts and root isolation moved to integer pseudo-
remainders. The integer code must give the same root counts, the same
square-free parts and the same isolating intervals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from hkdd.polynomial import IntPolynomial

FPoly = tuple[Fraction, ...]


def _normalize(c: list[Fraction]) -> FPoly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _from_int(p: IntPolynomial) -> FPoly:
    return tuple(Fraction(c) for c in p.coeffs)


def _eval(c: FPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _deriv(c: FPoly) -> FPoly:
    return tuple(i * a for i, a in enumerate(c) if i > 0)


def _rem(a: FPoly, b: FPoly) -> FPoly:
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
    return _normalize(r)


def fraction_gcd(a: FPoly, b: FPoly) -> FPoly:
    """Monic gcd over Q."""
    while b:
        a, b = b, _rem(a, b)
    if a:
        lead = a[-1]
        a = tuple(x / lead for x in a)
    return a


def fraction_square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p') over Q, made primitive with positive leading coefficient."""
    if p.degree == 0:
        return IntPolynomial((1,))
    g = fraction_gcd(_from_int(p), _deriv(_from_int(p)))
    q = list(_from_int(p))
    if len(g) > 1:
        out = [Fraction(0)] * (len(q) - len(g) + 1)
        for i in range(len(out) - 1, -1, -1):
            f = q[i + len(g) - 1]
            out[i] = f
            if f:
                for j, bc in enumerate(g):
                    q[i + j] -= f * bc
        q = out
    denom = lcm(*(c.denominator for c in q))
    ints = [int(c * denom) for c in q]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(tuple(ints))


def fraction_sturm_chain(coeffs: tuple[int, ...]) -> tuple[FPoly, ...]:
    f = tuple(Fraction(c) for c in coeffs)
    chain = [f, _deriv(f)]
    while chain[-1]:
        nxt = tuple(-c for c in _rem(chain[-2], chain[-1]))
        if not nxt:
            break
        chain.append(nxt)
    return tuple(c for c in chain if c)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations_at(chain, x, side: int) -> int:
    if x is None:
        signs = [_sign(c[-1]) * ((-1) ** (len(c) - 1) if side < 0 else 1) for c in chain]
    else:
        signs = [_sign(_eval(c, x)) for c in chain]
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def fraction_sturm_count(p: IntPolynomial, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi]; None endpoints are infinite."""
    q = fraction_square_free_part(p)
    if q.degree < 1:
        return 0
    chain = fraction_sturm_chain(q.coeffs)
    vlo = _variations_at(chain, None if lo is None else Fraction(lo), -1)
    vhi = _variations_at(chain, None if hi is None else Fraction(hi), +1)
    return max(0, vlo - vhi)


def fraction_isolate(p: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi] of the distinct real roots, by bisection
    of (-B, B] at midpoints, B the Cauchy bound of the square-free part."""
    q = fraction_square_free_part(p)
    if q.degree < 1:
        return []
    chain = fraction_sturm_chain(q.coeffs)
    lead = abs(q.coeffs[-1])
    bound = 1 + max(Fraction(abs(c), lead) for c in q.coeffs[:-1])

    def var(x):
        return _variations_at(chain, x, 0)

    roots = []
    work = [(-bound, bound, var(-bound), var(bound))]
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
    return sorted(roots)
