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

from dataclasses import dataclass

from .errors import DegreeTooSmallError, NotMonicError
from .polynomial import (
    AlgebraicReal,
    IntPolynomial,
    NotDivisibleError,
    ONE_POLY,
    cyclotomic,
    divide_exact,
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
    """kind is one of AllCyclotomic / SalemStructure / NotSpectrallyValid."""

    kind: str
    cyclotomic_factors: tuple[tuple[int, int], ...]
    salem_factor: IntPolynomial | None
    salem_root: AlgebraicReal | None

    def to_json(self, sig_digits: int = 12) -> dict:
        return {
            "kind": self.kind,
            "cyclotomic": [[n, m] for n, m in self.cyclotomic_factors],
            "salem_poly": list(self.salem_factor.coeffs) if self.salem_factor else None,
            "salem_root": self.salem_root.to_json(sig_digits) if self.salem_root else None,
        }


def _totients_up_to(bound: int) -> list[int]:
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:  # p prime
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    return phi


def peel_cyclotomic(
    p: IntPolynomial,
) -> tuple[list[tuple[int, int]], IntPolynomial]:
    """Divide out every cyclotomic factor Phi_n with multiplicity.

    Candidates run over n <= 2*deg(p)^2, which covers all n with
    phi(n) <= deg(p) since phi(n) >= sqrt(n/2). The remainder has no
    cyclotomic factor left.
    """
    if not p.is_monic:
        raise NotMonicError(f"({p}) is not monic")
    factors: list[tuple[int, int]] = []
    rem = p
    deg = p.degree
    if deg == 0:
        return factors, rem
    bound = 2 * deg * deg
    phi = _totients_up_to(bound)
    for n in range(1, bound + 1):
        if rem.degree == 0:
            break
        if phi[n] > rem.degree:
            continue
        mult = 0
        while True:
            try:
                rem = divide_exact(rem, cyclotomic(n))
                mult += 1
            except NotDivisibleError:
                break
        if mult:
            factors.append((n, mult))
    return factors, rem


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
    if p.degree % 2 != 0:
        return SalemCheck(False, f"odd degree {p.degree}")
    if not is_palindromic(p):
        return SalemCheck(False, "coefficient vector is not palindromic")
    factors, rem = peel_cyclotomic(p)
    if factors:
        names = ", ".join(f"Phi_{n}" for n, _ in factors)
        return SalemCheck(False, f"has cyclotomic factor(s) {names}")
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
    remainder gives SalemStructure, anything else is NotSpectrallyValid.

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
        return SalemClassification(ALL_CYCLOTOMIC, cyc, None, None)
    if rem.degree >= 2:
        check = is_salem_polynomial(rem)
        if check:
            return SalemClassification(SALEM_STRUCTURE, cyc, rem, check.root)
    return SalemClassification(NOT_SPECTRALLY_VALID, cyc, None, None)


def rebuild_product(c: SalemClassification) -> IntPolynomial:
    """Multiply the classified factors back together (exactness invariant)."""
    out = ONE_POLY
    for n, mult in c.cyclotomic_factors:
        for _ in range(mult):
            out = out * cyclotomic(n)
    if c.salem_factor is not None:
        out = out * c.salem_factor
    return out
