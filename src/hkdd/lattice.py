"""Integral lattices with symmetric bilinear forms and their isometries.

A lattice is a free Z-module with an integer Gram matrix; an isometry is an
integer matrix M with M^T G M = G, acting on column coordinate vectors.
Everything is exact: the signature is read off the integer characteristic
polynomial, never from floating-point eigenvalues, and every question of the
form "which points of the box [-bound, bound]^n does the form send to these
values?" is answered by the one walk box_points, which solves the last two
coordinates together.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from . import linalg
from .errors import HkddError, NotIsometryError
from .polynomial import char_poly, is_perfect_square


class GramLattice(namedtuple("GramLattice", "gram labels")):
    """Free Z-module of finite rank with an integer symmetric bilinear form:
    gram a tuple of int tuples, labels a tuple of str."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.gram)

    def gram_rows(self) -> list[list[int]]:
        return [list(row) for row in self.gram]

    def vector_str(self, v: list[int]) -> str:
        """Pretty-print an integer coordinate vector against the basis labels,
        e.g. (1, -6, 1) on <H1, e, H2> -> 'H1 - 6e + H2'."""
        parts = []
        for c, name in zip(v, self.labels):
            if c == 0:
                continue
            mag = abs(c)
            term = name if mag == 1 else f"{mag}{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" + {term}" if c > 0 else f" - {term}")
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"GramLattice(rank={self.rank}, labels={list(self.labels)})"


class LatticeIsometry(namedtuple("LatticeIsometry", "matrix lattice")):
    """Integer matrix, a tuple of int tuples, preserving the form of its
    GramLattice (checked on build)."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.matrix]

    def __repr__(self) -> str:
        return f"LatticeIsometry({self.rows()})"


class Signature(namedtuple("Signature", "positive negative zero")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.positive}, {self.negative}, {self.zero})"


# --- three-valued result of represents() -----------------------------------


FoundVector = namedtuple("FoundVector", "vector value")  # an int tuple and the int the form gives it
CertifiedNo = namedtuple("CertifiedNo", "reason")
NotFoundWithinBound = namedtuple("NotFoundWithinBound", "bound")


RepresentsResult = FoundVector | CertifiedNo | NotFoundWithinBound

# Prefixes one represents() call may evaluate (see its docstring). It counts
# work, not time, so an answer never depends on the host. A call that uses it
# all took 1.9 s at rank 5-6 and 3.3 s at rank 14 (shell 1 alone) on a 2-core
# x86-64 host under CPython 3.11.
REPRESENTS_BUDGET = 2_000_000


def make_lattice(gram: list[list[int]], labels: list[str] | None = None) -> GramLattice:
    """Validated lattice from an integer Gram matrix (must be symmetric)."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise HkddError("Gram matrix must be square")
    if n < 1:
        raise HkddError("rank must be at least 1")
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] != gram[j][i]:
                raise HkddError(f"gram[{i}][{j}] = {gram[i][j]} != gram[{j}][{i}] = {gram[j][i]}")
    if labels is None:
        labels = [f"b{i + 1}" for i in range(n)]
    elif len(labels) != n:
        raise HkddError(f"{len(labels)} labels for rank {n}")
    return GramLattice(
        gram=tuple(tuple(int(x) for x in row) for row in gram),
        labels=tuple(labels),
    )


def is_even(lat: GramLattice) -> bool:
    """True iff every self-intersection is even (diagonal test suffices)."""
    return all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))


def signature(lat: GramLattice) -> Signature:
    """Exact inertia from the integer characteristic polynomial.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs is exact on det(xI - G): the zero eigenvalues are the zero
    coefficients below the first nonzero one, the positive ones the sign
    variations of the rest, and the negative ones what is left.
    """
    coeffs = char_poly(lat.gram_rows()).coeffs
    zero = next(i for i, c in enumerate(coeffs) if c)
    signs = [c > 0 for c in coeffs[zero:] if c]
    pos = sum(x != y for x, y in zip(signs, signs[1:]))
    return Signature(pos, lat.rank - pos - zero, zero)


def verify_isometry(lat: GramLattice, matrix: list[list[int]]) -> LatticeIsometry:
    """Check M^T G M = G exactly and wrap M; raises NotIsometryError with the
    first disagreeing position as witness."""
    n = lat.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise HkddError(f"isometry matrix must be {n}x{n}")
    g = lat.gram_rows()
    m = [list(row) for row in matrix]
    product = linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), g), m)
    for i in range(n):
        for j in range(n):
            if product[i][j] != g[i][j]:
                raise NotIsometryError(i, j, g[i][j], product[i][j])
    return LatticeIsometry(
        matrix=tuple(tuple(int(x) for x in row) for row in m),
        lattice=lat,
    )


def invariant_sublattice(iso: LatticeIsometry) -> list[list[int]]:
    """Primitive basis of the fixed sublattice {v : M v = v}.

    Computed as the saturated integer kernel of M - I (linalg.integer_kernel);
    the basis vectors are content-free and sign-normalized.
    """
    n = iso.rank
    m_minus_i = [
        [iso.matrix[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    return linalg.integer_kernel(m_minus_i)


def norm_of(lat: GramLattice, v: list[int]) -> int:
    """v^T G v."""
    if len(v) != lat.rank:
        raise HkddError(f"vector length {len(v)} != rank {lat.rank}")
    return linalg.bilinear(lat.gram_rows(), list(v), list(v))


def _prefixes(gram, xs, left: int = 1):
    """Every prefix (v_1, ..., v_(n-left)) with entries in xs, in
    lexicographic order, as (prefix, q, lin): q is the value of the form on
    the prefix and lin the linear coefficients it gives the left coordinates
    after it, so that with left = 1 the value on (prefix, x) is
    q + lin[0]*x + g_nn*x^2. Each level adds its coordinate to the value and
    to the linear terms of the coordinates after it, so no vector costs an
    n x n product.

    Its callers are box_points, which solves the last two coordinates
    together (left = 2) or the last one alone, and the congruence
    certificate of represents, which runs the last coordinate over its
    residues.
    """
    n = len(gram)
    if n == left:
        yield (), 0, [0] * n
        return
    xs = tuple(xs)
    # depth-first; lin[j] is the coefficient the prefix gives v_(k+j)
    stack = [((), 0, [0] * n)]
    while stack:
        prefix, q, lin = stack.pop()
        k = len(prefix)
        row = gram[k]
        gkk, lk, rest, tail = row[k], lin[0], row[k + 1:], lin[1:]
        if k == n - left - 1:
            for x in xs:
                yield prefix + (x,), q + (gkk * x + lk) * x, [l + 2 * c * x for l, c in zip(tail, rest)]
            continue
        for x in reversed(xs):  # popped smallest first
            stack.append((prefix + (x,), q + (gkk * x + lk) * x, [l + 2 * c * x for l, c in zip(tail, rest)]))


def _integer_quadratic_roots(a: int, b: int, c: int, bound: int) -> list[int]:
    """Integer roots of a t^2 + b t + c = 0 in increasing order; the
    degenerate all-zero equation falls back to the bounded range (filters
    upstream must disambiguate)."""
    if a == 0:
        if b == 0:
            return list(range(-bound, bound + 1)) if c == 0 else []
        return [-c // b] if c % b == 0 else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    return sorted({num // (2 * a) for num in (-b + s, -b - s) if num % (2 * a) == 0})


def box_points(gram, values, bound: int):
    """Every v in the box [-bound, bound]^m with v^T G v in values, as
    (value, v), in lexicographic order for each value, from one walk for all
    of them.

    With m >= 2 and a = g_mm != 0, v_1..v_(m-2) run over [-bound, bound]
    (_prefixes), and so does x = v_(m-1); then v_m is a root of
    a t^2 + B(x) t + C(x) - value = 0, whose discriminant
    D(x) = B(x)^2 - 4a(C(x) - value) is a quadratic in x. Its values are
    stepped by differences, one walk for every value, each shifted by 4a
    times the value; a negative D is skipped before its isqrt, and the
    roots (-B +- sqrt D) / 2a in [-bound, bound] are kept. With m = 1 or
    a = 0, v_1..v_(m-1) run over the box and v_m is solved from its
    quadratic: the roots in [-bound, bound], and all of [-bound, bound]
    when the quadratic vanishes identically.
    """
    values = tuple(values)
    m, a, xs = len(gram), gram[-1][-1], range(-bound, bound + 1)
    if m == 1 or a == 0:
        for ts, q, (b,) in _prefixes(gram, xs):
            for value in values:
                for t in _integer_quadratic_roots(a, b, q - value, bound):
                    if -bound <= t <= bound:
                        yield value, ts + (t,)
        return
    alpha, gamma = gram[-2][-2], gram[-2][-1]
    # D(x) = dxx x^2 + dx x + d1, with d1 = l2^2 - 4a(q - value)
    dxx, two_a, sign = 4 * (gamma * gamma - a * alpha), 2 * a, 1 if a > 0 else -1
    shifts = [(4 * a * value, value) for value in values]
    for ts, q, (l1, l2) in _prefixes(gram, xs, 2):
        dx, d1 = 4 * (gamma * l2 - a * l1), l2 * l2 - 4 * a * q
        for shift, value in shifts:
            # D at x = -bound and its first difference
            d, step = (dxx * bound - dx) * bound + d1 + shift, dx + dxx * (1 - 2 * bound)
            for x in xs:
                if d >= 0:
                    s = isqrt(d) * sign  # of a's sign, so (-b - s) / 2a <= (-b + s) / 2a
                    if s * s == d:
                        b = l2 + 2 * gamma * x
                        for num in (-b - s, -b + s) if s else (-b,):
                            if num % two_a == 0 and -bound <= num // two_a <= bound:
                                yield value, ts + (x, num // two_a)
                d += step
                step += dxx + dxx


def _congruence_certificate(lat: GramLattice, value: int) -> str | None:
    """Search small moduli m such that value mod m is never attained by the
    form on (Z/m)^rank; sound because v^T G v mod m depends only on v mod m.

    A modulus stops at the first residue equal to value mod m, since it can
    no longer exclude the value; one that does exclude it is enumerated in
    full and its residues named in the reason.
    """
    n = lat.rank
    a = lat.gram[-1][-1]
    for m in (2, 3, 4, 5, 7, 8, 9, 16):
        if m**n > 70000:
            break
        target = value % m
        residues: set[int] = set()
        for _, q, (b,) in _prefixes(lat.gram, range(m)):
            residues.update((q + (b + a * x) * x) % m for x in range(m))
            if target in residues:
                break
        else:
            return (
                f"all form values lie in {sorted(residues)} mod {m}; "
                f"{value} = {target} mod {m} is excluded"
            )
    return None


def _definite_certificate(lat: GramLattice, value: int) -> str | None:
    """A form with no negative direction takes no negative value, and one
    with no positive direction takes no positive value."""
    if value == 0:
        return None
    sig = signature(lat)
    if value < 0 and sig.negative == 0:
        return f"the form has signature (p, n, z) = {sig}, so it takes no negative value"
    if value > 0 and sig.positive == 0:
        return f"the form has signature (p, n, z) = {sig}, so it takes no positive value"
    return None


def _binary_isotropy_certificate(lat: GramLattice) -> str | None:
    """For a rank-2 form A x^2 + B xy + C y^2: no nontrivial zero exists when
    the discriminant B^2 - 4AC is not a perfect square (anisotropy over Q)."""
    if lat.rank != 2:
        return None
    a = lat.gram[0][0]
    b = 2 * lat.gram[0][1]
    c = lat.gram[1][1]
    if a == 0 or c == 0:
        return None  # form is visibly isotropic; the search will find it
    disc = b * b - 4 * a * c
    if not is_perfect_square(disc):
        return (
            f"binary form discriminant {disc} is not a perfect square, "
            "so the form is anisotropic"
        )
    return None


def _normalize_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


def represents(lat: GramLattice, value: int, bound: int) -> RepresentsResult:
    """Does some nonzero v with coordinates in [-bound, bound] have v^T G v = value?

    Returns CertifiedNo when a congruence class, the signature (a definite
    form and a value of the other sign) or, for value 0, the binary
    discriminant test rules the value out globally. Otherwise it scans
    shells of sup-norm s = 1, 2, ..., bound, each in lexicographic order with
    the last coordinate solved from its quadratic, and returns FoundVector
    with the first witness, sign-normalized (first nonzero entry positive).

    Shell s costs (2s+1)^(rank-1) prefixes of length rank-1, one quadratic
    each, and one call evaluates at most REPRESENTS_BUDGET of them: a shell
    that no longer fits is not started. When not even shell 1 fits (above
    rank 14), the basis vectors are tried first: the first e_i with
    g_ii = value is returned as the witness.
    NotFoundWithinBound(b) promises that no v of sup-norm at most b takes
    the value; b is bound, or the last shell searched in full when the
    budget ran out first (0 if not even shell 1 fits and no basis vector
    is a witness).
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    reason = _congruence_certificate(lat, value) or _definite_certificate(lat, value)
    if reason is None and value == 0:
        reason = _binary_isotropy_certificate(lat)
    if reason is not None:
        return CertifiedNo(reason)
    budget = REPRESENTS_BUDGET
    for s in range(1, bound + 1):
        budget -= (2 * s + 1) ** (lat.rank - 1)
        if budget < 0:
            if s == 1:
                for i, row in enumerate(lat.gram):
                    if row[i] == value:
                        return FoundVector(tuple(int(j == i) for j in range(lat.rank)), value)
            return NotFoundWithinBound(s - 1)
        v = next((v for _, v in box_points(lat.gram, (value,), s) if max(map(abs, v)) == s), None)
        if v is not None:
            return FoundVector(_normalize_sign(v), value)
    return NotFoundWithinBound(bound)


def permute_basis(lat: GramLattice, order: list[int]) -> GramLattice:
    """Lattice with basis reordered; order[i] is the old index of new slot i."""
    if sorted(order) != list(range(lat.rank)):
        raise HkddError(f"not a permutation of 0..{lat.rank - 1}")
    gram = [[lat.gram[order[i]][order[j]] for j in range(lat.rank)] for i in range(lat.rank)]
    labels = [lat.labels[i] for i in order]
    return GramLattice(tuple(tuple(r) for r in gram), tuple(labels))
