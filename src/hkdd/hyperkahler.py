"""Hilbert-scheme lattices, induced and Beauville involutions, Kummer degrees,
and the non-naturality certificate.

Everything works at the level of lattices with isometries: H^2 of the Hilbert
scheme of n points is modelled as base + Z*e with (e, e) = -2n+2 and e
orthogonal to the base. Composition of pullbacks follows application order,
compose(A, B).matrix = A.matrix * B.matrix; under this convention composing
the two bundled quartic involutions yields the expected positive-entropy
matrix.

Geometric hypotheses that cannot be checked on a lattice (very ample classes,
no line on the surface) are carried as assumption strings on solver results.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .errors import HkddError, NotUnimodularError
from .lattice import (
    CertifiedNo,
    FoundVector,
    GramLattice,
    LatticeIsometry,
    _integer_quadratic_roots,
    invariant_sublattice,
    make_lattice,
    norm_of,
    represents,
    verify_isometry,
)
from .polynomial import IntPolynomial, is_perfect_square
from .dynamics import DegreeSpectrum, FirstDegree, degree_spectrum
from .salem import salem_root_of


class HilbertLattice(namedtuple("HilbertLattice", "base n extended e_index")):
    """base lattice extended by the exceptional half-class e, (e,e) = -2n+2,
    at index e_index of the extended GramLattice."""

    __slots__ = ()

    @property
    def e_norm(self) -> int:
        return -2 * self.n + 2


class Sl2Matrix(namedtuple("Sl2Matrix", "a b c d")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise NotUnimodularError(f"determinant {a * d - b * c} != 1")
        return super().__new__(cls, a, b, c, d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


# verdict NOT_NATURAL or POSSIBLY_NATURAL; fixed_basis a tuple of int tuples;
# witness (fixed generator, its norm) or None
NaturalityCertificate = namedtuple("NaturalityCertificate", "verdict fixed_basis required_norm witness detail")


NOT_NATURAL = "NotNatural"
POSSIBLY_NATURAL = "PossiblyNatural"


# Solver trace for the basis vector other than h and e at rank 3: the integer
# candidate images (int tuples) _beauville_candidates lists, the chosen one,
# and why the rejected ones fail, as (candidate, reason) pairs.
CandidateRecord = namedtuple("CandidateRecord", "basis_index candidates chosen rejections")
# the LatticeIsometry, a tuple of at most one CandidateRecord, and the
# hypotheses (strings) that a lattice cannot check
BeauvilleSolution = namedtuple("BeauvilleSolution", "isometry h_index e_index records assumed_hypotheses")


def hilbert_lattice(base: GramLattice, n: int, e_index: int | None = None) -> HilbertLattice:
    """Extend base by the exceptional class e with (e, e) = -2n+2, e _|_ base.

    e_index selects where e sits in the new basis (default: last), so the
    classical ordering <H1, e, H2> is available directly. The extended
    lattice is checked by hilbert_from_extended, as any other is.
    """
    r = base.rank
    if e_index is None:
        e_index = r
    if not 0 <= e_index <= r:
        raise HkddError(f"e_index {e_index} out of range 0..{r}")
    gram = [[*row[:e_index], 0, *row[e_index:]] for row in base.gram]
    gram.insert(e_index, [0] * e_index + [-2 * n + 2] + [0] * (r - e_index))
    labels = [*base.labels[:e_index], "e", *base.labels[e_index:]]
    return hilbert_from_extended(make_lattice(gram, labels), n, e_index)


def hilbert_from_extended(
    lat: GramLattice, n: int, e_index: int | None = None
) -> HilbertLattice:
    """Recognize an already-extended lattice as base + Z*e.

    e defaults to the basis vector labelled "e". The slot must be orthogonal
    to everything else and have norm -2n+2, otherwise the lattice is not the
    n-point Hilbert-scheme model it claims to be.
    """
    if n < 2:
        raise HkddError(f"need n >= 2 points, got {n}")
    if e_index is None:
        matches = [i for i, lab in enumerate(lat.labels) if lab == "e"]
        if len(matches) != 1:
            raise HkddError('no unique basis label "e"; pass e_index explicitly')
        e_index = matches[0]
    if not 0 <= e_index < lat.rank:
        raise HkddError(f"e_index {e_index} out of range")
    if lat.rank == 1:
        raise HkddError("the lattice has no class besides e")
    expected = -2 * n + 2
    if lat.gram[e_index][e_index] != expected:
        raise HkddError(f"(e, e) = {lat.gram[e_index][e_index]}, need {expected} for n = {n}")
    for j in range(lat.rank):
        if j != e_index and lat.gram[e_index][j] != 0:
            raise HkddError(f"e is not orthogonal to {lat.labels[j]}")
    rest = [i for i in range(lat.rank) if i != e_index]
    base = make_lattice(
        [[lat.gram[i][j] for j in rest] for i in rest],
        [lat.labels[i] for i in rest],
    )
    return HilbertLattice(base=base, n=n, extended=lat, e_index=e_index)


def _beauville_candidates(
    lat: GramLattice,
    h: int,
    e: int,
    x: int,
    iota_h: list[int],
    iota_e: list[int],
) -> list[tuple[int, ...]]:
    """Integer candidates for the image of basis vector x under the involution,
    on a nondegenerate lattice of rank 3.

    The two pairing constraints (image, iota_h) = (x, h) and
    (image, iota_e) = (x, e) are solved exactly; iota(x) meets them, so
    they have a solution. It is a line u0 + t k: k spans the orthogonal
    complement of the plane of iota_h and iota_e (Gram diag(4, -2)), and
    (k, k) != 0 as G is nondegenerate. So the norm constraint is a proper
    quadratic in t, and its integer roots, at most two, are the candidates.
    """
    g = lat.gram_rows()
    rows = [linalg.mat_vec(g, iota_h), linalg.mat_vec(g, iota_e)]
    u0, (k,) = linalg.solve_integer_system(rows, [g[x][h], g[x][e]])
    a, b = linalg.bilinear(g, k, k), 2 * linalg.bilinear(g, u0, k)
    roots = _integer_quadratic_roots(a, b, linalg.bilinear(g, u0, u0) - g[x][x], 0)
    return sorted(tuple(u + t * c for u, c in zip(u0, k)) for t in roots)


def solve_beauville(hilb: HilbertLattice, quartic_class_index: int) -> BeauvilleSolution:
    """The involution iota with iota(h) = 3h - 4e and iota(e) = 2h - 3e that
    preserves the form, squares to the identity and fixes a sublattice of
    rank exactly 1: iota(x) = -x + (x, v) v with v = h - e, minus the
    reflection in v. No other map meets these constraints:
    - iota fixes v, so a fixed sublattice of rank 1 spans Q*v;
    - an isometric involution acts as -1 on the orthogonal complement of its
      fixed space ((x, y) = (iota x, iota y) = -(x, y) for x fixed and y
      negated), which is v-perp since (v, v) != 0;
    - (v, v) = (h, h) - 2(h, e) + (e, e) = 4 - 0 - 2 = 2, so
      s_v(x) = x - (x, v) v is integral.
    The Gram entries (h, h) = 4, (h, e) = 0 and (e, e) = -2 are checked, not
    assumed.

    On a nondegenerate lattice of rank 3 the records keep the candidate
    trace of the one basis vector x other than h and e: the integer images
    that meet the pairing and norm constraints, iota(x) as the chosen one,
    and each other candidate with the filter it fails in place of column x
    of iota. Only there is the candidate set finite and a function of the
    lattice alone; at any other rank, or on a degenerate lattice, the
    records are empty.
    """
    lat = hilb.extended
    if hilb.n != 2:
        raise HkddError(f"the quartic involution needs n = 2, got {hilb.n}")
    h = quartic_class_index
    e = hilb.e_index
    if h == e or not 0 <= h < lat.rank:
        raise HkddError(f"bad quartic class index {h}")
    if lat.gram[h][h] != 4:
        raise HkddError(f"class {lat.labels[h]} has norm {lat.gram[h][h]}, need 4")
    if lat.gram[e][e] != -2:
        raise HkddError(f"(e, e) = {lat.gram[e][e]}, need -2")
    if lat.gram[h][e] != 0:
        raise HkddError(f"(e, {lat.labels[h]}) = {lat.gram[h][e]}, need 0")
    r = lat.rank
    g = lat.gram_rows()
    v = [0] * r
    v[h], v[e] = 1, -1
    pairings = linalg.mat_vec(g, v)
    m = [[pairings[j] * v[i] - (i == j) for j in range(r)] for i in range(r)]
    iso = verify_isometry(lat, m)
    records = ()
    if r == 3 and linalg.det_bareiss(g) != 0:
        (x,) = {0, 1, 2} - {h, e}
        iota_h, iota_e, chosen = (tuple(row[j] for row in m) for j in (h, e, x))
        cands = _beauville_candidates(lat, h, e, x, iota_h, iota_e)
        rejections = tuple((c, _first_failed_filter(lat, m, x, c)) for c in cands if c != chosen)
        records = (CandidateRecord(x, tuple(cands), chosen, rejections),)
    return BeauvilleSolution(
        isometry=iso,
        h_index=h,
        e_index=e,
        records=records,
        assumed_hypotheses=(
            "quartic class is very ample",
            "the surface contains no line",
        ),
    )


def _first_failed_filter(lat: GramLattice, m: list[list[int]], x: int, image) -> str:
    """The filter that m fails with image in place of its column x, on a
    nondegenerate lattice of rank 3.

    The image meets all six pairings of the trial matrix, so the trial is an
    isometry; it is iota composed with the reflection in the line k of
    _beauville_candidates, which commutes with iota, so it squares to the
    identity. m is the only involution with these h and e columns and a
    fixed sublattice of rank 1, so the trial's fixed rank differs.
    """
    trial = tuple((*row[:x], y, *row[x + 1 :]) for row, y in zip(m, image))
    fixed = invariant_sublattice(LatticeIsometry(trial, lat))
    return f"invariant sublattice has rank {len(fixed)}, need 1"


def kummer_first_degree(m: Sl2Matrix) -> FirstDegree:
    """First dynamical degree of the torus automorphism induced on the Kummer
    surface: 1 for |trace| <= 2, otherwise the root > 1 of
    x^2 - (t^2 - 2) x + 1 (the square of the large eigenvalue of m)."""
    t = m.trace
    if abs(t) <= 2:
        return 1
    return salem_root_of(IntPolynomial((1, -(t * t - 2), 1)))


def kummer_spectrum(m: Sl2Matrix, n: int) -> DegreeSpectrum:
    """Degree table of the induced automorphism on the Hilbert scheme of n
    points of the Kummer surface; d_1 passes through unchanged."""
    if n < 2:
        raise HkddError(f"need n >= 2 points, got {n}")
    return degree_spectrum(n, kummer_first_degree(m))


def naturality_certificate(
    iso: LatticeIsometry, hilb: HilbertLattice
) -> NaturalityCertificate:
    """Necessary condition for being induced from a surface automorphism: the
    fixed sublattice must contain a class of norm -2n+2 (the exceptional
    half-class of the inducing surface is fixed).

    NotNatural is only returned when that is provably impossible: empty fixed
    lattice, a rank-1 fixed lattice whose generator norm times a square can
    never be -2n+2, or a certified non-representation at higher rank.
    PossiblyNatural carries no converse guarantee.
    """
    if iso.lattice.gram != hilb.extended.gram:
        raise HkddError("isometry does not act on the extended lattice")
    required = hilb.e_norm
    fixed = invariant_sublattice(iso)
    verdict, witness = NOT_NATURAL, None
    if not fixed:
        detail = "fixed sublattice is trivial; no class is fixed at all"
    elif len(fixed) == 1:
        norm = norm_of(hilb.extended, fixed[0])
        if _square_times_equals(norm, required):
            verdict = POSSIBLY_NATURAL
            detail = f"fixed generator has norm {norm}; a multiple reaches {required}"
        else:
            witness = (tuple(fixed[0]), norm)
            detail = (f"every fixed class is a multiple of a generator of norm {norm}; "
                      f"k^2 * {norm} = {required} has no integer solution")
    else:
        # fixed rank >= 2: restrict the form and ask the representation machinery
        g = hilb.extended.gram_rows()
        restricted = [[linalg.bilinear(g, u, w) for w in fixed] for u in fixed]
        sub = make_lattice(restricted, [f"f{i + 1}" for i in range(len(fixed))])
        result = represents(sub, required, bound=16)
        if isinstance(result, CertifiedNo):
            detail = f"restricted fixed form cannot represent {required}: {result.reason}"
        elif isinstance(result, FoundVector):
            verdict = POSSIBLY_NATURAL
            detail = f"fixed class of norm {required} exists"
        else:
            verdict = POSSIBLY_NATURAL
            detail = (f"no fixed class of norm {required} found within bound "
                      f"{result.bound}, and no certificate applies")
    return NaturalityCertificate(verdict, tuple(map(tuple, fixed)), required, witness, detail)


def _square_times_equals(norm: int, required: int) -> bool:
    """Is k^2 * norm == required solvable with a nonzero integer k?"""
    if norm == 0:
        return required == 0
    if required % norm != 0:
        return False
    q = required // norm
    return q > 0 and is_perfect_square(q)


def compose(a: LatticeIsometry, b: LatticeIsometry) -> LatticeIsometry:
    """Pullback composition: compose(a, b).matrix = a.matrix * b.matrix."""
    if a.lattice.gram != b.lattice.gram:
        raise HkddError("cannot compose isometries of different lattices")
    return verify_isometry(a.lattice, linalg.mat_mul(a.rows(), b.rows()))


def power(a: LatticeIsometry, exponent: int) -> LatticeIsometry:
    """Non-negative matrix power; power(a, 0) is the identity."""
    if exponent < 0:
        raise ValueError("negative powers are not supported")
    return verify_isometry(a.lattice, linalg.mat_pow(a.rows(), exponent))
