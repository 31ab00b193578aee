import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkdd import lattice, linalg
from hkdd.errors import (
    DimensionMismatchError,
    NonSquareError,
    NonSymmetricError,
    NotIsometryError,
)
from hkdd.lattice import (
    CertifiedNo,
    FoundVector,
    NotFoundWithinBound,
    affine_points,
    invariant_sublattice,
    is_even,
    make_lattice,
    norm_of,
    permute_basis,
    represents,
    signature,
    verify_isometry,
)


def brute_force_represents(gram, value, bound):
    rank = len(gram)
    for v in itertools.product(range(-bound, bound + 1), repeat=rank):
        if any(v) and linalg.bilinear(gram, list(v), list(v)) == value:
            return v
    return None


def shell_order_reference(gram, value, bound):
    """First v with v^T G v = value over shells of sup-norm 1..bound, each
    scanned in full in lexicographic order, sign-normalized."""
    rank = len(gram)
    for s in range(1, bound + 1):
        for v in itertools.product(range(-s, s + 1), repeat=rank):
            if max(map(abs, v)) == s and linalg.bilinear(gram, list(v), list(v)) == value:
                first = next(x for x in v if x)
                return v if first > 0 else tuple(-x for x in v)
    return None


def full_residue_certificate(gram, value):
    """The congruence certificate with every residue set built in full."""
    rank = len(gram)
    for m in (2, 3, 4, 5, 7, 8, 9, 16):
        if m**rank > 70000:
            break
        residues = {
            linalg.bilinear(gram, list(v), list(v)) % m
            for v in itertools.product(range(m), repeat=rank)
        }
        if value % m not in residues:
            return (
                f"all form values lie in {sorted(residues)} mod {m}; "
                f"{value} = {value % m} mod {m} is excluded"
            )
    return None


def random_unimodular(rng, n, steps=6):
    """Product of elementary shears and signed permutations."""
    u = linalg.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n > 1 and rng.random() < 0.7:
            c = rng.randint(-2, 2)
            shear = linalg.identity(n)
            shear[i][j] = c
            u = linalg.mat_mul(u, shear)
        else:
            perm = linalg.identity(n)
            perm[i][i] = -1
            u = linalg.mat_mul(u, perm)
    return u


def test_make_lattice_validation():
    lat = make_lattice([[4, 8], [8, 4]])
    assert lat.rank == 2
    with pytest.raises(NonSymmetricError):
        make_lattice([[1, 2], [3, 1]])
    with pytest.raises(NonSquareError):
        make_lattice([[1, 2]])
    with pytest.raises(DimensionMismatchError):
        make_lattice([[1]], ["a", "b"])
    degenerate = make_lattice([[0]])
    assert degenerate.rank == 1


def test_is_even():
    assert is_even(make_lattice([[4, 8], [8, 4]]))
    assert not is_even(make_lattice([[1]]))
    assert is_even(make_lattice([[4, 0, 8], [0, -2, 0], [8, 0, 4]]))
    assert not is_even(make_lattice([[2, 1], [1, 3]]))


def test_signature_examples(rank3):
    assert signature(make_lattice([[4, 8], [8, 4]])).as_tuple() == (1, 1, 0)
    assert signature(make_lattice(linalg.identity(3))).as_tuple() == (3, 0, 0)
    assert signature(rank3).as_tuple() == (1, 2, 0)
    assert signature(make_lattice([[0]])).as_tuple() == (0, 0, 1)
    assert signature(make_lattice([[0, 3], [3, 0]])).as_tuple() == (1, 1, 0)
    assert signature(make_lattice([[2, 2], [2, 2]])).as_tuple() == (1, 0, 1)


def test_signature_matches_float_eigenvalues():
    rng = random.Random(43)
    grams = []
    for _ in range(50):
        n = rng.randint(1, 5)
        half = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        grams.append([[half[i][j] + half[j][i] for j in range(n)] for i in range(n)])
    # ranks up to 8, and degenerate forms B^T D B with B of k < n rows
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 8)
        half = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        grams.append([[half[i][j] + half[j][i] for j in range(n)] for i in range(n)])
        k = rng.randint(0, n - 1)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        d = [rng.choice((-2, -1, 1, 3)) for _ in range(k)]
        grams.append([[sum(d[r] * b[r][i] * b[r][j] for r in range(k)) for j in range(n)] for i in range(n)])
    assert sum(signature(make_lattice(g)).zero > 0 for g in grams) >= 40
    for gram in grams:
        sig = signature(make_lattice(gram)).as_tuple()
        eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
        expected = (
            int((eig > 1e-9).sum()),
            int((eig < -1e-9).sum()),
            int((np.abs(eig) <= 1e-9).sum()),
        )
        assert sig == expected


def test_signature_invariant_under_unimodular_change():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 4)
        half = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        gram = [[half[i][j] + half[j][i] for j in range(n)] for i in range(n)]
        u = random_unimodular(rng, n)
        transformed = linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), gram), u)
        assert signature(make_lattice(gram)) == signature(make_lattice(transformed))


def test_verify_isometry(rank3, m1):
    iso = verify_isometry(rank3, m1)
    assert iso.matrix == tuple(tuple(row) for row in m1)
    ident = verify_isometry(rank3, linalg.identity(3))
    assert ident.rank == 3
    bad = [row[:] for row in m1]
    bad[0][0] = 4
    with pytest.raises(NotIsometryError) as err:
        verify_isometry(rank3, bad)
    assert (err.value.i, err.value.j) == (0, 0)
    with pytest.raises(NonSquareError):
        verify_isometry(rank3, [[1, 0], [0, 1]])


def test_invariant_sublattice(rank3, m1, m1m2):
    iso1 = verify_isometry(rank3, m1)
    assert invariant_sublattice(iso1) == [[1, -1, 0]]
    iso12 = verify_isometry(rank3, m1m2)
    assert invariant_sublattice(iso12) == [[1, -6, 1]]
    ident = verify_isometry(rank3, linalg.identity(3))
    assert len(invariant_sublattice(ident)) == 3
    # fixed vectors really are fixed
    for iso in (iso1, iso12):
        for v in invariant_sublattice(iso):
            assert linalg.mat_vec(iso.rows(), v) == v


def test_norm_of(rank3):
    assert norm_of(rank3, [1, -6, 1]) == -48
    assert norm_of(rank3, [0, 0, 0]) == 0
    assert norm_of(rank3, [1, -1, 0]) == 2
    with pytest.raises(DimensionMismatchError):
        norm_of(rank3, [1, 2])


def test_norm_preserved_by_isometry(rank3, m1, m2, m1m2):
    rng = random.Random(53)
    for matrix in (m1, m2, m1m2):
        iso = verify_isometry(rank3, matrix)
        for _ in range(25):
            v = [rng.randint(-9, 9) for _ in range(3)]
            assert norm_of(rank3, linalg.mat_vec(iso.rows(), v)) == norm_of(rank3, v)


def test_represents_quartic_pair_certificates():
    n = make_lattice([[4, 8], [8, 4]])
    res = represents(n, -2, 50)
    assert isinstance(res, CertifiedNo)
    assert "mod 4" in res.reason
    res0 = represents(n, 0, 50)
    assert isinstance(res0, CertifiedNo)
    assert "192" in res0.reason
    # cross-check both certificates by brute force
    assert brute_force_represents(n.gram_rows(), -2, 50) is None
    assert brute_force_represents(n.gram_rows(), 0, 50) is None


def test_represents_found_vector():
    lat = make_lattice([[2, 0], [0, -2]])
    res = represents(lat, 0, 1)
    assert isinstance(res, FoundVector)
    assert res.vector == (1, 1)
    assert represents(lat, 2, 3) == FoundVector((1, 0), 2)


def test_represents_not_found_is_honest():
    # x^2 + y^2 = 3 is impossible, but only by a mod-4/mod-8 argument
    lat = make_lattice([[1, 0], [0, 1]])
    res = represents(lat, 3, 10)
    assert isinstance(res, (CertifiedNo, NotFoundWithinBound))
    assert brute_force_represents(lat.gram_rows(), 3, 10) is None


def test_represents_never_certifies_wrongly():
    rng = random.Random(59)
    for _ in range(120):
        rank = rng.randint(2, 3)
        half = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        gram = [[half[i][j] + half[j][i] for j in range(rank)] for i in range(rank)]
        lat = make_lattice(gram)
        value = rng.randint(-10, 10)
        res = represents(lat, value, 6)
        witness = brute_force_represents(gram, value, 6)
        if isinstance(res, CertifiedNo):
            assert witness is None, (gram, value, witness, res.reason)
        if witness is not None:
            assert isinstance(res, FoundVector)
            assert linalg.bilinear(gram, list(res.vector), list(res.vector)) == value


@st.composite
def symmetric_forms(draw):
    rank = draw(st.integers(2, 4))
    upper = {(i, j): draw(st.integers(-4, 4)) for i in range(rank) for j in range(i, rank)}
    return [[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(symmetric_forms(), st.integers(-12, 12), st.integers(1, 4))
def test_represents_matches_shell_order_reference(gram, value, bound):
    res = represents(make_lattice(gram), value, bound)
    witness = shell_order_reference(gram, value, bound)
    if isinstance(res, FoundVector):
        assert res == FoundVector(witness, value)
        assert linalg.bilinear(gram, list(res.vector), list(res.vector)) == value
    elif isinstance(res, CertifiedNo):
        assert witness is None, res.reason
    else:
        assert 0 <= res.bound <= bound
        assert shell_order_reference(gram, value, res.bound) is None
        assert res.bound == bound  # the budget never binds at these sizes


def brute_force_affine_points(gram, value, bound, u0, kernel):
    """Scan t over [-bound, bound]^m for u0 + sum t_i k_i of norm value. At
    m = 1 the line is scanned far enough to hold every root; more than two
    hits mean the quadratic vanishes, and then t runs over [-bound, bound]."""
    m = len(kernel)

    def point(t):
        return tuple(u + sum(ti * k[i] for ti, k in zip(t, kernel)) for i, u in enumerate(u0))

    def hits(reach):
        vs = map(point, itertools.product(range(-reach, reach + 1), repeat=m))
        return [v for v in vs if linalg.bilinear(gram, v, v) == value]

    if m != 1:
        return hits(bound)
    # at the sizes drawn below every root has |t| < 1100
    found = hits(1100)
    return found if len(found) <= 2 else [point((t,)) for t in range(-bound, bound + 1)]


@st.composite
def affine_lattices(draw):
    rank = draw(st.integers(1, 4))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(rank) for j in range(i, rank)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]
    if draw(st.booleans()):
        m, u0, kernel = rank, [0] * rank, [[int(i == j) for j in range(rank)] for i in range(rank)]
    else:
        m = draw(st.integers(0, min(rank, 3)))
        vec = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
        u0, kernel = draw(vec), draw(st.lists(vec, min_size=m, max_size=m))
    bound = draw(st.integers(1, 3))
    # the value of a point, sometimes one outside the box
    t = draw(st.lists(st.integers(-bound - 3, bound + 3), min_size=m, max_size=m))
    v = [u + sum(ti * k[i] for ti, k in zip(t, kernel)) for i, u in enumerate(u0)]
    value = linalg.bilinear(gram, v, v) + draw(st.sampled_from((0, 0, 0, 1, -2)))
    return gram, value, bound, u0, kernel


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(affine_lattices())
# m = 0: the one point u0
@example(([[2, 1], [1, -2]], -2, 2, [1, 2], []))
# m = 1: the roots t = 4 and t = -6 lie outside [-2, 2], and both are kept
@example(([[1, 0], [0, -1]], 25, 2, [1, 0], [[1, 0]]))
# on the hyperbolic plane U the norm of (t, 0) vanishes identically
@example(([[0, 1], [1, 0]], 0, 2, [0, 0], [[1, 0]]))
@example(([[0, 1], [1, 0]], 0, 2, [0, 0], [[1, 0], [0, 1]]))
# m = 2: 3^2 + 4^2 = 25 has no point in [-3, 3]^2
@example(([[1, 0], [0, 1]], 25, 3, [0, 0], [[1, 0], [0, 1]]))
def test_affine_points_match_brute_force(case):
    gram, value, bound, u0, kernel = case
    expected = brute_force_affine_points(gram, value, bound, u0, kernel)
    assert list(affine_points(gram, value, bound, u0, kernel)) == expected
    if not any(u0) and kernel == [[int(i == j) for j in range(len(gram))] for i in range(len(gram))]:
        assert list(affine_points(gram, value, bound)) == expected


def test_congruence_reasons_match_full_residue_sets():
    rng = random.Random(61)
    cases = []
    for _ in range(150):
        rank = rng.choice((1, 2, 3))
        scale = rng.choice((1, 2, 3, 4))
        upper = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        gram = [[scale * upper[min(i, j)][max(i, j)] for j in range(rank)] for i in range(rank)]
        cases.append((gram, rng.randint(-20, 20)))
    rank4 = [[4, 0, 8, 0], [0, -2, 0, 0], [8, 0, 4, 0], [0, 0, 0, -4]]
    cases += [(rank4, value) for value in (-2, 1, 3, 6)]
    certified = 0
    for gram, value in cases:
        expected = full_residue_certificate(gram, value)
        assert lattice._congruence_certificate(make_lattice(gram), value) == expected
        certified += expected is not None
    assert certified > 30


def test_represents_rank_one_shells():
    assert represents(make_lattice([[2]]), 8, 3) == FoundVector((2,), 8)
    assert represents(make_lattice([[0]]), 0, 1) == FoundVector((1,), 0)
    assert represents(make_lattice([[3]]), 75, 4) == NotFoundWithinBound(4)


def test_represents_definite_certificate():
    res = represents(make_lattice([[2 * (i == j) for j in range(5)] for i in range(5)]), -2, 16)
    assert res == CertifiedNo(
        "the form has signature (p, n, z) = (5, 0, 0), so it takes no negative value"
    )
    res = represents(make_lattice([[-(i == j) for j in range(3)] for i in range(3)]), 2, 3)
    assert res == CertifiedNo(
        "the form has signature (p, n, z) = (0, 3, 0), so it takes no positive value"
    )
    semidefinite = [[int(i == j < 4) for j in range(5)] for i in range(5)]
    res = represents(make_lattice(semidefinite), -2, 2)
    assert isinstance(res, CertifiedNo) and "(4, 0, 1)" in res.reason
    assert brute_force_represents(semidefinite, -2, 2) is None
    # a definite form still finds values of its own sign
    assert represents(make_lattice([[2, 1], [1, 2]]), 2, 2) == FoundVector((1, 0), 2)


def test_represents_budget_stops_before_a_shell_that_does_not_fit(monkeypatch):
    cube = make_lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # 27 = 3^2 + 3^2 + 3^2 needs sup-norm 3; shells 1 and 2 cost 9 + 25 prefixes
    assert represents(cube, 27, 5) == FoundVector((3, 3, 3), 27)
    monkeypatch.setattr(lattice, "REPRESENTS_BUDGET", 9 + 25 + 48)
    assert represents(cube, 27, 5) == NotFoundWithinBound(2)
    monkeypatch.setattr(lattice, "REPRESENTS_BUDGET", 9 + 25 + 49)
    assert represents(cube, 27, 5) == FoundVector((3, 3, 3), 27)
    monkeypatch.setattr(lattice, "REPRESENTS_BUDGET", 8)
    assert represents(cube, 27, 5) == NotFoundWithinBound(0)
    # with shell 1 out of budget, a basis vector of the right norm still answers
    assert represents(cube, 1, 5) == FoundVector((1, 0, 0), 1)
    diag = make_lattice([[2, 0, 0], [0, -2, 0], [0, 0, -2]])
    assert represents(diag, -2, 5) == FoundVector((0, 1, 0), -2)


def test_permute_basis(rank3):
    swapped = permute_basis(rank3, [2, 1, 0])
    assert swapped.labels == ("H2", "e", "H1")
    assert swapped.gram[0][2] == rank3.gram[2][0]
    assert signature(swapped) == signature(rank3)


def test_vector_str(rank3):
    assert rank3.vector_str([1, -6, 1]) == "H1 - 6e + H2"
    assert rank3.vector_str([1, -1, 0]) == "H1 - e"
    assert rank3.vector_str([0, 0, 0]) == "0"
    assert rank3.vector_str([-2, 0, 3]) == "-2H1 + 3H2"
