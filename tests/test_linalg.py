import random

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdd import linalg
from oracles import integer_solvable, minors_gcd, rational_rank


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_mat_mul_identity():
    m = [[1, 2], [3, 4]]
    assert linalg.mat_mul(m, linalg.identity(2)) == m
    assert linalg.mat_mul(linalg.identity(2), m) == m


def test_trace_of_product():
    a = [[1, 2, 0], [-3, 4, 5], [7, 0, -1]]
    b = [[2, -1, 3], [0, 6, 1], [4, 4, -2]]
    ab = linalg.mat_mul(a, b)
    # the second factor comes as its columns
    assert linalg.trace_of_product(a, zip(*b)) == sum(ab[i][i] for i in range(3)) == 72
    assert linalg.trace_of_product(b, linalg.transpose(a)) == 72


def test_mat_pow():
    m = [[1, 1], [0, 1]]
    assert linalg.mat_pow(m, 0) == linalg.identity(2)
    assert linalg.mat_pow(m, 5) == [[1, 5], [0, 1]]
    with pytest.raises(ValueError):
        linalg.mat_pow(m, -1)


def test_det_bareiss_small():
    assert linalg.det_bareiss([[5]]) == 5
    assert linalg.det_bareiss([[1, 2], [3, 4]]) == -2
    assert linalg.det_bareiss([[0, 1], [1, 0]]) == -1
    assert linalg.det_bareiss([[1, 2], [2, 4]]) == 0


def test_det_bareiss_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        # plain fraction Gaussian elimination as the oracle
        a = [[Fraction(x) for x in row] for row in m]
        det = Fraction(1)
        for k in range(n):
            pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != k:
                a[k], a[pivot] = a[pivot], a[k]
                det = -det
            det *= a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        assert linalg.det_bareiss(m) == det


def test_echelon_transform_is_unimodular_and_echelon():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        h, u = linalg.row_echelon_transform(a)
        assert linalg.mat_mul(u, a) == h
        assert linalg.det_bareiss(u) in (1, -1)
        # zero rows last, and each pivot strictly right of the one above
        pivots = [next((c for c, x in enumerate(row) if x), cols) for row in h]
        assert all(p < q or p == q == cols for p, q in zip(pivots, pivots[1:]))


def test_integer_kernel_basics():
    assert linalg.integer_kernel([[1, 0], [0, 1]]) == []
    # kernel of (x + y + z = 0)
    k = linalg.integer_kernel([[1, 1, 1]])
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0
    # zero matrix: full kernel
    k = linalg.integer_kernel([[0, 0], [0, 0]])
    assert len(k) == 2


def test_integer_kernel_saturated_and_primitive():
    # rows of 2*(v orthogonal): kernel must still be the primitive vector
    a = [[2, 4], [1, 2]]
    k = linalg.integer_kernel(a)
    assert k == [[2, -1]]


def test_integer_kernel_membership_random():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = random_matrix(rng, rng.randint(1, 4), n, -4, 4)
        kernel = linalg.integer_kernel(a)
        for v in kernel:
            assert all(x == 0 for x in linalg.mat_vec(a, v))
        # rank-nullity over Q
        assert len(kernel) == n - rational_rank(a)


@st.composite
def systems(draw):
    """a (1-4 x 1-5), a right-hand side b and a point x0, entries in [-6, 6]."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    a = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    b = draw(st.lists(entries, min_size=rows, max_size=rows))
    x0 = draw(st.lists(entries, min_size=cols, max_size=cols))
    return a, b, x0


@settings(max_examples=400)
@given(systems())
def test_solve_integer_system_matches_determinantal_divisors(system):
    a, b, x0 = system
    cols = len(a[0])
    sol = linalg.solve_integer_system(a, b)
    assert (sol is not None) == integer_solvable(a, b)
    if sol is not None:
        assert linalg.mat_vec(a, sol[0]) == b
    ax0 = linalg.mat_vec(a, x0)
    u0, kernel = linalg.solve_integer_system(a, ax0)
    assert linalg.mat_vec(a, u0) == ax0
    assert len(kernel) == cols - rational_rank(a)
    for k in kernel:
        assert not any(linalg.mat_vec(a, k))
    diff = [x - u for x, u in zip(x0, u0)]
    if kernel:
        # saturated: the maximal minors of the kernel basis are coprime
        assert minors_gcd(linalg.transpose(kernel), len(kernel)) == 1
        assert integer_solvable(linalg.transpose(kernel), diff)
    else:
        assert not any(diff)


def test_solve_integer_system():
    # x + 2y = 5 has solutions x = 5 - 2t, y = t
    sol = linalg.solve_integer_system([[1, 2]], [5])
    assert sol is not None
    x0, kernel = sol
    assert linalg.mat_vec([[1, 2]], x0) == [5]
    assert len(kernel) == 1
    # 2x = 3 has no integer solution
    assert linalg.solve_integer_system([[2]], [3]) is None
    # inconsistent system
    assert linalg.solve_integer_system([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_integer_system_random():
    rng = random.Random(19)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, -4, 4)
        x_true = [rng.randint(-3, 3) for _ in range(cols)]
        b = linalg.mat_vec(a, x_true)
        sol = linalg.solve_integer_system(a, b)
        assert sol is not None
        x0, kernel = sol
        assert linalg.mat_vec(a, x0) == b
        for k in kernel:
            assert all(x == 0 for x in linalg.mat_vec(a, k))
