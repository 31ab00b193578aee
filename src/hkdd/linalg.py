"""Exact integer matrix plumbing: products, determinants, HNF/Smith kernels.

Matrices are row-major lists of lists of Python ints (arbitrary precision)
acting on column vectors. Nothing here ever touches floating point.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import mul

Matrix = list[list[int]]
Vector = list[int]


def is_square(m: Matrix) -> bool:
    return all(len(row) == len(m) for row in m)


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def trace_of_product(a: Matrix, b: Matrix) -> int:
    """tr(a b) without forming the product: n^2 multiplications."""
    return sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*b))))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    if len(m[0]) != len(v):
        raise ValueError("matrix/vector dimensions do not match")
    return [sum(map(mul, row, v)) for row in m]


def mat_pow(m: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative matrix powers are not supported")
    result = identity(len(m))
    base = [row[:] for row in m]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def copy_matrix(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def bilinear(g: Matrix, u: Vector, v: Vector) -> int:
    """u^T G v for integer vectors."""
    return sum(map(mul, u, mat_vec(g, v)))


def det_bareiss(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if not is_square(m):
        raise ValueError("determinant needs a square matrix")
    a = copy_matrix(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _normalize_kernel_vector(v: Vector) -> Vector:
    g = 0
    for x in v:
        g = gcd(g, x)
    if g > 1:
        v = [x // g for x in v]
    for x in v:
        if x != 0:
            return v if x > 0 else [-y for y in v]
    return v


def row_hnf_transform(a: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite form H of `a` with unimodular U such that U a = H."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = copy_matrix(a)
    u = identity(rows)
    pivot_row = 0
    for c in range(cols):
        if pivot_row == rows:
            break
        # clear column c below pivot_row by euclidean row combinations
        while True:
            nonzero = [i for i in range(pivot_row, rows) if h[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(h[i][c]), i))
            if i0 != pivot_row:
                h[pivot_row], h[i0] = h[i0], h[pivot_row]
                u[pivot_row], u[i0] = u[i0], u[pivot_row]
            done = True
            for i in range(pivot_row + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[pivot_row][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if h[pivot_row][c] != 0:
            if h[pivot_row][c] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            for i in range(pivot_row):
                q = h[i][c] // h[pivot_row][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
            pivot_row += 1
    return h, u


def integer_kernel(a: Matrix) -> list[Vector]:
    """Primitive basis of {v : a v = 0} over the integers.

    Rows of the unimodular transform aligned with zero rows of the row
    Hermite form of a^T give a basis of the saturated kernel lattice.
    """
    if not a or not a[0]:
        return []
    h, u = row_hnf_transform(transpose(a))
    basis = [
        _normalize_kernel_vector(u[i])
        for i in range(len(h))
        if all(x == 0 for x in h[i])
    ]
    return sorted(basis)


def integer_diagonalize(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize over the integers: (u, d, v) with u a v = d, u, v unimodular.

    Smith-style euclidean reduction; the divisibility chain d1 | d2 | ... is
    not enforced since linear solving only needs diagonality.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = copy_matrix(a)
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        d[dst] = [x - q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in d:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0:
                    if pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    addmul_row(i, t, d[i][t] // d[t][t])
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    addmul_col(j, t, d[t][j] // d[t][t])
            residue = [(abs(d[i][t]), i, t) for i in range(t + 1, rows) if d[i][t] != 0]
            residue += [(abs(d[t][j]), t, j) for j in range(t + 1, cols) if d[t][j] != 0]
            if not residue:
                break
            _, i, j = min(residue)
            if i > t:
                swap_rows(t, i)
            else:
                swap_cols(t, j)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def solve_integer_system(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]] | None:
    """All integer solutions of a x = b as (particular, kernel basis), or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, d, v = integer_diagonalize(a)
    ub = mat_vec(u, b)
    y = [0] * cols
    for i in range(min(rows, cols)):
        di = d[i][i]
        if di != 0:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
        elif ub[i] != 0:
            return None
    for i in range(cols, rows):
        if ub[i] != 0:
            return None
    free = [j for j in range(cols) if j >= min(rows, cols) or d[j][j] == 0]
    particular = mat_vec(v, y)
    kernel = [[v[i][j] for i in range(cols)] for j in free]
    return particular, kernel
