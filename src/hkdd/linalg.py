"""Exact integer matrix plumbing: products, determinants, and one integer
elimination, the unimodular row echelon transform, behind the solutions of
linear systems and so behind the saturated kernels.

Matrices are row-major lists of lists of Python ints (arbitrary precision)
acting on column vectors. Nothing here ever touches floating point.
"""

from __future__ import annotations

from itertools import chain
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
    return product_from_columns(a, list(zip(*b)))


def product_from_columns(a: Matrix, b_cols) -> Matrix:
    """a b from the rows of a and the columns of b."""
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a]


def trace_of_product(a: Matrix, b_cols) -> int:
    """tr(a b) from the rows of a and the columns of b, without forming the
    product: n^2 multiplications. A caller holding b passes zip(*b)."""
    return sum(map(mul, chain.from_iterable(a), chain.from_iterable(b_cols)))


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


def row_echelon_transform(a: Matrix) -> tuple[Matrix, Matrix]:
    """Row echelon form H of `a` with unimodular U such that U a = H: the
    zero rows of H come last, and each pivot lies right of the one above."""
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
            pivot_row += 1
    return h, u


def integer_kernel(a: Matrix) -> list[Vector]:
    """Primitive basis of {v : a v = 0} over the integers, sorted, each
    vector with its first nonzero entry positive: the kernel basis of
    solve_integer_system(a, 0), which is primitive already."""
    if not a or not a[0]:
        return []
    _, kernel = solve_integer_system(a, [0] * len(a))
    return sorted(v if next(x for x in v if x) > 0 else [-x for x in v] for v in kernel)


def solve_integer_system(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]] | None:
    """All integer solutions of a x = b as (particular, kernel basis), or None.

    With U a^T = H from row_echelon_transform, x = U^T y turns a x = b into
    sum_i y_i H_i = b, solved down the echelon: each nonzero row fixes y_i
    from its pivot (exactly, or there is no solution) and leaves a residual
    that must end at 0. The particular solution is sum_i y_i U_i, and the
    rows of U at the zero rows of H are a basis of the saturated kernel
    lattice: rows of a unimodular matrix, so primitive.
    """
    h, u = row_echelon_transform(transpose(a))
    rest = list(b)
    particular = [0] * len(u)
    kernel = []
    for h_i, u_i in zip(h, u):
        pivot = next((c for c, x in enumerate(h_i) if x), None)
        if pivot is None:
            kernel.append(u_i)
            continue
        y, r = divmod(rest[pivot], h_i[pivot])
        if r:
            return None
        rest = [x - y * z for x, z in zip(rest, h_i)]
        particular = [p + y * w for p, w in zip(particular, u_i)]
    if any(rest):
        return None
    return particular, kernel
