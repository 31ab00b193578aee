"""Independent references that only the tests use: a float power
iteration, the dimension of a symmetric power, a Fraction rank, integer
solvability by determinantal divisors, and the coefficient-list decoder of
the JSON polynomial format.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from hkdd.jsonio import InputParseError, decode_int


def power_iteration_radius(m: list[list[int]], iters: int = 500, tol: float = 1e-12) -> float:
    """Spectral radius by plain power iteration with a deterministic start."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    x = np.ones(n) / math.sqrt(n)
    estimate = 0.0
    for _ in range(iters):
        y = a @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        if abs(norm - estimate) <= tol * max(1.0, norm):
            return norm
        estimate = norm
        x = y / norm
    return estimate


def sym_power_dim(rank: int, k: int) -> int:
    return math.comb(rank + k - 1, k)


def rational_rank(a: list[list[int]]) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    if not a or not a[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def leibniz_det(m: list[list[int]]) -> int:
    """Determinant as the signed sum over permutations (1 for 0 x 0)."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
        total += (-1) ** inversions * math.prod(m[i][p] for i, p in enumerate(perm))
    return total


def minors_gcd(a: list[list[int]], k: int) -> int:
    """gcd of the k x k minors of a (the k-th determinantal divisor)."""
    return math.gcd(
        *(
            leibniz_det([[a[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(range(len(a)), k)
            for cs in itertools.combinations(range(len(a[0])), k)
        )
    )


def integer_solvable(a: list[list[int]], b: list[int]) -> bool:
    """Does a x = b have an integer solution? Yes exactly when a and [a | b]
    share their rank r and the gcd of their r x r minors."""
    augmented = [[*row, x] for row, x in zip(a, b)]
    r = rational_rank(a)
    return r == rational_rank(augmented) and minors_gcd(a, r) == minors_gcd(augmented, r)


def decode_coeffs(obj) -> list[int]:
    if not isinstance(obj, list):
        raise InputParseError("polynomial must be a list of coefficients")
    return [decode_int(x) for x in obj]
