"""Independent references that only the tests use: a float power
iteration, the dimension of a symmetric power, a Fraction rank, and the
coefficient-list decoder of the JSON polynomial format.
"""

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


def decode_coeffs(obj) -> list[int]:
    if not isinstance(obj, list):
        raise InputParseError("polynomial must be a list of coefficients")
    return [decode_int(x) for x in obj]
