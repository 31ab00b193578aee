"""Independent references that only the tests use: a float power
iteration, a symmetric power and its dimension, a Fraction rank, integer
solvability by determinantal divisors, the product a classification
multiplies back to, the coefficient-list decoder of the JSON polynomial
format and the reader of its algebraic reals, and the argparse parser of the
command line.
"""

import argparse
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from hkdd.jsonio import InputParseError, decode_int
from hkdd.polynomial import AlgebraicReal, IntPolynomial, cyclotomic
from hkdd.salem import SalemClassification


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


def sym_power_matrix(m: list[list[int]], k: int) -> list[list[int]]:
    """Induced action on Sym^k in the basis of sorted degree-k monomials.

    Column J (a multiset of basis indices) is the expansion of the product
    of the images of its factors; eigenvalues of the result are the k-fold
    products of eigenvalues of m.
    """
    if k < 1:
        raise ValueError("symmetric power k must be >= 1")
    r = len(m)
    basis = list(itertools.combinations_with_replacement(range(r), k))
    index = {mono: i for i, mono in enumerate(basis)}
    out = [[0] * len(basis) for _ in range(len(basis))]
    for col, mono in enumerate(basis):
        acc: dict[tuple[int, ...], int] = {(): 1}
        for j in mono:
            nxt: dict[tuple[int, ...], int] = {}
            for part, coef in acc.items():
                for i in range(r):
                    mij = m[i][j]
                    if mij == 0:
                        continue
                    key = tuple(sorted(part + (i,)))
                    nxt[key] = nxt.get(key, 0) + coef * mij
            acc = nxt
        for part, coef in acc.items():
            if coef:
                out[index[part]][col] = coef
    return out


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


def rebuild_product(c: SalemClassification) -> IntPolynomial:
    """Multiply the classified factors, the remainder included, back together."""
    out = c.remainder
    for n, mult in c.cyclotomic_factors:
        for _ in range(mult):
            out = out * cyclotomic(n)
    return out


def algebraic_real_from_json(obj: dict) -> AlgebraicReal:
    """The AlgebraicReal of a JSON root: its poly and interval (lo, hi]."""
    return AlgebraicReal(IntPolynomial(tuple(obj["poly"])), Fraction(obj["lo"]), Fraction(obj["hi"]))


def decode_coeffs(obj) -> list[int]:
    if not isinstance(obj, list):
        raise InputParseError("polynomial must be a list of coefficients")
    return [decode_int(x) for x in obj]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its command table: the
    reference that the table's parser must agree with on every command line
    it accepts, apart from global options after the command."""
    parser = argparse.ArgumentParser(
        prog="hkdd",
        description=(
            "Exact dynamical degree spectra and entropy of hyperkahler lattice "
            "automorphisms, with Salem classification of characteristic "
            "polynomials."
        ),
        epilog=(
            "Polynomial coefficients are given constant term FIRST: x^2 - 34x + 1 "
            "is '1 -34 1'."
        ),
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format (default: table)",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=12,
        help="significant digits for decimals (default: 12, minimum 3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="rank, parity, signature, determinant")
    p.add_argument("lattice", help="lattice JSON file")

    p = sub.add_parser("degrees", help="full dynamical degree spectrum and entropy")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    p.add_argument("--half-dim", type=int, default=2, help="n with dim = 2n (default 2)")

    p = sub.add_parser("salem-check", help="classify a monic integer polynomial")
    p.add_argument("coeffs", type=int, nargs="+", help="coefficients, constant first")

    p = sub.add_parser("kummer", help="spectrum of an SL(2,Z) torus automorphism")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--half-dim", type=int, default=2, help="points on the Kummer surface (default 2)")

    sub.add_parser(
        "beauville-demo",
        help="reproduce the quartic-pair example end to end (no inputs needed)",
    )

    p = sub.add_parser(
        "natural-check",
        help="necessary condition for being induced from a surface automorphism",
    )
    p.add_argument("--lattice", required=True, help="extended lattice JSON file")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    p.add_argument("--half-dim", type=int, default=2, help="points n (default 2)")
    p.add_argument(
        "--e-index",
        type=int,
        default=None,
        help='index of the exceptional class (default: the basis labelled "e")',
    )

    p = sub.add_parser("search", help="catalogue Salem isometries within an entry bound")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--bound", type=int, default=8, help="entry bound (default 8)")

    return parser
