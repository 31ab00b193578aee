"""In-process probes that reproduce the baseline rows of the ROADMAP table.

Each probe runs in a fresh forked child (cold caches) and is timed by the
fork server around the call. The traced run reports them as per-layer
metrics named ``probe.<name>_s``.
"""

from __future__ import annotations

import inputs
from hkdd.dynamics import degree_spectrum, search_salem_isometries
from hkdd.hyperkahler import Sl2Matrix, kummer_first_degree
from hkdd.lattice import make_lattice
from hkdd.polynomial import IntPolynomial, char_poly
from hkdd.salem import SALEM_STRUCTURE, classify_charpoly, salem_root_of


def _lehmer_digits(digits: int):
    def probe():
        salem_root_of(IntPolynomial(inputs.LEHMER)).decimal_str(digits)

    return probe


def _e10_classify():
    g = inputs.tpqr_gram(2, 3, 7)
    cls = classify_charpoly(char_poly(inputs.coxeter_element(g, list(range(len(g))))))
    if cls.kind != SALEM_STRUCTURE or cls.salem_factor.coeffs != inputs.LEHMER:
        raise AssertionError("E10 Coxeter element did not classify as Lehmer's Salem factor")


def _spectrum_quadratic():
    d1 = kummer_first_degree(Sl2Matrix(2, 1, 1, 1))
    for n in range(1, 6):
        degree_spectrum(n, d1)


def _search_rank3(bound: int):
    def probe():
        search_salem_isometries(make_lattice(inputs.RANK3["gram"], inputs.RANK3["labels"]), bound)

    return probe


PROBES = {
    "lehmer_refine_12": _lehmer_digits(12),
    "lehmer_refine_50": _lehmer_digits(50),
    "lehmer_refine_200": _lehmer_digits(200),
    "e10_classify": _e10_classify,
    "degree_spectrum_quadratic_n1_5": _spectrum_quadratic,
    "search_rank3_b8": _search_rank3(8),
    "search_rank3_b16": _search_rank3(16),
}
