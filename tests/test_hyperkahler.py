import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdd import cli, fixtures, hyperkahler, linalg
from hkdd.dynamics import degree_spectrum, exact_power_str, first_dynamical_degree, spectrum_decimals
from hkdd.errors import HkddError, NotUnimodularError
from hkdd.hyperkahler import (
    NOT_NATURAL,
    POSSIBLY_NATURAL,
    HilbertLattice,
    Sl2Matrix,
    compose,
    hilbert_from_extended,
    hilbert_lattice,
    kummer_first_degree,
    kummer_spectrum,
    naturality_certificate,
    power,
    solve_beauville,
)
from hkdd.jsonio import load_lattice, load_matrix
from hkdd.lattice import invariant_sublattice, make_lattice, norm_of, verify_isometry
from hkdd.salem import is_salem_polynomial
from hkdd.polynomial import IntPolynomial
from conftest import row_decimals
from oracles import as_float, natural_isometry, product_beauville
from test_cli_golden import CASES, _resolve


def test_sl2_matrix_needs_determinant_one():
    m = Sl2Matrix(2, 1, 1, 1)
    assert (m.trace, m.rows()) == (3, [[2, 1], [1, 1]])
    for entries in [(2, 1, 1, 2), (1, 0, 0, -1), (0, 0, 0, 0)]:
        with pytest.raises(NotUnimodularError):
            Sl2Matrix(*entries)


def test_hilbert_lattice_examples(quartic_pair):
    h = hilbert_lattice(make_lattice([[4]], ["H"]), 2)
    assert h.extended.gram == ((4, 0), (0, -2))
    assert h.extended.labels == ("H", "e")
    assert hilbert_lattice(make_lattice([[4]]), 3).extended.gram == ((4, 0), (0, -4))
    mid = hilbert_lattice(quartic_pair, 2, e_index=1)
    assert mid.extended.gram == ((4, 0, 8), (0, -2, 0), (8, 0, 4))
    assert mid.extended.labels == ("H1", "e", "H2")
    with pytest.raises(HkddError, match="need n >= 2 points, got 1"):
        hilbert_lattice(quartic_pair, 1)


def test_hilbert_from_extended(rank3):
    h = hilbert_from_extended(rank3, 2)
    assert h.e_index == 1
    assert h.base.gram == ((4, 8), (8, 4))
    with pytest.raises(HkddError, match=r"\(e, e\) = -2, need -4 for n = 3"):
        hilbert_from_extended(rank3, 3)  # (e,e) = -2 but -2n+2 = -4


def test_natural_isometry_block_structure(hilb2):
    neg = verify_isometry(make_lattice([[4]], ["H"]), [[-1]])
    h = hilbert_lattice(make_lattice([[4]], ["H"]), 2)
    ext = natural_isometry(neg, h)
    assert ext.rows() == [[-1, 0], [0, 1]]
    ident = verify_isometry(hilb2.base, linalg.identity(2))
    assert natural_isometry(ident, hilb2).rows() == linalg.identity(3)


def test_natural_isometry_preserves_first_degree(hilb2):
    from hkdd.dynamics import search_salem_isometries

    found = search_salem_isometries(hilb2.base, 5)
    assert found
    for m, root in found:
        base_iso = verify_isometry(hilb2.base, m)
        ext = natural_isometry(base_iso, hilb2)
        d_base = first_dynamical_degree(base_iso)
        d_ext = first_dynamical_degree(ext)
        assert d_ext.compare_to(d_base) == 0
        # e itself stays fixed, so naturality is possible by construction
        assert naturality_certificate(ext, hilb2).verdict == POSSIBLY_NATURAL


def test_beauville_rank2():
    h = hilbert_lattice(make_lattice([[4]], ["H"]), 2)
    iso = solve_beauville(h, 0).isometry
    assert iso.rows() == [[3, 2], [-4, -3]]


def test_beauville_reproduces_m1_m2(hilb2, m1, m2):
    sol1 = solve_beauville(hilb2, 0)
    assert sol1.isometry.matrix == m1
    sol2 = solve_beauville(hilb2, 2)
    assert sol2.isometry.matrix == m2
    # the two-candidate trace of the H2 image
    (rec,) = sol1.records
    assert set(rec.candidates) == {(8, -8, -1), (4, -8, 1)}
    assert rec.chosen == (8, -8, -1)
    reasons = dict(rec.rejections)
    assert "rank 2" in reasons[(4, -8, 1)]
    assert sol1.assumed_hypotheses


def test_beauville_involution_invariants(hilb2):
    for idx in (0, 2):
        iso = solve_beauville(hilb2, idx).isometry
        assert linalg.mat_mul(iso.rows(), iso.rows()) == linalg.identity(3)
        fixed = invariant_sublattice(iso)
        assert len(fixed) == 1
        h_minus_e = [0, 0, 0]
        h_minus_e[idx] = 1
        h_minus_e[hilb2.e_index] = -1
        assert fixed[0] in (h_minus_e, [-x for x in h_minus_e])
        assert norm_of(hilb2.extended, fixed[0]) == 2


def test_beauville_error_paths(quartic_pair):
    h = hilbert_lattice(quartic_pair, 2, e_index=1)
    with pytest.raises(HkddError, match="bad quartic class index 1"):
        solve_beauville(h, 1)  # e itself
    h3 = hilbert_lattice(make_lattice([[2]]), 2)
    with pytest.raises(HkddError, match="class b1 has norm 2, need 4"):
        solve_beauville(h3, 0)  # norm 2, not a quartic class


@pytest.mark.parametrize(
    "gram, message",
    [
        ([[4, 1], [1, -2]], r"\(e, H\) = 1, need 0"),
        ([[4, 0], [0, -4]], r"\(e, e\) = -4, need -2"),
    ],
)
def test_beauville_checks_the_gram_hypotheses(gram, message):
    # a hand-built HilbertLattice can break what -s_(h-e) needs
    hilb = HilbertLattice(
        base=make_lattice([[4]], ["H"]), n=2, extended=make_lattice(gram, ["H", "e"]), e_index=1
    )
    with pytest.raises(HkddError, match=message):
        solve_beauville(hilb, 0)


def test_beauville_lets_unexpected_errors_through(hilb2, monkeypatch):
    # only NotIsometryError means "not an isometry"; a fault inside the
    # check must surface, not be recorded as a rejected candidate
    def broken(lat, m):
        raise RuntimeError("fault inside verify_isometry")

    monkeypatch.setattr(hyperkahler, "verify_isometry", broken)
    with pytest.raises(RuntimeError, match="fault inside"):
        solve_beauville(hilb2, 0)


def test_beauville_extra_class_always_resolves():
    # the involution extends across a range of extra classes; every run
    # passes the full filter stack
    for p in range(-3, 4):
        for q in (-4, -2, 0, 2, 6):
            base = make_lattice([[4, p], [p, q]], ["H", "x"])
            sol = solve_beauville(hilbert_lattice(base, 2), 0)
            m = sol.isometry.rows()
            assert linalg.mat_mul(m, m) == linalg.identity(3)
            assert len(invariant_sublattice(sol.isometry)) == 1


def test_beauville_rank3_matches_the_product_search():
    # on a nondegenerate rank-3 lattice each candidate list is complete and
    # each combination holds one candidate, so the closed form must give the
    # search's records too, reasons included; det G = -2(4c - b^2), and on a
    # degenerate lattice the closed form keeps no records
    degenerate = 0
    for b in range(-6, 7):
        for c in range(-6, 7):
            for slot in range(3):
                hilb = hilbert_lattice(make_lattice([[4, b], [b, c]]), 2, e_index=slot)
                h = 1 if slot == 0 else 0
                expected = product_beauville(hilb, h, budget=40_000)
                got = solve_beauville(hilb, h)
                if 4 * c == b * b:
                    assert (got.isometry, got.records) == (expected.isometry, ())
                    degenerate += 1
                else:
                    assert (got.isometry, got.records) == (expected.isometry, expected.records)
    assert degenerate == 5 * 3  # (b, c) = (0, 0), (+-2, 1) and (+-4, 4), at each slot


def test_beauville_rank4_isometry_matches_the_product_search():
    # a rejection reason may differ: the search gives the first failing
    # combination's reason, the closed form the reason in place in iota
    rng = random.Random(4)
    compared = 0
    for _ in range(120):
        a, b, d = (rng.randint(-3, 3) for _ in range(3))
        c, f = rng.randint(-6, 6), rng.randint(-6, 6)
        slot = rng.randint(0, 3)
        base = make_lattice([[4, a, b], [a, c, d], [b, d, f]])
        hilb = hilbert_lattice(base, 2, e_index=slot)
        h = 1 if slot == 0 else 0
        expected = product_beauville(hilb, h, budget=40_000)
        if expected is None:
            continue
        assert solve_beauville(hilb, h).isometry == expected.isometry
        compared += 1
    assert compared > 100


def test_integer_quadratic_roots_helper():
    from hkdd.lattice import _integer_quadratic_roots

    assert _integer_quadratic_roots(1, -3, 2, 64) == [1, 2]
    assert _integer_quadratic_roots(1, 0, -2, 64) == []  # disc 8 not a square
    assert _integer_quadratic_roots(1, 0, 2, 64) == []  # disc < 0
    assert _integer_quadratic_roots(0, 3, -6, 64) == [2]
    assert _integer_quadratic_roots(0, 3, -7, 64) == []
    assert _integer_quadratic_roots(0, 0, 0, 2) == [-2, -1, 0, 1, 2]
    assert _integer_quadratic_roots(0, 0, 5, 2) == []


def product_beauville_candidates(lat, h, e, x, iota_h, iota_e, reach):
    """Every kernel coordinate run over [-reach, reach], none solved for, as
    (largest |t|, point) pairs."""
    g = lat.gram_rows()
    r = lat.rank
    unit = [[int(i == j) for i in range(r)] for j in range(r)]
    rows = [linalg.mat_vec(g, iota_h), linalg.mat_vec(g, iota_e)]
    rhs = [linalg.bilinear(g, unit[x], unit[h]), linalg.bilinear(g, unit[x], unit[e])]
    u0, kernel = linalg.solve_integer_system(rows, rhs)
    found = []
    for ts in itertools.product(range(-reach, reach + 1), repeat=len(kernel)):
        v = [u + sum(t * k[i] for t, k in zip(ts, kernel)) for i, u in enumerate(u0)]
        if linalg.bilinear(g, v, v) == g[x][x]:
            found.append((max(map(abs, ts)), tuple(v)))
    return found, len(kernel)


@pytest.mark.parametrize(
    "base",
    [
        [[4, 0], [0, -2]],
        [[4, 2], [2, -6]],
        [[4, 1], [1, 2]],
        [[4, 3], [3, -4]],
    ],
)
def test_beauville_candidates_match_full_product(base):
    # rank 3, nondegenerate: the kernel is one line and its quadratic is
    # proper, so the scan holds every root once it finds them well inside
    hilb = hilbert_lattice(make_lattice(base), 2)
    lat, e = hilb.extended, hilb.e_index
    iota_h = [0] * lat.rank
    iota_h[0], iota_h[e] = 3, -4
    iota_e = [0] * lat.rank
    iota_e[0], iota_e[e] = 2, -3
    found, dim = product_beauville_candidates(lat, 0, e, 1, iota_h, iota_e, 400)
    assert dim == 1 and 1 <= len(found) <= 2
    assert max(t for t, _ in found) < 200
    assert hyperkahler._beauville_candidates(lat, 0, e, 1, iota_h, iota_e) == sorted(v for _, v in found)


def test_compose_convention_and_power(rank3, m1, m2, m1m2):
    i1 = verify_isometry(rank3, m1)
    i2 = verify_isometry(rank3, m2)
    assert compose(i1, i2).rows() == m1m2
    assert power(i1, 2).rows() == linalg.identity(3)
    assert power(i1, 0).rows() == linalg.identity(3)
    with pytest.raises(HkddError, match="cannot compose isometries of different lattices"):
        compose(i1, verify_isometry(make_lattice([[4]]), [[1]]))


def test_power_degree_multiplicative(rank3, iso_m1m2):
    d1 = as_float(first_dynamical_degree(iso_m1m2))
    for ell in (1, 2, 3, 4):
        d_ell = as_float(first_dynamical_degree(power(iso_m1m2, ell)))
        assert abs(d_ell - d1**ell) / d1**ell < 1e-6


def test_kummer_first_degree_branches():
    assert kummer_first_degree(Sl2Matrix(1, 1, 0, 1)) == 1  # t = 2
    assert kummer_first_degree(Sl2Matrix(0, -1, 1, 0)) == 1  # t = 0
    d = kummer_first_degree(Sl2Matrix(2, 1, 1, 1))  # t = 3
    assert d.poly == IntPolynomial((1, -7, 1))
    assert as_float(d) == pytest.approx((3 + math.sqrt(5)) ** 2 / 4, rel=1e-12)
    assert exact_power_str(d, 1)[1] == "(7+3*sqrt(5))/2"
    dm = kummer_first_degree(Sl2Matrix(-2, -1, -1, -1))  # t = -3
    assert dm.compare_to(d) == 0
    with pytest.raises(NotUnimodularError):
        Sl2Matrix(2, 0, 0, 1)


def test_kummer_inverse_symmetry():
    rng = random.Random(67)
    mats = [Sl2Matrix(1, 1, 0, 1), Sl2Matrix(2, 1, 1, 1), Sl2Matrix(3, 1, 2, 1),
            Sl2Matrix(-2, -1, -1, -1), Sl2Matrix(6, 5, 1, 1)]
    for _ in range(10):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c = rng.randint(-3, 3)
        # ad - bc = 1 -> pick d if divisible
        num = 1 + b * c
        if a != 0 and num % a == 0:
            mats.append(Sl2Matrix(a, b, c, num // a))
    for m in mats:
        inv = Sl2Matrix(m.d, -m.b, -m.c, m.a)
        d, di = kummer_first_degree(m), kummer_first_degree(inv)
        if isinstance(d, int):
            assert di == d
        else:
            assert d.compare_to(di) == 0


def test_kummer_family_is_salem_or_one():
    for t in range(3, 9):
        p = IntPolynomial((1, -(t * t - 2), 1))
        assert is_salem_polynomial(p)
    for t in (-2, -1, 0, 1, 2):
        mats = {2: Sl2Matrix(1, 1, 0, 1), 0: Sl2Matrix(0, -1, 1, 0),
                1: Sl2Matrix(1, -1, 1, 0), -1: Sl2Matrix(0, 1, -1, -1),
                -2: Sl2Matrix(-1, 0, 0, -1)}
        assert kummer_first_degree(mats[t]) == 1


def test_kummer_spectrum_values():
    spec = kummer_spectrum(Sl2Matrix(2, 1, 1, 1), 2)
    dec = spectrum_decimals(spec, 17)
    q = (7 + 3 * math.sqrt(5)) / 2
    assert [float(d) for d in row_decimals(spec, dec)] == pytest.approx([1, q, q * q, q, 1], rel=1e-10)
    assert float(dec.nats) == pytest.approx(2 * math.log(q), rel=1e-12)
    dec3 = spectrum_decimals(kummer_spectrum(Sl2Matrix(2, 1, 1, 1), 3), 17)
    assert float(dec3.nats) == pytest.approx(3 * math.log(q), rel=1e-12)
    spec_flat = kummer_spectrum(Sl2Matrix(1, 1, 0, 1), 5)
    flat = spectrum_decimals(spec_flat, 17)
    assert [float(d) for d in row_decimals(spec_flat, flat)] == [1.0] * 11
    assert float(flat.nats) == 0.0
    with pytest.raises(HkddError, match="need n >= 2 points, got 1"):
        kummer_spectrum(Sl2Matrix(2, 1, 1, 1), 1)


def test_naturality_certificate_m1m2(hilb2, iso_m1m2):
    cert = naturality_certificate(iso_m1m2, hilb2)
    assert cert.verdict == NOT_NATURAL
    assert cert.witness == ((1, -6, 1), -48)
    assert cert.required_norm == -2


def test_naturality_identity_possible(hilb2):
    ident = verify_isometry(hilb2.extended, linalg.identity(3))
    cert = naturality_certificate(ident, hilb2)
    assert cert.verdict == POSSIBLY_NATURAL
    assert len(cert.fixed_basis) == 3


def test_naturality_rank1_square_scaling():
    # fixed generator of norm -8 cannot reach -2 (needs k^2 * -8 = -2),
    # but a generator of norm -2 works with k = 1
    base = make_lattice([[4]], ["H"])
    h = hilbert_lattice(base, 2)
    iota = solve_beauville(h, 0).isometry
    cert = naturality_certificate(iota, h)
    # fixed lattice is Z<H - e> of norm 4 - 2 = 2: k^2 * 2 = -2 impossible
    assert cert.verdict == NOT_NATURAL
    assert cert.witness == ((1, -1), 2)


@functools.cache
def box(rank: int):
    """Every integer vector of [-4, 4]^rank, one per row."""
    return np.array(list(itertools.product(range(-4, 5), repeat=rank)))


def assert_certificate_holds_in_the_box(iso, hilb) -> tuple[str, int]:
    """No NotNatural verdict meets a fixed vector of norm -2n+2 in
    [-4, 4]^r, found by brute force, and a rank-1 PossiblyNatural verdict
    has a multiple k v of its generator v with that norm; returns the
    verdict and the rule that gave it: the fixed rank, 0, 1 or 2 for any
    rank from 2 on."""
    cert = naturality_certificate(iso, hilb)
    required = hilb.e_norm
    if cert.verdict == NOT_NATURAL:
        v = box(iso.rank)
        fixed = v[(v @ (np.array(iso.matrix) - np.eye(iso.rank, dtype=int)).T == 0).all(axis=1)]
        norms = np.einsum("ij,jk,ik->i", fixed, np.array(hilb.extended.gram), fixed)
        assert required not in norms
    elif len(cert.fixed_basis) == 1:
        (v,) = cert.fixed_basis
        kv = [math.isqrt(required // norm_of(hilb.extended, v)) * x for x in v]
        assert norm_of(hilb.extended, kv) == required and linalg.mat_vec(iso.rows(), kv) == kv
    return cert.verdict, min(len(cert.fixed_basis), 2)


WORD_LETTERS = {"M1": fixtures.M1, "M2": fixtures.M2, "-I": [[-int(i == j) for j in range(3)] for i in range(3)]}


@settings(max_examples=80)
@given(st.lists(st.sampled_from(sorted(WORD_LETTERS)), max_size=8))
def test_naturality_certificate_agrees_with_brute_force_on_words(hilb2, word):
    m = linalg.identity(3)
    for letter in word:
        m = linalg.mat_mul(m, WORD_LETTERS[letter])
    assert_certificate_holds_in_the_box(verify_isometry(hilb2.extended, m), hilb2)


def test_naturality_certificate_agrees_with_brute_force_on_the_goldens():
    # the isometry inputs of the natural-check goldens, which between them
    # reach every rule, and both verdicts of the rank-1 and rank >= 2 rules
    outcomes = set()
    for case, argv in CASES.items():
        if case.startswith("natural-check"):
            args = cli._parse(_resolve(argv.split()))
            lat = load_lattice(args.lattice)
            hilb = hilbert_from_extended(lat, args.half_dim, args.e_index)
            iso = verify_isometry(lat, load_matrix(args.isometry))
            outcomes.add(assert_certificate_holds_in_the_box(iso, hilb))
    assert outcomes == {(NOT_NATURAL, 0), (NOT_NATURAL, 1), (POSSIBLY_NATURAL, 1),
                        (NOT_NATURAL, 2), (POSSIBLY_NATURAL, 2)}
