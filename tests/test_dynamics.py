import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cmp_to_key

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdd import dynamics, linalg
from hkdd.dynamics import (
    degree_spectrum,
    enumerate_isometries,
    exact_power_str,
    first_dynamical_degree,
    power_decimal,
    search_salem_isometries,
    spectrum_decimals,
    validate_spectrum_shape,
)
from hkdd.errors import SpectralStructureViolatedError
from hkdd.lattice import make_lattice, verify_isometry
from hkdd.polynomial import (
    AlgebraicReal,
    char_poly,
    isolate_real_roots,
    poly,
    power_traces,
    reciprocal_char_poly,
)
from hkdd.salem import SALEM_STRUCTURE, classify_charpoly, is_salem_polynomial
from conftest import assert_correctly_rounded, mp_root
from oracles import power_iteration_radius, sym_power_dim, sym_power_matrix


@pytest.fixture(scope="module")
def root34():
    return isolate_real_roots(poly(1, -34, 1))[-1]


@pytest.fixture(scope="module")
def catalogue(rank3):
    return search_salem_isometries(rank3, 8)


def test_first_dynamical_degree(rank3, m1, iso_m1m2):
    d1 = first_dynamical_degree(iso_m1m2)
    assert d1.exact_str() == "17+12*sqrt(2)"
    assert float(d1) == pytest.approx(33.970562748477, abs=1e-9)
    assert first_dynamical_degree(verify_isometry(rank3, m1)) == 1
    assert first_dynamical_degree(verify_isometry(rank3, linalg.identity(3))) == 1


def test_first_degree_matches_power_iteration(iso_m1m2):
    d1 = first_dynamical_degree(iso_m1m2)
    rho = power_iteration_radius(iso_m1m2.rows())
    assert abs(float(d1) - rho) / rho < 1e-6


def test_degree_spectrum_exact_table(root34):
    spec = degree_spectrum(2, root34)
    assert [e.exact for e in spec.entries] == [
        "1",
        "17+12*sqrt(2)",
        "577+408*sqrt(2)",
        "17+12*sqrt(2)",
        "1",
    ]
    dec = spectrum_decimals(spec, 17)
    assert float(dec.entries[2]) == pytest.approx(
        (17 + 12 * math.sqrt(2)) ** 2, rel=1e-12
    )
    assert float(dec.nats) == pytest.approx(2 * math.log(17 + 12 * math.sqrt(2)), rel=1e-12)
    assert spec.entropy_exact == "2*log(17+12*sqrt(2))"


def test_degree_spectrum_trivial():
    spec = degree_spectrum(4, 1)
    dec = spectrum_decimals(spec, 17)
    assert [float(d) for d in dec.entries] == [1.0] * 9
    assert float(dec.nats) == 0.0
    assert validate_spectrum_shape(dec.entries).ok


def test_spectrum_palindrome_and_product_law(root34):
    # palindrome d_k = d_{2n-k}, and the multiplicative face of the power law
    # on the rising leg: d_k * d_{n-k} = d_n
    for n in (1, 2, 3, 4):
        values = [float(d) for d in spectrum_decimals(degree_spectrum(n, root34), 17).entries]
        for k in range(2 * n + 1):
            assert values[k] == pytest.approx(values[2 * n - k], rel=1e-9)
        for k in range(n + 1):
            assert values[k] * values[n - k] == pytest.approx(values[n], rel=1e-9)


def test_exact_power_str_quadratic(root34):
    assert exact_power_str(root34, [2, 0, 1]) == ["577+408*sqrt(2)", "1", "17+12*sqrt(2)"]
    assert exact_power_str(isolate_real_roots(poly(1, -7, 1))[-1], [1, 3]) == ["(7+3*sqrt(5))/2", "161+72*sqrt(5)"]
    assert exact_power_str(1, [0, 1, 2]) == ["1", "1", "1"]
    [cube] = power_decimal(root34, [3], 17).entries
    assert float(cube) == pytest.approx((17 + 12 * math.sqrt(2)) ** 3, rel=1e-12)
    assert float(cube) == pytest.approx(39201.99997449, abs=1e-5)


def test_exact_power_str_builds_one_exact_string(monkeypatch):
    lehmer = isolate_real_roots(poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))[-1]
    calls = []
    exact_str = type(lehmer).exact_str
    monkeypatch.setattr(type(lehmer), "exact_str", lambda self: calls.append(1) or exact_str(self))
    spec = degree_spectrum(8, lehmer)
    assert len(calls) == 1
    base = spec.entries[1].exact
    assert base.startswith("root #2 of x^10 + x^9")
    assert [e.exact for e in spec.entries[:3]] == ["1", base, f"({base})^2"]
    assert spec.entropy_exact == f"8*log({base})"


def test_degree_spectrum_makes_no_walk_and_no_float(root34, monkeypatch):
    def forbidden(*args):
        raise AssertionError("degree_spectrum must stay exact")

    monkeypatch.setattr(dynamics, "power_decimal", forbidden)
    monkeypatch.setattr(type(root34), "__float__", forbidden)
    spec = degree_spectrum(5, root34)
    assert spec.entries[5].exact == exact_power_str(root34, [5])[0]


def test_degree_spectrum_past_double_range():
    d1 = isolate_real_roots(poly(1, -7, 1))[-1]  # (7+3*sqrt(5))/2, log10 about 0.836
    spec = degree_spectrum(400, d1)
    assert spec.entries[400].exact.endswith("*sqrt(5))/2")
    dec = spectrum_decimals(spec, 12)
    assert dec.entries[368].endswith("E+307") and dec.entries[369].endswith("E+308")
    assert dec.entries[400].endswith("E+334") and dec.entries[431] == dec.entries[369]
    assert dec.nats == "769.938920095"  # 400 * ln((7+3*sqrt(5))/2), mpmath
    # d_1 has 12 digits, so d_1^400 is off by up to 400 half-units in the last
    shape = validate_spectrum_shape(dec.entries, tolerance=1e-8)
    assert shape.ok, shape.violations


def test_validate_spectrum_shape_past_double_range():
    # entries and powers past the double range are judged like any other
    report = validate_spectrum_shape([1.0, 1e200, 1e300, 1e200, 1.0])
    assert any("power-law violation at k=2" in v for v in report.violations)
    assert validate_spectrum_shape(["1", "1E+200", "1E+400", "1E+200", "1"]).ok


def test_power_decimal_certified(root34):
    assert power_decimal(root34, [2], 12).entries == ("1153.99913345",)
    assert power_decimal(root34, [1], 12).entries == ("33.9705627485",)
    assert power_decimal(root34, [2, 0, 1], 12).entries == ("1153.99913345", "1", "33.9705627485")
    with pytest.raises(ValueError):
        power_decimal(root34, [-1], 12)
    with pytest.raises(ValueError):
        power_decimal(isolate_real_roots(poly(1, -34, 1))[0], [1], 12)  # 17-12*sqrt(2) < 1


def test_power_decimal_needs_a_unit():
    # sqrt(27/8) is no unit, and its square 3.375 sits on a 3-digit rounding
    # boundary, where a walk that only compares rounded ends would never end
    d1 = AlgebraicReal(poly(-27, 0, 8), 1, 2)
    with pytest.raises(ValueError, match="unit"):
        power_decimal(d1, [2], 3)


@pytest.mark.parametrize("digits", [12, 50, 200])
@pytest.mark.parametrize(
    "defining, n",
    [
        (poly(1, -34, 1), 2),
        (poly(1, -7, 1), 3),
        (poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), 5),  # Lehmer
        (poly(1, -3134, 1), 92),  # Kummer trace 56
    ],
    ids=["root34", "kummer_t3", "lehmer", "kummer_t56"],
)
def test_entropy_within_one_ulp_of_mpmath(defining, n, digits):
    d1 = isolate_real_roots(defining)[-1]
    dec = spectrum_decimals(degree_spectrum(n, d1), digits)
    root = mp_root(defining, d1)
    assert_correctly_rounded(dec.nats, lambda: n * mpmath.log(root()), digits)
    assert_correctly_rounded(dec.log10, lambda: n * mpmath.log10(root()), digits)


def test_power_decimal_logarithm_near_one():
    # root 1 + 10^-30: ln is about 10^-30 and needs 30 digits past the leading
    # zeros, which the working precision of _log_bounds counts
    x = AlgebraicReal(poly(-(10**30 + 1), 10**30), 1, 2)
    a, b, den = next((a, b, den) for a, b, den in x.bisection_path() if (b - a) * 10**14 < a - den)
    (ln_lo, ln_hi, ln_den), (lg_lo, lg_hi, lg_den) = dynamics._log_bounds(a, b, den)
    with mpmath.workdps(80):
        true = mpmath.log(1 + mpmath.mpf(10) ** -30)
        for lo, hi, d, value in ((ln_lo, ln_hi, ln_den, true), (lg_lo, lg_hi, lg_den, true / mpmath.log(10))):
            assert mpmath.mpf(lo) / d <= value <= mpmath.mpf(hi) / d
            assert hi - lo < Fraction(1, 10**13) * lo


@pytest.mark.parametrize("digits", [3, 12, 50, 200])
def test_shape_check_reads_certified_decimals(root34, digits):
    tolerance = Decimal(10) ** (2 - digits)
    for d1 in (root34, isolate_real_roots(poly(1, -7, 1))[-1]):
        entries = list(spectrum_decimals(degree_spectrum(2, d1), digits).entries)
        assert validate_spectrum_shape(entries, tolerance).ok
        # moving d_2 by 100 units in its last digit breaks the power law
        with localcontext() as ctx:
            ctx.prec = digits + 5
            entries[2] = str(Decimal(entries[2]) * (1 + Decimal(10) ** (3 - digits)))
        report = validate_spectrum_shape(entries, tolerance)
        assert any(v.startswith("power-law violation at k=2") for v in report.violations)


def test_entropy_additive_under_iteration(rank3, iso_m1m2):
    from hkdd.hyperkahler import power

    def nats(iso):
        return float(spectrum_decimals(degree_spectrum(2, first_dynamical_degree(iso)), 17).nats)

    base = nats(iso_m1m2)
    for ell in (1, 2, 3, 4):
        assert nats(power(iso_m1m2, ell)) == pytest.approx(ell * base, abs=1e-9)


def test_validate_spectrum_shape_flags():
    report = validate_spectrum_shape([1, 3, 4, 3, 1])
    assert not report.ok
    assert any("power-law violation" in v for v in report.violations)
    # concavity holds for that table, so it must not be flagged
    assert not any("concavity" in v for v in report.violations)
    report = validate_spectrum_shape([1, 3, 9, 3, 1])
    assert report.ok
    report = validate_spectrum_shape([1, 3, 2, 3, 1])
    assert any("log-concavity" in v for v in report.violations)
    report = validate_spectrum_shape([1, 1, 1])
    assert report.ok


def test_sym_power_matrix_identity_and_dims():
    ident = linalg.identity(4)
    s2 = sym_power_matrix(ident, 2)
    assert s2 == linalg.identity(10)
    assert sym_power_dim(23, 2) == 276
    assert len(sym_power_matrix(linalg.identity(23), 2)) == 276


def test_sym_power_eigenvalue_law(iso_m1m2):
    d1 = float(first_dynamical_degree(iso_m1m2))
    s2 = sym_power_matrix(iso_m1m2.rows(), 2)
    rho = power_iteration_radius(s2)
    assert abs(rho - d1 * d1) / (d1 * d1) < 1e-6
    s3 = sym_power_matrix(iso_m1m2.rows(), 3)
    rho3 = power_iteration_radius(s3)
    assert abs(rho3 - d1**3) / d1**3 < 1e-6


def test_sym_power_multiplicativity_on_search_results(rank3, catalogue):
    for m, root in catalogue[:4]:
        rho = power_iteration_radius(sym_power_matrix(m, 2))
        expected = float(root) ** 2
        assert abs(rho - expected) / expected < 1e-6


def test_multiplicity_one(iso_m1m2):
    # the Salem certificate implies that d1^k is a simple eigenvalue of
    # Sym^k; numpy's eigenvalue moduli confirm it for k = 1..3
    import numpy as np

    m = iso_m1m2.rows()
    assert classify_charpoly(char_poly(m)).kind == SALEM_STRUCTURE
    d1 = float(first_dynamical_degree(iso_m1m2))
    for k in (1, 2, 3):
        moduli = np.abs(np.linalg.eigvals(np.array(sym_power_matrix(m, k), dtype=float)))
        assert np.sum(np.abs(moduli - d1**k) <= 1e-6 * d1**k) == 1


def test_spectral_structure_violated_carries_diagnostic():
    # block sum of two copies of a positive-entropy isometry: Salem factor squared
    g2 = [[2, 3], [3, 2]]
    m = [[3, 1], [-1, 0]]
    g4 = [[2, 3, 0, 0], [3, 2, 0, 0], [0, 0, 2, 3], [0, 0, 3, 2]]
    m4 = [[3, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 3, 1], [0, 0, -1, 0]]
    verify_isometry(make_lattice(g2), m)
    iso = verify_isometry(make_lattice(g4), m4)
    with pytest.raises(SpectralStructureViolatedError) as err:
        first_dynamical_degree(iso)
    # the remainder (x^2 - 3x + 1)^2 has one trace root, 3, counted once
    assert str(err.value).endswith(
        "remainder (x^4 - 6*x^3 + 11*x^2 - 6*x + 1) fails the Salem test: "
        "trace root layout 1 real / 1 above 2 / 0 in (-2,2), need 2 / 1 / 1"
    )


def test_enumerate_isometries_all_verify(rank3):
    found = enumerate_isometries(rank3, 3)
    assert found
    for m in found:
        verify_isometry(rank3, m)
        assert all(abs(x) <= 3 for row in m for x in row)
    # lexicographic determinism
    assert found == enumerate_isometries(rank3, 3)


def test_catalogue_degrees_match_float_radius(rank3, catalogue):
    for m, root in catalogue:
        iso = verify_isometry(rank3, m)
        d1 = float(first_dynamical_degree(iso))
        rho = power_iteration_radius(m)
        assert abs(d1 - rho) / rho < 1e-6
        assert d1 == pytest.approx(float(root), rel=1e-12)


def test_search_catalogue_sound(rank3, catalogue):
    assert catalogue
    roots = [float(root) for _, root in catalogue]
    assert roots == sorted(roots)
    seen_polys = set()
    for m, root in catalogue:
        verify_isometry(rank3, m)
        check = is_salem_polynomial(root.poly)
        assert check
        assert root.poly.coeffs not in seen_polys
        seen_polys.add(root.poly.coeffs)
    assert (1, -34, 1) in seen_polys


def test_search_deterministic(rank3):
    a = search_salem_isometries(rank3, 5)
    b = search_salem_isometries(rank3, 5)
    assert [(m, r.poly.coeffs) for m, r in a] == [(m, r.poly.coeffs) for m, r in b]


def test_search_definite_lattice_is_empty():
    assert search_salem_isometries(make_lattice([[1, 0], [0, 1]]), 4) == []
    # diag(2, -2) only has the four sign matrices: no Salem structure either
    assert search_salem_isometries(make_lattice([[2, 0], [0, -2]]), 3) == []


def test_search_rank2_hyperbolic_family():
    n = make_lattice([[4, 8], [8, 4]])
    results = search_salem_isometries(n, 5)
    polys = {root.poly.coeffs for _, root in results}
    # the x^2 - t x + 1 family shows up through involution compositions
    assert (1, -4, 1) in polys or (1, -14, 1) in polys


def reference_search(lat, bound):
    """The search without shortcuts: every ordered pair of distinct
    involutions, one classification per matrix."""
    isometries = enumerate_isometries(lat, bound)
    hits = {}

    def consider(m):
        cls = classify_charpoly(char_poly(m))
        if cls.kind != SALEM_STRUCTURE:
            return
        key = cls.salem_factor.coeffs
        flat = tuple(itertools.chain.from_iterable(m))
        cur = hits.get(key)
        if cur is None or flat < cur[0]:
            hits[key] = (flat, m, cls.salem_root)

    for m in isometries:
        consider(m)
    ident = linalg.identity(lat.rank)
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    for a in involutions:
        for b in involutions:
            if a is not b:
                consider(linalg.mat_mul(a, b))
    found = [(m, root) for _, m, root in hits.values()]
    found.sort(key=cmp_to_key(lambda x, y: x[1].compare_to(y[1])))
    return found


U_2_4 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -4]]
TWO_MINUS_TWO_CUBED = [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]


@pytest.mark.parametrize(
    "gram, bound",
    [("rank3", b) for b in range(1, 9)]
    + [(U_2_4, 1), (U_2_4, 2), (TWO_MINUS_TWO_CUBED, 1), ([[4, 8], [8, 4]], 5)]
    # pairs with equal tr(ab) and opposite det(ab) give different polynomials
    + [([[0, 1, 0], [1, 0, 0], [0, 0, -4]], 4)],
)
def test_search_matches_ordered_pair_reference(rank3, gram, bound):
    lat = rank3 if gram == "rank3" else make_lattice(gram)
    got = search_salem_isometries(lat, bound)
    want = reference_search(lat, bound)
    assert [(m, r.poly, r.lo, r.hi) for m, r in got] == [(m, r.poly, r.lo, r.hi) for m, r in want]


def test_search_classifies_each_char_poly_once(rank3, monkeypatch):
    calls = Counter()

    def counting(p):
        calls[p.coeffs] += 1
        return classify_charpoly(p)

    monkeypatch.setattr(dynamics, "classify_charpoly", counting)
    search_salem_isometries(rank3, 8)
    isometries = enumerate_isometries(rank3, 8)
    ident = linalg.identity(3)
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    products = [linalg.mat_mul(a, b) for a, b in itertools.permutations(involutions, 2)]
    distinct = {char_poly(m).coeffs for m in isometries + products}
    assert set(calls) == distinct
    assert set(calls.values()) == {1}


def box_product_isometries(lat, bound):
    """The enumerator as a plain box scan: every nonzero vector of the box
    sorted into norm buckets by a full product, and every column, the last
    one included, filtered from its bucket by its pairings."""
    g = lat.gram_rows()
    r = lat.rank
    buckets = {g[j][j]: [] for j in range(r)}
    for v in itertools.product(range(-bound, bound + 1), repeat=r):
        if not any(v):
            continue
        norm = linalg.bilinear(g, list(v), list(v))
        if norm in buckets:
            buckets[norm].append(v)
    results = []
    cols = []

    def backtrack(j):
        if j == r:
            results.append([[cols[c][i] for c in range(r)] for i in range(r)])
            return
        for v in buckets[g[j][j]]:
            if all(linalg.bilinear(g, list(cols[i]), list(v)) == g[i][j] for i in range(j)):
                cols.append(v)
                backtrack(j + 1)
                cols.pop()

    backtrack(0)
    return results


U = [[0, 1], [1, 0]]
ENUMERATION_CASES = [
    ([[2]], 3),
    ([[-1]], 2),
    ([[0]], 2),
    (U, 1),
    (U, 3),
    ([[2, 2], [2, 2]], 3),
    ([[0, 0], [0, 0]], 2),
    ([[0, 0], [0, -2]], 3),
    ([[2, 1], [1, 2]], 3),
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 1),
    ([[0, 0, 0], [0, -2, 0], [0, 0, 0]], 2),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2),
    # the last column's quadratic vanishes identically; its solutions
    # (6, 0, 3) + t (-3, 0, -2) meet the box at t = 2, outside [-1, 1]
    ([[0, -2, 0], [-2, 3, 3], [0, 3, 0]], 1),
    ([[4, 0, 8], [0, -2, 0], [8, 0, 4]], 3),
    ([[0, 1, 0], [1, 0, 0], [0, 0, -2]], 3),
    (U_2_4, 2),
    (TWO_MINUS_TWO_CUBED, 1),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]], 2),
    ([[2, 2, 0, 0], [2, 2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 1),
]


@pytest.mark.parametrize("gram, bound", ENUMERATION_CASES)
def test_enumerate_isometries_matches_box_product(gram, bound):
    lat = make_lattice(gram)
    assert enumerate_isometries(lat, bound) == box_product_isometries(lat, bound)


@st.composite
def small_grams_and_bounds(draw):
    rank = draw(st.integers(1, 4))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(rank) for j in range(i, rank)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]
    return gram, draw(st.integers(1, 2 if rank == 4 else 3))


def box_norm_counts(gram, bound):
    counts = Counter()
    for v in itertools.product(range(-bound, bound + 1), repeat=len(gram)):
        counts[linalg.bilinear(gram, list(v), list(v))] += any(v)
    return counts


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(small_grams_and_bounds())
def test_enumerate_isometries_matches_box_product_sweep(case):
    gram, bound = case
    counts = box_norm_counts(gram, bound)
    # keeps the box-product reference fast: nearly null forms have huge trees
    assume(math.prod(counts[row[i]] for i, row in enumerate(gram)) <= 20_000)
    lat = make_lattice(gram)
    assert enumerate_isometries(lat, bound) == box_product_isometries(lat, bound)


@pytest.mark.parametrize("gram, bound", [("rank3", 8), (U_2_4, 2)])
def test_half_trace_polynomial_of_involution_pairs(rank3, gram, bound):
    lat = rank3 if gram == "rank3" else make_lattice(gram)
    n = lat.rank
    ident = linalg.identity(n)
    involutions = [m for m in enumerate_isometries(lat, bound) if linalg.mat_mul(m, m) == ident]
    assert len(involutions) > 10
    for a, b in itertools.combinations(involutions, 2):
        ab = linalg.mat_mul(a, b)
        sign = (-1) ** n * linalg.det_bareiss(a) * linalg.det_bareiss(b)
        traces = [linalg.trace_of_product(a, b)] if n < 4 else power_traces(ab, n // 2)
        assert reciprocal_char_poly(n, traces, sign) == char_poly(ab)


def test_degenerate_search_matches_reference():
    # det 0, so involution pairs take char_poly of the product
    lat = make_lattice([[-2, 2, 0], [2, 4, 0], [0, 0, 0]])
    got = search_salem_isometries(lat, 2)
    want = reference_search(lat, 2)
    assert [r.poly.coeffs for _, r in got] == [(1, -4, 1)]
    assert [(m, r.poly, r.lo, r.hi) for m, r in got] == [(m, r.poly, r.lo, r.hi) for m, r in want]
