import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest

from hkdd import dynamics, linalg
from hkdd.dynamics import (
    degree_spectrum,
    enumerate_isometries,
    first_dynamical_degree,
    float_spectral_radius,
    multiplicity_one_check,
    power_decimal,
    power_iterate_degree,
    power_iteration_radius,
    search_salem_isometries,
    sym_power_dim,
    sym_power_matrix,
    validate_spectrum_shape,
)
from hkdd.errors import SpectralStructureViolatedError
from hkdd.lattice import make_lattice, verify_isometry
from hkdd.polynomial import char_poly, isolate_real_roots, poly
from hkdd.salem import SALEM_STRUCTURE, classify_charpoly, is_salem_polynomial


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
    assert spec.entries[2].decimal == pytest.approx(
        (17 + 12 * math.sqrt(2)) ** 2, rel=1e-12
    )
    assert spec.entropy_nats == pytest.approx(2 * math.log(17 + 12 * math.sqrt(2)), rel=1e-12)
    assert spec.entropy_exact == "2*log(17+12*sqrt(2))"


def test_degree_spectrum_trivial():
    spec = degree_spectrum(4, 1)
    assert [e.decimal for e in spec.entries] == [1.0] * 9
    assert spec.entropy_nats == 0.0
    assert validate_spectrum_shape(spec).ok


def test_spectrum_palindrome_and_product_law(root34):
    # palindrome d_k = d_{2n-k}, and the multiplicative face of the power law
    # on the rising leg: d_k * d_{n-k} = d_n
    for n in (1, 2, 3, 4):
        spec = degree_spectrum(n, root34)
        values = spec.decimals
        for k in range(2 * n + 1):
            assert values[k] == pytest.approx(values[2 * n - k], rel=1e-9)
        for k in range(n + 1):
            assert values[k] * values[n - k] == pytest.approx(values[n], rel=1e-9)


def test_power_iterate_degree(root34):
    sq = power_iterate_degree(root34, 2)
    assert sq.exact_str() == "577+408*sqrt(2)"
    assert sq.poly == poly(1, -1154, 1)
    assert power_iterate_degree(root34, 1) is root34
    cube = power_iterate_degree(root34, 3)
    assert float(cube) == pytest.approx((17 + 12 * math.sqrt(2)) ** 3, rel=1e-12)
    assert float(cube) == pytest.approx(39201.99997449, abs=1e-5)


def test_degree_spectrum_past_double_range():
    d1 = isolate_real_roots(poly(1, -7, 1))[-1]  # (7+3*sqrt(5))/2, log10 about 0.836
    spec = degree_spectrum(400, d1)
    assert spec.entries[368].decimal < math.inf
    assert spec.entries[369].decimal == math.inf == spec.entries[431].decimal
    assert spec.entries[400].exact.endswith("*sqrt(5))/2")
    shape = validate_spectrum_shape(spec)
    assert not shape.ok
    assert shape.violations == ("63 non-finite degree(s), first d_369 = inf",)


def test_validate_spectrum_shape_past_double_range():
    # finite entries whose power law overflows a double: reported, not raised
    report = validate_spectrum_shape([1.0, 1e200, 1e300, 1e200, 1.0])
    assert any("past the double range" in v for v in report.violations)
    assert not validate_spectrum_shape([1.0, 2.0, math.nan, 2.0, 1.0]).ok


def test_power_decimal_certified(root34):
    [(_, s)] = power_decimal(root34, [2], 12)
    assert s == "1153.99913345"
    [(_, s1)] = power_decimal(root34, [1], 12)
    assert s1 == "33.9705627485"
    assert power_decimal(root34, [2, 0, 1], 12) == [
        power_decimal(root34, [2], 12)[0], (1, "1"), power_decimal(root34, [1], 12)[0]
    ]
    with pytest.raises(ValueError):
        power_decimal(root34, [-1], 12)


def test_entropy_additive_under_iteration(rank3, iso_m1m2):
    from hkdd.hyperkahler import power

    base = degree_spectrum(2, first_dynamical_degree(iso_m1m2)).entropy_nats
    for ell in (1, 2, 3, 4):
        spec = degree_spectrum(2, first_dynamical_degree(power(iso_m1m2, ell)))
        assert spec.entropy_nats == pytest.approx(ell * base, abs=1e-9)


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
    m = iso_m1m2.rows()
    assert multiplicity_one_check(m, 1) is True
    assert multiplicity_one_check(m, 2) is True
    with pytest.raises(SpectralStructureViolatedError):
        multiplicity_one_check(linalg.identity(3), 2)


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
    assert err.value.float_spectral_radius == pytest.approx(
        float_spectral_radius(m4), rel=1e-12
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
    + [(U_2_4, 1), (U_2_4, 2), (TWO_MINUS_TWO_CUBED, 1), ([[4, 8], [8, 4]], 5)],
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
