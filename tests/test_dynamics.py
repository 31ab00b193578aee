import decimal
import itertools
import json
import math
import random
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdd import dynamics, linalg, polynomial, salem
from hkdd.dynamics import (
    degree_spectrum,
    enumerate_isometries,
    exact_power_str,
    first_dynamical_degree,
    power_decimal,
    search_salem_isometries,
    spectrum_decimals,
    spectrum_rows,
    validate_spectrum_shape,
)
from hkdd.errors import HkddError, SpectralStructureViolatedError
from hkdd.hyperkahler import Sl2Matrix, kummer_first_degree
from hkdd.lattice import make_lattice, verify_isometry
from hkdd.polynomial import (
    AlgebraicReal,
    IntPolynomial,
    char_poly,
    format_fraction,
    isolate_real_roots,
    poly,
    power_traces,
    reciprocal_char_poly,
    sturm_count,
)
from hkdd.salem import SALEM_STRUCTURE, classify_charpoly, classify_reciprocal, is_salem_polynomial, salem_root_of
from fraction_sturm import fraction_isolate
from conftest import TPQR_SALEM_FACTORS, assert_correctly_rounded, assert_walk_nests, mp_root, row_decimals
from test_cli_golden import _argv, run
from oracles import (
    all_isometries,
    all_pairs_search,
    as_float,
    bisection_path,
    bisection_power_decimal,
    decimal_log_bounds,
    fraction_exact_power_str,
    interval,
    poly_mul,
    power_iteration_radius,
    root_index,
    sym_power_dim,
    sym_power_matrix,
    two_call_log_bounds,
)


@pytest.fixture(scope="module")
def root34():
    return isolate_real_roots(poly(1, -34, 1))[-1]


@pytest.fixture(scope="module")
def catalogue(rank3):
    return search_salem_isometries(rank3, 8)


def test_first_dynamical_degree(rank3, m1, iso_m1m2):
    d1 = first_dynamical_degree(iso_m1m2)
    assert exact_power_str(d1, 1) == ["1", "17+12*sqrt(2)"]
    assert as_float(d1) == pytest.approx(33.970562748477, abs=1e-9)
    assert first_dynamical_degree(verify_isometry(rank3, m1)) == 1
    assert first_dynamical_degree(verify_isometry(rank3, linalg.identity(3))) == 1


def test_first_degree_matches_power_iteration(iso_m1m2):
    d1 = first_dynamical_degree(iso_m1m2)
    rho = power_iteration_radius(iso_m1m2.rows())
    assert abs(as_float(d1) - rho) / rho < 1e-6


def test_degree_spectrum_exact_table(root34):
    spec = degree_spectrum(2, root34)
    assert spec.powers == ("1", "17+12*sqrt(2)", "577+408*sqrt(2)")
    dec = spectrum_decimals(spec, 17)
    assert [exact for _, _, exact, _ in spectrum_rows(spec, dec)] == [
        "1",
        "17+12*sqrt(2)",
        "577+408*sqrt(2)",
        "17+12*sqrt(2)",
        "1",
    ]
    assert float(dec.entries[2]) == pytest.approx(
        (17 + 12 * math.sqrt(2)) ** 2, rel=1e-12
    )
    assert float(dec.nats) == pytest.approx(2 * math.log(17 + 12 * math.sqrt(2)), rel=1e-12)
    assert spec.entropy_exact == "2*log(17+12*sqrt(2))"


def test_degree_spectrum_trivial():
    spec = degree_spectrum(4, 1)
    dec = spectrum_decimals(spec, 17)
    assert [float(d) for d in row_decimals(spec, dec)] == [1.0] * 9
    assert float(dec.nats) == 0.0
    assert validate_spectrum_shape(row_decimals(spec, dec)).ok


@pytest.mark.parametrize("d1", [1, "root34", "lehmer"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_spectrum_holds_n_plus_one_powers_and_rows_are_palindromic(root34, d1, n):
    # the degree law leaves n + 1 distinct values: the spectrum holds those,
    # and spectrum_rows lays out the 2n + 1 rows, k and 2n - k alike, with
    # the rows k <= n reading the powers in order
    d1 = {"root34": root34, "lehmer": isolate_real_roots(LEHMER)[-1]}.get(d1, d1)
    spec = degree_spectrum(n, d1)
    dec = spectrum_decimals(spec, 12)
    assert len(spec.powers) == len(dec.entries) == n + 1
    rows = list(spectrum_rows(spec, dec))
    assert [k for k, *_ in rows] == list(range(2 * n + 1))
    assert rows == [(k, e, exact, d) for (_, e, exact, d), k in zip(reversed(rows), range(2 * n + 1))]
    assert rows[: n + 1] == [(e, e, exact, d) for e, (exact, d) in enumerate(zip(spec.powers, dec.entries))]


def test_spectrum_palindrome_and_product_law(root34):
    # palindrome d_k = d_{2n-k}, and the multiplicative face of the power law
    # on the rising leg: d_k * d_{n-k} = d_n
    for n in (1, 2, 3, 4):
        spec = degree_spectrum(n, root34)
        values = [float(d) for d in row_decimals(spec, spectrum_decimals(spec, 17))]
        for k in range(2 * n + 1):
            assert values[k] == pytest.approx(values[2 * n - k], rel=1e-9)
        for k in range(n + 1):
            assert values[k] * values[n - k] == pytest.approx(values[n], rel=1e-9)


def test_exact_power_str_quadratic(root34):
    assert exact_power_str(root34, 2) == ["1", "17+12*sqrt(2)", "577+408*sqrt(2)"]
    assert exact_power_str(isolate_real_roots(poly(1, -7, 1))[-1], 3) == [
        "1", "(7+3*sqrt(5))/2", "(47+21*sqrt(5))/2", "161+72*sqrt(5)"
    ]
    assert exact_power_str(1, 2) == ["1", "1", "1"]
    assert exact_power_str(root34, 0) == exact_power_str(1, 0) == ["1"]
    cube = power_decimal(root34, 3, 17).entries[3]
    assert float(cube) == pytest.approx((17 + 12 * math.sqrt(2)) ** 3, rel=1e-12)
    assert float(cube) == pytest.approx(39201.99997449, abs=1e-5)


def test_exact_power_str_rejects_a_root_that_is_not_salem():
    # the root (3+sqrt(13))/2 of x^2 - 3x - 1 would read as (3+sqrt(5))/2
    with pytest.raises(ValueError, match="Salem root"):
        degree_spectrum(2, isolate_real_roots(poly(-1, -3, 1))[-1])
    with pytest.raises(ValueError, match="Salem root"):
        exact_power_str(isolate_real_roots(poly(-2, 0, 0, 1))[-1], 1)


def test_exact_power_str_builds_one_exact_string(monkeypatch):
    lehmer = isolate_real_roots(poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))[-1]
    calls = []
    monkeypatch.setattr(dynamics, "format_fraction", lambda *a: calls.append(a) or format_fraction(*a))
    spec = degree_spectrum(8, lehmer)
    assert len(calls) == 2  # lo and hi, once for the column
    base = spec.powers[1]
    assert base.startswith("root #2 of x^10 + x^9")
    assert spec.powers[:3] == ("1", base, f"({base})^2") and len(spec.powers) == 9
    assert spec.entropy_exact == f"8*log({base})"


@settings(max_examples=200)
@given(st.integers(3, 60), st.sampled_from([1, -1]), st.integers(1, 100))
def test_exact_power_str_matches_fraction_oracle_on_kummer_traces(t, sign, n):
    d1 = kummer_first_degree(Sl2Matrix(sign * t, 1, -1, 0))
    assert exact_power_str(d1, n) == fraction_exact_power_str(d1, list(range(n + 1)))


@settings(max_examples=200)
@given(st.integers(3, 10**6), st.integers(1, 20))
def test_exact_power_str_matches_fraction_oracle_on_quadratics(s, n):
    d1 = salem_root_of(poly(1, -s, 1))
    assert exact_power_str(d1, n) == fraction_exact_power_str(d1, list(range(n + 1)))


@pytest.mark.parametrize("coeffs", TPQR_SALEM_FACTORS)
def test_exact_power_str_matches_fraction_oracle_on_tpqr_factors(coeffs):
    # the first factor is Lehmer's polynomial
    s = IntPolynomial(coeffs)
    for d1 in (salem_root_of(s), isolate_real_roots(s)[-1]):
        assert sturm_count(s, None, interval(d1)[0]) + 1 == 2  # the index the form states
        assert exact_power_str(d1, 3) == fraction_exact_power_str(d1, [0, 1, 2, 3])


def test_degree_spectrum_makes_no_walk_and_no_float(root34, monkeypatch):
    def forbidden(*args):
        raise AssertionError("degree_spectrum must stay exact")

    monkeypatch.setattr(dynamics, "power_decimal", forbidden)
    spec = degree_spectrum(5, root34)
    assert spec.powers == tuple(exact_power_str(root34, 5))


def test_degree_spectrum_past_double_range():
    d1 = isolate_real_roots(poly(1, -7, 1))[-1]  # (7+3*sqrt(5))/2, log10 about 0.836
    spec = degree_spectrum(400, d1)
    assert spec.powers[400].endswith("*sqrt(5))/2")
    dec = spectrum_decimals(spec, 12)
    rows = row_decimals(spec, dec)
    assert rows[368].endswith("E+307") and rows[369].endswith("E+308")
    assert rows[400].endswith("E+334") and rows[431] == rows[369] == dec.entries[369]
    assert dec.nats == "769.938920095"  # 400 * ln((7+3*sqrt(5))/2), mpmath
    # d_1 has 12 digits, so d_1^400 is off by up to 400 half-units in the last
    shape = validate_spectrum_shape(rows, tolerance=1e-8)
    assert shape.ok, shape.violations


def test_validate_spectrum_shape_past_double_range():
    # entries and powers past the double range are judged like any other
    report = validate_spectrum_shape([1.0, 1e200, 1e300, 1e200, 1.0])
    assert any("power-law violation at k=2" in v for v in report.violations)
    assert validate_spectrum_shape(["1", "1E+200", "1E+400", "1E+200", "1"]).ok


def test_shape_report_is_true_without_violations():
    assert dynamics.ShapeReport(()) and dynamics.ShapeReport(()).ok
    bad = dynamics.ShapeReport(("power-law violation at k=2",))
    assert not bad and not bad.ok and bool(bad) is False
    assert not validate_spectrum_shape([1.0, 1e200, 1e300, 1e200, 1.0])


def assert_power_decimal_matches_oracle(d1: AlgebraicReal, n: int, digits: int):
    """d1's walk nests; the degree table of d1 at half-dimension n and its
    entropy match the bisection walk with exact powers; and the fixed-point
    bounds contain the exact powers of the interval they are made from."""
    assert_walk_nests(d1, Fraction(1, 10**40))
    got = spectrum_decimals(degree_spectrum(n, d1), digits)
    assert got == bisection_power_decimal(d1, list(range(n + 1)), digits, n)
    a, b, den = next(x for x in d1.quadratic_path() if (x[1] - x[0]) * 10 ** (digits + 2) * n < x[0])
    bits = -(-333 * (digits + 2) // 100) + n.bit_length() + 16
    for e, (lo_e, hi_e) in zip(range(1, n + 1), polynomial._power_bounds(a, b, den, bits)):
        assert lo_e * den**e <= a**e << bits and b**e << bits <= hi_e * den**e


@settings(max_examples=100)
@given(st.integers(3, 60), st.sampled_from((1, -1)), st.integers(1, 100), st.sampled_from((3, 12, 50, 200)))
def test_power_decimal_matches_bisection_oracle_on_kummer(t, sign, n, digits):
    assert_power_decimal_matches_oracle(kummer_first_degree(Sl2Matrix(sign * t, 1, -1, 0)), n, digits)


@settings(max_examples=40)
@given(st.sampled_from(TPQR_SALEM_FACTORS), st.integers(1, 100), st.sampled_from((3, 12, 50, 200)))
def test_power_decimal_matches_bisection_oracle_on_salem_factors(coeffs, n, digits):
    assert_power_decimal_matches_oracle(salem_root_of(IntPolynomial(coeffs)), n, digits)


def test_power_decimal_certified(root34):
    assert power_decimal(root34, 2, 12).entries == ("1", "33.9705627485", "1153.99913345")
    assert power_decimal(root34, 1, 12).entries == ("1", "33.9705627485")
    with pytest.raises(ValueError):
        power_decimal(isolate_real_roots(poly(1, -34, 1))[0], 1, 12)  # 17-12*sqrt(2) < 1


def test_power_decimal_needs_a_unit():
    # sqrt(27/8) is no unit, and its square 3.375 sits on a 3-digit rounding
    # boundary, where a walk that only compares rounded ends would never end
    d1 = AlgebraicReal(poly(-27, 0, 8), 1, 2)
    with pytest.raises(ValueError, match="unit"):
        power_decimal(d1, 2, 3)


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
    a, b, den = next((a, b, den) for a, b, den in bisection_path(x) if (b - a) * 10**14 < a - den)
    # the digit budget power_decimal starts from at 12 digits
    (ln_lo, ln_hi, ln_den), (lg_lo, lg_hi, lg_den) = dynamics._log_bounds(a, b, den, 12 + 10)
    with mpmath.workdps(80):
        true = mpmath.log(1 + mpmath.mpf(10) ** -30)
        for lo, hi, d, value in ((ln_lo, ln_hi, ln_den, true), (lg_lo, lg_hi, lg_den, true / mpmath.log(10))):
            assert mpmath.mpf(lo) / d <= value <= mpmath.mpf(hi) / d
            assert hi - lo < Fraction(1, 10**13) * lo


def entropies(report) -> int:
    """The number of spectra with d_1 > 1 in a JSON report."""
    if isinstance(report, list):
        return sum(map(entropies, report))
    if not isinstance(report, dict):
        return 0
    own = "entropy" in report and report["entropy"]["nats"] != "0"
    return own + sum(map(entropies, report.values()))


@pytest.mark.parametrize("digits", [12, 50, 200])
@pytest.mark.parametrize("case", ["kummer-t3", "degrees-m1m2", "degrees-e10-lehmer", "beauville-demo"])
def test_one_ln_per_report(case, digits):
    """Each spectrum of a report bounds its logarithms with one _log_bounds
    call, and no report calls into decimal. sys.setprofile sees both: the
    call of a Python function, and every C function of decimal and C method
    of a Decimal or of a decimal context."""
    log_bounds, decimal_calls = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is dynamics._log_bounds.__code__:
            log_bounds.append(frame.f_locals["digits"])
        elif event == "c_call" and (
            arg.__module__ == "decimal" or isinstance(arg.__self__, (Decimal, decimal.Context))
        ):
            decimal_calls.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        code, out = run(_argv(case, "json", digits))
    finally:
        sys.setprofile(None)
    spectra = entropies(json.loads(out))
    assert code == 0 and spectra == (3 if case == "beauville-demo" else 1)
    assert log_bounds == [digits + 10] * spectra
    assert decimal_calls == []


LEHMER = IntPolynomial(TPQR_SALEM_FACTORS[0])


@settings(max_examples=150)
@given(
    st.one_of(st.integers(3, 10**6).map(lambda s: poly(1, -s, 1)), st.just(LEHMER)),
    st.integers(3, 200),
    st.integers(1, 30),
)
def test_power_decimal_logarithms_match_the_two_call_path(defining, digits, n):
    """The integer bounds give the decimals that one Decimal.ln and ln(10)
    gave, and those that Decimal.ln and Decimal.log10, each called at lo,
    gave."""
    got = power_decimal(salem_root_of(defining), n, digits)
    for oracle in (decimal_log_bounds, two_call_log_bounds):
        with mock.patch.object(dynamics, "_log_bounds", oracle):
            assert power_decimal(salem_root_of(defining), n, digits) == got


@settings(max_examples=300)
@given(st.integers(1, 10**30), st.integers(0, 10**30), st.integers(0, 400))
def test_ln_fixed_encloses_mpmath(d, step, bits):
    """low <= ln(n/d) * 2^bits <= low + err on all of [1, 2], 1 and 2
    included, from bits = 0 up."""
    n = d + step % (d + 1)
    low, err = dynamics._ln_fixed(n, d, bits)
    with mpmath.workdps(bits // 3 + 40):
        assert low <= mpmath.log(mpmath.mpf(n) / d) * 2**bits <= low + err


def test_ln_fixed_counts_every_step():
    """ln 2 at 64 bits: 8 square roots leave t < 2^-9.5, so the floored
    t^5 * 2^64 is far above 1 and t^7 * 2^64 below it, and the series adds
    3 terms. The count: 2 units for the quotient and each root, 2 per term
    and 3 for the tail, times 2^9."""
    low, err = dynamics._ln_fixed(2, 1, 64)
    assert err == (2 * 9 + 2 * 3 + 3) << 9
    assert low <= mpmath.log(2) * 2**64 <= low + err


def assert_log_bounds_enclose(a: int, b: int, den: int, digits: int, dps: int):
    """The _log_bounds of [a/den, b/den] at digits hold ln and log10 of both
    ends, which mpmath takes at dps digits, and both lower bounds are
    positive."""
    bounds = dynamics._log_bounds(a, b, den, digits)
    with mpmath.workdps(dps):
        ends = mpmath.mpf(a) / den, mpmath.mpf(b) / den
        for (low, high, d), log in zip(bounds, (mpmath.log, mpmath.log10)):
            assert 0 < low and mpmath.mpf(low) / d <= log(ends[0])
            assert log(ends[1]) <= mpmath.mpf(high) / d


@pytest.mark.parametrize("digits", [3, 12, 50, 200])
@pytest.mark.parametrize(
    "defining",
    [poly(1, -3, 1), poly(1, -34, 1), poly(1, -3134, 1), LEHMER],
    ids=["s3", "root34", "kummer_t56", "lehmer"],
)
def test_log_bounds_enclose_mpmath(defining, digits):
    """Every interval of the walk up to the one power_decimal takes its
    logarithms from, against mpmath at 60 digits more than the bounds'."""
    gate = 10 ** (digits + 2)
    for a, b, den in salem_root_of(defining).quadratic_path():
        if a > den:
            assert_log_bounds_enclose(a, b, den, digits + 10, digits + 10 + 60)
        if (b - a) * gate < a - den:
            break


@settings(max_examples=100)
@given(st.integers(1, 10**6), st.integers(1, 60), st.integers(0, 10**6), st.integers(-70, 10))
def test_log_bounds_near_one(m, zeros, step, width):
    """a/den = 1 + (1 + step % m)/(m*10^zeros), within 10^-zeros of 1 for
    zeros from 1 to 60 (past the 22 digits asked for), on intervals from far
    narrower to far wider than that distance: lo, a/den rounded down, stays
    above 1, so both lower bounds stay positive."""
    den = m * 10**zeros
    a = den + 1 + step % m
    b = a + max(1, a * 10**width // den if width >= 0 else den // 10**-width)
    assert_log_bounds_enclose(a, b, den, 22, zeros + 150)


@pytest.mark.parametrize("digits", [3, 12, 50, 200])
def test_shape_check_reads_certified_decimals(root34, digits):
    tolerance = Decimal(10) ** (2 - digits)
    for d1 in (root34, isolate_real_roots(poly(1, -7, 1))[-1]):
        spec = degree_spectrum(2, d1)
        entries = row_decimals(spec, spectrum_decimals(spec, digits))
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
    d1 = as_float(first_dynamical_degree(iso_m1m2))
    s2 = sym_power_matrix(iso_m1m2.rows(), 2)
    rho = power_iteration_radius(s2)
    assert abs(rho - d1 * d1) / (d1 * d1) < 1e-6
    s3 = sym_power_matrix(iso_m1m2.rows(), 3)
    rho3 = power_iteration_radius(s3)
    assert abs(rho3 - d1**3) / d1**3 < 1e-6


def test_sym_power_multiplicativity_on_search_results(rank3, catalogue):
    for m, root in catalogue[:4]:
        rho = power_iteration_radius(sym_power_matrix(m, 2))
        expected = as_float(root) ** 2
        assert abs(rho - expected) / expected < 1e-6


def test_multiplicity_one(iso_m1m2):
    # the Salem certificate implies that d1^k is a simple eigenvalue of
    # Sym^k; numpy's eigenvalue moduli confirm it for k = 1..3
    import numpy as np

    m = iso_m1m2.rows()
    assert classify_charpoly(char_poly(m)).kind == SALEM_STRUCTURE
    d1 = as_float(first_dynamical_degree(iso_m1m2))
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
        d1 = as_float(first_dynamical_degree(iso))
        rho = power_iteration_radius(m)
        assert abs(d1 - rho) / rho < 1e-6
        assert d1 == pytest.approx(as_float(root), rel=1e-12)


def assert_catalogue_sound(lat, found) -> set:
    """Every found matrix is an isometry of lat (the search command checks
    none), the roots ascend, and each is the root of its own Salem
    polynomial; returns the polynomials."""
    roots = [as_float(root) for _, root in found]
    assert roots == sorted(roots)
    seen_polys = set()
    for m, root in found:
        verify_isometry(lat, m)
        assert is_salem_polynomial(root.poly)
        assert root.poly.coeffs not in seen_polys
        seen_polys.add(root.poly.coeffs)
    return seen_polys


def test_search_catalogue_sound(rank3, catalogue):
    assert catalogue
    assert (1, -34, 1) in assert_catalogue_sound(rank3, catalogue)
    # at rank 4 the involution pairs are classified from compound traces
    lat = make_lattice([[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]])
    found = search_salem_isometries(lat, 2)
    assert len(found) == 10
    assert (1, -14, 1) in assert_catalogue_sound(lat, found)


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
    isometries = all_isometries(lat, bound)
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
    assert [(m, r.poly, interval(r)) for m, r in got] == [(m, r.poly, interval(r)) for m, r in want]


def test_search_classifies_each_char_poly_once(monkeypatch):
    # at rank 4 keys of sign +1, palindromic quartics, take the general path
    lat = make_lattice(TWO_MINUS_TWO_CUBED)
    calls = Counter()

    def counting(p):
        calls[p.coeffs] += 1
        return classify_charpoly(p)

    monkeypatch.setattr(salem, "classify_charpoly", counting)
    search_salem_isometries(lat, 2)
    isometries = all_isometries(lat, 2)
    ident = linalg.identity(4)
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    products = [linalg.mat_mul(a, b) for a, b in itertools.permutations(involutions, 2)]
    distinct = {char_poly(m).coeffs for m in isometries + products}
    assert calls and set(calls.values()) == {1}
    assert set(calls) <= distinct
    assert all(coeffs == coeffs[::-1] for coeffs in calls)


def test_rank3_search_classifies_each_key_once_without_a_char_poly(rank3, monkeypatch):
    keys = Counter()

    def counting(n, traces, sign):
        keys[reciprocal_char_poly(n, traces, sign).coeffs] += 1
        return classify_reciprocal(n, traces, sign)

    def forbidden(*args):
        raise AssertionError("a rank-3 key built or peeled a char poly")

    monkeypatch.setattr(dynamics, "classify_reciprocal", counting)
    for name in ("classify_charpoly", "reciprocal_char_poly", "peel_cyclotomic"):
        monkeypatch.setattr(salem, name, forbidden)
    search_salem_isometries(rank3, 8)
    monkeypatch.undo()
    isometries = all_isometries(rank3, 8)
    ident = linalg.identity(3)
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    products = [linalg.mat_mul(a, b) for a, b in itertools.permutations(involutions, 2)]
    distinct = {char_poly(m).coeffs for m in isometries + products}
    assert set(keys.values()) == {1}
    assert set(keys) <= distinct
    # a char poly goes unclassified when it is char(-X) of a Salem X, as at
    # most one of +-X is Salem, when its trace is at most 4 - n = 1, below
    # that of every Salem structure, or when it is an involution's,
    # (x - 1)^p (x + 1)^q; either way, it is not Salem. At rank 3 the
    # second covers the first: a Salem X has trace >= 2, so -X has <= -2.
    involution_polys = {
        poly_mul(*[poly(-1, 1)] * p, *[poly(1, 1)] * (3 - p)).coeffs for p in range(4)
    }
    skipped = distinct - set(keys)
    assert skipped & involution_polys and skipped - involution_polys
    salem_negatives = 0
    for coeffs in skipped:
        assert classify_charpoly(IntPolynomial(coeffs)).kind != SALEM_STRUCTURE
        assert -coeffs[-2] <= 1 or coeffs in involution_polys
        flipped = [-c if (len(coeffs) - 1 - k) % 2 else c for k, c in enumerate(coeffs)]
        salem_negatives += classify_charpoly(IntPolynomial(tuple(flipped))).kind == SALEM_STRUCTURE
    assert 0 < salem_negatives < len(skipped)


U_MINUS_TWO_CUBED = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, -2, 0, 0], [0, 0, 0, -2, 0], [0, 0, 0, 0, -2]]


@pytest.mark.parametrize(
    "gram, bound",
    [("rank3", b) for b in range(1, 9)]
    + [(U_2_4, 2), (TWO_MINUS_TWO_CUBED, 1), (TWO_MINUS_TWO_CUBED, 2), (U_MINUS_TWO_CUBED, 1)],
)
def test_salem_isometries_meet_the_trace_bound(rank3, gram, bound):
    # the bound by which the search skips a candidate: tr X >= 5 - n for
    # every Salem-structure X, an isometry or a product of two involutions
    lat = rank3 if gram == "rank3" else make_lattice(gram)
    n = lat.rank
    isometries = all_isometries(lat, bound)
    ident = linalg.identity(n)
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    products = [linalg.mat_mul(a, b) for a, b in itertools.permutations(involutions, 2)]
    kinds = {}
    for m in isometries + products:
        p = char_poly(m)
        if p not in kinds:
            kinds[p] = classify_charpoly(p).kind
        if kinds[p] == SALEM_STRUCTURE:
            assert sum(m[i][i] for i in range(n)) >= 5 - n


@st.composite
def reciprocal_keys(draw):
    """(n, t_1..t_(n//2), sign) for n = 2..6, the traces from drawn
    coefficients c_1..c_(n//2) by Newton's identities."""
    n = draw(st.integers(2, 6))
    c = [1] + draw(st.lists(st.integers(-6, 6), min_size=n // 2, max_size=n // 2))
    traces = []
    for k in range(1, n // 2 + 1):
        traces.append(-k * c[k] - sum(c[i] * traces[k - 1 - i] for i in range(1, k)))
    return n, traces, draw(st.sampled_from((1, -1)))


@settings(max_examples=400)
@given(reciprocal_keys())
def test_salem_structure_meets_the_trace_bound(key):
    n, traces, sign = key
    if classify_charpoly(reciprocal_char_poly(n, traces, sign)).kind == SALEM_STRUCTURE:
        assert traces[0] >= 5 - n


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_bound_is_attained(n):
    # (x^2 - 3x + 1)(x + 1)^(n - 2) is Salem-structure with trace 5 - n
    p = poly_mul(poly(1, -3, 1), *[poly(1, 1)] * (n - 2))
    assert classify_charpoly(p).kind == SALEM_STRUCTURE and -p.coeffs[-2] == 5 - n


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
    # U + <-2>^3, rank 5: 192 isometries
    ([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, -2, 0, 0], [0, 0, 0, -2, 0], [0, 0, 0, 0, -2]], 1),
]


@pytest.mark.parametrize("gram, bound", ENUMERATION_CASES)
def test_enumerate_isometries_matches_box_product(gram, bound):
    lat = make_lattice(gram)
    assert all_isometries(lat, bound) == box_product_isometries(lat, bound)


# a zero leading (r-1)-minor of G, and det G = 0: no minor of G enters the
# enumeration, so the last column is filtered from its bucket as on any G
LEADING_MINOR_ZERO = [[-2, 0, 0], [0, 0, 1], [0, 1, 0]]
DET_ZERO = [[-2, 2, 0], [2, 4, 0], [0, 0, 0]]


@pytest.mark.parametrize("gram, bound", [(LEADING_MINOR_ZERO, b) for b in range(1, 5)] + [(DET_ZERO, 2)])
def test_enumerate_isometries_fallback_matches_box_product(gram, bound):
    lat = make_lattice(gram)
    assert enumerate_isometries(lat, bound)
    assert all_isometries(lat, bound) == box_product_isometries(lat, bound)


@st.composite
def small_grams_and_bounds(draw, min_rank=1, max_bound=3):
    rank = draw(st.integers(min_rank, 4))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(rank) for j in range(i, rank)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]
    return gram, draw(st.integers(1, min(max_bound, 2 if rank == 4 else 3)))


def box_norm_counts(gram, bound):
    counts = Counter()
    for v in itertools.product(range(-bound, bound + 1), repeat=len(gram)):
        counts[linalg.bilinear(gram, list(v), list(v))] += any(v)
    return counts


@settings(max_examples=120)
@given(small_grams_and_bounds())
def test_enumerate_isometries_matches_box_product_sweep(case):
    gram, bound = case
    counts = box_norm_counts(gram, bound)
    # keeps the box-product reference fast: nearly null forms have huge trees
    assume(math.prod(counts[row[i]] for i, row in enumerate(gram)) <= 20_000)
    lat = make_lattice(gram)
    assert all_isometries(lat, bound) == box_product_isometries(lat, bound)


@pytest.mark.parametrize("gram, bound", [("rank3", 8), (U_2_4, 2)])
def test_half_trace_polynomial_of_involution_pairs(rank3, gram, bound):
    lat = rank3 if gram == "rank3" else make_lattice(gram)
    n = lat.rank
    ident = linalg.identity(n)
    involutions = [m for m in all_isometries(lat, bound) if linalg.mat_mul(m, m) == ident]
    assert len(involutions) > 10
    for a, b in itertools.combinations(involutions, 2):
        ab = linalg.mat_mul(a, b)
        sign = (-1) ** n * linalg.det_bareiss(a) * linalg.det_bareiss(b)
        traces = [linalg.trace_of_product(a, zip(*b))] if n < 4 else power_traces(ab, n // 2)
        assert reciprocal_char_poly(n, traces, sign) == char_poly(ab)


U_MINUS_TWO_FOURTH = [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, -2, 0, 0, 0], [0, 0, 0, -2, 0, 0],
                      [0, 0, 0, 0, -2, 0], [0, 0, 0, 0, 0, -2]]


@pytest.mark.parametrize(
    "gram, bound, step",
    [(TWO_MINUS_TWO_CUBED, 2, 1), (U_MINUS_TWO_CUBED, 1, 1), (U_MINUS_TWO_CUBED, 2, 1), (U_MINUS_TWO_FOURTH, 1, 4)],
)
def test_involutions_and_pair_traces_of_the_search(gram, bound, step):
    # every isometry is an involution exactly when it squares to I, with
    # its det read from its trace; every pair of representative involutions
    # gets the traces of its product, or None when |tr(ab)| <= 4 - n. At
    # rank 6, where each of the 11,476 pairs of the 152 involutions forms
    # ab, only the pairs of every step-th involution are checked.
    n = len(gram)
    isometries = enumerate_isometries(make_lattice(gram), bound)
    ident = linalg.identity(n)
    involutions, records = [], []
    for m in isometries:
        found = dynamics._as_involution(m, power_traces(m, 2), ident)
        assert (found is not None) == (linalg.mat_mul(m, m) == ident)
        if found is not None:
            assert found == (m, linalg.det_bareiss(m), linalg.transpose(m))
            involutions.append(m)
            records.append(found)
    assert {linalg.det_bareiss(m) for m in involutions} == {1, -1}
    # the representatives are the second half of every involution in the box
    everyone = [m for m in all_isometries(make_lattice(gram), bound) if linalg.mat_mul(m, m) == ident]
    assert everyone[len(everyone) // 2 :] == involutions
    involutions, records = involutions[::step], records[::step]
    keys = {(id(x[0]), id(y[0])): key for x, y, key in dynamics._pair_traces(records)}
    ruled_out = 0
    for a, b in itertools.combinations(involutions, 2):
        ab = linalg.mat_mul(a, b)
        want = power_traces(ab, n // 2)
        key = keys.get((id(a), id(b)))
        assert key is None or key[0] == (-1) ** n * linalg.det_bareiss(ab)
        got = None if key is None else list(key[1:])
        ruled_out += got is None
        assert got == (None if abs(want[0]) <= 4 - n else want)
    assert ruled_out == (186 if n == 4 else 0)
    assert len(keys) == math.comb(len(involutions), 2) - ruled_out


def test_pair_with_traceless_product_forms_no_product(monkeypatch):
    # at rank 4 no pair forms ab, whatever its sign: a pair with tr(ab) = 0
    # is ruled out for both signs, one with det(ab) = -1 has t_2 = t_1^2,
    # and every other takes t_2 from the second compounds of a and b
    isometries = enumerate_isometries(make_lattice(TWO_MINUS_TWO_CUBED), 2)
    ident = linalg.identity(4)
    records = [found for m in isometries if (found := dynamics._as_involution(m, power_traces(m, 2), ident))]

    def forbidden(*args):
        raise AssertionError("a pair formed a matrix product")

    for module, name in ((linalg, "product_from_columns"), (linalg, "mat_mul"), (dynamics, "power_traces")):
        monkeypatch.setattr(module, name, forbidden)
    keys = [key for _, _, key in dynamics._pair_traces(records)]
    negative = sum(key[0] < 0 for key in keys)
    assert (len(records), 1326 - len(keys), negative, len(keys) - negative) == (52, 186, 540, 600)


def assert_search_refused(lat, bound):
    with pytest.raises(HkddError) as exc:
        search_salem_isometries(lat, bound)
    assert type(exc.value) is HkddError and exc.value.exit_code == 2
    assert str(exc.value) == "search needs a nondegenerate lattice (det G = 0)"


def test_degenerate_search_is_refused():
    # the reference, which classifies char_poly of each product, finds a
    # Salem isometry of this det-0 form; search refuses the form instead
    lat = make_lattice(DET_ZERO)
    assert [r.poly.coeffs for _, r in reference_search(lat, 2)] == [(1, -4, 1)]
    assert_search_refused(lat, 2)


def catalogue_digest(found):
    return [(m, root.poly.coeffs, root.decimal_str(30)) for m, root in found]


def assert_search_matches_all_pairs(lat, bound):
    """search equals the all-pairs oracle on a nondegenerate lattice and
    refuses a degenerate one, whatever the oracle finds there."""
    if linalg.det_bareiss(lat.gram_rows()) == 0:
        assert_search_refused(lat, bound)
    else:
        assert catalogue_digest(search_salem_isometries(lat, bound)) == catalogue_digest(
            all_pairs_search(lat, bound)
        )


@pytest.mark.parametrize(
    "gram, bound",
    [("rank3", b) for b in range(1, 17)]
    + [(U_2_4, b) for b in (1, 2, 3)]
    + [(TWO_MINUS_TWO_CUBED, 2), (DET_ZERO, 2), ([[2]], 3)],
)
def test_search_matches_all_pairs(rank3, gram, bound):
    assert_search_matches_all_pairs(rank3 if gram == "rank3" else make_lattice(gram), bound)


@settings(max_examples=120)
@given(small_grams_and_bounds(min_rank=2, max_bound=2))
def test_search_matches_all_pairs_sweep(case):
    gram, bound = case
    if linalg.det_bareiss(gram) != 0:
        # keeps the oracle fast; a degenerate draw is refused at once
        counts = box_norm_counts(gram, bound)
        assume(math.prod(counts[row[i]] for i, row in enumerate(gram)) <= 20_000)
    assert_search_matches_all_pairs(make_lattice(gram), bound)


@pytest.mark.parametrize("gram, bound", [("rank3", 8), (TWO_MINUS_TWO_CUBED, 2)])
def test_search_catalogue_is_in_the_reference_order_of_its_roots(rank3, gram, bound):
    """The roots come in the order of the fraction_isolate intervals of the
    product of their Salem factors, an order compare_to takes no part in."""
    found = search_salem_isometries(rank3 if gram == "rank3" else make_lattice(gram), bound)
    assert len(found) >= 10
    reference = fraction_isolate(poly_mul(*(root.poly for _, root in found)))
    indices = [root_index(reference, root) for _, root in found]
    assert indices == sorted(indices)


RANK3 = [[4, 0, 8], [0, -2, 0], [8, 0, 4]]
U_2_2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]
METAMORPHIC_CASES = [
    (RANK3, 4), (RANK3, 6), (U_2_2, 2), (U_2_4, 2), (U_2_4, 3), (TWO_MINUS_TWO_CUBED, 2),
    ([[0, 1, 0], [1, 0, 0], [0, 0, -4]], 4),
]


@st.composite
def signed_permutations(draw, rank):
    """P with P e_j = s_j e_(pi(j)) for a permutation pi and signs s_j."""
    perm = draw(st.permutations(range(rank)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    return [[signs[j] if i == perm[j] else 0 for j in range(rank)] for i in range(rank)]


@lru_cache(maxsize=None)
def within_bound_or_involution_pair(case):
    """The row-major entries of every isometry of METAMORPHIC_CASES[case]
    within its bound and of every product +-ab of two involutions there."""
    gram, bound = METAMORPHIC_CASES[case]
    isometries = all_isometries(make_lattice(gram), bound)
    ident = linalg.identity(len(gram))
    involutions = [m for m in isometries if linalg.mat_mul(m, m) == ident]
    products = [linalg.mat_mul(a, b) for a in involutions for b in involutions]
    return {tuple(itertools.chain.from_iterable(m)) for m in isometries + products}


@settings(max_examples=40)
@given(st.data())
def test_search_is_invariant_under_signed_permutations(data):
    # a signed permutation P maps the box onto itself and the isometries of
    # P^T G P onto those of G (M -> P M P^T), so both lattices have the same
    # catalogue of Salem polynomials and roots; the representatives differ,
    # but each one, mapped back, is an isometry of G within the bound or a
    # product of two involutions within it, with the same Salem factor
    case = data.draw(st.sampled_from(range(len(METAMORPHIC_CASES))))
    gram, bound = METAMORPHIC_CASES[case]
    p = data.draw(signed_permutations(len(gram)))
    lat = make_lattice(gram)
    moved = make_lattice(linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(gram, p)))
    want = search_salem_isometries(lat, bound)
    got = search_salem_isometries(moved, bound)
    assert [(r.poly, interval(r)) for _, r in got] == [(r.poly, interval(r)) for _, r in want]
    for m, root in got:
        back = linalg.mat_mul(p, linalg.mat_mul(m, linalg.transpose(p)))
        verify_isometry(lat, back)
        assert tuple(itertools.chain.from_iterable(back)) in within_bound_or_involution_pair(case)
        assert classify_charpoly(char_poly(back)).salem_factor == root.poly


def test_search_certifies_each_salem_factor_once(rank3, monkeypatch):
    # the 25 Salem classifications at bound 12 share 18 factors, and each
    # factor's root is isolated once
    calls = Counter()
    real = salem.salem_root_of

    def counting(p):
        calls[p.coeffs] += 1
        return real(p)

    monkeypatch.setattr(salem, "salem_root_of", counting)
    salem._certify.cache_clear()
    found = search_salem_isometries(rank3, 12)
    assert (sum(calls.values()), len(calls)) == (18, 18)
    assert set(calls) == {r.poly.coeffs for _, r in found}
