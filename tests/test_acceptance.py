"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Expected
decimals are produced by the stated independent oracles (closed forms through
math.sqrt / math.log, brute-force searches, float power iteration), never by
the exact code path under test.
"""

import itertools
import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from hkdd import fixtures, linalg
from hkdd.cli import main
from hkdd.dynamics import (
    degree_spectrum,
    first_dynamical_degree,
    search_salem_isometries,
    spectrum_decimals,
    validate_spectrum_shape,
)
from hkdd.errors import HkddError
from hkdd.hyperkahler import Sl2Matrix, kummer_spectrum, naturality_certificate, solve_beauville
from hkdd.lattice import (
    CertifiedNo,
    invariant_sublattice,
    is_even,
    make_lattice,
    norm_of,
    represents,
    signature,
    verify_isometry,
)
from hkdd.polynomial import IntPolynomial, char_poly, cyclotomic, poly
from hkdd.salem import SALEM_STRUCTURE, classify_charpoly, is_salem_polynomial
from conftest import row_decimals
from oracles import as_float, power_iteration_radius, sym_power_dim, sym_power_matrix

D1_ORACLE = 17 + 12 * math.sqrt(2)
D2_ORACLE = D1_ORACLE**2
Q_ORACLE = (7 + 3 * math.sqrt(5)) / 2
LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {name}")
        raise
    print(f"\n[PASS] criterion {num}: {name}")


@pytest.fixture(scope="module")
def demo_payload(capsys_factory=None):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--format", "json", "beauville-demo"])
    assert code == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def catalogue8(rank3):
    return search_salem_isometries(rank3, 8)


def test_criterion_1_example_2_reproduction(demo_payload):
    with criterion(1, "quartic-pair example: matrices, char poly, degrees, entropy"):
        inv = demo_payload["involutions"]
        assert inv[0]["matrix"] == [[3, 2, 8], [-4, -3, -8], [0, 0, -1]]
        assert inv[1]["matrix"] == [[-1, 0, 0], [-8, -3, -4], [8, 2, 3]]
        comp = demo_payload["composition"]
        assert comp["char_poly"] == [-1, 35, -35, 1]
        cls = comp["classification"]
        assert cls["kind"] == "SalemStructure"
        assert cls["cyclotomic"] == [[1, 1]]
        assert cls["salem_poly"] == [1, -34, 1]
        spectrum = demo_payload["spectra"][0]["spectrum"]
        entries = spectrum["entries"]
        assert [e["exact"] for e in entries] == [
            "1",
            "17+12*sqrt(2)",
            "577+408*sqrt(2)",
            "17+12*sqrt(2)",
            "1",
        ]
        d1 = float(entries[1]["decimal"])
        d3 = float(entries[3]["decimal"])
        assert abs(d1 - 33.970562748477) <= 1e-9
        assert abs(d3 - 33.970562748477) <= 1e-9
        # the spec sheet misprints this decimal as 1153.9408...; the exact
        # value 577+408*sqrt(2) evaluates to 1153.99913... (float oracle)
        d2 = float(entries[2]["decimal"])
        assert abs(d2 - D2_ORACLE) <= 1e-6
        entropy = float(spectrum["entropy"]["nats"])
        assert abs(entropy - 7.0509888) <= 1e-6
        assert abs(entropy - 2 * math.log(D1_ORACLE)) <= 1e-9


def test_criterion_2_non_naturality(rank3, hilb2, iso_m1m2):
    with criterion(2, "non-naturality: fixed Z(1,-6,1) of norm -48 != -2"):
        fixed = invariant_sublattice(iso_m1m2)
        assert fixed == [[1, -6, 1]]
        assert norm_of(rank3, [1, -6, 1]) == -48
        cert = naturality_certificate(iso_m1m2, hilb2)
        assert cert.verdict == "NotNatural"
        assert cert.witness == ((1, -6, 1), -48)
        assert cert.required_norm == -2


def test_criterion_3_solver_disambiguation(hilb2):
    with criterion(3, "solver yields (8,-8,-1) and (4,-8,1); rank filter rejects"):
        sol = solve_beauville(hilb2, 0)
        (rec,) = sol.records
        assert set(rec.candidates) == {(8, -8, -1), (4, -8, 1)}
        assert rec.chosen == (8, -8, -1)
        reasons = dict(rec.rejections)
        assert "invariant sublattice has rank 2" in reasons[(4, -8, 1)]


def test_criterion_4_kummer_example():
    with criterion(4, "Kummer: t=2 flat; t=3, n=2 gives (1,q,q^2,q,1); t=-3 same q"):
        spec_flat = kummer_spectrum(Sl2Matrix(1, 1, 0, 1), 2)
        flat = spectrum_decimals(spec_flat, 17)
        assert [float(d) for d in row_decimals(spec_flat, flat)] == [1.0] * 5
        assert float(flat.nats) == 0.0

        spec = kummer_spectrum(Sl2Matrix(2, 1, 1, 1), 2)
        assert spec.d1.poly == poly(1, -7, 1)
        dec = spectrum_decimals(spec, 17)
        values = [float(d) for d in row_decimals(spec, dec)]
        q = values[1]
        assert abs(q - 6.854101966) <= 1e-8
        assert abs(q - Q_ORACLE) <= 1e-8
        assert values == pytest.approx([1, q, q * q, q, 1], rel=1e-9)
        # the spec sheet prints 3.8498984 for the entropy, which contradicts
        # its own formula 2*ln(q) with its own q; the float oracle decides
        assert abs(float(dec.nats) - 2 * math.log(Q_ORACLE)) <= 1e-6

        neg = kummer_spectrum(Sl2Matrix(-2, -1, -1, -1), 2)
        assert neg.d1.compare_to(spec.d1) == 0


def test_criterion_5_salem_recognizer(catalogue8):
    with criterion(5, "Salem recognizer: accepts the two examples, rejects the rest"):
        check34 = is_salem_polynomial(poly(1, -34, 1))
        assert check34
        lehmer_check = is_salem_polynomial(LEHMER)
        assert lehmer_check
        assert abs(as_float(lehmer_check.root) - 1.17628) < 5e-6  # 5 decimal places

        with pytest.raises(HkddError, match="degree 1 < 2"):
            is_salem_polynomial(poly(-1, 1))  # x - 1
        for n in range(1, 31):
            p = cyclotomic(n)
            if p.degree < 2:
                with pytest.raises(HkddError, match="degree 1 < 2"):
                    is_salem_polynomial(p)
            else:
                assert not is_salem_polynomial(p), f"Phi_{n} accepted"
        assert not is_salem_polynomial(poly(2, -3, 1))  # non-reciprocal
        assert not is_salem_polynomial(poly(3, -1, 0, 1))  # non-reciprocal cubic

        accepted = [poly(1, -34, 1), LEHMER] + [root.poly for _, root in catalogue8]
        for p in accepted:
            moduli = np.abs(np.roots(list(reversed(p.coeffs))))
            outside = (moduli > 1 + 1e-6).sum()
            inside = (moduli < 1 - 1e-6).sum()
            on_circle = (np.abs(moduli - 1) <= 1e-6).sum()
            assert outside == 1 and inside == 1
            assert on_circle == len(moduli) - 2


def test_criterion_6_theorem_property_suite(catalogue8):
    with criterion(6, "200 generated spectra satisfy the degree-law shape checks"):
        rng = random.Random(20260810)
        roots = [root for _, root in catalogue8]
        assert roots
        for _ in range(200):
            d1 = rng.choice(roots)
            n = rng.randint(1, 5)
            spec = degree_spectrum(n, d1)
            rows = row_decimals(spec, spectrum_decimals(spec, 17))
            report = validate_spectrum_shape(rows, tolerance=1e-9)
            assert report.ok, report.violations
            values = [float(d) for d in rows]
            # palindromic symmetry and strict growth, asserted directly too
            for k in range(2 * n + 1):
                assert values[k] == pytest.approx(values[2 * n - k], rel=1e-9)
                assert values[k] == pytest.approx(
                    as_float(d1) ** min(k, 2 * n - k), rel=1e-9
                )
            for k in range(n):
                assert values[k] < values[k + 1]


def test_criterion_7_sym_power_oracle(iso_m1m2):
    with criterion(7, "Sym^2 dimension 276; Sym^2 radius = d1^2; multiplicity one"):
        assert sym_power_dim(23, 2) == 276
        assert len(sym_power_matrix(linalg.identity(23), 2)) == 276
        d1 = as_float(first_dynamical_degree(iso_m1m2))
        rho = power_iteration_radius(sym_power_matrix(iso_m1m2.rows(), 2))
        assert abs(rho - d1 * d1) / (d1 * d1) <= 1e-6
        # multiplicity one follows from the Salem certificate; numpy confirms
        # that d1^k is a simple eigenvalue modulus of Sym^k
        assert classify_charpoly(char_poly(iso_m1m2.rows())).kind == SALEM_STRUCTURE
        for k in (1, 2):
            moduli = np.abs(np.linalg.eigvals(np.array(sym_power_matrix(iso_m1m2.rows(), k), dtype=float)))
            assert np.sum(np.abs(moduli - d1**k) <= 1e-6 * d1**k) == 1


def test_criterion_8_lattice_facts():
    with criterion(8, "[[4,8],[8,4]]: even, signature (1,1), represents neither -2 nor 0"):
        n = make_lattice([[4, 8], [8, 4]])
        assert is_even(n)
        assert signature(n) == (1, 1, 0)
        res_m2 = represents(n, -2, 50)
        assert isinstance(res_m2, CertifiedNo) and "mod 4" in res_m2.reason
        res_0 = represents(n, 0, 50)
        assert isinstance(res_0, CertifiedNo) and "192" in res_0.reason
        gram = n.gram_rows()
        for a, b in itertools.product(range(-50, 51), repeat=2):
            if a or b:
                value = linalg.bilinear(gram, [a, b], [a, b])
                assert value != -2 and value != 0


def test_criterion_9_search_determinism_and_soundness(rank3, catalogue8):
    with criterion(9, "bound-8 search: byte-identical, sound, contains 17+12*sqrt(2)"):
        cmd = [
            sys.executable,
            "-m",
            "hkdd.cli",
            "search",
            "--lattice",
            str(fixtures.fixture_path("rank3_lattice.json")),
            "--bound",
            "8",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty catalogue

        for m, root in catalogue8:
            verify_isometry(rank3, m)
            assert is_salem_polynomial(root.poly)
        polys = {root.poly.coeffs for _, root in catalogue8}
        assert (1, -34, 1) in polys
        the_root = next(r for _, r in catalogue8 if r.poly.coeffs == (1, -34, 1))
        assert abs(as_float(the_root) - D1_ORACLE) <= 1e-9
