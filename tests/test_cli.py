import ast
import builtins
import importlib
import inspect
import io
import json
import pkgutil
import subprocess
import sys
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import hkdd
from hkdd import cli, dynamics, errors, fixtures, hyperkahler, linalg, polynomial, salem
from hkdd.cli import main
from hkdd.jsonio import dump_json, load_lattice, load_matrix
from hkdd.polynomial import AlgebraicReal, IntPolynomial
from conftest import assert_correctly_rounded, decimals_of, row_decimals
from oracles import algebraic_real_from_json, build_parser, decode_coeffs
from test_cli_golden import CASES, LEHMER, _argv, _resolve, read_snapshot, run
from test_lattice import random_unimodular


@pytest.fixture()
def m1m2_file(tmp_path, m1m2):
    path = tmp_path / "m1m2.json"
    path.write_text(json.dumps({"matrix": m1m2}))
    return str(path)


def rank3_path():
    return str(fixtures.fixture_path("rank3_lattice.json"))


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_lattice_info(capsys):
    code, out, err = run_cli(["lattice-info", rank3_path()], capsys)
    assert code == 0
    assert "signature (p, n, z): (1, 2, 0)" in out
    assert "even: yes" in out
    assert err == ""


def test_lattice_info_json_roundtrip(capsys):
    code, out, _ = run_cli(["--format", "json", "lattice-info", rank3_path()], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert dump_json(parsed) == out
    assert parsed["signature"] == [1, 2, 0]
    assert parsed["determinant"] == 96


@pytest.mark.parametrize(
    "argv, code",
    [
        ("degrees --lattice {rank3} --isometry {not_isometry}", 3),
        ("degrees --lattice {g4} --isometry {m4_salem_squared}", 4),
        ("kummer 2 1 1 1 --half-dim 5300", 2),  # an exact form past the digit bound
        ("salem-check -- 1 2", 2),
        ("search --lattice {tmp}/degenerate.json", 2),
        ("natural-check --lattice {rank3} --isometry {identity3} --e-index 7", 2),
        ("lattice-info {tmp}/big_determinant.json", 2),  # 8,001 digits
    ],
)
def test_a_failed_run_writes_no_stdout_in_either_format(capsys, tmp_path, argv, code):
    # every check runs before the command returns, so before main writes the
    # JSON or the first line of the table: both formats fail alike
    (tmp_path / "degenerate.json").write_text(json.dumps({"gram": [[1, 1], [1, 1]]}))
    (tmp_path / "big_determinant.json").write_text(json.dumps({"gram": [[10**4000, 0], [0, 10**4000]]}))
    argv = _resolve(argv.replace("{tmp}", str(tmp_path)).split())
    (table_code, table_out, table_err), (json_code, json_out, json_err) = (
        run_cli(["--format", fmt, *argv], capsys) for fmt in ("table", "json")
    )
    assert (table_code, table_out) == (json_code, json_out) == (code, "")
    assert table_err == json_err and table_err.count("\n") == 1 and table_err.endswith("\n")


def test_lattice_info_json_determinant_past_53_bits(capsys, tmp_path):
    lattice = tmp_path / "big.json"
    lattice.write_text(json.dumps({"gram": [[10**10, 0], [0, -(10**10)]]}))
    code, out, _ = run_cli(["--format", "json", "lattice-info", str(lattice)], capsys)
    assert code == 0
    assert json.loads(out)["determinant"] == str(-(10**20))


def test_degrees_table(capsys, m1m2_file):
    code, out, err = run_cli(
        ["degrees", "--lattice", rank3_path(), "--isometry", m1m2_file, "--half-dim", "2"],
        capsys,
    )
    assert code == 0
    assert "x^3 - 35*x^2 + 35*x - 1" in out
    assert "17+12*sqrt(2)" in out
    assert "577+408*sqrt(2)" in out
    assert "entropy = 2*log(17+12*sqrt(2))" in out
    assert "nats" in out
    assert err == ""


def test_degrees_json(capsys, m1m2_file):
    code, out, _ = run_cli(
        ["--format", "json", "degrees", "--lattice", rank3_path(), "--isometry", m1m2_file],
        capsys,
    )
    assert code == 0
    parsed = json.loads(out)
    assert dump_json(parsed) == out
    assert parsed["char_poly"] == [-1, 35, -35, 1]
    assert parsed["classification"]["kind"] == "SalemStructure"
    assert parsed["classification"]["salem_poly"] == [1, -34, 1]
    decimals = [e["decimal"] for e in parsed["spectrum"]["entries"]]
    assert decimals[0] == "1" and decimals[4] == "1"
    assert float(decimals[1]) == pytest.approx(33.970562748477, abs=1e-9)
    assert float(parsed["spectrum"]["entropy"]["nats"]) == pytest.approx(
        7.0509887, abs=1e-6
    )


def test_degrees_identity_all_ones(capsys, tmp_path):
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps({"matrix": linalg.identity(3)}))
    code, out, _ = run_cli(
        ["degrees", "--lattice", rank3_path(), "--isometry", str(ident)], capsys
    )
    assert code == 0
    assert "AllCyclotomic" in out
    assert "entropy = 0" in out


def test_exit_code_not_isometry(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, out, err = run_cli(
        ["degrees", "--lattice", rank3_path(), "--isometry", str(bad)], capsys
    )
    assert code == 3
    assert out == ""
    assert "not an isometry" in err


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run_cli(
        ["degrees", "--lattice", str(bad), "--isometry", str(bad)], capsys
    )
    assert code == 2
    assert "input error" in err


def test_exit_code_spectral_violation(capsys, tmp_path):
    lat = tmp_path / "g4.json"
    iso = tmp_path / "m4.json"
    lat.write_text(
        json.dumps(
            {"gram": [[2, 3, 0, 0], [3, 2, 0, 0], [0, 0, 2, 3], [0, 0, 3, 2]]}
        )
    )
    iso.write_text(
        json.dumps({"matrix": [[3, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 3, 1], [0, 0, -1, 0]]})
    )
    code, out, err = run_cli(
        ["degrees", "--lattice", str(lat), "--isometry", str(iso)], capsys
    )
    assert code == 4 and out == ""
    assert err == (
        "spectral structure violated: characteristic polynomial is not cyclotomic x Salem; "
        "its remainder (x^4 - 6*x^3 + 11*x^2 - 6*x + 1) fails the Salem test: "
        "trace root layout 1 real / 1 above 2 / 0 in (-2,2), need 2 / 1 / 1\n"
    )


@pytest.mark.parametrize(
    "lattice, options", [({"gram": [[-2]]}, ["--e-index", "0"]), ({"gram": [[-2]], "labels": ["e"]}, [])]
)
def test_natural_check_on_e_alone_names_the_missing_base(capsys, tmp_path, lattice, options):
    lat = tmp_path / "e.json"
    iso = tmp_path / "minus.json"
    lat.write_text(json.dumps(lattice))
    iso.write_text(json.dumps({"matrix": [[-1]]}))
    code, out, err = run_cli(["natural-check", "--lattice", str(lat), "--isometry", str(iso), *options], capsys)
    assert (code, out, err) == (2, "", "input error: the lattice has no class besides e\n")


def test_salem_check(capsys):
    code, out, _ = run_cli(["salem-check", "--", "1", "-34", "1"], capsys)
    assert code == 0
    assert "SalemStructure" in out
    assert "33.9705627485" in out
    code, out, _ = run_cli(
        ["salem-check", "--", "1", "1", "0", "-1", "-1", "-1", "-1", "-1", "0", "1", "1"],
        capsys,
    )
    assert code == 0
    assert "1.17628" in out
    code, out, _ = run_cli(["salem-check", "--", "-1", "0", "1"], capsys)
    assert code == 0
    assert "AllCyclotomic" in out
    # a rejected polynomial: its cyclotomic factors, then the rest in parentheses
    code, out, _ = run_cli(["salem-check", "--", "5", "0", "1"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "NotSpectrallyValid: (x^2 + 5)")
    code, out, _ = run_cli(["salem-check", "--", "-5", "5", "-1", "1"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "NotSpectrallyValid: Phi_1 x (x^2 + 5)")
    # not monic: peel_cyclotomic, the first step of classify_charpoly, says so
    for coeffs, shown in [("1 -3 2", "2*x^2 - 3*x + 1"), ("1 2", "2*x + 1"), ("0 0", "0"), ("3", "3")]:
        assert run_cli(["salem-check", "--", *coeffs.split()], capsys) == (
            2, "", f"input error: ({shown}) is not monic\n"
        )


def test_kummer(capsys):
    code, out, _ = run_cli(["kummer", "2", "1", "1", "1", "--half-dim", "2"], capsys)
    assert code == 0
    assert "trace 3" in out
    assert "6.854101966" in out.replace("6.85410196625", "6.854101966")
    code, out, _ = run_cli(["kummer", "1", "1", "0", "1", "--half-dim", "5"], capsys)
    assert code == 0
    assert "entropy = 0" in out
    code, _, err = run_cli(["kummer", "2", "0", "0", "1"], capsys)
    assert code == 3


def test_kummer_past_double_range(capsys):
    # d_400 = d_1^400 is about 10^334; the report is exact and certified all the same
    code, out, err = run_cli(["kummer", "2", "1", "1", "1", "--half-dim", "400"], capsys)
    assert code == 0 and err == ""
    row = next(line for line in out.splitlines() if line.startswith("d_400 "))
    assert_correctly_rounded(row.split()[-1], lambda: ((7 + 3 * mpmath.sqrt(5)) / 2) ** 400, 12)


def test_kummer_json_matrix_past_53_bits(capsys):
    code, out, _ = run_cli(["kummer", str(10**20), "1", str(10**20 - 1), "1", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [[str(10**20), 1], [str(10**20 - 1), 1]]
    assert report["trace"] == str(10**20 + 1)
    # d_1 is the root of x^2 - (t^2 - 2) x + 1
    assert report["spectrum"]["d1"]["poly"] == [1, str(-(10**40 + 2 * 10**20 - 1)), 1]
    assert decode_coeffs(report["spectrum"]["d1"]["poly"]) == [1, -((10**20 + 1) ** 2 - 2), 1]


def test_salem_check_json_coefficients_past_53_bits(capsys):
    t = 10**30 + 1
    code, out, _ = run_cli(["--format", "json", "salem-check", "1", str(-t), "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["input"] == report["classification"]["salem_poly"] == [1, str(-t), 1]
    root = report["classification"]["salem_root"]
    assert root["poly"] == [1, str(-t), 1]
    assert algebraic_real_from_json(root).poly == IntPolynomial((1, -t, 1))


def test_import_leaves_numpy_out():
    # the demo and an exit-4 report, the one path that used numpy, run too,
    # and so do a 200-digit spectrum, a Salem root of degree 10 and a
    # search, none of which loads decimal: every printed decimal and both
    # entropy logarithms are computed on integers
    inputs = Path(__file__).parent / "golden" / "inputs"
    runs = [
        ["beauville-demo"],
        ["degrees", "--lattice", str(inputs / "g4.json"), "--isometry", str(inputs / "m4_salem_squared.json")],
        ["--precision", "200", "kummer", "2", "1", "1", "1", "--half-dim", "3"],
        ["salem-check", "--", *LEHMER.split()],
        ["search", "--lattice", rank3_path(), "--bound", "3"],
    ]
    script = (
        "import json, sys, hkdd.cli\n"
        "codes = [hkdd.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'numpy' in sys.modules, 'decimal' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True, check=True)
    assert proc.stderr.splitlines()[-1] == "[0, 4, 0, 0, 0] False False"
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []


def test_unexpected_error_is_one_line_exit_1(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("no such\nstate")

    monkeypatch.setattr(cli, "cmd_lattice_info", broken)
    code, out, err = run_cli(["lattice-info", rank3_path()], capsys)
    assert code == cli.EXIT_INTERNAL == 1
    assert out == ""
    assert err == "internal error: RuntimeError: no such state\n"


def test_natural_check(capsys, m1m2_file):
    code, out, _ = run_cli(
        ["natural-check", "--lattice", rank3_path(), "--isometry", m1m2_file], capsys
    )
    assert code == 0
    assert "NotNatural: fixed class H1 - 6e + H2 has norm -48, required -2" in out


def test_beauville_demo_contents(capsys):
    code, out, err = run_cli(["beauville-demo"], capsys)
    assert code == 0
    assert "(8, -8, -1)" in out
    assert "(4, -8, 1)" in out
    assert "rejected (4, -8, 1)" in out
    assert "x^3 - 35*x^2 + 35*x - 1" in out
    assert "NotNatural: fixed class H1 - 6e + H2 has norm -48, required -2" in out
    assert "17+12*sqrt(2)" in out


def test_beauville_demo_json(capsys):
    code, out, _ = run_cli(["--format", "json", "beauville-demo"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert dump_json(parsed) == out
    assert parsed["composition"]["char_poly"] == [-1, 35, -35, 1]
    assert parsed["naturality"]["verdict"] == "NotNatural"
    assert parsed["naturality"]["witness"] == {"vector": [1, -6, 1], "norm": -48}


def test_search_flags_small_candidates(capsys, tmp_path):
    code, out, _ = run_cli(["search", "--lattice", rank3_path(), "--bound", "3"], capsys)
    assert code == 0
    assert "salem isometries" in out


@pytest.mark.parametrize("digits", [3, 12, 50, 200])
def test_search_roots_correctly_rounded(capsys, digits):
    code, out, _ = run_cli(["--format", "json", "--precision", str(digits), "search",
                            "--lattice", rank3_path(), "--bound", "5"], capsys)
    assert code == 0
    found = decimals_of(json.loads(out))
    assert len(found) == 2
    for printed, value in found:
        assert_correctly_rounded(printed, value, digits)


def test_search_deterministic_across_processes_and_threads(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "hkdd.cli",
        "search",
        "--lattice",
        rank3_path(),
        "--bound",
        "5",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_closed_stdout_ends_the_output():
    # about 430 kB, far past the pipe buffer, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "hkdd.cli", "kummer", "3", "1", "2", "1", "--half-dim", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=30)
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == b"SL(2,Z) matrix [[3, 1], [2, 1]], trace 4\n"
    assert (code, err) == (0, b"")


def test_precision_flag(capsys, m1m2_file):
    code, out, _ = run_cli(
        ["--precision", "6", "degrees", "--lattice", rank3_path(), "--isometry", m1m2_file],
        capsys,
    )
    assert code == 0
    assert "33.9706" in out
    code, _, err = run_cli(
        ["--precision", "2", "degrees", "--lattice", rank3_path(), "--isometry", m1m2_file],
        capsys,
    )
    assert code == 2


def count_calls(monkeypatch, fn, owner=None) -> list:
    """Count the calls of fn, a method of the class owner when one is given,
    else a function, through every hkdd module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    if owner is not None:
        monkeypatch.setattr(owner, fn.__name__, counted)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hkdd" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("digits", [12, 50, 200])
@pytest.mark.parametrize(
    "argv, n, d1",
    [
        (["kummer", "2", "1", "1", "1", "--half-dim", "3"], 3, lambda: (7 + 3 * mpmath.sqrt(5)) / 2),
        (["kummer", "31", "2", "15", "1", "--half-dim", "100"], 100, lambda: 511 + mpmath.sqrt(511**2 - 1)),
        (["beauville-demo"], 2, lambda: 17 + 12 * mpmath.sqrt(2)),
    ],
    ids=["kummer-t3-n3", "kummer-t32-n100", "demo"],
)
def test_entropy_within_one_ulp_of_mpmath(capsys, argv, n, d1, digits):
    code, out, _ = run_cli(["--format", "json", "--precision", str(digits)] + argv, capsys)
    assert code == 0
    report = json.loads(out)
    entropy = (report["spectra"][0]["spectrum"] if "spectra" in report else report["spectrum"])["entropy"]
    assert_correctly_rounded(entropy["nats"], lambda: n * mpmath.log(d1()), digits)
    assert_correctly_rounded(entropy["log10"], lambda: n * mpmath.log10(d1()), digits)


def kummer_d1(t: int):
    """d_1 of the Kummer example of trace t > 2: the square of the root
    (t + sqrt(t^2 - 4))/2, for mpmath at its working precision."""
    return lambda: ((t + mpmath.sqrt(t * t - 4)) / 2) ** 2


def test_kummer_tall_table_correctly_rounded(capsys):
    # the midpoint rule printed 8.20613852652E+504 for d_604, and missed
    # d_759 and d_903 likewise, with their mirrors
    code, out, _ = run_cli(["kummer", "2", "1", "1", "1", "--half-dim", "1000"], capsys)
    assert code == 0
    rows = {line.split()[0]: line.split()[-1] for line in out.splitlines() if line.startswith("d_")}
    assert rows["d_604"] == rows["d_1396"] == "8.20613852651E+504"
    for k in (604, 759, 903):
        assert rows[f"d_{k}"] == rows[f"d_{2000 - k}"]
        assert_correctly_rounded(rows[f"d_{k}"], lambda: kummer_d1(3)() ** k, 12)


@pytest.mark.parametrize("digits", [12, 50, 200])
@pytest.mark.parametrize("n", [2, 17, 100])
@pytest.mark.parametrize("t", [3, 7, 56])
def test_kummer_sweep_correctly_rounded(capsys, t, n, digits):
    # the SL(2,Z) matrix [[t-1, 1], [t-2, 1]] has trace t and determinant 1
    argv = ["--format", "json", "--precision", str(digits), "kummer", str(t - 1), "1", str(t - 2), "1"]
    code, out, _ = run_cli(argv + ["--half-dim", str(n)], capsys)
    assert code == 0
    spectrum = json.loads(out)["spectrum"]
    d1 = kummer_d1(t)
    with mpmath.workdps(3 * digits + 20):
        powers = [d1() ** e for e in range(n + 1)]
    for entry in spectrum["entries"]:
        if entry["exponent"] == 0:
            assert entry["decimal"] == "1"  # exact
        else:
            assert_correctly_rounded(entry["decimal"], lambda: powers[entry["exponent"]], digits)
    assert spectrum["d1"]["decimal"] == spectrum["entries"][1]["decimal"]
    assert_correctly_rounded(spectrum["entropy"]["nats"], lambda: n * mpmath.log(d1()), digits)
    assert_correctly_rounded(spectrum["entropy"]["log10"], lambda: n * mpmath.log10(d1()), digits)


@pytest.mark.parametrize(
    "argv",
    [
        ["kummer", "2", "1", "1", "1", "--half-dim", "5"],
        ["--format", "json", "kummer", "2", "1", "1", "1"],
        ["--format", "json", "degrees", "--isometry"],
        ["beauville-demo"],
        ["--format", "json", "beauville-demo"],
    ],
)
def test_spectrum_report_makes_no_decimal_str_call(capsys, monkeypatch, m1m2_file, argv):
    # d_1 and the Salem root it is are rendered once, by the table's walk
    def forbidden(self, sig_digits=12):
        raise AssertionError("decimal_str called")

    if "degrees" in argv:
        argv = argv + [m1m2_file, "--lattice", rank3_path()]
    monkeypatch.setattr(AlgebraicReal, "decimal_str", forbidden)
    assert run_cli(argv, capsys)[0] == 0


def test_import_leaves_argparse_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hkdd.cli; print('argparse' in sys.modules, 'gettext' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False False"


def test_import_leaves_dataclasses_and_inspect_out():
    # dataclasses pulls in inspect, ast, dis and tokenize: a third of a cold
    # start; every rational in the package is a pair of ints, so no fractions
    names = "{'dataclasses', 'inspect', 'ast', 'dis', 'fractions'}"
    code = f"import sys, hkdd.cli; print(*sorted({names} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "\n"


def test_no_module_imports_pathlib():
    # site imports pathlib at start-up, so sys.modules cannot show this; a
    # forked worker that builds a path object copies the pages it touches
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        imports = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, (ast.Import, ast.ImportFrom))]
        names = [getattr(n, "module", None) or "" for n in imports] + [a.name for n in imports for a in n.names]
        assert not [name for name in names if name.split(".")[0] == "pathlib"], path.name


@pytest.mark.parametrize("kind", ["directory", "missing", "latin-1"])
def test_unreadable_input_exits_2_naming_the_path_as_given(capsys, tmp_path, kind):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes('{"gram": [[2]], "labels": ["\u00e9"]}'.encode("latin-1"))
    given = f"{tmp_path}/./{kind}"
    code, out, err = run_cli(["lattice-info", given], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {given}: ") and err.count("\n") == 1
    if kind != "latin-1":  # the OS error names the path as given, not normalised
        assert err.endswith(f": {given!r}\n")


@pytest.mark.parametrize("argv, first_line", [
    (["-h"], "usage: hkdd [options] <command> ..."),
    (["kummer", "-h"], "usage: hkdd [options] kummer a b c d"),
    (["--format", "json", "degrees", "--he"], "usage: hkdd [options] degrees"),
    (["salem-check", "--help", "x"], "usage: hkdd [options] salem-check coeffs..."),
])
def test_help_prints_usage_and_exits_0(capsys, argv, first_line):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "unknown command 'bogus'"),
    (["--precision", "2", "beauville-demo"], "--precision must be at least 3"),
    (["--precision", "4301", "beauville-demo"], "--precision must be at most 4300"),
    (["kummer", "2", "1", "1", "1", "--half-dim", "0"], "--half-dim must be at least 1"),
    (["search", "--lattice", "lattice.json", "--bound", "0"], "--bound must be at least 1"),
    (["kummer", "2", "1", "1", "1", "--half-dim"], "--half-dim expects a value"),
    (["salem-check", "--", "1", "1" * 5001, "1"], "salem-check: integer has more than 4300 digits\n"),
])
def test_usage_error_returns_2_without_system_exit(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)  # a SystemExit would fail the test
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("options", [["--format", "json"], ["--precision", "50"], ["--format=json", "--prec", "50"]])
def test_global_options_on_either_side_of_the_command(capsys, options):
    before = run_cli(options + ["kummer", "2", "1", "1", "1"], capsys)
    after = run_cli(["kummer", "2", "1", "1", "1"] + options, capsys)
    assert before == after and before[0] == 0
    assert before != run_cli(["kummer", "2", "1", "1", "1"], capsys)


def reference_args(argv: list[str]) -> dict | str | None:
    """What the argparse reference and the range checks main made after it
    give for argv: the attribute dict, "help" where -h exits 0, or None where
    they exit 2."""
    try:
        with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
            args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code in (0, 2)
        return "help" if exc.code == 0 else None
    in_range = 3 <= args["precision"] <= 4300 and args.get("half_dim", 1) >= 1 and args.get("bound", 1) >= 1
    return args if in_range else None


R, I = "lattice.json", "iso.json"
# every command line of the tests, then the corners of the grammar
PARSE_CASES = [
    ["--format", fmt, "--precision", "12"] + case.split() for case in CASES.values() for fmt in ("table", "json")
] + [
    ["lattice-info", R], ["--format", "json", "lattice-info", R],
    ["degrees", "--lattice", R, "--isometry", I, "--half-dim", "2"], ["degrees", "--lattice", R, "--isometry", I],
    ["--format", "json", "degrees", "--isometry", I, "--lattice", R],
    ["--precision", "6", "degrees", "--lattice", R, "--isometry", I],
    ["--precision", "2", "degrees", "--lattice", R, "--isometry", I],
    ["salem-check", "--", "1", "-34", "1"], ["salem-check", "--", "-1", "0", "1"], ["salem-check", "--", "1", "-3", "2"],
    ["salem-check", "--", "1", str(-(10**30 + 1)), "1"],
    ["kummer", "2", "1", "1", "1", "--half-dim", "2"], ["kummer", "1", "1", "0", "1", "--half-dim", "5"],
    ["kummer", "2", "0", "0", "1"], ["kummer", str(10**12), "1", "-1", "0", "--half-dim", "2"],
    ["--format", "json", "--precision", "200", "kummer", "31", "2", "15", "1", "--half-dim", "100"],
    ["natural-check", "--lattice", R, "--isometry", I], ["beauville-demo"], ["--format", "json", "beauville-demo"],
    ["--precision", "3", "beauville-demo"], ["search", "--lattice", R, "--bound", "3"],
    ["--format", "json", "--precision", "50", "search", "--lattice", R, "--bound", "5"],
    ["search", "--lattice", R, "--bound", "8"], ["--format", "json", "salem-check", "1", "-1", "0", "-1", "1"],
    # abbreviations and = forms
    ["--form", "json", "--prec", "50", "kummer", "2", "1", "1", "1", "--half", "3"], ["--f=json", "beauville-demo"],
    ["degrees", "--lat", R, "--iso", I, "--half-d", "3"], ["natural-check", "--lattice", R, "--isometry", I, "--e", "1"],
    ["search", "--lattice", R, "--b", "2"], ["degrees", "--h", "2", "--lattice", R, "--isometry", I],
    ["--format=json", "kummer", "2", "1", "1", "1", "--half-dim=3"], ["--prec=50", "degrees", f"--lattice={R}", "--isometry=" + I],
    ["lattice-info", "--lattice=x"], ["degrees", "--lattice=", "--isometry", I], ["--help=x"], ["-h=x"],
    # negatives, -- and interleaving
    ["kummer", "-2", "-1", "-1", "-1"], ["salem-check", "-1", "0", "1"], ["salem-check", "1", "-34", "1"],
    ["kummer", "--", "-2", "-1", "-1", "-1"], ["kummer", "-2", "--", "-1", "-1", "-1"], ["--", "beauville-demo"],
    ["--format", "json", "--", "kummer", "2", "1", "1", "1"], ["salem-check", "--", "1", "--", "1"],
    ["kummer", "2", "1", "--half-dim", "3", "1", "1"], ["kummer", "--half-dim", "-3", "2", "1", "1", "1"],
    ["kummer", "2", "1", "1", "1", "--half-dim", "0"], ["search", "--lattice", R, "--bound", "0"],
    ["--precision", "-5", "beauville-demo"], ["--precision", "4300", "beauville-demo"],
    ["--precision", "4301", "salem-check", "1", "-3", "1"], ["lattice-info", "-"], ["kummer", "+2", "1", "1", "1"],
    ["salem-check", "1", "1_000", "1"], ["--format", "json", "--format", "table", "beauville-demo"],
    ["kummer", "2", "1", "1", "1", "--half-dim", "2", "--half-dim", "4"],
    # malformed
    ["kummer", "2", "1", "1"], ["kummer", "2", "1", "1", "1", "5"], ["salem-check"], ["lattice-info"],
    ["lattice-info", R, R], ["beauville-demo", "x"], ["kummer", "2", "x", "1", "1"], ["salem-check", "1", "-3.5"],
    ["--precision", "twelve", "beauville-demo"], ["kummer", "2", "1", "1", "1", "--half-dim", "2.5"],
    ["--format", "xml", "beauville-demo"], ["bogus"], ["bogus", "-h"], [], ["--format", "json"],
    ["degrees", "--lattice", R], ["search"], ["natural-check", "--isometry", I], ["degrees", "--lattice"],
    ["degrees", "--lattice", "--isometry", I], ["--precision"], ["beauville-demo", "--bogus"],
    ["-x", "beauville-demo"], ["beauville-demo", "-x"], ["--bogus", "beauville-demo"], ["-", "beauville-demo"],
    ["beauville-demo", "--"], ["search", "--lattice", R, "--"], ["kummer", "-2", "1", "1", "-1.5"],
    ["beauville-demo", "--bogus", "-h"], ["kummer", "2", "1", "1", "1", "--half-dim", "--help"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_agrees_with_argparse(capsys, argv):
    expected = reference_args(argv)
    if expected is None:
        assert run_cli(argv, capsys)[:2] == (2, "")
    elif expected == "help":
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.startswith("usage: hkdd")
    else:
        assert vars(cli._parse(argv)) == expected


@pytest.mark.parametrize(
    "argv, spectra",
    [
        (["kummer", "2", "1", "1", "1", "--half-dim", "5"], 1),
        (["--format", "json", "kummer", "2", "1", "1", "1"], 1),
        (["kummer", "1", "1", "0", "1"], 0),
        (["beauville-demo"], 3),
        (["--format", "json", "beauville-demo"], 3),
    ],
)
def test_one_walk_per_printed_spectrum(capsys, monkeypatch, argv, spectra):
    calls = count_calls(monkeypatch, dynamics.power_decimal)
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(calls) == spectra


def test_one_walk_for_degrees(capsys, monkeypatch, m1m2_file):
    calls = count_calls(monkeypatch, dynamics.power_decimal)
    for fmt in ("table", "json"):
        argv = ["--format", fmt, "degrees", "--lattice", rank3_path(), "--isometry", m1m2_file]
        assert run_cli(argv, capsys)[0] == 0
    assert len(calls) == 2


@pytest.mark.parametrize("precision", [3, 12, 50, 200])
def test_beauville_demo_power_checks_pass(capsys, precision):
    code, out, _ = run_cli(["--precision", str(precision), "beauville-demo"], capsys)
    assert code == 0
    checks = [line for line in out.splitlines() if line.startswith("power check:")]
    assert checks == [
        "power check: d_1 of (iota2 iota1)^2 is d_1^2 (Salem factor x^2 - 1154*x + 1)",
        "power check: d_1 of (iota2 iota1)^3 is d_1^3 (Salem factor x^2 - 39202*x + 1)",
    ]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_power_check_catches_a_wrong_exponent(capsys, monkeypatch, iso_m1m2, fmt):
    # power(M, l) returning M^(l+1): every table still has the shape of the
    # degree law, but d_1 of the l = 2 power is d_1^3, not d_1^2
    monkeypatch.setattr(cli, "power", lambda iso, ell: hyperkahler.power(iso, ell + 1))
    code, out, err = run_cli(["--format", fmt, "beauville-demo"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("internal error: AssertionError: d_1 of (iota2 iota1)^2 is not d_1^2")
    for ell in (1, 2, 3):  # the tables the mutant computes pass the shape check
        d1 = dynamics.first_dynamical_degree(cli.power(iso_m1m2, ell))
        spec = dynamics.degree_spectrum(2, d1)
        rows = row_decimals(spec, dynamics.spectrum_decimals(spec, 12))
        assert dynamics.validate_spectrum_shape(rows, Decimal("1e-10")).ok


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_beauville_demo_opens_no_file(capsys, monkeypatch, fmt):
    # the lattice and the involutions it compares with are constants of
    # fixtures; the bundled files are for the command line
    def refuse(*args, **kwargs):
        raise AssertionError(f"open{args}")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)
    code, out, err = run_cli(["--format", fmt, "beauville-demo"], capsys)
    monkeypatch.undo()
    assert (code, err) == (0, "")
    assert out == read_snapshot("beauville-demo")[" ".join(_argv("beauville-demo", fmt, 12))][1]


def test_beauville_demo_classifies_each_polynomial_once(capsys, monkeypatch):
    # char(M) for l = 1, then char(M^2) and char(M^3)
    calls = count_calls(monkeypatch, salem.classify_charpoly)
    assert run_cli(["beauville-demo"], capsys)[0] == 0
    assert len(calls) == 3


# T, T^-1, S, U = [[1, 0], [1, 1]] and -I
SL2_GENERATORS = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((-1, 0), (0, -1)))


def sl2_word(factors):
    m = ((1, 0), (0, 1))
    for f in factors:
        m = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*f)) for row in m)
    return m


def sl2_inverse(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


sl2_words = st.lists(st.sampled_from(SL2_GENERATORS), max_size=7).map(sl2_word)
# s [[1 + ab, a], [b, 1]], of trace s (2 + ab): each branch of the trace rule
sl2_by_trace = st.builds(lambda s, a, b: ((s * (1 + a * b), s * a), (s * b, s)),
                         st.sampled_from((1, -1)), st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=40)
@given(sl2_by_trace, sl2_words, st.integers(2, 4))
def test_kummer_spectrum_is_a_conjugacy_invariant(m, p, n):
    # M, its inverse, its transpose and P M P^-1 have one trace, so one
    # Kummer spectrum; only the echoed matrix differs
    variants = [m, sl2_inverse(m), tuple(zip(*m)), sl2_word([p, m, sl2_inverse(p)])]
    for fmt in ("table", "json"):
        sections = set()
        for v in variants:
            code, out = run(["--format", fmt, "kummer", *(str(x) for row in v for x in row), "--half-dim", str(n)])
            assert code == 0
            if fmt == "json":
                report = json.loads(out)
                del report["matrix"]
                sections.add(dump_json(report))
            else:
                sections.add(out.split("\n", 1)[1])
        assert len(sections) == 1


# (lattice, isometry) inputs of the goldens: a quadratic Salem d_1, Lehmer's
# number, a reflection, the identity, and last a squared Salem factor, which
# exits 4 and so has no table
ISOMETRY_INPUTS = [("rank3", "m1m2"), ("e10_lattice", "e10_coxeter"), ("diag_4_m2_m4", "negate_e3"),
                   ("rank3", "identity3"), ("g4", "m4_salem_squared")]


def isometry_input(case):
    lattice, isometry = _resolve(["{%s}" % case[0], "{%s}" % case[1]])
    return load_lattice(lattice).gram_rows(), load_matrix(isometry)


def run_on(directory, gram, matrix=None, *options):
    """(exit code, stdout, stderr) of degrees on files holding gram and
    matrix, or of lattice-info on gram alone, in table and JSON form; labels
    are left to their default."""
    lattice, isometry = directory / "lattice.json", directory / "isometry.json"
    lattice.write_text(json.dumps({"gram": gram}))
    argv = ["lattice-info", str(lattice)]
    if matrix is not None:
        isometry.write_text(json.dumps({"matrix": matrix}))
        argv = ["degrees", "--lattice", str(lattice), "--isometry", str(isometry), *options]
    runs = []
    for fmt in ("table", "json"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--format", fmt, *argv])
        runs.append((code, out.getvalue(), err.getvalue()))
    return runs


def without_echo(runs, *keys):
    """runs with the echoed input taken out: the keys of the JSON report,
    and the indented Gram rows of the table."""
    (code, table, err), (json_code, text, json_err) = runs
    table = "\n".join(line for line in table.split("\n") if not line.startswith("  ["))
    report = {key: value for key, value in json.loads(text or "{}").items() if key not in keys}
    return (code, table, err), (json_code, report, json_err)


def integer_inverse(m):
    return [[int(x) for x in row] for row in sympy.Matrix(m).inv().tolist()]


@settings(max_examples=60)
@given(st.sampled_from(ISOMETRY_INPUTS), st.randoms(use_true_random=False), st.sampled_from((3, 12, 50)))
def test_degrees_and_lattice_info_are_invariant_under_a_change_of_basis(tmp_path_factory, case, rng, digits):
    gram, _ = isometry_input(case)
    assert_invariant_under(tmp_path_factory.mktemp("basis"), case, random_unimodular(rng, len(gram)), digits)


def test_change_of_basis_to_a_zero_leading_entry(tmp_path_factory):
    # P's first column (1, 0, 1) is isotropic for diag(4, -2, -4), so
    # P^T G P starts with 0 and its determinant takes a row swap, which a
    # random P seldom asks for
    p = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    gram, _ = isometry_input(("diag_4_m2_m4", "negate_e3"))
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), gram), p)[0][0] == 0
    assert_invariant_under(tmp_path_factory.mktemp("basis"), ("diag_4_m2_m4", "negate_e3"), p, 12)


def assert_invariant_under(directory, case, p, digits):
    # (P^T G P, P^-1 M P) is the same isometry in another basis, and M^-1
    # has M's characteristic polynomial: only the echoed input differs
    gram, m = isometry_input(case)
    gram_p = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), gram), p)
    m_p = linalg.mat_mul(linalg.mat_mul(integer_inverse(p), m), p)
    options = ("--half-dim", "2", "--precision", str(digits))
    want = without_echo(run_on(directory, gram, m, *options), "lattice", "isometry")
    assert want[0][0] in (0, 4)
    assert without_echo(run_on(directory, gram_p, m_p, *options), "lattice", "isometry") == want
    inverse = integer_inverse(m)
    assert without_echo(run_on(directory, gram, inverse, *options), "lattice", "isometry") == want
    info = without_echo(run_on(directory, gram), "gram")
    assert without_echo(run_on(directory, gram_p), "gram") == info


@settings(max_examples=40)
@given(st.sampled_from(ISOMETRY_INPUTS[:4]), st.integers(2, 4), st.integers(1, 3), st.sampled_from((3, 12, 50)))
def test_degrees_of_a_power_read_the_table_of_its_base(tmp_path_factory, case, ell, n, digits):
    # d_1(M^l) = d_1(M)^l, so M^l's table at half-dim n is every l-th row
    # of M's at half-dim l*n, its d_1 being M's d_l, with the same entropy
    directory = tmp_path_factory.mktemp("power")
    gram, m = isometry_input(case)

    def spectrum(matrix, half_dim):
        code, out, _ = run_on(directory, gram, matrix, "--half-dim", str(half_dim), "--precision", str(digits))[1]
        assert code == 0
        return json.loads(out)["spectrum"]

    base, power = spectrum(m, ell * n), spectrum(linalg.mat_pow(m, ell), n)
    assert power["d1"]["decimal"] == base["entries"][ell]["decimal"]
    assert [e["decimal"] for e in power["entries"]] == [e["decimal"] for e in base["entries"][::ell]]
    assert (power["entropy"]["nats"], power["entropy"]["log10"]) == (base["entropy"]["nats"], base["entropy"]["log10"])


def test_every_error_has_a_documented_exit_code():
    # hkdd.errors is the exit-code table: one class per (exit code, label)
    # row, none elsewhere in the package, and each named in the README
    for info in pkgutil.iter_modules(hkdd.__path__):
        importlib.import_module(f"hkdd.{info.name}")
    classes, todo = [], [errors.HkddError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    assert {cls.__module__ for cls in classes} == {"hkdd.errors"}
    rows = {cls.__name__: (cls.exit_code, cls.label) for cls in classes}
    assert rows == {
        "HkddError": (2, "input error"),
        "UsageError": (2, "usage error"),
        "NotIsometryError": (3, "not an isometry"),
        "NotUnimodularError": (3, "not unimodular"),
        "SpectralStructureViolatedError": (4, "spectral structure violated"),
    }
    assert len(classes) == len(set(rows.values()))
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    for name, (code, label) in rows.items():
        assert f"`{name}` ({code}, `{label}`)" in readme, name


def test_error_without_own_entry_exits_with_base_code(capsys, monkeypatch):
    def mismatched(hilb, index):
        raise errors.HkddError("operands act on different lattices")

    monkeypatch.setattr(cli, "solve_beauville", mismatched)
    code, out, err = run_cli(["beauville-demo"], capsys)
    assert (code, out, err) == (2, "", "input error: operands act on different lattices\n")


def test_search_echoes_a_bound_past_53_bits_as_a_string(capsys, tmp_path):
    lattice = tmp_path / "rank1.json"
    lattice.write_text(json.dumps({"gram": [[2]]}))
    argv = ["--format", "json", "search", "--lattice", str(lattice), "--bound", "100000000000000000000"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out) == {"bound": "100000000000000000000", "entries": []}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_search_renders_and_flags_each_root_once(capsys, monkeypatch, fmt):
    # bound 3 finds no Salem isometry of the rank-3 lattice; bound 5 finds two
    decimals = count_calls(monkeypatch, AlgebraicReal.decimal_str, AlgebraicReal)
    compares = count_calls(monkeypatch, AlgebraicReal.compare_rational, AlgebraicReal)
    code, out, _ = run_cli(["--format", fmt, "search", "--lattice", rank3_path(), "--bound", "5"], capsys)
    assert code == 0 and out.count("13.9282032303") == 1
    assert len(decimals) == len(compares) == 2
    assert [args[1:] for args in compares] == [(13, 10)] * 2


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_search_walks_each_root_once(capsys, monkeypatch, fmt):
    # the sort, the decimal and the small-Salem flag of a root all step one
    # quadratic refinement walk; bound 8 finds twelve roots
    salem._certify.cache_clear()
    walks = count_calls(monkeypatch, AlgebraicReal._quadratic_walk, AlgebraicReal)
    code, out, _ = run_cli(["--format", fmt, "search", "--lattice", rank3_path(), "--bound", "8"], capsys)
    assert code == 0
    assert len(walks) == len({id(args[0]) for args in walks}) == 12


@pytest.mark.parametrize("gram", [[[4, 0, 8], [0, -2, 0], [8, 0, 4]], [[2]], [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]])
def test_search_takes_det_g_once(capsys, monkeypatch, tmp_path, gram):
    # at rank <= 4 the det G = 0 refusal is the one determinant of G: the
    # enumeration takes no determinant, and a found isometry of det +-1
    # needs no det G to be checked
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"gram": gram}))
    calls = count_calls(monkeypatch, linalg.det_bareiss)
    code, _, _ = run_cli(["search", "--lattice", str(path), "--bound", "1"], capsys)
    assert code == 0
    assert [args[0] for args in calls].count(gram) == 1


def test_salem_check_table_renders_the_root_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, AlgebraicReal.decimal_str, AlgebraicReal)
    code, out, _ = run_cli(["salem-check", "--", *LEHMER.split()], capsys)
    assert code == 0 and out.splitlines()[-1].endswith(" = 1.17628081826")
    assert len(calls) <= 1


def test_polynomial_and_salem_leave_json_to_the_cli():
    for module in (polynomial, salem):
        tree = ast.parse(inspect.getsource(module))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        imported = [getattr(n, "module", None) or "" for n in imports]
        imported += [a.name for n in imports for a in n.names]
        assert not [name for name in imported if "jsonio" in name], module.__name__
        assert "to_json" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_commands_return_a_report_and_main_alone_writes_it():
    reads = inspect.getsource(cli).count("args.format")
    assert reads == inspect.getsource(cli.main).count("args.format") == 1
    commands = [fn for name, fn in vars(cli).items() if name.startswith("cmd_")]
    assert len(commands) == len(cli.COMMANDS)
    for fn in commands:
        source = inspect.getsource(fn)
        assert "sys.stdout" not in source and source.count("print(") == source.count("file=sys.stderr")
    report, table = cli.cmd_kummer(cli._parse(["kummer", "2", "1", "1", "1"]))
    assert isinstance(report, dict) and inspect.isgenerator(table)
