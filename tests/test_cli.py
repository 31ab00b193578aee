import inspect
import io
import json
import subprocess
import sys
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import mpmath
import pytest

from hkdd import cli, dynamics, errors, fixtures, hyperkahler, jsonio, linalg
from hkdd.cli import main
from hkdd.jsonio import dump_json
from hkdd.polynomial import AlgebraicReal
from conftest import assert_correctly_rounded, decimals_of
from oracles import build_parser
from test_cli_golden import CASES


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
    code, _, err = run_cli(["salem-check", "--", "1", "-3", "2"], capsys)
    assert code == 2
    assert "not monic" in err


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


def test_import_leaves_numpy_out():
    # the demo and an exit-4 report, the one path that used numpy, run too
    inputs = Path(__file__).parent / "golden" / "inputs"
    degrees = ["degrees", "--lattice", str(inputs / "g4.json"), "--isometry", str(inputs / "m4_salem_squared.json")]
    script = (
        "import sys, hkdd.cli\n"
        "codes = [hkdd.cli.main(['beauville-demo']), hkdd.cli.main(sys.argv[1:])]\n"
        "print(codes, 'numpy' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", script, *degrees], capture_output=True, text=True, check=True)
    assert proc.stderr.splitlines()[-1] == "[0, 4] False"
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


def count_calls(monkeypatch, fn) -> list:
    """Count the calls of fn through every hkdd module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

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
    (["kummer", "2", "1", "1", "1", "--half-dim", "0"], "--half-dim must be at least 1"),
    (["search", "--lattice", "lattice.json", "--bound", "0"], "--bound must be at least 1"),
    (["kummer", "2", "1", "1", "1", "--half-dim"], "--half-dim expects a value"),
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
    in_range = args["precision"] >= 3 and args.get("half_dim", 1) >= 1 and args.get("bound", 1) >= 1
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
    ["--precision", "-5", "beauville-demo"], ["lattice-info", "-"], ["kummer", "+2", "1", "1", "1"],
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
        dec = dynamics.spectrum_decimals(dynamics.degree_spectrum(2, d1), 12)
        assert dynamics.validate_spectrum_shape(dec.entries, Decimal("1e-10")).ok


def test_every_error_has_a_documented_exit_code():
    classes = {
        cls
        for module in (errors, jsonio)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, errors.HkddError)
    }
    assert jsonio.InputParseError in classes and len(classes) >= 18
    for cls in classes:
        assert cls.exit_code in {2, 3, 4}, cls
        assert isinstance(cls.label, str) and cls.label, cls


def test_error_without_own_entry_exits_with_base_code(capsys, monkeypatch):
    def unsolvable(hilb, index):
        raise errors.NoSolutionError("no integer solution")

    monkeypatch.setattr(cli, "solve_beauville", unsolvable)
    code, out, err = run_cli(["beauville-demo"], capsys)
    assert (code, out, err) == (2, "", "input error: no integer solution\n")
