"""Golden stdout and exit codes for every subcommand, in table and JSON form,
at precisions 3, 12, 50 and 200.

Each case has one snapshot file in tests/golden/ holding a section per
format and precision: a header line `$ hkdd <argv> [exit <code>]`, then the
exact stdout. Input paths in the argv are written as {name} placeholders for
tests/golden/inputs/<name>.json, and {rank3} for the bundled rank-3 lattice.

Regenerate the snapshots with `PYTHONPATH=src python tests/test_cli_golden.py`;
the diff of tests/golden/ is then the change in CLI output.
"""

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hkdd import fixtures, polynomial, salem
from hkdd.cli import main
from conftest import assert_correctly_rounded, decimals_of

GOLDEN = Path(__file__).parent / "golden"
PRECISIONS = (3, 12, 50, 200)
FORMATS = ("table", "json")

LEHMER = "1 1 0 -1 -1 -1 -1 -1 0 1 1"
CASES = {
    "lattice-info": "lattice-info {rank3}",
    "degrees-m1m2": "degrees --lattice {rank3} --isometry {m1m2} --half-dim 2",
    "degrees-identity": "degrees --lattice {rank3} --isometry {identity3} --half-dim 3",
    "degrees-e10-lehmer": "degrees --lattice {e10_lattice} --isometry {e10_coxeter} --half-dim 3",
    "degrees-not-isometry": "degrees --lattice {rank3} --isometry {not_isometry}",
    "degrees-salem-squared": "degrees --lattice {g4} --isometry {m4_salem_squared}",
    "salem-check-34": "salem-check -- 1 -34 1",
    "salem-check-lehmer": f"salem-check -- {LEHMER}",
    "salem-check-not-palindromic": "salem-check -- -1 -1 1",
    "salem-check-not-monic": "salem-check -- 1 2",
    "kummer-t3": "kummer 2 1 1 1 --half-dim 3",
    "kummer-t-3": "kummer -2 -1 -1 -1 --half-dim 2",
    "kummer-flat": "kummer 1 1 0 1 --half-dim 2",
    "kummer-t6": "kummer 5 2 2 1 --half-dim 7",
    "kummer-one-point": "kummer 2 1 1 1 --half-dim 1",
    # tall tables: exact forms of hundreds of digits (17+12*sqrt(2) to the
    # 120th power), and the degree-10 Lehmer root in positional form
    "kummer-t6-half-dim-120": "kummer 5 2 2 1 --half-dim 120",
    "degrees-e10-half-dim-60": "degrees --lattice {e10_lattice} --isometry {e10_coxeter} --half-dim 60",
    "beauville-demo": "beauville-demo",
    "natural-check": "natural-check --lattice {rank3} --isometry {m1m2} --half-dim 2",
    "natural-check-identity3": "natural-check --lattice {rank3} --isometry {identity3} --half-dim 2",
    # the two rules that settle a fixed sublattice of rank below 2
    "natural-check-trivial": "natural-check --lattice {rank3} --isometry {minus_identity3} --half-dim 2",
    "natural-check-rank1-multiple": "natural-check --lattice {rank3} --isometry {diag_m1_1_m1} --half-dim 2",
    "natural-check-rank4": (
        "natural-check --lattice {rank3_plus_minus4} --isometry {identity4} --half-dim 2"
    ),
    # NotNatural by the congruence rule and by the definite signature
    "natural-check-congruence": "natural-check --lattice {diag_4_m2_m4} --isometry {negate_e3}",
    "natural-check-signature": (
        "natural-check --lattice {diag_1_m2_1x3} --isometry {negate_e5} --e-index 1"
    ),
    "search": "search --lattice {rank3} --bound 3",
    # twelve quadratic roots, and ten roots of which five are quartic
    "search-rank3-bound8": "search --lattice {rank3} --bound 8",
    "search-diag-bound2": "search --lattice {diag_2_m2x3} --bound 2",
    # <-2> + <-2> + U: the last coordinate has g_mm = 0, so the box walk
    # solves it from a linear equation
    "search-u-last-bound2": "search --lattice {m2_m2_u} --bound 2",
    # its twin with U first, so that a change of representative or order in
    # the search shows in both bases
    "search-u-first-bound2": "search --lattice {u_m2_m2} --bound 2",
}
HEADER = re.compile(r"^\$ hkdd (.*) \[exit (\d+)\]\n", re.MULTILINE)


def _argv(case: str, fmt: str, precision: int) -> list[str]:
    return ["--format", fmt, "--precision", str(precision)] + CASES[case].split()


def _resolve(argv: list[str]) -> list[str]:
    paths = {"rank3": str(fixtures.fixture_path("rank3_lattice.json"))}

    def path(m: re.Match) -> str:
        return paths.get(m.group(1)) or str(GOLDEN / "inputs" / f"{m.group(1)}.json")

    return [re.sub(r"\{(\w+)\}", path, a) for a in argv]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(_resolve(argv))
    return code, out.getvalue()


def read_snapshot(case: str) -> dict[str, tuple[int, str]]:
    text = (GOLDEN / f"{case}.txt").read_text()
    heads = list(HEADER.finditer(text))
    ends = [h.start() for h in heads[1:]] + [len(text)]
    return {h.group(1): (int(h.group(2)), text[h.end():end]) for h, end in zip(heads, ends)}


def write_snapshot(case: str) -> None:
    parts = []
    for fmt in FORMATS:
        for precision in PRECISIONS:
            argv = _argv(case, fmt, precision)
            code, out = run(argv)
            parts.append(f"$ hkdd {' '.join(argv)} [exit {code}]\n{out}")
    (GOLDEN / f"{case}.txt").write_text("".join(parts))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_snapshot(case):
    snapshot = read_snapshot(case)
    argvs = [_argv(case, fmt, p) for fmt in FORMATS for p in PRECISIONS]
    assert sorted(snapshot) == sorted(" ".join(a) for a in argvs)
    for argv in argvs:
        assert run(argv) == snapshot[" ".join(argv)], " ".join(argv)


def test_quadratic_roots_take_no_sturm_chain_and_no_refinement_step(monkeypatch):
    # every root of this catalogue is quadratic: certified from s > 2 and
    # walked by isqrt, so neither a Sturm chain nor square_free_part, the
    # first call of quadratic interval refinement, is needed
    def refuse(*args):
        raise AssertionError("not needed for a quadratic Salem root")

    salem._certify.cache_clear()
    for module, name in ((polynomial, "square_free_part"), (polynomial, "_sturm_chain"), (salem, "_sturm_chain")):
        monkeypatch.setattr(module, name, refuse)
    snapshot = read_snapshot("search-rank3-bound8")
    for argv in (_argv("search-rank3-bound8", fmt, p) for fmt in FORMATS for p in PRECISIONS):
        assert run(argv) == snapshot[" ".join(argv)], " ".join(argv)


def test_snapshot_decimals_correctly_rounded():
    # the table format prints the same strings as the JSON one
    checked = 0
    for case in CASES:
        for argv, (code, out) in read_snapshot(case).items():
            if code == 0 and argv.startswith("--format json"):
                precision = int(argv.split()[3])
                for printed, value in decimals_of(json.loads(out)):
                    assert_correctly_rounded(printed, value, precision)
                    checked += 1
    # 492 before the two tall tables, which add 4 x 242 (kummer: d_1, 239
    # powers, nats, log10) and 4 x 123 (E10: the root twice, 119 powers, nats,
    # log10), and the U-first search 4 x 34 roots
    assert checked == 2088  # so that the walk cannot pass by finding nothing


if __name__ == "__main__":
    for name in sys.argv[1:] or CASES:
        write_snapshot(name)
