"""natural-check on lattices of rank 6 to 15 and on degenerate Grams, the
Beauville involution at ranks 5 and 7, search at rank 4 (up to bound 8, with U first or last) and at rank 5 up to
bound 2 and on zero Grams (refused), polynomial work on huge traces and
degree 160, degree tables of half-dimension 1000 at 12, 50 and 200 digits,
of trace 56 at half-dimension 300 and 200 digits, of Lehmer's number at
half-dimension 40000, of ones at half-dimension 200000 and of trace 3 at
half-dimension 5000 end within a stated time with a documented exit
code (0, 2, 3 or 4), and exact forms and report integers past 4300 digits,
and a lattice of rank 163, end in exit 2 with a message naming the bound,
all within a memory cap.
Each case runs `python -m hkdd.cli` in a fresh process with a timeout, so
a hang fails the test instead of stalling the suite.
"""

import json
import pathlib
import random
import resource
import subprocess
import sys

import pytest

INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def diagonal(entries):
    return [[x if i == j else 0 for j, x in enumerate(entries)] for i in range(len(entries))]


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[at + i][at : at + len(row)] = row
        at += len(b)
    return gram


def a_negative(k):
    """The root lattice A_k with its form negated."""
    return [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(k)] for i in range(k)]


def identity(n):
    return diagonal([1] * n)


def negate_e(n, e_index):
    m = identity(n)
    m[e_index][e_index] = -1
    return m


U = [[0, 1], [1, 0]]
# each case: lattice Gram (label "e" at e_index), isometry, seconds, exit
# code, and a line of stdout (or of stderr, for an error)
CASES = {
    "rank6-identity": (
        diagonal([2, -2, 2, 2, 2, 2]), 1, identity(6), 10, 0,
        "PossiblyNatural: fixed class of norm -2 exists",
    ),
    "rank6-negate-e-definite": (
        diagonal([2, -2, 2, 2, 2, 2]), 1, negate_e(6, 1), 10, 0,
        "NotNatural: restricted fixed form cannot represent -2: the form has signature "
        "(p, n, z) = (5, 0, 0), so it takes no negative value",
    ),
    # fixed form 11 * <1, -1, 1, 1, 1>: indefinite, no congruence up to 9
    # excludes -2, and no vector reaches it, so the work budget ends the scan
    "rank6-no-witness-budget": (
        diagonal([11, -2, -11, 11, 11, 11]), 1, negate_e(6, 1), 30, 0,
        "PossiblyNatural: no fixed class of norm -2 found within bound 13, "
        "and no certificate applies",
    ),
    "rank8-identity": (
        block_sum(U, [[-2]], a_negative(5)), 2, identity(8), 10, 0,
        "PossiblyNatural: fixed class of norm -2 exists",
    ),
    "rank10-identity": (
        block_sum(U, [[-2]], a_negative(7)), 2, identity(10), 10, 0,
        "PossiblyNatural: fixed class of norm -2 exists",
    ),
    # shell 1 alone exceeds the represents budget at rank 15; the basis
    # vector e is the witness
    "rank15-identity": (
        block_sum(U, [[-2]], a_negative(12)), 2, identity(15), 10, 0,
        "PossiblyNatural: fixed class of norm -2 exists",
    ),
    "degenerate-gram-identity": (
        diagonal([0, -2, 0]), 1, identity(3), 10, 0,
        "PossiblyNatural: fixed class of norm -2 exists",
    ),
    "zero-gram": (
        diagonal([0, 0, 0]), 1, identity(3), 10, 2,
        "input error: (e, e) = 0, need -2 for n = 2",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_natural_check_ends_in_time(case, tmp_path):
    gram, e_index, matrix, seconds, code, line = CASES[case]
    labels = [f"b{i}" for i in range(len(gram))]
    labels[e_index] = "e"
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"labels": labels, "gram": gram}))
    isometry = tmp_path / "isometry.json"
    isometry.write_text(json.dumps({"matrix": matrix}))
    proc = subprocess.run(
        [sys.executable, "-m", "hkdd.cli", "natural-check",
         "--lattice", str(lattice), "--isometry", str(isometry)],
        capture_output=True,
        text=True,
        timeout=seconds,
    )
    assert proc.returncode == code, proc.stderr
    assert line in (proc.stdout if code == 0 else proc.stderr).splitlines()


DEGENERATE = "input error: search needs a nondegenerate lattice (det G = 0)"
# each case: lattice Gram, entry bound, seconds, exit code, and the
# catalogue's header line (or the whole of stderr, for an error)
SEARCH_CASES = {
    "rank4-bound4": (
        block_sum(U, [[-2]], [[-2]]), 4, 10, 0,
        "salem isometries of <b0, b1, b2, b3> within entry bound 4: 52",
    ),
    # the same lattice as U + <-2> + <-2>, with the isotropic columns last:
    # the last column is filtered from the large norm-0 bucket
    "rank4-isotropic-last-bound8": (
        block_sum([[-2]], [[-2]], U), 8, 10, 0,
        "salem isometries of <b0, b1, b2, b3> within entry bound 8: 159",
    ),
    # the benchmark's rank-4 lattices: their involution pairs take t_2
    # from second compounds, or from t_1 alone when det(ab) = -1
    "rank4-u-2-4-bound3": (
        block_sum(U, [[-2]], [[-4]]), 3, 10, 0,
        "salem isometries of <b0, b1, b2, b3> within entry bound 3: 2",
    ),
    "rank4-diag-bound2": (
        diagonal([2, -2, -2, -2]), 2, 10, 0,
        "salem isometries of <b0, b1, b2, b3> within entry bound 2: 10",
    ),
    "rank5-bound1": (
        block_sum(U, [[-2]], [[-2]], [[-2]]), 1, 10, 0,
        "salem isometries of <b0, b1, b2, b3, b4> within entry bound 1: 0",
    ),
    "rank5-bound2": (
        block_sum(U, [[-2]], [[-2]], [[-2]]), 2, 10, 0,
        "salem isometries of <b0, b1, b2, b3, b4> within entry bound 2: 117",
    ),
    # every matrix of norm-0 columns is an isometry of the zero form: 124^3
    # of them at rank 3 and bound 2, so a degenerate Gram is refused
    "rank3-zero-gram-bound2": (diagonal([0, 0, 0]), 2, 1, 2, DEGENERATE),
    "rank4-zero-gram-bound1": (diagonal([0, 0, 0, 0]), 1, 1, 2, DEGENERATE),
    # refused before the warning on slow searches at rank > 4
    "rank5-zero-gram-bound1": (diagonal([0] * 5), 1, 1, 2, DEGENERATE),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_ends_in_time(case, tmp_path):
    gram, bound, seconds, code, line = SEARCH_CASES[case]
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"labels": [f"b{i}" for i in range(len(gram))], "gram": gram}))
    proc = subprocess.run(
        [sys.executable, "-m", "hkdd.cli", "search", "--lattice", str(lattice), "--bound", str(bound)],
        capture_output=True,
        text=True,
        timeout=seconds,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert line in proc.stdout.splitlines()
    else:
        assert (proc.stdout, proc.stderr) == ("", line + "\n")


def random_palindrome(degree, seed):
    """A monic palindrome of this even degree with entries in [-3, 3]."""
    rng = random.Random(seed)
    half = [rng.randint(-3, 3) for _ in range(degree // 2 - 1)]
    return [1, *half, rng.randint(-3, 3), *reversed(half), 1]


# each case: argv after `hkdd.cli`, seconds, and a line of stdout (or None);
# a case with a line must exit 0
CLI_CASES = {
    # the discriminant t^2 (t^2 - 4) of d1 has prime factors far beyond
    # the trial-division limit of square_part
    "kummer-trace-1e12": (
        ["kummer", str(10**12), "1", "-1", "0", "--half-dim", "2"], 10,
        "case: t > 2 (degree is the square of the large eigenvalue)",
    ),
    "salem-check-trace-1e30": (
        ["salem-check", "--", "1", str(-(10**30 + 1)), "1"], 10,
        f"SalemStructure: Salem(x^2 - {10**30 + 1}*x + 1)",
    ),
    "salem-check-degree-160": (
        ["salem-check", "--", *map(str, random_palindrome(160, 160))], 10, None,
    ),
    # 2,001 correctly rounded 12-digit decimals, up to d_1000 ~ 10^836
    "kummer-half-dim-1000": (
        ["kummer", "2", "1", "1", "1", "--half-dim", "1000"], 20,
        "entropy = 1000*log((7+3*sqrt(5))/2) = 1924.84730024 nats (835.950561000 log10)",
    ),
    # the same table and one of trace 56 at 50 and 200 digits: the walk of
    # d_1 gains bits quadratically and every power is a fixed-point product
    "kummer-half-dim-1000-50-digits": (
        ["--precision", "50", "kummer", "2", "1", "1", "1", "--half-dim", "1000"], 5,
        (
            "entropy = 1000*log((7+3*sqrt(5))/2) = 1924.8473002384137899910356536974736925407"
            "373375426 nats (835.95056099991493507708835695022166728983695967284 log10)"
        ),
    ),
    "kummer-half-dim-1000-200-digits": (
        ["--precision", "200", "kummer", "2", "1", "1", "1", "--half-dim", "1000"], 5,
        (
            "entropy = 1000*log((7+3*sqrt(5))/2) = 1924.8473002384137899910356536974736925407"
            "37337542642078644072675360655470432887097648037716490893899988927359833174625645"
            "0902732949069504910122369674576390167296680288473486008952957498767491009731168 "
            "nats (835.9505609999149350770883569502216672898369596728438141571502455896419413"
            "98698385311063422494041414058006731175746135375087248863543002150714295860781240"
            "89968646287286600306176179022810841720640675894 log10)"
        ),
    ),
    "kummer-trace-56-half-dim-300-200-digits": (
        ["--precision", "200", "kummer", "55", "1", "54", "1", "--half-dim", "300"], 5,
        (
            "entropy = 300*log(1567+168*sqrt(87)) = 2415.019596330970889504671481492826030227"
            "74662218186748337841944240459782712638199131986070039868332297152965245029783303"
            "33560070524005835700249296605420380930199633500839277880128230378113750263871028"
            " nats (1048.82968437475937088278069968073870772444663739728709407946548759530064"
            "33608909070140612093562495281192150313463110728431162020326119148859289592589504"
            "595416538606922235561752599791088858478625403056 log10)"
        ),
    ),
    # 400,001 rows of ones and 10,001 rows of closed forms of up to 4,180
    # digits: a spectrum holds its n + 1 distinct powers, and the table is
    # written line by line, so no row outlives its line
    "kummer-flat-half-dim-200000": (
        ["kummer", "1", "0", "0", "1", "--half-dim", "200000"], 10, "entropy = 0 = 0 nats (0 log10)",
    ),
    "kummer-half-dim-5000": (
        ["kummer", "2", "1", "1", "1", "--half-dim", "5000"], 10,
        "entropy = 5000*log((7+3*sqrt(5))/2) = 9624.23650119 nats (4179.75280500 log10)",
    ),
    # 80,001 rows of Lehmer powers: each retry of power_decimals at more
    # bits frees the failed attempt's bounds before it builds the next
    "degrees-e10-half-dim-40000": (
        ["degrees", "--lattice", str(INPUTS / "e10_lattice.json"),
         "--isometry", str(INPUTS / "e10_coxeter.json"), "--half-dim", "40000"], 20,
        "entropy = 40000*log(root #2 of x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1 "
        "in [1.125, 1.1875]) = 6494.30448031 nats (2820.44059960 log10)",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_ends_in_time(case):
    argv, seconds, line = CLI_CASES[case]
    proc = subprocess.run(
        [sys.executable, "-m", "hkdd.cli", *argv],
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=cap_memory,
    )
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    if line is not None:
        assert proc.returncode == 0
        assert line in proc.stdout.splitlines()


# the determinant, 10^8000, has 8,001 digits
BIG_DETERMINANT = {"gram": [[str(10**4000), 0], [0, str(10**4000)]]}
# each case: argv after `hkdd.cli` ("{lattice}" for a file holding
# BIG_DETERMINANT), seconds, and what needs an integer past 4300 digits,
# which CPython 3.11 cannot write as a string
DIGIT_BOUND_CASES = {
    "kummer-half-dim-5300": (["kummer", "2", "1", "1", "1", "--half-dim", "5300"], 1, "exact form"),
    "kummer-json-half-dim-6000": (
        ["--format", "json", "kummer", "2", "1", "1", "1", "--half-dim", "6000"], 1, "exact form",
    ),
    # far past the bound: the Lucas walk stops at 2*10^4300, not at e = 10^6
    "kummer-half-dim-1000000": (["kummer", "2", "1", "1", "1", "--half-dim", "1000000"], 1, "exact form"),
    # and no list of size n is built before it fails: the memory cap below
    # holds, where building the 2n + 1 exponents first peaks at 255 MB
    "kummer-half-dim-3000000": (["kummer", "2", "1", "1", "1", "--half-dim", "3000000"], 1, "exact form"),
    "salem-check-4000-digit-trace": (["salem-check", "--", "1", "-" + "3" * 4000, "1"], 10, "exact form"),
    # the JSON report holds no exact form, but the run builds it all the same
    "salem-check-json-4000-digit-trace": (
        ["--format", "json", "salem-check", "--", "1", "-" + "3" * 4000, "1"], 10, "exact form",
    ),
    "lattice-info-8001-digit-determinant": (["lattice-info", "{lattice}"], 1, "report"),
    "lattice-info-json-8001-digit-determinant": (
        ["--format", "json", "lattice-info", "{lattice}"], 1, "report",
    ),
}
# address space of each run: far above what these need, far below a
# table of millions of rows
MEMORY_CAP = 128 << 20


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize("case", sorted(DIGIT_BOUND_CASES))
def test_exact_form_past_the_digit_bound_exits_2(case, tmp_path):
    argv, seconds, what = DIGIT_BOUND_CASES[case]
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(BIG_DETERMINANT))
    proc = subprocess.run(
        [sys.executable, "-m", "hkdd.cli", *(str(lattice) if a == "{lattice}" else a for a in argv)],
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=cap_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"input error: {what} has an integer of more than 4300 digits\n"


def t23_coxeter(r):
    """The T_{2,3,r} lattice, a tree of r + 3 roots of norm -2, and its
    Coxeter element s_1 s_2 ... s_(r+3), s_i(v) = v + (v, a_i) a_i."""
    n = r + 3
    gram = diagonal([-2] * n)
    for i, j in [(0, 1), (0, 2), (2, 3), (0, 4)] + [(k, k + 1) for k in range(4, n - 1)]:
        gram[i][j] = gram[j][i] = 1
    m = identity(n)
    for i in range(n):  # m s_i = m + (column i of m) (row i of G)
        column = [row[i] for row in m]
        for j in (j for j in range(n) if gram[i][j]):
            for row, c in zip(m, column):
                row[j] += c * gram[i][j]
    return gram, m


def test_degrees_past_the_rank_limit_exits_2(tmp_path):
    # at rank 163 the traces behind the char poly took 9.4 s; the rank
    # limit refuses the lattice as it is read
    gram, coxeter = t23_coxeter(160)
    lattice, isometry = tmp_path / "t23_160.json", tmp_path / "t23_160_cox.json"
    lattice.write_text(json.dumps({"gram": gram}))
    isometry.write_text(json.dumps({"matrix": coxeter}))
    proc = subprocess.run(
        [sys.executable, "-m", "hkdd.cli", "degrees", "--lattice", str(lattice), "--isometry", str(isometry)],
        capture_output=True,
        text=True,
        timeout=1,
        preexec_fn=cap_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "input error: matrix of size 163 exceeds the rank limit of 64\n"


# the involution is closed form at every rank; candidate records are kept
# on a nondegenerate rank-3 lattice only, so no box of candidate images is
# walked here, which at rank 7 did not end in 30 s
BEAUVILLE = """
from hkdd.hyperkahler import hilbert_lattice, solve_beauville
from hkdd.lattice import make_lattice
base = make_lattice({base})
solution = solve_beauville(hilbert_lattice(base, 2), 0)
print(solution.records)
print(solution.isometry.rows())
"""


@pytest.mark.parametrize(
    "base, involution",
    [
        (
            [[4, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 2]],
            "[[3, 0, 0, 0, 2], [0, -1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [-4, 0, 0, 0, -3]]",
        ),
        (
            diagonal([4, -2, -2, -2, -2, -2]),
            "[[3, 0, 0, 0, 0, 0, 2], [0, -1, 0, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0, 0], "
            "[0, 0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 0, -1, 0], [-4, 0, 0, 0, 0, 0, -3]]",
        ),
    ],
    ids=["rank5", "rank7"],
)
def test_beauville_rank5_ends_with_the_involution(base, involution):
    proc = subprocess.run(
        [sys.executable, "-c", BEAUVILLE.format(base=base)],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["()", involution]
