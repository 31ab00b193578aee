"""Seeded inputs and job lists for the three benchmark workloads.

Every generator takes a ``random.Random`` built from the seed, so one seed
always gives the same job list (``job_list_hash`` prints its digest). A job is
one ``hkdd`` CLI invocation: ``argv`` refers to input files by the placeholder
``{dir}``, which the runner replaces with the directory it writes them to, and
``rc`` is the exit code the job must return.

Job kinds follow a fixed cycle, as do format, precision and which matrix or
diagram a job uses. Sizes (half-dimension, Kummer |trace|, bound) come from
low-discrepancy streams (``Streams``), the same for every seed. The sizes
set a job's time, so fixed sizes keep the job-time distribution, and with
it the reported percentiles, the same across seeds. The seed picks the
signs of the Kummer traces, the SL(2,Z) words, the order of the
reflections in each Coxeter product, the lattices of ``lattice-info`` and
the order of the catalogue searches.
"""

from __future__ import annotations

import hashlib
import json
import random

# ---------------------------------------------------------------------------
# lattices and isometries
# ---------------------------------------------------------------------------

RANK3 = {"labels": ["H1", "e", "H2"], "gram": [[4, 0, 8], [0, -2, 0], [8, 0, 4]]}
M1 = [[3, 2, 8], [-4, -3, -8], [0, 0, -1]]
M2 = [[-1, 0, 0], [-8, -3, -4], [8, 2, 3]]
U_2_4 = {"labels": ["u1", "u2", "a", "b"], "gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -4]]}
DIAG_2_M2_CUBED = {"labels": ["h", "a", "b", "c"], "gram": [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]}

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
# T_{p,q,r} diagrams whose Coxeter elements classify as SalemStructure, with
# the Salem factor of their char poly (constant first); the oracle rechecks
# both with sympy on every run
SALEM_FACTORS = {
    (2, 3, 7): LEHMER,
    (2, 3, 8): (1, 0, 0, -1, 0, -1, 0, -1, 0, 0, 1),
    (2, 4, 5): (1, 0, 0, -1, -1, -1, 0, 0, 1),
    (3, 3, 4): (1, 0, -1, -1, -1, 0, 1),
    (2, 3, 10): (1, 0, 0, -1, -1, -1, 0, 0, 1),
    (2, 3, 12): (1, -1, 0, 0, 0, -1, 1, -1, 0, 0, 0, -1, 1),
}
TPQR = tuple(SALEM_FACTORS)
# extra diagonal entries <d> of the rank-4 extension rank3 + <d>
RANK4_EXTRA = (-4, -6, 2, 6)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_pow(m, k):
    out = identity(len(m))
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def tpqr_gram(p: int, q: int, r: int) -> list[list[int]]:
    """Gram matrix of the T_{p,q,r} tree with roots of norm -2: a centre node
    with arms of p-1, q-1 and r-1 further nodes; adjacent nodes pair to 1."""
    n = p + q + r - 2
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    nxt = 1
    for arm in (p, q, r):
        prev = 0
        for _ in range(arm - 1):
            g[prev][nxt] = g[nxt][prev] = 1
            prev, nxt = nxt, nxt + 1
    return g


def reflection(g: list[list[int]], i: int) -> list[list[int]]:
    """s_i(v) = v + (v, a_i) a_i, the reflection in the norm -2 root a_i."""
    n = len(g)
    s = identity(n)
    s[i] = [int(i == j) + g[i][j] for j in range(n)]
    return s


def coxeter_element(g: list[list[int]], order: list[int]) -> list[list[int]]:
    """Product of the simple reflections in the given order."""
    m = identity(len(g))
    for i in order:
        m = mat_mul(m, reflection(g, i))
    return m


SL2_GENERATORS = ([[1, 1], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [-1, 1]], [[0, -1], [1, 0]])


def sl2_word(rng: random.Random, trace: int) -> list[list[int]]:
    """w T^a U^b w^-1 with T = [[1,1],[0,1]], U = [[1,0],[1,1]], a random
    word w in the SL(2,Z) generators, and a*b = trace - 2."""
    m = trace - 2
    divisors = [a for a in range(1, abs(m) + 1) if m % a == 0] or [0]
    a = rng.choice(divisors) * rng.choice((1, -1))
    b = m // a if a else rng.randint(-3, 3)
    w = identity(2)
    for _ in range(rng.randint(1, 4)):
        w = mat_mul(w, rng.choice(SL2_GENERATORS))
    w_inv = [[w[1][1], -w[0][1]], [-w[1][0], w[0][0]]]
    return mat_mul(mat_mul(w, [[1 + a * b, a], [b, 1]]), w_inv)


def rank4_extension(d: int) -> dict:
    lat = [row + [0] for row in RANK3["gram"]] + [[0, 0, 0, d]]
    return {"labels": RANK3["labels"] + ["X"], "gram": lat}


FORMATS = ("table", "json")
PRECISIONS = (12, 50, 200)

# Largest --half-dim drawn per precision. A table's refinement cost grows
# with digits times half-dim times the degree of d_1, and these caps keep a
# job within a few seconds. Degree-10 to 14 Salem factors at 200 digits take
# 5-10 s per table, so Coxeter tables stop at 50 digits and their Salem
# factors meet 200 digits through salem-check.
KUMMER_HALF_DIM = {12: 100, 50: 30, 200: 8}
FIXTURE_HALF_DIM = {12: 12, 50: 12, 200: 6}
COXETER_HALF_DIM = {12: 8, 50: 3}

GOLDEN = 0.6180339887498949


class Streams:
    """Counters and low-discrepancy draws, one stream per key.

    The k-th draw of a stream is frac(0.3 + k * golden ratio) scaled to the
    range, so every prefix of a list covers each range evenly. A seeded
    jitter would move some sizes across a step in job time from seed to
    seed: a rank-3 search takes about 0.1, 0.5, 0.85 or 1.3 s at bounds
    4-7, 8-11, 12-14 and 15-16. On a shared 2-core VM, a 5 % jitter spread
    the median of a spectra run over five seeds by 0.12 of its value.
    """

    def __init__(self):
        self.ticks: dict = {}

    def tick(self, key) -> int:
        """How many times `key` was ticked before; ticks it once more."""
        self.ticks[key] = self.ticks.get(key, 0) + 1
        return self.ticks[key] - 1

    def draw(self, key, lo: int, hi: int) -> int:
        u = (0.3 + self.tick(key) * GOLDEN) % 1.0
        return lo + int(u * (hi - lo + 1))


def _choice(k: int, options: tuple | list):
    """The k-th of a fixed golden-ratio walk over options, the same for every
    seed; it does not line up with the format and precision cycle."""
    return options[int(((k * GOLDEN) % 1.0) * len(options))]


def _globals(i: int, precisions=PRECISIONS) -> list[str]:
    """Cycle format and precision so every combination recurs evenly."""
    return ["--format", FORMATS[i % 2], "--precision", str(precisions[(i // 2) % len(precisions)])]


def _job(kind: str, argv: list[str], rc: int = 0) -> dict:
    """One CLI invocation and the exit code it must return."""
    return {"kind": kind, "argv": argv, "rc": rc}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def spectra(rng: random.Random, files: dict, n_jobs: int) -> list[dict]:
    files["rank3.json"] = RANK3
    fixture_isos = {"m1": M1, "m2": M2, "m1m2": mat_mul(M1, M2), "m2m1": mat_mul(M2, M1),
                    "m1m2_2": mat_pow(mat_mul(M1, M2), 2), "id3": identity(3)}
    for name, m in fixture_isos.items():
        files[f"{name}.json"] = {"matrix": m}
    for p, q, r in TPQR:
        g = tpqr_gram(p, q, r)
        order = list(range(len(g)))
        rng.shuffle(order)
        files[f"t{p}{q}{r}_lat.json"] = {"gram": g}
        files[f"t{p}{q}{r}_cox.json"] = {"matrix": coxeter_element(g, order)}
    streams = Streams()
    jobs = []
    kinds = ("kummer", "degrees-coxeter", "kummer", "degrees-fixture", "salem-check")
    for kind in (kinds[i % len(kinds)] for i in range(n_jobs)):
        k = streams.tick(kind)
        opts = _globals(k, (12, 50) if kind == "degrees-coxeter" else PRECISIONS)
        digits = int(opts[3])
        if kind == "kummer":
            # The job time grows with |trace|, so it follows a stream too.
            # The second 12-digit Kummer job of every list gets |trace| 56 at
            # half-dim 92 and hits the float overflow in degree_spectrum
            # (ROADMAP item 3): one failed job per run, kept.
            m = sl2_word(rng, streams.draw("trace", 0, 60) * rng.choice((1, -1)))
            half = streams.draw(("half-dim", kind, digits), 2, KUMMER_HALF_DIM[digits])
            argv = opts + ["kummer", *(str(x) for row in m for x in row), "--half-dim", str(half)]
        elif kind == "salem-check":
            coeffs = SALEM_FACTORS[_choice(k, TPQR)]
            argv = opts + ["salem-check", *(str(c) for c in coeffs)]
        else:
            if kind == "degrees-coxeter":
                p, q, r = _choice(k, TPQR)
                lat, iso, caps = f"t{p}{q}{r}_lat.json", f"t{p}{q}{r}_cox.json", COXETER_HALF_DIM
            else:
                name = _choice(k, sorted(fixture_isos))
                lat, iso, caps = "rank3.json", f"{name}.json", FIXTURE_HALF_DIM
            half = streams.draw(("half-dim", kind, digits), 2, caps[digits])
            argv = opts + ["degrees", "--lattice", f"{{dir}}/{lat}", "--isometry", f"{{dir}}/{iso}",
                           "--half-dim", str(half)]
        jobs.append(_job(kind, argv))
    return jobs


def catalogue(rng: random.Random, files: dict, n_jobs: int) -> list[dict]:
    """The <2> + <-2>^3 job runs first, once (about 7 s); U + <-2> + <-4>
    stops at bound 3 because bound 4 takes over 10 s. The seed shuffles the
    order of the other searches, and with it which print JSON."""
    files["rank3.json"] = RANK3
    files["u_2_4.json"] = U_2_4
    files["diag_2_m2x3.json"] = DIAG_2_M2_CUBED
    streams = Streams()
    searches = []
    for i in range(1, n_jobs):
        if i % 3 == 0:
            searches.append(("search-u", "u_2_4.json", streams.draw("u", 2, 3)))
        else:
            searches.append(("search-rank3", "rank3.json", streams.draw("rank3", 4, 16)))
    rng.shuffle(searches)
    jobs = [_job("search-rank4-diag", ["search", "--lattice", "{dir}/diag_2_m2x3.json", "--bound", "2"])]
    for i, (kind, lat, bound) in enumerate(searches):
        argv = ["--format", FORMATS[i % 2], "search", "--lattice", f"{{dir}}/{lat}", "--bound", str(bound)]
        jobs.append(_job(kind, argv))
    return jobs


def certify(rng: random.Random, files: dict, n_jobs: int) -> list[dict]:
    """Default 12 digits throughout, so that refinement stays minor."""
    files["rank3.json"] = RANK3
    m12 = mat_mul(M1, M2)
    isos = {"m1": M1, "m2": M2, "id3": identity(3)}
    for k in range(1, 7):
        isos[f"m1m2_{k}"] = mat_pow(m12, k)
    for name, m in isos.items():
        files[f"{name}.json"] = {"matrix": m}
    for d in RANK4_EXTRA:
        files[f"rank4_{d}.json"] = rank4_extension(d)
    files["id4.json"] = {"matrix": identity(4)}
    files["bad_syntax.json"] = '{"gram": [[4, 0, 8], [0, -2, 0]'
    files["bad_gram.json"] = {"gram": [[4, 1, 8], [0, -2, 0], [8, 0, 4]]}
    files["not_iso.json"] = {"matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}
    errors = (
        (["lattice-info", "{dir}/bad_gram.json"], 2),
        (["degrees", "--lattice", "{dir}/bad_syntax.json", "--isometry", "{dir}/m1.json"], 2),
        (["natural-check", "--lattice", "{dir}/rank3.json", "--isometry", "{dir}/not_iso.json"], 3),
    )
    streams = Streams()
    jobs = []
    # Five jobs in eight take about 10 ms (rank-3 natural-check, lattice-info,
    # error) and one in eight is a rank-4 identity (about 0.5 s of
    # represents), so the median and the p95 both fall well inside a cluster
    # of job times rather than on the edge between two.
    kinds = ("natural-check", "lattice-info", "natural-check", "degrees-power", "natural-check", "error",
             "beauville-demo", "natural-check-rank4")
    for kind in (kinds[i % len(kinds)] for i in range(n_jobs)):
        k = streams.tick(kind)
        opts = ["--format", FORMATS[k % 2]]
        if kind.startswith("natural-check"):
            if kind == "natural-check":
                lat, iso = "rank3.json", _choice(k, sorted(isos))
            else:
                lat, iso = f"rank4_{_choice(k, RANK4_EXTRA)}.json", "id4"
            jobs.append(_job(kind, opts + ["natural-check", "--lattice", f"{{dir}}/{lat}",
                                           "--isometry", f"{{dir}}/{iso}.json"]))
        elif kind == "degrees-power":
            name = f"m1m2_{streams.draw('power', 1, 6)}"
            argv = opts + ["degrees", "--lattice", "{dir}/rank3.json", "--isometry", f"{{dir}}/{name}.json",
                           "--half-dim", str(streams.draw("half-dim", 2, 8))]
            jobs.append(_job(kind, argv))
        elif kind == "beauville-demo":
            jobs.append(_job(kind, opts + ["beauville-demo"]))
        elif kind == "lattice-info":
            lat = rng.choice(["rank3.json"] + [f"rank4_{d}.json" for d in RANK4_EXTRA])
            jobs.append(_job(kind, opts + ["lattice-info", f"{{dir}}/{lat}"]))
        else:
            argv, rc = errors[k % len(errors)]
            jobs.append(_job(kind, opts + argv, rc))
    return jobs


WORKLOADS = {"spectra": spectra, "catalogue": catalogue, "certify": certify}


def build(workload: str, seed: int, n_jobs: int) -> tuple[dict, list[dict]]:
    """(files, jobs) for a workload; the files are JSON objects or raw text."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict = {}
    jobs = WORKLOADS[workload](rng, files, n_jobs)
    return files, jobs


def job_list_hash(files: dict, jobs: list[dict]) -> str:
    blob = json.dumps({"files": files, "jobs": jobs}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
