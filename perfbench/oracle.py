"""Independent checks of every job's output, with sympy and mpmath.

Nothing here imports hkdd. ``Oracle.check(job, reply)`` returns None when
the job's exit code and stdout are right and a one-line reason otherwise:

- every printed decimal (d_1, each d_k, Salem and search roots) is within
  one unit in its last place of an mpmath value computed at precision + 10
  digits; the entropy is checked at min(precision, 15) digits, because the
  program computes it in double precision;
- classifications match a sympy factorization: cyclotomic indices with
  multiplicities, plus the Salem factor;
- every catalogue and demo matrix passes an exact M^T G M = G recheck;
- naturality verdicts match the fixed sublattice from a sympy nullspace;
- error jobs return their documented exit codes and print nothing.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath
import numpy
import sympy

import inputs

X = sympy.Symbol("x")
ENTROPY_DIGITS = 15


class Mismatch(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# exact and high-precision references
# ---------------------------------------------------------------------------


mat_mul = inputs.mat_mul


def transpose(m):
    return [list(c) for c in zip(*m)]


def is_isometry(g, m) -> bool:
    return mat_mul(mat_mul(transpose(m), g), m) == g


@lru_cache(maxsize=None)
def char_poly(m: tuple) -> tuple[int, ...]:
    """det(xI - m), constant term first, for m given as a tuple of rows."""
    coeffs = sympy.Matrix([list(r) for r in m]).charpoly(X).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


def check_inputs() -> None:
    """The T_{2,3,7} (E10) Coxeter element has exactly Lehmer's polynomial,
    and every T_{p,q,r} one classifies with its listed Salem factor."""
    for pqr, salem in inputs.SALEM_FACTORS.items():
        g = inputs.tpqr_gram(*pqr)
        cp = char_poly(tuple(map(tuple, inputs.coxeter_element(g, list(range(len(g)))))))
        if pqr == (2, 3, 7) and cp != inputs.LEHMER:
            raise AssertionError(f"T_(2,3,7) Coxeter element has char poly {cp}, not Lehmer's")
        kind, _, got = classify(cp)
        if kind != "SalemStructure" or got != salem:
            raise AssertionError(f"T_{pqr} Coxeter element classifies as {kind} with Salem factor {got}")


@lru_cache(maxsize=None)
def cyclotomic_index(f: tuple[int, ...]) -> int:
    deg = len(f) - 1
    for n in range(1, 2 * deg * deg + 3):
        if sympy.totient(n) == deg:
            c = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()
            if tuple(int(a) for a in reversed(c)) == f:
                return n
    raise Mismatch(f"sympy called {f} cyclotomic but no index matches")


def is_salem(f: tuple[int, ...]) -> bool:
    """Irreducible monic palindromic f of even degree with exactly one root
    outside the unit circle, real and > 1 (degree 2 reciprocal units too)."""
    if len(f) < 3 or (len(f) - 1) % 2 or f != f[::-1] or f[-1] != 1:
        return False
    roots = numpy.roots(list(reversed(f)))
    outside = [r for r in roots if abs(r) > 1 + 1e-9]
    return len(outside) == 1 and abs(outside[0].imag) < 1e-9 and outside[0].real > 1


@lru_cache(maxsize=None)
def classify(p: tuple[int, ...]) -> tuple[str, tuple, tuple | None]:
    """(kind, ((n, mult), ...) ascending in n, Salem factor or None)."""
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(p)), X))
    cyc: dict[int, int] = {}
    rest = []
    for f, mult in factors:
        coeffs = tuple(int(c) for c in reversed(f.all_coeffs()))
        if coeffs[-1] < 0:
            coeffs = tuple(-c for c in coeffs)
        if f.is_cyclotomic:
            n = cyclotomic_index(coeffs)
            cyc[n] = cyc.get(n, 0) + mult
        else:
            rest.append((coeffs, mult))
    cyclo = tuple(sorted(cyc.items()))
    if not rest:
        return "AllCyclotomic", cyclo, None
    if len(rest) == 1 and rest[0][1] == 1 and is_salem(rest[0][0]):
        return "SalemStructure", cyclo, rest[0][0]
    return "NotSpectrallyValid", cyclo, None


def largest_root(f: tuple[int, ...], dps: int):
    """The largest real root of f to dps digits, by Newton from a double
    estimate, certified by a sign change across a 10^-dps bracket."""
    est = max(r.real for r in numpy.roots(list(reversed(f))) if abs(r.imag) < 1e-7)
    coeffs = list(reversed(f))
    with mpmath.workdps(dps + 10):
        r = mpmath.findroot(lambda t: mpmath.polyval(coeffs, t), mpmath.mpf(est))
        h = abs(r) * mpmath.mpf(10) ** (-dps - 2)
        expect(mpmath.polyval(coeffs, r - h) * mpmath.polyval(coeffs, r + h) <= 0,
               f"oracle root of {f} not bracketed")
        return +r


def close(printed: str, true, digits: int) -> bool:
    """|printed - true| <= one unit in the last of `digits` significant digits."""
    with mpmath.workdps(digits + 20):
        v = mpmath.mpf(printed)
        if true == 0:
            return v == 0
        ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(true))) - digits + 1)
        return abs(v - true) <= ulp


def parse_poly(text: str) -> tuple[int, ...]:
    """Coefficients, constant first, of a polynomial printed like x^2 - 34*x + 1."""
    p = sympy.Poly(sympy.sympify(text.replace("^", "**"), locals={"x": X}), X)
    return tuple(int(c) for c in reversed(p.all_coeffs()))


def fixed_lattice(m):
    """Integer basis of {v : M v = v} (a Q-basis with cleared denominators)."""
    n = len(m)
    a = sympy.Matrix([[m[i][j] - int(i == j) for j in range(n)] for i in range(n)])
    basis = []
    for v in a.nullspace():
        den = 1
        for x in v:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
        ints = [int(x * den) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, x)
        basis.append([x // g for x in ints])
    return basis


def norm(g, v) -> int:
    return sum(v[i] * g[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def _square_multiple(n: int, required: int) -> bool:
    if n == 0:
        return required == 0
    return required % n == 0 and required // n > 0 and isqrt(required // n) ** 2 == required // n


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def parse_argv(argv: list[str]) -> tuple[str, int, str, dict, list[str]]:
    fmt, precision, i = "table", 12, 0
    while argv[i].startswith("--"):
        if argv[i] == "--format":
            fmt = argv[i + 1]
        elif argv[i] == "--precision":
            precision = int(argv[i + 1])
        i += 2
    cmd, rest = argv[i], argv[i + 1:]
    opts, pos, j = {}, [], 0
    while j < len(rest):
        if rest[j].startswith("--"):
            opts[rest[j][2:]] = rest[j + 1]
            j += 2
        else:
            pos.append(rest[j])
            j += 1
    return fmt, precision, cmd, opts, pos


class Oracle:
    def __init__(self, files: dict):
        self.files = files
        self.verified: dict[tuple, str | None] = {}

    def _file(self, ref: str):
        return self.files[ref.rsplit("/", 1)[-1]]

    def check(self, job: dict, reply: dict) -> str | None:
        if reply["rc"] is None:
            return reply["error"] or "no exit code"
        if reply["rc"] != job["rc"]:
            return f"exit code {reply['rc']}, expected {job['rc']}"
        key = (tuple(job["argv"]), reply["stdout"])
        if key not in self.verified:
            try:
                self._check_output(job, reply["stdout"])
                self.verified[key] = None
            except Mismatch as exc:
                self.verified[key] = str(exc)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError, json.JSONDecodeError) as exc:
                self.verified[key] = f"unparseable output: {type(exc).__name__}: {exc}"
        return self.verified[key]

    def _check_output(self, job: dict, out: str) -> None:
        if job["rc"] != 0:
            expect(out == "", "error job printed a report")
            return
        fmt, prec, cmd, opts, pos = parse_argv(job["argv"])
        getattr(self, "_" + cmd.replace("-", "_"))(fmt == "json", prec, opts, pos, out)

    # --- spectra ------------------------------------------------------------

    def _spectrum(self, spec_rows, entropy, d1, n: int, prec: int) -> None:
        """spec_rows: decimals for k = 0..2n; entropy: (nats, log10) strings."""
        expect(len(spec_rows) == 2 * n + 1, f"{len(spec_rows)} table rows for n = {n}")
        with mpmath.workdps(prec + 10):
            for k, dec in enumerate(spec_rows):
                expect(close(dec, d1 ** min(k, 2 * n - k), prec), f"d_{k} = {dec} is wrong")
            nats, log10 = entropy
            expect(close(nats, n * mpmath.log(d1), min(prec, ENTROPY_DIGITS)), f"entropy {nats} nats is wrong")
            expect(close(log10, n * mpmath.log10(d1), min(prec, ENTROPY_DIGITS)), f"entropy {log10} log10 is wrong")

    @staticmethod
    def _table_spectrum(lines: list[str]):
        rows = [ln.split()[-1] for ln in lines if re.match(r"d_\d+\s", ln)]
        ent = next(re.search(r"= (\S+) nats \((\S+) log10\)$", ln) for ln in lines if ln.startswith("entropy ="))
        return rows, (ent.group(1), ent.group(2))

    @staticmethod
    def _json_spectrum(spec: dict):
        rows = [e["decimal"] for e in sorted(spec["entries"], key=lambda e: e["k"])]
        return rows, (spec["entropy"]["nats"], spec["entropy"]["log10"])

    def _d1(self, cls, prec: int):
        kind, _, salem = cls
        expect(kind != "NotSpectrallyValid", "oracle: input is not spectrally valid")
        return mpmath.mpf(1) if salem is None else largest_root(salem, prec + 10)

    def _check_classification(self, json_mode: bool, got, cls, prec: int) -> None:
        kind, cyc, salem = cls
        if json_mode:
            expect(got["kind"] == kind, f"kind {got['kind']}, expected {kind}")
            expect([tuple(c) for c in got["cyclotomic"]] == list(cyc), f"cyclotomic {got['cyclotomic']}, expected {cyc}")
            expect((tuple(got["salem_poly"]) if got["salem_poly"] else None) == salem, "wrong Salem factor")
            if salem is not None:
                expect(close(got["salem_root"]["decimal"], largest_root(salem, prec + 10), prec), "wrong Salem root")
            return
        m = re.match(r"(\w+): (.*)$", got)
        expect(m is not None and m.group(1) == kind, f"summary {got!r}, expected kind {kind}")
        body = m.group(2)
        head, _, tail = body.partition("Salem(")
        phis = tuple((int(a), int(b or 1)) for a, b in re.findall(r"Phi_(\d+)(?:\^(\d+))?", head))
        expect(phis == cyc, f"cyclotomic factors {phis}, expected {cyc}")
        expect((parse_poly(tail[:-1]) if tail else None) == salem, "wrong Salem factor")

    def _kummer(self, json_mode, prec, opts, pos, out):
        a, b, c, d = (int(v) for v in pos)
        n = int(opts.get("half-dim", 2))
        t = a + d
        s = t * t - 2
        with mpmath.workdps(prec + 20):
            d1 = mpmath.mpf(1) if abs(t) <= 2 else (s + mpmath.sqrt(s * s - 4)) / 2
        if json_mode:
            obj = json.loads(out)
            expect(obj["matrix"] == [[a, b], [c, d]] and obj["trace"] == t, "wrong matrix or trace echo")
            rows, ent = self._json_spectrum(obj["spectrum"])
        else:
            expect(out.startswith(f"SL(2,Z) matrix {[[a, b], [c, d]]}, trace {t}\n"), "wrong matrix or trace echo")
            rows, ent = self._table_spectrum(out.splitlines())
        self._spectrum(rows, ent, d1, n, prec)

    def _degrees(self, json_mode, prec, opts, pos, out):
        g = self._file(opts["lattice"])["gram"]
        m = self._file(opts["isometry"])["matrix"]
        expect(is_isometry(g, m), "oracle: input is not an isometry")
        cp = char_poly(tuple(map(tuple, m)))
        cls = classify(cp)
        d1 = self._d1(cls, prec)
        n = int(opts.get("half-dim", 2))
        if json_mode:
            obj = json.loads(out)
            expect([[int(x) for x in r] for r in obj["isometry"]] == m, "isometry echo differs")
            expect(tuple(obj["char_poly"]) == cp, "wrong char poly")
            self._check_classification(True, obj["classification"], cls, prec)
            rows, ent = self._json_spectrum(obj["spectrum"])
        else:
            lines = out.splitlines()
            cp_line = next(ln for ln in lines if ln.startswith("char poly: "))
            expect(parse_poly(cp_line[len("char poly: "):]) == cp, "wrong char poly")
            self._check_classification(False, lines[lines.index(cp_line) + 1], cls, prec)
            rows, ent = self._table_spectrum(lines)
        self._spectrum(rows, ent, d1, n, prec)

    def _salem_check(self, json_mode, prec, opts, pos, out):
        p = tuple(int(c) for c in pos)
        cls = classify(p)
        if json_mode:
            obj = json.loads(out)
            expect(tuple(obj["input"]) == p, "input echo differs")
            self._check_classification(True, obj["classification"], cls, prec)
            return
        lines = out.splitlines()
        self._check_classification(False, lines[1], cls, prec)
        if cls[2] is not None:
            dec = next(ln for ln in lines if ln.startswith("salem root: ")).split()[-1]
            expect(close(dec, largest_root(cls[2], prec + 10), prec), "wrong Salem root")

    # --- catalogue ----------------------------------------------------------

    def _search(self, json_mode, prec, opts, pos, out):
        g = self._file(opts["lattice"])["gram"]
        bound = int(opts.get("bound", 8))
        if json_mode:
            obj = json.loads(out)
            expect(obj["bound"] == bound, "bound echo differs")
            entries = [([[int(x) for x in r] for r in e["matrix"]], tuple(e["salem_poly"]),
                        e["root"]["decimal"], e["small_salem_candidate"]) for e in obj["entries"]]
        else:
            lines = out.splitlines()
            count = int(lines[0].rsplit(":", 1)[1])
            entries = []
            for ln in lines[1:]:
                m = re.match(r"root (\S+)  poly (\[.*?\])  matrix (\[\[.*\]\])(  \[small Salem candidate\])?$", ln)
                expect(m is not None, f"unparseable catalogue line {ln!r}")
                entries.append((json.loads(m.group(3)), tuple(json.loads(m.group(2))), m.group(1), bool(m.group(4))))
            expect(len(entries) == count, f"header says {count} entries, {len(entries)} listed")
        roots = []
        for mat, poly, dec, small in entries:
            expect(is_isometry(g, mat), f"catalogue matrix {mat} is not an isometry")
            kind, _, salem = classify(char_poly(tuple(map(tuple, mat))))
            expect(kind == "SalemStructure" and salem == poly, f"catalogue entry {mat} has Salem factor {salem}")
            root = largest_root(poly, prec + 10)
            expect(close(dec, root, prec), f"catalogue root {dec} is wrong")
            expect(small == (root < mpmath.mpf("1.3")), "wrong small Salem flag")
            roots.append(root)
        expect(roots == sorted(roots), "catalogue is not sorted by root")
        expect(len({e[1] for e in entries}) == len(entries), "catalogue repeats a Salem factor")

    # --- certify ------------------------------------------------------------

    def _naturality(self, g, m, required: int):
        """(verdict or None when undecided, fixed rank, rank-1 generator)."""
        basis = fixed_lattice(m)
        if not basis:
            return "NotNatural", 0, None
        if len(basis) == 1:
            v = basis[0]
            verdict = "PossiblyNatural" if _square_multiple(norm(g, v), required) else "NotNatural"
            return verdict, 1, v
        for coeffs in itertools.product(range(-2, 3), repeat=len(basis)):
            v = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(g))]
            if any(v) and norm(g, v) == required:
                return "PossiblyNatural", len(basis), None
        return None, len(basis), None

    def _natural_check(self, json_mode, prec, opts, pos, out):
        lat = self._file(opts["lattice"])
        g, m = lat["gram"], self._file(opts["isometry"])["matrix"]
        n = int(opts.get("half-dim", 2))
        expect(is_isometry(g, m), "oracle: input is not an isometry")
        verdict, rank, gen = self._naturality(g, m, -2 * n + 2)
        if json_mode:
            obj = json.loads(out)
            got = obj["verdict"]
            expect(obj["required_norm"] == -2 * n + 2, "wrong required norm")
            expect(len(obj["fixed_basis"]) == rank, f"fixed basis of rank {len(obj['fixed_basis'])}, expected {rank}")
            for v in obj["fixed_basis"]:
                expect(mat_mul(m, [[x] for x in v]) == [[x] for x in v], f"{v} is not fixed")
            if obj["witness"] is not None:
                w = obj["witness"]["vector"]
                expect(w in (gen, [-x for x in gen]) and obj["witness"]["norm"] == norm(g, w), "wrong witness")
        else:
            lines = out.splitlines()
            basis = lines[0].split(": ", 1)[1]
            expect((0 if basis == "(trivial)" else basis.count(",") + 1) == rank, "wrong fixed rank")
            got = lines[-1].split(":", 1)[0]
            witness = re.search(r"has norm (-?\d+), required", lines[-1])
            if witness is not None:
                expect(gen is not None and int(witness.group(1)) == norm(g, gen), "wrong witness norm")
        expect(verdict is None or got == verdict, f"verdict {got}, expected {verdict}")

    def _lattice_info(self, json_mode, prec, opts, pos, out):
        g = self._file(pos[0])["gram"]
        eig = numpy.linalg.eigvalsh(numpy.array(g, dtype=float))
        sig = [int((eig > 1e-9).sum()), int((eig < -1e-9).sum()), int((abs(eig) <= 1e-9).sum())]
        det = int(sympy.Matrix(g).det())
        even = all(g[i][i] % 2 == 0 for i in range(len(g)))
        if json_mode:
            obj = json.loads(out)
            got = (obj["rank"], obj["even"], obj["signature"], obj["determinant"])
        else:
            got = (int(re.search(r"^rank (\d+)", out).group(1)),
                   re.search(r"^even: (\w+)", out, re.M).group(1) == "yes",
                   json.loads("[" + re.search(r"signature \(p, n, z\): \((.*)\)", out).group(1) + "]"),
                   int(re.search(r"^determinant: (-?\d+)", out, re.M).group(1)))
        expect(got == (len(g), even, sig, det), f"lattice facts {got}, expected {(len(g), even, sig, det)}")

    def _beauville_demo(self, json_mode, prec, opts, pos, out):
        g = inputs.RANK3["gram"]
        m1, m2 = inputs.M1, inputs.M2
        for m in (m1, m2):
            expect(is_isometry(g, m) and mat_mul(m, m) == inputs.identity(3),
                   "fixture involution fails its recheck")
        comp = mat_mul(m1, m2)
        cp = char_poly(tuple(map(tuple, comp)))
        cls = classify(cp)
        root = largest_root(cls[2], prec + 10)
        verdict, _, gen = self._naturality(g, comp, -2)
        if json_mode:
            obj = json.loads(out)
            mats = [[[int(x) for x in r] for r in inv["matrix"]] for inv in obj["involutions"]]
            expect(mats == [m1, m2], "derived involutions differ from M1, M2")
            expect([[int(x) for x in r] for r in obj["composition"]["matrix"]] == comp, "wrong composition")
            expect(tuple(obj["composition"]["char_poly"]) == cp, "wrong char poly")
            self._check_classification(True, obj["composition"]["classification"], cls, prec)
            spectra = [(s["power"], self._json_spectrum(s["spectrum"])) for s in obj["spectra"]]
            nat = obj["naturality"]
            got_verdict = nat["verdict"]
            witness = nat["witness"] and (nat["witness"]["vector"], nat["witness"]["norm"])
        else:
            lines = out.splitlines()
            mats = [json.loads(re.search(r"M%d = (\[\[.*?\]\])" % i, out).group(1)) for i in (1, 2)]
            expect(mats == [m1, m2], "derived involutions differ from M1, M2")
            expect(json.loads(re.search(r"composition M1\*M2 = (\[\[.*?\]\])", out).group(1)) == comp,
                   "wrong composition")
            cp_line = next(ln for ln in lines if ln.startswith("char poly: "))
            expect(parse_poly(cp_line[len("char poly: "):]) == cp, "wrong char poly")
            self._check_classification(False, lines[lines.index(cp_line) + 1], cls, prec)
            dec = next(ln for ln in lines if ln.startswith("salem root: ")).split()[-1]
            expect(close(dec, root, prec), "wrong Salem root")
            spectra = []
            for block in re.split(r"\ndegree spectrum of \(iota2 iota1\)\^l for l = ", out)[1:]:
                ell = int(block.split(" ", 1)[0])
                spectra.append((ell, self._table_spectrum(block.split("\nshape checks")[0].splitlines())))
            m = re.search(r"^(\w+): fixed class (.*) has norm (-?\d+), required (-?\d+)$", out, re.M)
            got_verdict, witness = m.group(1), (None, int(m.group(3)))
        expect([ell for ell, _ in spectra] == [1, 2, 3], "spectra of powers 1, 2, 3 missing")
        for ell, (rows, ent) in spectra:
            with mpmath.workdps(prec + 10):
                self._spectrum(rows, ent, root ** ell, 2, prec)
        expect(got_verdict == verdict, f"naturality verdict {got_verdict}, expected {verdict}")
        expect(witness is not None and witness[1] == norm(g, gen), "wrong naturality witness")
