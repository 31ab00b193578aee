"""Command-line interface: degree spectra, Salem checks, Kummer examples, the
quartic-involution demo, naturality certificates, and the bounded search.

Each cmd_<name> builds its report once and returns (report, table): the
report is the JSON-ready dict, and the table a generator of the aligned text
lines, read from the same values; both make a spectrum's rows from its
n + 1 powers (dynamics.spectrum_rows) as they are written. Every check runs
before the command returns, so a run that fails a check (an HkddError)
writes no stdout. main alone reads --format and writes the JSON in pieces
or the table line by line to stdout, so an internal error raised while
they are made (exit 1) can leave the output cut short in either format;
diagnostics go to stderr. Exit codes are stable: 0 success, 2
malformed input, 3 isometry/determinant failures, 4 spectral structure
violations, and 1 for an unexpected internal error, reported as the single
stderr line `internal error: <Type>: <message>`. A reader that closes
stdout early ends the output: main prints nothing more and returns 0. Each
HkddError carries its code and stderr label (see errors), so main has one
handler for them all. Every printed decimal is correctly rounded
(half-even) to --precision digits by polynomial.rounded_decimal, from a
certified interval narrowed by quadratic interval refinement
(AlgebraicReal.quadratic_path), and every root printed is a unit larger
than 1: a root's decimal and a spectrum's powers come from one loop
(AlgebraicReal.power_decimals), in fixed point, and those of a spectrum
report, the entropy and the JSON d1 included, from one walk
(dynamics.spectrum_decimals). Every exact form, a Salem root's too, comes
from dynamics.exact_power_str. Report integers past 53 bits are strings
(jsonio.encode_int). An integer argument, a report integer or an exact
form past polynomial.MAX_DIGITS digits ends in exit 2, and so does search
on a degenerate lattice.
_parse reads every command line from one table, COMMANDS, without argparse.
File inputs use the JSON formats documented in jsonio; a lattice or matrix
of rank above jsonio.MAX_RANK (64) ends in exit 2. beauville-demo reads no
file: it builds its lattice and involutions and compares them with the
constants of fixtures.
"""

from __future__ import annotations

import os
import re
import sys
from collections import namedtuple
from math import gcd
from types import SimpleNamespace

from . import fixtures, linalg
from .dynamics import (
    DegreeSpectrum,
    SpectrumDecimals,
    degree_from_classification,
    degree_spectrum,
    exact_power_str,
    search_salem_isometries,
    spectrum_decimals,
    spectrum_rows,
)
from .errors import HkddError, UsageError
from .hyperkahler import (
    Sl2Matrix,
    compose,
    hilbert_from_extended,
    hilbert_lattice,
    kummer_spectrum,
    naturality_certificate,
    power,
    solve_beauville,
)
from .jsonio import MAX_RANK, dump_json, encode_int, encode_matrix, encode_vector, load_lattice, load_matrix
from .lattice import is_even, signature, verify_isometry
from .polynomial import MAX_DIGITS, AlgebraicReal, IntPolynomial, char_poly
from .salem import SALEM_STRUCTURE, SalemClassification, classify_charpoly

EXIT_OK = 0
EXIT_INTERNAL = 1

# roots below this are flagged as small Salem candidates in search reports
SMALL_SALEM_THRESHOLD = (13, 10)  # 13/10, as (numerator, denominator)


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, written n/d."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def _root_json(root: AlgebraicReal, decimal: str) -> dict:
    """A root as reports write it, each end of its interval in lowest terms;
    decimal is its decimal_str at the report's precision."""
    return {
        "poly": encode_vector(root.poly.coeffs),
        "lo": _ratio_str(root.a, root.den),
        "hi": _ratio_str(root.b, root.den),
        "decimal": decimal,
    }


def _classification_json(cls: SalemClassification, root_decimal: str | None) -> dict:
    """root_decimal is the decimal of the Salem root, when there is one."""
    return {
        "kind": cls.kind,
        "cyclotomic": [[n, m] for n, m in cls.cyclotomic_factors],
        "salem_poly": encode_vector(cls.salem_factor.coeffs) if cls.salem_factor else None,
        "salem_root": _root_json(cls.salem_root, root_decimal) if cls.salem_root else None,
    }


def _spectrum_json(spec: DegreeSpectrum, dec: SpectrumDecimals) -> dict:
    poly = None if isinstance(spec.d1, int) else encode_vector(spec.d1.poly.coeffs)
    d1 = {"exact": spec.powers[1], "decimal": dec.entries[1], "poly": poly}  # the table's d_1
    return {
        "half_dim": spec.half_dim,
        "d1": d1,
        "entries": ({"k": k, "exponent": e, "exact": exact, "decimal": d}
                    for k, e, exact, d in spectrum_rows(spec, dec)),
        "entropy": {"exact": spec.entropy_exact, "nats": dec.nats, "log10": dec.log10},
    }


def _spectrum_table(spec: DegreeSpectrum, dec: SpectrumDecimals):
    """The lines of spec's table, a row d_k per k, then the entropy."""
    w0, w1 = len(f"d_{2 * spec.half_dim}"), max(map(len, spec.powers))
    for k, _, exact, d in spectrum_rows(spec, dec):
        yield f"{f'd_{k}':<{w0}}  {exact:<{w1}}  {d}"
    yield f"entropy = {spec.entropy_exact} = {dec.nats} nats ({dec.log10} log10)"


def _classification_summary(cls) -> str:
    parts = [f"Phi_{n}" + (f"^{m}" if m > 1 else "") for n, m in cls.cyclotomic_factors]
    if cls.remainder.degree:  # the Salem factor, or the part that failed its test
        parts.append(f"Salem({cls.remainder})" if cls.kind == SALEM_STRUCTURE else f"({cls.remainder})")
    product = " x ".join(parts) if parts else "1"
    return f"{cls.kind}: {product}"


def _naturality_json(cert) -> dict:
    witness = cert.witness and {"vector": encode_vector(cert.witness[0]), "norm": encode_int(cert.witness[1])}
    return {"verdict": cert.verdict, "required_norm": encode_int(cert.required_norm), "witness": witness}


def _verdict_line(cert, lat) -> str:
    """The certificate's verdict with its witness, or with its detail when it has none."""
    if cert.witness is None:
        return f"{cert.verdict}: {cert.detail}"
    vector, norm = cert.witness
    fixed = lat.vector_str(list(vector))
    return f"{cert.verdict}: fixed class {fixed} has norm {norm}, required {cert.required_norm}"


# ---------------------------------------------------------------------------
# subcommands: each returns (report, table)
# ---------------------------------------------------------------------------


def cmd_lattice_info(args):
    lat = load_lattice(args.lattice)
    sig = signature(lat)
    det = linalg.det_bareiss(lat.gram_rows())
    report = {
        "rank": lat.rank,
        "labels": list(lat.labels),
        "gram": encode_matrix(lat.gram_rows()),
        "even": is_even(lat),
        "signature": list(sig),
        "determinant": encode_int(det),
    }

    def table():
        yield f"rank {lat.rank} lattice <{', '.join(lat.labels)}>"
        yield from (f"  {row}" for row in lat.gram_rows())
        yield f"even: {'yes' if report['even'] else 'no'}"
        yield f"signature (p, n, z): {sig}"
        yield f"determinant: {report['determinant']}"

    return report, table()


def cmd_degrees(args):
    lat = load_lattice(args.lattice)
    matrix = load_matrix(args.isometry)
    iso = verify_isometry(lat, matrix)
    cp = char_poly(iso.rows())
    cls = classify_charpoly(cp)
    d1 = degree_from_classification(cls)
    spec = degree_spectrum(args.half_dim, d1)
    dec = spectrum_decimals(spec, args.precision)
    report = {
        "lattice": {"labels": list(lat.labels), "gram": encode_matrix(lat.gram_rows())},
        "isometry": encode_matrix(iso.rows()),
        "char_poly": encode_vector(cp.coeffs),
        "classification": _classification_json(cls, dec.entries[1]),  # a Salem root is d1
        "spectrum": _spectrum_json(spec, dec),
    }

    def table():
        yield f"lattice <{', '.join(lat.labels)}>, isometry verified (M^T G M = G)"
        yield f"char poly: {cp}"
        yield _classification_summary(cls)
        yield f"degree spectrum for half-dimension n = {spec.half_dim}:"
        yield from _spectrum_table(spec, dec)

    return report, table()


def cmd_salem_check(args):
    p = IntPolynomial(tuple(args.coeffs))
    cls = classify_charpoly(p)
    root = cls.salem_root
    exact = root and exact_power_str(root, 1)[1]  # built in both formats, so both fail alike
    decimal = root and root.decimal_str(args.precision)
    report = {"input": encode_vector(p.coeffs), "classification": _classification_json(cls, decimal)}

    def table():
        yield f"p = {p}"
        yield _classification_summary(cls)
        if root is not None:
            yield f"salem root: {exact} = {decimal}"

    return report, table()


def cmd_kummer(args):
    m = Sl2Matrix(args.a, args.b, args.c, args.d)
    t = m.trace
    if abs(t) <= 2:
        branch = "|t| <= 2 (degree 1, entropy 0)"
    elif t > 2:
        branch = "t > 2 (degree is the square of the large eigenvalue)"
    else:
        branch = "t < -2 (degree is the square of the small eigenvalue)"
    spec = kummer_spectrum(m, args.half_dim)
    dec = spectrum_decimals(spec, args.precision)
    report = {"matrix": encode_matrix(m.rows()), "trace": encode_int(t), "branch": branch,
              "spectrum": _spectrum_json(spec, dec)}

    def table():
        yield f"SL(2,Z) matrix {m.rows()}, trace {t}"
        yield f"case: {branch}"
        yield f"degree spectrum on the Hilbert scheme of n = {args.half_dim} points:"
        yield from _spectrum_table(spec, dec)

    return report, table()


def cmd_natural_check(args):
    lat = load_lattice(args.lattice)
    matrix = load_matrix(args.isometry)
    hilb = hilbert_from_extended(lat, args.half_dim, args.e_index)
    iso = verify_isometry(lat, matrix)
    cert = naturality_certificate(iso, hilb)
    report = {**_naturality_json(cert), "fixed_basis": [encode_vector(v) for v in cert.fixed_basis],
              "detail": cert.detail}

    def table():
        fixed = ", ".join(lat.vector_str(list(v)) for v in cert.fixed_basis) or "(trivial)"
        yield f"fixed sublattice basis: {fixed}"
        yield _verdict_line(cert, lat)

    return report, table()


def cmd_search(args):
    lat = load_lattice(args.lattice)
    if lat.rank > 4 and linalg.det_bareiss(lat.gram_rows()):  # a degenerate lattice is refused first
        print(f"warning: rank {lat.rank} > 4; the bounded search may be very slow", file=sys.stderr)
    results = search_salem_isometries(lat, args.bound)
    entries = [
        {
            "matrix": encode_matrix(m),
            "salem_poly": encode_vector(root.poly.coeffs),
            "root": _root_json(root, root.decimal_str(args.precision)),
            "small_salem_candidate": root.compare_rational(*SMALL_SALEM_THRESHOLD) < 0,
        }
        for m, root in results
    ]
    report = {"bound": encode_int(args.bound), "entries": entries}

    def table():
        yield f"salem isometries of <{', '.join(lat.labels)}> within entry bound {args.bound}: {len(results)}"
        for (m, root), entry in zip(results, entries):
            flag = "  [small Salem candidate]" if entry["small_salem_candidate"] else ""
            yield f"root {entry['root']['decimal']}  poly {list(root.poly.coeffs)}  matrix {m}{flag}"

    return report, table()


def cmd_beauville_demo(args):
    hilb = hilbert_lattice(fixtures.QUARTIC_PAIR_LATTICE, 2, e_index=1)
    lat = hilb.extended
    if lat.gram != fixtures.RANK3_LATTICE.gram:
        raise AssertionError("constructed lattice disagrees with the bundled fixture")

    sol1 = solve_beauville(hilb, 0)
    sol2 = solve_beauville(hilb, 2)
    if sol1.isometry.matrix != fixtures.M1 or sol2.isometry.matrix != fixtures.M2:
        raise AssertionError("derived involutions disagree with the bundled fixtures")

    comp = compose(sol1.isometry, sol2.isometry)
    cp = char_poly(comp.rows())
    cls = classify_charpoly(cp)
    if cls.kind != SALEM_STRUCTURE:
        raise AssertionError(f"composition classified as {cls.kind}")
    cert = naturality_certificate(comp, hilb)

    # A power of a Salem number is a Salem number of the same degree, so the
    # Salem factor of char(M^l) is char(C^l), C the companion matrix of the
    # Salem factor of char(M): d_1(M^l) = d_1(M)^l, checked exactly.
    salem = cls.salem_factor.coeffs
    companion = [[int(i == j + 1) for j in range(len(salem) - 2)] + [-c] for i, c in enumerate(salem[:-1])]
    spectra = []
    for ell in (1, 2, 3):
        cls_l, check = cls, None  # l = 1 is comp itself, classified above
        if ell > 1:
            cls_l = classify_charpoly(char_poly(power(comp, ell).rows()))
            expected = char_poly(linalg.mat_pow(companion, ell))
            if cls_l.salem_factor != expected:
                raise AssertionError(f"d_1 of (iota2 iota1)^{ell} is not d_1^{ell}: Salem factor "
                                     f"{cls_l.salem_factor}, expected {expected}")
            check = f"power check: d_1 of (iota2 iota1)^{ell} is d_1^{ell} (Salem factor {expected})"
        spec_l = degree_spectrum(2, degree_from_classification(cls_l))
        spectra.append((ell, spec_l, spectrum_decimals(spec_l, args.precision), check))
    root_decimal = spectra[0][2].entries[1]  # l = 1: d_1 is the Salem root of cp
    report = {
        "lattice": {"labels": list(lat.labels), "gram": encode_matrix(lat.gram_rows())},
        "involutions": [_solution_json(sol1, lat), _solution_json(sol2, lat)],
        "composition": {
            "matrix": encode_matrix(comp.rows()),
            "char_poly": encode_vector(cp.coeffs),
            "classification": _classification_json(cls, root_decimal),
        },
        "spectra": [{"power": ell, "spectrum": _spectrum_json(s, dec)} for ell, s, dec, _ in spectra],
        "naturality": _naturality_json(cert),
    }

    def table():
        yield f"rank-3 lattice <{', '.join(lat.labels)}>:"
        yield from (f"  {row}" for row in lat.gram_rows())
        for sol, name in ((sol1, "M1"), (sol2, "M2")):
            h_label = lat.labels[sol.h_index]
            yield f"\ninvolution from the quartic embedding by |{h_label}|:"
            yield f"  iota*({h_label}) = 3{h_label} - 4e, iota*(e) = 2{h_label} - 3e"
            for rec in sol.records:
                cands = ", ".join(map(str, rec.candidates))
                yield f"  candidates for iota*({lat.labels[rec.basis_index]}): {cands}"
                yield from (f"    rejected {cand}: {why}" for cand, why in rec.rejections)
                yield f"    chosen   {rec.chosen}"
            yield f"  {name} = {sol.isometry.rows()}   (matches the bundled fixture)"
            yield f"  assumed hypotheses: {', '.join(sol.assumed_hypotheses)}"
        yield f"\ncomposition M1*M2 = {comp.rows()}"
        yield f"char poly: {cp}"
        yield _classification_summary(cls)
        yield f"salem root: {spectra[0][1].powers[1]} = {root_decimal}"
        for ell, s, dec, check in spectra:
            yield f"\ndegree spectrum of (iota2 iota1)^l for l = {ell} (n = 2):"
            yield from _spectrum_table(s, dec)
            if check:
                yield check
        yield "\nnaturality certificate:"
        yield _verdict_line(cert, lat)

    return report, table()


def _solution_json(sol, lat) -> dict:
    return {
        "matrix": encode_matrix(sol.isometry.rows()),
        "quartic_class": lat.labels[sol.h_index],
        "candidates": [
            {
                "for": lat.labels[rec.basis_index],
                "candidates": [encode_vector(c) for c in rec.candidates],
                "chosen": encode_vector(rec.chosen),
                "rejected": [
                    {"candidate": encode_vector(c), "reason": why} for c, why in rec.rejections
                ],
            }
            for rec in sol.records
        ],
        "assumed_hypotheses": list(sol.assumed_hypotheses),
    }


# ---------------------------------------------------------------------------
# the command table and its parser
# ---------------------------------------------------------------------------

# a long option; its type is int, str, or the tuple of the strings it allows
Option = namedtuple("Option", "type default minimum maximum required help", defaults=(str, None, None, None, False, ""))
# <name> runs cmd_<name>, looked up when it runs; a last positional "x..." takes one or more
Command = namedtuple("Command", "help positionals type options", defaults=((), str, {}))

GLOBAL_OPTIONS = {
    "--format": Option(("table", "json"), "table", help="report format, table or json (default: table)"),
    # past MAX_DIGITS digits, the int/str limit main sets, no int is written as a string
    "--precision": Option(int, 12, 3, MAX_DIGITS,
                          help="significant digits for decimals (default: 12, minimum 3, maximum 4300)"),
}
_LATTICE = Option(required=True, help=f"lattice JSON file (required; rank at most {MAX_RANK})")
_HALF_DIM = Option(int, 2, 1, help="n, the number of points; the variety has dimension 2n (default 2)")
_ISOMETRY = Option(required=True, help=f"isometry JSON file (required; at most {MAX_RANK} x {MAX_RANK})")
_ISOMETRY_OPTIONS = {"--lattice": _LATTICE, "--isometry": _ISOMETRY, "--half-dim": _HALF_DIM}
COMMANDS = {
    "lattice-info": Command(f"rank, parity, signature, determinant (rank at most {MAX_RANK})", ("lattice",)),
    "degrees": Command("full dynamical degree spectrum and entropy", options=_ISOMETRY_OPTIONS),
    "salem-check": Command("classify a monic integer polynomial, coefficients constant term first "
                           "(x^2 - 34x + 1 is 1 -34 1)", ("coeffs...",), int),
    "kummer": Command("spectrum of the SL(2,Z) torus automorphism [[a, b], [c, d]]",
                      ("a", "b", "c", "d"), int, {"--half-dim": _HALF_DIM}),
    "beauville-demo": Command("reproduce the quartic-pair example end to end (no inputs needed)"),
    "natural-check": Command("necessary condition for being induced from a surface automorphism", options={
        **_ISOMETRY_OPTIONS, "--lattice": _LATTICE._replace(help="extended " + _LATTICE.help),
        "--e-index": Option(int, help='index of the exceptional class (default: the one labelled "e")')}),
    "search": Command("catalogue Salem isometries within an entry bound", options={
        "--lattice": _LATTICE, "--bound": Option(int, 8, 1, help="entry bound (default 8)")}),
}


def _is_option(arg: str) -> bool:
    """Is arg an option? A lone - and a negative number are values."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].replace(".", "", 1).isdecimal()


# what int() reads as a base-10 integer; past MAX_DIGITS digits it refuses one all the same
_INT = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")


def _convert(kind, text: str, what: str):
    try:
        return kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
    except ValueError:
        if kind is int and _INT.fullmatch(text):
            raise UsageError(f"{what}: integer has more than {MAX_DIGITS} digits") from None
        raise UsageError(f"{what}: invalid value {text!r}") from None


def _usage(command: str | None) -> str:
    """What -h prints: a synopsis, then a line per command or option, from the table."""
    spec = COMMANDS.get(command) or Command("Exact dynamical degree spectra and entropy of hyperkahler "
                                            "lattice automorphisms.", ("<command>", "..."))
    rows = [(name, c.help) for name, c in COMMANDS.items() if command is None]
    rows += [(f, o.help) for f, o in {**spec.options, **GLOBAL_OPTIONS}.items()]
    rows.append(("-h, --help", "show this help; global options stand before or after the command"))
    synopsis = " ".join(filter(None, ("usage: hkdd [options]", command, *spec.positionals)))
    return f"{synopsis}\n\n{spec.help}\n\n" + "\n".join(f"  {a:<16} {b}" for a, b in rows)


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Walk argv once into the namespace the cmd_* functions read, or print the help -h
    asks for and return None; raise UsageError on a malformed command line. Options take
    --name value, --name=value or a unique prefix of the name, global ones on either side."""
    options, command, positionals, values, unknown = dict(GLOBAL_OPTIONS), None, [], {}, None
    for arg in (rest := iter(argv)):
        if arg == "--" and command is not None and COMMANDS[command].positionals:
            positionals += [_convert(COMMANDS[command].type, a, command) for a in rest]
        elif not _is_option(arg):
            if command is not None:
                positionals.append(_convert(COMMANDS[command].type, arg, command))
            elif arg not in COMMANDS:
                raise UsageError(f"unknown command {arg!r} (choose from {', '.join(COMMANDS)})")
            else:
                command = arg
                options.update(COMMANDS[arg].options)
        else:
            name, eq, text = ("--help" if arg == "-h" else arg).partition("=")
            found = [f for f in (*options, "--help") if name[:2] == "--" and f.startswith(name)]
            if len(found) > 1 or found == ["--help"] and eq:
                raise UsageError(f"ambiguous or misused option {arg}")
            if not found:  # reported after the walk, as a later -h still prints the help
                unknown = unknown or arg
            elif found == ["--help"]:
                print(_usage(command))
                return None
            elif not eq and ((text := next(rest, None)) is None or _is_option(text)):
                raise UsageError(f"{found[0]} expects a value")
            else:
                values[found[0]] = _convert(options[found[0]].type, text, found[0])
    if command is None or unknown:
        raise UsageError(f"unrecognized option {unknown}" if unknown else "a command is required")
    spec = COMMANDS[command]
    names = [p.rstrip(".") for p in spec.positionals]
    if names != list(spec.positionals) and len(positionals) >= len(names):  # the last takes the rest
        positionals[len(names) - 1 :] = [positionals[len(names) - 1 :]]
    if len(positionals) != len(names):
        raise UsageError(f"{command} takes {' '.join(spec.positionals) or 'no positional arguments'}")
    args = {"command": command, **dict(zip(names, positionals))}
    for flag, o in options.items():
        value = args[flag[2:].replace("-", "_")] = values.get(flag, o.default)
        if o.required and value is None:
            raise UsageError(f"{command} requires {flag}")
        if o.minimum is not None and value < o.minimum:
            raise UsageError(f"{flag} must be at least {o.minimum}")
        if o.maximum is not None and value > o.maximum:
            raise UsageError(f"{flag} must be at most {o.maximum}")
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    sys.set_int_max_str_digits(MAX_DIGITS)  # the digit bound, whatever PYTHONINTMAXSTRDIGITS says
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is not None:
            report, table = globals()["cmd_" + args.command.replace("-", "_")](args)
            sys.stdout.writelines(dump_json(report) if args.format == "json" else (line + "\n" for line in table))
        sys.stdout.flush()  # so that a reader gone before the last write is seen here
        return EXIT_OK
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`): the end of output, not an
        # error; stdout goes to devnull so the interpreter's final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except HkddError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # last resort: a bug, reported in one line
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
