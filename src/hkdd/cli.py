"""Command-line interface: degree spectra, Salem checks, Kummer examples, the
quartic-involution demo, naturality certificates, and the bounded search.

Reports go to stdout (aligned text by default, --format json for machines);
diagnostics go to stderr. Exit codes are stable: 0 success, 2 malformed
input, 3 isometry/determinant failures, 4 spectral structure violations,
and 1 for an unexpected internal error, reported as the single stderr line
`internal error: <Type>: <message>`. Each HkddError carries its code and
stderr label (see errors), so main has one handler for them all. Every
printed decimal is correctly rounded (half-even) to --precision digits by
polynomial.rounded_decimal; those of a spectrum report, the entropy and the
JSON d1 included, come from one certified walk (dynamics.spectrum_decimals).
_parse reads every command line from one table, COMMANDS, without argparse.
File inputs use the JSON formats documented in jsonio.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from . import fixtures, linalg
from .dynamics import (
    DegreeSpectrum,
    SpectrumDecimals,
    degree_from_classification,
    degree_spectrum,
    search_salem_isometries,
    spectrum_decimals,
)
from .errors import HkddError, NotMonicError, UsageError
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
from .jsonio import dump_json, encode_matrix, load_lattice, load_matrix
from .lattice import is_even, signature, verify_isometry
from .polynomial import IntPolynomial, char_poly
from .salem import SALEM_STRUCTURE, classify_charpoly

EXIT_OK = 0
EXIT_INTERNAL = 1

# roots below this are flagged as small Salem candidates in search reports
SMALL_SALEM_THRESHOLD = Fraction(13, 10)


def _spectrum_json(spec: DegreeSpectrum, dec: SpectrumDecimals) -> dict:
    poly = None if isinstance(spec.d1, int) else list(spec.d1.poly.coeffs)
    d1 = {"exact": spec.entries[1].exact, "decimal": dec.entries[1], "poly": poly}  # the table's d_1
    return {
        "half_dim": spec.half_dim,
        "d1": d1,
        "entries": [
            {"k": e.k, "exponent": e.exponent, "exact": e.exact, "decimal": d}
            for e, d in zip(spec.entries, dec.entries)
        ],
        "entropy": {"exact": spec.entropy_exact, "nats": dec.nats, "log10": dec.log10},
    }


def _spectrum_table(spec: DegreeSpectrum, dec: SpectrumDecimals) -> str:
    rows = [(f"d_{e.k}", e.exact, d) for e, d in zip(spec.entries, dec.entries)]
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    lines = [f"{r[0]:<{w0}}  {r[1]:<{w1}}  {r[2]}" for r in rows]
    lines.append(f"entropy = {spec.entropy_exact} = {dec.nats} nats ({dec.log10} log10)")
    return "\n".join(lines)


def _classification_summary(cls) -> str:
    parts = [f"Phi_{n}" + (f"^{m}" if m > 1 else "") for n, m in cls.cyclotomic_factors]
    if cls.remainder.degree:  # the Salem factor, or the part that failed its test
        parts.append(f"Salem({cls.remainder})" if cls.kind == SALEM_STRUCTURE else f"({cls.remainder})")
    product = " x ".join(parts) if parts else "1"
    return f"{cls.kind}: {product}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_lattice_info(args) -> int:
    lat = load_lattice(args.lattice)
    sig = signature(lat)
    det = linalg.det_bareiss(lat.gram_rows())
    if args.format == "json":
        sys.stdout.write(
            dump_json(
                {
                    "rank": lat.rank,
                    "labels": list(lat.labels),
                    "gram": encode_matrix(lat.gram_rows()),
                    "even": is_even(lat),
                    "signature": list(sig.as_tuple()),
                    "determinant": det,
                }
            )
        )
        return EXIT_OK
    print(f"rank {lat.rank} lattice <{', '.join(lat.labels)}>")
    for row in lat.gram_rows():
        print(f"  {row}")
    print(f"even: {'yes' if is_even(lat) else 'no'}")
    print(f"signature (p, n, z): {sig}")
    print(f"determinant: {det}")
    return EXIT_OK


def cmd_degrees(args) -> int:
    lat = load_lattice(args.lattice)
    matrix = load_matrix(args.isometry)
    iso = verify_isometry(lat, matrix)
    cp = char_poly(iso.rows())
    cls = classify_charpoly(cp)
    d1 = degree_from_classification(cls)
    spec = degree_spectrum(args.half_dim, d1)
    dec = spectrum_decimals(spec, args.precision)
    if args.format == "json":
        sys.stdout.write(
            dump_json(
                {
                    "lattice": {"labels": list(lat.labels), "gram": encode_matrix(lat.gram_rows())},
                    "isometry": encode_matrix(iso.rows()),
                    "char_poly": list(cp.coeffs),
                    # a Salem root is d1, whose decimal the table has
                    "classification": cls.to_json(args.precision, dec.entries[1]),
                    "spectrum": _spectrum_json(spec, dec),
                }
            )
        )
        return EXIT_OK
    print(f"lattice <{', '.join(lat.labels)}>, isometry verified (M^T G M = G)")
    print(f"char poly: {cp}")
    print(_classification_summary(cls))
    print(f"degree spectrum for half-dimension n = {spec.half_dim}:")
    print(_spectrum_table(spec, dec))
    return EXIT_OK


def cmd_salem_check(args) -> int:
    p = IntPolynomial(tuple(args.coeffs))
    if not p.is_monic:
        raise NotMonicError(f"({p}) is not monic")
    cls = classify_charpoly(p)
    if args.format == "json":
        sys.stdout.write(
            dump_json(
                {
                    "input": list(p.coeffs),
                    "classification": cls.to_json(args.precision),
                }
            )
        )
        return EXIT_OK
    print(f"p = {p}")
    print(_classification_summary(cls))
    if cls.salem_root is not None:
        print(
            f"salem root: {cls.salem_root.exact_str()} = "
            f"{cls.salem_root.decimal_str(args.precision)}"
        )
    return EXIT_OK


def cmd_kummer(args) -> int:
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
    if args.format == "json":
        sys.stdout.write(
            dump_json(
                {
                    "matrix": m.rows(),
                    "trace": t,
                    "branch": branch,
                    "spectrum": _spectrum_json(spec, dec),
                }
            )
        )
        return EXIT_OK
    print(f"SL(2,Z) matrix {m.rows()}, trace {t}")
    print(f"case: {branch}")
    print(f"degree spectrum on the Hilbert scheme of n = {args.half_dim} points:")
    print(_spectrum_table(spec, dec))
    return EXIT_OK


def cmd_natural_check(args) -> int:
    lat = load_lattice(args.lattice)
    matrix = load_matrix(args.isometry)
    hilb = hilbert_from_extended(lat, args.half_dim, args.e_index)
    iso = verify_isometry(lat, matrix)
    cert = naturality_certificate(iso, hilb)
    if args.format == "json":
        sys.stdout.write(
            dump_json(
                {
                    "verdict": cert.verdict,
                    "required_norm": cert.required_norm,
                    "fixed_basis": [list(v) for v in cert.fixed_basis],
                    "witness": None
                    if cert.witness is None
                    else {"vector": list(cert.witness[0]), "norm": cert.witness[1]},
                    "detail": cert.detail,
                }
            )
        )
        return EXIT_OK
    fixed = ", ".join(lat.vector_str(list(v)) for v in cert.fixed_basis) or "(trivial)"
    print(f"fixed sublattice basis: {fixed}")
    if cert.witness is not None:
        print(
            f"{cert.verdict}: fixed class {lat.vector_str(list(cert.witness[0]))} "
            f"has norm {cert.witness[1]}, required {cert.required_norm}"
        )
    else:
        print(f"{cert.verdict}: {cert.detail}")
    return EXIT_OK


def cmd_search(args) -> int:
    lat = load_lattice(args.lattice)
    if lat.rank > 4:
        print(
            f"warning: rank {lat.rank} > 4; the bounded search may be very slow",
            file=sys.stderr,
        )
    results = search_salem_isometries(lat, args.bound)
    for m, _ in results:
        verify_isometry(lat, m)
    if args.format == "json":
        entries = []
        for m, root in results:
            entries.append(
                {
                    "matrix": encode_matrix(m),
                    "salem_poly": list(root.poly.coeffs),
                    "root": root.to_json(args.precision),
                    "small_salem_candidate": bool(root.compare_rational(SMALL_SALEM_THRESHOLD) < 0),
                }
            )
        sys.stdout.write(dump_json({"bound": args.bound, "entries": entries}))
        return EXIT_OK
    print(f"salem isometries of <{', '.join(lat.labels)}> within entry bound {args.bound}: {len(results)}")
    for m, root in results:
        flag = "  [small Salem candidate]" if root.compare_rational(SMALL_SALEM_THRESHOLD) < 0 else ""
        print(f"root {root.decimal_str(args.precision)}  poly {list(root.poly.coeffs)}  matrix {m}{flag}")
    return EXIT_OK


def cmd_beauville_demo(args) -> int:
    base = fixtures.quartic_pair_lattice()
    hilb = hilbert_lattice(base, 2, e_index=1)
    lat = hilb.extended
    fixture_lat = fixtures.rank3_lattice()
    if lat.gram != fixture_lat.gram:
        raise AssertionError("constructed lattice disagrees with the bundled fixture")

    sol1 = solve_beauville(hilb, 0)
    sol2 = solve_beauville(hilb, 2)
    m1, m2 = fixtures.m1_matrix(), fixtures.m2_matrix()
    if sol1.isometry.rows() != m1 or sol2.isometry.rows() != m2:
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
        iso_l = power(comp, ell)
        cls_l = classify_charpoly(char_poly(iso_l.rows()))
        check = None
        if ell > 1:
            expected = char_poly(linalg.mat_pow(companion, ell))
            if cls_l.salem_factor != expected:
                raise AssertionError(f"d_1 of (iota2 iota1)^{ell} is not d_1^{ell}: Salem factor "
                                     f"{cls_l.salem_factor}, expected {expected}")
            check = f"power check: d_1 of (iota2 iota1)^{ell} is d_1^{ell} (Salem factor {expected})"
        spec_l = degree_spectrum(2, degree_from_classification(cls_l))
        spectra.append((ell, spec_l, spectrum_decimals(spec_l, args.precision), check))
    root_decimal = spectra[0][2].entries[1]  # l = 1: d_1 is the Salem root of cp

    if args.format == "json":
        payload = {
            "lattice": {"labels": list(lat.labels), "gram": encode_matrix(lat.gram_rows())},
            "involutions": [
                _solution_json(sol1, lat),
                _solution_json(sol2, lat),
            ],
            "composition": {
                "matrix": encode_matrix(comp.rows()),
                "char_poly": list(cp.coeffs),
                "classification": cls.to_json(args.precision, root_decimal),
            },
            "spectra": [
                {"power": ell, "spectrum": _spectrum_json(s, dec)}
                for ell, s, dec, _ in spectra
            ],
            "naturality": {
                "verdict": cert.verdict,
                "required_norm": cert.required_norm,
                "witness": None
                if cert.witness is None
                else {"vector": list(cert.witness[0]), "norm": cert.witness[1]},
            },
        }
        sys.stdout.write(dump_json(payload))
        return EXIT_OK

    print(f"rank-3 lattice <{', '.join(lat.labels)}>:")
    for row in lat.gram_rows():
        print(f"  {row}")
    for sol, name in ((sol1, "M1"), (sol2, "M2")):
        h_label = lat.labels[sol.h_index]
        print(f"\ninvolution from the quartic embedding by |{h_label}|:")
        print(f"  iota*({h_label}) = 3{h_label} - 4e, iota*(e) = 2{h_label} - 3e")
        for rec in sol.records:
            target = lat.labels[rec.basis_index]
            cands = ", ".join(str(c) for c in rec.candidates)
            print(f"  candidates for iota*({target}): {cands}")
            for cand, why in rec.rejections:
                print(f"    rejected {cand}: {why}")
            print(f"    chosen   {rec.chosen}")
        print(f"  {name} = {sol.isometry.rows()}   (matches the bundled fixture)")
        print(f"  assumed hypotheses: {', '.join(sol.assumed_hypotheses)}")
    print(f"\ncomposition M1*M2 = {comp.rows()}")
    print(f"char poly: {cp}")
    print(_classification_summary(cls))
    print(f"salem root: {cls.salem_root.exact_str()} = {root_decimal}")
    for ell, s, dec, check in spectra:
        print(f"\ndegree spectrum of (iota2 iota1)^l for l = {ell} (n = 2):")
        print(_spectrum_table(s, dec))
        if check:
            print(check)
    print("\nnaturality certificate:")
    witness_vec, witness_norm = cert.witness
    print(
        f"{cert.verdict}: fixed class {lat.vector_str(list(witness_vec))} "
        f"has norm {witness_norm}, required {cert.required_norm}"
    )
    return EXIT_OK


def _solution_json(sol, lat) -> dict:
    return {
        "matrix": encode_matrix(sol.isometry.rows()),
        "quartic_class": lat.labels[sol.h_index],
        "candidates": [
            {
                "for": lat.labels[rec.basis_index],
                "candidates": [list(c) for c in rec.candidates],
                "chosen": list(rec.chosen),
                "rejected": [
                    {"candidate": list(c), "reason": why} for c, why in rec.rejections
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
Option = namedtuple("Option", "type default minimum required help", defaults=(str, None, None, False, ""))
# <name> runs cmd_<name>, looked up when it runs; a last positional "x..." takes one or more
Command = namedtuple("Command", "help positionals type options", defaults=((), str, {}))

GLOBAL_OPTIONS = {
    "--format": Option(("table", "json"), "table", help="report format, table or json (default: table)"),
    "--precision": Option(int, 12, 3, help="significant digits for decimals (default: 12, minimum 3)"),
}
_LATTICE = Option(required=True, help="lattice JSON file (required)")
_HALF_DIM = Option(int, 2, 1, help="n, the number of points; the variety has dimension 2n (default 2)")
_ISOMETRY = Option(required=True, help="isometry JSON file (required)")
_ISOMETRY_OPTIONS = {"--lattice": _LATTICE, "--isometry": _ISOMETRY, "--half-dim": _HALF_DIM}
COMMANDS = {
    "lattice-info": Command("rank, parity, signature, determinant", ("lattice",)),
    "degrees": Command("full dynamical degree spectrum and entropy", options=_ISOMETRY_OPTIONS),
    "salem-check": Command("classify a monic integer polynomial, coefficients constant term first "
                           "(x^2 - 34x + 1 is 1 -34 1)", ("coeffs...",), int),
    "kummer": Command("spectrum of the SL(2,Z) torus automorphism [[a, b], [c, d]]",
                      ("a", "b", "c", "d"), int, {"--half-dim": _HALF_DIM}),
    "beauville-demo": Command("reproduce the quartic-pair example end to end (no inputs needed)"),
    "natural-check": Command("necessary condition for being induced from a surface automorphism", options={
        **_ISOMETRY_OPTIONS, "--lattice": _LATTICE._replace(help="extended lattice JSON file (required)"),
        "--e-index": Option(int, help='index of the exceptional class (default: the one labelled "e")')}),
    "search": Command("catalogue Salem isometries within an entry bound", options={
        "--lattice": _LATTICE, "--bound": Option(int, 8, 1, help="entry bound (default 8)")}),
}


def _is_option(arg: str) -> bool:
    """Is arg an option? A lone - and a negative number are values."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].replace(".", "", 1).isdecimal()


def _convert(kind, text: str, what: str):
    try:
        return kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
    except ValueError:
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
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return EXIT_OK if args is None else globals()["cmd_" + args.command.replace("-", "_")](args)
    except HkddError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # last resort: a bug, reported in one line
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
