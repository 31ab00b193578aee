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
The argument parser is built once per process. File inputs use the JSON
formats documented in jsonio.
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Decimal
from fractions import Fraction

from . import fixtures, linalg
from .dynamics import (
    DegreeSpectrum,
    SpectrumDecimals,
    degree_from_classification,
    degree_spectrum,
    search_salem_isometries,
    spectrum_decimals,
    validate_spectrum_shape,
)
from .errors import HkddError, NotMonicError
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
EXIT_PARSE = 2

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
    if cls.salem_factor is not None:
        parts.append(f"Salem({cls.salem_factor})")
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
    d1 = degree_from_classification(cls, iso.rows())
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

    spectra = []
    for ell in (1, 2, 3):
        iso_l = power(comp, ell)
        cls_l = classify_charpoly(char_poly(iso_l.rows()))
        d1_l = degree_from_classification(cls_l, iso_l.rows())
        spec_l = degree_spectrum(2, d1_l)
        spectra.append((ell, spec_l, spectrum_decimals(spec_l, args.precision)))
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
                for ell, s, dec in spectra
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
    # the printed decimals are correctly rounded, within half a unit in their last digit
    tolerance = Decimal(10) ** (2 - args.precision)
    for ell, s, dec in spectra:
        print(f"\ndegree spectrum of (iota2 iota1)^l for l = {ell} (n = 2):")
        print(_spectrum_table(s, dec))
        shape = validate_spectrum_shape(dec.entries, tolerance)
        print(f"shape checks: {'all pass' if shape.ok else shape.violations}")
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
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process; subcommand <name> runs
    cmd_<name>, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="hkdd",
        description=(
            "Exact dynamical degree spectra and entropy of hyperkahler lattice "
            "automorphisms, with Salem classification of characteristic "
            "polynomials."
        ),
        epilog=(
            "Polynomial coefficients are given constant term FIRST: x^2 - 34x + 1 "
            "is '1 -34 1'."
        ),
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format (default: table)",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=12,
        help="significant digits for decimals (default: 12, minimum 3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="rank, parity, signature, determinant")
    p.add_argument("lattice", help="lattice JSON file")

    p = sub.add_parser("degrees", help="full dynamical degree spectrum and entropy")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    p.add_argument("--half-dim", type=int, default=2, help="n with dim = 2n (default 2)")

    p = sub.add_parser("salem-check", help="classify a monic integer polynomial")
    p.add_argument("coeffs", type=int, nargs="+", help="coefficients, constant first")

    p = sub.add_parser("kummer", help="spectrum of an SL(2,Z) torus automorphism")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--half-dim", type=int, default=2, help="points on the Kummer surface (default 2)")

    sub.add_parser(
        "beauville-demo",
        help="reproduce the quartic-pair example end to end (no inputs needed)",
    )

    p = sub.add_parser(
        "natural-check",
        help="necessary condition for being induced from a surface automorphism",
    )
    p.add_argument("--lattice", required=True, help="extended lattice JSON file")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    p.add_argument("--half-dim", type=int, default=2, help="points n (default 2)")
    p.add_argument(
        "--e-index",
        type=int,
        default=None,
        help='index of the exceptional class (default: the basis labelled "e")',
    )

    p = sub.add_parser("search", help="catalogue Salem isometries within an entry bound")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--bound", type=int, default=8, help="entry bound (default 8)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.precision < 3:
        print("--precision must be at least 3", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "half_dim", 1) < 1:
        print("--half-dim must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "bound", 1) < 1:
        print("--bound must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except HkddError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # last resort: a bug, reported in one line
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
