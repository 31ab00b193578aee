"""Every def and method of src/hkdd is reached by the command line, exported
from hkdd/__init__.py, or listed in UNREACHED with the reason no command
reaches it.

A fresh process, so that no cache filled by another test hides a call, runs
every golden case at precision 12 in both formats, and `-h`, under
sys.setprofile, and reports the code objects called. A def is matched to
its code object by file and first line, that of its first decorator if it
has one."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import hkdd
from test_cli_golden import CASES, FORMATS, _argv, _resolve

PACKAGE = Path(hkdd.__file__).parent

UNREACHED = {
    "dynamics.validate_spectrum_shape": "wrapped by the traced benchmark run (perfbench/tracing.py) alone",
    "dynamics.ShapeReport.ok": "the verdict of validate_spectrum_shape",
    "dynamics.ShapeReport.__bool__": "the verdict of validate_spectrum_shape",
    "polynomial.AlgebraicReal.refined": "wrapped by the traced benchmark run, and the tests' width-bounded walk",
    "polynomial._chain_variations": "used by the exported isolate_real_roots, and by compare_to only for two "
                                    "roots within 2^-64 of each other, which no golden case compares",
    "lattice._binary_isotropy_certificate": "represents(lat, 0) on a binary form; no command asks for the value 0",
    "fixtures.fixture_dir": "called by the exported fixture_path; commands take the paths of the files they read",
    "lattice.GramLattice.__repr__": "for debugging; no command prints a repr",
    "lattice.LatticeIsometry.__repr__": "for debugging; no command prints a repr",
    "polynomial.AlgebraicReal.__repr__": "for debugging; no command prints a repr",
    "polynomial.IntPolynomial.__repr__": "for debugging; no command prints a repr",
    "polynomial._Immutable.__setattr__": "the frozen-attribute guard; runs only on an attempt to assign",
    "polynomial._Immutable.__delattr__": "the frozen-attribute guard; runs only on an attempt to delete",
}

RUN = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, sys.argv[1])
called = set()


def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(hook)
from hkdd.cli import main

with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        main(argv)
sys.setprofile(None)
package = os.path.dirname(sys.modules["hkdd"].__file__)
print(json.dumps([[os.path.basename(c.co_filename), c.co_firstlineno]
                  for c in called if os.path.dirname(c.co_filename) == package]))
"""


def defs() -> dict[tuple[str, int], str]:
    """(file name, first line) -> module.qualified name, for every def in src/hkdd."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path.name, first] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def exported() -> set[str]:
    """module.name for every name hkdd/__init__.py imports from a module of the package."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {f"{node.module}.{alias.name}" for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_def_is_reached_exported_or_listed():
    argvs = [_resolve(_argv(case, fmt, 12)) for case in CASES for fmt in FORMATS] + [["-h"]]
    proc = subprocess.run([sys.executable, "-c", RUN, str(PACKAGE.parent), json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    reached = {tuple(key) for key in json.loads(proc.stdout)}
    unreached = {name for key, name in defs().items() if key not in reached} - exported()
    # a new def no run reaches needs a caller or an entry; an entry whose def
    # is now reached, or gone, is dropped
    assert (sorted(unreached - UNREACHED.keys()), sorted(UNREACHED.keys() - unreached)) == ([], [])
