"""Bundled demo fixtures: the rank-2 quartic-pair lattice, its rank-3
extension and the two involution matrices acting on that, held as constants,
so that beauville-demo reads no file. The same four objects ship as JSON
files for the command line (a test pins each file to its constant), beside
the SL(2, Z) matrices keyed by trace in sl2_by_trace.json; fixture_path
names any bundled file. Paths are plain strings built with os.path."""

from __future__ import annotations

import os

from .lattice import GramLattice

QUARTIC_PAIR_LATTICE = GramLattice(((4, 8), (8, 4)), ("H1", "H2"))  # quartic_pair_lattice.json
RANK3_LATTICE = GramLattice(((4, 0, 8), (0, -2, 0), (8, 0, 4)), ("H1", "e", "H2"))  # rank3_lattice.json
M1 = ((3, 2, 8), (-4, -3, -8), (0, 0, -1))  # m1.json
M2 = ((-1, 0, 0), (-8, -3, -4), (8, 2, 3))  # m2.json


def fixture_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "data")


def fixture_path(name: str) -> str:
    p = os.path.join(fixture_dir(), name)
    if not os.path.exists(p):
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return p

