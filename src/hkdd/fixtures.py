"""Bundled demo fixtures: the rank-3 quartic-pair lattice and the two
involution matrices acting on it. Every bundled file, the SL(2, Z) matrices
keyed by trace in sl2_by_trace.json included, is reachable by fixture_path.
Paths are plain strings built with os.path."""

from __future__ import annotations

import os

from .jsonio import load_lattice, load_matrix
from .lattice import GramLattice


def fixture_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "data")


def fixture_path(name: str) -> str:
    p = os.path.join(fixture_dir(), name)
    if not os.path.exists(p):
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return p


def rank3_lattice() -> GramLattice:
    return load_lattice(fixture_path("rank3_lattice.json"))


def quartic_pair_lattice() -> GramLattice:
    return load_lattice(fixture_path("quartic_pair_lattice.json"))


def m1_matrix() -> list[list[int]]:
    return load_matrix(fixture_path("m1.json"))


def m2_matrix() -> list[list[int]]:
    return load_matrix(fixture_path("m2.json"))
