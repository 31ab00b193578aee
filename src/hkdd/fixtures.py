"""Bundled demo fixtures: the rank-3 quartic-pair lattice and the two
involution matrices acting on it. Every bundled file, the SL(2, Z) matrices
keyed by trace in sl2_by_trace.json included, is reachable by fixture_path."""

from __future__ import annotations

from pathlib import Path

from .jsonio import load_lattice, load_matrix
from .lattice import GramLattice


def fixture_dir() -> Path:
    return Path(__file__).parent / "data"


def fixture_path(name: str) -> Path:
    p = fixture_dir() / name
    if not p.exists():
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
