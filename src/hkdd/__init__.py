"""hkdd: exact dynamical degrees and entropy of hyperkahler lattice isometries.

The package computes, entirely in exact arithmetic, the full dynamical degree
table d_k = d_1^min(k, 2n-k) and entropy n*ln(d_1) of an automorphism given
by its action on an integral lattice, classifies characteristic polynomials
into cyclotomic x (at most one Salem) factors with certified Salem roots, and
reproduces the classical Kummer-surface and quartic-involution examples.
"""

from .errors import (
    AmbiguousSolutionError,
    BadNError,
    CombinationBudgetError,
    DegreeTooSmallError,
    DimensionMismatchError,
    HkddError,
    LatticeMismatchError,
    NoSolutionError,
    NonSquareError,
    NonSymmetricError,
    NotDivisibleError,
    NotIsometryError,
    NotMonicError,
    NotPalindromicError,
    NotUnimodularError,
    OddDegreeError,
    SpectralStructureViolatedError,
    ZeroPolynomialError,
)
from .lattice import (
    CertifiedNo,
    FoundVector,
    GramLattice,
    LatticeIsometry,
    NotFoundWithinBound,
    Signature,
    invariant_sublattice,
    is_even,
    make_lattice,
    norm_of,
    permute_basis,
    represents,
    signature,
    verify_isometry,
)
from .polynomial import (
    AlgebraicReal,
    IntPolynomial,
    char_poly,
    cyclotomic,
    divide_exact,
    is_reciprocal,
    isolate_real_roots,
    poly,
    sturm_count,
    trace_polynomial,
)
from .salem import (
    SalemCheck,
    SalemClassification,
    classify_charpoly,
    is_salem_polynomial,
    peel_cyclotomic,
)
from .dynamics import (
    DegreeSpectrum,
    SpectrumDecimals,
    degree_spectrum,
    first_dynamical_degree,
    search_salem_isometries,
    spectrum_decimals,
)
from .hyperkahler import (
    BeauvilleSolution,
    HilbertLattice,
    NaturalityCertificate,
    Sl2Matrix,
    beauville_involution,
    compose,
    hilbert_from_extended,
    hilbert_lattice,
    kummer_first_degree,
    kummer_spectrum,
    natural_isometry,
    naturality_certificate,
    power,
    solve_beauville,
)

__version__ = "0.1.0"
