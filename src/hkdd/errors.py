"""Exception types shared across the package, with the CLI's exit codes.

Each error carries the exit code and stderr label the CLI reports it with:
2 for malformed input, 3 for an isometry or determinant failure, 4 for a
violated spectral structure. A subclass without its own entry inherits the
base class's code 2 and label "input error".
"""


class HkddError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 2
    label = "input error"


class NonSquareError(HkddError):
    """Matrix is not square."""


class NonSymmetricError(HkddError):
    """Gram matrix is not symmetric."""


class DimensionMismatchError(HkddError):
    """Vector or matrix size disagrees with the lattice rank."""


class NotIsometryError(HkddError):
    """M^T G M != G; carries one witness position."""

    exit_code = 3
    label = "not an isometry"

    def __init__(self, i: int, j: int, expected: int, got: int):
        self.i, self.j, self.expected, self.got = i, j, expected, got
        super().__init__(
            f"form not preserved at ({i}, {j}): expected {expected}, got {got}"
        )


class ZeroPolynomialError(HkddError):
    """Operation undefined for the zero polynomial."""


class NotDivisibleError(HkddError):
    """Exact polynomial division over the integers failed."""


class NotPalindromicError(HkddError):
    """Coefficient vector is not palindromic."""


class OddDegreeError(HkddError):
    """Operation requires even degree."""


class NotMonicError(HkddError):
    """Polynomial must be monic."""


class DegreeTooSmallError(HkddError):
    """Polynomial degree below the operation's minimum."""


class SpectralStructureViolatedError(HkddError):
    """Characteristic polynomial is not cyclotomic x (at most one Salem).

    The message names the remainder left by the cyclotomic factors and why
    it failed the exact Salem test, such as its trace-root layout.
    """

    exit_code = 4
    label = "spectral structure violated"


class LatticeMismatchError(HkddError):
    """Operands act on different lattices."""


class BadNError(HkddError):
    """Hilbert scheme point count must be >= 2."""


class NotUnimodularError(HkddError):
    """2x2 integer matrix must have determinant exactly 1."""

    exit_code = 3
    label = "not unimodular"


class UsageError(HkddError):
    """Malformed command line: unknown name, missing or extra argument, bad value."""

    label = "usage error"
