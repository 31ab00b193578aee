"""The CLI's exit-code table: one exception class per (exit code, label) row.

    class                           exit  stderr label
    HkddError                       2     input error
    UsageError                      2     usage error
    NotIsometryError                3     not an isometry
    NotUnimodularError              3     not unimodular
    SpectralStructureViolatedError  4     spectral structure violated

Every domain error is one of these; its message says what went wrong.
"""


class HkddError(Exception):
    """Malformed or unsupported input, and the base class of the table."""

    exit_code = 2
    label = "input error"


class UsageError(HkddError):
    """Malformed command line: unknown name, missing or extra argument, bad value."""

    label = "usage error"


class NotIsometryError(HkddError):
    """M^T G M != G; carries one witness position."""

    exit_code = 3
    label = "not an isometry"

    def __init__(self, i: int, j: int, expected: int, got: int):
        self.i, self.j, self.expected, self.got = i, j, expected, got
        super().__init__(
            f"form not preserved at ({i}, {j}): expected {expected}, got {got}"
        )


class NotUnimodularError(HkddError):
    """2x2 integer matrix must have determinant exactly 1."""

    exit_code = 3
    label = "not unimodular"


class SpectralStructureViolatedError(HkddError):
    """Characteristic polynomial is not cyclotomic x (at most one Salem).

    The message names the remainder left by the cyclotomic factors and why
    it failed the exact Salem test, such as its trace-root layout.
    """

    exit_code = 4
    label = "spectral structure violated"
