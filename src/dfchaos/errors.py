"""Exception taxonomy shared by every dfchaos module, and the enumeration cap.

The CLI maps these onto process exit codes: usage problems exit 2 (argparse),
numeric/convergence/domain failures exit 1 with a structured JSON diagnostic
on stderr, and resource-cap breaches exit 3.
"""

from __future__ import annotations

#: The bound on the terms of an exact enumeration, read where each path
#: checks what it holds: a larger nominal size raises ``ResourceCapError``
#: (CLI exit code 3) before any work.
DEFAULT_ENUMERATION_CAP = 10_000_000


class DFChaosError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DFChaosError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(DFChaosError):
    """A floating-point computation failed to reach its accuracy contract.

    ``partial`` carries the best value available when the failure occurred,
    so callers can report it in diagnostics.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ConvergenceError(NumericError):
    """An iterative scheme did not converge within its configured budget."""


class ResourceCapError(DFChaosError):
    """An exact enumeration would exceed ``DEFAULT_ENUMERATION_CAP`` terms."""


class SingularSystemError(DFChaosError):
    """A linear system that should be uniquely solvable lost its pivot."""
