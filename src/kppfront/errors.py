"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/domain problems exit 1,
numerical failures exit 2, verification failures exit 3.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain an operation supports."""


class NumericsError(RuntimeError):
    """A numerical procedure failed: instability, non-convergence, lost tolerance."""


class LevelNotAttainedError(NumericsError):
    """A requested level set is empty on the computational domain."""
