"""Exception hierarchy shared across the package.

Data problems (bad samples, unreadable files) and method problems (solver
could not verify a transition, test cannot be calibrated) are kept on
separate branches so the CLI can map them to distinct exit codes.
"""

from __future__ import annotations


class ModalityError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ModalityError):
    """An input violates a documented precondition; message names the field."""


class DegenerateSampleError(ValidationError):
    """Sample has no usable scale (too few points, or zero spread)."""


class GridSpanError(ValidationError):
    """Data falls outside the evaluation grid passed to the FFT estimator."""


class DataFormatError(ValidationError):
    """A file could not be parsed into a numeric sample.

    ``line`` carries a 1-based line number when the failure is localized.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class NotBimodalError(ModalityError):
    """An operation that needs at least two modes saw fewer."""


class SolverError(ModalityError):
    """The bandwidth search failed and no usable estimate exists."""


class CIUnreliableError(SolverError):
    """Too many bootstrap replicates failed to produce an interval.

    ``failures`` is the number of replicates whose solve did not verify.
    """

    def __init__(self, message: str, failures: int):
        super().__init__(message)
        self.failures = failures


class TestInconclusiveError(ModalityError):
    """A hypothesis test could not produce a statistic on the original data."""
