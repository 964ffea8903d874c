"""Exception hierarchy shared across the package.

Every failure mode the library can signal has a dedicated class so that
callers (and the command-line front end, which maps them to exit codes)
can react without string matching.
"""


class LabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LabError, ValueError):
    """Input outside an operation's mathematical domain (exit code 2)."""


class IntegrationError(LabError, RuntimeError):
    """Adaptive integration could not proceed (exit code 3).

    Carries the time at which the step size underflowed.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DegeneracyError(LabError, ValueError):
    """Tracked level is (numerically) degenerate with another (exit code 4)."""


class ContinuationError(LabError, RuntimeError):
    """No eigenvector can be identified as the continuation of the
    initial state; coupling too strong for perturbative tracking
    (exit code 5)."""


class SingularJetError(LabError, ArithmeticError):
    """Reciprocal of a jet whose leading coefficient vanishes.

    In this package that always means a vanishing energy denominator,
    i.e. an undetected degeneracy.
    """


class ConsistencyError(LabError, ArithmeticError):
    """A quantity that must be real came out with a large imaginary part."""
