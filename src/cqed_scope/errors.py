"""Exception hierarchy shared across the package.

Configuration problems (bad files, bad keys, inconsistent drive settings)
raise :class:`ConfigError`; anything that goes wrong after a run has started
(singular steady-state systems, unconverged cutoffs, failed fits) derives
from :class:`NumericalError`.  The command-line layer maps the former to
exit code 2 and the latter to exit code 3.
"""


class CqedScopeError(Exception):
    """Base class for package-specific errors."""


class ConfigError(CqedScopeError):
    """Invalid or inconsistent run configuration."""


class NumericalError(CqedScopeError, RuntimeError):
    """A computation started but could not be completed reliably.

    ``index`` locates the failure within a batch of like computations (a stack of
    steady-state solves, the points of a scan); it is ``None`` for a single one.
    """

    def __init__(self, *args: object, index: int | None = None) -> None:
        super().__init__(*args)
        self.index = index


class NonUniqueSteadyStateError(NumericalError):
    """The Liouvillian kernel is degenerate; no unique steady state exists."""


class TruncationError(NumericalError):
    """The Fock-space cutoff is too small for the requested drive."""


class ScanError(NumericalError):
    """A spectral scan failed at one of its grid points."""


class FitError(NumericalError):
    """A least-squares fit could not be set up or run."""


class IllPosedWindowError(FitError):
    """Peak lies on the window boundary; the lineshape fit is ill posed."""


class NoSignalError(FitError):
    """Dataset carries no signal to fit."""


class ChainingError(FitError):
    """A parameter chained from an upstream fit is missing or unusable."""
