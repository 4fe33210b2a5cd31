"""Exception taxonomy shared by the whole package.

Everything raised on purpose derives from :class:`SyncPhaseError`, so callers
(and the CLI) can distinguish our validation/numeric failures from genuine
bugs.  Parameter- and input-validation errors subclass ``ValueError`` as well,
which keeps ``except ValueError`` workflows functional.
"""


class SyncPhaseError(Exception):
    """Base class for all errors raised by this package."""


class NonSynchronous(SyncPhaseError, ValueError):
    """N * f0 / fs is not an integer, so the tone does not land on a DFT bin."""


class NyquistViolation(SyncPhaseError, ValueError):
    """Sampling rate does not strictly exceed twice the signal frequency."""


class NonPositiveAmplitude(SyncPhaseError, ValueError):
    """Signal amplitude must be strictly positive."""


class EmptyInput(SyncPhaseError, ValueError):
    """An operation received zero samples / zero rows."""


class ZeroVector(SyncPhaseError, ValueError):
    """Phase is undefined: the statistic (or the record) is identically zero."""


class DegenerateSigma(SyncPhaseError, ValueError):
    """The dispersion parameter is zero; the density degenerates to a point mass."""


class QuadratureNonConvergence(SyncPhaseError, ArithmeticError):
    """Adaptive quadrature exhausted its panel budget before meeting
    tolerance, or bisecting a panel with a NaN error left a NaN half."""

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class SupportMismatch(SyncPhaseError, ArithmeticError):
    """KL divergence undefined: q vanishes on nodes where p carries mass.

    ``unsupported_mass`` is the fraction of p's probability mass sitting on
    the offending nodes.
    """

    def __init__(self, message, unsupported_mass=0.0):
        super().__init__(message)
        self.unsupported_mass = float(unsupported_mass)


class SingularCovariance(SyncPhaseError, ArithmeticError):
    """Sample covariance is (numerically) rank deficient."""


class LengthMismatch(SyncPhaseError, ValueError):
    """Paired inputs have different lengths."""


class TooFewPoints(SyncPhaseError, ValueError):
    """Not enough observations for the requested statistic."""


class OutOfRange(SyncPhaseError, ValueError):
    """A value lies outside its documented domain (e.g. a p-value outside [0,1])."""
