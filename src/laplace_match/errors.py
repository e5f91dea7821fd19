"""Error taxonomy shared by every module.

Each exception carries a human-readable message; nothing else is attached so
callers can match purely on type.
"""


class LaplaceMatchError(Exception):
    """Base class for all library errors."""


class InvalidParams(LaplaceMatchError):
    """Parameter record violates its family's invariants."""


class OutOfSupport(LaplaceMatchError):
    """Evaluation point lies outside the distribution's support."""


class NonConjugatePair(LaplaceMatchError):
    """Prior family and observation batch do not form a conjugate pair."""


class IncompatibleBasis(LaplaceMatchError):
    """The (family, basis) pair is not defined."""


class DirectionUnavailable(LaplaceMatchError):
    """Requested transform direction does not exist (non-bijective basis)."""


class NoValidLaplace(LaplaceMatchError):
    """No interior mode with negative-definite curvature exists."""


class NonConvergence(LaplaceMatchError):
    """Iterative mode search exhausted its iteration cap."""


class OutsideValidityRegion(LaplaceMatchError):
    """Closed-form bridge parameters fall outside the bridge's validity region."""


class DomainMismatch(LaplaceMatchError):
    """A Gaussian lies outside the latent domain of the requested (family, basis)
    bridge row, or maps to parameters outside its validity region."""


class NonInvertibleBridge(LaplaceMatchError):
    """Bridge has no inverse map under the current flags."""


class NotPositiveDefinite(LaplaceMatchError):
    """Matrix argument is not positive definite where required."""


class DimensionMismatch(LaplaceMatchError):
    """Inputs have inconsistent dimensions."""


class BasisSizeMismatch(IncompatibleBasis, DimensionMismatch):
    """A basis's K or p differs from the size of what it is applied to."""


class EmptyDataset(LaplaceMatchError):
    """Pipeline received no observations."""


class NegativeRate(LaplaceMatchError):
    """Count metrics received a non-positive rate prediction."""


class SupportMismatch(LaplaceMatchError):
    """Sampling density support does not cover the target domain."""
