"""Exception types shared across the package."""


class FactCancelError(Exception):
    """Base class for all library errors."""


class NotPrime(FactCancelError):
    """A number that was required to be prime is not."""


class IrrationalSpectrum(FactCancelError):
    """The characteristic polynomial has a non-rational factor."""


class SingularT(FactCancelError):
    """A conjugation matrix is singular."""


class DimensionMismatch(FactCancelError):
    """Matrices of incompatible sizes were combined."""


class NotCommuting(FactCancelError):
    """An identity requiring pairwise commuting matrices was invoked on a
    non-commuting family."""


class RepeatedBeta(FactCancelError):
    """Closed forms for the adjoint hypergeometric system require pairwise
    distinct lower parameters."""


class InvalidBeta(FactCancelError):
    """A lower parameter is a negative integer, so series denominators vanish."""


class RepeatedRootMinPoly(FactCancelError):
    """The minimal polynomial has a repeated root where a squarefree one is
    required."""


class ConditionsFailed(FactCancelError):
    """One of the irreducibility conditions does not hold."""

    def __init__(self, failed: list[int]):
        self.failed = failed
        super().__init__(f"irreducibility conditions failed: {failed}")


class EpsilonOutOfRange(FactCancelError):
    """epsilon must lie in (0, 1/(m+2))."""


class XiZero(FactCancelError):
    """The evaluation point must be a nonzero rational."""
