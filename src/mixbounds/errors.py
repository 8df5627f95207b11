"""Exception hierarchy. Everything derives from MixboundsError (a ValueError)."""


class MixboundsError(ValueError):
    """Base class for all input / precondition errors raised by this package."""


class DimensionMismatch(MixboundsError):
    """Vector or matrix sizes are inconsistent."""


class NonStochastic(MixboundsError):
    """A transition matrix has a negative entry or a row sum off by more than 1e-9."""


class SingularStationary(MixboundsError):
    """The stationary system is rank-deficient beyond the expected one dimension,
    or its solution is not strictly positive."""


class NotErgodic(MixboundsError):
    """Operation requires an irreducible (and, where stated, aperiodic) chain."""


class NotIrreducible(MixboundsError):
    """Operation requires an irreducible chain."""


class NotReversible(MixboundsError):
    """Operation requires a chain satisfying detailed balance."""


class StationaryMismatch(MixboundsError):
    """Two chains that must share a stationary distribution do not."""


class TooLarge(MixboundsError):
    """State space exceeds the limit of an exact enumeration."""


class IllConditioned(MixboundsError):
    """The input is too badly conditioned for an exact answer, e.g. stationary
    cut flows out of and into some cut differ by more than 1e-9 of the flow."""


class NoConvergence(MixboundsError):
    """An iteration hit its step cap (near-periodicity, or a hopeless tolerance)."""


class BadEpsilon(MixboundsError):
    """epsilon outside (0, 1), or below the 1e-12 numerical floor."""


class BadDelta(MixboundsError):
    """delta outside (0, 1/2)."""


class BadParams(MixboundsError):
    """Invalid generator parameters."""


class InvalidFlow(MixboundsError):
    """A flow failed validation (demand equations, path support, or mass range)."""


class KappaInfinite(MixboundsError):
    """A loaded edge has zero neighbourhood overlap, so the spreading constant
    is infinite and the detour construction cannot run."""


class NotSimplifiable(MixboundsError):
    """Loop erasure failed to produce a flow with simple support (internal bug)."""


class NoOddPath(MixboundsError):
    """No odd-length route exists for some demand (bipartite-like support)."""


class Unreachable(MixboundsError):
    """No route at all exists for some demand."""


class WrongFlowBase(MixboundsError):
    """The flow is not built over the chain the requested bound needs."""
