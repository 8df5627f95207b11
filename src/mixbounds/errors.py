"""Exception hierarchy, and the parsers of outside input that raise it.

Public functions raise a MixboundsError (a ValueError) subclass on bad
input, and the CLI exits 2 on one.  NotIrreducible is a NotErgodic.  Numbers,
counts and arrays are parsed here, by ``_real``, ``_count``, ``_floats``,
``_square`` and ``_vector``; each caller names the error class, or takes
``_vector``'s BadParams.  A real's range and a count's belong to ``_real``
and ``_count``, not to their callers.  ``_finite`` turns a sum over parsed
input that overflowed into BadParams.
"""

import itertools
import reprlib
import sys

import numpy as np


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


class NotIrreducible(NotErgodic):
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
    """A mixing time passed its clock's cap of 2^20 steps or time units
    (near-periodicity, or a hopeless tolerance)."""


class BadEpsilon(MixboundsError):
    """epsilon outside (0, 1), or below the 1e-12 numerical floor."""


class BadDelta(MixboundsError):
    """delta outside (0, 1/2)."""


class BadParams(MixboundsError):
    """An invalid parameter other than epsilon or delta: a generator's, a
    rate matrix or time, a distribution, a step count, or a mixing time."""


class InvalidFlow(MixboundsError):
    """A flow failed validation (demand equations, path support, or mass range)."""


class KappaInfinite(MixboundsError):
    """A loaded edge has zero neighbourhood overlap, so the spreading constant
    is infinite and the detour construction cannot run."""


class NoOddPath(MixboundsError):
    """No odd-length route exists for some demand (bipartite-like support)."""


class WrongFlowBase(MixboundsError):
    """The flow is not built over the chain the requested bound needs."""


def _real(value, what: str, error: type, above: float = -np.inf, below: float = np.inf) -> float:
    """``float(value)`` in the open interval (above, below), so never inf or
    nan; a bool, whatever float() rejects or overflows on, or a number
    outside the interval raises ``error``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if above < (real := float(value)) < below:
                return real
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{what} must be a number in ({above:g}, {below:g}), got {reprlib.repr(value)}")


def _count(value, what: str, error: type, least: int = 0, most: int = sys.maxsize) -> int:
    """An integer in [least, most], not a bool, else ``error``; sys.maxsize is
    the largest numpy size."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or not least <= value <= most:
        raise error(f"{what} must be an integer in [{least}, {most}], got {reprlib.repr(value)}")
    return int(value)


def _floats(values, what: str, error: type) -> np.ndarray:
    """``values`` as a float array.  Ragged rows raise DimensionMismatch; a
    non-numeric, bool, overflowing or non-finite entry raises ``error``."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        rows = values if isinstance(values, (list, tuple)) else ()
        if len({len(r) if isinstance(r, (list, tuple)) else -1 for r in rows}) > 1:
            raise DimensionMismatch(f"{what} rows differ in length") from None
        raise error(f"{what} has a non-numeric entry, or one too large for a float") from None
    leaves = [values]  # flattened to the entries, unless an array's dtype gives their type
    for _ in range(0 if isinstance(values, np.ndarray) and values.dtype != object else out.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    if getattr(values, "dtype", None) == bool or not {bool, np.bool_}.isdisjoint(map(type, leaves)):
        raise error(f"{what} has a bool entry, not a number")
    if not np.all(np.isfinite(out)):
        raise error(f"{what} has non-finite entries")
    return out


def _square(M, what: str, error: type) -> np.ndarray:
    """``M`` parsed by ``_floats``, and DimensionMismatch unless it is a square matrix."""
    M = _floats(M, what, error)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {M.shape}")
    return M


def _vector(values, what: str, size: int | None = None) -> np.ndarray:
    """``values`` parsed by ``_floats`` (its entry faults raise BadParams), and
    DimensionMismatch unless it is a non-empty vector, of ``size`` entries if given."""
    v = _floats(values, what, BadParams)
    if v.ndim != 1 or not v.size or size not in (None, v.size):
        raise DimensionMismatch(f"{what} must be a non-empty vector{'' if size is None else f' of {size} entries'}, "
                                f"got shape {v.shape}")
    return v


def _finite(value: float, what: str) -> float:
    """``value``, unless a sum over finite input overflowed to inf or nan: BadParams."""
    if not np.isfinite(value):
        raise BadParams(f"{what} overflows a float")
    return value
