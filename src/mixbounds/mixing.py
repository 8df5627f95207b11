"""Total-variation distance, exact mixing times, and continuization.

Discrete mixing times are found by iterating the distributions one step at a
time (never materialising matrix powers), one stream of rows per chain and
call, relying on the fact that each row's distance to stationarity is
non-increasing; that is re-checked for every row at every step, so a
violation surfaces as a bug rather than a wrong answer.
The continuized chain has rate matrix Q = P - I and distribution
``v expm(Q t)``; its mixing time is found by doubling and bisection.  The
probes share a ladder of power-of-two exponentials E(2^e) = expm(Q 2^e),
squared up from a few anchors computed directly, so each probe costs one
matrix product rather than a fresh exponential; every square and product is
checked to stay stochastic.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .chains import ROW_SUM_TOL, Chain, _require
from .errors import BadEpsilon, BadParams, DimensionMismatch, NoConvergence, _count, _floats, _real, _square

MAX_DISCRETE_STEPS = 1_000_000
MAX_PROFILE_STEPS = 10_000
MONOTONE_TOL = 1e-12
#: continuous-time probes may disagree by at most this (matrix exponential noise)
MONOTONE_TOL_CONTINUOUS = 1e-10
BISECTION_REL = 1e-6
#: continuized doubling stops here (about MAX_DISCRETE_STEPS): squaring E(1)
#: much further loses stochasticity, first at about 2^23 on the chains tried
MAX_CONTINUOUS_TIME = 2.0**20


def _check_eps(eps: float) -> float:
    eps = _real(eps, "epsilon", BadEpsilon)
    if not (0.0 < eps < 1.0):
        raise BadEpsilon(f"epsilon must lie in (0, 1), got {eps}")
    if eps < 1e-12:
        raise BadEpsilon("epsilon below 1e-12 is numerically meaningless")
    return eps


def tv_distance(theta1, theta2) -> float:
    """Total-variation distance: half the l1 distance between the vectors.

    Cross-checked against the worst-event form (the sum of positive parts of
    the difference); for genuine distributions the two are equal up to half
    the difference of the totals.
    """
    t1 = _floats(theta1, "distribution", BadParams)
    t2 = _floats(theta2, "distribution", BadParams)
    if t1.shape != t2.shape:
        raise DimensionMismatch("distributions have different lengths")
    d = t1 - t2
    half_l1 = 0.5 * float(np.abs(d).sum())
    positive_part = float(d[d > 0].sum())
    slack = 1e-12 + 0.5 * abs(float(d.sum()))
    if abs(half_l1 - positive_part) > slack:
        raise AssertionError("half-l1 and worst-event forms of TV disagree")
    return half_l1


@dataclass(frozen=True)
class MixingResult:
    """Outcome of a mixing-time computation.

    ``from_state`` is a state index, or None for the worst case over all
    starts.  ``time`` is an integer step count for discrete chains and a real
    for continuized ones; ``achieved_tv`` is the distance actually attained
    at that time (always <= epsilon).
    """

    from_state: int | None
    epsilon: float
    time: int | float
    achieved_tv: float


def _rows_tv(rows: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """TV(rows[j], pi) per row j, with one temporary.  The clamp at 0 is a no-op
    on step iterates and drops the <=1e-12 negatives of an exponential."""
    D = np.maximum(rows, 0.0)
    D -= pi
    np.abs(D, out=D)
    return 0.5 * D.sum(axis=1)


def discrete_mixing_time(chain: Chain, x, eps, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
    """Smallest t > 0 with TV(P^t(x, .), pi) <= eps, by row iteration.

    ``x`` may be a state index/label or None for the worst case over all
    starting states.  Raises NoConvergence after ``max_steps`` steps, which
    signals near-periodicity or an epsilon below reach.
    """
    eps = _check_eps(eps)
    max_steps = _count(max_steps, "max_steps", BadParams)
    _require(chain, "ergodic", "discrete mixing time")
    x_idx = None if x is None else chain.index(x)
    return _Steps(chain, x_idx, every_row=x_idx is None).time(x_idx, eps, max_steps)


def d_profile(chain: Chain, t_max: int) -> list[float]:
    """Worst-start TV profile d(t) = max_j TV(P^t(j, .), pi) for t = 1 .. t_max."""
    t_max = _count(t_max, "t_max", BadParams, most=MAX_PROFILE_STEPS)
    _require(chain, "ergodic", "d_profile")
    steps = _Steps(chain, None, every_row=True)
    while steps.t < t_max:
        steps.step()
    return list(steps.history[None][1:])


class _Steps:
    """The row iterates P^t, t = 0, 1, ..., of one chain, stepped only as far
    as the queries on it need.

    Iterates every row (from the identity) if ``every_row``, else only e_x.
    The history is O(t): the worst-start distance max_j TV(P^t(j, .), pi) at
    each step while every row is iterated (key None), and TV(P^t(x, .), pi)
    if x is given (key x).  So one stream answers every worst-start and
    from-x query of a call, at any epsilon.  A from-x query that steps on
    drops the other rows, so a call asks its worst-start times first.  Each
    step is checked not to raise any row's distance (beyond MONOTONE_TOL),
    since TV(mu P, pi) <= TV(mu, pi) for every start mu.
    """

    def __init__(self, chain: Chain, x: int | None, every_row: bool):
        self.P, self.pi, self.t = chain.P, chain.pi, 0
        self.rows = np.eye(chain.n) if every_row else np.eye(chain.n)[x : x + 1]
        self.row_x = x if every_row else 0
        starts = ([None] if every_row else []) + ([] if x is None else [x])
        self.history = {start: array("d") for start in starts}
        self.tvs = _rows_tv(self.rows, self.pi)
        self._record()

    def _record(self):
        for key, h in self.history.items():
            h.append(float(self.tvs.max() if key is None else self.tvs[self.row_x]))

    def step(self):
        self.rows = self.rows @ self.P
        self.t += 1
        tvs = _rows_tv(self.rows, self.pi)
        risen = tvs > self.tvs + MONOTONE_TOL
        if risen.any():
            prev, cur = (float(v[risen.argmax()]) for v in (self.tvs, tvs))
            raise AssertionError(f"TV to stationarity increased at step {self.t}: {prev!r} -> {cur!r}")
        self.tvs = tvs
        self._record()

    def time(self, x: int | None, eps: float, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
        """Smallest t in 1 .. max_steps with TV <= eps from x (None: the
        worst start), read from the history and stepping on as needed."""
        if x not in self.history:
            raise AssertionError(f"step stream does not track start {x!r}: ask worst-start times first")
        h = self.history[x]
        crossed = np.flatnonzero(np.array(h[1 : max_steps + 1]) <= eps)
        t = int(crossed[0]) + 1 if crossed.size else None
        if t is None and x is not None and None in self.history:
            del self.history[None]
            self.rows, self.tvs = (v[self.row_x : self.row_x + 1] for v in (self.rows, self.tvs))
            self.row_x = 0
        while t is None and self.t < max_steps:
            self.step()
            if h[-1] <= eps:
                t = self.t
        if t is None:
            raise NoConvergence(f"no mixing within {max_steps} steps (TV still {h[max_steps]:.3e})")
        return MixingResult(from_state=x, epsilon=eps, time=t, achieved_tv=h[t])


def _checked(E: np.ndarray) -> np.ndarray:
    """E itself, after checking that it is row-stochastic (row sums within 1e-9)."""
    row_err = float(np.abs(E.sum(axis=1) - 1.0).max())
    if row_err > 1e-9 or float(E.min()) < -1e-12:
        raise AssertionError(f"matrix exponential lost stochasticity (row err {row_err:.3e})")
    return E


def matrix_exponential(Q, t: float) -> np.ndarray:
    """expm(Q t) by scaling and squaring with a truncated Taylor series.

    Q must be a transition rate matrix, else BadParams: off-diagonal entries
    >= 0, each row summing to zero within ROW_SUM_TOL times the larger of the
    row's magnitude and 1 (the size of the P and I a P - I is formed from).
    The result is then row-stochastic; this is verified before returning.
    The argument is scaled until its induced 1-norm is at most 1/2, the
    series is summed until the next term drops below 1e-16, and the result is
    squared back up.
    """
    Q = _square(Q, "rate matrix", BadParams)
    t = _real(t, "time", BadParams)
    if not 0.0 <= t < np.inf:
        raise BadParams(f"time must be finite and nonnegative, got {t!r}")
    n = Q.shape[0]
    size = np.maximum(np.abs(Q).sum(axis=1), 1.0)
    if (Q[~np.eye(n, dtype=bool)] < 0.0).any() or (np.abs(Q.sum(axis=1)) > ROW_SUM_TOL * size).any():
        raise BadParams("Q is not a rate matrix: it needs off-diagonal entries >= 0 and zero row sums")
    X = Q * t
    norm = float(np.linalg.norm(X, 1))
    if not np.isfinite(norm / 0.5):
        raise BadParams(f"Q t overflows at t = {t!r}")
    s = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    X = X / (2.0**s)
    E = np.eye(n)
    term = np.eye(n)
    k = 1
    while True:
        term = term @ X / k
        E = E + term
        if float(np.abs(term).max()) < 1e-16 or k > 64:
            break
        k += 1
    for _ in range(s):
        E = E @ E
    return _checked(E)


#: the anchors below E(1) are E(2^a) for the negative multiples a of this
_ANCHOR_STEP = 8


def _descending(base: np.ndarray, lo: int, hi: int):
    """Yield (e, E(2^e)) for e = hi, hi - 1, ..., lo, given base = E(2^lo).

    Recursive halving: square up to the middle level, yield the upper half
    from there, then the lower half from ``base``.  O(log(hi - lo)) matrices
    are live at a time; every square is checked.
    """
    if lo == hi:
        yield lo, base
        return
    mid = (lo + hi + 1) // 2
    upper = base
    for _ in range(mid - lo):
        upper = _checked(upper @ upper)
    yield from _descending(upper, mid, hi)
    del upper
    yield from _descending(base, lo, mid - 1)


class _Ladder:
    """Exponentials E(t) = expm((P - I) t) of one chain, shared by its
    continuized-time calls.

    Holds the anchors E(2^a), each from one ``matrix_exponential``, and the
    vector of per-start distances TV(E(t)(j, .), pi) at every probe time t
    made so far.  Rung E(2^e) is squared up from anchor a = 0 for e >= 0 and
    from a = 8 floor(e / 8) below, so no rung is more than 7 squarings from a
    direct exponential: each squaring roughly doubles the row-sum error, and a
    ladder squared up from 2^-20 breaks the 1e-9 stochasticity check.
    """

    def __init__(self, chain: Chain):
        self.chain = chain
        self.tvs: dict[float, np.ndarray] = {}
        self._anchors: dict[int, np.ndarray] = {}

    def anchor(self, a: int) -> np.ndarray:
        if a not in self._anchors:
            self._anchors[a] = matrix_exponential(self.chain.P - np.eye(self.chain.n), 2.0**a)
        return self._anchors[a]

    def rungs(self, top: int):
        """Yield (e, E(2^e)) for e = top, top - 1, ... without end, squaring
        each anchor's segment only when the walk down reaches it."""
        if top >= 0:
            yield from _descending(self.anchor(0), 0, top)
            top = -1
        while True:
            a = _ANCHOR_STEP * (top // _ANCHOR_STEP)
            yield from _descending(self.anchor(a), a, top)
            top = a - 1

    def tv(self, t: float, form) -> np.ndarray:
        """Per-start distances at time t; ``form()`` gives E(t) if t is new."""
        if t not in self.tvs:
            self.tvs[t] = _rows_tv(form(), self.chain.pi)
        return self.tvs[t]


def _advance(E_lo: np.ndarray | None, R: np.ndarray) -> np.ndarray:
    """E(lo) R, checked, where None stands for E(0) = I."""
    return R if E_lo is None else _checked(E_lo @ R)


def continuous_mixing_time(chain: Chain, x, eps) -> MixingResult:
    """Mixing time of the continuized chain (rate matrix P - I).

    Only irreducibility is required: continuization removes periodicity.  The
    crossing time is bracketed by doubling until the distance falls below
    eps/2 and then bisected to absolute precision 1e-6 (relative for large
    times); the returned time is the safe side of the bracket.  Raises
    NoConvergence if the distance still exceeds eps at ``MAX_CONTINUOUS_TIME``.
    The distance is checked to be non-increasing across all probe points.
    Each probe is one matrix product with a rung of a power-of-two ladder of
    exponentials, so a call runs at most four exponentials from scratch.
    """
    return _continuous_time(chain, x, eps, _Ladder(chain))


def _continuous_time(chain: Chain, x, eps, ladder: _Ladder) -> MixingResult:
    """continuous_mixing_time on a given ladder.  ``ladder`` holds the chain's
    anchors and probe distances; calls on one chain that share it share their
    exponentials.

    No probe runs a fresh exponential.  Doubling squares E(1): E(2^(k+1)) =
    E(2^k)^2.  After doubling to H = 2^e_hi, the j-th bisection midpoint is
    exactly lo + 2^(e_hi - j), so E(mid) = E(lo) E(2^(e_hi - j)), one product
    with the next rung of the ladder.  That product is formed only when the
    distances at mid are not yet known or mid becomes the new lo; every
    square and product is checked to stay stochastic.
    """
    eps = _check_eps(eps)
    _require(chain, "irreducible", "continuization")
    x_idx = None if x is None else chain.index(x)

    probes: list[tuple[float, float]] = []

    def probe(t: float, form) -> float:
        tvs = ladder.tv(t, form)
        val = float(tvs.max() if x_idx is None else tvs[x_idx])
        probes.append((t, val))
        return val

    if probe(0.0, lambda: np.eye(chain.n)) <= eps:
        return MixingResult(from_state=x_idx, epsilon=eps, time=0.0, achieved_tv=probes[0][1])

    e_hi, E_hi = 0, ladder.anchor(0)
    while probe(2.0**e_hi, lambda: E_hi) > 0.5 * eps and 2.0**e_hi < MAX_CONTINUOUS_TIME:
        e_hi += 1
        E_hi = _checked(E_hi @ E_hi)
    E_hi = None
    lo, hi = 0.0, 2.0**e_hi
    hi_tv = probes[-1][1]
    if hi_tv > eps:
        raise NoConvergence(f"no mixing within the cap of {MAX_CONTINUOUS_TIME:.0f} time units "
                            f"(TV still {hi_tv:.3e})")
    E_lo = None  # E(lo); None while lo = 0, where E(0) is the identity
    rungs = ladder.rungs(e_hi - 1)
    while hi - lo > BISECTION_REL * max(1.0, hi):
        e, R = next(rungs)
        mid = 0.5 * (lo + hi)
        if mid - lo != 2.0**e:
            raise AssertionError(f"bisection midpoint {mid!r} is not {lo!r} + 2^{e}")
        E_mid = None if mid in ladder.tvs else _advance(E_lo, R)
        val = probe(mid, lambda: E_mid)
        if val <= eps:
            hi, hi_tv = mid, val
        else:
            lo, E_lo = mid, (_advance(E_lo, R) if E_mid is None else E_mid)
    probes.sort()
    for (t1, v1), (t2, v2) in zip(probes, probes[1:]):
        if t2 > t1 and v2 > v1 + MONOTONE_TOL_CONTINUOUS:
            raise AssertionError(
                f"continuous TV increased between t={t1} and t={t2} ({v1!r} -> {v2!r})"
            )
    return MixingResult(from_state=x_idx, epsilon=eps, time=float(hi), achieved_tv=hi_tv)
