"""Total-variation distance, exact mixing times, and continuization.

Every discrete mixing time, from a start x or the worst one, is found by
doubling and bisection over the powers P^(2^e) (``_Powers``): the distance
from any start never rises, so squaring P brackets the first crossing, and
each bisection probe is one product, n x n for the worst start and, from x
once the bisection has left 0, row x of P^lo (1 x n) by n x n.  Every
start's distance is kept at each full probe, and each probe is checked not
to rise across the kept probes on either side of it.  ``d_profile`` steps
every row, ``rows @ P``, and checks each step.  So a violation surfaces as
a bug rather than a wrong answer.
The continuized chain has rate matrix Q = P - I and distribution
``v expm(Q t)``; its mixing time is found by doubling and bisection.  The
probes share a ladder of power-of-two exponentials E(2^e) = expm(Q 2^e):
each rung up to E(1) = ``_Ladder.rung(0)`` is a uniformization series in
P^2 .. P^8, and E(1) is squared up.  So each probe costs one product with a
rung: n x n for the worst start, and from x, once the bisection has left 0,
one row (1 x n) by n x n.  Every iterate, power, rung and probe matrix is a
sum of nonnegative products, so no distance is clamped; every rung and
continuized product is checked to stay stochastic.  A query pops the squares
it makes on the way down, so it makes each once; the walk and the ladder
keep every answer they gave.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chains import ROW_SUM_TOL, Chain, _require
from .errors import (BadEpsilon, BadParams, DimensionMismatch, IllConditioned, NoConvergence, _count, _floats,
                     _real, _square)

MAX_DISCRETE_STEPS = 1_000_000
MAX_PROFILE_STEPS = 10_000
MONOTONE_TOL = 1e-12
#: continuous-time probes may disagree by at most this (matrix exponential noise)
MONOTONE_TOL_CONTINUOUS = 1e-10
BISECTION_REL = 1e-6
#: continuized doubling stops here (about MAX_DISCRETE_STEPS): squaring the
#: series E(1) loses stochasticity first at 2^23 on random_reversible(200, 1)
#: (2^23 .. 2^28 on 14 chains of 2 .. 200 states; row error <= 1.3e-10 at 2^20)
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
    the difference of the totals, plus 1e-12 times the larger of the distance
    and 1 for rounding.  A difference too large for a float raises BadParams.
    """
    t1 = _floats(theta1, "distribution", BadParams)
    t2 = _floats(theta2, "distribution", BadParams)
    if t1.shape != t2.shape:
        raise DimensionMismatch("distributions have different lengths")
    with np.errstate(over="ignore"):
        d = t1 - t2
        half_l1 = 0.5 * float(np.abs(d).sum())
    if half_l1 == np.inf:
        raise BadParams("the distributions' difference overflows a float")
    positive_part = float(d[d > 0].sum())
    slack = 1e-12 * max(1.0, half_l1) + 0.5 * abs(float(d.sum()))
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


def _distances(rows: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """TV(row, pi) of each row.  Iterates, powers and ladder matrices are sums
    of nonnegative products, so nothing is clamped."""
    D = rows - pi
    np.abs(D, out=D)
    return 0.5 * D.sum(axis=-1)


def _check_rise(kept: dict[int, np.ndarray], t: int) -> None:
    """Check the distances at the new probe t against the kept probes on
    either side of it: no start's distance may rise (beyond MONOTONE_TOL)."""
    times = sorted(kept)
    i = times.index(t)  # >= 1, as t > 0 and step 0 is kept
    for s, u in zip(times[i - 1 : i + 1], times[i : i + 2]):
        risen = kept[u] > kept[s] + MONOTONE_TOL
        if risen.any():
            j = int(risen.argmax())
            raise AssertionError(f"TV to stationarity increased at step {u} (from step {s}): "
                                 f"{float(kept[s][j])!r} -> {float(kept[u][j])!r}")


def discrete_mixing_time(chain: Chain, x, eps, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
    """Smallest t > 0 with TV(P^t(x, .), pi) <= eps.

    ``x`` may be a state index/label, or None for the worst case over all
    starting states.  Either is found by doubling and bisection over the
    powers P^(2^e) (``_Powers``), in about 2 log2(t) products.  Raises
    NoConvergence if the time exceeds ``max_steps``, which signals
    near-periodicity or an epsilon below reach; the message reads the
    distance at ``max_steps``.
    """
    eps = _check_eps(eps)
    max_steps = _count(max_steps, "max_steps", BadParams)
    _require(chain, "ergodic", "discrete mixing time")
    return _Powers(chain).time(None if x is None else chain.index(x), eps, max_steps)


def d_profile(chain: Chain, t_max: int) -> list[float]:
    """Worst-start TV profile d(t) = max_j TV(P^t(j, .), pi) for t = 1 .. t_max,
    stepping every row, with no row's distance rising at any step."""
    t_max = _count(t_max, "t_max", BadParams, most=MAX_PROFILE_STEPS)
    _require(chain, "ergodic", "d_profile")
    rows, tvs, profile = np.eye(chain.n), 1.0 - chain.pi, []
    for t in range(1, t_max + 1):
        rows = rows @ chain.P
        last, tvs = tvs, _distances(rows, chain.pi)
        _check_rise({t - 1: last, t: tvs}, t)
        profile.append(float(tvs.max()))
    return profile


class _Powers:
    """Discrete times of one chain, from a start or the worst one, by doubling
    and bisection over the powers P^(2^e), and every start's distance at each
    full probe.

    d_x(t) = TV(P^t(x, .), pi) never rises for any start x, and so neither
    does the worst start's (Levin, Peres & Wilmer, 2017, section 4.4).  So a
    query squares P until its distance at 2^e is <= eps or 2^e >= its
    max_steps, then bisects lo + 2^e down to width 1, popping the squares on
    the way down.  Each probe P^(lo + 2^e) = P^lo P^(2^e) is one product, formed only
    when its distance is new or it becomes the new lo: n x n for the worst
    start, and from x, once lo > 0, only row x of P^lo times the square
    (1 x n by n x n).  The powers live only during a query.  Kept for the
    walk's life: ``tvs``, every start's distance at each full probe t (t = 0
    is the identity), and every answer.  Each new probe is checked against
    the kept probes on either side of it (a row probe also against its
    query's rows): no start's distance, or x's for a row, may rise (beyond
    MONOTONE_TOL).
    """

    def __init__(self, chain: Chain):
        self.chain = chain
        self.tvs: dict[int, np.ndarray] = {0: 1.0 - chain.pi}
        self.answers: dict[tuple[int | None, float, int], MixingResult] = {}

    def time(self, x: int | None, eps: float, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
        """Smallest t in 1 .. max_steps with TV <= eps from state index x (None:
        the worst start); see ``discrete_mixing_time``."""
        if (x, eps, max_steps) in self.answers:
            return self.answers[x, eps, max_steps]
        rows: dict[int, np.ndarray] = {}  # x's distance at each one-row probe of this query

        def probe(t: int, Pt: np.ndarray | None) -> float:
            """The distance at t; Pt = P^t, or its row x, is needed only if t is new."""
            if t not in self.tvs and t not in rows:
                if len(Pt) == self.chain.n:
                    self.tvs[t] = _distances(Pt, self.chain.pi)
                    _check_rise(self.tvs, t)
                else:
                    rows[t] = _distances(Pt, self.chain.pi)
                    _check_rise({s: tvs[x : x + 1] for s, tvs in self.tvs.items()} | rows, t)
            if t in rows:
                return float(rows[t][0])
            return float(self.tvs[t].max() if x is None else self.tvs[t][x])

        e, powers = 0, [self.chain.P]  # powers[e] = P^(2^e)
        while probe(2**e, powers[e]) > eps and 2**e < max_steps:
            powers.append(powers[-1] @ powers[-1])
            e += 1
        powers.pop()  # the bisection walks down from level e - 1
        # the answer lies in (lo, hi], where t > max_steps counts as within eps
        lo, hi, P_lo = 0, 2**e, None  # P_lo = P^lo, or from x its row x; None while lo = 0
        while powers:
            R = powers.pop()
            mid = lo + 2 ** len(powers)
            P_mid = R if P_lo is None else None if mid in self.tvs or mid > max_steps else P_lo @ R
            if mid > max_steps or probe(mid, P_mid) <= eps:
                hi = mid
            else:
                P_mid = P_lo @ R if P_mid is None else P_mid
                lo, P_lo = mid, P_mid[[x]] if P_lo is None and x is not None else P_mid
        t = min(hi, max_steps)  # past the cap, lo = max_steps was probed
        tv = probe(t, None)
        if hi > max_steps or tv > eps:
            raise NoConvergence(f"no mixing within {max_steps} steps (TV still {tv:.3e})")
        self.answers[x, eps, max_steps] = MixingResult(from_state=x, epsilon=eps, time=t, achieved_tv=tv)
        return self.answers[x, eps, max_steps]


def _checked(E: np.ndarray) -> np.ndarray:
    """E itself, after checking that it is row-stochastic (row sums within 1e-9)."""
    row_err = float(np.abs(E.sum(axis=1) - 1.0).max())
    if not (row_err <= 1e-9 and float(E.min()) >= -1e-12):  # a nan fails too
        raise AssertionError(f"matrix exponential lost stochasticity (row err {row_err:.3e})")
    return E


def matrix_exponential(Q, t: float) -> np.ndarray:
    """expm(Q t) by ``scipy.linalg.expm``, the scaling and squaring algorithm of
    Al-Mohy & Higham (SIAM J. Matrix Anal. Appl., 2009).

    Q must be a transition rate matrix, else BadParams: off-diagonal entries
    >= 0, each row summing to zero within ROW_SUM_TOL times the larger of the
    row's magnitude and 1 (the size of the P and I a P - I is formed from).
    A Q t whose doubled induced 1-norm overflows is BadParams too.  The result
    is then row-stochastic; this is verified before returning, and one that
    lost it (squaring at very long times) raises IllConditioned.
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
    if not np.isfinite(2.0 * float(np.linalg.norm(X, 1))):
        raise BadParams(f"Q t overflows at t = {t!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan fails the check
            return _checked(scipy.linalg.expm(X))
    except AssertionError as lost:  # each squaring roughly doubles the row-sum error
        raise IllConditioned(f"{lost} at t = {t!r}: too long a time for this rate matrix") from None


@functools.cache
def _series(e: int) -> np.ndarray:
    """Weights c_k = e^-s s^k / k!, s = 2^e, of E(s) = sum_k c_k P^k (Jensen, 1953),
    for k <= K, the first K with tail bound c_(K+1) / (1 - s / (K + 2)) < 2^-60."""
    s, c = 2.0**e, [math.exp(-(2.0**e))]
    while c[-1] * s / len(c) >= 2.0**-60 * (1.0 - s / (len(c) + 1)):
        c.append(c[-1] * s / len(c))
    return np.array(c)


class _Ladder:
    """Exponentials E(t) = expm((P - I) t) of one chain, shared by its
    continuized-time queries, and every answer it gave.

    Holds the powers P^2 .. P^8 in one (7, n, n) array, E(1) = ``rung(0)``,
    the per-start distances TV(E(t)(j, .), pi) at every probe time t whose
    full E(t) a query made, and each (start, eps) answer.
    Every rung E(2^e) with e <= 0 is ``_series(e)`` (K <= 19) in Horner form
    in P^8 (Paterson & Stockmeyer, 1973), with no negative term, so nothing
    cancels, no entry is subnormal and no distance needs a clamp.  Only
    levels 0 .. -4 (K > 8) multiply by P^8, level 0 twice.  Rungs above 1
    are squares of E(1), kept only during a query (up to 21).
    """

    def __init__(self, chain: Chain):
        self.chain = chain
        self.tvs: dict[float, np.ndarray] = {}
        self.answers: dict[tuple[int | None, float], MixingResult] = {}
        self._E1: np.ndarray | None = None
        self._powers: np.ndarray | None = None

    def rung(self, e: int) -> np.ndarray:
        """E(2^e) for e <= 0, a checked series rung."""
        P, n, c = self.chain.P, self.chain.n, _series(e)
        if self._powers is None:
            self._powers = np.empty((7, n, n))
            for k in range(7):
                np.matmul(self._powers[k - 1] if k else P, P, out=self._powers[k])
        powers, E = self._powers.reshape(7, n * n), None
        for j in reversed(range(1, len(c), 8)):  # E = B_1 + P^8 (B_9 + P^8 (B_17 + ...)) + c_0 I
            w = c[j : j + 8]  # B_j = c_j P + ... + c_(j+7) P^8
            B = (w[1:] @ powers[: len(w) - 1]).reshape(n, n)
            B += w[0] * P
            if E is not None:
                B += self._powers[6] @ E
            E = B
        E.ravel()[:: n + 1] += c[0]
        return _checked(E)

    def time(self, x: int | None, eps: float) -> MixingResult:
        """The continuized mixing time from state index x (None: the worst
        start) at eps; see ``continuous_mixing_time``.

        No probe runs a matrix exponential.  At level e the probe is
        lo + 2^e.  Doubling keeps lo = 0 and squares E(1) = ``rung(0)``:
        E(2^(e+1)) = E(2^e)^2, each square appended to one list of rungs.
        After doubling to 2^e_hi, bisection pops the rungs from e_hi - 1 down
        (below 1, a series rung), so E(lo + 2^e) = E(lo) E(2^e) is one
        product, formed only when its distances are new or the probe becomes
        the new lo.  From x, E(lo) is only its row x once lo > 0, so each
        such probe is a 1 x n by n x n product, whose distance is not kept in
        ``tvs``; probes at lo = 0 read the full rung and keep every start's
        distance.  So no rung or probe matrix is made twice, at the cost of
        holding up to e_hi + 1 <= 21 rungs.  Every rung and product is a sum
        of nonnegative products, so no distance is clamped, and each is
        checked to stay stochastic.
        """
        if (x, eps) in self.answers:
            return self.answers[x, eps]
        n, probes = self.chain.n, []

        def probe(t: float, E: np.ndarray | None) -> float:
            """Distance at t from x; E = E(t), or its row x, is needed only if t
            is new.  Only a full E's per-start distances are kept."""
            tvs = self.tvs.get(t)
            if tvs is None:
                tvs = _distances(E, self.chain.pi)
                if len(E) < n:
                    probes.append((t, float(tvs[0])))
                    return probes[-1][1]
                self.tvs[t] = tvs
            probes.append((t, float(tvs.max() if x is None else tvs[x])))
            return probes[-1][1]

        hi, hi_tv = 0.0, probe(0.0, np.eye(self.chain.n))
        if hi_tv > eps:
            if self._E1 is None:
                self._E1 = self.rung(0)
            e, rungs = 0, [self._E1]  # rungs[e] = E(2^e)
            while probe(2.0**e, rungs[e]) > 0.5 * eps and 2.0**e < MAX_CONTINUOUS_TIME:
                e += 1
                rungs.append(_checked(rungs[-1] @ rungs[-1]))
            rungs.pop()  # the bisection walks down from level e - 1
            lo, hi, hi_tv = 0.0, 2.0**e, probes[-1][1]
            if hi_tv > eps:
                raise NoConvergence(f"no mixing within the cap of {MAX_CONTINUOUS_TIME:.0f} time units "
                                    f"(TV still {hi_tv:.3e})")
            E_lo = None  # E(lo), or its row x from x; None while lo = 0, where E(lo + 2^e) is the rung itself
            while hi - lo > BISECTION_REL * max(1.0, hi):
                e -= 1
                R = rungs.pop() if rungs else self.rung(e)
                mid = lo + 2.0**e
                E_mid = R if E_lo is None else None if mid in self.tvs else _checked(E_lo @ R)
                if probe(mid, E_mid) <= eps:
                    hi, hi_tv = mid, probes[-1][1]
                else:
                    E_mid = _checked(E_lo @ R) if E_mid is None else E_mid
                    lo, E_lo = mid, E_mid[[x]] if E_lo is None and x is not None else E_mid
        probes.sort()
        for (t1, v1), (t2, v2) in zip(probes, probes[1:]):
            if t2 > t1 and v2 > v1 + MONOTONE_TOL_CONTINUOUS:
                raise AssertionError(f"continuous TV increased between t={t1} and t={t2} ({v1!r} -> {v2!r})")
        self.answers[x, eps] = MixingResult(from_state=x, epsilon=eps, time=hi, achieved_tv=hi_tv)
        return self.answers[x, eps]


def continuous_mixing_time(chain: Chain, x, eps) -> MixingResult:
    """Mixing time of the continuized chain (rate matrix P - I).

    Only irreducibility is required: continuization removes periodicity.  The
    crossing time is bracketed by doubling until the distance falls below
    eps/2 and then bisected to absolute precision 1e-6 (relative for large
    times); the returned time is the safe side of the bracket.  Raises
    NoConvergence if the distance still exceeds eps at ``MAX_CONTINUOUS_TIME``.
    The distance is checked to be non-increasing across all probe points.
    Each probe is one product with a rung of a power-of-two ladder: up to
    E(1) = ``_Ladder.rung(0)``, uniformization series in P^2 .. P^8, and
    above it the squares of E(1); all are sums of nonnegative products, so
    no distance is clamped.  It makes each rung once and holds at most 21,
    n x n each.
    From a state x the product is n x n only while the bracket's lower end
    is 0; after that it is row x alone times the rung.
    """
    eps = _check_eps(eps)
    _require(chain, "irreducible", "continuization")
    return _Ladder(chain).time(None if x is None else chain.index(x), eps)
