"""Total-variation distance, exact mixing times, and continuization.

A worst-start discrete mixing time is found by doubling and bisection over
the powers P^(2^e) (``_Powers``): d(t) never rises, so squaring P brackets
the first crossing and each bisection probe is one n x n product, with
every start's distance kept at each probe and checked not to rise across
probes.  A discrete time from x iterates e_x (``_Steps``) and keeps the
distance at each step, so it answers its start at any epsilon; it steps in
blocks of up to t steps within a fixed budget of floats, so it pays its
Python overhead once per tens of steps.  An every-row stream gives
``d_profile``; of a sparse P it steps with P^T in CSR form.  A stream's
distance is re-checked not to rise at every step, so a violation surfaces
as a bug rather than a wrong answer.
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
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix

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


def _distances(block: np.ndarray, pi: np.ndarray, transposed: bool = False,
               out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
    """TV(row, pi) of each row of an iterate, or of each iterate in a block
    (each column if transposed), into out if it is given, with |rows - pi|
    written into spare if it is given.  Step iterates, powers and ladder
    matrices are sums of nonnegative products, so nothing is clamped."""
    D = np.subtract(block, pi[:, None] if transposed else pi, out=spare)
    np.abs(D, out=D)
    out = D.sum(axis=-2 if transposed else -1, out=out)
    out *= 0.5
    return out


def discrete_mixing_time(chain: Chain, x, eps, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
    """Smallest t > 0 with TV(P^t(x, .), pi) <= eps.

    ``x`` may be a state index/label, whose row is iterated from e_x, or None
    for the worst case over all starting states, found by doubling and
    bisection over the powers P^(2^e).  Raises NoConvergence if the time
    exceeds ``max_steps``, which signals near-periodicity or an epsilon below
    reach; the message reads the distance at ``max_steps``.
    """
    eps = _check_eps(eps)
    max_steps = _count(max_steps, "max_steps", BadParams)
    _require(chain, "ergodic", "discrete mixing time")
    if x is None:
        return _Powers(chain).time(eps, max_steps)
    return _Steps(chain, chain.index(x)).time(eps, max_steps)


def d_profile(chain: Chain, t_max: int) -> list[float]:
    """Worst-start TV profile d(t) = max_j TV(P^t(j, .), pi) for t = 1 .. t_max."""
    t_max = _count(t_max, "t_max", BadParams, most=MAX_PROFILE_STEPS)
    _require(chain, "ergodic", "d_profile")
    steps = _Steps(chain, None)
    while steps.t < t_max:
        steps.step(t_max - steps.t)
    return list(steps.history[1:])


def _crossing(history: array, eps: float, last: int) -> int | None:
    """Smallest t in 1 .. last with history[t] <= eps, if any is recorded."""
    crossed = np.flatnonzero(np.array(history[1 : last + 1]) <= eps)
    return int(crossed[0]) + 1 if crossed.size else None


#: a step block holds at most this many floats (64 KB), so a one-row stream
#: steps tens of steps per block and the every-row stream of 100 states one
_BLOCK_FLOATS = 8192


def _csr_transpose(P: np.ndarray) -> csr_matrix | None:
    """P^T in CSR form if an every-row step is cheaper with it, else None.

    Measured per every-row step, 1 BLAS thread: BLAS ``rows @ P`` costs about
    0.04 ns x n^3 (36 us on the lazy 100-cycle, 124 us on dhn(64)), the CSR
    product ``PT @ cols`` about 8 us + 0.4 ns x nnz x n (15 and 29 us); on
    the lazy 64-cycle 9.4 against 10.4 us, on a dense random_reversible(100)
    31 against 322 us.  So CSR pays from about n = 80 at 3-6% density.  A
    one-row step stays dense: ``v @ P`` costs about 2.5 us, the CSR form 6.
    """
    n, nnz = len(P), np.count_nonzero(P)
    return csr_matrix(P.T) if 10 * nnz * n + 200_000 < n**3 else None


class _Steps:
    """The row iterates P^t, t = 0, 1, ..., of one chain from one start,
    stepped only as far as the queries on it need.

    Iterates e_x for a from-x time, or every row (from the identity) when x
    is None, for ``d_profile``.  An every-row stream whose P is sparse
    (``_csr_transpose``) keeps its iterate transposed, ``cols`` = rows^T,
    and steps it as ``PT @ cols``; any other stream steps ``rows @ P``.  A
    call to ``step`` advances a block of k steps, k <= t (so a query
    overshoots its crossing by fewer steps than it needed) and k x rows x n
    <= _BLOCK_FLOATS, into one buffer, and then takes every distance of the
    block in one pass.  The history is O(t): the largest distance over the
    stream's rows at each step, so the stream answers its own start at any
    epsilon.  Each step is checked not to raise any row's distance (beyond
    MONOTONE_TOL), since TV(mu P, pi) <= TV(mu, pi) for every start mu.
    """

    def __init__(self, chain: Chain, x: int | None):
        self.P, self.pi, self.t, self.x = chain.P, chain.pi, 0, x
        self.PT = None if x is not None else _csr_transpose(chain.P)
        if x is None:
            self.block = np.eye(chain.n)[None]  # the identity is its own transpose
        else:
            self.block = np.zeros((1, 1, chain.n))
            self.block[0, 0, x] = 1.0
        self.tvs = _distances(self.block, self.pi)  # each row's distance at step t, (1, rows)
        self.history = array("d", [float(self.tvs.max())])

    def step(self, most: int):
        """Advance one block of at most ``most`` (>= 1) steps.  The previous
        block is spent once the new one is made, and takes its |rows - pi|;
        so a step that raises leaves the stream spent too."""
        last = self.block[-1]
        k = max(1, min(self.t, _BLOCK_FLOATS // last.size, most))
        if self.PT is None:
            block = np.empty((k, *last.shape))
            for i in range(k):
                np.matmul(block[i - 1] if i else last, self.P, out=block[i])
        else:
            cols = [last]
            for _ in range(k):
                cols.append(self.PT @ cols[-1])
            block = cols[1][None] if k == 1 else np.stack(cols[1:])  # one step: no copy
        tvs = np.empty((k + 1, self.tvs.shape[1]))  # steps t .. t + k
        tvs[0] = self.tvs[0]
        spare = self.block if self.block.shape == block.shape else None
        _distances(block, self.pi, self.PT is not None, tvs[1:], spare)
        risen = tvs[1:] > tvs[:-1] + MONOTONE_TOL
        if risen.any():
            i, j = np.unravel_index(risen.argmax(), risen.shape)
            raise AssertionError(f"TV to stationarity increased at step {self.t + i + 1}: "
                                 f"{float(tvs[i, j])!r} -> {float(tvs[i + 1, j])!r}")
        self.history.frombytes(tvs[1:].max(axis=1).tobytes())
        self.block, self.tvs, self.t = block, tvs[-1:], self.t + k

    def time(self, eps: float, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
        """Smallest t in 1 .. max_steps with TV <= eps from the stream's start,
        read from the history and stepping on as needed."""
        t = _crossing(self.history, eps, max_steps)
        while t is None and self.t < max_steps:
            stepped = self.t
            self.step(max_steps - stepped)
            t = next((s for s in range(stepped + 1, self.t + 1) if self.history[s] <= eps), None)
        if t is None:
            raise NoConvergence(f"no mixing within {max_steps} steps (TV still {self.history[max_steps]:.3e})")
        return MixingResult(from_state=self.x, epsilon=eps, time=t, achieved_tv=self.history[t])


class _Powers:
    """Worst-start discrete times of one chain, by doubling and bisection over
    the powers P^(2^e), and every start's distance at each probe.

    d(t) = max_j TV(P^t(j, .), pi) never rises (Levin, Peres & Wilmer, 2017,
    section 4.4), so a query squares P until d(2^e) <= eps or 2^e >= its
    max_steps, then bisects lo + 2^e down to width 1, popping the squares on
    the way down.  Each probe P^(lo + 2^e) = P^lo P^(2^e) is one n x n
    product, formed only when its distances are new or it becomes the new
    lo; the powers live only during a query.  Kept for the walk's life:
    ``tvs``, every start's distance at each probe t (t = 0 is the identity),
    and every answer.  Each new probe is checked against the kept probes on
    either side of it: no start's distance may rise (beyond MONOTONE_TOL).
    """

    def __init__(self, chain: Chain):
        self.chain = chain
        self.tvs: dict[int, np.ndarray] = {0: 1.0 - chain.pi}
        self.answers: dict[tuple[float, int], MixingResult] = {}

    def _probe(self, t: int, Pt: np.ndarray | None) -> float:
        """d(t); Pt = P^t is needed only if t is new."""
        if t not in self.tvs:
            self.tvs[t] = _distances(Pt, self.chain.pi)
            kept = sorted(self.tvs)
            i = kept.index(t)  # >= 1, as t > 0
            for s, u in zip(kept[i - 1 : i + 1], kept[i : i + 2]):  # t and the kept probes on either side
                risen = self.tvs[u] > self.tvs[s] + MONOTONE_TOL
                if risen.any():
                    j = int(risen.argmax())
                    raise AssertionError(f"TV to stationarity increased at step {u} (from step {s}): "
                                         f"{float(self.tvs[s][j])!r} -> {float(self.tvs[u][j])!r}")
        return float(self.tvs[t].max())

    def time(self, eps: float, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
        """Smallest t in 1 .. max_steps with d(t) <= eps; see ``discrete_mixing_time``."""
        if (eps, max_steps) in self.answers:
            return self.answers[eps, max_steps]
        e, powers = 0, [self.chain.P]  # powers[e] = P^(2^e)
        while self._probe(2**e, powers[e]) > eps and 2**e < max_steps:
            powers.append(powers[-1] @ powers[-1])
            e += 1
        powers.pop()  # the bisection walks down from level e - 1
        # the answer lies in (lo, hi], where t > max_steps counts as within eps
        lo, hi, P_lo = 0, 2**e, None  # P_lo = P^lo; None while lo = 0, where P^(lo + 2^e) is the power itself
        while powers:
            R = powers.pop()
            mid = lo + 2 ** len(powers)
            P_mid = R if P_lo is None else None if mid in self.tvs or mid > max_steps else P_lo @ R
            if mid > max_steps or self._probe(mid, P_mid) <= eps:
                hi = mid
            else:
                lo, P_lo = mid, P_lo @ R if P_mid is None else P_mid
        t = min(hi, max_steps)  # past the cap, lo = max_steps was probed
        tv = self._probe(t, None)
        if hi > max_steps or tv > eps:
            raise NoConvergence(f"no mixing within {max_steps} steps (TV still {tv:.3e})")
        self.answers[eps, max_steps] = MixingResult(from_state=None, epsilon=eps, time=t, achieved_tv=tv)
        return self.answers[eps, max_steps]


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
