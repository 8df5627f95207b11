"""Total-variation distance, exact mixing times, and continuization.

Every mixing time, discrete or continuized, from a start x or the worst one,
is found by one walk (``_Walk``) over the rungs of a clock, from one of two
rung sources: the powers P^(2^e) (``_Powers``), or the exponentials E(s) =
expm((P - I) s) of the continuized chain (``_Ladder``), each rung E(s) with
s <= 1 a uniformization series in P^2 .. P^8 and each above 1 a square of
E(1), with no ``expm``.  The walk doubles until the distance is within eps,
then narrows the bracket (lo, hi] in one loop, by the next square down while
it is wider than 1 and then, on the continuized clock, by a regula falsi
kept within bisection's probe count (the ITP method), each probe there from
x one row's series, and from the worst start, once the starts still above
eps at lo are few, the series of their rows alone.  A walk keeps its
squares M(2^e) across its queries for its life, so each is made once
(``bounds._Derived`` holds one walk at a time).  Every result
carries its bracket: above eps at lo, within it at hi.  Every start's
distance is kept at each full probe and checked not to rise across the kept
probes on either side of it, beyond half the two probes' rounding bounds
(``_Walk.error``); ``d_profile`` steps every row, ``rows @ P``, and checks
each step.  So a violation surfaces as a bug rather than a wrong answer.
Every power, rung and probe matrix is a sum of nonnegative products, so no
distance is clamped; every continuized rung, product and row is checked to
stay stochastic, and a square of E(1) that drifts past the check raises
IllConditioned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chains import ROW_SUM_TOL, Chain, _require
from .errors import BadEpsilon, BadParams, IllConditioned, NoConvergence, _count, _finite, _real, _square, _vector

MAX_DISCRETE_STEPS = 1_000_000
MAX_PROFILE_STEPS = 10_000
#: a distance may rise between probes by this plus half the two probes'
#: rounding bounds (``_Walk.error``): the floor for pi's own non-stationarity
#: and for the rounding of the distance sums
MONOTONE_TOL = 1e-12
BISECTION_REL = 1e-6
#: continuized doubling stops here (about MAX_DISCRETE_STEPS).  Squaring the
#: series E(1) first loses stochasticity at 2^23 on random_reversible(200, 1)
#: (2^23 .. 2^28 on 14 chains of 2 .. 200 states), but on chains of two
#: blocks of 70 and 100 states that swap rarely, E(2^20) drifts 1.1e-9 to
#: 1.6e-9 from stochastic, past the 1e-9 ``_checked`` admits: IllConditioned
MAX_CONTINUOUS_TIME = 2**20
#: continuized probes inside a bracket of width 1 lie on multiples of 2^-33,
#: so below ``MAX_CONTINUOUS_TIME`` (2^53 of them) lo + s and hi - lo are exact
GRID_EXP = -33
#: each such probe moves from the regula falsi point toward the midpoint by
#: this times the squared bracket, in time units, at most to the midpoint
#: (Oliveira & Takahashi's kappa_1, with kappa_2 = 2)
TRUNCATION = 0.1


def _check_eps(eps: float) -> float:
    eps = _real(eps, "epsilon", BadEpsilon, 0.0, 1.0)
    if eps < 1e-12:
        raise BadEpsilon("epsilon below 1e-12 is numerically meaningless")
    return eps


def tv_distance(theta1, theta2) -> float:
    """Total-variation distance: half the l1 distance between the vectors.

    Cross-checked against the worst-event form (the sum of positive parts of
    the difference); for genuine distributions the two are equal up to half
    the difference of the totals, plus 1e-12 times the larger of the distance
    and 1 for rounding.  An entry that is no number, or a difference too
    large for a float, raises BadParams; anything but two non-empty vectors
    of one length, DimensionMismatch.
    Neither sum need be 1.
    """
    t1 = _vector(theta1, "distribution")
    t2 = _vector(theta2, "distribution", t1.size)
    with np.errstate(over="ignore"):
        d = t1 - t2
        half_l1 = _finite(0.5 * float(np.abs(d).sum()), "the distributions' difference")
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
    at that time (always <= epsilon).  ``bracket`` is (lo, hi) with hi ==
    ``time``: the distance exceeds epsilon at lo, unless lo is 0.  It is
    (t - 1, t) for a discrete time, at most ``BISECTION_REL`` max(1, hi)
    wide for a continuized one, and (0.0, 0.0) for a start already within
    epsilon.
    """

    from_state: int | None
    epsilon: float
    time: int | float
    achieved_tv: float
    bracket: tuple[int | float, int | float]


def _distances(rows: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """TV(row, pi) of each row.  Iterates, powers and ladder matrices are
    sums of nonnegative products, so nothing is clamped."""
    D = rows - pi
    np.abs(D, out=D)
    return 0.5 * D.sum(axis=-1)


def _check_rise(kept: dict[float, np.ndarray], t: float, error, unit: str = "step") -> None:
    """Check the distances at the new probe t against the kept probes on
    either side of it: no start's distance may rise by more than
    ``MONOTONE_TOL`` plus half the two probes' rounding bounds ``error``."""
    times = sorted(kept)
    i = times.index(t)  # >= 1, as t > 0 and time 0 is kept
    for s, u in zip(times[i - 1 : i + 1], times[i : i + 2]):
        risen = kept[u] > kept[s] + (MONOTONE_TOL + 0.5 * (error(s) + error(u)))
        if risen.any():
            j = int(risen.argmax())
            raise AssertionError(f"TV to stationarity increased at {unit} {u} (from {unit} {s}): "
                                 f"{float(kept[s][j])!r} -> {float(kept[u][j])!r}")


def discrete_mixing_time(chain: Chain, x, eps, max_steps: int = MAX_DISCRETE_STEPS) -> MixingResult:
    """Smallest t > 0 with TV(P^t(x, .), pi) <= eps.

    ``x`` may be a state index/label, or None for the worst case over all
    starting states.  Either is found by doubling and bisection over the
    powers P^(2^e) (``_Powers``), in about 2 log2(t) products.  Raises
    NoConvergence if the time exceeds ``max_steps``, which signals
    near-periodicity or an epsilon below reach; the message reads the
    distance at ``max_steps``.  ``max_steps`` is a count of at least 1, as
    time 0 does not count (else BadParams).
    """
    eps = _check_eps(eps)
    max_steps = _count(max_steps, "max_steps", BadParams, least=1)
    _require(chain, "ergodic", "discrete mixing time")
    return _Powers(chain).time(None if x is None else chain.index(x), eps, max_steps)


def d_profile(chain: Chain, t_max: int) -> list[float]:
    """Worst-start TV profile d(t) = max_j TV(P^t(j, .), pi) for t = 1 .. t_max,
    stepping every row, with no row's distance rising at any step beyond
    half the two steps' rounding bounds on the discrete clock (``_Walk.error``)."""
    t_max = _count(t_max, "t_max", BadParams, most=MAX_PROFILE_STEPS)
    _require(chain, "ergodic", "d_profile")
    walk, rows, profile = _Powers(chain), np.eye(chain.n), []
    tvs = walk.tvs  # the identity's distances at t = 0, then the last step's
    for t in range(1, t_max + 1):
        rows = rows @ chain.P
        tvs[t] = _distances(rows, chain.pi)
        _check_rise(tvs, t, walk.error)
        del tvs[t - 1]
        profile.append(float(tvs[t].max()))
    return profile


def _gamma(k: float) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53, the relative error of
    k compounded roundings; inf once k u >= 1."""
    ku = math.ldexp(k, -53)
    return ku / (1.0 - ku) if ku < 1.0 else math.inf


def _on_grid(s: float) -> float:
    """s rounded down to a multiple of 2^GRID_EXP."""
    return math.ldexp(math.floor(math.ldexp(s, -GRID_EXP)), GRID_EXP)


class _Walk:
    """Mixing times of one chain on one clock, from a start or the worst one,
    and every start's distance at each full probe.  A subclass gives what
    differs between the clocks: the unit rung M(1), the bracket's width, the
    check on each product, the type and unit of its times, its cap and
    whether time 0 counts (``cap``, ``zero``), and on the continuized clock
    the probes inside a bracket of width 1 (``from_lo``).

    d_x(t) = TV(M(t)(x, .), pi) never rises for any start x, and so neither
    does the worst start's (Levin, Peres & Wilmer, 2017, section 4.4).  So a
    query squares the unit rung until its distance at 2^e is <= eps or 2^e
    >= the cap, then narrows the bracket (lo, hi] in one loop while it is
    wider than ``width(hi)``, each pass a probe at lo + s: s = 2^e, the next
    square down, while the bracket is wider than 1, and in a bracket of width
    1, only ever on the continuized clock, the ITP step (Oliveira &
    Takahashi, ACM TOMS 47, 2020): the regula falsi point on d - eps, moved
    toward the midpoint by ``TRUNCATION`` times the squared bracket and
    projected into the widest window from which the probes that bisection
    would still make can bisect what is left (``bisections``), and at least
    half the width inside the bracket.  So no query makes more probes than
    bisection would.  Each probe M(lo + s) = M(lo) R, R the square M(s) or
    the series rung E(s), is one product, formed only when its distance is
    new or it becomes the new lo: R itself while lo = 0, n x n for the worst
    start, and from x, once lo > 0, row x of M(lo) times R (1 x n by n x n);
    from x in a bracket of width 1 it is a row of the series at lo
    (``from_lo``).  From the worst start there, only the live starts A =
    {x : d_x(lo) > eps} can cross eps in (lo, hi], as no d_x rises; so once
    their rows cost fewer flops than full probes (``live``), A is fixed for
    the query, each probe is the series of the rows M(lo)[A], and its
    distance the largest over A.  The answer's achieved_tv is that largest
    distance at hi if it is at least m, the largest distance outside A at
    the lo where A was taken, as no start outside A then exceeds it; else it
    is read from one full probe at hi, made from that lo's M(lo).  Kept for
    the walk's life: ``rungs[e]`` = M(2^e), written only by ``time``, which
    squares only past the highest kept rung and narrows by the rungs below;
    and ``tvs``, every start's distance at each full probe t (t = 0 is the
    identity).  Each new probe is checked against the kept probes on either
    side of it (a row probe against its starts' distances at every full
    probe and at its query's rows, as a query makes no full probe after its
    first row but the one at hi): no start's distance may rise beyond half
    the two probes' ``error`` (see ``_check_rise``).
    """

    def __init__(self, chain: Chain):
        self.chain = chain
        self.tvs: dict[float, np.ndarray] = {0: _distances(np.eye(chain.n), chain.pi)}
        self.rungs: list[np.ndarray] = []  # rungs[e] = M(2^e), made once, kept for the walk's life
        drift = float(np.abs(chain.P.sum(axis=1) - 1.0).max())  # a computed sum is within gamma_n of the exact one
        self.excess = drift + _gamma(chain.n) * (1.0 + drift)

    def error(self, t: float) -> float:
        """A bound on the l1 distance of any row of any probe the walk makes
        at t from that row of S(t), the clock's M(t) for the stochastic S =
        D^-1 P, D = diag(P 1) the float P's exact row sums.  A start's
        computed distance is so within error(t) / 2 of its distance under
        S, which never rises but by pi's own non-stationarity.

        P's row sums lie within delta = ``excess`` of 1, so (1 - delta)^k
        S^k <= P^k <= (1 + delta)^k S^k, and a row of M(t) lies within m =
        expm1(t delta) of S(t)'s, with mass at most 1 + m, on either clock.
        A computed product of nonnegative A and B is within gamma_n A B of
        A B, and f compounded roundings within gamma_f (Higham, Accuracy and
        Stability of Numerical Algorithms, 2002, section 3.5 and Lemma
        3.3).  A probe is a product of at most t + c factors, each at most
        k n + 1 roundings deep with the product that joins it and short of
        its exact value by at most ``tail`` of its mass: ``rounding`` = (c,
        k, tail).  Discrete: t factors P, so (0, 1, 0).  Continuized: at
        most t factors E(1) and one series rung per probe inside width 1,
        at most 20 (``bisections``); a rung sums c_j P^j, j <= 19, through
        at most 19 products of length n and 70 further roundings (three
        weighted sums of at most 8 terms, their additions and the weights'
        own 2 j + 1), and 20 n + 70 <= 64 n + 1 for n >= 2; its tail is
        below 2^-60 (``_series``): (23, 64, 2^-60).
        """
        c, k, tail = self.rounding
        m = math.expm1(t * self.excess)
        return _gamma((t + c) * (k * self.chain.n + 1)) * (1.0 + m) + m + (t + c) * tail

    def bisections(self, hi: float) -> int:
        """The fewest probes that bisecting a bracket of width 1, around a
        crossing at or below hi, makes before the bracket is no wider than
        width(its hi), which ends less than 1 above hi."""
        span, k = 1.0, 0
        while span > self.width(hi + span):
            span, k = span / 2, k + 1
        return k

    def live(self, d: np.ndarray, eps: float) -> np.ndarray | None:
        """The starts A still above eps at lo, from every start's distance d
        there, if the rows of their series (at most 20 terms of |A| x n by n
        x n) cost fewer flops than the full probes they replace (about 3 n^3
        each: a series rung and a product); else None."""
        A = np.flatnonzero(d > eps)
        return A if 20 * len(A) <= 3 * len(d) else None

    def time(self, x: int | None, eps: float, cap: float | None = None) -> MixingResult:
        """Smallest t in (0, cap] on the clock's grid with TV <= eps from state
        index x (None: the worst start), with its bracket; past the cap,
        NoConvergence names the cap and the distance there.  The cap is the
        clock's own (``cap``) unless one is given.  On a clock that counts
        time 0 (``zero``), a start already within eps answers 0.0 with
        bracket (0.0, 0.0)."""
        n, pi, two, cap = self.chain.n, self.chain.pi, self.two, self.cap if cap is None else cap
        if self.zero and (tv := float(self.tvs[0].max() if x is None else self.tvs[0][x])) <= eps:
            return MixingResult(from_state=x, epsilon=eps, time=0.0, achieved_tv=tv, bracket=(0.0, 0.0))
        live, entry = x, None  # a row probe's starts: x, or the worst start's A once taken at (lo, M(lo), m)
        rows: dict[float, np.ndarray] = {}  # their distances, from the query's first row probe on

        def probe(t: float, M: np.ndarray | None) -> float:
            """The distance at t; M = M(t), or its rows of the live starts, is needed only if t is new."""
            if M is not None and t not in self.tvs:
                kept = self.tvs if len(M) == n else rows
                if kept is rows and not rows:
                    starts = live if x is None else slice(x, x + 1)
                    rows.update((s, tvs[starts]) for s, tvs in self.tvs.items())
                kept[t] = _distances(M, pi)
                _check_rise(kept, t, self.error, self.unit)
            if t in self.tvs:
                return float(self.tvs[t].max() if x is None else self.tvs[t][x])
            return float(rows[t].max() if x is None else rows[t][0])

        e, rungs = 0, self.rungs
        if not rungs:
            rungs.append(self.unit_rung)
        while probe(two**e, rungs[e]) > eps and two**e < cap:
            if len(rungs) == e + 1:  # squares only past the highest kept rung
                rungs.append(self.checked(rungs[e] @ rungs[e]))
            e += 1
        # the answer lies in (lo, hi], where t > cap counts as within eps; a
        # doubling that ends at the cap above eps leaves nothing to narrow
        hi, M_lo, at, made = two**e, None, None, 0  # M_lo = M(lo), or its live rows; None while lo = 0
        lo = hi if hi == cap and probe(hi, None) > eps else 0
        while hi - lo > self.width(hi):
            span = hi - lo
            if span > 1:  # bisect: the next square down
                e -= 1
                s, R = two**e, rungs[e]
            else:  # only on the continuized clock: an ITP step
                w = _on_grid(self.width(lo))  # the final hi's width is at least this
                most = math.ldexp(w, self.bisections(hi) - made - 1)  # what the other probes can bisect
                s, made = span / 2, made + 1
                if span <= 2 * most:  # regula falsi, truncated toward the midpoint and projected
                    d_lo, d_hi = probe(lo, None), probe(hi, None)
                    s_f = span * (d_lo - eps) / (d_lo - d_hi)
                    s_t = s_f + math.copysign(min(TRUNCATION * span * span, abs(s - s_f)), s - s_f)
                    half = _on_grid(w / 2)
                    s = min(max(_on_grid(s_t), span - most, half), most, span - half)
                if live is None and (live := self.live(self.tvs[lo], eps)) is not None:
                    d = self.tvs[lo]  # no start outside A rises above its distance at lo
                    entry = (lo, M_lo, float(np.where(d > eps, 0.0, d).max()))
                    M_lo = None if M_lo is None else M_lo[live]
                R, at = (self.rung(s), None) if live is None else (None, at or self.from_lo(M_lo, live))
            t = lo + s  # M(t) is made only if its distance is new or lo moves to t
            M = None if t > cap or t in self.tvs and probe(t, None) <= eps else (
                at(s) if R is None else R if M_lo is None else self.checked(M_lo @ R))
            if M is None or probe(t, M) <= eps:
                hi = t
            else:
                lo, M_lo, at = t, M[[x]] if x is not None and len(M) == n else M, None
            del M, R  # kept only as the new lo's M_lo
        t = min(hi, cap)  # past the cap, lo = cap was probed
        tv = probe(t, None)
        if entry is not None and t not in self.tvs and tv < entry[2]:
            # a start outside A may be further from pi here than every live one: a full probe
            lo_a, M_a, _ = entry
            R = self.rung(t - lo_a)
            tv = probe(t, R if M_a is None else self.checked(M_a @ R))
        if hi > cap or tv > eps:
            raise NoConvergence(f"no mixing within {cap} {self.unit}s (TV still {tv:.3e})")
        return MixingResult(from_state=x, epsilon=eps, time=t, achieved_tv=tv, bracket=(type(t)(lo), t))


class _Powers(_Walk):
    """Discrete times: the rungs are the powers P^(2^e), from P itself, and
    the bisection ends at width 1, so integer times from 1 (time 0 does not
    count) up to ``MAX_DISCRETE_STEPS``.  The products are not checked: the
    distances are."""

    two, unit, rounding, cap, zero = 2, "step", (0, 1, 0.0), MAX_DISCRETE_STEPS, False

    @property
    def unit_rung(self) -> np.ndarray:
        return self.chain.P

    def width(self, hi: int) -> int:
        return 1

    def checked(self, M: np.ndarray) -> np.ndarray:
        return M


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
    lost it (squaring at very long times) raises IllConditioned.  No walk
    calls it, so ``scipy.linalg`` is imported by a process's first call.
    """
    import scipy.linalg

    Q = _square(Q, "rate matrix", BadParams)
    t = _real(t, "time", BadParams)
    if t < 0.0:  # t = 0 is valid, so the open interval cannot say it
        raise BadParams(f"time must be a number in [0, inf), got {t!r}")
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


def _series(s: float) -> np.ndarray:
    """Weights c_k = e^-s s^k / k! of E(s) = sum_k c_k P^k (Jensen, 1953), 0 < s <= 1,
    for k <= K, the first K with tail bound c_(K+1) / (1 - s / (K + 2)) < 2^-60
    (K <= 19)."""
    c = [math.exp(-s)]
    while c[-1] * s / len(c) >= 2.0**-60 * (1.0 - s / (len(c) + 1)):
        c.append(c[-1] * s / len(c))
    return np.array(c)


class _Ladder(_Walk):
    """Continuized times: the rungs are the exponentials E(s) = expm((P - I)
    s), and the bracket ends at width ``BISECTION_REL`` max(1, hi), so float
    times up to ``MAX_CONTINUOUS_TIME``, and time 0 counts: a start already
    within eps answers 0.0 (``_Walk.time``).

    Holds the powers P^2 .. P^8 in one (7, n, n) array, from which every
    rung E(s) with s <= 1 is ``_series(s)`` (K <= 19) in Horner form in
    P^8 (Paterson & Stockmeyer, 1973), with no negative term, so nothing
    cancels, no entry is subnormal and no distance needs a clamp.  Only s
    above about 2^-5 (K > 8) multiplies by P^8, s near 1 twice.  The unit
    rung E(1) = ``rung(1.0)`` is made once; rungs above 1 are its squares,
    and inside a bracket of width 1 a worst-start probe multiplies by the
    series rung E(s) until its live starts are few, and then, as a probe
    from x does, sums rows (``from_lo``).  Every
    rung, product and row is checked to stay stochastic; a square of E(1),
    or a product or row that carries one, that lost it raises
    IllConditioned (``checked``).
    """

    two, unit, rounding, cap, zero = 2.0, "time unit", (23, 64, 2.0**-60), MAX_CONTINUOUS_TIME, True

    @functools.cached_property
    def unit_rung(self) -> np.ndarray:
        return self.rung(1.0)

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """P^2 .. P^8, in one (7, n, n) array."""
        P, n = self.chain.P, self.chain.n
        powers = np.empty((7, n, n))
        for k in range(7):
            np.matmul(powers[k - 1] if k else P, P, out=powers[k])
        return powers

    def width(self, hi: float) -> float:
        return BISECTION_REL * max(1.0, hi)

    def checked(self, M: np.ndarray) -> np.ndarray:
        try:
            return _checked(M)
        except AssertionError as lost:  # each square roughly doubles the row-sum error
            raise IllConditioned(f"{lost} by {MAX_CONTINUOUS_TIME} time units: too long a time "
                                 "for this chain") from None

    def rung(self, s: float) -> np.ndarray:
        """E(s) for 0 < s <= 1, a checked series rung."""
        P, n, c = self.chain.P, self.chain.n, _series(s)
        powers, E = self.powers.reshape(7, n * n), None
        for j in reversed(range(1, len(c), 8)):  # E = B_1 + P^8 (B_9 + P^8 (B_17 + ...)) + c_0 I
            w = c[j : j + 8]  # B_j = c_j P + ... + c_(j+7) P^8
            B = (w[1:] @ powers[: len(w) - 1]).reshape(n, n)
            B += w[0] * P
            if E is not None:
                B += self.powers[6] @ E
            E = B
        E.ravel()[:: n + 1] += c[0]
        return _checked(E)

    def from_lo(self, r: np.ndarray | None, x):
        """s -> rows x of M(lo + s) for 0 < s <= 1, x a start or an array of
        starts, from r = those rows of M(lo) (None: lo = 0): the rows r E(s)
        = sum_k c_k(s) r P^k, from the rows r P^k, each one |x| x n by n x n
        step, made when a probe first needs it.  One start keeps one row, a
        vector-matrix step and one weighted sum of the rows.  Rows from lo > 0
        carry a square of E(1), so they are ``checked``."""
        P, n = self.chain.P, self.chain.n
        shape = np.shape(x) + (n,)  # r P^k is one row for one start
        terms, built = np.zeros((20, *shape)), 1  # r P^k for k < built
        terms[0] = np.eye(n)[x] if r is None else r.reshape(shape)
        check = _checked if r is None else self.checked

        def at(s: float) -> np.ndarray:
            nonlocal built
            c = _series(s)
            for k in range(built, len(c)):
                np.matmul(terms[k - 1], P, out=terms[k])
            built = max(built, len(c))
            return check((c @ terms[: len(c)].reshape(len(c), -1)).reshape(-1, n))

        return at


def continuous_mixing_time(chain: Chain, x, eps) -> MixingResult:
    """Mixing time of the continuized chain (rate matrix P - I).

    Only irreducibility is required: continuization removes periodicity.
    ``x`` is as for ``discrete_mixing_time``, and the time is found by the
    same walk over the rungs E(s) (``_Ladder``): doubling until the
    distance is within eps, bisection down to a bracket of width 1, and
    then regula falsi steps kept within bisection's probe count (the ITP
    method) until the bracket is at most 1e-6 wide (relative for large
    times).  The returned time is the safe side of the bracket, which the
    result carries, and 0.0 when the start is already within eps.  Raises
    NoConvergence, naming the distance there, if it still exceeds eps at
    ``MAX_CONTINUOUS_TIME``.  A query makes each rung once and holds at
    most 21 rungs, n x n each, until it returns; inside the bracket of width
    1 it holds besides them, from the worst start, one probe matrix, the one
    at lo, and one series rung, until it takes the live rows A of the starts
    still above eps at lo, and then that M(lo) and at most 20 |A| rows, 20
    |A| <= 3 n; and from x no n x n matrix but at most 20 rows.  A
    worst-start achieved_tv read from the live rows may differ from a full
    probe's by rounding.
    """
    eps = _check_eps(eps)
    _require(chain, "irreducible", "continuization")
    return _Ladder(chain).time(None if x is None else chain.index(x), eps)
