"""Total variation, discrete and continuized mixing times, matrix exponential."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from mixbounds import (
    build_chain,
    continuous_mixing_time,
    d_profile,
    dhn,
    directed_cycle,
    discrete_mixing_time,
    full_report,
    lazy,
    matrix_exponential,
    random_reversible,
    tv_distance,
    two_state,
    uniform_walk,
)
from mixbounds.chains import Chain
from mixbounds.mixing import BISECTION_REL, _continuous_time, _Ladder
from mixbounds.errors import BadEpsilon, BadParams, DimensionMismatch, NoConvergence, NotErgodic, NotIrreducible

from _families import doubly_stochastic


def test_tv_distance_examples():
    assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert tv_distance([1, 0, 0], [0, 0, 1]) == 1.0
    assert abs(tv_distance([0.75, 0.25], [0.5, 0.5]) - 0.25) <= 1e-15
    assert tv_distance([0.1, 0.9], [0.9, 0.1]) == tv_distance([0.9, 0.1], [0.1, 0.9])
    with pytest.raises(DimensionMismatch):
        tv_distance([0.5, 0.5], [1.0])


def test_tv_distance_worst_event_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.dirichlet(np.ones(6))
        b = rng.dirichlet(np.ones(6))
        d = a - b
        assert abs(tv_distance(a, b) - d[d > 0].sum()) <= 1e-12


def test_discrete_mixing_uniform_walk_single_step():
    for eps in (0.4, 0.25, 0.01):
        assert discrete_mixing_time(uniform_walk(2), 0, eps).time == 1


def test_discrete_mixing_two_state_closed_form():
    # TV after t steps is (1 - 2 delta)^t / 2
    for delta in (0.25, 0.1, 0.05, 0.005):
        chain = two_state(delta)
        got = discrete_mixing_time(chain, "a", 0.25).time
        t, tv = 0, 0.5
        while tv > 0.25:
            t += 1
            tv = 0.5 * (1 - 2 * delta) ** t
        assert got == t


def test_discrete_mixing_lazy_two_state():
    assert discrete_mixing_time(lazy(two_state(0.25)), "a", 0.25).time == 1


def test_discrete_mixing_gates():
    with pytest.raises(NotErgodic):
        discrete_mixing_time(directed_cycle(3), 0, 0.25)
    chain = two_state(0.25)
    for bad in (0.0, 1.0, -0.1, 5e-13, "a", None):
        with pytest.raises(BadEpsilon):
            discrete_mixing_time(chain, 0, bad)
    with pytest.raises(NoConvergence):
        discrete_mixing_time(two_state(1e-3), 0, 0.25, max_steps=10)


def test_discrete_mixing_worst_start():
    chain = random_reversible(6, seed=2)
    worst = discrete_mixing_time(chain, None, 0.05)
    per_state = max(discrete_mixing_time(chain, x, 0.05).time for x in range(6))
    assert worst.time == per_state
    assert worst.from_state is None
    assert worst.achieved_tv <= 0.05 + 1e-12


def test_each_row_is_checked_not_to_rise():
    # pi is not stationary here: row 0's distance rises 0.1 -> 0.4 at step 1
    # while the worst start's falls 0.9 -> 0.4, under eps
    chain = Chain(["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [0.9, 0.1])
    with pytest.raises(AssertionError, match="increased at step 1"):
        discrete_mixing_time(chain, None, 0.45)


def test_d_profile_two_state():
    chain = two_state(0.25)
    prof = d_profile(chain, 12)
    for t, val in enumerate(prof, start=1):
        assert abs(val - 0.5 * 0.5**t) <= 1e-12
    assert all(v == 0.0 for v in d_profile(uniform_walk(2), 5))
    with pytest.raises(BadParams):
        d_profile(chain, 10_001)
    with pytest.raises(BadParams):
        d_profile(chain, -1)
    assert d_profile(chain, 0) == []
    with pytest.raises(NotErgodic):
        d_profile(directed_cycle(4), 5)


def test_d_profile_submultiplicative():
    for chain in (two_state(0.2), dhn(4), random_reversible(5, seed=9), lazy(two_state(0.05))):
        prof = [0.0] + d_profile(chain, 100)
        for s in range(1, 51):
            for t in range(1, 51):
                assert prof[s + t] <= 2 * prof[s] * prof[t] + 1e-12


def test_matrix_exponential_identity_and_closed_form():
    chain = two_state(0.25)
    Q = chain.P - np.eye(2)
    np.testing.assert_allclose(matrix_exponential(Q, 0.0), np.eye(2), atol=1e-15)
    for t in (0.1, 0.7, 3.0):
        E = matrix_exponential(Q, t)
        want = 0.5 + 0.5 * math.exp(-2 * (1 - 0.25) * t)
        assert abs(E[0, 0] - want) <= 1e-12


def test_matrix_exponential_against_scipy():
    rng = np.random.default_rng(4)
    for chain in (dhn(3), random_reversible(7, seed=4), doubly_stochastic(6, seed=1)):
        Q = chain.P - np.eye(chain.n)
        for t in (0.1, 1.0, 10.0):
            E = matrix_exponential(Q, t)
            assert np.abs(E - scipy.linalg.expm(Q * t)).max() <= 1e-12
            assert np.abs(E.sum(axis=1) - 1.0).max() <= 1e-9
            assert E.min() >= -1e-12


def test_matrix_exponential_semigroup():
    chain = random_reversible(5, seed=13)
    Q = chain.P - np.eye(5)
    for s, t in ((0.5, 0.25), (1.0, 2.0), (0.1, 5.0)):
        lhs = matrix_exponential(Q, s + t)
        rhs = matrix_exponential(Q, s) @ matrix_exponential(Q, t)
        assert np.abs(lhs - rhs).max() <= 1e-8


def test_matrix_exponential_derivative():
    chain = two_state(0.3)
    Q = chain.P - np.eye(2)
    h = 1e-6
    for t in (0.2, 1.5):
        num = (matrix_exponential(Q, t + h) - matrix_exponential(Q, t)) / h
        ana = Q @ matrix_exponential(Q, t)
        assert np.abs(num - ana).max() <= 1e-4


def test_matrix_exponential_bad_input():
    Q = two_state(0.25).P - np.eye(2)
    for t in (-1.0, math.nan, math.inf, -math.inf, "abc", None, [1.0, 2.0], 1e308):
        with pytest.raises(BadParams):
            matrix_exponential(Q, t)
    for bad in ([[-1.0, math.nan], [0.5, -0.5]], [[-1.0, math.inf], [0.5, -0.5]],
                [["x", 1.0], [0.5, -0.5]],
                np.eye(2), [[-1.0, 2.0], [0.5, -0.5]]):  # not rate matrices
        with pytest.raises(BadParams):
            matrix_exponential(bad, 1.0)
    with pytest.raises(DimensionMismatch):
        matrix_exponential(np.zeros((2, 3)), 1.0)
    with pytest.raises(DimensionMismatch):
        matrix_exponential([[-1.0, 1.0], [0.5]], 1.0)


def test_continuous_mixing_two_state_closed_form():
    # TV decays as exp(-2 (1 - delta) t) / 2
    for delta, eps in ((0.25, 0.25), (0.1, 0.1)):
        chain = two_state(delta)
        want = math.log(1.0 / (2 * eps)) / (2 * (1 - delta))
        got = continuous_mixing_time(chain, "a", eps).time
        assert abs(got - want) <= 2e-6


def test_continuous_mixing_boundary_zero():
    res = continuous_mixing_time(uniform_walk(2), 0, 0.5)
    assert res.time == 0.0 and res.achieved_tv <= 0.5


def test_continuous_mixing_periodic_chain_is_fine():
    res = continuous_mixing_time(directed_cycle(3), 0, 0.25)
    assert 0.0 < res.time < 10.0
    assert res.achieved_tv <= 0.25


def test_continuous_mixing_grid_oracle():
    chain = doubly_stochastic(5, seed=3)
    eps = 0.2
    res = continuous_mixing_time(chain, 1, eps)
    Q = chain.P - np.eye(5)
    grid = np.linspace(0.0, 2 * res.time + 1.0, 4001)
    v = np.zeros(5)
    v[1] = 1.0
    crossing = None
    for t in grid:
        tv = 0.5 * np.abs(v @ scipy.linalg.expm(Q * t) - chain.pi).sum()
        if tv <= eps:
            crossing = t
            break
    assert crossing is not None
    step = grid[1] - grid[0]
    assert abs(res.time - crossing) <= step + 1e-6


def test_continuous_mixing_gates():
    c3 = directed_cycle(3)
    from mixbounds import multiply, time_reversal

    with pytest.raises(NotIrreducible):
        continuous_mixing_time(multiply(time_reversal(c3), c3), 0, 0.25)
    with pytest.raises(BadEpsilon):
        continuous_mixing_time(two_state(0.25), 0, 1.5)


def test_continuous_mixing_stops_at_the_cap():
    # gap 2e-8: mixing takes about 1.7e7 time units, far past MAX_CONTINUOUS_TIME
    slow = build_chain(["a", "b"], [[1 - 1e-8, 1e-8], [1e-8, 1 - 1e-8]])
    with pytest.raises(NoConvergence, match="1048576"):
        continuous_mixing_time(slow, "a", 0.25)


# The per-probe continuized time before the squaring ladder, kept verbatim as
# the reference: every probe runs a fresh Taylor scaling-and-squaring.
def _reference_matrix_exponential(Q, t: float) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatch("rate matrix must be square")
    if t < 0:
        raise BadParams("time must be nonnegative")
    n = Q.shape[0]
    X = Q * float(t)
    norm = float(np.linalg.norm(X, 1))
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
    row_err = float(np.abs(E.sum(axis=1) - 1.0).max())
    if row_err > 1e-9 or float(E.min()) < -1e-12:
        raise AssertionError(f"matrix exponential lost stochasticity (row err {row_err:.3e})")
    return E


def _reference_row_tvs(chain, t: float) -> np.ndarray:
    E = _reference_matrix_exponential(chain.P - np.eye(chain.n), t)
    E = np.where(E < 0.0, 0.0, E)  # clamp the <=1e-12 negatives
    return 0.5 * np.abs(E - chain.pi[None, :]).sum(axis=1)


def _reference_continuous_time(chain, x, eps, row_tvs: dict) -> tuple[float, float]:
    x_idx = None if x is None else chain.index(x)

    probes: list[tuple[float, float]] = []

    def probe(t: float) -> float:
        if t not in row_tvs:
            row_tvs[t] = _reference_row_tvs(chain, t)
        tvs = row_tvs[t]
        val = float(tvs.max() if x_idx is None else tvs[x_idx])
        probes.append((t, val))
        return val

    if probe(0.0) <= eps:
        return 0.0, probes[0][1]
    hi = 1.0
    while probe(hi) > 0.5 * eps:
        hi *= 2.0
        if hi > 2.0**60:
            raise NoConvergence("continuized chain failed to mix (internal bug)")
    lo = 0.0
    hi_tv = probes[-1][1]
    while hi - lo > BISECTION_REL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        val = probe(mid)
        if val <= eps:
            hi, hi_tv = mid, val
        else:
            lo = mid
    return float(hi), hi_tv


def _lazy_cycle(n: int):
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] += 0.5
        P[i, (i + 1) % n] += 0.25
        P[i, (i - 1) % n] += 0.25
    return build_chain([str(i) for i in range(n)], P, name=f"lazy_cycle({n})")


REFERENCE_CASES = {
    # continuized times below 1: the bisection reaches level -20, whose rungs
    # fail the 1e-9 stochasticity check if squared up from 2^-20 in one ladder
    "rr(200, 3) from 0": (lambda: random_reversible(200, 3), [(0, 0.45)]),
    "rr(200, 3) from 100": (lambda: random_reversible(200, 3), [(100, 0.45)]),
    "rr(200, 9) from 100": (lambda: random_reversible(200, 9), [(100, 0.45)]),
    "t = 0 exit": (lambda: uniform_walk(2), [(0, 0.5)]),
    "time below 1": (lambda: random_reversible(12, 2), [(0, 0.45)]),
    # worst start doubles to 2^11 before the bisection
    "lazy cycle(100) worst start": (lambda: _lazy_cycle(100), [(None, 0.25)]),
    "dhn(8)": (lambda: dhn(8), [(0, 0.25), (None, 0.1)]),
    "doubly_stochastic(9, 4)": (lambda: doubly_stochastic(9, 4), [(3, 0.25), (None, 0.05)]),
    "directed_cycle(3)": (lambda: directed_cycle(3), [(0, 0.25), (None, 0.01)]),
    # two calls sharing one memo: the second reuses the first's probes
    "shared memo, x then worst": (lambda: random_reversible(40, 7), [(5, 0.25), (None, 0.25)]),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_continuous_time_matches_per_probe_reference(case):
    make, calls = REFERENCE_CASES[case]
    chain = make()
    ladder, row_tvs = _Ladder(chain), {}
    for x, eps in calls:
        got = _continuous_time(chain, x, eps, ladder)
        want_time, want_tv = _reference_continuous_time(chain, x, eps, row_tvs)
        assert got.time == want_time, (x, eps)
        assert abs(got.achieved_tv - want_tv) <= 1e-10, (x, eps)
        assert got.achieved_tv <= eps
    if case == "t = 0 exit":
        assert got.time == 0.0
    if case == "time below 1":
        assert 0.0 < got.time < 1.0
    if case == "lazy cycle(100) worst start":
        assert 2.0**11 in row_tvs and 2.0**10 in row_tvs and 2.0**12 not in row_tvs


@pytest.mark.parametrize("what", ["continuous_mixing_time", "full_report"])
def test_continuous_time_memory_stays_small(what):
    """The ladder never holds more than a few n x n matrices at once."""
    chain = random_reversible(200, 1)
    call = {
        "continuous_mixing_time": lambda: continuous_mixing_time(chain, None, 0.12),
        "full_report": lambda: full_report(chain),
    }[what]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * chain.n**2, f"peak {peak / (8 * chain.n**2):.1f} n x n matrices"
