"""Total variation, discrete and continuized mixing times, matrix exponential."""

import math
import tracemalloc
from array import array

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
from mixbounds import mixing
from mixbounds.chains import Chain
from mixbounds.mixing import BISECTION_REL, MAX_DISCRETE_STEPS, MONOTONE_TOL, _Ladder, _Powers

DELTA = 1 / (2 * math.e)
from mixbounds.errors import (BadEpsilon, BadParams, DimensionMismatch, IllConditioned, MixboundsError, NoConvergence,
                              NotErgodic, NotIrreducible)

from _families import doubly_stochastic, tiny_mass_chain, two_blocks


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


def test_tv_distance_of_large_vectors():
    """The forms' cross-check scales with the distance, so large entries pass."""
    assert tv_distance([3.0, 1e6], [1e6, 0.1]) == 0.5 * ((1e6 - 3.0) + (1e6 - 0.1))
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.uniform(0.0, 1e6, size=(2, 5))
        assert tv_distance(a, b) == 0.5 * np.abs(a - b).sum()


def test_tv_distance_overflowing_difference_is_bad_params():
    with pytest.raises(BadParams, match="overflows"):
        tv_distance([1.7e308, 0.0], [-1.7e308, 0.0])


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
    # while the worst start's falls 0.9 -> 0.4, under eps; on the continuized
    # clock it rises 0.1 -> 0.216 by time 1, while the worst falls to 0.584
    chain = Chain(["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [0.9, 0.1])
    with pytest.raises(AssertionError, match="increased at step 1"):
        discrete_mixing_time(chain, None, 0.45)
    with pytest.raises(AssertionError, match=r"increased at time unit 1\.0 \(from time unit 0\): 0\.\d+ -> 0\.216\d*$"):
        continuous_mixing_time(chain, None, 0.45)


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


# The step stream that gave every discrete time before the walk over the
# powers, kept as the reference: one dense ``rows @ P`` per step, every row's
# distance and monotonicity each step.
class _ReferenceSteps:
    def __init__(self, chain, x):
        self.P, self.pi, self.t = chain.P, chain.pi, 0
        self.rows = np.eye(chain.n) if x is None else np.eye(chain.n)[x : x + 1]
        self.tvs = self._rows_tv(self.rows)
        self.history = array("d", [float(self.tvs.max())])

    def _rows_tv(self, rows):
        D = np.maximum(rows, 0.0)
        D -= self.pi
        np.abs(D, out=D)
        return 0.5 * D.sum(axis=1)

    def step(self):
        self.rows = self.rows @ self.P
        self.t += 1
        tvs = self._rows_tv(self.rows)
        risen = tvs > self.tvs + MONOTONE_TOL
        if risen.any():
            prev, cur = (float(v[risen.argmax()]) for v in (self.tvs, tvs))
            raise AssertionError(f"TV to stationarity increased at step {self.t}: {prev!r} -> {cur!r}")
        self.tvs = tvs
        self.history.append(float(tvs.max()))

    def time(self, eps, max_steps):
        while self.history[-1] > eps and self.t < max_steps:
            self.step()
        t = next((t for t in range(1, self.t + 1) if self.history[t] <= eps), None)
        return (t, self.history[t]) if t is not None else (None, self.history[max_steps])


# sparse and dense chains of 40 to 128 states, reversible and not
STREAM_CHAINS = {
    "lazy cycle(64)": lambda: _lazy_cycle(64),
    "lazy cycle(100)": lambda: _lazy_cycle(100),
    "dhn(64)": lambda: dhn(64),
    "doubly_stochastic(100, 3)": lambda: doubly_stochastic(100, 3),
    "rr(40, 5)": lambda: random_reversible(40, 5),
}


@pytest.mark.parametrize("case", sorted(STREAM_CHAINS))
def test_streams_match_the_one_step_reference(case):
    """One walk over the powers P^(2^e), shared by the worst start and three
    starts, and the public call give the reference's times and its distances
    within 1e-12 relative."""
    chain = STREAM_CHAINS[case]()
    walk = _Powers(chain)
    for x in (None, 0, chain.n // 3, chain.n - 1):
        reference = _ReferenceSteps(chain, x)
        for eps in (0.25, 0.05):
            want_time, want_tv = reference.time(eps, 10**5)
            for got in (walk.time(x, eps), discrete_mixing_time(chain, x, eps)):
                assert got.time == want_time, (x, eps)
                assert got.achieved_tv == pytest.approx(want_tv, rel=1e-12, abs=0.0), (x, eps)


@pytest.mark.parametrize("case", sorted(STREAM_CHAINS))
def test_d_profile_matches_the_one_step_reference(case):
    """Same length and values as the reference's worst-start history.  Below
    about 1e-14 a distance is rounding noise, so distances are also compared
    absolutely, at 1e-14."""
    chain = STREAM_CHAINS[case]()
    reference = _ReferenceSteps(chain, None)
    for t_max in (1, 37, 300):
        while reference.t < t_max:
            reference.step()
        got = d_profile(chain, t_max)
        assert len(got) == t_max
        np.testing.assert_allclose(got, reference.history[1 : t_max + 1], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("x", [None, 0])
@pytest.mark.parametrize("max_steps", [1, 6, 37, 1000])
def test_max_steps_is_honoured_exactly(x, max_steps):
    """The walk over the powers P^(2^e) stops at max_steps, however its
    probes fall, and the message reads the distance at max_steps.  So does
    the public call;
    and between the distances at max_steps - 1 and max_steps, it returns
    max_steps, and raises with one step less, or refuses a cap of 0 steps."""
    chain = _lazy_cycle(30)  # about 2,500 steps to 1e-12
    walk, reference = _Powers(chain), _ReferenceSteps(chain, x)
    _, tv = reference.time(1e-12, max_steps)
    with pytest.raises(NoConvergence, match=rf"within {max_steps} steps \(TV still {tv:.3e}\)"):
        walk.time(x, 1e-12, max_steps)
    with pytest.raises(NoConvergence, match=rf"within {max_steps} steps \(TV still {tv:.3e}\)"):
        discrete_mixing_time(chain, x, 1e-12, max_steps)
    below, above = reference.history[max_steps], reference.history[max_steps - 1]
    eps = 0.5 * (below + above)
    got = discrete_mixing_time(chain, x, eps, max_steps)
    assert got.time == max_steps
    assert got.achieved_tv == pytest.approx(below, rel=1e-12, abs=1e-15)  # d(1000) is 1.1e-5
    with pytest.raises(NoConvergence, match=rf"within {max_steps - 1} steps \(TV still {above:.3e}\)") \
            if max_steps > 1 else pytest.raises(BadParams, match=r"max_steps must be an integer in \[1, "):
        discrete_mixing_time(chain, x, eps, max_steps - 1)


@pytest.mark.parametrize("x", [None, 0])
def test_a_cap_of_zero_steps_is_refused_and_one_step_is_counted(x):
    """No discrete time lies in (0, 0], so max_steps = 0 raises BadParams
    naming the range [1, ...], not NoConvergence quoting the distance at
    time 0.  At max_steps = 1 the one step counts: criterion 01's tie d(1) =
    1/4 = eps answers 1, and a chain not yet within eps at step 1 raises
    NoConvergence naming the cap and the distance at step 1."""
    with pytest.raises(BadParams, match=r"max_steps must be an integer in \[1, .*got 0$"):
        discrete_mixing_time(two_state(0.25), x, 0.25, max_steps=0)
    got = discrete_mixing_time(two_state(0.25), x, 0.25, max_steps=1)
    assert (got.time, got.achieved_tv, got.bracket) == (1, 0.25, (0, 1))
    with pytest.raises(NoConvergence, match=r"within 1 steps \(TV still 4\.000e-01\)"):
        discrete_mixing_time(two_state(0.1), x, 0.25, max_steps=1)


# exact ties (criterion 01: d(1) = 1/4 = eps on two_state(0.25)), a chain at
# stationarity after one step, a tie at 1/(2e), a stationary mass of 1e-13,
# nonreversible chains, and lazy cycles from 30 to 100 states
TIE_CHAINS = {
    "two_state(0.25)": lambda: two_state(0.25),
    "uniform_walk(5)": lambda: uniform_walk(5),
    "two_state(0.5)": lambda: two_state(0.5),
    "tiny_mass_chain": tiny_mass_chain,
    "dhn(8)": lambda: dhn(8),
    "doubly_stochastic(9, 4)": lambda: doubly_stochastic(9, 4),
    **{f"lazy cycle({n})": (lambda n=n: _lazy_cycle(n)) for n in (30, 47, 64, 100)},
}


@pytest.mark.parametrize("case", sorted(TIE_CHAINS))
def test_the_worst_start_walk_matches_the_one_step_reference(case):
    """The public worst-start time equals the reference's at every eps, and
    its distance lies within 1e-12 relative or 1e-15: a product's rounding
    is absolute, about 1e-16, and some distances here are zero but for it."""
    chain = TIE_CHAINS[case]()
    reference = _ReferenceSteps(chain, None)
    for eps in (0.01, 0.05, 0.1, 0.2, 0.5 / math.e, 0.25, 0.45):
        got = discrete_mixing_time(chain, None, eps)
        want_time, want_tv = reference.time(eps, 10**5)
        assert got.time == want_time, eps
        assert got.achieved_tv == pytest.approx(want_tv, rel=1e-12, abs=1e-15), eps


SWEEP_EPS = (0.01, 0.05, 0.1, 0.2, 0.5 / math.e, 0.25, 0.45)
# every start of a small chain, and 16 spread over each larger one: 1,043
# (chain, x, eps) cases, and one more 195,600 steps long
SWEEP = {
    **{case: (make, None, SWEEP_EPS) for case, make in {**TIE_CHAINS, **STREAM_CHAINS}.items()},
    "two_state(1e-5) from 0": (lambda: two_state(1e-5), [0], [0.01]),
}


@pytest.mark.parametrize("case", sorted(SWEEP))
def test_from_x_times_match_the_one_step_reference(case):
    """Each from-x time t equals the reference's, on one walk per chain and
    by the public call, with its distance within 1e-12 + t 2^-52 relative or
    1e-15;
    with max_steps = t - 1, each raises NoConvergence naming the reference's
    distance at t - 1."""
    make, starts, epsilons = SWEEP[case]
    chain = make()
    walk = _Powers(chain)
    if starts is None:
        starts = map(int, np.unique(np.linspace(0, chain.n - 1, min(chain.n, 16)).round()))
    for x in starts:
        reference = _ReferenceSteps(chain, x)
        for eps in epsilons:
            want_time, want_tv = reference.time(eps, MAX_DISCRETE_STEPS)
            for got in (walk.time(x, eps), discrete_mixing_time(chain, x, eps)):
                assert got.time == want_time, (x, eps)
                rel = 1e-12 + want_time * 2.0**-52  # both sides' errors grow like t times the float precision
                assert got.achieved_tv == pytest.approx(want_tv, rel=rel, abs=1e-15), (x, eps)
            if want_time > 1:
                cap = want_time - 1
                with pytest.raises(NoConvergence, match=rf"within {cap} steps \(TV still {reference.history[cap]:.3e}\)"):
                    walk.time(x, eps, cap)


def test_a_rise_between_probes_names_both_probes():
    # pi is not stationary here: from a, P^t(a, a) = 1/2 + 2^-(t+1) passes
    # pi(a) = 0.52 after step 5, so the distance falls to 0.01125 at t = 4
    # and rises to 0.01805 at t = 8; the walk sees the rise between its
    # doubling probes at 4 and 8, and never forms step 6
    chain = Chain(["a", "b"], [[0.75, 0.25], [0.25, 0.75]], [0.52, 0.48])
    walk = _Powers(chain)
    with pytest.raises(AssertionError, match=r"increased at step 8 \(from step 4\): 0\.011\d* -> 0\.018\d*$"):
        walk.time(0, 0.001)
    assert sorted(walk.tvs) == [0, 1, 2, 4, 8]
    with pytest.raises(AssertionError, match=r"increased at step 8 \(from step 4\)"):
        discrete_mixing_time(chain, "a", 0.001)


def test_matrix_exponential_identity_and_closed_form():
    chain = two_state(0.25)
    Q = chain.P - np.eye(2)
    np.testing.assert_allclose(matrix_exponential(Q, 0.0), np.eye(2), atol=1e-15)
    for t in (0.1, 0.7, 3.0):
        E = matrix_exponential(Q, t)
        want = 0.5 + 0.5 * math.exp(-2 * (1 - 0.25) * t)
        assert abs(E[0, 0] - want) <= 1e-12


def test_matrix_exponential_against_the_taylor_reference():
    # matrix_exponential is scipy's expm; the Taylor scaling and squaring it
    # replaced is an independent check
    for chain in (dhn(3), random_reversible(7, seed=4), doubly_stochastic(6, seed=1)):
        Q = chain.P - np.eye(chain.n)
        for t in (0.1, 1.0, 10.0):
            E = matrix_exponential(Q, t)
            assert np.abs(E - _reference_matrix_exponential(Q, t)).max() <= 1e-12
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


def test_matrix_exponential_at_too_long_a_time_is_ill_conditioned():
    # accepted rate matrices whose squarings, each roughly doubling the
    # row-sum error (or the row sum's 5e-10 slack), lose stochasticity
    Q = random_reversible(20, 1).P - np.eye(20)
    for rate, t in ((Q, 2.0**30), (Q, 1e12), ([[-1.0, 1.0 + 5e-10], [0.5, -0.5]], 1e3)):
        with pytest.raises(IllConditioned, match="lost stochasticity"):
            matrix_exponential(rate, t)


def test_matrix_exponential_overflow_inside_expm_is_ill_conditioned():
    # Q t is finite, but expm's squarings overflow to inf and nan, which the
    # stochasticity check rejects without a warning
    Q = random_reversible(20, 1).P - np.eye(20)
    for t in (1e20, 1e50, 1e100, 1e300):
        with pytest.raises(IllConditioned, match="lost stochasticity"):
            matrix_exponential(Q, t)


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
    # each clock's times keep its type at integer values (the goldens and
    # the JSON compare types): the continuized distance is e^-t / 2, so
    # exactly 1/(2e) at t = 1, and the chain mixes in one step
    assert type(res.time) is float
    for x in (None, 0):
        res = continuous_mixing_time(two_state(0.5), x, 0.5 / math.e)
        assert res.time == 1.0 and type(res.time) is float
        assert type(discrete_mixing_time(two_state(0.5), x, 0.5 / math.e).time) is int


def test_continuous_mixing_periodic_chain_is_fine():
    res = continuous_mixing_time(directed_cycle(3), 0, 0.25)
    assert 0.0 < res.time < 10.0
    assert res.achieved_tv <= 0.25


#: chains whose lazy chain's continuized times are twice theirs: reversible,
#: nonreversible, periodic, two-state, one-step and lazy already
LAZY_DOUBLES = {
    **{f"rr({n}, {seed})": (lambda n=n, seed=seed: random_reversible(n, seed))
       for n, seed in ((5, 1), (12, 2), (18, 3))},
    "dhn(5)": lambda: dhn(5),
    "dhn(12)": lambda: dhn(12),
    "directed_cycle(9)": lambda: directed_cycle(9),
    "two_state(0.3)": lambda: two_state(0.3),
    "uniform_walk(6)": lambda: uniform_walk(6),
    "lazy cycle(10)": lambda: _lazy_cycle(10),
}


@pytest.mark.parametrize("case", sorted(LAZY_DOUBLES))
def test_the_lazy_chain_mixes_in_twice_the_continuized_time(case):
    """lazy(P) - I = (P - I) / 2, so the lazy chain's continuized chain is
    P's at half speed: from every start its time is twice P's, so the lazy
    chain's bracket meets twice P's at the worst start, 0 and n - 1, at
    eps from 1/4 to 1/100."""
    chain = LAZY_DOUBLES[case]()
    for x in (None, 0, chain.n - 1):
        for eps in (0.25, DELTA, 0.1, 0.01):
            lo, hi = continuous_mixing_time(chain, x, eps).bracket
            got = continuous_mixing_time(lazy(chain), x, eps).bracket
            assert got[0] <= 2 * hi and 2 * lo <= got[1], (x, eps, got, (lo, hi))


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_the_uniform_walk_and_its_lazy_chain_mix_in_closed_form(n):
    """The uniform walk's continuized distance from every start is e^-t (1 -
    1/n), so it mixes at ln((1 - 1/n) / eps) and its lazy chain at twice
    that, each within its bracket's width.  At n = 2 and eps = 1/(2e) the
    crossing is an exact tie at t = 1."""
    chain = uniform_walk(n)
    for eps in (0.25, DELTA, 0.1, 0.01):
        want = math.log((1.0 - 1.0 / n) / eps)
        for c, scale in ((chain, 1.0), (lazy(chain), 2.0)):
            for x in (None, 0):
                res = continuous_mixing_time(c, x, eps)
                assert abs(res.time - scale * want) <= res.bracket[1] - res.bracket[0], (c.name, x, eps)


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


def test_continuous_mixing_stops_at_the_cap(monkeypatch):
    # gap 2e-8: mixing takes about 1.7e7 time units, far past MAX_CONTINUOUS_TIME;
    # the doubling ends at the cap, so the walk raises with no bisection: E(1),
    # its 20 squares, and no more checked matrices
    slow = build_chain(["a", "b"], [[1 - 1e-8, 1e-8], [1e-8, 1 - 1e-8]])
    checked, check = [], mixing._checked
    monkeypatch.setattr(mixing, "_checked", lambda E: check(checked.append(E) or E))
    with pytest.raises(NoConvergence, match=r"within 1048576 time units \(TV still 4\.896e-01\)"):
        continuous_mixing_time(slow, "a", 0.25)
    assert len(checked) <= 21


def test_a_start_mixed_to_noise_does_not_rise_near_the_cap():
    # the worst start crosses 0.1 near 2^19.2, where the squares' row sums
    # drift by up to 8.5e-10; the hub's distance, mixed to noise by t = 32,
    # is about half its row's drift, so it grows with each square (1.5e-10
    # at 2^19 to 3.0e-10 at 2^20), within half the two probes' rounding
    # bounds (``_Walk.error``)
    chain = two_blocks(100, math.log(5) / (3 * 2**19.2))
    walk, hub = _Ladder(chain), chain.n - 1
    res = walk.time(None, 0.1)
    assert 2**19 < res.time < 2**20 and res.achieved_tv <= 0.1
    assert continuous_mixing_time(chain, 0, 0.1).time == res.time
    assert max(tvs[hub] for t, tvs in walk.tvs.items() if t >= 32) < 1e-9
    assert walk.time(hub, 0.1).time < 32


def test_a_start_mixed_to_noise_does_not_rise_on_the_discrete_walk():
    # the same two-block chain crossing 0.1 at 2^17 steps: the hub's distance,
    # mixed to noise, reads about half its row's drift, which doubles with
    # each square of P (2.68e-12 -> 5.36e-12 from step 4096 to 8192), past
    # MONOTONE_TOL alone; a rise may reach MONOTONE_TOL plus half the two
    # probes' rounding bounds
    chain = two_blocks(100, math.log(5) / (3 * 2**17))
    res = discrete_mixing_time(chain, None, 0.1)
    assert res.time == 2**17 and res.bracket == (2**17 - 1, 2**17)
    for t, above in ((2**17 - 1, True), (2**17, False)):
        d = 0.5 * np.abs(np.linalg.matrix_power(chain.P, t) - chain.pi).sum(axis=1).max()
        assert (d > 0.1) == above, t


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 21, 34])
def test_the_two_block_sweep_ends_in_a_time_or_a_mixbounds_error(m):
    """Blocks of m states whose worst start crosses eps near 2^k, on both
    clocks, from the worst start, 0 and the hub, and a report from 0: each
    call returns or raises a MixboundsError (NoConvergence past the cap),
    never a rise check's AssertionError on a start mixed to noise."""
    for k in (10, 14, 17, 18, 18.5, 19, 19.5, 20, 21):
        chain = two_blocks(m, math.log(5) / (3 * 2**k))
        for eps in (0.1, 0.25):
            calls = [lambda: full_report(chain, x=0, eps=eps)]
            for x in (None, 0, chain.n - 1):
                calls += [lambda x=x: discrete_mixing_time(chain, x, eps),
                          lambda x=x: continuous_mixing_time(chain, x, eps)]
            for call in calls:
                try:
                    call()
                except MixboundsError:
                    pass


def test_the_rounding_bound_covers_every_probes_row_drift(monkeypatch):
    """At every rise check, the walk's (or d_profile's) error bound at the
    new probe is at least the largest drift from 1 of that probe's row
    sums, the slack each start was once allowed: so the bound never lets
    less through than the drift did."""
    drift, checks = [], []
    distances, check_rise = mixing._distances, mixing._check_rise

    def read(rows, pi):
        drift.append(float(np.abs(rows.sum(axis=-1) - 1.0).max()))
        return distances(rows, pi)

    def check(kept, t, error, unit="step"):
        assert error(t) >= drift[-1], (t, error(t), drift[-1])
        checks.append(t)
        check_rise(kept, t, error, unit)

    monkeypatch.setattr(mixing, "_distances", read)
    monkeypatch.setattr(mixing, "_check_rise", check)
    chains = [random_reversible(12, 1), random_reversible(18, 2), lazy(directed_cycle(30)), dhn(16),
              doubly_stochastic(40, 3), tiny_mass_chain()]
    chains += [two_blocks(5, math.log(5) / (3 * 2**k)) for k in (19, 21)]
    for chain in chains:
        for x in (None, 0, chain.n - 1):
            for time in (discrete_mixing_time, continuous_mixing_time):
                try:
                    time(chain, x, 0.1)
                except MixboundsError:
                    pass
        d_profile(chain, 300)
    assert len(checks) > 1000


@pytest.mark.parametrize("x", [None, 0])
def test_a_square_of_e1_that_drifts_past_the_check_is_ill_conditioned(x):
    # blocks of 70 states crossing 0.1 near 2^19.2: the doubling's square
    # E(2^20) drifts 1.345e-9 from stochastic, past the 1e-9 ``_checked``
    # admits, so the chain is too ill-conditioned for the ladder below its cap
    chain = two_blocks(70, math.log(5) / (3 * 2**19.2))
    with pytest.raises(IllConditioned, match=r"\(row err 1\.345e-09\) by 1048576 time units"):
        continuous_mixing_time(chain, x, 0.1)


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


def _lazy_cycle(n: int):
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] += 0.5
        P[i, (i + 1) % n] += 0.25
        P[i, (i - 1) % n] += 0.25
    return build_chain([str(i) for i in range(n)], P, name=f"lazy_cycle({n})")


REFERENCE_CASES = {
    # continuized times below 1: every probe inside (0, 1] is a series rung
    # from the worst start, or from x a row series
    "rr(200, 3) from 0": (lambda: random_reversible(200, 3), [(0, 0.45)]),
    "rr(200, 3) from 100": (lambda: random_reversible(200, 3), [(100, 0.45)]),
    "rr(200, 9) from 100": (lambda: random_reversible(200, 9), [(100, 0.45)]),
    "t = 0 exit": (lambda: uniform_walk(2), [(0, 0.5)]),
    "time below 1": (lambda: random_reversible(12, 2), [(0, 0.45)]),
    # worst start doubles to 2^10 before the bisection
    "lazy cycle(100) worst start": (lambda: _lazy_cycle(100), [(None, 0.25)]),
    "dhn(8)": (lambda: dhn(8), [(0, 0.25), (None, 0.1)]),
    # a sparse chain whose bracket narrows to 1.45e-5, 1e-6 of its time 14.5
    "dhn(16) worst start": (lambda: dhn(16), [(None, 0.25)]),
    "doubly_stochastic(9, 4)": (lambda: doubly_stochastic(9, 4), [(3, 0.25), (None, 0.05)]),
    "directed_cycle(3)": (lambda: directed_cycle(3), [(0, 0.25), (None, 0.01)]),
    # two calls sharing one memo: the second reuses the first's probes
    "shared memo, x then worst": (lambda: random_reversible(40, 7), [(5, 0.25), (None, 0.25)]),
    # from x (one-row probes once lo > 0, and inside the bracket of width 1),
    # then the worst start, then from another x at another eps, on one ladder
    # of a sparse chain
    "dhn(16) x, worst, x": (lambda: dhn(16), [(3, 0.25), (None, 0.25), (5, 0.1)]),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_continuous_time_matches_per_probe_reference(case):
    """Each query's bracket (lo, hi], hi its time, is confirmed by the
    reference distance at both ends: above eps at lo (unless lo is 0) and
    within it at hi, where the distance is the reference's within 1e-10;
    and it is at most BISECTION_REL max(1, hi) wide."""
    make, calls = REFERENCE_CASES[case]
    chain = make()
    ladder = _Ladder(chain)
    for x, eps in calls:
        x_idx = None if x is None else chain.index(x)
        got = ladder.time(x_idx, eps)
        lo, hi = got.bracket
        ref = {t: _reference_row_tvs(chain, t) for t in (lo, hi)}
        ref = {t: float(tvs.max() if x_idx is None else tvs[x_idx]) for t, tvs in ref.items()}
        assert hi == got.time, (x, eps)
        assert lo == 0.0 or ref[lo] > eps, (x, eps)
        assert ref[hi] <= eps, (x, eps)
        assert hi - lo <= BISECTION_REL * max(1.0, hi), (x, eps)
        assert abs(got.achieved_tv - ref[hi]) <= 1e-10, (x, eps)
        assert got.achieved_tv <= eps
    if case == "t = 0 exit":
        assert got.time == 0.0 and got.bracket == (0.0, 0.0)
    if case == "time below 1":
        assert 0.0 < got.time < 1.0
    if case == "lazy cycle(100) worst start":
        assert 2.0**10 in ladder.tvs and 2.0**11 not in ladder.tvs  # t = 948.8 lies below the top rung


SERIES_CHAINS = {
    "lazy cycle(100)": lambda: _lazy_cycle(100),
    "dhn(64)": lambda: dhn(64),
    "rr(12, 2)": lambda: random_reversible(12, 2),
    "two_state(0.25)": lambda: two_state(0.25),
    "rr(200, 3)": lambda: random_reversible(200, 3),
}


@pytest.mark.parametrize("case", sorted(SERIES_CHAINS))
def test_series_rungs_match_the_taylor_reference(case):
    """Each rung E(s) up to 1, s = 2^e or not a power of two, is a truncated
    uniformization series: within 1e-14 row l1 of the Taylor exponential,
    and with every entry 0 or a normal float, so it has no negative entry
    and its products never run on subnormals.  A probe from x, the row
    series r E(s) = sum_k c_k(s) r P^k of r = row x of M(lo), is row x of
    M(lo) E(s) within 1e-15 row l1."""
    chain = SERIES_CHAINS[case]()
    ladder, Q = _Ladder(chain), chain.P - np.eye(chain.n)
    for s in [2.0**e for e in range(0, -25, -1)] + [0.3, 0.7, 1 - 2.0**-20]:
        E = ladder.rung(s)
        assert np.abs(E - _reference_matrix_exponential(Q, s)).sum(axis=1).max() <= 1e-14, s
        assert ((E == 0.0) | (E >= np.finfo(float).tiny)).all(), s
    M_lo = ladder.rung(0.3) @ ladder.unit_rung  # M(1.3)
    for x in {0, chain.n // 2, chain.n - 1}:
        for s in (0.3, 0.7, 1 - 2.0**-20, 2.0**-20):
            assert np.abs(ladder.from_lo(None, x)(s)[0] - ladder.rung(s)[x]).sum() <= 1e-15, (x, s)
            got = ladder.from_lo(M_lo[[x]], x)(s)[0]
            assert np.abs(got - (M_lo @ ladder.rung(s))[x]).sum() <= 1e-15, (x, s)


class _FullProbes(_Ladder):
    """The ladder with every worst-start probe n x n: no live rows."""

    def live(self, d, eps):
        return None


def _row_probes(monkeypatch):
    """Record, in order, each series rung E(s) ("rung", s), each checked
    matrix or row block ("checked", shape) and each live-row series
    ("rows", |A|)."""
    events, check, rung, from_lo = [], mixing._checked, _Ladder.rung, _Ladder.from_lo
    monkeypatch.setattr(mixing, "_checked", lambda E: check(events.append(("checked", E.shape)) or E))
    monkeypatch.setattr(_Ladder, "rung", lambda ladder, s: rung(ladder, events.append(("rung", s)) or s))

    def rows(ladder, r, x):
        if np.ndim(x):
            events.append(("rows", len(x)))
        return from_lo(ladder, r, x)

    monkeypatch.setattr(_Ladder, "from_lo", rows)
    return events


LIVE_ROW_CHAINS = {
    **{f"rr(200, {j})": (lambda j=j: random_reversible(200, j)) for j in (1, 2)},
    **{f"doubly_stochastic(100, {j})": (lambda j=j: doubly_stochastic(100, j)) for j in (1, 3)},
    "dhn(64)": lambda: dhn(64),
    **{f"rr(40, {j})": (lambda j=j: random_reversible(40, j)) for j in (1, 2)},
}


@pytest.mark.parametrize("case", sorted(LIVE_ROW_CHAINS))
def test_live_rows_narrow_the_worst_start_as_full_probes_do(monkeypatch, case):
    """A worst-start query that narrows over the live starts' rows returns
    the time and bracket of one whose every probe is n x n, and an
    achieved_tv within 1e-14 relative of that query's maximum over every
    start; each chain takes the live rows at some eps."""
    chain = LIVE_ROW_CHAINS[case]()
    events = _row_probes(monkeypatch)
    for eps in (0.05, 0.12, DELTA, 0.25, 0.45):
        want = _FullProbes(chain).time(None, eps)
        got = _Ladder(chain).time(None, eps)
        assert (got.time, got.bracket) == (want.time, want.bracket), eps
        assert abs(got.achieved_tv - want.achieved_tv) <= 1e-14 * want.achieved_tv, eps
    assert any(kind == "rows" for kind, _ in events)


def test_a_live_row_probe_makes_no_square_product_and_no_series_rung(monkeypatch):
    """From the live rows on, every probe is an |A| x n row block, and the
    live maximum at hi is at least every other start's distance at lo, so
    no full probe is made at hi."""
    chain = random_reversible(200, 1)
    events = _row_probes(monkeypatch)
    walk = _Ladder(chain)
    got = walk.time(None, 0.12)
    taken = events.index(next(e for e in events if e[0] == "rows"))
    live = events[taken][1]
    assert 0 < 20 * live <= 3 * chain.n
    after = set(events[taken:])  # a series of the same rows from each new lo, and the probes
    assert after == {("rows", live), ("checked", (live, chain.n))}
    assert got.time not in walk.tvs


def test_a_start_outside_the_live_rows_gets_one_full_probe_at_hi(monkeypatch):
    """eps is the second-largest distance at t = 2, so the start that reads
    it is outside the live rows (only the worst start is above eps at lo =
    2), and every live row ends below it: hi gets one full probe, M(2) E(hi
    - 2), kept with the other full probes, and achieved_tv is the maximum
    over every start, as from full probes."""
    chain = random_reversible(20, 1)
    E1 = _Ladder(chain).unit_rung
    eps = float(np.sort(mixing._distances(E1 @ E1, chain.pi))[-2])
    want = _FullProbes(chain).time(None, eps)
    events = _row_probes(monkeypatch)
    walk = _Ladder(chain)
    got = walk.time(None, eps)
    assert 2.0 < got.bracket[0] < got.time < 3.0
    taken = events.index(("rows", 1))
    assert [e for e in events[taken:] if e not in {("rows", 1), ("checked", (1, chain.n))}] == [
        ("rung", got.time - 2.0), ("checked", (chain.n, chain.n)), ("checked", (chain.n, chain.n))]
    assert got.time in walk.tvs and got.achieved_tv == float(walk.tvs[got.time].max())
    assert (got.time, got.bracket) == (want.time, want.bracket)
    assert abs(got.achieved_tv - want.achieved_tv) <= 1e-14 * want.achieved_tv


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
