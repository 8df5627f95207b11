"""Chain construction, classification and the chain-level transforms."""

from math import gcd

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from mixbounds import (
    Chain,
    build_chain,
    classify,
    dhn,
    directed_cycle,
    discrete_mixing_time,
    lazy,
    multiply,
    random_reversible,
    reversibilize,
    time_reversal,
    two_state,
)
from mixbounds.errors import (
    DimensionMismatch,
    NonStochastic,
    NotErgodic,
    SingularStationary,
    StationaryMismatch,
)

from _families import doubly_stochastic, tiny_mass_chain


def test_two_state_stationary_uniform():
    chain = two_state(0.25)
    np.testing.assert_allclose(chain.pi, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(chain.P, [[0.25, 0.75], [0.75, 0.25]])


def test_dhn_stationary_uniform():
    chain = dhn(2)
    np.testing.assert_allclose(chain.pi, [0.25] * 4, atol=1e-12)
    assert chain.labels == ("-1", "0", "1", "2")


def test_identity_chain_rejected():
    with pytest.raises(SingularStationary):
        build_chain(["a", "b"], np.eye(2))


def test_transient_state_rejected():
    # state a is absorbing, so the stationary law puts mass 0 on b
    with pytest.raises(SingularStationary):
        build_chain(["a", "b"], [[1.0, 0.0], [0.5, 0.5]])


def _two_swaps():
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 0] = 1.0
    P[2, 3] = P[3, 2] = 1.0
    return P


@pytest.mark.parametrize("P", [
    _two_swaps(),
    # LU solves this one without a zero pivot, to pi = [6.2e-18, 5.2e-17,
    # 5.2e-17, 1/3, 1/3, 1/3] with residual 1.1e-16
    np.kron(np.eye(2), np.full((3, 3), 1 / 3)),
], ids=["two swaps", "two uniform blocks of 3"])
def test_two_closed_classes_rejected(P):
    with pytest.raises(SingularStationary):
        build_chain([str(i) for i in range(len(P))], P)


def test_nonstochastic_inputs():
    with pytest.raises(NonStochastic):
        build_chain(["a", "b"], [[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(NonStochastic):
        build_chain(["a", "b"], [[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(DimensionMismatch):
        build_chain(["a", "b"], [[0.5, 0.5]])
    with pytest.raises(DimensionMismatch):
        build_chain(["a"], [[1.0]])


def test_row_sum_slack_is_renormalised():
    P = np.array([[0.25, 0.75], [0.75, 0.25]]) * (1.0 + 2e-10)
    chain = build_chain(["a", "b"], P)
    np.testing.assert_allclose(chain.P.sum(axis=1), 1.0, atol=1e-14)


def test_classify_directed_cycle():
    cls = classify(directed_cycle(3))
    assert cls.irreducible and cls.period == 3 and not cls.aperiodic
    assert not cls.ergodic


def test_classify_two_state():
    cls = classify(two_state(0.25))
    assert cls.ergodic and cls.reversible
    assert cls.min_self_loop == 0.25


def test_classify_dhn_not_reversible():
    chain = dhn(4)
    cls = classify(chain)
    assert cls.ergodic and not cls.reversible
    # detailed balance fails on a cycle edge: flow one way only
    i, j = 1, 2
    assert chain.pi[i] * chain.P[i, j] > 0
    assert chain.P[j, i] == 0.0


def test_classify_tiny_mass_chain_not_reversible():
    # pi(a)P(a,c) and pi(c)P(c,a) are both below 1e-12 but differ by 80%
    # relative; Kolmogorov's criterion fails on the cycle a -> b -> c -> a
    chain = tiny_mass_chain()
    F = chain.pi[:, None] * chain.P
    assert abs(F[0, 2] - F[2, 0]) < 1e-12
    assert classify(chain).reversible is False
    P = chain.P
    assert (P[0, 1] * P[1, 2] * P[2, 0]) / (P[0, 2] * P[2, 1] * P[1, 0]) < 0.2


def test_classify_reducible_reports_period_zero():
    c3 = directed_cycle(3)
    product = multiply(time_reversal(c3), c3)
    cls = classify(product)
    assert not cls.irreducible and cls.period == 0 and not cls.aperiodic
    assert cls.reversible  # identity matrix is trivially balanced


def _bfs_period(adj: np.ndarray) -> int:
    """Reference: the Python BFS and per-edge gcd that classify used before."""
    n = adj.shape[0]
    depth = np.full(n, -1)
    depth[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u in range(n):
        for v in np.nonzero(adj[u])[0]:
            g = gcd(g, depth[u] + 1 - depth[v])
    return abs(g)


def _cycle_walk(n: int):
    """Simple random walk on the undirected n-cycle: bipartite for even n."""
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = P[i, (i - 1) % n] = 0.5
    return build_chain([f"s{i}" for i in range(n)], P, name=f"cycle_walk({n})")


def _cycle_with_chords():
    """Directed 6-cycle with chords 3 -> 0 and 5 -> 2 (cycles of length 4 and 6).

    The chord into the root spans the deepest BFS level, so its term
    d(u) + 1 - d(v) is the largest.  No term is ever negative: BFS depths
    satisfy d(v) <= d(u) + 1 on every edge u -> v.
    """
    P = np.zeros((6, 6))
    for i in range(6):
        P[i, (i + 1) % 6] = 1.0
    P[3] = P[5] = 0.0
    P[3, 4] = P[3, 0] = 0.5
    P[5, 0] = P[5, 2] = 0.5
    return build_chain([f"s{i}" for i in range(6)], P, name="cycle_with_chords")


def test_period_matches_bfs_reference():
    chains = [directed_cycle(k) for k in range(2, 8)]
    chains += [dhn(n) for n in (3, 4, 8)]
    chains += [_cycle_walk(6), _cycle_walk(7), _cycle_with_chords()]
    chains += [random_reversible(N, s) for N, s in ((2, 0), (5, 1), (12, 3), (30, 7), (64, 2))]
    chains += [doubly_stochastic(9, 4), doubly_stochastic(16, 1)]
    chains += [lazy(c) for c in chains]
    periods = {}
    for chain in chains:
        expected = _bfs_period(chain.support())
        assert classify(chain).period == expected, chain.name
        periods[chain.name] = expected
    assert [periods[f"directed_cycle(k={k})"] for k in range(2, 8)] == [2, 3, 4, 5, 6, 7]
    assert periods["cycle_walk(6)"] == 2 and periods["cycle_walk(7)"] == 1
    assert periods["cycle_with_chords"] == 2
    assert all(periods[c.name] == 1 for c in chains if c.name.startswith("lazy("))


def _random_support(rng, kind: int) -> np.ndarray:
    """A random support on 2 .. 40 states, every state with an out-edge, its
    states shuffled.  ``kind`` 0 is dense, 1 sparse, 2 block-cyclic with
    period 2 .. 5 (a third of them with one chord), 3 two blocks with edges
    one way only between them."""
    n = int(rng.integers(2, 41))
    if kind == 0:
        S = rng.random((n, n)) < rng.uniform(0.2, 0.9)
    elif kind == 1:
        S = rng.random((n, n)) < rng.uniform(0.5, 2.5) / n
    elif kind == 2:
        k = int(rng.integers(2, 6))
        n = max(n, k)
        block = np.r_[np.arange(k), rng.integers(0, k, n - k)]
        S = ((block[None, :] - block[:, None]) % k == 1) & (rng.random((n, n)) < rng.uniform(0.2, 1.0))
        for i in range(n):  # one edge into the next block
            S[i, rng.choice(np.flatnonzero(block == (block[i] + 1) % k))] = True
        if rng.random() < 1 / 3:
            S[rng.integers(n), rng.integers(n)] = True
    else:
        m = int(rng.integers(1, n))  # blocks 0 .. m-1 and m .. n-1
        S = rng.random((n, n)) < rng.uniform(0.2, 0.9)
        S[m:, :m] = False
        S[:m, m:] &= rng.random((m, n - m)) < 0.1
    empty = np.flatnonzero(~S.any(axis=1))
    S[empty, rng.integers(0, n, len(empty))] = True
    perm = rng.permutation(n)
    return S[np.ix_(perm, perm)]


def test_classify_matches_scipy_on_random_supports():
    """On 2,400 seeded random supports, dense, sparse, block-cyclic and
    reducible by one-way bridges, classify's irreducible, period and
    aperiodic equal scipy's strong components and the Python BFS period."""
    rng = np.random.default_rng(46)
    seen = set()
    for case in range(2400):
        S = _random_support(rng, case % 4)
        n = len(S)
        P = S * rng.uniform(0.1, 1.0, S.shape)
        cls = classify(Chain([f"s{i}" for i in range(n)], P / P.sum(axis=1, keepdims=True), np.full(n, 1 / n)))
        irreducible = connected_components(csr_array(S), connection="strong")[0] == 1
        period = _bfs_period(S) if irreducible else 0
        assert (cls.irreducible, cls.period, cls.aperiodic) == (irreducible, period, period == 1), (case, S)
        seen.add(period)
    assert seen == {0, 1, 2, 3, 4, 5}, seen


def test_time_reversal_involution_and_fixed_points():
    for chain in (two_state(0.3), random_reversible(6, seed=11)):
        rev = time_reversal(chain)
        assert np.abs(rev.P - chain.P).max() <= 1e-12
    d = dhn(2)
    rr = time_reversal(time_reversal(d))
    assert np.abs(rr.P - d.P).max() <= 1e-12


def test_time_reversal_formula_brute_force():
    d = dhn(2)
    rev = time_reversal(d)
    for i in range(4):
        for j in range(4):
            want = d.pi[j] * d.P[j, i] / d.pi[i]
            assert abs(rev.P[i, j] - want) <= 1e-15


def test_time_reversal_of_cycle_is_opposite_cycle():
    c3 = directed_cycle(3)
    rev = time_reversal(c3)
    np.testing.assert_allclose(rev.P, c3.P.T, atol=1e-15)


def test_time_reversal_requires_irreducible():
    c3 = directed_cycle(3)
    product = multiply(time_reversal(c3), c3)
    with pytest.raises(NotErgodic):
        time_reversal(product)


def test_multiply_shares_pi_and_checks():
    c3 = directed_cycle(3)
    prod = multiply(time_reversal(c3), c3)
    np.testing.assert_allclose(prod.P, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(prod.pi, c3.pi)
    with pytest.raises(DimensionMismatch):
        multiply(c3, two_state(0.25))
    skew = build_chain(["a", "b"], [[0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(StationaryMismatch):
        multiply(two_state(0.25), skew)


def test_reversal_product_of_dhn_is_reversible():
    d = dhn(2)
    prod = multiply(time_reversal(d), d)
    F = prod.pi[:, None] * prod.P
    assert np.abs(F - F.T).max() <= 1e-14


def test_lazy():
    flip = build_chain(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    lz = lazy(flip)
    np.testing.assert_allclose(lz.P, [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(lz.pi, flip.pi, atol=1e-12)
    assert classify(lazy(lazy(flip))).min_self_loop >= 0.75
    assert classify(lazy(directed_cycle(5))).aperiodic


def test_reversibilize():
    chain = two_state(0.3)
    np.testing.assert_allclose(reversibilize(chain).P, chain.P, atol=1e-14)
    c3 = directed_cycle(3)
    np.testing.assert_allclose(reversibilize(c3).P, 0.5 * (c3.P + c3.P.T), atol=1e-15)
    h = reversibilize(dhn(2))
    F = h.pi[:, None] * h.P
    assert np.abs(F - F.T).max() <= 1e-14
    assert classify(reversibilize(dhn(4))).reversible


def test_invariants_on_random_chains():
    for seed in range(10):
        chain = random_reversible(3 + seed % 7, seed=seed)
        assert np.abs(chain.pi @ chain.P - chain.pi).max() <= 1e-10
        assert np.abs(chain.P.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(lazy(chain).pi - chain.pi).max() <= 1e-12
        rr = time_reversal(time_reversal(chain))
        assert np.abs(rr.P - chain.P).max() <= 1e-12
        assert classify(reversibilize(chain)).reversible


def test_chain_is_immutable():
    chain = two_state(0.25)
    with pytest.raises(ValueError):
        chain.P[0, 0] = 0.5
    with pytest.raises(ValueError):
        chain.pi[0] = 0.9


def test_index_lookup():
    chain = two_state(0.25)
    assert chain.index("b") == 1
    assert chain.index(0) == 0
    with pytest.raises(DimensionMismatch):
        chain.index("z")
    with pytest.raises(DimensionMismatch):
        chain.index(5)


def test_the_constructor_checks_its_shapes_and_a_chain_reprs_its_name():
    with pytest.raises(DimensionMismatch, match="must be square"):
        Chain(["a"], [[1.0, 0.0]], [1.0])
    with pytest.raises(DimensionMismatch, match="sizes disagree"):
        Chain(["a"], [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(DimensionMismatch, match="sizes disagree"):
        Chain(["a", "b"], [[0.5, 0.5], [0.5, 0.5]], [1.0])
    assert repr(two_state(0.25)) == "Chain('two_state(delta=0.25)', n=2)"


def test_index_rejects_bools():
    chain = random_reversible(6, 1)
    for flag in (True, False, np.True_):
        with pytest.raises(DimensionMismatch):
            chain.index(flag)
    with pytest.raises(DimensionMismatch):
        discrete_mixing_time(chain, True, 0.25)
