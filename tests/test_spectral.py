"""Quadratic forms, eigenstructure, variational constants and conductance."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbounds import (
    Chain,
    build_chain,
    classify,
    conductance,
    dhn,
    dirichlet_form,
    directed_cycle,
    eigendecompose,
    f_form,
    full_report,
    lambda_constants,
    lazy,
    multiply,
    random_reversible,
    reconstruct_power,
    reversibilize,
    time_reversal,
    tv_distance,
    two_state,
    uniform_walk,
    variance,
)
from mixbounds import spectral
from mixbounds.chains import _require
from mixbounds.errors import (DimensionMismatch, IllConditioned, MixboundsError, NotErgodic, NotReversible,
                              TooLarge)
from mixbounds.mixing import _gamma

from _families import doubly_stochastic, quadratic_forms, rayleigh_minimum, tiny_mass_chain


# ---------------------------------------------------------------- forms


def test_dirichlet_form_examples():
    chain = two_state(0.25)
    assert dirichlet_form(chain, [3.0, 3.0]) == 0.0
    assert abs(dirichlet_form(chain, [0.0, 1.0]) - (1 - 0.25) / 2) <= 1e-15
    n = 4
    d = dhn(n)
    phi = [abs(int(lbl)) for lbl in d.labels]
    assert abs(dirichlet_form(d, phi) - (1 - 1 / n) / 2) <= 1e-12


def test_f_form_examples():
    chain = two_state(0.25)
    assert abs(f_form(chain, [1.0, -1.0]) - 2 * 0.25) <= 1e-15
    assert f_form(chain, [0.0, 0.0]) == 0.0
    assert abs(f_form(chain, [0.0, 1.0]) - (1 + 0.25) / 2) <= 1e-15


def test_form_dimension_checks():
    chain = two_state(0.25)
    with pytest.raises(DimensionMismatch):
        dirichlet_form(chain, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        f_form(chain, [1.0])
    with pytest.raises(DimensionMismatch):
        variance([0.5, 0.5], [1.0])


def test_variance_examples():
    assert variance([0.5, 0.5], [7.0, 7.0]) == 0.0
    assert abs(variance([0.5, 0.5], [0.0, 1.0]) - 0.25) <= 1e-15
    for n in (2, 4, 8):
        d = dhn(n)
        phi = [abs(int(lbl)) for lbl in d.labels]
        assert abs(variance(d.pi, phi) - (n * n + 2) / 12) <= 1e-10


def test_variance_matches_pairwise_form():
    rng = np.random.default_rng(5)
    chain = random_reversible(7, seed=5)
    for _ in range(20):
        phi = rng.standard_normal(7)
        pairwise = 0.5 * float(
            np.sum(np.outer(chain.pi, chain.pi) * (phi[:, None] - phi[None, :]) ** 2)
        )
        assert abs(variance(chain.pi, phi) - pairwise) <= 1e-10


def test_forms_match_reversibilization():
    rng = np.random.default_rng(17)
    for chain in (dhn(3), directed_cycle(4), doubly_stochastic(6, seed=2)):
        rev = reversibilize(chain)
        for _ in range(100):
            phi = rng.standard_normal(chain.n)
            assert abs(dirichlet_form(chain, phi) - dirichlet_form(rev, phi)) <= 1e-10
            assert abs(f_form(chain, phi) - f_form(rev, phi)) <= 1e-10



def _random_nonreversible(n: int, seed: int) -> Chain:
    """Positive random rows: nonreversible, with a nonuniform pi."""
    P = np.random.default_rng(seed).random((n, n)) + 0.05
    return build_chain(list(range(n)), P / P.sum(axis=1, keepdims=True))


def test_forms_variance_and_tv_keep_their_bits():
    """The forms, the variance and the TV distance equal the formulas written
    out below, bit for bit, over phi at scales 1e-5 to 1e5 on reversible and
    nonreversible chains."""
    rng = np.random.default_rng(39)
    chains = ([random_reversible(n, seed=s) for n, s in ((2, 0), (5, 1), (9, 2), (16, 3))]
              + [_random_nonreversible(n, n) for n in (3, 7, 12)]
              + [dhn(4), directed_cycle(5), doubly_stochastic(8, seed=1)])
    for chain in chains:
        q = chain.pi[:, None] * chain.P
        for scale in 10.0 ** np.arange(-5, 6):
            phi, psi = scale * rng.standard_normal((2, chain.n))
            d, s = phi[:, None] - phi[None, :], phi[:, None] + phi[None, :]
            mu = float(chain.pi @ phi)
            got = (dirichlet_form(chain, phi), f_form(chain, phi), variance(chain.pi, phi),
                   tv_distance(phi, psi), tv_distance(chain.pi, chain.P[0]))
            want = (0.5 * float(np.sum(q * d * d)), 0.5 * float(np.sum(q * s * s)),
                    float(chain.pi @ ((phi - mu) * (phi - mu))), 0.5 * float(np.abs(phi - psi).sum()),
                    0.5 * float(np.abs(chain.pi - chain.P[0]).sum()))
            assert [g.hex() for g in got] == [w.hex() for w in want], (chain.name, scale)


# ---------------------------------------------------------------- spectrum


def test_eigendecompose_two_state():
    s = eigendecompose(two_state(0.25))
    np.testing.assert_allclose(s.betas, [1.0, -0.5], atol=1e-12)
    assert abs(s.beta_max - 0.5) <= 1e-12
    s_lazy = eigendecompose(lazy(two_state(0.25)))
    np.testing.assert_allclose(s_lazy.betas, [1.0, 0.25], atol=1e-12)
    s_uni = eigendecompose(uniform_walk(2))
    np.testing.assert_allclose(s_uni.betas, [1.0, 0.0], atol=1e-12)


def test_eigendecompose_invariants():
    for chain in (two_state(0.1), random_reversible(9, seed=3), lazy(random_reversible(5, seed=8))):
        s = eigendecompose(chain)
        assert abs(s.betas[0] - 1.0) <= 1e-10
        assert s.betas[-1] > -1.0 - 1e-10
        gram = s.vectors @ s.vectors.T
        assert np.abs(gram - np.eye(chain.n)).max() <= 1e-8
        assert np.abs(s.vectors[0] - np.sqrt(chain.pi)).max() <= 1e-8
        # left eigenvector property of the symmetrised matrix
        d = np.sqrt(chain.pi)
        A = (d[:, None] / d[None, :]) * chain.P
        for i in range(chain.n):
            assert np.abs(s.vectors[i] @ A - s.betas[i] * s.vectors[i]).max() <= 1e-8


def test_eigendecompose_gates():
    with pytest.raises(NotReversible):
        eigendecompose(dhn(4))
    c3 = directed_cycle(3)
    with pytest.raises(NotErgodic):
        eigendecompose(multiply(time_reversal(c3), c3))


def test_lambda_constants():
    for delta in (0.1, 0.25, 0.4):
        lam1, lam_bot = lambda_constants(two_state(delta))
        assert abs(lam1 - (2 - 2 * delta)) <= 1e-12
        assert abs(lam_bot - 2 * delta) <= 1e-12
    lam1, _ = lambda_constants(directed_cycle(3))
    assert abs(lam1 - 1.5) <= 1e-12
    with pytest.raises(NotErgodic):
        c3 = directed_cycle(3)
        lambda_constants(multiply(time_reversal(c3), c3))


def test_rayleigh_quotient_dominates_constants():
    rng = np.random.default_rng(23)
    for chain in (two_state(0.2), random_reversible(6, seed=1), dhn(3)):
        lam1, lam_bot = lambda_constants(chain)
        for _ in range(200):
            phi = rng.standard_normal(chain.n)
            if np.ptp(phi) == 0.0:
                continue
            var = variance(chain.pi, phi)
            assert dirichlet_form(chain, phi) / var >= lam1 - 1e-9
            assert f_form(chain, phi) / var >= lam_bot - 1e-9


def test_lambda_matches_coordinate_descent_oracle():
    for chain, seed in ((two_state(0.3), 0), (random_reversible(5, seed=4), 1),
                        (random_reversible(7, seed=9), 2)):
        diff, summ, var = quadratic_forms(chain)
        lam1, lam_bot = lambda_constants(chain)
        assert abs(rayleigh_minimum(diff, var, seed=seed) - lam1) <= 1e-6
        assert abs(rayleigh_minimum(summ, var, seed=seed) - lam_bot) <= 1e-6


def test_reconstruct_power_matches_direct_powers():
    for chain in (two_state(0.25), random_reversible(7, seed=3), lazy(random_reversible(4, seed=6))):
        s = eigendecompose(chain)
        direct = np.eye(chain.n)
        for n in range(0, 21):
            rebuilt = reconstruct_power(s, chain.pi, n)
            assert np.abs(rebuilt - direct).max() <= 1e-9
            direct = direct @ chain.P


# ---------------------------------------------------------------- conductance


def test_conductance_two_state():
    phi, phi_asym, argmin = conductance(two_state(0.25))
    assert abs(phi - 2 * (1 - 0.25)) <= 1e-12
    assert abs(phi_asym - (1 - 0.25)) <= 1e-12
    assert argmin == (0,)


def test_conductance_directed_cycle():
    phi, _, _ = conductance(directed_cycle(3))
    assert abs(phi - 1.5) <= 1e-12


def test_conductance_uniform_walk():
    # single nontrivial cut; same chain as two_state at delta = 1/2
    phi, phi_asym, argmin = conductance(uniform_walk(2))
    assert abs(phi - 1.0) <= 1e-12
    assert abs(phi_asym - 0.5) <= 1e-12
    assert argmin == (0,)
    phi_ts, _, _ = conductance(two_state(0.5))
    assert abs(phi - phi_ts) <= 1e-15
    # every cut has conductance 1, so the tie goes to the smallest bitmask
    for n in (6, 14, 15):
        phi, _, argmin = conductance(uniform_walk(n))
        assert abs(phi - 1.0) <= 1e-12
        assert argmin == (0,)


def test_conductance_matches_indicator_quotient():
    chain = random_reversible(6, seed=12)
    phi, _, argmin = conductance(chain)
    members = np.zeros(chain.n)
    members[list(argmin)] = 1.0
    quotient = dirichlet_form(chain, members) / variance(chain.pi, members)
    assert abs(phi - quotient) <= 1e-12
    # the minimising cut really is minimal among all indicator quotients
    for mask in range(1, 2**chain.n - 1):
        ind = np.array([(mask >> i) & 1 for i in range(chain.n)], dtype=float)
        q = dirichlet_form(chain, ind) / variance(chain.pi, ind)
        assert q >= phi - 1e-12


def test_conductance_gates():
    with pytest.raises(TooLarge):
        conductance(uniform_walk(25))
    c3 = directed_cycle(3)
    with pytest.raises(NotErgodic):
        conductance(multiply(time_reversal(c3), c3))
    # cut flows out of and into {c} differ by about 2e-4 of the flow
    with pytest.raises(IllConditioned):
        conductance(tiny_mass_chain())
    with pytest.raises(IllConditioned):
        full_report(tiny_mass_chain(), x=2)


def test_gap_sandwich_on_battery():
    chains = [
        two_state(0.25),
        uniform_walk(4),
        random_reversible(6, seed=0),
        dhn(3),
        directed_cycle(3),
        doubly_stochastic(5, seed=7),
    ]
    for chain in chains:
        if not classify(chain).irreducible:
            continue
        lam1, _ = lambda_constants(chain)
        phi, _, _ = conductance(chain)
        assert lam1 <= phi + 1e-12
        assert lam1 >= phi * phi / 8 - 1e-12


def _conductance_by_cut_loop(chain):
    """Reference: one cut at a time, in ascending bitmask order, first minimum kept."""
    n = chain.n
    Q = chain.pi[:, None] * chain.P
    pi = chain.pi
    best = np.inf
    best_asym = np.inf
    best_set = ()
    all_states = np.arange(n)
    for mask in range(0, (1 << (n - 1)) - 1):
        members = np.zeros(n, dtype=bool)
        members[0] = True
        members[1:] = [(mask >> j) & 1 for j in range(n - 1)]
        idx = all_states[members]
        cidx = all_states[~members]
        cross = Q[np.ix_(idx, cidx)].sum()
        pi_s = pi[idx].sum()
        pi_c = 1.0 - pi_s
        single = cross / (pi_s * pi_c)
        if single < best:
            best = single
            best_set = tuple(int(i) for i in idx)
        if pi_s <= 0.5 + 1e-12:
            best_asym = min(best_asym, single * pi_c)
        if pi_c <= 0.5 + 1e-12:
            best_asym = min(best_asym, single * pi_s)
    return float(best), float(best_asym), best_set


def _two_blocks(coupling: float, k: int = 7):
    """Walk on two weighted k-cliques joined by one edge of the given weight.

    Built with its exact stationary law (degree over total weight), so the
    cut flows balance to rounding even when the coupling is tiny.
    """
    rng = np.random.default_rng(3)
    W = np.zeros((2 * k, 2 * k))
    for block in (slice(0, k), slice(k, 2 * k)):
        A = rng.uniform(0.5, 2.0, (k, k))
        W[block, block] = A + A.T
    W[k - 1, k] = W[k, k - 1] = coupling
    degree = W.sum(axis=1)
    return Chain([f"s{i}" for i in range(2 * k)], W / degree[:, None], degree / degree.sum(),
                 name=f"two_blocks({coupling:g})")


def test_conductance_matches_cut_loop():
    chains = [random_reversible(n, seed=n) for n in range(2, 16)]
    chains += [doubly_stochastic(9, seed=4), dhn(4)]
    chains += [_two_blocks(c) for c in (1e-4, 1e-8, 1e-10, 1e-12)]
    for chain in chains:
        phi, phi_asym, argmin = conductance(chain)
        want_phi, want_asym, want_argmin = _conductance_by_cut_loop(chain)
        assert abs(phi - want_phi) <= 1e-12 * want_phi, chain.name
        assert abs(phi_asym - want_asym) <= 1e-12 * want_asym, chain.name
        assert argmin == want_argmin, chain.name


def test_conductance_keeps_tiny_complement_mass():
    # state c carries stationary mass ~5e-16 and leaves with probability 1e-3;
    # pi({c}) = 1 - pi({a, b}) would lose most of its digits
    w = 1e-16
    W = np.array([[100.0, 1.0, 0.0], [1.0, 100.0, w], [0.0, w, 999 * w]])
    degree = W.sum(axis=1)
    chain = Chain(["a", "b", "c"], W / degree[:, None], degree / degree.sum())
    phi, phi_asym, argmin = conductance(chain)
    assert argmin == (0, 1)
    assert abs(phi - 1e-3 / (1.0 - chain.pi[2])) <= 1e-12 * phi
    assert abs(phi_asym - 1e-3) <= 1e-12 * phi_asym


# ------------------------------------------------- the balance certificate


def _membership_matrix(m, lead):
    M = np.ones((1 << m, lead + m))
    M[:, lead:] = (np.arange(1 << m, dtype=np.uint16)[:, None] >> np.arange(m, dtype=np.uint16)) & 1
    return M


def _illconditioned(worst):
    return IllConditioned(
        f"stationary cut flows out of and into a cut differ by {worst:.3e} of the "
        f"flow (tolerance {spectral._BALANCE_TOL:g}): the stationary distribution is too "
        "inaccurate for an exact conductance"
    )


def _conductance_checking_every_cut(chain):
    """Oracle: ``conductance`` in its chunk layout, without the balance
    certificate or the one-pass asymmetric minimum.  Every chunk computes its
    flows into the cuts and tests each cut, and the asymmetric minimum takes
    each side's qualifying cuts in turn."""
    n = chain.n
    if n > spectral.MAX_CONDUCTANCE_STATES:
        raise TooLarge(f"exact conductance enumerates every cut and is limited to "
                       f"{spectral.MAX_CONDUCTANCE_STATES} states")
    _require(chain, "irreducible", "conductance")
    Q = chain.pi[:, None] * chain.P
    pi = chain.pi
    low_bits = min(n - 1, spectral._LOW_BITS)
    high_bits = n - 1 - low_bits
    lo, hi = slice(0, low_bits + 1), slice(low_bits + 1, n)
    M = _membership_matrix(low_bits, lead=1)
    C = 1.0 - M
    every_H = _membership_matrix(high_bits, lead=0)
    size = 1 << max(0, spectral._CHUNK_BITS - low_bits)
    cut_flows = spectral._cut_flows

    def flows(Q, H, Hc):
        f = (Hc @ Q[lo, hi].T) @ M.T
        f += cut_flows(M, C, Q[lo, lo])
        f += (H @ Q[hi, lo]) @ C.T
        f += cut_flows(H, Hc, Q[hi, hi])[:, None]
        return f.ravel()

    def chunk(h0):
        H = every_H[h0:h0 + size]
        Hc = 1.0 - H
        cross, back = flows(Q, H, Hc), flows(Q.T, H, Hc)
        pi_s = np.add.outer(H @ pi[hi], M @ pi[lo]).ravel()
        pi_c = np.add.outer(Hc @ pi[hi], C @ pi[lo]).ravel()
        if h0 + size >= len(every_H):
            cross, back, pi_s, pi_c = cross[:-1], back[:-1], pi_s[:-1], pi_c[:-1]
        imbalance = np.abs(cross - back)
        if np.any(imbalance > spectral._BALANCE_TOL * cross):
            raise _illconditioned(float(np.max(imbalance / cross)))
        return cross / (pi_s * pi_c), pi_s, pi_c

    starts = range(0, len(every_H), size)
    chunk_min = np.empty(len(starts))
    best_asym = np.inf
    for c, h0 in enumerate(starts):
        single, pi_s, pi_c = chunk(h0)
        chunk_min[c] = single.min()
        best_asym = min(best_asym, np.where(pi_s <= 0.5 + 1e-12, single * pi_c, np.inf).min(),
                        np.where(pi_c <= 0.5 + 1e-12, single * pi_s, np.inf).min())
    best = float(chunk_min.min())
    cutoff = best * (1.0 + spectral._TIE_TOL)
    h0 = starts[int(np.argmax(chunk_min <= cutoff))]
    mask = (h0 << low_bits) + int(np.argmax(chunk(h0)[0] <= cutoff))
    return best, float(best_asym), (0,) + tuple(j + 1 for j in range(n - 1) if (mask >> j) & 1)


def _conductance_in_4096_cut_blocks(chain):
    """Oracle: ``conductance`` before its chunk layout and its balance
    certificate.  The low part is {0 .. 12}, each subset of the high part is
    one numpy block of 4,096 cuts, and every block tests each cut."""
    n = chain.n
    if n > spectral.MAX_CONDUCTANCE_STATES:
        raise TooLarge(f"exact conductance enumerates every cut and is limited to "
                       f"{spectral.MAX_CONDUCTANCE_STATES} states")
    _require(chain, "irreducible", "conductance")
    Q = chain.pi[:, None] * chain.P
    pi = chain.pi
    low_bits = min(n - 1, 12)
    lo, hi = slice(0, low_bits + 1), slice(low_bits + 1, n)
    M = _membership_matrix(low_bits, lead=1)
    C = 1.0 - M
    H = _membership_matrix(n - 1 - low_bits, lead=0)
    Hc = 1.0 - H
    Qll, Qlh, Qhl, Qhh = Q[lo, lo], Q[lo, hi], Q[hi, lo], Q[hi, hi]
    cut_flows = spectral._cut_flows
    out_low, in_low = cut_flows(M, C, Qll), cut_flows(M, C, Qll.T)
    out_high, in_high = cut_flows(H, Hc, Qhh), cut_flows(H, Hc, Qhh.T)
    low_to_hc, h_to_low = Hc @ Qlh.T, H @ Qhl
    hc_to_low, low_to_h = Hc @ Qhl, H @ Qlh.T
    pi_low_s, pi_low_c = M @ pi[lo], C @ pi[lo]
    pi_h, pi_hc = H @ pi[hi], Hc @ pi[hi]
    last = H.shape[0] - 1
    tol = spectral._BALANCE_TOL

    def block(h):
        cross = out_low + M @ low_to_hc[h] + C @ h_to_low[h] + out_high[h]
        back = in_low + M @ hc_to_low[h] + C @ low_to_h[h] + in_high[h]
        pi_s = pi_low_s + pi_h[h]
        pi_c = pi_low_c + pi_hc[h]
        if h == last:
            cross, back, pi_s, pi_c = cross[:-1], back[:-1], pi_s[:-1], pi_c[:-1]
        imbalance = np.abs(cross - back)
        if np.any(imbalance > tol * cross):
            raise _illconditioned(float(np.max(imbalance / cross)))
        return cross / (pi_s * pi_c), pi_s, pi_c

    block_min = np.empty(last + 1)
    best_asym = np.inf
    for h in range(last + 1):
        single, pi_s, pi_c = block(h)
        block_min[h] = single.min()
        best_asym = min(best_asym, np.where(pi_s <= 0.5 + 1e-12, single * pi_c, np.inf).min(),
                        np.where(pi_c <= 0.5 + 1e-12, single * pi_s, np.inf).min())
    best = float(block_min.min())
    cutoff = best * (1.0 + spectral._TIE_TOL)
    h = int(np.argmax(block_min <= cutoff))
    r = int(np.argmax(block(h)[0] <= cutoff))
    mask = (h << low_bits) | r
    return best, float(best_asym), (0,) + tuple(j + 1 for j in range(n - 1) if (mask >> j) & 1)


def _outcome(fn, chain):
    """(Phi, asymmetric Phi) as hex and the argmin, or the error's class and message."""
    try:
        phi, phi_asym, argmin = fn(chain)
    except MixboundsError as error:
        return type(error), str(error)
    return phi.hex(), phi_asym.hex(), argmin


def _sparse_chain(n, seed):
    """A random sparse nonreversible chain: a directed n-cycle plus about 40%
    of the other edges, with random weights."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.4)
    W += np.roll(np.eye(n), 1, axis=1) * rng.uniform(0.1, 1.0, size=(n, 1))
    return build_chain(list(range(n)), W / W.sum(axis=1, keepdims=True), name=f"sparse({n}, {seed})")


def _sweep_chains():
    """181 chains of 2 to 18 states; 22 of them raise IllConditioned."""
    chains = [random_reversible(n, j) for n in range(2, 19) for j in range(4)]
    chains += [uniform_walk(n) for n in range(2, 17)]
    chains += [dhn(k) for k in range(2, 10)]
    chains += [directed_cycle(n) for n in range(3, 11)]
    chains += [two_state(d) for d in (1e-6, 0.1, 0.25, 0.5, 0.9)]
    chains += [lazy(random_reversible(n, 1)) for n in (4, 7, 10, 13, 16)]
    chains += [lazy(dhn(k)) for k in (3, 6)]
    chains += [tiny_mass_chain(10.0 ** -e) for e in range(3, 15)]
    for k in (5, 7, 9):
        for e in range(2, 15, 2):
            exact = _two_blocks(10.0 ** -e, k)
            chains += [exact, build_chain(list(exact.labels), exact.P, name=f"lu {exact.name}")]
    chains += [_sparse_chain(n, seed) for n in (4, 6, 8, 10, 12, 14, 16, 18) for seed in range(2)]
    return chains


def test_conductance_equals_the_every_cut_check_bit_for_bit():
    """Phi, the asymmetric Phi and the argmin hex-equal to the oracle's, or
    the same error with the same message."""
    chains = _sweep_chains()
    outcomes = [(_outcome(conductance, c), _outcome(_conductance_checking_every_cut, c)) for c in chains]
    for (got, want), chain in zip(outcomes, chains):
        assert got == want, chain.name
    assert sum(isinstance(got[0], type) for got, _ in outcomes) == 22


def _result(fn, chain):
    """``fn(chain)``, or the class of the error it raised."""
    try:
        return fn(chain)
    except MixboundsError as error:
        return type(error)


def test_conductance_agrees_with_the_4096_cut_blocks():
    """The chunk layout sums the same nonnegative terms of each cut flow and
    each mass as the old blocks, in another grouping.  By the docstring's
    bound a cut flow lies within gamma_(2N+1) of its value, and a mass within
    gamma_(N-2), so a cut's ratio, and its ratio times a mass, lies within
    gamma_(3N+2) <= 2 gamma_(2N+1) of its value on either layout: the two
    differ by at most 4 gamma_(2N+1)."""
    chains = _sweep_chains() + [random_reversible(n, j) for n in range(19, 25) for j in range(2)]
    for chain in chains:
        got, want = _result(conductance, chain), _result(_conductance_in_4096_cut_blocks, chain)
        if isinstance(want, type) or isinstance(got, type):
            assert got == want, chain.name
            continue
        tol = 4.0 * _gamma(2 * chain.n + 1)
        assert math.isclose(got[0], want[0], rel_tol=tol, abs_tol=0.0), chain.name
        assert math.isclose(got[1], want[1], rel_tol=tol, abs_tol=0.0), chain.name
        assert got[2] == want[2], chain.name


def test_conductance_at_24_states_keeps_only_the_low_rows():
    """The high part's membership rows are made per chunk: a call at N = 24
    holds no 2^15-row matrix and leaves only the low part's rows cached."""
    chain = random_reversible(24, 1)
    spectral._membership.cache_clear()
    tracemalloc.start()
    try:
        conductance(chain)
        cached, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6
    assert cached <= 0.1e6


@pytest.mark.parametrize("n", [9, 10, 16, 17, 23, 24])
def test_conductance_ties_across_chunks_go_to_the_smallest_bitmask(n):
    """Every cut of the uniform walk has conductance 1; these sizes cross the
    low part's boundary and make several chunks."""
    phi, _, argmin = conductance(uniform_walk(n))
    assert abs(phi - 1.0) <= 1e-12
    assert argmin == (0,)


def _cycle_walk(order):
    """The simple random walk on the cycle visiting the states in ``order``."""
    n = len(order)
    P = np.zeros((n, n))
    for a, b in zip(order, order[1:] + order[:1]):
        P[a, b] = P[b, a] = 0.5
    return Chain(list(range(n)), P, np.full(n, 1.0 / n), name=f"cycle{order}")


@pytest.mark.parametrize("order", [[0, 9, 1, 2, 3, 4, 5, 6, 7, 8],
                                   [0, *np.random.default_rng(16).permutation(range(1, 16)).tolist()],
                                   [0, *np.random.default_rng(24).permutation(range(1, 24)).tolist()]])
def test_conductance_ties_within_a_chunk_go_to_the_smallest_bitmask(order):
    """The minimal cuts of a cycle walk are its arcs of N/2 states, which tie;
    on the first order the arc {0, 9, 1, 2, 3} comes first by its low row and
    the arc {5, 6, 7, 8, 0} by its bitmask."""
    n = len(order)
    arcs = [{order[(start + i) % n] for i in range(n // 2)} for start in range(n)]
    mask = min(sum(1 << (x - 1) for x in arc if x) for arc in arcs if 0 in arc)
    phi, _, argmin = conductance(_cycle_walk(order))
    assert abs(phi - 4.0 / n) <= 1e-12
    assert argmin == (0,) + tuple(j + 1 for j in range(n - 1) if (mask >> j) & 1)


def test_conductance_asymmetric_minimum_where_both_or_neither_side_qualifies():
    """Both sides of the one cut of ``both`` weigh at most 1/2 + 1e-12, so
    its asymmetric value takes the smaller; ``neither``'s pi sums to 1 +
    1e-9, so neither side of its cut {0, 1} qualifies, though it has the
    smallest ratio."""
    p0 = 0.5 - 4e-13
    both = Chain(["a", "b"], [[0.7, 0.3], [0.3 * p0 / (1 - p0), 1 - 0.3 * p0 / (1 - p0)]], [p0, 1 - p0])
    W = np.array([[0.1, 0.1, 0.0], [0.1, 0.19, 0.01], [0.0, 0.01, 0.49]])
    degree = W.sum(axis=1)
    neither = Chain(["a", "b", "c"], W / degree[:, None], degree * (1 + 1e-9))
    for chain in (both, neither):
        assert _outcome(conductance, chain) == _outcome(_conductance_checking_every_cut, chain)
    phi, phi_asym, _ = conductance(both)
    assert phi_asym == phi * both.pi[0]
    phi, phi_asym, argmin = conductance(neither)
    assert argmin == (0, 1)
    assert phi_asym > 0.3 > phi


@st.composite
def _wide_mass_chains(draw):
    """Metropolis chains on a ring plus random chords whose stationary
    masses span 1e-14 to 1; with a flag, each off-diagonal entry is scaled
    by a random factor in [1/4, 1], which breaks reversibility."""
    n = draw(st.integers(3, 10))
    logs = np.array(draw(st.lists(st.floats(-14.0, 0.0), min_size=n, max_size=n)))
    logs[draw(st.integers(0, n - 1))] = 0.0
    mass = 10.0 ** logs
    K = np.roll(np.eye(n), 1, axis=1)
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    for i, j in chords:
        K[i, j] = 1.0
    K = np.maximum(K, K.T) / n
    np.fill_diagonal(K, 0.0)
    P = K * np.minimum(1.0, mass[None, :] / mass[:, None])
    if draw(st.booleans()):
        P *= np.array(draw(st.lists(st.floats(0.25, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return build_chain(list(range(n)), P)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_wide_mass_chains())
def test_conductance_equals_the_every_cut_check_on_wide_masses(chain):
    assert _outcome(conductance, chain) == _outcome(_conductance_checking_every_cut, chain)


def _count_flow_parts(monkeypatch):
    """Count the calls of ``_flow_parts``: one makes the flows out of the cuts,
    a second the flows into them."""
    calls = []
    parts = spectral._flow_parts

    def counting(*args):
        calls.append(args)
        return parts(*args)

    monkeypatch.setattr(spectral, "_flow_parts", counting)
    return calls


def test_certified_blocks_make_no_flows_into_the_cuts(monkeypatch):
    calls = _count_flow_parts(monkeypatch)
    for chain in [random_reversible(n, j) for n in range(12, 19) for j in range(4)] + [uniform_walk(14), dhn(4)]:
        calls.clear()
        conductance(chain)
        assert len(calls) == 1, chain.name


def test_open_blocks_check_every_cut(monkeypatch):
    """A block the certificate leaves open makes the flows into its cuts, once
    per call, and tests each cut."""
    calls = _count_flow_parts(monkeypatch)
    with pytest.raises(IllConditioned):
        conductance(tiny_mass_chain())
    assert len(calls) == 2
    for coupling in (1e-10, 1e-12):
        chain = _two_blocks(coupling)
        calls.clear()
        got = conductance(chain)
        assert len(calls) == 2
        assert got == _conductance_checking_every_cut(chain)
