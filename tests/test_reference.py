"""Float spectra and continuized brackets against the 40-digit reference of
``_reference``."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mixbounds import (classify, conductance, conductance_bounds, continuous_mixing_time, dhn, directed_cycle,
                       eigendecompose, lambda_constants, lazy, random_reversible, reversibilize, two_state,
                       uniform_walk)
from mixbounds.errors import IllConditioned
from mixbounds.spectral import _eigenvalues

from _exact import cut_conductances
from _families import tiny_mass_chain, two_blocks
from _reference import conductance as reference_conductance
from _reference import continuized_distances, spectrum

#: The symmetrised matrix has 2-norm 1, so a backward-stable symmetric
#: eigensolver returns each eigenvalue within a small multiple of n u of the
#: true one (u = 2^-53), and forming the matrix adds a few u per entry.  The
#: largest error on the chains below was 0.77 n u, by either solver.
SPECTRUM_TOL = 16 * 2.0**-53

CHAINS = {
    # criterion 01's tie, at delta = 1/4
    "two_state(1/4)": lambda: two_state(0.25),
    # O16 at equality
    "uniform_walk(5)": lambda: uniform_walk(5),
    # every nontrivial eigenvalue is 0, so beta_max is rounding noise
    "uniform_walk(6)": lambda: uniform_walk(6),
    "random_reversible(10, 3)": lambda: random_reversible(10, 3),
    "random_reversible(6, 1)": lambda: random_reversible(6, 1),
    # a chain and its own lazy chain
    "random_reversible(8, 2)": lambda: random_reversible(8, 2),
    "lazy(random_reversible(8, 2))": lambda: lazy(random_reversible(8, 2)),
    # a stationary mass of order 1e-13
    "tiny_mass_chain": tiny_mass_chain,
    # nonreversible, and nonreversible and periodic
    "dhn(3)": lambda: dhn(3),
    "lazy(dhn(3))": lambda: lazy(dhn(3)),
    "directed_cycle(5)": lambda: directed_cycle(5),
    # two blocks that swap rarely: a gap of about 6e-6
    "two_blocks(5, ln 5 / (3 2^18))": lambda: two_blocks(5, math.log(5) / (3 * 2**18)),
}


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_both_eigensolvers_lie_within_the_bound_of_a_40_digit_reference(case):
    """beta_1, beta_min and beta_max from ``eigendecompose`` and from the
    values-only solver the reports use, on the chain or, when it is not
    reversible, on its reversibilization, and the two gaps of
    ``lambda_constants``, each within ``SPECTRUM_TOL`` n of the reference."""
    chain = CHAINS[case]()
    beta_1, beta_min, beta_max = spectrum(chain)
    tol = SPECTRUM_TOL * chain.n
    solved = chain if classify(chain).reversible else reversibilize(chain)
    summary = eigendecompose(solved)
    betas, values_max = _eigenvalues(solved)
    lam_1, lam_bottom = lambda_constants(chain)
    for name, got, want in [
        ("eigh beta_1", summary.betas[1], beta_1),
        ("eigh beta_min", summary.betas[-1], beta_min),
        ("eigh beta_max", summary.beta_max, beta_max),
        ("eigvalsh beta_1", betas[1], beta_1),
        ("eigvalsh beta_min", betas[-1], beta_min),
        ("eigvalsh beta_max", values_max, beta_max),
        ("lambda_1", lam_1, 1 - beta_1),
        ("lambda_bottom", lam_bottom, 1 + beta_min),
    ]:
        err = abs(mpmath.mpf(float(got)) - want)
        assert err <= tol, (name, float(got), mpmath.nstr(want, 20), float(err))


#: two_blocks mixes at times of 1e5 and more, which need as many series terms;
#: the others mix at times of 0.46 to 7.5.  Of these, random_reversible(10, 3),
#: (8, 2) and its lazy chain narrow the worst start over its live rows, the
#: others by full probes.
CONTINUIZED = sorted(case for case in CHAINS if not case.startswith("two_blocks"))


@pytest.mark.parametrize("case", CONTINUIZED)
def test_continuized_brackets_hold_against_a_40_digit_reference(case):
    """From the worst start and from 0, at eps 0.1 and 0.25, the 40-digit
    distance is above eps at the bracket's lower end (unless it is 0) and
    within eps at its upper end, the returned time."""
    chain = CHAINS[case]()
    results = {(x, eps): continuous_mixing_time(chain, x, eps) for x in (None, 0) for eps in (0.1, 0.25)}
    distances = continuized_distances(chain, {t for got in results.values() for t in got.bracket})
    for (x, eps), got in results.items():
        lo, hi = got.bracket
        d_lo, d_hi = (max(distances[t]) if x is None else distances[t][0] for t in (lo, hi))
        assert lo == 0.0 or d_lo > eps, (x, eps, lo, mpmath.nstr(d_lo, 20))
        assert d_hi <= eps, (x, eps, hi, mpmath.nstr(d_hi, 20))


#: A relative bound on the float conductance, recorded from the chains above
#: until the enumeration states its own error: the largest errors read 5.6e-16
#: for Phi (random_reversible(10, 3)) and 9.1e-16 for the asymmetric Phi
#: (lazy(random_reversible(8, 2))), so 16 n u holds them with room.  On
#: two_blocks the LU stationary distribution is off by about 1e-17 per state,
#: which is 4.0e-12 of its cut flow of 2e-6 (a float pi error, not the
#: enumeration's), so that chain gets its own recorded bound.
CONDUCTANCE_TOL = {"two_blocks(5, ln 5 / (3 2^18))": 1e-11}

#: the float cut flows of tiny_mass_chain do not balance within 1e-9
ILL_CONDITIONED = {"tiny_mass_chain"}


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_conductance_lies_within_a_recorded_bound_of_a_40_digit_reference(case):
    """Phi and the asymmetric Phi within the bound of the reference, and the
    returned cut's reference value too: on the uniform walks every cut ties
    in exact arithmetic, and the float P's rounding splits them by under
    3e-16, so the returned cut need not be the reference's least."""
    chain = CHAINS[case]()
    if case in ILL_CONDITIONED:
        with pytest.raises(IllConditioned):
            conductance(chain)
        return
    phi, phi_asym, argmin = conductance(chain)
    want, want_asym, cuts = reference_conductance(chain)
    tol = CONDUCTANCE_TOL.get(case, SPECTRUM_TOL * chain.n)
    errors = {"Phi": abs(mpmath.mpf(phi) - want) / want,
              "asymmetric Phi": abs(mpmath.mpf(phi_asym) - want_asym) / want_asym,
              "the returned cut's value": (cuts[argmin] - want) / want}
    for name, err in errors.items():
        assert err <= tol, (name, argmin, mpmath.nstr(err, 3))


# ---------------------------------------------------------------- O16's identity on random_reversible


def _closed_form(chain):
    """1/((N - 1) pi_max) of a ``random_reversible`` chain, and its heaviest state h.

    The generator's chain has Q(x, y) = min(pi_x, pi_y) / (N - 1) for x != y.
    As min(pi_x, pi_y) >= pi_x pi_y / pi_h, its Dirichlet form is at least
    Var(f) / ((N - 1) pi_h) for every f, and the indicator of h attains that,
    so lambda_1 = 1/((N - 1) pi_h).  A conductance is the Dirichlet form of a
    cut's indicator over its variance, so Phi >= lambda_1, and the cut {h}
    attains it: Phi = lambda_1 too."""
    h = int(np.argmax(chain.pi))
    return 1.0 / ((chain.n - 1) * chain.pi[h]), h


@pytest.mark.parametrize("N", range(3, 25))
def test_lambda_1_and_phi_of_random_reversible_have_a_closed_form(N):
    """lambda_1 and Phi each within SPECTRUM_TOL n of the closed form, at the
    cut {h} or its complement (a returned cut holds state 0), so O16 (Phi >=
    lambda_1) is a tie within that bound."""
    tol = SPECTRUM_TOL * N
    for seed in range(4):
        chain = random_reversible(N, seed)
        want, h = _closed_form(chain)
        lam_1 = lambda_constants(chain)[0]
        phi, _, argmin = conductance(chain)
        assert abs(lam_1 - want) <= tol and abs(phi - want) <= tol, (seed, lam_1, phi, want)
        assert set(argmin) in ({h}, set(range(N)) - {h}), (seed, argmin, h)
        o16 = next(e for e in conductance_bounds(chain, None, None) if e.theorem == "O16")
        assert abs(o16.bound - o16.exact) <= tol, (seed, o16)


@pytest.mark.parametrize("N", [40, 100, 200])
def test_lambda_1_of_random_reversible_has_a_closed_form_past_the_cut_limit(N):
    for seed in range(4):
        chain = random_reversible(N, seed)
        assert abs(lambda_constants(chain)[0] - _closed_form(chain)[0]) <= SPECTRUM_TOL * N, seed


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("N", [3, 6, 8])
def test_o16_ties_exactly_on_the_chain_random_reversible_means(N, seed):
    """The chain ``random_reversible(N, seed)`` means, rebuilt in exact
    rationals from its own draw w: P(x, y) = min(1, w_y / w_x) / (N - 1).
    pi = w / sum(w) is stationary; f = 1_h - pi_h (pi-mean 0) has P f =
    (1 - a) f with a = 1/((N - 1) pi_h), so lambda_1 <= a; and the least
    conductance over every cut is a.  With lambda_1 >= a (``_closed_form``),
    O16 (Phi >= lambda_1) is an exact tie here."""
    w = [Fraction(v) for v in np.random.default_rng(seed).uniform(0.5, 2.0, N)]
    P = [[min(Fraction(1), w[y] / w[x]) / (N - 1) if y != x else Fraction(0) for y in range(N)] for x in range(N)]
    for x in range(N):
        P[x][x] = 1 - sum(P[x])
    assert np.all(np.abs(np.array(P, dtype=float) - random_reversible(N, seed).P) <= N * 2.0**-53)
    pi = [v / sum(w) for v in w]
    assert [sum(pi[x] * P[x][y] for x in range(N)) for y in range(N)] == pi
    h = max(range(N), key=pi.__getitem__)
    a = 1 / ((N - 1) * pi[h])
    f = [(x == h) - pi[h] for x in range(N)]
    assert [sum(P[x][y] * f[y] for y in range(N)) for x in range(N)] == [(1 - a) * v for v in f]
    phis = cut_conductances(P, pi)
    assert len(phis) == 2 ** (N - 1) - 1 and min(phis) == a


@pytest.mark.parametrize("make", [lambda: dhn(5), lambda: lazy(directed_cycle(9))], ids=["dhn(5)", "lazy-cycle-9"])
def test_o16_is_strict_off_the_closed_form(make):
    """Off the Metropolis chain O16 need not tie: here Phi clears lambda_1 by
    more than 0.4 relative."""
    o16 = next(e for e in conductance_bounds(make(), None, None) if e.theorem == "O16")
    assert o16.holds and (o16.bound - o16.exact) / o16.bound > 0.4, o16
