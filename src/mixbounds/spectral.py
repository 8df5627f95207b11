"""Quadratic forms, variational constants, eigenstructure and conductance.

State functions are plain numpy vectors (one real value per state).  The two
quadratic forms measured against the stationary edge weights pi(x)P(x,y) are

    dirichlet_form:  (1/2) sum_xy pi(x)P(x,y) (phi(x) - phi(y))^2
    f_form:          (1/2) sum_xy pi(x)P(x,y) (phi(x) + phi(y))^2

and their infima over non-constant phi, normalised by the variance, are the
spectral constants returned by :func:`lambda_constants`.  For a reversible
chain these equal the gaps of the second-highest and lowest eigenvalues; for
any other chain they are computed on the additive reversibilization, whose
forms coincide with the original ones because both integrands are symmetric
under swapping x and y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain, _require_irreducible, classify, reversibilize
from .errors import DimensionMismatch, IllConditioned, NotReversible, TooLarge

#: exact conductance limit (the enumeration visits 2^(N-1) - 1 cuts)
MAX_CONDUCTANCE_STATES = 24
#: conductance enumerates the cuts in blocks over states 0 .. _LOW_BITS
_LOW_BITS = 12
#: relative tolerance of the cut-flow balance and symmetric-value checks
_BALANCE_TOL = 1e-9
#: cut values within this relative distance of the minimum tie
_TIE_TOL = 1e-12


def _check_phi(chain: Chain, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (chain.n,):
        raise DimensionMismatch(f"state function has shape {phi.shape}, chain has {chain.n} states")
    if not np.all(np.isfinite(phi)):
        raise DimensionMismatch("state function has non-finite entries")
    return phi


def dirichlet_form(chain: Chain, phi) -> float:
    """(1/2) sum over state pairs of pi(x)P(x,y)(phi(x) - phi(y))^2; >= 0."""
    phi = _check_phi(chain, phi)
    q = chain.pi[:, None] * chain.P
    d = phi[:, None] - phi[None, :]
    return 0.5 * float(np.sum(q * d * d))


def f_form(chain: Chain, phi) -> float:
    """(1/2) sum over state pairs of pi(x)P(x,y)(phi(x) + phi(y))^2; >= 0."""
    phi = _check_phi(chain, phi)
    q = chain.pi[:, None] * chain.P
    s = phi[:, None] + phi[None, :]
    return 0.5 * float(np.sum(q * s * s))


def variance(pi, phi) -> float:
    """Variance of phi under the distribution pi."""
    pi = np.asarray(pi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if pi.shape != phi.shape:
        raise DimensionMismatch("pi and phi lengths differ")
    mu = float(pi @ phi)
    d = phi - mu
    return float(pi @ (d * d))


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenstructure of the symmetrised matrix of a reversible chain.

    ``betas`` holds the (real) eigenvalues sorted descending, so
    ``betas[0] == 1``.  ``vectors[i]`` is the orthonormal left eigenvector of
    ``A = D P D^{-1}`` (D = diag(sqrt(pi))) for ``betas[i]``; the first one
    equals sqrt(pi) up to sign (fixed positive here).  ``beta_max`` is
    ``max(betas[1], |betas[-1]|)``.
    """

    betas: np.ndarray
    vectors: np.ndarray
    beta_max: float

    def to_dict(self) -> dict:
        return {
            "betas": [float(b) for b in self.betas],
            "vectors": [[float(v) for v in row] for row in self.vectors],
            "beta_max": float(self.beta_max),
        }


def eigendecompose(chain: Chain) -> SpectralSummary:
    """Symmetric eigensolve of A = D P D^{-1} for a reversible chain.

    Requires an irreducible, reversible chain: detailed balance as tested by
    ``classify``, on every edge within a relative ``BALANCE_RTOL`` = 1e-9 of
    the edge flow.  Eigenvalues come back sorted descending with orthonormal
    vectors; the leading vector's sign is fixed so it matches sqrt(pi).
    """
    _require_irreducible(chain, "eigendecompose")
    if not classify(chain).reversible:
        raise NotReversible("eigendecompose requires a reversible chain")
    d = np.sqrt(chain.pi)
    A = (d[:, None] / d[None, :]) * chain.P
    A = 0.5 * (A + A.T)  # kill the <=1e-12 asymmetry left by detailed balance
    w, V = np.linalg.eigh(A)
    order = np.argsort(w)[::-1]
    betas = w[order]
    vectors = np.ascontiguousarray(V[:, order].T)
    if vectors[0] @ d < 0:
        vectors[0] = -vectors[0]
    beta_max = float(max(betas[1], abs(betas[-1])))
    return SpectralSummary(betas=betas, vectors=vectors, beta_max=beta_max)


def lambda_constants(chain: Chain) -> tuple[float, float]:
    """The two variational spectral constants (gap from 1, gap from -1).

    Reversible chain: ``1 - betas[1]`` and ``1 + betas[-1]``.  Otherwise both
    are computed on the additive reversibilization, which has the same
    quadratic forms (asserted by the test suite, not assumed silently).
    """
    _require_irreducible(chain, "lambda_constants")
    return _gaps(eigendecompose(chain if classify(chain).reversible else reversibilize(chain)))


def _gaps(summary: SpectralSummary) -> tuple[float, float]:
    """The gaps (1 - betas[1], 1 + betas[-1]) of a reversible chain's spectrum."""
    return float(1.0 - summary.betas[1]), float(1.0 + summary.betas[-1])


def reconstruct_power(summary: SpectralSummary, pi, n: int) -> np.ndarray:
    """n-step transition matrix rebuilt from the spectral data.

    Entry (j, k) is  pi(k) + sqrt(pi_k / pi_j) * sum_{i>=1} betas_i^n e_j^(i) e_k^(i).
    Matches the direct matrix power within 1e-9 for moderate n.
    """
    if n < 0:
        raise DimensionMismatch("n must be >= 0")
    pi = np.asarray(pi, dtype=float)
    B = summary.vectors[1:]
    coef = summary.betas[1:] ** n
    term = (B * coef[:, None]).T @ B
    root = np.sqrt(pi)
    return pi[None, :] + (root[None, :] / root[:, None]) * term


def _membership(m: int, lead: int) -> np.ndarray:
    """0/1 matrix of 2^m rows: ``lead`` columns of ones, then the binary digits
    of the row index, lowest first."""
    M = np.ones((1 << m, lead + m))
    M[:, lead:] = (np.arange(1 << m, dtype=np.uint16)[:, None] >> np.arange(m, dtype=np.uint16)) & 1
    return M


def _cut_flows(members: np.ndarray, outside: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Per row of a 0/1 membership matrix: the sum of Q[i, j] over i in, j out."""
    flows = members @ Q
    flows *= outside
    return flows.sum(axis=1)


def conductance(chain: Chain) -> tuple[float, float, tuple[int, ...]]:
    """Exact conductance by blocked enumeration of every cut (N <= 24).

    For a cut S the conductance is the stationary flow from S to its
    complement divided by pi(S) pi(S-bar).  Returns the minimum over cuts, the
    asymmetric variant (the same ratio additionally multiplied by pi(S-bar),
    minimised over cuts with pi(S) <= 1/2), and the minimising cut for the
    symmetric version.  Among cuts within a relative 1e-12 of the minimum the
    one with the smallest bitmask is returned, so rounding noise never picks
    the winner.

    Every one of the 2^(N-1) - 1 cuts containing state 0 is visited, in
    ascending bitmask order.  The states split into a low part {0 .. L},
    L = min(N-1, 12), and a high part; each subset H of the high part is one
    numpy block of the 2^L cuts S = S_low + H.  Every cut flow and every
    pi(S), pi(S-bar) is a sum of nonnegative terms, so no digits are lost when
    a flow or a mass is tiny, and a block needs O(2^L N) memory.

    Under stationarity the flows out of and into S are equal.  They are
    checked per cut to a relative 1e-9, and a larger imbalance, which only an
    inaccurate stationary distribution can cause, raises IllConditioned.
    """
    n = chain.n
    if n > MAX_CONDUCTANCE_STATES:
        raise TooLarge(f"exact conductance enumerates every cut and is limited to "
                       f"{MAX_CONDUCTANCE_STATES} states")
    _require_irreducible(chain, "conductance")

    Q = chain.pi[:, None] * chain.P
    pi = chain.pi
    low_bits = min(n - 1, _LOW_BITS)
    lo, hi = slice(0, low_bits + 1), slice(low_bits + 1, n)
    # row r: state 0, plus state j (1 <= j <= L) when bit j-1 of r is set, so
    # row r of block h is the bitmask h * 2^L + r over states 1 .. N-1
    M = _membership(low_bits, lead=1)
    C = 1.0 - M
    H = _membership(n - 1 - low_bits, lead=0)
    Hc = 1.0 - H
    Qll, Qlh, Qhl, Qhh = Q[lo, lo], Q[lo, hi], Q[hi, lo], Q[hi, hi]
    # flows within the low part, per row r; within the high part, per block h
    out_low, in_low = _cut_flows(M, C, Qll), _cut_flows(M, C, Qll.T)
    out_high, in_high = _cut_flows(H, Hc, Qhh), _cut_flows(H, Hc, Qhh.T)
    # per block h and low state i: flow from i into H-bar, and from H into i;
    # and the reverse directions
    low_to_hc, h_to_low = Hc @ Qlh.T, H @ Qhl
    hc_to_low, low_to_h = Hc @ Qhl, H @ Qlh.T
    pi_low_s, pi_low_c = M @ pi[lo], C @ pi[lo]
    pi_h, pi_hc = H @ pi[hi], Hc @ pi[hi]
    last = H.shape[0] - 1

    def block(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut values, pi(S) and pi(S-bar) of block h, the full set left out."""
        cross = out_low + M @ low_to_hc[h] + C @ h_to_low[h] + out_high[h]
        back = in_low + M @ hc_to_low[h] + C @ low_to_h[h] + in_high[h]
        pi_s = pi_low_s + pi_h[h]
        pi_c = pi_low_c + pi_hc[h]
        if h == last:
            cross, back, pi_s, pi_c = cross[:-1], back[:-1], pi_s[:-1], pi_c[:-1]
        imbalance = np.abs(cross - back)
        if np.any(imbalance > _BALANCE_TOL * cross):
            worst = float(np.max(imbalance / cross))
            raise IllConditioned(
                f"stationary cut flows out of and into a cut differ by {worst:.3e} of the "
                f"flow (tolerance {_BALANCE_TOL:g}): the stationary distribution is too "
                "inaccurate for an exact conductance"
            )
        denom = pi_s * pi_c
        single = cross / denom
        symmetric = (cross + back) / (2.0 * denom)
        if np.any(np.abs(symmetric - single) > _BALANCE_TOL * single):
            raise AssertionError("symmetric and single-sum cut values disagree")
        return single, pi_s, pi_c

    block_min = np.empty(last + 1)
    best_asym = np.inf
    for h in range(last + 1):
        single, pi_s, pi_c = block(h)
        block_min[h] = single.min()
        best_asym = min(best_asym,
                        np.min(single * pi_c, where=pi_s <= 0.5 + 1e-12, initial=np.inf),
                        np.min(single * pi_s, where=pi_c <= 0.5 + 1e-12, initial=np.inf))
    # smallest bitmask within the tie tolerance: its block is the first whose
    # minimum qualifies, and it is the first qualifying row of that block
    best = float(block_min.min())
    cutoff = best * (1.0 + _TIE_TOL)
    h = int(np.argmax(block_min <= cutoff))
    r = int(np.argmax(block(h)[0] <= cutoff))
    mask = (h << low_bits) | r
    best_set = (0,) + tuple(j + 1 for j in range(n - 1) if (mask >> j) & 1)
    return best, float(best_asym), best_set
