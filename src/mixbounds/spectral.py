"""Quadratic forms, variational constants, eigenstructure and conductance.

State functions are plain numpy vectors (one real value per state).  The two
quadratic forms measured against the stationary edge weights pi(x)P(x,y) are

    dirichlet_form:  (1/2) sum_xy pi(x)P(x,y) (phi(x) - phi(y))^2
    f_form:          (1/2) sum_xy pi(x)P(x,y) (phi(x) + phi(y))^2

and their infima over non-constant phi, normalised by the variance, are the
spectral constants returned by :func:`lambda_constants`.  Both integrands are
symmetric under swapping x and y, so the forms of P equal those of its
additive reversibilization (P + P*)/2, and the constants are the gaps of the
second-highest and lowest eigenvalues of (P + P*)/2.  Every spectrum here is
that of one symmetric matrix, (A + A^T)/2 with A = D P D^{-1} and D =
diag(sqrt(pi)) (``_symmetrised``): the chain's own spectrum when it is
reversible, its reversibilization's otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chains import Chain, _kept, _require
from .errors import BadParams, IllConditioned, TooLarge, _count, _finite, _vector
from .mixing import _gamma

#: exact conductance limit (the enumeration visits 2^(N-1) - 1 cuts)
MAX_CONDUCTANCE_STATES = 24
#: conductance enumerates the cuts in blocks over states 0 .. _LOW_BITS
_LOW_BITS = 12
#: relative tolerance of the cut-flow balance check
_BALANCE_TOL = 1e-9
#: cut values within this relative distance of the minimum tie
_TIE_TOL = 1e-12


def _form(chain: Chain, phi, sign: float) -> float:
    """(1/2) sum over state pairs of pi(x)P(x,y)(phi(x) + sign phi(y))^2.

    ``sign`` is -1.0 or +1.0, and ``sign * phi`` is exact, so at -1.0 each
    term is phi(x) - phi(y) bit for bit.  An entry of phi that is no number,
    or a sum that overflows, raises BadParams; a phi of another length than
    the chain's, DimensionMismatch."""
    phi = _vector(phi, "state function", chain.n)
    q = chain.pi[:, None] * chain.P
    with np.errstate(over="ignore", invalid="ignore"):
        d = phi[:, None] + sign * phi[None, :]
        return _finite(0.5 * float(np.sum(q * d * d)), "the quadratic form")


def dirichlet_form(chain: Chain, phi) -> float:
    """(1/2) sum over state pairs of pi(x)P(x,y)(phi(x) - phi(y))^2; >= 0."""
    return _form(chain, phi, -1.0)


def f_form(chain: Chain, phi) -> float:
    """(1/2) sum over state pairs of pi(x)P(x,y)(phi(x) + phi(y))^2; >= 0."""
    return _form(chain, phi, 1.0)


def variance(pi, phi) -> float:
    """Variance of phi under the distribution pi: two non-empty vectors of
    one length (else DimensionMismatch), pi with no negative weight (else
    BadParams) but with any sum.  An entry that is no number, or a sum that
    overflows, raises BadParams."""
    pi = _vector(pi, "pi")
    phi = _vector(phi, "phi", pi.size)
    if (pi < 0.0).any():
        raise BadParams("pi has a negative weight: it must be a distribution")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(pi @ phi)
        d = phi - mu
        return _finite(float(pi @ (d * d)), "the variance")


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


def _symmetrised(chain: Chain) -> np.ndarray:
    """(A + A^T)/2, A = D P D^{-1}, D = diag(sqrt(pi)), of an irreducible chain.

    The time reversal P* = D^{-2} P^T D^2 has D P* D^{-1} = A^T, so this is
    D (P + P*)/2 D^{-1}: similar to the additive reversibilization, with its
    eigenvalues.  A reversible chain has P* = P and A symmetric up to the
    <= 1e-12 asymmetry that detailed balance leaves, which the mean kills.
    """
    d = np.sqrt(chain.pi)
    A = (d[:, None] / d[None, :]) * chain.P
    return 0.5 * (A + A.T)


def _beta_max(betas: np.ndarray) -> float:
    return float(max(betas[1], abs(betas[-1])))


def eigendecompose(chain: Chain) -> SpectralSummary:
    """Symmetric eigensolve of A = D P D^{-1} for a reversible chain.

    Requires an irreducible, reversible chain: detailed balance as tested by
    ``classify``, on every edge within a relative ``BALANCE_RTOL`` = 1e-9 of
    the edge flow.  These gates are this function's, not ``_symmetrised``'s,
    which serves every irreducible chain: only a reversible chain's vectors
    are those of A.  Eigenvalues come back sorted descending with orthonormal
    vectors; the leading vector's sign is fixed so it matches sqrt(pi).
    """
    _require(chain, "irreducible", "eigendecompose")
    _require(chain, "reversible", "eigendecompose")
    w, V = np.linalg.eigh(_symmetrised(chain))
    order = np.argsort(w)[::-1]
    betas = w[order]
    vectors = np.ascontiguousarray(V[:, order].T)
    if vectors[0] @ np.sqrt(chain.pi) < 0:
        vectors[0] = -vectors[0]
    return SpectralSummary(betas=betas, vectors=vectors, beta_max=_beta_max(betas))


def _eigenvalues(chain: Chain) -> tuple[np.ndarray, float]:
    """The eigenvalues of an irreducible chain's ``_symmetrised`` matrix,
    sorted descending (read-only), and beta_max: symmetric QR without the
    vectors (``eigvalsh``), about 4n^3/3 flops against 9n^3 with them (Golub
    & Van Loan, *Matrix Computations*, section 8.3).  On a reversible chain
    they are ``eigendecompose``'s betas.  The caller checks irreducibility."""
    betas = np.linalg.eigvalsh(_symmetrised(chain))[::-1]
    betas.flags.writeable = False
    return betas, _beta_max(betas)


def _spectrum(chain: Chain) -> tuple[np.ndarray, float]:
    """``_eigenvalues``, kept on the chain (``_kept``), so each chain object
    is solved once: every report row, ``lambda_constants`` and ``mixbounds
    analyze`` read the spectrum here."""
    return _kept(chain, "spectrum", lambda: _eigenvalues(chain))


def lambda_constants(chain: Chain) -> tuple[float, float]:
    """The two variational spectral constants (gap from 1, gap from -1).

    ``1 - betas[1]`` and ``1 + betas[-1]`` of the ``_symmetrised`` spectrum:
    a reversible chain's own, any other's that of its additive
    reversibilization, which has the same quadratic forms (asserted by the
    test suite, not assumed silently).  The spectrum is the one the chain
    keeps (``_spectrum``).
    """
    _require(chain, "irreducible", "lambda_constants")
    return _gaps(_spectrum(chain)[0])


def _gaps(betas: np.ndarray) -> tuple[float, float]:
    """The gaps (1 - betas[1], 1 + betas[-1]) of a spectrum sorted descending."""
    return float(1.0 - betas[1]), float(1.0 + betas[-1])


def reconstruct_power(summary: SpectralSummary, pi, n: int) -> np.ndarray:
    """n-step transition matrix rebuilt from the spectral data.

    Entry (j, k) is  pi(k) + sqrt(pi_k / pi_j) * sum_{i>=1} betas_i^n e_j^(i) e_k^(i).
    Matches the direct matrix power within 1e-9 for moderate n.  ``pi`` is
    the chain's stationary law, a vector of one positive entry per state
    (else BadParams; a vector of another length, DimensionMismatch), and
    ``n`` a step count >= 0 (else BadParams).
    """
    n = _count(n, "n", BadParams)
    pi = _vector(pi, "pi", summary.betas.size)
    if not (pi > 0.0).all():
        raise BadParams("pi has a non-positive entry: it must be the stationary distribution")
    B = summary.vectors[1:]
    coef = summary.betas[1:] ** n
    term = (B * coef[:, None]).T @ B
    root = np.sqrt(pi)
    return pi[None, :] + (root[None, :] / root[:, None]) * term


@functools.cache
def _membership(m: int, lead: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 matrix M of 2^m rows: ``lead`` columns of ones, then the binary
    digits of the row index, lowest first; and its complement 1 - M.

    The pair depends on the shape only, so it is made once per process, on
    first use, and returned read-only.  At m = 12, lead = 1, it holds 0.85 MB.
    """
    M = np.ones((1 << m, lead + m))
    M[:, lead:] = (np.arange(1 << m, dtype=np.uint16)[:, None] >> np.arange(m, dtype=np.uint16)) & 1
    C = 1.0 - M
    M.flags.writeable = C.flags.writeable = False
    return M, C


def _cut_flows(members: np.ndarray, outside: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Per row of a 0/1 membership matrix: the sum of Q[i, j] over i in, j out."""
    flows = members @ Q
    flows *= outside
    return flows.sum(axis=1)


def _flow_parts(Q: np.ndarray, lo: slice, hi: slice, M: np.ndarray, C: np.ndarray, H: np.ndarray,
                Hc: np.ndarray) -> tuple[np.ndarray, ...]:
    """The parts of the flow of Q out of every cut S = S_low + H (see
    ``conductance``): within the low part, per row r; per block h and low
    state i, from i into H-bar and from H into i; within the high part, per
    block h.  The flow into S is the flow of Q^T out of S."""
    Qll, Qlh, Qhl, Qhh = Q[lo, lo], Q[lo, hi], Q[hi, lo], Q[hi, hi]
    return _cut_flows(M, C, Qll), Hc @ Qlh.T, H @ Qhl, _cut_flows(H, Hc, Qhh)


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

    Under stationarity the flows out of and into S are equal; a computed
    pair may differ by at most a relative 1e-9 of the flow out, and a larger
    imbalance, which only an inaccurate stationary distribution can cause,
    raises IllConditioned.  A block is certified to pass this test from pi's
    residual; only a block the certificate leaves open computes its flows
    into the cuts and tests each cut.

    The certificate.  Let Q = pi P be the float matrix formed here, r and s
    its row and column sums, and rho = r - s, so sum(rho) = 0.  Summing rho
    over S, the terms of Q with both ends in S cancel, so, exactly,

        cross(S) - back(S) = sum over i in S of rho_i,  |.| <= ||rho||_1 / 2.

    With u = 2^-53 and gamma_j = j u / (1 - j u), a float sum of nonnegative
    terms in which each term meets at most j additions is within gamma_j of
    its value, relatively (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, Lemma 3.1 and section 3.5; the 0/1 factors
    multiply exactly).  The computed rho-hat, from N-term sums and one subtraction,
    is within gamma_N (r_i + s_i) of rho_i, so ||rho||_1 <= ||rho-hat||_1 +
    2 gamma_N sum(Q).  A computed cut flow adds each term of Q at most 2L
    times within the low part, N - 2 times across the parts or 2(N - 2 - L)
    times within the high part, and 3 times to join the four parts: at most
    k = 2N + 1 additions, so c-hat and b-hat lie within gamma_k of cross(S)
    and back(S).  Hence

        |b-hat - c-hat| <= (1 + gamma_k) ||rho||_1 / 2 + 2 gamma_k cross(S).

    Let beta = ||rho-hat||_1 / 2 + gamma_(N+1) sum(Q), as computed: up to
    the relative rounding of its own sums, it bounds ||rho||_1 / 2.  If beta
    <= (1e-9 - 3 gamma_k) m, with m the block's smallest computed cut flow,
    then every cut of the block passes |b-hat - c-hat| <= 1e-9 c-hat as
    computed: 2 gamma_k covers the two flows' errors, and the third gamma_k
    the rest, the second-order terms (gamma_k^2 c-hat) and the roundings of
    beta, of the threshold and of the test itself (each a relative O(N u) of
    a quantity at most 1e-9 c-hat).  A certified block skips its flows into
    the cuts.  So the minima, the argmin and the error raised, if any,
    with its worst ratio, are those of the per-cut test in every block.
    """
    n = chain.n
    if n > MAX_CONDUCTANCE_STATES:
        raise TooLarge(f"exact conductance enumerates every cut and is limited to "
                       f"{MAX_CONDUCTANCE_STATES} states")
    _require(chain, "irreducible", "conductance")

    Q = chain.pi[:, None] * chain.P
    pi = chain.pi
    low_bits = min(n - 1, _LOW_BITS)
    lo, hi = slice(0, low_bits + 1), slice(low_bits + 1, n)
    # row r: state 0, plus state j (1 <= j <= L) when bit j-1 of r is set, so
    # row r of block h is the bitmask h * 2^L + r over states 1 .. N-1
    M, C = _membership(low_bits, lead=1)
    H, Hc = _membership(n - 1 - low_bits, lead=0)
    out = _flow_parts(Q, lo, hi, M, C, H, Hc)
    into = None  # the flows into the cuts, made for the first open block
    pi_low_s, pi_low_c = M @ pi[lo], C @ pi[lo]
    pi_h, pi_hc = H @ pi[hi], Hc @ pi[hi]
    last = H.shape[0] - 1
    # the balance certificate of the docstring
    rows = Q.sum(axis=1)
    beta = 0.5 * np.abs(rows - Q.sum(axis=0)).sum() + _gamma(n + 1) * rows.sum()
    slack = _BALANCE_TOL - 3.0 * _gamma(2 * n + 1)

    def flows(parts: tuple[np.ndarray, ...], h: int) -> np.ndarray:
        low, low_to_hc, h_to_low, high = parts
        return low + M @ low_to_hc[h] + C @ h_to_low[h] + high[h]

    def block(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut values, pi(S) and pi(S-bar) of block h, the full set left out."""
        nonlocal into
        cross = flows(out, h)
        pi_s = pi_low_s + pi_h[h]
        pi_c = pi_low_c + pi_hc[h]
        if h == last:
            cross, pi_s, pi_c = cross[:-1], pi_s[:-1], pi_c[:-1]
        if not beta <= slack * cross.min():
            if into is None:
                into = _flow_parts(Q.T, lo, hi, M, C, H, Hc)
            back = flows(into, h)[:len(cross)]
            imbalance = np.abs(cross - back)
            if np.any(imbalance > _BALANCE_TOL * cross):
                worst = float(np.max(imbalance / cross))
                raise IllConditioned(
                    f"stationary cut flows out of and into a cut differ by {worst:.3e} of the "
                    f"flow (tolerance {_BALANCE_TOL:g}): the stationary distribution is too "
                    "inaccurate for an exact conductance"
                )
        # the symmetric value (cross + back) / 2 needs no check against cross:
        # once |cross - back| <= 1e-9 cross, they differ by at most 0.5e-9 cross
        single = cross / (pi_s * pi_c)
        return single, pi_s, pi_c

    block_min = np.empty(last + 1)
    best_asym = np.inf
    for h in range(last + 1):
        single, pi_s, pi_c = block(h)
        block_min[h] = single.min()
        best_asym = min(best_asym,  # np.where, not a masked np.min: the same value, at a fraction of the cost
                        np.where(pi_s <= 0.5 + 1e-12, single * pi_c, np.inf).min(),
                        np.where(pi_c <= 0.5 + 1e-12, single * pi_s, np.inf).min())
    # smallest bitmask within the tie tolerance: its block is the first whose
    # minimum qualifies, and it is the first qualifying row of that block
    best = float(block_min.min())
    cutoff = best * (1.0 + _TIE_TOL)
    h = int(np.argmax(block_min <= cutoff))
    r = int(np.argmax(block(h)[0] <= cutoff))
    mask = (h << low_bits) | r
    best_set = (0,) + tuple(j + 1 for j in range(n - 1) if (mask >> j) & 1)
    return best, float(best_asym), best_set
