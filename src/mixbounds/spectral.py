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
#: conductance splits the states into a low part 0 .. _LOW_BITS, whose 2^8
#: membership rows fit in the L1 cache, and a high part, whose subsets it
#: takes 2^_CHUNK_BITS cuts at a time (fewer when N <= 13)
_LOW_BITS = 8
_CHUNK_BITS = 13
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
def _membership(m: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 matrix M of 2^m rows: a column of ones (state 0), then the binary
    digits of the row index, lowest first; and its complement 1 - M.

    These are the low part's rows of ``conductance``, so m <= _LOW_BITS and
    the pair holds at most 36 KB.  It depends on the shape only, so it is
    made once per process, on first use, and returned read-only.
    """
    M = np.ones((1 << m, 1 + m))
    M[:, 1:] = _digits(np.arange(1 << m), m)
    C = 1.0 - M
    M.flags.writeable = C.flags.writeable = False
    return M, C


def _digits(rows: np.ndarray, m: int) -> np.ndarray:
    """The m binary digits of each entry of ``rows``, lowest first, as 0/1 floats."""
    return ((rows[:, None] >> np.arange(m)) & 1).astype(float)


def _cut_flows(members: np.ndarray, outside: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Per row of a 0/1 membership matrix: the sum of Q[i, j] over i in, j out."""
    flows = members @ Q
    flows *= outside
    return flows.sum(axis=1)


def _flow_parts(Q: np.ndarray, lo: slice, hi: slice, M: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, ...]:
    """What every chunk of ``conductance`` reads to make the flow of Q out of
    its cuts S = S_low + H: the flow within the low part, per low row r, and
    the blocks of Q from the low part into the high part (transposed), from
    the high part into the low part, and within the high part.  The flow
    into S is the flow of Q^T out of S."""
    return _cut_flows(M, C, Q[lo, lo]), Q[lo, hi].T, Q[hi, lo], Q[hi, hi]


def conductance(chain: Chain) -> tuple[float, float, tuple[int, ...]]:
    """Exact conductance by chunked enumeration of every cut (N <= 24).

    For a cut S the conductance is the stationary flow from S to its
    complement divided by pi(S) pi(S-bar).  Returns the minimum over cuts, the
    asymmetric variant (the same ratio additionally multiplied by pi(S-bar),
    minimised over cuts with pi(S) <= 1/2), and the minimising cut for the
    symmetric version.  Among cuts within a relative 1e-12 of the minimum the
    one with the smallest bitmask is returned, so rounding noise never picks
    the winner.

    Every one of the 2^(N-1) - 1 cuts containing state 0 is visited, in
    ascending bitmask order.  The states split into a low part {0 .. L},
    L = min(N-1, 8), and a high part of N-1-L states.  The cut S = S_low + H
    of low row r and high subset H of index h has the bitmask h 2^L + r over
    states 1 .. N-1.  The low part's 2^L rows are one (L+1)-column 0/1
    matrix, kept per process (``_membership``); the high subsets go in chunks
    of G = 2^max(0, 13-L) consecutive indices, whose membership rows are
    made per chunk.  A chunk is laid out h-major: its G x 2^L cuts, 2^13
    once N > 13, are in ascending bitmask order.  Its cut flows are two
    products (G x (L+1)) @ ((L+1) x 2^L), from S_low into H-bar and from H
    into S_low-bar, plus the flows within the low part and within H.  A
    chunk's arrays of 64 KB stay in the cache and below the size (128 KB)
    from which malloc maps fresh pages, which would fault on every chunk.
    Every cut flow and every pi(S), pi(S-bar) is a sum of nonnegative terms,
    so no digits are lost when a flow or a mass is tiny.

    Where exactly one side of a cut has mass at most 1/2 + 1e-12, the
    asymmetric value is the ratio times the other side's mass, the larger:
    one product per cut.  A chunk with a cut whose two sides both qualify,
    and a call whose pi sums above 1 + 1e-12, where neither side of a cut
    may, minimise over each side's qualifying cuts in turn.

    Under stationarity the flows out of and into S are equal; a computed
    pair may differ by at most a relative 1e-9 of the flow out, and a larger
    imbalance, which only an inaccurate stationary distribution can cause,
    raises IllConditioned, with the worst ratio of its chunk.  A chunk is
    certified to pass this test from pi's residual; only a chunk the
    certificate leaves open computes its flows into the cuts and tests each
    cut.

    The certificate.  Let Q = pi P be the float matrix formed here, r and s
    its row and column sums, and rho = r - s, so sum(rho) = 0.  Summing rho
    over S, the terms of Q with both ends in S cancel, so, exactly,

        cross(S) - back(S) = sum over i in S of rho_i,  |.| <= ||rho||_1 / 2.

    With u = 2^-53 and gamma_j = j u / (1 - j u), a float sum of nonnegative
    terms in which each term meets at most j additions is within gamma_j of
    its value, relatively, whatever the order of the sum (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 2002, Lemma 3.1 and
    section 3.5; the 0/1 factors multiply exactly).  The computed rho-hat,
    from N-term sums and one subtraction, is within gamma_N (r_i + s_i) of
    rho_i, so ||rho||_1 <= ||rho-hat||_1 + 2 gamma_N sum(Q).  A computed cut
    flow adds each term of Q at most 2L times within the low part (L in a
    row of M Q, L in the sum over S_low-bar), N - 2 times across the parts
    (N - 2 - L in the sum over H or H-bar, L in the product with the low
    rows), or 2(N - 2 - L) times within the high part, and 3 times to join
    the four parts.  As L <= N - 1, that is at most k = 2N + 1 additions,
    so c-hat and b-hat lie within gamma_k of cross(S) and back(S).  Hence

        |b-hat - c-hat| <= (1 + gamma_k) ||rho||_1 / 2 + 2 gamma_k cross(S).

    Let beta = ||rho-hat||_1 / 2 + gamma_(N+1) sum(Q), as computed: up to
    the relative rounding of its own sums, it bounds ||rho||_1 / 2.  If beta
    <= (1e-9 - 3 gamma_k) m, with m the chunk's smallest computed cut flow,
    then every cut of the chunk passes |b-hat - c-hat| <= 1e-9 c-hat as
    computed: 2 gamma_k covers the two flows' errors, and the third gamma_k
    the rest, the second-order terms (gamma_k^2 c-hat) and the roundings of
    beta, of the threshold and of the test itself (each a relative O(N u) of
    a quantity at most 1e-9 c-hat).  A certified chunk skips its flows into
    the cuts.  So the minima, the argmin and the error raised, if any,
    with its worst ratio, are those of the per-cut test in every chunk.
    """
    n = chain.n
    if n > MAX_CONDUCTANCE_STATES:
        raise TooLarge(f"exact conductance enumerates every cut and is limited to "
                       f"{MAX_CONDUCTANCE_STATES} states")
    _require(chain, "irreducible", "conductance")

    Q = chain.pi[:, None] * chain.P
    pi = chain.pi
    low_bits = min(n - 1, _LOW_BITS)
    high_bits = n - 1 - low_bits
    lo, hi = slice(0, low_bits + 1), slice(low_bits + 1, n)
    # row r: state 0, plus state j (1 <= j <= L) when bit j-1 of r is set
    M, C = _membership(low_bits)
    out = _flow_parts(Q, lo, hi, M, C)
    into = None  # the flows into the cuts, made for the first open chunk
    pi_low_s, pi_low_c = M @ pi[lo], C @ pi[lo]
    size = 1 << max(0, _CHUNK_BITS - low_bits)  # high subsets per chunk
    subsets = 1 << high_bits
    # the balance certificate of the docstring
    rows = Q.sum(axis=1)
    beta = 0.5 * np.abs(rows - Q.sum(axis=0)).sum() + _gamma(n + 1) * rows.sum()
    slack = _BALANCE_TOL - 3.0 * _gamma(2 * n + 1)
    # both sides of a cut can weigh above 1/2 + 1e-12 only if pi-hat sums
    # above 1 + 2e-12; testing 1e-12 covers the roundings of the sums
    neither = float(pi.sum()) > 1.0 + 1e-12

    def flows(parts: tuple[np.ndarray, ...], H: np.ndarray, Hc: np.ndarray) -> np.ndarray:
        low, low_to_high, high_to_low, high = parts
        f = (Hc @ low_to_high) @ M.T
        f += low
        f += (H @ high_to_low) @ C.T
        f += _cut_flows(H, Hc, high)[:, None]
        return f.ravel()

    def chunk(h0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut values, pi(S) and pi(S-bar) of the chunk of subsets h0 ..
        h0 + size - 1, in bitmask order, the full set left out."""
        nonlocal into
        H = _digits(np.arange(h0, min(h0 + size, subsets)), high_bits)
        Hc = 1.0 - H
        cross = flows(out, H, Hc)
        pi_s = np.add.outer(H @ pi[hi], pi_low_s).ravel()
        pi_c = np.add.outer(Hc @ pi[hi], pi_low_c).ravel()
        if h0 + size >= subsets:
            cross, pi_s, pi_c = cross[:-1], pi_s[:-1], pi_c[:-1]
        if not beta <= slack * cross.min():
            if into is None:
                into = _flow_parts(Q.T, lo, hi, M, C)
            back = flows(into, H, Hc)[:len(cross)]
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

    starts = range(0, subsets, size)
    chunk_min = np.empty(len(starts))
    best_asym = np.inf
    for c, h0 in enumerate(starts):
        single, pi_s, pi_c = chunk(h0)
        chunk_min[c] = single.min()
        if not neither:
            larger = np.maximum(pi_s, pi_c)
            if larger.min() > 0.5 + 1e-12:  # exactly one side of every cut qualifies
                larger *= single
                best_asym = min(best_asym, larger.min())
                continue
        best_asym = min(best_asym,  # np.where, not a masked np.min: the same value, at a fraction of the cost
                        np.where(pi_s <= 0.5 + 1e-12, single * pi_c, np.inf).min(),
                        np.where(pi_c <= 0.5 + 1e-12, single * pi_s, np.inf).min())
    # smallest bitmask within the tie tolerance: its chunk is the first whose
    # minimum qualifies, and it is the first qualifying cut of that chunk
    best = float(chunk_min.min())
    cutoff = best * (1.0 + _TIE_TOL)
    h0 = starts[int(np.argmax(chunk_min <= cutoff))]
    mask = (h0 << low_bits) + int(np.argmax(chunk(h0)[0] <= cutoff))
    best_set = (0,) + tuple(j + 1 for j in range(n - 1) if (mask >> j) & 1)
    return best, float(best_asym), best_set
