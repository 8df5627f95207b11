"""A 40-digit reference for the exact quantities of small chains.

Every value starts from the chain's float P, which mpmath holds exactly, and
is computed at ``DIGITS`` significant digits, so it is the true value of the
float chain to far more digits than a float result carries.  A float result
is checked against it within a stated error bound.  Keep the chains small
(at most a dozen states): mpmath's dense solvers run in pure Python.
"""

from __future__ import annotations

import mpmath

DIGITS = 40


def _context():
    ctx = mpmath.mp.clone()
    ctx.dps = DIGITS
    return ctx


def _P(ctx, chain):
    return ctx.matrix([[ctx.mpf(float(p)) for p in row] for row in chain.P])


def stationary(chain, ctx=None) -> list:
    """pi with pi P = pi and sum(pi) = 1, by an LU solve at 40 digits: the
    system (P^T - I) pi = 0 with its last equation replaced by sum(pi) = 1,
    as ``chains._solve_stationary`` sets it up in floats."""
    ctx = ctx or _context()
    n, P = chain.n, _P(ctx, chain)
    M = P.T - ctx.eye(n)
    for j in range(n):
        M[n - 1, j] = 1
    b = ctx.matrix(n, 1)
    b[n - 1] = 1
    pi = ctx.lu_solve(M, b)
    return [pi[i] for i in range(n)]


def spectrum(chain) -> tuple:
    """(beta_1, beta_min, beta_max) of the symmetrised matrix D R D^-1, D =
    diag(sqrt(pi)), at 40 digits: the second-largest and the smallest
    eigenvalue, and the larger of beta_1 and |beta_min|.

    R is the additive reversibilization (P + P*)/2, P*(x, y) = pi(y) P(y, x) /
    pi(x).  D R D^-1 is (A + A^T)/2 for A = D P D^-1, so for a reversible
    chain this is the matrix ``eigendecompose`` solves, and for any other
    chain the one ``lambda_constants`` solves."""
    ctx = _context()
    n, P = chain.n, _P(ctx, chain)
    root = [ctx.sqrt(p) for p in stationary(chain, ctx)]
    A = ctx.matrix(n, n)
    for i in range(n):
        for j in range(n):
            A[i, j] = (root[i] / root[j] * P[i, j] + root[j] / root[i] * P[j, i]) / 2
    betas = sorted(ctx.eigsy(A, eigvals_only=True), reverse=True)
    return betas[1], betas[-1], max(betas[1], abs(betas[-1]))


def continuized_distances(chain, times) -> dict:
    """{t: [TV(e_x E(t), pi) for every start x]} for each float time t, at
    40 digits: E(t) = e^-t sum_k t^k / k! P^k, the uniformization series of
    the continuized chain, summed from the rows e_x P^k until the Poisson
    tail beyond the last term, at most c_k / (1 - t / (k + 1)), is below
    10^-(DIGITS + 5) for every t, so below any float's resolution."""
    ctx = _context()
    n, times = chain.n, [float(t) for t in times]
    columns = list(zip(*_P(ctx, chain).tolist()))
    pi = stationary(chain, ctx)
    rows = [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]  # e_x P^k
    weights = {t: ctx.exp(-ctx.mpf(t)) for t in times}  # c_k(t)
    sums = {t: [[ctx.zero] * n for _ in range(n)] for t in times}
    tail, k = ctx.mpf(10) ** -(DIGITS + 5), 0
    while True:
        for t, c in weights.items():
            for row, total in zip(rows, sums[t]):
                for j in range(n):
                    total[j] += c * row[j]
        k += 1
        for t in times:
            weights[t] *= ctx.mpf(t) / k
        if all(k + 1 > t and weights[t] / (1 - ctx.mpf(t) / (k + 1)) < tail for t in times):
            break
        rows = [[ctx.fdot(row, column) for column in columns] for row in rows]
    return {t: [sum(abs(a - b) for a, b in zip(total, pi)) / 2 for total in sums[t]] for t in times}


def conductance(chain) -> tuple:
    """(Phi, asymmetric Phi, cuts) at 40 digits, by enumerating every cut S
    that holds state 0, with Q = pi P from the float P and ``stationary``.

    Phi is the least cross(S) / (pi(S) pi(S-bar)), cross(S) the flow of Q
    out of S; the asymmetric Phi is the least cross(S) / pi(S) over the cuts
    with pi(S) <= 1/2 and cross(S) / pi(S-bar) over those with pi(S-bar) <=
    1/2, as ``spectral.conductance`` defines them.  Every sum is of
    nonnegative terms.  ``cuts`` maps each cut, a tuple of states, to its
    cross(S) / (pi(S) pi(S-bar)), so a float argmin is checked by its value:
    where cuts tie in exact arithmetic, rounding picks among them."""
    ctx = _context()
    n, P = chain.n, _P(ctx, chain)
    pi = stationary(chain, ctx)
    Q = [[pi[i] * P[i, j] for j in range(n)] for i in range(n)]
    half = ctx.mpf(1) / 2
    cuts, best_asym = {}, ctx.inf
    for mask in range((1 << (n - 1)) - 1):
        inside = (0,) + tuple(j + 1 for j in range(n - 1) if (mask >> j) & 1)
        outside = [j for j in range(n) if j not in inside]
        cross = ctx.fsum(Q[i][j] for i in inside for j in outside)
        pi_s, pi_c = ctx.fsum(pi[i] for i in inside), ctx.fsum(pi[j] for j in outside)
        cuts[inside] = cross / (pi_s * pi_c)
        if pi_s <= half:
            best_asym = min(best_asym, cross / pi_s)
        if pi_c <= half:
            best_asym = min(best_asym, cross / pi_c)
    return min(cuts.values()), best_asym, cuts


def exponential(Q, t) -> list:
    """expm(Q t) at 40 digits, as rows of mpf, for a float matrix Q and a
    float time t, which mpmath holds exactly: mpmath's Taylor scaling and
    squaring, which widens its working precision with the norm of Q t."""
    ctx = _context()
    return ctx.expm(ctx.matrix([[ctx.mpf(float(q)) for q in row] for row in Q]) * ctx.mpf(float(t))).tolist()
