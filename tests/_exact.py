"""Exact rational arithmetic on a chain's float P, for ties that floats
cannot settle.

Every float is a dyadic rational, so S = D^-1 P, the float P with each row
divided by its exact sum, is an exact stochastic matrix of ``Fraction``s.
Its quantities are computed here with no eigensolve, so keep the chains
small: the arithmetic runs in pure Python.
"""

from __future__ import annotations

from fractions import Fraction


def stochastic(chain) -> list[list[Fraction]]:
    """S = D^-1 P, the chain's float P with each row divided by its exact sum."""
    rows = [[Fraction(float(p)) for p in row] for row in chain.P]
    return [[p / sum(row) for p in row] for row in rows]


def stationary(S) -> list[Fraction]:
    """pi with pi S = pi and sum(pi) = 1, by Gauss-Jordan elimination on
    (S^T - I) pi = 0 with its last equation replaced by sum(pi) = 1.  S must
    be irreducible, so the system has one solution."""
    n = len(S)
    M = [[S[j][i] - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)] + [[Fraction(1)] * (n + 1)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


def tv(row, pi) -> Fraction:
    """Total-variation distance: half the l1 distance."""
    return sum(abs(a - b) for a, b in zip(row, pi)) / 2


def cut_conductances(S, pi) -> list[Fraction]:
    """The conductance of every cut A holding state 0: the stationary flow
    from A to its complement over pi(A) pi(A^c), as ``spectral.conductance``
    defines it."""
    n = len(S)
    phis = []
    for mask in range(2 ** (n - 1) - 1):
        A = [0] + [x for x in range(1, n) if mask >> (x - 1) & 1]
        out = [x for x in range(n) if x not in A]
        flow = sum(pi[x] * S[x][y] for x in A for y in out)
        phis.append(flow / (sum(pi[x] for x in A) * sum(pi[x] for x in out)))
    return phis
