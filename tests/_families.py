"""Seeded chain families and independent oracles shared by the test modules."""

from __future__ import annotations

import numpy as np

from mixbounds import build_chain, classify, lazy, random_reversible, uniform_walk


def doubly_stochastic(n: int, seed: int, self_loop: float = 0.2):
    """Non-reversible ergodic chain with uniform stationary law.

    A convex mixture of the full-cycle permutation (irreducibility), two
    random permutations and the identity (aperiodicity plus positive
    self-loops, which keep the reversal-product chain irreducible).
    """
    rng = np.random.default_rng(seed)
    labels = [f"s{i}" for i in range(n)]
    for _ in range(50):
        perms = [np.roll(np.eye(n), 1, axis=1)]
        perms.append(np.eye(n)[rng.permutation(n)])
        perms.append(np.eye(n)[rng.permutation(n)])
        weights = rng.dirichlet(np.ones(len(perms))) * (1.0 - self_loop)
        P = self_loop * np.eye(n)
        for w, M in zip(weights, perms):
            P = P + w * M
        chain = build_chain(labels, P, name=f"doubly_stochastic(n={n},seed={seed})")
        cls = classify(chain)
        if cls.ergodic and not cls.reversible:
            return chain
    raise AssertionError(f"no non-reversible doubly stochastic chain for n={n}, seed={seed}")


def tiny_mass_chain(e: float = 1e-13):
    """Three states; the last has stationary mass of order e.

    Its few edges are far from balanced once pi is rounded: the stationary
    flows out of and into the cut {c} differ by about 2e-4 of the flow at
    e = 1e-13, so an exact conductance is out of reach.
    """
    P = [[0.5, 0.5 - e, e], [0.5 - e, 0.5, e], [0.1, 0.9, 0.0]]
    return build_chain(["a", "b", "c"], P, name=f"tiny_mass_chain(e={e})")


def reversible_pair(n: int, seed: int):
    """A random reversible chain together with its lazy version (same pi)."""
    base = random_reversible(n, seed)
    return base, lazy(base)


def nonreversible_pair(n: int, seed: int):
    """A doubly stochastic non-reversible chain with the uniform walk target."""
    return doubly_stochastic(n, seed), uniform_walk(n)


def quadratic_forms(chain):
    """Exact matrices of the two edge forms and the variance form.

    Built without using stationarity of pi, so they stay valid even for the
    raw pairwise definitions: difference form, sum form, variance.
    """
    q = chain.pi[:, None] * chain.P
    row = np.diag(q.sum(axis=1))
    col = np.diag(q.sum(axis=0))
    diff = 0.5 * (row + col - q - q.T)
    summ = 0.5 * (row + col + q + q.T)
    var = np.diag(chain.pi) - np.outer(chain.pi, chain.pi)
    return diff, summ, var


def rayleigh_minimum(A: np.ndarray, B: np.ndarray, n_starts: int = 50, seed: int = 0,
                     sweeps: int = 200, tol: float = 1e-12) -> float:
    """Minimise the generalised Rayleigh quotient by cyclic coordinate descent.

    Independent of any eigensolver: each coordinate update solves the
    quadratic stationarity condition of the one-dimensional ratio exactly,
    and the best value over many random restarts is returned.
    """
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    best = np.inf

    def quotient(phi):
        den = phi @ B @ phi
        return (phi @ A @ phi) / den if den > 1e-30 else np.inf

    for _ in range(n_starts):
        phi = rng.standard_normal(n)
        value = quotient(phi)
        for _ in range(sweeps):
            improved = False
            for j in range(n):
                Aphi = A @ phi
                Bphi = B @ phi
                a, d = A[j, j], B[j, j]
                b = 2.0 * (Aphi[j] - a * phi[j])
                e = 2.0 * (Bphi[j] - d * phi[j])
                num = phi @ Aphi
                den = phi @ Bphi
                c = num - a * phi[j] ** 2 - b * phi[j]
                f = den - d * phi[j] ** 2 - e * phi[j]
                # stationary points of (a s^2 + b s + c) / (d s^2 + e s + f)
                roots = np.roots([a * e - b * d, 2.0 * (a * f - c * d), b * f - c * e])
                cand = phi[j]
                cand_val = value
                for r in roots:
                    if abs(r.imag) > 1e-9:
                        continue
                    s = float(r.real)
                    phi_j_old = phi[j]
                    phi[j] = s
                    v = quotient(phi)
                    if v < cand_val - 0.0:
                        cand, cand_val = s, v
                    phi[j] = phi_j_old
                if cand_val < value - tol:
                    phi[j] = cand
                    value = cand_val
                    improved = True
            norm = np.linalg.norm(phi)
            if norm > 0:
                phi /= norm
            if not improved:
                break
        best = min(best, value)
    return float(best)


def two_blocks(m, w):
    """Blocks A and B of m states swap with w and step to a hub h with w; h
    steps to pi on A and B, so h mixes in a step, while a start in A mixes
    at rate 3 w (the antisymmetric mode's eigenvalue is 1 - 3 w)."""
    rng = np.random.default_rng(m)
    D = sum(np.eye(m)[rng.permutation(m)] for _ in range(4)) / 4
    P = np.zeros((2 * m + 1, 2 * m + 1))
    P[:m, :m] = P[m:-1, m:-1] = (1 - 2 * w) * D
    P[:m, m:-1] = P[m:-1, :m] = w / m
    P[:-1, -1], P[-1, :-1] = w, 1 / (2 * m)
    return build_chain(list(range(2 * m + 1)), P)
