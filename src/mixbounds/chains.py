"""Finite Markov chains and the chain-level constructions built on them.

A :class:`Chain` bundles a row-stochastic transition matrix with state labels
and the stationary distribution, which is computed once at construction by a
dense linear solve.  Chains are immutable after construction and every
operation here is a pure function returning a new chain, so concurrent reads
are safe.  A chain keeps its constants (``_kept``): :func:`classify` keeps
its result on the chain, and the reports keep its spectrum, reversal-product
gap and worst-start times at 1/(2e), each computed the first time any call
asks for it.  Each is a scalar or holds O(n) numbers, so the store adds O(n)
to a chain, and two threads may both compute one, harmlessly.

Internally states are indexed ``0 .. N-1``; labels are cosmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonStochastic,
    NotErgodic,
    NotIrreducible,
    NotReversible,
    SingularStationary,
    StationaryMismatch,
    _count,
    _square,
)

#: input validation: rejected beyond this
ROW_SUM_TOL = 1e-9
#: stored rows are renormalised when further than this from 1 (keeps the
#: renormalisation idempotent, so file round-trips stay bit-identical)
RENORM_TOL = 1e-13
#: residual allowed in pi P = pi
STATIONARY_TOL = 1e-10
#: detailed balance: |F - F^T| at most this fraction of max(F, F^T) per edge,
#: with F(x, y) = pi(x) P(x, y)
BALANCE_RTOL = 1e-9


class Chain:
    """A finite Markov chain: labels, transition matrix P and stationary pi.

    Do not call the constructor directly for untrusted input; use
    :func:`build_chain`, which validates stochasticity and solves for pi.
    The constructor is used internally by operations that already know the
    stationary distribution of their result (products, laziness, reversal).
    """

    __slots__ = ("labels", "P", "pi", "name", "_constants")

    def __init__(self, labels, P, pi, name=None):
        P = np.ascontiguousarray(P, dtype=float)
        pi = np.ascontiguousarray(pi, dtype=float)
        labels = tuple(str(s) for s in labels)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionMismatch(f"transition matrix must be square, got {P.shape}")
        if len(labels) != P.shape[0] or pi.shape != (P.shape[0],):
            raise DimensionMismatch("labels, P and pi sizes disagree")
        P.flags.writeable = False
        pi.flags.writeable = False
        self.labels = labels
        self.P = P
        self.pi = pi
        self.name = name if name is not None else f"chain[{len(labels)}]"
        self._constants = {}  # written and read only by ``_kept``

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def index(self, label) -> int:
        """Index of a state given by label, or an index in [0, n - 1] passed
        through; a bool, or an integer out of range, raises DimensionMismatch."""
        if isinstance(label, (int, np.integer, np.bool_)):
            return _count(label, "state index", DimensionMismatch, most=self.n - 1)
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise DimensionMismatch(f"unknown state label {label!r}") from None

    def support(self) -> np.ndarray:
        """Boolean matrix of the edges of the transition graph (P > 0)."""
        return self.P > 0.0

    def __repr__(self):
        return f"Chain({self.name!r}, n={self.n})"


@dataclass(frozen=True)
class ChainClass:
    """Structural classification of a chain.

    ``period`` is the gcd of closed-walk lengths and is reported as 0 for a
    reducible chain, where it is not defined.  ``reversible`` means detailed
    balance holds against the chain's stationary distribution, on every edge
    within a relative 1e-9.  ``min_self_loop`` is the smallest diagonal entry of P.
    """

    irreducible: bool
    period: int
    aperiodic: bool
    reversible: bool
    min_self_loop: float

    @property
    def ergodic(self) -> bool:
        return self.irreducible and self.aperiodic


def build_chain(labels, P, name=None) -> Chain:
    """Validate a transition matrix and construct a chain with its stationary law.

    The matrix must be square with N >= 2, entries in [0, 1] and row sums
    within 1e-9 of 1 (rows are then renormalised for storage).  The
    stationary distribution solves ``pi P = pi`` with the normalisation
    ``sum(pi) = 1``: the transposed system ``(P^T - I) pi = 0`` has its last
    row replaced by all-ones, which is nonsingular exactly when the chain has
    a one-dimensional stationary space.

    Raises:
        DimensionMismatch: non-square matrix, rows of different lengths,
            labels not a list or tuple, label count mismatch or repeated labels.
        NonStochastic: non-numeric, non-finite or negative entries, or row
            sums off by more than 1e-9.
        SingularStationary: stationary space not one-dimensional, the
            solution not strictly positive (e.g. transient states), or the
            chain reducible (its classification, kept on the chain).
    """
    P = _square(P, "transition matrix", NonStochastic)
    n = P.shape[0]
    if n < 2:
        raise DimensionMismatch("need at least 2 states")
    if not isinstance(labels, (list, tuple)):
        raise DimensionMismatch(f"state labels must be a list, got {type(labels).__name__}")
    if len(labels) != n:
        raise DimensionMismatch(f"{len(labels)} labels for {n} states")
    if len({str(s) for s in labels}) != n:
        raise DimensionMismatch("state labels are not distinct")
    if np.any(P < -ROW_SUM_TOL):
        raise NonStochastic("transition matrix has a negative entry")
    P = np.where(P < 0.0, 0.0, P)
    row_sums = P.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        i = int(np.argmax(np.abs(row_sums - 1.0)))
        raise NonStochastic(f"row {i} sums to {row_sums[i]!r}, not 1")
    if np.max(np.abs(row_sums - 1.0)) > RENORM_TOL:
        P = P / row_sums[:, None]

    chain = Chain(labels, P, _solve_stationary(P), name=name)
    if not classify(chain).irreducible:
        raise SingularStationary("chain is reducible: its stationary law is not unique")
    return chain


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Dense solve of pi P = pi, sum(pi) = 1; see build_chain for the contract."""
    n = P.shape[0]
    M = P.T - np.eye(n)
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        raise SingularStationary(
            "stationary system is singular (stationary space is not one-dimensional)"
        ) from None
    s = pi.sum()
    if not np.isfinite(s) or abs(s - 1.0) > 1e-6:
        raise SingularStationary("stationary solve produced a non-normalisable vector")
    pi = pi / s
    if np.any(pi <= 0.0):
        raise SingularStationary("stationary distribution is not strictly positive")
    resid = np.abs(pi @ P - pi).max()
    if resid > STATIONARY_TOL:
        raise SingularStationary(f"stationary residual {resid:.3e} exceeds {STATIONARY_TOL}")
    return pi


def classify(chain: Chain) -> ChainClass:
    """Classify a chain: irreducibility, period, detailed balance, self-loops.

    Irreducibility is strong connectivity of the directed graph of positive
    entries: two numpy breadth-first searches from state 0, over the edges
    and over the reversed edges, each reach every state.  The period is
    computed only for irreducible chains, as the gcd of ``d(u) + 1 - d(v)``
    over the edges u -> v, where d is the depth of the forward search (the
    standard algorithm).  Detailed balance is tested edge by edge relative to
    the edge flow (``BALANCE_RTOL``).  Never raises: a classification is
    returned even for degenerate chains.  The result is kept on the chain
    (``_kept``), whose P and pi are read-only, so later calls return it at
    once.
    """
    return _kept(chain, "class", lambda: _classify(chain))


def _kept(chain: Chain, key, compute):
    """The chain's constant ``key``: ``compute()`` the first time any call
    asks for it, then the kept result.  Only results are kept, each a scalar
    or O(n) numbers, never a chain, a walk or an n x n array; an error is
    not, so the next call computes again.  Two threads may both compute a
    constant, harmlessly, as a chain's P and pi are read-only."""
    constants = chain._constants
    if key not in constants:
        constants[key] = compute()
    return constants[key]


def _classify(chain: Chain) -> ChainClass:
    S = chain.support()
    depth = _depths(S)
    irreducible = bool((depth >= 0).all() and (_depths(S.T) >= 0).all())
    period = 0
    if irreducible:
        u, v = np.nonzero(S)
        period = int(np.gcd.reduce(depth[u] + 1 - depth[v]))
    aperiodic = period == 1

    F = chain.pi[:, None] * chain.P
    reversible = bool(np.all(np.abs(F - F.T) <= BALANCE_RTOL * np.maximum(F, F.T)))
    min_self_loop = float(chain.P.diagonal().min())
    return ChainClass(irreducible, period, aperiodic, reversible, min_self_loop)


def _depths(S: np.ndarray) -> np.ndarray:
    """BFS depth of each state from state 0 over the edges of the boolean
    matrix S, -1 for a state it does not reach: each level is the states
    some frontier state has an edge to, less those already reached."""
    depth = np.full(len(S), -1)
    frontier, level = np.arange(len(S)) == 0, 0
    while frontier.any():
        depth[frontier] = level
        frontier, level = S[frontier].any(axis=0) & (depth < 0), level + 1
    return depth


#: the error each gated property raises when a chain lacks it
_GATES = {"irreducible": NotIrreducible, "ergodic": NotErgodic, "reversible": NotReversible}


def _require(chain: Chain, prop: str, op: str) -> ChainClass:
    """The chain's classification, once ``prop`` (irreducible, ergodic or
    reversible) is checked to hold; the error it raises names ``op``."""
    cls = classify(chain)
    if not getattr(cls, prop):
        raise _GATES[prop](f"{op}: the chain must be {prop}")
    return cls


def _check_pair(a: Chain, b: Chain) -> None:
    """Raises unless the chains share a state space and pi (within 1e-10)."""
    if a.n != b.n:
        raise DimensionMismatch(f"state spaces differ: {a.n} vs {b.n}")
    if np.abs(a.pi - b.pi).max() > STATIONARY_TOL:
        raise StationaryMismatch("chains do not share a stationary distribution")


def time_reversal(chain: Chain) -> Chain:
    """The pi-adjoint chain with matrix R(P)(x, y) = pi(y) P(y, x) / pi(x).

    Shares the stationary distribution of the input; applying it twice gives
    back the original matrix (within 1e-12).
    """
    _require(chain, "irreducible", "time_reversal")
    R = chain.P.T * chain.pi[None, :] / chain.pi[:, None]
    return Chain(chain.labels, R, chain.pi, name=f"reversal({chain.name})")


def multiply(a: Chain, b: Chain) -> Chain:
    """The chain doing one step of ``a`` then one step of ``b`` (matrix A B).

    Both chains must live on the same state space and share a stationary
    distribution (within 1e-10); the product then has the same one, which is
    propagated rather than re-solved, so reducible products (for instance a
    cycle composed with its reversal) are representable and ``classify``
    reports them.
    """
    _check_pair(a, b)
    return Chain(a.labels, a.P @ b.P, a.pi, name=f"{a.name}*{b.name}")


def _reversal_product(chain: Chain) -> Chain:
    """The reversal product R(P) P, the one construction of it: the chain a
    product-routed flow is routed over, and the chain T23's gap is read from."""
    return multiply(time_reversal(chain), chain)


def lazy(chain: Chain) -> Chain:
    """The lazy chain (I + P) / 2; same stationary law, self-loops >= 1/2."""
    L = 0.5 * (np.eye(chain.n) + chain.P)
    return Chain(chain.labels, L, chain.pi, name=f"lazy({chain.name})")


def reversibilize(chain: Chain) -> Chain:
    """Additive reversibilization (P + R(P)) / 2, reversible w.r.t. pi.

    Preserves the quadratic forms built from pi(x)P(x,y), which is why the
    spectral constants of a non-reversible chain can be read off this one.
    """
    _require(chain, "irreducible", "reversibilize")
    R = time_reversal(chain)
    H = 0.5 * (chain.P + R.P)
    return Chain(chain.labels, H, chain.pi, name=f"rev({chain.name})")
