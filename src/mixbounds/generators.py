"""Chain generators for the worked examples and for seeded test families."""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .chains import Chain, build_chain, lazy
from .errors import BadParams, _count, _real
from .flows import Flow, FlowPath

#: the largest n with 64 n^2 <= the machine's physical memory in bytes: building
#: a chain peaks at about 8 dense n x n float arrays.  Where the platform does not
#: report its memory, the largest n numpy can index (8 n^2 <= sys.maxsize bytes)
_MOST_STATES = math.isqrt(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 64
                          if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ()) else sys.maxsize // 8)


def two_state(delta: float) -> Chain:
    """Two states {a, b}; flip with probability 1 - delta, stay with delta.

    For small delta this chain is nearly periodic and mixes slowly even
    though its stationary distribution (uniform) is reached instantly by the
    uniform walk on the same two states.
    """
    delta = _real(delta, "two_state's delta", BadParams, 0.0, 1.0)
    P = [[delta, 1.0 - delta], [1.0 - delta, delta]]
    return build_chain(["a", "b"], P, name=f"two_state(delta={delta:g})")


def dhn(n: int) -> Chain:
    """The Diaconis-Holmes-Neal non-reversible walk on 2n states.

    States are the integers -(n-1) .. n; from i the walk moves to i+1
    (mod 2n) with probability 1 - 1/n and to -i (mod 2n) with probability
    1/n.  The stationary distribution is uniform.  The two destinations never
    coincide (their congruence would need 2i = -1 mod 2n), but assignments
    are accumulated defensively and the rows validated anyway.
    """
    n = _count(n, "dhn's n", BadParams, least=2, most=_MOST_STATES // 2)
    m = 2 * n
    values = list(range(-(n - 1), n + 1))
    # value v sits at index i = v + n - 1: v + 1 is at i + 1 and -v at m - 2 - i (mod m)
    rows = np.arange(m)
    flip = 1.0 / n
    P = np.zeros((m, m))
    np.add.at(P, (rows, (rows + 1) % m), 1.0 - flip)
    np.add.at(P, (rows, (m - 2 - rows) % m), flip)
    return build_chain([str(v) for v in values], P, name=f"dhn(n={n})")


def uniform_walk(N: int, labels=None) -> Chain:
    """Constant-row walk: every step lands uniformly; mixes in one step."""
    N = _count(N, "uniform_walk's N", BadParams, least=2, most=_MOST_STATES)
    P = np.full((N, N), 1.0 / N)
    if labels is None:
        labels = [f"s{i}" for i in range(N)]
    return build_chain(labels, P, name=f"uniform_walk(N={N})")


def directed_cycle(k: int) -> Chain:
    """Deterministic walk around a directed k-cycle (irreducible, period k)."""
    k = _count(k, "directed_cycle's k", BadParams, least=2, most=_MOST_STATES)
    P = np.roll(np.eye(k), 1, axis=1)
    return build_chain([f"s{i}" for i in range(k)], P, name=f"directed_cycle(k={k})")


def random_reversible(N: int, seed: int = 0) -> Chain:
    """Metropolis chain for a random positive weight vector (complete proposal).

    Propose uniformly among the other states, accept with min(1, w_y / w_x);
    the leftover mass stays put.  Detailed balance with respect to the
    normalised weights holds by construction.
    """
    N = _count(N, "random_reversible's N", BadParams, least=2, most=_MOST_STATES)
    rng = np.random.default_rng(_count(seed, "random_reversible's seed", BadParams))
    w = rng.uniform(0.5, 2.0, size=N)
    P = np.minimum(1.0, w[None, :] / w[:, None]) / (N - 1)
    np.fill_diagonal(P, 0.0)
    # every proposal from the lightest state is accepted: nothing stays put,
    # where 1 - sum would leave a rounding error as a phantom self-loop
    np.fill_diagonal(P, np.where(w == w.min(), 0.0, 1.0 - P.sum(axis=1)))
    return build_chain([f"s{i}" for i in range(N)], P, name=f"random_reversible(N={N},seed={seed})")


#: each generator kind but ``lazy_of`` (which wraps another), with the parameters it takes
_BUILDERS = {
    "two_state": (two_state, ("delta",)),
    "dhn": (dhn, ("n",)),
    "uniform_walk": (uniform_walk, ("N",)),
    "directed_cycle": (directed_cycle, ("k",)),
    "random_reversible": (random_reversible, ("N", "seed")),
}
KINDS = (*_BUILDERS, "lazy_of")


def generate(kind: str, **params) -> Chain:
    """Dispatch on a generator kind; unknown kinds or parameters raise BadParams."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise BadParams(f"unknown generator kind {kind!r} (known: {', '.join(KINDS)})")
    if kind == "lazy_of":
        inner = params.pop("of", None)
        if inner is None:
            raise BadParams("lazy_of needs 'of', the kind of the wrapped chain")
        wrapped = generate(inner, **params)
        out = lazy(wrapped)
        return Chain(out.labels, out.P, out.pi, name=f"lazy_of({wrapped.name})")
    fn, allowed = _BUILDERS[kind]
    cleaned = {k: v for k, v in params.items() if v is not None}
    extra = set(cleaned) - set(allowed)
    if extra:
        raise BadParams(f"{kind} does not take parameters {sorted(extra)}")
    missing = [k for k in allowed if k not in cleaned and k != "seed"]
    if missing:
        raise BadParams(f"{kind} requires parameters {missing}")
    return fn(**cleaned)


def two_state_uniform_flow(delta: float) -> Flow:
    """The explicit four-path flow from the two-state chain to the uniform walk.

    Cross demands ride the matching length-1 path; each self-loop demand of
    the uniform walk detours through the other state on a length-2 path, so
    the flow is not odd.  With the uniform stationary law all four masses are
    pi(a) P'(a, .) = 1/4.
    """
    base = two_state(delta)
    target = uniform_walk(2, labels=["a", "b"])
    a, b = 0, 1
    pi, Pt = target.pi, target.P
    paths = [
        FlowPath((a, b), float(pi[a] * Pt[a, b])),
        FlowPath((b, a), float(pi[b] * Pt[b, a])),
        FlowPath((a, b, a), float(pi[a] * Pt[a, a])),
        FlowPath((b, a, b), float(pi[b] * Pt[b, b])),
    ]
    return Flow(base, target, paths)
