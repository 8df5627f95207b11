"""Weighted path systems routing one chain's transitions over another's edges.

A flow between a base chain and a target chain on the same state space routes,
for every target edge (x, y) with positive probability, exactly
``pi'(x) P'(x, y)`` units of mass along base paths from x to y.  A flow is
*odd* when every positive-mass path has odd length.  Length-0 self paths are
legal (and useful for self-loop demands when oddness is not required); they
carry no edges and contribute nothing to any congestion.

Congestion of a base edge (z, w):

    A_zw = (1 / pi(z)P(z,w)) * sum over paths through (z,w) of r * len * mass

where r counts how often the edge occurs on the path.  Congestion of a state
z counts path occurrences the same way:

    B_z = (1 / pi(z)) * sum over occurrences of z on paths of len * mass

Flows are plain data and immutable in spirit; all operations are pure.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .chains import Chain, classify
from .errors import (
    DimensionMismatch,
    InvalidFlow,
    KappaInfinite,
    NoOddPath,
    NotErgodic,
    NotSimplifiable,
    StationaryMismatch,
    Unreachable,
)

DEMAND_TOL = 1e-10
PI_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class FlowPath:
    """An ordered walk over base edges carrying ``mass`` units of flow."""

    states: tuple[int, ...]
    mass: float

    @property
    def length(self) -> int:
        return len(self.states) - 1

    def edges(self):
        return list(zip(self.states[:-1], self.states[1:]))

    @property
    def demand_edge(self) -> tuple[int, int]:
        return (self.states[0], self.states[-1])


@dataclass
class Flow:
    """A collection of weighted base paths meeting every target-edge demand."""

    base: Chain
    target: Chain
    paths: list[FlowPath] = field(default_factory=list)

    def grouped(self) -> dict[tuple[int, int], list[FlowPath]]:
        groups: dict[tuple[int, int], list[FlowPath]] = defaultdict(list)
        for p in self.paths:
            groups[p.demand_edge].append(p)
        return dict(groups)


def _demands(target: Chain) -> dict[tuple[int, int], float]:
    """pi'(x) P'(x, y) for every target edge, keyed in sorted (row-major) order."""
    P, pi = target.P, target.pi
    xs, ys = np.nonzero(P > 0.0)
    return dict(zip(zip(xs.tolist(), ys.tolist()), (pi[xs] * P[xs, ys]).tolist()))


def _check_pair(base: Chain, target: Chain):
    if base.n != target.n:
        raise DimensionMismatch(f"state spaces differ: {base.n} vs {target.n}")
    if np.abs(base.pi - target.pi).max() > PI_MATCH_TOL:
        raise StationaryMismatch("base and target stationary distributions differ")


def validate_flow(flow: Flow) -> tuple[bool, bool, list[str]]:
    """Check the demand equations and path legality.

    Returns ``(valid, odd, violations)``.  Structural problems with the chain
    pair (different state space or stationary law) raise; everything about
    the paths themselves is reported in the violations list, which names the
    offending demand edge or path.
    """
    _check_pair(flow.base, flow.target)
    labels = flow.base.labels
    support = flow.base.support().tolist()
    violations: list[str] = []

    def name(p: FlowPath) -> str:
        return "->".join(labels[s] for s in p.states)

    for p in flow.paths:
        if not math.isfinite(p.mass) or p.mass < 0.0 or p.mass > 1.0 + 1e-12:
            violations.append(f"path {name(p)}: mass {p.mass!r} outside [0, 1]")
        if len(p.states) == 0:
            violations.append("empty path")
            continue
        edges = p.edges()
        for u, v in edges:
            if not support[u][v]:
                violations.append(f"path {name(p)}: edge ({labels[u]},{labels[v]}) not in the base chain")
                break
        if len(set(edges)) < len(edges):
            counts = Counter(edges)
            e = max(counts, key=counts.get)
            if counts[e] > 2:
                violations.append(
                    f"path {name(p)}: edge ({labels[e[0]]},{labels[e[1]]}) appears more than twice"
                )

    demands = _demands(flow.target)
    routed: dict[tuple[int, int], float] = defaultdict(float)
    for p in flow.paths:
        routed[p.demand_edge] += p.mass
    for edge, want in demands.items():
        got = routed.pop(edge, 0.0)
        if abs(got - want) > DEMAND_TOL:
            violations.append(
                f"edge ({labels[edge[0]]},{labels[edge[1]]}): routed {got!r}, demand {want!r}"
            )
    for edge, got in sorted(routed.items()):
        if got > DEMAND_TOL:
            violations.append(
                f"edge ({labels[edge[0]]},{labels[edge[1]]}): {got!r} units routed for a zero demand"
            )

    odd = all(p.length % 2 == 1 for p in flow.paths if p.mass > 0.0)
    return (not violations, odd, violations)


def _require_valid(flow: Flow) -> bool:
    """Raise InvalidFlow unless the flow is valid; return whether it is odd."""
    valid, odd, violations = validate_flow(flow)
    if not valid:
        raise InvalidFlow("; ".join(violations[:5]))
    return odd


def edge_congestion(flow: Flow) -> tuple[dict[tuple[int, int], float], float]:
    """Per-edge congestion over every base edge, and its maximum."""
    _require_valid(flow)
    return _edge_congestion(flow)


def _edge_congestion(flow: Flow) -> tuple[dict[tuple[int, int], float], float]:
    """:func:`edge_congestion` of a flow the caller has already validated."""
    base = flow.base
    load: dict[tuple[int, int], float] = defaultdict(float)
    for p in flow.paths:
        if p.mass == 0.0 or p.length == 0:
            continue
        for edge, r in Counter(p.edges()).items():
            load[edge] += r * p.length * p.mass
    xs, ys = np.nonzero(base.support())
    per_edge = {}
    worst = 0.0
    for x, y in zip(xs, ys):
        e = (int(x), int(y))
        cap = float(base.pi[x] * base.P[x, y])
        a = load.get(e, 0.0) / cap
        per_edge[e] = a
        worst = max(worst, a)
    return per_edge, worst


def _reversal_matrix(base: Chain) -> np.ndarray:
    return base.P.T * base.pi[None, :] / base.pi[:, None]


def _overlap(base: Chain, R: np.ndarray, z: int, w: int) -> float:
    """sum_x min(P(z, x), R(w, x)): how much z's exits overlap w's entries."""
    return float(np.minimum(base.P[z], R[w]).sum())


def state_congestion(flow: Flow) -> tuple[dict[int, float], float, float]:
    """Per-state congestion, its maximum B, and the spreading constant kappa.

    A state occurring several times on one path is charged once per
    occurrence.  kappa maximises 1 / overlap(z, w) over base edges carrying
    positive congestion; if one of those edges has zero overlap the constant
    is infinite and KappaInfinite is raised.
    """
    _require_valid(flow)
    return _state_congestion(flow)


def _state_congestion(flow: Flow) -> tuple[dict[int, float], float, float]:
    """:func:`state_congestion` of a flow the caller has already validated."""
    base = flow.base
    load = np.zeros(base.n)
    for p in flow.paths:
        if p.mass == 0.0 or p.length == 0:
            continue
        for s in p.states:
            load[s] += p.length * p.mass
    per_state = {z: float(load[z] / base.pi[z]) for z in range(base.n)}
    B = max(per_state.values())

    per_edge, _ = _edge_congestion(flow)
    R = _reversal_matrix(base)
    kappa = 0.0
    for (z, w), a in per_edge.items():
        if a <= 0.0:
            continue
        delta = _overlap(base, R, z, w)
        if delta == 0.0:
            raise KappaInfinite(
                f"edge ({base.labels[z]},{base.labels[w]}) carries flow but has zero overlap"
            )
        kappa = max(kappa, 1.0 / delta)
    return per_state, B, kappa


def _loop_erase(states: tuple[int, ...]) -> tuple[int, ...]:
    """Remove cycles between repeated vertices, keeping the endpoints.

    Equal endpoints with distinct interior vertices (a simple closed walk)
    are left alone; only interior repetitions are cut.
    """
    seq = list(states)
    while True:
        seen: dict[int, int] = {}
        cut = None
        for j, s in enumerate(seq):
            if s in seen and not (seen[s] == 0 and j == len(seq) - 1):
                cut = (seen[s], j)
                break
            seen.setdefault(s, j)
        if cut is None:
            return tuple(seq)
        i, j = cut
        seq = seq[: i] + seq[j:]


def _simplify(flow: Flow) -> Flow:
    """Reroute a flow onto simple support by loop erasure; congestion never grows."""
    merged: dict[tuple[int, ...], float] = defaultdict(float)
    for p in flow.paths:
        if p.mass == 0.0:
            continue
        merged[_loop_erase(p.states)] += p.mass
    simple = Flow(flow.base, flow.target, [FlowPath(s, m) for s, m in sorted(merged.items())])
    valid, _, violations = validate_flow(simple)
    if not valid:
        raise NotSimplifiable("loop erasure broke the demand equations: " + "; ".join(violations[:3]))
    return simple


def spread_flow(flow: Flow) -> Flow:
    """Convert low state congestion into low edge congestion by detouring.

    Every hop u -> v of every path is replaced by the two-hop detours
    u -> x -> v, with the hop's mass split across intermediates x in
    proportion to min(P(u, x), R(v, x)).  The result is again a flow for the
    same chain pair, and its edge congestion is at most
    ``8 * kappa * B`` of the (simplified) input, which is asserted.

    Non-simple input is first rerouted onto simple support (loop erasure,
    which cannot increase congestion).  Raises KappaInfinite when some loaded
    hop has no usable intermediate.
    """
    _require_valid(flow)
    _, a_before = _edge_congestion(flow)
    simple = _simplify(flow)
    _, a_simple = _edge_congestion(simple)
    if a_simple > a_before + 1e-12:
        raise AssertionError("loop erasure increased congestion (internal bug)")

    base = simple.base
    R = _reversal_matrix(base)
    _, B, kappa = _state_congestion(simple)

    out: dict[tuple[int, ...], float] = defaultdict(float)
    for p in simple.paths:
        if p.length == 0 or p.mass == 0.0:
            out[p.states] += p.mass
            continue
        hop_shares = []
        for u, v in p.edges():
            weights = np.minimum(base.P[u], R[v])
            delta = float(weights.sum())
            if delta == 0.0:
                raise KappaInfinite(
                    f"hop ({base.labels[u]},{base.labels[v]}) has no detour intermediate"
                )
            xs = np.nonzero(weights > 0.0)[0]
            hop_shares.append([(int(x), float(weights[x] / delta)) for x in xs])
        for detour, frac in _couple_hops(hop_shares):
            states = [p.states[0]]
            for (u, v), x in zip(p.edges(), detour):
                states.extend((x, v))
            out[tuple(states)] += frac * p.mass

    result = Flow(base, simple.target, [FlowPath(s, m) for s, m in sorted(out.items()) if m > 0.0])
    valid, _, violations = validate_flow(result)
    if not valid:
        raise AssertionError("spread flow failed validation: " + "; ".join(violations[:3]))
    _, a_after = _edge_congestion(result)
    if a_after > 8.0 * kappa * B + 1e-9:
        raise AssertionError(
            f"spread congestion {a_after!r} exceeds 8*kappa*B = {8.0 * kappa * B!r}"
        )
    return result


def _couple_hops(hop_shares: list[list[tuple[int, float]]]):
    """Couple per-hop intermediate distributions into full detour choices.

    Yields ``(intermediates, fraction)`` pairs whose per-hop marginals equal
    the given shares, using linearly many paths instead of the product set.
    Because all detoured paths have the same length, any coupling with the
    right marginals gives the same congestion as the full product.
    """
    fronts = [list(h) for h in hop_shares]
    remaining = 1.0
    while remaining > 1e-14:
        for h in fronts:
            while len(h) > 1 and h[0][1] <= 1e-14:
                h.pop(0)
        chunk = min(min(h[0][1] for h in fronts), remaining)
        if chunk <= 0.0:
            break  # floating-point dust only; demand check catches real loss
        yield tuple(h[0][0] for h in fronts), chunk
        remaining -= chunk
        for h in fronts:
            x, share = h[0]
            h[0] = (x, share - chunk)


def build_canonical_flow(base: Chain, target: Chain, odd: bool = False) -> Flow:
    """Route every demand along one shortest base path (ties: smallest state).

    With ``odd=True`` routing happens on the parity double cover so every
    path, including those for self-loop demands, has odd length; if the cover
    is disconnected for some demand the base is bipartite-like and NoOddPath
    is raised.  With ``odd=False`` self-loop demands take length-0 paths.

    One all-pairs shortest-path call on the unweighted support (BFS
    distances) gives every distance to every goal.  On the cover, node
    v + n*p stands for (v, parity p), and routes run from parity 0 to parity
    1.  Each goal g gets a next-hop table: from node a, the smallest
    successor one step closer to g.
    """
    _check_pair(base, target)
    if not classify(base).irreducible:
        raise NotErgodic("canonical flows need an irreducible base chain")
    n = base.n
    S = base.support()
    if odd:
        Z = np.zeros_like(S)
        S = np.block([[Z, S], [S, Z]])
    D = shortest_path(csr_matrix(S), unweighted=True)
    next_hop: dict[int, np.ndarray] = {}
    paths = []
    for (x, y), mass in _demands(target).items():
        if mass == 0.0:
            continue
        if not odd and x == y:
            paths.append(FlowPath((x,), mass))
            continue
        goal = y + n if odd else y
        if not np.isfinite(D[x, goal]):
            if odd:
                raise NoOddPath(
                    f"no odd-length route for demand ({base.labels[x]},{base.labels[y]})"
                )
            raise Unreachable(f"no route for demand ({base.labels[x]},{base.labels[y]})")
        hops = next_hop.get(goal)
        if hops is None:
            d = D[:, goal]
            hops = next_hop[goal] = np.argmax(S & (d[None, :] == d[:, None] - 1), axis=1)
        route = [x]
        a = x
        while a != goal:
            a = int(hops[a])
            route.append(a % n)
        paths.append(FlowPath(tuple(route), mass))
    return Flow(base, target, paths)
