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

Flows are immutable plain data, and all operations are pure.  A flow keeps
its paths as arrays: the states laid end to end, the path sizes, the masses.
The library builds them directly: canonical routing moves every route one hop
per pass, in lockstep.  A caller's ``FlowPath`` objects are parsed into them
once; ``FlowPath`` objects are made from them only when ``paths`` is read.
A flow keeps its walk: one numpy pass over the arrays, in blocks, gives
the verdict (valid, odd, violations) and the loads (the sums above, in path
order), which the congestions only divide by pi(z)P(z,w) or pi(z).  Spreading
splits each path over its detours by a quantile coupling, in blocks of paths.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import reprlib
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .chains import Chain, _check_pair, _require, time_reversal
from .errors import InvalidFlow, KappaInfinite, NoOddPath

#: each demand must be routed within this fraction of it, and a zero demand not at all
DEMAND_TOL = 1e-9
#: paths per block of the walk and of ``_read``: bounds their arrays and lists, yet keeps
#: numpy's call overhead small
_BLOCK = 4096


@dataclass(frozen=True, slots=True)
class FlowPath:
    """An ordered walk over base edges carrying ``mass`` units of flow."""

    states: tuple[int, ...]
    mass: float

    @property
    def length(self) -> int:
        return len(self.states) - 1

    @property
    def demand_edge(self) -> tuple[int, int]:
        return (self.states[0], self.states[-1])


@dataclass(frozen=True, init=False, eq=False)
class Flow:
    """Weighted base paths meeting every target-edge demand.  Its arrays are
    read-only, so the walk and the detour table the flow keeps cannot go stale;
    two threads may both compute them, harmlessly.  ``paths`` is a tuple: the
    caller's paths, or, for a flow the library built, those made from its
    arrays a block at a time (``_read``) when first read, and kept.  The
    library reads ``paths`` only to name the faults of an invalid flow.
    Flows, like chains, are equal only to themselves."""

    base: Chain
    target: Chain
    _states: np.ndarray = field(repr=False)  # every path's states, laid end to end
    _sizes: np.ndarray = field(repr=False)  # the number of states of each path
    _mass: np.ndarray = field(repr=False)
    _fault: np.ndarray = field(repr=False)  # per path: 0, or the rule ``_parse`` found broken

    def __init__(self, base: Chain, target: Chain, paths=()):
        """Parses ``paths``, FlowPath objects, into the arrays of ``_of`` once.
        InvalidFlow names an item that is no FlowPath with a sequence of states."""
        vars(self).update(vars(Flow._of(base, target, *_parse(paths, base.n))))

    @classmethod
    def _of(cls, base: Chain, target: Chain, states: np.ndarray, sizes: np.ndarray, mass: np.ndarray,
            fault: np.ndarray | None = None, paths: tuple[FlowPath, ...] | None = None) -> Flow:
        """The one array constructor.  Only a caller's paths, kept to name the
        faults ``_parse`` found, come with a fault array."""
        fault = np.zeros(len(sizes), np.uint8) if fault is None else fault
        for a in (states, sizes, mass, fault):
            a.flags.writeable = False
        flow = object.__new__(cls)
        vars(flow).update(base=base, target=target, _states=states, _sizes=sizes, _mass=mass, _fault=fault)
        if paths is not None:
            vars(flow)["paths"] = paths
        return flow

    @functools.cached_property
    def paths(self) -> tuple[FlowPath, ...]:
        return tuple(itertools.starmap(FlowPath, _read(self._states, self._sizes, self._mass)))

    @functools.cached_property
    def _validation(self) -> tuple:
        return _validate(self)

    @functools.cached_property
    def _detours(self) -> _Detours:
        return _detours(self.base, _loads(self)[0])


def _read(states: np.ndarray, sizes: np.ndarray, mass: np.ndarray):
    """Each path's states, a tuple of ints, and its mass, a float, from a flow's
    arrays: one ``tolist`` of each block's states, sizes and masses, _BLOCK
    paths at a time, so no list of the whole flow is made."""
    cut = np.cumsum(sizes)[_BLOCK - 1::_BLOCK]  # where each block's states end
    for lo, block in zip(range(0, len(sizes), _BLOCK), np.split(states, cut)):
        flat, ends = block.tolist(), list(itertools.accumulate(sizes[lo:lo + _BLOCK].tolist()))
        paths = [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]
        yield from zip(paths, mass[lo:lo + _BLOCK].tolist())


def _scrub(values: np.ndarray, kind: type) -> np.ndarray:
    """Zeroes and flags the values that are no ``kind``, or bools; tests each type once."""
    bad = {t for t in set(map(type, values)) if not issubclass(t, kind) or t is bool}
    flags = (np.fromiter(map(bad.__contains__, map(type, values)), bool, len(values)) if bad
             else np.zeros(len(values), bool))
    values[flags] = 0
    return flags


def _parse(paths, n: int) -> tuple:
    """A caller's paths as a flow's arrays, each path's fault (1 empty, 2 a state
    that is no integer, 3 a state outside 0..n-1, 4 a mass that is no number)
    and a tuple.  A faulty path's states and mass read 0 in the arrays; a mass
    beyond float range reads nan."""
    try:
        paths = tuple(paths)
    except TypeError:
        raise InvalidFlow(f"flow paths must be an iterable of FlowPath, got {reprlib.repr(paths)}") from None
    sizes = np.fromiter(map(_size, paths), np.intp, len(paths))
    states = np.fromiter(itertools.chain.from_iterable(map(attrgetter("states"), paths)),
                         object, int(sizes.sum()))
    owner = np.repeat(np.arange(len(paths)), sizes)
    bad_state = np.bincount(owner[_scrub(states, numbers.Integral)], minlength=len(paths)) > 0
    outside = (states < 0) | (states >= n)
    off_space = np.bincount(owner[outside], minlength=len(paths)) > 0
    masses = np.fromiter(map(attrgetter("mass"), paths), object, len(paths))
    bad_mass = _scrub(masses, numbers.Real)
    try:
        mass = masses.astype(float)
    except OverflowError:  # a number beyond float range: as nan, it is outside [0, 1]
        mass = np.array([m if abs(m) < 1e308 else math.nan for m in masses], float)
    fault = np.select([sizes == 0, bad_state, off_space, bad_mass], [1, 2, 3, 4], 0).astype(np.uint8)
    return np.where(outside, 0, states).astype(np.intp), sizes, mass, fault, paths


def _size(p) -> int:
    """The number of states of a caller's path; InvalidFlow if it is none."""
    try:
        if isinstance(p, FlowPath):
            return len(p.states)
    except TypeError:
        pass
    raise InvalidFlow(f"flow path {reprlib.repr(p)} is no FlowPath with a sequence of states")


def _demands(chain: Chain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain's edges (x, y) in row-major order and pi(x) P(x, y) for each:
    a target's demands, or a base's edge flows."""
    xs, ys = np.nonzero(chain.support())
    return xs, ys, chain.pi[xs] * chain.P[xs, ys]


def validate_flow(flow: Flow) -> tuple[bool, bool, list[str]]:
    """Check the demand equations and path legality.

    Each demand pi'(x) P'(x, y) must be routed within a relative DEMAND_TOL
    of it, and no positive mass may be routed between states with no demand.
    Returns ``(valid, odd, violations)``.  Structural problems with the chain
    pair (different state space or stationary law) raise; everything about
    the paths themselves is reported in the violations list, which names the
    offending demand edge or path.  The flow keeps the result with its
    loads; each call returns a fresh violations list.
    """
    valid, odd, violations, _, _ = flow._validation
    return valid, odd, list(violations)


@np.errstate(over="ignore", invalid="ignore")  # inf and nan masses are reported, not warned
def _validate(flow: Flow) -> tuple:
    """The walk a flow keeps, over its arrays in blocks of _BLOCK paths.  Paths
    with a fault are skipped; one sort of (path, edge) keys counts r.  Only
    paths that break a rule are read in Python, to name the fault.  Every sum
    runs in path order, as a loop over the paths would add it."""
    _check_pair(flow.base, flow.target)
    n, labels = flow.base.n, flow.base.labels
    support = flow.base.support()
    violations: list[str] = []
    routed, edge_load, state_load = np.zeros(n * n), np.zeros(n * n), np.zeros(n)
    odd = True
    ends = np.r_[0, np.cumsum(flow._sizes)]

    for lo in range(0, len(flow._sizes), _BLOCK):
        sizes, mass, fault = (a[lo:lo + _BLOCK] for a in (flow._sizes, flow._mass, flow._fault))
        states = flow._states[ends[lo]:ends[lo + len(sizes)]]
        owner = np.repeat(np.arange(len(sizes)), sizes)

        def among(ids: np.ndarray) -> np.ndarray:  # flags the paths in ids
            return np.bincount(ids, minlength=len(sizes)) > 0
        kept = fault == 0
        hop = np.flatnonzero((owner[1:] == owner[:-1]) & kept[owner[1:]])
        path, u, v = owner[hop + 1], states[hop], states[hop + 1]
        off_base = among(path[~support[u, v]])
        # a stable sort of nearly sorted keys and their run lengths, not np.unique's hash
        keys = np.sort((path * n + u) * n + v, kind="stable")
        first = np.ones(len(keys), bool)  # the first key of each run; a block may keep no hop
        first[1:] = keys[1:] != keys[:-1]
        runs = np.flatnonzero(first)
        keys, r = keys[runs], np.diff(runs, append=len(keys))
        path = keys // (n * n)  # now one entry per distinct (path, edge)
        thrice = among(path[r > 2])
        bad_range = ~np.isfinite(mass) | (mass < 0.0) | (mass > 1.0 + 1e-12)

        for i in np.flatnonzero(~kept | bad_range | off_base | thrice).tolist():
            p = flow.paths[lo + i]
            name = "" if fault[i] in (2, 3) else _named(p.states, labels)
            if fault[i]:  # every caller value is named by reprlib, which bounds its length
                violations.append(("empty path", f"path {reprlib.repr(p.states)}: states must be integers",
                                   f"path {reprlib.repr(p.states)}: state outside 0..{n - 1}",
                                   f"path {name}: mass {reprlib.repr(p.mass)} is not a number")[fault[i] - 1])
                continue
            if bad_range[i]:
                violations.append(f"path {name}: mass {reprlib.repr(p.mass)} outside [0, 1]")
            edges = Counter(zip(p.states, p.states[1:]))  # in first-occurrence order
            if off_base[i]:
                a, b = next(e for e in edges if not support[e])
                violations.append(f"path {name}: edge ({labels[a]},{labels[b]}) not in the base chain")
            if thrice[i]:
                a, b = max(edges, key=edges.get)
                violations.append(f"path {name}: edge ({labels[a]},{labels[b]}) appears more than twice")

        first = np.cumsum(sizes) - sizes
        np.add.at(routed, states[first[kept]] * n + states[(first + sizes - 1)[kept]], mass[kept])
        carry = kept & (mass > 0.0)
        length = sizes - 1
        odd = odd and bool(np.all(length[carry] % 2 == 1))
        weight = np.where(carry, mass, 0.0)  # adding 0.0 leaves a sum as it is
        np.add.at(state_load, states, (length * weight)[owner])
        np.add.at(edge_load, keys % (n * n), (r * length[path]) * weight[path])

    xs, ys, want = _demands(flow.target)
    got = routed[xs * n + ys]
    for k in np.flatnonzero(np.abs(got - want) > DEMAND_TOL * want).tolist():
        violations.append(f"edge ({labels[xs[k]]},{labels[ys[k]]}): "
                          f"routed {float(got[k])!r}, demand {float(want[k])!r}")
    routed[xs * n + ys] = 0.0
    for k in np.flatnonzero(routed > 0.0).tolist():
        violations.append(f"edge ({labels[k // n]},{labels[k % n]}): "
                          f"{float(routed[k])!r} units routed for a zero demand")
    return (not violations, odd, tuple(violations), edge_load.reshape(n, n), state_load)


def _named(states: tuple[int, ...], labels) -> str:
    """A path by its states' labels, its first 6 and then "..." if it has more."""
    return "->".join([labels[s] for s in states[:6]] + ["..."] * (len(states) > 6))


def _loads(flow: Flow) -> tuple[np.ndarray, np.ndarray]:
    """The n x n edge loads and the state loads of a valid flow; InvalidFlow if not."""
    valid, _, violations = validate_flow(flow)
    if not valid:
        raise InvalidFlow("; ".join(violations[:5]))
    return flow._validation[3:]


def _edge_congestions(flow: Flow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every base edge (xs, ys), in row-major order, and its congestion."""
    load, _ = _loads(flow)
    xs, ys, weight = _demands(flow.base)
    return xs, ys, load[xs, ys] / weight


def edge_congestion(flow: Flow) -> tuple[dict[tuple[int, int], float], float]:
    """Per-edge congestion over every base edge, and its maximum."""
    xs, ys, a = _edge_congestions(flow)
    per_edge = dict(zip(zip(xs.tolist(), ys.tolist()), a.tolist()))
    return per_edge, max(per_edge.values(), default=0.0)


def _worst_edge(flow: Flow) -> float:
    """The maximum of ``edge_congestion``, without its per-edge dict."""
    return float(_edge_congestions(flow)[2].max(initial=0.0))


class _Detours(NamedTuple):
    """The detour table of a flow's loaded hops (u, v), in sorted order: each
    one's overlap delta = sum_x m(x), m(x) = min(P(u, x), R(v, x)), and the
    ``_quantiles`` of its shares m(x) / delta; ``row`` is the n x n index of
    the hops into these arrays, -1 where a hop carries no flow."""

    row: np.ndarray
    delta: np.ndarray
    quantiles: tuple[np.ndarray, np.ndarray, np.ndarray]


def _detours(base: Chain, load: np.ndarray) -> _Detours:
    """The detour table of the hops with positive load.  Raises KappaInfinite
    at the first one with zero overlap."""
    us, vs = np.nonzero(load > 0.0)
    weights = np.minimum(base.P[us], time_reversal(base).P[vs])
    delta = weights.sum(axis=1)
    zero = np.flatnonzero(delta == 0.0)
    if zero.size:
        k = zero[0]
        raise KappaInfinite(
            f"edge ({base.labels[us[k]]},{base.labels[vs[k]]}) carries flow but has zero overlap"
        )
    row = np.full((base.n, base.n), -1, np.intp)
    row[us, vs] = np.arange(len(us))
    return _Detours(row, delta, _quantiles(weights / delta[:, None]))


def _quantiles(shares: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of shares (0 where a column is no intermediate): the kept
    columns, their cumulative shares, padded, and how many there are.  A share
    of 1e-14 or less is dust and dropped, except a row's last."""
    present = shares > 0.0
    kept = present & (shares > 1e-14)
    kept[np.arange(len(shares)), shares.shape[1] - 1 - np.argmax(present[:, ::-1], axis=1)] = True
    cum = np.cumsum(np.where(kept, shares, 0.0), axis=1)  # a dropped share adds 0.0: no rounding
    size = kept.sum(axis=1)
    columns = np.argsort(~kept, axis=1, kind="stable")[:, :size.max(initial=0)]
    return columns, np.take_along_axis(cum, columns, axis=1), size


def state_congestion(flow: Flow) -> tuple[dict[int, float], float, float]:
    """Per-state congestion, its maximum B, and the spreading constant kappa.

    A state occurring several times on one path is charged once per
    occurrence.  kappa maximises 1 / overlap(z, w), with overlap(z, w) =
    sum_x min(P(z, x), R(w, x)), over the hops of positive-mass paths (the
    base edges carrying positive congestion); if one of those has zero
    overlap the constant is infinite and KappaInfinite is raised.
    """
    _, state_load = _loads(flow)
    per_state = dict(enumerate((state_load / flow.base.pi).tolist()))
    kappa = float((1.0 / flow._detours.delta).max(initial=0.0))
    return per_state, max(per_state.values()), kappa


def _loop_erase(states: tuple[int, ...]) -> tuple[int, ...]:
    """Remove cycles between repeated vertices, keeping the endpoints, in one
    chronological pass: a repeated state cuts the walk back to its first
    occurrence.  Equal endpoints with distinct interior vertices (a simple
    closed walk) are left alone; only interior repetitions are cut."""
    out: list[int] = []
    at: dict[int, int] = {}  # where each state went into out; stale once cut
    for j, s in enumerate(states):
        i = at.get(s, len(out))
        if i < len(out) and out[i] == s and not (i == 0 and j == len(states) - 1):
            del out[i + 1:]
        else:
            at[s] = len(out)
            out.append(s)
    return tuple(out)


def _simplify(flow: Flow) -> Flow:
    """Reroute a flow onto simple support by loop erasure; congestion never
    grows.  A flow that loop erasure leaves as it is comes back itself: its
    paths carry mass, are distinct, and repeat no state but a closed walk's
    last.  One sort of (path, state) keys finds the paths that repeat one, and
    only those are read from the arrays and erased.  The paths with mass are
    laid out as ``_rows`` and sorted as tuples; each run of equal rows is one
    path, its mass the run's masses summed in path order, as a dict of tuples
    adds them."""
    n, states, sizes, mass = flow.base.n, flow._states, flow._sizes, flow._mass
    owner, j = _ragged(sizes)
    closing = (j > 0) & (j == sizes[owner] - 1) & (states == states[np.arange(len(j)) - j])
    keys = np.sort((owner * n + states)[~closing])
    looped = np.zeros(len(sizes), bool)
    looped[keys[1:][keys[1:] == keys[:-1]] // n] = True
    rows = _rows(states, sizes)
    if not looped.any() and mass.all() and _runs(rows)[1].all():
        return flow
    lost = np.flatnonzero(looped)
    erased = [_loop_erase(p) for p, _ in _read(states[looped[owner]], sizes[lost], mass[lost])]
    at, k = _ragged(np.fromiter(map(len, erased), np.intp, len(erased)))
    rows[lost] = -1
    rows[lost[at], k] = list(itertools.chain.from_iterable(erased))
    rows, mass = rows[mass != 0.0], mass[mass != 0.0]
    order, first = _runs(rows)
    rows = np.take(rows, order[first], axis=0)
    simple = Flow._of(flow.base, flow.target, rows[rows >= 0], (rows >= 0).sum(axis=1),
                      np.bincount(np.cumsum(first) - 1, weights=mass[order]))
    valid, _, violations = validate_flow(simple)
    if not valid:
        raise AssertionError("loop erasure broke the demand equations: " + "; ".join(violations[:3]))
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

    The hops of one path are split together by a quantile coupling
    (``_couple``), computed as arrays for blocks of paths; the detours are
    made and sorted as arrays too; no two are equal, so each carries its
    chunk's mass, as a dict of tuples would sum it.
    """
    a_before = _worst_edge(flow)
    simple = _simplify(flow)
    if _worst_edge(simple) > a_before + 1e-12:
        raise AssertionError("loop erasure increased congestion (internal bug)")

    _, B, kappa = state_congestion(simple)
    result = Flow._of(simple.base, simple.target, *_spread_paths(simple))
    valid, _, violations = validate_flow(result)
    if not valid:
        raise AssertionError("spread flow failed validation: " + "; ".join(violations[:3]))
    a_after = _worst_edge(result)
    if a_after > 8.0 * kappa * B + 1e-9:
        raise AssertionError(
            f"spread congestion {a_after!r} exceeds 8*kappa*B = {8.0 * kappa * B!r}"
        )
    return result


def _spread_paths(simple: Flow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spread paths of a simple flow, in sorted order, as a flow's arrays.
    Detours of paths with different first states never interleave in that
    order, and equal detours come from one path only, so the paths are ordered
    by first state and cut into blocks of whole runs of one first state, of
    about _BLOCK coupling points each, and each block is spread on its own."""
    table = simple._detours
    start = np.cumsum(simple._sizes) - simple._sizes
    order = np.argsort(simple._states[start], kind="stable")
    sizes, mass = simple._sizes[order], simple._mass[order]
    owner, j = _ragged(sizes)
    states = simple._states[start[order][owner] + j]
    hop = table.row[states[:-1], states[1:]][j[1:] > 0]
    state_lo = np.r_[0, np.cumsum(sizes)]
    hop_lo = state_lo - np.arange(len(sizes) + 1)
    points = np.r_[0, np.cumsum(table.quantiles[2][hop])][hop_lo[:-1]]  # coupling points before each path
    run = np.flatnonzero(np.r_[True, np.diff(states[state_lo[:-1]]) != 0])
    _, at = np.unique(points[run] // _BLOCK, return_index=True)
    bounds = [*run[at].tolist(), len(sizes)]
    blocks = [_spread_block(states[state_lo[lo]:state_lo[hi]], sizes[lo:hi], mass[lo:hi],
                            hop[hop_lo[lo]:hop_lo[hi]], table) for lo, hi in zip(bounds, bounds[1:])]
    return tuple(map(np.concatenate, zip(*blocks)))


def _spread_block(states: np.ndarray, sizes: np.ndarray, mass: np.ndarray, hop: np.ndarray,
                  table: _Detours) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spread paths of a block of simple paths, laid end to end, whose
    hops have the given table rows, as a flow's arrays.  Each chunk of the
    coupling is a detour row (s0, x1, s1, ..., xL, sL), padded with -1: its
    path's ``_rows`` row in the even columns, its picks in the odd ones.  The
    paths are distinct and each chunk of a path moves some pick, so no two rows
    are equal: each carries its chunk's mass.  A length-0 path is its own detour."""
    owner, frac, xs = _couple(table.quantiles, hop, sizes - 1)
    rows = np.empty((len(owner), 2 * xs.shape[1] + 1), np.intp)
    rows[:, ::2] = np.take(_rows(states, sizes), owner, axis=0)
    rows[:, 1::2] = xs
    order = np.lexsort(rows.T[::-1])  # as tuples, the first column the primary key
    total = (frac * mass[owner])[order]
    order, total = order[total > 0.0], total[total > 0.0]
    rows = np.take(rows, order, axis=0)
    return rows[rows >= 0], (2 * sizes - 1)[owner[order]], total


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows as tuples, by one ``np.lexsort``, and
    whether each sorted row starts a run of equal rows, by a look at its
    neighbour."""
    order = np.lexsort(rows.T[::-1])
    rows = np.take(rows, order, axis=0)
    first = np.ones(len(rows), bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return order, first


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths laid end to end: each entry's run, and its index in it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _rows(states: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Paths laid end to end as the rows of a matrix, padded with -1, which
    sorts a shorter row below its extensions as tuples sort."""
    rows = np.full((len(sizes), sizes.max(initial=0)), -1, np.intp)
    rows[_ragged(sizes)] = states
    return rows


def _keys(owner: np.ndarray, value) -> np.ndarray:
    """(owner, value) pairs as complex numbers.  Numpy orders complex numbers by
    real part, then by imaginary part, so a sort or a search over these keys
    orders the values within each owner, exactly, in one call."""
    keys = np.empty(np.broadcast(owner, value).shape, complex)
    keys.real, keys.imag = owner, value
    return keys


def _couple(quantiles: tuple[np.ndarray, np.ndarray, np.ndarray], hop: np.ndarray,
            per_path: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Couple per-hop intermediate distributions into full detour choices.

    ``quantiles`` holds, per table row, the kept intermediates, their
    cumulative shares and their count (see ``_quantiles``).  Path p has the
    next ``per_path[p]`` entries of ``hop``, each a table row.  Returns the
    chunks in order, each with its path and its fraction, and per chunk the
    intermediate of each hop of its path, a row padded with -1 to the
    longest path.

    Chunks run between consecutive chunk ends, a quantile coupling: from
    start t, the end is the first of the path's cumulative points past
    t + 1e-14, or, once a hop has no point past it, that hop's total; ends
    stop at 1.0, and chunks while 1 - t > 1e-14.  Each hop picks the
    intermediate its own points reach at t + 1e-14 (its last at most).  So
    the per-hop marginals are the shares, with linearly many detours, not the
    product set; all detoured paths have the same length, so any coupling
    with the right marginals gives the full product's congestion.
    """
    xs, cum, size = quantiles
    n = len(per_path)
    path = np.repeat(np.arange(n), per_path)
    size = size[hop]
    point_hop, k = _ragged(size)
    point_path, value = path[point_hop], cum[hop[point_hop], k]
    # a chain never passes the smallest hop total, nor 1.0: nodes are 0, the
    # points up to that cap, and the cap (1.0 alone for a path without hops)
    cap = np.ones(n)
    np.minimum.at(cap, path, cum[hop, size - 1])
    below = value <= cap[point_path]
    # a stable sort of nearly sorted keys, not np.unique: numpy 2.4 hashes, then sorts (14x slower)
    nodes = np.sort(np.concatenate([_keys(np.arange(n), 0.0), _keys(point_path[below], value[below]),
                                    _keys(np.arange(n), cap)]), kind="stable")
    nodes = nodes[np.r_[True, nodes[1:] != nodes[:-1]]]
    node_path, t = nodes.real.astype(np.intp), nodes.imag
    end = np.cumsum(np.bincount(node_path, minlength=n))  # one past each path's last node, its cap
    # the next node, then past every node within 1e-14: the first past t + 1e-14, or the cap
    last = end[node_path] - 1
    nxt, near = np.minimum(np.arange(len(nodes)) + 1, last), np.arange(len(nodes))
    while (near := near[(nxt[near] < last[near]) & (t[nxt[near]] <= t[near] + 1e-14)]).size:
        nxt[near] += 1
    nxt[(nxt == np.arange(len(nodes))) | ~(1.0 - t > 1e-14)] = -1
    # follow every path's chain at once, from its node 0
    start = np.zeros(len(nodes), bool)
    at = np.r_[0, end[:-1]]
    while (at := at[nxt[at] >= 0]).size:
        start[at] = True
        at = nxt[at]
    at = np.flatnonzero(start)
    owner = node_path[at]
    # each hop's pick: how many of its points t + 1e-14 reaches, clamped to its last
    j = np.arange(per_path.max(initial=0))
    real = j < per_path[owner, None]
    pair = np.where(real, (np.cumsum(per_path) - per_path)[owner, None] + j, 0)
    reach = np.searchsorted(_keys(point_hop, value), _keys(pair, t[at, None] + 1e-14), side="right")
    pick = np.minimum(reach - (np.cumsum(size) - size)[pair], size[pair] - 1)
    return owner, t[nxt[at]] - t[at], np.where(real, xs[hop[pair], pick], -1)


def build_canonical_flow(base: Chain, target: Chain, odd: bool = False) -> Flow:
    """Route every demand along one shortest base path (ties: smallest state).

    With ``odd=True`` routing happens on the parity double cover so every
    path, including those for self-loop demands, has odd length; if the cover
    is disconnected for some demand the base is bipartite-like and NoOddPath
    is raised.  With ``odd=False`` self-loop demands take length-0 paths.

    One all-pairs BFS of the support (``_bfs``) gives each route's size.  On
    the cover, node v + n*p stands for (v, parity p), and routes run from
    parity 0 to parity 1.  All routes walk in lockstep, one hop per pass: a
    route one step from its goal steps to it, any other to the first closer
    successor in its sorted row of ``np.nonzero(S)``.
    """
    _check_pair(base, target)
    _require(base, "irreducible", "canonical flow (base)")
    n = base.n
    S = base.support()
    if odd:
        S = np.block([[np.zeros_like(S), S], [S, np.zeros_like(S)]])
    rows, cols = np.nonzero(S)  # CSR rows: each row's columns in order
    starts = np.searchsorted(rows, np.arange(len(S) + 1))
    D = _bfs(S, starts, cols)
    xs, ys, mass = _demands(target)
    carried = mass != 0.0
    a, goal = xs[carried], ys[carried] + (n if odd else 0)
    left = D[a, goal]
    cut = np.flatnonzero(left < 0)
    if cut.size:  # the base is irreducible: only the cover cuts a demand off
        x, y = a[cut[0]], goal[cut[0]] - n
        raise NoOddPath(f"no odd-length route for demand ({base.labels[x]},{base.labels[y]})")
    sizes = left + 1
    states = np.empty(int(sizes.sum()), np.intp)
    states[slot := np.cumsum(sizes) - sizes] = a
    while (on := left > 0).any():
        a, goal, slot, left = a[on], goal[on], slot[on] + 1, left[on] - 1
        far = np.flatnonzero(left > 0)
        k, a = starts[a[far]], goal.copy()
        while far.size:  # each far route reads its neighbours in order until one is closer
            b = cols[k]
            hit = D[b, goal[far]] == left[far]
            a[far[hit]] = b[hit]
            far, k = far[~hit], k[~hit] + 1
        states[slot] = a % n
    return Flow._of(base, target, states, sizes, mass[carried])


def _bfs(S: np.ndarray, starts: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The hop distance between every pair of nodes of the support S, -1 where
    no path leads; ``starts`` and ``cols`` are S's rows in CSR form.  All
    sources search at once, a level at a time, and the frontier holds each
    (source, node) pair as its flat index into D.  A level expands the pairs
    along their rows, and stamps each new pair into D with its index, so one
    copy of each is kept without a sort.  Once the frontier's out-edges pass
    N²/4 the level is one dense product, frontier @ S, instead
    (direction-optimizing BFS: Beamer, Asanović and Patterson, SC 2012)."""
    N = len(S)
    D = np.full((N, N), -1, np.intp)
    flat, degree = D.reshape(-1), np.diff(starts)
    key, level = np.arange(N) * (N + 1), 0
    while key.size:
        flat[key] = level
        level += 1
        node = key % N
        if (out := degree[node]).sum() > N * N / 4:
            frontier = np.zeros(N * N, np.float32)
            frontier[key] = 1.0
            key = np.flatnonzero((frontier.reshape(N, N) @ S.astype(np.float32) > 0.0) & (D < 0))
        else:
            owner, j = _ragged(out)
            key = (key - node)[owner] + cols[starts[node[owner]] + j]  # key - node is source * N
            key = key[flat[key] < 0]
            flat[key] = stamp = -2 - np.arange(len(key))
            key = key[flat[key] == stamp]
    return D
