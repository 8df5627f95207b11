"""Flows: validation, congestion, canonical routing, and detour spreading."""

import bisect
import dataclasses
import itertools
import json
import reprlib
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from mixbounds import (
    Flow,
    FlowPath,
    build_canonical_flow,
    build_chain,
    dhn,
    dirichlet_form,
    directed_cycle,
    edge_congestion,
    f_form,
    lazy,
    multiply,
    random_reversible,
    spread_flow,
    state_congestion,
    time_reversal,
    two_state,
    two_state_uniform_flow,
    uniform_walk,
    validate_flow,
)
from mixbounds import flows
from mixbounds.chains import _check_pair, _require, _reversal_product
from mixbounds.errors import InvalidFlow, KappaInfinite, NoOddPath, StationaryMismatch
from mixbounds.serialize import flow_from_dict, flow_to_dict

from _families import doubly_stochastic, nonreversible_pair, quadratic_forms, reversible_pair, tiny_mass_chain


# ---------------------------------------------------------------- validation


def test_explicit_two_state_flow_is_valid_not_odd():
    flow = two_state_uniform_flow(0.25)
    valid, odd, violations = validate_flow(flow)
    assert valid and not odd and violations == []


def test_halved_mass_names_the_broken_edge():
    flow = two_state_uniform_flow(0.25)
    p = flow.paths[0]
    assert p.states == (0, 1)
    halved = [FlowPath(p.states, p.mass / 2), *flow.paths[1:]]
    tampered = Flow(flow.base, flow.target, halved)
    valid, _, violations = validate_flow(tampered)
    assert not valid
    assert any("(a,b)" in v for v in violations)


def test_demands_are_met_relative_to_their_size():
    """A demand of 3.3e-12 is still a demand, and mass routed where there is
    none is reported however small: an absolute slack let both through."""
    e = 1e-11
    chain = build_chain(["a", "b", "c"], [[1 - e, e, 0.0], [e, 0.5 - e, 0.5], [0.0, 0.5, 0.5]])
    flow = build_canonical_flow(chain, chain)
    assert validate_flow(flow)[0] and edge_congestion(flow)[1] == pytest.approx(1.0, rel=1e-12)
    dropped = Flow(chain, chain, [p for p in flow.paths if p.states != (0, 1)])
    valid, _, violations = validate_flow(dropped)
    assert not valid and any(v.startswith("edge (a,b): routed 0.0") for v in violations)
    extra = Flow(chain, chain, [*flow.paths, FlowPath((0, 1, 2), 5e-11)])
    valid, _, violations = validate_flow(extra)
    assert not valid and violations == ["edge (a,c): 5e-11 units routed for a zero demand"]
    with pytest.raises(InvalidFlow):  # which read an edge congestion of 31 on (a,b)
        edge_congestion(extra)


def test_length_one_paths_are_odd():
    chain = random_reversible(5, seed=21)
    flow = build_canonical_flow(chain, chain, odd=False)
    # base covers the target edge set, so cross demands ride length-1 paths
    valid, odd, _ = validate_flow(flow)
    assert valid
    lengths = {p.length for p in flow.paths}
    assert lengths <= {0, 1}
    only_cross = Flow(chain, chain, [p for p in flow.paths if p.length == 1])
    assert all(p.length % 2 == 1 for p in only_cross.paths)


def test_path_off_support_is_reported():
    chain = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    bad = Flow(chain, target, [FlowPath((0, 1, 1), 0.25)])
    valid, _, violations = validate_flow(bad)
    assert not valid  # (1,1) is an edge, but demands are unmet; check edge naming too
    chain_noloop = build_chain(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    bad2 = Flow(chain_noloop, target, [FlowPath((0, 0, 1), 0.25)])
    _, _, violations2 = validate_flow(bad2)
    assert any("not in the base chain" in v for v in violations2)


def test_edge_used_more_than_twice_is_reported():
    chain = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    walk = FlowPath((0, 1, 0, 1, 0, 1), 0.25)  # edge (a,b) three times
    _, _, violations = validate_flow(Flow(chain, target, [walk]))
    assert any("more than twice" in v for v in violations)


def test_a_flow_is_immutable():
    canonical = two_state_uniform_flow(0.25)
    paths = list(canonical.paths)
    flow = Flow(canonical.base, canonical.target, paths)
    assert isinstance(flow.paths, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        flow.paths = []
    paths[0] = FlowPath(paths[0].states, paths[0].mass / 2)  # the caller's list only
    assert flow.paths == canonical.paths
    valid, _, violations = validate_flow(flow)
    assert valid
    violations.append("tampered")
    assert validate_flow(flow) == (True, False, [])


def test_path_states_outside_the_state_space_are_reported():
    chain = random_reversible(4, 1)
    target = lazy(chain)
    canonical = build_canonical_flow(chain, target)
    for bad, want in (((0, 7), "path (0, 7): state outside 0..3"),
                      ((-1, 2), "path (-1, 2): state outside 0..3"),
                      ((), "empty path")):
        flow = Flow(chain, target, [*canonical.paths, FlowPath(bad, 0.1)])
        valid, _, violations = validate_flow(flow)
        assert not valid
        assert violations == [want]  # kept out of the demand sums
        with pytest.raises(InvalidFlow):
            edge_congestion(flow)


@pytest.mark.parametrize("bad, want", [
    (FlowPath((0, 1.5), 0.1), "path (0, 1.5): states must be integers"),
    (FlowPath((True, 2), 0.1), "path (True, 2): states must be integers"),
    (FlowPath((0, 1), "0.1"), "path s0->s1: mass '0.1' is not a number"),
    (FlowPath((0, 1), None), "path s0->s1: mass None is not a number"),
    pytest.param(FlowPath((0, 1), 10**400), f"path s0->s1: mass {reprlib.repr(10**400)} outside [0, 1]",
                 id="mass-too-large-for-a-float"),
])
def test_non_integer_states_and_non_numeric_masses_are_reported(bad, want):
    chain = random_reversible(4, 1)
    target = lazy(chain)
    flow = Flow(chain, target, [*build_canonical_flow(chain, target).paths, bad])
    valid, _, violations = validate_flow(flow)
    assert not valid
    assert violations == [want]  # kept out of the demand sums
    with pytest.raises(InvalidFlow):
        edge_congestion(flow)


def test_a_long_path_is_named_in_a_short_violation():
    """A caller's states are named through ``reprlib``, and a path by its
    labels up to its sixth state, so no violation grows with the path."""
    chain = random_reversible(5, seed=3)  # state s0 has no self-loop
    canonical = list(build_canonical_flow(chain, chain).paths)
    for bad, want in [
        (FlowPath((*range(5),) * 1200 + (9,), 0.0), "path (0, 1, 2, 3, 4, 0, ...): state outside 0..4"),
        (FlowPath((1, 2, 3, 4) * 1500 + (0, 0), 0.0),
         "path s1->s2->s3->s4->s1->s2->...: edge (s0,s0) not in the base chain"),
    ]:
        violations = validate_flow(Flow(chain, chain, [*canonical, bad]))[2]
        assert violations[0] == want and len(want) < 200


def test_every_violation_kind_is_named_in_path_order():
    chain = random_reversible(5, seed=3)  # state s0 has no self-loop
    canonical = [p for p in build_canonical_flow(chain, chain).paths if p.states != (1, 0)]
    bad = [
        FlowPath((), 0.1),
        FlowPath((0, 1.5), 0.1),
        FlowPath((2.5, 1), None),  # the state is named, not the mass
        FlowPath((0, 9), 0.1),
        FlowPath((0, 1), "0.1"),
        FlowPath((0, 1), 1.5),
        FlowPath((0, 0), 0.05),
        FlowPath((0, 1, 0, 1, 0, 1), 0.0),
    ]
    flow = Flow(chain, chain, canonical[:3] + bad[:5] + canonical[3:6] + bad[5:] + canonical[6:])
    # recorded from the per-path loop that the array walk replaced
    assert validate_flow(flow) == (False, False, [
        "empty path",
        "path (0, 1.5): states must be integers",
        "path (2.5, 1): states must be integers",
        "path (0, 9): state outside 0..4",
        "path s0->s1: mass '0.1' is not a number",
        "path s0->s1: mass 1.5 outside [0, 1]",
        "path s0->s0: edge (s0,s0) not in the base chain",
        "path s0->s1->s0->s1->s0->s1: edge (s0,s1) appears more than twice",
        "edge (s0,s1): routed 1.5302148678661394, demand 0.030214867866139333",
        "edge (s1,s0): routed 0.0, demand 0.030214867866139337",
        "edge (s0,s0): 0.05 units routed for a zero demand",
    ])


def test_numpy_integer_states_and_float_masses_are_accepted():
    chain = random_reversible(4, 1)
    target = lazy(chain)
    canonical = build_canonical_flow(chain, target)
    flow = Flow(chain, target, [FlowPath(tuple(np.int64(s) for s in p.states), np.float64(p.mass))
                                for p in canonical.paths])
    assert validate_flow(flow) == validate_flow(canonical)
    assert edge_congestion(flow) == edge_congestion(canonical)
    assert state_congestion(flow) == state_congestion(canonical)


def test_stationary_mismatch_raises():
    skew = build_chain(["a", "b"], [[0.5, 0.5], [0.25, 0.75]])
    flow = Flow(skew, uniform_walk(2, labels=["a", "b"]), [])
    with pytest.raises(StationaryMismatch):
        validate_flow(flow)


# ---------------------------------------------------------------- congestion


def test_edge_congestion_explicit_flow():
    for delta in (0.25, 0.1):
        flow = two_state_uniform_flow(delta)
        per_edge, worst = edge_congestion(flow)
        assert per_edge[(0, 0)] == 0.0 and per_edge[(1, 1)] == 0.0
        want = 5.0 / (2.0 * (1.0 - delta))
        assert abs(per_edge[(0, 1)] - want) <= 1e-12
        assert abs(per_edge[(1, 0)] - want) <= 1e-12
        assert abs(worst - want) <= 1e-12


def test_identity_flow_has_unit_congestion():
    chain = random_reversible(6, seed=31)
    flow = build_canonical_flow(chain, chain, odd=False)
    per_edge, worst = edge_congestion(flow)
    used = [a for a in per_edge.values() if a > 0.0]
    assert abs(worst - 1.0) <= 1e-12
    assert all(abs(a - 1.0) <= 1e-12 for a in used)


def test_length_zero_paths_contribute_nothing():
    chain = random_reversible(4, seed=41)
    flow = build_canonical_flow(chain, chain, odd=False)
    only_loops = [p for p in flow.paths if p.length == 0]
    assert only_loops  # metropolis chains keep some self-loop mass
    stripped = Flow(chain, chain, [p for p in flow.paths if p.length > 0])
    # removing them breaks the demand equations but leaves congestion as-is
    load_full = state_congestion(flow)[0]
    per_edge_full, _ = edge_congestion(flow)
    for p in only_loops:
        x = p.states[0]
        # a length-0 path multiplies everything by |path| = 0
        assert load_full[x] == pytest.approx(
            sum(q.length * q.mass for q in flow.paths if x in q.states) / chain.pi[x]
        )
    assert all(per_edge_full[e] == 0.0 for e in per_edge_full if e[0] == e[1])


def test_state_congestion_explicit_flow():
    flow = two_state_uniform_flow(0.25)
    per_state, B, kappa = state_congestion(flow)
    # occurrences: (a,b) once, (b,a) once, (a,b,a) twice, (b,a,b) once; each
    # weighted by path length times mass 1/4, then divided by pi(a) = 1/2
    assert abs(per_state[0] - 4.0) <= 1e-12
    assert abs(per_state[1] - 4.0) <= 1e-12
    assert abs(B - 4.0) <= 1e-12
    # overlap of exits of a with entries of b: 2 min(delta, 1 - delta) = 1/2
    assert abs(kappa - 2.0) <= 1e-12


def test_kappa_infinite_on_cycle():
    c3 = directed_cycle(3)
    target = uniform_walk(3)
    flow = build_canonical_flow(c3, target, odd=False)
    with pytest.raises(KappaInfinite):
        state_congestion(flow)
    with pytest.raises(KappaInfinite):
        spread_flow(flow)


def test_congestion_requires_valid_flow():
    flow = two_state_uniform_flow(0.25)
    broken = Flow(flow.base, flow.target, flow.paths[:2])
    for public in (edge_congestion, state_congestion, spread_flow):
        with pytest.raises(InvalidFlow):
            public(broken)


def _per_path_congestions(flow):
    """Both congestions from the per-path formulas, each in its own walk."""
    base = flow.base
    carried = [p for p in flow.paths if p.mass != 0.0 and p.length != 0]
    load = defaultdict(float)
    for p in carried:
        for edge, r in Counter(zip(p.states, p.states[1:])).items():
            load[edge] += r * p.length * p.mass
    per_edge, worst = {}, 0.0
    for x, y in zip(*np.nonzero(base.support())):
        a = load.get((int(x), int(y)), 0.0) / float(base.pi[x] * base.P[x, y])
        per_edge[int(x), int(y)] = a
        worst = max(worst, a)
    state_load = np.zeros(base.n)
    for p in carried:
        for s in p.states:
            state_load[s] += p.length * p.mass
    per_state = {z: float(state_load[z] / base.pi[z]) for z in range(base.n)}
    R = base.P.T * base.pi[None, :] / base.pi[:, None]
    kappa = 0.0
    for z, w in sorted({e for p in carried for e in zip(p.states, p.states[1:])}):
        kappa = max(kappa, 1.0 / float(np.minimum(base.P[z], R[w]).sum()))
    return (per_edge, worst), (per_state, max(per_state.values()), kappa)


@st.composite
def _small_flows(draw):
    """A valid flow on a lazy random_reversible chain (every edge present):
    each demand split over 1-3 paths, some of which use one edge twice or
    have length 0, plus a few zero-mass paths anywhere."""
    n = draw(st.integers(3, 5))
    base = lazy(random_reversible(n, draw(st.integers(0, 99))))
    target = lazy(base) if draw(st.booleans()) else base
    state = st.integers(0, n - 1)

    def route(x, y):
        shape = draw(st.sampled_from(["walk", "twice", "stay"]))
        if shape == "stay" and x == y:
            return (x,)
        if shape == "twice":
            z = y if x != y else (x + 1) % n
            return (x, z, x, z, x) if x == y else (x, y, x, y)
        walk = (x, *draw(st.lists(state, max_size=3)), y)
        return walk if max(Counter(zip(walk, walk[1:])).values()) <= 2 else (x, y)

    paths = []
    xs, ys = np.nonzero(target.P)
    for x, y in zip(xs.tolist(), ys.tolist()):
        demand = target.pi[x] * target.P[x, y]
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
        paths += [FlowPath(route(x, y), demand * w / sum(weights)) for w in weights]
    for _ in range(draw(st.integers(0, 3))):
        paths.append(FlowPath(route(draw(state), draw(state)), 0.0))
    order = draw(st.permutations(range(len(paths))))
    return Flow(base, target, [paths[i] for i in order])


@settings(derandomize=True, database=None, deadline=None)
@given(_small_flows())
def test_congestions_equal_the_per_path_formulas(flow):
    assert validate_flow(flow)[0]
    (per_edge, worst), (per_state, B, kappa) = _per_path_congestions(flow)
    got_edge, got_worst = edge_congestion(flow)
    assert list(got_edge.items()) == list(per_edge.items()) and got_worst == worst
    got_state, got_B, got_kappa = state_congestion(flow)
    assert list(got_state.items()) == list(per_state.items())
    assert (got_B, got_kappa) == (B, kappa)


def test_loads_across_walk_blocks_equal_the_per_path_formulas():
    base = random_reversible(32, 1)
    spread = spread_flow(build_canonical_flow(base, lazy(base), odd=True))
    flow = Flow(spread.base, spread.target, spread.paths)
    assert len(flow.paths) > 4 * flows._BLOCK
    assert any(len(set(zip(p.states, p.states[1:]))) < p.length for p in flow.paths)
    (per_edge, worst), (per_state, B, kappa) = _per_path_congestions(flow)
    assert edge_congestion(flow) == (per_edge, worst)
    assert state_congestion(flow) == (per_state, B, kappa)


# ---------------------------------------------------------------- canonical flows


def _grouped(flow):
    """The paths of a flow by demand edge."""
    groups = defaultdict(list)
    for p in flow.paths:
        groups[p.demand_edge].append(p)
    return groups


def test_canonical_flow_self_demands():
    chain = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(chain, target, odd=False)
    by_demand = _grouped(flow)
    assert by_demand[(0, 0)][0].states == (0,)
    flow_odd = build_canonical_flow(chain, target, odd=True)
    assert all(p.length % 2 == 1 for p in flow_odd.paths)
    assert _grouped(flow_odd)[(0, 0)][0].states == (0, 0)  # direct self-loop


def test_canonical_flow_odd_impossible_on_bipartite():
    flip = build_chain(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    target = uniform_walk(2, labels=["a", "b"])
    with pytest.raises(NoOddPath):
        build_canonical_flow(flip, target, odd=True)


def test_canonical_flow_lexicographic_tie_break():
    # square with self-loops: 0 -> {1, 2} -> 3; both routes have length 2
    P = np.array(
        [
            [0.4, 0.3, 0.3, 0.0],
            [0.3, 0.4, 0.0, 0.3],
            [0.3, 0.0, 0.4, 0.3],
            [0.0, 0.3, 0.3, 0.4],
        ]
    )
    square = build_chain(["s0", "s1", "s2", "s3"], P)
    flow = build_canonical_flow(square, uniform_walk(4), odd=False)
    assert _grouped(flow)[(0, 3)][0].states == (0, 1, 3)
    assert _grouped(flow)[(3, 0)][0].states == (3, 1, 0)


def test_canonical_flow_odd_on_chain_without_self_loops():
    # some metropolis states have zero self-loop; odd routing must detour
    chain = random_reversible(5, seed=3)
    zero_loop = [x for x in range(5) if chain.P[x, x] == 0.0]
    assert zero_loop, "seed chosen so at least one state has no self-loop"
    target = lazy(chain)
    flow = build_canonical_flow(chain, target, odd=True)
    valid, odd, violations = validate_flow(flow)
    assert valid and odd, violations


def test_canonical_flow_dhn_pair():
    base = dhn(3)
    target = uniform_walk(6)
    for odd in (False, True):
        flow = build_canonical_flow(base, target, odd=odd)
        valid, is_odd, violations = validate_flow(flow)
        assert valid, violations
        assert is_odd == odd or is_odd  # non-odd construction may be odd by luck


def _reference_route(base, start, goal, odd):
    """Lexicographically smallest shortest path from start to goal, by one BFS
    per demand (the original routing, kept as the reference).

    With ``odd`` the search runs on the parity double cover, forcing the path
    length to be odd.  Returns None when the goal is unreachable.
    """
    n = base.n
    support = base.support()
    if odd:
        # nodes (v, parity); edge (v,p) -> (w, 1-p) for each base edge v -> w
        dist = -np.ones((n, 2), dtype=int)
        dist[goal, 1] = 0
        frontier = [(goal, 1)]
        while frontier:
            nxt = []
            for v, p in frontier:
                for u in np.nonzero(support[:, v])[0]:
                    if dist[u, 1 - p] < 0:
                        dist[u, 1 - p] = dist[v, p] + 1
                        nxt.append((int(u), 1 - p))
            frontier = nxt
        if dist[start, 0] < 0:
            return None
        path = [start]
        v, p = start, 0
        while (v, p) != (goal, 1):
            d = dist[v, p]
            for w in range(n):
                if support[v, w] and dist[w, 1 - p] == d - 1:
                    path.append(w)
                    v, p = w, 1 - p
                    break
        return tuple(path)

    if start == goal:
        return (start,)
    dist = -np.ones(n, dtype=int)
    dist[goal] = 0
    frontier = [goal]
    while frontier:
        nxt = []
        for v in frontier:
            for u in np.nonzero(support[:, v])[0]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(int(u))
        frontier = nxt
    if dist[start] < 0:
        return None
    path = [start]
    v = start
    while v != goal:
        for w in range(n):
            if support[v, w] and dist[w] == dist[v] - 1:
                path.append(w)
                v = w
                break
    return tuple(path)


def _reference_canonical(base, target, odd):
    paths = []
    for x, y in zip(*np.nonzero(target.P > 0.0)):
        x, y = int(x), int(y)
        route = _reference_route(base, x, y, odd)
        if route is None:
            raise NoOddPath(f"no odd-length route for demand ({base.labels[x]},{base.labels[y]})")
        paths.append((route, float(target.pi[x] * target.P[x, y])))
    return paths


def test_canonical_flow_matches_per_demand_bfs():
    pairs = []
    for n in range(3, 13):
        base, target = reversible_pair(n, seed=n)
        pairs += [(base, target), (target, base)]
    pairs += [(dhn(3), uniform_walk(6)), (dhn(5), uniform_walk(10))]
    ds = doubly_stochastic(9, seed=4)
    pairs += [(ds, uniform_walk(9)), (multiply(time_reversal(ds), ds), uniform_walk(9))]
    for base, target in pairs:
        for odd in (False, True):
            flow = build_canonical_flow(base, target, odd=odd)
            got = [(p.states, p.mass) for p in flow.paths]
            assert got == _reference_canonical(base, target, odd), (base.name, target.name, odd)
    cycle = directed_cycle(4)
    with pytest.raises(NoOddPath):
        _reference_canonical(cycle, uniform_walk(4), odd=True)
    with pytest.raises(NoOddPath):
        build_canonical_flow(cycle, uniform_walk(4), odd=True)


def _next_hop_canonical(base, target, odd=False):
    """The per-goal next-hop router that the lockstep walk replaced, kept as
    the oracle: each goal g gets a table, from node a, of the smallest
    successor one step closer to g, and each demand's route walks it."""
    _check_pair(base, target)
    _require(base, "irreducible", "canonical flow (base)")
    n = base.n
    S = base.support()
    if odd:
        Z = np.zeros_like(S)
        S = np.block([[Z, S], [S, Z]])
    D = shortest_path(csr_matrix(S), unweighted=True)
    next_hop: dict[int, np.ndarray] = {}
    xs, ys, mass = flows._demands(target)
    carried = mass != 0.0
    routes = []
    for x, y in zip(xs[carried].tolist(), ys[carried].tolist()):
        goal = y + n if odd else y
        if not np.isfinite(D[x, goal]):  # the base is irreducible: only the cover cuts a demand off
            raise NoOddPath(f"no odd-length route for demand ({base.labels[x]},{base.labels[y]})")
        route, a = [x], x
        while a != goal:
            if goal not in next_hop:
                d = D[:, goal]
                next_hop[goal] = np.argmax(S & (d[None, :] == d[:, None] - 1), axis=1)
            a = int(next_hop[goal][a])
            route.append(a % n)
        routes.append(route)
    return Flow(base, target, [FlowPath(tuple(r), m) for r, m in zip(routes, mass[carried].tolist())])


def _routed_as_the_oracle(base, target, odd):
    """The lockstep router's flow, whose arrays equal the oracle's byte for
    byte; or None, where both raise NoOddPath with the same message."""
    try:
        want = _next_hop_canonical(base, target, odd)
    except NoOddPath as raised:
        with pytest.raises(NoOddPath) as got:
            build_canonical_flow(base, target, odd=odd)
        assert str(got.value) == str(raised)
        return None
    flow = build_canonical_flow(base, target, odd=odd)
    for name in ("_states", "_sizes", "_mass"):
        assert getattr(flow, name).tobytes() == getattr(want, name).tobytes(), name
    return flow


@st.composite
def _cycle_and_permutations(draw):
    """A doubly stochastic chain on a directed support: the directed n-cycle
    plus k random permutations, averaged.  Without self-loops each
    permutation is a rotation conjugated by a random permutation, so it fixes
    no state; with them the identity joins.  Some are periodic or bipartite."""
    n = draw(st.integers(2, 24))
    loops = draw(st.booleans())
    maps = [np.roll(np.arange(n), -1)]
    for _ in range(draw(st.integers(0, 3))):
        sigma = np.array(draw(st.permutations(range(n))))
        if loops:
            maps.append(sigma)
        else:
            maps.append(np.argsort(sigma)[(sigma + draw(st.integers(1, n - 1))) % n])
    if loops:
        maps.append(np.arange(n))
    P = np.zeros((n, n))
    for m in maps:
        P[np.arange(n), m] += 1.0
    return build_chain([f"s{i}" for i in range(n)], P / len(maps))


@settings(derandomize=True, database=None, deadline=None)
@given(_cycle_and_permutations(), st.booleans())
def test_lockstep_routing_equals_the_next_hop_oracle(base, odd):
    _routed_as_the_oracle(base, uniform_walk(base.n), odd)


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
def test_lockstep_routing_equals_the_oracle_on_long_routes_and_large_bases(odd):
    """On the 61-cycle's cover, routes run up to 121 hops."""
    flow = _routed_as_the_oracle(directed_cycle(61), uniform_walk(61), odd)
    assert flow._sizes.max() == (122 if odd else 61)
    base = random_reversible(200, 1)
    assert _routed_as_the_oracle(base, lazy(base), odd) is not None


def test_lockstep_routing_raises_the_oracles_no_odd_path():
    """The even cycle is bipartite, so its cover is cut in two."""
    assert _routed_as_the_oracle(directed_cycle(60), uniform_walk(60), odd=True) is None


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
def test_product_routing_equals_the_oracle(odd):
    """``compare --product`` routes over the base's reversal product R(P)P."""
    for n, seed in ((5, 0), (10, 1), (20, 3), (30, 5)):
        for self_loop in (0.0, 0.2):
            base = doubly_stochastic(n, seed=seed, self_loop=self_loop)
            assert _routed_as_the_oracle(_reversal_product(base), uniform_walk(n), odd) is not None


def _seeded_supports():
    """A single state, with and without its loop, then 1,200 seeded supports
    of 2-80 nodes: dense, sparse, directed cycles under a random relabelling
    (with a few chords), and parity covers of bipartite supports, whose two
    halves cannot reach each other."""
    yield np.ones((1, 1), bool)
    yield np.zeros((1, 1), bool)
    rng = np.random.default_rng(47)
    for k in range(1200):
        n = int(rng.integers(2, 81))
        if k % 4 == 0:
            yield rng.random((n, n)) < rng.uniform(0.25, 1.0)
        elif k % 4 == 1:
            yield rng.random((n, n)) < rng.uniform(0.0, 3.0 / n)
        elif k % 4 == 2:
            sigma = rng.permutation(n)
            S = np.zeros((n, n), bool)
            S[sigma, np.roll(sigma, -1)] = True
            yield S | (rng.random((n, n)) < rng.uniform(0.0, 1.0 / n))
        else:
            half, m = int(rng.integers(1, n // 2 + 1)), n // 2
            S = np.zeros((m, m), bool)  # states below half only touch states from half on
            S[:half, half:] = rng.random((half, m - half)) < rng.uniform(0.1, 1.0)
            S[half:, :half] = rng.random((m - half, half)) < rng.uniform(0.1, 1.0)
            yield np.block([[np.zeros_like(S), S], [S, np.zeros_like(S)]])


def test_bfs_distances_equal_scipys_shortest_path():
    count = 0
    for S in _seeded_supports():
        rows, cols = np.nonzero(S)
        D = flows._bfs(S, np.searchsorted(rows, np.arange(len(S) + 1)), cols)
        want = shortest_path(csr_matrix(S), unweighted=True)
        assert np.array_equal(np.where(D < 0, np.inf, D), want), S.astype(int)
        count += 1
    assert count == 1202

# ---------------------------------------------------------------- comparisons


def test_form_comparison_on_seeded_pairs():
    rng = np.random.default_rng(77)
    pairs = []
    for seed in range(10):
        pairs.append(reversible_pair(3 + seed % 6, seed))
    for seed in range(10, 20):
        pairs.append(nonreversible_pair(3 + seed % 6, seed))
    for base, target in pairs:
        for odd in (False, True):
            flow = build_canonical_flow(base, target, odd=odd)
            _, a = edge_congestion(flow)
            for _ in range(100):
                phi = rng.standard_normal(base.n)
                assert dirichlet_form(target, phi) <= a * dirichlet_form(base, phi) + 1e-9
                if odd:
                    assert f_form(target, phi) <= a * f_form(base, phi) + 1e-9


# ---------------------------------------------------------------- spreading


def test_spread_flow_on_lazy_chain():
    chain = lazy(random_reversible(5, seed=15))
    flow = build_canonical_flow(chain, chain, odd=False)
    _, B, kappa = state_congestion(flow)
    spread = spread_flow(flow)
    valid, _, violations = validate_flow(spread)
    assert valid, violations
    _, worst = edge_congestion(spread)
    assert worst <= 8.0 * kappa * B + 1e-9
    # every cross path became a two-hop detour
    assert {p.length for p in spread.paths} <= {0, 2}


def test_spread_flow_explicit_example():
    flow = two_state_uniform_flow(0.25)
    _, B, kappa = state_congestion(flow)
    spread = spread_flow(flow)
    assert validate_flow(spread)[0]
    _, worst = edge_congestion(spread)
    assert worst <= 8.0 * kappa * B + 1e-9


def _loop_flow():
    """A flow on the lazy two-state chain with a repeated interior vertex."""
    chain = lazy(two_state(0.25))
    target = uniform_walk(2, labels=["a", "b"])
    demands = {
        (0, 0): 0.25,
        (0, 1): 0.25,
        (1, 0): 0.25,
        (1, 1): 0.25,
    }
    paths = [
        FlowPath((0, 1, 0, 1), demands[(0, 1)]),  # repeated interior vertex
        FlowPath((1, 0), demands[(1, 0)]),
        FlowPath((0, 1, 0), demands[(0, 0)]),  # simple closed walk: kept
        FlowPath((1, 0, 1), demands[(1, 1)]),
    ]
    return Flow(chain, target, paths)


def test_loop_erasure_before_spreading():
    flow = _loop_flow()
    assert validate_flow(flow)[0]
    _, a_before = edge_congestion(flow)
    spread = spread_flow(flow)
    assert validate_flow(spread)[0]
    _, B, kappa = state_congestion(flow)
    _, worst = edge_congestion(spread)
    assert worst <= 8.0 * kappa * B + 1e-9


def test_spread_flow_on_seeded_instances():
    for seed in range(20):
        n = 3 + seed % 6
        base = lazy(random_reversible(n, seed=seed))  # strictly positive self-loops
        target = lazy(base) if seed % 2 else base
        flow = build_canonical_flow(base, target, odd=bool(seed % 3 == 0))
        _, B, kappa = state_congestion(flow)
        spread = spread_flow(flow)
        valid, _, violations = validate_flow(spread)
        assert valid, violations
        _, worst = edge_congestion(spread)
        assert worst <= 8.0 * kappa * B + 1e-9


def _greedy_coupling(hop_shares):
    """The greedy coupling the quantile coupling replaced, kept as its
    reference: every chunk is the smallest share left at the hops' fronts."""
    fronts = [list(h) for h in hop_shares]
    remaining = 1.0
    while remaining > 1e-14:
        for h in fronts:
            while len(h) > 1 and h[0][1] <= 1e-14:
                h.pop(0)
        chunk = min(min(h[0][1] for h in fronts), remaining)
        if chunk <= 0.0:
            break
        yield tuple(h[0][0] for h in fronts), chunk
        remaining -= chunk
        for h in fronts:
            x, share = h[0]
            h[0] = (x, share - chunk)


@st.composite
def _hop_shares(draw):
    """1-4 hops, each a distribution over 1-6 intermediates; tiny weights give
    shares of 1e-14 or less."""
    hops = []
    for _ in range(draw(st.integers(1, 4))):
        weights = draw(st.lists(st.one_of(st.floats(1e-3, 1.0), st.floats(1e-20, 1e-14)),
                                min_size=1, max_size=6))
        xs = draw(st.lists(st.integers(0, 40), min_size=len(weights), max_size=len(weights),
                           unique=True))
        total = sum(weights)
        hops.append([(x, w / total) for x, w in zip(xs, weights)])
    return hops


def _by_detour(coupling):
    fractions = defaultdict(float)
    for detour, frac in coupling:
        fractions[detour] += frac
    return fractions


def _couple_hops(hop_shares):
    """The per-path quantile coupling the array coupling replaced, kept as its
    reference: chunks run between consecutive points of the union of the
    hops' cumulative shares (dust of 1e-14 or less is dropped, except a hop's
    last share); each hop picks by bisection at start + 1e-14."""
    kept = [[pair for pair in pairs[:-1] if pair[1] > 1e-14] + pairs[-1:] for pairs in hop_shares]
    hops = [([x for x, _ in h], list(itertools.accumulate(s for _, s in h))) for h in kept]
    start = 0.0
    while 1.0 - start > 1e-14:
        picks = [min(bisect.bisect_right(cum, start + 1e-14), len(cum) - 1) for _, cum in hops]
        end = min([1.0, *(cum[j] for (_, cum), j in zip(hops, picks))])
        if end <= start:
            break  # floating-point dust only; demand check catches real loss
        yield tuple(xs[j] for (xs, _), j in zip(hops, picks)), end - start
        start = end


def _array_coupling(hops):
    """The array coupling of one path with the given hops, as the
    (intermediates, fraction) pairs of its chunks in order."""
    shares = np.zeros((len(hops), max(map(len, hops))))
    for h, pairs in enumerate(hops):
        shares[h, :len(pairs)] = [s for _, s in pairs]
    quantiles = flows._quantiles(shares)
    _, fracs, columns = flows._couple(quantiles, np.arange(len(hops)), np.array([len(hops)]))
    picks = columns.reshape(len(fracs), len(hops)).tolist()
    return [(tuple(hops[h][c][0] for h, c in enumerate(row)), frac)
            for row, frac in zip(picks, fracs.tolist())]


@st.composite
def _near_tie_shares(draw):
    """2-4 hops whose cumulative shares fall within 1e-14 of one another's,
    some with dust inside, each ending in a share of about 1e-14 or less, so
    that chunk ends tie and a hop may run out of points before the others."""
    cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5, unique=True))
    nudge = st.sampled_from([0.0, 2.2e-16, -2.2e-16, 4e-15, -4e-15, 1e-14, -1e-14, 1.5e-14])
    hops = []
    for _ in range(draw(st.integers(2, 4))):
        points = {c + draw(nudge) for c in cuts} | {1.0 - draw(st.floats(1e-16, 1e-14))}
        points |= {c + draw(nudge) for c in draw(st.lists(st.sampled_from(cuts), max_size=2))}
        edges = [0.0, *sorted(points), 1.0]
        hops.append(list(enumerate(b - a for a, b in zip(edges, edges[1:]))))
    return hops


@settings(derandomize=True, database=None, deadline=None)
@given(st.one_of(_hop_shares(), _near_tie_shares()))
def test_array_coupling_equals_the_per_path_coupling(hops):
    got = [(detour, frac.hex()) for detour, frac in _array_coupling(hops)]
    assert got == [(detour, frac.hex()) for detour, frac in _couple_hops(hops)]


def test_array_coupling_skips_near_ties_and_stops_at_a_short_hop():
    """A point within 1e-14 past the last chunk end is no chunk end, and a hop
    whose kept shares fall short of 1 (its interior dust is dropped) ends the
    coupling at its total."""
    hops = [[(0, 0.5), (1, 0.5 - 3e-14), (2, 1e-14), (3, 1e-14), (4, 1e-14)],
            [(0, 0.5 + 4e-15), (1, 0.5 - 4e-15)]]
    pairs = _array_coupling(hops)
    assert pairs == list(_couple_hops(hops))
    # chunk ends 0.5, 1 - 3e-14 and the first hop's total: 0.5 + 4e-15 is skipped
    assert [detour for detour, _ in pairs] == [(0, 0), (1, 1), (4, 1)]
    assert 1.0 - sum(frac for _, frac in pairs) > 1e-14


def _couple_by_keys(quantiles, hop, per_path):
    """``flows._couple`` as it found each node's next by one search over
    complex (path, value) keys, kept as the oracle of the walk that steps to
    the next node and then past every node within 1e-14."""
    xs, cum, size = quantiles
    n = len(per_path)
    path = np.repeat(np.arange(n), per_path)
    size = size[hop]
    point_hop, k = flows._ragged(size)
    point_path, value = path[point_hop], cum[hop[point_hop], k]
    cap = np.ones(n)
    np.minimum.at(cap, path, cum[hop, size - 1])
    below = value <= cap[point_path]
    nodes = np.sort(np.concatenate([flows._keys(np.arange(n), 0.0), flows._keys(point_path[below], value[below]),
                                    flows._keys(np.arange(n), cap)]), kind="stable")
    nodes = nodes[np.r_[True, nodes[1:] != nodes[:-1]]]
    node_path, t = nodes.real.astype(np.intp), nodes.imag
    end = np.cumsum(np.bincount(node_path, minlength=n))
    nxt = np.minimum(np.searchsorted(nodes, flows._keys(node_path, t + 1e-14), side="right"), end[node_path] - 1)
    nxt[(nxt == np.arange(len(nodes))) | ~(1.0 - t > 1e-14)] = -1
    start = np.zeros(len(nodes), bool)
    at = np.r_[0, end[:-1]]
    while (at := at[nxt[at] >= 0]).size:
        start[at] = True
        at = nxt[at]
    at = np.flatnonzero(start)
    owner = node_path[at]
    j = np.arange(per_path.max(initial=0))
    real = j < per_path[owner, None]
    pair = np.where(real, (np.cumsum(per_path) - per_path)[owner, None] + j, 0)
    reach = np.searchsorted(flows._keys(point_hop, value), flows._keys(pair, t[at, None] + 1e-14), side="right")
    pick = np.minimum(reach - (np.cumsum(size) - size)[pair], size[pair] - 1)
    return owner, t[nxt[at]] - t[at], np.where(real, xs[hop[pair], pick], -1)


def _seeded_quantile_tables():
    """400 seeded detour tables, each with paths over its rows.  A table's
    rows draw their cumulative points from a few shared cuts, each nudged by
    up to 1.5e-14, so that points of one path's hops tie within 1e-14; some
    rows add dust shares of 1e-14 or less.  Paths have 0-5 hops."""
    rng = np.random.default_rng(4747)
    nudges = np.array([0.0, 2.2e-16, -2.2e-16, 4e-15, -4e-15, 1e-14, -1e-14, 1.5e-14])
    for _ in range(400):
        width = int(rng.integers(1, 10))
        cuts = rng.uniform(0.01, 0.99, int(rng.integers(1, 5)))
        shares = np.zeros((int(rng.integers(1, 7)), width))
        for row in shares:
            points = set((rng.choice(cuts, int(rng.integers(0, len(cuts) + 1))) + rng.choice(nudges)).tolist())
            points |= set((1.0 - rng.uniform(1e-16, 1e-14, int(rng.integers(0, 2)))).tolist())
            steps = np.diff([0.0, *sorted(points)[:width - 1], 1.0])
            row[np.sort(rng.choice(width, len(steps), replace=False))] = steps
        per_path = rng.integers(0, 6, int(rng.integers(1, 6)))
        yield flows._quantiles(shares), rng.integers(0, len(shares), int(per_path.sum())), per_path


def test_couple_steps_to_the_node_the_complex_key_search_finds():
    for quantiles, hop, per_path in _seeded_quantile_tables():
        got, want = flows._couple(quantiles, hop, per_path), _couple_by_keys(quantiles, hop, per_path)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _seeded_row_sets():
    """500 seeded sets of paths as ``_rows`` lays them out, with duplicate
    paths and paths that are prefixes of others."""
    rng = np.random.default_rng(4748)
    for _ in range(500):
        paths = [list(rng.integers(0, 4, int(rng.integers(1, 6)))) for _ in range(int(rng.integers(1, 12)))]
        for _ in range(int(rng.integers(0, 3))):
            path = paths[int(rng.integers(len(paths)))]
            paths.append(path[:int(rng.integers(1, len(path) + 1))])  # itself, or a prefix
        order = rng.permutation(len(paths))
        yield flows._rows(np.array([s for i in order for s in paths[i]], np.intp),
                          np.array([len(paths[i]) for i in order], np.intp))


def test_distinct_agrees_with_unique():
    seen = set()
    for rows in _seeded_row_sets():
        distinct = len(np.unique(rows, axis=0)) == len(rows)
        assert flows._runs(rows)[1].all() == distinct
        seen.add(distinct)
    assert seen == {False, True}


@settings(derandomize=True, database=None, deadline=None)
@given(_hop_shares())
def test_quantile_coupling_matches_the_greedy_coupling(hops):
    got = _by_detour(_array_coupling(hops))
    want = _by_detour(_greedy_coupling(hops))
    # The greedy coupling loses the remainder (at most 1e-14, the dust) of
    # each front it drops, where the quantile coupling keeps fixed cumulative
    # points.  So a chunk may move by up to the dust per entry, and a chunk of
    # that size may exist in one coupling only; every other detour is in both.
    tol = sum(map(len, hops)) * 1e-14
    for detour in got.keys() | want.keys():
        a, b = got.get(detour, 0.0), want.get(detour, 0.0)
        assert abs(a - b) <= 1e-12 * max(a, b) + tol, detour
    for h, shares in enumerate(hops):
        marginal = Counter()
        for detour, frac in got.items():
            marginal[detour[h]] += frac
        for x, share in shares:
            assert abs(marginal[x] - share) <= tol


def _reference_spread(flow):
    """The per-path spread the array code replaced: the detour shares of each
    hop from its own overlap, each path's hops coupled by _couple_hops, and
    the detours summed in a dict in the order they are made."""
    simple = flows._simplify(flow)
    base = simple.base
    R = time_reversal(base).P
    out = defaultdict(float)
    for p in simple.paths:
        shares = []
        for u, v in zip(p.states, p.states[1:]):
            weights = np.minimum(base.P[u], R[v])
            xs = np.nonzero(weights > 0.0)[0]
            shares.append(list(zip(xs.tolist(), (weights[xs] / float(weights.sum())).tolist())))
        for detour, frac in _couple_hops(shares):
            states = (p.states[0], *itertools.chain.from_iterable(zip(detour, p.states[1:])))
            out[states] += frac * p.mass
    return [(s, out[s]) for s in sorted(out) if out[s] > 0.0]


def _lazy_cycle(n):
    P = 0.5 * np.eye(n) + 0.25 * np.roll(np.eye(n), 1, axis=1) + 0.25 * np.roll(np.eye(n), -1, axis=1)
    return build_chain([f"s{i}" for i in range(n)], P, name=f"lazy_cycle(n={n})")


def _spread_cases():
    for n in range(3, 17):
        base = random_reversible(n, seed=n)
        for odd in (False, True):
            yield f"rr-{n}-{'odd' if odd else 'even'}", build_canonical_flow(base, lazy(base), odd=odd)
    for n in (5, 12):
        base = lazy(random_reversible(n, seed=40 + n))
        yield f"lazy-rr-{n}", build_canonical_flow(base, base, odd=True)
    # 1,088 of the 1,296 paths here have hops whose cumulative points lie
    # within 1e-14 of each other, yet apart
    for odd in (False, True):
        yield f"cycle-36-{odd}", build_canonical_flow(_lazy_cycle(36), uniform_walk(36), odd=odd)
    for n in (9, 28):
        base, target = nonreversible_pair(n, seed=n)
        yield f"ds-{n}", build_canonical_flow(base, target)
    yield "loop-erasure", _loop_flow()
    # the route bench's shape: 992 one-hop paths over about 32 intermediates
    # each, 8 blocks and 31,714 spread paths
    base = random_reversible(32, 1)
    yield "rr-32-lazy", build_canonical_flow(base, lazy(base))


@pytest.mark.parametrize("flow", [pytest.param(flow, id=name) for name, flow in _spread_cases()])
def test_spread_flow_equals_the_per_path_spread(flow):
    got = [(p.states, p.mass) for p in spread_flow(flow).paths]
    assert got == _reference_spread(flow)
    assert all(type(m) is float and all(type(s) is int for s in states) for states, m in got)


def test_spreading_a_large_flow_stays_small():
    """Spreading runs in blocks of whole first-state runs, so its arrays stay
    small next to the 31,714 paths it builds."""
    base = random_reversible(32, 1)
    flow = build_canonical_flow(base, lazy(base))
    tracemalloc.start()
    try:
        spread = spread_flow(flow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spread.paths) == 31714
    # the per-path loop that the array code replaced peaked at 9.2-9.5 MB here
    # (Python 3.11, numpy 2.4)
    assert peak <= 9.1e6, f"spreading peaked at {peak / 1e6:.1f} MB"


def _parents_paths(flow):
    """``Flow.paths`` as it was made before paths were read a block at a time:
    the whole flow copied into Python lists at once."""
    flat, ends = flow._states.tolist(), np.cumsum(flow._sizes).tolist()
    return tuple(FlowPath(tuple(flat[a:b]), m) for a, b, m in zip([0, *ends], ends, flow._mass.tolist()))


def _typed(paths):
    return [(p.states, p.mass, [type(s) for s in p.states], type(p.mass)) for p in paths]


def test_reading_a_large_flows_paths_stays_small():
    """``paths`` is made a block of paths at a time, so reading it makes no
    list of the whole flow: the 31,714 paths of the route bench's spread peaked
    at 7.0-7.2 MB when the four lists were made at once, of which the kept
    ``FlowPath`` objects are about 4.6 MB (Python 3.11, numpy 2.4)."""
    base = random_reversible(32, 1)
    spread = spread_flow(build_canonical_flow(base, lazy(base)))
    tracemalloc.start()
    try:
        paths = spread.paths
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(paths) == 31714 > 4 * flows._BLOCK
    assert peak <= 5.6e6, f"reading {len(paths)} paths peaked at {peak / 1e6:.2f} MB"
    assert _typed(paths) == _typed(_parents_paths(spread))
    assert spread.paths is paths


def test_saving_reads_a_flows_arrays():
    """``flow_to_dict`` writes the document from the arrays, so a flow the
    library built is saved without making its ``paths``, and the document is
    the one written from ``paths`` before."""
    base = random_reversible(32, 1)
    spread = spread_flow(build_canonical_flow(base, lazy(base)))
    text = json.dumps(flow_to_dict(spread))
    assert "paths" not in vars(spread)
    assert text == json.dumps({"base": spread.base.name, "target": spread.target.name,
                               "paths": [{"path": list(p.states), "mass": p.mass}
                                         for p in _parents_paths(spread)]})


def test_a_caller_flow_with_numpy_states_and_int_masses_saves_as_before():
    flow = build_canonical_flow(*reversible_pair(6, 1))
    paths = [FlowPath(tuple(map(np.int32, p.states)), p.mass) for p in flow.paths]
    paths[1:1] = [FlowPath((np.int64(0), np.int16(1), np.intp(0)), 0), FlowPath((np.uint8(2),), 0)]
    caller = Flow(flow.base, flow.target, paths)
    doc = flow_to_dict(caller)
    before = {"base": caller.base.name, "target": caller.target.name,
              "paths": [{"path": [int(s) for s in p.states], "mass": float(p.mass)} for p in caller.paths]}
    assert doc == before and json.dumps(doc) == json.dumps(before)  # the int masses are written as 0.0


def _restart_loop_erase(states):
    """Loop erasure that restarts its scan after every cut, kept as the
    reference for the one-pass version."""
    seq = list(states)
    while True:
        seen = {}
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


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=14), st.booleans())
def test_loop_erasure_matches_the_restarting_scan(walk, closed):
    if closed:
        walk = [*walk, walk[0]]
    assert flows._loop_erase(tuple(walk)) == _restart_loop_erase(walk)


def test_validating_a_large_spread_flow_stays_small():
    """The walk runs in blocks, so its arrays never span the whole flow."""
    base = random_reversible(32, 1)
    spread = spread_flow(build_canonical_flow(base, lazy(base)))
    flow = Flow(spread.base, spread.target, spread.paths)
    tracemalloc.start()
    try:
        assert validate_flow(flow)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, f"validating {len(flow.paths)} paths peaked at {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------- flows as arrays


def test_a_route_builds_no_path_object_until_paths_is_read(monkeypatch):
    """Canonical building, spreading and both congestions run on the flows'
    arrays: no FlowPath is made and no state or mass has its type tested."""
    made, scrubbed = [], []
    init, scrub = flows.FlowPath.__init__, flows._scrub
    monkeypatch.setattr(flows.FlowPath, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    monkeypatch.setattr(flows, "_scrub", lambda *a: scrubbed.append(a) or scrub(*a))
    base = random_reversible(32, 1)
    flow = build_canonical_flow(base, lazy(base))
    spread = spread_flow(flow)
    state_congestion(flow)
    edge_congestion(spread)
    assert not made and not scrubbed
    assert len(spread.paths) == 31714 and len(made) == 31714
    assert spread.paths is spread.paths  # built on first read, then kept


def _family_flows():
    """A canonical flow on each chain family of _families, odd where it has one."""
    for n, seed in ((6, 1), (11, 4)):
        base, target = reversible_pair(n, seed)
        for odd in (False, True):
            yield f"reversible-{n}-{'odd' if odd else 'even'}", build_canonical_flow(base, target, odd=odd)
        base, target = nonreversible_pair(n, seed)
        yield f"nonreversible-{n}", build_canonical_flow(base, target)
    base = doubly_stochastic(7, 3)
    yield "doubly-stochastic-odd", build_canonical_flow(base, uniform_walk(7), odd=True)
    base = tiny_mass_chain()
    yield "tiny-mass", build_canonical_flow(base, base)


def _bits(flow):
    """Everything a flow's walk gives, with its loads as bytes."""
    edge_load, state_load = flows._loads(flow)
    return (validate_flow(flow), edge_load.tobytes(), state_load.tobytes(),
            edge_congestion(flow), state_congestion(flow))


@pytest.mark.parametrize("spread", [False, True], ids=["canonical", "spread"])
@pytest.mark.parametrize("flow", [pytest.param(flow, id=name) for name, flow in _family_flows()])
def test_parsed_paths_walk_as_the_arrays_they_came_from(flow, spread):
    flow = spread_flow(flow) if spread else flow
    parsed = Flow(flow.base, flow.target, flow.paths)
    assert _bits(parsed) == _bits(flow)
    assert parsed.paths == flow.paths


def test_a_spread_flow_round_trips_through_json():
    base = random_reversible(12, 1)
    spread = spread_flow(build_canonical_flow(base, lazy(base), odd=True))
    loaded = flow_from_dict(json.loads(json.dumps(flow_to_dict(spread))), spread.base, spread.target)
    assert loaded.paths == spread.paths
    for name in ("_states", "_sizes", "_mass"):
        assert getattr(loaded, name).tobytes() == getattr(spread, name).tobytes()


@pytest.mark.parametrize("flow", [two_state_uniform_flow(0.25), _loop_flow()], ids=["simple", "looped"])
def test_spreading_takes_states_as_a_tuple_a_list_or_an_array(flow):
    """A list or an array of states passed validation, then spreading ended
    in an unhashable-type TypeError."""
    spreads = [spread_flow(Flow(flow.base, flow.target, [FlowPath(kind(p.states), p.mass)
                                                         for p in flow.paths]))
               for kind in (tuple, list, np.array)]
    assert spreads[0].paths == spreads[1].paths == spreads[2].paths == spread_flow(flow).paths


@pytest.mark.parametrize("paths, named", [
    (None, None),
    ([FlowPath((0, 1), 0.5), ((0, 1), 0.5)], ((0, 1), 0.5)),
    ([None], None),
    ([FlowPath(0, 0.25)], FlowPath(0, 0.25)),
    ([FlowPath(np.array(0), 0.25)], FlowPath(np.array(0), 0.25)),
])
def test_malformed_paths_raise_invalid_flow_naming_the_item(paths, named):
    """Each ended in a bare AttributeError or TypeError on first use."""
    flow = two_state_uniform_flow(0.25)
    with pytest.raises(InvalidFlow) as raised:
        Flow(flow.base, flow.target, paths)
    assert reprlib.repr(named) in str(raised.value)


def _reference_simplify(flow):
    """The per-path loop erasure the array check replaced: whether the flow
    comes back itself, and the (states, mass) pairs of its simplification."""
    merged = defaultdict(float)
    for p in flow.paths:
        if p.mass != 0.0:
            merged[flows._loop_erase(tuple(p.states))] += p.mass
    same = len(merged) == len(flow.paths) and all(tuple(p.states) in merged for p in flow.paths)
    return same, sorted(merged.items())


@settings(derandomize=True, database=None, deadline=None)
@given(_small_flows())
def test_simplify_erases_the_paths_that_repeat_a_state(flow):
    same, want = _reference_simplify(flow)
    simple = flows._simplify(flow)
    assert (simple is flow) == same
    assert sorted((tuple(p.states), p.mass) for p in simple.paths) == want
    _assert_simplified_as_the_dict_merge(flow)


@pytest.mark.parametrize("flow", [pytest.param(flow, id=name) for name, flow in _spread_cases()])
def test_simplify_keeps_a_flow_that_loop_erasure_leaves_as_it_is(flow):
    same, _ = _reference_simplify(flow)
    assert (flows._simplify(flow) is flow) == same


def _assert_simplified_as_the_dict_merge(flow):
    """Compares ``_simplify``'s arrays with the dict merge it replaced, kept
    as its oracle: the sorted (states, mass) pairs of ``_reference_simplify``
    laid out by ``Flow``'s parser.  Returns whether the flow came back itself."""
    same, merged = _reference_simplify(flow)
    simple = flows._simplify(flow)
    assert (simple is flow) == same
    if not same:
        want = Flow(flow.base, flow.target, list(itertools.starmap(FlowPath, merged)))
        for name in ("_states", "_sizes", "_mass"):
            got, wanted = getattr(simple, name), getattr(want, name)
            assert (got.dtype, got.tobytes()) == (wanted.dtype, wanted.tobytes()), name
    return same


def _odd_simplify_cases():
    for n in range(4, 25):
        for seed in range(3):
            base = random_reversible(n, seed)
            yield f"rr-{n}-{seed}", build_canonical_flow(base, lazy(base), odd=True)
    yield "dhn-5", build_canonical_flow(dhn(5), dhn(5), odd=True)
    for n in (5, 8, 13):
        yield f"lazy-cycle-{n}", build_canonical_flow(_lazy_cycle(n), uniform_walk(n), odd=True)
        yield f"lazy-cycle-{n}-self", build_canonical_flow(_lazy_cycle(n), _lazy_cycle(n), odd=True)


def test_simplify_lays_out_odd_flows_as_the_dict_merge():
    kept = [_assert_simplified_as_the_dict_merge(flow) for _, flow in _odd_simplify_cases()]
    assert kept.count(False) >= 20 and kept.count(True) >= 1


def test_simplify_sums_a_run_of_equal_paths_in_path_order():
    """Nine copies of one path after loop erasure: a pairwise sum would add
    them in another order, and a dict adds them in path order."""
    flow = _loop_flow()
    weights = (0.85, 0.77, 0.45, 0.3, 0.54, 0.43, 0.79, 0.34, 0.5)  # a pairwise sum reads 0.25 - 2**-55
    masses = [w / sum(weights) * 0.25 for w in weights]
    paths = [p for p in flow.paths if p.states != (0, 1, 0, 1)]
    paths += [FlowPath((0, 1, 0, 1) if k % 2 else (0, 1), m) for k, m in enumerate(masses)]
    _assert_simplified_as_the_dict_merge(Flow(flow.base, flow.target, paths))


# ---------------------------------------------------------------- the comparison floor


def _comparison_floor(flow, sum_form=False):
    """A*, the least constant with E'(f) <= A* E(f): the largest eigenvalue of
    the pencil (L', L) of the target's and the base's difference forms on the
    complement of the constants, where both vanish; or, for an odd flow, of
    their sum forms over every f."""
    (base_diff, base_sum, _), (target_diff, target_sum, _) = map(quadratic_forms, (flow.base, flow.target))
    if sum_form:
        return scipy.linalg.eigh(target_sum, base_sum, eigvals_only=True)[-1]
    V = scipy.linalg.null_space(np.ones((1, flow.base.n)))
    return scipy.linalg.eigh(V.T @ target_diff @ V, V.T @ base_diff @ V, eigvals_only=True)[-1]


def _assert_above_the_floor(flow):
    """Every valid flow's congestion A is at least A* (the comparison method's
    Cauchy-Schwarz step), an odd flow's also against the sum forms.  A chain
    against itself or its lazy chain ties, so 1e-12 relative is allowed."""
    valid, odd, _ = validate_flow(flow)
    assert valid
    A = edge_congestion(flow)[1]
    assert A >= _comparison_floor(flow) * (1 - 1e-12)
    if odd:
        assert A >= _comparison_floor(flow, sum_form=True) * (1 - 1e-12)


@pytest.mark.parametrize("spread", [False, True], ids=["canonical", "spread"])
@pytest.mark.parametrize("flow", [pytest.param(flow, id=name) for name, flow in _family_flows()])
def test_a_family_flow_congests_at_least_the_comparison_floor(flow, spread):
    _assert_above_the_floor(spread_flow(flow) if spread else flow)


def test_the_explicit_two_state_flow_congests_at_least_the_comparison_floor():
    _assert_above_the_floor(two_state_uniform_flow(0.25))


@settings(derandomize=True, database=None, deadline=None)
@given(_small_flows())
def test_a_small_flow_congests_at_least_the_comparison_floor(flow):
    _assert_above_the_floor(flow)
