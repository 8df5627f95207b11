"""Flows: validation, congestion, canonical routing, and detour spreading."""

import dataclasses

import numpy as np
import pytest

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
from mixbounds.errors import InvalidFlow, KappaInfinite, NoOddPath, StationaryMismatch

from _families import doubly_stochastic, nonreversible_pair, reversible_pair


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


# ---------------------------------------------------------------- canonical flows


def test_canonical_flow_self_demands():
    chain = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(chain, target, odd=False)
    by_demand = flow.grouped()
    assert by_demand[(0, 0)][0].states == (0,)
    flow_odd = build_canonical_flow(chain, target, odd=True)
    assert all(p.length % 2 == 1 for p in flow_odd.paths)
    assert flow_odd.grouped()[(0, 0)][0].states == (0, 0)  # direct self-loop


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
    assert flow.grouped()[(0, 3)][0].states == (0, 1, 3)
    assert flow.grouped()[(3, 0)][0].states == (3, 1, 0)


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


def test_loop_erasure_before_spreading():
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
    flow = Flow(chain, target, paths)
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
