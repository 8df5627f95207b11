"""Generators and the JSON file formats."""

import json

import numpy as np
import pytest

from mixbounds import (
    Flow,
    FlowPath,
    build_canonical_flow,
    build_chain,
    classify,
    comparison_reversible,
    dhn,
    directed_cycle,
    generate,
    lazy,
    load_chain,
    load_flow,
    random_reversible,
    save_chain,
    save_flow,
    two_state,
    two_state_uniform_flow,
    uniform_walk,
    validate_flow,
)
from mixbounds.errors import BadParams, InvalidFlow, MixboundsError
from mixbounds.serialize import flow_to_dict


def test_two_state_matrix():
    chain = two_state(0.25)
    np.testing.assert_array_equal(chain.P, [[0.25, 0.75], [0.75, 0.25]])
    assert chain.labels == ("a", "b")
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(BadParams):
            two_state(bad)


def test_dhn_rows():
    chain = dhn(2)
    # enumerate the four rows by the two congruences mod 4
    want = np.zeros((4, 4))
    idx = {v: i for i, v in enumerate([-1, 0, 1, 2])}
    for v in [-1, 0, 1, 2]:
        ahead = ((v + 1 + 1) % 4) - 1  # value of (v+1) mod 4 in [-1, 2]
        flip = ((-v + 1) % 4) - 1
        want[idx[v], idx[ahead]] += 0.5
        want[idx[v], idx[flip]] += 0.5
    np.testing.assert_array_equal(chain.P, want)


def test_dhn_rows_sum_exactly_to_one():
    for n in range(2, 65):
        chain = dhn(n)
        sums = np.asarray(chain.P).sum(axis=1)
        assert np.all(sums == 1.0), f"n={n}"


def test_dhn_labels_ascending():
    chain = dhn(3)
    assert chain.labels == ("-2", "-1", "0", "1", "2", "3")
    with pytest.raises(BadParams):
        dhn(1)


def test_uniform_walk_and_cycle():
    np.testing.assert_array_equal(uniform_walk(2).P, [[0.5, 0.5], [0.5, 0.5]])
    c = directed_cycle(4)
    assert classify(c).period == 4
    with pytest.raises(BadParams):
        uniform_walk(1)
    with pytest.raises(BadParams):
        directed_cycle(0)


def test_random_reversible_properties():
    chain = random_reversible(8, seed=42)
    assert classify(chain).ergodic and classify(chain).reversible
    again = random_reversible(8, seed=42)
    np.testing.assert_array_equal(chain.P, again.P)
    other = random_reversible(8, seed=43)
    assert np.abs(chain.P - other.P).max() > 1e-3


def test_random_reversible_lightest_state_has_no_self_loop():
    """Every proposal from the lightest state is accepted, so its diagonal is
    exactly 0, not the rounding left by 1 - (sum of the row)."""
    for N in range(2, 61):
        for seed in range(3):
            chain = random_reversible(N, seed)
            x = int(np.argmin(chain.pi))
            assert chain.P[x, x] == 0.0, (N, seed)
    # a phantom loop there made O13 applicable, with 1/(2c) of about 4.5e15
    base = random_reversible(40, 1)
    entries = comparison_reversible(base, lazy(base), build_canonical_flow(base, lazy(base), odd=True), 0, 0.25)
    o13 = next(e for e in entries if e.theorem == "O13")
    assert not o13.applicable and o13.reason == "some state has no self-loop"


# The generators' loops before they built P as arrays, kept as the reference.
def _reference_dhn(n):
    m = 2 * n
    values = list(range(-(n - 1), n + 1))
    index = {v: i for i, v in enumerate(values)}

    def to_value(residue):
        return ((residue + n - 1) % m) - (n - 1)

    flip = 1.0 / n
    ahead = 1.0 - flip
    P = np.zeros((m, m))
    for v in values:
        P[index[v], index[to_value(v + 1)]] += ahead
        P[index[v], index[to_value(-v)]] += flip
    return P


def _reference_directed_cycle(k):
    P = np.zeros((k, k))
    for i in range(k):
        P[i, (i + 1) % k] = 1.0
    return P


def _reference_random_reversible(N, seed):
    w = np.random.default_rng(seed).uniform(0.5, 2.0, size=N)
    P = np.zeros((N, N))
    for x in range(N):
        for y in range(N):
            if x != y:
                P[x, y] = min(1.0, w[y] / w[x]) / (N - 1)
        P[x, x] = 0.0 if (w >= w[x]).all() else 1.0 - P[x].sum()
    return P


def test_generators_match_their_loops_bit_for_bit():
    cases = [(random_reversible(N, seed), _reference_random_reversible(N, seed))
             for N in range(2, 61) for seed in range(4)]
    cases += [(dhn(n), _reference_dhn(n)) for n in range(2, 70)]
    cases += [(directed_cycle(k), _reference_directed_cycle(k)) for k in range(2, 50)]
    for chain, P in cases:
        assert chain.P.tobytes() == P.tobytes(), chain.name
        assert chain.pi.tobytes() == build_chain(chain.labels, P).pi.tobytes(), chain.name


@pytest.mark.parametrize("make", [dhn, uniform_walk, directed_cycle, random_reversible],
                         ids=lambda f: f.__name__)
def test_sizes_numpy_cannot_index_are_bad_params(make):
    """A size whose dense matrix numpy cannot index fails before any allocation."""
    with pytest.raises(BadParams, match="must be an integer in"):
        make(10**10)


def test_generate_dispatch():
    chain = generate("two_state", delta=0.1)
    assert chain.n == 2
    chain = generate("lazy_of", of="two_state", delta=0.1)
    assert chain.P[0, 0] >= 0.5
    assert generate("random_reversible", N=4).n == 4  # seed optional
    with pytest.raises(BadParams):
        generate("nope")
    with pytest.raises(BadParams):
        generate("two_state")  # missing delta
    with pytest.raises(BadParams):
        generate("two_state", delta=0.1, n=3)  # stray parameter
    with pytest.raises(BadParams):
        generate("lazy_of", delta=0.1)  # missing inner kind


def test_explicit_flow_masses():
    flow = two_state_uniform_flow(0.25)
    assert [p.mass for p in flow.paths] == [0.25, 0.25, 0.25, 0.25]
    valid, odd, _ = validate_flow(flow)
    assert valid and not odd


# ---------------------------------------------------------------- files


def test_chain_round_trip_bit_for_bit(tmp_path):
    for chain in (two_state(0.1), dhn(5), random_reversible(7, seed=3), uniform_walk(3)):
        path = tmp_path / "chain.json"
        save_chain(chain, path, meta={"seed": 3})
        loaded = load_chain(path)
        np.testing.assert_array_equal(loaded.P, chain.P)
        assert loaded.labels == chain.labels
        assert loaded.name == chain.name
        # and a second cycle stays identical
        save_chain(loaded, path)
        np.testing.assert_array_equal(load_chain(path).P, chain.P)


def test_chain_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": ["a", "b"]}))
    with pytest.raises(MixboundsError):
        load_chain(path)


def test_flow_round_trip(tmp_path):
    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(base, target, odd=True)
    path = tmp_path / "flow.json"
    save_flow(flow, path)
    loaded = load_flow(path, base, target)
    assert [(p.states, p.mass) for p in loaded.paths] == [
        (p.states, p.mass) for p in flow.paths
    ]
    wrong = two_state(0.1)
    with pytest.raises(MixboundsError):
        load_flow(path, wrong, target)


def test_flow_file_bad_indices(tmp_path):
    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"paths": [{"path": [0, 7], "mass": 0.25}]}))
    with pytest.raises(MixboundsError):
        load_flow(path, base, target)


#: the content faults of a flow file's one path: (states, mass)
CONTENT_FAULTS = {
    "string-state": (["0", 1], 0.25),
    "bool-state": ([True, 1], 0.25),
    "float-state": ([0, 1.7], 0.25),
    "state-out-of-range": ([0, 7], 0.25),
    "empty-path": ([], 0.25),
    "string-mass": ([0, 1], "0.25"),
    "bool-mass": ([0, 1], True),
    "mass-past-float-range": ([0, 1], 10**400),
}


@pytest.mark.parametrize("fault", sorted(CONTENT_FAULTS))
def test_a_content_fault_in_a_flow_file_raises_at_load(tmp_path, fault):
    """A path's states and mass are parsed by ``Flow``, so a bad one raises
    InvalidFlow with ``validate_flow``'s message for the same FlowPath."""
    states, mass = CONTENT_FAULTS[fault]
    base, target = two_state(0.25), uniform_walk(2, labels=["a", "b"])
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"paths": [{"path": states, "mass": mass}]}))
    valid, _, violations = validate_flow(Flow(base, target, [FlowPath(tuple(states), mass)]))
    assert not valid
    with pytest.raises(InvalidFlow) as exc:
        load_flow(path, base, target)
    assert str(exc.value) == "; ".join(violations[:5])


def test_a_flow_file_with_an_unmet_demand_raises_at_load(tmp_path):
    base, target = two_state(0.25), uniform_walk(2, labels=["a", "b"])
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"paths": [{"path": [0, 1], "mass": 0.25}, {"path": [1, 0], "mass": 0.25}]}))
    with pytest.raises(InvalidFlow, match=r"edge \(a,a\): routed 0.0, demand 0.25"):
        load_flow(path, base, target)


def test_a_json_integer_mass_is_kept_as_it_was_read(tmp_path):
    base = target = uniform_walk(2, labels=["a", "b"])
    path = tmp_path / "flow.json"
    paths = [([0, 1], 0.25), ([1, 0], 0.25), ([0], 0.25), ([1], 0.25), ([0, 1], 0)]
    path.write_text(json.dumps({"paths": [{"path": states, "mass": mass} for states, mass in paths]}))
    assert [p.mass for p in load_flow(path, base, target).paths] == [mass for _, mass in paths]
    assert type(load_flow(path, base, target).paths[-1].mass) is int


def test_an_invalid_flow_is_not_written(tmp_path):
    """Saving refuses what loading would refuse: no file holds a flow that
    would not load, and none is opened for one."""
    bad = Flow(two_state(0.25), uniform_walk(2, labels=["a", "b"]),
               [FlowPath((0, 1), "0.25"), FlowPath((1, 0), True), FlowPath((0, 1, 0), 0.25),
                FlowPath((1, 0, 1), 0.25)])
    _, _, violations = validate_flow(bad)
    assert len(violations) == 4
    with pytest.raises(InvalidFlow) as exc:
        flow_to_dict(bad)
    assert str(exc.value) == "; ".join(violations)
    with pytest.raises(InvalidFlow):
        save_flow(bad, tmp_path / "flow.json")
    assert not (tmp_path / "flow.json").exists()


def test_a_value_json_cannot_encode_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(BadParams, match="int64"):
        save_chain(two_state(0.25), path, meta={"seed": np.int64(1)})
    assert not path.exists()
    save_chain(two_state(0.25), path, meta={"seed": 1})
    kept = path.read_bytes()
    circular = {}
    circular["self"] = circular
    for meta in ({"seed": np.int64(1)}, circular):
        with pytest.raises(BadParams):
            save_chain(two_state(0.25), path, meta=meta)
        assert path.read_bytes() == kept
    assert load_chain(path).P.tolist() == two_state(0.25).P.tolist()


def test_a_flow_with_numpy_integer_states_round_trips(tmp_path):
    """``Flow`` accepts numpy integer states, and the file holds them as JSON integers."""
    chain = random_reversible(4, 1)
    target = lazy(chain)
    canonical = build_canonical_flow(chain, target)
    flow = Flow(chain, target, [FlowPath(tuple(np.int64(s) for s in p.states), np.float64(p.mass))
                                for p in canonical.paths])
    path = tmp_path / "flow.json"
    save_flow(flow, path)
    assert load_flow(path, chain, target).paths == flow.paths == canonical.paths


def _deep(tmp_path):
    """A file of 100,000 nested lists, too deep for the JSON decoder."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


def test_a_file_nested_too_deep_raises_mixbounds_error(tmp_path):
    path = _deep(tmp_path)
    with pytest.raises(MixboundsError, match="not valid JSON"):
        load_chain(path)
    with pytest.raises(MixboundsError, match="not valid JSON"):
        load_flow(path, two_state(0.25), uniform_walk(2, labels=["a", "b"]))


def test_a_meta_nested_too_deep_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "m.json"
    save_chain(two_state(0.25), path, meta={"seed": 1})
    kept = path.read_bytes()
    meta = inner = {}
    for _ in range(100_000):
        inner["a"] = inner = {}
    with pytest.raises(BadParams, match="not writable as JSON"):
        save_chain(two_state(0.25), path, meta=meta)
    assert path.read_bytes() == kept
