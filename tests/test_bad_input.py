"""Bad input to any public function ends in a MixboundsError, never in another exception.

Every numeric parameter is fed the values below, and every matrix or vector
parameter the malformed arrays as well.  Chains, flows and spectral summaries
are the library's own objects and are always passed valid; a flow path's
states are a sequence by type, so they are fed only the malformed arrays.  A
flow's paths are fed the numbers and arrays, and lists holding an item that is
no FlowPath, or a FlowPath whose states are no sequence.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixbounds as mb
from mixbounds.bounds import GAP_CONST, TAU_LEAST
from mixbounds.errors import BadDelta, BadEpsilon, BadParams, DimensionMismatch, MixboundsError
from mixbounds.serialize import chain_from_dict, flow_from_dict

NUMBERS = [None, "x", True, math.nan, math.inf, -math.inf, 10**400, -10**400, 2.5, -1]
ARRAYS = [[], [[0.5, 0.5], [1.0]], [0.5, [0.5]], ["x", 1.0], [[10**400, 0.5], [0.5, 0.5]],
          [[math.nan, 0.5], [0.5, 0.5]]]
ITEMS = [None, ((0, 1), 0.5), mb.FlowPath(0, 0.25), mb.FlowPath(np.array(0), 0.25),
         mb.FlowPath(None, 0.25)]
POOLS = {"number": NUMBERS, "array": ARRAYS + NUMBERS, "path": ARRAYS,
         "paths": ARRAYS + NUMBERS + [[mb.FlowPath((0, 1), 0.25), item] for item in ITEMS]}

C = mb.two_state(0.25)
U = mb.uniform_walk(2, labels=["a", "b"])
FLOW = mb.build_canonical_flow(C, U, odd=True)
SUMMARY = mb.eigendecompose(C)
Q = C.P - np.eye(2)
PAIR = (C, U, FLOW)


def _flow_path(states=(0, 1), mass=0.25):
    return mb.edge_congestion(mb.Flow(C, U, [mb.FlowPath(states, mass)]))


#: "function.parameter" -> (pool, call with the bad value in that parameter)
CALLS = {
    "build_chain.labels": ("array", lambda v: mb.build_chain(v, [[0.5, 0.5], [0.5, 0.5]])),
    "build_chain.P": ("array", lambda v: mb.build_chain(["a", "b"], v)),
    "chain_from_dict.states": ("array", lambda v: chain_from_dict({"states": v, "P": C.P.tolist()})),
    "chain_from_dict.P": ("array", lambda v: chain_from_dict({"states": ["a", "b"], "P": v})),
    "flow_from_dict.path": ("array", lambda v: flow_from_dict({"paths": [{"path": v, "mass": 0.5}]}, C, U)),
    "flow_from_dict.mass": ("array", lambda v: flow_from_dict({"paths": [{"path": [0, 1], "mass": v}]}, C, U)),
    "Flow.paths": ("paths", lambda v: mb.edge_congestion(mb.Flow(C, U, v))),
    "FlowPath.states": ("path", lambda v: _flow_path(states=v)),
    "FlowPath.mass": ("array", lambda v: _flow_path(mass=v)),
    "dirichlet_form.phi": ("array", lambda v: mb.dirichlet_form(C, v)),
    "f_form.phi": ("array", lambda v: mb.f_form(C, v)),
    "variance.pi": ("array", lambda v: mb.variance(v, [1.0, 2.0])),
    "variance.phi": ("array", lambda v: mb.variance(C.pi, v)),
    "reconstruct_power.pi": ("array", lambda v: mb.reconstruct_power(SUMMARY, v, 2)),
    "reconstruct_power.n": ("number", lambda v: mb.reconstruct_power(SUMMARY, C.pi, v)),
    "tv_distance.theta1": ("array", lambda v: mb.tv_distance(v, [0.5, 0.5])),
    "tv_distance.theta2": ("array", lambda v: mb.tv_distance([0.5, 0.5], v)),
    "discrete_mixing_time.x": ("number", lambda v: mb.discrete_mixing_time(C, v, 0.25)),
    "discrete_mixing_time.eps": ("number", lambda v: mb.discrete_mixing_time(C, 0, v)),
    "d_profile.t_max": ("number", lambda v: mb.d_profile(C, v)),
    "continuous_mixing_time.x": ("number", lambda v: mb.continuous_mixing_time(C, v, 0.25)),
    "continuous_mixing_time.eps": ("number", lambda v: mb.continuous_mixing_time(C, 0, v)),
    "matrix_exponential.Q": ("array", lambda v: mb.matrix_exponential(v, 1.0)),
    "matrix_exponential.t": ("number", lambda v: mb.matrix_exponential(Q, v)),
    "spectral_bounds_reversible.x": ("number", lambda v: mb.spectral_bounds_reversible(C, v, 0.25)),
    "spectral_bounds_reversible.eps": ("number", lambda v: mb.spectral_bounds_reversible(C, 0, v)),
    "comparison_reversible.x": ("number", lambda v: mb.comparison_reversible(*PAIR, v, 0.25)),
    "comparison_reversible.eps": ("number", lambda v: mb.comparison_reversible(*PAIR, 0, v)),
    "comparison_reversible.delta": ("number", lambda v: mb.comparison_reversible(*PAIR, 0, 0.25, v)),
    "conductance_bounds.discrete_tau": ("number", lambda v: mb.conductance_bounds(C, v, None)),
    "conductance_bounds.continuous_tau": ("number", lambda v: mb.conductance_bounds(C, None, v)),
    "nonreversible_bounds.x": ("number", lambda v: mb.nonreversible_bounds(C, v, 0.25)),
    "nonreversible_bounds.eps": ("number", lambda v: mb.nonreversible_bounds(C, 0, v)),
    "comparison_general.x": ("number", lambda v: mb.comparison_general(*PAIR, v, 0.25)),
    "comparison_general.eps": ("number", lambda v: mb.comparison_general(*PAIR, 0, v)),
    "full_report.x": ("number", lambda v: mb.full_report(*PAIR, x=v)),
    "full_report.eps": ("number", lambda v: mb.full_report(*PAIR, eps=v)),
    "full_report.delta": ("number", lambda v: mb.full_report(*PAIR, delta=v)),
    "two_state.delta": ("number", lambda v: mb.two_state(v)),
    "two_state_uniform_flow.delta": ("number", lambda v: mb.two_state_uniform_flow(v)),
    "dhn.n": ("number", lambda v: mb.dhn(v)),
    "uniform_walk.N": ("number", lambda v: mb.uniform_walk(v)),
    "uniform_walk.labels": ("array", lambda v: mb.uniform_walk(2, labels=v)),
    "directed_cycle.k": ("number", lambda v: mb.directed_cycle(v)),
    "random_reversible.N": ("number", lambda v: mb.random_reversible(v)),
    "random_reversible.seed": ("number", lambda v: mb.random_reversible(3, v)),
    "generate.delta": ("number", lambda v: mb.generate("two_state", delta=v)),
    "generate.seed": ("number", lambda v: mb.generate("random_reversible", N=3, seed=v)),
    "generate.kind": ("array", lambda v: mb.generate(v)),
    "generate.of": ("array", lambda v: mb.generate("lazy_of", of=v, n=3)),
}

CASES = [(name, value) for name, (pool, _) in CALLS.items() for value in POOLS[pool]]


@settings(derandomize=True, database=None, deadline=None, max_examples=2 * len(CASES))
@given(st.sampled_from(CASES))
def test_bad_input_returns_or_raises_a_mixbounds_error(case):
    name, value = case
    try:
        CALLS[name][1](value)
    except MixboundsError:
        pass


@pytest.mark.parametrize("name", [name for name, (pool, _) in CALLS.items() if pool == "number"])
@pytest.mark.parametrize("value", [True, False, np.True_], ids=repr)
def test_a_bool_is_not_a_number(name, value):
    """A bool, Python's or numpy's, is rejected wherever a number is read."""
    with pytest.raises(MixboundsError):
        CALLS[name][1](value)


#: the array parameters that ``errors._floats`` parses; P and Q are matrices
PARSED_ARRAYS = ["build_chain.P", "chain_from_dict.P", "dirichlet_form.phi", "f_form.phi", "variance.pi",
                 "variance.phi", "reconstruct_power.pi", "tv_distance.theta1", "tv_distance.theta2",
                 "matrix_exponential.Q"]
#: all bools, a numpy bool array, and floats holding one bool: each would be valid if a bool were a number
BOOL_ENTRIES = {"vector": ([True, False], np.array([True, False]), [0.0, True]),
                "matrix": ([[False, True], [True, False]], np.array([[False, True], [True, False]]),
                           [[0.5, 0.5], [True, 0.0]])}


@pytest.mark.parametrize("kind", range(3), ids=["bools", "numpy-bools", "one-bool"])
@pytest.mark.parametrize("name", PARSED_ARRAYS)
def test_a_bool_entry_is_not_a_number(name, kind):
    """A bool inside an array, Python's or numpy's, is rejected as a bool
    scalar is, before any test of the array's values."""
    value = BOOL_ENTRIES["matrix" if name.endswith((".P", ".Q")) else "vector"][kind]
    with pytest.raises(MixboundsError, match="bool entry"):
        CALLS[name][1](value)


#: shapes that are not distributions, and a negative weight: (error, call)
NOT_DISTRIBUTIONS = {
    "tv_distance of scalars": (DimensionMismatch, lambda: mb.tv_distance(0.3, 0.1)),
    "tv_distance of matrices": (DimensionMismatch,
                                lambda: mb.tv_distance([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]])),
    "tv_distance of empty vectors": (DimensionMismatch, lambda: mb.tv_distance([], [])),
    "variance of empty vectors": (DimensionMismatch, lambda: mb.variance([], [])),
    "variance under a negative weight": (BadParams, lambda: mb.variance([-1.0, 2.0], [0.0, 1.0])),
}


@pytest.mark.parametrize("case", sorted(NOT_DISTRIBUTIONS))
def test_a_distribution_is_a_nonempty_vector_of_weights(case):
    """``tv_distance`` and ``variance`` read only non-empty vectors, and
    ``variance`` only nonnegative weights; neither asks for a sum of 1."""
    error, call = NOT_DISTRIBUTIONS[case]
    with pytest.raises(error):
        call()


#: the seven vector parameters, each parsed by ``errors._vector``
VECTORS = ["dirichlet_form.phi", "f_form.phi", "variance.pi", "variance.phi", "reconstruct_power.pi",
           "tv_distance.theta1", "tv_distance.theta2"]
SUMMARY_03 = mb.eigendecompose(mb.two_state(0.3))
#: vector faults: call -> the class it raises.  An entry that is no number,
#: a sum that overflows a float and a pi that is no stationary law are
#: BadParams; a vector of the wrong length stays a DimensionMismatch.
VECTOR_FAULTS = {
    **{f"{name} holds a string": (BadParams, lambda name=name: CALLS[name][1](["x", 1.0])) for name in VECTORS},
    "variance([1e308, 1e308], [1.0, 3.0])": (BadParams, lambda: mb.variance([1e308, 1e308], [1.0, 3.0])),
    "variance([0.5, 0.5], [1e308, -1e308])": (BadParams, lambda: mb.variance([0.5, 0.5], [1e308, -1e308])),
    "dirichlet_form(C, [1e308, -1e308])": (BadParams, lambda: mb.dirichlet_form(C, [1e308, -1e308])),
    "f_form(C, [1e308, 1e308])": (BadParams, lambda: mb.f_form(C, [1e308, 1e308])),
    "reconstruct_power with a negative pi": (BadParams, lambda: mb.reconstruct_power(SUMMARY_03, [-0.5, 1.5], 2)),
    "reconstruct_power with a zero in pi": (BadParams, lambda: mb.reconstruct_power(SUMMARY_03, [0.0, 1.0], 2)),
    "reconstruct_power with n = -1": (BadParams, lambda: mb.reconstruct_power(SUMMARY_03, [0.7, 0.3], -1)),
    "reconstruct_power with three entries": (DimensionMismatch,
                                             lambda: mb.reconstruct_power(SUMMARY_03, [0.5, 0.25, 0.25], 2)),
}


@pytest.mark.parametrize("case", list(VECTOR_FAULTS))
def test_a_vector_fault_raises_its_class(case):
    """Each vector fault ends in its class, with no numpy warning on the way
    (every warning is an error in this suite)."""
    error, call = VECTOR_FAULTS[case]
    with pytest.raises(error):
        call()


FIVE = mb.random_reversible(5, seed=1)
FIVE_PAIR = (FIVE, mb.lazy(FIVE), mb.build_canonical_flow(FIVE, mb.lazy(FIVE)))
#: every public call that takes a start state x, on a chain of states s0 .. s4
STARTS = {
    "full_report": lambda x: mb.full_report(*FIVE_PAIR, x=x).to_dict(),
    "discrete_mixing_time": lambda x: mb.discrete_mixing_time(FIVE, x, 0.25),
    "continuous_mixing_time": lambda x: mb.continuous_mixing_time(FIVE, x, 0.25),
    "spectral_bounds_reversible": lambda x: mb.spectral_bounds_reversible(FIVE, x, 0.25),
    "nonreversible_bounds": lambda x: mb.nonreversible_bounds(FIVE, x, 0.25),
    "comparison_reversible": lambda x: mb.comparison_reversible(*FIVE_PAIR, x, 0.25),
    "comparison_general": lambda x: mb.comparison_general(*FIVE_PAIR, x, 0.25),
}


@pytest.mark.parametrize("start", [True, np.True_, -1, 5, np.int64(5)], ids=repr)
@pytest.mark.parametrize("name", list(STARTS))
def test_a_bad_start_index_raises_dimension_mismatch_naming_the_range(name, start):
    """A start given as an index is parsed by ``errors._count``: a bool, a
    negative index or one past n - 1 names the valid range."""
    with pytest.raises(DimensionMismatch, match=r"state index must be an integer in \[0, 4\]"):
        STARTS[name](start)


@pytest.mark.parametrize("name", list(STARTS))
def test_a_numpy_integer_or_a_label_start_resolves_to_its_index(name):
    want = STARTS[name](4)
    assert STARTS[name](np.int64(4)) == want
    assert STARTS[name]("s4") == want


TINY = float(np.nextafter(0.0, 1.0))
#: each real ``errors._real`` parses, by its public call: the class it
#: raises, its open interval, and values just inside that interval that are
#: accepted.  eps's lowest is its 1e-12 floor; a tau's interval starts at
#: ``TAU_LEAST``, below every chain's time; a time's interval is
#: (-inf, inf), and ``matrix_exponential`` refuses a negative one itself,
#: as t = 0 is valid (``test_mixing`` checks that it gives I).
REALS = {
    "discrete_mixing_time.eps": (BadEpsilon, (0.0, 1.0), [1e-12, np.nextafter(1.0, 0.0)]),
    "full_report.eps": (BadEpsilon, (0.0, 1.0), [1e-12, np.nextafter(1.0, 0.0)]),
    "full_report.delta": (BadDelta, (0.0, 0.5), [TINY, np.nextafter(0.5, 0.0)]),
    "comparison_reversible.delta": (BadDelta, (0.0, 0.5), [TINY, np.nextafter(0.5, 0.0)]),
    "conductance_bounds.discrete_tau": (BadParams, (TAU_LEAST, math.inf),
                                        [np.nextafter(TAU_LEAST, 1.0), np.nextafter(math.inf, 0.0)]),
    "conductance_bounds.continuous_tau": (BadParams, (TAU_LEAST, math.inf),
                                          [np.nextafter(TAU_LEAST, 1.0), np.nextafter(math.inf, 0.0)]),
    "two_state.delta": (BadParams, (0.0, 1.0), [TINY, np.nextafter(1.0, 0.0)]),
    "matrix_exponential.t": (BadParams, (-math.inf, math.inf), [0.0, TINY]),
}


def _real_cases():
    """(site, value, the message's fragment or None if it is accepted)."""
    for site, (_, (above, below), inside) in REALS.items():
        interval = f"({above:g}, {below:g})"
        ends = [v for v in (above, above - 1.0, below, below + 1.0) if math.isfinite(v)]
        for value in [*ends, math.inf, -math.inf, math.nan, True, np.True_]:
            yield pytest.param(site, value, interval, id=f"{site}-{value!r}")
        for value in inside:
            yield pytest.param(site, value, None, id=f"{site}-inside-{float(value)!r}")
    yield pytest.param("discrete_mixing_time.eps", 1e-13, "below 1e-12", id="eps-below-the-floor")
    for site in ("conductance_bounds.discrete_tau", "conductance_bounds.continuous_tau"):
        for value in (1e-200, 1e-150, 0.3):  # below every chain's time
            yield pytest.param(site, value, "(0.379885, inf)", id=f"{site}-below-any-chain-{value!r}")
    for value in (-1.0, -TINY):
        yield pytest.param("matrix_exponential.t", value, "time must be a number in [0, inf)", id=f"t-{value!r}")


@pytest.mark.parametrize("site, value, fragment", list(_real_cases()))
def test_a_real_outside_its_interval_raises_its_class_naming_the_interval(site, value, fragment):
    """A real is parsed with its range by ``errors._real``: each end of its
    open interval, a value outside it, +-inf, nan and a bool raise the
    call's class, and the message names the interval; a value just inside
    either end is accepted."""
    error, call = REALS[site][0], CALLS[site][1]
    if fragment is None:
        call(value)
        return
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error and fragment in str(info.value)


def test_a_huge_tau_gives_finite_entries_where_c20d_holds():
    """tau * tau overflows to inf at 1e200, so C20d's and C20c's bounds are
    0.0, which hold, and no bound overflows."""
    entries = {e.theorem: e for e in mb.conductance_bounds(C, 1e200, 1e200)}
    assert all(math.isfinite(e.bound) and math.isfinite(e.exact) for e in entries.values())
    for tid in ("C20d", "C20c"):
        assert entries[tid].bound == 0.0 and entries[tid].holds
    assert entries["T17"].bound == GAP_CONST / 1e200
