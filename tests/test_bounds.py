"""The bound catalogue: pinned values, gating behaviour, and regressions."""

import json
import math

import numpy as np
import pytest

from mixbounds import (
    Flow,
    FlowPath,
    build_canonical_flow,
    build_chain,
    comparison_general,
    comparison_reversible,
    conductance_bounds,
    continuous_mixing_time,
    dhn,
    directed_cycle,
    discrete_mixing_time,
    edge_congestion,
    full_report,
    lazy,
    load_chain,
    load_flow,
    multiply,
    nonreversible_bounds,
    random_reversible,
    save_chain,
    save_flow,
    spectral_bounds_reversible,
    time_reversal,
    two_state,
    two_state_uniform_flow,
    uniform_walk,
    validate_flow,
)
from mixbounds.bounds import CATALOG, DELTA_DEFAULT, _mix_factor
from mixbounds.chains import Chain
from mixbounds.errors import (
    BadDelta,
    BadParams,
    DimensionMismatch,
    MixboundsError,
    NotErgodic,
    NotIrreducible,
    NotReversible,
    StationaryMismatch,
    WrongFlowBase,
)

from _families import doubly_stochastic


def by_id(entries):
    return {e.theorem: e for e in entries}


# ---------------------------------------------------------------- pinned values


def test_spectral_bounds_two_state():
    chain = two_state(0.25)
    entries = by_id(spectral_bounds_reversible(chain, "a", 1 / (2 * math.e)))
    # beta_max = 1/2, so the one-over-e lower bound equals 1
    assert entries["C6"].bound == pytest.approx(1.0, abs=1e-12)
    assert entries["C6"].exact >= 1.0
    entries = by_id(spectral_bounds_reversible(chain, "a", 0.25))
    assert entries["T7"].bound == pytest.approx(2 * math.log(8), abs=1e-12)
    assert entries["T7"].holds
    assert entries["T5"].bound == pytest.approx(math.log(2), abs=1e-12)
    assert entries["T5"].holds
    uni = uniform_walk(2)
    entries = by_id(spectral_bounds_reversible(uni, 0, 0.25))
    assert entries["T5"].bound == 0.0 and entries["T5"].holds


def test_nonreversible_bounds_two_state():
    chain = two_state(0.25)
    entries = by_id(nonreversible_bounds(chain, "a", 0.25))
    want = math.log(32.0) / 3.0
    assert entries["T22"].bound == pytest.approx(want, abs=1e-12)
    assert entries["T22"].exact == pytest.approx(math.log(2) / 1.5, abs=2e-6)
    assert entries["T22"].holds


def test_nonreversible_bounds_cycle_gating():
    entries = by_id(nonreversible_bounds(directed_cycle(3), 0, 0.25))
    assert entries["T22"].applicable and entries["T22"].holds
    assert not entries["T23"].applicable
    assert "reducible" in entries["T23"].reason


def test_nonreversible_bounds_t23_on_self_loop_chain():
    chain = doubly_stochastic(6, seed=5)
    entries = by_id(nonreversible_bounds(chain, 0, 0.25))
    assert entries["T23"].applicable and entries["T23"].holds


def test_conductance_bounds_two_state():
    chain = two_state(0.25)
    tau_d = discrete_mixing_time(chain, None, DELTA_DEFAULT).time
    tau_c = continuous_mixing_time(chain, None, DELTA_DEFAULT).time
    entries = by_id(conductance_bounds(chain, tau_d, tau_c))
    assert entries["O16"].bound == pytest.approx(1.5, abs=1e-12)
    assert entries["T19"].bound == pytest.approx(1.5**2 / 8, abs=1e-12)
    for tid in ("T17", "T18", "T19", "O16", "C20d", "C20c"):
        assert entries[tid].applicable and entries[tid].holds, tid


def test_conductance_bounds_periodic_and_large():
    c3 = directed_cycle(3)
    tau_c = continuous_mixing_time(c3, None, DELTA_DEFAULT).time
    entries = by_id(conductance_bounds(c3, None, tau_c))
    assert not entries["T17"].applicable and not entries["C20d"].applicable
    assert entries["T18"].applicable and entries["T18"].holds
    big = dhn(16)  # 32 states: exact conductance out of reach
    tau_d = discrete_mixing_time(big, None, DELTA_DEFAULT).time
    tau_c = continuous_mixing_time(big, None, DELTA_DEFAULT).time
    entries = by_id(conductance_bounds(big, tau_d, tau_c))
    for tid in ("T17", "T18", "T19", "O16"):
        assert not entries[tid].applicable
    assert entries["C20d"].applicable and entries["C20d"].holds
    assert entries["C20c"].applicable and entries["C20c"].holds


def test_conductance_bounds_rejects_bad_taus():
    chain = random_reversible(6, seed=1)
    for bad in (0, -1.0, float("nan"), float("inf"), "a", [3]):
        with pytest.raises(BadParams):
            conductance_bounds(chain, bad, None)
        with pytest.raises(BadParams):
            conductance_bounds(chain, None, bad)


def test_comparison_reversible_explicit_pair():
    flow = two_state_uniform_flow(0.25)
    base, target = flow.base, flow.target
    entries = by_id(comparison_reversible(base, target, flow, "a", 0.25))
    assert not entries["T8"].applicable and entries["T8"].reason == "flow is not odd"
    assert not entries["I5"].applicable
    # beta_max of the base is |beta_bottom|, so the even-spectrum variant is off
    assert not entries["T10"].applicable
    # O13: self-loops are delta = 1/4, so the floor is 1/(2c) = 2
    a = 5.0 / (2.0 * 0.75)
    factor = _mix_factor(1, DELTA_DEFAULT)
    want = max(a * factor, 2.0) * math.log(8.0)
    assert entries["O13"].bound == pytest.approx(want, rel=1e-12)
    assert entries["O13"].holds
    # O14: lazy chain mixes in one step, bound 2 A (tau' + 1) log(1/(eps pi))
    assert entries["O14"].bound == pytest.approx(2 * a * 2 * math.log(8), rel=1e-12)
    assert entries["O14"].exact == 1
    assert entries["O14"].holds


def test_comparison_reversible_odd_flow():
    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(base, target, odd=True)
    entries = by_id(comparison_reversible(base, target, flow, "a", 0.25))
    for tid in ("T8", "I5", "O13", "O14"):
        assert entries[tid].applicable and entries[tid].holds, tid
    # at the default delta the two odd-flow forms coincide
    assert entries["T8"].bound == pytest.approx(entries["I5"].bound, rel=1e-12)


def test_comparison_reversible_t10_matches_t8_when_both_apply():
    base = lazy(random_reversible(6, seed=19))  # nonnegative spectrum
    target = lazy(base)
    flow = build_canonical_flow(base, target, odd=True)
    entries = by_id(comparison_reversible(base, target, flow, 0, 0.25))
    assert entries["T8"].applicable and entries["T10"].applicable
    assert entries["T8"].bound == pytest.approx(entries["T10"].bound, rel=1e-12)


def test_comparison_reversible_gates():
    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(base, target, odd=True)
    with pytest.raises(BadDelta):
        comparison_reversible(base, target, flow, "a", 0.25, delta=0.7)
    for bad in ("x", None):
        with pytest.raises(BadDelta):
            comparison_reversible(base, target, flow, "a", 0.25, delta=bad)
        with pytest.raises(BadDelta):
            full_report(base, delta=bad)
    with pytest.raises(NotReversible):
        comparison_reversible(
            dhn(2), uniform_walk(4), build_canonical_flow(dhn(2), uniform_walk(4)), 0, 0.25
        )
    other = two_state(0.3)
    with pytest.raises(WrongFlowBase):
        comparison_reversible(other, target, flow, "a", 0.25)


def test_t8_bound_antimonotone_in_detouring():
    base = lazy(random_reversible(5, seed=23))
    target = lazy(base)
    short = build_canonical_flow(base, target, odd=True)
    # stretch every length-1 path with a double self-loop, keeping it odd
    longer_paths = []
    for p in short.paths:
        if p.length == 1 and p.states[0] != p.states[1]:
            x, y = p.states
            longer_paths.append(FlowPath((x, x, x, y), p.mass))
        else:
            longer_paths.append(p)
    longer = Flow(base, target, longer_paths)
    entries_short = by_id(comparison_reversible(base, target, short, 0, 0.25))
    entries_long = by_id(comparison_reversible(base, target, longer, 0, 0.25))
    _, a_short = edge_congestion(short)
    _, a_long = edge_congestion(longer)
    assert a_long >= a_short
    assert entries_long["T8"].bound >= entries_short["T8"].bound - 1e-12


def test_delta_sweep_factor_behaviour():
    # when the target's mixing time grows only logarithmically in 1/delta,
    # pushing delta down buys a better factor than the default choice
    def synthetic_tau(delta):
        return 5.0 + 2.0 * math.log(1.0 / delta)

    default = _mix_factor(synthetic_tau(DELTA_DEFAULT), DELTA_DEFAULT)
    for n in (20, 100, 1000):
        assert _mix_factor(synthetic_tau(1.0 / n), 1.0 / n) <= default
    # and the swept report bound is never worse than the default-delta bound
    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(base, target, odd=True)
    plain = by_id(comparison_reversible(base, target, flow, "a", 0.25))
    swept = by_id(comparison_reversible(base, target, flow, "a", 0.25, sweep=True))
    assert swept["T8"].bound <= plain["T8"].bound + 1e-12
    assert math.isfinite(swept["T8"].bound)
    assert swept["T8"].holds


def test_comparison_general_direct_flow():
    base = doubly_stochastic(5, seed=2)
    target = uniform_walk(5)
    flow = build_canonical_flow(base, target, odd=False)
    entries = by_id(comparison_general(base, target, flow, 0, 0.25))
    for tid in ("T24c", "T24d", "T26"):
        assert entries[tid].applicable and entries[tid].holds, tid
    assert not entries["T25"].applicable


def test_comparison_general_product_flow():
    base = doubly_stochastic(5, seed=2)
    target = uniform_walk(5)
    product = multiply(time_reversal(base), base)
    flow = build_canonical_flow(product, target, odd=False)
    entries = by_id(comparison_general(base, target, flow, 0, 0.25))
    assert entries["T25"].applicable and entries["T25"].holds
    for tid in ("T24c", "T24d", "T26"):
        assert not entries[tid].applicable


def test_comparison_general_trivial_flow_reduces_to_spectral_style_bound():
    # base compared against itself with the identity-style flow: A = 1
    base = lazy(random_reversible(4, seed=31))
    flow = build_canonical_flow(base, base, odd=False)
    entries = by_id(comparison_general(base, base, flow, 0, 0.25))
    tau = discrete_mixing_time(base, None, DELTA_DEFAULT).time
    want = 0.5 * (tau + 1.0) * math.log(1.0 / (0.25**2 * base.pi[0]))
    assert entries["T26"].bound == pytest.approx(want, rel=1e-12)
    assert entries["T26"].holds


def test_comparison_general_wrong_flow_base():
    base = doubly_stochastic(5, seed=2)
    target = uniform_walk(5)
    stranger = uniform_walk(5)
    flow = build_canonical_flow(lazy(doubly_stochastic(5, seed=9)), stranger, odd=False)
    with pytest.raises(WrongFlowBase):
        comparison_general(base, target, flow, 0, 0.25)
    # the right base, routed to another target
    flow = build_canonical_flow(base, lazy(target), odd=False)
    with pytest.raises(WrongFlowBase, match="flow target does not match the given target chain"):
        comparison_general(base, target, flow, 0, 0.25)


def test_comparison_general_size_mismatch():
    base, target = dhn(2), uniform_walk(3)
    with pytest.raises(DimensionMismatch):
        comparison_general(base, target, Flow(base, target, []), 0, 0.25)


# ---------------------------------------------------------------- a flow's chains, by exact identity


def _one_ulp_off(chain, field):
    """A copy of the chain with P[0, 1] or pi[0] one ulp up."""
    arrays = {"P": chain.P.copy(), "pi": chain.pi.copy()}
    entry = (0, 1) if field == "P" else 0
    arrays[field][entry] = np.nextafter(arrays[field][entry], 1.0)
    return Chain(chain.labels, arrays["P"], arrays["pi"], name=chain.name)


@pytest.mark.parametrize("field", ["P", "pi"])
@pytest.mark.parametrize("side", ["base", "target"])
def test_a_flow_on_a_chain_one_ulp_off_is_refused(side, field):
    """A flow's congestion is measured against the edge flows of the chain it
    was routed on, so its chains must be the call's bit for bit: a flow over,
    or to, a copy one ulp away raises WrongFlowBase from every call that
    reads its congestion."""
    base = random_reversible(5, seed=2)
    target = lazy(base)
    pair = (_one_ulp_off(base, field), target) if side == "base" else (base, _one_ulp_off(target, field))
    flow = build_canonical_flow(*pair)
    assert validate_flow(flow)[0]
    for call in (lambda: full_report(base, target, flow),
                 lambda: comparison_general(base, target, flow, 0, 0.25),
                 lambda: comparison_reversible(base, target, flow, 0, 0.25)):
        with pytest.raises(WrongFlowBase):
            call()


@pytest.mark.parametrize("product", [False, True], ids=["direct", "reversal-product"])
def test_chains_loaded_again_accept_the_first_loads_flow(tmp_path, product):
    """Loading a chain file gives the same bits each time, and so does a
    reversal product rebuilt from it: a flow loaded with the first load's
    chains serves the second load's, with the same report."""
    base, target = (lazy(dhn(3)), uniform_walk(6)) if product else (random_reversible(6, seed=1),
                                                                     lazy(random_reversible(6, seed=1)))
    save_chain(base, tmp_path / "base.json")
    save_chain(target, tmp_path / "target.json")
    first = [load_chain(tmp_path / name) for name in ("base.json", "target.json")]
    second = [load_chain(tmp_path / name) for name in ("base.json", "target.json")]
    routed = (lambda b: multiply(time_reversal(b), b)) if product else (lambda b: b)
    built = build_canonical_flow(routed(first[0]), first[1])
    save_flow(built, tmp_path / "flow.json")
    flow = load_flow(tmp_path / "flow.json", routed(first[0]), first[1])
    assert second[0] is not first[0]
    want = full_report(*first, built).to_dict()
    assert full_report(*first, flow).to_dict() == full_report(*second, flow).to_dict() == want
    assert comparison_general(*second, flow, 0, 0.25) == comparison_general(*first, flow, 0, 0.25)
    if not product:
        assert comparison_reversible(*second, flow, 0, 0.25) == comparison_reversible(*first, flow, 0, 0.25)


def test_a_reloaded_chain_keeps_p_bit_for_bit_and_solves_pi_again(tmp_path):
    """A chain file holds P, not pi.  ``lazy`` keeps its input's pi, and the
    reload solves pi again from P, so it differs in the last bits: a flow
    built on the chain in memory is refused against the reload, and a flow
    built on the reloaded chains is accepted."""
    base, target = lazy(dhn(3)), uniform_walk(6)
    save_chain(base, tmp_path / "base.json")
    save_chain(target, tmp_path / "target.json")
    loaded = [load_chain(tmp_path / name) for name in ("base.json", "target.json")]
    assert np.array_equal(loaded[0].P, base.P)
    assert not np.array_equal(loaded[0].pi, base.pi)
    assert np.abs(loaded[0].pi - base.pi).max() <= 4 * 2.0**-53
    with pytest.raises(WrongFlowBase, match="neither the base chain nor its reversal product"):
        full_report(loaded[0], loaded[1], build_canonical_flow(base, loaded[1]))
    assert full_report(*loaded, build_canonical_flow(*loaded)).verdict == "pass"


def test_a_flow_connecting_chains_of_another_pi_raises_the_pair_check():
    """The flow's own walk checks that its chains share pi; a report reaches
    that check once the flow is matched to its chains."""
    skew = build_chain(["a", "b"], [[0.5, 0.5], [0.25, 0.75]])
    target = uniform_walk(2, labels=["a", "b"])
    for call in (lambda: full_report(skew, target, Flow(skew, target, [])),
                 lambda: comparison_general(skew, target, Flow(skew, target, []), 0, 0.25)):
        with pytest.raises(StationaryMismatch) as info:
            call()
        assert str(info.value) == "chains do not share a stationary distribution"


# ---------------------------------------------------------------- gaps that are 0.0 in floats

#: valid, mixes in 4 steps; its reversal product is irreducible, but the
#: product's lambda_1 (about 8e-17) comes out as 0.0
ZERO_PRODUCT_GAP = [[0.0, 1.0, 1e-16], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]


def test_a_product_gap_of_zero_in_floats_makes_t23_not_applicable():
    report = full_report(build_chain(["a", "b", "c"], ZERO_PRODUCT_GAP), x=0, eps=0.25)
    assert report.verdict == "pass" and report.exact_discrete == 4
    assert "lambda_1 is 0.0 in floats" in by_id(report.entries)["T23"].reason
    t22, t23 = nonreversible_bounds(two_state(1e-17), 0, 0.25)
    assert t22.applicable and not t23.applicable
    assert "lambda_1 is 0.0 in floats" in t23.reason
    # a gap that is small but not 0.0 keeps the row
    P = [[0.0, 1.0, 1e-12], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
    assert by_id(full_report(build_chain(["a", "b", "c"], P), x=0, eps=0.25).entries)["T23"].applicable


def test_a_spectral_gap_of_zero_in_floats_makes_the_spectral_rows_not_applicable():
    entries = spectral_bounds_reversible(two_state(1e-17), 0, 0.6)
    assert [e.theorem for e in entries] == ["T5", "C6", "T7"]
    for e in entries:
        assert not e.applicable and e.reason == "1 - beta_max is 0.0 in floats (the bounds divide by it)"


# ---------------------------------------------------------------- full reports


def test_full_report_pass_and_order():
    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(base, target, odd=True)
    report = full_report(base, target, flow, x="a", eps=0.25)
    assert report.verdict == "pass"
    ids = [e.theorem for e in report.entries]
    assert ids == [t for t in CATALOG]
    for e in report.entries:
        if e.applicable:
            assert math.isfinite(e.bound) and math.isfinite(e.exact)
        else:
            assert e.reason
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["verdict"] == "pass"
    assert payload["exact"]["discrete_tau_x"] == 1
    assert payload["entries"][0]["theorem"] == "T5"


def test_full_report_without_comparison():
    report = full_report(dhn(3), x=0, eps=0.25)
    assert report.target_name is None
    skipped = [e for e in report.entries if not e.applicable]
    assert any("no target chain" in (e.reason or "") for e in skipped)
    assert report.verdict == "pass"


def test_full_report_periodic_chain():
    report = full_report(directed_cycle(3), x=0, eps=0.25)
    entries = by_id(report.entries)
    assert report.exact_discrete is None
    assert entries["T22"].applicable and entries["T22"].holds
    assert not entries["T23"].applicable
    assert not entries["T17"].applicable
    assert report.verdict == "pass"


def test_full_report_gates():
    c3 = directed_cycle(3)
    with pytest.raises(NotIrreducible):
        full_report(multiply(time_reversal(c3), c3))
    with pytest.raises(MixboundsError):
        full_report(two_state(0.25), target=uniform_walk(2, labels=["a", "b"]))


def test_full_report_product_flow_activates_t25():
    base = doubly_stochastic(6, seed=11)
    target = uniform_walk(6)
    product = multiply(time_reversal(base), base)
    flow = build_canonical_flow(product, target, odd=False)
    report = full_report(base, target, flow, x=0, eps=0.25)
    entries = by_id(report.entries)
    assert entries["T25"].applicable and entries["T25"].holds
    assert not entries["T24c"].applicable
    assert not entries["T8"].applicable
    assert report.verdict == "pass"


def test_full_report_regression_sample():
    # a faster slice of the acceptance regression: a few seeds of each family
    for seed in (0, 1, 2):
        base = random_reversible(4 + seed, seed=seed)
        target = lazy(base)
        flow = build_canonical_flow(base, target, odd=True)
        report = full_report(base, target, flow, x=seed % base.n, eps=0.25)
        bad = [e.theorem for e in report.entries if e.applicable and not e.holds]
        assert not bad, f"seed {seed}: violated {bad}"
    for seed in (3, 4):
        base = doubly_stochastic(5 + seed % 3, seed=seed)
        target = uniform_walk(base.n)
        flow = build_canonical_flow(base, target, odd=False)
        report = full_report(base, target, flow, x=0, eps=0.25)
        bad = [e.theorem for e in report.entries if e.applicable and not e.holds]
        assert not bad, f"seed {seed}: violated {bad}"



# ---------------------------------------------------------------- the catalogue table


def _family_ids(*families):
    return [tid for tid, row in CATALOG.items() if row.family in families]


def test_family_functions_return_their_rows_in_table_order():
    rev = random_reversible(8, seed=3)
    rev_target = lazy(rev)
    odd_flow = build_canonical_flow(rev, rev_target, odd=True)
    ds = doubly_stochastic(6, seed=5)
    product_flow = build_canonical_flow(multiply(time_reversal(ds), ds), uniform_walk(6))
    big = dhn(16)  # above the exact-conductance limit: the cut rows are skipped
    taus = {c: (discrete_mixing_time(c, None, DELTA_DEFAULT).time,
                continuous_mixing_time(c, None, DELTA_DEFAULT).time) for c in (rev, big)}
    calls = [
        (spectral_bounds_reversible(rev, 0, 0.25), ("spectral",)),
        (comparison_reversible(rev, rev_target, odd_flow, 0, 0.25), ("comparison_reversible",)),
        (conductance_bounds(rev, *taus[rev]), ("cut", "gap")),
        (conductance_bounds(big, *taus[big]), ("cut", "gap")),
        (nonreversible_bounds(ds, 0, 0.25), ("nonreversible",)),
        (comparison_general(rev, rev_target, odd_flow, 0, 0.25), ("comparison_general",)),
        (comparison_general(ds, uniform_walk(6), product_flow, 0, 0.25), ("comparison_general",)),
    ]
    for entries, families in calls:
        assert [e.theorem for e in entries] == _family_ids(*families), families
    assert [e.applicable for e in calls[2][0]] == [True] * 6
    assert [e.applicable for e in calls[3][0]] == [False] * 4 + [True] * 2


def _cycle4():
    """The non-lazy walk on a 4-cycle: reversible, period 2, uniform pi."""
    P = [[0.5 if (i - j) % 4 in (1, 3) else 0.0 for j in range(4)] for i in range(4)]
    return build_chain([f"s{i}" for i in range(4)], P, name="cycle4")


def _reducible():
    """A reducible chain with positive pi: the reversal product of a directed 3-cycle."""
    c3 = directed_cycle(3)
    return multiply(time_reversal(c3), c3)


def _general(base, target, product=False):
    flow_base = multiply(time_reversal(base), base) if product else base
    return comparison_general(base, target, build_canonical_flow(flow_base, target), 0, 0.25)


def _two_state_pair():
    """two_state(0.25), whose eigenvalues are 1 and -1/2, compared with the
    uniform walk on its two states over the odd canonical flow."""
    base, target = two_state(0.25), uniform_walk(2, labels=["a", "b"])
    return comparison_reversible(base, target, build_canonical_flow(base, target, odd=True), "a", 0.25)


@pytest.mark.parametrize("call, want, fragment", [
    (lambda: spectral_bounds_reversible(two_state(0.25), "a", 0.5), "T5", "eps >= 1/2"),
    (lambda: conductance_bounds(two_state(0.25), 2, None), "T18", "no continuous mixing time"),
    (lambda: conductance_bounds(two_state(0.25), 2, None), "C20c", "no continuous mixing time"),
    (lambda: _general(uniform_walk(4), _cycle4()), "T24d", "target is periodic"),
    (lambda: _general(uniform_walk(4), _cycle4()), "T26", "target is periodic"),
    (lambda: _general(lazy(_cycle4()), _cycle4(), product=True), "T25", "target is periodic"),
    (lambda: _general(uniform_walk(4), dhn(2)), "T26", "target chain is not reversible"),
    (lambda: spectral_bounds_reversible(dhn(2), 0, 0.25), NotReversible, "spectral mixing bounds"),
    (lambda: spectral_bounds_reversible(_cycle4(), 0, 0.25), NotErgodic, "spectral mixing bounds"),
    (lambda: comparison_reversible(dhn(2), uniform_walk(4), Flow(dhn(2), uniform_walk(4)), 0, 0.25),
     NotReversible, "(base)"),
    (lambda: comparison_reversible(uniform_walk(4), _cycle4(), Flow(uniform_walk(4), _cycle4()), 0, 0.25),
     NotErgodic, "(target)"),
    (lambda: conductance_bounds(_reducible(), None, None), NotIrreducible, "conductance bounds"),
    (lambda: nonreversible_bounds(_reducible(), 0, 0.25), NotIrreducible, "nonreversible bounds"),
    (lambda: comparison_general(_reducible(), uniform_walk(3), Flow(_reducible(), uniform_walk(3)), 0, 0.25),
     NotIrreducible, "(base)"),
    (lambda: comparison_general(uniform_walk(3), _reducible(), Flow(uniform_walk(3), _reducible()), 0, 0.25),
     NotIrreducible, "(target)"),
    (lambda: full_report(_reducible()), NotIrreducible, "full report"),
    (_two_state_pair, "T10", "largest eigenvalue modulus is the negative end"),
    (lambda: full_report(directed_cycle(3)).entries, "T17", "chain is periodic: no discrete mixing time"),
    (lambda: conductance_bounds(two_state(0.25), None, 2), "C20d", "no discrete mixing time supplied"),
    (lambda: conductance_bounds(directed_cycle(3), None, 2), "C20d", "chain is periodic: no discrete mixing time"),
    (lambda: conductance_bounds(dhn(16), 2, 2), "O16", "more than 24 states: exact conductance skipped"),
    (lambda: nonreversible_bounds(directed_cycle(3), 0, 0.25), "T23", "reversal-product chain is reducible (gap 0)"),
    (lambda: _general(uniform_walk(4), _cycle4()), "T25",
     "flow is routed over the base chain, not its reversal product"),
    (lambda: comparison_reversible(uniform_walk(4), uniform_walk(4), Flow(lazy(uniform_walk(4)), uniform_walk(4)),
                                   0, 0.25), WrongFlowBase, "flow does not connect the given base and target chains"),
    (lambda: comparison_general(uniform_walk(4), uniform_walk(4), Flow(_cycle4(), uniform_walk(4)), 0, 0.25),
     WrongFlowBase, "flow is routed over neither the base chain nor its reversal product"),
    (lambda: full_report(two_state(0.25), target=uniform_walk(2, labels=["a", "b"])), MixboundsError,
     "supply target and flow together, or neither"),
    (lambda: full_report(uniform_walk(4), uniform_walk(4), Flow(uniform_walk(4), lazy(uniform_walk(4)))),
     WrongFlowBase, "flow target does not match the given target chain"),
], ids=["T5-eps-half", "T18-no-tau", "C20c-no-tau", "T24d-periodic-target", "T26-periodic-target",
        "T25-periodic-target", "T26-nonreversible-target", "spectral-nonreversible", "spectral-periodic",
        "comparison-reversible-base", "comparison-reversible-target", "conductance-reducible",
        "nonreversible-reducible", "comparison-general-base", "comparison-general-target",
        "full-report-reducible", "T10-negative-end", "T17-periodic", "C20d-no-tau", "C20d-periodic-no-tau",
        "cut-rows-too-large", "T23-reducible-product", "T25-direct-flow", "comparison-reversible-wrong-flow",
        "comparison-general-wrong-flow-base", "full-report-target-without-flow", "full-report-wrong-flow"])
def test_each_skip_reason_and_family_gate_is_reached(call, want, fragment):
    """Skip reasons no other test reaches, and the error of each family's gate:
    the exact class (NotIrreducible is also a NotErgodic), naming the failing chain."""
    if isinstance(want, str):
        entry = by_id(call())[want]
        assert not entry.applicable and fragment in entry.reason
        return
    with pytest.raises(want) as info:
        call()
    assert type(info.value) is want and fragment in str(info.value)
