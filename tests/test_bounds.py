"""The bound catalogue: pinned values, gating behaviour, and regressions."""

import json
import math

import pytest

from mixbounds import (
    Flow,
    FlowPath,
    build_canonical_flow,
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
    multiply,
    nonreversible_bounds,
    random_reversible,
    spectral_bounds_reversible,
    time_reversal,
    two_state,
    two_state_uniform_flow,
    uniform_walk,
)
from mixbounds.bounds import CATALOG, DELTA_DEFAULT, _mix_factor
from mixbounds.errors import (
    BadDelta,
    BadParams,
    DimensionMismatch,
    MixboundsError,
    NotIrreducible,
    NotReversible,
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


def test_comparison_general_size_mismatch():
    base, target = dhn(2), uniform_walk(3)
    with pytest.raises(DimensionMismatch):
        comparison_general(base, target, Flow(base, target, []), 0, 0.25)


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
    return [tid for tid, (family, _, _) in CATALOG.items() if family in families]


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
