"""full_report derives each chain quantity once and agrees with the public bound functions."""

import sys
from collections import Counter

import numpy as np
import pytest

from mixbounds import (
    build_canonical_flow,
    build_chain,
    classify,
    comparison_general,
    comparison_reversible,
    conductance,
    conductance_bounds,
    continuous_mixing_time,
    directed_cycle,
    dhn,
    discrete_mixing_time,
    edge_congestion,
    eigendecompose,
    full_report,
    lazy,
    multiply,
    nonreversible_bounds,
    random_reversible,
    save_chain,
    spectral_bounds_reversible,
    spread_flow,
    state_congestion,
    time_reversal,
    uniform_walk,
    validate_flow,
)
from mixbounds import chains, flows, mixing, spectral
from mixbounds.bounds import CATALOG, DELTA_DEFAULT, BoundReport, _same_chain, _skip, _skip_families
from mixbounds.cli import run_cli

from _families import doubly_stochastic


def _reversible_pair():
    base = random_reversible(16, 2)
    target = lazy(base)
    return {"base": base, "target": target, "flow": build_canonical_flow(base, target, odd=True),
            "sweep": True}


def _product_pair():
    base = doubly_stochastic(9, 4)
    target = uniform_walk(9)
    product = multiply(time_reversal(base), base)
    return {"base": base, "target": target, "flow": build_canonical_flow(product, target)}


def _lazy_cycle(n):
    """Stay with 1/2, step to either neighbour on the n-cycle with 1/4."""
    P = 0.5 * np.eye(n) + 0.25 * (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))
    return build_chain(list(range(n)), P, name=f"lazy_cycle({n})")


COUNTED = {
    "reversible pair": _reversible_pair,
    "dhn(8)": lambda: {"base": dhn(8)},
    "doubly_stochastic(9, 4)": lambda: {"base": doubly_stochastic(9, 4)},
}

COMPARED = {
    **COUNTED,
    "periodic": lambda: {"base": directed_cycle(5), "x": 2},
    "product flow": _product_pair,
    # the from-x crossing at 0.05 comes after the worst-start one at 1/(2e)
    "dhn(8) at eps 0.05": lambda: {"base": dhn(8), "x": 3, "eps": 0.05},
    # at eps >= 1/2, T5 is skipped and the worst start is asked only at 1/(2e)
    "reversible at eps 0.6": lambda: {"base": random_reversible(10, 3), "x": 4, "eps": 0.6},
    # T5 is read at 0.05, past the worst start's crossing of 1/(2e)
    "lazy cycle(30) at eps 0.05": lambda: {"base": _lazy_cycle(30), "x": 7, "eps": 0.05},
}


def _count(monkeypatch, fn, key):
    """Count calls to ``fn`` by ``key(*args)`` at every mixbounds binding of it."""
    calls = Counter()
    kept = []  # holds the arguments, so no id is reused during the run

    def counting(*args, **kwargs):
        kept.append(args)
        calls[key(*args)] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "mixbounds" or name.startswith("mixbounds."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _count_walks(monkeypatch):
    """Count, per flow object, how often its paths are walked: the walk lays
    out and checks every path of a flow, so it runs once per flow."""
    return _count(monkeypatch, flows._validate, lambda flow: id(flow))


@pytest.mark.parametrize("case", sorted(COUNTED))
def test_full_report_computes_each_quantity_once(monkeypatch, case):
    kwargs = COUNTED[case]()
    exponentials = _count(monkeypatch, mixing.matrix_exponential,
                          lambda Q, t: (Q.tobytes(), float(t)))
    classified = _count(monkeypatch, chains._classify, lambda chain: id(chain))
    streamed = _count(monkeypatch, mixing._Steps, lambda chain, *rest: id(chain))
    validated = _count(monkeypatch, flows._validate, lambda flow: id(flow))
    walked = _count_walks(monkeypatch)
    full_report(**kwargs)
    assert exponentials and classified and streamed
    assert max(exponentials.values()) == 1, "a (chain, t) was exponentiated twice"
    per_rate_matrix = Counter(Q for Q, _ in exponentials)
    assert max(per_rate_matrix.values()) <= 4, "a chain needed more than 4 anchor exponentials"
    assert max(streamed.values()) == 1, "a chain object's rows were iterated by two step streams"
    assert max(classified.values()) == 1, "a chain object was classified twice"
    assert max(validated.values(), default=0) <= 1, "a flow was validated twice"
    assert max(walked.values(), default=0) <= 1, "a flow's paths were walked twice"


def test_a_chain_is_classified_once_across_public_calls(monkeypatch):
    classified = _count(monkeypatch, chains._classify, lambda chain: id(chain))
    chain = random_reversible(12, 1)
    assert classify(chain) is classify(chain)
    discrete_mixing_time(chain, 0, 0.25)
    eigendecompose(chain)
    conductance(chain)
    build_canonical_flow(chain, lazy(chain))
    assert classified[id(chain)] == 1


def test_a_flow_is_validated_once_across_public_calls(monkeypatch):
    validated = _count(monkeypatch, flows._validate, lambda flow: id(flow))
    base = random_reversible(12, 1)
    flow = build_canonical_flow(base, lazy(base))
    assert validate_flow(flow) == validate_flow(flow)
    spread = spread_flow(flow)
    state_congestion(flow)
    edge_congestion(flow)
    edge_congestion(spread)
    assert validated[id(flow)] == 1 and validated[id(spread)] == 1
    # the input, which loop erasure leaves as it is, and the spread flow
    assert len(validated) == 2 and max(validated.values()) == 1


def test_the_route_sequence_walks_each_flow_once(monkeypatch):
    walked = _count_walks(monkeypatch)
    detoured = _count(monkeypatch, flows._detours, lambda base, load: id(base))
    base = random_reversible(12, 1)
    flow = build_canonical_flow(base, lazy(base))
    spread = spread_flow(flow)
    state_congestion(flow)
    edge_congestion(spread)
    # the input, which is its own simplification, and the spread flow
    assert walked and max(walked.values()) == 1
    assert set(walked) == {id(flow), id(spread)}
    assert sum(detoured.values()) == 1, "the input's detour table was built twice"


def test_analyze_eigensolves_a_reversible_chain_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "chain.json"
    save_chain(random_reversible(12, 1), path)
    solved = _count(monkeypatch, spectral.eigendecompose, lambda chain: id(chain))
    assert run_cli(["analyze", str(path), "--json"]) == 0
    assert sum(solved.values()) == 1
    assert "lambda_1" in capsys.readouterr().out


def _reference_report(base, target=None, flow=None, *, x=0, eps=0.25, delta=DELTA_DEFAULT,
                      sweep=False):
    """A report assembled from the public functions, each called standalone."""
    cls = classify(base)
    exact_disc = discrete_mixing_time(base, x, eps).time if cls.ergodic else None
    exact_cont = continuous_mixing_time(base, x, eps).time
    tau_worst_disc = discrete_mixing_time(base, None, DELTA_DEFAULT).time if cls.ergodic else None
    tau_worst_cont = continuous_mixing_time(base, None, DELTA_DEFAULT).time

    entries = []
    if cls.reversible and cls.ergodic:
        entries += spectral_bounds_reversible(base, x, eps)
    elif not cls.reversible:
        entries += [_skip(t, "chain is not reversible") for t in ("T5", "C6", "T7")]
    else:
        entries += [_skip(t, "chain is periodic") for t in ("T5", "C6", "T7")]
    entries += conductance_bounds(base, tau_worst_disc, tau_worst_cont)
    entries += nonreversible_bounds(base, x, eps)
    if target is None:
        entries += _skip_families("no target chain and flow supplied",
                                  "comparison_reversible", "comparison_general")
    else:
        cls_t = classify(target)
        both = cls.reversible and cls.ergodic and cls_t.reversible and cls_t.ergodic
        direct = _same_chain(flow.base, base)
        if direct and both:
            entries += comparison_reversible(base, target, flow, x, eps, delta, sweep)
        else:
            reason = ("comparison pair is not reversible ergodic" if direct
                      else "flow is routed over the reversal product")
            entries += [_skip(t, reason) for t in ("T8", "I5", "T10", "O13", "O14")]
        entries += comparison_general(base, target, flow, x, eps)
    entries.sort(key=lambda e: list(CATALOG).index(e.theorem))
    return BoundReport(base.name, None if target is None else target.name, base.labels[x], x,
                       eps, delta, exact_disc, exact_cont, entries)


def _continuized(entry: dict) -> bool:
    """Entries whose bound or exact side is a continuized mixing time."""
    return "continuous" in entry["quantity"] or entry["theorem"] in ("T18", "C20c")


@pytest.mark.parametrize("case", sorted(COMPARED))
def test_full_report_matches_public_functions(case):
    kwargs = COMPARED[case]()
    got = full_report(**kwargs).to_dict()
    want = _reference_report(**kwargs).to_dict()
    assert got["exact"]["continuous_tau_x"] == pytest.approx(want["exact"]["continuous_tau_x"], rel=2e-6)
    got["exact"].pop("continuous_tau_x")
    want["exact"].pop("continuous_tau_x")
    got_entries, want_entries = got.pop("entries"), want.pop("entries")
    assert got == want
    assert [e["theorem"] for e in got_entries] == list(CATALOG)
    assert [e["theorem"] for e in want_entries] == list(CATALOG)
    for g, w in zip(got_entries, want_entries):
        if _continuized(g):
            for side in ("bound", "exact"):
                if w[side] is not None:
                    assert g[side] == pytest.approx(w[side], rel=2e-6), (g["theorem"], side)
                    g[side] = w[side]
        assert g == w
