"""full_report derives each chain quantity once and agrees with the public bound functions."""

import dataclasses
import itertools
import json
import math
import sys
import threading
import weakref
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
    load_flow,
    multiply,
    nonreversible_bounds,
    random_reversible,
    save_chain,
    save_flow,
    spectral_bounds_reversible,
    spread_flow,
    state_congestion,
    time_reversal,
    two_state,
    uniform_walk,
    validate_flow,
)
from mixbounds import bounds, chains, cli, flows, mixing, spectral
from mixbounds.errors import IllConditioned, NoConvergence
from mixbounds.bounds import CATALOG, DELTA_DEFAULT, BoundReport, _Derived, _same_chain, _skip
from mixbounds.cli import run_cli

from _families import doubly_stochastic, tiny_mass_chain, two_blocks


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


def _self_pair():
    chain = random_reversible(12, 1)
    return {"base": chain, "target": chain, "flow": build_canonical_flow(chain, chain)}


COUNTED = {
    "reversible pair": _reversible_pair,
    "dhn(8)": lambda: {"base": dhn(8)},
    "doubly_stochastic(9, 4)": lambda: {"base": doubly_stochastic(9, 4)},
    # the target is the base object itself: one chain, one walk over its powers
    "target is base": _self_pair,
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


def _count_unit_rungs(monkeypatch):
    """Count, per chain object, the ladder rungs E(1) = ``_Ladder.rung(1.0)``."""
    calls = Counter()
    rung = mixing._Ladder.rung

    def counting(ladder, s):
        if s == 1:
            calls[ladder.chain] += 1  # a Chain hashes by identity; the key holds it
        return rung(ladder, s)

    monkeypatch.setattr(mixing._Ladder, "rung", counting)
    return calls


@pytest.mark.parametrize("case", sorted(COUNTED))
def test_full_report_computes_each_quantity_once(monkeypatch, case):
    kwargs = COUNTED[case]()
    exponentials = _count(monkeypatch, mixing.matrix_exponential,
                          lambda Q, t: (Q.tobytes(), float(t)))
    classified = _count(monkeypatch, chains._classify, lambda chain: id(chain))
    walks = _count_powers(monkeypatch)
    validated = _count(monkeypatch, flows._validate, lambda flow: id(flow))
    walked = _count_walks(monkeypatch)
    units = _count_unit_rungs(monkeypatch)
    full_report(**kwargs)
    # a reversible report with no target has nothing left to classify
    assert walks and (classified or case == "target is base")
    assert not exponentials, "the ladder ran a matrix exponential; its rungs up to 1 are series"
    assert units and max(units.values()) == 1, "a chain object's E(1) was made twice"
    assert max(walks.values()) == 1, "a chain object's powers were walked twice"
    assert max(classified.values(), default=1) == 1, "a chain object was classified twice"
    assert max(validated.values(), default=0) <= 1, "a flow was validated twice"
    assert max(walked.values(), default=0) <= 1, "a flow's paths were walked twice"


def _even_cycle(n):
    """Step to either neighbour on the n-cycle with 1/2: reversible, period 2."""
    P = 0.5 * (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))
    return build_chain(list(range(n)), P, name=f"cycle({n})")


REVERSIBLE_REPORTS = {
    **{case: COMPARED[case] for case in ("reversible pair", "target is base", "reversible at eps 0.6",
                                         "lazy cycle(30) at eps 0.05")},
    "periodic": lambda: {"base": _even_cycle(6), "x": 2},
}


@pytest.mark.parametrize("case", sorted(REVERSIBLE_REPORTS))
def test_a_reversible_report_builds_no_reversal_product(monkeypatch, case):
    """A reversible chain's reversal product is P^2: its report reads T23's
    gate and lambda_1 from the chain itself, so it multiplies no chains and
    eigensolves only its own chains, each once."""
    kwargs = REVERSIBLE_REPORTS[case]()
    multiplied = _count(monkeypatch, chains.multiply, lambda a, b: (id(a), id(b)))
    solved = _count(monkeypatch, spectral._eigenvalues, lambda chain: id(chain))
    full_report(**kwargs)
    assert not multiplied
    assert solved and set(solved) <= {id(kwargs["base"]), id(kwargs.get("target"))}
    assert max(solved.values()) == 1


def _count_checked(monkeypatch):
    """Count the matrices checked to stay stochastic, by their bytes."""
    return _count(monkeypatch, mixing._checked, lambda E: E.tobytes())


LADDER_QUERIES = {
    "lazy cycle(100) worst start": (lambda: _lazy_cycle(100), None, 0.25),
    # a time below 1: the rungs there are uniformization series
    "rr(12, 2) from 0": (lambda: random_reversible(12, 2), 0, 0.45),
    "dhn(8) worst start": (lambda: dhn(8), None, 0.1),
}


@pytest.mark.parametrize("case", sorted(LADDER_QUERIES))
def test_a_continuized_query_makes_each_matrix_once(monkeypatch, case):
    """Each rung E(2^e) and each probe matrix of one query is squared or
    multiplied once; E(1) and each series rung below 1 are checked once too."""
    make, x, eps = LADDER_QUERIES[case]
    chain = make()
    checked = _count_checked(monkeypatch)
    continuous_mixing_time(chain, x, eps)
    assert checked and max(checked.values()) == 1


def test_the_ladder_squares_only_what_it_probes(monkeypatch):
    """On the lazy 100-cycle the worst start doubles to 2^10, bisects down
    to width 1 and narrows the bracket to 1e-3 in its remaining probes: one
    square per rung above 1, at most one product per probe, and one series
    rung per probe inside the bracket of width 1."""
    chain = _lazy_cycle(100)
    checked = _count_checked(monkeypatch)
    continuous_mixing_time(chain, None, 0.25)
    assert sum(checked.values()) <= 30
    checked.clear()
    full_report(chain, x=3, eps=0.25)
    assert sum(checked.values()) <= 46


@pytest.mark.parametrize("base", [random_reversible(16, 2), dhn(8)], ids=lambda c: c.name)
def test_a_report_solves_no_eigenvectors(monkeypatch, base):
    """Every spectral row reads eigenvalues only: a report calls ``eigvalsh``,
    never ``eigh``, on a reversible base and on a nonreversible one."""
    solved = Counter()

    def counting(name):
        solve = getattr(np.linalg, name)

        def call(*args, **kwargs):
            solved[name] += 1
            return solve(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    full_report(base, x=1)
    assert solved["eigvalsh"] >= 1 and solved["eigh"] == 0


def _bytes_of_products(monkeypatch, chain):
    """The bytes of every product and square the walk over the chain's powers
    makes (see ``_count_products``), with their counts."""
    made = Counter()

    class Counted(np.ndarray):
        def __matmul__(self, other):
            product = super().__matmul__(other)
            made[np.asarray(product).tobytes()] += 1
            return product

    chain.P = chain.P.view(Counted)
    return made


#: (checked matrices, walk products and squares) made by one report; with
#: ``same``, the report's target is the base object itself, compared over a
#: canonical flow with the delta sweep
REPORT_MATRICES = {
    "lazy cycle(100) from 3": (lambda: _lazy_cycle(100), 3, False, 40, 35),
    "rr(40, 1) from 0": (lambda: random_reversible(40, 1), 0, False, 15, 1),
    "dhn(16) from 0": (lambda: dhn(16), 0, False, 22, 12),
    "lazy cycle(30) from 3, target is base": (lambda: _lazy_cycle(30), 3, True, 32, 44),
}


@pytest.mark.parametrize("case", sorted(REPORT_MATRICES))
def test_a_report_makes_each_walk_matrix_once(monkeypatch, case):
    """Each walk keeps its squares M(2^e) across its queries, and the report
    asks all of its base's discrete times, and a target's, before its
    continuized ones: no checked ladder matrix, and no product or square of
    the powers, is made twice in one report."""
    make, x, same, n_checked, n_products = REPORT_MATRICES[case]
    chain = make()
    compared = {"target": chain, "flow": build_canonical_flow(chain, chain), "sweep": True} if same else {}
    checked = _count_checked(monkeypatch)
    products = _bytes_of_products(monkeypatch, chain)
    full_report(chain, x=x, eps=0.25, **compared)
    assert sum(checked.values()) == len(checked) == n_checked
    assert sum(products.values()) == len(products) == n_products


def _count_distance_passes(monkeypatch):
    """Count the distance passes, one per probe at a new time."""
    return _count(monkeypatch, mixing._distances, lambda rows, pi: "passes")


#: distance passes of a worst-start query at 1/(2e) and at 0.25 on a fresh
#: walk (its doubling included), by the bisection that narrowed every
#: continuized bracket before the ITP steps
BISECTION_PASSES = {
    "rr(200, 3)": (lambda: random_reversible(200, 3), (23, 23)),
    "doubly_stochastic(100, 3)": (lambda: doubly_stochastic(100, 3), (25, 25)),
    "rr(40, 1)": (lambda: random_reversible(40, 1), (23, 23)),
    "rr(14, 2)": (lambda: random_reversible(14, 2), (23, 22)),
}


@pytest.mark.parametrize("case", sorted(BISECTION_PASSES))
def test_worst_start_queries_make_at_most_60_percent_of_the_bisection_probes(monkeypatch, case):
    """A regression bar on these sampled queries, not a promise of the walk,
    which makes at most one probe more than bisection inside the bracket of
    width 1."""
    make, bisection = BISECTION_PASSES[case]
    chain = make()
    passes = _count_distance_passes(monkeypatch)
    for eps, most in zip((DELTA_DEFAULT, 0.25), bisection):
        walk = mixing._Ladder(chain)
        passes.clear()
        walk.time(None, eps)
        assert passes["passes"] <= 0.6 * most, eps


#: distance passes of two queries (x, eps) on a fresh walk of each clock,
#: its doubling included: (discrete, continuized), one count per query
PINNED_PASSES = {
    "rr(12, 1)": (lambda: random_reversible(12, 1), [(None, 0.25), (0, DELTA_DEFAULT)], (1, 1), (7, 7)),
    "dhn(8)": (lambda: dhn(8), [(None, 0.1), (5, 0.25)], (8, 8), (12, 11)),
    "lazy cycle(30)": (lambda: _lazy_cycle(30), [(3, 0.05), (None, DELTA_DEFAULT)], (16, 14), (19, 18)),
    "doubly_stochastic(9, 4)": (lambda: doubly_stochastic(9, 4), [(None, DELTA_DEFAULT), (2, 0.1)], (6, 6), (10, 10)),
    "rr(100, 2)": (lambda: random_reversible(100, 2), [(None, 0.25), (50, 0.05)], (2, 4), (8, 9)),
}


@pytest.mark.parametrize("case", sorted(PINNED_PASSES))
def test_each_clock_makes_its_pinned_distance_passes(monkeypatch, case):
    """The probe counts of a few queries on each clock: a change to the
    walk's bookkeeping leaves them as they are, and a change to its probes
    shows here first."""
    make, queries, *want = PINNED_PASSES[case]
    chain = make()
    passes = _count_distance_passes(monkeypatch)
    got = []
    for clock in (mixing._Powers, mixing._Ladder):
        counts = []
        for x, eps in queries:
            walk = clock(chain)
            passes.clear()
            walk.time(x, eps)
            counts.append(passes["passes"])
        got.append(tuple(counts))
    assert got == want


SWEEP_EPS = (0.01, 0.05, 0.1, 0.2, DELTA_DEFAULT, 0.25, 0.45)
#: distance passes by the bisection, as above, of each query at SWEEP_EPS:
#: one row for the worst start and one for each start of ``_sweep_starts``
BISECTION_SWEEP = {
    "rr(14, 2)": (lambda: random_reversible(14, 2), [
        (24, 24, 23, 23, 23, 22, 21), (24, 23, 23, 22, 22, 22, 21), (24, 24, 23, 23, 23, 22, 21),
        (24, 23, 23, 22, 21, 22, 21), (24, 23, 23, 22, 22, 22, 21), (24, 23, 23, 22, 22, 22, 21),
        (24, 23, 23, 21, 23, 22, 21), (24, 23, 23, 22, 22, 22, 21), (24, 23, 23, 21, 23, 22, 21)]),
    "rr(40, 1)": (lambda: random_reversible(40, 1), [
        (24, 24, 23, 23, 23, 23, 22), (24, 23, 23, 22, 21, 22, 21), (24, 24, 23, 23, 23, 22, 22),
        (24, 23, 23, 22, 21, 22, 21), (24, 23, 23, 22, 22, 22, 21), (24, 23, 23, 22, 22, 22, 21),
        (24, 23, 23, 22, 22, 22, 21), (24, 22, 23, 23, 23, 22, 22), (24, 23, 23, 22, 22, 22, 21)]),
    "rr(12, 2)": (lambda: random_reversible(12, 2), [
        (24, 24, 23, 23, 23, 22, 21), (24, 23, 23, 22, 22, 22, 21), (24, 24, 23, 23, 23, 22, 21),
        (24, 23, 23, 22, 22, 22, 21), (24, 22, 23, 23, 23, 22, 21), (24, 23, 23, 22, 22, 22, 21),
        (24, 23, 23, 22, 22, 22, 21), (24, 23, 23, 21, 23, 22, 21), (24, 23, 23, 22, 22, 22, 21)]),
    "dhn(16)": (lambda: dhn(16), [
        (27, 27, 26, 26, 26, 25, 25), (27, 26, 26, 25, 25, 25, 24), (27, 26, 26, 24, 26, 25, 24),
        (27, 27, 26, 26, 26, 25, 25), (27, 27, 26, 25, 24, 25, 25), (27, 26, 26, 25, 25, 25, 24),
        (27, 27, 26, 26, 26, 25, 24), (27, 27, 26, 24, 26, 25, 25), (27, 25, 26, 25, 25, 25, 24)]),
    "lazy cycle(30)": (lambda: _lazy_cycle(30), [(30, 29, 29, 28, 28, 28, 27)] * 9),
    "doubly_stochastic(9, 4)": (lambda: doubly_stochastic(9, 4), [
        (25, 25, 25, 24, 24, 24, 23), (25, 24, 24, 22, 24, 23, 22), (25, 24, 24, 23, 22, 23, 22),
        (25, 25, 24, 24, 24, 24, 22), (25, 24, 24, 23, 23, 23, 22), (25, 25, 24, 24, 24, 23, 21),
        (25, 25, 25, 24, 24, 24, 23), (25, 24, 24, 23, 23, 23, 22), (25, 25, 24, 24, 24, 24, 22)]),
    "doubly_stochastic(20, 1)": (lambda: doubly_stochastic(20, 1), [
        (26, 26, 25, 25, 25, 25, 24), (26, 25, 25, 24, 24, 24, 23), (26, 25, 25, 24, 24, 24, 23),
        (26, 25, 25, 24, 23, 24, 23), (26, 25, 23, 24, 24, 24, 23), (26, 25, 25, 24, 24, 24, 23),
        (26, 25, 25, 24, 24, 24, 23), (26, 25, 25, 24, 24, 24, 23), (26, 26, 25, 25, 25, 25, 24)]),
    "directed_cycle(5)": (lambda: directed_cycle(5), [(24, 23, 23, 22, 22, 22, 21)] * 6),
    "two_state(0.1)": (lambda: two_state(0.1), [(23, 22, 21, 21, 21, 21, 21)] * 3),
}


def _sweep_starts(chain):
    """The worst start, then up to 8 starts spread over the chain."""
    return [None] + sorted({int(x) for x in np.linspace(0, chain.n - 1, min(chain.n, 8)).round()})


@pytest.mark.parametrize("case", sorted(BISECTION_SWEEP))
def test_no_continuized_query_makes_more_probes_than_bisection(monkeypatch, case):
    """504 (chain, x, eps) queries in all, each on a fresh walk.  The pinned
    counts are a regression bar on these sampled queries: the walk promises
    only at most ``bisections(hi) + 1`` probes inside the bracket of width 1
    (see the next test), one more than bisection's count."""
    make, bisection = BISECTION_SWEEP[case]
    chain = make()
    passes = _count_distance_passes(monkeypatch)
    for x, row in zip(_sweep_starts(chain), bisection, strict=True):
        for eps, most in zip(SWEEP_EPS, row, strict=True):
            walk = mixing._Ladder(chain)
            passes.clear()
            walk.time(x, eps)
            assert passes["passes"] <= most, (x, eps)


def test_one_sided_regula_falsi_stays_within_one_probe_of_bisection(monkeypatch):
    """On the lazy directed 100-cycle at eps = 0.25 each regula falsi step
    lands on the side within eps, so the projection falls back to bisection:
    from the worst start and from 0, the walk makes 11 probes inside the
    bracket of width 1 (at times that are not integers), where bisection
    makes bisections(hi) = 11 and the walk promises at most one more."""
    chain = lazy(directed_cycle(100))
    probes = _count(monkeypatch, mixing._check_rise, lambda kept, t, *_: t != math.floor(t))
    for x in (None, 0):
        walk = mixing._Ladder(chain)
        probes.clear()
        got = walk.time(x, 0.25)
        budget = walk.bisections(math.ceil(got.time))  # the bracket of width 1 ends at an integer hi
        assert probes[True] <= budget + 1, x
        assert (probes[True], budget) == (11, 11), x


FROM_X_QUERIES = {
    # a time below 1: E(1) is the doubling's only rung
    "rr(12, 2) from 0": (lambda: random_reversible(12, 2), 0, 0.45),
    "rr(200, 3) from 100": (lambda: random_reversible(200, 3), 100, 0.25),
    "dhn(64) from 3": (lambda: dhn(64), 3, 0.25),
}


@pytest.mark.parametrize("case", sorted(FROM_X_QUERIES))
def test_a_from_x_query_builds_no_square_matrix_after_its_doubling(monkeypatch, case):
    """Its only n x n matrices are E(1) and its squares up to the first
    power of two past the time; every later probe, in the bisection and
    inside the bracket of width 1, is a checked 1 x n row, and no series
    rung E(s) but E(1) is built."""
    make, x, eps = FROM_X_QUERIES[case]
    chain = make()
    shapes, check, rung = [], mixing._checked, mixing._Ladder.rung
    monkeypatch.setattr(mixing, "_checked", lambda E: check(shapes.append(E.shape) or E))
    rungs = Counter()

    def counting(ladder, s):
        rungs[s] += 1
        return rung(ladder, s)

    monkeypatch.setattr(mixing._Ladder, "rung", counting)
    t = continuous_mixing_time(chain, x, eps).time
    n, doubling = chain.n, 1 + max(0, math.ceil(math.log2(t)))
    assert shapes[:doubling] == [(n, n)] * doubling
    assert len(shapes) > doubling and set(shapes[doubling:]) == {(1, n)}
    assert rungs == {1.0: 1}


def _count_powers(monkeypatch):
    """Count, per chain object, the walks over its powers (``_Powers``)."""
    return _count(monkeypatch, mixing._Powers, lambda chain: id(chain))


def _count_products(chain):
    """Count the ``@`` products that start from the chain's P, or from such a
    product or a row of one, with squares (a @ a) apart.  P becomes a view of
    an ndarray subclass whose ``@`` counts, and each such product or row is
    of that subclass too.  So the count is of the walk's products: the
    ladder multiplies P by ``np.matmul`` into plain arrays."""
    counts = Counter()

    class Counted(np.ndarray):
        def __matmul__(self, other):
            counts["squares" if other is self else "products"] += 1
            return super().__matmul__(other)

    chain.P = chain.P.view(Counted)
    return counts


def test_a_report_walks_the_powers_for_its_worst_start_times(monkeypatch):
    """On the lazy 100-cycle the report walks the powers once for its three
    discrete times: the worst start's at 1/(2e) (1,259) and at eps, and the
    time from 3 at eps (949).  Each squares P up to 2^11 and bisects down,
    at most 11 squares and 11 products each; from 3, once the bisection has
    left 0, each product is one row by n x n."""
    chain = _lazy_cycle(100)
    walks = _count_powers(monkeypatch)
    products = _count_products(chain)
    full_report(chain, x=3, eps=0.25)
    assert walks == {id(chain): 1}
    assert products["squares"] <= 3 * 11 and products["products"] <= 3 * 11


def test_a_gap_of_zero_ends_the_walk_at_the_cap(monkeypatch):
    """two_state(1e-17) never mixes within the cap of 2^20 steps: the
    report's worst-start time, and the public time from 0, square P 20
    times, to the cap, and raise there with no bisection product, naming the
    cap and the distance there."""
    chain = two_state(1e-17)
    products = _count_products(chain)
    for call in (lambda: full_report(chain, x=0, eps=0.25), lambda: discrete_mixing_time(chain, 0, 0.25)):
        products.clear()
        with pytest.raises(NoConvergence, match=r"within 1048576 steps \(TV still 5\.000e-01\)"):
            call()
        assert products == {"squares": 20}


def test_a_target_that_is_lazy_base_walks_the_lazy_chain_once(monkeypatch):
    """O14 reads lazy(base)'s time from x on the report's target when that
    target is lazy(base) bit for bit: one walk over the powers per distinct
    matrix (the base's and the lazy chain's), and O14's exact side is the
    time a fresh walk gives."""
    kwargs = _reversible_pair()
    want = discrete_mixing_time(lazy(kwargs["base"]), 0, 0.25).time
    walks = _count(monkeypatch, mixing._Powers, lambda chain: chain.P.tobytes())
    o14 = next(e for e in full_report(**kwargs).entries if e.theorem == "O14")
    assert len(walks) == 2 and max(walks.values()) == 1
    assert o14.applicable and o14.exact == want


def _t24c(report, base, flow, tau_prime_c):
    """T24c's entry in the report, and its bound at the target's worst-start
    continuized time ``tau_prime_c``."""
    entry = next(e for e in report.entries if e.theorem == "T24c")
    log_x2 = math.log(1.0 / (report.epsilon**2 * base.pi[report.from_index]))
    return entry, CATALOG["T24c"].bound(edge_congestion(flow)[1], tau_prime_c, log_x2)


def test_a_target_that_is_lazy_base_is_read_off_the_bases_ladder(monkeypatch):
    """lazy(P)'s continuized chain is P's at half speed, so a report against
    its lazy chain makes one ladder, the base's, and T24c reads twice the
    base's kept worst-start time."""
    kwargs = _reversible_pair()
    base = kwargs["base"]
    ladders = _count(monkeypatch, mixing._Ladder, lambda chain: chain.P.tobytes())
    report = full_report(**kwargs)
    assert ladders == {base.P.tobytes(): 1}
    entry, want = _t24c(report, base, kwargs["flow"], 2.0 * base._constants["ladder", DELTA_DEFAULT])
    assert entry.applicable and entry.bound == want


def _one_ulp_off(chain):
    P = chain.P.copy()
    P[0, 1] = np.nextafter(P[0, 1], 1.0)
    return chains.Chain(chain.labels, P, chain.pi, name="lazy, one ulp off")


#: targets that are lazy(base) but for their last bits: pi solved again from
#: lazy(base)'s P, as ``load_chain`` solves it, or one entry of P one ulp off
NEAR_LAZY = {
    "pi solved again": lambda base: build_chain(base.labels, lazy(base).P, name="lazy, pi solved again"),
    "one ulp off": lambda base: _one_ulp_off(lazy(base)),
}


@pytest.mark.parametrize("case", sorted(NEAR_LAZY))
def test_a_target_that_is_not_lazy_base_walks_its_own_ladder(monkeypatch, case):
    """A target that is not lazy(base) bit for bit is not read off the
    base's ladder: it walks its own, and T24c reads the time its public call
    gives."""
    base = random_reversible(16, 2)
    target = NEAR_LAZY[case](base)
    assert not _same_chain(target, lazy(base))
    want = continuous_mixing_time(target, None, DELTA_DEFAULT).time
    flow = build_canonical_flow(base, target, odd=True)
    ladders = _count(monkeypatch, mixing._Ladder, lambda chain: id(chain))
    report = full_report(base, target, flow, sweep=True)
    assert ladders == {id(base): 1, id(target): 1}
    entry, bound = _t24c(report, base, flow, want)
    assert entry.applicable and entry.bound == bound


def test_a_lazy_time_past_the_cap_raises_the_lazy_chains_own_error():
    """Flipping with p = 1.5 2^-21, the base mixes at 1/(2e) in 1 / (2 p),
    about 699,051 time units, and its lazy chain in twice that, past the cap
    of 2^20: the lazy chain's own ladder raises, with the message of its
    public call, whether the base's time is kept or not, as either way the
    base's walk answers past half the cap, so its time is not doubled."""
    p = 1.5 * 2.0**-21
    base = build_chain(["a", "b"], [[1.0 - p, p], [p, 1.0 - p]])
    target = lazy(base)
    with pytest.raises(NoConvergence) as public:
        continuous_mixing_time(target, None, DELTA_DEFAULT)
    for kept in (False, True):
        s = _Derived(0.25, _copy(base), 0, target)
        if kept:
            assert s.continuous(s.base, None, DELTA_DEFAULT) > 2.0**19
        with pytest.raises(NoConvergence) as got:
            s.continuous(target, None, DELTA_DEFAULT)
        assert str(got.value) == str(public.value) == "no mixing within 1048576 time units (TV still 2.362e-01)"


def test_a_base_square_that_drifts_past_half_the_cap_leaves_the_lazy_time_to_its_own_ladder():
    """Blocks of 70 states cross 0.1 near 2^19.2: the base's square E(2^20)
    drifts past the ladder's row-sum check, so its walk raises
    IllConditioned past half the cap.  The lazy chain's time there is its
    own ladder's, which stays stochastic to 2^20 and raises NoConvergence,
    as its public call does."""
    base = two_blocks(70, math.log(5) / (3 * 2**19.2))
    target = lazy(base)
    with pytest.raises(IllConditioned, match="by 1048576 time units"):
        continuous_mixing_time(base, None, 0.1)
    with pytest.raises(NoConvergence) as public:
        continuous_mixing_time(target, None, 0.1)
    s = _Derived(0.25, base, 0, target)
    with pytest.raises(NoConvergence) as got:
        s.continuous(target, None, 0.1)
    assert str(got.value) == str(public.value) == "no mixing within 1048576 time units (TV still 1.232e-01)"


def _count_alive_walks(monkeypatch):
    """Wrap ``bounds._Powers`` and ``bounds._Ladder`` so that each walk a
    call makes is counted until it is freed: returns the walks made, and the
    number alive at each query of one."""
    walks, alive = Counter(), []

    def counted(clock):
        class Counted(clock):
            def __init__(self, chain):
                super().__init__(chain)
                walks["made"] += 1
                walks["alive"] += 1
                weakref.finalize(self, walks.subtract, ["alive"])

            def time(self, *args):
                alive.append(walks["alive"])
                return super().time(*args)
        return Counted

    for name in ("_Powers", "_Ladder"):
        monkeypatch.setattr(bounds, name, counted(getattr(bounds, name)))
    return walks, alive


def _lazy_cycle_is_its_target():
    chain = _lazy_cycle(30)
    return {"base": chain, "target": chain, "flow": build_canonical_flow(chain, chain), "x": 3, "sweep": True}


def _lazy_pair():
    base = random_reversible(12, 1)
    target = lazy(base)
    return {"base": base, "target": target, "flow": build_canonical_flow(base, target)}


#: reports that walk two to five (chain, clock) pairs
MANY_WALKS = {
    "lazy cycle(30), target is base": _lazy_cycle_is_its_target,
    "rr(12, 1) against its lazy chain": _lazy_pair,
    "dhn(8)": lambda: {"base": dhn(8)},
    "product flow": _product_pair,
}


@pytest.mark.parametrize("case", sorted(MANY_WALKS))
def test_a_report_holds_one_walk_at_a_time(monkeypatch, case):
    """A query on another chain or clock replaces the call's walk, which
    frees all it held: at every query of a report one walk is alive."""
    kwargs = MANY_WALKS[case]()
    walks, alive = _count_alive_walks(monkeypatch)
    full_report(**kwargs)
    assert walks["made"] >= 2 and len(alive) >= walks["made"]
    assert max(alive) == 1, f"walks alive at each query: {alive}"


@pytest.mark.parametrize("report", ["comparison_reversible", "full_report"])
def test_a_target_that_is_the_base_shares_its_stream(monkeypatch, report):
    """The target's worst-start times and the base's from-x time walk the
    powers of the same chain object: it gets one walk."""
    kwargs = _self_pair()
    chain = kwargs["base"]
    walks = _count_powers(monkeypatch)
    if report == "full_report":
        full_report(**kwargs, sweep=True)
    else:
        comparison_reversible(chain, chain, kwargs["flow"], 0, 0.25)
    assert walks[id(chain)] == 1


@pytest.mark.parametrize("eps", [0.25, 0.05])
@pytest.mark.parametrize("make", [lambda: _lazy_cycle(30), lambda: dhn(8), lambda: doubly_stochastic(9, 4)],
                         ids=lambda make: make().name)
def test_from_x_times_after_a_worst_start_query(monkeypatch, make, eps):
    """After the worst start's crossing of 1/(2e), each from-x time at the
    call's eps equals the public call's.  The memo's from-x times share the
    walk of its worst-start query; each public call makes its own.  Each
    case builds its own chain, as a chain keeps its worst-start times."""
    base = make()
    d = _Derived(eps)
    d.discrete(base, None, DELTA_DEFAULT)
    walks = _count_powers(monkeypatch)
    for x in range(base.n):
        assert d.discrete(base, x, eps) == discrete_mixing_time(base, x, eps).time, x
    assert walks == {id(base): base.n}


@pytest.mark.parametrize("case", sorted(COMPARED))
def test_report_json_equals_the_deep_copied_entries(case):
    """An entry's to_dict copies its scalar fields in field order, so a
    report's JSON is byte for byte that of dataclasses.asdict."""
    report = full_report(**COMPARED[case]())
    deep = {**report.to_dict(), "entries": [dataclasses.asdict(e) for e in report.entries]}
    assert json.dumps(report.to_dict()) == json.dumps(deep)


@pytest.mark.parametrize("case", sorted(set(COMPARED) - {"periodic"}))  # the other bases are ergodic
def test_discrete_times_in_any_order(case):
    kwargs = COMPARED[case]()
    base, eps = kwargs["base"], kwargs.get("eps", 0.25)
    x = base.index(kwargs.get("x", 0))
    queries = [(True, DELTA_DEFAULT), (True, eps), (False, eps), (False, DELTA_DEFAULT)]
    want = {(worst, e): discrete_mixing_time(base, None if worst else x, e).time for worst, e in queries}
    for order in itertools.permutations(queries):
        d, chain = _Derived(eps), _copy(base)  # a fresh chain keeps no worst-start time yet
        got = {(worst, e): d.discrete(chain, None if worst else x, e) for worst, e in order}
        assert got == want, order


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


def test_a_loaded_flow_is_validated_once_across_public_calls(monkeypatch, tmp_path):
    """A flow file is validated at load, and the flow keeps that validation
    for the report and the congestions."""
    base = random_reversible(12, 1)
    target = lazy(base)
    path = tmp_path / "flow.json"
    save_flow(build_canonical_flow(base, target), path)
    validated = _count(monkeypatch, flows._validate, lambda flow: id(flow))
    loaded = load_flow(path, base, target)
    assert validated[id(loaded)] == 1
    full_report(base, target, loaded, x=0)
    edge_congestion(loaded)
    assert validated[id(loaded)] == 1


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
    solved = _count(monkeypatch, spectral._eigenvalues, lambda chain: id(chain))
    assert run_cli(["analyze", str(path), "--json"]) == 0
    assert sum(solved.values()) == 1
    assert "lambda_1" in capsys.readouterr().out


#: chain -> analyze's exit code: tiny_mass_chain's cut flows do not balance, so
#: its report and analyze end in IllConditioned at the conductance, after the gaps
NONREVERSIBLE = {"dhn(4)": (lambda: dhn(4), 0), "doubly_stochastic(8, 1)": (lambda: doubly_stochastic(8, 1), 0),
                 "tiny_mass_chain": (tiny_mass_chain, 2)}


@pytest.mark.parametrize("case", sorted(NONREVERSIBLE))
def test_a_nonreversible_spectrum_builds_no_reversibilization(monkeypatch, tmp_path, case):
    """A nonreversible chain's gaps come from its own symmetrised matrix,
    similar to its additive reversibilization, so no call builds that chain;
    and ``analyze`` makes one ``eigvalsh``."""
    make, code = NONREVERSIBLE[case]
    chain = make()
    assert not classify(chain).reversible
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    built = _count(monkeypatch, chains.reversibilize, lambda chain: id(chain))
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: solves.append(A) or eigvalsh(A))
    spectral.lambda_constants(chain)
    try:
        full_report(chain, x=0)
    except IllConditioned:
        assert code == 2
    solves.clear()
    assert run_cli(["analyze", str(path), "--json"]) == code
    assert not built
    assert len(solves) == 1


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
        entries += [_skip(t, "no target chain and flow supplied")
                    for t in ("T8", "I5", "T10", "O13", "O14", "T24c", "T24d", "T25", "T26")]
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


def _count_solves(monkeypatch):
    """Count the ``eigvalsh`` calls, by the size of the matrix solved."""
    solves = Counter()
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: solves.update([len(A)]) or eigvalsh(A))
    return solves


def _count_worst_starts(monkeypatch):
    """Count the worst-start queries of every walk, by clock and eps."""
    queries = Counter()
    time = mixing._Walk.time

    def counting(walk, x, eps, *args):
        if x is None:
            queries[type(walk).__name__, eps] += 1
        return time(walk, x, eps, *args)

    monkeypatch.setattr(mixing._Walk, "time", counting)
    return queries


#: chain -> the eigensolves of its first report: a nonreversible chain's
#: reversal product is solved too, unless it is reducible (dhn and the
#: directed cycle), which its classification says
KEPT = {
    "rr(16, 2)": (lambda: random_reversible(16, 2), 1),
    "dhn(8)": (lambda: dhn(8), 1),
    "doubly_stochastic(9, 4)": (lambda: doubly_stochastic(9, 4), 2),
    "directed_cycle(5)": (lambda: directed_cycle(5), 1),
}


@pytest.mark.parametrize("case", sorted(KEPT))
def test_a_chain_keeps_its_constants_across_reports(monkeypatch, case):
    """Two reports on one chain object at different x derive its constants
    once: one eigensolve of the chain (and of its reversal product, built
    once, when it is nonreversible) and one worst-start query at 1/(2e) on
    each clock.  ``lambda_constants`` then reads the spectrum the chain
    keeps."""
    make, first = KEPT[case]
    chain = make()
    solves = _count_solves(monkeypatch)
    products = _count(monkeypatch, chains._reversal_product, lambda chain: id(chain))
    queries = _count_worst_starts(monkeypatch)
    full_report(chain, x=0)
    assert sum(solves.values()) == first
    once = (dict(solves), dict(products))
    full_report(chain, x=chain.n - 1)
    spectral.lambda_constants(chain)
    assert (dict(solves), dict(products)) == once
    assert sum(products.values()) == (not classify(chain).reversible)
    clocks = {"_Ladder"} | ({"_Powers"} if classify(chain).ergodic else set())
    assert {(clock, eps): k for (clock, eps), k in queries.items() if eps == DELTA_DEFAULT} == {
        (clock, DELTA_DEFAULT): 1 for clock in clocks}


def _stored(value, n: int) -> list:
    """What a kept constant holds that a chain must not keep: a chain, a
    walk, or an array of more than n entries."""
    if isinstance(value, (tuple, list)):
        return [bad for item in value for bad in _stored(item, n)]
    if isinstance(value, (chains.Chain, mixing._Walk)) or isinstance(value, np.ndarray) and value.size > n:
        return [value]
    return []


#: every key a chain may keep: its classification, spectrum, product gap and
#: worst-start time at 1/(2e) on each clock
KEYS = {"class", "spectrum", "product_gap", ("powers", DELTA_DEFAULT), ("ladder", DELTA_DEFAULT)}


def _check_store(*chains_seen):
    for chain in chains_seen:
        constants = chain._constants
        assert constants and set(constants) <= KEYS, (chain, set(constants) - KEYS)
        assert not [bad for value in constants.values() for bad in _stored(value, chain.n)], chain


STORED = {
    "reversible pair with sweep": _reversible_pair,
    "product flow": _product_pair,
    "target is base with sweep": lambda: {**_self_pair(), "sweep": True},
}


@pytest.mark.parametrize("case", sorted(STORED))
def test_a_chain_keeps_no_chain_walk_or_square_matrix(case):
    """After a report with a sweep or a product flow, every chain it read
    keeps only its known constants, none of them a chain, a walk or an
    array of more than n entries."""
    kwargs = STORED[case]()
    base, target = kwargs["base"], kwargs["target"]
    full_report(**kwargs, x=1)
    _check_store(base, target, kwargs["flow"].base)
    assert {"product_gap", ("ladder", DELTA_DEFAULT)} <= base._constants.keys()
    if kwargs.get("sweep"):  # the sweep's factor reads the target's times at every delta, keeps 1/(2e)'s
        assert ("powers", DELTA_DEFAULT) in target._constants


def test_analyze_keeps_only_the_chains_constants(monkeypatch, tmp_path):
    path = tmp_path / "chain.json"
    save_chain(doubly_stochastic(9, 4), path)
    loaded = []
    load = cli.load_chain
    monkeypatch.setattr(cli, "load_chain", lambda p: loaded.append(load(p)) or loaded[-1])
    assert run_cli(["analyze", str(path), "--json"]) == 0
    _check_store(*loaded)
    assert set(loaded[0]._constants) == {"class", "spectrum"}


def _copy(chain):
    return chains.Chain(chain.labels, chain.P, chain.pi, chain.name)


#: report arguments -> the (x, eps) of the reports asked in turn on one object
REPEATED = {
    "rr(12, 1)": (lambda: {"base": random_reversible(12, 1)}, [(0, 0.25), (11, 0.1), (5, DELTA_DEFAULT)]),
    "rr(40, 1)": (lambda: {"base": random_reversible(40, 1)}, [(3, 0.25), (0, 0.05), (39, 0.3)]),
    "dhn(8)": (lambda: {"base": dhn(8)}, [(0, 0.25), (15, 0.01), (3, 0.25)]),
    "doubly_stochastic(20, 1)": (lambda: {"base": doubly_stochastic(20, 1)}, [(0, 0.1), (19, 0.25)]),
    "directed_cycle(5)": (lambda: {"base": directed_cycle(5)}, [(0, 0.25), (2, 0.05), (4, 0.25)]),
    "cycle(6)": (lambda: {"base": _even_cycle(6)}, [(0, 0.25), (3, 0.1)]),
    "lazy cycle(30)": (lambda: {"base": _lazy_cycle(30)}, [(7, 0.05), (0, 0.25), (29, DELTA_DEFAULT)]),
    "reversible pair": (_reversible_pair, [(0, 0.25), (15, 0.1), (4, 0.05)]),
    "reversible pair, no sweep": (lambda: {**_reversible_pair(), "sweep": False}, [(2, 0.25), (9, 0.01)]),
    "lazy pair": (_lazy_pair, [(0, 0.25), (11, DELTA_DEFAULT)]),
    "target is base": (lambda: {**_self_pair(), "sweep": True}, [(0, 0.25), (6, 0.1), (11, 0.45)]),
    "lazy cycle(30) is its target": (_lazy_cycle_is_its_target, [(3, 0.25), (20, 0.1)]),
    "product flow": (_product_pair, [(0, 0.25), (8, 0.05), (4, 0.25)]),
}


@pytest.mark.parametrize("case", sorted(REPEATED))
def test_a_repeated_report_equals_one_on_fresh_chains(case):
    """Reports asked in turn on one chain object equal, byte for byte in
    ``to_dict()``, the same reports on fresh ``Chain(labels, P, pi)``
    copies, which keep nothing yet: what a chain keeps is what a fresh
    report derives."""
    make, asked = REPEATED[case]
    kwargs = {name: value for name, value in make().items() if name != "x"}
    for x, eps in asked:
        fresh = {**kwargs, "base": _copy(kwargs["base"])}
        if "target" in kwargs:
            fresh["target"] = fresh["base"] if kwargs["target"] is kwargs["base"] else _copy(kwargs["target"])
        got, want = (full_report(**k, x=x, eps=eps).to_dict() for k in (kwargs, fresh))
        assert json.dumps(got) == json.dumps(want), (x, eps)
    assert kwargs["base"]._constants


def test_reports_in_threads_share_one_chains_store():
    """Reports asked at once, in more threads than cores and with a short
    switch interval, on one chain object each equal the report on a fresh
    copy: threads that both compute a constant keep equal values, so a lost
    update of the store is harmless."""
    chain = _lazy_cycle(20)
    asked = [(x, eps) for x in (0, 5, 10, 19) for eps in (0.25, 0.1)]
    want = {(x, eps): json.dumps(full_report(_copy(chain), x=x, eps=eps).to_dict()) for x, eps in asked}
    got, errors = {}, []

    def run(x, eps):
        try:
            got[x, eps] = json.dumps(full_report(chain, x=x, eps=eps).to_dict())
        except Exception as exc:  # reported below, with the thread's query
            errors.append((x, eps, exc))

    threads = [threading.Thread(target=run, args=query) for query in asked]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and got == want
    _check_store(chain)


def test_an_error_is_not_kept():
    """A constant whose computation raises is not kept, so every call
    raises again: two_state(1e-17) does not mix within the cap of 2^20
    steps (NoConvergence)."""
    chain = two_state(1e-17)
    for x in (0, 1):
        with pytest.raises(NoConvergence, match="within 1048576 steps"):
            full_report(chain, x=x)
    assert ("powers", DELTA_DEFAULT) not in chain._constants
