"""Built-in verification of the worked examples (the `selftest` subcommand).

Each check recomputes a hand-derivable quantity with the library and compares
exactly (or at the stated tolerance).  Everything here is deterministic and
fast; the heavier randomised suites live in the test directory.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bounds import DELTA_DEFAULT, GAP_CONST, full_report
from .chains import classify, lazy
from .flows import build_canonical_flow, edge_congestion, spread_flow, state_congestion, validate_flow
from .generators import dhn, directed_cycle, two_state, two_state_uniform_flow, uniform_walk
from .mixing import continuous_mixing_time, discrete_mixing_time
from .spectral import dirichlet_form, lambda_constants, variance


def _two_state_exact_tau(delta: float, eps: float) -> int:
    """Closed form for the flip-heavy two-state chain: TV(t) = |1-2d|^t / 2.
    The smallest t >= 1 with that within eps, in exact rational arithmetic."""
    r, eps = abs(1 - 2 * Fraction(delta)), Fraction(eps)
    t = 1
    while r**t / 2 > eps:
        t += 1
    return t


def _checks():
    yield from _check_two_state_family()
    yield from _check_continuized_two_state()
    yield from _check_slowdown_ratio()
    yield from _check_lazy_escape()
    yield from _check_dhn_scaling()
    yield from _check_cycle_negative_case()
    yield from _check_spreading()
    yield from _check_report_roundup()


def _check_two_state_family():
    for delta in (0.5, 0.25, 0.1, 0.05):
        chain = two_state(delta)
        tau = discrete_mixing_time(chain, "a", 0.25).time
        want = _two_state_exact_tau(delta, 0.25)
        yield (
            f"two-state delta={delta}: exact tau_a(1/4) = {want}",
            tau == want,
            f"got {tau}",
        )
        # survival argument: at even t < 1/(4 delta) the distance exceeds 1/4;
        # t0 is the largest such t, in exact rational arithmetic
        t0 = 2 * (math.ceil(1 / (8 * Fraction(delta))) - 1)
        yield (
            f"two-state delta={delta}: tau_a(1/4) >= {t0 + 1} (even-step survival)",
            tau >= t0 + 1,
            f"got {tau}",
        )
    for delta in (0.25, 0.1):
        flow = two_state_uniform_flow(delta)
        _, a = edge_congestion(flow)
        want = 5.0 / (2.0 * (1.0 - delta))
        yield (
            f"explicit two-state flow delta={delta}: congestion = 5/(2(1-delta))",
            abs(a - want) <= 1e-12,
            f"got {a!r}, want {want!r}",
        )


def _check_continuized_two_state():
    # the continuized distance from a is exp(-2 (1 - delta) t) / 2; the first
    # two times lie below 1, where every rung is a uniformization series
    for delta, eps in ((0.25, 0.25), (0.1, 0.1), (0.05, 0.01)):
        tau = continuous_mixing_time(two_state(delta), "a", eps).time
        want = math.log(1.0 / (2.0 * eps)) / (2.0 * (1.0 - delta))
        yield (
            f"continuized two-state delta={delta}: tau_a({eps}) = ln(1/(2 eps)) / (2 (1 - delta)) = {want:.6f}",
            abs(tau - want) <= 2e-6,
            f"got {tau!r}",
        )


def _check_slowdown_ratio():
    delta = 0.005
    chain = two_state(delta)
    flow = two_state_uniform_flow(delta)
    tau = discrete_mixing_time(chain, "a", 0.25).time
    tau_target = discrete_mixing_time(flow.target, None, DELTA_DEFAULT).time
    denom = (tau_target + 1.0) * math.log(1.0 / (0.25 * 0.5))
    ratio = tau / denom
    _, a = edge_congestion(flow)
    yield (
        f"slowdown ratio at delta={delta}: {ratio:.1f} > 10 with congestion {a:.2f} <= 5",
        ratio > 10.0 and a <= 5.0,
        f"ratio {ratio}, congestion {a}",
    )


def _check_lazy_escape():
    chain = two_state(0.25)
    tau = discrete_mixing_time(lazy(chain), "a", 0.25).time
    yield ("lazy two-state delta=1/4 mixes in 1 step (<= 17)", tau == 1, f"got {tau}")


def _check_dhn_scaling():
    taus = {}
    for n in (4, 8, 16, 32):
        chain = dhn(n)
        phi = np.array([abs(int(lbl)) for lbl in chain.labels], dtype=float)
        var = variance(chain.pi, phi)
        yield (
            f"dhn n={n}: var of |i| is (n^2+2)/12",
            abs(var - (n * n + 2) / 12.0) <= 1e-10,
            f"got {var!r}",
        )
        lam1 = lambda_constants(chain)[0]
        quotient = dirichlet_form(chain, phi) / var
        yield (
            f"dhn n={n}: lam1 <= form/var and lam1*n^2 <= 7",
            lam1 <= quotient + 1e-12 and lam1 * n * n <= 7.0,
            f"lam1={lam1!r}, quotient={quotient!r}",
        )
        taus[n] = discrete_mixing_time(chain, None, DELTA_DEFAULT).time
        gap = GAP_CONST**2 / (8.0 * taus[n] ** 2)
        yield (f"dhn n={n}: gap lower bound from mixing time", lam1 >= gap - 1e-12, f"{lam1} vs {gap}")
    for n in (4, 8, 16):
        yield (
            f"dhn: tau({2 * n}) / tau({n}) <= 3 (linear growth)",
            taus[2 * n] / taus[n] <= 3.0,
            f"{taus[2 * n]} / {taus[n]}",
        )


def _check_cycle_negative_case():
    chain = directed_cycle(3)
    cls = classify(chain)
    report = full_report(chain, x=0, eps=0.25)
    by_id = {e.theorem: e for e in report.entries}
    yield ("directed 3-cycle: period 3", cls.period == 3, f"got {cls.period}")
    yield (
        "directed 3-cycle: reversal-product bound not applicable",
        not by_id["T23"].applicable,
        by_id["T23"].reason or "",
    )
    yield (
        "directed 3-cycle: continuized bound applicable and holding",
        by_id["T22"].applicable and bool(by_id["T22"].holds),
        "",
    )
    yield ("directed 3-cycle: report verdict pass", report.verdict == "pass", report.verdict)


def _check_spreading():
    flow = two_state_uniform_flow(0.25)
    _, B, kappa = state_congestion(flow)
    spread = spread_flow(flow)
    _, a = edge_congestion(spread)
    ok = validate_flow(spread)[0] and a <= 8.0 * kappa * B + 1e-9
    yield (
        f"two-hop spreading: congestion {a:.1f} <= 8*kappa*B = {8 * kappa * B:.1f}",
        ok,
        f"a={a}, kappa={kappa}, B={B}",
    )


def _check_report_roundup():
    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    flow = build_canonical_flow(base, target, odd=True)
    report = full_report(base, target, flow, x="a", eps=0.25)
    yield ("two-state vs uniform walk: full report verdict pass", report.verdict == "pass", report.verdict)


def collect_results() -> list[dict]:
    """All checks as dictionaries (name, passed, detail)."""
    return [
        {"name": name, "passed": bool(ok), "detail": detail if not ok else ""}
        for name, ok, detail in _checks()
    ]
