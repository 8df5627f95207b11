"""Catalogue of mixing-time, spectral-gap and conductance bounds, with verdicts.

Every bound in the catalogue is evaluated next to the exactly computed
quantity it constrains, and the report records whether it holds.  The exact
side always comes from the mixing module (bisection over the matrix powers
for every discrete time, and on the continuized chain bisection and then
regula falsi steps), never from spectral formulas, so the two sides of each
inequality stay independent.

The catalogue is one table, ``CATALOG``, in report order: each entry
identifier (a stable token of the JSON report; suffixes c/d mark the
continuous- and discrete-time variants of one bound) maps to its family,
direction and quantity.  A family is the set of rows one gate turns on or
off together.  Non-applicability is data, not an error: a report on a
periodic chain, or with a flow of the wrong kind, carries the gating reason
for the affected entries.  Each public call derives every chain quantity but
the classification, which the chain keeps, once in one memo (``_Derived``).
A flow keeps its one walk (its validation and loads), so its congestion is a
cheap read and needs no memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .chains import Chain, _check_pair, _require, classify, lazy, multiply, reversibilize, time_reversal
from .errors import BadDelta, BadParams, MixboundsError, WrongFlowBase, _real
from .flows import Flow, _worst_edge, validate_flow
from .mixing import _Ladder, _Powers, _Walk, _check_eps
from .spectral import MAX_CONDUCTANCE_STATES, _eigenvalues, _gaps, conductance

#: bound-vs-exact comparisons allow this much slack
HOLD_TOL = 1e-9
#: the constant (1/2 - 1/2e) appearing in the conductance bounds
GAP_CONST = 0.5 - 0.5 / math.e
#: default comparison delta; at this value the log factor equals one
DELTA_DEFAULT = 0.5 / math.e
#: deltas evaluated when a sweep is requested
DELTA_SWEEP = (DELTA_DEFAULT, 0.1, 0.05, 0.01)

#: The catalogue in report order: theorem id -> (family, direction, quantity).
#: A family is the set of rows that one gate turns on or off together; the
#: quantity names the exact side each bound is checked against.
CATALOG = {
    "T5": ("spectral", "lower", "worst-start discrete mixing time"),
    "C6": ("spectral", "lower", "worst-start discrete mixing time at 1/(2e)"),
    "T7": ("spectral", "upper", "discrete mixing time from x"),
    "T8": ("comparison_reversible", "upper", "discrete mixing time from x"),
    "I5": ("comparison_reversible", "upper", "discrete mixing time from x"),
    "T10": ("comparison_reversible", "upper", "discrete mixing time from x"),
    "O13": ("comparison_reversible", "upper", "discrete mixing time from x"),
    "O14": ("comparison_reversible", "upper", "discrete mixing time from x of the lazy chain"),
    "O16": ("cut", "upper", "spectral gap"),
    "T17": ("cut", "lower", "conductance"),
    "T18": ("cut", "lower", "conductance"),
    "T19": ("cut", "lower", "spectral gap"),
    "C20d": ("gap", "lower", "spectral gap"),
    "C20c": ("gap", "lower", "spectral gap"),
    "T22": ("nonreversible", "upper", "continuous mixing time from x"),
    "T23": ("nonreversible", "upper", "discrete mixing time from x"),
    "T24c": ("comparison_general", "upper", "continuous mixing time from x"),
    "T24d": ("comparison_general", "upper", "continuous mixing time from x"),
    "T25": ("comparison_general", "upper", "discrete mixing time from x"),
    "T26": ("comparison_general", "upper", "continuous mixing time from x"),
}


@dataclass(frozen=True)
class BoundEntry:
    theorem: str
    direction: str
    quantity: str
    bound: float | None
    exact: float | None
    holds: bool | None
    applicable: bool
    reason: str | None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}  # every field is a scalar


def _entry(tid: str, bound: float, exact: float) -> BoundEntry:
    if not (math.isfinite(bound) and math.isfinite(exact)):
        raise AssertionError(f"entry {tid}: non-finite bound or exact value")
    _, direction, quantity = CATALOG[tid]
    if direction == "lower":
        holds = bound <= exact + HOLD_TOL
    else:
        holds = bound >= exact - HOLD_TOL
    return BoundEntry(tid, direction, quantity, float(bound), float(exact), holds, True, None)


def _skip(tid: str, reason: str) -> BoundEntry:
    _, direction, quantity = CATALOG[tid]
    return BoundEntry(tid, direction, quantity, None, None, None, False, reason)


def _skip_families(reason: str, *families: str) -> list[BoundEntry]:
    """Every row of the named families, skipped for ``reason``, in table order."""
    return [_skip(tid, reason) for tid, (family, _, _) in CATALOG.items() if family in families]


def _check_delta(delta: float) -> float:
    delta = _real(delta, "delta", BadDelta)
    if not 0.0 < delta < 0.5:
        raise BadDelta(f"delta must lie in (0, 1/2), got {delta}")
    return delta


def _mix_factor(tau_prime: float, delta: float) -> float:
    """tau'(delta) / ln(1/(2 delta)) + 1, the slowdown factor of the comparison."""
    return tau_prime / math.log(1.0 / (2.0 * delta)) + 1.0


def _log_term(eps: float, pi_x: float) -> float:
    return math.log(1.0 / (eps * pi_x))


def _log_term_sq(eps: float, pi_x: float) -> float:
    return math.log(1.0 / (eps * eps * pi_x))


class _Derived:
    """What one public call derives from each chain it touches, computed once.

    Entries are keyed by the chain object (a Chain is equal only to itself).
    A memo is created by a public bound function (or ``full_report``) and
    dropped when that call returns.  It is made where the call's ``eps`` is
    checked, and keeps it.  It answers mixing-time queries in any order.
    The spectral rows read eigenvalues only, so it solves each chain once
    for its eigenvalues and beta_max (``spectrum``, by ``eigvalsh``), and
    never for eigenvectors.
    For the mixing times, from x or the worst start, it holds each chain's
    two ``mixing`` walks, one per clock: ``_Powers`` over the powers
    P^(2^e) for the discrete times and ``_Ladder`` over the exponentials
    E(s) for the continuized ones, which it narrows below width 1 by
    regula falsi steps, from x with one-row probes.  Each keeps every
    start's distance and rows' drift at each full probe (O(n) each, no
    matrix) and every answer, with its bracket, so the report's from-x
    times, its several eps and the delta sweep share their probes; the
    ladder also keeps E(1) and the seven powers P^2 .. P^8 its worst-start
    series rungs below 1 are made from.  The walk queried last also keeps
    its squares M(2^e) for its next query; a query on any other walk (the
    other clock, or another chain) clears them, so at most one walk's
    squares are held, not a second ladder.  A report reads only each
    answer's time.  The reversal product R(P) P is built only for a
    nonreversible chain and for a flow not routed over the base: a
    reversible chain's is P^2, read from its own eigenvalues.  It holds
    nothing for a flow, which keeps its own walk.
    """

    def __init__(self, eps: float | None = None):
        self.eps = eps
        self._objects: dict[Chain, dict] = {}
        self._held: _Walk | None = None  # the one walk that keeps its rungs

    def _get(self, chain: Chain, key, compute):
        memo = self._objects.setdefault(chain, {})
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def spectrum(self, chain: Chain) -> tuple[np.ndarray, float]:
        """The eigenvalues, descending, and beta_max, with no eigenvectors."""
        return self._get(chain, "spectrum", lambda: _eigenvalues(chain))

    def lambdas(self, chain: Chain) -> tuple[float, float]:
        return self._get(chain, "lambdas", lambda: _gaps(
            self.spectrum(chain if classify(chain).reversible else reversibilize(chain))[0]))

    def product(self, chain: Chain) -> Chain:
        """The reversal product R(P) P."""
        return self._get(chain, "product", lambda: multiply(time_reversal(chain), chain))

    def _walk(self, chain: Chain, clock: str, make) -> _Walk:
        """The chain's walk on a clock; a query on it clears the rungs of the
        walk queried last, if that is another one."""
        walk = self._get(chain, clock, lambda: make(chain))
        if walk is not self._held:
            if self._held is not None:
                self._held.rungs.clear()
            self._held = walk
        return walk

    def discrete(self, chain: Chain, x, eps: float) -> int:
        """The discrete mixing time at eps from state index x, or from the
        worst start if x is None, from the chain's one walk over the powers."""
        return self._walk(chain, "powers", _Powers).time(x, eps).time

    def continuous(self, chain: Chain, x, eps: float) -> float:
        return self._walk(chain, "ladder", _Ladder).time(x, eps).time


def _same_chain(a: Chain, b: Chain) -> bool:
    return (
        a.n == b.n
        and float(np.abs(a.P - b.P).max()) <= 1e-12
        and float(np.abs(a.pi - b.pi).max()) <= 1e-12
    )


def spectral_bounds_reversible(chain: Chain, x, eps: float) -> list[BoundEntry]:
    """Eigenvalue bounds for a reversible ergodic chain.

    Lower bounds the worst-start mixing time by ``bm/(1-bm) ln(1/(2 eps))``
    (T5; at eps = 1/(2e) the log factor is one, C6) and upper bounds the
    mixing time from x by ``ln(1/(eps pi(x))) / (1 - bm)`` (T7), where bm is
    the largest nontrivial eigenvalue modulus.  When bm is 1.0 in floats,
    1 - bm is 0.0 and all three rows are not applicable.
    """
    return _spectral_bounds_reversible(_Derived(_check_eps(eps)), chain, x)


def _spectral_bounds_reversible(d: _Derived, chain: Chain, x) -> list[BoundEntry]:
    eps = d.eps
    _require(chain, "reversible", "spectral mixing bounds")
    _require(chain, "ergodic", "spectral mixing bounds")
    x = chain.index(x)
    _, bm = d.spectrum(chain)
    if bm == 1.0:
        return _skip_families("1 - beta_max is 0.0 in floats (the bounds divide by it)", "spectral")
    entries = []
    if eps < 0.5:
        exact_worst = d.discrete(chain, None, eps)
        entries.append(_entry("T5", bm / (1.0 - bm) * math.log(1.0 / (2.0 * eps)), exact_worst))
    else:
        entries.append(_skip("T5", "eps >= 1/2 makes the lower bound vacuous"))
    entries.append(_entry("C6", bm / (1.0 - bm), d.discrete(chain, None, DELTA_DEFAULT)))
    exact_x = d.discrete(chain, x, eps)
    entries.append(_entry("T7", _log_term(eps, chain.pi[x]) / (1.0 - bm), exact_x))
    return entries


def comparison_reversible(
    base: Chain,
    target: Chain,
    flow: Flow,
    x,
    eps: float,
    delta: float = DELTA_DEFAULT,
    sweep: bool = False,
) -> list[BoundEntry]:
    """Comparison bounds between two reversible ergodic chains sharing pi.

    The flow's congestion transfers the target's mixing time to the base
    chain.  The odd-flow bound (T8) and its default-delta form (I5) gate on
    the flow being odd; the even-spectrum variant (T10) applies to any flow
    when the base's largest eigenvalue modulus is the second eigenvalue;
    O13 trades oddness for a positive floor on self-loops, and O14 bounds the
    lazy chain instead.  With ``sweep`` the delta-dependent bounds report
    their minimum over ``DELTA_SWEEP``.
    """
    return _comparison_reversible(_Derived(_check_eps(eps)), base, target, flow, x, delta, sweep)


def _comparison_reversible(d: _Derived, base: Chain, target: Chain, flow: Flow, x, delta: float,
                           sweep: bool) -> list[BoundEntry]:
    eps = d.eps
    delta = _check_delta(delta)
    for c, who in ((base, "base"), (target, "target")):
        _require(c, "reversible", f"reversible comparison bounds ({who})")
        _require(c, "ergodic", f"reversible comparison bounds ({who})")
    if not _same_chain(flow.base, base) or not _same_chain(flow.target, target):
        raise WrongFlowBase("flow does not connect the given base and target chains")
    A = _worst_edge(flow)
    x = base.index(x)
    log_term = _log_term(eps, base.pi[x])
    deltas = sorted(set(DELTA_SWEEP) | {delta}) if sweep else [delta]
    best_factor = min(_mix_factor(d.discrete(target, None, dl), dl) for dl in deltas)
    tau_prime_e = d.discrete(target, None, DELTA_DEFAULT)
    exact_x = d.discrete(base, x, eps)

    entries = []
    if validate_flow(flow)[1]:
        entries.append(_entry("T8", A * best_factor * log_term, exact_x))
        entries.append(_entry("I5", A * (tau_prime_e + 1.0) * log_term, exact_x))
    else:
        entries.append(_skip("T8", "flow is not odd"))
        entries.append(_skip("I5", "flow is not odd"))

    betas, _ = d.spectrum(base)
    if betas[1] >= abs(betas[-1]) - 1e-12:
        entries.append(_entry("T10", A * best_factor * log_term, exact_x))
    else:
        entries.append(_skip("T10", "largest eigenvalue modulus is the negative end"))

    c = classify(base).min_self_loop
    if c > 0.0:
        bound = max(A * best_factor, 1.0 / (2.0 * c)) * log_term
        entries.append(_entry("O13", bound, exact_x))
    else:
        entries.append(_skip("O13", "some state has no self-loop"))

    lazy_exact = d.discrete(lazy(base), x, eps)
    entries.append(_entry("O14", 2.0 * A * (tau_prime_e + 1.0) * log_term, lazy_exact))
    return entries


def conductance_bounds(
    chain: Chain,
    discrete_tau: float | None,
    continuous_tau: float | None,
) -> list[BoundEntry]:
    """Cut bounds: conductance vs mixing time, and the gap sandwich.

    ``discrete_tau`` / ``continuous_tau`` are worst-start mixing times at
    eps = 1/(2e) (pass None when undefined, e.g. a periodic chain has no
    discrete one).  Emits the two mixing-time lower bounds on the conductance
    (T17 discrete, T18 continuous), the quadratic lower bound on the spectral
    gap (T19) with its trivial upper companion (O16), and the two mixing-time
    lower bounds on the gap that do not need the conductance at all
    (C20d, C20c).  Each tau must be None or a finite number > 0.
    """
    return _conductance_bounds(_Derived(), chain, _check_tau(discrete_tau, "discrete_tau"),
                               _check_tau(continuous_tau, "continuous_tau"))


def _check_tau(tau, name: str) -> float | None:
    if tau is None:
        return None
    tau = _real(tau, f"{name} (or None)", BadParams)
    if not (math.isfinite(tau) and tau > 0.0):
        raise BadParams(f"{name} must be finite and > 0, got {tau!r}")
    return tau


def _conductance_bounds(d: _Derived, chain: Chain, discrete_tau, continuous_tau) -> list[BoundEntry]:
    _require(chain, "irreducible", "conductance bounds")
    lam1, _ = d.lambdas(chain)
    entries = []
    if chain.n <= MAX_CONDUCTANCE_STATES:
        phi, _, _ = conductance(chain)
        entries.append(_entry("O16", phi, lam1))
        if discrete_tau is not None:
            entries.append(_entry("T17", GAP_CONST / discrete_tau, phi))
        else:
            entries.append(_skip("T17", "chain is periodic: no discrete mixing time"))
        if continuous_tau is not None:
            entries.append(_entry("T18", GAP_CONST / continuous_tau, phi))
        else:
            entries.append(_skip("T18", "no continuous mixing time supplied"))
        entries.append(_entry("T19", phi * phi / 8.0, lam1))
    else:
        reason = f"more than {MAX_CONDUCTANCE_STATES} states: exact conductance skipped"
        entries += _skip_families(reason, "cut")
    if discrete_tau is not None:
        entries.append(_entry("C20d", GAP_CONST**2 / (8.0 * discrete_tau**2), lam1))
    else:
        entries.append(_skip("C20d", "chain is periodic: no discrete mixing time"))
    if continuous_tau is not None:
        entries.append(_entry("C20c", GAP_CONST**2 / (8.0 * continuous_tau**2), lam1))
    else:
        entries.append(_skip("C20c", "no continuous mixing time supplied"))
    return entries


def nonreversible_bounds(chain: Chain, x, eps: float) -> list[BoundEntry]:
    """Upper bounds that survive without reversibility.

    T22 bounds the continuized mixing time from x by
    ``ln(1/(eps^2 pi(x))) / (2 lambda_1)``.  T23 bounds the discrete one by
    ``ln(1/(eps^2 pi(x))) / lambda_1(R(M) M)`` using the reversal product;
    when that product is reducible its gap is zero and no discrete bound of
    this kind exists, which the entry reports instead of failing; so it does
    when the product's lambda_1 is 0.0 in floats.
    """
    return _nonreversible_bounds(_Derived(_check_eps(eps)), chain, x)


def _nonreversible_bounds(d: _Derived, chain: Chain, x) -> list[BoundEntry]:
    eps = d.eps
    cls = _require(chain, "irreducible", "nonreversible bounds")
    x = chain.index(x)
    lam1, _ = d.lambdas(chain)
    log2 = _log_term_sq(eps, chain.pi[x])
    entries = [_entry("T22", log2 / (2.0 * lam1), d.continuous(chain, x, eps))]
    # R(P) P never links two cyclic classes, so a periodic chain's product is
    # reducible: T23 is skipped here, and T25 never sees a periodic base, as
    # no valid flow routes over a reducible product (its congestion raises).
    # A reversible P has R(P) P = P^2, of period 1 or 2 as every edge has its
    # reverse, so irreducible exactly when P is aperiodic, with lambda_1 =
    # 1 - beta_max^2
    if cls.reversible:
        _, beta_max = d.spectrum(chain)
        irreducible, lam_prod = cls.aperiodic, (1.0 - beta_max) * (1.0 + beta_max)
    else:
        product = d.product(chain)
        irreducible = classify(product).irreducible
        lam_prod = d.lambdas(product)[0] if irreducible else None
    if not irreducible:
        entries.append(_skip("T23", "reversal-product chain is reducible (gap 0)"))
    elif lam_prod == 0.0:
        entries.append(_skip("T23", "reversal-product lambda_1 is 0.0 in floats (the bound divides by it)"))
    else:
        entries.append(_entry("T23", log2 / lam_prod, d.discrete(chain, x, eps)))
    return entries


def comparison_general(base: Chain, target: Chain, flow: Flow, x, eps: float) -> list[BoundEntry]:
    """Comparison bounds with no reversibility assumption on the base chain.

    A flow routed over the base chain yields bounds on the continuized
    mixing time from the target's continuous (T24c) or discrete (T24d)
    mixing time, sharpened to T26 when the target is reversible.  A flow
    routed over the base's reversal product instead bounds the discrete
    mixing time (T25).  The flow's base decides which family applies.
    """
    return _comparison_general(_Derived(_check_eps(eps)), base, target, flow, x)


def _comparison_general(d: _Derived, base: Chain, target: Chain, flow: Flow, x) -> list[BoundEntry]:
    eps = d.eps
    for c, who in ((base, "base"), (target, "target")):
        _require(c, "irreducible", f"general comparison bounds ({who})")
    _check_pair(base, target)
    x = base.index(x)

    if _same_chain(flow.base, base):
        kind = "direct"
    elif _same_chain(flow.base, d.product(base)):
        kind = "product"
    else:
        raise WrongFlowBase("flow is routed over neither the base chain nor its reversal product")
    if not _same_chain(flow.target, target):
        raise WrongFlowBase("flow target does not match the given target chain")
    A = _worst_edge(flow)

    cls_t = classify(target)
    log2 = _log_term_sq(eps, base.pi[x])
    tau_t_cont = d.continuous(target, None, DELTA_DEFAULT)
    tau_t_disc = d.discrete(target, None, DELTA_DEFAULT) if cls_t.ergodic else None

    entries = []
    if kind == "direct":
        exact_cont = d.continuous(base, x, eps)
        entries.append(_entry("T24c", 4.0 * A * tau_t_cont**2 / GAP_CONST**2 * log2, exact_cont))
        if tau_t_disc is not None:
            entries.append(_entry("T24d", 4.0 * A * tau_t_disc**2 / GAP_CONST**2 * log2, exact_cont))
        else:
            entries.append(_skip("T24d", "target is periodic: no discrete mixing time"))
        entries.append(_skip("T25", "flow is routed over the base chain, not its reversal product"))
        if not cls_t.reversible:
            entries.append(_skip("T26", "target chain is not reversible"))
        elif tau_t_disc is None:
            entries.append(_skip("T26", "target is periodic: no discrete mixing time"))
        else:
            entries.append(_entry("T26", 0.5 * A * (tau_t_disc + 1.0) * log2, exact_cont))
    else:
        reason = "flow is routed over the reversal product"
        entries.append(_skip("T24c", reason))
        entries.append(_skip("T24d", reason))
        if tau_t_disc is None:
            entries.append(_skip("T25", "target is periodic: no discrete mixing time"))
        else:
            exact_disc = d.discrete(base, x, eps)
            entries.append(_entry("T25", 8.0 * A * tau_t_disc**2 / GAP_CONST**2 * log2, exact_disc))
        entries.append(_skip("T26", reason))
    return entries


@dataclass
class BoundReport:
    """Everything known about one chain (and optionally one comparison pair)."""

    base_name: str
    target_name: str | None
    from_label: str
    from_index: int
    epsilon: float
    delta: float
    exact_discrete: int | None
    exact_continuous: float
    entries: list[BoundEntry] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        ok = all(e.holds for e in self.entries if e.applicable)
        return "pass" if ok else "fail"

    def to_dict(self) -> dict:
        return {
            "chain": self.base_name,
            "target": self.target_name,
            "from": self.from_label,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "exact": {
                "discrete_tau_x": self.exact_discrete,
                "continuous_tau_x": self.exact_continuous,
            },
            "entries": [e.to_dict() for e in self.entries],
            "verdict": self.verdict,
        }


def full_report(
    base: Chain,
    target: Chain | None = None,
    flow: Flow | None = None,
    *,
    x=0,
    eps: float = 0.25,
    delta: float = DELTA_DEFAULT,
    sweep: bool = False,
) -> BoundReport:
    """Evaluate every applicable bound of the catalogue against exact values.

    The base chain must be irreducible (a reducible chain has no meaningful
    report and raises).  A periodic chain still gets its continuized
    quantities; every entry that needs a discrete mixing time is then marked
    non-applicable.  Comparison entries need both a target chain and a flow;
    a flow routed over the base's reversal product activates the discrete
    product bound instead of the direct family.

    Everything derived from a chain (eigenvalues, the reversal product,
    and the exponentials and the powers with every probe's distances, which
    give every mixing time) is computed once per report and shared by the
    bound families.
    """
    eps = _check_eps(eps)
    delta = _check_delta(delta)
    if (target is None) != (flow is None):
        raise MixboundsError("supply target and flow together, or neither")
    d = _Derived(eps)
    cls = _require(base, "irreducible", "full report")
    x_idx = base.index(x)

    # every discrete time of the base before its first continuized one, each
    # clock's queries in the order the rows ask them: a walk keeps its rungs
    # only until the other is queried (``_Derived``)
    tau_worst_disc = d.discrete(base, None, DELTA_DEFAULT) if cls.ergodic else None
    entries: list[BoundEntry] = []
    if cls.reversible and cls.ergodic:
        entries += _spectral_bounds_reversible(d, base, x_idx)
    else:
        reason = "chain is periodic" if cls.reversible else "chain is not reversible"
        entries += _skip_families(reason, "spectral")
    exact_disc = d.discrete(base, x_idx, eps) if cls.ergodic else None
    # the reversible comparison asks discrete times only, so it comes before
    # the ladder too: a target that is the base object then walks the powers
    # while they still hold their squares
    if target is None:
        entries += _skip_families("no target chain and flow supplied",
                                  "comparison_reversible", "comparison_general")
    else:
        cls_t = classify(target)
        both_rev_erg = cls.reversible and cls.ergodic and cls_t.reversible and cls_t.ergodic
        direct = _same_chain(flow.base, base)
        if direct and both_rev_erg:
            entries += _comparison_reversible(d, base, target, flow, x_idx, delta, sweep)
        else:
            reason = ("comparison pair is not reversible ergodic" if direct
                      else "flow is routed over the reversal product")
            entries += _skip_families(reason, "comparison_reversible")
    exact_cont = d.continuous(base, x_idx, eps)
    tau_worst_cont = d.continuous(base, None, DELTA_DEFAULT)

    entries += _conductance_bounds(d, base, tau_worst_disc, tau_worst_cont)
    entries += _nonreversible_bounds(d, base, x_idx)
    if target is not None:
        entries += _comparison_general(d, base, target, flow, x_idx)

    order = {tid: i for i, tid in enumerate(CATALOG)}
    entries.sort(key=lambda e: order[e.theorem])
    return BoundReport(
        base_name=base.name,
        target_name=None if target is None else target.name,
        from_label=base.labels[x_idx],
        from_index=x_idx,
        epsilon=eps,
        delta=delta,
        exact_discrete=None if exact_disc is None else int(exact_disc),
        exact_continuous=float(exact_cont),
        entries=entries,
    )
