"""Catalogue of mixing-time, spectral-gap and conductance bounds, with verdicts.

Every bound in the catalogue is evaluated next to the exactly computed
quantity it constrains, and the report records whether it holds.  The exact
side always comes from the mixing module's walks, never from spectral
formulas, so the two sides of each inequality stay independent.

The catalogue is one table, ``CATALOG``, in report order: each row holds
its family, direction and quantity, the scalar its bound is checked
against, its bound as a function of named scalars (``_SCALARS``) and its
own gate.  Identifiers are stable tokens of the JSON report; suffixes c/d
mark the continuous- and discrete-time variants of one bound.  A family is
the set of rows one gate turns on or off together: a call decides its
families' gates once, then walks the table once (``_entries``).
Non-applicability is data, not an error: a report on a periodic chain, or
with a flow of the wrong kind, carries the gating reason for the affected
entries.  Each public call builds one object (``_Derived``) that holds its
chains, start, flow, eps, delta and sweep, every scalar its rows read, and
a memo of what it derives for that call alone.  A chain's constants (its
classification, spectrum, reversal-product gap and worst-start times at
1/(2e)) are kept on the chain (``chains._kept``), so each is derived once
per chain object, not once per call.  Every spectral scalar comes from one
eigensolve per chain, of ``spectral._symmetrised``.  A target that is
lazy(base) shares the base's walks: its discrete times come from its own
walk over the powers, shared with O14's lazy(base), and its continuized
times are twice the base's, read off the base's ladder.  A flow keeps its
one walk (its validation and loads), so its congestion is a cheap read and
needs no memo.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .chains import Chain, _kept, _require, _reversal_product, classify, lazy
from .errors import BadDelta, BadParams, MixboundsError, NoConvergence, WrongFlowBase, _real
from .flows import Flow, _worst_edge, validate_flow
from .mixing import MAX_CONTINUOUS_TIME, _Ladder, _Powers, _check_eps
from .spectral import MAX_CONDUCTANCE_STATES, _gaps, _spectrum, conductance

#: bound-vs-exact comparisons allow this much slack
HOLD_TOL = 1e-9
#: the constant (1/2 - 1/2e) appearing in the conductance bounds
GAP_CONST = 0.5 - 0.5 / math.e
#: default comparison delta; at this value the log factor equals one
DELTA_DEFAULT = 0.5 / math.e
#: deltas evaluated when a sweep is requested
DELTA_SWEEP = (DELTA_DEFAULT, 0.1, 0.05, 0.01)
#: no chain has a worst-start mixing time at 1/(2e) this small, so
#: ``conductance_bounds`` refuses a supplied tau at or below it.  A discrete
#: time is at least one step.  On the continuized clock E(t)(x, x) >= e^-t,
#: so from a start x with pi(x) <= 1/2 (a chain has at least two states)
#: the distance is at least E(t)(x, x) - pi(x) >= e^-t - 1/2, which stays
#: above 1/(2e) until t = ln(2e / (e + 1)), about 0.379885
TAU_LEAST = math.log(2.0 * math.e / (math.e + 1.0))


class Row(NamedTuple):
    """One row of the catalogue: its family, direction and quantity, the
    scalar it is checked against (``exact``), its bound, a function of the
    scalars its parameters name, and its gate: the reason it does not apply
    to a call, or None."""

    family: str
    direction: str
    quantity: str
    exact: str
    bound: Callable[..., float]
    gate: Callable[[_Derived], str | None] = lambda s: None

    @property
    def scalars(self) -> tuple[str, ...]:
        code = self.bound.__code__
        return code.co_varnames[: code.co_argcount]


def _beta_max_is_one(s: _Derived) -> str | None:
    return "1 - beta_max is 0.0 in floats (the bounds divide by it)" if s["beta_max"] == 1.0 else None


def _not_odd(s: _Derived) -> str | None:
    return None if s["odd"] else "flow is not odd"


def _too_large(s: _Derived) -> str | None:
    n = MAX_CONDUCTANCE_STATES
    return f"more than {n} states: exact conductance skipped" if s.base.n > n else None


def _lacks(s: _Derived, tau: str) -> str | None:
    """A row that reads the worst-start time ``tau`` (tau_d or tau_c) does
    not apply to a call that has none: a periodic base has no discrete one,
    and otherwise the caller supplied none."""
    if tau in s.values and s.values[tau] is None:
        if tau == "tau_d" and not classify(s.base).aperiodic:
            return "chain is periodic: no discrete mixing time"
        return f"no {'discrete' if tau == 'tau_d' else 'continuous'} mixing time supplied"
    return None


def _reducible_product(s: _Derived) -> str | None:
    gap = s["lambda_prod"]
    if gap is None:
        return "reversal-product chain is reducible (gap 0)"
    return "reversal-product lambda_1 is 0.0 in floats (the bound divides by it)" if gap == 0.0 else None


def _on_product(s: _Derived) -> str | None:
    return None if s.direct else "flow is routed over the reversal product"


def _periodic_target(s: _Derived) -> str | None:
    return None if classify(s.target).ergodic else "target is periodic: no discrete mixing time"


#: The catalogue in report order: theorem id -> Row.  The bounds read named
#: scalars (``_SCALARS``): A the flow's worst edge congestion, factor the
#: best slowdown factor tau'(delta) / ln(1/(2 delta)) + 1 over the deltas,
#: tau_prime and tau_prime_c the target's worst-start times at 1/(2e) on
#: either clock, tau_d and tau_c the base's, log_x = ln(1/(eps pi(x))),
#: log_x2 = ln(1/(eps^2 pi(x))) and c the smallest self-loop.
CATALOG = {
    "T5": Row("spectral", "lower", "worst-start discrete mixing time", "worst_d",
              lambda beta_max, eps: beta_max / (1.0 - beta_max) * math.log(1.0 / (2.0 * eps)),
              lambda s: _beta_max_is_one(s)
              or ("eps >= 1/2 makes the lower bound vacuous" if s.eps >= 0.5 else None)),
    "C6": Row("spectral", "lower", "worst-start discrete mixing time at 1/(2e)", "tau_d",
              lambda beta_max: beta_max / (1.0 - beta_max), _beta_max_is_one),
    "T7": Row("spectral", "upper", "discrete mixing time from x", "x_d",
              lambda beta_max, log_x: log_x / (1.0 - beta_max), _beta_max_is_one),
    "T8": Row("comparison_reversible", "upper", "discrete mixing time from x", "x_d",
              lambda A, factor, log_x: A * factor * log_x, _not_odd),
    "I5": Row("comparison_reversible", "upper", "discrete mixing time from x", "x_d",
              lambda A, tau_prime, log_x: A * (tau_prime + 1.0) * log_x, _not_odd),
    "T10": Row("comparison_reversible", "upper", "discrete mixing time from x", "x_d",
               lambda A, factor, log_x: A * factor * log_x,
               lambda s: None if s["betas"][1] >= abs(s["betas"][-1]) - 1e-12
               else "largest eigenvalue modulus is the negative end"),
    "O13": Row("comparison_reversible", "upper", "discrete mixing time from x", "x_d",
               lambda A, factor, c, log_x: max(A * factor, 1.0 / (2.0 * c)) * log_x,
               lambda s: None if s["c"] > 0.0 else "some state has no self-loop"),
    "O14": Row("comparison_reversible", "upper", "discrete mixing time from x of the lazy chain", "lazy_x_d",
               lambda A, tau_prime, log_x: 2.0 * A * (tau_prime + 1.0) * log_x),
    "O16": Row("cut", "upper", "spectral gap", "lambda_1", lambda phi: phi, _too_large),
    "T17": Row("cut", "lower", "conductance", "phi", lambda tau_d: GAP_CONST / tau_d,
               lambda s: _too_large(s) or _lacks(s, "tau_d")),
    "T18": Row("cut", "lower", "conductance", "phi", lambda tau_c: GAP_CONST / tau_c,
               lambda s: _too_large(s) or _lacks(s, "tau_c")),
    "T19": Row("cut", "lower", "spectral gap", "lambda_1", lambda phi: phi * phi / 8.0, _too_large),
    "C20d": Row("gap", "lower", "spectral gap", "lambda_1", lambda tau_d: GAP_CONST**2 / (8.0 * tau_d * tau_d),
                lambda s: _lacks(s, "tau_d")),
    "C20c": Row("gap", "lower", "spectral gap", "lambda_1", lambda tau_c: GAP_CONST**2 / (8.0 * tau_c * tau_c),
                lambda s: _lacks(s, "tau_c")),
    "T22": Row("nonreversible", "upper", "continuous mixing time from x", "x_c",
               lambda lambda_1, log_x2: log_x2 / (2.0 * lambda_1)),
    "T23": Row("nonreversible", "upper", "discrete mixing time from x", "x_d",
               lambda lambda_prod, log_x2: log_x2 / lambda_prod, _reducible_product),
    "T24c": Row("comparison_general", "upper", "continuous mixing time from x", "x_c",
                lambda A, tau_prime_c, log_x2: 4.0 * A * tau_prime_c**2 / GAP_CONST**2 * log_x2, _on_product),
    "T24d": Row("comparison_general", "upper", "continuous mixing time from x", "x_c",
                lambda A, tau_prime, log_x2: 4.0 * A * tau_prime**2 / GAP_CONST**2 * log_x2,
                lambda s: _on_product(s) or _periodic_target(s)),
    "T25": Row("comparison_general", "upper", "discrete mixing time from x", "x_d",
               lambda A, tau_prime, log_x2: 8.0 * A * tau_prime**2 / GAP_CONST**2 * log_x2,
               lambda s: ("flow is routed over the base chain, not its reversal product" if s.direct else None)
               or _periodic_target(s)),
    "T26": Row("comparison_general", "upper", "continuous mixing time from x", "x_c",
               lambda A, tau_prime, log_x2: 0.5 * A * (tau_prime + 1.0) * log_x2,
               lambda s: _on_product(s) or (None if classify(s.target).reversible else "target chain is not reversible")
               or _periodic_target(s)),
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


def _entry(tid: str, s: _Derived) -> BoundEntry:
    row = CATALOG[tid]
    bound, exact = row.bound(*(s[name] for name in row.scalars)), s[row.exact]
    if not (math.isfinite(bound) and math.isfinite(exact)):
        raise AssertionError(f"entry {tid}: non-finite bound or exact value")
    holds = bound <= exact + HOLD_TOL if row.direction == "lower" else bound >= exact - HOLD_TOL
    return BoundEntry(tid, row.direction, row.quantity, float(bound), float(exact), holds, True, None)


def _skip(tid: str, reason: str) -> BoundEntry:
    row = CATALOG[tid]
    return BoundEntry(tid, row.direction, row.quantity, None, None, None, False, reason)


def _mix_factor(tau_prime: float, delta: float) -> float:
    """tau'(delta) / ln(1/(2 delta)) + 1, the slowdown factor of the comparison."""
    return tau_prime / math.log(1.0 / (2.0 * delta)) + 1.0


@dataclass(eq=False)  # a call's object is equal only to itself
class _Derived:
    """One public call: its chains, start, flow, eps, delta and sweep, every
    scalar its rows read, and what it derives for this call alone.

    ``values`` is the call's one memo.  It starts with what the call
    supplies: A, the flow's checked congestion, the conductance bounds'
    taus, and None for a time it has none of; indexing resolves every other
    scalar once (``_SCALARS``), keyed by its name.  What is derived from a
    chain for this call is keyed by (chain, key), the chain object itself
    (a Chain is equal only to itself): every from-x time, the worst-start
    time at the call's own eps or delta, lazy(base) and the reversal
    product.  ``direct``: the flow is routed over the base, not its
    reversal product; ``_routed`` sets it when it checks the flow, and no
    call passes it.

    A public call makes the object once it has checked its ``eps`` and its
    chains, and drops it when it returns.  What the chain keeps
    (``chains._kept``) outlives it: the eigenvalues and beta_max
    (``spectral._spectrum``, never eigenvectors), from which lambda_1 is
    read, the reversal product's lambda_1, and the worst-start time at
    1/(2e) on either clock.  A
    mixing time in neither store is answered, in any order, from the one
    ``mixing`` walk the call holds, over a chain's powers or its ladder
    (``_Powers`` or ``_Ladder``), which keeps its squares M(2^e) and every
    full probe's distances, so the report's from-x times, its several eps
    and the delta sweep share their probes.  A query on another chain or
    clock replaces that walk, which frees all it held; an answer from
    either store replaces nothing.  The reversal product R(P) P is built
    only for a nonreversible chain that keeps no product gap yet and for a
    flow not routed over the base (a reversible chain's is P^2, read from
    its eigenvalues).  lazy(P) is built once, or is the target when that is
    the same chain (``_same_chain``), so the two share one walk over the
    powers; and its continuized times are twice the base's, so it makes no
    ladder but the base's (``continuous``).
    """

    eps: float | None = None
    base: Chain | None = None
    x: int | None = None
    target: Chain | None = None
    flow: Flow | None = None
    delta: float = DELTA_DEFAULT
    sweep: bool = False
    values: dict = field(default_factory=dict)
    direct: bool | None = field(default=None, init=False)  # set by ``_routed``
    _walk: tuple = field(default=(None, None, None), init=False, repr=False)  # (chain, clock, walk): the one held

    def __getitem__(self, name: str):
        return self._get(name, lambda: _SCALARS[name](self))

    def _get(self, key, compute):
        if key not in self.values:
            self.values[key] = compute()
        return self.values[key]

    def product(self, chain: Chain) -> Chain:
        """The reversal product R(P) P."""
        return self._get((chain, "product"), lambda: _reversal_product(chain))

    def lazy(self, chain: Chain) -> Chain:
        """lazy(chain), or the target when it is the same chain as lazy(chain)."""
        def make():
            made = lazy(chain)
            return self.target if self.target is not None and _same_chain(made, self.target) else made
        return self._get((chain, "lazy"), make)

    def _time(self, chain: Chain, clock: str, make, x, eps: float, cap: float | None = None):
        """The chain's time on a clock: kept on the chain for the worst start
        at 1/(2e), in the memo for any other query, or else from the call's
        one walk, which a query on another chain or clock first replaces.  A
        walk past ``cap`` (the clock's own if None) raises NoConvergence."""
        def compute():
            if self._walk[:2] != (chain, clock):
                self._walk = (chain, clock, make(chain))
            return self._walk[2].time(x, eps, cap).time
        if x is None and eps == DELTA_DEFAULT:
            return _kept(chain, (clock, eps), compute)
        return self._get((chain, clock, x, eps), compute)

    def discrete(self, chain: Chain, x, eps: float) -> int:
        """The discrete mixing time at eps from state index x, or from the
        worst start if x is None, from the chain's one walk over the powers."""
        return self._time(chain, "powers", _Powers, x, eps)

    def continuous(self, chain: Chain, x, eps: float) -> float:
        """The continuized mixing time at eps from state index x, or from the
        worst start if x is None, from the chain's one walk over its ladder.

        lazy(base) is read off the base's ladder: lazy(P) - I = (P - I) / 2,
        so lazy(P)'s continuized chain is P's run at half speed, and its time
        at the same start and eps lies in twice P's bracket (Levin, Peres &
        Wilmer, 2017, ch. 20).  The stored lazy matrix differs from (I + P) / 2 only on the
        diagonal, by the rounding of 1 + P(x, x), at most 2^-54 an entry,
        which moves a distance at time t by about t 2^-54 at most, far inside
        the walk's rounding bound (``mixing._Walk.error``).  The base's time
        is asked with half the clock's cap: past it, the lazy chain's own
        ladder answers, so a time past the cap raises its own NoConvergence.
        """
        if chain is not self.base and chain is self.lazy(self.base):
            cap = MAX_CONTINUOUS_TIME / 2
            with suppress(NoConvergence):
                if (half := self._time(self.base, "ladder", _Ladder, x, eps, cap)) <= cap:
                    return 2.0 * half
        return self._time(chain, "ladder", _Ladder, x, eps)


def _best_factor(s: _Derived) -> float:
    """The smallest slowdown factor over the call's delta, or the sweep's deltas and it."""
    deltas = sorted(set(DELTA_SWEEP) | {s.delta}) if s.sweep else [s.delta]
    return min(_mix_factor(s.discrete(s.target, None, dl), dl) for dl in deltas)


def _product_gap(s: _Derived) -> float | None:
    """lambda_1 of the reversal product R(P) P, or None if it is reducible.

    R(P) P never links two cyclic classes, so a periodic chain's product is
    reducible: T23 is skipped, and T25 never sees a periodic base, as no
    valid flow routes over a reducible product (its congestion raises).  A
    reversible P has R(P) P = P^2, of period 1 or 2 as every edge has its
    reverse, so irreducible exactly when P is aperiodic, with lambda_1 =
    1 - beta_max^2.  The base keeps the gap (``chains._kept``), not the
    product."""
    cls = classify(s.base)
    if cls.reversible:
        return (1.0 - s["beta_max"]) * (1.0 + s["beta_max"]) if cls.aperiodic else None
    product = s.product(s.base)
    return _gaps(_spectrum(product)[0])[0] if classify(product).irreducible else None


#: How a call resolves each scalar a row reads, in the order ``_entries``
#: resolves them.  The mixing times come first, each one request to
#: ``_Derived``: the base's discrete times, the target's and lazy(base)'s,
#: then the continuized ones.  A call holds one walk at a time, so each
#: walk's times are listed together: the base's powers before its ladder,
#: and the target's powers between the base's and lazy(base)'s, so a target
#: that is either chain shares its walk.  The target's continuized time
#: comes last, just after the base's: a target that is lazy(base) reads
#: twice the base's time off the base's ladder, which the call still holds.
_SCALARS: dict[str, Callable[[_Derived], object]] = {
    "tau_d": lambda s: s.discrete(s.base, None, DELTA_DEFAULT),
    "worst_d": lambda s: s.discrete(s.base, None, s.eps),
    "x_d": lambda s: s.discrete(s.base, s.x, s.eps),
    "factor": _best_factor,
    "tau_prime": lambda s: s.discrete(s.target, None, DELTA_DEFAULT),
    "lazy_x_d": lambda s: s.discrete(s.lazy(s.base), s.x, s.eps),
    "x_c": lambda s: s.continuous(s.base, s.x, s.eps),
    "tau_c": lambda s: s.continuous(s.base, None, DELTA_DEFAULT),
    "tau_prime_c": lambda s: s.continuous(s.target, None, DELTA_DEFAULT),
    "eps": lambda s: s.eps,
    "log_x": lambda s: math.log(1.0 / (s.eps * s.base.pi[s.x])),
    "log_x2": lambda s: math.log(1.0 / (s.eps * s.eps * s.base.pi[s.x])),
    "odd": lambda s: validate_flow(s.flow)[1],
    # betas and beta_max are read only on reversible chains, where they are the chain's own eigenvalues
    "betas": lambda s: _spectrum(s.base)[0],
    "beta_max": lambda s: _spectrum(s.base)[1],
    "c": lambda s: classify(s.base).min_self_loop,
    "lambda_1": lambda s: _gaps(_spectrum(s.base)[0])[0],
    "lambda_prod": lambda s: _kept(s.base, "product_gap", lambda: _product_gap(s)),
    "phi": lambda s: conductance(s.base)[0],
}


def _entries(s: _Derived, off: dict[str, str | None], report: tuple[str, ...] = ()) -> list[BoundEntry]:
    """The rows of the families in ``off``, in table order, each skipped for
    its family's reason in ``off`` or its own gate's, or evaluated.  The
    scalars the evaluated rows and ``report`` read are resolved first, in
    ``_SCALARS`` order, which keeps each walk's queries together: the call
    holds one walk at a time, so rows read in table order would replace a
    walk and build it again."""
    reasons = {tid: off[row.family] or row.gate(s) for tid, row in CATALOG.items() if row.family in off}
    reads = set(report).union(*((CATALOG[tid].exact, *CATALOG[tid].scalars)
                                for tid, reason in reasons.items() if reason is None))
    for name in _SCALARS:
        if name in reads:
            s[name]  # resolved now, in table order
    return [_skip(tid, reason) if reason else _entry(tid, s) for tid, reason in reasons.items()]


def _routed(s: _Derived, product: bool = True) -> float:
    """The call's flow's worst edge congestion A, once it is checked to be
    routed over the base, or over its reversal product if the call takes
    one (``product``), and to end at the target.  It sets ``s.direct``:
    the flow is routed over the base.  This is the one check of a flow
    against a call's chains, and no other code in this module reads a
    flow's chains; the flow's walk then checks that its two chains share
    a state space and pi, which are the base's and the target's."""
    s.direct = _same_chain(s.flow.base, s.base)
    if not s.direct and not (product and _same_chain(s.flow.base, s.product(s.base))):
        raise WrongFlowBase("flow is routed over neither the base chain nor its reversal product" if product
                            else "flow does not connect the given base and target chains")
    if not _same_chain(s.flow.target, s.target):
        raise WrongFlowBase("flow target does not match the given target chain")
    return _worst_edge(s.flow)


def _same_chain(a: Chain, b: Chain) -> bool:
    """One chain object, or two whose P and pi are equal bit for bit.  A flow
    the library builds or loads is on its chains, or on a reversal product
    rebuilt from them, so only a flow on some other chain differs."""
    return a is b or (np.array_equal(a.P, b.P) and np.array_equal(a.pi, b.pi))


def spectral_bounds_reversible(chain: Chain, x, eps: float) -> list[BoundEntry]:
    """Eigenvalue bounds for a reversible ergodic chain.

    Lower bounds the worst-start mixing time by ``bm/(1-bm) ln(1/(2 eps))``
    (T5; at eps = 1/(2e) the log factor is one, C6) and upper bounds the
    mixing time from x by ``ln(1/(eps pi(x))) / (1 - bm)`` (T7), where bm is
    the largest nontrivial eigenvalue modulus.  When bm is 1.0 in floats,
    1 - bm is 0.0 and all three rows are not applicable.
    """
    eps = _check_eps(eps)
    _require(chain, "reversible", "spectral mixing bounds")
    _require(chain, "ergodic", "spectral mixing bounds")
    return _entries(_Derived(eps, chain, chain.index(x)), {"spectral": None})


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
    eps = _check_eps(eps)
    delta = _real(delta, "delta", BadDelta, 0.0, 0.5)
    for c, who in ((base, "base"), (target, "target")):
        _require(c, "reversible", f"reversible comparison bounds ({who})")
        _require(c, "ergodic", f"reversible comparison bounds ({who})")
    s = _Derived(eps, base, base.index(x), target, flow, delta, sweep)
    s.values["A"] = _routed(s, product=False)  # the family takes no flow routed over the reversal product
    return _entries(s, {"comparison_reversible": None})


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
    (C20d, C20c).  Each tau must be None or a finite number above
    ``TAU_LEAST`` (about 0.379885), below which no chain's time lies; every
    such tau is evaluated, and a huge one gives C20d and C20c the bound 0.0.
    """
    taus = {"tau_d": _check_tau(discrete_tau, "discrete_tau"), "tau_c": _check_tau(continuous_tau, "continuous_tau")}
    _require(chain, "irreducible", "conductance bounds")
    return _entries(_Derived(base=chain, values=taus), {"cut": None, "gap": None})


def _check_tau(tau, name: str) -> float | None:
    return None if tau is None else _real(tau, f"{name} (or None)", BadParams, TAU_LEAST)


def nonreversible_bounds(chain: Chain, x, eps: float) -> list[BoundEntry]:
    """Upper bounds that survive without reversibility.

    T22 bounds the continuized mixing time from x by
    ``ln(1/(eps^2 pi(x))) / (2 lambda_1)``.  T23 bounds the discrete one by
    ``ln(1/(eps^2 pi(x))) / lambda_1(R(M) M)`` using the reversal product;
    when that product is reducible its gap is zero and no discrete bound of
    this kind exists, which the entry reports instead of failing; so it does
    when the product's lambda_1 is 0.0 in floats.
    """
    eps = _check_eps(eps)
    _require(chain, "irreducible", "nonreversible bounds")
    return _entries(_Derived(eps, chain, chain.index(x)), {"nonreversible": None})


def comparison_general(base: Chain, target: Chain, flow: Flow, x, eps: float) -> list[BoundEntry]:
    """Comparison bounds with no reversibility assumption on the base chain.

    A flow routed over the base chain yields bounds on the continuized
    mixing time from the target's continuous (T24c) or discrete (T24d)
    mixing time, sharpened to T26 when the target is reversible.  A flow
    routed over the base's reversal product instead bounds the discrete
    mixing time (T25).  The flow's base decides which family applies.
    """
    eps = _check_eps(eps)
    for c, who in ((base, "base"), (target, "target")):
        _require(c, "irreducible", f"general comparison bounds ({who})")
    s = _Derived(eps, base, base.index(x), target, flow)
    s.values["A"] = _routed(s)
    return _entries(s, {"comparison_general": None})


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

    A chain's constants (its classification, eigenvalues, reversal-product
    gap and worst-start times at 1/(2e)) are kept on the chain, so a report
    on a chain object that an earlier call has seen reads them back.  The
    rest (each from-x time, the worst-start time at any other eps or delta,
    the conductance, lazy(base), the reversal product and the walks over the
    powers and the exponentials, with every probe's distances) is computed
    once per report and shared by the rows.  The
    families' gates are decided first, the flow's kind and congestion among
    them, then the table is walked once.
    """
    eps = _check_eps(eps)
    delta = _real(delta, "delta", BadDelta, 0.0, 0.5)
    if (target is None) != (flow is None):
        raise MixboundsError("supply target and flow together, or neither")
    cls = _require(base, "irreducible", "full report")
    x_idx = base.index(x)
    reversible = cls.reversible and cls.ergodic
    off = {"spectral": None if reversible else "chain is periodic" if cls.reversible else "chain is not reversible",
           "cut": None, "gap": None, "nonreversible": None, "comparison_general": None}
    s = _Derived(eps, base, x_idx, target, flow, delta, sweep,
                 {} if cls.ergodic else {"tau_d": None, "x_d": None})  # a periodic chain has no discrete times
    if target is None:
        off["comparison_reversible"] = off["comparison_general"] = "no target chain and flow supplied"
    else:
        cls_t = _require(target, "irreducible", "general comparison bounds (target)")
        s.values["A"] = _routed(s)
        if s.direct and reversible and cls_t.reversible and cls_t.ergodic:
            off["comparison_reversible"] = None
        else:
            off["comparison_reversible"] = ("comparison pair is not reversible ergodic" if s.direct
                                            else "flow is routed over the reversal product")
    entries = _entries(s, off, ("x_d", "x_c"))
    return BoundReport(base.name, None if target is None else target.name, base.labels[x_idx], x_idx, eps, delta,
                       None if s["x_d"] is None else int(s["x_d"]), float(s["x_c"]), entries)
