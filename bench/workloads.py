"""The three benchmark workloads: seeded inputs, request schedules, request
execution, and the output summaries that the goldens are compared against.

Every workload is a fixed list of *slots* (one request shape each).  A cycle
runs every slot once; a run is a whole number of cycles.  Each cycle draws one
pool item ``j`` in ``0 .. POOL-1``, and ``j`` fixes the chain seeds, the start
state and epsilon of every request in that cycle.  The workload seed only
permutes the pool and the slot order, so every seed gives the same request
shapes (and so the same workload character) while the concrete inputs differ.
The goldens cover every (slot, j) pair, so any seed is checkable.

Inputs are built here with numpy, never with the program's own generators,
and handed to the program only as chain JSON files.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

POOL = 10


# --- chain matrices -------------------------------------------------------


def _random_reversible(N: int, seed: int) -> np.ndarray:
    """Metropolis chain for random weights in [0.5, 2] over the complete graph."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, size=N)
    P = np.zeros((N, N))
    for x in range(N):
        for y in range(N):
            if x != y:
                P[x, y] = min(1.0, w[y] / w[x]) / (N - 1)
        P[x, x] = 1.0 - P[x].sum()
    return P


def _lazy(P: np.ndarray) -> np.ndarray:
    return 0.5 * (np.eye(P.shape[0]) + P)


def _lazy_cycle(n: int) -> np.ndarray:
    """Stay with 1/2, step to either neighbour on the n-cycle with 1/4."""
    P = 0.5 * np.eye(n)
    for i in range(n):
        P[i, (i + 1) % n] += 0.25
        P[i, (i - 1) % n] += 0.25
    return P


def _dhn(n: int) -> np.ndarray:
    """Diaconis-Holmes-Neal walk on 2n states: i -> i+1 w.p. 1-1/n, i -> -i w.p. 1/n."""
    m = 2 * n
    values = list(range(-(n - 1), n + 1))
    index = {v: i for i, v in enumerate(values)}

    def wrap(r: int) -> int:
        return ((r + n - 1) % m) - (n - 1)

    P = np.zeros((m, m))
    for v in values:
        P[index[v], index[wrap(v + 1)]] += 1.0 - 1.0 / n
        P[index[v], index[wrap(-v)]] += 1.0 / n
    return P


def _doubly_stochastic(n: int, seed: int, self_loop: float = 0.2) -> np.ndarray:
    """Mixture of the identity, the n-cycle shift and two random permutations.

    The shift makes it irreducible and the identity aperiodic; the stationary
    law is uniform, so the chain is reversible exactly when P is symmetric.
    """
    rng = np.random.default_rng(seed)
    perms = [np.roll(np.eye(n), 1, axis=1), np.eye(n)[rng.permutation(n)], np.eye(n)[rng.permutation(n)]]
    weights = rng.dirichlet(np.ones(len(perms))) * (1.0 - self_loop)
    P = self_loop * np.eye(n)
    for w, M in zip(weights, perms):
        P = P + w * M
    if np.allclose(P, P.T):
        raise ValueError(f"doubly_stochastic(n={n}, seed={seed}) came out reversible")
    return P


def chain_matrix(chain_id: str) -> tuple[str, np.ndarray]:
    """Name and transition matrix for an id such as ``rr-16-3`` or ``cyc-100``."""
    family, *nums = chain_id.split("-")
    size, *seed = (int(v) for v in nums)
    if family == "rr":
        return f"random_reversible(N={size},seed={seed[0]})", _random_reversible(size, seed[0])
    if family == "rrlazy":
        return f"lazy(random_reversible(N={size},seed={seed[0]}))", _lazy(_random_reversible(size, seed[0]))
    if family == "cyc":
        return f"lazy_cycle(n={size})", _lazy_cycle(size)
    if family == "uni":
        return f"uniform_walk(N={size})", np.full((size, size), 1.0 / size)
    if family == "dhn":
        return f"dhn(n={size // 2})", _dhn(size // 2)
    if family == "ds":
        return f"doubly_stochastic(n={size},seed={seed[0]})", _doubly_stochastic(size, seed[0])
    raise ValueError(f"unknown chain family in {chain_id!r}")


def write_chain(chain_id: str, path: Path) -> None:
    """Write the chain in the program's chain JSON format (shortest round-trip floats)."""
    name, P = chain_matrix(chain_id)
    data = {"name": name, "states": [f"s{i}" for i in range(P.shape[0])], "P": P.tolist()}
    path.write_text(json.dumps(data) + "\n")


# --- slots and schedules --------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One request shape.  ``chains(j)`` maps roles to chain ids; ``args(j)``
    gives the remaining arguments for pool item ``j``."""

    name: str
    kind: str
    chains: Callable[[int], dict]
    args: Callable[[int], dict] = field(default=lambda j: {})


@dataclass(frozen=True)
class Request:
    slot: Slot
    j: int

    @property
    def key(self) -> str:
        return f"{self.slot.name}/{self.j}"

    @property
    def chains(self) -> dict:
        return self.slot.chains(self.j)

    @property
    def args(self) -> dict:
        return self.slot.args(self.j)


def _start(j: int, n: int) -> int:
    return (j * n) // POOL


def _cuts_slots() -> list[Slot]:
    slots = []
    for N in range(12, 19):
        slots.append(Slot(f"report-N{N}", "report_pair", lambda j, N=N: {"base": f"rr-{N}-{j}"}))
    for N in (12, 13):
        slots.append(Slot(f"analyze-N{N}", "cli_analyze", lambda j, N=N: {"base": f"rr-{N}-{j}"}))
    return slots


def _mixing_slots() -> list[Slot]:
    chains = {
        "cyc100": lambda j: {"base": "cyc-100"},
        "rr200": lambda j: {"base": f"rr-200-{j}"},
        "dhn64": lambda j: {"base": "dhn-128"},
        "ds100": lambda j: {"base": f"ds-100-{j}"},
    }
    size = {"cyc100": 100, "rr200": 200, "dhn64": 128, "ds100": 100}
    at_x = {fam: (lambda j, n=n: {"x": _start(j, n), "eps": 0.25}) for fam, n in size.items()}
    worst = lambda j: {"x": None, "eps": round(0.10 + 0.01 * j, 2)}
    return [Slot(f"report-{fam}", "report", chains[fam], at_x[fam]) for fam in size] + [
        Slot("mix-discrete-x-ds100", "discrete", chains["ds100"], at_x["ds100"]),
        Slot("mix-discrete-x-cyc100", "discrete", chains["cyc100"], at_x["cyc100"]),
        Slot("mix-discrete-worst-rr200", "discrete", chains["rr200"], worst),
        Slot("mix-continuous-worst-cyc100", "continuous", chains["cyc100"], worst),
        Slot("mix-continuous-worst-rr200", "continuous", chains["rr200"], worst),
    ]


def _flows_slots() -> list[Slot]:
    def compare(n: int, flags: tuple[str, ...]):
        return lambda j: {"x": _start(j, n), "eps": round(0.20 + 0.01 * j, 2), "flags": flags}

    cyc = lambda j: {"base": "cyc-36", "target": "uni-36"}
    rr40 = lambda j: {"base": f"rr-40-{j}", "target": f"rrlazy-40-{j}"}
    ds28 = lambda j: {"base": f"ds-28-{j}", "target": "uni-28"}
    return [
        Slot("compare-cyc36-odd", "cli_compare", cyc, compare(36, ("--odd",))),
        Slot("compare-cyc36-even", "cli_compare", cyc, compare(36, ())),
        Slot("compare-rr40-odd", "cli_compare", rr40, compare(40, ("--odd",))),
        Slot("compare-rr40-even", "cli_compare", rr40, compare(40, ())),
        Slot("compare-ds28-product", "cli_compare", ds28, compare(28, ("--product",))),
        Slot("route-rr32", "route", lambda j: {"base": f"rr-32-{j}", "target": f"rrlazy-32-{j}"}),
        Slot("route-ds28", "route", ds28),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    slots: list[Slot]
    #: nominal cycle length.  A run is round(seconds / cycle_s) whole cycles,
    #: a fixed amount of work, so the sample count and with it the tail
    #: percentile are the same on every commit.  At 25 s this gives 3, 7 and
    #: 4 cycles, which puts the median and tail ranks inside one slot's cost
    #: group at the seed commit (see README.md)
    cycle_s: float

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))

    def schedule(self, seed: int, cycles: int) -> list[Request]:
        rng = random.Random(seed)
        items = rng.sample(range(POOL), POOL)
        out = []
        for c in range(cycles):
            order = rng.sample(self.slots, len(self.slots))
            out += [Request(slot, items[c % POOL]) for slot in order]
        return out

    def pool(self) -> list[Request]:
        """Every request the goldens must cover."""
        return [Request(slot, j) for j in range(POOL) for slot in self.slots]


WORKLOADS = {
    "cuts": Workload("cuts", _cuts_slots(), cycle_s=8.0),
    "mixing": Workload("mixing", _mixing_slots(), cycle_s=3.5),
    "flows": Workload("flows", _flows_slots(), cycle_s=6.0),
}


# --- execution ------------------------------------------------------------


class Inputs:
    """Chain files of a run and the chains loaded from them (loaded once, untimed)."""

    def __init__(self, requests: list[Request], directory: Path, mb):
        directory.mkdir(parents=True, exist_ok=True)
        ids = sorted({cid for r in requests for cid in r.chains.values()})
        self.files = {cid: directory / f"{cid}.json" for cid in ids}
        for cid, path in self.files.items():
            write_chain(cid, path)
        self.chains = {cid: mb.load_chain(path) for cid, path in self.files.items()}


def _cli(mb, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mb.cli.run_cli(argv)
    return code, out.getvalue()


def execute(request: Request, inputs: Inputs, mb):
    """Run one request through the program and return its raw result.

    Every call goes through a ``mixbounds`` module attribute, so the tracer's
    wrappers see it.
    """
    kind, chains, args = request.slot.kind, request.chains, request.args
    if kind == "report_pair":
        base = inputs.chains[chains["base"]]
        target = mb.lazy(base)
        flow = mb.build_canonical_flow(base, target)
        return mb.full_report(base, target, flow, sweep=True)
    if kind == "report":
        return mb.full_report(inputs.chains[chains["base"]], x=args["x"], eps=args["eps"])
    if kind == "discrete":
        return mb.discrete_mixing_time(inputs.chains[chains["base"]], args["x"], args["eps"])
    if kind == "continuous":
        return mb.continuous_mixing_time(inputs.chains[chains["base"]], args["x"], args["eps"])
    if kind == "cli_analyze":
        return _cli(mb, ["analyze", str(inputs.files[chains["base"]]), "--json"])
    if kind == "cli_compare":
        argv = ["compare", str(inputs.files[chains["base"]]), str(inputs.files[chains["target"]]),
                "--auto-flow", *args["flags"], "--from", f"s{args['x']}", "--eps", str(args["eps"]),
                "--json"]
        return _cli(mb, argv)
    if kind == "route":
        base, target = inputs.chains[chains["base"]], inputs.chains[chains["target"]]
        flow = mb.build_canonical_flow(base, target)
        spread = mb.spread_flow(flow)
        _, B, kappa = mb.state_congestion(flow)
        _, A = mb.edge_congestion(spread)
        return flow, spread, B, kappa, A
    raise ValueError(f"unknown request kind {kind!r}")


# --- summaries ------------------------------------------------------------
#
# Key conventions the comparison relies on: ints (discrete times, counts,
# exit codes), bools, strings and None compare exactly; a key ending in
# "_c" holds a continuized time; every other float compares relatively.


def _entry_summary(e: dict) -> dict:
    out = {k: e[k] for k in ("theorem", "quantity", "applicable", "holds", "reason", "bound")}
    if e["exact"] is None:
        out["exact"] = None
    elif "discrete mixing time" in e["quantity"]:
        out["exact"] = int(e["exact"])
    elif "continuous mixing time" in e["quantity"]:
        out["exact_c"] = e["exact"]
    else:
        out["exact"] = e["exact"]
    return out


def _report_summary(d: dict) -> dict:
    return {
        "verdict": d["verdict"],
        "discrete_tau_x": d["exact"]["discrete_tau_x"],
        "tau_x_c": d["exact"]["continuous_tau_x"],
        "entries": [_entry_summary(e) for e in d["entries"]],
    }


def summarise(request: Request, raw) -> dict:
    """Reduce a raw result to the JSON-able fields the goldens record."""
    kind = request.slot.kind
    if kind in ("report_pair", "report"):
        return _report_summary(raw.to_dict())
    if kind == "discrete":
        return {"from_state": raw.from_state, "time": int(raw.time), "achieved_tv": raw.achieved_tv}
    if kind == "continuous":
        return {"from_state": raw.from_state, "time_c": raw.time, "achieved_tv": raw.achieved_tv}
    if kind in ("cli_analyze", "cli_compare"):
        code, stdout = raw
        out = {"exit_code": code}
        if code != 2:
            data = json.loads(stdout)
            out.update(_report_summary(data) if kind == "cli_compare" else data)
        return out
    if kind == "route":
        flow, spread, B, kappa, A = raw
        return {"paths_built": len(flow.paths), "paths_spread": len(spread.paths),
                "B": B, "kappa": kappa, "A_spread": A}
    raise ValueError(f"unknown request kind {kind!r}")
