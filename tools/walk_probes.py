"""Count the probes the mixing-time walks make, per clock, over a fixed sample of chains.

Each query is one mixing time on a fresh walk, from the worst start, from 0
and from n // 3, at each epsilon of ``EPSILONS``, on each clock.  A probe is
one distance pass at a new time: a *full* probe reads every start's row, a
*row* probe only the rows of its query's starts.  A *series rung* is a
ladder rung E(s) with s < 1, summed as a matrix; E(1) is the unit rung and
not counted.  On the continuized clock the probes inside the bracket of
width 1 (the ITP phase) are counted apart too: every earlier probe lies at
an integer time, and every one of them at a time that is not.

    python tools/walk_probes.py [--times] [chain ...]

A chain is a generator spec ``kind:param=value,...`` of ``mixbounds.generate``,
for example ``random_reversible:N=12,seed=1``; with none given, ``SAMPLE``.
``--times`` prints each query's time and bracket as well.  The package is
imported from the ``src`` directory beside this script, so the counts are
those of the tree the script sits in.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mixbounds import generate  # noqa: E402
from mixbounds import mixing  # noqa: E402
from mixbounds.errors import MixboundsError  # noqa: E402

#: the library's stand-ins for the bench's chains: rr-12 .. rr-200, cyc-36 and
#: cyc-100 (lazy directed cycles here), dhn-128, ds-28 and ds-100 (the doubly
#: stochastic, nonreversible dhn of 28 and 100 states here) and uni-28
SAMPLE = (
    "random_reversible:N=12,seed=1",
    "random_reversible:N=15,seed=1",
    "random_reversible:N=18,seed=1",
    "random_reversible:N=40,seed=1",
    "random_reversible:N=200,seed=1",
    "lazy_of:of=directed_cycle,k=36",
    "lazy_of:of=directed_cycle,k=100",
    "dhn:n=64",
    "dhn:n=14",
    "dhn:n=50",
    "uniform_walk:N=28",
)
EPSILONS = (0.25, 1 / (2 * math.e), 0.1, 0.05)
CLOCKS = {"discrete": mixing._Powers, "continuized": mixing._Ladder}
COLUMNS = ("queries", "full probes", "row probes", "series rungs")


def _chain(spec: str):
    kind, _, params = spec.partition(":")
    kwargs = {}
    for item in filter(None, params.split(",")):
        key, _, value = item.partition("=")
        kwargs[key] = value if key == "of" else float(value) if "." in value else int(value)
    return generate(kind, **kwargs)


def count(specs, times: bool = False) -> dict[str, Counter]:
    """Probe counts by row label (each clock, and the continuized ITP phase)."""
    counts = {label: Counter() for label in (*CLOCKS, "  ITP phase")}
    check_rise, rung = mixing._check_rise, mixing._Ladder.rung

    def counting_check(kept, t, error, unit="step"):  # reads the loop's clock and walk
        kind = "full probes" if kept is walk.tvs else "row probes"
        counts[clock][kind] += 1
        if clock == "continuized" and t != math.floor(t):
            counts["  ITP phase"][kind] += 1
        return check_rise(kept, t, error, unit)

    def counting_rung(ladder, s):
        if s < 1:
            counts["continuized"]["series rungs"] += 1
            counts["  ITP phase"]["series rungs"] += 1
        return rung(ladder, s)

    mixing._check_rise, mixing._Ladder.rung = counting_check, counting_rung
    try:
        for spec in specs:
            chain = _chain(spec)
            for clock, make in CLOCKS.items():
                for x in (None, 0, chain.n // 3):
                    for eps in EPSILONS:
                        walk = make(chain)
                        counts[clock]["queries"] += 1
                        counts["  ITP phase"]["queries"] += clock == "continuized"
                        try:
                            res = walk.time(x, eps)
                        except MixboundsError as error:  # past the cap, or too ill-conditioned
                            res = error
                        if times:
                            print(f"{clock:<12} {spec:<44} x={x!s:<5} eps={eps:.6f}  {res}")
    finally:
        mixing._check_rise, mixing._Ladder.rung = check_rise, rung
    return counts


def main(argv: list[str]) -> int:
    times = "--times" in argv
    specs = [arg for arg in argv if arg != "--times"] or SAMPLE
    counts = count(specs, times)
    print(f"{'clock':<12}" + "".join(f"{column:>14}" for column in COLUMNS))
    for label, row in counts.items():
        print(f"{label:<12}" + "".join(f"{row[column]:>14,}" for column in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
