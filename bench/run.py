"""Benchmark runner for mixbounds.

    python3 bench/run.py --workload cuts|mixing|flows --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  The
load is a closed loop: one client in one process, each request starting when
the previous one returns.  Inputs are generated from ``--seed`` and written
as chain JSON files under ``.bench_build/inputs``.  After one untimed warm-up
request, a run executes ``round(S / cycle_s)`` whole cycles of the workload
(see workloads.py), so every commit does the same work.  Each output is
compared with its golden outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one cycle
untraced and then the same cycle traced, and prints the per-layer metrics
and the tracing overhead; spans go to ``.bench_build/trace``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the run metadata and a readable table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import program

program.pin_blas()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import goldens  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, TRACED, Tracer  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = {  # name: (unit, better)
    "requests_per_s": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("fraction", "higher"),
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".distinct_ratio") or name == "trace.overhead_frac":
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def check(request, outcome, golden: dict) -> str | None:
    """Compare one request's outcome (a raw result or an error summary) with its golden."""
    summary = outcome if isinstance(outcome, dict) else workloads.summarise(request, outcome)
    summary = json.loads(json.dumps(summary))
    if request.key not in golden:
        return f"{request.key}: no golden output recorded"
    diffs = goldens.differences(golden[request.key], summary)
    return f"{request.key}: " + "; ".join(diffs[:5]) if diffs else None


def run_pass(requests, inputs, mb, golden: dict, tracer: Tracer | None = None, sampling: bool = True):
    """Closed loop over the requests.

    Returns (wall times, wall times scaled to the nominal machine speed,
    failure messages); see speed.py for the scaling.
    """
    wall, scaled, failures = [], [], []
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        failure = None
        with speed.Timing(sampling) as timing:
            try:
                outcome = workloads.execute(request, inputs, mb)
            except mb.errors.MixboundsError as exc:
                outcome = {"error": type(exc).__name__}
            except Exception as exc:  # an unexpected failure of one request is reported, not fatal
                failure = f"{request.key}: unexpected {type(exc).__name__}: {exc}"
        wall.append(timing.wall_s)
        scaled.append(timing.scaled_s)
        failure = failure or check(request, outcome, golden)
        if failure:
            failures.append(failure)
    return wall, scaled, failures


def measure_setup(files) -> list[float]:
    """Set-up wall time in SETUP_REPEATS fresh processes.

    Not scaled: import time is mostly operating-system work (file reads, page
    faults, loading shared libraries) that the speed reference does not
    track, and scaling it widened its spread.
    """
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, *map(str, files)], capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout))
    return samples


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(mb) -> dict:
    return {
        "mixbounds": mb.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": program.BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def character(workload: str, m: dict) -> tuple[bool, str]:
    """Does the traced run show the layer this workload was chosen to stress?"""
    total = sum(m[f"{n}.self_s"] for n in TRACED) or 1.0
    share = {layer: sum(m[f"{layer}.{fn}.self_s"] for fn in fns) / total for layer, fns in LAYERS.items()}
    top = max(TRACED, key=lambda n: m[f"{n}.self_s"])
    dominant = max(share, key=share.get)
    if workload == "cuts":
        return top == "spectral.conductance", f"largest self time: {top}"
    if workload == "flows":
        return share["flows"] > 0.5, f"flows layer self-time share {share['flows']:.3f} (> 0.5 expected)"
    classify_share = m["chains.classify.self_s"] / total
    bypassed = (m["spectral.conductance.calls"], m["flows.build_canonical_flow.calls"], m["spectral.cuts"])
    ok = share["mixing"] + classify_share > 0.5 and bypassed == (0, 0, 0)
    return ok, (f"mixing + chains.classify self-time share {share['mixing'] + classify_share:.3f}; "
                f"conductance calls, canonical flows, cuts = {bypassed}; dominant layer {dominant}")


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:48s} {value:>16.6g} {unit:8s} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mb = program.import_program()
    except (program.MissingProgram, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        golden = goldens.load(args.workload)
    except OSError as exc:
        print(f"error: no goldens: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    cycles = 1 if args.trace else workload.cycles(args.seconds)
    requests = workload.schedule(args.seed, cycles)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = workloads.Inputs(requests, program.WORK / "inputs" / tag, mb)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "cycles": cycles, "requests_per_pass": len(requests), "input_files": len(inputs.files),
            "load": "closed loop, 1 client, 1 process", **environment(mb)}

    if not args.trace:
        setup_samples = measure_setup(inputs.files.values())
        meta["setup_samples_s"] = setup_samples

    run_pass(requests[:1], inputs, mb, golden)  # warm-up
    # a traced run compares two passes without in-request sampling, whose
    # handler would otherwise run inside the spans
    wall, scaled, failures = run_pass(requests, inputs, mb, golden, sampling=not args.trace)
    attempted = len(requests)
    meta["speed_factor"] = sum(wall) / sum(scaled)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            _, traced, traced_failures = run_pass(requests, inputs, mb, golden, tracer, sampling=False)
        finally:
            tracer.uninstall()
        attempted += len(requests)
        failures += traced_failures
        values = tracer.metrics()
        values["trace.overhead_frac"] = sum(traced) / sum(scaled) - 1.0
        ok, why = character(args.workload, values)
        meta["character"] = {"as_expected": ok, "detail": why}
        (program.WORK / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write(program.WORK / "trace" / f"{tag}.json")
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
    else:
        p, tail_s = tail(scaled)
        meta["tail_percentile"] = p
        meta["latency_samples"] = len(scaled)
        meta["unscaled"] = {"requests_per_s": len(wall) / sum(wall), "latency_p50_s": statistics.median(wall),
                            "latency_tail_s": tail(wall)[1]}
        values = {
            "requests_per_s": len(scaled) / sum(scaled),
            "latency_p50_s": statistics.median(scaled),
            "latency_tail_s": tail_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - len(failures) / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name][0]} for name, v in values.items()}

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    (program.WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(program.WORK / "results" / f"{tag}.json", "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "failures": failures,
                   "latencies_s": [[r.key, w, s] for r, w, s in zip(requests, wall, scaled)]}, fh, indent=1)

    print(json.dumps({"meta": meta}))
    print(f"{args.workload}: {attempted} requests checked, {len(failures)} failed")
    if args.trace:
        print_table((n, metrics[n]["value"], metrics[n]["unit"], "computed" if n == "spectral.cuts" else "")
                    for n in metrics)
        print(f"character: {'as expected' if meta['character']['as_expected'] else 'NOT as expected'}: "
              f"{meta['character']['detail']}")
    else:
        notes = {"latency_tail_s": f"p{meta['tail_percentile']} of {len(scaled)} samples",
                 "setup_s": f"median of {SETUP_REPEATS} fresh processes",
                 "success_rate": f"fail_rate {1.0 - values['success_rate']:.6g}"}
        print_table((n, metrics[n]["value"], metrics[n]["unit"], f"{END_TO_END[n][1]} is better; {notes.get(n, '')}")
                    for n in metrics)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
