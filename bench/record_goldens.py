"""Record the golden output of every request in a workload's pool.

    python3 bench/record_goldens.py [cuts] [mixing] [flows]

The goldens pin the behaviour of the commit they are recorded at, defects
included; run.py compares every output against them.  Re-record only when a
change to an exact output is intended, and say so where the change is
described.
"""

import json
import sys
import time

import program

program.pin_blas()

import goldens  # noqa: E402
import workloads  # noqa: E402
from run import environment  # noqa: E402


def record(name: str, mb) -> None:
    pool = workloads.WORKLOADS[name].pool()
    inputs = workloads.Inputs(pool, program.WORK / "inputs" / f"record-{name}", mb)
    out = {}
    start = time.perf_counter()
    for request in pool:
        try:
            summary = workloads.summarise(request, workloads.execute(request, inputs, mb))
        except mb.errors.MixboundsError as exc:
            summary = {"error": type(exc).__name__}
        out[request.key] = json.loads(json.dumps(summary))
    goldens.save(name, out, environment(mb))
    print(f"{name}: {len(out)} goldens in {time.perf_counter() - start:.1f} s")


def main(argv) -> int:
    mb = program.import_program()
    for name in argv or sorted(workloads.WORKLOADS):
        record(name, mb)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
