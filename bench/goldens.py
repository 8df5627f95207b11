"""Golden outputs: storage and the tolerant comparison used as the correctness gate.

Rules (see the key conventions in workloads.py):
  * ints, bools, strings and None must be equal: verdicts, exit codes,
    applicability, holds, reasons, discrete times, argmin cuts, path counts,
    and the class of an expected MixboundsError;
  * a key ending in ``_c`` is a continuized time, equal within the 1e-6
    bisection precision of the program (relative for times above 1);
  * every other float (bounds, congestions, spectral values) is equal within
    a relative tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-5
ABS_TOL = 1e-12
#: twice the bisection bracket of mixing.continuous_mixing_time
CONTINUOUS_TOL = 2e-6

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    with open(path_for(workload)) as fh:
        return json.load(fh)["requests"]


def save(workload: str, requests: dict, meta: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(path_for(workload), "w") as fh:
        json.dump({"meta": meta, "requests": requests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _floats_match(key: str, want: float, got: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return want == got
    if key.endswith("_c"):
        return abs(got - want) <= CONTINUOUS_TOL * max(1.0, abs(want))
    return abs(got - want) <= REL_TOL * max(abs(want), abs(got)) + ABS_TOL


def differences(want, got, key: str = "") -> list[str]:
    """Human-readable mismatches between a golden and an actual summary."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{key}: keys {sorted(got)} != golden {sorted(want)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{key}.{k}" if key else k)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{key}: length {len(got)} != golden {len(want)}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in differences(w, g, f"{key}[{i}]")]
    if isinstance(want, float) and isinstance(got, float) and type(want) is type(got):
        leaf = key.rsplit(".", 1)[-1].split("[", 1)[0]
        return [] if _floats_match(leaf, want, got) else [f"{key}: {got!r} != golden {want!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{key}: {got!r} != golden {want!r}"]
    return []
