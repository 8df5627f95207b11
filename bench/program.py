"""Locating and importing the program under test from the checkout's ``src``.

The benchmark never uses an installed copy: ``mixbounds`` must resolve to
``<checkout>/src/mixbounds``, or the benchmark stops without a result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for inputs, results and span dumps (ignored by git)
WORK = ROOT / ".bench_build"

#: BLAS threads are pinned to this count (never above nproc) for every
#: process the benchmark runs; it must be set before numpy is imported
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class MissingProgram(RuntimeError):
    pass


def pin_blas() -> None:
    if "numpy" in sys.modules and any(os.environ.get(k) != v for k, v in BLAS_ENV.items()):
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    os.environ.update(BLAS_ENV)


def import_program():
    """Import mixbounds (and its CLI module) from SRC and return the package."""
    if not (SRC / "mixbounds" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixbounds
    import mixbounds.cli  # noqa: F401  (run_cli is reached as mixbounds.cli.run_cli)

    if Path(mixbounds.__file__).resolve().parent != SRC / "mixbounds":
        raise MissingProgram(f"mixbounds was imported from {mixbounds.__file__}, not from {SRC}")
    return mixbounds
