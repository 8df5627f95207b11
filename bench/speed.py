"""Machine-speed reference, used to scale wall times to a fixed machine speed.

Small shared VMs change speed in phases. On the 2-core x86 VM these numbers
come from, one request took 120 ms or 200 ms depending on what the other
tenants of the host were doing, and a phase lasted from a few seconds to
minutes. A fixed reference kernel slows down with the requests: over 600
alternating samples the correlation was 0.92. So each request is timed with
the kernel sampled just before it, just after it, and every PERIOD_S while it
runs, from a SIGALRM handler. Its wall time, minus the time spent in the
handler, is then scaled by ``NOMINAL_S / mean kernel time``. The kernel never
calls the program, so a faster program does not make the kernel faster.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: kernel time in the VM's fast phase; scaled times are "as if at this speed"
NOMINAL_S = 0.0045
#: kernel sampling period while a request runs
PERIOD_S = 0.1

_RNG = np.random.default_rng(0)
_A = _RNG.random((60, 60))
_V = _RNG.random(60)


def reference_s() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy/BLAS calls."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += float(_A[i % 60] @ _V)
    M = _A
    for _ in range(20):
        M = M @ _A
        M /= M.max()
    return time.perf_counter() - start


class Timing:
    """Times one block: ``wall_s`` excludes the sampling handler, ``scaled_s``
    is ``wall_s`` at the nominal machine speed.

    With ``sampling=False`` the kernel runs only before and after the block,
    so nothing interrupts it (the traced run uses this, to keep the kernel
    out of the spans).
    """

    def __init__(self, sampling: bool = True):
        self._period = PERIOD_S if sampling else 0.0

    def __enter__(self):
        self.samples = [reference_s()]
        self._handler_s = 0.0
        # left installed after the block: a SIGALRM still pending when the
        # timer is disarmed must not reach the default action, which exits
        signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        return self

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.samples.append(reference_s())
        self._handler_s += time.perf_counter() - entered

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._start - self._handler_s
        self.samples.append(reference_s())
        self.scaled_s = self.wall_s * NOMINAL_S * len(self.samples) / sum(self.samples)
        return False
