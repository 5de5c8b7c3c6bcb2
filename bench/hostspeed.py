"""Request timing: CPU time, converted to reference-host speed.

The shared 2-core host (Python 3.11.7) this benchmark was calibrated on
sees two kinds of interference that move wall-clock times by far more than
any change worth measuring:

* Preemption.  The scheduler runs other tenants' tasks on our core.  In a
  70 s search-sparse run, the requests that took 1.8x the median wall time
  had 3.2 involuntary context switches each (0.25 for the others) and only
  1.1x the user CPU time.  Timing each request by process CPU time, which
  the kernel stops while the process is off the processor, removes this.  The
  program is single-threaded and never blocks, so its CPU time is its running
  time.
* Speed drift.  The processor runs up to 1.7x faster or slower depending on
  its neighbours, for whole runs at a time, and CPU time moves with it.
  Between requests the closed loops therefore run a fixed pure-Python probe
  at most every PROBE_INTERVAL_S.  Each request's CPU time is multiplied by
  REFERENCE_PROBE_S / (the probe's CPU time around it), a running median over
  SMOOTH probes.  The result is the time on a host where the probe takes
  REFERENCE_PROBE_S, which is that host in its common state.  The probe is
  the benchmark's own code, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_PROBE_S = 1.165e-3  # probe time on the reference host (2 cores, Python 3.11.7)
PROBE_INTERVAL_S = 0.1
SMOOTH = 11  # probes in the running median, about one second


def probe_task() -> int:
    """Fixed work of the kinds the package does: word-size and wider integer
    arithmetic, bit tricks, calls, small tuples and dict stores."""
    acc = 0
    m = 0x5DEECE66D
    d = {}
    for i in range(1500):
        m = (m * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        low = m & -m
        acc ^= low.bit_length() + (m >> 40).bit_count()
        d[i & 255] = (acc, i)
    return acc


class SpeedProbe:
    """Probe CPU times, keyed by the wall-clock moment each probe started."""

    def __init__(self, clock=time.perf_counter, cpu=time.process_time, task=probe_task):
        self.clock = clock
        self.cpu = cpu
        self.task = task
        self.at: list[float] = []
        self.took: list[float] = []
        self.due = 0.0

    def probe(self) -> None:
        at = self.clock()
        c0 = self.cpu()
        self.task()
        self.took.append(self.cpu() - c0)
        self.at.append(at)
        self.due = self.clock() + PROBE_INTERVAL_S

    def maybe_probe(self, now: float) -> None:
        """Probe if PROBE_INTERVAL_S has passed since the last probe."""
        if now >= self.due:
            self.probe()

    def factors(self, moments: list[float]) -> list[float]:
        """Factor converting a CPU time measured at each wall-clock moment (a
        request's start) to reference-host time, from the smoothed probe
        nearest to it."""
        if not self.took:
            raise RuntimeError("no probe was taken")
        half = SMOOTH // 2
        smoothed = [
            statistics.median(self.took[max(0, k - half) : k + half + 1])
            for k in range(len(self.took))
        ]
        out = []
        for t in moments:
            k = bisect.bisect_left(self.at, t)
            if k == len(self.at) or (k > 0 and t - self.at[k - 1] < self.at[k] - t):
                k -= 1
            out.append(REFERENCE_PROBE_S / smoothed[k])
        return out

    def speed(self) -> float:
        """Median host speed over the run relative to the reference host."""
        return REFERENCE_PROBE_S / statistics.median(self.took)
