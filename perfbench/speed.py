"""Core-speed probe: rescale CPU times to a core of fixed speed.

On a shared host the speed of the core a process runs on drifts by a fifth
or more within seconds, as other tenants load the machine; the process's
CPU time drifts with it, and neither the kernel nor the process can see
why. ``SpeedProbe`` samples that speed where the work runs: every
``INTERVAL_S`` of process CPU time a ``SIGPROF`` handler runs a fixed
pure-Python loop in the measured thread and records how long it took.
``rescale`` turns the CPU time of a stretch of work into the time it would
have taken on a core that runs the loop in ``REFERENCE_S``: the stretch's
CPU time minus the probe's own share, times ``REFERENCE_S`` over the median
loop time sampled during that stretch.

The handler only runs Python code of its own between bytecodes of the
measured thread; it calls nothing in aplab, so it adds no spans and changes
no result. It costs 2-3% of CPU time, which ``rescale`` takes out.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
LOOP_N = 20_000
# The loop's median time on the nominal core (a 2-vCPU Xeon VM with
# Python 3.11 when its host was quiet). Only the scale of the rescaled times
# depends on it; fixed once, it must not change, or medians from before and
# after the change no longer compare.
REFERENCE_S = 1.4e-3


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i
    return s


class SpeedProbe:
    """Arm the sampling timer on ``__enter__``, disarm it on ``__exit__``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last_median = REFERENCE_S
        self._old = None

    def _on_tick(self, signum, frame) -> None:
        # wall time: while the profiling timer is armed the process CPU
        # clock advances in scheduler ticks, too coarse for one loop
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old)

    def take(self) -> list[float]:
        """The samples since the last call; the probe starts a new stretch."""
        out, self.samples = self.samples, []
        return out

    def rescale(self, cpu_s: float, samples: list[float]) -> dict:
        """Rescale one stretch of ``cpu_s`` process CPU time.

        A stretch too short to hold a sample borrows the median of the last
        one that held some.
        """
        if samples:
            self.last_median = statistics.median(samples)
        net = cpu_s - sum(samples)
        return {
            "cpu_s": cpu_s,
            "probe_n": len(samples),
            "probe_median_s": self.last_median,
            "ref_s": net * REFERENCE_S / self.last_median,
        }
