"""CPU-time clock scaled by an interpreter-speed probe on the benchmark's
own thread.

Two things make raw times on the 2-vCPU machine this was tuned on
unsteady.  The hypervisor steals 2 to 25 % of the vCPU, varying over
minutes; that inflates wall time but not CPU time.  And the vCPU
itself changes speed by up to 2x within seconds, which slows CPU time too.
So every end-to-end time is thread CPU time, scaled to a reference speed:

SpeedProbe arms an ITIMER_PROF timer that fires every 10 ms of process CPU
time.  Each SIGPROF runs a fixed pure-Python loop between two bytecodes of
whatever the program is doing and records the thread CPU time the loop
took.  A CPU time measured while the probe ran is multiplied by the mean of
REFERENCE_NS / reading over the same interval.  Readings are evenly spaced
in CPU time, so that mean is the average speed the work ran at; a median
would pick one speed where the vCPU alternates between two.  The result is
the time the work would take at the reference speed.  The probe costs
about 0.3 % of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_NS = 30_000     # a typical probe reading on an idle 2 GHz Xeon vCPU
MIN_SAMPLES = 10          # fewer readings within a command: use its pass's


def cpu_time() -> float:
    """Seconds of CPU time, user and system, used by the calling thread,
    which runs all of the program's work.  The process-wide CPU clock is no
    use here: while the ITIMER_PROF timer is armed it advances in 4 ms
    ticks."""
    return time.thread_time()


class SpeedProbe:
    def __init__(self):
        self.samples: list[int] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.thread_time_ns()
        x = 0
        for i in range(400):
            x += i * i
        self.samples.append(time.thread_time_ns() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, start: int, end: int, fallback: tuple[int, int] = None) -> float:
        """Mean of REFERENCE_NS / reading over samples[start:end], or over
        the fallback range when that holds fewer than MIN_SAMPLES readings.
        Readings under a quarter of the range's median are left out."""
        if end - start < MIN_SAMPLES and fallback is not None:
            start, end = fallback
        window = self.samples[start:end]
        if not window:
            raise RuntimeError("no speed probe readings in the interval")
        # The thread CPU clock now and then returns the same value on both
        # sides of the loop.  A reading under a quarter of the median is no
        # real speed, and 1/reading would swamp the mean, so drop it.
        floor = statistics.median(window) / 4
        return statistics.fmean(REFERENCE_NS / r for r in window if r > floor)
