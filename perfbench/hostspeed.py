"""The host's speed, sampled while a workload runs.

On a shared virtual machine the speed of pure-Python arithmetic wanders by up
to 2x within seconds while the program's work stays the same, so raw wall
times of one commit spread by a third between runs. A thread of the workload
process times a fixed loop of Fraction and big-integer arithmetic (the kind
of work the program does) every ``PERIOD_S``. The time-average of the host's
speed over a timed region scales the region's wall time to the time it would
take on a host where the loop takes ``NOMINAL_S``. A change to the program
does not touch the loop, so it still shows in full.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

PERIOD_S = 0.05
# about the loop's time on a 2-vCPU Xeon VM (2.1 GHz) with CPython 3.11
NOMINAL_S = 0.0005


def reference_loop():
    s = Fraction(0)
    x = 1
    for k in range(1, 120):
        s += Fraction(k, k + 3)
        x = x * 1000003 + k
    return s, x


class HostSpeed:
    """Samples the reference loop from a daemon thread until ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t = clock()
            reference_loop()
            self.samples.append((t, clock() - t))

    def factor(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1], relative to nominal.

        Wall time times this factor is the time at nominal speed. The mean is
        taken over the speed (1 / loop time), since work done is speed
        integrated over time. A region too short to hold a sample takes the
        mean over all samples so far.
        """
        speeds = [1.0 / d for t, d in self.samples if t0 <= t <= t1]
        if not speeds:
            speeds = [1.0 / d for _, d in self.samples]
        if not speeds:
            raise RuntimeError("no host speed sample taken")
        return NOMINAL_S * sum(speeds) / len(speeds)
