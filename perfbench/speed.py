"""Host-speed sampling, so that ``run_s`` does not move with the host's speed.

On a shared host the same pass on the same inputs can take anywhere from
0.66 s to 1.09 s within half a minute (a 2-vCPU Intel Xeon at 2.0 GHz):
neighbours change how fast the core runs. A fixed pure-Python kernel,
timed between slices of the workload, slows down with it (correlation
0.94 over 2 s windows).

``Sampler`` runs that kernel from a SIGALRM handler every
``INTERVAL_S`` of wall time while a pass runs. A pass's normalised time
is its own time (the kernel's time taken out) multiplied by the mean
relative speed of the host over the pass, ``REFERENCE_S / kernel time``:
the time the pass would have taken on a host where the kernel takes
``REFERENCE_S``. The kernel touches no package code, so a change to the
package moves the normalised time as it moves the wall time.
"""

from __future__ import annotations

import signal
import time

#: wall seconds between two kernel samples
INTERVAL_S = 0.025
#: the kernel's median time on the 2-vCPU Intel Xeon (2.0 GHz) host the
#: benchmark was defined on; normalised seconds are seconds at that speed
REFERENCE_S = 0.0006
KERNEL_ITEMS = 2000


def kernel() -> float:
    """Fixed dict, float and integer work: about 0.5 ms of interpreter time."""
    table: dict[int, float] = {}
    acc = 0
    for i in range(KERNEL_ITEMS):
        table[i * 7919 % 10007] = i * 1.5
        acc += i * i % 7
    return sum(table.values()) + acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Samples the kernel's time every ``interval`` wall seconds inside ``with``."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` less the kernel's own time, at the reference speed.

        A pass too short to be sampled is timed with one kernel run after it.
        """
        samples = self.samples or [time_kernel()]
        own = wall_s - sum(self.samples)
        speed = sum(REFERENCE_S / s for s in samples) / len(samples)
        return own * speed
