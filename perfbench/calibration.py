"""Host-speed calibration: converts measured seconds to reference-host seconds.

The benchmark host is a shared 2-core VM whose speed drifts by up to about
1.7x over tens of seconds to minutes (other tenants; no steal time is
reported and CPU time tracks wall time).  A fixed calibration kernel measures
the current speed: a measurement of ``t`` seconds during which the kernel
took ``k`` on average is reported as ``t * REFERENCE_KERNEL_S / k``.  Over
90 s of alternating samples the raw time of an ``analyze`` call moved by
+-25% while its ratio to the kernel moved by +-6%.

The kernel runs between measurements and, so that long calls are covered
too, from a ``SIGALRM`` interval timer every ``TICK_SECONDS`` while a
measurement is running; the time spent in the timer's handler is taken out
of the measurement.  The kernel is the benchmark's own code (interpreter work
plus small and large numpy gathers, the mix basekit's ``Perm`` layer runs),
so no change to basekit can change it, and a slower program still reads
slower.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median kernel time on the reference host (2-core VM, Python 3.11.7,
# numpy 2.4.6) in a quiet period
REFERENCE_KERNEL_S = 0.6e-3
KERNEL_REPEATS = 3
TICK_SECONDS = 0.25


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.permutation(48).astype(np.int32) for _ in range(16)]
        self._large = [rng.permutation(2400).astype(np.int32) for _ in range(4)]
        self._ticks: list[float] = []  # kernel samples taken by the timer
        self._tick_s = 0.0  # time spent in the timer's handler
        self._last = self.sample()

    def _kernel(self) -> int:
        small, large = self._small, self._large
        acc, big = small[0], large[0]
        counts: dict[int, int] = {}
        for i in range(300):
            acc = small[i % 16][acc]
            key = int(acc[i % 48])
            counts[key] = counts.get(key, 0) + 1
            if i % 8 == 0:
                big = large[i % 4][big]
        return len(counts) + int(big[0])

    def sample(self) -> float:
        """Current kernel time in seconds (median of a few runs)."""
        times = []
        for _ in range(KERNEL_REPEATS):
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    def _on_tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self._ticks.append(self.sample())
        self._tick_s += time.perf_counter() - t

    def measure(self, fn):
        """Run ``fn()``; return (result or exception, raw seconds, calibrated seconds).

        Kernel samples: the one taken after the previous measurement, the
        timer's samples during this one, and one taken right after it.
        """
        self._ticks = []
        self._tick_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        t = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed input
            result = exc
        finally:
            elapsed = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed -= self._tick_s
        after = self.sample()
        kernels = [self._last, *self._ticks, after]
        self._last = after
        return result, elapsed, elapsed * REFERENCE_KERNEL_S / statistics.fmean(kernels)
