"""Machine-speed normalization of solve times.

On a shared machine the speed of a core drifts by up to a third within
seconds, and flips between a fast and a slow state within a fraction of a
second (other tenants on the host); the two cores drift independently.
That swamps the run-to-run differences the benchmark must resolve, and a
calibration made only between solves misses the changes during a solve.

So :class:`SpeedSampler` runs a fixed calibration kernel (small dense
products and eigenvalue solves, the kind of work klap does) every
:data:`INTERVAL_S` seconds, from a ``SIGALRM`` handler in the measuring
process, i.e. on the core the solve runs on.  Each sample runs the kernel
twice back to back and records only the second run: the first one is
slowed by the cache and predictor state the interrupted solve left behind
(by 18-26 % depending on the workload, against 0 % between two idle runs),
so the recorded duration measures the machine and not the solve.  Both
runs are removed from the solve's time.

A solve's *normalized* time is its wall time, without the sampler's runs,
weighted by the mean measured speed during and near the solve,
``wall * mean(NOMINAL_S / kernel_s)`` over those samples: the time it
would have taken at the speed where one kernel run takes :data:`NOMINAL_S`
seconds.  Measurements made without the sampler (the
set-up time) are normalized by :func:`calibrate` run right after them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: kernel duration that defines "nominal speed" (of the order of one warm
#: run on the 2-core x86-64 machine the baseline was measured on)
NOMINAL_S = 7.5e-4
INTERVAL_S = 0.02
#: samples this close to a solve also count for it (short solves)
WINDOW_S = 0.25

_A = np.random.default_rng(0).standard_normal((8, 8))


def kernel() -> None:
    for _ in range(20):
        _A @ _A
        np.linalg.eigvals(_A)


def calibrate() -> float:
    """Median duration of 15 back-to-back kernel runs made now."""
    durations = []
    for _ in range(15):
        start = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - start)
    return float(np.median(durations))


def normalize(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured at the speed where one kernel run took
    ``kernel_s``, scaled to nominal speed."""
    return seconds * NOMINAL_S / kernel_s


class SpeedSampler:
    """Times :func:`kernel` every :data:`INTERVAL_S` seconds while running."""

    def __init__(self):
        # (start, duration of the timed run, duration of both runs)
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()  # warm-up: absorbs the state the interrupted code left
        middle = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((start, end - middle, end - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def solve_times(self, t0: float, t1: float) -> tuple[float, float]:
        """``(wall seconds, normalized seconds)`` of a solve that ran from
        ``t0`` to ``t1``, without the kernel runs inside it."""
        inside = [total for s, _, total in self.samples if t0 <= s < t1]
        near = [d for s, d, _ in self.samples if t0 - WINDOW_S <= s < t1 + WINDOW_S]
        if not near:  # signals wait for long C calls; use the closest sample
            near = [min(self.samples, key=lambda sample: abs(sample[0] - t0))[1]]
        wall = (t1 - t0) - sum(inside)
        return wall, wall * float(np.mean([NOMINAL_S / d for d in near]))
