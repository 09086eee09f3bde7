"""Microbenchmarks of single layers, called through klap's public functions
at the workloads' own sizes: n = 8 (rand-small's rand 8x2/4) and n = 64,
128 (rand-large's rand 64x2/1 and 128x2/3), all with m = 2.

Each value is the median time of one call over repeated calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import rand_system

# (n, m, seed) of the systems measured, all workload instances
SIZES = ((8, 2, 4), (64, 2, 1), (128, 2, 3))
# (metric suffix, unit, scale from seconds)
KINDS = (
    ("optimizer.objective", "us", 1e6),
    ("linalg.lyap_diag", "us", 1e6),
    ("linalg.lyap_dense", "us", 1e6),
    ("system.popov_scan", "ms", 1e3),
    ("passivity.solve_are", "ms", 1e3),
)


def metric_names() -> list[tuple[str, str]]:
    return [(f"{kind}_n{n}.{unit}", unit) for n, _, _ in SIZES for kind, unit, _ in KINDS]


def _median_call(fn, min_calls: int, min_seconds: float) -> tuple[float, int]:
    times = []
    deadline = time.perf_counter() + min_seconds
    while len(times) < min_calls or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def run(klap, min_calls: int = 3, min_seconds: float = 0.3) -> dict:
    """``{metric name: (value, samples)}`` for every microbenchmark."""
    out = {}
    for n, m, seed in SIZES:
        sys_ = rand_system(klap, n, m, seed)
        decomp = klap.linalg.spectral_decompose(sys_.A)
        P = klap.system.controllability_gramian(sys_, decomp=decomp)
        M = klap.linalg.sqrtm_psd(sys_.D + sys_.D.T)
        L = np.random.default_rng(seed).standard_normal((n, m))
        point = klap.optimizer.LurePoint(L, M)
        W = L @ L.T
        scan = klap.system.popov_scan(sys_)
        # the feedthrough-shifted system that initialize() builds
        eps = 1e-3 * abs(scan.global_min)
        delta = max(eps, -scan.global_min / 2.0 + eps)
        shifted = sys_.with_feedthrough(sys_.D + delta * np.eye(m))
        calls = {
            "optimizer.objective": lambda: klap.optimizer.objective_and_gradient(
                sys_, P, point, decomp=decomp),
            "linalg.lyap_diag": lambda: klap.linalg.solve_lyapunov(
                sys_.A, W, strategy="diagonalized", decomp=decomp),
            "linalg.lyap_dense": lambda: klap.linalg.solve_lyapunov(sys_.A, W, strategy="dense"),
            "system.popov_scan": lambda: klap.system.popov_scan(sys_),
            "passivity.solve_are": lambda: klap.passivity.solve_are(shifted, "minimal"),
        }
        for kind, unit, scale in KINDS:
            seconds, samples = _median_call(calls[kind], min_calls, min_seconds)
            out[f"{kind}_n{n}.{unit}"] = (seconds * scale, samples)
    return out
