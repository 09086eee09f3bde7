"""Bundled benchmark systems.

Three small non-passive models used throughout the test suite, the
documentation and the benchmark harness:

* ``acc`` — the 4-state, single-input ACC benchmark system.  Natively
  feedthrough-free; adding ``D = 1/8`` creates a non-global local
  minimum of the passivation objective that random starts hit roughly
  40% of the time, which makes it the standard exercise for the restart
  strategy.
* ``toy-m0`` — a 2-state oscillator with ``D = 0``.  With a
  skew-symmetric feedthrough every stationary point of the objective is
  a global optimum, so runs from any start agree.
* ``toy-m1`` — the same dynamics with ``D = 1/8``, small enough that
  the objective landscape (one global and one non-global stationary
  point) is known in closed form.

Each benchmark also ships as a JSON model file (see
:func:`benchmark_path`), which the command-line tool passivates like any
other model file, e.g.
``klap passivate src/klap/data/models/acc.json --feedthrough 0.125 --out acc.passive.json``.
"""

from __future__ import annotations

from importlib.resources import files

import numpy as np

from .system import StateSpaceSystem

__all__ = [
    "BENCHMARK_NAMES",
    "acc_system",
    "toy_system",
    "benchmark_system",
    "benchmark_path",
]

BENCHMARK_NAMES = ("acc", "toy-m0", "toy-m1")


def acc_system(feedthrough: float = 0.0) -> StateSpaceSystem:
    """The 4-state ACC benchmark system, optionally with a scalar
    feedthrough (the standard passivation exercise uses ``1/8``)."""
    A = np.array(
        [
            [-0.25, 1.0, 0.0, 0.0],
            [0.0, -0.25, 1.0, 0.0],
            [0.0, 0.0, -0.25, 1.0],
            [0.0, 0.0, -2.0, -0.25],
        ]
    )
    B = np.array([[0.0], [0.0], [0.0], [1.0]])
    C = np.array([[1.0, 0.0, 0.0, 0.0]])
    return StateSpaceSystem(A, B, C, [[float(feedthrough)]])


def toy_system(feedthrough: float = 0.0) -> StateSpaceSystem:
    """The 2-state oscillator benchmark, optionally with a scalar
    feedthrough (``1/8`` gives the two-stationary-point landscape)."""
    A = np.array([[-1.0, 4.0], [-2.0, -1.0]])
    B = np.array([[1.0], [2.0]])
    C = np.array([[1.0, 0.0]])
    return StateSpaceSystem(A, B, C, [[float(feedthrough)]])


def benchmark_system(name: str) -> StateSpaceSystem:
    """Benchmark system by name (one of :data:`BENCHMARK_NAMES`)."""
    if name == "acc":
        return acc_system()
    if name == "toy-m0":
        return toy_system()
    if name == "toy-m1":
        return toy_system(0.125)
    raise ValueError(f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}")


def benchmark_path(name: str):
    """Path-like handle of the shipped JSON model file for ``name``."""
    if name not in BENCHMARK_NAMES:
        raise ValueError(f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}")
    return files("klap").joinpath(f"data/models/{name}.json")
