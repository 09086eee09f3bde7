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

Each benchmark is defined once, by its shipped JSON model file (see
:func:`benchmark_path`); the constructors here read that file.  The
command-line tool passivates it like any other model file, e.g.
``klap passivate src/klap/data/models/acc.json --feedthrough 0.125 --out acc.passive.json``.
"""

from __future__ import annotations

from importlib.resources import files

from .modelio import load_model_file
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
    return benchmark_system("acc").with_feedthrough([[float(feedthrough)]])


def toy_system(feedthrough: float = 0.0) -> StateSpaceSystem:
    """The 2-state oscillator benchmark, optionally with a scalar
    feedthrough (``1/8`` gives the two-stationary-point landscape)."""
    return benchmark_system("toy-m0").with_feedthrough([[float(feedthrough)]])


def benchmark_system(name: str) -> StateSpaceSystem:
    """Benchmark system by name (one of :data:`BENCHMARK_NAMES`), read
    from its shipped model file."""
    return load_model_file(benchmark_path(name)).system


def benchmark_path(name: str):
    """Path-like handle of the shipped JSON model file for ``name``."""
    if name not in BENCHMARK_NAMES:
        raise ValueError(f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}")
    return files("klap").joinpath(f"data/models/{name}.json")
