"""The benchmark's microbenchmarks (``perfbench/micro.py``) call klap's
public functions with fixed signatures: ``solve_are(sys, "minimal")``,
``objective_and_gradient(..., decomp=)``, ``solve_lyapunov(...,
strategy="diagonalized", decomp=)`` and ``controllability_gramian(...,
decomp=)``.  One call of each must run and give a finite, positive time."""

import importlib.util
import math
from pathlib import Path

import klap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_microbenchmarks_run_through_the_public_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # micro.py imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_micro", PERFBENCH / "micro.py")
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)

    out = micro.run(klap, min_calls=1, min_seconds=0.0)
    assert sorted(out) == sorted(name for name, _ in micro.metric_names())
    assert len(out) == 15
    for name, (value, samples) in out.items():
        assert math.isfinite(value) and value > 0.0, name
        assert samples == 1, name
