"""Regenerate the checked-in baseline results in ``perfbench/baseline/``:
one untraced and one traced run of every workload, seed 0, at the run
length ``BENCHMARK.json`` fixes.  Run from the repository root::

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    out = os.path.join(HERE, "baseline")
    os.makedirs(out, exist_ok=True)
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            results = os.path.join(out, f"{workload}-trace{trace}.json")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace), "--results", results]
            proc = subprocess.run(cmd, cwd=ROOT, timeout=600)
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
