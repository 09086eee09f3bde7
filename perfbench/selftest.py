"""Tests of the benchmark itself (not of klap).  Run from the repository
root; takes about a minute::

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` is well formed and names only metrics ``run.py`` makes.
* Smoke mode (one instance per workload, one pass) prints a last line with
  exactly the keys the contract names and every selected metric with its
  unit, and its results file holds every named metric with a unit.
* A second smoke run of the same code repeats every count (``--expect``),
  and counts are compared only between runs of the same code.
* Every checked-in reference optimum re-verifies in original coordinates.
* Without the klap sources next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import micro  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# every metric the benchmark promises, in the results file of a traced run
NAMED = (
    list(run.E2E_UNITS)
    + [f"{layer}.{kind}" for layer in tracing.LAYERS for kind in ("calls", "self_s")]
    + ["optimizer.evals_per_iter", "optimizer.lbfgs.improved_frac", "trace.overhead_frac"]
    + [name for name, _ in micro.metric_names()]
)


def bench_run(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class BenchmarkJson(unittest.TestCase):
    def test_contract(self):
        with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(m["unit"], run.E2E_UNITS[m["name"]])
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in bench["end_to_end"])},
                      bench["end_to_end"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["name"], NAMED)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))


class References(unittest.TestCase):
    def test_every_reference_verifies(self):
        klap = run.import_klap()
        refs = workloads.load_refs()
        for workload in workloads.WORKLOADS:
            for case in workloads.build(klap, workload):
                with self.subTest(case=case.key):
                    self.assertEqual(workloads.verify_ref(klap, case.system, refs[case.ref_key]), [])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
            cls.bench = json.load(fh)
        os.makedirs(OUT, exist_ok=True)

    def _smoke(self, workload: str, trace: int, seed: int, expect: str | None = None):
        results = os.path.join(OUT, f"selftest-{workload}-trace{trace}-seed{seed}.json")
        argv = ["--workload", workload, "--trace", str(trace), "--seed", str(seed),
                "--seconds", "1", "--smoke", "--results", results]
        if expect:
            argv += ["--expect", expect]
        proc = bench_run(*argv)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], proc.stdout)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        selected = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(line["metrics"]), {m["name"] for m in selected})
        for m in selected:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        printed = proc.stdout.strip().splitlines()[:-1]
        for name in line["metrics"]:
            self.assertTrue(any(row.split()[:1] == [name] and "samples=" in row
                                for row in printed), name)
        return results

    def test_smoke_and_determinism(self):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first = self._smoke(workload, trace, seed=0)
                    with open(first, encoding="utf-8") as fh:
                        results = json.load(fh)
                    wanted = NAMED if trace else list(run.E2E_UNITS)
                    for name in wanted:
                        self.assertIn(name, results["metrics"])
                        self.assertRegex(results["metrics"][name]["unit"], UNIT)
                    self.assertEqual(results["errors"], [])
                    # same commit, another seed: every count must repeat
                    self._smoke(workload, trace, seed=1, expect=first)


class Expect(unittest.TestCase):
    def test_counts_compared_only_for_the_same_code(self):
        earlier = {"env": {"code_sha256": "abc"}, "counts": {"acc": [96, 1]},
                   "layer_calls": {"cli.main.calls": 5}}
        fd, path = tempfile.mkstemp(suffix=".json", dir=OUT)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(earlier, fh)
            same = run.expect_errors(path, "abc", {"acc": [96, 1]}, {"cli.main.calls": 5})
            self.assertEqual(same, [])
            changed = run.expect_errors(path, "abc", {"acc": [97, 1]}, {"cli.main.calls": 6})
            self.assertEqual(len(changed), 2)
            other_code = run.expect_errors(path, "def", {"acc": [97, 1]}, None)
            self.assertEqual(other_code, [])
        finally:
            os.remove(path)


class WithoutSources(unittest.TestCase):
    def test_fails_without_result(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
        try:
            shutil.copy(run.BENCHMARK_JSON, bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench_run("--workload", "rand-small", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
