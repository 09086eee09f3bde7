#!/usr/bin/env python3
"""klap benchmark: end-to-end and per-layer metrics of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload rand-small --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``bundled-cli``, ``rand-small`` and
``rand-large``.  One process runs the workload, with BLAS limited to one
thread (so runs are repeatable and do not compete for cores).  It first
verifies the checked-in reference optima of the workload's instances, then
solves every instance once per *pass*, in an
order drawn from ``--seed``, and repeats passes for ``--seconds``.  Every
solve is checked (``workloads.check``) outside the timed region.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones: each of its passes solves every instance twice, once untraced and once
traced (``tracing.py`` wraps the layers' module attributes and records
spans), in alternating order, and it then runs the
microbenchmarks (``micro.py``).  Both print every metric by name, unit and
sample count, write a results file (``perfbench/out/`` by default) with the
environment, every solve's record and the metrics, and print as the last
line a JSON object with the metrics that ``BENCHMARK.json`` names.

End-to-end metrics (untraced passes):
  pass_wall_s    median wall time of one pass (solves only, checks excluded)
  pass_s         the same, each solve normalized to a nominal machine speed
                 sampled while it runs (``speed.py``): on a shared machine
                 the wall time drifts by a third between runs
  setup_wall_s   median, over separate processes, of the time from before
                 ``import klap`` until all inputs are built or located
  setup_s        the same, normalized to nominal speed
  peak_rss_mb    peak resident memory of this process
  iterations     accepted L-BFGS iterations of one pass
  restarts       restarts of one pass
  j_gap          max over non-passive instances of (J - J_ref) / J_ref
  j_ratio        max over non-passive instances of J / J_ref (= 1 + j_gap)
  certified_frac share of non-passive solves whose certificate says global
  fail_frac      share of solves that failed a check or claimed
                 convergence / global optimality with J above J_ref
  solved_frac    1 - fail_frac
Per-layer metrics (traced passes, medians over passes; the prefix before
the first dot is the layer, i.e. the klap module): ``<layer>.calls`` and
``<layer>.self_s`` per pass, ``optimizer.evals_per_iter``,
``optimizer.lbfgs.improved_frac``, the microbenchmarks, and
``trace.overhead_frac``: the median over solves of traced over untraced
normalized time of the same instance in the same pass, minus 1 (the
quartiles of these ratios are recorded too).

Determinism: iteration and restart counts and every ``*.calls`` count must
repeat exactly between passes (and, with ``--expect``, against an earlier
results file of the same code, i.e. the same hash of ``src/klap`` and of
the benchmark's own code); a mismatch is an error, not averaged.
``--smoke`` runs one instance for one pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.resources import files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# as workloads.WORKLOADS, which cannot be imported before the BLAS thread
# count is set: it imports numpy
WORKLOADS = ("bundled-cli", "rand-small", "rand-large")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 6
MAX_MEASURE_SECONDS = 150.0  # keeps a run well inside its 180 s limit

E2E_UNITS = {
    "pass_s": "s", "pass_wall_s": "s", "setup_s": "s", "setup_wall_s": "s",
    "peak_rss_mb": "MB", "iterations": "count", "restarts": "count", "j_gap": "ratio",
    "j_ratio": "ratio", "certified_frac": "ratio", "fail_frac": "ratio", "solved_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="orders the instances in each pass")
    p.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one instance, one pass")
    p.add_argument("--instance-seed", type=int, default=0,
                   help="shift of the random instance seeds; only 0 has reference optima")
    p.add_argument("--results", default=None, help="results file (default perfbench/out/...)")
    p.add_argument("--expect", default=None,
                   help="results file of an earlier run whose counts must repeat")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def check_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "klap", "__init__.py")):
        raise BenchError(f"klap sources not found under {SRC}")


def import_klap():
    check_sources()
    sys.path.insert(0, SRC)
    import klap
    import klap.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(klap.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported klap from {klap.__file__}, not from {SRC}")
    return klap


def setup_probe(args) -> None:
    """Time ``import klap`` plus building the inputs, in this process."""
    start = time.perf_counter()
    klap = import_klap()
    import workloads

    workloads.build(klap, args.workload, args.instance_seed)
    seconds = time.perf_counter() - start
    import speed

    print(json.dumps([seconds, speed.normalize(seconds, speed.calibrate())]))


def measure_setup(args, count: int) -> list[list[float]]:
    """``[wall seconds, normalized seconds]`` of ``count`` set-up probes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--instance-seed", str(args.instance_seed)]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_commit() -> str:
    """HEAD of the repository at ROOT, or "unknown" (e.g. an exported tree)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def code_hash() -> str:
    """SHA-256 over the paths and contents of the files of the klap package
    and the benchmark's own Python files: the code whose counts must
    repeat, committed or not."""
    paths = [os.path.join(d, f) for d, _, names in os.walk(os.path.join(SRC, "klap"))
             for f in names if "__pycache__" not in d.split(os.sep)]
    paths += [os.path.join(HERE, f) for f in os.listdir(HERE) if f.endswith(".py")]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "code_sha256": code_hash(),
    }


def tail_percentile(samples: list[float]):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        k = int(len(ordered) * p / 100)
        if len(ordered) - 1 - k >= 10:
            return f"p{p}", ordered[k]
    return None


def run_passes(args, klap, cases, refs, validator, tracing, workloads):
    """Solve every case once per pass until ``--seconds`` are spent.  When
    traced, a pass solves each case untraced and traced, in alternating
    order, and yields two pass entries, one per mode.  The speed sampler
    runs in both modes alike."""
    import numpy as np

    import speed

    rng = np.random.default_rng(args.seed)
    modes = (False, True) if args.trace else (False,)
    min_passes = 1 if args.smoke or args.trace else 2
    passes = []
    tmpdir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    try:
        # warm-up: lazy imports and first-call set-up are not timed
        workloads.solve(klap, cases[0], tmpdir)
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            tracer = tracing.Tracer() if args.trace else None
            records = {mode: [] for mode in modes}
            spans = {mode: [] for mode in modes}
            sampler = speed.SpeedSampler()
            sampler.start()
            try:
                for j, i in enumerate(rng.permutation(len(cases))):
                    case = cases[i]
                    for traced in modes if j % 2 == 0 else modes[::-1]:
                        if traced:
                            tracer.install()
                        t0 = time.perf_counter()
                        try:
                            raw = workloads.solve(klap, case, tmpdir)
                        finally:
                            t1 = time.perf_counter()
                            if traced:
                                tracer.uninstall()
                        spans[traced].append((t0, t1))
                        records[traced].append(workloads.check(
                            klap, case, raw, refs.get(case.ref_key), validator))
            finally:
                sampler.stop()
            for traced in modes:
                for rec, (t0, t1) in zip(records[traced], spans[traced]):
                    rec["seconds"], rec["norm_seconds"] = sampler.solve_times(t0, t1)
                passes.append({
                    "traced": traced,
                    "seconds": sum(r["seconds"] for r in records[traced]),
                    "norm_seconds": sum(r["norm_seconds"] for r in records[traced]),
                    "records": records[traced],
                    "spans": tracer.spans if traced else None,
                })
            now = time.perf_counter()
            if len(passes) >= min_passes * len(modes) and (
                args.smoke
                or now - start + (now - pass_start) > args.seconds
                or now - start > MAX_MEASURE_SECONDS
            ):
                return passes
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def determinism_errors(passes, layer_calls) -> list[str]:
    errors = []
    seen = {}
    for p in passes:
        for rec in p["records"]:
            counts = (rec.get("iterations"), rec.get("restarts"), rec.get("J"))
            if seen.setdefault(rec["key"], counts) != counts:
                errors.append(f"nondeterministic: {rec['key']} gave (iterations, restarts, J) "
                              f"{counts} after {seen[rec['key']]}")
    for calls in layer_calls[1:]:
        if calls != layer_calls[0]:
            diff = sorted(k for k in calls if calls[k] != layer_calls[0][k])
            errors.append(f"nondeterministic: layer call counts differ between traced passes: {diff}")
    return errors


def expect_errors(path: str, code: str, counts: dict, calls: dict | None) -> list[str]:
    """Counts of an earlier results file that differ from these, when both
    runs measured the same code; otherwise nothing is compared (and a
    notice is printed)."""
    with open(path, encoding="utf-8") as fh:
        earlier = json.load(fh)
    if earlier["env"].get("code_sha256") != code:
        print(f"  counts not compared with {path}: it measured other code")
        return []
    errors = []
    for key, value in counts.items():
        if key in earlier["counts"] and earlier["counts"][key] != value:
            errors.append(f"nondeterministic: {key} counts {value} differ from "
                          f"{earlier['counts'][key]} in {path}")
    if calls is not None and earlier.get("layer_calls") not in (None, calls):
        errors.append(f"nondeterministic: layer call counts differ from {path}")
    return errors


def end_to_end(passes, setup_samples) -> dict:
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    setup_wall, setup_norm = zip(*setup_samples)
    first = passes[0]["records"]
    everything = [r for p in passes for r in p["records"]]
    nonpassive = [r for r in first if r.get("passive_input") is False]
    with_ref = [r for r in nonpassive if "j_gap" in r]
    failed = sum(bool(r["errors"]) or r["false_claim"] for r in everything)
    normalized = [p["norm_seconds"] for p in passes if not p["traced"]]
    m = {
        "pass_s": (statistics.median(normalized), len(normalized)),
        "pass_wall_s": (statistics.median(untraced), len(untraced)),
        "setup_s": (statistics.median(setup_norm), len(setup_norm)),
        "setup_wall_s": (statistics.median(setup_wall), len(setup_wall)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "iterations": (sum(r.get("iterations", 0) for r in first), len(first)),
        "restarts": (sum(r.get("restarts", 0) for r in first), len(first)),
        "certified_frac": (sum(bool(r["certified"]) for r in nonpassive) / max(len(nonpassive), 1),
                           len(nonpassive)),
        "fail_frac": (failed / len(everything), len(everything)),
        "solved_frac": (1.0 - failed / len(everything), len(everything)),
    }
    if with_ref:
        gap = max(r["j_gap"] for r in with_ref)
        m["j_gap"] = (gap, len(with_ref))
        m["j_ratio"] = (1.0 + gap, len(with_ref))
    return m


def overhead_ratios(passes) -> list[float]:
    """Traced over untraced normalized time of each case, both solved in the
    same pass (untraced and traced pass entries alternate)."""
    ratios = []
    for untraced, traced in zip(passes[0::2], passes[1::2]):
        plain = {r["key"]: r["norm_seconds"] for r in untraced["records"]}
        ratios += [r["norm_seconds"] / plain[r["key"]] for r in traced["records"]]
    return ratios


def per_layer(klap, args, passes, summaries, micro) -> tuple[dict, dict]:
    """Medians over the traced passes' summaries (call counts repeat
    exactly, see :func:`determinism_errors`), plus the microbenchmarks."""
    units = {}
    m = {}
    for key in summaries[0]:
        units[key] = "count" if key.endswith(".calls") else "s" if key.endswith("_s") else "ratio"
        values = [s[key] for s in summaries]
        m[key] = (values[0] if key.endswith(".calls") else statistics.median(values), len(values))
    ratios = overhead_ratios(passes)
    m["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, len(ratios))
    units["trace.overhead_frac"] = "ratio"
    smoke = args.smoke
    for name, (value, samples) in micro.run(klap, min_calls=1 if smoke else 3,
                                            min_seconds=0.0 if smoke else 0.3).items():
        m[name] = (value, samples)
    units.update(dict(micro.metric_names()))
    return m, units


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        setup_probe(args)
        return 0
    check_sources()
    if not os.path.isfile(BENCHMARK_JSON):
        raise BenchError(f"{BENCHMARK_JSON} not found")
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    # half the set-up probes before the measurement, half after it, so that
    # their median spans the machine's slow speed changes
    setup_samples = measure_setup(args, 1 if args.smoke else SETUP_PROCESSES // 2)
    klap = import_klap()
    import jsonschema

    import micro
    import tracing
    import workloads

    cases = workloads.build(klap, args.workload, args.instance_seed)
    if args.smoke:
        cases = [c for c in cases if c.key == workloads.SMOKE_KEYS[args.workload]]
    errors = []
    refs = {}
    if args.instance_seed == 0:
        refs = workloads.load_refs()
        for case in cases:
            errors += [f"reference {case.ref_key}: {e}"
                       for e in workloads.verify_ref(klap, case.system, refs[case.ref_key])]
    schema = files("klap").joinpath("data/report_schema.json").read_text(encoding="utf-8")
    validator = jsonschema.Draft7Validator(json.loads(schema))
    env = environment()

    passes = run_passes(args, klap, cases, refs, validator, tracing, workloads)
    if not args.smoke:
        setup_samples += measure_setup(args, SETUP_PROCESSES - SETUP_PROCESSES // 2)

    metrics = end_to_end(passes, setup_samples)
    units = dict(E2E_UNITS)
    layer_calls = []
    if args.trace:
        summaries = [tracing.summarize(p["spans"]) for p in passes if p["traced"]]
        layer_calls = [{k: v for k, v in s.items() if k.endswith(".calls")} for s in summaries]
        layer_metrics, layer_units = per_layer(klap, args, passes, summaries, micro)
        metrics.update(layer_metrics)
        units.update(layer_units)
    errors += determinism_errors(passes, layer_calls)
    counts = {r["key"]: [r.get("iterations"), r.get("restarts")] for r in passes[0]["records"]}
    if args.expect:
        errors += expect_errors(args.expect, env["code_sha256"], counts,
                                layer_calls[0] if layer_calls else None)
    errors += [f"{r['key']}: {e}" for p in passes for r in p["records"] for e in r["errors"]]
    claims = sorted({r["key"] for p in passes for r in p["records"] if r["false_claim"]})

    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    results_path = args.results or os.path.join(OUT_DIR, f"{stem}.json")
    spans_path = None
    if args.trace:
        spans_path = os.path.splitext(results_path)[0] + ".spans.tsv"
        tracing.write_spans([p["spans"] for p in passes if p["traced"]], spans_path)
    results = {
        "workload": args.workload,
        "args": {**vars(args), "results": os.path.relpath(results_path, ROOT),
                 "expect": args.expect and os.path.relpath(args.expect, ROOT)},
        "env": env,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "pass_seconds": {"untraced": [p["seconds"] for p in passes if not p["traced"]],
                         "untraced_normalized": [p["norm_seconds"] for p in passes
                                                 if not p["traced"]],
                         "traced": [p["seconds"] for p in passes if p["traced"]]},
        "pass_s_tail": tail_percentile([p["norm_seconds"] for p in passes if not p["traced"]]),
        "trace_overhead_ratios": overhead_ratios(passes) if args.trace else None,
        "setup_seconds": dict(zip(("wall", "normalized"), map(list, zip(*setup_samples)))),
        "counts": counts,
        "layer_calls": layer_calls[0] if layer_calls else None,
        "false_claims": claims,
        "errors": errors,
        "references": {c.ref_key: {k: refs[c.ref_key].get(k)
                                   for k in ("J_ref", "J_rel_uncertainty", "method")}
                       for c in cases if c.ref_key in refs},
        "records": [p["records"] for p in passes],
        "spans_file": spans_path and os.path.relpath(spans_path, ROOT),
    }
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"instances {len(cases)}  passes {len(passes)}  commit {env['git_commit'][:12]}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]:<6} samples={samples}")
    tail = results["pass_s_tail"]
    print(f"  pass_s tail: {'n/a (fewer than 20 passes)' if tail is None else f'{tail[0]} {tail[1]:.6g} s'}")
    if args.trace:
        ratios = results["trace_overhead_ratios"]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        print(f"  trace.overhead_frac quartiles: {q1 - 1.0:.4g} .. {q3 - 1.0:.4g} "
              f"over {len(ratios)} solves")
    for key in claims:
        print(f"  false convergence/global claim: {key}")
    for e in errors:
        print(f"  ERROR {e}")
    print(f"  results {os.path.relpath(results_path, ROOT)}")

    selected = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in selected if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured in this run: {', '.join(missing)}")
    line = {
        "correct": not errors,
        "attempted": sum(len(p["records"]) for p in passes),
        "failed": sum(bool(r["errors"]) for p in passes for r in p["records"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in selected},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
