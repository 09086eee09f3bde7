"""Regenerate ``perfbench/refs.json``: the reference optimum J_ref of every
benchmark instance, with the output map that attains it.

Run from the repository root (takes about half an hour on a 2-core machine,
mostly the n = 128 instances)::

    python3 perfbench/make_refs.py

For each non-passive system several runs of ``klap`` are made, and J_ref is
the lowest J among those whose result verifies *in original coordinates*:
the repaired model passes ``check_passive`` and ``h2_error_sq`` reproduces
the value.  The candidates are

``default``
    ``klap(sys)`` as the workload runs it;
``normalized``
    ``klap`` in Gramian-normalized coordinates (a state similarity with
    ``P = I``; J and passivity are invariant), tight tolerances, with and
    without restarts, mapped back with the inverse similarity.  Only for
    n <= 16: at n = 64 the Gramian is numerically singular;
``normalized-floor``
    the same with the Gramian's eigenvalues floored at 1e-10 of the
    largest, for n >= 64, with an iteration cap;
``tight``
    ``klap`` in original coordinates with tight tolerances, no restarts and
    a large iteration cap.

Every candidate is listed in the file with its J, so the choice can be
audited; ``method`` names the winner and ``J_rel_uncertainty`` the rounding
uncertainty of its J (see ``workloads.j_uncertainty``).
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as the benchmark runs

import numpy as np  # noqa: E402

import klap  # noqa: E402
import workloads  # noqa: E402

TIGHT = {"obj_rel_tol": 1e-14, "grad_tol": 1e-12}


def _normalizing_similarity(system, floor: float):
    P = klap.controllability_gramian(system)
    s, U = np.linalg.eigh(0.5 * (P + P.T))
    s = np.maximum(s, floor * s.max())
    return U * np.sqrt(s), (U / np.sqrt(s)).T


def _normalized_run(system, floor: float, **options):
    T, Tinv = _normalizing_similarity(system, floor)
    sys_n = klap.StateSpaceSystem(Tinv @ system.A @ T, Tinv @ system.B, system.C @ T, system.D)
    return klap.klap(sys_n, **options).C_hat @ Tinv


def _candidates(system, options: dict):
    n = system.n
    yield "default", lambda: klap.klap(system, **options).C_hat
    if n <= 16:
        for restarts in (0, 5):
            yield (f"normalized, max_restarts={restarts}, obj_rel_tol=1e-14, grad_tol=1e-12",
                   lambda r=restarts: _normalized_run(system, 0.0, max_restarts=r, **TIGHT))
        yield ("tight, max_restarts=0, obj_rel_tol=1e-14, grad_tol=1e-12",
               lambda: klap.klap(system, max_restarts=0, **TIGHT).C_hat)
    else:
        yield ("normalized-floor 1e-10, max_restarts=0, max_iterations=5000, obj_rel_tol=1e-14",
               lambda: _normalized_run(system, 1e-10, max_restarts=0, max_iterations=5000, **TIGHT))
        yield ("tight, max_restarts=0, max_iterations=20000, obj_rel_tol=1e-14, grad_tol=1e-12",
               lambda: klap.klap(system, max_restarts=0, max_iterations=20000, **TIGHT).C_hat)


def reference(system, key: str, options: dict) -> dict:
    if klap.check_passive(system).passive:
        return {"passive_input": True, "method": "input is passive (check_passive)"}
    tried, best = [], None
    for method, run in _candidates(system, options):
        start = time.perf_counter()
        try:
            C_hat = np.asarray(run(), dtype=float)
        except Exception as exc:  # a failed candidate is recorded, not fatal
            tried.append({"method": method, "error": f"{type(exc).__name__}: {exc}"})
            continue
        J = klap.h2_error_sq(system, C_hat)
        entry = {"method": method, "J": J, "seconds": round(time.perf_counter() - start, 2)}
        cand = {"passive_input": False, "J_ref": J, "C_hat": C_hat.ravel().tolist()}
        entry["verified"] = not workloads.verify_ref(klap, system, cand)
        tried.append(entry)
        print(f"  {key}: {method}: J={J!r} verified={entry['verified']} "
              f"({entry['seconds']} s)", flush=True)
        if entry["verified"] and (best is None or J < best[1]["J_ref"]):
            best = (method, cand)
    if best is None:
        raise SystemExit(f"{key}: no candidate verified")
    method, cand = best
    return {"passive_input": False, "J_ref": cand["J_ref"], "method": method,
            "J_rel_uncertainty": cand["J_rel_uncertainty"],
            "candidates": tried, "C_hat": cand["C_hat"]}


def main() -> None:
    out = {}
    for workload in workloads.WORKLOADS:
        for case in workloads.build(klap, workload):
            if case.ref_key in out:
                continue
            out[case.ref_key] = reference(case.system, case.ref_key, case.options)
            print(f"{case.ref_key}: J_ref={out[case.ref_key].get('J_ref')!r}", flush=True)
    doc = {
        "about": "Reference optima per instance; regenerate with "
                 "`python3 perfbench/make_refs.py`.  See that script for the methods.",
        "instances": out,
    }
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
