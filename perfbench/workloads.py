"""Instances of the klap benchmark workloads, how each is solved, and the
checks every solve must pass.

Workloads
---------
``bundled-cli``
    The five bundled cases through the in-process CLI
    (``klap.cli.main(["passivate", model, "--out", ..., "--report", ...])``).
    n <= 4: the fixed per-solve cost (Popov scans, Riccati start) dominates,
    and the ``cli`` and ``modelio`` layers are on the path.
``rand-small``
    ``klap(sys)`` with the default configuration on small random systems:
    bound by L-BFGS iterations and restarts, so by the objective/Lyapunov
    kernel and the pure-Python loop.  8x1/2 is already passive (early-exit
    path); 16x1/6 carries the known false ``converged`` claim.
``rand-large``
    ``klap(sys, max_iterations=200, max_restarts=0)`` at n = 64 and 128:
    BLAS-bound O(n^3) evaluations plus a large fixed cost (Riccati Newton
    solve, Popov scans).  The iteration cap keeps the work fixed, and J at
    the cap measures progress per iteration.

Random family "rand n x m / seed": ``A`` drawn standard normal and shifted
to spectral abscissa -0.5, then ``B``, then ``C``, with ``D = 0.05 I``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("bundled-cli", "rand-small", "rand-large")

# (label, reference key, bundled model, extra CLI flags)
BUNDLED_CASES = (
    ("acc", "acc", "acc", ()),
    ("acc/d=0.125", "acc/d=0.125", "acc", ("--feedthrough", "0.125")),
    ("toy-m0", "toy-m0", "toy-m0", ()),
    ("toy-m1", "toy-m1", "toy-m1", ()),
    ("toy-m1/l0=-2,0", "toy-m1", "toy-m1", ("--l0", "-2,0")),
)
RAND_SHAPES = {
    "rand-small": ((6, 1, 2), (8, 1, 1), (8, 1, 2), (8, 2, 4), (8, 4, 3), (16, 1, 6)),
    "rand-large": ((64, 2, 1), (64, 4, 2), (128, 2, 3), (128, 4, 4)),
}
KLAP_OPTIONS = {
    "rand-small": {},
    "rand-large": {"max_iterations": 200, "max_restarts": 0},
}
# the one instance per workload that the smoke mode runs
SMOKE_KEYS = {"bundled-cli": "acc", "rand-small": "rand-6x1/2", "rand-large": "rand-64x2/1"}

#: a claim of convergence or global optimality is false when J exceeds the
#: reference by more than this (relative)
CLAIM_RTOL = 1e-6
#: J recomputed from the returned model must match the reported J to this
J_RTOL = 1e-9


def rand_system(klap, n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    return klap.StateSpaceSystem(A, B, C, 0.05 * np.eye(m))


def bundled_system(klap, model: str, cli_args: tuple):
    """The system the CLI passivates for ``model`` with ``cli_args``."""
    sys_ = klap.load_model_file(klap.benchmark_path(model)).system
    if "--feedthrough" in cli_args:
        d = float(cli_args[cli_args.index("--feedthrough") + 1])
        sys_ = sys_.with_feedthrough(d * np.eye(sys_.m))
    return sys_


@dataclass
class Case:
    """One solve of a workload: its input system and how to run it."""

    key: str
    ref_key: str
    system: object
    model_path: str | None = None
    cli_args: tuple = ()
    options: dict = field(default_factory=dict)


def build(klap, workload: str, instance_seed: int = 0) -> list[Case]:
    """All cases of ``workload``.  ``instance_seed`` shifts every random
    instance seed (0 = the listed instances, the only ones with checked-in
    references); it does not change the bundled cases."""
    if workload == "bundled-cli":
        return [
            Case(label, ref, bundled_system(klap, model, args),
                 model_path=os.fspath(klap.benchmark_path(model)), cli_args=args)
            for label, ref, model, args in BUNDLED_CASES
        ]
    cases = []
    for n, m, seed in RAND_SHAPES[workload]:
        s = seed + instance_seed
        key = f"rand-{n}x{m}/{s}"
        cases.append(Case(key, key, rand_system(klap, n, m, s),
                          options=dict(KLAP_OPTIONS[workload])))
    return cases


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def solve(klap, case: Case, tmpdir: str):
    """Run one case and return its raw output, or the exception it raised.
    The caller times this call; the checks in :func:`check` run outside
    the timed region."""
    if case.model_path is None:
        try:
            return klap.optimizer.klap(case.system, **case.options)
        except Exception as exc:  # a raising solve is counted as failed
            return exc
    stem = os.path.join(tmpdir, case.key.replace("/", "_"))
    out, report = f"{stem}.out.json", f"{stem}.report.json"
    argv = ["passivate", case.model_path, "--out", out, "--report", report, *case.cli_args]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = klap.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code
    except Exception as exc:
        return exc
    return {"code": code, "out": out, "report": report, "stdout": buf.getvalue()}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check(klap, case: Case, raw, ref: dict | None, validator) -> dict:
    """Correctness record of one solve.

    ``errors`` lists hard failures: an exception, a non-zero CLI exit, an
    invalid report, a returned model that is not passive or changes
    ``(A, B, D)``, a reported J that the returned model does not reproduce,
    or a wrong ``passive_input``.  ``false_claim`` is set when the solve
    claims convergence or global optimality while J exceeds the reference
    by more than :data:`CLAIM_RTOL` plus the reference's own uncertainty;
    it counts in ``fail_frac`` as well.  ``ref`` must have passed
    :func:`verify_ref`.
    """
    rec = {"key": case.key, "errors": [], "false_claim": False}
    sys_ = case.system
    if isinstance(raw, BaseException):
        rec["errors"].append(f"raised {type(raw).__name__}: {raw}")
        return rec
    if case.model_path is None:
        res = raw
        out_sys = res.system
        cert = res.certificate
        rec.update(
            J=float(res.J_final), iterations=int(res.iterations), restarts=int(res.restarts),
            converged=bool(res.converged), passive_input=bool(res.passive_input),
            certified=None if cert is None else bool(cert.is_global_candidate),
        )
    else:
        if raw["code"] != 0:
            rec["errors"].append(f"CLI exited {raw['code']}: {raw['stdout'].strip()[-300:]}")
            return rec
        with open(raw["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        problems = [e.message for e in validator.iter_errors(report)]
        if problems:
            rec["errors"].append(f"report fails the schema: {problems[0]}")
            return rec
        out_sys = klap.load_model_file(raw["out"]).system
        cert = report["certificate"]
        rec.update(
            J=float(report["j_final"]), iterations=int(report["iterations"]),
            restarts=int(report["restarts"]), converged=bool(report["converged"]),
            passive_input=bool(report["passive_input"]),
            certified=None if cert is None else bool(cert["is_global_candidate"]),
        )
    if ref is not None and rec["passive_input"] != ref["passive_input"]:
        rec["errors"].append(f"passive_input is {rec['passive_input']}, expected {ref['passive_input']}")
    for name in ("A", "B", "D"):
        if not np.array_equal(getattr(out_sys, name), getattr(sys_, name)):
            rec["errors"].append(f"returned model changed {name}")
    if rec["passive_input"]:
        if not (np.array_equal(out_sys.C, sys_.C) and rec["J"] == 0.0):
            rec["errors"].append("passive input was not returned unchanged")
        return rec
    if not klap.passivity.check_passive(out_sys).passive:
        rec["errors"].append("returned model is not passive")
    J_check = klap.system.h2_error_sq(sys_, out_sys.C)
    if _rel(J_check, rec["J"]) > J_RTOL:
        rec["errors"].append(f"reported J {rec['J']!r} but the model gives {J_check!r}")
    if ref is not None:
        J_ref = ref["J_ref"]
        rec["j_gap"] = (rec["J"] - J_ref) / J_ref
        claims = rec["converged"] or bool(rec["certified"])
        rec["false_claim"] = claims and rec["j_gap"] > CLAIM_RTOL + ref["J_rel_uncertainty"]
    return rec


# ---------------------------------------------------------------------------
# reference optima
# ---------------------------------------------------------------------------

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def j_uncertainty(klap, system, C_hat, J: float) -> float:
    """Relative uncertainty of ``h2_error_sq(system, C_hat) = J``: its
    distance to the same value computed with the dense-strategy Gramian.

    References found in Gramian-normalized coordinates have entries up to
    1e5 times those of ``C`` along nearly uncontrollable directions, so
    ``tr(E P E^T)`` cancels and its rounding error reaches 1e-4 relative
    (rand 16x1/6, 64x2/1); elsewhere it stays near 1e-10.
    """
    P_dense = klap.system.controllability_gramian(system, strategy="dense")
    return _rel(klap.system.h2_error_sq(system, C_hat, P=P_dense), J)


def verify_ref(klap, system, ref: dict) -> list[str]:
    """Re-verify one reference in original coordinates: the stored output
    map makes the system passive (``check_passive``) and reproduces J_ref
    (``h2_error_sq``) to within ``J_RTOL`` plus four times the value's own
    rounding uncertainty (:func:`j_uncertainty`), which is stored in
    ``ref["J_rel_uncertainty"]``.  Returns the problems found."""
    if ref["passive_input"]:
        ok = klap.passivity.check_passive(system).passive
        return [] if ok else ["input recorded as passive is not passive"]
    problems = []
    C_ref = np.asarray(ref["C_hat"], dtype=float).reshape(system.m, system.n)
    if not klap.passivity.check_passive(system.with_output(C_ref)).passive:
        problems.append("reference model is not passive")
    J = klap.system.h2_error_sq(system, C_ref)
    ref["J_rel_uncertainty"] = j_uncertainty(klap, system, C_ref, J)
    if _rel(J, ref["J_ref"]) > J_RTOL + 4.0 * ref["J_rel_uncertainty"]:
        problems.append(f"reference gives J = {J!r}, recorded {ref['J_ref']!r}")
    return problems
