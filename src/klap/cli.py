"""Command-line front end.

``klap`` exposes five subcommands::

    klap check MODEL         passivity verdict (exit 0 passive, 1 not)
    klap passivate MODEL     H2-optimal passivation; writes model + report
    klap popov MODEL         Popov-function frequency sweep as CSV
    klap h2 MODEL MODEL      H2 distance between two models
    klap bench NAME          run a bundled benchmark end to end

Exit codes follow a scripting-friendly contract: 0 success (for
``check``: passive), 1 not passive, 2 any error (including a passivation
run that failed to converge — its partial results are still written).
All randomness is seeded (``--seed``, default 0), so every command is
reproducible.  Set ``KLAP_LOG=debug`` or ``KLAP_LOG=info`` for progress
logging on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import re
import sys
import time
from dataclasses import replace
from importlib.resources import as_file

import numpy as np

from . import __version__
from .benchmarks import BENCHMARK_NAMES, benchmark_path
from .exceptions import KlapError
from .modelio import load_model_file, write_model
from .optimizer import KlapConfig, KlapResult, klap
from .passivity import check_passive
from .system import (
    StateSpaceSystem,
    controllability_gramian,
    default_popov_grid,
    h2_error_sq,
    popov_eval,
    popov_scan,
)

__all__ = ["main"]

_log = logging.getLogger(__name__)


def _configure_logging() -> None:
    level_name = os.environ.get("KLAP_LOG", "").strip().lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _add_grid_arguments(parser: argparse.ArgumentParser, points_default: int = 500) -> None:
    parser.add_argument("--wmin", type=float, default=None, help="lowest scan frequency")
    parser.add_argument("--wmax", type=float, default=None, help="highest scan frequency")
    parser.add_argument(
        "--points", type=int, default=points_default,
        help=f"number of scan frequencies (default {points_default})",
    )


def _grid_from_args(sys_: StateSpaceSystem, args: argparse.Namespace) -> np.ndarray:
    if args.wmin is not None and args.wmax is not None and args.wmin >= args.wmax:
        raise _UsageError(f"--wmin must be below --wmax (got {args.wmin} >= {args.wmax})")
    if args.points < 1:
        raise _UsageError("--points must be at least 1")
    if args.points == 1:
        w = args.wmin if args.wmin is not None else args.wmax
        return np.array([1.0 if w is None else float(w)])
    return default_popov_grid(sys_, points=args.points, wmin=args.wmin, wmax=args.wmax)


class _UsageError(Exception):
    """Bad flag combination; reported like an argparse error (exit 2)."""


def _load(path: str, feedthrough: float | None):
    mf = load_model_file(path)
    sys_ = mf.system
    if feedthrough is not None:
        sys_ = sys_.with_feedthrough(float(feedthrough) * np.eye(sys_.m))
    return mf, sys_


@contextlib.contextmanager
def _output_stream(path: str | None):
    """``path`` = None or "-" yields stdout, else opens the file (LF endings)."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_csv(fh, header: list[str], rows) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_trace(path: str, result: KlapResult) -> None:
    with _output_stream(path) as fh:
        fh.write("iteration,j,grad_norm\n")
        for k, (j, g) in enumerate(result.trace):
            fh.write(f"{k},{j!r},{g!r}\n")


def _config_from_args(args: argparse.Namespace) -> KlapConfig:
    cfg = KlapConfig(rng_seed=args.seed)
    overrides = {}
    for attr, field_name in (
        ("grad_tol", "grad_tol"),
        ("obj_tol", "obj_rel_tol"),
        ("alpha", "restart_alpha"),
        ("eps", "init_margin"),
        ("max_restarts", "max_restarts"),
        ("max_iterations", "max_iterations"),
        ("init", "init"),
        ("points", "popov_points"),
        ("wmin", "popov_wmin"),
        ("wmax", "popov_wmax"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field_name] = value
    L0 = getattr(args, "l0", None)
    if L0 is not None:
        overrides["L0"] = L0
    try:
        return replace(cfg, **overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_factor(text: str, n: int, m: int) -> np.ndarray:
    tokens = [t for t in text.replace(",", " ").split() if t]
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise _UsageError(f"--init: invalid number in {text!r}") from exc
    if len(values) != n * m:
        raise _UsageError(
            f"--init: expected {n * m} values for an {n}x{m} factor, got {len(values)}"
        )
    return np.array(values).reshape(n, m)


def _certificate_status(result: KlapResult) -> str:
    if result.passive_input:
        return "passive-input"
    cert = result.certificate
    if cert is None:
        return "none"
    if not cert.is_global_candidate:
        return "not-global"
    return "global (every stationary point)" if cert.vacuous else "global"


def _report_dict(
    input_path: str,
    output_path: str | None,
    name: str | None,
    sys_: StateSpaceSystem,
    cfg: KlapConfig,
    result: KlapResult,
    margin_after: float,
    wall_seconds: float,
) -> dict:
    cert = result.certificate
    return {
        "input": input_path,
        "output": output_path,
        "name": name,
        "n": sys_.n,
        "m": sys_.m,
        "config": {
            "grad_tol": cfg.grad_tol,
            "obj_rel_tol": cfg.obj_rel_tol,
            "restart_alpha": cfg.restart_alpha,
            "restart_axis_tol": cfg.restart_axis_tol,
            "init_margin": cfg.init_margin,
            "max_iterations": cfg.max_iterations,
            "max_restarts": cfg.max_restarts,
            "lbfgs_memory": cfg.lbfgs_memory,
            "popov_points": cfg.popov_points,
            "init": "given" if cfg.L0 is not None else cfg.init,
            "rng_seed": cfg.rng_seed,
        },
        "passive_input": result.passive_input,
        "converged": result.converged,
        "iterations": result.iterations,
        "restarts": result.restarts,
        "j_final": result.J_final,
        "h2_error": result.h2_error,
        "initial_j": result.initial_J,
        "delta": result.delta,
        "popov_min": result.popov_min,
        "popov_margin_before": result.popov_min,
        "popov_margin_after": margin_after,
        "certificate": None
        if cert is None
        else {
            "is_global_candidate": cert.is_global_candidate,
            "max_abs_real": cert.max_abs_real,
            "tolerance": cert.tolerance,
            "vacuous": cert.vacuous,
        },
        "wall_seconds": wall_seconds,
        "seconds_per_iteration": (
            wall_seconds / result.iterations if result.iterations > 0 else None
        ),
        "message": result.message,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    _, sys_ = _load(args.model, args.feedthrough)
    explicit_grid = args.wmin is not None or args.wmax is not None or args.points != 500
    grid = _grid_from_args(sys_, args) if explicit_grid else None
    verdict = check_passive(sys_, tol=args.tol, method=args.method, grid=grid)
    line = (
        f"{'passive' if verdict.passive else 'not passive'} "
        f"(margin {verdict.margin:.6e}, method {verdict.method})"
    )
    if args.csv is not None:
        scan = popov_scan(sys_, _grid_from_args(sys_, args))
        print(line, file=sys.stderr if args.csv == "-" else sys.stdout)
        with _output_stream(args.csv) as fh:
            _write_csv(
                fh, ["omega", "lambda_min"],
                zip(scan.frequencies, scan.min_eigenvalues),
            )
    else:
        print(line)
    return 0 if verdict.passive else 1


def _cmd_passivate(args: argparse.Namespace) -> int:
    mf, sys_ = _load(args.model, args.feedthrough)
    if args.l0 is not None:
        args.l0 = _parse_factor(args.l0, sys_.n, sys_.m)
    cfg = _config_from_args(args)

    start = time.perf_counter()
    result = klap(sys_, cfg)
    wall = time.perf_counter() - start

    stem, _ = os.path.splitext(args.model)
    out_path = args.out or f"{stem}.passive.json"
    report_path = args.report or f"{os.path.splitext(out_path)[0]}.report.json"
    out_name = f"{mf.name}-passive" if mf.name else None
    write_model(result.system, out_path, name=out_name)

    margin_after = popov_scan(result.system, _grid_from_args(result.system, args)).global_min
    report = _report_dict(
        args.model, out_path, mf.name, sys_, cfg, result, margin_after, wall
    )
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    if args.trace is not None:
        _write_trace(args.trace, result)

    print(f"h2 error            {result.h2_error:.6e}  (squared: {result.J_final:.6e})")
    print(f"iterations          {result.iterations}  (restarts: {result.restarts})")
    print(f"certificate         {_certificate_status(result)}")
    print(f"popov margin        {result.popov_min:.3e} -> {margin_after:.3e}")
    print(f"wall time           {wall:.3f} s")
    print(f"passivated model    {out_path}")
    print(f"run report          {report_path}")
    if not result.converged:
        print(f"error: run did not converge: {result.message}", file=sys.stderr)
        return 2
    return 0


def _cmd_popov(args: argparse.Namespace) -> int:
    _, sys_ = _load(args.model, args.feedthrough)
    grid = _grid_from_args(sys_, args)
    scan = popov_scan(sys_, grid)
    if args.per_eigenvalue:
        header = ["omega", "lambda_min"] + [f"lambda_{k + 1}" for k in range(sys_.m)]
        rows = []
        for w, lam_min in zip(scan.frequencies, scan.min_eigenvalues):
            eigs = np.linalg.eigvalsh(popov_eval(sys_, w))
            rows.append([w, lam_min, *eigs])
    else:
        header = ["omega", "lambda_min"]
        rows = zip(scan.frequencies, scan.min_eigenvalues)
    with _output_stream(args.out) as fh:
        _write_csv(fh, header, rows)
    _log.info(
        "popov minimum %.6e at omega = %.6e", scan.global_min, scan.argmin_frequency
    )
    return 0


def _matrices_match(X: np.ndarray, Y: np.ndarray, tol: float = 1e-10) -> bool:
    if X.shape != Y.shape:
        return False
    return float(np.max(np.abs(X - Y), initial=0.0)) <= tol * max(
        1.0, float(np.max(np.abs(X), initial=0.0))
    )


def _cmd_h2(args: argparse.Namespace) -> int:
    _, sys_a = _load(args.model_a, None)
    _, sys_b = _load(args.model_b, None)
    if sys_a.m != sys_b.m:
        print(
            f"error: models have different input/output counts "
            f"({sys_a.m} vs {sys_b.m}); no H2 distance is defined",
            file=sys.stderr,
        )
        return 2
    if not _matrices_match(sys_a.D, sys_b.D):
        print(
            "error: feedthrough matrices differ, so the error system is not "
            "strictly proper and the H2 distance is infinite",
            file=sys.stderr,
        )
        return 2
    same_realization = (
        sys_a.n == sys_b.n
        and _matrices_match(sys_a.A, sys_b.A)
        and _matrices_match(sys_a.B, sys_b.B)
    )
    if same_realization:
        j = h2_error_sq(sys_a, sys_b.C)
    elif args.general:
        # realize the difference of the two transfer functions on the
        # block-diagonal joint state space and take its exact H2 norm
        n_a, n_b = sys_a.n, sys_b.n
        A_err = np.block(
            [
                [sys_a.A, np.zeros((n_a, n_b))],
                [np.zeros((n_b, n_a)), sys_b.A],
            ]
        )
        B_err = np.vstack([sys_a.B, sys_b.B])
        C_err = np.hstack([sys_a.C, -sys_b.C])
        err_sys = StateSpaceSystem(A_err, B_err, C_err, np.zeros((sys_a.m, sys_a.m)))
        P = controllability_gramian(err_sys)
        j = float(np.trace(C_err @ P @ C_err.T))
    else:
        print(
            "error: models are different realizations (A or B differ); "
            "pass --general to compare transfer functions directly",
            file=sys.stderr,
        )
        return 2
    j = max(float(j), 0.0)
    print(f"h2_error_squared = {j!r}")
    print(f"h2_error = {float(np.sqrt(j))!r}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    with as_file(benchmark_path(args.name)) as path:
        mf, sys_ = _load(os.fspath(path), args.feedthrough)
    if args.init_factor is not None:
        args.l0 = _parse_factor(args.init_factor, sys_.n, sys_.m)
    cfg = _config_from_args(args)

    start = time.perf_counter()
    result = klap(sys_, cfg)
    wall = time.perf_counter() - start
    per_iter = wall / result.iterations if result.iterations else float("nan")

    header = f"{'model':<8} {'iterations':>10} {'time (s)':>10} {'time/iter (s)':>13} {'h2-error':>12} {'restarts':>8}  certificate"
    row = (
        f"{args.name:<8} {result.iterations:>10d} {wall:>10.2e} {per_iter:>13.2e} "
        f"{result.h2_error:>12.4e} {result.restarts:>8d}  {_certificate_status(result)}"
    )
    print(header)
    print(row)
    print(f"J (squared h2 error) = {result.J_final!r}")
    if result.C_hat.size <= 16:
        with np.printoptions(precision=6, suppress=True):
            print(f"C_hat = {result.C_hat}")

    if args.out is not None:
        write_model(result.system, args.out, name=f"{args.name}-passive")
    if args.report is not None:
        margin_after = popov_scan(result.system).global_min
        report = _report_dict(
            f"bench:{args.name}", args.out, mf.name, sys_, cfg, result,
            margin_after, wall,
        )
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
            fh.write("\n")
    if args.trace is not None:
        _write_trace(args.trace, result)
    if not result.converged:
        print(f"error: run did not converge: {result.message}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klap",
        description="H2-optimal passivation of LTI state-space models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    def add_optimizer_flags(p):
        p.add_argument("--grad-tol", dest="grad_tol", type=float, default=None,
                       help="gradient-norm stopping tolerance")
        p.add_argument("--obj-tol", dest="obj_tol", type=float, default=None,
                       help="relative objective-change stopping tolerance")
        p.add_argument("--alpha", type=float, default=None,
                       help="restart gradient-step size")
        p.add_argument("--eps", type=float, default=None,
                       help="strict-passivation margin of the initialization")
        p.add_argument("--max-restarts", dest="max_restarts", type=int, default=None)
        p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
        p.add_argument("--trace", default=None, metavar="CSV",
                       help="write the per-iteration (J, grad-norm) log as CSV")

    p_check = sub.add_parser("check", help="decide passivity of a model file")
    p_check.add_argument("model")
    p_check.add_argument("--method", choices=["auto", "hamiltonian", "popov-scan"],
                         default="auto")
    p_check.add_argument("--tol", type=float, default=1e-8,
                         help="relative margin tolerance (default 1e-8)")
    p_check.add_argument("--feedthrough", type=float, default=None,
                         help="replace D by this scalar times the identity")
    p_check.add_argument("--csv", default=None, metavar="FILE",
                         help="also write the Popov scan as CSV ('-' for stdout)")
    _add_grid_arguments(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_pass = sub.add_parser("passivate", help="replace C by the closest passivating map")
    p_pass.add_argument("model")
    p_pass.add_argument("--out", default=None, help="output model path (default: *.passive.json)")
    p_pass.add_argument("--report", default=None,
                        help="run-report JSON path (default: alongside the output model)")
    p_pass.add_argument("--feedthrough", type=float, default=None,
                        help="replace D by this scalar times the identity before passivating")
    p_pass.add_argument("--init", choices=["are", "random"], default=None,
                        help="initialization mode (default: are)")
    p_pass.add_argument("--l0", default=None, metavar="VALUES",
                        help="explicit starting factor, comma-separated row-major values")
    add_seed(p_pass)
    add_optimizer_flags(p_pass)
    _add_grid_arguments(p_pass)
    p_pass.set_defaults(func=_cmd_passivate)

    p_popov = sub.add_parser("popov", help="sample the Popov function over a frequency grid")
    p_popov.add_argument("model")
    p_popov.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_popov.add_argument("--feedthrough", type=float, default=None,
                         help="replace D by this scalar times the identity")
    p_popov.add_argument("--per-eigenvalue", action="store_true",
                         help="add one column per Popov eigenvalue")
    _add_grid_arguments(p_popov)
    p_popov.set_defaults(func=_cmd_popov)

    p_h2 = sub.add_parser("h2", help="H2 distance between two models")
    p_h2.add_argument("model_a")
    p_h2.add_argument("model_b")
    p_h2.add_argument("--general", action="store_true",
                      help="allow different realizations (A, B may differ)")
    p_h2.set_defaults(func=_cmd_h2)

    p_bench = sub.add_parser("bench", help="run a bundled benchmark end to end")
    p_bench.add_argument("name", choices=list(BENCHMARK_NAMES))
    p_bench.add_argument("--feedthrough", type=float, default=None,
                         help="replace D by this scalar times the identity")
    p_bench.add_argument("--init", dest="init_factor", default=None, metavar="VALUES",
                         help="explicit starting factor, comma-separated row-major values")
    p_bench.add_argument("--out", default=None, help="write the passivated model here")
    p_bench.add_argument("--report", default=None, help="write the run-report JSON here")
    add_seed(p_bench)
    add_optimizer_flags(p_bench)
    _add_grid_arguments(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


# a factor value such as "-2,0" would otherwise be mistaken for an option
_NUMBER_LIST = re.compile(r"^-[\d.,+\-eE ]+$")
_FACTOR_FLAGS = ("--init", "--l0")


def _merge_factor_values(argv: list[str]) -> list[str]:
    """Turn ``--init -2,0`` into ``--init=-2,0`` so argparse accepts
    leading-minus value lists."""
    merged, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _FACTOR_FLAGS
            and i + 1 < len(argv)
            and _NUMBER_LIST.match(argv[i + 1])
        ):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    _configure_logging()
    parser = _build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_factor_values(argv))
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))  # exits with code 2
    except KlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the entry point
    sys.exit(main())
