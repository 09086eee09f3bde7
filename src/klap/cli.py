"""Command-line front end.

``klap`` exposes four subcommands::

    klap check MODEL         passivity verdict and margin (exit 0 passive, 1 not)
    klap passivate MODEL     H2-optimal passivation; writes model + report
    klap popov MODEL         Popov-function frequency sweep as CSV
    klap h2 MODEL MODEL      H2 distance between two models on the same (A, B, D)

Every MODEL is a JSON model file (:mod:`klap.modelio`); ``check``,
``passivate`` and ``popov`` share the ``--feedthrough`` flag that replaces
its ``D``.  The bundled benchmark models are ordinary model files
(:func:`klap.benchmarks.benchmark_path`), run with ``klap passivate``.
``klap popov`` samples :func:`klap.system.default_popov_grid`, whose
``ValueError`` on ``--points`` below 2 or a window other than finite
``0 < wmin < wmax`` is a usage error.  ``klap h2`` measures the distance
klap minimizes: between two output maps that share ``(A, B, D)``, such as
a model and its passivation; it exits 2 naming the first of ``A``, ``B``
and ``D`` that differs.

Exit codes follow a scripting-friendly contract: 0 success (for
``check``: passive), 1 not passive, 2 any error (including a passivation
run whose returned point is not certified as a global optimum — its
partial results are still written).
All randomness is seeded (``--seed``, default 0), so every command is
reproducible.  Set ``KLAP_LOG=debug`` or ``KLAP_LOG=info`` for progress
logging on stderr.

:func:`main` may be called repeatedly in one process: it returns the exit
code, argparse usage errors raise ``SystemExit(2)``, and the argument
parser is built once per process and shared by every call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .exceptions import KlapError
from .modelio import load_model_file, write_model
from .optimizer import KlapConfig, KlapResult, klap
from .passivity import check_passive
from .system import StateSpaceSystem, default_popov_grid, h2_error_sq, popov_scan

__all__ = ["main"]

_log = logging.getLogger(__name__)


def _configure_logging() -> None:
    level_name = os.environ.get("KLAP_LOG", "").strip().lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


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
    overrides = {"rng_seed": args.seed}
    for field_name in ("grad_tol", "obj_rel_tol", "max_restarts", "max_iterations", "L0"):
        value = getattr(args, field_name)
        if value is not None:
            overrides[field_name] = value
    try:
        return KlapConfig(**overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_factor(text: str, n: int, m: int) -> np.ndarray:
    tokens = [t for t in text.replace(",", " ").split() if t]
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise _UsageError(f"--l0: invalid number in {text!r}") from exc
    if len(values) != n * m:
        raise _UsageError(
            f"--l0: expected {n * m} values for an {n}x{m} factor, got {len(values)}"
        )
    return np.array(values).reshape(n, m)


def _certificate_status(result: KlapResult) -> str:
    if result.passive_input:
        return "passive-input"
    if not result.converged:
        return "not certified"
    if result.duality_gap is not None:
        return "global (KYP dual bound)"
    # converged without a dual bound: the spectral certificate passed
    return "global (every stationary point)" if result.certificate.vacuous else "global"


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
            "max_iterations": cfg.max_iterations,
            "max_restarts": cfg.max_restarts,
            "init": "are" if cfg.L0 is None else "given",
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
        "popov_margin_after": margin_after,
        "certificate": None
        if cert is None
        else {
            "is_global_candidate": cert.is_global_candidate,
            "max_abs_real": cert.max_abs_real,
            "tolerance": cert.tolerance,
            "vacuous": cert.vacuous,
        },
        "duality_gap": result.duality_gap,
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
    verdict = check_passive(sys_)
    print(f"{'passive' if verdict.passive else 'not passive'} "
          f"(margin {verdict.margin:.6e})")
    return 0 if verdict.passive else 1


def _cmd_passivate(args: argparse.Namespace) -> int:
    mf, sys_ = _load(args.model, args.feedthrough)
    if args.L0 is not None:
        args.L0 = _parse_factor(args.L0, sys_.n, sys_.m)
    cfg = _config_from_args(args)

    start = time.perf_counter()
    result = klap(sys_, cfg)
    wall = time.perf_counter() - start

    stem, _ = os.path.splitext(args.model)
    out_path = args.out or f"{stem}.passive.json"
    report_path = args.report or f"{os.path.splitext(out_path)[0]}.report.json"
    out_name = f"{mf.name}-passive" if mf.name else None
    write_model(result.system, out_path, name=out_name)

    margin_after = popov_scan(result.system).global_min
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
    gap = "none" if result.duality_gap is None else f"{result.duality_gap:.3e}"
    print(f"duality gap         {gap}")
    print(f"popov margin        {result.popov_min:.3e} -> {margin_after:.3e}")
    print(f"wall time           {wall:.3f} s")
    print(f"passivated model    {out_path}")
    print(f"run report          {report_path}")
    if not result.converged:
        print(f"error: the returned point is not certified: {result.message}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_popov(args: argparse.Namespace) -> int:
    _, sys_ = _load(args.model, args.feedthrough)
    try:
        grid = default_popov_grid(sys_, points=args.points, wmin=args.wmin, wmax=args.wmax)
    except ValueError as exc:
        raise _UsageError(f"--wmin/--wmax/--points: {exc}") from exc
    scan = popov_scan(sys_, grid)
    with _output_stream(args.out) as fh:
        _write_csv(fh, ["omega", "lambda_min"], zip(scan.frequencies, scan.min_eigenvalues))
    _log.info(
        "popov minimum %.6e at omega = %.6e", scan.global_min, scan.argmin_frequency
    )
    return 0


def _cmd_h2(args: argparse.Namespace) -> int:
    _, sys_a = _load(args.model_a, None)
    _, sys_b = _load(args.model_b, None)
    for name in ("A", "B", "D"):
        X, Y = getattr(sys_a, name), getattr(sys_b, name)
        if X.shape != Y.shape or np.max(np.abs(X - Y)) > 1e-10 * max(1.0, np.max(np.abs(X))):
            print(f"error: the models differ in {name}; the H2 distance is defined here "
                  "only between output maps on the same (A, B, D)", file=sys.stderr)
            return 2
    j = max(h2_error_sq(sys_a, sys_b.C), 0.0)
    print(f"h2_error_squared = {j!r}")
    print(f"h2_error = {float(np.sqrt(j))!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process.  Parsing
    leaves it unchanged, and it holds no command: :func:`main` dispatches
    on the parsed subcommand name at call time."""
    parser = argparse.ArgumentParser(
        prog="klap",
        description="H2-optimal passivation of LTI state-space models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the one model file of check, passivate and popov
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("model")
    model.add_argument("--feedthrough", type=float, default=None,
                       help="replace D by this scalar times the identity")

    sub.add_parser("check", parents=[model], help="decide passivity of a model file")

    p_pass = sub.add_parser("passivate", parents=[model],
                            help="replace C by the closest passivating map")
    p_pass.add_argument("--out", default=None, help="output model path (default: *.passive.json)")
    p_pass.add_argument("--report", default=None,
                        help="run-report JSON path (default: alongside the output model)")
    p_pass.add_argument("--l0", dest="L0", default=None, metavar="VALUES",
                        help="explicit starting factor, comma-separated row-major values "
                             "(default: the Riccati start)")
    p_pass.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_pass.add_argument("--grad-tol", dest="grad_tol", type=float, default=None,
                        help="gradient-norm stopping tolerance")
    p_pass.add_argument("--obj-tol", dest="obj_rel_tol", type=float, default=None,
                        help="relative objective-change stopping tolerance (default 1e-14)")
    p_pass.add_argument("--max-restarts", dest="max_restarts", type=int, default=None)
    p_pass.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    p_pass.add_argument("--trace", default=None, metavar="CSV",
                        help="write the per-iteration (J, grad-norm) log as CSV")

    p_popov = sub.add_parser("popov", parents=[model],
                             help="sample the Popov function over a frequency grid")
    p_popov.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_popov.add_argument("--wmin", type=float, default=None, help="lowest scan frequency")
    p_popov.add_argument("--wmax", type=float, default=None, help="highest scan frequency")
    p_popov.add_argument("--points", type=int, default=500,
                         help="number of log-spaced scan frequencies, at least 2 (default 500)")

    p_h2 = sub.add_parser("h2", help="H2 distance between two models on the same (A, B, D)")
    p_h2.add_argument("model_a")
    p_h2.add_argument("model_b")

    return parser


# a factor value such as "-2,0" would otherwise be mistaken for an option
_NUMBER_LIST = re.compile(r"^-[\d.,+\-eE ]+$")


def _merge_factor_values(argv: list[str]) -> list[str]:
    """Turn ``--l0 -2,0`` into ``--l0=-2,0`` so argparse accepts
    leading-minus value lists."""
    merged, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok == "--l0"
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
    command = {"check": _cmd_check, "passivate": _cmd_passivate,
               "popov": _cmd_popov, "h2": _cmd_h2}[args.command]
    try:
        return command(args)
    except _UsageError as exc:
        parser.error(str(exc))  # exits with code 2
    except (KlapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the entry point
    sys.exit(main())
