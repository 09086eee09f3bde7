"""H2-optimal passivation of LTI state-space models.

Given an asymptotically stable model ``(A, B, C, D)`` that fails to be
passive, this package finds the output matrix ``C_hat`` closest to ``C``
in the H2 norm such that ``(A, B, C_hat, D)`` is passive.  Passivity is
enforced by construction: candidate output maps are parameterized by a
low-rank factor ``L`` of a Lur'e equation solution, which turns the
constrained distance problem into a smooth unconstrained one solved by
limited-memory BFGS.  A spectral certificate is the cheap first test of
whether a computed stationary point is a global optimum; a lower bound from
the dual of the convex KYP problem certifies the points it rejects, and a
restart strategy escapes the rest.

Typical use::

    from klap import StateSpaceSystem, check_passive, klap

    sys = StateSpaceSystem(A, B, C, D)
    if not check_passive(sys).passive:
        result = klap(sys)
        passive_sys = result.system      # (A, B, C_hat, D)
        distance = result.h2_error       # H2 norm of the output correction

The :mod:`klap.cli` module exposes the same workflow as the ``klap``
command-line tool.
"""

from .exceptions import (
    DefectiveMatrixError,
    DimensionMismatchError,
    IllConditionedError,
    KlapError,
    NoSolutionError,
    NotHurwitzError,
    NotPsdError,
    ParseError,
    SingularFeedthroughError,
    SingularOperatorError,
)
from .linalg import solve_lyapunov
from .system import (
    PopovScan,
    StateSpaceSystem,
    controllability_gramian,
    default_popov_grid,
    h2_error_sq,
    popov_eval,
    popov_scan,
)
from .passivity import (
    AreSolution,
    GlobalMinCertificate,
    PassivityVerdict,
    check_passive,
    global_min_certificate,
    solve_are,
)
from .optimizer import KlapConfig, KlapResult, klap
from .modelio import ModelFile, load_model_file, write_model
from .benchmarks import BENCHMARK_NAMES, benchmark_path, benchmark_system

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "KlapError",
    "DimensionMismatchError",
    "NotHurwitzError",
    "IllConditionedError",
    "SingularOperatorError",
    "NotPsdError",
    "DefectiveMatrixError",
    "NoSolutionError",
    "SingularFeedthroughError",
    "ParseError",
    # linear algebra
    "solve_lyapunov",
    # systems
    "StateSpaceSystem",
    "PopovScan",
    "popov_eval",
    "default_popov_grid",
    "popov_scan",
    "controllability_gramian",
    "h2_error_sq",
    # passivity
    "AreSolution",
    "PassivityVerdict",
    "GlobalMinCertificate",
    "solve_are",
    "check_passive",
    "global_min_certificate",
    # optimizer
    "KlapConfig",
    "KlapResult",
    "klap",
    # model files
    "ModelFile",
    "load_model_file",
    "write_model",
    # benchmarks
    "BENCHMARK_NAMES",
    "benchmark_system",
    "benchmark_path",
]
