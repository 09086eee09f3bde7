"""H2-optimal passivation of LTI state-space models.

Given an asymptotically stable model ``(A, B, C, D)`` that fails to be
passive, this package finds the output matrix ``C_hat`` closest to ``C``
in the H2 norm such that ``(A, B, C_hat, D)`` is passive.  Passivity is
enforced by construction: candidate output maps are parameterized by a
low-rank factor ``L`` of a Lur'e equation solution, which turns the
constrained distance problem into a smooth unconstrained one solved by
limited-memory BFGS.  A spectral certificate decides whether a computed
stationary point is a global optimum, and a restart strategy escapes the
non-global ones.

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
    AreFailureError,
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
from .linalg import (
    SpectralDecomposition,
    max_real_part,
    solve_lyapunov,
    solve_lyapunov_transposed,
    spectral_decompose,
    sqrtm_psd,
)
from .system import (
    PopovScan,
    StateSpaceSystem,
    controllability_gramian,
    default_popov_grid,
    h2_error_sq,
    popov_eval,
    popov_scan,
    transfer_eval,
)
from .passivity import (
    AreSolution,
    GlobalMinCertificate,
    PassivityVerdict,
    check_passive,
    global_min_certificate,
    l_from_are,
    solve_are,
)
from .optimizer import (
    Initialization,
    KlapConfig,
    KlapResult,
    LbfgsResult,
    LurePoint,
    ObjectiveEval,
    RestartDecision,
    c_of_l,
    initialize,
    klap,
    lbfgs_minimize,
    objective_and_gradient,
    restart_step,
)
from .modelio import ModelFile, dumps_model, load_model, load_model_file, write_model
from .benchmarks import (
    BENCHMARK_NAMES,
    acc_system,
    benchmark_path,
    benchmark_system,
    toy_system,
)

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
    "AreFailureError",
    "ParseError",
    # linear algebra
    "SpectralDecomposition",
    "spectral_decompose",
    "max_real_part",
    "solve_lyapunov",
    "solve_lyapunov_transposed",
    "sqrtm_psd",
    # systems
    "StateSpaceSystem",
    "PopovScan",
    "transfer_eval",
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
    "l_from_are",
    "global_min_certificate",
    # optimizer
    "LurePoint",
    "ObjectiveEval",
    "KlapConfig",
    "LbfgsResult",
    "Initialization",
    "RestartDecision",
    "KlapResult",
    "c_of_l",
    "objective_and_gradient",
    "lbfgs_minimize",
    "initialize",
    "restart_step",
    "klap",
    # model files
    "ModelFile",
    "load_model",
    "load_model_file",
    "write_model",
    "dumps_model",
    # benchmarks
    "BENCHMARK_NAMES",
    "acc_system",
    "toy_system",
    "benchmark_system",
    "benchmark_path",
]
