"""H2-optimal passivation by unconstrained optimization of a Lur'e factor.

Given a stable system ``(A, B, C, D)`` with ``D + D^T = M M^T >= 0``, every
matrix ``L`` (n x m) induces the output map

.. math::

    \\hat C(L) = B^T X(L) + M L^T, \\qquad A^T X(L) + X(L) A + L L^T = 0,

and ``(X(L), L, M)`` solve the Lur'e equations of
``(A, B, \\hat C(L), D)`` exactly — so the surrogate system is passive for
*every* ``L``.  Passivation therefore becomes the smooth unconstrained
problem

.. math::

    \\min_L \\; \\mathcal J(L)
    = \\operatorname{tr}\\bigl((C - \\hat C(L))\\, P \\,(C - \\hat C(L))^T\\bigr),

whose value is the squared H2 distance to the original system (``P`` is the
controllability Gramian).  This module provides the parameterization, the
objective and its gradient (one Lyapunov solve for the value, one more for
the gradient), a quasi-Newton minimizer, Riccati-based initialization, a
spectral certificate of global optimality, and a restart strategy that
escapes non-global stationary points, all orchestrated by :func:`klap`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NoSolutionError,
    NotPsdError,
    SingularFeedthroughError,
)
from .linalg import (
    SpectralDecomposition,
    _LyapunovKernel,
    solve_lyapunov,  # noqa: F401 - kept in the namespace perfbench/tracing.py wraps
    solve_lyapunov_transposed,  # noqa: F401 - kept in the namespace perfbench/tracing.py wraps
    spectral_decompose,  # noqa: F401 - kept in the namespace perfbench/tracing.py wraps
    sqrtm_psd,
)
from .passivity import (
    GlobalMinCertificate,
    check_passive,
    global_min_certificate,
    l_from_are,
    scan_verdict,
    solve_are,
)
from .system import (
    PopovScan,
    StateSpaceSystem,
    controllability_gramian,
    default_popov_grid,
    h2_error_sq,
    popov_scan,
)

__all__ = [
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
]

_log = logging.getLogger(__name__)

#: two restart points closer than this (relative) count as the same start
_DUPLICATE_RTOL = 1e-12

#: curvature pairs kept by the L-BFGS two-loop recursion
_LBFGS_MEMORY = 10

#: margin tolerance deciding whether a system is passive (the default of
#: :func:`~klap.passivity.check_passive`)
_PASSIVE_TOL = 1e-8


@dataclass(frozen=True)
class LurePoint:
    """A point of the search space: the factor ``L`` plus the fixed ``M``.

    ``M`` is the symmetric PSD square root of ``D + D^T`` and stays constant
    through a whole run; only ``L`` is optimized.  Every ``LurePoint`` maps
    to a passive system through :func:`c_of_l` — there is no feasibility
    restriction on ``L``.
    """

    L: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        if L.ndim != 2 or M.shape != (L.shape[1], L.shape[1]):
            raise DimensionMismatchError(
                f"L must be n x m and M must be m x m; got {L.shape} and {M.shape}"
            )
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "M", M)

    @classmethod
    def for_system(cls, sys: StateSpaceSystem, L: np.ndarray) -> "LurePoint":
        """Pair ``L`` with ``M = (D + D^T)^{1/2}`` of ``sys``."""
        return cls(L, sqrtm_psd(sys.D + sys.D.T))


def c_of_l(sys: StateSpaceSystem, point: LurePoint) -> np.ndarray:
    """Passive output map ``C_hat(L) = B^T X + M L^T`` with
    ``A^T X + X A + L L^T = 0``, solved by the system's Lyapunov kernel.

    The returned map makes ``(A, B, C_hat, D)`` passive for any ``L``: the
    triple ``(X, L, M)`` satisfies that system's Lur'e equations by
    construction.

    Raises
    ------
    SingularOperatorError
        If ``X`` overflows.
    """
    if point.L.shape != (sys.n, sys.m):
        raise DimensionMismatchError(
            f"L must be {sys.n} x {sys.m}, got {point.L.shape}"
        )
    X = sys._lyapunov().solve_finite(point.L @ point.L.T, True)
    return sys.B.T @ X + point.M @ point.L.T


@dataclass(frozen=True)
class ObjectiveEval:
    """Objective value and gradient at one Lur'e point.

    Attributes
    ----------
    J : float
        Squared H2 distance ``tr((C - C_hat) P (C - C_hat)^T)``.
    grad : (n, m) ndarray
        Gradient ``2 X_grad L - 2 P (C - C_hat)^T M``.
    X : (n, n) ndarray
        Lyapunov solution defining ``C_hat``.
    X_grad : (n, n) ndarray
        Adjoint Lyapunov solution
        ``A X_grad + X_grad A^T = P (C - C_hat)^T B^T + B (C - C_hat) P``.
    C_hat : (m, n) ndarray
        Output map at this point.
    """

    J: float
    grad: np.ndarray
    X: np.ndarray
    X_grad: np.ndarray
    C_hat: np.ndarray


class _Objective:
    """``J`` and its gradient over one system, Gramian and ``M``.

    Built once per run over a Lyapunov kernel of ``A`` and the fixed
    matrices, so an evaluation is the arithmetic of the two solves and the
    products around them, without validation.  The value and the gradient
    are separate calls: :meth:`value` does the solve for ``X`` and returns
    what :meth:`gradient` needs for the adjoint solve, so a caller that
    rejects a point never pays for its adjoint.
    """

    def __init__(
        self,
        sys: StateSpaceSystem,
        P: np.ndarray,
        M: np.ndarray,
        lyap: _LyapunovKernel,
    ):
        self.lyap = lyap
        self.B, self.B_t, self.C, self.P, self.M = sys.B, sys.B.T, sys.C, P, M

    def value(self, L: np.ndarray) -> tuple:
        """``(J, state)`` at ``L``, with ``state = (L, X, C_hat, E)`` and
        ``E = C - C_hat``.

        When ``L L^T`` or ``J`` is not finite (a trial step that
        overflows), returns ``(inf, None)``, so a line search backs off
        instead of failing.
        """
        W = L.dot(L.T)  # exactly symmetric: numpy mirrors one triangle of L L^T
        if not np.isfinite(W).all():
            return math.inf, None
        X = self.lyap.solve(W, True)
        C_hat = self.B_t.dot(X)
        C_hat += self.M.dot(L.T)
        E = self.C - C_hat
        J = float(E.dot(self.P).dot(E.T).trace())
        if not math.isfinite(J):
            return math.inf, None
        return J, (L, X, C_hat, E)

    def gradient(self, state: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``(grad, X_grad)`` at the point :meth:`value` returned ``state`` for."""
        L, _, _, E = state
        PEt = self.P.dot(E.T)
        # adjoint equation A X_grad + X_grad A^T + W = 0 with the exactly
        # symmetric W = -(F + F^T)/2, F = P E^T B^T + B E P
        F = PEt.dot(self.B_t)
        F += self.B.dot(PEt.T)
        W = F + F.T
        W *= -0.5
        X_grad = self.lyap.solve(W, False)
        grad = (2.0 * X_grad).dot(L)
        grad -= (2.0 * PEt).dot(self.M)
        return grad, X_grad


def objective_and_gradient(
    sys: StateSpaceSystem,
    P: np.ndarray,
    point: LurePoint,
    decomp: SpectralDecomposition | None = None,
) -> ObjectiveEval:
    """Evaluate the squared H2 error and its gradient in ``L``.

    Exactly two Lyapunov solves: one for ``X`` (inside the output-map
    parameterization) and one for the adjoint variable ``X_grad``.  The
    same arithmetic :func:`lbfgs_minimize` runs at its start and at every
    accepted step; its rejected trials stop after the first solve.

    Parameters
    ----------
    P : (n, n) ndarray
        Controllability Gramian of ``sys`` (precomputed once per run).
    decomp : SpectralDecomposition, optional
        By default the solves use the system's own Lyapunov kernel; an
        explicit ``decomp`` sets up a kernel on that basis for this one
        call, as :func:`~klap.linalg.solve_lyapunov` would.

    Raises
    ------
    ValueError
        If the objective overflows at ``point``.
    """
    if point.L.shape != (sys.n, sys.m):
        raise DimensionMismatchError(
            f"L must be {sys.n} x {sys.m}, got {point.L.shape}"
        )
    lyap = sys._lyapunov() if decomp is None else _LyapunovKernel(sys.A, decomp)
    objective = _Objective(sys, P, point.M, lyap)
    J, state = objective.value(point.L)
    if state is None:
        raise ValueError("the objective is not finite at this L")
    grad, X_grad = objective.gradient(state)
    return ObjectiveEval(J, grad, state[1], X_grad, state[2])


@dataclass(frozen=True)
class KlapConfig:
    """Tunables for the passivation driver.

    Attributes
    ----------
    grad_tol : float
        Gradient-norm stopping threshold of the inner minimization.
    obj_rel_tol : float
        Relative objective-change stop:
        ``|J_k - J_{k-1}| <= obj_rel_tol * (|J_k| + obj_rel_tol)``.
    restart_alpha : float
        Step size of the output-space gradient step used to escape a
        non-global stationary point (retried once with ``alpha / 10``).
    init_margin : float, optional
        Strict-passivation margin of the initialization; ``None`` means
        ``1e-3 * |popov_min|``.
    max_iterations : int
        Inner-iteration cap per minimization.  A round whose run stops on
        the objective change without a certificate adds a polish
        minimization with its own cap, so one round can take twice the cap.
    max_restarts : int
        Certificate-failed restarts before returning the best iterate.
    popov_points, popov_wmin, popov_wmax
        Frequency-grid specification for Popov scans.
    rng_seed : int or None
        Seed for random starts; runs are deterministic given the seed.
    init : {"are", "random"}
        Initialization mode (ignored when ``L0`` is given).
    L0 : ndarray, optional
        Explicit starting factor (n x m).
    """

    grad_tol: float = 1e-8
    obj_rel_tol: float = 1e-6
    restart_alpha: float = 1e-8
    init_margin: float | None = None
    max_iterations: int = 50_000
    max_restarts: int = 5
    popov_points: int = 500
    popov_wmin: float | None = None
    popov_wmax: float | None = None
    rng_seed: int | None = 0
    init: str = "are"
    L0: np.ndarray | None = None

    def __post_init__(self):
        for name in ("grad_tol", "obj_rel_tol", "restart_alpha"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name, low in (
            ("max_iterations", 1),
            ("max_restarts", 0),
            ("popov_points", 2),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.init_margin is not None and not self.init_margin > 0:
            raise ValueError("init_margin must be positive when given")
        if self.init not in ("are", "random"):
            raise ValueError(f"init must be 'are' or 'random', got {self.init!r}")


def _grid(sys: StateSpaceSystem, config: KlapConfig) -> np.ndarray:
    return default_popov_grid(
        sys, points=config.popov_points, wmin=config.popov_wmin, wmax=config.popov_wmax
    )


def _random_factor(
    rng: np.random.Generator, sys: StateSpaceSystem, M: np.ndarray
) -> np.ndarray:
    """Random start with entries scaled so the initial objective stays
    comparable to ``tr(C P C^T)``."""
    scale = np.linalg.norm(sys.C, "fro") / (
        math.sqrt(sys.n * sys.m) * np.linalg.norm(M, "fro") + 1.0
    )
    return scale * rng.standard_normal((sys.n, sys.m))


@dataclass(frozen=True)
class LbfgsResult:
    """Outcome of one inner minimization.

    ``status`` is one of ``"gradient"``, ``"objective-change"``,
    ``"max-iterations"``, ``"line-search"``; the first two set
    ``converged``.  ``trace`` logs ``(J, ||grad||)`` at the start and after
    every accepted step; ``J`` is non-increasing along it.
    """

    L: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    converged: bool
    status: str
    trace: tuple[tuple[float, float], ...]


def lbfgs_minimize(
    sys: StateSpaceSystem,
    P: np.ndarray,
    L0: np.ndarray,
    M: np.ndarray,
    config: KlapConfig | None = None,
) -> LbfgsResult:
    """Minimize the squared H2 error over ``L`` by limited-memory BFGS.

    Two-loop recursion over the last 10 curvature pairs with
    the standard ``s.y / y.y`` metric scaling, and an Armijo backtracking
    line search (sufficient decrease ``1e-4``, step halving), which makes
    the objective strictly decreasing across accepted steps.  The first
    trial step is ``1 / max(1, ||grad||)`` until curvature information
    exists.  The line search needs only ``J`` at a trial point, so the
    gradient (the adjoint Lyapunov solve) is evaluated only at the start
    and at accepted steps: two solves per accepted step, one per rejected
    trial.

    Stops when ``||grad|| <= grad_tol``, when the relative objective change
    drops below ``obj_rel_tol``, or at the iteration cap.  A failed line
    search returns the best iterate with ``converged = False``.
    """
    cfg = config or KlapConfig()
    L0 = np.asarray(L0, dtype=float).reshape(sys.n, sys.m)
    objective = _Objective(sys, P, np.asarray(M, dtype=float), sys._lyapunov())
    shape = (sys.n, sys.m)

    def gradient(state: tuple) -> np.ndarray:
        return objective.gradient(state)[0].ravel()

    x = L0.ravel().copy()
    f, state = objective.value(x.reshape(shape))
    if state is None:
        raise ValueError("the objective is not finite at the starting factor")
    g = gradient(state)
    g_norm = math.sqrt(g.dot(g))
    trace = [(f, g_norm)]
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    gamma = 1.0  # s.y / y.y of the newest pair
    iterations = 0
    status, converged = "max-iterations", False

    for _ in range(cfg.max_iterations):
        if g_norm <= cfg.grad_tol:
            status, converged = "gradient", True
            break

        # two-loop recursion: d = -H g
        q = g.copy()
        k = len(s_hist)
        alphas = [0.0] * k
        for i in range(k - 1, -1, -1):
            a = rho_hist[i] * s_hist[i].dot(q)
            q -= a * y_hist[i]
            alphas[i] = a
        if k:
            q *= gamma
        for i in range(k):
            b = rho_hist[i] * y_hist[i].dot(q)
            q += (alphas[i] - b) * s_hist[i]
        d = np.negative(q, out=q)
        gd = g.dot(d)
        if not math.isfinite(gd) or gd >= 0.0:
            d, gd = -g, -g_norm**2  # non-descent direction: reset to steepest

        # Armijo backtracking needs only J at a trial point; the gradient
        # is evaluated once, at the accepted one
        t = 1.0 if s_hist else 1.0 / max(1.0, g_norm)
        for _ in range(45):
            x_new = x + t * d
            f_new, state = objective.value(x_new.reshape(shape))
            if math.isfinite(f_new) and f_new <= f + 1e-4 * t * gd:
                break
            t *= 0.5
        else:
            status, converged = "line-search", False
            break
        g_new = gradient(state)

        s_vec, y_vec = x_new - x, g_new - g
        sy, yy = s_vec.dot(y_vec), y_vec.dot(y_vec)
        if sy > 1e-10 * math.sqrt(s_vec.dot(s_vec)) * math.sqrt(yy):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            gamma = sy / yy
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        f_prev, x, f, g = f, x_new, f_new, g_new
        g_norm = math.sqrt(g.dot(g))
        iterations += 1
        trace.append((f, g_norm))
        if abs(f_prev - f) <= cfg.obj_rel_tol * (abs(f) + cfg.obj_rel_tol):
            status, converged = "objective-change", True
            break

    return LbfgsResult(
        L=x.reshape(sys.n, sys.m),
        value=f,
        gradient_norm=g_norm,
        iterations=iterations,
        converged=converged,
        status=status,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class Initialization:
    """Starting factor plus how it was obtained.

    ``delta`` is the uniform feedthrough enlargement actually used by the
    Riccati route (0.0 for a random start), ``popov_min`` the scanned
    minimum of the input system's Popov function, and ``source`` one of
    ``"are"``, ``"are-retry"``, ``"random"``.
    """

    L0: np.ndarray
    delta: float
    popov_min: float
    source: str


def initialize(
    sys: StateSpaceSystem,
    config: KlapConfig | None = None,
    rng: np.random.Generator | None = None,
    scan: PopovScan | None = None,
) -> Initialization:
    """Riccati-based starting factor.

    Scan the Popov function for its minimum ``popov_min`` (or take it from
    ``scan``, a scan of ``sys`` on the configured grid); enlarge the
    feedthrough by ``delta = max(eps, -popov_min/2 + eps)`` with margin
    ``eps = init_margin`` (default ``1e-3 * |popov_min|``), which makes the
    perturbed system strictly passive; solve that system's minimal Riccati
    equation and set ``L0 = (C^T - X_min B) M_pert^{-1}`` using the
    *perturbed* square root ``M_pert`` (the original ``M`` may be singular,
    e.g. for ``D = 0``).  The clamp at ``eps`` keeps the feedthrough from
    shrinking when the input is already passive.

    If the perturbed equation is unsolvable (the grid may underestimate the
    true Popov minimum), retry once with ``10 * eps``; if that also fails,
    fall back to a scaled random factor.  Any start is feasible, so the
    fallback costs optimization effort, never correctness.
    """
    cfg = config or KlapConfig()
    if scan is None:
        scan = popov_scan(sys, grid=_grid(sys, cfg))
    popov_min = scan.global_min
    eps = cfg.init_margin if cfg.init_margin is not None else 1e-3 * abs(popov_min)
    for attempt, eps_k in enumerate((eps, 10.0 * eps)):
        delta = max(eps_k, -popov_min / 2.0 + eps_k)
        if delta <= 0.0:
            break
        perturbed = sys.with_feedthrough(sys.D + delta * np.eye(sys.m))
        try:
            L0, _ = l_from_are(perturbed, solve_are(perturbed, "minimal").X)
        except (NoSolutionError, SingularFeedthroughError, NotPsdError) as exc:
            _log.debug(
                "initialization attempt %d failed at delta=%.3e: %s", attempt + 1, delta, exc
            )
            continue
        return Initialization(
            L0, delta, popov_min, "are" if attempt == 0 else "are-retry"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    M = sqrtm_psd(sys.D + sys.D.T)
    _log.info("Riccati initialization failed twice; using a random start")
    return Initialization(_random_factor(rng, sys, M), 0.0, popov_min, "random")


@dataclass(frozen=True)
class RestartDecision:
    """Outcome of one escape attempt from a stationary point.

    ``kind`` is ``"new-point"`` (continue from ``L``) or ``"reinitialize"``
    (caller should draw a fresh start; ``L`` is ``None``).  ``alpha`` is
    the output-space step that produced a passive system (``None`` if none
    did) and ``margin`` the passivity margin of the last candidate
    examined.
    """

    kind: str
    L: np.ndarray | None
    alpha: float | None
    margin: float


def restart_step(
    sys: StateSpaceSystem,
    P: np.ndarray,
    L_star: np.ndarray,
    config: KlapConfig | None = None,
) -> RestartDecision:
    """Escape a stationary point that the certificate rejected.

    At a stationary ``L*`` whose surrogate ``C* = C_hat(L*)`` is not a
    certified global optimum, take a small gradient step directly in
    output space, ``C_new = C* - alpha * 2 (C* - C) P``.  If the stepped
    system is still passive, the stationary point was not pinned to the
    passive set's boundary along the descent direction: recover a factor
    from the stepped system's minimal Riccati solution and continue from
    it (``"new-point"``).  Otherwise retry with ``alpha / 10``; if both
    steps exit the passive set, report ``"reinitialize"``.

    The Riccati recovery runs with a relaxed residual tolerance: the
    stepped system sits near the passive boundary, where the Riccati
    equation is close to marginal.
    """
    cfg = config or KlapConfig()
    L_star = np.asarray(L_star, dtype=float).reshape(sys.n, sys.m)
    try:
        M = sqrtm_psd(sys.D + sys.D.T)
        C_star = c_of_l(sys, LurePoint(L_star, M))
    except (NotPsdError, DimensionMismatchError):
        return RestartDecision("reinitialize", None, None, -np.inf)
    grad_c = 2.0 * (C_star - sys.C) @ P
    grid = _grid(sys, cfg)
    margin = -np.inf
    for alpha in (cfg.restart_alpha, cfg.restart_alpha / 10.0):
        candidate = sys.with_output(C_star - alpha * grad_c)
        verdict = check_passive(candidate, tol=_PASSIVE_TOL, grid=grid)
        margin = verdict.margin
        if not verdict.passive:
            continue
        try:
            sol = solve_are(candidate, "minimal", tol=1e-6)
            L_new, _ = l_from_are(candidate, sol.X)
        except (NoSolutionError, SingularFeedthroughError) as exc:
            _log.debug("factor recovery failed at alpha=%.1e: %s", alpha, exc)
            continue
        return RestartDecision("new-point", L_new, alpha, margin)
    return RestartDecision("reinitialize", None, None, margin)


@dataclass(frozen=True)
class KlapResult:
    """Result of a passivation run.

    Attributes
    ----------
    C_hat : (m, n) ndarray
        Passivating output map (equals ``C`` when the input was passive).
    L_final : (n, m) ndarray or None
        Factor attaining ``C_hat`` (``None`` when the input was passive
        and no optimization ran).
    M : (m, m) ndarray
        Square root of ``D + D^T`` used throughout the run.
    J_final : float
        Squared H2 distance at ``C_hat``.
    h2_error : float
        ``sqrt(J_final)`` — the H2 distance itself.
    iterations : int
        Accepted quasi-Newton steps, summed over all restarts and polish
        passes (up to ``2 * max_iterations`` per round).
    restarts : int
        Restarts actually performed.
    certificate : GlobalMinCertificate or None
        Spectral certificate evaluated at ``L_final`` (``None`` for a
        passive input).
    converged : bool
        Whether the minimization that produced ``L_final`` stopped on a
        convergence criterion (not line-search failure / iteration cap).
    trace : tuple of (J, grad-norm) pairs
        Per-iteration log, concatenated across restarts.
    passive_input : bool
        Input system was already passive; returned unchanged.
    delta : float
        Feedthrough enlargement used by the initialization (0.0 when not
        applicable).
    popov_min : float
        Scanned minimum of the input system's Popov function.
    initial_J : float
        Objective at the very first iterate.
    system : StateSpaceSystem
        The passivated system ``(A, B, C_hat, D)``.
    message : str
        Human-readable stop reason.
    """

    C_hat: np.ndarray
    L_final: np.ndarray | None
    M: np.ndarray
    J_final: float
    h2_error: float
    iterations: int
    restarts: int
    certificate: GlobalMinCertificate | None
    converged: bool
    trace: tuple[tuple[float, float], ...]
    passive_input: bool
    delta: float
    popov_min: float
    initial_J: float
    system: StateSpaceSystem = field(repr=False)
    message: str = ""


def klap(
    sys: StateSpaceSystem,
    config: KlapConfig | None = None,
    **overrides,
) -> KlapResult:
    """Find the passive system closest to ``sys`` in the H2 norm.

    The outer loop alternates inner minimizations with certificate checks:
    minimize the squared H2 error over the Lur'e factor; test the
    global-optimality certificate (closed-loop spectrum on the imaginary
    axis); on failure attempt a restart — an output-space gradient step
    plus Riccati factor recovery when the step stays passive, a fresh
    random start otherwise — until the certificate passes or the restart
    budget is spent.  A repeated starting point is replaced by a random
    one.  The best iterate across all restarts is returned.

    A passive input short-circuits: the result carries ``C_hat = C``,
    zero error, and no certificate.

    Keyword overrides are applied on top of ``config``
    (e.g. ``klap(sys, rng_seed=3, max_restarts=0)``).

    Raises on invalid input (e.g. ``D + D^T`` indefinite — no passive
    system shares such a feedthrough); once optimization has begun,
    failures are absorbed into a result with ``converged = False``.
    """
    cfg = config or KlapConfig()
    if overrides:
        cfg = replace(cfg, **overrides)

    try:
        M = sqrtm_psd(sys.D + sys.D.T)
    except NotPsdError as exc:
        raise NotPsdError(
            "D + D^T has a significantly negative eigenvalue, so no passive "
            "system shares this feedthrough and passivation cannot succeed"
        ) from exc

    P = controllability_gramian(sys)

    scan = popov_scan(sys, grid=_grid(sys, cfg))
    verdict = scan_verdict(scan, _PASSIVE_TOL)
    if verdict.passive:
        return KlapResult(
            C_hat=sys.C,
            L_final=None,
            M=M,
            J_final=0.0,
            h2_error=0.0,
            iterations=0,
            restarts=0,
            certificate=None,
            converged=True,
            trace=(),
            passive_input=True,
            delta=0.0,
            popov_min=verdict.margin,
            initial_J=0.0,
            system=sys,
            message="input system is already passive; returned unchanged",
        )

    rng = np.random.default_rng(cfg.rng_seed)
    delta, popov_min = 0.0, verdict.margin
    if cfg.L0 is not None:
        L_start = np.asarray(cfg.L0, dtype=float).reshape(sys.n, sys.m)
    elif cfg.init == "are":
        ini = initialize(sys, cfg, rng=rng, scan=scan)
        L_start, delta, popov_min = ini.L0, ini.delta, ini.popov_min
    else:
        L_start = _random_factor(rng, sys, M)

    starts = [L_start]
    trace: list[tuple[float, float]] = []
    total_iterations = 0
    restarts_used = 0
    best_value = np.inf
    best_L = L_start
    best_converged = False
    best_certificate = None
    initial_J = np.nan
    message = "restart budget exhausted without certificate"

    def is_duplicate(L: np.ndarray) -> bool:
        return any(
            np.linalg.norm(L - s, "fro")
            <= _DUPLICATE_RTOL * (1.0 + np.linalg.norm(L, "fro"))
            for s in starts
        )

    try:
        for round_index in range(cfg.max_restarts + 1):
            run = lbfgs_minimize(sys, P, L_start, M, cfg)
            trace.extend(run.trace)
            if np.isnan(initial_J):
                initial_J = run.trace[0][0]
            total_iterations += run.iterations
            certificate = global_min_certificate(sys, M, run.L)
            if (
                not certificate.is_global_candidate
                and run.status == "objective-change"
                and run.gradient_norm > cfg.grad_tol
            ):
                # The cheap objective-change stop leaves the iterate short of
                # the stationarity the spectral certificate measures; polish
                # to gradient precision before judging or restarting.
                polish = lbfgs_minimize(
                    sys, P, run.L, M, replace(cfg, obj_rel_tol=1e-14, L0=None)
                )
                trace.extend(polish.trace[1:])
                total_iterations += polish.iterations
                if polish.value < run.value or polish.status == "gradient":
                    run = polish
                    certificate = global_min_certificate(sys, M, run.L)
            if run.value < best_value:
                best_value, best_L, best_converged = run.value, run.L, run.converged
                best_certificate = certificate
            if certificate.is_global_candidate:
                message = (
                    "every stationary point is a global optimum (M = 0)"
                    if certificate.vacuous
                    else "stationary point certified as a global optimum"
                )
                break
            if round_index == cfg.max_restarts:
                break
            decision = restart_step(sys, P, run.L, cfg)
            if decision.kind == "new-point":
                L_next = decision.L
            else:
                L_next = _random_factor(rng, sys, M)
            if is_duplicate(L_next):
                _log.info("restart %d repeats an earlier start; using a random start",
                          restarts_used + 1)
                L_next = _random_factor(rng, sys, M)
            starts.append(L_next)
            L_start = L_next
            restarts_used += 1
    except Exception as exc:  # contract: never raise once optimization began
        _log.warning("optimization aborted: %s", exc)
        message = f"optimization aborted: {exc}"
        best_converged = False

    C_hat = c_of_l(sys, LurePoint(best_L, M))
    J_final = h2_error_sq(sys, C_hat, P=P)
    if np.isnan(initial_J):
        initial_J = J_final
    if best_certificate is None:  # no inner run finished
        best_certificate = global_min_certificate(sys, M, best_L)
    return KlapResult(
        C_hat=C_hat,
        L_final=best_L,
        M=M,
        J_final=J_final,
        h2_error=math.sqrt(max(J_final, 0.0)),
        iterations=total_iterations,
        restarts=restarts_used,
        certificate=best_certificate,
        converged=best_converged,
        trace=tuple(trace),
        passive_input=False,
        delta=delta,
        popov_min=popov_min,
        initial_J=float(initial_J),
        system=sys.with_output(C_hat),
        message=message,
    )
