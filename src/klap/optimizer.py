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
the gradient; in the eigenbasis of ``A`` both are ``O(n^2 m)`` products), a
quasi-Newton minimizer preconditioned by the Gramian, Riccati-based
initialization, a spectral certificate of global optimality backed by the KYP
dual bound of :mod:`klap.passivity`, and a restart strategy that escapes
non-global stationary points, all orchestrated by :func:`klap`.

Each :func:`klap` call builds one :class:`_Frame`: the coordinates of its
inner minimizations (floored square-root-Gramian ones where ``A`` has a
trusted eigenbasis), the objective and the L-BFGS metric in them, and the
map of a run's factor back to an output map.  :func:`lbfgs_minimize` is a
plain minimizer of the objective it is given.  ``J``, the passivity check
and both certificates stay in the original coordinates.
"""

from __future__ import annotations

import logging
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NoSolutionError,
    NotPsdError,
    SingularFeedthroughError,
    SingularOperatorError,
)
from .linalg import (
    SpectralDecomposition,
    _LyapunovKernel,
    solve_lyapunov,  # noqa: F401 - kept in the namespace perfbench/tracing.py wraps
    solve_lyapunov_transposed,  # noqa: F401 - kept in the namespace perfbench/tracing.py wraps
    spectral_decompose,  # noqa: F401 - kept in the namespace perfbench/tracing.py wraps
)
from .passivity import (
    _DUAL_GAP_RTOL,
    GlobalMinCertificate,
    PassivityVerdict,
    _kyp_dual,
    _passive_tolerance,
    _sampled_verdict,
    check_passive,
    global_min_certificate,
    l_from_are,
    solve_are,
)
from .system import (
    StateSpaceSystem,
    controllability_gramian,
    h2_error_sq,
    popov_scan,
)

__all__ = [
    "LurePoint",
    "ObjectiveEval",
    "KlapConfig",
    "LbfgsResult",
    "Initialization",
    "KlapResult",
    "c_of_l",
    "objective_and_gradient",
    "lbfgs_minimize",
    "initialize",
    "restart_step",
    "klap",
]

_log = logging.getLogger(__name__)

#: curvature pairs kept by the L-BFGS two-loop recursion
_LBFGS_MEMORY = 10

#: gradient norm at or below which a run's point counts as stationary, so
#: that the spectral certificate may certify it (the default ``grad_tol``).
#: Like every gradient norm of an inner run, it is measured in the run's
#: coordinates: the square-root-Gramian ones where :func:`klap` maps them
_STATIONARY_GRAD = 1e-8

#: step size of the restart's output-space gradient step
_RESTART_ALPHA = 1e-8

#: floor on the Gramian eigenvalues of the L-BFGS preconditioner, relative
#: to the largest: it caps how far a step is stretched along nearly
#: uncontrollable directions, where ``L`` grows without lowering ``J`` much
#: while the rounding of ``C_hat(L)`` grows as ``||L||^2``
_PRECOND_FLOOR = 1e-5

#: floor on the Gramian eigenvalues of the coordinates ``T = U diag(sqrt(s))``
#: of :func:`klap`'s inner runs, relative to the largest.  Lower floors
#: stretch ``T`` further along nearly uncontrollable directions, where the
#: runs stall: rand 64x2/1 and 64x4/2, capped at 200 iterations, stop on
#: line search after 72 and 89 iterations at ``1e-8``, after 26 and 49 at
#: ``1e-10`` with ``J`` 4.8 % and 0.3 % higher, and after 3 and 17 at
#: ``1e-15``
_GRAMIAN_FLOOR = 1e-8


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


class _ModalObjective:
    """``J`` and its gradient in the eigenbasis of ``A``, in ``O(n^2 m)``.

    For ``A = V diag(lam) V^{-1}``, ``b = V^{-1} B`` and ``l = V^T L``, the
    Lyapunov solution is ``V^T X V = Y = -(l l^T) / (lam_i + lam_j)``, so
    ``e = (C - C_hat) V = C V - b^T Y - M l^T``.  With the modal Gramian
    ``Q = V^{-1} P V^{-H} = -(b b^H) / (lam_i + conj(lam_j))``, formed once,
    ``K = Q e^H`` is ``V^{-1} P E^T`` and ``J = Re tr(e K)``; the adjoint
    solution in the same coordinates is ``(K b^H + b K^H) / (lam_i +
    conj(lam_j))``, which gives
    ``grad = 2 Re V ((K b^H + b K^H) / (lam_i + conj(lam_j)) conj(l) - K M)``.
    Neither ``X`` nor ``X_grad`` is formed, and nothing is checked:
    :func:`klap` recomputes each run's output map and its ``J`` through the
    system's kernel.  The interface is :class:`_Objective`'s, with ``None``
    in place of ``X_grad``.

    With ``T_inv`` (a :class:`_Frame`'s), the objective is that of
    ``L' = T^T L``, the factor of the similar system ``(T^{-1} A T, T^{-1}
    B, C T, D)``.  Its eigenbasis is ``T^{-1} V``, while ``b``, ``C V``,
    ``Q`` and the denominators are unchanged, so only ``V`` is swapped, and
    the gradient is ``T^{-1}`` times the original one.
    """

    def __init__(self, sys: StateSpaceSystem, M: np.ndarray, T_inv: np.ndarray | None = None):
        decomp, b = sys._modes()
        lam = decomp.eigenvalues
        V = decomp.right_vectors
        self.V = V if T_inv is None else T_inv.dot(V)
        self.V_t = self.V.T
        self.neg_denom = -(lam[:, None] + lam[None, :])
        self.herm_denom = lam[:, None] + lam.conj()[None, :]
        self.b_t, self.b_h = b.T, b.conj().T
        self.Q = -b.dot(self.b_h) / self.herm_denom
        self.cV = sys.C.dot(V)
        self.M = M

    def value(self, L: np.ndarray) -> tuple:
        """``(J, state)`` at ``L``, with ``state = (l, K)``; ``(inf, None)``
        where ``l l^T`` or ``J`` is not finite."""
        ell = self.V_t.dot(L)
        Y = ell.dot(ell.T)
        if not np.isfinite(Y).all():
            return math.inf, None
        Y /= self.neg_denom
        e = self.cV - self.b_t.dot(Y)
        e -= self.M.dot(ell.T)
        K = self.Q.dot(e.conj().T)
        J = float((e * K.T).sum().real)
        if not math.isfinite(J):
            return math.inf, None
        return J, (ell, K)

    def gradient(self, state: tuple) -> tuple[np.ndarray, None]:
        """``(grad, None)`` at the point :meth:`value` returned ``state`` for."""
        ell, K = state
        G = K.dot(self.b_h)
        G += G.conj().T
        G /= self.herm_denom
        R = G.dot(ell.conj())
        R -= K.dot(self.M)
        grad = self.V.dot(R).real
        grad *= 2.0
        return grad, None


def objective_and_gradient(
    sys: StateSpaceSystem,
    P: np.ndarray,
    point: LurePoint,
    decomp: SpectralDecomposition | None = None,
) -> ObjectiveEval:
    """Evaluate the squared H2 error and its gradient in ``L``.

    Exactly two Lyapunov solves: one for ``X`` (inside the output-map
    parameterization) and one for the adjoint variable ``X_grad``.  The
    same arithmetic as :func:`klap`'s inner runs where ``A`` has no trusted
    eigenbasis; with one, they evaluate in that basis
    (:class:`_ModalObjective`, see :class:`_Frame`), which agrees with this
    to rounding.

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
        Gradient-norm stopping threshold of the inner minimization, in the
        coordinates the run works in (see :func:`klap`).  A run it stops
        above ``1e-8`` is certified by the KYP dual bound alone.
    obj_rel_tol : float
        Relative objective-change stop:
        ``|J_k - J_{k-1}| <= obj_rel_tol * (|J_k| + obj_rel_tol)``.  The
        default, ``1e-14``, stops a run only where ``J`` no longer moves
        above rounding.
    max_iterations : int
        Cap on the accepted L-BFGS steps of one round, which is one inner
        run.
    max_restarts : int
        Restarts, each after a point that neither the spectral certificate
        nor the KYP dual bound certifies, before returning the best iterate.
        With ``0`` the one run's point is still judged by both, so
        :attr:`KlapResult.converged` and :attr:`KlapResult.duality_gap`
        keep their meaning.
    rng_seed : int
        Seed (``>= 0``) of the random starts: the fallback of
        :func:`initialize` when both Riccati attempts fail, and the starts
        that replace a failed restart step.  Runs are deterministic given
        the seed.
    L0 : ndarray, optional
        Explicit starting factor (n x m) in place of the Riccati start of
        :func:`initialize`.
    """

    grad_tol: float = _STATIONARY_GRAD
    obj_rel_tol: float = 1e-14
    max_iterations: int = 50_000
    max_restarts: int = 5
    rng_seed: int = 0
    L0: np.ndarray | None = None

    def __post_init__(self):
        for name in ("grad_tol", "obj_rel_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive")
        for name, low in (("max_iterations", 1), ("max_restarts", 0), ("rng_seed", 0)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
            object.__setattr__(self, name, value)


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
    every accepted step; ``J`` is non-increasing along it.  ``L``,
    ``gradient_norm`` and the norms of ``trace`` are in the coordinates of
    the objective minimized (in :func:`klap`, those of its :class:`_Frame`).
    """

    L: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    converged: bool
    status: str
    trace: tuple[tuple[float, float], ...]


def lbfgs_minimize(
    objective: _Objective | _ModalObjective,
    H0: np.ndarray,
    L0: np.ndarray,
    config: KlapConfig | None = None,
) -> LbfgsResult:
    """Minimize ``objective`` over the ``n x m`` factor ``L`` by
    limited-memory BFGS in the metric ``H0``, from ``L0``.

    ``objective`` has :class:`_Objective`'s interface: ``value(L)`` returns
    ``(J, state)``, ``(inf, None)`` where ``J`` is not finite, and
    ``gradient(state)`` returns the gradient first.  ``H0`` (n x n) is the
    initial inverse Hessian, acting on the ``n x m`` gradient; in
    :func:`klap` both come from the call's :class:`_Frame`.

    Two-loop recursion over the last 10 curvature pairs, with the initial
    inverse Hessian ``gamma H0`` and ``gamma = s.y / (y . H0 y)`` of the
    newest pair.  The search direction is ``-H0 g`` until curvature
    information exists, with first trial step ``1 / max(1, sqrt(g . H0 g))``.
    An Armijo backtracking line search (sufficient decrease ``1e-4``, step
    halving) makes the objective strictly decreasing across accepted steps.
    The line search needs only ``J`` at a trial point, so the gradient is
    evaluated only at the start and at accepted steps.

    Stops when the Euclidean ``||grad|| <= grad_tol``, when the relative
    objective change drops below ``obj_rel_tol``, or after
    ``max_iterations`` accepted steps.  A failed line search returns the
    best iterate with ``converged = False``, and so does an accepted step
    that leaves the objective bit-identical at ``||grad|| > grad_tol``
    (status ``"line-search"``: the Armijo test passed only because
    ``f + 1e-4 t g.d`` rounds to ``f``).  ``trace`` records the
    Euclidean gradient norm, as the stop test does.
    """
    cfg = config or KlapConfig()
    L0 = np.asarray(L0, dtype=float)
    shape = L0.shape

    def gradient(state: tuple) -> np.ndarray:
        return objective.gradient(state)[0].ravel()

    def precondition(v: np.ndarray) -> np.ndarray:
        return H0.dot(v.reshape(shape)).ravel()

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
    gamma = 1.0  # s.y / y.H0 y of the newest pair
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
        q = precondition(q)
        if k:
            q *= gamma
        for i in range(k):
            b = rho_hist[i] * y_hist[i].dot(q)
            q += (alphas[i] - b) * s_hist[i]
        d = np.negative(q, out=q)
        gd = g.dot(d)
        if not math.isfinite(gd) or gd >= 0.0:
            # non-descent direction: reset to the preconditioned steepest one
            d = -precondition(g)
            gd = g.dot(d)

        # Armijo backtracking needs only J at a trial point; the gradient
        # is evaluated once, at the accepted one.  Without a stored pair
        # d = -H0 g, so -gd = g.H0 g
        t = 1.0 if s_hist else 1.0 / max(1.0, math.sqrt(-gd))
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
        sy = s_vec.dot(y_vec)
        if sy > 1e-10 * math.sqrt(s_vec.dot(s_vec)) * math.sqrt(y_vec.dot(y_vec)):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            gamma = sy / y_vec.dot(precondition(y_vec))
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        f_prev, x, f, g = f, x_new, f_new, g_new
        g_norm = math.sqrt(g.dot(g))
        iterations += 1
        trace.append((f, g_norm))
        if abs(f_prev - f) <= cfg.obj_rel_tol * (abs(f) + cfg.obj_rel_tol):
            # J bit-identical away from stationarity: the search ran dry
            stalled = f == f_prev and g_norm > cfg.grad_tol
            status, converged = ("line-search", False) if stalled else ("objective-change", True)
            break

    return LbfgsResult(
        L=x.reshape(shape),
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
    rng: np.random.Generator | None = None,
    popov_min: float | None = None,
) -> Initialization:
    """Riccati-based starting factor.

    Scan the Popov function on the default grid for its minimum
    ``popov_min`` (unless the caller gives it); enlarge the
    feedthrough by ``delta = max(eps, -popov_min/2 + eps)`` with margin
    ``eps = 1e-3 * |popov_min|``, which makes the
    perturbed system strictly passive; solve that system's minimal Riccati
    equation and set ``L0 = (C^T - X_min B) M_pert^{-1}`` using the
    *perturbed* square root ``M_pert`` (the original ``M`` may be singular,
    e.g. for ``D = 0``).  The clamp at ``eps`` keeps the feedthrough from
    shrinking when the input is already passive.

    If the perturbed equation is unsolvable (the grid may underestimate the
    true Popov minimum), retry once with ``10 * eps``; if that also fails,
    fall back to a scaled random factor drawn from ``rng`` (by default a
    generator seeded with 0).  Any start is feasible, so the fallback costs
    optimization effort, never correctness.
    """
    if popov_min is None:
        popov_min = popov_scan(sys).global_min
    eps = 1e-3 * abs(popov_min)
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
        rng = np.random.default_rng(0)
    M = sys._feedthrough_root()
    _log.info("Riccati initialization failed twice; using a random start")
    return Initialization(_random_factor(rng, sys, M), 0.0, popov_min, "random")


def restart_step(
    sys: StateSpaceSystem, P: np.ndarray, C_star: np.ndarray
) -> np.ndarray | None:
    """Escape a stationary point that the certificate rejected.

    At a stationary point whose surrogate output map ``C_star`` (the
    ``C_hat`` of the rejected factor) is not a certified global optimum,
    take a small gradient step directly in output space,
    ``C_new = C_star - alpha * 2 (C_star - C) P`` with ``alpha = 1e-8``,
    and return the factor recovered from the stepped system's minimal
    Riccati solution.  The recovery is the step's only passivity test: with
    ``D + D^T`` definite, a stepped system outside the passive set has no
    stabilizing Riccati solution, so a step that leaves the set shows up
    as a failed recovery: ``None`` is returned, and the caller draws a
    fresh start.

    The Riccati recovery runs with a relaxed residual tolerance: the
    stepped system sits near the passive boundary, where the Riccati
    equation is close to marginal.
    """
    stepped = sys.with_output(C_star - _RESTART_ALPHA * (2.0 * (C_star - sys.C) @ P))
    try:
        L_new, _ = l_from_are(stepped, solve_are(stepped, "minimal", tol=1e-6).X)
    except (NoSolutionError, SingularFeedthroughError) as exc:
        _log.debug("factor recovery failed at alpha=%.1e: %s", _RESTART_ALPHA, exc)
        return None
    _log.debug("restart step accepted at alpha=%.1e", _RESTART_ALPHA)
    return L_new


class _Frame:
    """The coordinates of one :func:`klap` call's inner runs, and what the
    runs evaluate in them, built once per call from the system, its
    Gramian ``P`` and ``M``.

    Where the system's kernel solves in the eigenbasis of ``A``, the runs
    work in floored square-root-Gramian coordinates ``x = T x'``, in which
    the Gramian ``P' = T^{-1} P T^{-T}`` is close to the identity:
    ``T = U diag(sqrt(s))`` from ``gramian = (s, U) = eigh(P)``, with ``s``
    floored at :data:`_GRAMIAN_FLOOR` times the largest.  A run minimizes
    the modal objective of ``L' = T^T L`` on the mapped eigenbasis ``T^{-1}
    V`` (:class:`_ModalObjective`), and its output maps are formed on
    ``system``, the similar system ``(T^{-1} A T, T^{-1} B, C T, D)``, and
    mapped back by ``T^{-1}``.  Elsewhere ``T = I`` (``T`` and ``T_inv``
    are ``None``, ``system`` is the system itself): without the modal
    evaluation every solve in new coordinates would be dense too, so the
    runs evaluate with :class:`_Objective` on the system's dense kernel.

    ``H0`` is the runs' L-BFGS metric: ``P'^{-1}``, with the eigenvalues of
    ``P'`` floored at :data:`_PRECOND_FLOOR` times the largest, from
    ``gramian`` itself where ``T = I``.  ``gramian`` also serves the KYP
    dual bound.  :func:`klap` drops ``objective`` once its last run has
    returned, so that run's judgement does not hold it (at n = 128 about
    four ``n x n`` complex arrays).
    """

    def __init__(self, sys: StateSpaceSystem, P: np.ndarray, M: np.ndarray):
        self.M = M
        self.gramian = s, U = np.linalg.eigh(P)
        lyap = sys._lyapunov()
        if lyap.diagonal:
            self.coordinates = "square-root-Gramian"
            floor = _GRAMIAN_FLOOR * s.max()
            r = np.sqrt(np.maximum(s, floor))
            self.T, self.T_inv = U * r, U.T / r[:, None]
            _log.debug("inner runs in square-root-Gramian coordinates: %d of %d Gramian "
                       "eigenvalues floored at %.0e * max, cond(T) = %.3e",
                       int((s < floor).sum()), sys.n, _GRAMIAN_FLOOR, r.max() / r.min())
            self.system = sys._similar(self.T, self.T_inv)
            self.objective = _ModalObjective(sys, M, self.T_inv)
            s, U = np.linalg.eigh(self.T_inv.dot(P).dot(self.T_inv.T))
        else:
            self.coordinates = "original"
            _log.debug("inner runs in original coordinates (T = I): A has no "
                       "trusted eigenbasis")
            self.T = self.T_inv = None
            self.system = sys
            self.objective = _Objective(sys, P, M, lyap)
        s = np.maximum(s, _PRECOND_FLOOR * s.max())
        self.H0 = (U / s).dot(U.T)

    def to_run(self, L: np.ndarray) -> np.ndarray:
        """A factor of the original coordinates in those of the runs."""
        return L if self.T is None else self.T.T.dot(L)

    def output_map(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(L, C_hat)`` in the original coordinates for the factor ``L``
        of the runs' coordinates, with ``C_hat`` formed on :attr:`system`
        through its checked kernel."""
        C_hat = c_of_l(self.system, LurePoint(L, self.M))
        if self.T_inv is None:
            return L, C_hat
        return self.T_inv.T.dot(L), C_hat.dot(self.T_inv)


class _Candidate(NamedTuple):
    """A point one inner run ended at (``run`` is ``None`` for a start no
    run finished from), judged once: its output map and ``J`` through the
    system's checked kernel, not the run's own (possibly modal) evaluation,
    its model's passivity verdict and its spectral certificate.

    ``verdict`` is ``None`` where the point could not become the returned
    one: the best point so far passes the check and this ``J`` is not below
    its ``J``, so no verdict would change the outcome."""

    run: LbfgsResult | None
    L: np.ndarray
    C_hat: np.ndarray
    J: float
    verdict: PassivityVerdict | None
    certificate: GlobalMinCertificate | None

    @property
    def spectral(self) -> bool:
        """The run stopped on a convergence criterion with ``||grad|| <=
        _STATIONARY_GRAD`` and the spectral certificate passes."""
        run, cert = self.run, self.certificate
        return bool(run and run.converged and run.gradient_norm <= _STATIONARY_GRAD
                    and cert and cert.is_global_candidate)


@dataclass(frozen=True)
class KlapResult:
    """Result of a passivation run.

    Attributes
    ----------
    C_hat : (m, n) ndarray
        Passivating output map (equals ``C`` when the input was passive).
    L_final : (n, m) ndarray or None
        Factor attaining ``C_hat`` (``None`` when the input was passive
        and no optimization ran), in the original coordinates.  Where the
        run worked in square-root-Gramian coordinates, ``C_hat`` was formed
        there and ``L_final = T^{-T} L'`` is mapped back, so ``c_of_l``
        of ``L_final`` gives ``C_hat`` only in exact arithmetic.
    M : (m, m) ndarray
        Square root of ``D + D^T`` used throughout the run: the one the
        system keeps, read-only.
    J_final : float
        Squared H2 distance at ``C_hat``.  Rounding can leave the Gramian
        indefinite and this value slightly negative; :attr:`message` then
        says so.
    h2_error : float
        ``sqrt(max(J_final, 0))`` — the H2 distance itself.
    iterations : int
        Accepted quasi-Newton steps, summed over all rounds (at most
        ``max_iterations`` per round).
    restarts : int
        Restarts actually performed.
    certificate : GlobalMinCertificate or None
        Spectral certificate evaluated at ``L_final``; ``None`` for a
        passive input and where ``D + D^T`` is singular but nonzero (no
        closed loop to test, so only the dual bound certifies).
    converged : bool
        Whether ``L_final`` is certified as a global optimum: the returned
        :attr:`system` passes :func:`~klap.passivity.check_passive`
        (``C_hat(L)`` is passive in exact arithmetic, so rounding can break
        that; :attr:`message` then gives the margin), and either the inner
        run that produced it stopped on a convergence criterion (not
        line-search failure / iteration cap) at a gradient norm, in the
        run's coordinates, of at most ``1e-8`` and the spectral certificate
        passes there, or
        :attr:`duality_gap` is at most ``1e-7``.  True for a passive input.
    trace : tuple of (J, grad-norm) pairs
        Per-iteration log, concatenated across restarts, as the inner runs
        evaluated it: the gradient norm is in the run's coordinates.
    passive_input : bool
        Input system was already passive (by the Popov scan, confirmed by
        :func:`~klap.passivity.check_passive`); returned unchanged.
    delta : float
        Feedthrough enlargement used by the initialization (0.0 when not
        applicable).
    popov_min : float
        Scanned minimum of the input system's Popov function, or the
        margin of the :func:`~klap.passivity.check_passive` verdict where
        the scan missed a violation.
    initial_J : float
        Objective at the very first iterate.
    system : StateSpaceSystem
        The passivated system ``(A, B, C_hat, D)``.
    message : str
        Human-readable stop reason, followed by what is wrong with the
        returned point: a model that fails the passivity check, a negative
        ``J_final``.
    duality_gap : float or None
        Relative gap ``(J_final - g) / J_final`` of the highest lower bound
        ``g <= J*`` the KYP dual map returned over all rounds (a bound found
        at any point bounds the optimum); ``None`` where the spectral
        certificate certified ``L_final`` or no validated bound was found.
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
    duality_gap: float | None = None


def klap(
    sys: StateSpaceSystem,
    config: KlapConfig | None = None,
    **overrides,
) -> KlapResult:
    """Find the passive system closest to ``sys`` in the H2 norm.

    The run starts from ``config.L0``, or else from the Riccati start of
    :func:`initialize`.  Each round is one inner minimization of the
    squared H2 error over the Lur'e factor, in the coordinates of the
    call's :class:`_Frame` (floored square-root-Gramian ones where ``A``
    has a trusted eigenbasis, the original ones otherwise), which also
    gives every run its objective and L-BFGS metric and maps every start
    into those coordinates.  Each run's point is
    judged once, in the original coordinates, on the output map and its
    ``J`` recomputed with the system's Gramian (not the inner run's own
    evaluation): its model's
    :func:`~klap.passivity.check_passive` verdict and the spectral
    global-optimality certificate (closed-loop spectrum on the imaginary
    axis).  The best point is the one of lowest ``J`` among those whose
    model passes the check (``C_hat(L)`` is passive in exact arithmetic,
    but its rounding grows with ``||L||^2``), or, when none passes, the
    one of lowest ``J``, returned with a warning and the margin in
    :attr:`KlapResult.message`.  So the verdict is computed only where the
    point can become the best: there is no best yet, the best fails the
    check, or this ``J`` is below the best's.  A point whose ``J`` is not
    below a passing best is left without one.  While the best point is not
    certified, the KYP dual bound is evaluated at each round's point, and
    the highest bound found is kept.  The best point is certified when its model passes
    the check and either its run stopped on a convergence criterion at a
    gradient norm of at most ``1e-8`` and the spectral test passes there
    (the cheap first gate) or its ``J`` is within ``1e-7`` (relative) of
    the bound.  A certified best point stops the run; otherwise, while
    restart budget is left, the next round starts
    from :func:`restart_step` of the output map just judged — an
    output-space gradient step plus Riccati factor recovery when the step
    stays passive, a fresh random start otherwise.
    :attr:`KlapResult.converged` says whether the returned point is
    certified.

    A passive input short-circuits: the result carries ``C_hat = C``,
    zero error, and no certificate.  A scanned Popov minimum within the
    tolerance of :func:`~klap.passivity.check_passive` is confirmed by that
    check first, since a violation narrower than the grid spacing escapes
    the scan; the default-grid scan the check takes the margin of a
    violation from is the one already made.

    Keyword overrides are applied on top of ``config``
    (e.g. ``klap(sys, rng_seed=3, max_restarts=0)``).

    Raises on invalid input (e.g. ``D + D^T`` indefinite — no passive
    system shares such a feedthrough — or an ``L0`` where the objective is
    not finite); once optimization has begun, failures are absorbed into a
    result with ``converged = False``.
    """
    cfg = config or KlapConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    L_start = None if cfg.L0 is None else np.asarray(cfg.L0, dtype=float)
    if L_start is not None and L_start.shape != (sys.n, sys.m):
        raise DimensionMismatchError(f"L0 must be {sys.n} x {sys.m}, got {L_start.shape}")

    try:
        M = sys._feedthrough_root()
    except NotPsdError as exc:
        raise NotPsdError(
            "D + D^T has a significantly negative eigenvalue, so no passive "
            "system shares this feedthrough and passivation cannot succeed"
        ) from exc

    P = controllability_gramian(sys)
    if L_start is not None:
        # a start where J is not finite would abort the first run
        try:
            with np.errstate(all="ignore"):
                J_start = h2_error_sq(sys, c_of_l(sys, LurePoint(L_start, M)), P=P)
        except SingularOperatorError:  # X overflows
            J_start = math.nan
        if not math.isfinite(J_start):
            raise DimensionMismatchError("the objective is not finite at L0")

    popov_min = popov_scan(sys).global_min
    if popov_min >= -_passive_tolerance(sys):
        verdict = _sampled_verdict(sys)[0]
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
                popov_min=popov_min,
                initial_J=0.0,
                system=sys,
                message="input system is already passive; returned unchanged",
            )
        # the grid missed the violation: start from the confirmed margin,
        # check_passive's own, whose default-grid scan is the one above
        popov_min = min(verdict.margin, popov_min)

    rng = np.random.default_rng(cfg.rng_seed)
    delta = 0.0
    if L_start is None:
        ini = initialize(sys, rng=rng, popov_min=popov_min)
        L_start, delta = ini.L0, ini.delta

    frame = _Frame(sys, P, M)
    L_start = frame.to_run(L_start)
    trace: list[tuple[float, float]] = []
    total_iterations = 0
    restarts_used = 0
    best: _Candidate | None = None
    # the highest KYP dual lower bound g <= J* found so far, at any point
    lower: float | None = None
    # the KYP dual bound's map (C_hat, J) -> g, built on the first
    # uncertified round
    dual_bound = None
    message = "restart budget exhausted without certificate"

    def judge(L: np.ndarray, run: LbfgsResult | None = None) -> _Candidate:
        """Judge the point ``L`` of the run coordinates in the original ones;
        its model is checked only where the point can become the best."""
        L, C_hat = frame.output_map(L)
        J = h2_error_sq(sys, C_hat, P=P)
        verdict = None
        if best is None or not best.verdict.passive or J < best.J:
            verdict = check_passive(sys.with_output(C_hat))
        return _Candidate(run, L, C_hat, J, verdict, global_min_certificate(sys, L))

    def gap(c: _Candidate) -> float | None:
        return None if lower is None else (c.J - lower) / c.J

    def certified(c: _Candidate) -> bool:
        return c.verdict.passive and (c.spectral or lower is not None and gap(c) <= _DUAL_GAP_RTOL)

    try:
        for round_index in range(cfg.max_restarts + 1):
            run = lbfgs_minimize(frame.objective, frame.H0, L_start, cfg)
            if round_index == cfg.max_restarts:
                frame.objective = None  # the last run is done; no judgement evaluates it
            trace.extend(run.trace)
            total_iterations += run.iterations
            cand = judge(run.L, run)
            # a model that fails the passivity check is the best only while
            # no model that passes it has been found
            if cand.verdict is not None and (best is None or (
                (not cand.verdict.passive, cand.J) < (not best.verdict.passive, best.J)
            )):
                best = cand
            # the spectral test rejects true optima too: while the best point
            # is not certified, the dual bound judges every point
            gap_text = "not evaluated"
            if not certified(best):
                if dual_bound is None:
                    dual_bound = _kyp_dual(sys, *frame.gramian)
                g = dual_bound(cand.C_hat, cand.J)
                gap_text = "none" if g is None else f"{(cand.J - g) / cand.J:.3e}"
                if g is not None and (lower is None or g > lower):
                    lower = g
            if cand.verdict is None:
                verdict_text = (f"check_passive not run: J {cand.J:.17g} not below the "
                                f"passing best {best.J:.17g}")
            else:
                verdict_text = (f"check_passive {'passes' if cand.verdict.passive else 'fails'}"
                                f" (margin {cand.verdict.margin:.3e})")
            _log.debug("round %d: %s after %d iterations, J = %.17g, ||grad J|| = %.3e "
                       "in %s coordinates, %s, dual gap %s",
                       round_index, run.status, run.iterations, cand.J, run.gradient_norm,
                       frame.coordinates, verdict_text, gap_text)
            if certified(best):
                if not best.spectral:
                    message = "stationary point certified by the KYP dual bound"
                elif best.certificate.vacuous:
                    message = "every stationary point is a global optimum (M = 0)"
                else:
                    message = "stationary point certified as a global optimum"
                break
            if round_index == cfg.max_restarts:
                break
            L_start = restart_step(sys, P, cand.C_hat)
            if L_start is None:
                L_start = _random_factor(rng, sys, M)
            L_start = frame.to_run(L_start)
            restarts_used += 1
    except Exception as exc:  # contract: never raise once optimization began
        _log.warning("optimization aborted: %s", exc)
        message = f"optimization aborted: {exc}"

    if best is None:  # no inner run finished
        best = judge(L_start)
    if not best.verdict.passive:
        message = (f"{message}; the returned model fails the passivity check "
                   f"(margin {best.verdict.margin:.3e})")
        _log.warning("the returned model fails the passivity check (margin %.3e)",
                     best.verdict.margin)
    if best.J < 0.0:
        # tr(E P E^T) on a Gramian whose rounding leaves it indefinite
        message = (f"{message}; the judged J is negative ({best.J:.4e}), so h2_error "
                   "reads 0")
        _log.warning("the judged J of the returned point is negative (%.4e); h2_error "
                     "reads 0", best.J)
    return KlapResult(
        C_hat=best.C_hat,
        L_final=best.L,
        M=M,
        J_final=best.J,
        h2_error=math.sqrt(max(best.J, 0.0)),
        iterations=total_iterations,
        restarts=restarts_used,
        certificate=best.certificate,
        converged=certified(best),
        trace=tuple(trace),
        passive_input=False,
        delta=delta,
        popov_min=popov_min,
        initial_J=float(trace[0][0] if trace else best.J),
        system=sys.with_output(best.C_hat),
        message=message,
        duality_gap=None if best.spectral else gap(best),
    )
