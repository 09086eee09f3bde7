"""Passivity analysis: KYP feasibility, Riccati equations, certificates.

A stable system ``(A, B, C, D)`` is passive iff the Lur'e equations

.. math::

    A^T X + X A = -L L^T, \\qquad
    X B - C^T = -L M^T, \\qquad
    D + D^T = M M^T

admit a solution with ``X = X^T \\succeq 0``; equivalently the KYP block
matrix ``W(X)`` is PSD for some ``X``, and equivalently the Popov function
``Phi(i w) = G(i w) + G(i w)^H`` is PSD on the whole imaginary axis.  When
``R = D + D^T`` is invertible, the rank-minimizing solutions are exactly
the solutions of the algebraic Riccati equation

.. math::

    A^T X + X A + (C^T - X B) R^{-1} (C - B^T X) = 0,

whose solution set is an ordered lattice: the extremal solutions
``X_min <= X <= X_max`` are characterized through the closed-loop matrix
``Y(X) = A - B R^{-1} (C - B^T X)`` having spectrum in the closed left
(respectively right) half-plane.  :func:`solve_are` computes ``X_min``, the
stabilizing solution the initialization starts from, by Kleinman's damped
Newton iteration; at its first damped step that does not halve the
residual it hands over to a Hamiltonian-Schur solve, which is returned iff
it meets the residual tolerance at its own scale with a stable closed
loop.  ``X_max`` is never
formed: the coincidence ``X_min = X_max`` — a closed-loop spectrum
entirely on the imaginary axis — is what :func:`global_min_certificate`
tests to certify that a candidate passivation cannot be improved upon.
That test also rejects true optima; :func:`_kyp_dual` bounds the
optimum from below through the dual of the convex KYP problem and
certifies the points it rejects.

SciPy is bound on first use, not at import: the Schur forms and
``trsyl`` of the Newton iteration and the ``trtri`` of :func:`_kyp_dual`
come through :func:`klap.linalg._lapack`, and the Hamiltonian-Schur
refinement imports ``scipy.linalg`` where it calls
``solve_continuous_are``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NoSolutionError,
    SingularFeedthroughError,
)
from .linalg import _bartels_stewart, _lapack, _real_schur
from .system import StateSpaceSystem, popov_scan

__all__ = [
    "AreSolution",
    "PassivityVerdict",
    "GlobalMinCertificate",
    "solve_are",
    "check_passive",
    "l_from_are",
    "global_min_certificate",
]

_log = logging.getLogger(__name__)

#: relative margin tolerance of :func:`check_passive`: boundary systems
#: produced by passivation land within ``-PASSIVE_TOL * scale``
PASSIVE_TOL = 1e-8

#: Newton step budget of each Riccati solve
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class AreSolution:
    """The minimal (stabilizing) solution of the passivity Riccati equation.

    Attributes
    ----------
    X : (n, n) ndarray
        Symmetric solution.
    closed_loop_max_real : float
        Largest eigenvalue real part of ``Y(X) = A - B R^{-1} (C - B^T X)``,
        read off the real Schur form of ``Y(X)^T`` that the last stability
        test (of the Newton iterate or of the Hamiltonian-Schur solve)
        computed; approximately ``<= 0``.
    newton_iterations : int
        Accepted Newton steps performed.
    residual : float
        Frobenius norm of the Riccati residual at ``X``.
    """

    X: np.ndarray
    closed_loop_max_real: float
    newton_iterations: int
    residual: float


def _gain(B, C, R, X) -> np.ndarray:
    """``F = R^{-1} (C - B^T X)``, the gain of the closed loop ``A - B F``."""
    return np.linalg.solve(R, C - B.T @ X)


def _are_residual(A, B, C, X, F) -> np.ndarray:
    """Riccati residual at ``X``, given its gain ``F = _gain(B, C, R, X)``."""
    return A.T @ X + X @ A + (C.T - X @ B) @ F


def _residual_norm(A, B, C, R, X) -> np.floating:
    """Frobenius norm of the Riccati residual at ``X``."""
    return np.linalg.norm(_are_residual(A, B, C, X, _gain(B, C, R, X)), "fro")


def _closed_loop(A, B, C, R, X) -> np.ndarray:
    return A - B @ _gain(B, C, R, X)


def _max_real(schur: tuple) -> float:
    """Largest eigenvalue real part, read off a :func:`_real_schur` form."""
    return float(schur[2].max())


def _newton_minimal(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    R: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, int, float, float]:
    """Damped Newton iteration for the minimal Riccati solution.

    Each accepted step solves one Lyapunov equation with the current
    closed loop ``Y_k = A - B K_k``; step damping keeps the closed loop
    Hurwitz and the residual non-increasing.  The iteration starts from the
    zero gain, which needs ``A`` Hurwitz.  Returns ``X``, the accepted
    steps, the residual norm and the largest real part of the closed-loop
    spectrum at ``X``.  Raises :class:`NoSolutionError` if no acceptable
    solution is found.

    Newton returns the first iterate whose residual is at most ``tol *
    max(1, ||X||_F)``.  It hands over to a Hamiltonian-Schur solve of the
    Riccati equation (near-marginal problems, where the Newton basin
    collapses against the imaginary axis) at the first accepted step that
    was damped and did not halve the residual, after five steps in a row
    that did not halve it, when no damping trial is acceptable, or when
    the step budget is spent.  That solve is judged on its own: it is
    returned iff its residual meets the same tolerance at its own scale and
    its closed loop's spectral abscissa is at most ``1e-8 max(1,
    ||A||_F)``; otherwise :class:`NoSolutionError` is raised.  Every
    Newton iterate that met the tolerance was already returned, so no
    iterate is kept for comparison.  Each solve logs one debug line: the
    Newton iterations, how Newton ended and, where it ran, the refinement's
    residual against its tolerance and whether it was returned.

    The zero-gain start's first step is taken in closed form: its
    Lyapunov right-hand side ``Q(0)`` vanishes, so its Newton iterate and
    every damping trial is ``X = 0``, with gain ``R^{-1} C``.  That step
    is one Schur form of ``(A - B R^{-1} C)^T``: accepted undamped (with
    the residual unchanged, so it counts as a stall) when that closed loop
    is Hurwitz, and otherwise no Newton step is acceptable and the
    refinement runs at once.

    Every closed loop that decides a step is factored once, into the real
    Schur form of ``Y^T``: each damping trial computes its gain ``F_t =
    R^{-1} (C - B^T X_t)`` and its residual; a trial whose residual rises
    is rejected without a factorization, and otherwise the Schur form of
    ``(A - B F_t)^T`` gives its stability test.  The accepted trial's gain
    and Schur form are the next step's ``K`` and Lyapunov factorization
    (the closed loop of that step is the same matrix); a trial that meets
    the tolerance ends the iteration, so it is factored without Schur
    vectors.
    """
    n = A.shape[0]
    X = np.zeros((n, n))
    K = _gain(B, C, R, X)
    res_norm = np.linalg.norm(_are_residual(A, B, C, X, K), "fro")
    schur = _real_schur((A - B @ K).T)
    abscissa = _max_real(schur)
    iterations, stalls, ending = 0, 0, "stopped: no acceptable trial"
    if abscissa < 0:
        if res_norm <= tol:  # the residual scale max(1, ||X||) is 1 at X = 0
            _log.debug("Riccati solve: 1 Newton iteration, converged")
            return X, 1, res_norm, abscissa
        iterations, stalls, ending = 1, 1, "stopped: step budget spent"
    for _ in range(_NEWTON_STEPS - 1 if iterations else 0):
        Q = C.T @ K + K.T @ C - K.T @ R @ K
        X_full = _bartels_stewart(schur, -Q)
        X_full = 0.5 * (X_full + X_full.T)
        # damping: largest step in {1, 1/2, ...} that keeps the closed loop
        # stable and does not increase the residual
        accepted = False
        t = 1.0
        for _ in range(25):
            X_t = X + t * (X_full - X)
            F_t = _gain(B, C, R, X_t)
            r_t = np.linalg.norm(_are_residual(A, B, C, X_t, F_t), "fro")
            if r_t <= res_norm:
                done = r_t <= tol * max(1.0, float(np.linalg.norm(X_t, "fro")))
                schur_t = _real_schur((A - B @ F_t).T, vectors=not done)
                abscissa = _max_real(schur_t)
                if abscissa < 0:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            ending = "stopped: no acceptable trial"
            break
        iterations += 1
        if done:
            _log.debug("Riccati solve: %d Newton iterations, converged", iterations)
            return X_t, iterations, r_t, abscissa
        stalled = r_t > 0.5 * res_norm
        stalls = stalls + 1 if stalled else 0
        X, res_norm, K, schur = X_t, r_t, F_t, schur_t
        if stalled and t < 1.0:
            ending = "stopped at a damped stall"
            break
        if stalls >= 5:
            ending = "stopped after five stalls"
            break

    scale = max(1.0, float(np.linalg.norm(X, "fro")))
    ending = f"{ending} at residual {res_norm:.3e}"
    import scipy.linalg

    try:
        X_schur = scipy.linalg.solve_continuous_are(
            A, B, np.zeros_like(A), -R, s=-C.T
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        _log.debug("Riccati solve: %d Newton iterations, %s; Hamiltonian-Schur refinement "
                   "unavailable: %s", iterations, ending, exc)
    else:
        X = 0.5 * (X_schur + X_schur.T)
        res_norm = _residual_norm(A, B, C, R, X)
        scale = max(1.0, float(np.linalg.norm(X, "fro")))
        verdict = "rejected: residual above tolerance"
        if res_norm <= tol * scale:
            abscissa = _max_real(_real_schur(_closed_loop(A, B, C, R, X).T, vectors=False))
            verdict = f"rejected: closed-loop abscissa {abscissa:.3e}"
            if abscissa <= 1e-8 * max(1.0, float(np.linalg.norm(A, "fro"))):
                verdict = "returned"
        _log.debug("Riccati solve: %d Newton iterations, %s; Hamiltonian-Schur refinement "
                   "residual %.3e vs tolerance %.3e: %s",
                   iterations, ending, res_norm, tol * scale, verdict)
        if verdict == "returned":
            return X, iterations, res_norm, abscissa
    raise NoSolutionError(
        f"Riccati iteration did not converge (residual {res_norm:.3e} vs "
        f"tolerance {tol * scale:.3e}); the system is likely not strictly passive"
    )


def solve_are(
    sys: StateSpaceSystem,
    kind: str = "minimal",
    tol: float = 1e-10,
) -> AreSolution:
    """Minimal (stabilizing) solution of the passivity Riccati equation.

    The damped Newton iteration of :func:`_newton_minimal`, started from
    the zero gain since ``A`` is Hurwitz; each closed loop that decides a
    step is factored once, into the real Schur form that tests its
    stability and serves the next Lyapunov solve.  At the first accepted
    step that was damped and did not halve the residual (or after five
    steps in a row that did not halve it, or when no damping trial is
    acceptable) Newton hands over to a Hamiltonian-Schur solve, which is
    returned iff it meets ``tol`` at its own scale and its closed loop is
    stable to ``1e-8 max(1, ||A||_F)``.  Each solve logs one debug line
    on the ``klap.passivity`` logger: the Newton iterations, how Newton
    ended and, where it ran, the refinement's residual against its
    tolerance and whether it was returned.

    Parameters
    ----------
    sys : StateSpaceSystem
        Must have ``D + D^T`` positive definite.
    kind : {"minimal"}
        The only solution computed; any other value raises ``ValueError``.
    tol : float
        Relative residual target: accept when
        ``||residual||_F <= tol * max(1, ||X||_F)``.  Near-marginal
        problems (systems barely inside the passive set) cannot reach
        ``1e-10``; callers that only need a usable interior point pass a
        relaxed tolerance.  The iteration takes at most 100 steps.

    Raises
    ------
    SingularFeedthroughError
        If ``D + D^T`` is singular at working precision.
    NoSolutionError
        If Newton stops short of ``tol`` and the Hamiltonian-Schur solve
        fails, misses ``tol`` or has an unstable closed loop — in
        particular when the system is not passivatable by its feedthrough,
        so no stabilizing solution exists.
    """
    if kind != "minimal":
        raise ValueError(f"kind must be 'minimal', got {kind!r}")
    R, _, _, definite = sys._feedthrough()
    if not definite:
        raise SingularFeedthroughError(
            "D + D^T is singular; the Riccati form of the Lur'e equations "
            "requires a positive definite feedthrough Gram matrix"
        )
    # A is Hurwitz (checked when sys was built): Newton starts at K = 0
    X, iters, res, abscissa = _newton_minimal(sys.A, sys.B, sys.C, R, tol)
    return AreSolution(0.5 * (X + X.T), abscissa, iters, res)


@dataclass(frozen=True)
class PassivityVerdict:
    """Outcome of a passivity test.

    ``margin`` is signed: the smallest Popov eigenvalue over the
    frequencies sampled, negative when the system is not passive.  For a
    passive system that is a sample of the Popov function, not its minimum.
    """

    passive: bool
    margin: float


def _passive_tolerance(sys: StateSpaceSystem) -> float:
    """The tolerance ``eps = PASSIVE_TOL * max(1, ||R||_2, ||Phi(0)||_2)``,
    ``R = D + D^T``, of :func:`check_passive`."""
    _, _, norm_R, _ = sys._feedthrough()
    return PASSIVE_TOL * max(1.0, norm_R, float(np.linalg.norm(sys._popov_at_zero(), 2)))


def _hamiltonian_matrix(sys: StateSpaceSystem, R: np.ndarray) -> np.ndarray:
    A, B, C = sys.A, sys.B, sys.C
    RinvC = np.linalg.solve(R, C)
    RinvBt = np.linalg.solve(R, B.T)
    Abar = A - B @ RinvC
    return np.block([[Abar, -B @ RinvBt], [C.T @ RinvC, -Abar.T]])


def _sampled_verdict(sys: StateSpaceSystem) -> tuple[PassivityVerdict, bool]:
    """:func:`check_passive`'s verdict without its default-grid rescan.

    Returns the verdict and whether its margin is the sampled minimum
    (``False`` where ``lambda_min(R) < -eps`` gives it): the margin of a
    failing sampled verdict is that minimum alone.  For a caller that
    discards the margin of a violation, or already holds the default
    scan's minimum, this is the whole check.
    """
    R, lam, _, _ = sys._feedthrough()
    eps = _passive_tolerance(sys)
    lam_R = float(lam[0])
    if lam_R < -eps:
        return PassivityVerdict(False, lam_R), False
    H = _hamiltonian_matrix(sys, R + eps * np.eye(sys.m))
    ev = np.linalg.eigvals(H)
    axis_tol = 1e-9 * max(1.0, float(np.linalg.norm(H, "fro")))
    crossings = np.unique(np.abs(ev.imag[np.abs(ev.real) <= axis_tol]))
    grid = np.concatenate(([0.0], 0.5 * (crossings[1:] + crossings[:-1])))
    sampled = popov_scan(sys, grid=grid).global_min
    return PassivityVerdict(bool(sampled >= -eps), sampled), True


def check_passive(sys: StateSpaceSystem) -> PassivityVerdict:
    """Decide whether ``lambda_min(Phi(i w)) >= -eps`` at every frequency,
    ``eps = PASSIVE_TOL * max(1, ||R||_2, ||Phi(0)||_2)``, ``R = D + D^T``.

    Since ``Phi(i w) -> R`` as ``w`` grows, ``lambda_min(R) < -eps`` is a
    violation at high frequency.  Otherwise the feedthrough is shifted by
    ``eps / 2``, which makes ``R + eps I`` definite for every PSD ``R``:
    the purely imaginary eigenvalues of the shifted system's Hamiltonian
    matrix are exactly the frequencies where an eigenvalue of ``Phi``
    crosses ``-eps``.  Between consecutive crossings (and below the first)
    ``Phi + eps I`` keeps its inertia, and above the last it is definite
    like ``R + eps I``, so samples at ``0`` and at the midpoints between
    crossings decide the verdict.  Near-axis eigenvalues count as
    crossings; a spurious one only adds a sample.

    The verdict is that of the crossings and samples alone; the margin of
    a sampled violation is then lowered to the minimum of the default
    Popov scan, which reads the depth of a wide violation better than a
    midpoint does.
    """
    verdict, sampled = _sampled_verdict(sys)
    if verdict.passive or not sampled:
        return verdict
    return PassivityVerdict(False, min(verdict.margin, popov_scan(sys).global_min))


def l_from_are(sys: StateSpaceSystem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the Lur'e factor pair ``(L, M)`` from a Riccati solution.

    ``M`` is the symmetric PSD square root of ``D + D^T`` (the read-only
    one the system keeps) and ``L = (C^T - X B) M^{-1}``; together with
    ``X`` they satisfy all three Lur'e equations exactly (up to the
    Riccati residual of ``X``).

    Raises
    ------
    SingularFeedthroughError
        If ``D + D^T`` is singular.
    """
    _, _, _, definite = sys._feedthrough()
    if not definite:
        raise SingularFeedthroughError("cannot invert M: D + D^T is singular")
    M = sys._feedthrough_root()
    X = np.asarray(X, dtype=float)
    L = np.linalg.solve(M, (sys.C.T - X @ sys.B).T).T
    return L, M


@dataclass(frozen=True)
class GlobalMinCertificate:
    """Spectral certificate that a candidate passivation is unimprovable.

    For an output map produced by a Lur'e factor ``L`` (with
    ``D + D^T = M M^T`` invertible), the closed-loop matrix
    ``Y = A - B R^{-1} M L^T`` has spectrum on the imaginary axis exactly
    when the extremal Riccati solutions of the passivated system coincide —
    in which case no better passive approximation exists and the candidate
    is a global optimum.  ``is_global_candidate`` reports
    ``max |Re lambda(Y)| <= tolerance``.

    A zero feedthrough Gram matrix (``M = 0``) makes every local optimum
    global; the certificate is then vacuous: ``is_global_candidate`` is
    true and the eigenvalue list is empty.
    """

    eigenvalues: np.ndarray
    max_abs_real: float
    tolerance: float
    is_global_candidate: bool
    vacuous: bool = field(default=False)


def global_min_certificate(
    sys: StateSpaceSystem, L: np.ndarray
) -> GlobalMinCertificate | None:
    """Evaluate the spectral global-optimality certificate at ``L``.

    :func:`~klap.optimizer.klap` uses it as the cheap first gate: a point
    it passes is returned as global.  It also rejects true optima (four of
    the five non-passive systems of the rand-small benchmark), so a point
    it rejects is judged by the KYP dual bound, which decides whether a
    restart follows.

    ``sys`` is the *original* (to-be-passivated) system and ``L`` the
    candidate Lur'e factor (n x m).  ``M`` is the square root of
    ``D + D^T`` and the axis tolerance ``1e-6 * ||A||_F``.  Returns
    ``None`` where ``D + D^T`` is singular but nonzero: there is no closed
    loop to test, and only the dual bound judges the point.

    Raises
    ------
    DimensionMismatchError
        If ``L`` is not n x m.
    NotPsdError
        If ``D + D^T`` is indefinite.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (sys.n, sys.m):
        raise DimensionMismatchError(f"L must be {sys.n} x {sys.m}, got {L.shape}")
    tol = 1e-6 * float(np.linalg.norm(sys.A, "fro"))
    R, _, _, definite = sys._feedthrough()
    M = sys._feedthrough_root()
    if not definite:
        if M.any():
            return None
        return GlobalMinCertificate(np.empty(0, dtype=complex), 0.0, tol, True, vacuous=True)
    Y = sys.A - sys.B @ np.linalg.solve(R, M @ L.T)
    ev = np.linalg.eigvals(Y)
    max_abs_real = float(np.abs(ev.real).max())
    return GlobalMinCertificate(ev, max_abs_real, tol, max_abs_real <= tol)


#: relative duality gap ``(J - g) / J`` at or below which the KYP dual
#: bound certifies a point (see :func:`_kyp_dual`)
_DUAL_GAP_RTOL = 1e-7

#: barrier weights ``mu / J`` of the dual's path, one Newton centering each.
#: A start far from the optimum runs all of them (``mu = J`` reaches the
#: optimum from afar); a start near it enters at its first weight ``<= mu0``,
#: the weight its own shortfall implies (see :func:`_kyp_dual`).  Below
#: ``1e-8 J`` the Cholesky test no longer guards the feasibility of the dual
#: point
_DUAL_MU_PATH = (1.0, 1e-2, 1e-4, 1e-6, 1e-8)

#: damped Newton steps per barrier weight
_DUAL_NEWTON_STEPS = 50

#: largest ``m n^4`` the dense dual takes on (n = 32 with m = 4).  A Newton
#: step costs about ``(m + 4) m n^4`` flops and its arrays hold ``m n^3``
#: numbers.  Timed at the point of a first inner run (one BLAS thread,
#: 2-core x86-64), one evaluation takes 0.02-0.06 s at or below the cap
#: (rand 32x4, 24x8 and 20x16, seeds 1 and 2), about 0.01 s of it the
#: set-up that klap() builds once per run, against 0.07-0.21 s for the
#: whole ``klap(sys, max_restarts=0)`` solve; it grows as ``n^4`` beyond the
#: cap (0.09-0.22 s at rand 40x4)
_DUAL_MAX_WORK = 1 << 22

_EPS = float(np.finfo(float).eps)


def _kyp_dual(
    sys: StateSpaceSystem, s: np.ndarray, U: np.ndarray
) -> Callable[[np.ndarray, float], float | None]:
    """The map ``(C_hat, J) -> g``, a lower bound ``g <= J*`` on the
    optimum found from the passive output map ``C_hat`` and its objective
    ``J > 0``, for ``sys`` and its Gramian ``P = U diag(s) U^T`` (the
    ``eigh`` of ``P``).  The relative gap ``(J - g) / J`` bounds how far
    any point's ``J`` is from ``J*``.  What depends on the system alone is
    built here, once: the size cap, the Gramian's definiteness test, ``T``,
    the Schur form of ``T^{-1} A T``, the ``mn`` basis solves of ``Z11``,
    the lift direction and the normalization's defect.  A refused system
    gets a map that logs the reason and returns ``None``.

    The bound is the Lagrangian dual of the convex problem: minimize
    ``tr((C - C_hat) P (C - C_hat)^T)`` over ``(X, C_hat)`` subject to the
    KYP inequality ``W(X, C_hat) >= 0``.  For any ``m x n`` matrix ``E'``
    whose ``Z11`` (the solution of ``A Z11 + Z11 A^T = B E' P + P E'^T
    B^T``) is positive definite,

    .. math::

        g(E') = 2 \\langle C P, E' \\rangle - \\operatorname{tr}(E' P E'^T)
        - \\langle (E' P) Z_{11}^{-1} (E' P)^T, D + D^T \\rangle \\le J^*,

    and ``g`` is concave; when ``D + D^T`` is positive definite (strong
    duality) its maximum is ``J*``, attained at the optimal ``C - C_hat``.  A
    small gap ``(J - g) / J`` therefore certifies ``C_hat``.

    Everything runs in Gramian-normalized coordinates, ``T = U S^{1/2}``
    from ``eigh(P)``, where ``P`` becomes ``I``.  ``Z11`` is linear in
    ``E'``, so its values at the ``mn`` unit matrices are solved once, on
    one real Schur form of the normalized ``A``; every later ``Z11`` and
    the Newton systems are dense algebra on that basis.  Damped Newton
    maximizes ``g + mu log det Z11`` for weights ``mu`` of
    :data:`_DUAL_MU_PATH` (times ``J``); trial points where the Cholesky
    factorization of ``Z11`` fails are rejected.  At a centered point
    ``J* <= g + n mu``, so the path stops once ``g + n mu < (1 -
    _DUAL_GAP_RTOL) J``: no later point could certify.

    The start is the candidate's own error ``E' = C - C_hat``, the dual's
    maximizer when ``C_hat`` is optimal, moved along ``-B^T P^{-1}``: that
    adds a multiple of ``P`` to ``Z11`` and lifts ``lambda_min(Z11)`` by
    the same amount.  How far is read off the candidate.  A probe lifted
    ``1e-5`` of ``Z11``'s spread inside gives ``g_probe``, and with it the
    first weight ``mu0 = max((J - g_probe) / n, 1e-8 J)``, the ``mu`` whose
    ``n mu`` matches the gap the probe leaves.  The start is lifted
    ``min(0.1, max(1e-5, mu0 / J))`` of the spread inside (doubling the
    lift while the Cholesky test fails: a start at the boundary swamps the
    Newton systems), and the path runs from its first weight ``<= mu0``.
    A far candidate (``mu0 >= J``, or an infeasible probe) starts a tenth
    of the spread inside at ``mu = J``, which reaches the optimum from
    afar; a nearly optimal one starts close to the boundary at a small
    weight and needs a few steps.

    The bound is kept only if ``Z11``, solved afresh at the final ``E'``,
    has ``lambda_min`` above ``n eps cond(T) lambda_max``, the rounding
    level of the normalization.  The normalized Gramian is ``I`` only up
    to the rounding of ``P``; solved again on the Schur form it is ``I +
    Delta``.  The Gramian enters ``g`` only through ``G = E' P`` and the
    term ``tr(E' P E'^T) = tr(G P^{-1} G^T)``: the linear term, ``Z11`` and
    the last term depend on ``G`` alone.  So the dual point of the exact
    Gramian with the same ``G`` (``F = E' T`` in normalized coordinates,
    ``F (I + Delta)^{-1}`` for the exact one) differs from the computed
    ``g`` only by ``tr(F (I - (I + Delta)^{-1}) F^T) >= -||Delta||_2 / (1 -
    ||Delta||_2) ||F||_F^2``, and the returned bound gives that up.  Not
    covered is the rounding of the transformation and of the Schur solves
    themselves, at the level of ``eps cond(T)``: the ``Z11`` margin guards
    feasibility against it, and the value rests on the seeded sweeps of the
    tests.

    The map returns ``None`` when ``m n^4`` exceeds :data:`_DUAL_MAX_WORK`,
    ``P`` is not numerically positive definite, ``||Delta||_2 >= 1`` (these
    three are refused before any Newton step), no strictly feasible start
    is found, or the final ``Z11`` misses that margin.  Each evaluation logs
    one debug line: ``mu0 / J``, the start's lift, the Newton steps and how
    it ended (certified, stopped by the ``g + n mu`` test, end of the path,
    or refused and why).  Uses neither the system's Lyapunov kernel nor
    what it keeps from ``(A, B)``, and draws no random numbers.
    """
    n, m = sys.n, sys.m

    def refused(reason: str):
        def bound(C_hat: np.ndarray, J: float) -> None:
            _log.debug("KYP dual bound refused before the path: %s", reason)
        return bound

    if m * n**4 > _DUAL_MAX_WORK:
        return refused(f"m n^4 = {m * n**4} exceeds the dense dual's budget {_DUAL_MAX_WORK}")
    if not s[0] > n * _EPS * s[-1]:
        return refused("the Gramian is not numerically positive definite "
                       f"(eigenvalues {s[0]:.2e} to {s[-1]:.2e})")
    r = np.sqrt(s)
    T, T_inv = U * r, U.T / r[:, None]
    B = T_inv @ sys.B
    C = sys.C @ T
    R, M = sys._feedthrough()[0], sys._feedthrough_root()
    schur = _real_schur(T_inv @ sys.A @ T)

    def z11(F: np.ndarray) -> np.ndarray:
        q = B @ F
        Z = _bartels_stewart(schur, q + q.T)
        return 0.5 * (Z + Z.T)

    N = m * n
    units = np.eye(N).reshape(N, m, n)
    basis = np.stack([z11(F) for F in units])
    flat = basis.reshape(N, n * n)
    # moving E' by -t B^T adds 2 t I to Z11: the normalized Gramian solved on
    # the Schur form is -Z_dir / 2 = I + Delta
    lift, Z_dir = B.T.ravel(), z11(B.T)
    defect = np.linalg.norm(0.5 * Z_dir + np.eye(n), 2)
    if not defect < 1.0:
        return refused(f"the normalized Gramian is off the identity by {defect:.2e}")

    def barrier(x: np.ndarray, Z: np.ndarray, mu: float) -> tuple | None:
        """``(g + mu log det Z, g, chol(Z)^{-1})``, or ``None`` where ``Z``
        is not positive definite."""
        try:
            chol = np.linalg.cholesky(Z)
        except np.linalg.LinAlgError:
            return None
        chol_inv = _lapack("trtri")(chol, lower=1)[0]
        F = x.reshape(m, n)
        W = chol_inv @ F.T
        g = 2.0 * np.vdot(C, F) - np.vdot(F, F) - np.vdot(W @ R, W)
        return g + 2.0 * mu * np.log(chol.diagonal()).sum(), g, chol_inv

    def bound(C_hat: np.ndarray, J: float) -> float | None:
        x = ((sys.C - C_hat) @ T).ravel()
        Z = (x @ flat).reshape(n, n)
        lam = np.linalg.eigvalsh(Z)
        floor, spread = max(0.0, -lam[0]), max(lam[-1] - lam[0], _EPS)
        # the probe's shortfall J - g, spread over the n barrier terms, is
        # the weight a centered point near it would carry
        t = 0.5 * (floor + 1e-5 * spread)
        probe = barrier(x - t * lift, Z - t * Z_dir, 0.0)
        mu0 = math.inf if probe is None else max((J - probe[1]) / n, 1e-8 * J)
        inside = min(0.1, max(1e-5, mu0 / J))
        t = 0.5 * (floor + inside * spread)
        for _ in range(60):
            if barrier(x - t * lift, Z - t * Z_dir, 0.0) is not None:
                break
            t *= 2.0
        else:
            return _dual_done(mu0 / J, inside, 0, None, "refused: no strictly feasible start")
        x, Z = x - t * lift, Z - t * Z_dir

        steps, ending = 0, "end of the path"
        mus = np.multiply(_DUAL_MU_PATH, J)
        for mu in mus[mus <= mu0]:
            point, centered = barrier(x, Z, mu), False
            for _ in range(_DUAL_NEWTON_STEPS):
                value, _, chol_inv = point
                F = x.reshape(m, n)
                K = chol_inv.T @ chol_inv  # Z^{-1}
                FK = F @ K
                grad = 2.0 * (C - F - R @ FK).ravel() + flat @ (FK.T @ R @ FK + mu * K).ravel()
                # minus the Hessian: 2 I + 2 V V^T + mu Zh Zh^T, with
                # V_k = M (E_k - F K Z_k) chol^{-T} and Zh_k = chol^{-1} Z_k chol^{-T}
                V = (M @ (units - FK @ basis) @ chol_inv.T).reshape(N, -1)
                Zh = (chol_inv @ basis @ chol_inv.T).reshape(N, -1)
                hess = 2.0 * (V @ V.T) + mu * (Zh @ Zh.T)
                hess[np.diag_indices(N)] += 2.0
                steps += 1
                try:
                    d = np.linalg.solve(hess, grad)
                except np.linalg.LinAlgError:  # the barrier swamped the 2 I
                    break
                decrement = float(grad @ d)
                if decrement <= 1e-14 * J:
                    centered = True
                    break
                Z_d, step = (d @ flat).reshape(n, n), 1.0
                for _ in range(50):
                    trial = barrier(x + step * d, Z + step * Z_d, mu)
                    if trial is not None and trial[0] >= value + 1e-4 * step * decrement:
                        break
                    step *= 0.5
                else:
                    break
                x, Z, point = x + step * d, Z + step * Z_d, trial
            if centered and point[1] + n * mu < (1.0 - _DUAL_GAP_RTOL) * J:
                ending = f"stopped at mu = {mu / J:.0e} J by g + n mu < (1 - 1e-7) J"
                break

        Z = z11(x.reshape(m, n))
        lam = np.linalg.eigvalsh(Z)
        margin = n * _EPS * (r[-1] / r[0]) * lam[-1]
        final = barrier(x, Z, 0.0)
        if final is None or not lam[0] > margin:
            return _dual_done(mu0 / J, inside, steps, None,
                              f"refused: lambda_min(Z11) = {lam[0]:.2e} is below the "
                              f"normalization's rounding margin {margin:.2e}")
        g = final[1] - defect / (1.0 - defect) * x.dot(x)
        gap = (J - g) / J
        if gap <= _DUAL_GAP_RTOL:
            ending = "certified"
        return _dual_done(mu0 / J, inside, steps, float(g), f"{ending}, gap {gap:.3e}")

    return bound


def _dual_done(mu0_rel: float, inside: float, steps: int, g: float | None,
               ending: str) -> float | None:
    """Log one dual evaluation of :func:`_kyp_dual` and return its bound."""
    _log.debug("KYP dual bound from mu0 = %.2e J, lifted %.0e of Z11's spread inside, "
               "%d Newton steps: %s", mu0_rel, inside, steps, ending)
    return g
