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
stabilizing solution the initialization starts from.  ``X_max`` is never
formed: the coincidence ``X_min = X_max`` — a closed-loop spectrum
entirely on the imaginary axis — is what :func:`global_min_certificate`
tests to certify that a candidate passivation cannot be improved upon.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import (
    NoSolutionError,
    SingularFeedthroughError,
)
from .linalg import _bartels_stewart, _real_schur, sqrtm_psd
from .system import PopovScan, StateSpaceSystem, popov_eval, popov_scan

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

#: relative eigenvalue floor below which ``D + D^T`` counts as singular
FEEDTHROUGH_RTOL = 1e-12

#: Newton step budget of each Riccati solve
_NEWTON_STEPS = 100


def _feedthrough_gram(sys: StateSpaceSystem) -> tuple[np.ndarray, bool]:
    """``R = D + D^T`` and whether it is (numerically) positive definite."""
    R = sys.D + sys.D.T
    lam = np.linalg.eigvalsh(R)
    definite = bool(lam.min() > FEEDTHROUGH_RTOL * max(1.0, float(lam.max())))
    return R, definite


@dataclass(frozen=True)
class AreSolution:
    """The minimal (stabilizing) solution of the passivity Riccati equation.

    Attributes
    ----------
    X : (n, n) ndarray
        Symmetric solution.
    closed_loop_max_real : float
        Largest eigenvalue real part of ``Y(X) = A - B R^{-1} (C - B^T X)``,
        read off the real Schur form of ``Y(X)^T`` that the Newton
        iteration's last stability test computed; approximately ``<= 0``.
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
    Hurwitz and the residual non-increasing.  When the iteration stalls
    above tolerance (near-marginal problems), a Hamiltonian-Schur solve
    refines the iterate.  The iteration starts from the zero gain, which
    needs ``A`` Hurwitz.  Returns ``X``, the accepted steps, the residual
    norm and the largest real part of the closed-loop spectrum at ``X``.
    Raises :class:`NoSolutionError` if no acceptable solution is found.

    The zero-gain start's first step is taken in closed form: its
    Lyapunov right-hand side ``Q(0)`` vanishes, so its Newton iterate and
    every damping trial is ``X = 0``, with gain ``R^{-1} C``.  That step
    is one Schur form of ``(A - B R^{-1} C)^T``: accepted (with the
    residual unchanged, so it counts as a stall) when that closed loop is
    Hurwitz, and otherwise no Newton step is acceptable and the
    Hamiltonian-Schur refinement runs at once.

    Every closed loop is factored once, into the real Schur form of
    ``Y^T``: each damping trial computes its gain ``F_t = R^{-1} (C - B^T
    X_t)`` once, and the Schur form of ``(A - B F_t)^T`` gives the trial's
    stability test; the accepted trial's gain and Schur form are the next
    step's ``K`` and Lyapunov factorization (the closed loop of that step
    is the same matrix).
    """
    n = A.shape[0]
    X = np.zeros((n, n))
    F0 = _gain(B, C, R, X)
    res_norm = np.linalg.norm(_are_residual(A, B, C, X, F0), "fro")
    # (X, accepted steps, residual, closed-loop max real part or None)
    best: tuple[np.ndarray, int, float, float | None] | None = None
    iterations = 0
    stalls = 0
    steps = _NEWTON_STEPS
    K, schur = F0, _real_schur((A - B @ F0).T)
    abscissa = _max_real(schur)
    if abscissa < 0:
        iterations, steps = 1, _NEWTON_STEPS - 1
        stalls = 1 if res_norm > 0.5 * res_norm else 0
        if res_norm <= tol:  # the residual scale max(1, ||X||) is 1 at X = 0
            return X, iterations, res_norm, abscissa
        best = (X, iterations, res_norm, abscissa)
    else:
        steps = 0  # no Newton step is acceptable: refine at once
    for _ in range(steps):
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
            schur_t = _real_schur((A - B @ F_t).T)
            abscissa = _max_real(schur_t)
            if abscissa < 0:
                r_t = np.linalg.norm(_are_residual(A, B, C, X_t, F_t), "fro")
                if r_t <= res_norm or iterations == 0:
                    stalls = stalls + 1 if r_t > 0.5 * res_norm else 0
                    X, res_norm, accepted = X_t, r_t, True
                    break
            t *= 0.5
        if not accepted:
            break
        iterations += 1
        K, schur = F_t, schur_t
        scale = max(1.0, float(np.linalg.norm(X, "fro")))
        if res_norm <= tol * scale:
            return X, iterations, res_norm, abscissa
        if best is None or res_norm < best[2]:
            best = (X, iterations, res_norm, abscissa)
        if stalls >= 5:
            break

    # Hamiltonian-Schur refinement for near-marginal problems where the
    # Newton basin collapses against the imaginary axis.
    if best is None:
        best = (X, iterations, res_norm, None)
    try:
        X_schur = scipy.linalg.solve_continuous_are(
            A, B, np.zeros_like(A), -R, s=-C.T
        )
        X_schur = 0.5 * (X_schur + X_schur.T)
        r_schur = _residual_norm(A, B, C, R, X_schur)
        if r_schur < best[2]:
            best = (X_schur, iterations, r_schur, None)
    except (np.linalg.LinAlgError, ValueError) as exc:
        _log.debug("Hamiltonian-Schur refinement unavailable: %s", exc)

    X, iterations, res_norm, abscissa = best
    scale = max(1.0, float(np.linalg.norm(X, "fro")))
    if res_norm <= tol * scale:
        if abscissa is None:
            abscissa = _max_real(_real_schur(_closed_loop(A, B, C, R, X).T))
        if abscissa <= 1e-8 * max(1.0, float(np.linalg.norm(A, "fro"))):
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
    the zero gain since ``A`` is Hurwitz; each of its closed loops is
    factored once, into the real Schur form that tests its stability and
    serves the next Lyapunov solve.

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
        If the iteration fails — in particular when the system is not
        passivatable by its feedthrough, so no stabilizing solution exists.
    """
    if kind != "minimal":
        raise ValueError(f"kind must be 'minimal', got {kind!r}")
    R, definite = _feedthrough_gram(sys)
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

    ``margin`` is signed: the smallest Popov eigenvalue found (grid scan or
    deciding sample), negative when the system is not passive.  ``method``
    records which route produced the verdict: ``"hamiltonian"`` or
    ``"popov-scan"``.
    """

    passive: bool
    margin: float
    method: str


def scan_verdict(scan: PopovScan, tol: float) -> PassivityVerdict:
    """Passivity verdict of a Popov scan: passive iff the grid minimum is
    ``>= -tol * scale`` with ``scale = max(1, max |lambda_min|)`` over the
    grid.  The rule of the ``"popov-scan"`` route of :func:`check_passive`,
    shared with :func:`klap.optimizer.klap`, which scans its input once."""
    scale = max(1.0, float(np.abs(scan.min_eigenvalues).max()))
    return PassivityVerdict(scan.global_min >= -tol * scale, scan.global_min, "popov-scan")


def _hamiltonian_matrix(sys: StateSpaceSystem, R: np.ndarray) -> np.ndarray:
    A, B, C = sys.A, sys.B, sys.C
    RinvC = np.linalg.solve(R, C)
    RinvBt = np.linalg.solve(R, B.T)
    Abar = A - B @ RinvC
    return np.block([[Abar, -B @ RinvBt], [C.T @ RinvC, -Abar.T]])


def check_passive(
    sys: StateSpaceSystem,
    tol: float = 1e-8,
    method: str = "auto",
    grid: np.ndarray | None = None,
) -> PassivityVerdict:
    """Decide whether a stable system is passive.

    Two routes are available:

    ``"hamiltonian"`` (default when ``D + D^T`` is positive definite)
        Singular frequencies of the Popov function are exactly the purely
        imaginary eigenvalues of an associated Hamiltonian matrix.  If no
        eigenvalue lies near the axis, the Popov function never changes
        definiteness and a single interior sample decides the sign.  Near-
        axis eigenvalues (definiteness crossings, or the numerically split
        double roots produced by boundary-touching systems) defer to the
        grid scan, whose signed margin plus tolerance absorbs boundary
        roundoff.

    ``"popov-scan"``
        Sweep ``lambda_min(Phi(i w))`` on a frequency grid; passive iff the
        grid minimum is ``>= -tol * scale``.  Sole route when ``D + D^T``
        is singular.

    Parameters
    ----------
    tol : float
        Relative tolerance on the signed margin: boundary systems produced
        by passivation land within ``-tol * scale`` of zero.
    """
    if method not in ("auto", "hamiltonian", "popov-scan"):
        raise ValueError(f"unknown method {method!r}")
    R, definite = _feedthrough_gram(sys)

    if method in ("auto", "hamiltonian") and definite:
        H = _hamiltonian_matrix(sys, R)
        ev = np.linalg.eigvals(H)
        axis_dist = float(np.abs(ev.real).min())
        axis_tol = 1e-9 * max(1.0, float(np.linalg.norm(H, "fro")))
        if axis_dist > axis_tol:
            # no definiteness crossings anywhere: one sample decides
            rho = max(1.0, sys._spectral_radius())
            sample = float(np.linalg.eigvalsh(popov_eval(sys, rho)).min())
            return PassivityVerdict(sample > 0.0, sample, "hamiltonian")
        # near-axis eigenvalues: definiteness crossings or a boundary-touching
        # Popov function; defer to the tolerance-aware grid scan below
    elif method == "hamiltonian" and not definite:
        raise SingularFeedthroughError(
            "the Hamiltonian passivity test needs D + D^T positive definite"
        )

    return scan_verdict(popov_scan(sys, grid=grid), tol)


def l_from_are(sys: StateSpaceSystem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the Lur'e factor pair ``(L, M)`` from a Riccati solution.

    ``M`` is the symmetric PSD square root of ``D + D^T`` and
    ``L = (C^T - X B) M^{-1}``; together with ``X`` they satisfy all three
    Lur'e equations exactly (up to the Riccati residual of ``X``).

    Raises
    ------
    SingularFeedthroughError
        If ``D + D^T`` is singular.
    """
    R, definite = _feedthrough_gram(sys)
    if not definite:
        raise SingularFeedthroughError("cannot invert M: D + D^T is singular")
    M = sqrtm_psd(R)
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
    sys: StateSpaceSystem,
    M: np.ndarray,
    L: np.ndarray,
    tol: float | None = None,
) -> GlobalMinCertificate:
    """Evaluate the spectral global-optimality certificate at ``L``.

    Parameters
    ----------
    sys : StateSpaceSystem
        The *original* (to-be-passivated) system.
    M : (m, m) ndarray
        Square root of ``D + D^T`` (may be zero).
    L : (n, m) ndarray
        Candidate Lur'e factor.
    tol : float, optional
        Axis tolerance; defaults to ``1e-6 * ||A||_F``.

    Raises
    ------
    SingularFeedthroughError
        If ``M`` is nonzero but ``D + D^T`` is singular.
    """
    if tol is None:
        tol = 1e-6 * float(np.linalg.norm(sys.A, "fro"))
    M = np.asarray(M, dtype=float)
    L = np.asarray(L, dtype=float)
    R, definite = _feedthrough_gram(sys)
    if not definite:
        if np.linalg.norm(M, "fro") > 0.0:
            raise SingularFeedthroughError(
                "certificate needs D + D^T positive definite when M != 0"
            )
        return GlobalMinCertificate(
            np.empty(0, dtype=complex), 0.0, float(tol), True, vacuous=True
        )
    Y = sys.A - sys.B @ np.linalg.solve(R, M @ L.T)
    ev = np.linalg.eigvals(Y)
    max_abs_real = float(np.abs(ev.real).max())
    return GlobalMinCertificate(ev, max_abs_real, float(tol), max_abs_real <= tol)
