"""Independent reference solvers and start helpers shared by the tests."""

import math

import mpmath
import numpy as np
import scipy.linalg

from klap.exceptions import NoSolutionError
from klap.linalg import sqrtm_psd
from klap.optimizer import (
    _PRECOND_FLOOR,
    KlapConfig,
    LbfgsResult,
    LurePoint,
    _ModalObjective,
    _Objective,
    _random_factor,
)
from klap.passivity import _kyp_dual
from klap.system import StateSpaceSystem


def lure_point(sys, L) -> LurePoint:
    """``L`` paired with ``M = (D + D^T)^{1/2}`` of ``sys``."""
    return LurePoint(L, sqrtm_psd(sys.D + sys.D.T))


def rand_family_system(n, m, seed):
    """The random family "rand n x m / seed" of the benchmark workloads."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    return StateSpaceSystem(A, B, C, 0.05 * np.eye(m))


def random_start(sys, seed: int) -> np.ndarray:
    """The scaled random factor :func:`klap.klap` falls back to, drawn from
    a generator seeded with ``seed``."""
    return _random_factor(np.random.default_rng(seed), sys, sqrtm_psd(sys.D + sys.D.T))


def kron_lyapunov_oracle(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Brute-force reference solve of ``A X + X A^T + W = 0``.

    Vectorizes the equation into an ``n^2 x n^2`` linear system using
    Kronecker products; exact up to the conditioning of that system, so it
    is independent of the library's diagonalized and Schur solvers.
    Guarded to ``n <= 50``.  For the transposed equation, call with
    ``A.T``.
    """
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or W.shape != A.shape:
        raise ValueError(f"A and W must be square of one shape, got {A.shape} and {W.shape}")
    W = 0.5 * (W + W.T)
    n = A.shape[0]
    if n > 50:
        raise ValueError(f"oracle limited to n <= 50, got n = {n}")
    eye = np.eye(n)
    K = np.kron(eye, A) + np.kron(A, eye)
    x = np.linalg.solve(K, -W.reshape(-1, order="F"))
    X = x.reshape((n, n), order="F")
    return 0.5 * (X + X.T)


def exact_h2_error_sq(sys, C_hat: np.ndarray, digits: int = 50) -> float:
    """``tr((C - C_hat) P (C - C_hat)^T)`` computed with ``digits``
    significant digits in the modal form of ``A``, rounded once to float.

    The float inputs are taken as exact.  With ``A = V diag(lam) V^{-1}``
    from ``mpmath.eig``, ``b = V^{-1} B`` and ``e = (C - C_hat) V``, the
    modal Gramian is ``Q_ij = -(b b^H)_ij / (lam_i + conj(lam_j))`` and
    ``J = Re tr(e Q e^H)``.  Independent of the float Gramian, whose
    quadratic form cancels where ``C_hat`` has large entries.  ``mpmath.eig``
    dominates the cost (tens of milliseconds at n = 8, seconds at n = 16).
    """
    n, m = sys.n, sys.m
    C_hat = np.asarray(C_hat, dtype=float).reshape(m, n)
    with mpmath.workdps(digits):
        lam, V = mpmath.eig(mpmath.matrix(sys.A.tolist()))
        b = mpmath.inverse(V) * mpmath.matrix(sys.B.tolist())
        E = mpmath.matrix(sys.C.tolist()) - mpmath.matrix(C_hat.tolist())
        e = E * V
        Q = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                bb = mpmath.fsum(b[i, k] * mpmath.conj(b[j, k]) for k in range(m))
                Q[i, j] = -bb / (lam[i] + mpmath.conj(lam[j]))
        eQ = e * Q
        J = mpmath.fsum(eQ[r, i] * mpmath.conj(e[r, i]) for r in range(m) for i in range(n))
        return float(mpmath.re(J))


def exact_popov_min(sys, omega: float, digits: int = 50) -> float:
    """Smallest eigenvalue of the Popov function ``G(i w) + G(i w)^H`` at
    ``w = omega``, computed with ``digits`` significant digits from the
    float matrices of ``sys`` taken as exact, rounded once to float.  A
    negative value is a witness that the system is not passive."""
    n = sys.n
    with mpmath.workdps(digits):
        A = mpmath.matrix(sys.A.tolist())
        resolvent = mpmath.inverse(mpmath.mpc(0, omega) * mpmath.eye(n) - A)
        G = mpmath.matrix(sys.C.tolist()) * resolvent * mpmath.matrix(sys.B.tolist())
        G += mpmath.matrix(sys.D.tolist())
        return float(min(mpmath.eigh(G + G.H, eigvals_only=True)))


def kyp_residual(sys, X: np.ndarray) -> np.ndarray:
    """KYP block matrix

    ``W(X) = [[-A^T X - X A, C^T - X B], [C - B^T X, D + D^T]]``,

    symmetric of size ``(n + m, n + m)``.  The system is passive iff
    ``W(X) >= 0`` for some symmetric ``X >= 0``.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (sys.n, sys.n):
        raise ValueError(f"X must be {sys.n} x {sys.n}, got {X.shape}")
    top_left = -(sys.A.T @ X + X @ sys.A)
    top_right = sys.C.T - X @ sys.B
    W = np.block([[top_left, top_right], [top_right.T, sys.D + sys.D.T]])
    return 0.5 * (W + W.T)


def lure_residuals(sys, X: np.ndarray, L: np.ndarray, M: np.ndarray) -> tuple[float, float, float]:
    """Frobenius norms of the three Lur'e equation defects
    ``(A^T X + X A + L L^T, X B - C^T + L M^T, D + D^T - M M^T)``."""
    X = np.asarray(X, dtype=float)
    L = np.asarray(L, dtype=float)
    M = np.asarray(M, dtype=float)
    r_state = np.linalg.norm(sys.A.T @ X + X @ sys.A + L @ L.T, "fro")
    r_output = np.linalg.norm(X @ sys.B - sys.C.T + L @ M.T, "fro")
    r_feed = np.linalg.norm(sys.D + sys.D.T - M @ M.T, "fro")
    return float(r_state), float(r_output), float(r_feed)


def reference_objective(sys, P, M, L):
    """Reference evaluation of ``J`` and its gradient at ``L``:
    ``(J, grad, X, X_grad)``, or ``(inf, None)`` where ``L L^T`` or ``J``
    is not finite.

    The expressions of the evaluation written plainly: ``@`` products, and
    every right-hand side symmetrized as ``0.5 (W + W^T)`` before its
    solve.  The solves run on the system kernel's stored eigenbasis (``V``,
    ``V^{-1}`` and the negated ``lam_i + lam_j``) when it solves in that
    basis, and otherwise through SciPy's ``solve_continuous_lyapunov``,
    whose arithmetic the kernel's kept Schur forms reproduce bit for bit.
    The library builds exactly symmetric right-hand sides and calls
    ``ndarray.dot``, which makes the same BLAS calls, so the two must agree
    bit for bit.
    """
    lyap = sys._lyapunov()
    A, B, C = sys.A, sys.B, sys.C

    def solve(W, transposed):
        W = 0.5 * (W + W.T)
        if lyap.diagonal:
            V, Vinv, neg_denom = lyap.V, lyap.Vinv, lyap.neg_denom
            if transposed:
                X = Vinv.T @ ((V.T @ W @ V) / neg_denom) @ Vinv
            else:
                X = V @ ((Vinv @ W @ Vinv.T) / neg_denom) @ V.T
            X = X.real
        else:
            X = scipy.linalg.solve_continuous_lyapunov(A.T if transposed else A, -W)
        return 0.5 * (X + X.T)

    W = L @ L.T
    if not np.isfinite(W).all():
        return math.inf, None
    X = solve(W, True)
    E = C - (B.T @ X + M @ L.T)
    J = float(np.trace(E @ P @ E.T))
    if not math.isfinite(J):
        return math.inf, None
    PEt = P @ E.T
    X_grad = solve(-(PEt @ B.T + B @ PEt.T), False)
    grad = 2.0 * X_grad @ L - 2.0 * PEt @ M
    return J, grad, X, X_grad


def original_coordinates(sys, P, M) -> tuple:
    """``(objective, H0)`` of an L-BFGS run over ``L`` itself: the
    library's objective on the system's kernel, modal where it solves in
    the eigenbasis of ``A``, and the metric ``P^{-1}`` with the Gramian's
    eigenvalues floored at ``_PRECOND_FLOOR`` times the largest.  The
    inputs of :func:`klap.optimizer.lbfgs_minimize` for a run in the
    original coordinates, where ``klap()`` would map a system with an
    eigenbasis to square-root-Gramian ones."""
    M = np.asarray(M, dtype=float)
    lyap = sys._lyapunov()
    objective = _ModalObjective(sys, M) if lyap.diagonal else _Objective(sys, P, M, lyap)
    eigenvalues, U = np.linalg.eigh(P)
    floored = np.maximum(eigenvalues, _PRECOND_FLOOR * eigenvalues.max())
    return objective, (U / floored).dot(U.T)


def kyp_dual_gap(sys, P, C_hat, J):
    """The KYP dual gap ``(J - g) / J`` at ``C_hat`` of the bound ``g``
    that :func:`klap.passivity._kyp_dual` returns, with ``sys``'s dual set
    up afresh from the ``eigh`` of ``P``; ``None`` where it returns none."""
    g = _kyp_dual(sys, *np.linalg.eigh(P))(C_hat, J)
    return None if g is None else (J - g) / J


def eager_lbfgs(objective, P, L0, config=None, preconditioned=True) -> LbfgsResult:
    """Reference L-BFGS of ``objective`` that evaluates ``J`` and the
    gradient at every line-search trial, accepted or not.

    The iteration of :func:`klap.optimizer.lbfgs_minimize`, written
    independently: ``@`` and ``zip`` in the two-loop recursion, the
    preconditioner ``P^{-1}`` (eigenvalues of ``P``, the Gramian in the
    coordinates of ``objective``, floored at ``_PRECOND_FLOOR`` times the
    largest) applied to the ``n x m`` matrix of each vector, and the metric
    scaling ``s.y / y.P^{-1} y`` recomputed every step.  A rejected trial's
    gradient is never used, so the two must agree bit for bit.  With
    ``preconditioned=False`` the preconditioner is the identity: the plain
    L-BFGS the library ran before it searched in the Gramian metric.
    """
    cfg = config or KlapConfig()
    L0 = np.asarray(L0, dtype=float)
    shape = L0.shape
    eigenvalues, U = np.linalg.eigh(P)
    floored = np.maximum(eigenvalues, _PRECOND_FLOOR * eigenvalues.max())
    P_inv = (U / floored).dot(U.T) if preconditioned else np.eye(shape[0])

    def evaluate(flat):
        J, state = objective.value(flat.reshape(shape))
        return J, None if state is None else objective.gradient(state)[0].ravel()

    def apply_p_inv(flat):
        return P_inv.dot(flat.reshape(shape)).ravel()

    x = L0.ravel().copy()
    f, g = evaluate(x)
    g_norm = math.sqrt(g.dot(g))
    trace = [(f, g_norm)]
    s_hist, y_hist, rho_hist = [], [], []
    iterations = 0
    status, converged = "max-iterations", False

    for _ in range(cfg.max_iterations):
        if g_norm <= cfg.grad_tol:
            status, converged = "gradient", True
            break

        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s @ q)
            q -= a * y
            alphas.append(a)
        r = apply_p_inv(q)
        if y_hist:
            r *= float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ apply_p_inv(y_hist[-1]))
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * float(y @ r)
            r += (a - b) * s
        d = -r
        gd = float(g @ d)
        if not math.isfinite(gd) or gd >= 0.0:
            d = -apply_p_inv(g)
            gd = float(g @ d)

        t = 1.0 if s_hist else 1.0 / max(1.0, math.sqrt(float(g @ apply_p_inv(g))))
        accepted = False
        for _ in range(45):
            x_new = x + t * d
            f_new, g_new = evaluate(x_new)
            if math.isfinite(f_new) and f_new <= f + 1e-4 * t * gd:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            status, converged = "line-search", False
            break

        s_vec, y_vec = x_new - x, g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-10 * math.sqrt(s_vec.dot(s_vec)) * math.sqrt(y_vec.dot(y_vec)):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > 10:  # the memory of lbfgs_minimize
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        f_prev, x, f, g = f, x_new, f_new, g_new
        g_norm = math.sqrt(g.dot(g))
        iterations += 1
        trace.append((f, g_norm))
        if abs(f_prev - f) <= cfg.obj_rel_tol * (abs(f) + cfg.obj_rel_tol):
            if f == f_prev and g_norm > cfg.grad_tol:  # an Armijo search out of resolution
                status, converged = "line-search", False
            else:
                status, converged = "objective-change", True
            break

    return LbfgsResult(x.reshape(shape), f, g_norm, iterations, converged, status, tuple(trace))


def newton_riccati_oracle(A, B, C, R, K0=None, tol: float = 1e-10, max_iterations: int = 100):
    """Reference minimal Riccati solve of ``(A, B, C, R)``:
    ``(X, newton_iterations, residual)``.

    The damped Newton iteration of :func:`klap.passivity.solve_are`
    written with SciPy's ``solve_continuous_lyapunov`` for every step and
    ``numpy.linalg.eigvals`` for every stability test, recomputing
    ``F = R^{-1} (C - B^T X)`` wherever it is used.  It starts from the
    stabilizing gain ``K0`` when one is given, and otherwise from the zero
    gain, which needs ``A`` Hurwitz.  Newton returns the first iterate that
    meets ``tol * max(1, ||X||_F)``; it stops at the first accepted step
    that was damped and did not halve the residual, after five steps in a
    row that did not halve it, or when no damping trial is acceptable, and
    then SciPy's ``solve_continuous_are`` is returned iff it meets the same
    tolerance at its own scale and its closed loop is stable to ``1e-8
    max(1, ||A||_F)``.  The library factors each closed loop once and
    reuses the factorization; the Lyapunov arithmetic is the same, so from
    the zero gain ``X``, the step count and the residual must agree with
    ``solve_are`` bit for bit.  Raises :class:`NoSolutionError` where the
    library does, with the same message.
    """
    n = A.shape[0]

    def gain(X):
        return np.linalg.solve(R, C - B.T @ X)

    def residual(X):
        return np.linalg.norm(A.T @ X + X @ A + (C.T - X @ B) @ gain(X), "fro")

    def abscissa(X):
        return float(np.linalg.eigvals(A - B @ gain(X)).real.max())

    K = np.zeros((B.shape[1], n)) if K0 is None else K0
    if np.linalg.eigvals(A - B @ K).real.max() >= 0:
        raise ValueError("the start gain must make A - B K0 Hurwitz")
    X = np.zeros((n, n))
    res_norm = residual(X)
    iterations = stalls = 0
    for _ in range(max_iterations):
        Y = A - B @ K
        Q = C.T @ K + K.T @ C - K.T @ R @ K
        try:
            X_full = scipy.linalg.solve_continuous_lyapunov(Y.T, -Q)
        except np.linalg.LinAlgError:
            break
        X_full = 0.5 * (X_full + X_full.T)
        accepted, t = False, 1.0
        for _ in range(25):
            X_t = X + t * (X_full - X)
            if abscissa(X_t) < 0:
                r_t = residual(X_t)
                if r_t <= res_norm or iterations == 0:
                    stalled = r_t > 0.5 * res_norm
                    stalls = stalls + 1 if stalled else 0
                    X, res_norm, accepted = X_t, r_t, True
                    break
            t *= 0.5
        if not accepted:
            break
        iterations += 1
        K = gain(X)
        scale = max(1.0, float(np.linalg.norm(X, "fro")))
        if res_norm <= tol * scale:
            return 0.5 * (X + X.T), iterations, res_norm
        if (stalled and t < 1.0) or stalls >= 5:
            break
    scale = max(1.0, float(np.linalg.norm(X, "fro")))
    try:
        X_schur = scipy.linalg.solve_continuous_are(A, B, np.zeros_like(A), -R, s=-C.T)
    except (np.linalg.LinAlgError, ValueError):
        pass
    else:
        X = 0.5 * (X_schur + X_schur.T)
        res_norm = residual(X)
        scale = max(1.0, float(np.linalg.norm(X, "fro")))
        if (res_norm <= tol * scale
                and abscissa(X) <= 1e-8 * max(1.0, float(np.linalg.norm(A, "fro")))):
            return X, iterations, res_norm
    raise NoSolutionError(
        f"Riccati iteration did not converge (residual {res_norm:.3e} vs "
        f"tolerance {tol * scale:.3e}); the system is likely not strictly passive"
    )


def maximal_riccati_oracle(sys, tol: float = 1e-10):
    """Reference maximal Riccati solve: ``(X_max, residual)``.

    ``X`` solves the Riccati equation iff ``X^{-1}`` solves the equation of
    the adjoint data ``(A^T, C^T, B^T)``, and inversion reverses the order
    of the positive definite solutions, so ``X_max`` is the inverse of the
    adjoint problem's minimal solution (``A^T`` is Hurwitz, so that solve
    starts from the zero gain).  When inversion amplifies the residual
    above ``tol * max(1, ||X||_F)``, a Newton polish of the sign-reversed
    data ``(-A, B, -C)``, whose minimal solution is ``-X_max``, restores
    it; its start gain ``R^{-1} (B^T X - C)`` is the inverse's closed loop,
    which is stable in that frame.  Raises :class:`NoSolutionError` when
    neither step yields a solution.
    """
    A, B, C = sys.A, sys.B, sys.C
    R = sys.D + sys.D.T

    def residual(X):
        F = np.linalg.solve(R, C - B.T @ X)
        return float(np.linalg.norm(A.T @ X + X @ A + (C.T - X @ B) @ F, "fro"))

    Y, *_ = newton_riccati_oracle(A.T, C.T, B.T, R, tol=tol)
    lam = np.linalg.eigvalsh(Y)
    if lam.min() <= 1e3 * np.finfo(float).eps * max(1.0, float(lam.max())):
        raise NoSolutionError("the adjoint minimal solution is not positive definite")
    X = np.linalg.inv(Y)
    X = 0.5 * (X + X.T)
    res = residual(X)
    if res <= tol * max(1.0, float(np.linalg.norm(X, "fro"))):
        return X, res
    K = np.linalg.solve(R, B.T @ X - C)
    if np.linalg.eigvals(-A - B @ K).real.max() >= 0:
        raise NoSolutionError("the inverse's closed loop is not stable in the reversed frame")
    X_rev, *_ = newton_riccati_oracle(-A, B, -C, R, K0=K, tol=tol)
    X = -0.5 * (X_rev + X_rev.T)
    return X, residual(X)
