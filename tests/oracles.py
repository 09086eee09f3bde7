"""Independent reference solvers shared by the tests."""

import numpy as np


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
