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
