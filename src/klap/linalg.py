"""Dense linear-algebra kernels: Lyapunov solvers, matrix square roots,
spectral decompositions.

The continuous-time Lyapunov equations

.. math::

    A^T X + X A + W = 0  \\qquad\\text{and}\\qquad  A X + X A^T + W = 0

are the workhorses of the passivation routines; each objective/gradient
evaluation performs exactly two of these solves.  Two strategies are
provided:

``"diagonalized"``
    One spectral decomposition ``A = V diag(lam) V^{-1}`` (which callers
    may precompute and reuse across many solves), then a closed-form
    entrywise division in eigenvector coordinates.  Complex intermediate
    arithmetic; the imaginary part of the back-transformed solution is
    checked to be negligible and discarded.

``"dense"``
    Schur-based Bartels--Stewart solve (SciPy).  Used directly, or as the
    automatic fallback of ``"auto"`` when the eigenvector basis is too
    ill-conditioned to trust.

A brute-force Kronecker vectorization solver is included for test
purposes only; it is exact up to the conditioning of the ``n^2 x n^2``
system and serves as an independent oracle for the fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DefectiveMatrixError,
    IllConditionedError,
    NotPsdError,
    SingularOperatorError,
)

__all__ = [
    "SpectralDecomposition",
    "spectral_decompose",
    "max_real_part",
    "solve_lyapunov",
    "solve_lyapunov_transposed",
    "kron_lyapunov_oracle",
    "sqrtm_psd",
]

#: condition-number bound above which ``"auto"`` abandons the
#: diagonalization strategy in favour of the dense Schur solve
DIAG_COND_LIMIT = 1e8

#: relative Frobenius bound on the imaginary part left over after the
#: complex diagonalized solve of a real equation
IMAG_LEAK_TOL = 1e-8

#: relative residual bound guaranteed by the Lyapunov solvers
RESIDUAL_RTOL = 1e-10


def _as_square(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _check_symmetric(W: np.ndarray, name: str = "W") -> np.ndarray:
    W = _as_square(W, name)
    sym_defect = np.linalg.norm(W - W.T, "fro")
    if sym_defect > 1e-10 * max(1.0, np.linalg.norm(W, "fro")):
        raise ValueError(f"{name} must be symmetric (defect {sym_defect:.2e})")
    return 0.5 * (W + W.T)


def max_real_part(A: np.ndarray) -> float:
    """Largest real part among the eigenvalues of ``A``.

    >>> max_real_part(np.array([[1.0, 4.0], [2.0, -1.0]]))
    3.0
    """
    A = _as_square(A)
    return float(np.linalg.eigvals(A).real.max())


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition ``A = V diag(eigenvalues) V^{-1}`` of a real matrix.

    Attributes
    ----------
    eigenvalues : (n,) complex ndarray
    right_vectors : (n, n) complex ndarray
        Columns are right eigenvectors (``V``).
    inverse_vectors : (n, n) complex ndarray
        ``V^{-1}``.
    condition_estimate : float
        2-norm condition number of ``V``; a proxy for how much accuracy a
        diagonalization-based solve can lose.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    inverse_vectors: np.ndarray
    condition_estimate: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def spectral_decompose(A: np.ndarray, cond_limit: float = 1e12) -> SpectralDecomposition:
    """Diagonalize a real square matrix.

    Parameters
    ----------
    A : (n, n) array_like
    cond_limit : float, optional
        Raise :class:`DefectiveMatrixError` when the eigenvector matrix has
        a 2-norm condition number above this bound (a numerically defective
        matrix admits no usable eigenvector basis).

    Returns
    -------
    SpectralDecomposition

    Raises
    ------
    DefectiveMatrixError
        If the eigenvector matrix is numerically singular or its condition
        number exceeds ``cond_limit``.
    """
    A = _as_square(A)
    lam, V = np.linalg.eig(A)
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > cond_limit:
        raise DefectiveMatrixError(
            f"eigenvector basis has condition {cond:.2e} > {cond_limit:.2e}; "
            "matrix is numerically defective"
        )
    Vinv = np.linalg.inv(V)
    decomp = SpectralDecomposition(lam, V, Vinv, cond)
    # reconstruction sanity check: loosened proportionally to conditioning
    resid = np.linalg.norm((V * lam) @ Vinv - A, "fro")
    tol = 1e-10 * cond * max(1.0, np.linalg.norm(A, "fro"))
    if resid > tol:
        raise DefectiveMatrixError(
            f"eigendecomposition reconstruction residual {resid:.2e} exceeds {tol:.2e}"
        )
    return decomp


def _pairwise_sum_check(lam: np.ndarray, scale: float) -> None:
    s = lam[:, None] + lam[None, :]
    smin = np.abs(s).min()
    if smin <= 1e-14 * max(1.0, scale):
        raise SingularOperatorError(
            f"Lyapunov operator is singular: min |lambda_i + lambda_j| = {smin:.2e}"
        )


def _diag_solve(
    decomp: SpectralDecomposition, W: np.ndarray, transposed: bool
) -> np.ndarray:
    """Closed-form Lyapunov solve in eigenvector coordinates.

    For ``A = V diag(lam) V^{-1}``:

    * transposed equation ``A^T X + X A + W = 0``:
      ``Xt = V^T X V`` satisfies ``Xt_ij = -(V^T W V)_ij / (lam_i + lam_j)``.
    * standard equation ``A X + X A^T + W = 0``:
      ``Xh = V^{-1} X V^{-T}`` satisfies
      ``Xh_ij = -(V^{-1} W V^{-T})_ij / (lam_i + lam_j)``.
    """
    lam, V, Vinv = decomp.eigenvalues, decomp.right_vectors, decomp.inverse_vectors
    _pairwise_sum_check(lam, float(np.abs(lam).max(initial=0.0)))
    denom = lam[:, None] + lam[None, :]
    if transposed:
        Wt = V.T @ W @ V
        Xt = -Wt / denom
        X = Vinv.T @ Xt @ Vinv
    else:
        Wh = Vinv @ W @ Vinv.T
        Xh = -Wh / denom
        X = V @ Xh @ V.T
    re, im = np.linalg.norm(X.real, "fro"), np.linalg.norm(X.imag, "fro")
    if im > IMAG_LEAK_TOL * max(re, 1e-300):
        raise IllConditionedError(
            f"diagonalized solve left imaginary residue {im:.2e} vs real norm {re:.2e}"
        )
    return X.real


def _dense_solve(A: np.ndarray, W: np.ndarray, transposed: bool) -> np.ndarray:
    # scipy solves  a x + x a^T = q;  our equations carry +W on the left.
    a = A.T if transposed else A
    try:
        X = scipy.linalg.solve_continuous_lyapunov(a, -W)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy detail
        raise SingularOperatorError(f"dense Lyapunov solve failed: {exc}") from exc
    return X


def _lyapunov_residual(A: np.ndarray, X: np.ndarray, W: np.ndarray, transposed: bool) -> float:
    if transposed:
        R = A.T @ X + X @ A + W
    else:
        R = A @ X + X @ A.T + W
    return float(np.linalg.norm(R, "fro"))


def _solve(
    A: np.ndarray,
    W: np.ndarray,
    transposed: bool,
    strategy: str,
    decomp: SpectralDecomposition | None,
    residual_rtol: float,
) -> np.ndarray:
    A = _as_square(A)
    W = _check_symmetric(W)
    if A.shape != W.shape:
        raise ValueError(f"A and W must have matching shapes, got {A.shape} and {W.shape}")
    if strategy not in ("auto", "diagonalized", "dense"):
        raise ValueError(f"unknown strategy {strategy!r}")

    def _accept(X: np.ndarray) -> np.ndarray | None:
        X = 0.5 * (X + X.T)
        res = _lyapunov_residual(A, X, W, transposed)
        tol = residual_rtol * (
            np.linalg.norm(A, "fro") * np.linalg.norm(X, "fro")
            + np.linalg.norm(W, "fro")
        )
        return X if res <= max(tol, 1e-300) else None

    if strategy in ("auto", "diagonalized"):
        try:
            d = decomp if decomp is not None else spectral_decompose(A)
            if d.condition_estimate > DIAG_COND_LIMIT:
                raise IllConditionedError(
                    f"eigenvector condition {d.condition_estimate:.2e} exceeds "
                    f"{DIAG_COND_LIMIT:.2e}; use the dense strategy"
                )
            X = _accept(_diag_solve(d, W, transposed))
            if X is not None:
                return X
            if strategy == "diagonalized":
                raise IllConditionedError(
                    "diagonalized solve could not meet the residual bound"
                )
        except (DefectiveMatrixError, IllConditionedError):
            if strategy == "diagonalized":
                raise
        except SingularOperatorError:
            raise

    X = _accept(_dense_solve(A, W, transposed))
    if X is None:
        raise SingularOperatorError(
            "Lyapunov solve residual exceeds tolerance; the operator is "
            "singular or nearly singular"
        )
    return X


def solve_lyapunov(
    A: np.ndarray,
    W: np.ndarray,
    strategy: str = "auto",
    decomp: SpectralDecomposition | None = None,
    residual_rtol: float = RESIDUAL_RTOL,
) -> np.ndarray:
    """Solve ``A X + X A^T + W = 0`` for symmetric ``X``.

    Parameters
    ----------
    A : (n, n) array_like
        Coefficient matrix; all eigenvalue pair sums must be nonzero
        (guaranteed when ``A`` is Hurwitz).
    W : (n, n) array_like
        Symmetric right-hand side.
    strategy : {"auto", "diagonalized", "dense"}, optional
        ``"auto"`` tries the diagonalization route and silently falls back
        to the dense Schur solve when the eigenvector basis is missing,
        too ill-conditioned, or fails the residual bound.
    decomp : SpectralDecomposition, optional
        Precomputed decomposition of ``A`` to amortize across many solves.
    residual_rtol : float, optional
        Accept only solutions with
        ``||A X + X A^T + W||_F <= residual_rtol * (||A|| ||X|| + ||W||)``.

    Returns
    -------
    (n, n) ndarray
        Exactly symmetric solution.

    Raises
    ------
    SingularOperatorError
        If ``lambda_i + lambda_j ~= 0`` for some eigenvalue pair.
    IllConditionedError
        If ``strategy="diagonalized"`` and the eigenvector basis cannot
        deliver the residual bound.
    """
    return _solve(A, W, False, strategy, decomp, residual_rtol)


def solve_lyapunov_transposed(
    A: np.ndarray,
    W: np.ndarray,
    strategy: str = "auto",
    decomp: SpectralDecomposition | None = None,
    residual_rtol: float = RESIDUAL_RTOL,
) -> np.ndarray:
    """Solve ``A^T X + X A + W = 0`` for symmetric ``X``.

    See :func:`solve_lyapunov` for parameters and error behaviour; the
    same ``decomp`` of ``A`` serves both equation orientations.
    """
    return _solve(A, W, True, strategy, decomp, residual_rtol)


def kron_lyapunov_oracle(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Brute-force reference solve of ``A X + X A^T + W = 0``.

    Vectorizes the equation into an ``n^2 x n^2`` linear system using
    Kronecker products.  Intended for tests only; guarded to ``n <= 50``.
    For the transposed equation, call with ``A.T``.
    """
    A = _as_square(A)
    W = _check_symmetric(W)
    n = A.shape[0]
    if n > 50:
        raise ValueError(f"oracle limited to n <= 50, got n = {n}")
    eye = np.eye(n)
    K = np.kron(eye, A) + np.kron(A, eye)
    x = np.linalg.solve(K, -W.reshape(-1, order="F"))
    X = x.reshape((n, n), order="F")
    return 0.5 * (X + X.T)


def sqrtm_psd(S: np.ndarray, tol_psd: float = 1e-10) -> np.ndarray:
    """Symmetric square root of a symmetric positive-semidefinite matrix.

    Eigenvalues in ``[-tol_psd * scale, 0)`` are treated as roundoff and
    clamped to zero, where ``scale = max(1, ||S||_2)``; anything more
    negative raises :class:`NotPsdError`.

    Returns
    -------
    (n, n) ndarray
        Symmetric PSD matrix ``M`` with ``M @ M = S`` (hence
        ``M @ M.T = S``).
    """
    S = _check_symmetric(S, "S")
    lam, U = np.linalg.eigh(S)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if lam.min(initial=0.0) < -tol_psd * scale:
        raise NotPsdError(
            f"matrix has eigenvalue {lam.min():.3e} below -{tol_psd:.1e} * {scale:.3e}"
        )
    M = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.T
    return 0.5 * (M + M.T)
