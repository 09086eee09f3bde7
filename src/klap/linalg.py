"""Dense linear-algebra kernels: Lyapunov solvers, matrix square roots,
spectral decompositions.

The continuous-time Lyapunov equations

.. math::

    A^T X + X A + W = 0  \\qquad\\text{and}\\qquad  A X + X A^T + W = 0

are the workhorses of the passivation routines; each objective/gradient
evaluation performs exactly two of these solves.  Both orientations run
through one per-basis kernel (:class:`_LyapunovKernel`), built once per
``(A, decomposition, strategy)``.  Building it picks the strategy, checks
the eigenvector basis against :data:`DIAG_COND_LIMIT`, rejects a singular
operator (``lam_i + lam_j ~= 0``) and stores the basis, its inverse and
the ``lam_i + lam_j`` denominators; a solve is then arithmetic plus the
checks of its own result.  Input validation happens at the public
boundary (:func:`solve_lyapunov`, :func:`solve_lyapunov_transposed`),
not in the kernel.  A :class:`~klap.system.StateSpaceSystem` owns the
kernel of its ``A``, built on first use from the eigenbasis it caches;
the Gramian, the optimizer's inner loop, the restarts and the final
output map all solve through it.  Two strategies are provided:

``"diagonalized"``
    One spectral decomposition ``A = V diag(lam) V^{-1}``, made once per
    kernel, then a closed-form entrywise division in eigenvector
    coordinates.  Complex intermediate arithmetic; the imaginary part of
    the back-transformed solution is checked to be negligible and
    discarded, and every solution is checked against the residual bound
    :data:`RESIDUAL_RTOL`.

``"dense"``
    Schur-based Bartels--Stewart solve (SciPy).  Used directly, or as the
    fallback of ``"auto"`` when the eigenvector basis is missing or too
    ill-conditioned to trust (decided once per kernel), or when one
    diagonalized solve fails its imaginary-leak or residual check
    (decided per solve).  Each fallback is logged at debug level with its
    reason.
"""

from __future__ import annotations

import logging
import math
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
    "sqrtm_psd",
]

_log = logging.getLogger(__name__)

#: condition-number bound above which ``"auto"`` abandons the
#: diagonalization strategy in favour of the dense Schur solve
DIAG_COND_LIMIT = 1e8

#: relative Frobenius bound on the imaginary part left over after the
#: complex diagonalized solve of a real equation
IMAG_LEAK_TOL = 1e-8

#: relative residual bound guaranteed by the Lyapunov solvers
RESIDUAL_RTOL = 1e-10

#: condition-number bound on the eigenvector basis above which
#: :func:`spectral_decompose` calls a matrix numerically defective
DEFECTIVE_COND_LIMIT = 1e12

#: relative size of the negative eigenvalues :func:`sqrtm_psd` clamps to
#: zero as roundoff
PSD_RTOL = 1e-10


def _as_square(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _check_symmetric(W: np.ndarray, name: str = "W") -> np.ndarray:
    """``W`` as a finite square float array, symmetric up to ``1e-10``
    relative; the caller symmetrizes it exactly."""
    W = _as_square(W, name)
    sym_defect = np.linalg.norm(W - W.T, "fro")
    if sym_defect > 1e-10 * max(1.0, np.linalg.norm(W, "fro")):
        raise ValueError(f"{name} must be symmetric (defect {sym_defect:.2e})")
    return W


def _fro(X: np.ndarray) -> float:
    """Frobenius norm of a real array, ``sqrt(x . x)``."""
    x = X.ravel()
    return math.sqrt(x.dot(x))


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


def spectral_decompose(A: np.ndarray) -> SpectralDecomposition:
    """Diagonalize a real square matrix.

    Parameters
    ----------
    A : (n, n) array_like

    Returns
    -------
    SpectralDecomposition

    Raises
    ------
    DefectiveMatrixError
        If the eigenvector matrix is numerically singular or its 2-norm
        condition number exceeds :data:`DEFECTIVE_COND_LIMIT` (a numerically
        defective matrix admits no usable eigenvector basis).
    """
    A = _as_square(A)
    lam, V = np.linalg.eig(A)
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > DEFECTIVE_COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvector basis has condition {cond:.2e} > {DEFECTIVE_COND_LIMIT:.2e}; "
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


def _dense_solve(A: np.ndarray, W: np.ndarray, transposed: bool) -> np.ndarray:
    # scipy solves  a x + x a^T = q;  our equations carry +W on the left.
    a = A.T if transposed else A
    try:
        X = scipy.linalg.solve_continuous_lyapunov(a, -W)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy detail
        raise SingularOperatorError(f"dense Lyapunov solve failed: {exc}") from exc
    return X


class _LyapunovKernel:
    """Lyapunov solves for one ``A``, with the per-basis set-up done once.

    Building the kernel checks ``strategy``, obtains the eigenbasis
    (``decomp``, or :func:`spectral_decompose` of ``A``), checks its
    condition against :data:`DIAG_COND_LIMIT`, rejects a singular operator
    and stores ``V``, ``V^{-1}``, their transposes, the negated
    ``lam_i + lam_j`` denominators and ``||A||_F``.  Under ``"auto"`` a
    missing or ill-conditioned basis selects the dense solve for every
    solve of this kernel; under ``"diagonalized"`` it raises.

    ``A`` and each ``W`` are taken as valid (finite, square, matching
    shapes): the public functions validate them, and a
    :class:`~klap.system.StateSpaceSystem` builds the kernel of its
    validated ``A`` once and keeps it.

    In eigenvector coordinates, for ``A = V diag(lam) V^{-1}``:

    * transposed equation ``A^T X + X A + W = 0``:
      ``Xt = V^T X V`` satisfies ``Xt_ij = -(V^T W V)_ij / (lam_i + lam_j)``.
    * standard equation ``A X + X A^T + W = 0``:
      ``Xh = V^{-1} X V^{-T}`` satisfies
      ``Xh_ij = -(V^{-1} W V^{-T})_ij / (lam_i + lam_j)``.
    """

    def __init__(
        self,
        A: np.ndarray,
        decomp: SpectralDecomposition | None = None,
        strategy: str = "auto",
    ):
        if strategy not in ("auto", "diagonalized", "dense"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.A, self.strategy = A, strategy
        self.A_norm = _fro(A)
        self.V = None
        if strategy == "dense":
            return
        try:
            d = decomp if decomp is not None else spectral_decompose(A)
            if d.condition_estimate > DIAG_COND_LIMIT:
                raise IllConditionedError(
                    f"eigenvector condition {d.condition_estimate:.2e} exceeds "
                    f"{DIAG_COND_LIMIT:.2e}; use the dense strategy"
                )
        except (DefectiveMatrixError, IllConditionedError) as exc:
            if strategy == "diagonalized":
                raise
            _log.debug("auto Lyapunov strategy uses the dense solve: %s", exc)
            return
        lam = d.eigenvalues
        denom = lam[:, None] + lam[None, :]
        smin = np.abs(denom).min()
        if smin <= 1e-14 * max(1.0, float(np.abs(lam).max(initial=0.0))):
            raise SingularOperatorError(
                f"Lyapunov operator is singular: min |lambda_i + lambda_j| = {smin:.2e}"
            )
        self.V, self.Vinv = d.right_vectors, d.inverse_vectors
        self.V_t, self.Vinv_t = self.V.T, self.Vinv.T
        self.neg_denom = -denom

    def solve(self, W: np.ndarray, transposed: bool) -> np.ndarray:
        """Exactly symmetric ``X`` with ``A^T X + X A + W = 0``
        (``transposed``) or ``A X + X A^T + W = 0``.

        Every solution is checked: the diagonalized one for imaginary
        leakage and against the residual bound, the dense one against the
        residual bound.  A diagonalized solution that fails falls back to
        the dense solve under ``"auto"`` and raises
        :class:`IllConditionedError` under ``"diagonalized"``; a dense one
        that fails raises :class:`SingularOperatorError`.  A solution that
        is not finite (the equation overflowed) is returned as is.
        """
        W = 0.5 * (W + W.T)
        if self.V is not None:
            if transposed:
                X = self.Vinv_t @ ((self.V_t @ W @ self.V) / self.neg_denom) @ self.Vinv
            else:
                X = self.V @ ((self.Vinv @ W @ self.Vinv_t) / self.neg_denom) @ self.V_t
            if X.dtype.kind == "c":
                x = X.ravel().view(np.float64)  # real and imaginary parts interleaved
                re, im = math.sqrt(x[0::2].dot(x[0::2])), math.sqrt(x[1::2].dot(x[1::2]))
                X = X.real
            else:  # real spectrum: numpy returns a real basis
                re, im = _fro(X), 0.0
            X = 0.5 * (X + X.T)
            if not math.isfinite(re):
                return X
            if im > IMAG_LEAK_TOL * max(re, 1e-300):
                reason = (
                    f"diagonalized solve left imaginary residue {im:.2e} "
                    f"vs real norm {re:.2e}"
                )
            else:
                reason = self._residual_failure(X, W, transposed)
                if reason is None:
                    return X
            if self.strategy == "diagonalized":
                raise IllConditionedError(reason)
            _log.debug("auto Lyapunov solve falls back to the dense solve: %s", reason)
        X = _dense_solve(self.A, W, transposed)
        X = 0.5 * (X + X.T)
        if math.isfinite(_fro(X)) and self._residual_failure(X, W, transposed) is not None:
            raise SingularOperatorError(
                "Lyapunov solve residual exceeds tolerance; the operator is "
                "singular or nearly singular"
            )
        return X

    def solve_finite(self, W: np.ndarray, transposed: bool) -> np.ndarray:
        """:meth:`solve` for callers that need a finite solution: raises
        :class:`SingularOperatorError` where ``W`` or ``X`` overflows."""
        if np.isfinite(W).all():
            X = self.solve(W, transposed)
            if np.isfinite(X).all():
                return X
        raise SingularOperatorError("Lyapunov solution overflows")

    def _residual_failure(self, X: np.ndarray, W: np.ndarray, transposed: bool) -> str | None:
        """Why ``X`` misses the residual bound, or ``None`` if it meets it."""
        res, tol = self._residual(X, W, transposed)
        if not (math.isfinite(res) and math.isfinite(tol)):
            # a norm overflowed; the test is invariant under scaling X and W
            # together, so repeat it on scaled copies (non-finite ones fail)
            s = max(np.abs(X).max(), np.abs(W).max())
            res, tol = self._residual(X / s, W / s, transposed)
        if math.isfinite(tol) and res <= max(tol, 1e-300):
            return None
        return f"residual {res:.2e} exceeds {tol:.2e}"

    def _residual(self, X: np.ndarray, W: np.ndarray, transposed: bool) -> tuple[float, float]:
        """``||A^T X + X A + W||_F`` (or of the standard equation) and its
        bound :data:`RESIDUAL_RTOL` ``(||A|| ||X|| + ||W||)``."""
        # X is exactly symmetric, so X A = (A^T X)^T and X A^T = (A X)^T
        S = self.A.T @ X if transposed else self.A @ X
        res = _fro(S + S.T + W)
        return res, RESIDUAL_RTOL * (self.A_norm * _fro(X) + _fro(W))


def _solve(
    A: np.ndarray,
    W: np.ndarray,
    transposed: bool,
    strategy: str,
    decomp: SpectralDecomposition | None,
) -> np.ndarray:
    A = _as_square(A)
    W = _check_symmetric(W)
    if A.shape != W.shape:
        raise ValueError(f"A and W must have matching shapes, got {A.shape} and {W.shape}")
    return _LyapunovKernel(A, decomp, strategy).solve_finite(W, transposed)


def solve_lyapunov(
    A: np.ndarray,
    W: np.ndarray,
    strategy: str = "auto",
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Solve ``A X + X A^T + W = 0`` for symmetric ``X``.

    Validates ``A`` and ``W`` (finite, square, matching shapes, ``W``
    symmetric), then solves through the same per-basis kernel the
    optimizer uses.

    Parameters
    ----------
    A : (n, n) array_like
        Coefficient matrix; all eigenvalue pair sums must be nonzero
        (guaranteed when ``A`` is Hurwitz).
    W : (n, n) array_like
        Symmetric right-hand side.
    strategy : {"auto", "diagonalized", "dense"}, optional
        ``"auto"`` tries the diagonalization route and falls back to the
        dense Schur solve when the eigenvector basis is missing, too
        ill-conditioned, or the diagonalized solution fails its
        imaginary-leak or residual check; each fallback is logged at debug
        level on the ``klap.linalg`` logger with its reason.
    decomp : SpectralDecomposition, optional
        Decomposition of ``A`` to use instead of computing one.  Solutions
        are accepted only with
        ``||A X + X A^T + W||_F <= RESIDUAL_RTOL * (||A|| ||X|| + ||W||)``.

    Returns
    -------
    (n, n) ndarray
        Exactly symmetric solution.

    Raises
    ------
    SingularOperatorError
        If ``lambda_i + lambda_j ~= 0`` for some eigenvalue pair, or the
        solution overflows.
    IllConditionedError
        If ``strategy="diagonalized"`` and the eigenvector basis cannot
        deliver the residual bound.
    """
    return _solve(A, W, False, strategy, decomp)


def solve_lyapunov_transposed(
    A: np.ndarray,
    W: np.ndarray,
    strategy: str = "auto",
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Solve ``A^T X + X A + W = 0`` for symmetric ``X``.

    See :func:`solve_lyapunov` for parameters and error behaviour; the
    same ``decomp`` of ``A`` serves both equation orientations.
    """
    return _solve(A, W, True, strategy, decomp)


def sqrtm_psd(S: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive-semidefinite matrix.

    Eigenvalues in ``[-PSD_RTOL * scale, 0)`` are treated as roundoff and
    clamped to zero, where ``scale = max(1, ||S||_2)``; anything more
    negative raises :class:`NotPsdError`.

    Returns
    -------
    (n, n) ndarray
        Symmetric PSD matrix ``M`` with ``M @ M = S`` (hence
        ``M @ M.T = S``).
    """
    S = _check_symmetric(S, "S")
    S = 0.5 * (S + S.T)
    lam, U = np.linalg.eigh(S)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if lam.min(initial=0.0) < -PSD_RTOL * scale:
        raise NotPsdError(
            f"matrix has eigenvalue {lam.min():.3e} below -{PSD_RTOL:.1e} * {scale:.3e}"
        )
    M = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.T
    return 0.5 * (M + M.T)
