"""Dense linear-algebra kernels: Lyapunov solvers, matrix square roots,
spectral decompositions.

The continuous-time Lyapunov equations

.. math::

    A^T X + X A + W = 0  \\qquad\\text{and}\\qquad  A X + X A^T + W = 0

are the workhorses of the passivation routines: the Gramian, every
output map the optimizer returns or judges, and, when ``A`` has no
trusted eigenbasis, the L-BFGS evaluations, two solves per accepted step
(the value and the adjoint of its gradient) and one per rejected
line-search trial (the value only).  With a trusted basis the optimizer
evaluates in that basis without these solves
(:class:`klap.optimizer._ModalObjective`).  Both
orientations run through one per-basis kernel (:class:`_LyapunovKernel`),
built once per ``(A, decomposition, strategy)``.  Building it picks the
strategy, checks the eigenvector basis against :data:`DIAG_COND_LIMIT`,
rejects a singular operator (``lam_i + lam_j ~= 0``) and stores the
basis, its inverse and the ``lam_i + lam_j`` denominators; a solve is then
arithmetic plus the checks of its own result.  Input validation happens at
the public boundary (:func:`solve_lyapunov`,
:func:`solve_lyapunov_transposed`), not in the kernel.  The kernel takes
its right-hand side ``W`` as exactly symmetric: the public functions
symmetrize a ``W`` that passed their symmetry check, and the library's
own callers form ``W`` exactly symmetric (``L L^T`` and ``B B^T``, for
which numpy computes one triangle and mirrors it, and the adjoint
right-hand side ``-(F + F^T)/2``).  A :class:`~klap.system.StateSpaceSystem` owns the
kernel of its ``A``, built on first use from the eigenbasis it caches;
the Gramian, the optimizer's dense inner loop, the restarts and the
output maps all solve through it (where the optimizer's
:class:`~klap.optimizer._Frame` maps its runs to square-root-Gramian
coordinates, their output maps solve through the dense kernel of the
similar system instead).  Two strategies are provided:

``"diagonalized"``
    One spectral decomposition ``A = V diag(lam) V^{-1}``, made once per
    kernel, then a closed-form entrywise division in eigenvector
    coordinates.  Complex intermediate arithmetic; the imaginary part of
    the back-transformed solution is checked to be negligible and
    discarded, and every solution is checked against the residual bound
    :data:`RESIDUAL_RTOL`.

``"dense"``
    Bartels--Stewart solve on the real Schur form ``A = Z T Z^T``
    (:func:`_real_schur`, :func:`_bartels_stewart`: SciPy's
    ``solve_continuous_lyapunov`` arithmetic, bit for bit).  The kernel
    factors ``A`` (or ``A^T``) once per equation orientation, on its first
    dense solve of that orientation, and keeps the Schur form; every later
    solve is two products, one ``trsyl`` and two more products.  Used
    directly, or as the fallback of ``"auto"`` when the eigenvector basis
    is missing or too ill-conditioned to trust (decided when the kernel is
    built), or when a diagonalized solve fails its imaginary-leak or
    residual check: that solve and every later one of the kernel are then
    dense.  Each fallback is logged once, at debug level, with its reason.

The Newton--Riccati iteration of :mod:`klap.passivity` solves its
Lyapunov equations through the same pair, on the Schur form of each
closed loop, which also gives that closed loop's stability test.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .exceptions import (
    DefectiveMatrixError,
    IllConditionedError,
    NotPsdError,
    SingularOperatorError,
)

__all__ = [
    "SpectralDecomposition",
    "spectral_decompose",
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


_GEES, _TRSYL = get_lapack_funcs(("gees", "trsyl"), dtype=np.float64)


def _no_sort(re, im):  # pragma: no cover - gees calls it only when sorting
    return None


@functools.cache
def _gees_lwork(n: int) -> int:
    """The ``gees`` workspace SciPy's ``schur`` queries for order ``n``
    (with Schur vectors): the query reads the order alone, so it is made
    once per order and kept."""
    return int(_GEES(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0])


def _real_schur(a: np.ndarray, vectors: bool = True) -> tuple:
    """Real Schur form ``a = Z T Z^T`` of a real square matrix, as
    ``(T, Z, re)`` with ``re`` the real parts of the eigenvalues; ``Z`` is
    ``None`` without ``vectors``.

    SciPy's ``schur(a, output="real")`` call of LAPACK ``gees``, with the
    same queried workspace (:func:`_gees_lwork`) and no sorting, so ``T``
    and ``Z`` are SciPy's bit for bit; the eigenvalues come from the same
    factorization.  Without ``vectors`` the call skips the Schur vectors
    but keeps that workspace, which sets ``gees``'s shift and deflation
    sizes, so ``T`` and ``re`` stay those of the call with vectors.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``a`` is not finite (as :func:`numpy.linalg.eigvals`) or the QR
        algorithm fails.
    """
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    T, _, re, _, Z, _, info = _GEES(_no_sort, a, compute_v=int(vectors),
                                    lwork=_gees_lwork(a.shape[0]))
    if info < 0:  # pragma: no cover - argument error
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Z if vectors else None, re


def _bartels_stewart(schur: tuple, q: np.ndarray) -> np.ndarray:
    """``x`` with ``a x + x a^T = q``, given ``schur = _real_schur(a)``.

    SciPy's ``solve_continuous_lyapunov(a, q)`` after its Schur step, bit
    for bit: ``f = Z^T q Z``, ``trsyl(T, T, f, tranb="T")``, ``y *= scale``
    and ``x = Z y Z^T``, with SciPy's checks: a non-finite ``q`` raises
    :class:`ValueError`, and so does an argument error of ``trsyl``; an
    eigenvalue pair summing to (nearly) zero warns.  Like SciPy, the
    result is multiplied by ``trsyl``'s ``scale``, so an equation that
    ``trsyl`` rescales to avoid overflow comes back wrongly scaled; the
    kernel's residual check rejects it.
    """
    if not np.isfinite(q).all():
        raise ValueError("array must not contain infs or NaNs")
    T, Z, _ = schur
    f = Z.T.dot(q.dot(Z))
    y, scale, info = _TRSYL(T, T, f, tranb="T")
    if info < 0:
        raise ValueError("?TRSYL exited with the internal error "
                         f'"illegal value in argument number {-info}.". See '
                         "LAPACK documentation for the ?TRSYL error codes.")
    if info == 1:
        warnings.warn('Input "a" has an eigenvalue pair whose sum is '
                      "very close to or exactly zero. The solution is "
                      "obtained via perturbing the coefficients.",
                      RuntimeWarning, stacklevel=2)
    y *= scale
    return Z.dot(y).dot(Z.T)


class _LyapunovKernel:
    """Lyapunov solves for one ``A``, with the per-basis set-up done once.

    Building the kernel checks ``strategy``, obtains the eigenbasis
    (``decomp``, or :func:`spectral_decompose` of ``A``), checks its
    condition against :data:`DIAG_COND_LIMIT`, rejects a singular operator
    and stores ``A^T``, ``V``, ``V^{-1}``, their transposes, the negated
    ``lam_i + lam_j`` denominators and ``||A||_F``.  Under ``"auto"`` a
    missing or ill-conditioned basis selects the dense solve for every
    solve of this kernel, and so does the first diagonalized solve that
    fails its checks for every solve after it; under ``"diagonalized"``
    both raise.  The dense solve factors ``A`` (standard equation) or
    ``A^T`` (transposed equation) into real Schur form on its first solve
    of that orientation and keeps the form, so a kernel makes at most two
    Schur factorizations however many dense solves it runs.

    ``A`` and each ``W`` are taken as valid (finite, square, matching
    shapes, ``W`` exactly symmetric): the public functions validate and
    symmetrize them, and a
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
        self.A, self.A_t, self.strategy = A, A.T, strategy
        self.A_norm = _fro(A)
        # real Schur forms of A (False) and A^T (True), made on first use
        self._schur: dict[bool, tuple] = {}
        # diagonal: solve in the eigenbasis V; cleared for good by the first
        # diagonalized solve that fails its checks (V itself is kept, so a
        # solve already under way in another thread can finish)
        self.V, self.diagonal = None, False
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
        self.diagonal = True

    def solve(self, W: np.ndarray, transposed: bool) -> np.ndarray:
        """Exactly symmetric ``X`` with ``A^T X + X A + W = 0``
        (``transposed``) or ``A X + X A^T + W = 0``, for an exactly
        symmetric ``W`` (the caller's duty: the kernel does not
        symmetrize it).

        Every solution is checked: the diagonalized one for imaginary
        leakage and against the residual bound, the dense one against the
        residual bound.  A diagonalized solution that fails raises
        :class:`IllConditionedError` under ``"diagonalized"``; under
        ``"auto"`` it is replaced by the dense solve, and the kernel uses
        the dense solve for good from then on (logged once).  A dense
        solution that fails raises :class:`SingularOperatorError`.  A
        solution that is not finite (the equation overflowed) is returned
        as is.
        """
        if self.diagonal:
            X, reason = self._diagonal_solve(W, transposed)
            if reason is None:
                return X
            if self.strategy == "diagonalized":
                raise IllConditionedError(reason)
            _log.debug("auto Lyapunov strategy switches to the dense solve "
                       "for every later solve: %s", reason)
            self.diagonal = False
        X = self._dense_solve(W, transposed)
        X = X + X.T
        X *= 0.5
        if math.isfinite(_fro(X)) and self._residual_failure(X, W, transposed) is not None:
            raise SingularOperatorError(
                "Lyapunov solve residual exceeds tolerance; the operator is "
                "singular or nearly singular"
            )
        return X

    def _dense_solve(self, W: np.ndarray, transposed: bool) -> np.ndarray:
        """Bartels--Stewart solve on the kept Schur form of ``A^T``
        (``transposed``) or ``A``, factored on the first call."""
        schur = self._schur.get(transposed)
        if schur is None:
            try:
                schur = _real_schur(self.A.T if transposed else self.A)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK detail
                raise SingularOperatorError(f"dense Lyapunov solve failed: {exc}") from exc
            self._schur[transposed] = schur
        # the pair solves  a x + x a^T = q;  our equations carry +W on the left
        return _bartels_stewart(schur, -W)

    def _diagonal_solve(self, W: np.ndarray, transposed: bool) -> tuple[np.ndarray, str | None]:
        """The solution in eigenvector coordinates of symmetric ``W``, and
        why it fails its checks (``None`` if it passes them, or if it is
        not finite)."""
        if transposed:
            Y = self.V_t.dot(W).dot(self.V)
            Y /= self.neg_denom
            X = self.Vinv_t.dot(Y).dot(self.Vinv)
        else:
            Y = self.Vinv.dot(W).dot(self.Vinv_t)
            Y /= self.neg_denom
            X = self.V.dot(Y).dot(self.V_t)
        if X.dtype.kind == "c":
            x = X.ravel().view(np.float64)  # real and imaginary parts interleaved
            re, im = math.sqrt(x[0::2].dot(x[0::2])), math.sqrt(x[1::2].dot(x[1::2]))
            X = X.real
        else:  # real spectrum: numpy returns a real basis
            re, im = _fro(X), 0.0
        X = X + X.T
        X *= 0.5
        if not math.isfinite(re):
            return X, None
        if im > IMAG_LEAK_TOL * max(re, 1e-300):
            return X, (f"diagonalized solve left imaginary residue {im:.2e} "
                       f"vs real norm {re:.2e}")
        return X, self._residual_failure(X, W, transposed)

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
        S = self.A_t.dot(X) if transposed else self.A.dot(X)
        S += S.T  # numpy buffers the overlapping operand: S + S^T
        S += W
        return _fro(S), RESIDUAL_RTOL * (self.A_norm * _fro(X) + _fro(W))


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
    W = 0.5 * (W + W.T)
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
