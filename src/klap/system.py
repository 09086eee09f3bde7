"""LTI state-space systems and frequency-domain utilities.

A :class:`StateSpaceSystem` bundles the matrices of

.. math::

    \\dot x = A x + B u, \\qquad y = C x + D u

with ``A`` Hurwitz (asymptotic stability is a standing assumption of every
algorithm in this package).  The module provides transfer-function and
Popov-function evaluation, frequency sweeps of the Popov function's
smallest eigenvalue, controllability Gramians, and the squared H2 distance
between two output maps sharing the same state dynamics.

A system computes the eigenbasis of ``A`` (and ``V^{-1} B``) and the
Lyapunov kernel of ``A`` once each, on first use, and shares them with
every system derived from it by :meth:`StateSpaceSystem.with_output` or
:meth:`StateSpaceSystem.with_feedthrough`.  The kernel is the one place
that decides how Lyapunov equations in ``A`` are solved: ``"auto"`` on the
cached basis, the dense solve when ``A`` has none.  :func:`popov_scan`
evaluates the whole frequency grid in that basis as one matrix product
and decides its minimum by direct solves; without a trusted basis it
solves the whole grid directly, in batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DefectiveMatrixError, DimensionMismatchError, NotHurwitzError
from .linalg import (
    DIAG_COND_LIMIT,
    SpectralDecomposition,
    max_real_part,
    solve_lyapunov,
)

__all__ = [
    "StateSpaceSystem",
    "PopovScan",
    "transfer_eval",
    "popov_eval",
    "default_popov_grid",
    "popov_scan",
    "controllability_gramian",
    "h2_error_sq",
]

_log = logging.getLogger(__name__)

#: complex entries per block of ``(i w I - A)`` matrices in the direct
#: scan: 512 KB of workspace, two frequencies per block at n = 128
_SOLVE_BLOCK_ENTRIES = 1 << 15


def _matrix(value, rows: int | None, cols: int | None, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim {M.ndim}")
    if rows is not None and M.shape[0] != rows:
        raise DimensionMismatchError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionMismatchError(f"{name} must have {cols} columns, got {M.shape[1]}")
    if not np.isfinite(M).all():
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True, eq=False)
class StateSpaceSystem:
    """Asymptotically stable LTI system ``(A, B, C, D)``.

    Shapes are ``A: (n, n)``, ``B: (n, m)``, ``C: (m, n)``, ``D: (m, m)``
    with ``m <= n``.  Construction validates dimensions and rejects
    non-Hurwitz ``A``: the largest eigenvalue real part must lie below
    ``-1e-12 * ||A||_F``.  The stored arrays are defensive read-only
    copies, so instances are safe to share across threads (two threads
    that both find the eigenbasis missing compute the same one).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _matrix(self.A, None, None, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatchError(f"A must be square, got {A.shape}")
        B = _matrix(self.B, n, None, "B")
        m = B.shape[1]
        C = _matrix(self.C, m, n, "C")
        D = _matrix(self.D, m, m, "D")
        if m > n:
            raise DimensionMismatchError(f"need m <= n, got m = {m}, n = {n}")
        tol_stab = 1e-12 * np.linalg.norm(A, "fro")
        abscissa = max_real_part(A)
        if abscissa >= -tol_stab:
            raise NotHurwitzError(
                f"A must be Hurwitz: largest eigenvalue real part {abscissa:.3e} "
                f">= -{tol_stab:.3e}"
            )
        for M in (A, B, C, D):
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        # eigenbasis and Lyapunov kernel cache, shared by reference with
        # derived systems
        object.__setattr__(self, "_eigen", {})

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Input/output dimension."""
        return self.B.shape[1]

    def with_output(self, C: np.ndarray) -> "StateSpaceSystem":
        """Same dynamics and feedthrough, different output matrix; shares
        the eigenbasis and the Lyapunov kernel of ``A``."""
        return self._sharing_eigenbasis(StateSpaceSystem(self.A, self.B, C, self.D))

    def with_feedthrough(self, D: np.ndarray) -> "StateSpaceSystem":
        """Same dynamics and output map, different feedthrough; shares the
        eigenbasis and the Lyapunov kernel of ``A``."""
        return self._sharing_eigenbasis(StateSpaceSystem(self.A, self.B, self.C, D))

    def _sharing_eigenbasis(self, other: "StateSpaceSystem") -> "StateSpaceSystem":
        object.__setattr__(other, "_eigen", self._eigen)
        return other

    def _modes(self) -> tuple[SpectralDecomposition | None, np.ndarray | None]:
        """The eigenbasis of ``A`` and ``V^{-1} B``, computed on first use
        (``None`` for both when ``A`` has no usable basis)."""
        if "modes" not in self._eigen:
            try:
                # through the module attribute, which perfbench/tracing.py wraps
                decomp = linalg.spectral_decompose(self.A)
            except DefectiveMatrixError as exc:
                _log.debug("no eigenbasis of A, so dense Lyapunov solves and "
                           "direct Popov scans: %s", exc)
                self._eigen["modes"] = (None, None)
            else:
                self._eigen["modes"] = (decomp, decomp.inverse_vectors @ self.B)
        return self._eigen["modes"]

    def _lyapunov(self) -> linalg._LyapunovKernel:
        """The Lyapunov kernel of ``A``, built on first use from the cached
        eigenbasis: ``"auto"`` when ``A`` has a basis, ``"dense"`` when it
        has none."""
        if "lyapunov" not in self._eigen:
            decomp, _ = self._modes()
            strategy = "auto" if decomp is not None else "dense"
            self._eigen["lyapunov"] = linalg._LyapunovKernel(self.A, decomp, strategy)
        return self._eigen["lyapunov"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StateSpaceSystem(n={self.n}, m={self.m})"


def transfer_eval(sys: StateSpaceSystem, s: complex) -> np.ndarray:
    """Transfer function ``G(s) = C (sI - A)^{-1} B + D``.

    ``s`` must not be an eigenvalue of ``A``; since ``A`` is Hurwitz, every
    point of the closed right half-plane (including the imaginary axis) is
    safe.

    Returns
    -------
    (m, m) complex ndarray
    """
    n = sys.n
    resolvent_b = np.linalg.solve(s * np.eye(n) - sys.A, sys.B)
    return sys.C @ resolvent_b + sys.D


def popov_eval(sys: StateSpaceSystem, omega: float) -> np.ndarray:
    """Popov function ``Phi(i w) = G(i w) + G(i w)^H`` (exactly Hermitian).

    The system is passive iff ``Phi(i w) >= 0`` for all real ``w``.
    """
    G = transfer_eval(sys, 1j * float(omega))
    Phi = G + G.conj().T
    return 0.5 * (Phi + Phi.conj().T)


def default_popov_grid(
    sys: StateSpaceSystem,
    points: int = 500,
    wmin: float | None = None,
    wmax: float | None = None,
) -> np.ndarray:
    """Logarithmic frequency grid for Popov sweeps.

    By default: ``points`` log-spaced frequencies spanning
    ``[1e-4 * rho, 1e4 * rho]`` with ``rho = max(1, spectral radius of A)``,
    plus the zero frequency.
    """
    if points < 2:
        raise ValueError("need at least 2 grid points")
    rho = max(1.0, float(np.abs(np.linalg.eigvals(sys.A)).max()))
    lo = 1e-4 * rho if wmin is None else float(wmin)
    hi = 1e4 * rho if wmax is None else float(wmax)
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < wmin < wmax, got [{lo}, {hi}]")
    return np.concatenate(([0.0], np.geomspace(lo, hi, points)))


@dataclass(frozen=True)
class PopovScan:
    """Result of sweeping ``lambda_min(Phi(i w))`` over a frequency grid."""

    frequencies: np.ndarray
    min_eigenvalues: np.ndarray
    global_min: float
    argmin_frequency: float


def popov_scan(sys: StateSpaceSystem, grid: np.ndarray | None = None) -> PopovScan:
    """Smallest Popov eigenvalue over a frequency grid.

    Parameters
    ----------
    sys : StateSpaceSystem
    grid : array_like, optional
        Frequencies to sample; defaults to :func:`default_popov_grid`.

    Returns
    -------
    PopovScan

    Notes
    -----
    The whole grid is evaluated in one batch.  When ``A`` has a trusted
    eigenbasis -- :func:`~klap.linalg.spectral_decompose` succeeds and the
    basis condition is at most :data:`klap.linalg.DIAG_COND_LIMIT`, the bound the
    ``"auto"`` Lyapunov strategy uses -- the transfer function is the
    partial-fraction sum

    .. math::

        G(i\\omega_k) = D + \\sum_j r_{kj} \\, c_j b_j^T,
        \\qquad r_{kj} = \\frac{1}{i\\omega_k - \\lambda_j},
        \\quad c = C V, \\quad b = V^{-1} B,

    one ``(F x n) @ (n x m^2)`` product for all ``F`` frequencies, followed
    by one batched ``eigvalsh``.  Its rounding error grows with the
    condition of ``V``; each grid value comes with the estimate

    .. math::

        e_k = 2 n \\, \\epsilon \\, \\operatorname{cond}(V) \\Bigl(\\|D\\|_F
        + \\sum_j |r_{kj}| \\, \\|c_j b_j^T\\|_F \\,
        (1 + \\|A\\|_F |r_{kj}|)\\Bigr)

    (first-order perturbation of the eigenvectors and, through ``r``, of
    the eigenvalues), at least twice the observed deviation from
    :func:`popov_eval` on several hundred random systems.  Every grid
    point whose value may be the minimum within these estimates
    (``value_k - e_k <= min_j (value_j + e_j)``) is re-evaluated by direct
    solves, so ``global_min`` and ``argmin_frequency`` are those of
    :func:`popov_eval` values.  On well-conditioned systems that is the
    grid argmin alone, and the other values agree with :func:`popov_eval`
    to about ``1e-12``.  When the partial-fraction terms are much larger
    than the Popov values they sum to (a nearly defective ``A``, or the
    output map of a passive optimum, whose Popov minimum is close to zero),
    the estimates are wide and part or most of the grid is solved
    directly, at no more than the cost of the direct path.

    Without a trusted basis (e.g. a defective ``A``), blocks of
    frequencies go through one batched ``(i w I - A)`` solve each, which
    reproduces :func:`popov_eval` exactly at every grid point.

    The grid minimum is an upper bound on the true infimum over all
    frequencies; a sharp Popov dip between grid points is reported slightly
    high.  Downstream users that perturb a system to the passive side add a
    safety margin for exactly this reason.
    """
    w = np.asarray(default_popov_grid(sys) if grid is None else grid, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    decomp, b = sys._modes()
    if decomp is None or decomp.condition_estimate > DIAG_COND_LIMIT:
        mins = _popov_mins_solved(sys, w)
    else:
        mins, err = _popov_mins_modal(sys, decomp, b, w)
        near = mins - err <= (mins + err).min()
        mins[near] = _popov_mins_solved(sys, w[near])
    k = int(mins.argmin())
    return PopovScan(w, mins, float(mins[k]), float(w[k]))


def _lambda_min(G: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``G + G^H`` for a stack ``(F, m, m)``."""
    return np.linalg.eigvalsh(G + G.conj().swapaxes(1, 2)).min(axis=1)


def _popov_mins_modal(
    sys: StateSpaceSystem, decomp: SpectralDecomposition, b: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Popov minima at every frequency from one product in the eigenbasis
    (``b = V^{-1} B``), and their rounding-error estimates (see
    :func:`popov_scan`)."""
    n, m = sys.n, sys.m
    c = sys.C @ decomp.right_vectors
    # row j holds vec(c_j b_j^T), the residue of the pole lambda_j
    residues = (c.T[:, :, None] * b[:, None, :]).reshape(n, m * m)
    resolvent = 1.0 / (1j * w[:, None] - decomp.eigenvalues)
    G = (resolvent @ residues).reshape(w.size, m, m) + sys.D
    # sum_j |r_kj| size_j (1 + ||A|| |r_kj|), squaring |r| in place
    r = np.abs(resolvent)
    size = np.linalg.norm(residues, axis=1)
    terms = r @ size
    terms += np.linalg.norm(sys.A) * (np.square(r, out=r) @ size)
    scale = 2.0 * n * np.finfo(float).eps * decomp.condition_estimate
    return _lambda_min(G), scale * (np.linalg.norm(sys.D) + terms)


def _popov_mins_solved(sys: StateSpaceSystem, w: np.ndarray) -> np.ndarray:
    """Popov minima by direct solves, batched over blocks of frequencies
    with the arithmetic of :func:`popov_eval`."""
    n, m = sys.n, sys.m
    step = max(1, _SOLVE_BLOCK_ENTRIES // (n * n))
    eye = np.eye(n)
    mins = []
    for lo in range(0, w.size, step):
        s = 1j * w[lo:lo + step, None, None]
        rhs = np.broadcast_to(sys.B, (s.shape[0], n, m))
        mins.append(_lambda_min(sys.C @ np.linalg.solve(s * eye - sys.A, rhs) + sys.D))
    return np.concatenate(mins)


def controllability_gramian(
    sys: StateSpaceSystem,
    strategy: str = "auto",
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Controllability Gramian: the symmetric PSD solution of
    ``A P + P A^T + B B^T = 0``.

    By default solved by the system's own Lyapunov kernel; another
    ``strategy`` or an explicit ``decomp`` solves it through
    :func:`~klap.linalg.solve_lyapunov` with those arguments instead.
    """
    W = sys.B @ sys.B.T
    if strategy == "auto" and decomp is None:
        return sys._lyapunov().solve_finite(W, False)
    return solve_lyapunov(sys.A, W, strategy=strategy, decomp=decomp)


def h2_error_sq(
    sys: StateSpaceSystem,
    C_hat: np.ndarray,
    P: np.ndarray | None = None,
) -> float:
    """Squared H2 distance between ``sys`` and the same system with output
    matrix ``C_hat``.

    Because the two systems share ``(A, B, D)``, the H2 norm of the
    difference reduces to the Gramian-weighted output mismatch

    .. math::

        \\|G - \\hat G\\|_{H_2}^2
        = \\operatorname{tr}\\bigl((C - \\hat C) P (C - \\hat C)^T\\bigr),

    where ``P`` is the controllability Gramian (optionally precomputed).
    """
    C_hat = _matrix(C_hat, sys.m, sys.n, "C_hat")
    if P is None:
        P = controllability_gramian(sys)
    E = sys.C - C_hat
    return float(np.trace(E @ P @ E.T))
