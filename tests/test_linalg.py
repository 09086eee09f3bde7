"""Tests for the dense Lyapunov/spectral kernels.

The Kronecker-vectorization oracle (``tests/oracles.py``) is validated first against closed-form
hand computations; the production solvers are then measured against the
oracle on random well-posed instances.
"""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klap.exceptions import (
    DefectiveMatrixError,
    IllConditionedError,
    NotPsdError,
    SingularOperatorError,
)
from klap.linalg import (
    DIAG_COND_LIMIT,
    _LyapunovKernel,
    max_real_part,
    solve_lyapunov,
    solve_lyapunov_transposed,
    spectral_decompose,
    sqrtm_psd,
)

from oracles import kron_lyapunov_oracle


def random_hurwitz(rng, n, margin=0.5):
    """Random dense Hurwitz matrix with spectral abscissa <= -margin."""
    A = rng.standard_normal((n, n))
    shift = max_real_part(A) + margin
    return A - shift * np.eye(n)


def random_sym(rng, n):
    W = rng.standard_normal((n, n))
    return W + W.T


# ---------------------------------------------------------------------------
# oracle self-checks against closed forms
# ---------------------------------------------------------------------------


def test_oracle_scalar_closed_form():
    # a x + x a + w = 0  =>  x = -w / (2 a)
    X = kron_lyapunov_oracle(np.array([[-3.0]]), np.array([[4.0]]))
    assert_allclose(X, [[2.0 / 3.0]], rtol=0, atol=1e-15)


def test_oracle_diagonal_closed_form():
    # For diagonal A the solution is entrywise: x_ij = -w_ij / (a_i + a_j).
    A = np.diag([-1.0, -2.0])
    W = np.array([[2.0, 3.0], [3.0, 8.0]])
    expected = np.array([[2.0 / 2.0, 3.0 / 3.0], [3.0 / 3.0, 8.0 / 4.0]])
    assert_allclose(kron_lyapunov_oracle(A, W), expected, atol=1e-15)


def test_oracle_residual_is_machine_precision():
    rng = np.random.default_rng(7)
    for n in (2, 5, 11):
        A = random_hurwitz(rng, n)
        W = random_sym(rng, n)
        X = kron_lyapunov_oracle(A, W)
        res = np.linalg.norm(A @ X + X @ A.T + W, "fro")
        assert res <= 1e-11 * (np.linalg.norm(X) * np.linalg.norm(A) + np.linalg.norm(W))


def test_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        kron_lyapunov_oracle(-np.eye(51), np.eye(51))


# ---------------------------------------------------------------------------
# production solvers vs oracle and hand-derived values
# ---------------------------------------------------------------------------


def test_transposed_solve_hand_derived():
    # A^T X + X A + L L^T = 0 for the 2x2 system below and L = [0.96, -0.48]
    # has the unique solution worked out by hand from the 3 linear equations:
    A = np.array([[-1.0, 4.0], [-2.0, -1.0]])
    L = np.array([[0.96], [-0.48]])
    X = solve_lyapunov_transposed(A, L @ L.T)
    assert_allclose(X, [[0.3328, 0.064], [0.064, 0.3712]], atol=1e-12)


def test_solvers_match_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for k in range(50):
        n = int(rng.integers(2, 31))
        A = random_hurwitz(rng, n)
        W = random_sym(rng, n)
        X_oracle = kron_lyapunov_oracle(A, W)
        scale = 1.0 + np.linalg.norm(X_oracle, "fro")
        for strategy in ("diagonalized", "dense", "auto"):
            X = solve_lyapunov(A, W, strategy=strategy)
            assert np.linalg.norm(X - X_oracle, "fro") <= 1e-9 * scale
        Xt_oracle = kron_lyapunov_oracle(A.T, W)
        for strategy in ("diagonalized", "dense", "auto"):
            Xt = solve_lyapunov_transposed(A, W, strategy=strategy)
            assert np.linalg.norm(Xt - Xt_oracle, "fro") <= 1e-9 * scale


def test_solution_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    A = random_hurwitz(rng, 8)
    W = random_sym(rng, 8)
    for X in (solve_lyapunov(A, W), solve_lyapunov_transposed(A, W)):
        assert np.array_equal(X, X.T)


def test_psd_right_hand_side_gives_psd_solution():
    # With A Hurwitz and W >= 0 the solution is a Gramian, hence PSD.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        A = random_hurwitz(rng, n)
        G = rng.standard_normal((n, n))
        W = G @ G.T
        X = solve_lyapunov(A, W)
        assert np.linalg.eigvalsh(X).min() >= -1e-10 * max(1.0, np.linalg.norm(X))


def test_precomputed_decomposition_reused():
    rng = np.random.default_rng(5)
    A = random_hurwitz(rng, 6)
    d = spectral_decompose(A)
    W = random_sym(rng, 6)
    X1 = solve_lyapunov(A, W, strategy="diagonalized", decomp=d)
    X2 = solve_lyapunov(A, W, strategy="dense")
    assert_allclose(X1, X2, atol=1e-10 * (1 + np.linalg.norm(X1)))


def test_lyapunov_trace_identity():
    # If A Y + Y A^T + D = 0 and A^T Z + Z A + F = 0 then tr(D^T Z) = tr(F^T Y):
    # both equal the doubly-weighted inner product of the two Gramians.
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        A = random_hurwitz(rng, n)
        D = random_sym(rng, n)
        F = random_sym(rng, n)
        Y = solve_lyapunov(A, D)
        Z = solve_lyapunov_transposed(A, F)
        t1 = np.trace(D.T @ Z)
        t2 = np.trace(F.T @ Y)
        assert abs(t1 - t2) <= 1e-10 * max(1.0, abs(t1), abs(t2))


def test_singular_operator_detected():
    # Eigenvalues -1 and +1 sum to zero across the pair: operator singular.
    A = np.diag([-1.0, 1.0])
    W = np.eye(2)
    with pytest.raises(SingularOperatorError):
        solve_lyapunov(A, W, strategy="diagonalized")


def test_nonsymmetric_rhs_rejected():
    A = -np.eye(2)
    W = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        solve_lyapunov(A, W)


def test_ill_conditioned_eigenbasis_falls_back():
    # Nearly parallel eigenvectors: explicit diagonalized strategy refuses,
    # the auto strategy uses the dense solve instead.
    A = np.array([[-1.0, 1e9], [0.0, -2.0]])
    W = np.eye(2)
    with pytest.raises(IllConditionedError):
        solve_lyapunov(A, W, strategy="diagonalized")
    X = solve_lyapunov(A, W, strategy="auto")
    res = np.linalg.norm(A @ X + X @ A.T + W)
    assert res <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(X) + np.linalg.norm(W))


def _dense_fallbacks(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "klap.linalg" and "dense solve" in r.getMessage()]


def test_ill_conditioned_basis_fallback_is_logged_and_exact(caplog):
    # basis condition 2e9 > DIAG_COND_LIMIT: decided once, when the kernel
    # is built, and logged with the condition as the reason
    caplog.set_level(logging.DEBUG, logger="klap.linalg")
    A = np.array([[-1.0, 1e9], [0.0, -2.0]])
    W = np.eye(2)
    X = solve_lyapunov(A, W, strategy="auto")
    (message,) = _dense_fallbacks(caplog)
    assert "condition" in message
    X_oracle = kron_lyapunov_oracle(A, W)
    assert np.linalg.norm(X - X_oracle, "fro") <= 1e-10 * np.linalg.norm(X_oracle, "fro")


def test_residual_rejection_fallback_is_logged_and_exact(caplog):
    # basis condition 2e5 passes the limit, but the diagonalized solution
    # misses the residual bound: that one solve goes to the dense solver
    caplog.set_level(logging.DEBUG, logger="klap.linalg")
    A = np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-5]])
    assert spectral_decompose(A).condition_estimate < DIAG_COND_LIMIT
    W = np.eye(2)
    with pytest.raises(IllConditionedError, match="residual"):
        solve_lyapunov(A, W, strategy="diagonalized")
    caplog.clear()
    for X, X_oracle in (
        (solve_lyapunov(A, W), kron_lyapunov_oracle(A, W)),
        (solve_lyapunov_transposed(A, W), kron_lyapunov_oracle(A.T, W)),
    ):
        assert np.linalg.norm(X - X_oracle, "fro") <= 1e-10 * np.linalg.norm(X_oracle, "fro")
    messages = _dense_fallbacks(caplog)
    assert len(messages) == 2 and all("residual" in m for m in messages)


def test_well_conditioned_solves_do_not_fall_back(caplog):
    caplog.set_level(logging.DEBUG, logger="klap.linalg")
    rng = np.random.default_rng(4)
    A = random_hurwitz(rng, 12)
    solve_lyapunov(A, random_sym(rng, 12))
    solve_lyapunov_transposed(A, random_sym(rng, 12))
    assert _dense_fallbacks(caplog) == []


# ---------------------------------------------------------------------------
# the per-basis kernel behind the public solvers and the optimizer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["auto", "diagonalized", "dense"])
def test_kernel_matches_oracle_in_both_orientations(strategy):
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        A = random_hurwitz(rng, n)
        kernel = _LyapunovKernel(A, spectral_decompose(A), strategy)
        for _ in range(3):  # one kernel, many right-hand sides
            W = random_sym(rng, n)
            X_oracle = kron_lyapunov_oracle(A, W)
            Xt_oracle = kron_lyapunov_oracle(A.T, W)
            X, Xt = kernel.solve(W, False), kernel.solve(W, True)
            assert np.array_equal(X, X.T) and np.array_equal(Xt, Xt.T)
            assert np.linalg.norm(X - X_oracle) <= 1e-9 * (1.0 + np.linalg.norm(X_oracle))
            assert np.linalg.norm(Xt - Xt_oracle) <= 1e-9 * (1.0 + np.linalg.norm(Xt_oracle))


def test_kernel_solves_equal_the_public_solvers_bit_for_bit():
    rng = np.random.default_rng(29)
    A = random_hurwitz(rng, 9)
    d = spectral_decompose(A)
    kernel = _LyapunovKernel(A, d)
    W = random_sym(rng, 9)
    assert np.array_equal(kernel.solve(W, False), solve_lyapunov(A, W, decomp=d))
    assert np.array_equal(kernel.solve(W, True), solve_lyapunov_transposed(A, W, decomp=d))


def test_kernel_checks_strategy_and_operator_once_when_built():
    with pytest.raises(ValueError, match="strategy"):
        _LyapunovKernel(-np.eye(2), None, "schur")
    with pytest.raises(SingularOperatorError):
        _LyapunovKernel(np.diag([-1.0, 1.0]), None, "auto")
    with pytest.raises(IllConditionedError):
        _LyapunovKernel(np.array([[-1.0, 1e9], [0.0, -2.0]]), None, "diagonalized")
    with pytest.raises(DefectiveMatrixError):
        _LyapunovKernel(np.array([[-1.0, 1.0], [0.0, -1.0]]), None, "diagonalized")


def test_overflowing_solution_is_returned_by_the_kernel_and_rejected_publicly():
    # X = 1e300 / 2e-10 overflows: the kernel hands the non-finite solution
    # to its caller instead of trying the dense solve; the public boundary
    # raises
    A = -1e-10 * np.eye(2)
    W = 1e300 * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        X = _LyapunovKernel(A, None, "auto").solve(W, False)
        assert not np.isfinite(X).all()
        with pytest.raises(SingularOperatorError, match="overflows"):
            solve_lyapunov(A, W)


def test_dense_solve_rejects_a_rescaled_solution_of_an_overflowing_equation():
    # SciPy's Bartels-Stewart scales X down to avoid the overflow and returns
    # a finite 5e-291 I; ||W|| and its residual bound both overflow, so the
    # residual test repeats on scaled copies, where it fails
    A = -1e-10 * np.eye(2)
    W = 1e300 * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        for solve in (solve_lyapunov, solve_lyapunov_transposed):
            with pytest.raises(SingularOperatorError):
                solve(A, W, strategy="dense")


def test_residual_test_is_scale_invariant_where_norms_overflow():
    # W = 1e200 W0 overflows ||W||^2 but the equation does not: the dense
    # solution passes the residual test on scaled copies and equals 1e200
    # times that of W0 to rounding
    rng = np.random.default_rng(5)
    A = random_hurwitz(rng, 6)
    W0 = random_sym(rng, 6)
    with np.errstate(over="ignore"):
        X = solve_lyapunov(A, 1e200 * W0, strategy="dense")
    X0 = solve_lyapunov(A, W0, strategy="dense")
    assert np.linalg.norm(X / 1e200 - X0) <= 1e-12 * np.linalg.norm(X0)


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def test_spectral_decompose_diagonal_matrix():
    d = spectral_decompose(np.diag([-1.0, -3.0]))
    assert_allclose(sorted(d.eigenvalues.real), [-3.0, -1.0])
    assert d.condition_estimate == pytest.approx(1.0, abs=1e-12)


def test_spectral_decompose_reconstruction():
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = random_hurwitz(rng, 9)
        d = spectral_decompose(A)
        rec = (d.right_vectors * d.eigenvalues) @ d.inverse_vectors
        assert np.linalg.norm(rec - A) <= 1e-10 * d.condition_estimate * np.linalg.norm(A)
        assert_allclose(
            d.right_vectors @ d.inverse_vectors, np.eye(9), atol=1e-10 * d.condition_estimate
        )


def test_spectral_decompose_defective_matrix_raises():
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_max_real_part_examples():
    assert max_real_part(np.array([[1.0, 4.0], [2.0, -1.0]])) == pytest.approx(3.0, abs=1e-12)
    # complex pair: -1 +/- 2*sqrt(2) i
    assert max_real_part(np.array([[-1.0, 4.0], [-2.0, -1.0]])) == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# symmetric PSD square root
# ---------------------------------------------------------------------------


def test_sqrtm_psd_diagonal():
    assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_sqrtm_psd_rank_deficient():
    S = np.array([[1.0, 1.0], [1.0, 1.0]])
    M = sqrtm_psd(S)
    assert_allclose(M @ M.T, S, atol=1e-12)
    assert_allclose(M, S / np.sqrt(2.0), atol=1e-12)


def test_sqrtm_psd_random_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        G = rng.standard_normal((n, n))
        S = G @ G.T
        M = sqrtm_psd(S)
        assert np.array_equal(M, M.T)
        assert_allclose(M @ M.T, S, atol=1e-10 * max(1.0, np.linalg.norm(S)))
        assert np.linalg.eigvalsh(M).min() >= -1e-12 * max(1.0, np.linalg.norm(M))


def test_sqrtm_psd_tiny_negative_eigenvalue_clamped():
    S = np.diag([1.0, -1e-14])
    M = sqrtm_psd(S)
    assert M[1, 1] == 0.0


def test_sqrtm_psd_indefinite_rejected():
    with pytest.raises(NotPsdError):
        sqrtm_psd(np.diag([1.0, -0.5]))
