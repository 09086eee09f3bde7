"""Tests for state-space containers and frequency-domain utilities.

The squared H2 distance is cross-checked against an independent
trapezoidal frequency-quadrature oracle, and the Gramian solves against
hand-derived closed forms.
"""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klap.exceptions import DefectiveMatrixError, DimensionMismatchError, NotHurwitzError
from klap.linalg import DIAG_COND_LIMIT, spectral_decompose
from klap.system import (
    StateSpaceSystem,
    controllability_gramian,
    default_popov_grid,
    h2_error_sq,
    popov_eval,
    popov_scan,
    transfer_eval,
)

from oracles import kron_lyapunov_oracle


def toy_system(d=0.0):
    return StateSpaceSystem(
        [[-1.0, 4.0], [-2.0, -1.0]], [[1.0], [2.0]], [[1.0, 0.0]], [[d]]
    )


def acc_system(d=0.0):
    A = [[-0.25, 1, 0, 0], [0, -0.25, 1, 0], [0, 0, -0.25, 1], [0, 0, -2, -0.25]]
    return StateSpaceSystem(A, [[0.0], [0], [0], [1]], [[1.0, 0, 0, 0]], [[d]])


def random_system(rng, n, m, d_scale=0.0):
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5 + rng.uniform(0, 1)) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    D = d_scale * rng.standard_normal((m, m))
    return StateSpaceSystem(A, B, C, D)


def rand_family_system(n, m, seed):
    """The random family "rand n x m / seed" of the benchmark workloads."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    return StateSpaceSystem(A, B, C, 0.05 * np.eye(m))


def popov_min_oracle(sys, grid):
    """Independent per-frequency reference: one direct solve per point."""
    return np.array([np.linalg.eigvalsh(popov_eval(sys, w)).min() for w in grid])


def h2_error_sq_quadrature(sys, C_hat, points=20000):
    """Independent oracle: (1/pi) * integral over [0, inf) of
    ||G(iw) - Ghat(iw)||_F^2 dw by trapezoid on a wide log grid.

    Valid because the difference system is strictly proper (same D) and
    its frequency response is conjugate-even in w.
    """
    other = sys.with_output(C_hat)
    rho = max(1.0, np.abs(np.linalg.eigvals(sys.A)).max())
    w = np.geomspace(1e-6 * rho, 1e6 * rho, points)
    vals = np.array(
        [
            np.linalg.norm(transfer_eval(sys, 1j * f) - transfer_eval(other, 1j * f), "fro") ** 2
            for f in w
        ]
    )
    integral = np.trapezoid(vals, w)
    # leading segment [0, w_min] (integrand is smooth and even at 0)
    d0 = np.linalg.norm(transfer_eval(sys, 0.0) - transfer_eval(other, 0.0), "fro") ** 2
    integral += 0.5 * (d0 + vals[0]) * w[0]
    return integral / np.pi


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_dimensions_and_properties():
    sys = toy_system()
    assert (sys.n, sys.m) == (2, 1)
    assert sys.A.shape == (2, 2) and sys.B.shape == (2, 1)
    assert sys.C.shape == (1, 2) and sys.D.shape == (1, 1)


def test_matrices_are_read_only():
    sys = toy_system()
    with pytest.raises(ValueError):
        sys.A[0, 0] = 5.0


def test_not_hurwitz_rejected():
    with pytest.raises(NotHurwitzError):
        StateSpaceSystem([[0.0, 1.0], [0.0, 0.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    with pytest.raises(NotHurwitzError):
        StateSpaceSystem([[1e-9]], [[1.0]], [[1.0]], [[0.0]])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        StateSpaceSystem([[-1.0, 0.0], [0.0, -1.0]], [[1.0]], [[1.0, 0.0]], [[0.0]])
    with pytest.raises(DimensionMismatchError):
        # more outputs than states
        StateSpaceSystem([[-1.0]], [[1.0, 2.0]], [[1.0], [0.0]], np.zeros((2, 2)))


def test_with_output_shares_dynamics():
    sys = toy_system()
    other = sys.with_output([[0.0, 1.0]])
    assert_allclose(other.A, sys.A)
    assert_allclose(other.C, [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# transfer and Popov evaluation
# ---------------------------------------------------------------------------


def test_transfer_at_zero_toy():
    # G(0) = C (-A)^{-1} B = 1 by direct 2x2 inversion
    assert_allclose(transfer_eval(toy_system(), 0.0), [[1.0]], atol=1e-14)
    assert_allclose(transfer_eval(toy_system(0.125), 0.0), [[1.125]], atol=1e-14)


def test_transfer_tends_to_feedthrough():
    sys = toy_system(0.125)
    G = transfer_eval(sys, 1e12)
    assert abs(G[0, 0] - 0.125) <= 1e-9


def test_popov_of_pure_feedthrough():
    sys = StateSpaceSystem([[-1.0]], [[1.0]], [[0.0]], [[0.5]])
    for w in (0.0, 1.0, 100.0):
        assert_allclose(popov_eval(sys, w), [[1.0]], atol=1e-15)


def test_popov_value_at_zero():
    # Phi(0) = 2 * G(0) for a SISO system
    assert_allclose(popov_eval(toy_system(0.125), 0.0), [[2.25]], atol=1e-13)


def test_popov_is_exactly_hermitian():
    rng = np.random.default_rng(2)
    sys = random_system(rng, 6, 2, d_scale=0.3)
    for w in (0.0, 0.7, 13.0):
        Phi = popov_eval(sys, w)
        assert np.array_equal(Phi, Phi.conj().T)


def test_default_grid_shape_and_span():
    sys = toy_system()
    w = default_popov_grid(sys)
    rho = 3.0  # |eig(A)| = |-1 +/- 2 sqrt(2) i| = 3
    assert w.size == 501 and w[0] == 0.0
    assert w[1] == pytest.approx(1e-4 * rho) and w[-1] == pytest.approx(1e4 * rho)


def test_popov_scan_toy_frozen_values():
    # Frozen from an independent dense evaluation of the Popov function on
    # the default grid (min at the resonance near w = 4.42).
    scan = popov_scan(toy_system())
    assert scan.global_min == pytest.approx(-0.589481, abs=2e-4)
    assert scan.argmin_frequency == pytest.approx(4.4204, rel=1e-3)
    scan8 = popov_scan(toy_system(0.125))
    assert scan8.global_min == pytest.approx(-0.339481, abs=2e-4)


def test_popov_scan_acc_frozen_values():
    scan = popov_scan(acc_system(0.125))
    assert scan.global_min == pytest.approx(-2.276242, abs=1e-3)
    assert scan.argmin_frequency == pytest.approx(0.432668, rel=1e-3)


def test_feedthrough_shift_moves_popov_uniformly():
    # Phi_{D + dI}(iw) = Phi_D(iw) + 2 d I, so all grid minima shift by 2d.
    s0 = popov_scan(toy_system(0.0))
    s8 = popov_scan(toy_system(0.125), grid=s0.frequencies)
    assert_allclose(s8.min_eigenvalues, s0.min_eigenvalues + 0.25, atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        lambda: toy_system(0.125),
        lambda: rand_family_system(6, 1, 2),
        lambda: rand_family_system(16, 2, 6),
        lambda: rand_family_system(64, 4, 2),
    ],
    ids=["toy", "rand-6x1", "rand-16x2", "rand-64x4"],
)
def test_popov_scan_matches_per_frequency_oracle(make):
    sys = make()
    assert spectral_decompose(sys.A).condition_estimate <= DIAG_COND_LIMIT
    scan = popov_scan(sys)
    oracle = popov_min_oracle(sys, scan.frequencies)
    scale = max(1.0, float(np.abs(oracle).max()))
    assert np.abs(scan.min_eigenvalues - oracle).max() <= 1e-10 * scale
    # the minimum is decided by the direct solve, bit for bit
    k = int(np.flatnonzero(scan.frequencies == scan.argmin_frequency)[0])
    assert scan.global_min == oracle[k]
    assert scan.min_eigenvalues[k] == oracle[k]


def test_popov_scan_defective_falls_back_to_exact_solves():
    # acc's A has a Jordan block, so it has no eigenbasis
    sys = acc_system(0.125)
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(sys.A)
    scan = popov_scan(sys)
    assert np.array_equal(scan.min_eigenvalues, popov_min_oracle(sys, scan.frequencies))


def nearly_defective_system(delta, seed, n=8, m=2):
    """2 x 2 blocks ``[[a, 1], [0, a - delta]]`` in a random orthogonal
    basis: eigenvector condition about ``2 / delta``."""
    rng = np.random.default_rng(seed)
    A0 = np.zeros((n, n))
    for k in range(0, n, 2):
        a = -rng.uniform(0.2, 2.0)
        A0[k:k + 2, k:k + 2] = [[a, 1.0], [0.0, a - delta]]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    return StateSpaceSystem(Q @ A0 @ Q.T, B, C, 0.05 * np.eye(m))


@pytest.mark.parametrize("delta", [1e-5, 1e-7])
def test_popov_scan_ill_conditioned_basis_decides_minimum_directly(delta):
    from klap.system import _popov_mins_modal

    sys = nearly_defective_system(delta, seed=3)
    decomp = spectral_decompose(sys.A)
    assert 1e5 <= decomp.condition_estimate <= DIAG_COND_LIMIT
    scan = popov_scan(sys)
    oracle = popov_min_oracle(sys, scan.frequencies)
    # the modal values deviate by more than on well-conditioned systems,
    # but stay within half their error estimates
    modal, err = _popov_mins_modal(
        sys, decomp, decomp.inverse_vectors @ sys.B, scan.frequencies
    )
    assert np.all(np.abs(modal - oracle) <= 0.5 * err)
    # minimum and argmin are those of the direct solves, bit for bit
    assert scan.global_min == oracle.min()
    assert scan.argmin_frequency == scan.frequencies[oracle.argmin()]
    assert scan.min_eigenvalues.min() == scan.global_min


def test_derived_systems_share_the_eigenbasis(monkeypatch):
    import klap.linalg as mod

    calls = []
    orig = mod.spectral_decompose

    def counting(A, *args, **kwargs):
        calls.append(A)
        return orig(A, *args, **kwargs)

    monkeypatch.setattr(mod, "spectral_decompose", counting)
    sys = rand_family_system(6, 1, 2)
    derived = [sys.with_output(np.ones((1, 6))), sys.with_feedthrough([[1.0]])]
    for s in [sys, *derived, sys]:
        popov_scan(s)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Gramian and H2 distance
# ---------------------------------------------------------------------------


def test_gramian_and_h2_use_the_system_kernel(monkeypatch):
    import klap.linalg as mod

    sys = rand_family_system(6, 1, 2)
    decomp, _ = sys._modes()
    calls = []
    orig = mod.spectral_decompose

    def counting(A, *args, **kwargs):
        calls.append(A)
        return orig(A, *args, **kwargs)

    monkeypatch.setattr(mod, "spectral_decompose", counting)
    P = controllability_gramian(sys)
    h2_error_sq(sys, np.ones((1, 6)))
    h2_error_sq(sys.with_output(np.ones((1, 6))), sys.C)
    assert calls == []
    # the same solve as the public solver on the cached basis, bit for bit
    assert np.array_equal(P, mod.solve_lyapunov(sys.A, sys.B @ sys.B.T, decomp=decomp))


@pytest.mark.parametrize(
    "make, reason",
    [(lambda: nearly_defective_system(1e-10, seed=3), "uses the dense solve"),
     (acc_system, "no eigenbasis of A")],
    ids=["ill-conditioned", "defective"],
)
def test_system_kernel_logs_its_dense_route_once(make, reason, caplog):
    caplog.set_level(logging.DEBUG, logger="klap")
    sys = make()
    for s in (sys, sys, sys.with_output(np.zeros((sys.m, sys.n)))):
        controllability_gramian(s)
        h2_error_sq(s, np.zeros((s.m, s.n)))
    P_dense = controllability_gramian(sys, strategy="dense")
    assert np.array_equal(controllability_gramian(sys), P_dense)
    assert sum(reason in r.getMessage() for r in caplog.records) == 1


def test_gramian_scalar_closed_form():
    # a = -3, b = 2: P = b^2 / (2|a|) = 2/3
    sys = StateSpaceSystem([[-3.0]], [[2.0]], [[1.0]], [[0.0]])
    assert_allclose(controllability_gramian(sys), [[2.0 / 3.0]], atol=1e-14)


def test_gramian_toy_hand_derived():
    # Solving A P + P A^T + B B^T = 0 by hand for the toy system gives
    # P = [[2.5, 0.5], [0.5, 1.0]].
    P = controllability_gramian(toy_system())
    assert_allclose(P, [[2.5, 0.5], [0.5, 1.0]], atol=1e-12)


def test_gramian_matches_oracle_and_is_psd():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sys = random_system(rng, int(rng.integers(2, 12)), int(rng.integers(1, 4)))
        P = controllability_gramian(sys)
        P_oracle = kron_lyapunov_oracle(sys.A, sys.B @ sys.B.T)
        assert_allclose(P, P_oracle, atol=1e-9 * (1 + np.linalg.norm(P_oracle)))
        assert np.linalg.eigvalsh(P).min() >= -1e-10 * max(1.0, np.linalg.norm(P))


def test_h2_error_zero_for_same_output():
    sys = toy_system()
    assert h2_error_sq(sys, sys.C) == pytest.approx(0.0, abs=1e-15)


def test_h2_error_toy_closed_form():
    # E = C - C_hat = [0.5, -0.75]; J = E P E^T with the hand-derived P.
    sys = toy_system()
    J = h2_error_sq(sys, [[0.5, 0.75]])
    expected = 2.5 * 0.25 + 2 * 0.5 * (0.5 * -0.75) + 1.0 * 0.5625
    assert J == pytest.approx(expected, abs=1e-12)


def test_h2_error_matches_quadrature_oracle():
    sys = toy_system()
    C_hat = np.array([[6.0 / 13.0, 21.0 / 26.0]])
    J = h2_error_sq(sys, C_hat)
    J_quad = h2_error_sq_quadrature(sys, C_hat)
    assert J == pytest.approx(J_quad, rel=1e-3)
    # frozen reference value for this output map: 49/52
    assert J == pytest.approx(49.0 / 52.0, abs=1e-12)


def test_h2_error_quadrature_random_systems():
    rng = np.random.default_rng(77)
    for _ in range(5):
        sys = random_system(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)))
        C_hat = rng.standard_normal(sys.C.shape)
        assert h2_error_sq(sys, C_hat) == pytest.approx(
            h2_error_sq_quadrature(sys, C_hat), rel=1e-3
        )


def test_h2_error_invariant_under_similarity():
    rng = np.random.default_rng(14)
    sys = random_system(rng, 5, 2)
    C_hat = rng.standard_normal(sys.C.shape)
    T = rng.standard_normal((5, 5)) + 3 * np.eye(5)
    Tinv = np.linalg.inv(T)
    sys_t = StateSpaceSystem(T @ sys.A @ Tinv, T @ sys.B, sys.C @ Tinv, sys.D)
    assert h2_error_sq(sys, C_hat) == pytest.approx(
        h2_error_sq(sys_t, C_hat @ Tinv), rel=1e-9
    )


def test_gramian_similarity_transform_law():
    # P transforms congruently: P_T = T P T^T.
    rng = np.random.default_rng(15)
    sys = random_system(rng, 4, 1)
    T = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    sys_t = StateSpaceSystem(T @ sys.A @ np.linalg.inv(T), T @ sys.B, sys.C @ np.linalg.inv(T), sys.D)
    P = controllability_gramian(sys)
    Pt = controllability_gramian(sys_t)
    assert_allclose(Pt, T @ P @ T.T, atol=1e-9 * (1 + np.linalg.norm(Pt)))
