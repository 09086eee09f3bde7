"""Tests for the passivation optimizer.

The analytic gradient is cross-checked against a central finite-difference
oracle of the objective; the output-map parameterization against
hand-derived closed forms; and the full driver against the frozen
benchmark values of the two reference systems.
"""

import json
import logging
import math
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from klap.exceptions import DimensionMismatchError, SingularOperatorError
from klap.linalg import sqrtm_psd
from klap.optimizer import (
    Initialization,
    KlapConfig,
    LurePoint,
    c_of_l,
    initialize,
    klap,
    lbfgs_minimize,
    objective_and_gradient,
    restart_step,
)
from klap.passivity import check_passive, global_min_certificate
from klap.system import StateSpaceSystem, controllability_gramian, h2_error_sq, popov_scan

from oracles import lure_point, original_coordinates, rand_family_system, random_start


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
    if d_scale:
        M0 = d_scale * rng.standard_normal((m, m))
        D = 0.5 * (M0 @ M0.T) + 0.05 * d_scale**2 * np.eye(m)
    else:
        D = np.zeros((m, m))
    return StateSpaceSystem(A, B, C, D)


def random_passive_system(rng, n, m, margin=0.25):
    from klap.linalg import solve_lyapunov_transposed

    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5 + rng.uniform(0, 1)) * np.eye(n)
    B = rng.standard_normal((n, m))
    L = rng.standard_normal((n, m))
    M0 = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    X = solve_lyapunov_transposed(A, L @ L.T)
    C = B.T @ X + M0 @ L.T
    D = 0.5 * (M0 @ M0.T) + margin * np.eye(m)
    return StateSpaceSystem(A, B, C, D)


def fd_gradient(sys, P, point, h=None):
    """Central finite differences of the objective in each entry of L."""
    L = point.L
    if h is None:
        h = 1e-6 * (1.0 + np.linalg.norm(L, "fro"))
    grad = np.zeros_like(L)
    for i in range(L.shape[0]):
        for j in range(L.shape[1]):
            Lp, Lm = L.copy(), L.copy()
            Lp[i, j] += h
            Lm[i, j] -= h
            Jp = objective_and_gradient(sys, P, LurePoint(Lp, point.M)).J
            Jm = objective_and_gradient(sys, P, LurePoint(Lm, point.M)).J
            grad[i, j] = (Jp - Jm) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# LurePoint and the output-map parameterization
# ---------------------------------------------------------------------------


def test_lure_point_validation():
    with pytest.raises(DimensionMismatchError):
        LurePoint(np.ones((3, 2)), np.ones((3, 3)))
    point = lure_point(toy_system(0.125), np.zeros((2, 1)))
    assert_allclose(point.M, [[0.5]], atol=1e-14)
    # M M^T reproduces D + D^T
    sys = random_passive_system(np.random.default_rng(0), 4, 2)
    point = lure_point(sys, np.zeros((4, 2)))
    assert_allclose(point.M @ point.M.T, sys.D + sys.D.T, atol=1e-12)


def test_c_of_l_zero_factor():
    sys = toy_system(0.125)
    assert_allclose(c_of_l(sys, lure_point(sys, np.zeros((2, 1)))), 0.0)


def test_c_of_l_toy_frozen_values():
    # M = 0 reference point: the known optimizer of the feedthrough-free toy
    sys = toy_system(0.0)
    C_hat = c_of_l(sys, LurePoint(np.array([[0.96], [-0.48]]), np.zeros((1, 1))))
    assert_allclose(C_hat, [[0.46, 0.80]], atol=0.01)
    # hand-derived exact value for this factor
    assert_allclose(C_hat, [[0.4608, 0.8064]], atol=1e-12)


def test_c_of_l_toy_local_point():
    # solving the Lyapunov equation by hand at L = [-1, 0], M = 1/2 gives
    # X = [[5/18, 1/9], [1/9, 4/9]] and C_hat = [0, 1]
    sys = toy_system(0.125)
    C_hat = c_of_l(sys, LurePoint(np.array([[-1.0], [0.0]]), [[0.5]]))
    assert_allclose(C_hat, [[0.0, 1.0]], atol=1e-12)


def test_c_of_l_shape_mismatch():
    sys = toy_system(0.125)
    with pytest.raises(DimensionMismatchError):
        c_of_l(sys, LurePoint(np.ones((3, 1)), [[0.5]]))


@pytest.mark.parametrize("scale", [1e153, 1e200])
def test_c_of_l_raises_where_the_solution_overflows(scale):
    # 1e153: L L^T = 1e306 is finite but X = 1e306 / 2e-3 is not;
    # 1e200: L L^T itself overflows
    sys = StateSpaceSystem([[-1e-3]], [[1.0]], [[1.0]], [[0.5]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularOperatorError, match="overflows"):
            c_of_l(sys, lure_point(sys, [[scale]]))


def test_feasibility_by_construction():
    # every factor maps to a passive system, at any scale, with or without
    # feedthrough
    rng = np.random.default_rng(11)
    systems = [
        toy_system(0.0),
        toy_system(0.125),
        random_system(rng, 5, 2, d_scale=1.0),
        random_system(rng, 4, 1),
    ]
    count = 0
    for scale in (0.1, 1.0, 10.0):
        for _ in range(9):
            for sys in systems:
                M = sqrtm_psd(sys.D + sys.D.T)
                L = scale * rng.standard_normal((sys.n, sys.m))
                candidate = sys.with_output(c_of_l(sys, LurePoint(L, M)))
                verdict = check_passive(candidate)
                assert verdict.passive, f"not passive at scale {scale}"
                count += 1
    assert count >= 100


def test_sign_invariance_without_feedthrough():
    sys = toy_system(0.0)
    rng = np.random.default_rng(12)
    L = rng.standard_normal((2, 1))
    M = np.zeros((1, 1))
    assert_array_equal(
        c_of_l(sys, LurePoint(L, M)), c_of_l(sys, LurePoint(-L, M))
    )


def test_orthogonal_invariance_without_feedthrough():
    rng = np.random.default_rng(13)
    sys = random_system(rng, 6, 3)
    P = controllability_gramian(sys)
    M = np.zeros((3, 3))
    for _ in range(5):
        L = rng.standard_normal((6, 3))
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        C1 = c_of_l(sys, LurePoint(L, M))
        C2 = c_of_l(sys, LurePoint(L @ U, M))
        assert np.linalg.norm(C1 - C2, "fro") <= 1e-10 * np.linalg.norm(C1, "fro")
        J1 = objective_and_gradient(sys, P, LurePoint(L, M)).J
        J2 = objective_and_gradient(sys, P, LurePoint(L @ U, M)).J
        assert abs(J1 - J2) <= 1e-12 * max(1.0, abs(J1))


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------


def test_gradient_zero_at_origin_without_feedthrough():
    sys = toy_system(0.0)
    P = controllability_gramian(sys)
    ev = objective_and_gradient(sys, P, LurePoint(np.zeros((2, 1)), np.zeros((1, 1))))
    assert_array_equal(ev.grad, np.zeros((2, 1)))
    assert ev.J == pytest.approx((sys.C @ P @ sys.C.T).item(), rel=1e-14)


def test_objective_value_consistency():
    rng = np.random.default_rng(14)
    sys = random_system(rng, 5, 2, d_scale=0.7)
    P = controllability_gramian(sys)
    point = lure_point(sys, rng.standard_normal((5, 2)))
    ev = objective_and_gradient(sys, P, point)
    assert ev.J == pytest.approx(h2_error_sq(sys, ev.C_hat, P=P), rel=1e-12)
    assert ev.C_hat == pytest.approx(c_of_l(sys, point))
    assert_allclose(ev.X, ev.X.T, atol=1e-14 * (1 + np.linalg.norm(ev.X)))
    assert_allclose(ev.X_grad, ev.X_grad.T, atol=1e-12 * (1 + np.linalg.norm(ev.X_grad)))


def test_objective_toy_near_optimum():
    # [0.96, -0.48] is the optimizer rounded to two decimals; the exact
    # gradient norm at the rounded point is 1.0368e-2
    sys = toy_system(0.0)
    P = controllability_gramian(sys)
    ev = objective_and_gradient(
        sys, P, LurePoint(np.array([[0.96], [-0.48]]), np.zeros((1, 1)))
    )
    assert ev.J == pytest.approx(0.94, abs=0.01)
    assert np.linalg.norm(ev.grad) <= 2e-2
    # refining from here barely moves the value: the point is near-stationary
    refined = lbfgs_minimize(*original_coordinates(sys, P, np.zeros((1, 1))),
                             np.array([[0.96], [-0.48]]))
    assert abs(refined.value - ev.J) <= 5e-6 * ev.J


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    for k in range(20):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        with_feedthrough = k % 2 == 0
        sys = random_system(rng, n, m, d_scale=0.8 if with_feedthrough else 0.0)
        P = controllability_gramian(sys)
        point = lure_point(sys, rng.standard_normal((n, m)))
        ev = objective_and_gradient(sys, P, point)
        fd = fd_gradient(sys, P, point)
        err = np.linalg.norm(ev.grad - fd, "fro") / max(1.0, np.linalg.norm(fd, "fro"))
        assert err <= 1e-5, f"instance {k}: relative gradient error {err:.2e}"


def test_exactly_two_lyapunov_solves_per_evaluation(monkeypatch):
    # every solve of an evaluation goes through the per-basis kernel:
    # exactly one standard and one transposed solve for a single
    # objective_and_gradient call; in an L-BFGS run one transposed solve
    # per value (the start and every line-search trial) and one standard
    # solve per gradient (the start and every accepted step)
    import klap.linalg as linalg_mod
    import klap.optimizer as mod

    calls = {"standard": 0, "transposed": 0}
    values = gradients = 0
    orig_solve = linalg_mod._LyapunovKernel.solve
    orig_value, orig_gradient = mod._Objective.value, mod._Objective.gradient

    def count_solve(self, W, transposed):
        calls["transposed" if transposed else "standard"] += 1
        return orig_solve(self, W, transposed)

    def count_value(self, L):
        nonlocal values
        values += 1
        return orig_value(self, L)

    def count_gradient(self, state):
        nonlocal gradients
        gradients += 1
        return orig_gradient(self, state)

    monkeypatch.setattr(linalg_mod._LyapunovKernel, "solve", count_solve)
    monkeypatch.setattr(mod._Objective, "value", count_value)
    monkeypatch.setattr(mod._Objective, "gradient", count_gradient)
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    calls.update(standard=0, transposed=0)
    objective_and_gradient(sys, P, lure_point(sys, np.ones((2, 1))))
    assert calls == {"standard": 1, "transposed": 1}
    assert values == gradients == 1

    sys = acc_system(0.125)  # its line search rejects trials from this start
    P = controllability_gramian(sys)
    calls.update(standard=0, transposed=0)
    values = gradients = 0
    run = lbfgs_minimize(*original_coordinates(sys, P, [[0.5]]),
                         np.random.default_rng(1).standard_normal((4, 1)))
    assert gradients == run.iterations + 1
    assert values > gradients
    assert calls == {"standard": gradients, "transposed": values}


def test_dense_kernel_factors_each_orientation_once(monkeypatch):
    # acc's A is defective, so its kernel solves densely: the Gramian
    # (standard orientation) factors A, the first value (transposed) A^T,
    # and every later solve of the run reuses those two Schur forms
    import klap.linalg as linalg_mod

    factored = []
    orig = linalg_mod._real_schur

    def counting(a):
        factored.append(a.copy())
        return orig(a)

    monkeypatch.setattr(linalg_mod, "_real_schur", counting)
    sys = acc_system(0.125)
    assert not sys._lyapunov().diagonal
    P = controllability_gramian(sys)
    run = lbfgs_minimize(*original_coordinates(sys, P, [[0.5]]),
                         np.random.default_rng(1).standard_normal((4, 1)))
    assert run.iterations >= 10
    assert len(factored) == 2
    assert np.array_equal(factored[0], sys.A) and np.array_equal(factored[1], sys.A.T)


@pytest.mark.parametrize(
    "sys, diagonal",
    [(rand_family_system(8, 2, 4), True), (acc_system(0.125), False)],
    ids=["rand-8x2/4-diagonal", "acc-dense"],
)
def test_lbfgs_first_trace_entry_equals_objective_and_gradient(sys, diagonal):
    # where the system's kernel solves in the cached eigenbasis (rand) the
    # run evaluates modally, which equals objective_and_gradient to
    # rounding; where A has none (acc is defective) both solve densely
    # through the system's own kernel, bit for bit.  klap()'s frame picks
    # the same evaluation, in its own coordinates
    import klap.optimizer as mod

    assert (sys._lyapunov().V is not None) == diagonal
    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    assert isinstance(mod._Frame(sys, P, M).objective, mod._ModalObjective) == diagonal
    L0 = np.random.default_rng(1).standard_normal((sys.n, sys.m))
    ev = objective_and_gradient(sys, P, LurePoint(L0, M))
    objective, H0 = original_coordinates(sys, P, M)
    assert isinstance(objective, mod._ModalObjective) == diagonal
    J, state = objective.value(L0)
    grad = objective.gradient(state)[0]
    run = lbfgs_minimize(objective, H0, L0, KlapConfig(max_iterations=3))
    J0, g0 = run.trace[0]
    assert J0 == J
    assert g0 == float(np.linalg.norm(grad))
    assert J0 == pytest.approx(ev.J, rel=1e-12, abs=0.0)
    assert_allclose(grad, ev.grad, rtol=0.0, atol=1e-12 * np.linalg.norm(ev.grad))
    if not diagonal:
        assert J0 == ev.J
        assert g0 == float(np.linalg.norm(ev.grad))


@pytest.mark.parametrize(
    "sys, L0",
    [
        (rand_family_system(8, 2, 4), None),
        (acc_system(0.125), None),
        (toy_system(0.125), np.array([[-2.0], [0.0]])),
    ],
    ids=["rand-8x2/4-diagonal", "acc/d=0.125-dense", "toy-m1/l0=-2,0"],
)
def test_lbfgs_matches_the_eager_oracle_bit_for_bit(sys, L0):
    # the gradient is evaluated only at accepted steps; a rejected trial's
    # gradient was never used, so the run is the eager loop's, bit for bit,
    # preconditioner included: klap()'s first round, in the coordinates of
    # its frame, against the oracle's metric built from the Gramian in
    # those coordinates.  The default objective tolerance, 1e-14, makes the
    # runs stop near stationarity.
    import klap.optimizer as mod
    from oracles import eager_lbfgs

    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    if L0 is None:
        L0 = initialize(sys).L0
    frame = mod._Frame(sys, P, M)
    L0 = frame.to_run(L0)
    P_run = P if frame.T is None else frame.T_inv.dot(P).dot(frame.T_inv.T)
    cfg = KlapConfig()
    run = lbfgs_minimize(frame.objective, frame.H0, L0, cfg)
    ref = eager_lbfgs(frame.objective, P_run, L0, cfg)
    assert run.iterations >= 10
    assert run.trace == ref.trace
    assert_array_equal(run.L, ref.L)
    assert (run.iterations, run.status) == (ref.iterations, ref.status)


def real_spectrum_system():
    """A 6 x 2 system whose A has distinct real eigenvalues -1, ..., -6 and
    a well-conditioned, real eigenbasis."""
    rng = np.random.default_rng(5)
    n, m = 6, 2
    T = np.triu(0.3 * rng.standard_normal((n, n)), 1) - np.diag(np.arange(1.0, n + 1))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return StateSpaceSystem(Q @ T @ Q.T, rng.standard_normal((n, m)),
                            rng.standard_normal((m, n)), 0.05 * np.eye(m))


@pytest.mark.parametrize(
    "sys, route",
    [
        (rand_family_system(8, 2, 4), "complex"),
        (real_spectrum_system(), "real"),
        (acc_system(0.125), "dense"),
    ],
    ids=["rand-8x2/4-complex-basis", "real-spectrum-real-basis", "acc/d=0.125-dense"],
)
def test_objective_matches_the_reference_evaluation_bit_for_bit(sys, route):
    # the evaluation's arithmetic itself, not only the trajectory: J, the
    # gradient and both Lyapunov solutions equal the plain expressions of
    # tests/oracles.py bit for bit on each kernel route, and where the
    # objective overflows both report it as infinite
    import klap.optimizer as mod
    from oracles import reference_objective

    lyap = sys._lyapunov()
    assert {"complex": lyap.diagonal and lyap.V.dtype.kind == "c",
            "real": lyap.diagonal and lyap.V.dtype.kind == "f",
            "dense": not lyap.diagonal}[route]
    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    rng = np.random.default_rng(7)
    for scale in (0.1, 1.0, 10.0):
        L = scale * rng.standard_normal((sys.n, sys.m))
        ev = objective_and_gradient(sys, P, LurePoint(L, M))
        J, grad, X, X_grad = reference_objective(sys, P, M, L)
        assert ev.J == J
        assert_array_equal(ev.grad, grad)
        assert_array_equal(ev.X, X)
        assert_array_equal(ev.X_grad, X_grad)
    objective = mod._Objective(sys, P, M, lyap)
    with np.errstate(over="ignore", invalid="ignore"):
        for scale in (1e100, 1e200):
            L = np.full((sys.n, sys.m), scale)
            assert objective.value(L) == (math.inf, None)
            assert reference_objective(sys, P, M, L) == (math.inf, None)


# the rand systems of the benchmark workloads (rand-small's passive 8x1/2
# included) and the bundled toy-m1
MODAL_SYSTEMS = [
    *(rand_family_system(*shape) for shape in [
        (6, 1, 2), (8, 1, 1), (8, 1, 2), (8, 2, 4), (8, 4, 3), (16, 1, 6),
        (64, 2, 1), (64, 4, 2), (128, 2, 3), (128, 4, 4)]),
    toy_system(0.125),
]
MODAL_IDS = ["rand-6x1/2", "rand-8x1/1", "rand-8x1/2", "rand-8x2/4", "rand-8x4/3",
             "rand-16x1/6", "rand-64x2/1", "rand-64x4/2", "rand-128x2/3", "rand-128x4/4",
             "toy-m1"]


@pytest.mark.parametrize("sys", MODAL_SYSTEMS, ids=MODAL_IDS)
def test_modal_objective_matches_objective_and_gradient(sys):
    # J and the gradient in the eigenbasis equal the two-solve evaluation
    # to 1e-12 relative, at factors of three scales
    import klap.optimizer as mod

    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    assert sys._lyapunov().diagonal
    objective = mod._ModalObjective(sys, M)
    rng = np.random.default_rng(3)
    for scale in (0.1, 1.0, 10.0):
        L = scale * rng.standard_normal((sys.n, sys.m))
        ev = objective_and_gradient(sys, P, LurePoint(L, M))
        J, state = objective.value(L)
        grad, X_grad = objective.gradient(state)
        assert X_grad is None
        assert J == pytest.approx(ev.J, rel=1e-12, abs=0.0)
        assert np.linalg.norm(grad - ev.grad) <= 1e-12 * np.linalg.norm(ev.grad)


@pytest.mark.parametrize("sys", MODAL_SYSTEMS, ids=MODAL_IDS)
def test_mapped_modal_objective_is_the_objective_of_t_transpose_l(sys):
    # on the basis T^{-1} V the modal objective is J(T^{-T} L') with the
    # gradient T^{-1} grad J: in the square-root-Gramian coordinates of
    # klap() to 1e-8 relative, the rounding of cond(T) = 1e4 at most
    import klap.optimizer as mod

    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    frame = mod._Frame(sys, P, M)
    T, mapped = frame.T, frame.objective
    original = mod._ModalObjective(sys, M)
    rng = np.random.default_rng(5)
    for scale in (0.1, 1.0, 10.0):
        L = scale * rng.standard_normal((sys.n, sys.m))
        J, state = original.value(L)
        J_mapped, state_mapped = mapped.value(T.T @ L)
        grad = original.gradient(state)[0]
        grad_mapped = mapped.gradient(state_mapped)[0]
        assert J_mapped == pytest.approx(J, rel=1e-8, abs=0.0)
        assert np.linalg.norm(T @ grad_mapped - grad) <= 1e-8 * np.linalg.norm(grad)


def test_preconditioned_and_plain_lbfgs_reach_the_same_J():
    # the Gramian metric changes the path, not the optimum: from the
    # Riccati start of rand 8x2/4, at the default objective tolerance
    # (1e-14), both oracle runs reach one J to 1e-8, the preconditioned
    # one in a small fraction of the iterations
    from oracles import eager_lbfgs

    sys = rand_family_system(8, 2, 4)
    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    L0 = initialize(sys).L0
    cfg = KlapConfig()
    objective, _ = original_coordinates(sys, P, M)
    preconditioned = eager_lbfgs(objective, P, L0, cfg)
    plain = eager_lbfgs(objective, P, L0, cfg, preconditioned=False)
    assert preconditioned.converged and plain.converged
    assert preconditioned.value == pytest.approx(plain.value, rel=1e-8, abs=0.0)
    assert 10 * preconditioned.iterations < plain.iterations


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_objective_is_infinite_where_it_overflows(scale):
    # 1e100: L L^T is finite but J overflows; 1e200: L L^T itself overflows
    import klap.optimizer as mod

    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    L = np.full((2, 1), scale)
    with np.errstate(over="ignore", invalid="ignore"):
        J, state = mod._Objective(sys, P, M, sys._lyapunov()).value(L)
        assert J == math.inf and state is None
        with pytest.raises(ValueError, match="not finite"):
            objective_and_gradient(sys, P, LurePoint(L, M))


def test_lbfgs_stops_when_the_line_search_fails(monkeypatch):
    # Every trial after the start reports a J above the starting one, so
    # all 45 step halvings fail the Armijo test: the run ends on the
    # "line-search" stop with the starting iterate and no accepted step.
    # The toy system has an eigenbasis, so the run evaluates modally.
    import klap.optimizer as mod

    orig_value = mod._ModalObjective.value
    values = []

    def every_trial_worse(self, L):
        J, state = orig_value(self, L)
        values.append(J)
        return (J if len(values) == 1 else values[0] + 1.0), state

    monkeypatch.setattr(mod._ModalObjective, "value", every_trial_worse)
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    L0 = np.array([[-2.0], [0.0]])
    run = lbfgs_minimize(*original_coordinates(sys, P, [[0.5]]), L0)
    assert run.status == "line-search"
    assert run.converged is False
    assert run.iterations == 0
    assert len(values) == 1 + 45
    assert_array_equal(run.L, L0)
    assert run.value == values[0]
    assert run.trace == ((values[0], run.gradient_norm),)


@pytest.mark.parametrize("grad_tol, status", [(1e-8, "line-search"), (5e-8, "objective-change")])
def test_lbfgs_step_that_leaves_j_bit_identical_is_converged_only_at_grad_tol(grad_tol, status):
    # toy-m1's round 0 from (-2, 0): its last accepted step leaves J = 2.5
    # bit for bit at ||grad J|| 3.8e-8, passing the Armijo test only because
    # f + 1e-4 t g.d rounds to f.  Above grad_tol that is a line search that
    # ran dry; at or below it the run has converged.  The eager oracle
    # stops the same way.
    import klap.optimizer as mod
    from oracles import eager_lbfgs

    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    frame = mod._Frame(sys, P, sqrtm_psd(sys.D + sys.D.T))
    L0 = frame.to_run(np.array([[-2.0], [0.0]]))
    cfg = KlapConfig(grad_tol=grad_tol)
    run = lbfgs_minimize(frame.objective, frame.H0, L0, cfg)
    assert (run.status, run.converged) == (status, status != "line-search")
    assert run.iterations == 11 and run.trace[-1][0] == run.trace[-2][0] == 2.5
    assert 1e-8 < run.gradient_norm < 5e-8
    ref = eager_lbfgs(frame.objective, frame.T_inv.dot(P).dot(frame.T_inv.T), L0, cfg)
    assert (ref.status, ref.converged, ref.trace) == (run.status, run.converged, run.trace)


def test_lbfgs_backs_off_from_a_non_finite_trial(monkeypatch):
    # The first line-search trial is moved out to 1e200 * L, where L L^T
    # overflows.  The evaluation reports J = inf, the line search halves
    # the step, and the run goes on: no exception, a finite best iterate.
    # The toy system has an eigenbasis, so the run evaluates modally.
    import klap.optimizer as mod

    orig_value = mod._ModalObjective.value
    values = []

    def first_trial_overflows(self, L):
        if len(values) == 1:
            L = 1e200 * L
        out = orig_value(self, L)
        values.append(out[0])
        return out

    monkeypatch.setattr(mod._ModalObjective, "value", first_trial_overflows)
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    with np.errstate(over="ignore", invalid="ignore"):
        run = lbfgs_minimize(*original_coordinates(sys, P, [[0.5]]), np.array([[-2.0], [0.0]]))
        assert values[1] == math.inf
        assert run.converged and math.isfinite(run.value)
        assert run.value < values[0]
        assert_allclose(run.L, [[-1.0], [0.0]], atol=0.01)

        values.clear()
        result = klap(sys)
    assert values[1] == math.inf
    assert not result.message.startswith("optimization aborted")
    assert result.J_final == pytest.approx(0.1275, abs=1e-3)
    assert result.certificate.is_global_candidate


# ---------------------------------------------------------------------------
# inner minimization
# ---------------------------------------------------------------------------


def test_lbfgs_stationary_start_returns_quickly():
    # starting at an (already converged) stationary point ends within a
    # couple of iterations without changing the value
    sys = toy_system(0.0)
    P = controllability_gramian(sys)
    M = np.zeros((1, 1))
    objective, H0 = original_coordinates(sys, P, M)
    first = lbfgs_minimize(objective, H0, np.array([[0.96], [-0.48]]))
    assert first.converged
    again = lbfgs_minimize(objective, H0, first.L)
    assert again.iterations <= 2
    # "same J" at the optimizer's own objective resolution
    assert again.value == pytest.approx(first.value, rel=1e-6)
    assert again.value == pytest.approx(0.9423, abs=0.01)
    assert again.converged


def test_lbfgs_toy_converges_to_local_factor():
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    res = lbfgs_minimize(*original_coordinates(sys, P, [[0.5]]), np.array([[-2.0], [0.0]]))
    assert res.converged
    assert_allclose(res.L, [[-1.0], [0.0]], atol=0.01)
    assert res.value == pytest.approx(2.5, abs=1e-3)


def test_lbfgs_monotone_decrease():
    # smooth test problem with fixed simple dynamics, 20 random starts
    rng = np.random.default_rng(16)
    sys = StateSpaceSystem(
        -np.eye(3), rng.standard_normal((3, 2)), rng.standard_normal((2, 3)),
        np.diag([0.4, 0.9]),
    )
    P = controllability_gramian(sys)
    objective, H0 = original_coordinates(sys, P, sqrtm_psd(sys.D + sys.D.T))
    for _ in range(20):
        res = lbfgs_minimize(objective, H0, rng.standard_normal((3, 2)))
        values = [j for j, _ in res.trace]
        assert all(b <= a + 1e-14 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def test_lbfgs_respects_iteration_cap():
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    cfg = KlapConfig(max_iterations=2, obj_rel_tol=1e-15, grad_tol=1e-15)
    res = lbfgs_minimize(*original_coordinates(sys, P, [[0.5]]), np.array([[-2.0], [0.0]]), cfg)
    assert res.iterations == 2 and not res.converged
    assert res.status == "max-iterations"


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_initialize_acc_frozen_values():
    sys = acc_system(0.125)
    ini = initialize(sys)
    assert isinstance(ini, Initialization)
    assert ini.delta == pytest.approx(1.14, abs=0.05)
    assert ini.popov_min == pytest.approx(-2.276, abs=0.01)
    assert ini.source == "are"
    P = controllability_gramian(sys)
    point = lure_point(sys, ini.L0)
    J0 = objective_and_gradient(sys, P, point).J
    assert np.sqrt(J0) == pytest.approx(1.25, abs=0.05)


def test_initialize_toy_needs_margin_retry():
    # the 500-point grid underestimates the toy's true Popov minimum by more
    # than the first margin, so the first perturbed Riccati solve fails and
    # the retry with the tenfold margin succeeds
    ini = initialize(toy_system(0.125))
    assert ini.source == "are-retry"
    assert np.all(np.isfinite(ini.L0))


def test_initialize_already_passive_keeps_output():
    # on a passive input the feedthrough shift clamps to the margin only and
    # the initial factor nearly reproduces C
    rng = np.random.default_rng(17)
    for sys in (
        StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[1.0]]),
        random_passive_system(rng, 4, 2),
    ):
        ini = initialize(sys)
        assert ini.popov_min > 0
        assert ini.delta == pytest.approx(1e-3 * ini.popov_min, rel=1e-9)
        P = controllability_gramian(sys)
        J0 = objective_and_gradient(sys, P, lure_point(sys, ini.L0)).J
        assert J0 <= 1e-6 * float(np.trace(sys.C @ P @ sys.C.T))


def miss_scan(sys):
    """A two-point scan of the toy that misses its Popov violation."""
    return popov_scan(sys, grid=np.array([0.0, 1e3]))


def test_initialize_random_fallback_on_tiny_margin():
    # a scan that misses the violation reports a positive minimum, so the
    # shift stays far too small: the perturbed system is still not passive,
    # both Riccati attempts fail and the start is random
    sys = toy_system(0.125)
    ini = initialize(sys, popov_min=miss_scan(sys).global_min)
    assert ini.source == "random"
    assert ini.delta == 0.0
    assert ini.L0.shape == (2, 1)


def test_initialize_random_fallback_is_seeded():
    sys = toy_system(0.125)
    a = initialize(sys, rng=np.random.default_rng(5), popov_min=miss_scan(sys).global_min)
    b = initialize(sys, rng=np.random.default_rng(5), popov_min=miss_scan(sys).global_min)
    assert_array_equal(a.L0, b.L0)


# ---------------------------------------------------------------------------
# restart strategy
# ---------------------------------------------------------------------------


def toy_local_map(sys):
    """``C_hat`` at the toy's non-global stationary factor ``[-1, 0]``."""
    return c_of_l(sys, LurePoint(np.array([[-1.0], [0.0]]), [[0.5]]))


def test_restart_step_escapes_toy_local_minimum(caplog):
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    with caplog.at_level(logging.DEBUG, logger="klap.optimizer"):
        L_new = restart_step(sys, P, toy_local_map(sys))
    assert L_new is not None
    # the first step size is accepted
    assert "restart step accepted at alpha=1.0e-08" in caplog.text
    # continuing the minimization from the recovered factor reaches the
    # global output map
    res = lbfgs_minimize(*original_coordinates(sys, P, [[0.5]]), L_new)
    C_hat = c_of_l(sys, LurePoint(res.L, np.array([[0.5]])))
    assert_allclose(C_hat, [[0.84, 0.34]], atol=0.01)
    assert res.value < 2.5  # strictly better than the local value


def test_restart_step_reinitialize_when_step_leaves_passive_set(monkeypatch):
    import klap.optimizer as mod

    monkeypatch.setattr(mod, "_RESTART_ALPHA", 10.0)
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    assert restart_step(sys, P, toy_local_map(sys)) is None


@pytest.mark.parametrize("alpha", [1e-8, 10.0], ids=["accepted", "leaves-passive-set"])
def test_restart_step_does_not_rescan_the_default_grid(monkeypatch, alpha):
    # the step reads only the verdict of the stepped system, so a rejected
    # step does not pay check_passive's default-grid scan for its margin
    import klap.optimizer as mod
    import klap.passivity as pas_mod

    grids = []
    orig = pas_mod.popov_scan

    def recording_scan(sys_, grid=None):
        grids.append(grid)
        return orig(sys_, grid)

    monkeypatch.setattr(mod, "_RESTART_ALPHA", alpha)
    monkeypatch.setattr(pas_mod, "popov_scan", recording_scan)
    monkeypatch.setattr(mod, "popov_scan", recording_scan)
    sys = toy_system(0.125)
    L_new = restart_step(sys, controllability_gramian(sys), toy_local_map(sys))
    assert (L_new is None) == (alpha == 10.0)
    assert len(grids) == (1 if alpha == 1e-8 else 2)
    assert all(grid is not None for grid in grids)


# ---------------------------------------------------------------------------
# full driver
# ---------------------------------------------------------------------------


def test_klap_toy_without_feedthrough_global():
    sys = toy_system(0.0)
    for seed in range(3):
        res = klap(sys, L0=random_start(sys, seed), rng_seed=seed)
        assert res.J_final == pytest.approx(0.94, abs=0.01)
        assert_allclose(res.C_hat, [[0.46, 0.80]], atol=0.01)
        assert res.certificate.vacuous and res.certificate.is_global_candidate
        assert res.restarts == 0  # every stationary point is global


def test_klap_toy_local_then_restart_to_global():
    # stopping before any restart exposes the non-global stationary point
    loc = klap(toy_system(0.125), L0=[[-2.0], [0.0]], max_restarts=0)
    assert_allclose(loc.C_hat, [[0.0, 1.0]], atol=0.01)
    assert not loc.certificate.is_global_candidate and not loc.converged
    ev = np.sort(loc.certificate.eigenvalues.real)
    assert_allclose(ev, [-3.0, 3.0], atol=0.01)

    # with restarts enabled, one restart reaches the certified global optimum
    res = klap(toy_system(0.125), L0=[[-2.0], [0.0]])
    assert res.restarts == 1
    assert_allclose(res.C_hat, [[0.84, 0.34]], atol=0.01)
    assert res.certificate.is_global_candidate
    assert res.certificate.max_abs_real <= 2e-2
    assert res.J_final < loc.J_final  # restart strictly improved the value
    assert res.converged


def test_klap_does_not_certify_a_capped_run_by_the_vacuous_certificate():
    # with D = 0 every stationary point is global, but a run stopped by the
    # iteration cap is not stationary: nothing certifies its point
    res = klap(acc_system(0.0), max_iterations=2, max_restarts=0)
    assert res.certificate.vacuous and res.iterations == 2
    assert res.converged is False
    assert res.message == "restart budget exhausted without certificate"


def test_klap_does_not_certify_a_run_stopped_by_a_loose_gradient_tolerance():
    # a grad_tol above 1e-8 stops the run before it is stationary: the
    # vacuous certificate does not certify it, only the dual bound may
    loose = klap(acc_system(0.0), grad_tol=1e3)
    assert loose.converged is False
    assert loose.J_final > 3.0 and loose.duality_gap > 0.5
    tight = klap(acc_system(0.0), grad_tol=1e-2)
    assert tight.converged is True
    assert tight.duality_gap <= 1e-7
    assert tight.J_final == pytest.approx(klap(acc_system(0.0)).J_final, rel=1e-7)


def test_klap_acc_benchmark_values():
    res = klap(acc_system(0.125))
    assert res.h2_error == pytest.approx(0.871, abs=0.005)
    assert 5 <= res.iterations <= 50
    assert res.certificate.is_global_candidate
    assert res.delta == pytest.approx(1.14, abs=0.05)

    res0 = klap(acc_system(0.0))
    assert res0.h2_error == pytest.approx(1.03, abs=0.01)
    assert res0.certificate.vacuous


@pytest.mark.parametrize("d, J, iterations", [(0.0, "1.0724407176780966", 17),
                                               (0.125, "0.7592796900319777", 16)])
def test_klap_acc_runs_in_original_coordinates(d, J, iterations, caplog):
    # acc has no trusted eigenbasis, so T = I and the run is the one of the
    # original coordinates, bit for bit
    with caplog.at_level(logging.DEBUG, logger="klap.optimizer"):
        res = klap(acc_system(d))
    assert (repr(res.J_final), res.iterations, res.restarts) == (J, iterations, 0)
    assert "inner runs in original coordinates (T = I): A has no trusted eigenbasis" \
        in caplog.text
    assert "in original coordinates, check_passive passes" in caplog.text


@pytest.mark.parametrize(
    "sys, options",
    [(rand_family_system(16, 1, 6), {}),
     (rand_family_system(64, 2, 1), {"max_iterations": 200, "max_restarts": 0})],
    ids=["rand-16x1/6", "rand-64x2/1/capped"],
)
def test_klap_judges_in_original_coordinates(sys, options):
    # the output map is formed in square-root-Gramian coordinates, but J is
    # the original coordinates' h2_error_sq bit for bit, and the model passes
    # the passivity check
    res = klap(sys, **options)
    assert res.J_final == h2_error_sq(sys, res.C_hat)
    assert check_passive(res.system).passive
    # L_final attains C_hat only in exact arithmetic
    C_back = c_of_l(sys, LurePoint(res.L_final, res.M))
    assert np.linalg.norm(C_back - res.C_hat) <= 1e-6 * np.linalg.norm(res.C_hat)


def test_klap_logs_the_coordinates_and_every_inner_run(caplog):
    # toy-m1 from (-2, 0): one line naming the coordinates, then one per
    # inner run; round 0 parks at the local point, and the one restart
    # reaches the global optimum
    with caplog.at_level(logging.DEBUG, logger="klap.optimizer"):
        res = klap(toy_system(0.125), L0=[[-2.0], [0.0]])
    assert res.restarts == 1 and res.converged
    assert res.J_final == pytest.approx(0.127513, abs=1e-6)
    assert res.certificate.is_global_candidate
    lines = [r.getMessage() for r in caplog.records]
    coords = [line for line in lines if line.startswith("inner runs in")]
    assert len(coords) == 1
    assert coords[0].startswith("inner runs in square-root-Gramian coordinates: 0 of 2 "
                                "Gramian eigenvalues floored at 1e-08 * max, cond(T) = ")
    rounds = [line for line in lines if line.startswith("round ")]
    assert len(rounds) == 2
    assert rounds[0].startswith("round 0: ") and "J = 2.5" in rounds[0]
    assert "||grad J|| = " in rounds[0] and "in square-root-Gramian coordinates" in rounds[0]
    assert "check_passive passes (margin " in rounds[0]
    assert float(rounds[0].rsplit("dual gap ", 1)[1]) >= 0.9
    assert rounds[1].endswith("dual gap not evaluated")


# exact J (tests/oracles.exact_h2_error_sq) of the models klap() returned
# before its inner runs moved to square-root-Gramian coordinates
EXACT_J_IN_ORIGINAL_COORDINATES = {
    "rand-6x1/2": 0.10048794924547814,
    "rand-8x1/1": 0.06436599352140301,
    "rand-8x2/4": 3.5739031696363903,
    "rand-8x4/3": 25.906437019308584,
}


@pytest.mark.parametrize("key", list(EXACT_J_IN_ORIGINAL_COORDINATES))
def test_klap_exact_j_is_not_above_the_original_coordinates_run(key):
    # the non-passive rand-small instances with n <= 8, judged in exact
    # arithmetic, where the float J of a large C_hat cannot judge them
    from oracles import exact_h2_error_sq

    n, m, seed = (int(x) for x in key[5:].replace("x", "/").split("/"))
    sys = rand_family_system(n, m, seed)
    J_exact = exact_h2_error_sq(sys, klap(sys).C_hat)
    assert J_exact <= EXACT_J_IN_ORIGINAL_COORDINATES[key] * (1.0 + 1e-10)


def test_klap_stays_in_the_passive_set_on_rand_8x1_3():
    # in original coordinates klap() returned a model of rand 8x1/3 that is
    # 5.7e-9 lower in exact J, and whose exact Popov minimum is -6.7e-9:
    # outside the passive set, by more than the J it saves.  The model
    # returned now is within 1e-8 of that J and on the passive side
    import scipy.optimize

    from klap.system import popov_eval
    from oracles import exact_h2_error_sq, exact_popov_min

    sys = rand_family_system(8, 1, 3)
    before = sys.with_output([[-23.9905820591286, 176.23754497373534, 283.86884504392674,
                               -358.3890804303737, -87.16528908178202, -354.35447015011323,
                               463.58967974897587, 315.9234299361724]])
    J_before = exact_h2_error_sq(sys, before.C)
    assert J_before == pytest.approx(3.19907114527004, rel=1e-14)
    assert exact_popov_min(before, 0.4730875324659992) < -6e-9

    res = klap(sys)
    J_exact = exact_h2_error_sq(sys, res.C_hat)
    assert J_before < J_exact <= J_before * (1.0 + 1e-8)
    scan = popov_scan(res.system)
    k = int(scan.min_eigenvalues.argmin())
    w = scan.frequencies
    dip = scipy.optimize.minimize_scalar(
        lambda x: np.linalg.eigvalsh(popov_eval(res.system, x))[0],
        bounds=(w[k - 1], w[k + 1]), method="bounded", options={"xatol": 1e-12})
    assert exact_popov_min(res.system, dip.x) >= 0.0


def test_klap_acc_random_starts_with_restarts():
    sys = acc_system(0.125)
    for seed in range(5):
        res = klap(sys, L0=random_start(sys, seed), rng_seed=seed)
        assert res.h2_error <= 0.875, f"seed {seed}: {res.h2_error}"


def test_klap_passive_input_short_circuits():
    rng = np.random.default_rng(18)
    sys = random_passive_system(rng, 4, 1)
    res = klap(sys)
    assert res.passive_input
    assert_array_equal(res.C_hat, sys.C)
    assert res.J_final == 0.0 and res.h2_error == 0.0
    assert res.L_final is None and res.certificate is None
    assert res.iterations == 0 and res.converged


def test_klap_scans_non_passive_input_once(monkeypatch):
    # one scan serves the passive-input verdict and the Riccati start
    import klap.optimizer as opt_mod
    import klap.passivity as pas_mod

    scanned = []
    orig = opt_mod.popov_scan

    def counting_scan(sys_, *args, **kwargs):
        scanned.append(sys_)
        return orig(sys_, *args, **kwargs)

    monkeypatch.setattr(opt_mod, "popov_scan", counting_scan)
    monkeypatch.setattr(pas_mod, "popov_scan", counting_scan)
    sys = toy_system(0.125)
    res = klap(sys)
    assert not res.passive_input
    assert sum(s is sys for s in scanned) == 1


def test_klap_builds_one_lyapunov_kernel_per_run(monkeypatch):
    # the Gramian, every restart step and the check of L0 solve through the
    # kernel the system owns; the output maps of the runs, formed in
    # square-root-Gramian coordinates, through one dense kernel of
    # T^{-1} A T, which factors one Schur form and is not kept past the run;
    # the dual bound evaluated before the restart builds none.  Beside the
    # eigenbasis and the kernel, the run keeps only the default Popov grid
    # and (0 I - A)^{-1} B: toy-m1 has a trusted basis, so no grid solves
    import klap.linalg as linalg_mod

    kernels = []
    orig_init = linalg_mod._LyapunovKernel.__init__

    def counting_init(self, *args, **kwargs):
        kernels.append(self)
        orig_init(self, *args, **kwargs)

    monkeypatch.setattr(linalg_mod._LyapunovKernel, "__init__", counting_init)
    sys = toy_system(0.125)
    res = klap(sys, L0=[[-2.0], [0.0]])
    assert res.restarts == 1
    assert len(kernels) == 2
    own, mapped = kernels
    assert sys._lyapunov() is own and res.system._lyapunov() is own and own.diagonal
    assert mapped.strategy == "dense" and list(mapped._schur) == [True]
    assert set(sys._eigen) == {"abscissa", "radius", "modes", "lyapunov", "grid",
                               "resolvent_at_0"}


@pytest.mark.parametrize(
    "make",
    [lambda: acc_system(0.125), lambda: rand_family_system(8, 2, 4),
     lambda: rand_family_system(16, 1, 6)],
    ids=["acc/d=0.125", "rand-8x2/4", "rand-16x1/6"],
)
def test_klap_on_a_warm_copy_matches_a_cold_system(make):
    # a copy that shares every cache a first run filled (grid, its solves
    # where A has no eigenbasis, kernel, D + D^T and its root) runs the
    # same trajectory bit for bit
    cold = klap(make())
    sys = make()
    klap(sys)
    warm = klap(sys.with_output(sys.C))
    for name in ("C_hat", "L_final", "M"):
        assert_array_equal(getattr(warm, name), getattr(cold, name))
    for name in ("J_final", "iterations", "restarts", "converged", "trace", "popov_min",
                 "delta", "duality_gap", "message"):
        assert getattr(warm, name) == getattr(cold, name), name
    assert_array_equal(warm.certificate.eigenvalues, cold.certificate.eigenvalues)


def count_frame_work(monkeypatch):
    """Counters of the ``_ModalObjective`` builds and of the ``eigh`` calls
    per matrix size that follow this call."""
    import klap.optimizer as mod

    builds, eighs = [], []
    orig_init, orig_eigh = mod._ModalObjective.__init__, np.linalg.eigh

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        orig_init(self, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a)[0])
        return orig_eigh(a, *args, **kwargs)

    monkeypatch.setattr(mod._ModalObjective, "__init__", counting_init)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return builds, eighs


def test_klap_builds_one_frame_per_call(monkeypatch):
    # rand 16x1/6 runs six rounds and builds the KYP dual once: one modal
    # objective and two 16 x 16 eigh, of P (the coordinates and the dual)
    # and of the mapped Gramian (the L-BFGS metric)
    builds, eighs = count_frame_work(monkeypatch)
    res = klap(rand_family_system(16, 1, 6))
    assert res.restarts == 5
    assert len(builds) == 1
    assert eighs.count(16) == 2


def test_klap_reuses_the_frame_gramian_where_a_has_no_trusted_eigenbasis(monkeypatch):
    # acc: T = I, so the one 4 x 4 eigh of P gives the L-BFGS metric of
    # every round and the KYP dual bound evaluated after each of them
    import klap.optimizer as mod

    duals = []
    orig = mod._kyp_dual

    def counting_dual(*args):
        duals.append(orig(*args))
        return duals[-1]

    monkeypatch.setattr(mod, "_kyp_dual", counting_dual)
    builds, eighs = count_frame_work(monkeypatch)
    res = klap(acc_system(0.0), grad_tol=1e3)
    assert not res.converged and res.duality_gap is not None
    assert len(duals) == 1 and not builds
    assert eighs.count(4) == 1


# klap() on the five bundled cases, the rand-small instances of the benchmark
# at instance seeds 0, 1 and 2 and its four rand-large instances:
# repr(J_final), iterations, restarts and converged, which every change that
# means to keep the trajectories must keep bit for bit
BIT_IDENTICAL_SOLVES = {
    "acc": ("1.0724407176780966", 17, 0, True),
    "acc/d=0.125": ("0.7592796900319777", 16, 0, True),
    "toy-m0": ("0.9423076923076922", 8, 0, True),
    "toy-m1": ("0.12751294803962643", 8, 0, True),
    "toy-m1/l0=-2,0": ("0.12751294803962654", 24, 1, True),
    "rand-6x1/2": ("0.10048794924832612", 29, 0, True),
    "rand-8x1/1": ("0.06436599351888793", 40, 0, True),
    "rand-8x1/2": ("0.0", 0, 0, True),
    "rand-8x2/4": ("3.5739031696366346", 81, 0, True),
    "rand-8x4/3": ("25.906437019308722", 97, 0, True),
    "rand-16x1/6": ("0.12130546273147047", 96, 5, False),
    # the restarts of 8x1/3, 16x1/7 and 16x1/8 recover their factors from
    # Riccati solves that stop Newton at a damped stall
    "rand-6x1/3": ("0.13590654947589495", 25, 0, True),
    "rand-8x1/3": ("3.199071163637782", 131, 5, False),
    "rand-8x2/5": ("0.15100075498019921", 133, 0, True),
    "rand-8x4/4": ("32.584505259195666", 157, 0, True),
    "rand-16x1/7": ("1.0109509233857352", 116, 5, False),
    "rand-6x1/4": ("0.018297460781681284", 30, 0, True),
    "rand-8x1/4": ("0.7625829093803422", 32, 0, True),
    "rand-8x2/6": ("3.531865695156874", 115, 0, True),
    "rand-8x4/5": ("16.39866175669218", 144, 0, True),
    "rand-16x1/8": ("1.9262193747952097", 121, 5, False),
    "rand-64x2/1": ("10.743816756090382", 72, 0, False),
    "rand-64x4/2": ("56.32248739089118", 89, 0, False),
    "rand-128x2/3": ("20.159177893390734", 70, 0, False),
    "rand-128x4/4": ("133.306261835467", 121, 0, False),
}
#: the rand-large instances, solved as the benchmark solves them: capped at
#: 200 iterations without restarts, with one BLAS thread, since threaded
#: OpenBLAS sums the n = 128 products in another order
RAND_LARGE = ("rand-64x2/1", "rand-64x4/2", "rand-128x2/3", "rand-128x4/4")


def bit_identical_solve(key: str) -> tuple:
    """``(repr(J_final), iterations, restarts, converged)`` of the
    :data:`BIT_IDENTICAL_SOLVES` case ``key``."""
    from klap import benchmark_path, load_model_file

    options = {}
    if key.startswith("rand-"):
        n, m, seed = (int(x) for x in key[5:].replace("x", "/").split("/"))
        sys = rand_family_system(n, m, seed)
        if key in RAND_LARGE:
            options = {"max_iterations": 200, "max_restarts": 0}
    else:
        model, _, variant = key.partition("/")
        sys = load_model_file(benchmark_path(model)).system
        if variant == "d=0.125":
            sys = sys.with_feedthrough(0.125 * np.eye(sys.m))
        elif variant == "l0=-2,0":
            options["L0"] = np.array([[-2.0], [0.0]])
    res = klap(sys, **options)
    return repr(res.J_final), res.iterations, res.restarts, res.converged


# the passivity judgements of klap() on every benchmark instance at instance
# seed 0: Hamiltonian eigensolves (one per verdict of check_passive) and
# Popov scans on the default grid.  A round whose J is not below a passing
# best is not judged, restart steps and the check of a near-passive input
# do not rescan the default grid, and rand 16x1/6's five restarts take 6
# verdicts, one per step tried
JUDGEMENTS = {
    "acc": (1, 1),
    "acc/d=0.125": (1, 1),
    "toy-m0": (1, 1),
    "toy-m1": (1, 1),
    "toy-m1/l0=-2,0": (3, 1),
    "rand-6x1/2": (1, 1),
    "rand-8x1/1": (1, 1),
    "rand-8x1/2": (1, 1),
    "rand-8x2/4": (1, 1),
    "rand-8x4/3": (1, 1),
    "rand-16x1/6": (7, 1),
    "rand-64x2/1": (1, 1),
    "rand-64x4/2": (1, 1),
    "rand-128x2/3": (1, 1),
    "rand-128x4/4": (1, 1),
}


def judged_solve(key: str) -> tuple:
    """:func:`bit_identical_solve` of ``key`` and the ``(Hamiltonian
    eigensolves, default-grid Popov scans)`` it made."""
    import klap.optimizer as opt_mod
    import klap.passivity as pas_mod

    counts = [0, 0]
    hamiltonian, scan = pas_mod._hamiltonian_matrix, pas_mod.popov_scan

    def counting_hamiltonian(*args):
        counts[0] += 1
        return hamiltonian(*args)

    def counting_scan(sys_, grid=None):
        counts[1] += grid is None
        return scan(sys_, grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pas_mod, "_hamiltonian_matrix", counting_hamiltonian)
        patch.setattr(pas_mod, "popov_scan", counting_scan)
        patch.setattr(opt_mod, "popov_scan", counting_scan)
        solved = bit_identical_solve(key)
    return solved, tuple(counts)


@pytest.fixture(scope="module")
def rand_large_solves():
    """:func:`judged_solve` of the :data:`RAND_LARGE` cases, run in one
    subprocess that starts with one BLAS thread (the count is fixed when
    numpy loads)."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = ("import json, sys; from test_optimizer import judged_solve; "
            "print(json.dumps([judged_solve(key) for key in sys.argv[1:]]))")
    done = subprocess.run([executable, "-c", code, *RAND_LARGE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {key: (tuple(solved), tuple(counts))
            for key, (solved, counts) in zip(RAND_LARGE, json.loads(done.stdout))}


@pytest.mark.parametrize("key", list(BIT_IDENTICAL_SOLVES))
def test_klap_trajectories_are_bit_identical(key, request):
    if key in RAND_LARGE:
        solved = request.getfixturevalue("rand_large_solves")[key][0]
    else:
        solved = bit_identical_solve(key)
    assert solved == BIT_IDENTICAL_SOLVES[key]


@pytest.mark.parametrize("key", list(JUDGEMENTS))
def test_klap_makes_only_the_passivity_judgements_that_can_change_its_result(key, request):
    if key in RAND_LARGE:
        solved, counts = request.getfixturevalue("rand_large_solves")[key]
    else:
        solved, counts = judged_solve(key)
    assert solved == BIT_IDENTICAL_SOLVES[key]
    assert counts == JUDGEMENTS[key]


def test_klap_keeps_one_kernel_where_a_has_no_trusted_eigenbasis(monkeypatch):
    # acc has no trusted eigenbasis: T = I, and every solve of the run goes
    # through the system's own dense kernel
    import klap.linalg as linalg_mod

    kernels = []
    orig_init = linalg_mod._LyapunovKernel.__init__

    def counting_init(self, *args, **kwargs):
        kernels.append(self)
        orig_init(self, *args, **kwargs)

    monkeypatch.setattr(linalg_mod._LyapunovKernel, "__init__", counting_init)
    sys = acc_system(0.125)
    klap(sys)
    assert len(kernels) == 1 and sys._lyapunov() is kernels[0]
    assert not kernels[0].diagonal


def test_klap_restart_reuses_the_judged_output_map(monkeypatch):
    # from [-2, 0] one round is rejected and one restart follows: the C_hat
    # computed for the dual bound also seeds the restart step, and the
    # returned point keeps its round's, so c_of_l runs once per round, plus
    # once at the boundary, where it validates L0
    import klap.optimizer as mod

    calls = 0
    orig = mod.c_of_l

    def counting_c_of_l(*args):
        nonlocal calls
        calls += 1
        return orig(*args)

    monkeypatch.setattr(mod, "c_of_l", counting_c_of_l)
    res = klap(toy_system(0.125), L0=[[-2.0], [0.0]])
    assert res.restarts == 1 and res.converged
    assert calls == 3


def test_klap_iteration_cap_holds_per_round():
    # a round is one inner run, capped at max_iterations: a capped round
    # takes exactly that many steps (uncapped, this one takes about 90)
    res = klap(rand_family_system(64, 4, 2), max_iterations=50, max_restarts=0)
    assert res.iterations == 50
    assert len(res.trace) == 51


@pytest.mark.parametrize(
    "sys, options",
    [(rand_family_system(6, 1, 2), {}), (toy_system(0.125), {"L0": [[-2.0], [0.0]]})],
    ids=["rand-6x1/2", "toy-m1/l0=-2,0"],
)
def test_klap_runs_one_inner_minimization_per_round(monkeypatch, sys, options):
    # a round is one inner run, whose point is judged as the run left it;
    # rand 6x1/2 is certified after round 0, toy-m1 from (-2, 0) after one
    # restart
    import klap.optimizer as mod

    runs = []
    orig = mod.lbfgs_minimize

    def counting_lbfgs(*args, **kwargs):
        runs.append(orig(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(mod, "lbfgs_minimize", counting_lbfgs)
    res = klap(sys, **options)
    assert res.converged
    assert len(runs) == res.restarts + 1
    assert res.iterations == sum(run.iterations for run in runs)
    assert len(res.trace) == sum(len(run.trace) for run in runs)


@pytest.mark.parametrize("seed", [7, 9, 10])
def test_klap_returns_passive_models_at_large_factors(seed):
    # on these rand 16x1 systems the searches end at ||L|| of 1e4 to 1e5,
    # where the rounding of C_hat(L) grows as ||L||^2 and a lower floor of
    # the preconditioner returned models that fail the passivity check
    sys = rand_family_system(16, 1, seed)
    res = klap(sys)
    verdict = check_passive(res.system)
    assert verdict.passive, verdict.margin
    assert "fails the passivity check" not in res.message
    assert res.J_final == h2_error_sq(sys, res.C_hat)


def _fail_passivity_checks(monkeypatch, failing):
    """Make klap's ``check_passive``, and the verdict it wraps, report
    ``margin = -1e-6`` for every system ``failing(system)`` selects; returns
    the list of the systems ``check_passive`` is called on."""
    import klap.optimizer as mod
    from klap.passivity import PassivityVerdict, _sampled_verdict

    checked = []

    def check(system):
        checked.append(system)
        if failing(system):
            return PassivityVerdict(False, -1e-6)
        return check_passive(system)

    def sampled(system):
        if failing(system):
            return PassivityVerdict(False, -1e-6), True
        return _sampled_verdict(system)

    monkeypatch.setattr(mod, "check_passive", check)
    monkeypatch.setattr(mod, "_sampled_verdict", sampled)
    return checked


def test_klap_reports_a_returned_model_that_fails_the_passivity_check(monkeypatch, caplog):
    # C_hat(L) is passive only in exact arithmetic: when the returned model
    # fails the check, the result says so and does not claim convergence
    _fail_passivity_checks(monkeypatch, lambda system: True)
    with caplog.at_level(logging.WARNING, logger="klap.optimizer"):
        res = klap(toy_system(0.125), max_restarts=0)
    assert res.converged is False
    assert res.message.endswith("; the returned model fails the passivity check "
                                "(margin -1.000e-06)")
    assert "fails the passivity check (margin -1.000e-06)" in caplog.text
    assert res.certificate.is_global_candidate  # the point itself is optimal


def test_klap_prefers_a_passing_model_to_a_lower_failing_one(monkeypatch):
    # from [-2, 0] round 0 ends at the local point (J = 2.5) and round 1 at
    # the global optimum; with the optimum's model failing the check, the
    # local point is returned, and the loop does not stop at the optimum's
    # certificate, since that certifies a point it does not return
    sys = toy_system(0.125)
    C_opt = klap(sys).C_hat

    def near_opt(system):
        return np.allclose(system.C, C_opt, atol=1e-6)

    _fail_passivity_checks(monkeypatch, near_opt)
    res = klap(sys, L0=[[-2.0], [0.0]], max_restarts=2)
    assert res.J_final == pytest.approx(2.5, abs=1e-3)
    assert res.restarts == 2
    assert res.converged is False
    assert res.message == "restart budget exhausted without certificate"
    assert check_passive(res.system).passive


def test_klap_judges_a_round_above_a_failing_best(monkeypatch):
    # round 0 ends at the global optimum, whose model is made to fail the
    # check; its restart step fails too, and round 1 runs from the random
    # start of seed 4 to the local point (J = 2.5): its J is above the
    # best's, but a failing best can be displaced, so it is judged, and
    # it is returned
    sys = toy_system(0.125)
    C_opt = klap(sys).C_hat
    checked = _fail_passivity_checks(
        monkeypatch, lambda system: np.allclose(system.C, C_opt, atol=1e-6))
    res = klap(sys, rng_seed=4, max_restarts=1)
    assert len(checked) == 2
    assert_allclose(checked[0].C, C_opt, atol=1e-6)
    assert res.restarts == 1
    assert res.J_final == pytest.approx(2.5, abs=1e-3)
    assert_array_equal(res.C_hat, checked[1].C)
    assert res.message == "restart budget exhausted without certificate"


def test_klap_does_not_judge_a_round_above_a_passing_best(caplog):
    # rand 16x1/6: round 0 ends at the lowest J and passes the check; the
    # five restarts end above it, so none of their verdicts could change
    # the result, and none is computed
    with caplog.at_level(logging.DEBUG, logger="klap.optimizer"):
        solved, counts = judged_solve("rand-16x1/6")
    assert solved == BIT_IDENTICAL_SOLVES["rand-16x1/6"]
    rounds = [r.getMessage() for r in caplog.records if r.getMessage().startswith("round ")]
    assert len(rounds) == 6
    assert "check_passive passes" in rounds[0]
    best_J = float(rounds[0].split("J = ")[1].split(",")[0])
    for line in rounds[1:]:
        assert "check_passive not run: J " in line
        assert f"not below the passing best {best_J:.17g}" in line
    # 7 verdicts: round 0's and one per restart step tried (12 when every
    # round was judged)
    assert counts == (7, 1)


def test_klap_drops_the_objective_before_its_last_judgement(monkeypatch):
    # toy-m1 from [-2, 0] with one restart: the modal objective is alive
    # while round 0 is judged and freed once the last run has returned
    import weakref

    import klap.optimizer as mod

    objectives, alive = [], []
    orig_lbfgs, orig_check = mod.lbfgs_minimize, mod.check_passive

    def recording_lbfgs(objective, *args):
        objectives.append(weakref.ref(objective))
        return orig_lbfgs(objective, *args)

    def recording_check(system):
        alive.append(objectives[-1]() is not None)
        return orig_check(system)

    monkeypatch.setattr(mod, "lbfgs_minimize", recording_lbfgs)
    monkeypatch.setattr(mod, "check_passive", recording_check)
    res = klap(toy_system(0.125), L0=[[-2.0], [0.0]], max_restarts=1)
    assert res.restarts == 1 and res.converged
    assert len(objectives) == 2
    assert alive == [True, False]


def test_klap_deterministic_given_seed():
    sys = acc_system(0.125)
    a = klap(sys, L0=random_start(sys, 7), rng_seed=7)
    b = klap(sys, L0=random_start(sys, 7), rng_seed=7)
    assert_array_equal(a.C_hat, b.C_hat)
    assert a.J_final == b.J_final and a.iterations == b.iterations


def test_klap_result_invariants():
    res = klap(toy_system(0.125), L0=[[-2.0], [0.0]])
    assert res.h2_error**2 == pytest.approx(res.J_final, rel=1e-12)
    # certificate corresponds to the returned factor
    cert = global_min_certificate(toy_system(0.125), res.L_final)
    assert cert.max_abs_real == pytest.approx(res.certificate.max_abs_real, rel=1e-9)
    # the passivated system is genuinely passive
    assert check_passive(res.system).passive
    assert res.initial_J >= res.J_final


def test_klap_unique_optimum_across_seeds():
    # the closest passive system is unique: different random seeds land on
    # output maps that agree in the Gramian-weighted norm
    sys = toy_system(0.0)
    P = controllability_gramian(sys)

    def pnorm(V):
        return float(np.sqrt(np.trace(V @ P @ V.T)))

    r1 = klap(sys, L0=random_start(sys, 101), rng_seed=101)
    r2 = klap(sys, L0=random_start(sys, 202), rng_seed=202)
    assert pnorm(r1.C_hat - r2.C_hat) <= 1e-4 * pnorm(sys.C)


def test_config_validation():
    with pytest.raises(ValueError):
        KlapConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        KlapConfig(max_restarts=-1)
    with pytest.raises(TypeError):
        klap(toy_system(0.125), no_such_option=1)


@pytest.mark.parametrize("option", ["max_iterations", "max_restarts"])
@pytest.mark.parametrize("value", [2.5, 1.0, "3", None])
def test_config_rejects_non_integer_counts(option, value):
    # a non-integer count is a usage error at the boundary, not a run that
    # aborts inside the loop with 0 iterations
    with pytest.raises(ValueError, match=f"{option} must be an integer"):
        KlapConfig(**{option: value})
    with pytest.raises(ValueError, match=f"{option} must be an integer"):
        klap(toy_system(0.125), **{option: value})
    assert getattr(KlapConfig(**{option: np.int64(3)}), option) == 3


@pytest.mark.parametrize("option", ["grad_tol", "obj_rel_tol"])
@pytest.mark.parametrize("value", [None, "1e-8", math.inf, math.nan, -1e-8])
def test_config_rejects_tolerances_that_are_not_finite_and_positive(option, value):
    with pytest.raises(ValueError, match=f"{option} must be finite and positive"):
        KlapConfig(**{option: value})
    with pytest.raises(ValueError, match=f"{option} must be finite and positive"):
        klap(toy_system(0.125), **{option: value})


@pytest.mark.parametrize("value, match", [(-1, "rng_seed must be >= 0"),
                                          (1.5, "rng_seed must be an integer"),
                                          ("a", "rng_seed must be an integer")])
def test_config_rejects_bad_seeds(value, match):
    with pytest.raises(ValueError, match=match):
        KlapConfig(rng_seed=value)
    with pytest.raises(ValueError, match=match):
        klap(toy_system(0.125), rng_seed=value)
    seed = KlapConfig(rng_seed=np.int64(3)).rng_seed
    assert seed == 3 and type(seed) is int
    assert KlapConfig(rng_seed=None).rng_seed is None


@pytest.mark.parametrize("L0", [[[math.nan], [1.0]], [[1e100], [1e100]], [[1e200], [1e200]]],
                         ids=["nan", "1e100", "1e200"])
def test_klap_rejects_a_starting_factor_where_the_objective_is_not_finite(L0, caplog):
    # an input error, raised at the boundary, not a run that aborts and
    # then fails to evaluate its start
    with caplog.at_level(logging.WARNING, logger="klap.optimizer"):
        with pytest.raises(DimensionMismatchError, match="objective is not finite at L0"):
            klap(toy_system(0.125), L0=L0)
    assert "optimization aborted" not in caplog.text


def test_klap_certifies_a_singular_feedthrough_by_the_dual_bound():
    # D + D^T = diag(1, 0): no closed loop for the spectral test, so the KYP
    # dual bound alone certifies the point
    sys = rand_family_system(6, 2, 1).with_feedthrough(np.diag([0.5, 0.0]))
    res = klap(sys)
    assert res.converged
    assert res.certificate is None
    assert res.duality_gap <= 1e-7
    assert res.message == "stationary point certified by the KYP dual bound"
    assert check_passive(res.system).passive


@pytest.mark.parametrize("L0", [np.ones((3, 1)), np.ones((1, 2)), np.ones(2)],
                         ids=["3x1", "1x2", "flat-2"])
def test_klap_rejects_a_starting_factor_of_the_wrong_shape(L0):
    with pytest.raises(DimensionMismatchError, match=r"L0 must be 2 x 1"):
        klap(toy_system(0.125), L0=L0)
