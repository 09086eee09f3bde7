"""Tests for the passivation optimizer.

The analytic gradient is cross-checked against a central finite-difference
oracle of the objective; the output-map parameterization against
hand-derived closed forms; and the full driver against the frozen
benchmark values of the two reference systems.
"""

import logging
import math

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
from klap.system import StateSpaceSystem, controllability_gramian, h2_error_sq


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
    point = LurePoint.for_system(toy_system(0.125), np.zeros((2, 1)))
    assert_allclose(point.M, [[0.5]], atol=1e-14)
    # M M^T reproduces D + D^T
    sys = random_passive_system(np.random.default_rng(0), 4, 2)
    point = LurePoint.for_system(sys, np.zeros((4, 2)))
    assert_allclose(point.M @ point.M.T, sys.D + sys.D.T, atol=1e-12)


def test_c_of_l_zero_factor():
    sys = toy_system(0.125)
    assert_allclose(c_of_l(sys, LurePoint.for_system(sys, np.zeros((2, 1)))), 0.0)


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
            c_of_l(sys, LurePoint.for_system(sys, [[scale]]))


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
    point = LurePoint.for_system(sys, rng.standard_normal((5, 2)))
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
    refined = lbfgs_minimize(sys, P, np.array([[0.96], [-0.48]]), np.zeros((1, 1)))
    assert abs(refined.value - ev.J) <= 5e-6 * ev.J


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    for k in range(20):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        with_feedthrough = k % 2 == 0
        sys = random_system(rng, n, m, d_scale=0.8 if with_feedthrough else 0.0)
        P = controllability_gramian(sys)
        point = LurePoint.for_system(sys, rng.standard_normal((n, m)))
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
    objective_and_gradient(sys, P, LurePoint.for_system(sys, np.ones((2, 1))))
    assert calls == {"standard": 1, "transposed": 1}
    assert values == gradients == 1

    sys = acc_system(0.125)  # its line search rejects trials from this start
    P = controllability_gramian(sys)
    calls.update(standard=0, transposed=0)
    values = gradients = 0
    run = lbfgs_minimize(sys, P, np.random.default_rng(1).standard_normal((4, 1)), [[0.5]])
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
    run = lbfgs_minimize(sys, P, np.random.default_rng(1).standard_normal((4, 1)), [[0.5]])
    assert run.iterations >= 10
    assert len(factored) == 2
    assert np.array_equal(factored[0], sys.A) and np.array_equal(factored[1], sys.A.T)


def rand_family_system(n, m, seed):
    """The random family "rand n x m / seed" of the benchmark workloads."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    return StateSpaceSystem(A, B, C, 0.05 * np.eye(m))


@pytest.mark.parametrize(
    "sys, diagonal",
    [(rand_family_system(8, 2, 4), True), (acc_system(0.125), False)],
    ids=["rand-8x2/4-diagonal", "acc-dense"],
)
def test_lbfgs_first_trace_entry_equals_objective_and_gradient(sys, diagonal):
    # both solve through the system's own kernel: diagonalized on the
    # cached eigenbasis (rand), dense where A has none (acc is defective)
    assert (sys._lyapunov().V is not None) == diagonal
    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    L0 = np.random.default_rng(1).standard_normal((sys.n, sys.m))
    ev = objective_and_gradient(sys, P, LurePoint(L0, M))
    run = lbfgs_minimize(sys, P, L0, M, KlapConfig(max_iterations=3))
    J0, g0 = run.trace[0]
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
    # gradient was never used, so the run is the eager loop's, bit for bit.
    # The polish pass's objective tolerance makes the runs long (3,289
    # iterations on rand 8x2/4 from the Riccati start).
    from oracles import eager_lbfgs

    P = controllability_gramian(sys)
    M = sqrtm_psd(sys.D + sys.D.T)
    if L0 is None:
        L0 = initialize(sys).L0
    cfg = KlapConfig(obj_rel_tol=1e-14)
    run = lbfgs_minimize(sys, P, L0, M, cfg)
    ref = eager_lbfgs(sys, P, L0, M, cfg)
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
    import klap.optimizer as mod

    orig_value = mod._Objective.value
    values = []

    def every_trial_worse(self, L):
        J, state = orig_value(self, L)
        values.append(J)
        return (J if len(values) == 1 else values[0] + 1.0), state

    monkeypatch.setattr(mod._Objective, "value", every_trial_worse)
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    L0 = np.array([[-2.0], [0.0]])
    run = lbfgs_minimize(sys, P, L0, [[0.5]])
    assert run.status == "line-search"
    assert run.converged is False
    assert run.iterations == 0
    assert len(values) == 1 + 45
    assert_array_equal(run.L, L0)
    assert run.value == values[0]
    assert run.trace == ((values[0], run.gradient_norm),)


def test_lbfgs_backs_off_from_a_non_finite_trial(monkeypatch):
    # The first line-search trial is moved out to 1e200 * L, where L L^T
    # overflows.  The evaluation reports J = inf, the line search halves
    # the step, and the run goes on: no exception, a finite best iterate.
    import klap.optimizer as mod

    orig_value = mod._Objective.value
    values = []

    def first_trial_overflows(self, L):
        if len(values) == 1:
            L = 1e200 * L
        out = orig_value(self, L)
        values.append(out[0])
        return out

    monkeypatch.setattr(mod._Objective, "value", first_trial_overflows)
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    with np.errstate(over="ignore", invalid="ignore"):
        run = lbfgs_minimize(sys, P, np.array([[-2.0], [0.0]]), [[0.5]])
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
    first = lbfgs_minimize(sys, P, np.array([[0.96], [-0.48]]), M)
    assert first.converged
    again = lbfgs_minimize(sys, P, first.L, M)
    assert again.iterations <= 2
    # "same J" at the optimizer's own objective resolution
    assert again.value == pytest.approx(first.value, rel=1e-6)
    assert again.value == pytest.approx(0.9423, abs=0.01)
    assert again.converged


def test_lbfgs_toy_converges_to_local_factor():
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    res = lbfgs_minimize(sys, P, np.array([[-2.0], [0.0]]), [[0.5]])
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
    M = sqrtm_psd(sys.D + sys.D.T)
    for _ in range(20):
        res = lbfgs_minimize(sys, P, rng.standard_normal((3, 2)), M)
        values = [j for j, _ in res.trace]
        assert all(b <= a + 1e-14 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def test_lbfgs_respects_iteration_cap():
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    cfg = KlapConfig(max_iterations=2, obj_rel_tol=1e-15, grad_tol=1e-15)
    res = lbfgs_minimize(sys, P, np.array([[-2.0], [0.0]]), [[0.5]], cfg)
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
    point = LurePoint.for_system(sys, ini.L0)
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
        J0 = objective_and_gradient(sys, P, LurePoint.for_system(sys, ini.L0)).J
        assert J0 <= 1e-6 * float(np.trace(sys.C @ P @ sys.C.T))


def test_initialize_random_fallback_on_tiny_margin():
    # a margin far below the grid error leaves the perturbed system
    # effectively marginal: both Riccati attempts fail, the start is random
    cfg = KlapConfig(init_margin=1e-13)
    ini = initialize(toy_system(0.125), cfg)
    assert ini.source == "random"
    assert ini.delta == 0.0
    assert ini.L0.shape == (2, 1)


def test_initialize_random_fallback_is_seeded():
    cfg = KlapConfig(init_margin=1e-13, rng_seed=5)
    a = initialize(toy_system(0.125), cfg)
    b = initialize(toy_system(0.125), cfg)
    assert_array_equal(a.L0, b.L0)


# ---------------------------------------------------------------------------
# restart strategy
# ---------------------------------------------------------------------------


def test_restart_step_escapes_toy_local_minimum():
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    L_loc = np.array([[-1.0], [0.0]])
    decision = restart_step(sys, P, L_loc)
    assert decision.kind == "new-point"
    assert decision.alpha == pytest.approx(1e-8)
    # continuing the minimization from the recovered factor reaches the
    # global output map
    res = lbfgs_minimize(sys, P, decision.L, [[0.5]])
    C_hat = c_of_l(sys, LurePoint(res.L, np.array([[0.5]])))
    assert_allclose(C_hat, [[0.84, 0.34]], atol=0.01)
    assert res.value < 2.5  # strictly better than the local value


def test_restart_step_reinitialize_when_step_leaves_passive_set():
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    cfg = KlapConfig(restart_alpha=10.0)
    decision = restart_step(sys, P, np.array([[-1.0], [0.0]]), cfg)
    assert decision.kind == "reinitialize" and decision.L is None


# ---------------------------------------------------------------------------
# full driver
# ---------------------------------------------------------------------------


def test_klap_toy_without_feedthrough_global():
    for seed in range(3):
        res = klap(toy_system(0.0), init="random", rng_seed=seed)
        assert res.J_final == pytest.approx(0.94, abs=0.01)
        assert_allclose(res.C_hat, [[0.46, 0.80]], atol=0.01)
        assert res.certificate.vacuous and res.certificate.is_global_candidate
        assert res.restarts == 0  # every stationary point is global


def test_klap_toy_local_then_restart_to_global():
    # stopping before any restart exposes the non-global stationary point
    loc = klap(toy_system(0.125), L0=[[-2.0], [0.0]], max_restarts=0)
    assert_allclose(loc.C_hat, [[0.0, 1.0]], atol=0.01)
    assert not loc.certificate.is_global_candidate
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


def test_klap_replaces_a_repeated_start_with_a_logged_random_one(monkeypatch, caplog):
    # a restart that lands on the run's own start is replaced by a random
    # factor, and the replacement is logged
    import klap.optimizer as opt_mod

    L0 = np.array([[-2.0], [0.0]])
    drawn = []
    draw = opt_mod._random_factor

    def recording_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(
        opt_mod, "restart_step",
        lambda *args: opt_mod.RestartDecision("new-point", L0.copy(), 1e-8, 0.0),
    )
    monkeypatch.setattr(opt_mod, "_random_factor", recording_draw)
    with caplog.at_level(logging.INFO, logger="klap.optimizer"):
        res = klap(toy_system(0.125), L0=L0, max_restarts=1)
    assert len(drawn) == 1
    assert res.restarts == 1
    assert "restart 1 repeats an earlier start; using a random start" in caplog.text


def test_klap_acc_benchmark_values():
    res = klap(acc_system(0.125))
    assert res.h2_error == pytest.approx(0.871, abs=0.005)
    assert 5 <= res.iterations <= 50
    assert res.certificate.is_global_candidate
    assert res.delta == pytest.approx(1.14, abs=0.05)

    res0 = klap(acc_system(0.0))
    assert res0.h2_error == pytest.approx(1.03, abs=0.01)
    assert res0.certificate.vacuous


def test_klap_acc_random_starts_with_restarts():
    for seed in range(5):
        res = klap(acc_system(0.125), init="random", rng_seed=seed)
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
    # the Gramian, every L-BFGS run, every restart step and the final C_hat
    # solve through the kernel the system owns
    import klap.linalg as linalg_mod

    kernels = []
    orig_init = linalg_mod._LyapunovKernel.__init__

    def counting_init(self, *args, **kwargs):
        kernels.append(self)
        orig_init(self, *args, **kwargs)

    monkeypatch.setattr(linalg_mod._LyapunovKernel, "__init__", counting_init)
    sys = rand_family_system(6, 1, 2)
    res = klap(sys)
    assert res.restarts == 5
    assert len(kernels) == 1
    assert sys._lyapunov() is kernels[0] and res.system._lyapunov() is kernels[0]


def test_klap_deterministic_given_seed():
    a = klap(acc_system(0.125), init="random", rng_seed=7)
    b = klap(acc_system(0.125), init="random", rng_seed=7)
    assert_array_equal(a.C_hat, b.C_hat)
    assert a.J_final == b.J_final and a.iterations == b.iterations


def test_klap_result_invariants():
    res = klap(toy_system(0.125), L0=[[-2.0], [0.0]])
    assert res.h2_error**2 == pytest.approx(res.J_final, rel=1e-12)
    # certificate corresponds to the returned factor
    cert = global_min_certificate(toy_system(0.125), res.M, res.L_final)
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

    r1 = klap(sys, init="random", rng_seed=101)
    r2 = klap(sys, init="random", rng_seed=202)
    assert pnorm(r1.C_hat - r2.C_hat) <= 1e-4 * pnorm(sys.C)


def test_config_validation():
    with pytest.raises(ValueError):
        KlapConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        KlapConfig(max_restarts=-1)
    with pytest.raises(ValueError):
        KlapConfig(init="magic")
    with pytest.raises(TypeError):
        klap(toy_system(0.125), no_such_option=1)
