"""Acceptance gate: six end-to-end criteria, one test (and one printed
PASS line) per criterion, each at its stated tolerance.

Run with ``pytest -v`` for the per-criterion pass/fail lines; the printed
summaries (visible with ``-s`` or in failure output) carry the measured
numbers.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from klap.benchmarks import acc_system, toy_system
from klap.cli import main as cli_main
from klap.linalg import (
    solve_lyapunov,
    solve_lyapunov_transposed,
    sqrtm_psd,
)
from klap.modelio import load_model_file, write_model
from klap.optimizer import (
    LurePoint,
    c_of_l,
    initialize,
    klap,
    lbfgs_minimize,
    objective_and_gradient,
)
from klap.passivity import check_passive, global_min_certificate, solve_are
from klap.system import (
    StateSpaceSystem,
    controllability_gramian,
    h2_error_sq,
    popov_scan,
    transfer_eval,
)

from oracles import (
    kron_lyapunov_oracle,
    lure_point,
    maximal_riccati_oracle,
    original_coordinates,
    random_start,
)


def random_hurwitz(rng, n, margin=0.5):
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + margin + rng.uniform(0, 1)) * np.eye(n)
    return A


def random_system(rng, n, m, d_scale=0.0):
    A = random_hurwitz(rng, n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    if d_scale:
        M0 = d_scale * rng.standard_normal((m, m))
        D = 0.5 * (M0 @ M0.T) + 0.05 * d_scale**2 * np.eye(m)
    else:
        D = np.zeros((m, m))
    return StateSpaceSystem(A, B, C, D)


def random_passive_system(rng, n, m, margin=0.25):
    A = random_hurwitz(rng, n)
    B = rng.standard_normal((n, m))
    L = rng.standard_normal((n, m))
    M0 = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    X = solve_lyapunov_transposed(A, L @ L.T)
    C = B.T @ X + M0 @ L.T
    D = 0.5 * (M0 @ M0.T) + margin * np.eye(m)
    return StateSpaceSystem(A, B, C, D)


def h2_error_sq_quadrature(sys, C_hat, points=20000):
    """Frequency-domain oracle: (1/pi) * integral of the squared Frobenius
    norm of the response difference, by trapezoid on a wide log grid."""
    other = sys.with_output(C_hat)
    rho = max(1.0, np.abs(np.linalg.eigvals(sys.A)).max())
    w = np.geomspace(1e-6 * rho, 1e6 * rho, points)
    vals = np.array(
        [
            np.linalg.norm(
                transfer_eval(sys, 1j * f) - transfer_eval(other, 1j * f), "fro"
            )
            ** 2
            for f in w
        ]
    )
    integral = np.trapezoid(vals, w)
    d0 = np.linalg.norm(transfer_eval(sys, 0.0) - transfer_eval(other, 0.0), "fro") ** 2
    integral += 0.5 * (d0 + vals[0]) * w[0]
    return integral / np.pi


def test_criterion_1_toy_m0_unique_global_optimum():
    # 10 random seeds on the feedthrough-free toy system: every run reaches
    # J = 0.94 +- 0.01 with the unique output map [0.46, 0.80] +- 0.01
    start = time.perf_counter()
    sys = toy_system()
    values, maps = [], []
    for seed in range(10):
        res = klap(sys, L0=random_start(sys, seed), rng_seed=seed)
        assert res.J_final == pytest.approx(0.94, abs=0.01), f"seed {seed}"
        assert_allclose(res.C_hat, [[0.46, 0.80]], atol=0.01, err_msg=f"seed {seed}")
        values.append(res.J_final)
        maps.append(res.C_hat)
    wall = time.perf_counter() - start
    assert wall < 1.0, f"runtime budget exceeded: {wall:.2f} s"
    print(
        f"CRITERION 1 PASS - toy M=0, 10 seeds: J in "
        f"[{min(values):.5f}, {max(values):.5f}] (target 0.94+-0.01), "
        f"C_hat ~ {np.round(np.mean(maps, axis=0), 4).tolist()} "
        f"(target [0.46, 0.80]+-0.01), {wall:.2f} s"
    )


def test_criterion_2_toy_restart_escapes_local_minimum():
    # from L0 = [-2, 0]: inner minimization lands on the non-global map
    # [0, 1]; the certificate speaks (eigenvalues +-3, non-global); the
    # restarted run reaches [0.84, 0.34] with a certified spectrum
    start = time.perf_counter()
    sys = toy_system(0.125)
    P = controllability_gramian(sys)
    M = np.array([[0.5]])

    inner = lbfgs_minimize(*original_coordinates(sys, P, M), np.array([[-2.0], [0.0]]))
    C_loc = c_of_l(sys, LurePoint(inner.L, M))
    assert_allclose(C_loc, [[0.0, 1.0]], atol=0.01)

    cert_loc = global_min_certificate(sys, inner.L)
    eigs = np.sort_complex(cert_loc.eigenvalues)
    assert_allclose(eigs.real, [-3.0, 3.0], atol=0.01)
    assert_allclose(eigs.imag, [0.0, 0.0], atol=0.01)
    assert not cert_loc.is_global_candidate

    full = klap(sys, L0=[[-2.0], [0.0]])
    assert_allclose(full.C_hat, [[0.84, 0.34]], atol=0.01)
    assert full.certificate.max_abs_real <= 2e-2
    assert full.certificate.is_global_candidate

    wall = time.perf_counter() - start
    assert wall < 1.0, f"runtime budget exceeded: {wall:.2f} s"
    print(
        f"CRITERION 2 PASS - local map {np.round(C_loc, 4).tolist()}, "
        f"certificate eigenvalues {np.round(eigs.real, 4).tolist()} (target +-3), "
        f"restarted map {np.round(full.C_hat, 4).tolist()} with "
        f"max|Re| = {full.certificate.max_abs_real:.2e} <= 2e-2, {wall:.2f} s"
    )


def test_criterion_3_acc_benchmark_errors():
    # ACC with D = 1/8 from the Riccati initialization, with D = 0, and
    # from 10 random seeds with restarts enabled
    start = time.perf_counter()

    res_are = klap(acc_system(0.125))
    assert res_are.h2_error == pytest.approx(0.871, abs=0.005)

    res_d0 = klap(acc_system(0.0))
    assert res_d0.h2_error == pytest.approx(1.03, abs=0.01)

    seeded = []
    sys = acc_system(0.125)
    for seed in range(10):
        res = klap(sys, L0=random_start(sys, seed), rng_seed=seed)
        assert res.h2_error <= 0.875, f"seed {seed}: stuck at {res.h2_error:.4f}"
        seeded.append(res)

    wall = time.perf_counter() - start
    assert wall < 5.0, f"runtime budget exceeded: {wall:.2f} s"
    print(
        f"CRITERION 3 PASS - ACC D=1/8: {res_are.h2_error:.5f} "
        f"(target 0.871+-0.005, {res_are.iterations} iterations reported); "
        f"D=0: {res_d0.h2_error:.5f} (target 1.03+-0.01); 10 random seeds max "
        f"{max(r.h2_error for r in seeded):.5f} <= 0.875 with restarts "
        f"{[r.restarts for r in seeded]}; {wall:.2f} s"
    )


def test_criterion_4_acc_initialization_values():
    # feedthrough shift and initial error of the Riccati initialization on
    # ACC with D = 1/8, under the default frequency grid
    sys = acc_system(0.125)
    ini = initialize(sys)
    assert ini.delta == pytest.approx(1.14, abs=0.05)

    P = controllability_gramian(sys)
    J0 = objective_and_gradient(sys, P, lure_point(sys, ini.L0)).J
    initial_error = float(np.sqrt(J0))
    assert initial_error == pytest.approx(1.25, abs=0.05)
    print(
        f"CRITERION 4 PASS - ACC shift {ini.delta:.4f} (target 1.14+-0.05), "
        f"initial H2 error {initial_error:.4f} (target 1.25+-0.05)"
    )


def test_criterion_5_property_suite():
    rng = np.random.default_rng(2024)

    # (a) analytic gradient vs central finite differences
    worst_grad = 0.0
    for k in range(20):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        m = min(m, n)
        sys = random_system(rng, n, m, d_scale=0.8 if k % 2 == 0 else 0.0)
        P = controllability_gramian(sys)
        point = lure_point(sys, rng.standard_normal((n, m)))
        grad = objective_and_gradient(sys, P, point).grad
        h = 1e-6 * (1.0 + np.linalg.norm(point.L, "fro"))
        fd = np.zeros_like(point.L)
        for i in range(n):
            for j in range(m):
                Lp, Lm = point.L.copy(), point.L.copy()
                Lp[i, j] += h
                Lm[i, j] -= h
                fd[i, j] = (
                    objective_and_gradient(sys, P, LurePoint(Lp, point.M)).J
                    - objective_and_gradient(sys, P, LurePoint(Lm, point.M)).J
                ) / (2 * h)
        rel = np.linalg.norm(grad - fd, "fro") / max(1.0, np.linalg.norm(fd, "fro"))
        worst_grad = max(worst_grad, rel)
        assert rel <= 1e-5, f"gradient instance {k}: {rel:.2e}"

    # (b) passivity by construction: 100 random factors
    worst_margin = np.inf
    bases = [random_system(rng, 5, 2, d_scale=1.0), random_system(rng, 4, 1, d_scale=0.6)]
    for k in range(100):
        sys = bases[k % 2]
        M = sqrtm_psd(sys.D + sys.D.T)
        L = (10.0 ** rng.integers(-1, 2)) * rng.standard_normal((sys.n, sys.m))
        candidate = sys.with_output(c_of_l(sys, LurePoint(L, M)))
        scan = popov_scan(candidate)
        scale = max(1.0, float(np.abs(scan.min_eigenvalues).max()))
        worst_margin = min(worst_margin, scan.global_min / scale)
        assert scan.global_min >= -1e-8 * scale, f"factor {k}"
        assert check_passive(candidate).passive, f"factor {k}"

    # (c) Lyapunov solvers vs the Kronecker oracle, plus the trace identity
    worst_lyap = 0.0
    for k in range(50):
        n = int(rng.integers(2, 31))
        A = random_hurwitz(rng, n)
        W = rng.standard_normal((n, n))
        W = W + W.T
        expected = kron_lyapunov_oracle(A, W)
        got = solve_lyapunov(A, W)
        rel = np.linalg.norm(got - expected, "fro") / max(
            1.0, np.linalg.norm(expected, "fro")
        )
        worst_lyap = max(worst_lyap, rel)
        assert rel <= 1e-9, f"lyapunov instance {k}: {rel:.2e}"

        F = rng.standard_normal((n, n))
        F = F + F.T
        Z = solve_lyapunov_transposed(A, F)
        t1, t2 = np.trace(W.T @ Z), np.trace(F.T @ got)
        assert abs(t1 - t2) <= 1e-10 * max(1.0, abs(t1), abs(t2)), f"trace {k}"

    # (d) orthogonal and sign invariance of the output map for M = 0
    sys = random_system(rng, 6, 3)
    M0 = np.zeros((3, 3))
    for _ in range(10):
        L = rng.standard_normal((6, 3))
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        C1 = c_of_l(sys, LurePoint(L, M0))
        C2 = c_of_l(sys, LurePoint(L @ U, M0))
        assert np.linalg.norm(C1 - C2, "fro") <= 1e-10 * np.linalg.norm(C1, "fro")
        assert_array_equal(C1, c_of_l(sys, LurePoint(-L, M0)))

    # (e) Riccati closed form and extremal ordering
    scalar = StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    x_min = solve_are(scalar, "minimal").X[0, 0]
    assert x_min == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), abs=1e-10)
    for k in range(10):
        psys = random_passive_system(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)))
        lo = solve_are(psys, "minimal").X
        hi, _ = maximal_riccati_oracle(psys)
        gap_min = float(np.linalg.eigvalsh(hi - lo).min())
        scale = max(1.0, float(np.linalg.norm(hi, "fro")))
        assert gap_min >= -1e-7 * scale, f"ordering instance {k}"

    # (f) Gramian-based squared H2 distance vs frequency quadrature
    worst_h2 = 0.0
    for k in range(10):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        m = min(m, n)
        sys = random_system(rng, n, m, d_scale=0.3)
        C_hat = sys.C + 0.5 * rng.standard_normal(sys.C.shape)
        exact = h2_error_sq(sys, C_hat)
        approx = h2_error_sq_quadrature(sys, C_hat, points=4000)
        rel = abs(exact - approx) / max(1e-300, abs(exact))
        worst_h2 = max(worst_h2, rel)
        assert rel <= 1e-3, f"h2 instance {k}: {rel:.2e}"

    print(
        "CRITERION 5 PASS - a: gradient vs FD worst rel "
        f"{worst_grad:.2e} <= 1e-5 (20 instances); b: 100 factors passive, "
        f"worst scan margin/scale {worst_margin:.2e} >= -1e-8; c: solver vs "
        f"Kronecker oracle worst rel {worst_lyap:.2e} <= 1e-9 + trace identity "
        "(50 instances); d: orthogonal/sign invariance <= 1e-10; e: scalar "
        f"X_min = {x_min:.12f} (3 - 2*sqrt(2) to 1e-10) + extremal ordering; "
        f"f: quadrature oracle worst rel {worst_h2:.2e} <= 1e-3 (10 instances)"
    )


def test_criterion_6_cli_pipeline(tmp_path, capsys):
    # round-trip serialization is bit-exact and every model written by the
    # passivate command passes the check command, over 50 randomized runs
    rng = np.random.default_rng(77)
    checked = 0
    for k in range(50):
        n = int(rng.integers(2, 7))
        m = min(int(rng.integers(1, 3)), n)
        sys = random_system(rng, n, m, d_scale=0.8 if k % 2 == 0 else 0.0)

        in_path = tmp_path / f"in_{k}.json"
        write_model(sys, in_path, name=f"case-{k}")
        back = load_model_file(in_path).system
        for X, Y in zip((sys.A, sys.B, sys.C, sys.D), (back.A, back.B, back.C, back.D)):
            assert_array_equal(X, Y)

        out_path = tmp_path / f"out_{k}.json"
        code = cli_main(
            [
                "passivate", str(in_path),
                "--out", str(out_path),
                "--report", str(tmp_path / f"rep_{k}.json"),
                "--seed", str(k),
            ]
        )
        assert code in (0, 2), f"case {k}: passivate exited with {code}"

        code = cli_main(["check", str(out_path)])
        captured = capsys.readouterr()
        assert code == 0, f"case {k}: written model not accepted: {captured.out}"
        checked += 1
    capsys.readouterr()
    print(
        f"CRITERION 6 PASS - 50 randomized runs: serialization bit-exact, "
        f"{checked}/50 passivated models accepted by the check command"
    )
