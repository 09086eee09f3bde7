"""Tests for Riccati solves, passivity verdicts, and certificates.

The scalar system (A, B, C, D) = (-1, 1, 1, 1) admits closed-form extremal
Riccati solutions: the equation -2X + (1 - X)^2 / 2 = 0 has roots
X = 3 -/+ 2 sqrt(2), with Lur'e factors M = sqrt(2), L = 2 - sqrt(2) at the
minimal root.  Strictly passive test systems are built from Lur'e data so
passivity holds by construction with a known margin.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klap import passivity
from klap.benchmarks import benchmark_system
from klap.exceptions import NoSolutionError, SingularFeedthroughError
from klap.linalg import solve_lyapunov_transposed
from klap.passivity import (
    _closed_loop,
    check_passive,
    global_min_certificate,
    l_from_are,
    solve_are,
)
from klap.system import StateSpaceSystem, popov_scan
from oracles import (
    kyp_residual,
    lure_residuals,
    maximal_riccati_oracle,
    newton_riccati_oracle,
)


def scalar_system():
    return StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[1.0]])


def toy_system(d=0.0):
    return StateSpaceSystem(
        [[-1.0, 4.0], [-2.0, -1.0]], [[1.0], [2.0]], [[1.0, 0.0]], [[d]]
    )


def boundary_system():
    """G(s) = s / (s + 1): passive with Popov function vanishing at w = 0.

    Built from the Lur'e data X = 1, L = -sqrt(2), M = sqrt(2); both
    extremal Riccati solutions coincide at X = 1.
    """
    return StateSpaceSystem([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])


def random_hurwitz(rng, n):
    A = rng.standard_normal((n, n))
    return A - (np.linalg.eigvals(A).real.max() + 0.5 + rng.uniform(0, 1)) * np.eye(n)


def random_passive_system(rng, n, m, margin=0.25):
    """Strictly passive by construction.

    The output map is assembled from Lur'e data (X, L, M0), which makes the
    KYP matrix PSD, and the feedthrough is then enlarged by ``margin * I``,
    which pushes the Popov function up by ``2 * margin``.
    """
    A = random_hurwitz(rng, n)
    B = rng.standard_normal((n, m))
    L = rng.standard_normal((n, m))
    M0 = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    X = solve_lyapunov_transposed(A, L @ L.T)
    C = B.T @ X + M0 @ L.T
    D = 0.5 * (M0 @ M0.T) + margin * np.eye(m)
    return StateSpaceSystem(A, B, C, D)


def random_indefinite_system(rng, n, m):
    """Random output map with positive definite feedthrough Gram matrix;
    generically not passive."""
    A = random_hurwitz(rng, n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    M0 = rng.standard_normal((m, m))
    D = 0.5 * (M0 @ M0.T) + 0.05 * np.eye(m)
    return StateSpaceSystem(A, B, C, D)


def closed_loop_abscissa(sys, X):
    """Largest eigenvalue real part of ``A - B R^{-1} (C - B^T X)``."""
    R = sys.D + sys.D.T
    return float(np.linalg.eigvals(_closed_loop(sys.A, sys.B, sys.C, R, X)).real.max())


X_MIN_SCALAR = 3.0 - 2.0 * np.sqrt(2.0)
X_MAX_SCALAR = 3.0 + 2.0 * np.sqrt(2.0)


# ---------------------------------------------------------------------------
# KYP block matrix
# ---------------------------------------------------------------------------


def test_kyp_residual_scalar_values():
    sys = scalar_system()
    assert_allclose(kyp_residual(sys, [[0.0]]), [[0.0, 1.0], [1.0, 2.0]], atol=1e-15)
    # at the minimal Riccati solution the KYP matrix is PSD and singular
    W = kyp_residual(sys, [[X_MIN_SCALAR]])
    lam = np.linalg.eigvalsh(W)
    assert lam.min() >= -1e-12 and lam.min() <= 1e-12
    assert lam.max() > 1.0


def test_kyp_residual_is_symmetric():
    rng = np.random.default_rng(0)
    sys = random_passive_system(rng, 5, 2)
    X = rng.standard_normal((5, 5))
    X = X + X.T
    W = kyp_residual(sys, X)
    assert W.shape == (7, 7)
    assert np.array_equal(W, W.T)


def test_kyp_residual_rejects_bad_shape():
    with pytest.raises(ValueError):
        kyp_residual(scalar_system(), np.eye(2))


# ---------------------------------------------------------------------------
# Riccati equation: extremal solutions
# ---------------------------------------------------------------------------


def test_are_scalar_minimal_closed_form():
    sol = solve_are(scalar_system(), "minimal")
    assert sol.X.shape == (1, 1)
    assert abs(sol.X[0, 0] - X_MIN_SCALAR) <= 1e-10
    # closed loop A - B R^{-1} (C - B^T X) = -sqrt(2)
    assert sol.closed_loop_max_real == pytest.approx(-np.sqrt(2.0), abs=1e-8)
    assert sol.residual <= 1e-10


def test_are_scalar_maximal_closed_form():
    sys = scalar_system()
    X, _ = maximal_riccati_oracle(sys)
    assert abs(X[0, 0] - X_MAX_SCALAR) <= 1e-8
    # maximal solution has the anti-stable closed loop +sqrt(2)
    assert closed_loop_abscissa(sys, X) == pytest.approx(np.sqrt(2.0), abs=1e-8)


def test_are_minimal_random_passive_systems():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        sys = random_passive_system(rng, n, m)
        sol = solve_are(sys, "minimal")
        scale = max(1.0, np.linalg.norm(sol.X, "fro"))
        assert sol.residual <= 1e-9 * scale
        assert_allclose(sol.X, sol.X.T, atol=1e-14 * scale)
        # minimal solution of a passive system is PSD with stable closed loop
        assert np.linalg.eigvalsh(sol.X).min() >= -1e-9 * scale
        assert sol.closed_loop_max_real <= 1e-8 * (1 + np.linalg.norm(sys.A))


@pytest.mark.parametrize("n, m, seed", [(8, 2, 3), (16, 3, 4)])
def test_solve_are_computes_each_closed_loop_spectrum_once(monkeypatch, n, m, seed):
    # each closed loop is factored once, into the real Schur form of its
    # transpose: (A - B R^{-1} C)^T for the zero-gain start's first step,
    # taken in closed form (its iterate is X = 0, so it needs no Lyapunov
    # solve), then one form per damping trial, whose eigenvalues test the
    # trial and, once it is accepted, whose factorization the next
    # Lyapunov solve uses; A^T itself is never factored; no eigvals call
    sys = random_passive_system(np.random.default_rng(seed), n, m)
    real_schur, bartels_stewart = passivity._real_schur, passivity._bartels_stewart
    factored, forms, solved_with = [], [], []

    def counting_schur(a):
        factored.append(a.copy())
        forms.append(real_schur(a))
        return forms[-1]

    def recording_solve(schur, q):
        solved_with.append(schur)
        return bartels_stewart(schur, q)

    def no_eigvals(a):
        raise AssertionError("eigvals called inside the Newton iteration")

    monkeypatch.setattr(passivity, "_real_schur", counting_schur)
    monkeypatch.setattr(passivity, "_bartels_stewart", recording_solve)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    sol = solve_are(sys, "minimal")
    monkeypatch.undo()
    assert sol.newton_iterations >= 5
    assert len({a.tobytes() for a in factored}) == len(factored) >= sol.newton_iterations
    R = sys.D + sys.D.T
    assert np.array_equal(factored[0], _closed_loop(sys.A, sys.B, sys.C, R, np.zeros((n, n))).T)
    assert not any(np.array_equal(a, sys.A.T) for a in factored)
    assert len(solved_with) == sol.newton_iterations - 1
    assert all(any(s is f for f in forms) for s in solved_with)
    Y = _closed_loop(sys.A, sys.B, sys.C, R, sol.X)
    assert np.array_equal(factored[-1], Y.T)
    assert sol.closed_loop_max_real == float(real_schur(Y.T)[2].max())


# (n, m) of the seeded random inputs of the Riccati sweep below
RICCATI_SWEEP_SHAPES = (
    (2, 1), (2, 2), (3, 1), (4, 3), (5, 2), (6, 4), (8, 1), (8, 2),
    (12, 3), (16, 4), (24, 2), (32, 1), (48, 3), (64, 2), (64, 4),
)


def _riccati_sweep_input(name):
    """A stable input of the sweep: a bundled model, or a random system
    ``n x m / seed`` with spectral abscissa -0.5 and ``D = 0.05 I``."""
    if not name.startswith("rand"):
        return benchmark_system(name)
    shape, seed = name[5:].split("/")
    n, m = map(int, shape.split("x"))
    rng = np.random.default_rng(int(seed))
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    return StateSpaceSystem(A, rng.standard_normal((n, m)), rng.standard_normal((m, n)),
                            0.05 * np.eye(m))


@pytest.mark.parametrize("attempt", [0, 1])
@pytest.mark.parametrize(
    "name",
    ["toy-m0", "toy-m1", "acc"]
    + [f"rand-{n}x{m}/{seed}" for seed, (n, m) in enumerate(RICCATI_SWEEP_SHAPES)],
)
def test_solve_are_matches_the_newton_oracle_bit_for_bit(name, attempt):
    # the feedthrough shifts of optimizer.initialize: both attempts, so the
    # sweep includes toy-m0's and toy-m1's failing first shift
    sys = _riccati_sweep_input(name)
    popov_min = popov_scan(sys).global_min
    eps = 1e-3 * abs(popov_min) * (1.0, 10.0)[attempt]
    delta = max(eps, -popov_min / 2.0 + eps)
    shifted = sys.with_feedthrough(sys.D + delta * np.eye(sys.m))

    def outcome(solve):
        try:
            return solve()
        except NoSolutionError as exc:
            return str(exc)

    got = outcome(lambda: solve_are(shifted, "minimal"))
    want = outcome(lambda: newton_riccati_oracle(
        shifted.A, shifted.B, shifted.C, shifted.D + shifted.D.T))
    if name in ("toy-m0", "toy-m1") and attempt == 0:
        assert isinstance(want, str)
    if isinstance(want, str):
        assert got == want
    else:
        X, iterations, residual = want
        assert np.array_equal(got.X, X)
        assert (got.newton_iterations, got.residual) == (iterations, residual)


def test_are_extremal_ordering():
    # lattice ordering: X_min <= X <= X_max for every solution X
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        sys = random_passive_system(rng, n, m)
        lo = solve_are(sys, "minimal")
        hi, _ = maximal_riccati_oracle(sys)
        gap = hi - lo.X
        scale = max(1.0, np.linalg.norm(hi, "fro"))
        assert np.linalg.eigvalsh(gap).min() >= -1e-7 * scale


def test_are_maximal_single_input_wide_spectrum():
    # single-input systems with spread-out spectra produce severely
    # ill-conditioned shifted Gramians; the maximal solve must not depend
    # on stabilizing the sign-reversed (anti-stable) state matrix
    for seed in (2, 3, 12, 18, 20, 25):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        sys = random_passive_system(rng, n, m)
        lo = solve_are(sys, "minimal")
        hi, residual = maximal_riccati_oracle(sys)
        scale = max(1.0, np.linalg.norm(hi, "fro"))
        assert residual <= 1e-9 * scale
        assert np.linalg.eigvalsh(hi - lo.X).min() >= -1e-7 * scale
        assert closed_loop_abscissa(sys, hi) >= -1e-8 * scale


def test_are_boundary_system_double_root():
    # extremal solutions coincide at X = 1 (Popov function touches zero)
    sol = solve_are(boundary_system(), "minimal", tol=1e-8)
    assert sol.X[0, 0] == pytest.approx(1.0, abs=1e-3)
    assert sol.residual <= 1e-7


def test_are_not_passive_raises():
    with pytest.raises(NoSolutionError):
        solve_are(toy_system(0.125))


def test_are_singular_feedthrough_raises():
    with pytest.raises(SingularFeedthroughError):
        solve_are(toy_system(0.0))


def test_are_kind_validated():
    # only the minimal solution is computed; the maximal one lives in the
    # test oracles
    for kind in ("median", "maximal"):
        with pytest.raises(ValueError):
            solve_are(scalar_system(), kind=kind)


# ---------------------------------------------------------------------------
# Lur'e factors
# ---------------------------------------------------------------------------


def test_l_from_are_scalar_closed_form():
    sys = scalar_system()
    sol = solve_are(sys, "minimal")
    L, M = l_from_are(sys, sol.X)
    assert_allclose(M, [[np.sqrt(2.0)]], atol=1e-14)
    assert_allclose(L, [[2.0 - np.sqrt(2.0)]], atol=1e-9)


def test_l_from_are_singular_feedthrough_raises():
    with pytest.raises(SingularFeedthroughError):
        l_from_are(toy_system(0.0), np.zeros((2, 2)))


def test_lure_residuals_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        sys = random_passive_system(rng, n, m)
        sol = solve_are(sys, "minimal")
        L, M = l_from_are(sys, sol.X)
        r_state, r_output, r_feed = lure_residuals(sys, sol.X, L, M)
        scale = max(1.0, np.linalg.norm(sol.X, "fro"))
        # state defect equals the Riccati residual; the other two are exact
        assert r_state <= 1e-8 * scale
        assert r_output <= 1e-11 * scale
        assert r_feed <= 1e-12 * scale


def test_kyp_psd_at_minimal_solution():
    rng = np.random.default_rng(6)
    for _ in range(5):
        sys = random_passive_system(rng, int(rng.integers(2, 6)), 1)
        sol = solve_are(sys, "minimal")
        W = kyp_residual(sys, sol.X)
        assert np.linalg.eigvalsh(W).min() >= -1e-7 * max(1.0, np.linalg.norm(W))


# ---------------------------------------------------------------------------
# passivity verdicts
# ---------------------------------------------------------------------------


def test_check_passive_strict_construction():
    rng = np.random.default_rng(7)
    margin = 0.25
    for _ in range(5):
        sys = random_passive_system(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)), margin)
        for method in ("hamiltonian", "popov-scan"):
            verdict = check_passive(sys, method=method)
            assert verdict.passive, method
    # the scan margin reflects the feedthrough enlargement
    verdict = check_passive(sys, method="popov-scan")
    assert verdict.margin >= 1.9 * margin


def test_check_passive_known_non_passive():
    v0 = check_passive(toy_system(0.0))
    assert not v0.passive and v0.method == "popov-scan"
    assert v0.margin == pytest.approx(-0.589481, abs=2e-4)

    v8 = check_passive(toy_system(0.125))
    assert not v8.passive
    assert v8.margin == pytest.approx(-0.339481, abs=2e-4)


def test_check_passive_boundary_touch_uses_scan():
    # Hamiltonian eigenvalues sit on the axis (double root at 0), so the
    # verdict must come from the tolerance-aware scan and still be passive.
    verdict = check_passive(boundary_system())
    assert verdict.passive
    assert verdict.method == "popov-scan"
    assert abs(verdict.margin) <= 1e-12


def test_check_passive_hamiltonian_agrees_with_scan():
    rng = np.random.default_rng(8)
    checked = 0
    for k in range(50):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 3))
        if k % 2 == 0:
            sys = random_passive_system(rng, n, m)
        else:
            sys = random_indefinite_system(rng, n, m)
        scan = check_passive(sys, method="popov-scan")
        scale = max(1.0, abs(scan.margin))
        if abs(scan.margin) <= 1e-6 * scale:
            continue  # too close to the boundary for a meaningful comparison
        ham = check_passive(sys, method="hamiltonian")
        assert ham.passive == scan.passive, f"disagreement on system {k}"
        checked += 1
    assert checked >= 45


def test_check_passive_method_validation():
    for method in ("magic", "are"):
        with pytest.raises(ValueError, match="unknown method"):
            check_passive(scalar_system(), method=method)
    with pytest.raises(SingularFeedthroughError):
        check_passive(toy_system(0.0), method="hamiltonian")


def test_check_passive_singular_feedthrough_auto_falls_back():
    # D = 0 forces the scan; the toy system without feedthrough is active
    verdict = check_passive(toy_system(0.0), method="auto")
    assert verdict.method == "popov-scan" and not verdict.passive


def test_check_passive_respects_custom_grid():
    sys = toy_system(0.125)
    scan = popov_scan(sys)
    grid = scan.frequencies[:: 10]
    verdict = check_passive(sys, method="popov-scan", grid=grid)
    assert not verdict.passive


# ---------------------------------------------------------------------------
# global-optimality certificate
# ---------------------------------------------------------------------------


def test_certificate_vacuous_when_m_zero():
    sys = toy_system(0.0)
    cert = global_min_certificate(sys, np.zeros((1, 1)), np.ones((2, 1)))
    assert cert.vacuous and cert.is_global_candidate
    assert cert.eigenvalues.size == 0 and cert.max_abs_real == 0.0


def test_certificate_axis_spectrum_scalar():
    # Y = A - B R^{-1} M L^T = -1 + 1 = 0 for L = -sqrt(2): certified
    sys = scalar_system()
    cert = global_min_certificate(sys, [[np.sqrt(2.0)]], [[-np.sqrt(2.0)]])
    assert cert.max_abs_real <= 1e-14
    assert cert.is_global_candidate and not cert.vacuous
    # flipping the factor sign moves the eigenvalue to -2: not certified
    cert2 = global_min_certificate(sys, [[np.sqrt(2.0)]], [[np.sqrt(2.0)]])
    assert cert2.max_abs_real == pytest.approx(2.0, abs=1e-12)
    assert not cert2.is_global_candidate


def test_certificate_default_tolerance_scales_with_a():
    sys = scalar_system()
    cert = global_min_certificate(sys, [[np.sqrt(2.0)]], [[-np.sqrt(2.0)]])
    assert cert.tolerance == pytest.approx(1e-6 * np.linalg.norm(sys.A, "fro"))
    tight = global_min_certificate(sys, [[np.sqrt(2.0)]], [[-np.sqrt(2.0)]], tol=1e-15)
    assert tight.tolerance == 1e-15


def test_certificate_singular_feedthrough_with_factor_raises():
    with pytest.raises(SingularFeedthroughError):
        global_min_certificate(toy_system(0.0), np.ones((1, 1)), np.ones((2, 1)))
