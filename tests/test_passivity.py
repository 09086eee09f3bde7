"""Tests for Riccati solves, passivity verdicts, and certificates.

The scalar system (A, B, C, D) = (-1, 1, 1, 1) admits closed-form extremal
Riccati solutions: the equation -2X + (1 - X)^2 / 2 = 0 has roots
X = 3 -/+ 2 sqrt(2), with Lur'e factors M = sqrt(2), L = 2 - sqrt(2) at the
minimal root.  Strictly passive test systems are built from Lur'e data so
passivity holds by construction with a known margin.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from klap import passivity
from klap.benchmarks import benchmark_system
from klap.exceptions import DimensionMismatchError, NoSolutionError, SingularFeedthroughError
from klap.linalg import solve_lyapunov_transposed
from klap.optimizer import _GRAMIAN_FLOOR, klap
from klap.passivity import (
    _DUAL_GAP_RTOL,
    _closed_loop,
    _passive_tolerance,
    check_passive,
    global_min_certificate,
    l_from_are,
    solve_are,
)
from klap.system import StateSpaceSystem, controllability_gramian, popov_scan
from oracles import (
    kyp_dual_gap,
    kyp_residual,
    lure_residuals,
    maximal_riccati_oracle,
    newton_riccati_oracle,
    rand_family_system,
    random_start,
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


# inputs of the test below: random passive systems n-m-seed, and rand 8x1/2
# at initialize's first shift
SPECTRUM_ONCE_INPUTS = {
    "8-2-3": lambda: random_passive_system(np.random.default_rng(3), 8, 2),
    "16-3-4": lambda: random_passive_system(np.random.default_rng(4), 16, 3),
    "rand-8x1/2": lambda: _initialize_shift("rand-8x1/2", 0),
}


@pytest.mark.parametrize("name", list(SPECTRUM_ONCE_INPUTS))
def test_solve_are_computes_each_closed_loop_spectrum_once(monkeypatch, name):
    # each closed loop that decides a step is factored once, into the real
    # Schur form of its transpose: (A - B R^{-1} C)^T for the zero-gain
    # start's first step, taken in closed form (its iterate is X = 0, so it
    # needs no Lyapunov solve), then one form per damping trial whose
    # residual did not rise, whose eigenvalues test the trial and, once it
    # is accepted, whose factorization the next Lyapunov solve uses.  A
    # trial whose residual rose is rejected unfactored (rand 8x1/2 at
    # initialize's first shift has one, then stops at a damped stall), and
    # the last form, of the trial that meets the tolerance or of the
    # refinement's closed loop, carries no Schur vectors; A^T itself is
    # never factored, and eigvals is never called
    sys = SPECTRUM_ONCE_INPUTS[name]()
    n = sys.n
    real_schur, bartels_stewart = passivity._real_schur, passivity._bartels_stewart
    are_residual, residual_norm = passivity._are_residual, passivity._residual_norm
    factored, forms, solved_with, events = [], [], [], []

    def counting_schur(a, vectors=True):
        factored.append(a.copy())
        forms.append(real_schur(a, vectors))
        events.append(("schur", forms[-1]))
        return forms[-1]

    def recording_residual(A, B, C, X, F):
        out = are_residual(A, B, C, X, F)
        events.append(("residual", np.linalg.norm(out, "fro")))
        return out

    def refinement_residual(*args):
        events.append(("refinement", None))
        return residual_norm(*args)

    def recording_solve(schur, q):
        solved_with.append(schur)
        return bartels_stewart(schur, q)

    def no_eigvals(a):
        raise AssertionError("eigvals called inside the Newton iteration")

    monkeypatch.setattr(passivity, "_real_schur", counting_schur)
    monkeypatch.setattr(passivity, "_are_residual", recording_residual)
    monkeypatch.setattr(passivity, "_residual_norm", refinement_residual)
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
    assert forms[-1][1] is None and all(f[1] is not None for f in forms[:-1])
    T, _, re = real_schur(Y.T)
    assert np.array_equal(forms[-1][0], T) and np.array_equal(forms[-1][2], re)
    assert sol.closed_loop_max_real == float(re.max())
    # replay the Newton phase: the zero start's residual, then its
    # closed-form step's form; after it a trial is factored iff its residual
    # is at most the accepted one, and accepted iff its form is also Hurwitz
    refined = ("refinement", None) in events
    if refined:
        events = events[:events.index(("refinement", None))]
    assert refined == (name == "rand-8x1/2")
    (_, res_norm), (kind, _), *trials = events
    assert kind == "schur"
    rose = 0
    for (kind, r_t), following in zip(trials, trials[1:] + [("end", None)]):
        if kind != "residual":
            continue
        assert (following[0] == "schur") == (r_t <= res_norm)
        rose += r_t > res_norm
        if following[0] == "schur" and following[1][2].max() < 0:
            res_norm = r_t
    assert (rose > 0) == refined


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


def _initialize_shift(name, attempt):
    """The system :func:`klap.optimizer.initialize` solves at its first
    (``attempt = 0``) or tenfold (``1``) feedthrough shift of ``name``."""
    sys = _riccati_sweep_input(name)
    popov_min = popov_scan(sys).global_min
    eps = 1e-3 * abs(popov_min) * (1.0, 10.0)[attempt]
    delta = max(eps, -popov_min / 2.0 + eps)
    return sys.with_feedthrough(sys.D + delta * np.eye(sys.m))


@pytest.mark.parametrize("attempt", [0, 1])
@pytest.mark.parametrize(
    "name",
    ["toy-m0", "toy-m1", "acc"]
    + [f"rand-{n}x{m}/{seed}" for seed, (n, m) in enumerate(RICCATI_SWEEP_SHAPES)],
)
def test_solve_are_matches_the_newton_oracle_bit_for_bit(name, attempt):
    # the feedthrough shifts of optimizer.initialize: both attempts, so the
    # sweep includes toy-m0's and toy-m1's failing first shift
    shifted = _initialize_shift(name, attempt)

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


def riccati_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "klap.passivity" and r.getMessage().startswith("Riccati solve")]


# the debug line of one Riccati solve at initialize's first shift of each input
RICCATI_LOG_LINES = {
    # a damped stall after the closed-form step and one damped step, then
    # the refinement is returned
    "acc": r"2 Newton iterations, stopped at a damped stall at residual (\S+); "
           r"Hamiltonian-Schur refinement residual (\S+) vs tolerance (\S+): returned",
    # Newton converges: no refinement runs
    "rand-8x1/1": r"(\d+) Newton iterations, converged",
    # the failing first shift: the refinement misses its tolerance
    "toy-m0": r"8 Newton iterations, stopped at a damped stall at residual (\S+); "
              r"Hamiltonian-Schur refinement residual (\S+) vs tolerance (\S+): "
              r"rejected: residual above tolerance",
}


@pytest.mark.parametrize("name", list(RICCATI_LOG_LINES))
def test_solve_are_logs_one_line_per_solve(name, caplog):
    outcome = RICCATI_LOG_LINES[name]
    shifted = _initialize_shift(name, 0)
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        try:
            sol = solve_are(shifted, "minimal")
        except NoSolutionError as exc:
            sol = exc
    (line,) = riccati_lines(caplog)
    match = re.fullmatch(f"Riccati solve: {outcome}", line)
    assert match, line
    if name == "rand-8x1/1":
        assert int(match[1]) == sol.newton_iterations
        return
    newton, refined, tolerance = map(float, match.groups())
    assert newton > tolerance
    if name == "acc":
        assert sol.newton_iterations == 2
        assert refined <= tolerance and f"{sol.residual:.3e}" == match[2]
    else:
        assert refined > tolerance
        assert str(sol).startswith(f"Riccati iteration did not converge (residual {match[2]} "
                                   f"vs tolerance {match[3]})")


def test_solve_are_judges_the_refinement_on_its_own_tolerance(monkeypatch, caplog):
    # acc at initialize's tenfold shift stops Newton at a damped stall, at
    # residual 0.229 and relative residual 0.18, so tol = 0.1 keeps the
    # same Newton path.  A refinement returning 1.2 X_min has the larger
    # residual 0.434 but meets tol at its own scale (0.54), and its closed
    # loop is stable, so it is returned: judged against the stalled iterate's
    # residual, it would have been discarded
    shifted = _initialize_shift("acc", 1)
    care = scipy.linalg.solve_continuous_are
    monkeypatch.setattr(scipy.linalg, "solve_continuous_are",
                        lambda *args, **kwargs: 1.2 * care(*args, **kwargs))
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        sol = solve_are(shifted, "minimal", tol=0.1)
    monkeypatch.undo()
    (line,) = riccati_lines(caplog)
    match = re.search(r"stopped at a damped stall at residual (\S+); Hamiltonian-Schur "
                      r"refinement residual (\S+) vs tolerance (\S+): returned", line)
    assert match, line
    newton, refined, tolerance = map(float, match.groups())
    assert newton < refined <= tolerance
    A, B, C, R = shifted.A, shifted.B, shifted.C, shifted.D + shifted.D.T
    X = 1.2 * care(A, B, np.zeros_like(A), -R, s=-C.T)
    X = 0.5 * (X + X.T)
    assert np.array_equal(sol.X, X)
    assert sol.residual == passivity._residual_norm(A, B, C, R, X)
    assert sol.closed_loop_max_real == pytest.approx(closed_loop_abscissa(shifted, X), abs=1e-12)
    assert sol.closed_loop_max_real < 0


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
        assert check_passive(sys).passive
        assert popov_scan(sys).global_min >= -_passive_tolerance(sys)
    # the scan margin reflects the feedthrough enlargement
    assert popov_scan(sys).global_min >= 1.9 * margin


def test_check_passive_known_non_passive():
    v0 = check_passive(toy_system(0.0))
    assert not v0.passive
    assert v0.margin == pytest.approx(-0.589481, abs=2e-4)

    v8 = check_passive(toy_system(0.125))
    assert not v8.passive
    assert v8.margin == pytest.approx(-0.339481, abs=2e-4)


def test_check_passive_boundary_touch_is_passive():
    # the Popov function touches zero at w = 0, inside the tolerance
    verdict = check_passive(boundary_system())
    assert verdict.passive
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
        scan_min = popov_scan(sys).global_min
        if abs(scan_min) <= 1e-6 * max(1.0, abs(scan_min)):
            continue  # too close to the boundary for a meaningful comparison
        ham = check_passive(sys)
        assert ham.passive == (scan_min >= -_passive_tolerance(sys)), \
            f"disagreement on system {k}"
        checked += 1
    assert checked >= 45


def test_check_passive_zero_feedthrough_toy_is_not_passive():
    verdict = check_passive(toy_system(0.0))
    assert not verdict.passive and verdict.margin < 0.0


def test_check_passive_samples_the_crossing_frequencies():
    # klap's optimum of rand 6x1/2 touches the passive boundary near
    # w = 0.42; a millionth of the way back towards C opens a violation of
    # -1.1e-6 narrower than the default grid's spacing, which the grid alone
    # misses and the Hamiltonian crossing frequencies sample
    sys = rand_family_system(6, 1, 2)
    C_hat = klap(sys).C_hat
    assert check_passive(sys.with_output(C_hat)).passive
    stepped = sys.with_output(C_hat + 1e-6 * (sys.C - C_hat))
    assert popov_scan(stepped).global_min >= -_passive_tolerance(stepped)
    verdict = check_passive(stepped)
    assert not verdict.passive
    assert verdict.margin == pytest.approx(-1.0995e-6, rel=1e-3)


def _assert_violation_caught(sys):
    """``klap``'s optimum of ``sys`` passes; stepped ``t = 1e-7`` and
    ``1e-6`` back toward ``C`` it opens a violation of order ``t`` whose
    depth the margin reads to 2 % of a dense-grid minimum."""
    C_opt = klap(sys).C_hat
    assert check_passive(sys.with_output(C_opt)).passive
    for t in (1e-7, 1e-6):
        near = sys.with_output(C_opt + t * (sys.C - C_opt))
        dense = popov_scan(near, grid=np.linspace(0.0, 2.0, 200_001)).global_min
        assert dense < -t
        verdict = check_passive(near)
        assert not verdict.passive
        assert verdict.margin == pytest.approx(dense, rel=0.02)


def test_check_passive_zero_feedthrough_near_the_boundary():
    # acc: the dip (about -1.8 t) is narrower than the default grid's spacing
    _assert_violation_caught(benchmark_system("acc"))
    # toy-m0: the step back is a rounding-level change, within tolerance
    sys = benchmark_system("toy-m0")
    C_opt = klap(sys).C_hat
    assert check_passive(sys.with_output(C_opt + 1e-6 * (sys.C - C_opt))).passive


def test_check_passive_singular_feedthrough_near_the_boundary():
    # D + D^T = diag(1, 0): the dip (about -6.5 t) is narrower than the
    # default grid's spacing
    _assert_violation_caught(rand_family_system(6, 2, 3).with_feedthrough(np.diag([0.5, 0.0])))


def test_check_passive_skew_feedthrough_is_judged_like_zero():
    # a skew D leaves the Popov function of D = 0 unchanged
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = np.array([[1.0, 0.5], [0.0, 1.0], [2.0, -1.0]])
    positive_real = StateSpaceSystem(-np.diag([1.0, 2.0, 3.0]), B, B.T, np.zeros((2, 2)))
    assert check_passive(positive_real).passive
    assert check_passive(positive_real.with_feedthrough(skew)).passive
    sys = rand_family_system(6, 2, 3).with_feedthrough(np.zeros((2, 2)))
    C_opt = klap(sys).C_hat
    near = sys.with_output(C_opt + 1e-6 * (sys.C - C_opt))
    dense = popov_scan(near, grid=np.linspace(0.0, 2.0, 200_001)).global_min
    for D in (np.zeros((2, 2)), skew):
        verdict = check_passive(near.with_feedthrough(D))
        assert not verdict.passive
        assert verdict.margin == pytest.approx(dense, rel=0.02)


def test_check_passive_indefinite_feedthrough_margin():
    # Phi(i w) -> D + D^T at high frequency
    D = np.array([[1.0, 0.3], [0.1, -0.5]])
    sys = rand_family_system(6, 2, 1).with_feedthrough(D)
    verdict = check_passive(sys)
    assert not verdict.passive
    assert verdict.margin == np.linalg.eigvalsh(D + D.T)[0]


# klap(max_restarts=0, max_iterations=300) on rand 8x1/11, 12x1/23 and
# 12x1/31, with the returned output map stepped back to C_hat + t (C - C_hat)
# for t = 1e-6, 1e-8 and 1e-5: violations of 4 to 13 times the tolerance.
# The axis tolerance 1e-9 ||H||_F is large on such models, so most
# Hamiltonian eigenvalues count as crossings (16 of 16, 16 of 24 and 24 of
# 24) and each adds a sample.  Taking that tolerance on the balanced
# Hamiltonian instead samples far fewer frequencies and passes all three.
# The matrices are stored literally, so no later change to klap's
# trajectories can move them off the boundary.
NEAR_BOUNDARY_MODELS = json.loads(
    (Path(__file__).parent / "data" / "near_boundary_models.json").read_text())


@pytest.mark.parametrize("name", list(NEAR_BOUNDARY_MODELS))
def test_check_passive_rejects_a_violation_just_beyond_its_tolerance(name):
    sys = StateSpaceSystem(**NEAR_BOUNDARY_MODELS[name])
    # the same model in klap's floored square-root-Gramian coordinates
    s, U = np.linalg.eigh(controllability_gramian(sys))
    r = np.sqrt(np.maximum(s, _GRAMIAN_FLOOR * s.max()))
    T, T_inv = U * r, U.T / r[:, None]
    similar = StateSpaceSystem(T_inv @ sys.A @ T, T_inv @ sys.B, sys.C @ T, sys.D)
    for model in (sys, similar):
        verdict = check_passive(model)
        assert not verdict.passive
        assert verdict.margin < -_passive_tolerance(model)


def test_klap_confirms_a_near_passive_input_with_its_own_default_scan(monkeypatch):
    # the default grid passes this model and check_passive fails it: klap
    # takes the margin of the verdict from the scan it made itself, so the
    # input is scanned on the default grid once, and the run starts from
    # check_passive's own margin as before
    import klap.optimizer as optimizer_mod

    sys = StateSpaceSystem(**NEAR_BOUNDARY_MODELS["rand-8x1/11, t = 1e-06"])
    assert popov_scan(sys).global_min >= -_passive_tolerance(sys)
    margin = check_passive(sys).margin
    assert margin < -_passive_tolerance(sys)
    scanned = []
    orig = passivity.popov_scan

    def recording_scan(sys_, grid=None):
        scanned.append((sys_, grid))
        return orig(sys_, grid)

    monkeypatch.setattr(passivity, "popov_scan", recording_scan)
    monkeypatch.setattr(optimizer_mod, "popov_scan", recording_scan)
    res = klap(sys)
    assert sum(s is sys and grid is None for s, grid in scanned) == 1
    assert not res.passive_input
    assert res.popov_min == margin
    assert (repr(res.popov_min), repr(res.delta), repr(res.J_final)) == (
        "-3.1070512704345354e-07", "0.0", "8.390671214484105e-14")


def test_klap_names_a_negative_judged_j_in_its_message(caplog):
    # on this model the Gramian's quadratic form at the returned point
    # rounds below zero; h2_error reads 0, and the message says why
    sys = StateSpaceSystem(**NEAR_BOUNDARY_MODELS["rand-12x1/31, t = 1e-05"])
    with caplog.at_level("WARNING", logger="klap.optimizer"):
        res = klap(sys)
    assert res.J_final < 0.0 and res.h2_error == 0.0
    assert res.message == ("restart budget exhausted without certificate; the judged J is "
                           f"negative ({res.J_final:.4e}), so h2_error reads 0")
    assert f"the judged J of the returned point is negative ({res.J_final:.4e})" in caplog.text


def test_klap_optimizes_a_zero_feedthrough_input_whose_violation_the_grid_misses():
    sys = benchmark_system("acc")
    C_opt = klap(sys).C_hat
    near = sys.with_output(C_opt + 1e-6 * (sys.C - C_opt))
    verdict = check_passive(near)
    res = klap(near)
    assert not res.passive_input
    assert check_passive(res.system).passive
    assert res.popov_min == verdict.margin


def test_klap_returns_an_input_check_passive_passes_unchanged():
    # the Popov minimum, -1.0e-7 at w = 0, is within check_passive's
    # tolerance 1e-8 * ||D + D^T||_2 = 1e-6 but not within 1e-8 times the
    # largest |lambda_min| over the grid (1.0 at w = 0): klap() judges its
    # input by check_passive's tolerance, so both call it passive
    sys = StateSpaceSystem(np.diag([-1.0, -1.0]), np.eye(2), np.diag([1.0, -(0.5 + 5e-8)]),
                           np.diag([50.0, 0.5]))
    scan_min = popov_scan(sys).global_min
    assert scan_min == pytest.approx(-1e-7, rel=1e-6)
    assert scan_min < -1e-8 * np.abs(popov_scan(sys).min_eigenvalues).max()
    verdict = check_passive(sys)
    assert verdict.passive and _passive_tolerance(sys) == pytest.approx(1e-6, rel=0.05)
    res = klap(sys)
    assert res.passive_input and res.converged
    assert res.J_final == 0.0 and res.C_hat is sys.C
    assert res.popov_min == scan_min


# ---------------------------------------------------------------------------
# KYP dual bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1e-7, 1e-6])
def test_klap_optimizes_an_input_whose_violation_the_grid_misses(t):
    # a step t from the passive optimum of rand 6x1/2 back toward its C
    # violates passivity by about -1.1 t in a dip that the default grid
    # steps over: the scan alone would return the input unchanged
    sys = rand_family_system(6, 1, 2)
    C_opt = klap(sys).C_hat
    near = sys.with_output(C_opt + t * (sys.C - C_opt))
    assert popov_scan(near).global_min >= -_passive_tolerance(near)
    verdict = check_passive(near)
    assert not verdict.passive
    assert verdict.margin == pytest.approx(-1.1 * t, rel=0.01)

    res = klap(near)
    assert not res.passive_input
    assert res.popov_min == verdict.margin
    assert check_passive(res.system).passive
    assert 0.0 < res.J_final < 1e-10


def test_kyp_dual_gap_bounds_the_optimum_on_a_random_sweep():
    # wherever the bound exists, g = J (1 - gap) never exceeds the lowest J
    # that klap() finds from three random starts
    rng = np.random.default_rng(0)
    bounded = 0
    for k in range(20):
        n = int(rng.integers(2, 9))
        m = min(n, int(rng.integers(1, 4)))
        sys = rand_family_system(n, m, 1000 + k)
        runs = [klap(sys, L0=random_start(sys, seed), rng_seed=seed) for seed in range(3)]
        if runs[0].passive_input:
            continue
        P = controllability_gramian(sys)
        J_min = min(run.J_final for run in runs)
        for run in runs:
            gap = kyp_dual_gap(sys, P, run.C_hat, run.J_final)
            if gap is not None:
                bounded += 1
                assert run.J_final * (1.0 - gap) <= J_min + 1e-12 * J_min, (k, gap)
    assert bounded >= 40


@pytest.mark.parametrize("n, m, seed", [(6, 1, 2), (8, 1, 1), (8, 2, 4), (8, 4, 3)])
def test_kyp_dual_bound_stops_restarts_at_the_first_optimum(n, m, seed):
    # the spectral test rejects these optima; the dual bound certifies
    # them, so klap() returns its first run's point without restarting
    sys = rand_family_system(n, m, seed)
    res = klap(sys)
    assert not res.certificate.is_global_candidate
    assert res.restarts == 0
    assert res.duality_gap <= _DUAL_GAP_RTOL
    assert res.message == "stationary point certified by the KYP dual bound"
    first = klap(sys, max_restarts=0)
    assert res.J_final == first.J_final and first.duality_gap == res.duality_gap
    assert first.converged


def test_kyp_dual_gap_exposes_a_non_global_point():
    # toy-m1 from L0 = (-2, 0) parks at J = 2.5 against J* = 0.1275
    sys = toy_system(0.125)
    loc = klap(sys, L0=[[-2.0], [0.0]], max_restarts=0)
    assert loc.J_final == pytest.approx(2.5, rel=1e-9)
    gap = kyp_dual_gap(sys, controllability_gramian(sys), loc.C_hat, loc.J_final)
    assert gap >= 0.9
    # so klap() still restarts once; the spectral test passes the new point
    res = klap(sys, L0=[[-2.0], [0.0]])
    assert res.restarts == 1
    assert res.J_final == pytest.approx(0.127513, abs=1e-6)
    assert res.certificate.is_global_candidate and res.duality_gap is None


def test_kyp_dual_gap_refuses_a_numerically_singular_gramian(caplog):
    # rand 16x1/6 has cond(P) ~ 7e16: no bound, and klap() restarts as before;
    # its point is 2.7e-4 above the best known J in exact arithmetic, and
    # nothing certifies it
    sys = rand_family_system(16, 1, 6)
    P = controllability_gramian(sys)
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        gap = kyp_dual_gap(sys, P, np.zeros((1, 16)), 1.0)
    assert gap is None
    assert "not numerically positive definite" in caplog.text
    res = klap(sys)
    assert res.restarts == 5 and res.duality_gap is None
    assert res.J_final == 0.12130546273147047 and res.iterations == 96
    assert res.converged is False
    assert res.message == "restart budget exhausted without certificate"


def bundled_system(name, d=None):
    sys = benchmark_system(name)
    return sys if d is None else sys.with_feedthrough(d * np.eye(sys.m))


# the bundled and rand-small cases of the benchmark; the passive rand 8x1/2
# returns before any certificate is evaluated and is left out
@pytest.mark.parametrize(
    "sys, options",
    [
        (bundled_system("acc"), {}),
        (bundled_system("acc", 0.125), {}),
        (bundled_system("toy-m0"), {}),
        (bundled_system("toy-m1"), {}),
        (bundled_system("toy-m1"), {"L0": [[-2.0], [0.0]]}),
        *((rand_family_system(*shape), {})
          for shape in [(6, 1, 2), (8, 1, 1), (8, 2, 4), (8, 4, 3), (16, 1, 6)]),
    ],
    ids=["acc", "acc/d=0.125", "toy-m0", "toy-m1", "toy-m1/l0=-2,0", "rand-6x1/2",
         "rand-8x1/1", "rand-8x2/4", "rand-8x4/3", "rand-16x1/6"],
)
def test_klap_converged_means_certified(sys, options):
    res = klap(sys, **options)
    assert not res.passive_input
    assert res.converged == (
        res.certificate.is_global_candidate
        or res.duality_gap is not None and res.duality_gap <= _DUAL_GAP_RTOL
    )


def test_kyp_dual_gap_refuses_a_system_above_the_size_cap(monkeypatch, caplog):
    # with the cap just below rand 6x1/2's m n^4 = 1296 there is no bound,
    # and klap() restarts as it does without one: 5 restarts, 117
    # iterations and a J 3e-11 (relative) below that of round 0, which the
    # bound certifies: a rounding-level difference (the exact J of the two
    # points differs by 1.6e-13)
    sys = rand_family_system(6, 1, 2)
    monkeypatch.setattr(passivity, "_DUAL_MAX_WORK", 6**4 - 1)
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        gap = kyp_dual_gap(sys, controllability_gramian(sys), np.zeros((1, 6)), 1.0)
    assert gap is None
    assert "exceeds the dense dual's budget" in caplog.text
    res = klap(sys)
    assert res.restarts == 5 and res.iterations == 117 and res.duality_gap is None
    assert res.J_final == 0.10048794924516186
    assert res.J_final == pytest.approx(klap(sys, max_restarts=0).J_final, rel=1e-10)
    assert res.message == "restart budget exhausted without certificate"


def test_klap_states_a_later_bound_at_the_returned_point(monkeypatch):
    # round 0 of rand 6x1/2 is the best iterate; a bound found at the
    # slightly worse round-1 point also holds there, and the gap reported
    # is the one at the point returned
    import klap.optimizer as optimizer_mod

    calls = []

    def fake_bound(C_hat, J):
        calls.append(J)
        return None if len(calls) == 1 else J * (1.0 - 1e-8)

    monkeypatch.setattr(optimizer_mod, "_kyp_dual", lambda sys, s, U: fake_bound)
    res = klap(rand_family_system(6, 1, 2))
    J_0, J_1 = calls
    assert J_1 > J_0 == res.J_final
    assert res.restarts == 1
    assert res.message == "stationary point certified by the KYP dual bound"
    # the bound J_1 (1 - 1e-8) sits closer to J_0 than to J_1
    g = J_1 * (1.0 - 1e-8)
    assert res.duality_gap == (J_0 - g) / J_0
    assert 0.0 < res.duality_gap < 1e-8


def test_kyp_dual_gap_leaves_the_system_caches_alone():
    sys = rand_family_system(6, 1, 2)
    P = controllability_gramian(sys, strategy="dense")
    cached = dict(sys._eigen)
    gap = kyp_dual_gap(sys, P, np.zeros((1, 6)), float(np.trace(sys.C @ P @ sys.C.T)))
    assert gap > 0.0
    assert sys._eigen == cached  # no eigenbasis and no Lyapunov kernel built


def dual_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "klap.passivity" and "KYP dual bound" in r.getMessage()]


@pytest.mark.parametrize("n, m, seed", [(6, 1, 2), (8, 1, 1), (8, 2, 4), (8, 4, 3)])
def test_kyp_dual_certifies_a_near_optimum_in_few_newton_steps(n, m, seed, caplog):
    # the candidate's own error is nearly the dual's maximizer: the start
    # sits close to the boundary at a small first weight, and one
    # evaluation certifies in at most 25 Newton steps (45-80 from a start a
    # tenth of Z11's spread inside at mu = J)
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        res = klap(rand_family_system(n, m, seed))
    assert res.converged and not res.certificate.is_global_candidate
    (line,) = dual_lines(caplog)
    match = re.search(r"mu0 = (\S+) J, lifted (\S+) of .*, (\d+) Newton steps: certified", line)
    assert match, line
    mu0, lifted, steps = float(match[1]), float(match[2]), int(match[3])
    assert mu0 < 1e-2 and lifted < 1e-2
    assert steps <= 25


def test_kyp_dual_gap_is_unchanged_far_from_the_optimum(caplog):
    # a far candidate's probe implies mu0 >= J: the start a tenth of the
    # spread inside and the whole mu path, bit for bit as before the warm
    # start
    sys = toy_system(0.125)
    loc = klap(sys, L0=[[-2.0], [0.0]], max_restarts=0)
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        gap = kyp_dual_gap(sys, controllability_gramian(sys), loc.C_hat, loc.J_final)
    assert gap == 2.0373473519103342
    (line,) = dual_lines(caplog)
    assert "lifted 1e-01 of" in line and float(line.split("mu0 = ")[1].split()[0]) >= 1.0
    # nearly passive rand 6x1/2: J of order 1e-9, a gap far above the tolerance
    # (the bound is round 1's, the returned point round 2's)
    base = rand_family_system(6, 1, 2)
    C_opt = klap(base).C_hat
    res = klap(base.with_output(C_opt + 1e-4 * (base.C - C_opt)))
    assert res.duality_gap == 4.009630413187776e-06


def test_kyp_dual_gap_certifies_a_seeded_sweep():
    # the non-passive rand n x {1,2,3} of seeds 20-25, n = 4, 6, 8, at their
    # first runs' points: as many certified as with the cold start (all but
    # 6x1/20 and 6x1/23, whose gaps are 3.4e-7 and 3.7e-7)
    certified = total = 0
    for n in (4, 6, 8):
        for m in (1, 2, 3):
            for seed in range(20, 26):
                sys = rand_family_system(n, m, seed)
                res = klap(sys, max_restarts=0)
                if res.passive_input:
                    continue
                total += 1
                gap = kyp_dual_gap(sys, controllability_gramian(sys), res.C_hat, res.J_final)
                certified += gap is not None and gap <= _DUAL_GAP_RTOL
    assert total == 47 and certified == 45


def test_klap_builds_the_dual_once_and_refuses_before_the_path(monkeypatch, caplog):
    # rand 16x1/6's Gramian is refused by the set-up, which klap() builds
    # once for its six uncertified rounds; no Newton step is taken
    import klap.optimizer as optimizer_mod

    built = []

    def counted(sys, s, U):
        built.append(s)
        return passivity._kyp_dual(sys, s, U)

    monkeypatch.setattr(optimizer_mod, "_kyp_dual", counted)
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        res = klap(rand_family_system(16, 1, 6))
    assert res.restarts == 5 and len(built) == 1
    lines = dual_lines(caplog)
    assert len(lines) == 6
    assert all("not numerically positive definite" in line for line in lines)
    assert "Newton steps" not in caplog.text
    # a Gramian a third of the true one normalizes to I / 3: its defect
    # ||Delta||_2 = 2 is refused before the path as well
    sys = rand_family_system(6, 1, 2)
    caplog.clear()
    with caplog.at_level("DEBUG", logger="klap.passivity"):
        gap = kyp_dual_gap(sys, controllability_gramian(sys) / 3.0, np.zeros((1, 6)), 1.0)
    assert gap is None
    (line,) = dual_lines(caplog)
    assert "off the identity by 2.00e+00" in line and "Newton steps" not in line


# ---------------------------------------------------------------------------
# global-optimality certificate
# ---------------------------------------------------------------------------


def test_certificate_vacuous_when_m_zero():
    # D = 0, and a skew D, where D + D^T = 0 as well
    skew = rand_family_system(6, 2, 1).with_feedthrough(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for sys in (toy_system(0.0), skew):
        cert = global_min_certificate(sys, np.ones((sys.n, sys.m)))
        assert cert.vacuous and cert.is_global_candidate
        assert cert.eigenvalues.size == 0 and cert.max_abs_real == 0.0


def test_certificate_axis_spectrum_scalar():
    # Y = A - B R^{-1} M L^T = -1 + 1 = 0 for L = -sqrt(2): certified
    sys = scalar_system()
    cert = global_min_certificate(sys, [[-np.sqrt(2.0)]])
    assert cert.max_abs_real <= 1e-14
    assert cert.is_global_candidate and not cert.vacuous
    # flipping the factor sign moves the eigenvalue to -2: not certified
    cert2 = global_min_certificate(sys, [[np.sqrt(2.0)]])
    assert cert2.max_abs_real == pytest.approx(2.0, abs=1e-12)
    assert not cert2.is_global_candidate


def test_certificate_default_tolerance_scales_with_a():
    sys = scalar_system()
    cert = global_min_certificate(sys, [[-np.sqrt(2.0)]])
    assert cert.tolerance == pytest.approx(1e-6 * np.linalg.norm(sys.A, "fro"))


def test_certificate_none_for_singular_nonzero_feedthrough():
    # D + D^T = diag(1, 0): no closed loop to test, so no certificate
    sys = rand_family_system(6, 2, 1).with_feedthrough(np.diag([0.5, 0.0]))
    assert global_min_certificate(sys, np.ones((6, 2))) is None


@pytest.mark.parametrize("L", [[[1.0]], np.ones((1, 4)), np.ones((4, 2))],
                         ids=["1x1", "1x4", "4x2"])
def test_certificate_rejects_a_factor_that_is_not_n_by_m(L):
    # acc with D = 1/8 has n = 4, m = 1; numpy would broadcast a 1 x 1 factor
    sys = benchmark_system("acc").with_feedthrough([[0.125]])
    with pytest.raises(DimensionMismatchError, match=r"L must be 4 x 1, got \(\d, \d\)"):
        global_min_certificate(sys, L)
