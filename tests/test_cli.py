"""End-to-end tests of the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from klap.benchmarks import benchmark_path, benchmark_system
from klap.cli import _build_parser, main
from klap.modelio import load_model_file, write_model
from klap.optimizer import klap
from klap.passivity import check_passive
from klap.system import StateSpaceSystem
from oracles import exact_h2_error_sq, rand_family_system


def run_cli(args, capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def toy_m1_path(tmp_path):
    path = tmp_path / "toy-m1.json"
    write_model(benchmark_system("toy-m1"), path, name="toy-m1")
    return str(path)


@pytest.fixture
def toy_m0_path(tmp_path):
    path = tmp_path / "toy-m0.json"
    write_model(benchmark_system("toy-m0"), path, name="toy-m0")
    return str(path)


def valid_report(path):
    """The run report at ``path``, validated against the shipped schema."""
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    schema = json.loads(files("klap").joinpath("data/report_schema.json").read_text())
    report = json.load(open(path))
    jsonschema.validate(report, schema)
    return report


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


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_non_passive_exits_one(toy_m0_path, capsys):
    code, out, _ = run_cli(["check", toy_m0_path], capsys)
    assert code == 1
    assert out.startswith("not passive")
    assert "margin" in out


@pytest.mark.parametrize("feedthrough, verdict, expected_code",
                         [(None, "not passive", 1), ("0.5", "passive", 0)])
def test_check_prints_the_verdict_and_its_margin(toy_m1_path, capsys, feedthrough,
                                                 verdict, expected_code):
    d = 0.125 if feedthrough is None else float(feedthrough)
    sys_ = benchmark_system("toy-m0").with_feedthrough([[d]])
    flags = [] if feedthrough is None else ["--feedthrough", feedthrough]
    code, out, _ = run_cli(["check", toy_m1_path, *flags], capsys)
    assert code == expected_code
    assert out == f"{verdict} (margin {check_passive(sys_).margin:.6e})\n"


def test_check_passive_exits_zero(tmp_path, capsys):
    path = tmp_path / "passive.json"
    write_model(StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[1.0]]), path)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    assert out.startswith("passive")


def test_check_missing_file_exits_two(capsys):
    code, _, err = run_cli(["check", "/nonexistent/model.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_check_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1}')
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert "error:" in err


def test_check_method_are_is_usage_error(toy_m1_path, capsys):
    # the route follows D + D^T; there is no --method flag to choose it
    code, _, err = run_cli(["check", toy_m1_path, "--method", "are"], capsys)
    assert code == 2
    assert "unrecognized arguments: --method are" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "1e-6"), ("--csv", "-"), ("--wmin", "0.01"), ("--wmax", "100"),
     ("--points", "16")],
)
def test_check_removed_flags_are_usage_errors(toy_m1_path, flag, value, capsys):
    # the verdict has no tolerance or grid to set; `klap popov` writes scans
    code, _, err = run_cli(["check", toy_m1_path, flag, value], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag} {value}" in err


def test_check_non_json_model_is_an_error(tmp_path, capsys):
    # model files are JSON; a matrix-block text file is refused, not parsed
    path = tmp_path / "toy.txt"
    path.write_text("A\n-1 4\n-2 -1\nB\n1\n2\nC\n1 0\nD\n0.125\n")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f'error: {path}: expected a JSON object {{"n", "m", "A", "B", "C", "D"}} '
        "at the top level"
    ]


# ---------------------------------------------------------------------------
# passivate
# ---------------------------------------------------------------------------


def test_passivate_writes_model_and_valid_report(toy_m1_path, tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    out_path = str(tmp_path / "out.json")
    report_path = str(tmp_path / "report.json")
    trace_path = str(tmp_path / "trace.csv")
    code, out, _ = run_cli(
        ["passivate", toy_m1_path, "--out", out_path, "--report", report_path,
         "--trace", trace_path],
        capsys,
    )
    assert code == 0

    # written model is passive: the check command accepts it
    code2, out2, _ = run_cli(["check", out_path], capsys)
    assert code2 == 0, out2

    # report validates against the shipped schema
    from importlib.resources import files

    schema = json.loads(files("klap").joinpath("data/report_schema.json").read_text())
    report = json.load(open(report_path))
    jsonschema.validate(report, schema)
    assert report["converged"] is True
    assert report["h2_error"] == pytest.approx(0.35709, abs=5e-3)
    assert report["certificate"]["is_global_candidate"] is True
    assert report["popov_margin_after"] >= -1e-8
    assert report["popov_min"] == pytest.approx(-0.3395, abs=1e-3)
    # all numeric fields finite (json.dump(allow_nan=False) already enforces
    # this at write time; double-check the loaded values)
    for key in ("j_final", "h2_error", "initial_j", "delta", "wall_seconds"):
        assert np.isfinite(report[key])

    # trace CSV: header plus one row per logged iterate, J non-increasing
    lines = open(trace_path).read().splitlines()
    assert lines[0] == "iteration,j,grad_norm"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) >= 2
    assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_passivate_default_output_paths(toy_m1_path, tmp_path, capsys):
    code, out, _ = run_cli(["passivate", toy_m1_path], capsys)
    assert code == 0
    base = toy_m1_path[: -len(".json")]
    assert (tmp_path / "toy-m1.passive.json").exists()
    assert (tmp_path / "toy-m1.passive.report.json").exists()
    assert f"{base}.passive.json" in out


def test_passivate_explicit_start_reaches_global(toy_m1_path, tmp_path, capsys):
    out_path = str(tmp_path / "glob.json")
    report_path = str(tmp_path / "glob.report.json")
    code, _, _ = run_cli(
        ["passivate", toy_m1_path, "--l0", "-2,0", "--out", out_path,
         "--report", report_path],
        capsys,
    )
    assert code == 0
    report = valid_report(report_path)
    assert report["restarts"] == 1
    assert report["config"]["init"] == "given"
    # the dual bound was evaluated at the first point only; the returned
    # one passed the spectral test
    assert report["duality_gap"] is None
    sys_out = load_model_file(out_path).system
    assert_allclose(sys_out.C, [[0.84, 0.34]], atol=0.01)


def test_passivate_reports_the_certified_duality_gap(tmp_path, capsys):
    # the benchmark's rand 6x1/2: the spectral test rejects its optimum, the
    # KYP dual bound certifies it, so the run stops without a restart
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(6)
    B = rng.standard_normal((6, 1))
    C = rng.standard_normal((1, 6))
    model = tmp_path / "rand.json"
    write_model(StateSpaceSystem(A, B, C, [[0.05]]), model)
    report_path = str(tmp_path / "rand.report.json")
    code, out, _ = run_cli(
        ["passivate", str(model), "--out", str(tmp_path / "out.json"),
         "--report", report_path],
        capsys,
    )
    assert code == 0
    report = valid_report(report_path)
    assert report["certificate"]["is_global_candidate"] is False
    assert report["restarts"] == 0
    assert 0.0 <= report["duality_gap"] <= 1e-7
    assert report["converged"] is True
    assert f"duality gap         {report['duality_gap']:.3e}" in out
    assert "certificate         global (KYP dual bound)\n" in out


def test_passivate_singular_feedthrough_is_certified_by_the_dual_bound(tmp_path, capsys):
    # D + D^T = diag(1, 0) is singular but nonzero: there is no spectral
    # certificate, and the KYP dual bound certifies the point
    model = tmp_path / "singular.json"
    write_model(rand_family_system(6, 2, 1).with_feedthrough(np.diag([0.5, 0.0])), model)
    report_path = str(tmp_path / "singular.report.json")
    code, out, err = run_cli(
        ["passivate", str(model), "--out", str(tmp_path / "out.json"),
         "--report", report_path],
        capsys,
    )
    assert code == 0, err
    report = valid_report(report_path)
    assert report["certificate"] is None
    assert report["converged"] is True
    assert 0.0 <= report["duality_gap"] <= 1e-7
    assert "certificate         global (KYP dual bound)\n" in out
    code2, _, _ = run_cli(["check", str(tmp_path / "out.json")], capsys)
    assert code2 == 0


def test_passivate_restarts_disabled_stops_at_local(toy_m1_path, tmp_path, capsys):
    report_path = str(tmp_path / "loc.report.json")
    code, out, err = run_cli(
        ["passivate", toy_m1_path, "--l0", "-2,0", "--max-restarts", "0",
         "--out", str(tmp_path / "loc.json"), "--report", report_path],
        capsys,
    )
    # J = 2.5 against J* = 0.1275: the returned point is not certified
    assert code == 2
    assert "error: the returned point is not certified: restart budget" in err
    assert "certificate         not certified\n" in out
    report = valid_report(report_path)
    assert report["converged"] is False
    assert report["certificate"]["is_global_candidate"] is False
    assert report["duality_gap"] >= 0.9
    assert report["h2_error"] == pytest.approx(np.sqrt(2.5), abs=0.01)
    # local results are still passive
    code2, _, _ = run_cli(["check", str(tmp_path / "loc.json")], capsys)
    assert code2 == 0


def test_passivate_seed_reproducible(toy_m0_path, tmp_path, capsys):
    reports = []
    for k in range(2):
        report_path = str(tmp_path / f"r{k}.json")
        code, _, _ = run_cli(
            ["passivate", toy_m0_path, "--seed", "3",
             "--out", str(tmp_path / f"m{k}.json"), "--report", report_path],
            capsys,
        )
        assert code == 0
        reports.append(json.load(open(report_path)))
    assert reports[0]["j_final"] == reports[1]["j_final"]
    assert reports[0]["iterations"] == reports[1]["iterations"]
    a = load_model_file(str(tmp_path / "m0.json")).system
    b = load_model_file(str(tmp_path / "m1.json")).system
    assert_array_equal(a.C, b.C)


def test_passivate_indefinite_feedthrough_exits_two(tmp_path, capsys):
    path = tmp_path / "bad-d.json"
    write_model(StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[-1.0]]), path)
    code, _, err = run_cli(["passivate", str(path)], capsys)
    assert code == 2
    assert "error:" in err
    assert not (tmp_path / "bad-d.passive.json").exists()


@pytest.mark.parametrize("flags, reason", [
    (["--seed", "-1"], "rng_seed must be >= 0"),
    (["--l0", "1e200,1e200"], "the objective is not finite at L0"),
], ids=["negative-seed", "overflowing-l0"])
def test_passivate_bad_start_exits_two(toy_m1_path, tmp_path, flags, reason, capsys):
    # a negative seed and a start where J is not finite are input errors
    # (exit 2), not a traceback (exit 1, reserved for "not passive")
    code, _, err = run_cli(
        ["passivate", toy_m1_path, "--out", str(tmp_path / "o.json"), *flags], capsys
    )
    assert code == 2
    assert "error: " + reason in err
    assert not (tmp_path / "o.json").exists()


def test_passivate_already_passive_input(tmp_path, capsys):
    path = tmp_path / "passive.json"
    write_model(StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[1.0]]), path)
    report_path = str(tmp_path / "r.json")
    code, out, _ = run_cli(
        ["passivate", str(path), "--out", str(tmp_path / "o.json"),
         "--report", report_path],
        capsys,
    )
    assert code == 0
    report = json.load(open(report_path))
    assert report["passive_input"] is True
    assert report["h2_error"] == 0.0
    assert report["certificate"] is None
    out_sys = load_model_file(str(tmp_path / "o.json")).system
    assert_array_equal(out_sys.C, [[1.0]])


def test_check_and_passivate_agree_within_the_passivity_tolerance(tmp_path, capsys):
    # Popov minimum -1.0e-7, inside check's tolerance 1e-8 * ||D + D^T||_2:
    # check calls the model passive, and passivate returns it unchanged
    path = tmp_path / "boundary.json"
    write_model(StateSpaceSystem(np.diag([-1.0, -1.0]), np.eye(2),
                                 np.diag([1.0, -(0.5 + 5e-8)]), np.diag([50.0, 0.5])), path)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0 and out.startswith("passive")
    report_path = tmp_path / "r.json"
    code, _, _ = run_cli(["passivate", str(path), "--out", str(tmp_path / "o.json"),
                          "--report", str(report_path)], capsys)
    assert code == 0
    report = json.load(open(report_path))
    assert report["passive_input"] is True and report["converged"] is True


def test_passivated_models_pass_check(tmp_path, capsys):
    # a compressed version of the randomized pipeline property: every model
    # written by the passivate command is accepted by the check command
    rng = np.random.default_rng(31)
    for k in range(5):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        m = min(m, n)
        sys = random_system(rng, n, m, d_scale=0.8 if k % 2 else 0.0)
        path = tmp_path / f"in_{k}.json"
        write_model(sys, path)
        out_path = str(tmp_path / f"out_{k}.json")
        code, _, err = run_cli(
            ["passivate", str(path), "--out", out_path,
             "--report", str(tmp_path / f"rep_{k}.json"), "--seed", str(k)],
            capsys,
        )
        assert code in (0, 2), err  # 2 = unconverged, but output still written
        code2, out2, _ = run_cli(["check", out_path], capsys)
        assert code2 == 0, f"instance {k}: {out2}"


# ---------------------------------------------------------------------------
# popov
# ---------------------------------------------------------------------------


def test_popov_csv_shape_and_values(toy_m1_path, capsys):
    code, out, _ = run_cli(["popov", toy_m1_path, "--points", "12"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,lambda_min"
    assert len(lines) == 1 + 12 + 1  # header + zero frequency + grid
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows[0][0] == 0.0
    assert min(lam for _, lam in rows) < 0  # non-passive model dips negative


def test_popov_perturbed_feedthrough_nonnegative(toy_m1_path, capsys):
    # raising the feedthrough enough shifts the whole Popov curve up
    code, out, _ = run_cli(
        ["popov", toy_m1_path, "--feedthrough", "0.5", "--points", "64"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(float(lam) >= 0 for _, lam in rows)


@pytest.mark.parametrize(
    "window, message",
    [(["--wmin", "10", "--wmax", "1"], "need 0 < wmin < wmax, got [10.0, 1.0]"),
     (["--wmin", "-1"], "need 0 < wmin < wmax, got [-1.0, "),
     (["--wmax", "1e-9"], ", 1e-09]"),
     (["--wmax", "inf"], ", inf]"),
     (["--wmin", "nan"], "got [nan, "),
     (["--points", "1"], "need at least 2 grid points, got 1"),
     (["--points", "0", "--wmin", "2"], "need at least 2 grid points, got 0")],
    ids=["inverted", "negative-wmin", "tiny-wmax", "infinite-wmax", "nan-wmin",
         "one-point", "no-points"],
)
def test_popov_bad_window_is_usage_error(toy_m1_path, window, message, capsys):
    code, out, err = run_cli(["popov", toy_m1_path, *window], capsys)
    assert code == 2
    assert out == ""
    assert err.count("klap: error:") == 1
    assert "klap: error: --wmin" in err
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [["popov", "MODEL", "--per-eigenvalue"], ["h2", "MODEL", "MODEL", "--general"]],
    ids=["popov-per-eigenvalue", "h2-general"],
)
def test_removed_popov_and_h2_flags_are_usage_errors(toy_m1_path, argv, capsys):
    # h2 compares output maps on one (A, B, D); popov writes lambda_min only
    argv = [toy_m1_path if a == "MODEL" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {argv[-1]}" in err


def test_popov_to_file(toy_m1_path, tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        ["popov", toy_m1_path, "--out", str(out_path), "--points", "8"], capsys
    )
    assert code == 0
    assert out == ""
    content = out_path.read_bytes()
    assert b"\r" not in content  # LF line endings
    assert content.startswith(b"omega,lambda_min\n")


# ---------------------------------------------------------------------------
# h2
# ---------------------------------------------------------------------------


def test_h2_identical_models_is_zero(toy_m1_path, capsys):
    code, out, _ = run_cli(["h2", toy_m1_path, toy_m1_path], capsys)
    assert code == 0
    assert "h2_error_squared = 0.0" in out
    assert "h2_error = 0.0" in out


def test_h2_original_vs_passivated(toy_m0_path, tmp_path, capsys):
    out_path = str(tmp_path / "p.json")
    code, _, _ = run_cli(
        ["passivate", toy_m0_path, "--out", out_path,
         "--report", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["h2", toy_m0_path, out_path], capsys)
    assert code == 0
    j = float(out.splitlines()[0].split("=")[1])
    assert j == pytest.approx(0.9423, abs=0.01)


@pytest.mark.parametrize(
    "other, differs",
    [(StateSpaceSystem(benchmark_system("toy-m0").A, np.eye(2), np.eye(2), np.zeros((2, 2))), "B"),
     (benchmark_system("toy-m0").with_feedthrough([[0.125]]), "D"),
     (StateSpaceSystem([[-2.0, 0.0], [1.0, -3.0]], [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]]), "A"),
     (StateSpaceSystem(benchmark_system("toy-m0").A, [[1.0], [1.0]], [[0.0, 1.0]], [[0.0]]), "B")],
    ids=["m", "D", "A", "B"],
)
def test_h2_mismatched_realizations_exit_two(toy_m0_path, tmp_path, other, differs, capsys):
    # only output maps on one (A, B, D) have a finite H2 distance here; a
    # different m shows as a B of another shape
    path = str(tmp_path / "other.json")
    write_model(other, path)
    code, out, err = run_cli(["h2", toy_m0_path, path], capsys)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: the models differ in {differs}; the H2 distance is defined here only "
        "between output maps on the same (A, B, D)"]


def test_h2_reports_a_distance_rounded_below_zero_as_zero_with_a_note(tmp_path, capsys):
    # klap's own judged J of this model's returned point is negative
    models = json.loads((Path(__file__).parent / "data" / "near_boundary_models.json").read_text())
    sys_ = StateSpaceSystem(**models["rand-12x1/31, t = 1e-05"])
    res = klap(sys_)
    assert res.J_final < 0.0
    original, passivated = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_model(sys_, original)
    write_model(res.system, passivated)
    code, out, err = run_cli(["h2", original, passivated], capsys)
    assert code == 0
    assert out == "h2_error_squared = 0.0\nh2_error = 0.0\n"
    assert err == (f"note: the computed squared distance {res.J_final!r} is negative by "
                   "rounding; reporting 0\n")


def test_h2_agrees_with_the_exact_oracle(toy_m0_path, tmp_path, capsys):
    variant = str(tmp_path / "variant.json")
    write_model(benchmark_system("toy-m0").with_output([[0.46, 0.80]]), variant)
    code, out, _ = run_cli(["h2", toy_m0_path, variant], capsys)
    assert code == 0
    j = float(out.splitlines()[0].split("=")[1])
    exact = exact_h2_error_sq(benchmark_system("toy-m0"), [[0.46, 0.80]])
    assert j == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# bundled benchmarks, through passivate
# ---------------------------------------------------------------------------


def passivate_bundled(name, flags, tmp_path, capsys):
    """Passivate the shipped model file ``name``; returns (exit code,
    stderr, report or None, output model path)."""
    out_path = str(tmp_path / f"{name}.out.json")
    report_path = tmp_path / f"{name}.report.json"
    code, _, err = run_cli(
        ["passivate", os.fspath(benchmark_path(name)), "--out", out_path,
         "--report", str(report_path), *flags],
        capsys,
    )
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, err, report, out_path


def test_bench_acc_with_feedthrough(tmp_path, capsys):
    code, _, report, _ = passivate_bundled("acc", ["--feedthrough", "0.125"], tmp_path, capsys)
    assert code == 0
    assert report["name"] == "acc"
    assert report["h2_error"] == pytest.approx(0.871, abs=0.005)


def test_bench_toy_m0_squared_error(tmp_path, capsys):
    code, _, report, _ = passivate_bundled("toy-m0", [], tmp_path, capsys)
    assert code == 0
    assert report["j_final"] == pytest.approx(0.94, abs=0.01)


def test_bench_toy_m1_restart_from_local_basin(tmp_path, capsys):
    code, _, report, out_path = passivate_bundled("toy-m1", ["--l0", "-2,0"], tmp_path, capsys)
    assert code == 0
    assert report["restarts"] == 1
    assert_allclose(load_model_file(out_path).system.C, [[0.836, 0.34]], atol=0.005)


def test_bench_bad_init_length_is_usage_error(tmp_path, capsys):
    code, err, report, _ = passivate_bundled("toy-m1", ["--l0", "1,2,3"], tmp_path, capsys)
    assert code == 2
    assert "--l0: expected 2 values" in err
    assert report is None


def test_bench_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(["bench", "acc"], capsys)
    assert code == 2
    assert "invalid choice: 'bench'" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--init", "random"), ("--alpha", "1e-8"), ("--eps", "1e-3"),
     ("--points", "500"), ("--wmin", "0.01"), ("--wmax", "100")],
)
def test_passivate_removed_flags_are_usage_errors(toy_m1_path, tmp_path, flag, value, capsys):
    code, _, err = run_cli(
        ["passivate", toy_m1_path, "--out", str(tmp_path / "out.json"), flag, value], capsys
    )
    assert code == 2
    assert f"unrecognized arguments: {flag} {value}" in err
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert out.startswith("klap ")


def test_log_env_variable_smoke(toy_m0_path, capsys, monkeypatch):
    monkeypatch.setenv("KLAP_LOG", "debug")
    code, _, _ = run_cli(["check", toy_m0_path], capsys)
    assert code == 1


def test_repeated_calls_share_one_parser_and_match_calls_run_alone(
        toy_m1_path, tmp_path, capsys):
    # main() builds its parser once per process; each call of a sequence,
    # usage error and --version included, must give the exit code, output
    # and files it gives after a freshly built parser
    calls = [
        ["passivate", toy_m1_path, "--l0", "-2,0"],
        ["passivate", toy_m1_path],
        ["check", toy_m1_path],
        ["check", toy_m1_path, "--bogus"],
        ["--version"],
        ["passivate", toy_m1_path],
    ]

    def outcome(argv):
        code, out, err = run_cli(argv, capsys)
        files = {}
        for path in sorted(tmp_path.iterdir()):
            if str(path) == toy_m1_path:
                continue
            content = json.loads(path.read_text())
            content.pop("wall_seconds", None)
            content.pop("seconds_per_iteration", None)
            files[path.name] = content
            path.unlink()
        return code, re.sub(r"wall time +\S+ s", "wall time", out), err, files

    _build_parser.cache_clear()
    in_sequence = [outcome(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(outcome(argv))
    assert [(code, len(files)) for code, _, _, files in in_sequence] == [
        (0, 2), (0, 2), (1, 0), (2, 0), (0, 0), (0, 2)]
    assert in_sequence == alone


def test_the_shell_entry_point_gives_the_in_process_verdict(toy_m1_path, capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "klap.cli", "check", toy_m1_path],
                          env=env, capture_output=True, text=True, timeout=120)
    code, out, _ = run_cli(["check", toy_m1_path], capsys)
    assert (done.returncode, done.stdout) == (code, out)
    assert out.startswith("not passive (margin ")


# a fresh interpreter: import the package, run the commands of argv[1] in
# turn, and record per step the exit code, the stdout and whether any scipy
# module is loaded; a last step records it at the start of each timed solve
_FRESH_PROCESS = """
import contextlib, io, json, sys
import klap, klap.cli

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

at_solve, solve = ["at solve", None, "", []], klap.cli.klap
klap.cli.klap = lambda *args: (at_solve[3].append(scipy_loaded()), solve(*args))[1]
steps = [["import", None, "", scipy_loaded()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = klap.cli.main(argv)
    steps.append([argv[0], code, out.getvalue(), scipy_loaded()])
steps.append(at_solve)
with open("steps.json", "w") as fh:
    json.dump(steps, fh)
"""


def test_a_fresh_process_loads_scipy_only_to_passivate(tmp_path, monkeypatch, capsys):
    # SciPy is bound on first use: the import and the commands that make no
    # Schur form leave it unloaded; passivate loads it before its timed
    # solve (so the wall time is the solve's) and writes what a process
    # that had SciPy loaded already writes
    commands = [["check", "toy-m1.json"], ["popov", "toy-m1.json"],
                ["h2", "toy-m1.json", "toy-m1.json"], ["passivate", "toy-m1.json"]]
    fresh, warm = tmp_path / "fresh", tmp_path / "warm"
    for folder in (fresh, warm):
        folder.mkdir()
        (folder / "toy-m1.json").write_bytes(benchmark_path("toy-m1").read_bytes())
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, json.dumps(commands)],
                          cwd=fresh, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads((fresh / "steps.json").read_text())
    (fresh / "steps.json").unlink()
    assert [(step[0], step[1], step[3]) for step in steps] == [
        ("import", None, False), ("check", 1, False), ("popov", 0, False),
        ("h2", 0, False), ("passivate", 0, True), ("at solve", None, [True])]

    monkeypatch.chdir(warm)
    for argv, (_, code, out, _) in zip(commands, steps[1:-1]):
        warm_code, warm_out, _ = run_cli(argv, capsys)
        assert (code, re.sub(r"wall time +\S+ s", "", out)) == (
            warm_code, re.sub(r"wall time +\S+ s", "", warm_out)), argv
    names = sorted(path.name for path in fresh.iterdir())
    assert names == sorted(path.name for path in warm.iterdir()) == [
        "toy-m1.json", "toy-m1.passive.json", "toy-m1.passive.report.json"]
    assert (fresh / names[1]).read_bytes() == (warm / names[1]).read_bytes()
    reports = [json.loads((folder / names[2]).read_text()) for folder in (fresh, warm)]
    for report in reports:
        del report["wall_seconds"], report["seconds_per_iteration"]
    assert reports[0] == reports[1]
