"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from klap.benchmarks import acc_system, toy_system
from klap.cli import main
from klap.modelio import load_model, write_model
from klap.system import StateSpaceSystem


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
    write_model(toy_system(0.125), path, name="toy-m1")
    return str(path)


@pytest.fixture
def toy_m0_path(tmp_path):
    path = tmp_path / "toy-m0.json"
    write_model(toy_system(), path, name="toy-m0")
    return str(path)


@pytest.fixture
def acc8_path(tmp_path):
    path = tmp_path / "acc8.json"
    write_model(acc_system(0.125), path, name="acc8")
    return str(path)


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
    code, _, err = run_cli(["check", toy_m1_path, "--method", "are"], capsys)
    assert code == 2
    assert "invalid choice" in err


def test_check_csv_to_stdout_moves_verdict_to_stderr(toy_m1_path, capsys):
    code, out, err = run_cli(
        ["check", toy_m1_path, "--csv", "-", "--points", "16"], capsys
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "omega,lambda_min"
    assert len(lines) == 1 + 16 + 1  # header + zero frequency + grid
    assert "not passive" in err
    for line in lines[1:]:
        w, lam = line.split(",")
        float(w), float(lam)


def test_check_text_format_model(tmp_path, capsys):
    path = tmp_path / "toy.txt"
    path.write_text("A\n-1 4\n-2 -1\nB\n1\n2\nC\n1 0\nD\n0.125\n")
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 1
    assert "not passive" in out


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
    assert report["popov_margin_before"] == pytest.approx(-0.3395, abs=1e-3)
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
    report = json.load(open(report_path))
    assert report["restarts"] == 1
    assert report["config"]["init"] == "given"
    sys_out = load_model(out_path)
    assert_allclose(sys_out.C, [[0.84, 0.34]], atol=0.01)


def test_passivate_restarts_disabled_stops_at_local(toy_m1_path, tmp_path, capsys):
    report_path = str(tmp_path / "loc.report.json")
    code, _, _ = run_cli(
        ["passivate", toy_m1_path, "--l0", "-2,0", "--max-restarts", "0",
         "--out", str(tmp_path / "loc.json"), "--report", report_path],
        capsys,
    )
    assert code == 0  # converged (to the local point), so success
    report = json.load(open(report_path))
    assert report["certificate"]["is_global_candidate"] is False
    assert report["h2_error"] == pytest.approx(np.sqrt(2.5), abs=0.01)
    # local results are still passive
    code2, _, _ = run_cli(["check", str(tmp_path / "loc.json")], capsys)
    assert code2 == 0


def test_passivate_seed_reproducible(toy_m0_path, tmp_path, capsys):
    reports = []
    for k in range(2):
        report_path = str(tmp_path / f"r{k}.json")
        code, _, _ = run_cli(
            ["passivate", toy_m0_path, "--init", "random", "--seed", "3",
             "--out", str(tmp_path / f"m{k}.json"), "--report", report_path],
            capsys,
        )
        assert code == 0
        reports.append(json.load(open(report_path)))
    assert reports[0]["j_final"] == reports[1]["j_final"]
    assert reports[0]["iterations"] == reports[1]["iterations"]
    a = load_model(str(tmp_path / "m0.json"))
    b = load_model(str(tmp_path / "m1.json"))
    assert_array_equal(a.C, b.C)


def test_passivate_indefinite_feedthrough_exits_two(tmp_path, capsys):
    path = tmp_path / "bad-d.json"
    write_model(StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[-1.0]]), path)
    code, _, err = run_cli(["passivate", str(path)], capsys)
    assert code == 2
    assert "error:" in err
    assert not (tmp_path / "bad-d.passive.json").exists()


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
    out_sys = load_model(str(tmp_path / "o.json"))
    assert_array_equal(out_sys.C, [[1.0]])


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


def test_popov_single_point_grid(toy_m1_path, capsys):
    code, out, _ = run_cli(
        ["popov", toy_m1_path, "--points", "1", "--wmin", "2.0"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 2.0


def test_popov_per_eigenvalue_columns(toy_m1_path, capsys):
    code, out, _ = run_cli(
        ["popov", toy_m1_path, "--per-eigenvalue", "--points", "4"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,lambda_min,lambda_1"
    for line in lines[1:]:
        w, lam_min, lam_1 = map(float, line.split(","))
        assert lam_min == pytest.approx(lam_1)  # single output: identical


def test_popov_bad_window_is_usage_error(toy_m1_path, capsys):
    code, _, err = run_cli(
        ["popov", toy_m1_path, "--wmin", "10", "--wmax", "1"], capsys
    )
    assert code == 2
    assert "--wmin must be below --wmax" in err


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


def test_h2_mismatched_realizations_exit_two(toy_m0_path, acc8_path, tmp_path, capsys):
    # different D: no finite H2 distance, with or without --general
    code, _, err = run_cli(["h2", toy_m0_path, acc8_path], capsys)
    assert code == 2
    assert "feedthrough" in err

    # same D, different A: refused without --general, exact with it
    other = str(tmp_path / "other.json")
    write_model(
        StateSpaceSystem([[-2.0, 0.0], [1.0, -3.0]], [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]]),
        other,
    )
    code, _, err = run_cli(["h2", toy_m0_path, other], capsys)
    assert code == 2
    assert "--general" in err

    code, out, _ = run_cli(["h2", toy_m0_path, other, "--general"], capsys)
    assert code == 0
    j = float(out.splitlines()[0].split("=")[1])
    assert j > 0 and np.isfinite(j)


def test_h2_general_agrees_with_gramian_path(toy_m0_path, tmp_path, capsys):
    # same realization computed both ways must agree
    variant = str(tmp_path / "variant.json")
    write_model(toy_system().with_output([[0.46, 0.80]]), variant)
    code, out_same, _ = run_cli(["h2", toy_m0_path, variant], capsys)
    assert code == 0
    code, out_gen, _ = run_cli(["h2", toy_m0_path, variant, "--general"], capsys)
    assert code == 0
    j_same = float(out_same.splitlines()[0].split("=")[1])
    j_gen = float(out_gen.splitlines()[0].split("=")[1])
    assert j_gen == pytest.approx(j_same, rel=1e-10)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_acc_with_feedthrough(capsys):
    code, out, _ = run_cli(["bench", "acc", "--feedthrough", "0.125"], capsys)
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[0] == "acc"
    h2 = float(row[4])
    assert h2 == pytest.approx(0.871, abs=0.005)


def test_bench_toy_m0_squared_error(capsys):
    code, out, _ = run_cli(["bench", "toy-m0"], capsys)
    assert code == 0
    j_line = next(line for line in out.splitlines() if line.startswith("J ("))
    assert float(j_line.split("=")[1]) == pytest.approx(0.94, abs=0.01)


def test_bench_toy_m1_restart_from_local_basin(capsys):
    code, out, _ = run_cli(["bench", "toy-m1", "--init", "-2,0"], capsys)
    assert code == 0
    row = out.splitlines()[1].split()
    restarts = int(row[5])
    assert restarts == 1
    c_line = next(line for line in out.splitlines() if line.startswith("C_hat"))
    assert "0.83" in c_line and "0.34" in c_line


def test_bench_unknown_name_is_usage_error(capsys):
    code, _, err = run_cli(["bench", "cd-player"], capsys)
    assert code == 2
    assert "invalid choice" in err


def test_bench_bad_init_length_is_usage_error(capsys):
    code, _, err = run_cli(["bench", "toy-m1", "--init", "1,2,3"], capsys)
    assert code == 2
    assert "expected 2 values" in err


def test_bench_writes_optional_outputs(tmp_path, capsys):
    out_path = str(tmp_path / "bench-out.json")
    report_path = str(tmp_path / "bench-report.json")
    code, _, _ = run_cli(
        ["bench", "toy-m1", "--out", out_path, "--report", report_path], capsys
    )
    assert code == 0
    assert load_model(out_path).n == 2
    report = json.load(open(report_path))
    assert report["input"] == "bench:toy-m1"


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
