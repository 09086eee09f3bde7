"""Tests for model-file parsing and serialization."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from klap.benchmarks import BENCHMARK_NAMES, benchmark_path, benchmark_system
from klap.exceptions import NotHurwitzError, ParseError
from klap.modelio import load_model_file, write_model
from klap.system import StateSpaceSystem


def random_system(rng, n, m):
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5 + rng.uniform(0, 1)) * np.eye(n)
    # gnarly magnitudes to exercise the decimal round trip
    B = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 8)
    C = rng.standard_normal((m, n)) / 3.0
    D = rng.standard_normal((m, m)) * np.pi
    return StateSpaceSystem(A, B, C, D)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    for k in range(10):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        m = min(m, n)
        sys = random_system(rng, n, m)
        path = tmp_path / f"model_{k}.json"
        write_model(sys, path)
        back = load_model_file(path).system
        for X, Y in zip((sys.A, sys.B, sys.C, sys.D), (back.A, back.B, back.C, back.D)):
            assert_array_equal(X, Y)  # exact, not approximate


@pytest.mark.parametrize("name, metadata", [
    ("tiny", {"origin": "hand"}),
    ("", {}),
    ("toy \u00e9", {"tol": 1e-300, "big": 1.7976931348623157e308, "zero": -0.0,
                   "tags": ["a", 1, None, True], "nested": {"k": [0.1, {"deep": "x"}]}}),
], ids=["plain", "empty", "nested-finite"])
def test_round_trip_keeps_name_and_metadata(tmp_path, name, metadata):
    path = tmp_path / "named.json"
    write_model(StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[0.5]]), path,
                name=name, metadata=metadata)
    mf = load_model_file(path)
    assert mf.name == name
    assert mf.metadata == metadata


@pytest.mark.parametrize("kwargs, error, match", [
    ({"metadata": {"a": float("nan")}}, ValueError, "not JSON compliant"),
    ({"metadata": {"a": [1.0, {"b": float("-inf")}]}}, ValueError, "not JSON compliant"),
    ({"name": 3}, TypeError, "name must be a str"),
    ({"name": b"toy"}, TypeError, "name must be a str"),
    ({"metadata": ["origin", "hand"]}, TypeError, "metadata a dict"),
], ids=["nan-metadata", "nested-inf-metadata", "int-name", "bytes-name", "list-metadata"])
def test_write_refuses_what_the_loader_rejects_before_opening_the_file(tmp_path, kwargs,
                                                                       error, match):
    # the loader refuses NaN/Infinity, a non-string name and a metadata
    # that is not an object, so writing them would leave a file no command
    # can read; nothing is written
    path = tmp_path / "refused.json"
    with pytest.raises(error, match=match):
        write_model(StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]], [[0.5]]), path, **kwargs)
    assert not path.exists()


def test_written_model_is_plain_json(tmp_path):
    sys = StateSpaceSystem([[-2.0, 1.0], [0.0, -1.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    path = tmp_path / "plain.json"
    write_model(sys, path, name="x")
    doc = json.loads(path.read_text())
    assert doc["n"] == 2 and doc["m"] == 1
    assert doc["A"] == [-2.0, 1.0, 0.0, -1.0]  # flat row-major
    assert doc["name"] == "x"


# ---------------------------------------------------------------------------
# JSON diagnostics
# ---------------------------------------------------------------------------


def _write(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return path


def test_json_syntax_error_reports_line(tmp_path):
    path = _write(tmp_path, '{\n "n": 2,\n "m": 1,\n}')
    with pytest.raises(ParseError, match=r"line 4"):
        load_model_file(path)


def test_wrong_array_length_names_field(tmp_path):
    path = _write(
        tmp_path,
        '{"n": 2, "m": 1, "A": [-1.0, 4.0, -2.0], "B": [1.0, 2.0],'
        ' "C": [1.0, 0.0], "D": [0.0]}',
    )
    with pytest.raises(ParseError, match=r"field 'A'.*expected 4 numbers.*got 3"):
        load_model_file(path)


def test_non_number_entry_rejected(tmp_path):
    path = _write(
        tmp_path,
        '{"n": 1, "m": 1, "A": [-1.0], "B": [1.0], "C": ["x"], "D": [0.0]}',
    )
    with pytest.raises(ParseError, match=r"field 'C'"):
        load_model_file(path)


def test_non_finite_number_rejected(tmp_path):
    path = _write(
        tmp_path,
        '{"n": 1, "m": 1, "A": [-1.0], "B": [NaN], "C": [1.0], "D": [0.0]}',
    )
    with pytest.raises(ParseError, match=r"non-finite"):
        load_model_file(path)


def test_missing_field_reported(tmp_path):
    path = _write(tmp_path, '{"n": 1, "m": 1, "A": [-1.0], "B": [1.0], "C": [1.0]}')
    with pytest.raises(ParseError, match=r"field 'D' is missing"):
        load_model_file(path)


def test_bad_dimension_fields(tmp_path):
    for n_value in ("0", "true", '"2"', "2.0"):
        path = _write(
            tmp_path,
            f'{{"n": {n_value}, "m": 1, "A": [-1.0], "B": [1.0], "C": [1.0], "D": [0.0]}}',
        )
        with pytest.raises(ParseError, match=r"field 'n'"):
            load_model_file(path)


_TOY_FIELDS = {"n": 2, "m": 1, "A": [-1.0, 4.0, -2.0, -1.0], "B": [1.0, 2.0],
               "C": [1.0, 0.0], "D": [0.125]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("B", [[1.0], [2.0]], "field 'B', entry 1: expected a number, got [1.0]"),
        ("B", [1.0], "field 'B': expected 2 numbers (row-major 2x1), got 1"),
        ("A", [-1.0, True, -2.0, -1.0], "field 'A', entry 2: expected a number, got True"),
        ("D", "1e999", "field 'D', entry 1: non-finite value inf"),
        ("B", {"0": 1.0}, "field 'B': expected an array, got dict"),
        ("name", 3, "field 'name' must be a string"),
        ("metadata", [1], "field 'metadata' must be an object"),
    ],
    ids=["nested-rows", "flat-length", "bool-entry", "overflow",
         "not-an-array", "name", "metadata"],
)
def test_field_diagnostics_name_field_and_place(tmp_path, field, value, message):
    # the shape and value checks on each field of a toy model that is valid without the edit
    text = json.dumps({**_TOY_FIELDS, field: value})
    if value == "1e999":  # a literal that json reads as inf, not a string
        text = text.replace('"1e999"', "[1e999]")
    path = _write(tmp_path, text)
    with pytest.raises(ParseError) as info:
        load_model_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_toy_fields_load(tmp_path):
    # the base of the diagnostics above is itself a valid model: each failure is the edit's
    sys = load_model_file(_write(tmp_path, json.dumps(_TOY_FIELDS))).system
    assert_array_equal(sys.A, [[-1.0, 4.0], [-2.0, -1.0]])
    assert_array_equal(sys.B, [[1.0], [2.0]])
    assert_array_equal(sys.C, [[1.0, 0.0]])
    assert_array_equal(sys.D, [[0.125]])


@pytest.mark.parametrize("text", ["[1, 2, 3]","A\n-1 4\n-2 -1\nB\n1\n2\nC\n1 0\nD\n0\n"])
def test_top_level_must_be_object(tmp_path, text):
    # one diagnostic for any non-object file, matrix-block text included
    expected = r'expected a JSON object \{"n", "m", "A", "B", "C", "D"\} at the top level'
    with pytest.raises(ParseError, match=expected):
        load_model_file(_write(tmp_path, text))


def test_empty_and_missing_files(tmp_path):
    with pytest.raises(ParseError, match="empty"):
        load_model_file(_write(tmp_path, "   \n"))
    with pytest.raises(ParseError, match="cannot read"):
        load_model_file(tmp_path / "does-not-exist.json")


# ---------------------------------------------------------------------------
# stability handling
# ---------------------------------------------------------------------------


def test_unstable_model_rejected(tmp_path):
    path = _write(
        tmp_path, '{"n": 1, "m": 1, "A": [1.0], "B": [1.0], "C": [1.0], "D": [0.0]}'
    )
    with pytest.raises(NotHurwitzError):
        load_model_file(path)


def test_unstable_model_error_names_the_file_and_abscissa(tmp_path):
    path = _write(
        tmp_path, '{"n": 1, "m": 1, "A": [1.0], "B": [1.0], "C": [1.0], "D": [0.0]}'
    )
    with pytest.raises(NotHurwitzError) as info:
        load_model_file(path)
    assert str(info.value) == (
        f"{path}: A is not Hurwitz (largest eigenvalue real part 1.000e+00); "
        "every algorithm here assumes asymptotic stability"
    )
    assert info.value.abscissa == 1.0


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_loading_a_model_computes_its_eigenvalues_once(monkeypatch, name):
    # the system's Hurwitz check is the file's stability check
    calls = 0
    orig = np.linalg.eigvals

    def counting(a):
        nonlocal calls
        calls += 1
        return orig(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    load_model_file(benchmark_path(name))
    assert calls == 1


def test_borderline_stable_model_warns_but_loads(tmp_path):
    path = _write(
        tmp_path, '{"n": 1, "m": 1, "A": [-1e-08], "B": [1.0], "C": [1.0], "D": [1.0]}'
    )
    with pytest.warns(RuntimeWarning, match="barely Hurwitz"):
        sys = load_model_file(path).system
    assert sys.A[0, 0] == -1e-08


# ---------------------------------------------------------------------------
# shipped benchmark fixtures
# ---------------------------------------------------------------------------


def test_shipped_fixtures_carry_their_names():
    for name in BENCHMARK_NAMES:
        assert load_model_file(benchmark_path(name)).name == name


def test_acc_fixture_shape():
    sys = load_model_file(benchmark_path("acc")).system
    assert sys.n == 4 and sys.m == 1
    assert_array_equal(sys.D, [[0.0]])


def test_toy_fixture_variants():
    m0 = load_model_file(benchmark_path("toy-m0")).system
    m1 = load_model_file(benchmark_path("toy-m1")).system
    assert m0.n == 2 and m1.n == 2
    assert m0.D[0, 0] == 0.0 and m1.D[0, 0] == 0.125
    # toy-m1 is toy-m0 with D = 1/8
    for X, Y in zip((m0.A, m0.B, m0.C), (m1.A, m1.B, m1.C)):
        assert_array_equal(X, Y)


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        benchmark_system("cd-player")
    with pytest.raises(ValueError, match="unknown benchmark"):
        benchmark_path("cd-player")
