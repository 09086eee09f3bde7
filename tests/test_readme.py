"""The README's library quick start runs, the names it cites exist, its
command lines parse, and its bundled-benchmark figures are what ``klap``
returns on the same inputs."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klap as package
from klap import benchmark_system, klap
from klap.cli import _build_parser, _certificate_status, _merge_factor_values

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def section(title):
    """The README text from the heading ``## title`` to the next ``## ``."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def quick_start():
    return re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)


def benchmark_rows():
    """``(command, iterations, restarts, h2 error, certificate)`` per row of
    the bundled-benchmark table."""
    rows = []
    for line in section("Bundled benchmarks").splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 7 and cells[0].startswith("`"):
            command, _, _, iterations, restarts, h2, certificate = cells
            rows.append((command.strip("`"), int(iterations), int(restarts), h2, certificate))
    return rows


def l0_run():
    """``(command, iterations, restarts, h2 error)`` of the ``--l0`` run the
    bundled-benchmark section describes."""
    match = re.search(
        r"\(`klap passivate src/klap/data/models/(\S+)\.json --l0 \"(\S+)\"`\)"
        r".*?\((\d+) iterations, (\d+) restarts?, h2 error (\S+)\)",
        section("Bundled benchmarks"), re.S,
    )
    name, l0, iterations, restarts, h2 = match.groups()
    return f"{name} --l0 {l0}", int(iterations), int(restarts), h2


def entry_points():
    """The names in the first column of the entry-point table."""
    table = section("Library quick start").split("Useful entry points", 1)[1].split("\n\n")[1]
    names = []
    for row in table.splitlines()[2:]:
        first = row.strip("|").split("|")[0]
        names += [re.match(r"\w+", span).group() for span in re.findall(r"`([^`]+)`", first)]
    return names


def building_blocks():
    """``(module, name)`` for every name of the building-blocks paragraph:
    a ``klap.<module>`` span opens the module the spans after it belong to,
    and a dotted span names its own module."""
    paragraph = re.search(r"The building blocks of the driver.*?\n\n", README, re.S).group()
    cited, module = [], None
    for span in re.findall(r"`([^`]+)`", paragraph):
        if re.fullmatch(r"klap(\.\w+)+", span):
            head, _, tail = span.rpartition(".")
            try:
                module = importlib.import_module(span)
            except ModuleNotFoundError:
                cited.append((importlib.import_module(head), tail))
        else:
            cited.append((module, re.match(r"\w+", span).group()))
    return cited


def command_lines():
    """Every ``klap ...`` line of the README's ``sh`` blocks (continuations
    joined) and every inline ``klap`` command with arguments, as argv."""
    blocks = "\n".join(re.findall(r"```sh\n(.*?)```", README, re.S)).replace("\\\n", " ")
    lines = [line for line in blocks.splitlines() if line.startswith("klap ")]
    lines += [span for span in re.findall(r"`(klap [^`]+)`", README) if len(span.split()) > 2]
    return [shlex.split(line)[1:] for line in dict.fromkeys(lines)]


def run(command):
    """``klap()`` on a bundled model with the ``--feedthrough`` and ``--l0``
    options of a ``klap passivate`` command line."""
    name, *options = command.split()
    sys_ = benchmark_system(name)
    overrides = {}
    for flag, value in zip(options[::2], options[1::2]):
        if flag == "--feedthrough":
            sys_ = sys_.with_feedthrough(float(value) * np.eye(sys_.m))
        elif flag == "--l0":
            overrides["L0"] = np.array([float(v) for v in value.split(",")]).reshape(
                sys_.n, sys_.m)
        else:
            raise AssertionError(f"unknown option {flag}")
    return klap(sys_, **overrides)


def test_the_quick_start_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", quick_start()], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_every_name_the_readme_cites_resolves():
    # the entry-point table lists exports of klap; the building blocks
    # paragraph names of the modules it cites
    names = entry_points()
    assert "klap" in names and "write_model" in names
    for name in names:
        assert name in package.__all__, name
    cited = building_blocks()
    assert len(cited) >= 10
    for module, name in cited:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_the_benchmark_table_has_the_four_bundled_runs():
    assert [row[0] for row in benchmark_rows()] == [
        "acc --feedthrough 0.125", "acc", "toy-m1", "toy-m0"]


@pytest.mark.parametrize("row", benchmark_rows(), ids=lambda row: row[0])
def test_a_benchmark_row_matches_klap(row):
    command, iterations, restarts, h2, certificate = row
    res = run(command)
    assert (res.iterations, res.restarts) == (iterations, restarts)
    assert f"{res.h2_error:.4f}" == h2
    assert _certificate_status(res) == certificate


def test_the_l0_run_matches_klap():
    command, iterations, restarts, h2 = l0_run()
    assert command == "toy-m1 --l0 -2,0"
    res = run(command)
    assert (res.iterations, res.restarts) == (iterations, restarts)
    assert f"{res.h2_error:.4f}" == h2


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_a_readme_command_line_parses(argv):
    _build_parser().parse_args(_merge_factor_values(argv))


def test_the_readme_command_lines_cover_every_subcommand():
    assert {argv[0] for argv in command_lines()} == {"check", "passivate", "popov", "h2"}
