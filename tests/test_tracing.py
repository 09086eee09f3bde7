"""The benchmark's span tracer (``perfbench/tracing.py``) wraps klap's
functions by module attribute; every attribute it names must exist, or
``Tracer.install()`` fails with ``AttributeError``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []

    originals = [
        getattr(importlib.import_module(module), attr) for module, attr, _ in tracing.TARGETS
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    restored = [
        getattr(importlib.import_module(module), attr) for module, attr, _ in tracing.TARGETS
    ]
    assert all(a is b for a, b in zip(originals, restored))
