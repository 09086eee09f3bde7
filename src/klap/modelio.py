"""Reading and writing state-space model files.

A model file is one JSON object ``{"name"?, "n", "m", "A", "B", "C",
"D", "metadata"?}`` where each matrix is a flat row-major array of
numbers (nested row arrays are also accepted on input).  Numbers are
written with Python's shortest round-tripping decimal representation,
so loading a file :func:`write_model` wrote reproduces every matrix bit
for bit.

Parsing failures raise :class:`~klap.exceptions.ParseError` naming the
offending line or field.  A model whose ``A`` is not Hurwitz raises
:class:`~klap.exceptions.NotHurwitzError`; a stable matrix that sits very
close to the stability boundary is accepted with a warning, since
Gramian-based computations degrade there.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NotHurwitzError, ParseError
from .system import StateSpaceSystem

__all__ = ["ModelFile", "load_model_file", "write_model", "dumps_model"]

# relative stability margin below which a (still Hurwitz) A triggers a warning
_BORDERLINE_RTOL = 1e-6


@dataclass(frozen=True)
class ModelFile:
    """A parsed model file: the system plus its optional annotations."""

    system: StateSpaceSystem
    name: str | None = None
    metadata: dict = field(default_factory=dict)


def _stable_system(A, B, C, D, source: str) -> StateSpaceSystem:
    """The model's system.  Its constructor's Hurwitz check decides
    stability, and the spectral abscissa it keeps words the ``source``
    messages, so the eigenvalues of ``A`` are computed once per file."""
    try:
        sys = StateSpaceSystem(A, B, C, D)
    except NotHurwitzError as exc:
        raise NotHurwitzError(
            f"{source}: A is not Hurwitz (largest eigenvalue real part "
            f"{exc.abscissa:.3e}); every algorithm here assumes asymptotic stability",
            exc.abscissa,
        ) from None
    abscissa = sys._spectral_abscissa()
    if abscissa > -_BORDERLINE_RTOL * max(1.0, float(np.linalg.norm(A, "fro"))):
        warnings.warn(
            f"{source}: A is barely Hurwitz (largest eigenvalue real part "
            f"{abscissa:.3e}); Gramian computations may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )
    return sys


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    x = float(value)
    if not np.isfinite(x):
        raise ParseError(f"{where}: non-finite value {value!r}")
    return x


def _json_matrix(doc: dict, key: str, rows: int, cols: int, source: str) -> np.ndarray:
    where = f"{source}: field '{key}'"
    raw = doc.get(key)
    if raw is None:
        raise ParseError(f"{where} is missing")
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected an array, got {type(raw).__name__}")
    if raw and all(isinstance(r, list) for r in raw):
        if len(raw) != rows:
            raise ParseError(f"{where}: expected {rows} rows, got {len(raw)}")
        flat = []
        for i, row in enumerate(raw):
            if len(row) != cols:
                raise ParseError(
                    f"{where}: row {i + 1} has {len(row)} entries, expected {cols}"
                )
            flat.extend(_as_number(v, f"{where}, row {i + 1}") for v in row)
    else:
        if len(raw) != rows * cols:
            raise ParseError(
                f"{where}: expected {rows * cols} numbers (row-major "
                f"{rows}x{cols}), got {len(raw)}"
            )
        flat = [_as_number(v, f"{where}, entry {i + 1}") for i, v in enumerate(raw)]
    return np.array(flat, dtype=float).reshape(rows, cols)


def _positive_int(doc: dict, key: str, source: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"{source}: field '{key}' must be a positive integer, got {value!r}")
    return value


def load_model_file(path: str | os.PathLike) -> ModelFile:
    """Parse a JSON model file with its annotations.  See the module
    docstring for the format."""
    source = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{source}: cannot read file: {exc.strerror or exc}") from exc
    stripped = text.lstrip()
    if not stripped:
        raise ParseError(f"{source}: file is empty")
    if not stripped.startswith("{"):
        raise ParseError(
            f'{source}: expected a JSON object {{"n", "m", "A", "B", "C", "D"}} at the top level'
        )

    def reject_constant(token: str):
        raise ParseError(f"{source}: non-finite number {token!r}")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    n = _positive_int(doc, "n", source)
    m = _positive_int(doc, "m", source)
    A = _json_matrix(doc, "A", n, n, source)
    B = _json_matrix(doc, "B", n, m, source)
    C = _json_matrix(doc, "C", m, n, source)
    D = _json_matrix(doc, "D", m, m, source)

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{source}: field 'name' must be a string")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{source}: field 'metadata' must be an object")

    return ModelFile(_stable_system(A, B, C, D, source), name, dict(metadata))


def dumps_model(
    sys: StateSpaceSystem,
    name: str | None = None,
    metadata: dict | None = None,
) -> str:
    """Serialize a system to the JSON model format (one matrix per line,
    shortest exact decimal representation for every number)."""
    parts = []
    if name is not None:
        parts.append(f'  "name": {json.dumps(name)}')
    parts.append(f'  "n": {sys.n}')
    parts.append(f'  "m": {sys.m}')
    for key, M in (("A", sys.A), ("B", sys.B), ("C", sys.C), ("D", sys.D)):
        entries = ", ".join(repr(float(v)) for v in M.ravel(order="C"))
        parts.append(f'  "{key}": [{entries}]')
    if metadata:
        parts.append(f'  "metadata": {json.dumps(metadata, sort_keys=True)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def write_model(
    sys: StateSpaceSystem,
    path: str | os.PathLike,
    name: str | None = None,
    metadata: dict | None = None,
) -> None:
    """Write a system to ``path`` in the JSON model format.

    The serialization round-trips exactly: loading the written file
    reproduces every matrix entry bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(sys, name=name, metadata=metadata))
