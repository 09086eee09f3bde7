"""Span tracing of klap's layers from outside the program.

The layers call each other through module attributes (``klap.optimizer``
calls ``solve_lyapunov`` through its own module global, and so on).  A
:class:`Tracer` replaces those attributes with wrappers that record one span
per call -- layer name, start, end, parent span -- in memory, and restores
them on :meth:`Tracer.uninstall`.  The program itself is not modified.

A layer's self time is the duration of its spans minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, layer name).  Every route by which one layer reaches
# another is listed, so a layer reached twice (the Lyapunov kernel through
# the optimizer and through the Gramian) is counted on both routes.
TARGETS = (
    ("klap.cli", "main", "cli.main"),
    ("klap.cli", "load_model_file", "modelio.load_model_file"),
    ("klap.cli", "write_model", "modelio.write_model"),
    ("klap.cli", "klap", "optimizer.klap"),
    ("klap.cli", "popov_scan", "system.popov_scan"),
    ("klap.optimizer", "klap", "optimizer.klap"),
    ("klap.optimizer", "initialize", "optimizer.initialize"),
    ("klap.optimizer", "lbfgs_minimize", "optimizer.lbfgs"),
    ("klap.optimizer", "objective_and_gradient", "optimizer.objective"),
    ("klap.optimizer", "restart_step", "optimizer.restart_step"),
    ("klap.optimizer", "solve_lyapunov", "linalg.lyap"),
    ("klap.optimizer", "solve_lyapunov_transposed", "linalg.lyap"),
    ("klap.system", "solve_lyapunov", "linalg.lyap"),
    ("klap.optimizer", "spectral_decompose", "linalg.eig"),
    ("klap.linalg", "spectral_decompose", "linalg.eig"),
    ("klap.optimizer", "controllability_gramian", "system.gramian"),
    ("klap.optimizer", "popov_scan", "system.popov_scan"),
    ("klap.passivity", "popov_scan", "system.popov_scan"),
    ("klap.optimizer", "solve_are", "passivity.solve_are"),
    ("klap.passivity", "solve_are", "passivity.solve_are"),
    ("klap.optimizer", "check_passive", "passivity.check_passive"),
    ("klap.optimizer", "global_min_certificate", "passivity.certificate"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

# what a span keeps of its call's return value
_KEEP = {"optimizer.lbfgs": lambda r: (float(r.value), int(r.iterations))}


class Tracer:
    """Records spans ``[layer, start, end, parent, kept]`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = _KEEP.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    span[4] = keep(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def summarize(spans: list[list]) -> dict:
    """Per-layer ``calls`` and ``self_s``, plus the optimizer ratios.

    ``evals_per_iter`` is objective evaluations per accepted L-BFGS
    iteration; ``improved_frac`` is the share of inner runs after the first
    of each ``klap`` call that lowered that call's best J (0 when no call
    made a second inner run).
    """
    child = [0.0] * len(spans)
    for layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    runs_by_call: dict[int, list[float]] = defaultdict(list)
    iterations = 0
    for i, (layer, t0, t1, parent, kept) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (t1 - t0) - child[i]
        if kept is not None:
            runs_by_call[parent].append(kept[0])
            iterations += kept[1]
    later = improved = 0
    for values in runs_by_call.values():
        best = values[0]
        for v in values[1:]:
            later += 1
            improved += v < best
            best = min(best, v)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["optimizer.evals_per_iter"] = calls["optimizer.objective"] / max(iterations, 1)
    out["optimizer.lbfgs.improved_frac"] = improved / later if later else 0.0
    return out


def write_spans(passes: list[list[list]], path: str) -> None:
    """Write the spans of each traced pass as tab-separated
    ``pass index layer start end parent`` rows; times are in seconds from
    the pass's first span and ``parent`` indexes the same pass (-1: none)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tindex\tlayer\tstart_s\tend_s\tparent\n")
        for k, spans in enumerate(passes):
            t_first = spans[0][1] if spans else 0.0
            for i, (layer, t0, t1, parent, _) in enumerate(spans):
                fh.write(f"{k}\t{i}\t{layer}\t{t0 - t_first:.9f}\t{t1 - t_first:.9f}\t{parent}\n")
