"""Span tracer that measures the package's layers from outside.

``Tracer.install`` replaces each target function in every ``cqed_scope``
module namespace that binds it (``scan`` binds the ``lindblad`` functions,
``lindblad`` binds the ``hilbert`` ones, ``cli`` binds the rest), so calls
made inside the package are seen too.  Each call records a span: name,
start, end and the span that caused it.  Spans stay in memory until
``layer_totals`` reads them.  A span's self time is its duration minus the
part of it that its child spans cover; work handed to a thread pool is
parented to the span that was open in the submitting main thread.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: Traced functions, by defining module.  Each span is named ``module.function``.
SPANNED = {
    "config": ("parse_config",),
    "cli": ("main",),
    "scan": ("scan_laser", "power_sweep"),
    "lindblad": ("build_hamiltonian", "build_liouvillian", "steady_state", "truncation_check"),
    "hilbert": ("validate_density_matrix",),
    "fit": ("fit_lorentzian", "fit_saturation", "fit_power_broadening", "fit_linear"),
    "reproduce": ("chained_linewidth_fit", "saturation_curve", "linewidth_curve", "excess_curve"),
    "dataset": ("write_csv", "read_csv"),
}
#: Spans reported together under one name.
MERGED = {
    "reproduce.saturation_curve": "reproduce.synthesis",
    "reproduce.linewidth_curve": "reproduce.synthesis",
    "reproduce.excess_curve": "reproduce.synthesis",
}
#: Functions that are only counted (too small and frequent to span).
COUNTED = {"hilbert": ("lift_qd", "lift_cavity")}


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _matrix_footprint(matrix) -> tuple[int, int, int]:
    """``(bytes, non-zeros, entries)`` of a dense array or a scipy sparse matrix."""
    rows, cols = matrix.shape
    if hasattr(matrix, "nnz"):
        parts = ("data", "indices", "indptr")
        held = sum(getattr(matrix, part).nbytes for part in parts if hasattr(matrix, part))
        return held, int(matrix.nnz), rows * cols
    return int(matrix.nbytes), int(np.count_nonzero(matrix)), rows * cols


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.liouvillians: Counter = Counter()
        self.footprints: dict[tuple, tuple[int, int, int]] = {}
        self._main_thread = threading.main_thread()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = [name, time.perf_counter(), 0.0, parent]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_scan(self, args, kwargs, result) -> None:
        self.counts["scan.points_delivered"] += len(result)

    def _after_liouvillian(self, args, kwargs, result) -> None:
        matrix = getattr(result, "matrix", result)
        key = (type(matrix), matrix.shape)
        self.liouvillians[key] += 1
        if key not in self.footprints:
            self.footprints[key] = _matrix_footprint(matrix)

    def _after_fit(self, args, kwargs, result) -> None:
        self.counts["fit.results"] += 1
        self.counts["fit.lm_iterations"] += int(result.iterations)
        self.counts["fit.converged"] += int(bool(result.converged))

    def _after_write(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["dataset.write_csv.bytes"] += os.path.getsize(path)

    def _after_read(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["dataset.read_csv.bytes"] += os.path.getsize(path)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ``cqed_scope`` namespace that binds it."""
        hooks = {
            "scan.scan_laser": self._after_scan,
            "lindblad.build_liouvillian": self._after_liouvillian,
            "dataset.write_csv": self._after_write,
            "dataset.read_csv": self._after_read,
            **{f"fit.{fn}": self._after_fit for fn in SPANNED["fit"]},
        }
        replacements = {}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for module_name, names in table.items():
                module = importlib.import_module(f"cqed_scope.{module_name}")
                for fn_name in names:
                    fn = getattr(module, fn_name, None)
                    if fn is None:
                        continue
                    name = f"{module_name}.{fn_name}"
                    if spanned:
                        wrapper = self._spanned(MERGED.get(name, name), fn, hooks.get(name))
                        replacements[id(fn)] = (fn, wrapper)
                    else:
                        replacements[id(fn)] = (fn, self._counted(name, fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("cqed_scope"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- reading ----------------------------------------------------------

    def layer_totals(self) -> dict[str, list[float]]:
        """``name -> [calls, self seconds, total seconds]`` over all recorded spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            row = totals[name]
            row[0] += 1
            row[1] += (end - start) - _covered(children.get(id(span), []), start, end)
            row[2] += end - start
        return dict(totals)

    def liouvillian_footprint(self) -> tuple[float, float]:
        """MiB and non-zero fraction of the most frequently built Liouvillian."""
        if not self.liouvillians:
            return 0.0, 0.0
        key, _ = self.liouvillians.most_common(1)[0]
        held, nnz, entries = self.footprints[key]
        return held / 2**20, nnz / entries
