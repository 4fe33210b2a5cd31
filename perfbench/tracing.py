"""Spans around syncphase's layers, installed from outside the package.

A :class:`Tracer` replaces module attributes with pass-through wrappers at
the places the package looks its own functions up (``mc_harness`` calls
``reduced_dft_draws`` through its module globals, ``reduced_dft_draws``
calls ``rng.standard_normals_block`` through the module, and so on).  Each
wrapper records one span: name, start and end in ``perf_counter_ns``, the
index of the enclosing span, the op id, and the counts of work it was
handed.  Spans stay in memory until the run ends.  ``uninstall`` puts the
original functions back, so traced and untraced ops can alternate in one
process.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# A span: [name, start_ns, end_ns, parent index or -1, op id, counts].
Span = list

ROOT = "cli.main"
RNG = "rng.standard_normals_block"
SYNTHESIS = "spectral_estimator.reduced_dft_draws"
GOERTZEL = "spectral_estimator.dft_bin_batch"
RUN_MC = "mc_harness.run_mc"
BATTERY = "mc_harness.run_convergence_battery"
HZ = "mc_harness.henze_zirkler"
HOEFFDING = "mc_harness.hoeffding_d"
INTEGRATE = "quadrature.integrate"
PDF_VALUE = "phase_pdf.pdf_value"
DENSITY_GRID = "divergences.density_grid"
KL = "divergences.kl"


def _size(array) -> int:
    return int(getattr(array, "size", 1))


def _rng_counts(seed, first_draw, n_draws, channel, count):
    return {"substreams": n_draws, "normals": n_draws * count}


def _synthesis_counts(params, master_seed, first_draw, n_draws):
    return {"draws": n_draws}


def _pdf_counts(pdf, theta):
    return {"points": _size(theta)}


def _grid_nodes(grid):
    return {"nodes": _size(grid.nodes)}


# (module, attribute, span name, counts from the arguments, counts from the
# result)
PATCHES: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]],
               ...] = (
    ("syncphase.cli", "run_mc", RUN_MC, None, None),
    ("syncphase.cli", "run_convergence_battery", BATTERY, None, None),
    ("syncphase.cli", "density_from_pdf", DENSITY_GRID, None, _grid_nodes),
    ("syncphase.cli", "gaussian_approximation", DENSITY_GRID, None,
     _grid_nodes),
    ("syncphase.cli", "uniform_density_on", DENSITY_GRID, None, _grid_nodes),
    ("syncphase.cli", "kl_divergence", KL, None, None),
    ("syncphase.cli", "bhattacharyya_distance", KL, None, None),
    ("syncphase.cli", "pdf_value", PDF_VALUE, _pdf_counts, None),
    ("syncphase.mc_harness", "reduced_dft_draws", SYNTHESIS,
     _synthesis_counts, None),
    ("syncphase.mc_harness", "henze_zirkler", HZ, None, None),
    ("syncphase.mc_harness", "hoeffding_d", HOEFFDING,
     lambda x, y: {"points": _size(x)}, None),
    ("syncphase.rng", "standard_normals_block", RNG, _rng_counts, None),
    ("syncphase.spectral_estimator", "dft_bin_batch", GOERTZEL,
     lambda matrix, k: {"samples": _size(matrix)}, None),
    ("syncphase.phase_pdf", "pdf_value", PDF_VALUE, _pdf_counts, None),
    ("syncphase.divergences", "pdf_value", PDF_VALUE, _pdf_counts, None),
)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.op_id = -1  # one id per traced op run, from 0

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, counts: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.op_id, counts or {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None,
             result_counts: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name, counts(*args, **kwargs) if counts else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if result_counts:
                self.spans[index][5].update(result_counts(result))
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_integrate(self, fn: Callable) -> Callable:
        """``integrate`` gets a span, and its integrand a counter: one
        integrand evaluation is one Gauss 7/15 panel."""
        def traced(f, *args, **kwargs):
            index = self.begin(INTEGRATE, {"panels": 0})
            counts = self.spans[index][5]

            def integrand(x):
                counts["panels"] += 1
                return f(x)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self.end(index)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, counts, result_counts in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr,
                    self.wrap(name, original, counts, result_counts))
        module = importlib.import_module("syncphase.phase_pdf")
        original = module.integrate
        self._saved.append((module, "integrate", original))
        module.integrate = self._wrap_integrate(original)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_op(self, fn: Callable, *args):
        """Call ``fn(*args)`` installed, as the root span of the next op id."""
        self.op_id += 1
        self.install()
        try:
            index = self.begin(ROOT)
            try:
                return fn(*args)
            finally:
                self.end(index)
        finally:
            self.uninstall()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent, op_id, counts in self.spans:
                fp.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op_id, **counts}) + "\n")


# -- analysis ------------------------------------------------------------------

def unit(name: str) -> str:
    """Unit of a per-layer figure: self seconds or work counts per op run."""
    if name == "trace.overhead_frac":
        return "ratio"
    return "s/op" if name.endswith("_s") else "count/op"


def covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans: List[Span]) -> List[int]:
    """Per span: duration minus the time its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [end - start - covered_ns(start, end, children.get(i, ()))
            for i, (_, start, end, _, _, _) in enumerate(spans)]


def layer_metrics(spans: List[Span], n_ops: int) -> Dict[str, float]:
    """Per-layer self times (s) and counts, each per op."""
    selfs = self_times_ns(spans)
    time_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[Tuple[str, str], int] = {}
    chunks = 0
    for span, self_ns in zip(spans, selfs):
        name, parent, tally = span[0], span[3], span[5]
        time_s[name] = time_s.get(name, 0.0) + self_ns * 1e-9
        calls[name] = calls.get(name, 0) + 1
        for key, value in tally.items():
            counts[name, key] = counts.get((name, key), 0) + value
        if name == SYNTHESIS and parent >= 0 and spans[parent][0] == RUN_MC:
            chunks += 1

    def t(name):
        return time_s.get(name, 0.0) / n_ops

    def c(name, key=None):
        value = calls.get(name, 0) if key is None else counts.get((name, key), 0)
        return value / n_ops

    return {
        "rng.self_s": t(RNG),
        "rng.substreams": c(RNG, "substreams"),
        "rng.normals": c(RNG, "normals"),
        "spectral_estimator.goertzel_s": t(GOERTZEL),
        "spectral_estimator.goertzel_samples": c(GOERTZEL, "samples"),
        "spectral_estimator.synthesis_self_s": t(SYNTHESIS),
        "spectral_estimator.draws": c(SYNTHESIS, "draws"),
        "mc_harness.reduce_self_s": t(RUN_MC),
        "mc_harness.chunks": chunks / n_ops,
        "mc_harness.battery_self_s": t(BATTERY),
        "mc_harness.hz_s": t(HZ),
        "mc_harness.hz_calls": c(HZ),
        "mc_harness.hoeffding_s": t(HOEFFDING),
        "mc_harness.hoeffding_points": c(HOEFFDING, "points"),
        "quadrature.integrate_self_s": t(INTEGRATE),
        "quadrature.calls": c(INTEGRATE),
        "quadrature.panels": c(INTEGRATE, "panels"),
        "phase_pdf.pdf_value_s": t(PDF_VALUE),
        "phase_pdf.pdf_points": c(PDF_VALUE, "points"),
        "divergences.density_grid_self_s": t(DENSITY_GRID),
        "divergences.nodes": c(DENSITY_GRID, "nodes"),
        "divergences.kl_s": t(KL),
        "cli.self_s": t(ROOT),
    }
