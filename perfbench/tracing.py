"""Span tracer for the traced benchmark run, installed from the benchmark's side.

The program's files are not changed: the tracer rebinds the public functions
and methods of each module (and the two scipy solvers that `mode` calls) to
wrappers that record one span per call.  A span carries a name, start and end
(``time.perf_counter``, which is system-wide on Linux, so forked workers share
the clock), the span that was open when it started, the recording process and
a few attributes (steps taken, GMRES iterations, checkpoint bytes).

Spans are kept in memory.  A forked sweep worker inherits the tracer with the
parent's open ``lab.run_sweep`` span on its stack, so its spans hang under
that span.  The pool may end a worker with SIGTERM, which skips exit handlers,
so a worker appends its spans to a spool file of its own each time one of its
outermost calls returns; ``collect`` merges the spool files into the trace.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.active = False
        self.spans = []
        self._stack = []
        self._pid = os.getpid()
        self.main_pid = self._pid
        self._base_depth = 0
        self._ids = itertools.count()

    def _enter(self):
        pid = os.getpid()
        if pid != self._pid:
            # first traced call in a forked worker: drop the parent's spans
            self._pid = pid
            self.spans = []
            self._base_depth = len(self._stack)
        sid = f"{pid}.{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, t0, t1, attrs):
        self._stack.pop()
        self.spans.append({"id": sid, "name": name, "start": t0, "end": t1,
                           "parent": parent, "pid": self._pid, "attrs": attrs})
        if self._pid != self.main_pid and len(self._stack) == self._base_depth:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            with open(self.spool_dir / f"{self._pid}.jsonl", "a") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
            self.spans = []

    def wrap(self, name, fn, attrs=None):
        """Wrap ``fn`` so that each call records a span; ``attrs(result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid, parent = self._enter()
            extra = {}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(result, args)
                return result
            finally:
                self._exit(sid, parent, name, t0, time.perf_counter(), extra)

        return traced

    def collect(self) -> list:
        """Every span of the round: this process's and the spooled worker spans."""
        spans = list(self.spans)
        if self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("*.jsonl")):
                with open(path) as fh:
                    spans.extend(json.loads(line) for line in fh)
            shutil.rmtree(self.spool_dir)
        return spans


def _rebind_function(module_name: str, name: str, wrapper) -> None:
    """Replace ``name`` in every loaded vmlandau module that holds the original."""
    original = getattr(sys.modules[module_name], name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "vmlandau" or mod_name.startswith("vmlandau.")):
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


class _TracedILU:
    """Stand-in for scipy's SuperLU whose ``solve`` records a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(spool_dir: Path) -> Tracer:
    """Wrap the program's layer boundaries; the returned tracer starts inactive."""
    import scipy.sparse.linalg as spla

    import vmlandau.checkpoint as checkpoint
    import vmlandau.collision as collision
    import vmlandau.grid as grid
    import vmlandau.lab as lab
    import vmlandau.macro as macro
    import vmlandau.mode as mode
    import vmlandau.weights as weights
    from vmlandau._conv import LatticeConvolver

    tr = Tracer(spool_dir)

    def fn(module, name, span_name, attrs=None):
        _rebind_function(module.__name__, name, tr.wrap(span_name, getattr(module, name), attrs))

    def method(cls, name, span_name, attrs=None):
        setattr(cls, name, tr.wrap(span_name, getattr(cls, name), attrs))

    fn(grid, "build_grid", "grid.build_grid")
    fn(collision, "assemble_L", "collision.assemble_L")
    method(collision.LinearizedOperator, "deflation_basis", "collision.deflation_basis")
    method(collision.LinearizedOperator, "apply_raw", "collision.apply_raw")
    method(collision.LinearizedOperator, "k_part", "collision.k_part")
    method(LatticeConvolver, "apply_vector", "conv.apply_vector",
           lambda res, args: {"pad": args[0].pad, "n": args[0].grid.n})
    fn(mode, "integrate_mode", "mode.integrate_mode",
       lambda hist, args: {"steps": len(hist.times) - 1})
    fn(mode, "mode_energy_report", "mode.mode_energy_report")
    fn(macro, "project_P", "macro.project_P")
    fn(macro, "macro_residuals", "macro.macro_residuals")
    fn(weights, "dissipation_norm", "weights.dissipation_norm")
    fn(weights, "energy_ledger", "weights.energy_ledger")
    fn(weights, "temporal_norm_x", "weights.temporal_norm_x")
    method(checkpoint.CheckpointWriter, "append", "checkpoint.append")
    method(checkpoint.CheckpointWriter, "close", "checkpoint.close",
           lambda res, args: {"bytes": os.path.getsize(args[0].path)})
    fn(checkpoint, "read_checkpoint", "checkpoint.read_checkpoint")
    fn(lab, "init_data", "lab.init_data")
    fn(lab, "run_sweep", "lab.run_sweep")
    fn(lab, "synthesize_norms", "lab.synthesize_norms")
    fn(lab, "decay_fit", "lab.decay_fit")
    fn(lab, "report", "lab.report")

    spilu = spla.spilu

    @functools.wraps(spilu)
    def traced_spilu(*args, **kwargs):
        lu = spilu(*args, **kwargs)
        return _TracedILU(lu, tr.wrap("mode.ilu_solve", lu.solve))

    spla.spilu = tr.wrap("mode.spilu", traced_spilu)

    gmres = spla.gmres
    iters = [0]

    @functools.wraps(gmres)
    def counted_gmres(A, b, *args, callback=None, **kwargs):
        iters[0] = 0

        def count(x):
            iters[0] += 1
            callback(x)

        return gmres(A, b, *args, callback=count if callback else None, **kwargs)

    spla.gmres = tr.wrap("mode.gmres", counted_gmres, lambda res, args: {"iters": iters[0]})
    return tr


def _fft_flops(points: int) -> float:
    return 5.0 * points * math.log2(points)


def conv_cost(pad: int, n: int):
    """Computed (not measured) flops and bytes of one ``apply_vector`` call.

    Flops: a 3-component forward and inverse FFT of pad^3 complex points at
    5 N log2 N each, plus the 9-term contraction out_i = sum_j H_ij a_j of a
    real kernel with complex data (9 real-complex products at 2 flops, 6
    complex additions at 2 flops: 30 per point).  Bytes: each stage reads its
    operands once and writes its result once (copy in, forward FFT, contraction
    reading the 6 real packed kernels, inverse FFT, crop); the multi-pass
    traffic inside the FFTs is not counted, so this is a lower bound.
    """
    N = pad ** 3
    flops = 6 * _fft_flops(N) + 30.0 * N
    c16 = 16 * 3 * N
    bytes_ = (c16                      # zero-padded copy in
              + 2 * c16                # forward FFT: read, write
              + 6 * 8 * N + 2 * c16    # contraction: kernels, read a, write out
              + 2 * c16                # inverse FFT: read, write
              + 16 * 3 * n ** 3)       # crop to n^3
    return flops, float(bytes_)


PER_LAYER = {
    "grid.build_grid.s": "s",
    "conv.apply_vector.calls": "count",
    "conv.apply_vector.s": "s",
    "conv.apply_vector.ms_per_call": "ms",
    "conv.apply_vector.flops_computed": "flop",
    "conv.apply_vector.bytes_computed": "B",
    "collision.assemble_L.s": "s",
    "collision.deflation_basis.s": "s",
    "collision.apply_raw.calls": "count",
    "collision.apply_raw.ms_per_call": "ms",
    "collision.k_part.s": "s",
    "collision.sparse_part.s": "s",
    "mode.integrate_mode.s": "s",
    "mode.spilu.calls": "count",
    "mode.spilu.s": "s",
    "mode.ilu_solve.calls": "count",
    "mode.ilu_solve.s": "s",
    "mode.gmres.calls": "count",
    "mode.gmres_iters_per_step": "1/step",
    "mode.l_applies_per_step": "1/step",
    "mode.mode_energy_report.s": "s",
    "macro.project_P.calls": "count",
    "macro.project_P.s": "s",
    "macro.macro_residuals.s": "s",
    "weights.dissipation_norm.calls": "count",
    "weights.dissipation_norm.s": "s",
    "weights.energy_ledger.calls": "count",
    "weights.energy_ledger.s": "s",
    "weights.temporal_norm_x.s": "s",
    "checkpoint.append.calls": "count",
    "checkpoint.append.s": "s",
    "checkpoint.bytes_written": "B",
    "checkpoint.read_checkpoint.s": "s",
    "lab.run_sweep.s": "s",
    "lab.worker_busy_s": "s",
    "lab.parallel_efficiency": "1",
    "lab.synthesize_norms.s": "s",
    "lab.decay_fit.s": "s",
    "lab.report.s": "s",
}


def layer_metrics(spans: list, main_pid: int) -> dict:
    """Per-layer metrics of one traced round; layers a workload never calls read 0."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    by_id = {s["id"]: s for s in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def under(span, ancestor_name):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == ancestor_name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    # "<span>.s" and "<span>.calls" directly; the derived metrics below
    out = {}
    for metric in PER_LAYER:
        span_name, _, kind = metric.rpartition(".")
        out[metric] = {"s": secs, "calls": calls}.get(kind, lambda _: 0.0)(span_name)

    conv = by_name.get("conv.apply_vector", [])
    out["conv.apply_vector.ms_per_call"] = 1e3 * ratio(secs("conv.apply_vector"), len(conv))
    flops, bytes_ = conv_cost(conv[0]["attrs"]["pad"], conv[0]["attrs"]["n"]) if conv else (0.0, 0.0)
    out["conv.apply_vector.flops_computed"] = flops
    out["conv.apply_vector.bytes_computed"] = bytes_

    out["collision.apply_raw.ms_per_call"] = 1e3 * ratio(secs("collision.apply_raw"),
                                                         calls("collision.apply_raw"))
    # self time of apply_raw: the sparse A f products and the species sum/stack
    child_k = {}
    for s in by_name.get("collision.k_part", ()):
        child_k[s["parent"]] = child_k.get(s["parent"], 0.0) + s["end"] - s["start"]
    out["collision.sparse_part.s"] = sum(s["end"] - s["start"] - child_k.get(s["id"], 0.0)
                                         for s in by_name.get("collision.apply_raw", ()))

    steps = sum(s["attrs"]["steps"] for s in by_name.get("mode.integrate_mode", ()))
    iters = sum(s["attrs"]["iters"] for s in by_name.get("mode.gmres", ()))
    out["mode.gmres_iters_per_step"] = ratio(iters, steps)
    l_in_steps = sum(1 for s in by_name.get("collision.apply_raw", ())
                     if under(s, "mode.integrate_mode"))
    out["mode.l_applies_per_step"] = ratio(l_in_steps, steps)

    out["checkpoint.bytes_written"] = float(sum(s["attrs"]["bytes"]
                                                for s in by_name.get("checkpoint.close", ())))

    worker_roots = [s for s in spans if s["pid"] != main_pid
                    and (by_id.get(s["parent"]) or {}).get("pid") != s["pid"]]
    busy = sum(s["end"] - s["start"] for s in worker_roots)
    workers = len({s["pid"] for s in worker_roots})
    sweep_wall = secs("lab.run_sweep")
    out["lab.worker_busy_s"] = busy
    out["lab.parallel_efficiency"] = ratio(busy, workers * sweep_wall)
    return out
