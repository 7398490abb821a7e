"""Per-layer tracing of conormal from outside the package.

A Tracer wraps the public functions listed in TARGETS.  A name that a
module bound with ``from ... import`` is a second reference to the same
function object, so every ``conormal`` module attribute that is the
original object gets the wrapper too.  Spans (name, parent, start, end)
are kept in flat arrays and written out once, at the end of the run.

Self time of a span is its duration minus the durations of its child
spans.  The clock the spans read stops while the tracer computes the
``rank`` input counters, so that bookkeeping is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# checks.<suite>.total_s is reported for the suites the suites workload runs
from workloads import SUITES

# layer -> public names wrapped in the traced run ("Class.method" for methods)
TARGETS = {
    "qlinalg": ("rank", "rref", "kernel_basis", "solve_unique", "homology_ranks",
                "cohomology_trace", "is_chain_map", "tensor",
                "tensor_chain_maps", "total_complex", "VectComplex.check",
                "Matrix.__init__", "Matrix.__mul__", "Matrix.kron",
                "Matrix.assemble"),
    "cellcx": ("product", "product_map", "CellularMap.__post_init__"),
    "sheaf": ("sections", "global_sections", "euler_char", "pullback",
              "pushforward", "verdier_dual", "tensor_sheaf", "external",
              "kernel_compose", "CellularSheaf.res_long"),
    "mueu": ("mueu", "compose_cycle"),
    "tracekernel": ("tk", "compose_tk", "shift_twist"),
    "lefschetz": ("global_trace", "local_trace_sum"),
    # random_invertible and PieceSheaf are what the cohomology and
    # operations workloads build their inputs from, during set-up
    "randgen": ("random_complex", "random_piece_sheaf",
                "random_lefschetz_instance", "random_invertible",
                "PieceSheaf.__init__"),
}

COUNTERS = (("qlinalg.rank.cells", "count"), ("qlinalg.rank.nnz", "count"),
            ("qlinalg.rank.max_bits", "bits"),
            ("qlinalg.Matrix.cells_allocated", "count"),
            ("randgen.inverse_cache_entries", "count"))


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, names in TARGETS.items():
        for name in names:
            out.append(("%s.%s.calls" % (layer, name), "count"))
            out.append(("%s.%s.self_s" % (layer, name), "s"))
    out += [("checks.%s.total_s" % s, "s") for s in SUITES]
    out += [("%s.self_s" % layer, "s") for layer in (*TARGETS, "checks")]
    out += list(COUNTERS)
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Records spans of the wrapped functions while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.self_s = []
        self.total_s = []
        self._stack = []  # [span index, name id, child seconds, start]
        self._paused = 0.0
        self._patches = []
        self.rank_cells = 0
        self.rank_nnz = 0
        self.rank_max_bits = 0
        self.cells_allocated = 0

    # -- spans ------------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def _enter(self, nid):
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        start = time.perf_counter() - self._paused
        self.span_start.append(start)
        stack.append([idx, nid, 0.0, start])

    def _exit(self):
        end = time.perf_counter() - self._paused
        idx, nid, child, start = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def root(self, name, call):
        """Run call() as a top-level span with tracing switched on."""
        nid = self.name_id(name)
        self.on = True
        self._enter(nid)
        try:
            return call()
        finally:
            self._exit()
            self.on = False

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name, fn, count=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if count is not None:
                count(args)
            tracer._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    def _count_rank(self, args):
        t0 = time.perf_counter()
        m = args[0]
        self.rank_cells += m.rows * m.cols
        bits = self.rank_max_bits
        for row in m.data:
            for x in row:
                if x:
                    self.rank_nnz += 1
                    b = max(x.numerator.bit_length(), x.denominator.bit_length())
                    if b > bits:
                        bits = b
        self.rank_max_bits = bits
        self._paused += time.perf_counter() - t0

    def _count_matrix(self, args):
        self.cells_allocated += args[1] * args[2]

    def install(self, modules):
        """Wrap every target; modules maps layer name -> conormal module."""
        conormal_modules = [m for n, m in sys.modules.items()
                            if n == "conormal" or n.startswith("conormal.")]
        counters = {"qlinalg.rank": self._count_rank,
                    "qlinalg.Matrix.__init__": self._count_matrix}
        for layer, names in TARGETS.items():
            mod = modules[layer]
            for name in names:
                full = "%s.%s" % (layer, name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrapper(full, raw.__func__))
                    else:
                        new = self._wrapper(full, raw, counters.get(full))
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, name)
                new = self._wrapper(full, orig, counters.get(full))
                for m in conormal_modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, new)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, randgen, overhead_s):
        """Per-layer metric values, keyed as in metric_units()."""
        by_name = {n: i for i, n in enumerate(self.names)}

        def get(table, name):
            i = by_name.get(name)
            return table[i] if i is not None else 0

        out = {}
        layer_self = {}
        for layer, names in TARGETS.items():
            for name in names:
                full = "%s.%s" % (layer, name)
                out[full + ".calls"] = get(self.calls, full)
                out[full + ".self_s"] = get(self.self_s, full)
                layer_self[layer] = layer_self.get(layer, 0.0) + get(self.self_s, full)
        for s in SUITES:
            out["checks.%s.total_s" % s] = get(self.total_s, "checks." + s)
        layer_self["checks"] = sum(get(self.self_s, "checks." + s) for s in SUITES)
        for layer, v in layer_self.items():
            out[layer + ".self_s"] = v
        out["qlinalg.rank.cells"] = self.rank_cells
        out["qlinalg.rank.nnz"] = self.rank_nnz
        out["qlinalg.rank.max_bits"] = self.rank_max_bits
        out["qlinalg.Matrix.cells_allocated"] = self.cells_allocated
        out["randgen.inverse_cache_entries"] = len(randgen._INV_CACHE)
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, stem: Path):
        """Write <stem>.json (name table, layout) and <stem>.spans (arrays)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.span_name)
        header = {"names": self.names, "spans": n,
                  "layout": ["name int32[n]", "parent int32[n]",
                             "start float64[n]", "end float64[n]"],
                  "byteorder": sys.byteorder, "clock": "seconds, perf_counter"}
        with open(stem.with_suffix(".json"), "w") as fh:
            json.dump(header, fh)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
