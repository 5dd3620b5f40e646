"""Per-layer tracing of algolab from outside the package.

``Tracer.installed()`` wraps the public functions of every layer module (and
a few methods, listed in METHODS) and rebinds each wrapper in every
``algolab.*`` namespace that binds the original, because modules import
functions by name.  While an op is open, each wrapped call records a span:
name, start, end, parent span, op id and whether an exception left it.
Spans stay in memory (flat arrays) and are written out once at the end;
self time is a span's duration minus the time its child spans cover.
Calls made while no op is open (the independent checks) pass straight
through and leave no record.
"""

import array
import functools
import gzip
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = {
    "cli": "algolab.cli",
    "oracle.algebra": "algolab.oracle.algebra",
    "oracle.modules": "algolab.oracle.modules",
    "oracle.homology": "algolab.oracle.homology",
    "linalg": "algolab.linalg",
    "snf": "algolab.snf",
    "nakayama": "algolab.nakayama",
    "dynkin": "algolab.dynkin",
    "serre": "algolab.serre",
    "replicated": "algolab.replicated",
    "gl": "algolab.gl",
}

# Helpers whose spans would outnumber all others (allocation in linalg, the
# per-point steps of a GL scan, called only from gl itself); their time
# counts to the caller.
SKIP = {"linalg": ("zeros", "identity", "copy_matrix"), "gl": ("make_element", "geq_zero")}

# Methods that other layers call for real work.  Other methods, and private
# functions, run inside the span of whichever wrapped function called them.
METHODS = {
    "linalg": {"RowSolver": ("__init__", "reduce", "contains", "coefficients")},
    "oracle.modules": {
        "ModuleComplex": ("cohomology", "nonzero_cohomology"),
        "ModuleMap": ("compose",),
    },
    "oracle.algebra": {
        "StructureConstantAlgebra": (
            "opposite",
            "verify_structure",
            "is_connected",
            "cartan_dims",
        )
    },
}

COUNTS = (
    "oracle.homology.resolutions",
    "oracle.homology.resolution_steps",
    "oracle.homology.truncated",
    "oracle.modules.projective_module.calls",
    "oracle.modules.top_data.calls",
    "oracle.modules.submodule.calls",
    "oracle.modules.cohomology.calls",
    "linalg.eliminations",
    "linalg.cells_in",
    "oracle.algebra.compiled_dim",
    "gl.scan_points",
)


# Wrapped functions whose calls feed the counts: before the call (from the
# arguments) or after it (from the result).
COUNT_BEFORE = frozenset(
    (
        "linalg:rref",
        "linalg:RowSolver.__init__",
        "oracle.modules:projective_module",
        "oracle.modules:top_data",
        "oracle.modules:submodule",
        "oracle.modules:ModuleComplex.cohomology",
    )
)
COUNT_AFTER = frozenset(
    (
        "oracle.homology:minimal_projective_resolution",
        "oracle.algebra:compile_bound_quiver",
        "oracle.algebra:build_replicated",
        "gl:canonical_nu_formal_scan",
    )
)


class Tracer:
    def __init__(self):
        self.names = []  # span name table: (layer, function)
        self.name_of = array.array("I")
        self.parent = array.array("q")
        self.op_of = array.array("I")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised = array.array("B")
        self.stack = []
        self.op = None
        self.counts = dict.fromkeys(COUNTS, 0)
        self._algebras = []  # keeps ids unique while an op is open
        self._projective_pairs = set()
        self._patches = None

    # -- ops -------------------------------------------------------------------

    @contextmanager
    def op_scope(self, op_id):
        self.op = op_id
        try:
            yield
        finally:
            self.op = None
            self.stack.clear()
            self._algebras.clear()

    # -- counters at layer boundaries -----------------------------------------

    def _before(self, key, args):
        c = self.counts
        if key == "linalg:rref":
            a = args[0]
            c["linalg.eliminations"] += 1
            c["linalg.cells_in"] += len(a) * (len(a[0]) if a else 0)
        elif key == "linalg:RowSolver.__init__":
            c["linalg.eliminations"] += 1
            c["linalg.cells_in"] += len(args[1]) * args[2]
        elif key == "oracle.modules:projective_module":
            alg = args[0]
            self._algebras.append(alg)
            self._projective_pairs.add((self.op, id(alg), args[1]))
            c["oracle.modules.projective_module.calls"] += 1
        elif key == "oracle.modules:top_data":
            c["oracle.modules.top_data.calls"] += 1
        elif key == "oracle.modules:submodule":
            c["oracle.modules.submodule.calls"] += 1
        elif key == "oracle.modules:ModuleComplex.cohomology":
            c["oracle.modules.cohomology.calls"] += 1

    def _after(self, key, result):
        c = self.counts
        if key == "oracle.homology:minimal_projective_resolution":
            c["oracle.homology.resolutions"] += 1
            c["oracle.homology.resolution_steps"] += len(result.terms)
            c["oracle.homology.truncated"] += not result.complete
        elif key in ("oracle.algebra:compile_bound_quiver", "oracle.algebra:build_replicated"):
            c["oracle.algebra.compiled_dim"] += result.dim
        elif key == "gl:canonical_nu_formal_scan":
            c["gl.scan_points"] += result.checked_pairs

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        name_idx = len(self.names)
        self.names.append((layer, qualname))
        key = f"{layer}:{qualname}"
        before = key if key in COUNT_BEFORE else None
        after = key if key in COUNT_AFTER else None
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.op is None:
                return fn(*args, **kwargs)
            sid = len(tr.start)
            tr.name_of.append(name_idx)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op_of.append(tr.op)
            tr.raised.append(0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(sid)
            if before:
                tr._before(before, args)
            tr.start[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.end[sid] = perf_counter()
                tr.raised[sid] = 1
                tr.stack.pop()
                raise
            if after:
                tr._after(after, result)
            tr.end[sid] = perf_counter()
            tr.stack.pop()
            return result

        return wrapper

    def _patch_list(self):
        """(namespace, attribute, original, wrapper) for every binding of a
        wrapped function or method; built once, while the originals are in
        place."""
        if self._patches is None:
            wrapped = {}  # original function -> wrapper
            patches = []
            for layer, module_name in LAYERS.items():
                module = importlib.import_module(module_name)
                for attr, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module_name
                        and not attr.startswith("_")
                        and attr not in SKIP.get(layer, ())
                    ):
                        wrapped[obj] = self._wrap(layer, attr, obj)
                for cls_name, methods in METHODS.get(layer, {}).items():
                    cls = getattr(module, cls_name)
                    for meth in methods:
                        original = cls.__dict__[meth]
                        wrapper = self._wrap(layer, f"{cls_name}.{meth}", original)
                        patches.append((cls, meth, original, wrapper))
            for module_name, module in list(sys.modules.items()):
                if module_name != "algolab" and not module_name.startswith("algolab."):
                    continue
                for attr, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj in wrapped:
                        patches.append((module, attr, obj, wrapped[obj]))
            self._patches = patches
        return self._patches

    @contextmanager
    def installed(self):
        """Wraps every layer and restores the originals on exit."""
        patches = self._patch_list()
        for namespace, attr, _, wrapper in patches:
            setattr(namespace, attr, wrapper)
        try:
            yield self
        finally:
            for namespace, attr, original, _ in reversed(patches):
                setattr(namespace, attr, original)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        """Per layer: spans, self seconds and exceptions that left the layer;
        then the boundary counts and the distinct share of projective_module
        calls (1.0 when there were none)."""
        layer_of = [layer for layer, _ in self.names]
        child_time = [0.0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[sid] - self.start[sid]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = 0
            metrics[f"{layer}.self_s"] = 0.0
            metrics[f"{layer}.raised"] = 0
        for sid, name_idx in enumerate(self.name_of):
            layer = layer_of[name_idx]
            metrics[f"{layer}.calls"] += 1
            metrics[f"{layer}.self_s"] += self.end[sid] - self.start[sid] - child_time[sid]
            if self.raised[sid]:
                p = self.parent[sid]
                if p < 0 or layer_of[self.name_of[p]] != layer:
                    metrics[f"{layer}.raised"] += 1
        metrics.update(self.counts)
        calls = self.counts["oracle.modules.projective_module.calls"]
        metrics["oracle.modules.projective_module.distinct_ratio"] = (
            len(self._projective_pairs) / calls if calls else 1.0
        )
        return metrics

    def write_spans(self, path):
        """One tab-separated line per span; times in microseconds from the
        first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tlayer\tfunction\tstart_us\tend_us\traised\n")
            names = [f"{layer}\t{func}" for layer, func in self.names]
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.op_of[sid]}\t{names[self.name_of[sid]]}\t"
                    f"{(self.start[sid] - t0) * 1e6:.1f}\t{(self.end[sid] - t0) * 1e6:.1f}\t"
                    f"{self.raised[sid]}\n"
                )
