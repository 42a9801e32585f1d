"""Layer tracing from outside the package.

Tracer.install() rebinds every public function of the layer modules, in every
finsler.* namespace (and module-level dict) that holds it, to a timing
wrapper; it also wraps the Jet arithmetic methods, JetSpace construction and
the MetricField domain and value methods on their classes, and the `func` of
every MetricField that the public metric constructors return.  Names imported
inside functions resolve the module attribute at call time, so they see the
wrappers too.  uninstall() restores every original binding.  Nothing under
src/ is edited.

Each wrapped call is a span (name, start, end, parent, op).  A span's self
time is its duration minus the durations of its direct child spans.  Spans of
the jets layer run at about a million per second, so they are only
aggregated; all other spans are kept in memory and written out by save().
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import time
from array import array

import numpy as np

from spec import LAYERS


# Jet methods and the stats key each binding counts under (reflected
# operators count with their forward form).
_JET_METHODS = {
    "__add__": "jets.add",
    "__radd__": "jets.add",
    "__sub__": "jets.sub",
    "__rsub__": "jets.sub",
    "__neg__": "jets.neg",
    "__mul__": "jets.mul",
    "__rmul__": "jets.mul",
    "__truediv__": "jets.div",
    "__rtruediv__": "jets.div",
    "__pow__": "jets.pow",
    "extract": "jets.extract",
    "sqrt": "jets.Jet.sqrt",
    "exp": "jets.Jet.exp",
    "log": "jets.Jet.log",
    "sin": "jets.Jet.sin",
    "cos": "jets.Jet.cos",
}

# The module-level jets.extract(jet, index) only forwards to Jet.extract,
# which is wrapped; wrapping both would count every extraction twice.
_SKIP = {"jets.extract"}

# Constructors whose returned MetricField gets its `func` wrapped as L_eval.
_METRIC_FACTORIES = {"metrics.builtin", "metrics.parse_metric", "metrics.load_metric", "verify.perturbed_riemannian"}


class Tracer:
    def __init__(self):
        self.pkg = importlib.import_module("finsler")
        self.modules = {name: importlib.import_module(f"finsler.{name}") for name in LAYERS}
        self.Jet = self.modules["jets"].Jet
        self.stats = {}  # key -> [calls, total_s, self_s, raised]
        self.counters = {"madds": 0, "rhs_calls": 0, "sample_attempts": 0, "L_float": 0, "L_jet": 0}
        self.active = {"curves.geodesic_shoot": 0, "verify.sample_tangent": 0}
        self.names = []
        self._name_ids = {}
        self._stack = []  # frames: [child_s, nearest kept span id]
        self._op = -1
        self._op_span = -1
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches = []
        self._wrappers = self._build_wrappers()

    # -- wrappers -------------------------------------------------------------

    def _stat(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _name_id(self, key):
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _wrap(self, fn, key, keep, pre=None, post=None):
        stat = self._stat(key)
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        name_id = self._name_id(key)
        depth_key = key if key in self.active else None

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            parent = stack[-1][1] if stack else tracer._op_span
            if keep:
                sid = len(tracer.span_key)
                tracer.span_key.append(name_id)
                tracer.span_parent.append(parent)
                tracer.span_op.append(tracer._op)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                frame = [0.0, sid]
            else:
                frame = [0.0, parent]
            if depth_key is not None:
                tracer.active[depth_key] += 1
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if not ok:
                    stat[3] += 1
                if stack:
                    stack[-1][0] += d
                if keep:
                    tracer.span_start[sid] = t0
                    tracer.span_end[sid] = t1
                if depth_key is not None:
                    tracer.active[depth_key] -= 1
            return out if post is None else post(out)

        wrapper.__wrapped__ = fn
        wrapper._bench_traced = True
        return wrapper

    def _pre_mul(self, args, kwargs):
        if len(args) == 2 and isinstance(args[1], self.Jet):
            self.counters["madds"] += len(args[0].space._mul_i)

    def _pre_metric_blocks(self, args, kwargs):
        order = args[3] if len(args) > 3 else kwargs["order"]
        self.counters[f"blocks_o{order}"] = self.counters.get(f"blocks_o{order}", 0) + 1
        if self.active["curves.geodesic_shoot"]:
            self.counters["rhs_calls"] += 1
        if order == 2 and self.active["verify.sample_tangent"]:
            self.counters["sample_attempts"] += 1

    def _pre_L(self, args, kwargs):
        kind = "L_jet" if isinstance(args[0][0], self.Jet) else "L_float"
        self.counters[kind] += 1

    def _traced_metric(self, metric):
        """The same MetricField with `func` wrapped as the L_eval span."""
        if getattr(metric.func, "_bench_traced", False):
            return metric
        func = self._wrap(metric.func, "metrics.L_eval", keep=True, pre=self._pre_L)
        return dataclasses.replace(metric, func=func)

    def _build_wrappers(self):
        """Map id(original) -> (original, wrapper) for every traced callable."""
        out = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if name.startswith("_") or key in _SKIP:
                    continue
                is_func = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if not is_func or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                pre = self._pre_metric_blocks if key == "geometry.metric_blocks" else None
                post = self._traced_metric if key in _METRIC_FACTORIES else None
                out[id(obj)] = (obj, self._wrap(obj, key, keep=layer != "jets", pre=pre, post=post))
        self._class_patches = []
        for attr, key in _JET_METHODS.items():
            pre = self._pre_mul if key == "jets.mul" else None
            self._class_patches.append((self.Jet, attr, key, False, pre))
        self._class_patches.append((self.modules["jets"].JetSpace, "__init__", "jets.JetSpace", False, None))
        metric_cls = self.modules["metrics"].MetricField
        for attr in ("in_domain", "check_sample", "value"):
            self._class_patches.append((metric_cls, attr, f"metrics.{attr}", True, None))
        self._class_wrappers = {}
        for cls, attr, key, keep, pre in self._class_patches:
            orig = cls.__dict__[attr]
            if id(orig) not in self._class_wrappers:
                self._class_wrappers[id(orig)] = self._wrap(orig, key, keep=keep, pre=pre)
        return out

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [self.pkg] + list(self.modules.values())
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if id(val) in self._wrappers and val is self._wrappers[id(val)][0]:
                    self._patches.append((ns, attr, val))
                    setattr(ns, attr, self._wrappers[id(val)][1])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for k, item in list(val.items()):
                        if id(item) in self._wrappers and item is self._wrappers[id(item)][0]:
                            self._patches.append((val, k, item))
                            val[k] = self._wrappers[id(item)][1]
        for cls, attr, _, _, _ in self._class_patches:
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._class_wrappers[id(orig)])

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches = []

    # -- ops and phases ----------------------------------------------------------

    def begin_op(self, index):
        self._op = index
        self._op_span = len(self.span_key)
        self.span_key.append(self._name_id("op"))
        self.span_parent.append(-1)
        self.span_op.append(index)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)

    def end_op(self):
        self.span_end[self._op_span] = time.perf_counter()
        self._op = -1
        self._op_span = -1

    def take(self):
        """Return (stats, counters) accumulated so far and reset both."""
        stats = {k: list(v) for k, v in self.stats.items() if v[0]}
        counters = dict(self.counters)
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0, 0]
        for k in self.counters:
            self.counters[k] = 0
        return stats, counters

    def save(self, stem, summary):
        """Write kept spans to <stem>.npz and the summary to <stem>.json."""
        np.savez_compressed(
            f"{stem}.npz",
            names=np.array(self.names),
            key=np.frombuffer(self.span_key, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
