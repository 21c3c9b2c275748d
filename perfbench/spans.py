"""Span tracing for the benchmark's traced run.

Each layer is one lwpll module. The tracer wraps that layer's public
functions in every lwpll namespace that binds them, because ``from .x
import f`` copies the function into the importing module and patching only
the defining module would miss those call sites. Methods are patched on
their class. Spans stay in memory with a link to their parent span and are
written out once, when the run ends; self time is derived from them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index, name):
    def count(args, kwargs, result):
        x = _arg(args, kwargs, index, name)
        return {"rows": 1 if np.ndim(x) == 1 else int(np.shape(x)[0])}

    return count


def _file_bytes(index, name, with_path=False):
    def count(args, kwargs, result):
        path = os.fspath(_arg(args, kwargs, index, name))
        out = {"bytes": os.path.getsize(path)}
        if with_path:
            out["path"] = os.path.abspath(path)
        return out

    return count


# (layer, defining module, attribute, counter). An attribute "Class.method"
# is patched on the class; every other one in each lwpll namespace binding it.
TARGETS = (
    ("cli", "lwpll.cli", "main", None),
    ("model", "lwpll.model", "forward", _rows(1, "features")),
    ("model", "lwpll.model", "backward", _rows(1, "features")),
    ("model", "lwpll.model", "train", None),
    ("model", "lwpll.model", "save_checkpoint", _file_bytes(1, "path")),
    ("model", "lwpll.model", "load_checkpoint", None),
    ("losses", "lwpll.losses", "lw_loss_batch", None),
    ("losses", "lwpll.losses", "lw_loss_gradient_batch", None),
    ("losses", "lwpll.losses", "derived_supervised_loss", None),
    ("weights", "lwpll.weights", "init_weights", None),
    ("weights", "lwpll.weights", "update_weights", _rows(1, "scores")),
    ("labelgen", "lwpll.labelgen", "GenerationModel.sample_sets", None),
    ("labelgen", "lwpll.labelgen", "GenerationModel.subset_probabilities", None),
    ("data", "lwpll.data", "make_gaussian_task", None),
    ("data", "lwpll.data", "take", None),
    ("data", "lwpll.data", "save_partial_csv", _file_bytes(1, "path")),
    ("data", "lwpll.data", "load_partial_csv", _file_bytes(0, "path", with_path=True)),
    ("consistency", "lwpll.consistency", "partial_risk_bruteforce", None),
    ("consistency", "lwpll.consistency", "supervised_risk_direct", None),
    ("consistency", "lwpll.consistency", "theorem2_coefficient_check", None),
    ("consistency", "lwpll.consistency", "certify_risk_equivalence", None),
    ("consistency", "lwpll.consistency", "certify_subset_normalization", None),
    ("consistency", "lwpll.consistency", "certify_uniform_recovery", None),
    ("consistency", "lwpll.consistency", "certify_coefficient_ordering", None),
)


def span_name(layer: str, attribute: str) -> str:
    return f"{layer}.{attribute.rsplit('.', 1)[-1]}"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {"cli.main.calls": "count", "cli.self_s": "s"}
    for layer, _, attribute, _ in TARGETS:
        name = span_name(layer, attribute)
        if layer != "cli":
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
    for name in ("model.forward", "model.backward", "weights.update_weights"):
        units[f"{name}.rows"] = "count"
    for name in ("data.save_partial_csv", "data.load_partial_csv", "model.save_checkpoint"):
        units[f"{name}.bytes"] = "bytes"
    units["data.load_partial_csv.distinct_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, counts or None].
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lwpll" or key.startswith("lwpll."))]
        for layer, module_name, attribute, counter in TARGETS:
            owner = sys.modules[module_name]
            name = span_name(layer, attribute)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, getattr(cls, method), counter))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, holder, key, wrapper) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent, counts)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counts per span name, from the recorded spans.

        A span's self time is its duration minus its direct children's
        durations; spans nest on one thread, so children never overlap.
        """
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        units = layer_metric_units()
        out = {key: 0 if unit in ("count", "bytes") else 0.0
               for key, unit in units.items() if key != "trace.overhead_s"}
        loaded: set[str] = set()
        for (name, _, _, _, counts), own in zip(self.spans, self_time):
            out[f"{name}.calls"] += 1
            out["cli.self_s" if name == "cli.main" else f"{name}.self_s"] += own
            for kind, value in (counts or {}).items():
                if kind == "path":
                    loaded.add(value)
                else:
                    out[f"{name}.{kind}"] += value
        loads = out["data.load_partial_csv.calls"]
        out["data.load_partial_csv.distinct_ratio"] = len(loaded) / loads if loads else 0.0
        return out
