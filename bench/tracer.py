"""Outside-in span tracer for the slim package.

The tracer wraps public functions of the slim modules in every module
namespace that holds them, so callers that imported a function by name
reach the wrapper too. Each call records one span: its name, start, end,
the span that caused it and the tensor key current at the time. Spans are
kept in memory; the owner writes them out when its process ends.

A target that a later version of the package renamed or deleted is
recorded as absent instead of failing. Private helpers (a leading
underscore) are never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import tracemalloc

# (module, public function, span name). Several functions may share a span
# name; nested spans of one name count once in totals.
TARGETS = (
    ("slim.cli", "cmd_calib", "cli.calib"),
    ("slim.cli", "cmd_compress", "cli.compress"),
    ("slim.cli", "cmd_eval", "cli.eval"),
    ("slim.container", "read_container", "container.read"),
    ("slim.container", "write_container", "container.write"),
    ("slim.calibration", "compute_calibration", "calibration.compute"),
    ("slim.calibration", "save_calibration", "calibration.save"),
    ("slim.calibration", "load_calibration", "calibration.load"),
    ("slim.tensor", "build_abs_histogram", "tensor.histogram"),
    ("slim.tensor", "svd_truncated", "tensor.svd_truncated"),
    ("slim.quant", "slimquant_search", "quant.scale_search"),
    ("slim.quant", "quantize_symmetric", "quant.quantize"),
    ("slim.quant", "group_absmax_quantize", "quant.quantize"),
    ("slim.quant", "dequantize", "quant.dequantize"),
    ("slim.quant", "activation_aware_scale", "quant.activation_aware_scale"),
    ("slim.quant", "compensate_activations", "quant.compensate"),
    ("slim.quant", "fp8_fake_quantize", "quant.fp8"),
    ("slim.prune", "wanda_scores", "prune.scores"),
    ("slim.prune", "magnitude_scores", "prune.scores"),
    ("slim.prune", "build_mask", "prune.mask"),
    ("slim.prune", "unstructured_mask", "prune.mask"),
    ("slim.prune", "semistructured_mask", "prune.mask"),
    ("slim.lora", "slim_lora", "lora.fit"),
    ("slim.lora", "naive_lora", "lora.fit"),
    ("slim.lora", "quantize_adapter", "lora.quantize_adapter"),
    ("slim.pipeline", "compress_layer", "pipeline.compress_layer"),
    ("slim.pipeline", "layer_output", "pipeline.layer_output"),
    ("slim.pipeline", "error_report", "pipeline.error_report"),
    ("slim.artifact", "layer_to_tensors", "artifact.serialize"),
    ("slim.artifact", "layer_from_tensors", "artifact.deserialize"),
)

# Spans whose peak traced allocation (tracemalloc) is recorded.
MEMORY_SPANS = frozenset({"pipeline.compress_layer", "lora.fit"})


class _UseTracker(dict):
    """Tensor mapping returned by a traced container read.

    Counts the bytes of every tensor the caller looks up, so that bytes used
    can be set against bytes read.
    """

    def __init__(self, tensors: dict, span: dict):
        super().__init__(tensors)
        self._span = span
        self._used: set[str] = set()
        span["used_bytes"] = 0

    def _use(self, name):
        if name not in self._used and dict.__contains__(self, name):
            self._used.add(name)
            self._span["used_bytes"] += int(dict.__getitem__(self, name).nbytes)

    def __getitem__(self, name):
        self._use(name)
        return dict.__getitem__(self, name)

    def items(self):
        for name in dict.keys(self):
            self._use(name)
        return dict.items(self)


class Tracer:
    """Records spans of wrapped calls. ``key`` labels the current tensor."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.key = None
        self.active = True
        self.on_compress_layer = None
        self._local = threading.local()
        self._installed: list[tuple] = []
        self._next_id = 0
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        self._next_id += 1
        span = {
            "id": self._next_id,
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "key": self.key,
        }
        if name in MEMORY_SPANS:
            # tracemalloc runs only inside memory spans, where it is needed
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                span["_owner"] = True
            current, peak = tracemalloc.get_traced_memory()
            for outer in stack:
                if "_peak" in outer:
                    outer["_peak"] = max(outer["_peak"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_peak"] = current
        stack.append(span)
        self.spans.append(span)
        span["start"] = time.perf_counter() - self._origin
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._origin
        stack = self._stack()
        stack.pop()
        if "_peak" in span:
            span["_peak"] = max(span["_peak"], tracemalloc.get_traced_memory()[1])
            for outer in stack:
                if "_peak" in outer:
                    outer["_peak"] = max(outer["_peak"], span["_peak"])
            span["peak_alloc_mb"] = (span.pop("_peak") - span.pop("_base")) / 2**20
            if span.pop("_owner", False):
                tracemalloc.stop()

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "pipeline.compress_layer" and tracer.on_compress_layer:
                tracer.on_compress_layer()
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "container.read":
                    span["bytes"] = _file_size(args[0] if args else kwargs.get("path"))
                    if isinstance(result, dict):
                        result = _UseTracker(result, span)
                elif name == "container.write":
                    span["bytes"] = _file_size(args[0] if args else kwargs.get("path"))
                return result
            finally:
                tracer._close(span)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        for module_name, attr, span_name in targets:
            if attr.startswith("_"):
                raise ValueError(f"refusing to wrap private helper {attr}")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(original, span_name)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "slim" or name.startswith("slim.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapped)
                        self._installed.append((mod, binding, original))

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        for mod, binding, original in reversed(self._installed):
            setattr(mod, binding, original)
        self._installed.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def summarize(spans: list[dict]) -> dict:
    """Per span name: total time (outermost spans of a name), self time,
    call count (outermost), peak traced allocation, and byte counts.

    Self time is a span's duration minus the time its direct child spans
    cover; calls are sequential per thread, so the children do not overlap.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out.setdefault(
            s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "peak_alloc_mb": 0.0,
                        "bytes": 0, "used_bytes": 0}
        )
        agg["self_s"] += dur - child_time.get(s["id"], 0.0)
        agg["bytes"] += s.get("bytes", 0)
        agg["used_bytes"] += s.get("used_bytes", 0)
        agg["peak_alloc_mb"] = max(agg["peak_alloc_mb"], s.get("peak_alloc_mb", 0.0))
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            agg["s"] += dur
            agg["calls"] += 1
    return out


def merge(summaries: list[dict]) -> dict:
    """Combine summaries of several processes: sums, except peaks take the max."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, agg in summary.items():
            acc = out.setdefault(name, dict.fromkeys(agg, 0))
            for field, value in agg.items():
                if field == "peak_alloc_mb":
                    acc[field] = max(acc[field], value)
                else:
                    acc[field] += value
    return out
