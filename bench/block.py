"""Block-level workloads of the slim pipeline, their checks and metrics.

One run generates a transformer block's weights and activations from a
seed, drives ``slim calib`` -> ``slim compress`` -> ``slim eval`` over the
block with one fresh process per step, one step at a time, then loads the
written artifacts and applies them with ``slim.pipeline.layer_output``.
Imported by run.py after it has fixed the BLAS thread count; the checkout's
``src`` must already be on ``sys.path``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import slim.artifact as artifact
import slim.calibration as calibration
import slim.lora as lora
import slim.pipeline as pipeline
import slim.quant as quant
from spawner import Spawner
from tracer import Tracer, merge, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(BENCH_DIR, "launch.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WEIGHT_SCALE = 0.02          # Laplace scale of the generated weights
ACT_SCALE_RANGE = (0.1, 10.0)  # geometric spread of per-channel activation scales
SETUP_LAUNCHES = 7           # `slim --version` launches per run for setup_s
OUTPUT_RTOL = 1e-9           # layer_output against x @ corrected_weight()

TOKENS = {"calib": 1024, "eval": 512, "forward": 2048, "check": 64}
TINY_TOKENS = {"calib": 96, "eval": 64, "forward": 128, "check": 16}
TINY_D = 64

# (preset, CLI flags shared by every compress step, minimum pipeline repetitions).
# scaled-fp8's CLI steps last about a second each, so per-step noise would
# dominate a single repetition; it repeats the pipeline at least 5 times.
WORKLOADS = {
    "adapter-block": (
        "opt-350m",
        ["--quant", "slim", "--wbits", "4", "--sparsity", "2:4", "--scores", "wanda",
         "--lora", "slim", "--rank-ratio", "0.1", "--quantize-lora"],
        1,
    ),
    "prune-block": (
        "opt-1.3b",
        ["--quant", "slim", "--wbits", "4", "--sparsity", "unstructured:0.5",
         "--scores", "wanda", "--lora", "none"],
        1,
    ),
    "scaled-fp8": (
        "opt-125m",
        ["--quant", "slim-o", "--wbits", "4", "--sparsity", "2:4", "--scores", "magnitude",
         "--input-fp8"],
        5,
    ),
}

END_TO_END = {
    "pipeline_s": "s",
    "compress_s": "s",
    "eval_s": "s",
    "forward_tok_s": "tokens/s",
    "setup_s": "s",
    "compress_peak_rss_mb": "MiB",
    "eval_peak_rss_mb": "MiB",
    "artifact_bits_per_weight": "bits",
    "output_nmse": "ratio",
}

PER_LAYER = {
    "tensor.svd_truncated.s": "s",
    "tensor.svd_truncated.calls": "count",
    "lora.fit.s": "s",
    "lora.fit.self_s": "s",
    "lora.quantize_adapter.s": "s",
    "lora.energy_captured": "frac",
    "prune.mask.s": "s",
    "prune.scores.s": "s",
    "prune.density": "frac",
    "tensor.histogram.s": "s",
    "quant.scale_search.s": "s",
    "quant.quantize.s": "s",
    "quant.alpha_clipped_frac": "frac",
    "quant.activation_aware_scale.s": "s",
    "pipeline.compress_layer.s": "s",
    "pipeline.compress_layer.self_s": "s",
    "cli.compress.self_s": "s",
    "pipeline.compress_layer.peak_alloc_mb": "MiB",
    "lora.fit.peak_alloc_mb": "MiB",
    "container.read.s": "s",
    "container.read.bytes": "bytes",
    "container.read.useful_frac": "frac",
    "calibration.compute.s": "s",
    "calibration.load.s": "s",
    "pipeline.error_report.s": "s",
    "cli.eval.self_s": "s",
    "artifact.serialize.s": "s",
    "container.write.s": "s",
    "container.write.bytes": "bytes",
    "artifact.bytes.codes": "bits",
    "artifact.bytes.scales": "bits",
    "artifact.bytes.mask": "bits",
    "artifact.bytes.adapter": "bits",
    "artifact.bytes.config": "bits",
    "artifact.deserialize.s": "s",
    "quant.dequantize.s": "s",
    "quant.dequantize.calls": "count",
    "quant.fp8.s": "s",
    "quant.compensate.s": "s",
    "pipeline.layer_output.s": "s",
    "pipeline.layer_output.self_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Block:
    """Shapes of one transformer block; weights are (d_in, d_out)."""

    d: int
    ffn: int

    @property
    def groups(self) -> dict[str, list[str]]:
        # tensors that share an input width, and so one calibration set
        return {"d": ["q", "k", "v", "o", "fc1"], "ffn": ["fc2"]}

    def width(self, group: str) -> int:
        return self.d if group == "d" else self.ffn

    def shape(self, name: str) -> tuple[int, int]:
        if name == "fc1":
            return (self.d, self.ffn)
        if name == "fc2":
            return (self.ffn, self.d)
        return (self.d, self.d)

    def group_of(self, name: str) -> str:
        return "ffn" if name == "fc2" else "d"

    @property
    def names(self) -> list[str]:
        return [n for names in self.groups.values() for n in names]


class Ops:
    """Operations attempted and failed, keyed so a later check can fail one."""

    def __init__(self):
        self.ok: dict[tuple, bool] = {}
        self.errors: list[str] = []

    def add(self, key: tuple, ok: bool = True, why: str = "") -> bool:
        self.ok[key] = ok
        if not ok:
            self.errors.append(f"{'/'.join(map(str, key))}: {why}")
        return ok

    def fail(self, key: tuple, why: str) -> None:
        self.add(key, False, why)

    @property
    def failed(self) -> int:
        return sum(not v for v in self.ok.values())


@dataclass
class Step:
    wall: float
    rss_mb: float
    code: int


@dataclass
class Rep:
    """Timings of one calib -> compress -> eval pass over the block."""

    calib: float = 0.0
    compress: float = 0.0
    eval: float = 0.0
    compress_rss: float = 0.0
    eval_rss: float = 0.0
    traces: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.calib + self.compress + self.eval


# ---------------------------------------------------------------- inputs


def write_tensors(path: str, tensors: dict) -> None:
    """Write f32 tensors in the SLIMTNSR container layout (format v1)."""
    header, blobs, offset = {}, [], 0
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        header[name] = {"dtype": "f32", "shape": list(arr.shape), "offset": offset,
                        "nbytes": len(data)}
        blobs.append(data)
        offset += len(data)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sIQ", b"SLIMTNSR", 1, len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())  # no writeback of the inputs during timed steps


def read_header(path: str) -> tuple[dict, int]:
    """Container header and the byte count before the data section."""
    with open(path, "rb") as fh:
        magic, _, length = struct.unpack("<8sIQ", fh.read(20))
        if magic != b"SLIMTNSR":
            raise ValueError(f"{path} is not a SLIMTNSR container")
        return json.loads(fh.read(length)), 20 + length


def load_block(preset: str, tiny: bool) -> Block:
    with open(os.path.join(SRC, "slim", "presets", f"{preset}.json")) as fh:
        arch = json.load(fh)
    d = TINY_D if tiny else int(arch["d"])
    return Block(d=d, ffn=int(round(d * float(arch["ffn_ratio"]))))


def make_inputs(block: Block, seed: int, tokens: dict, work: str) -> dict:
    """Write the block's weights and activations; return what the checks need.

    Weights are Laplace-distributed. Each input width gets activations with
    a geometric spread of per-channel scales in a seeded random order, so
    activation-aware scores and saliency weighting matter. Calibration,
    eval and forward tokens are disjoint draws.
    """
    rng = np.random.default_rng(seed)
    weights = {n: rng.laplace(0.0, WEIGHT_SCALE, block.shape(n)).astype(np.float32)
               for n in block.names}
    acts = {}
    for group, names in block.groups.items():
        width = block.width(group)
        scale = rng.permutation(np.geomspace(*ACT_SCALE_RANGE, width))
        for part in ("calib", "eval", "forward"):
            x = rng.standard_normal((tokens[part], width)) * scale
            acts[group, part] = x
        write_tensors(os.path.join(work, f"w_{group}.slim"), {n: weights[n] for n in names})
        for part in ("calib", "eval"):
            write_tensors(os.path.join(work, f"x_{part}_{group}.slim"), {"x": acts[group, part]})
    return {"weights": weights, "acts": acts}


# ---------------------------------------------------------------- traces


def load_traces(paths: list[str]) -> tuple[list[list[dict]], list[str]]:
    """Spans of each traced process, and the wrap targets any of them lacked."""
    spans, absent = [], set()
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        spans.append(rec["spans"])
        absent.update(rec["absent"])
    return spans, sorted(absent)


def per_layer_metrics(agg: dict, extra: dict) -> dict:
    """PER_LAYER values from merged span summaries; ``extra`` holds the
    ones measured on the outputs rather than on spans."""

    def get(name, fieldname="s"):
        return float(agg.get(name, {}).get(fieldname, 0.0))

    read_bytes = get("container.read", "bytes")
    out = {}
    for metric in PER_LAYER:
        span, _, fieldname = metric.rpartition(".")
        if metric in extra:
            out[metric] = extra[metric]
        elif metric == "container.read.useful_frac":
            out[metric] = get("container.read", "used_bytes") / read_bytes if read_bytes else 0.0
        else:
            out[metric] = get(span, fieldname)
    return out


# ---------------------------------------------------------------- environment


def _git_sha() -> str | None:
    """HEAD of the checkout, if it is a git repository; never a parent's."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "slim", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _blas() -> dict:
    info = {"threads_setting": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(workload: str, seed: int, block: Block, tokens: dict) -> dict:
    preset, flags, _ = WORKLOADS[workload]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "preset": preset,
        "flags": flags,
        "shapes": {n: list(block.shape(n)) for n in block.names},
        "tokens": tokens,
    }


# ---------------------------------------------------------------- a run


def artifact_path(work: str, group: str, name: str) -> str:
    return os.path.join(work, "art", f"{group}.{name}.slim")


def _log_tail(path: str) -> str:
    with open(path, "rb") as fh:
        lines = fh.read().decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _component(tensor: str) -> str:
    """Which part of an artifact a stored tensor belongs to."""
    if tensor.startswith("adapter"):
        return "adapter"
    if "mask" in tensor or "ind" in tensor:
        return "mask"
    if "scale" in tensor:
        return "scales"
    if "code" in tensor or tensor == "weights":
        return "codes"
    return "config"


@dataclass
class BlockRun:
    """One workload on one block of generated inputs, in a work directory."""

    block: Block
    flags: list[str]
    tokens: dict
    work: str
    spawner: Spawner
    min_reps: int = 1
    ops: Ops = field(default_factory=Ops)
    inputs: dict = field(default_factory=dict)

    def _flag(self, name: str) -> str | None:
        return self.flags[self.flags.index(name) + 1] if name in self.flags else None

    @property
    def has_adapter(self) -> bool:
        return self._flag("--lora") not in (None, "none")

    @property
    def pruned(self) -> bool:
        return self._flag("--sparsity") not in (None, "none")

    @property
    def fp8(self) -> bool:
        return "--input-fp8" in self.flags

    def slim(self, argv: list[str], log: str, trace_out: str | None = None) -> Step:
        """Run one slim command in a fresh process; wall time and peak RSS."""
        cmd = [sys.executable, LAUNCH] + (["--trace-out", trace_out] if trace_out else []) + argv
        return Step(*self.spawner.run(cmd, log, ROOT))

    # -------------------------------------------------------- timed phases

    def setup_time(self) -> float:
        """Median wall time of `slim --version` over fresh processes."""
        log = os.path.join(self.work, "logs", "setup.log")
        self.slim(["--version"], log)  # the first launch may write bytecode caches
        walls = []
        for i in range(SETUP_LAUNCHES):
            step = self.slim(["--version"], log)
            if self.ops.add(("setup", i), step.code == 0, f"exit {step.code}: {_log_tail(log)}"):
                walls.append(step.wall)
        return statistics.median(walls) if walls else float("nan")

    def pipeline(self, rep_id: int, traced: bool = False) -> Rep:
        """calib -> compress -> eval over the whole block, one process at a time."""
        rep, work = Rep(), self.work

        def step(kind: str, label: str, argv: list[str], tensors: list[str]) -> Step:
            trace_out = None
            if traced:
                trace_out = os.path.join(work, "trace", f"{rep_id}-{kind}-{label}.json")
                rep.traces.append(trace_out)
            log = os.path.join(work, "logs", f"{rep_id}-{kind}-{label}.log")
            result = self.slim(argv, log, trace_out)
            why = f"exit {result.code}: {_log_tail(log)}"
            for name in tensors:
                self.ops.add((kind, rep_id, name), result.code == 0, why)
            return result

        groups = self.block.groups
        for group, names in groups.items():
            rep.calib += step("calib", group, [
                "calib", "--inputs", f"{work}/x_calib_{group}.slim",
                "--out", f"{work}/stats_{group}.slim"], names).wall
        for group, names in groups.items():
            s = step("compress", group, [
                "compress", "--weights", f"{work}/w_{group}.slim",
                "--calib", f"{work}/stats_{group}.slim", "--out", f"{work}/art/{group}",
            ] + self.flags, names)
            rep.compress += s.wall
            rep.compress_rss = max(rep.compress_rss, s.rss_mb)
        for group, names in groups.items():
            for name in names:
                s = step("eval", name, [
                    "eval", "--original", f"{work}/w_{group}.slim", "--tensor", name,
                    "--compressed", artifact_path(work, group, name),
                    "--inputs", f"{work}/x_eval_{group}.slim",
                    "--report", f"{work}/eval_{name}.json"], [name])
                rep.eval += s.wall
                rep.eval_rss = max(rep.eval_rss, s.rss_mb)
        return rep

    def forward(self, layers: dict, budget_s: float, tracer: Tracer | None = None) -> list[float]:
        """Whole passes of layer_output over every layer, at least one and
        until ``budget_s`` is spent; tokens/s of each pass."""
        rates, spent = [], 0.0
        while layers and (not rates or spent < budget_s):
            tokens = 0
            t0 = time.perf_counter()
            for name, layer in layers.items():
                x = self.inputs["acts"][self.block.group_of(name), "forward"]
                if tracer is not None:
                    tracer.key = name
                try:
                    pipeline.layer_output(x, layer)
                except Exception as exc:  # any failure here is a failed operation
                    self.ops.fail(("forward", len(rates), name), repr(exc))
                    continue
                self.ops.add(("forward", len(rates), name))
                tokens += x.shape[0]
            elapsed = time.perf_counter() - t0
            spent += elapsed
            rates.append(tokens / elapsed)
        return rates

    # -------------------------------------------------------- checks

    def eval_reports(self, rep_id: int) -> dict:
        """Eval reports of one rep; an adapter must lower every output error."""
        reports = {}
        for name in self.block.names:
            key = ("eval", rep_id, name)
            if not self.ops.ok.get(key):
                continue
            try:
                with open(os.path.join(self.work, f"eval_{name}.json")) as fh:
                    rep = json.load(fh)
                mse, base = float(rep["output_mse"]), float(rep["output_mse_no_adapter"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.ops.fail(key, f"unreadable eval report: {exc}")
                continue
            if not np.isfinite(mse):
                self.ops.fail(key, f"output_mse {mse}")
            elif self.has_adapter and not mse < base:
                self.ops.fail(key, f"adapter does not lower output_mse ({mse} >= {base})")
            else:
                reports[name] = rep
        return reports

    def load_artifacts(self, rep_id: int) -> dict:
        """Deserialize every artifact; check that it re-serializes to its
        exact bytes and, when pruned, keeps exactly half of the weights."""
        layers = {}
        scratch = os.path.join(self.work, "roundtrip.slim")
        for group, names in self.block.groups.items():
            for name in names:
                key = ("compress", rep_id, name)
                if not self.ops.ok.get(key):
                    continue
                path = artifact_path(self.work, group, name)
                try:
                    layer = artifact.deserialize_compressed_layer(path)
                    artifact.serialize_compressed_layer(layer, scratch)
                except Exception as exc:  # any failure here is a failed operation
                    self.ops.fail(key, f"artifact round trip raised {exc!r}")
                    continue
                with open(path, "rb") as a, open(scratch, "rb") as b:
                    if a.read() != b.read():
                        self.ops.fail(key, "artifact does not re-serialize to its own bytes")
                        continue
                if self.pruned:
                    keep = layer.mask.keep.mean() if layer.mask is not None else 1.0
                    if float(keep) != 0.5:
                        self.ops.fail(key, f"density {float(keep)!r}, expected exactly 0.5")
                        continue
                layers[name] = layer
        return layers

    def check_forward(self, layers: dict) -> None:
        """layer_output on a slice of tokens against x @ corrected_weight(),
        with the same FP8 snap of x first when the workload uses it. This
        pass also warms up the forward path before it is timed."""
        for name, layer in layers.items():
            x = self.inputs["acts"][self.block.group_of(name), "forward"][: self.tokens["check"]]
            key = ("forward-check", name)
            try:
                y = pipeline.layer_output(x, layer)
            except Exception as exc:  # any failure here is a failed operation
                self.ops.fail(key, repr(exc))
                continue
            x_ref = quant.fp8_fake_quantize(x)[0] if self.fp8 else x
            ref = x_ref @ layer.corrected_weight()
            err = float(np.linalg.norm(y - ref))
            self.ops.add(key, err <= OUTPUT_RTOL * float(np.linalg.norm(ref)),
                         f"layer_output differs from its reference by {err:.3g}")

    # -------------------------------------------------------- outputs

    def artifact_bits(self) -> dict:
        """On-disk artifact bytes per component, as bits per block weight."""
        parts = dict.fromkeys(("codes", "scales", "mask", "adapter", "config"), 0)
        for group, names in self.block.groups.items():
            for name in names:
                header, overhead = read_header(artifact_path(self.work, group, name))
                parts["config"] += overhead
                for tensor, entry in header.items():
                    parts[_component(tensor)] += int(entry["nbytes"])
        weights = sum(r * c for r, c in map(self.block.shape, self.block.names))
        return {k: v * 8.0 / weights for k, v in parts.items()}

    def output_nmse(self, reports: dict) -> float:
        """Mean over tensors of eval's output_mse over the mean square of x_eval @ w."""
        ratios = []
        for name in self.block.names:
            w = self.inputs["weights"][name].astype(np.float64)
            # eval reads x_eval back from its f32 container
            x = self.inputs["acts"][self.block.group_of(name), "eval"]
            ref = x.astype(np.float32).astype(np.float64) @ w
            ratios.append(float(reports[name]["output_mse"]) / float(np.mean(ref * ref)))
        return float(np.mean(ratios))

    def quality(self, layers: dict) -> dict:
        """Adapter energy captured, kept density and clipped fraction."""
        energies, kept, clipped, total = [], 0, 0, 0
        for name, layer in layers.items():
            w = self.inputs["weights"][name].astype(np.float64)
            total += w.size
            kept += int(layer.mask.keep.sum()) if layer.mask is not None else w.size
            if layer.provenance.alpha is not None:
                w_s = w.copy()
                if layer.channel_scaling is not None:
                    scaling = layer.channel_scaling
                    w_s[scaling.channel_indices, :] *= scaling.factor
                clipped += int(np.count_nonzero(np.abs(w_s) > layer.provenance.alpha))
            if layer.adapter is not None:
                stats = calibration.load_calibration(
                    os.path.join(self.work, f"stats_{self.block.group_of(name)}.slim"))
                sal = lora.saliency_vector(stats).values[:, None]
                err = sal * (w - layer.effective_weight())
                resid = err - sal * layer.adapter.correction()
                energies.append(1.0 - float(np.sum(resid**2)) / float(np.sum(err**2)))
        return {
            "lora.energy_captured": float(np.mean(energies)) if energies else 0.0,
            "prune.density": kept / total,
            "quant.alpha_clipped_frac": clipped / total,
        }

    # -------------------------------------------------------- the two modes

    def untraced(self, seconds: float) -> dict:
        """End-to-end metrics. The pipeline repeats until it has run for
        ``seconds`` and at least ``min_reps`` times; the forward loop then
        runs for ``seconds`` / 2."""
        setup_s = self.setup_time()
        reps: list[Rep] = []
        while len(reps) < self.min_reps or sum(r.total for r in reps) < seconds:
            reps.append(self.pipeline(len(reps)))
            reports = self.eval_reports(len(reps) - 1)
        layers = self.load_artifacts(len(reps) - 1)
        self.check_forward(layers)  # also the warm-up pass
        rates = self.forward(layers, seconds / 2)
        print("pipeline reps (calib, compress, eval s): "
              + ", ".join(f"({r.calib:.3f}, {r.compress:.3f}, {r.eval:.3f})" for r in reps))
        print("forward passes (tokens/s): " + ", ".join(f"{r:.0f}" for r in rates))
        metrics = {
            "pipeline_s": statistics.median(r.total for r in reps),
            "compress_s": statistics.median(r.compress for r in reps),
            "eval_s": statistics.median(r.eval for r in reps),
            "setup_s": setup_s,
            "compress_peak_rss_mb": statistics.median(r.compress_rss for r in reps),
            "eval_peak_rss_mb": statistics.median(r.eval_rss for r in reps),
        }
        if rates:
            metrics["forward_tok_s"] = statistics.median(rates)
        if len(layers) == len(self.block.names):
            metrics["artifact_bits_per_weight"] = sum(self.artifact_bits().values())
        if len(reports) == len(self.block.names):
            metrics["output_nmse"] = self.output_nmse(reports)
        return metrics

    def traced(self, tracer: Tracer) -> dict:
        """Per-layer metrics: one untraced and one traced pipeline, then
        traced forward passes in this process."""
        plain = self.pipeline(0)
        self.eval_reports(0)
        traced = self.pipeline(1, traced=True)
        self.eval_reports(1)
        layers = self.load_artifacts(1)
        self.check_forward(layers)  # also the warm-up pass
        tracer.active = True
        self.forward(layers, 0.0, tracer)  # one pass
        tracer.active = False

        spans, absent = load_traces(traced.traces)
        agg = merge([summarize(s) for s in spans + [tracer.spans]])
        absent = sorted(set(absent) | set(tracer.absent))
        extra = {"trace.overhead_frac": traced.total / plain.total - 1.0}
        if len(layers) == len(self.block.names):
            extra.update(self.quality(layers))
            extra.update({f"artifact.bytes.{k}": v for k, v in self.artifact_bits().items()})
        if absent:
            print("absent trace targets: " + ", ".join(absent))
        return per_layer_metrics(agg, extra)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        spawner: Spawner) -> dict:
    """One benchmark run; returns the result object."""
    preset, flags, min_reps = WORKLOADS[workload]
    block = load_block(preset, tiny)
    tokens = TINY_TOKENS if tiny else TOKENS
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("art", "logs", "trace"):
        os.makedirs(os.path.join(work, sub))
    bench = BlockRun(block=block, flags=flags, tokens=tokens, work=work, spawner=spawner,
                     min_reps=min_reps)
    try:
        print("env " + json.dumps(environment(workload, seed, block, tokens), sort_keys=True))
        bench.inputs = make_inputs(block, seed, tokens, work)
        if trace:
            tracer = Tracer()
            tracer.install()
            tracer.active = False
            metrics = bench.traced(tracer)
        else:
            metrics = bench.untraced(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    ops = bench.ops
    for err in ops.errors:
        print(f"FAILED {err}", file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    reported = {name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
                if name in metrics and np.isfinite(metrics[name])}
    return {
        "correct": ops.failed == 0 and len(reported) == len(units),
        "attempted": len(ops.ok),
        "failed": ops.failed,
        "metrics": reported,
    }
