#!/usr/bin/env python3
"""Compare what two trees of ``src/`` compute, case by case.

    tools/parity.py --base REF [--allow FIELD[.KEY]=RTOL ...]

REF's ``src/`` is exported with ``git archive`` (no network needed) into a
temporary directory. One fixed-seed matrix of layers runs in that tree and
in the working tree, each in its own process with ``OPENBLAS_NUM_THREADS=1``
and ``RuntimeWarning`` raised as an error. The matrix crosses six shapes
(tall, wide, square, one not divisible by 128, one of several
``error_report`` runs and column chunks, and a tall one whose adapter fit
sums its Gram matrix over several row blocks), f32 and f64 weights, the five
quant methods, no / unstructured 0.5 / 2:4 sparsity (the pruned ones scored
both by wanda and by magnitude) and four adapters (none, naive, slim,
4-bit slim). On the four small shapes it also crosses channel scaling
forced on for absmax, group_absmax, slim_quant and none (factors 2.0 and
3.0), and slim_quant_o with factor 3.0, with the same dtypes, sparsities
and adapters; these cases follow the others. Every case so far takes
4-bit weights. Then, on the same small shapes, the four quant methods that
store codes run with 2-, 3- and 8-bit weights (2-bit fields, 3-bit codes
in nibbles, whole-byte fields), crossed with the dtypes, sparsities and
adapters.

Each case records four fields:

- ``artifact``: the sha256 and the bytes of ``layer_to_bytes``;
- ``weight_space_report`` and ``error_report``: their JSON values;
- ``layer_output``: the forward pass of the layer and of its decoded
  artifact. At ``TOKENS = 96`` an adapter's L @ R is added into the
  weight blocks of 640x96 and 96x640, and ``(x @ L) @ R`` is added to the
  output of 256x256, 300x233, 1032x4100 and 4100x264 (the order
  ``slim.layer_output`` picks), so both orders run on wide and tall weights.

Last come the command-line cases: ``slim compress`` of a two-tensor f32
container (a wide and a tall weight, so two input widths) with each of
a few flag sets, then ``slim eval --tensor`` of each tensor on inputs of
its width. Each records the artifact the command wrote, its
``compress --report`` entry (without the artifact's path) as
``weight_space_report``, and its ``eval --report`` as ``error_report``.

A case that raises records the error instead. For each field the report
prints how many cases are equal, how many differ within an ``--allow``
tolerance and how many differ beyond it, with the largest relative
difference (a report number relative to its own value, an output relative
to its largest entry). Two artifacts whose sha256 differs are decoded with
the working tree's ``slim``; their difference is that of the decoded
arrays (the stored weight, the keep mask and the adapter factors, each
relative to its largest entry), and infinite when their shapes, config or
provenance differ. Each case with a difference beyond its ``--allow`` is
listed, and the tool then exits 1.

``--allow FIELD=RTOL`` accepts differences in any part of FIELD up to RTOL.
``--allow error_report.output_mse=RTOL`` accepts them in that one key of a
report field (``weight_space_report`` or ``error_report``), so every other
key of the report must still be equal; a key's own ``--allow`` takes the
place of its field's.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
FIELDS = ("artifact", "weight_space_report", "error_report", "layer_output")
SHAPES = [(640, 96), (96, 640), (256, 256), (300, 233), (1032, 4100), (4100, 264)]
DTYPES = ["float32", "float64"]
QUANT = ["absmax", "group_absmax", "slim_quant", "slim_quant_o", "none"]
SPARSITY = [(None, "wanda"), ("unstructured:0.5", "wanda"), ("unstructured:0.5", "magnitude"),
            ("2:4", "wanda"), ("2:4", "magnitude")]
ADAPTERS = [("none", False), ("naive", False), ("slim", False), ("slim", True)]
# (quant method, (channel_scaling, scale_factor)): the default, then the
# scaled cases of the small shapes
DEFAULT_SCALING = (None, 2.0)
SCALED = [(q, (True, f)) for q in ("absmax", "group_absmax", "slim_quant", "none") for f in (2.0, 3.0)]
SCALED.append(("slim_quant_o", (None, 3.0)))
BITS = [2, 3, 8]  # weight bits besides the default 4
# 96 tokens split R = x_eval @ D of the 4100-wide shape into two column
# chunks; 4100x264 sums its adapter's Gram matrix over two row blocks
TOKENS = 96
# The command-line cases' container: the wide weight's adapter fit reads
# two column blocks of it (k = 160), the tall one's two row blocks.
CLI_TENSORS = {"fc1": (160, 6600), "fc2": (6600, 160)}
CLI_FLAGS = [
    "--quant slim --sparsity 2:4 --scores magnitude --lora naive --rank-ratio 0.1 --quantize-lora",
    "--quant none --sparsity unstructured:0.5 --scores magnitude",
    "--quant group-absmax --wbits 3 --lora naive --rank-ratio 0.05",
]


def cases():
    plain = [(shape, dtype, quant, sparsity, adapter, DEFAULT_SCALING, 4) for shape, dtype, quant, sparsity, adapter
             in itertools.product(SHAPES, DTYPES, QUANT, SPARSITY, ADAPTERS)]
    scaled = [(shape, dtype, quant, sparsity, adapter, scaling, 4) for shape, dtype, (quant, scaling), sparsity, adapter
              in itertools.product(SHAPES[:4], DTYPES, SCALED, SPARSITY, ADAPTERS)]
    bits = [(shape, dtype, quant, sparsity, adapter, DEFAULT_SCALING, b) for b, shape, dtype, quant, sparsity, adapter
            in itertools.product(BITS, SHAPES[:4], DTYPES, QUANT[:4], SPARSITY, ADAPTERS)]
    cli = [("cli", flags, name) for flags in CLI_FLAGS for name in CLI_TENSORS]
    return plain + scaled + bits + cli


def _encode(payload: bytes) -> str:
    return base64.b64encode(payload).decode()


def _array(a: np.ndarray) -> str:
    return _encode(a.tobytes())  # layer_output is float64


def _decoded(payload: str) -> tuple:
    """The config and provenance of an artifact, and its decoded arrays."""
    import slim.artifact

    layer = slim.artifact.layer_from_bytes(base64.b64decode(payload))
    arrays = [layer.stored_weight()]
    if layer.mask is not None:
        arrays.append(layer.mask.keep.astype(np.float64))
    if layer.adapter is not None:
        arrays += [layer.adapter.left, layer.adapter.right]
    return (layer.config, layer.provenance), arrays


def _largest_relative(pairs) -> float:
    """The largest ``max|x - y| / max|y|`` over pairs of arrays, infinite
    where their shapes differ or a nonzero difference meets an all-zero y."""
    worst = 0.0
    for x, y in pairs:
        if x.shape != y.shape:
            return float("inf")
        diff, scale = np.abs(x - y).max(initial=0.0), np.abs(y).max(initial=0.0)
        if diff:
            worst = max(worst, float(diff / scale) if scale else float("inf"))
    return worst


def run_case(slim, index: int, case) -> dict:
    (shape, dtype, quant, (sparsity, scores), (adapter, quantized), (scaled, factor), bits) = case
    rng = np.random.default_rng(index)
    w = rng.standard_normal(shape).astype(dtype)
    x = rng.standard_normal((TOKENS, shape[0]))
    stats = slim.compute_calibration([rng.standard_normal((64, shape[0]))])
    cfg = slim.LayerCompressionConfig(
        quant_method=quant, weight_bits=bits, sparsity=None if sparsity is None else slim.SparsityPattern.parse(sparsity),
        prune_scores=scores, adapter_method=adapter, quantize_adapters=quantized,
        rank_ratio=None if adapter == "none" else 0.1, channel_scaling=scaled, scale_factor=factor,
    )
    layer = slim.compress_layer(w, stats, cfg)
    payload = slim.artifact.layer_to_bytes(layer)
    sal = slim.saliency_vector(stats)
    decoded = slim.artifact.layer_from_bytes(payload)
    return {
        "artifact": {"sha256": hashlib.sha256(payload).hexdigest(), "bytes": _encode(payload)},
        "weight_space_report": slim.weight_space_report(w, layer, sal),
        "error_report": slim.error_report(w, layer, x, sal).to_dict(),
        "layer_output": [_array(slim.layer_output(x, layer)), _array(slim.layer_output(x, decoded))],
    }


@functools.cache
def run_cli(slim, flags: str) -> dict:
    """Per tensor of ``CLI_TENSORS``: the fields of its command-line case
    under ``flags``, or the exit code of the command that failed."""
    rng = np.random.default_rng(CLI_FLAGS.index(flags))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        weights = tmp / "block.slim"
        slim.write_container(weights, {n: rng.standard_normal(s).astype(np.float32)
                                       for n, s in CLI_TENSORS.items()})
        code = slim.cli.main(["compress", "--weights", str(weights), "--out", str(tmp / "out"),
                              "--report", str(tmp / "compress.json"), *flags.split()])
        if code:
            return {name: {field: f"compress exit {code}" for field in FIELDS[:3]} for name in CLI_TENSORS}
        compressed = json.loads((tmp / "compress.json").read_text())
        fields = {}
        for name, (d_in, _) in CLI_TENSORS.items():
            inputs, artifact = tmp / f"x.{name}.slim", tmp / f"out.{name}.slim"
            slim.write_container(inputs, {"x": rng.standard_normal((TOKENS, d_in)).astype(np.float32)})
            code = slim.cli.main(["eval", "--original", str(weights), "--tensor", name,
                                  "--compressed", str(artifact), "--inputs", str(inputs),
                                  "--report", str(tmp / "eval.json")])
            entry = compressed[name]
            del entry["artifact"]  # a path in this directory
            if entry["alpha"] is None:
                del entry["alpha"]
            payload = artifact.read_bytes()
            fields[name] = {
                "artifact": {"sha256": hashlib.sha256(payload).hexdigest(), "bytes": _encode(payload)},
                "weight_space_report": entry,
                "error_report": json.loads((tmp / "eval.json").read_text()) if not code else f"eval exit {code}",
            }
        return fields


def worker(tree: str) -> None:
    """Run every case against the ``slim`` in ``tree``, one JSON line each."""
    import slim
    import slim.cli

    if not Path(slim.__file__).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"slim imported from {slim.__file__}, not from {tree}")
    for index, case in enumerate(cases()):
        try:
            result = run_cli(slim, case[1])[case[2]] if case[0] == "cli" else run_case(slim, index, case)
        except slim.SlimError as exc:
            result = {field: f"{type(exc).__name__}: {exc}" for field in FIELDS}
        print(json.dumps(result), flush=True)


def spawn(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", __file__, "--worker", str(tree)],
        stdout=subprocess.PIPE, env=env, text=True,
    )


def differences(field: str, a, b) -> dict[str, float]:
    """The largest relative difference of each part of a field: 0 where
    equal, inf where the two are not numbers of the same kind. A report's
    parts are its keys; any other field is one part, named ``""``."""
    if a == b:
        return {"": 0.0}
    if field == "artifact" and isinstance(a, dict) and isinstance(b, dict):
        (meta_a, arrays_a), (meta_b, arrays_b) = _decoded(a["bytes"]), _decoded(b["bytes"])
        if meta_a != meta_b or len(arrays_a) != len(arrays_b):
            return {"": float("inf")}
        return {"": _largest_relative(zip(arrays_a, arrays_b))}
    if field == "layer_output" and isinstance(a, list) and isinstance(b, list):
        return {"": _largest_relative((np.frombuffer(base64.b64decode(x)), np.frombuffer(base64.b64decode(y)))
                                      for x, y in zip(a, b))}
    if field.endswith("report") and isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return {k: (abs(a[k] - b[k]) / abs(b[k]) if b[k] else float("inf")) for k in a if a[k] != b[k]}
    return {"": float("inf")}


def parse_allow(items: list[str]) -> dict[str, float]:
    """``FIELD=RTOL`` or ``FIELD.KEY=RTOL`` (a key of a report field) to a
    map from ``FIELD`` or ``FIELD.KEY`` to its tolerance."""
    allow = {}
    for item in items:
        name, _, rtol = item.partition("=")
        field, dot, key = name.partition(".")
        if field not in FIELDS:
            raise SystemExit(f"--allow: unknown field {field!r}; fields are {', '.join(FIELDS)}")
        if dot and not (key and field.endswith("report")):
            raise SystemExit(f"--allow: {name!r} names no report key, as in error_report.output_mse")
        allow[name] = float(rtol)
    return allow


def within_allow(field: str, parts: dict[str, float], allow: dict[str, float]) -> bool:
    """Whether every part's difference is within its tolerance: a report
    key's own ``--allow``, else its field's."""
    return all(diff <= allow.get(f"{field}.{key}" if key else field, allow.get(field, -1.0))
               for key, diff in parts.items() if diff)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree against")
    parser.add_argument("--allow", action="append", default=[], metavar="FIELD[.KEY]=RTOL",
                        help="accept differences in FIELD, or in KEY of a report FIELD, up to this "
                             "relative size")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not args.base:
        parser.error("--base is required")
    allow = parse_allow(args.allow)
    sys.path.insert(0, str(REPO / "src"))  # the working tree's slim decodes artifacts
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.base, "src"],
                                 stdout=subprocess.PIPE)
        if archive.returncode:  # git has printed why
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        base, head = spawn(Path(tmp)), spawn(REPO)
        counts = {field: [0, 0, 0, 0.0] for field in FIELDS}  # equal, allowed, differ, largest
        matrix, total, beyond = cases(), 0, []
        for line_base, line_head in zip(base.stdout, head.stdout):
            old, new = json.loads(line_base), json.loads(line_head)
            differing = []
            for field in FIELDS:
                if field not in new and field not in old:  # no forward pass in a command-line case
                    continue
                parts = differences(field, new.get(field), old.get(field))
                diff = max(parts.values())
                count = counts[field]
                kind = 0 if diff == 0 else 1 if within_allow(field, parts, allow) else 2
                count[kind] += 1
                count[3] = max(count[3], diff)
                if kind == 2:
                    differing.append(f"{field} {diff:.3g}")
            if differing:
                beyond.append(f"case {total} {matrix[total]}: {', '.join(differing)}")
            total += 1
        codes = base.wait(), head.wait()
    if codes != (0, 0) or total != len(matrix):
        print(f"a worker failed (exit codes {codes}) after {total} of {len(matrix)} cases")
        return 1
    print(f"{total} cases, {args.base} against the working tree")
    print(f"{'field':<20} {'equal':>6} {'allowed':>8} {'differ':>7}  largest relative difference")
    for field, (equal, allowed, differ, largest) in counts.items():
        print(f"{field:<20} {equal:>6} {allowed:>8} {differ:>7}  {largest:.3g}")
    if beyond:
        print("differences beyond --allow:", *beyond, sep="\n")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
