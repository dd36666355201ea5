#!/usr/bin/env python3
"""Compare what two trees of ``src/`` compute, case by case.

    tools/parity.py --base REF [--allow FIELD=RTOL ...]

REF's ``src/`` is exported with ``git archive`` (no network needed) into a
temporary directory. One fixed-seed matrix of layers runs in that tree and
in the working tree, each in its own process with ``OPENBLAS_NUM_THREADS=1``
and ``RuntimeWarning`` raised as an error. The matrix crosses five shapes
(tall, wide, square, one not divisible by 128, and one of several
``error_report`` runs and column chunks), f32 and f64 weights, the five
quant methods, no / unstructured 0.5 / 2:4 sparsity (the pruned ones scored
both by wanda and by magnitude) and four adapters (none, naive, slim,
4-bit slim).

Each case records four fields:

- ``artifact``: the sha256 of ``layer_to_bytes``;
- ``weight_space_report`` and ``error_report``: their JSON values;
- ``layer_output``: the forward pass of the layer and of its decoded
  artifact.

A case that raises records the error instead. For each field the report
prints how many cases are equal, how many differ within an ``--allow``
tolerance and how many differ beyond it, with the largest relative
difference (a report number relative to its own value, an output relative
to its largest entry). It exits 1 when any difference is not allowed.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
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
SHAPES = [(640, 96), (96, 640), (256, 256), (300, 233), (1032, 4100)]
DTYPES = ["float32", "float64"]
QUANT = ["absmax", "group_absmax", "slim_quant", "slim_quant_o", "none"]
SPARSITY = [(None, "wanda"), ("unstructured:0.5", "wanda"), ("unstructured:0.5", "magnitude"),
            ("2:4", "wanda"), ("2:4", "magnitude")]
ADAPTERS = [("none", False), ("naive", False), ("slim", False), ("slim", True)]
# 96 tokens split R = x_eval @ D of the 4100-wide shape into two column chunks
TOKENS = 96


def cases():
    return list(itertools.product(SHAPES, DTYPES, QUANT, SPARSITY, ADAPTERS))


def _array(a: np.ndarray) -> str:
    return base64.b64encode(a.tobytes()).decode()  # layer_output is float64


def run_case(slim, index: int, case) -> dict:
    (shape, dtype, quant, (sparsity, scores), (adapter, quantized)) = case
    rng = np.random.default_rng(index)
    w = rng.standard_normal(shape).astype(dtype)
    x = rng.standard_normal((TOKENS, shape[0]))
    stats = slim.compute_calibration([rng.standard_normal((64, shape[0]))])
    cfg = slim.LayerCompressionConfig(
        quant_method=quant, sparsity=None if sparsity is None else slim.SparsityPattern.parse(sparsity),
        prune_scores=scores, adapter_method=adapter, quantize_adapters=quantized,
        rank_ratio=None if adapter == "none" else 0.1,
    )
    layer = slim.compress_layer(w, stats, cfg)
    payload = slim.artifact.layer_to_bytes(layer)
    sal = slim.saliency_vector(stats)
    decoded = slim.artifact.layer_from_bytes(payload)
    return {
        "artifact": hashlib.sha256(payload).hexdigest(),
        "weight_space_report": slim.weight_space_report(w, layer, sal),
        "error_report": slim.error_report(w, layer, x, sal).to_dict(),
        "layer_output": [_array(slim.layer_output(x, layer)), _array(slim.layer_output(x, decoded))],
    }


def worker(tree: str) -> None:
    """Run every case against the ``slim`` in ``tree``, one JSON line each."""
    import slim

    if not Path(slim.__file__).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"slim imported from {slim.__file__}, not from {tree}")
    for index, case in enumerate(cases()):
        try:
            result = run_case(slim, index, case)
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


def difference(field: str, a, b) -> float:
    """0 for equal values, else the largest relative difference (inf where
    the two are not numbers of the same kind)."""
    if a == b:
        return 0.0
    if field == "layer_output" and isinstance(a, list) and isinstance(b, list):
        worst = 0.0
        for x, y in zip(a, b):
            x, y = (np.frombuffer(base64.b64decode(v)) for v in (x, y))
            if x.shape != y.shape:
                return float("inf")
            scale = np.abs(y).max()
            worst = max(worst, float(np.abs(x - y).max() / scale) if scale else float("inf"))
        return worst
    if field.endswith("report") and isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((abs(a[k] - b[k]) / abs(b[k]) if b[k] else float("inf"))
                   for k in a if a[k] != b[k])
    return float("inf")


def parse_allow(items: list[str]) -> dict[str, float]:
    allow = {}
    for item in items:
        field, _, rtol = item.partition("=")
        if field not in FIELDS:
            raise SystemExit(f"--allow: unknown field {field!r}; fields are {', '.join(FIELDS)}")
        allow[field] = float(rtol)
    return allow


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree against")
    parser.add_argument("--allow", action="append", default=[], metavar="FIELD=RTOL",
                        help="accept differences in FIELD up to this relative size")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not args.base:
        parser.error("--base is required")
    allow = parse_allow(args.allow)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.base, "src"],
                                 stdout=subprocess.PIPE)
        if archive.returncode:  # git has printed why
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        base, head = spawn(Path(tmp)), spawn(REPO)
        counts = {field: [0, 0, 0, 0.0] for field in FIELDS}  # equal, allowed, differ, largest
        total = 0
        for line_base, line_head in zip(base.stdout, head.stdout):
            old, new = json.loads(line_base), json.loads(line_head)
            total += 1
            for field in FIELDS:
                diff = difference(field, new[field], old[field])
                count = counts[field]
                count[0 if diff == 0 else 1 if diff <= allow.get(field, -1.0) else 2] += 1
                count[3] = max(count[3], diff)
        codes = base.wait(), head.wait()
    if codes != (0, 0) or total != len(cases()):
        print(f"a worker failed (exit codes {codes}) after {total} of {len(cases())} cases")
        return 1
    print(f"{total} cases, {args.base} against the working tree")
    print(f"{'field':<20} {'equal':>6} {'allowed':>8} {'differ':>7}  largest relative difference")
    for field, (equal, allowed, differ, largest) in counts.items():
        print(f"{field:<20} {equal:>6} {allowed:>8} {differ:>7}  {largest:.3g}")
    return 1 if any(c[2] for c in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
