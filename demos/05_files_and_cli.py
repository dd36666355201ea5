"""Round-tripping a layer through files and the command line.

The same pipeline is reachable from Python and from the `slim` command;
both produce byte-identical artifacts. This script prepares inputs with
the library, compresses and evaluates with the CLI, then reloads the
artifact and applies it.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from slim import (
    compute_calibration,
    deserialize_compressed_layer,
    layer_output,
    save_calibration,
    write_container,
)


def run(*args):
    cmd = [sys.executable, "-m", "slim.cli", *args]
    print("$ slim " + " ".join(args))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    print(out.stdout, end="")
    return out.stdout


with tempfile.TemporaryDirectory(prefix="slim-demo-") as tmp:
    work = Path(tmp)
    rng = np.random.default_rng(3)

    w = rng.normal(0.0, 0.02, size=(384, 256))
    x = rng.normal(size=(1024, 384)) * np.geomspace(0.2, 2.0, 384)

    write_container(work / "layer.slim", {"weights": w.astype(np.float32)})
    write_container(work / "acts.slim", {"acts": x.astype(np.float32)})
    save_calibration(work / "calib.slim", compute_calibration([x]))
    print(f"inputs under {work} (removed on exit)\n")

    # compress: scale search, 2:4 pruning, weighted rank-0.1 adapter
    run(
        "compress",
        "--weights", str(work / "layer.slim"),
        "--calib", str(work / "calib.slim"),
        "--quant", "slim", "--wbits", "4",
        "--sparsity", "2:4",
        "--lora", "slim", "--rank-ratio", "0.1",
        "--out", str(work / "compressed"),
    )

    # score it against the original on held activations
    print()
    run(
        "eval",
        "--original", str(work / "layer.slim"),
        "--compressed", str(work / "compressed.weights.slim"),
        "--inputs", str(work / "acts.slim"),
        "--report", str(work / "report.json"),
    )
    report = json.loads((work / "report.json").read_text())

    # reload the artifact in Python and apply the layer
    layer = deserialize_compressed_layer(work / "compressed.weights.slim")
    y = layer_output(x, layer)
    ref = x @ w
    print(f"\nreloaded artifact: {layer.shape[0]}x{layer.shape[1]}, "
          f"density {report['density']:.2f}, "
          f"{report['effective_bits_per_weight']:.2f} bits/weight")
    print(f"relative output error: {np.linalg.norm(y - ref) / np.linalg.norm(ref):.4f}")
