"""Command-line front end.

Subcommands: ``compress`` (run the pipeline on every tensor of a weights
container), ``eval`` (error report for an artifact against the original),
``budget`` (analytic memory/FLOP ratios), ``oracle-alpha`` (dense-grid
check of the scale search), ``calib`` (build calibration statistics from
activation containers), ``gen-fixture`` (seeded synthetic tensors).

Exit codes: 0 success, 1 usage error, 2 data or validation error.
Diagnostics go to stderr; the ``SLIM_LOG`` environment variable
(error|warn|info|debug) sets the verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .artifact import deserialize_compressed_layer, layer_to_tensors
from .budget import ArchConfig, SchemeConfig, flop_reduction, load_arch, load_preset, memory_reduction, preset_names
from .calibration import compute_calibration, load_calibration, save_calibration
from .errors import SlimError
from .lora import SaliencyVector, saliency_vector
from .pipeline import LayerCompressionConfig, compress_layer, error_report, weight_space_report
from .prune import SparsityPattern
from .quant import MAX_BITS, MIN_BITS, estimate_error, slimquant_search
from .container import _read_shapes, _tensor_source, read_container, write_container
from .tensor import _check_shape, build_abs_histogram

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_QUANT_FLAG_TO_METHOD = {
    "absmax": "absmax",
    "group-absmax": "group_absmax",
    "slim": "slim_quant",
    "slim-o": "slim_quant_o",
    "none": "none",
}

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class UsageError(Exception):
    """Raised for bad flags/combinations; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems by default; route
    # through UsageError instead so usage errors exit 1 and data errors
    # keep exit 2.
    def error(self, message):
        raise UsageError(message)


def _configure_logging() -> None:
    raw = os.environ.get("SLIM_LOG", "").strip().lower()
    level = _LOG_LEVELS.get(raw, logging.WARNING)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _parse_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"shape must look like ROWSxCOLS, got {text!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"shape must look like ROWSxCOLS, got {text!r}") from None
    if rows < 1 or cols < 1:
        raise UsageError(f"shape dimensions must be positive, got {text!r}")
    return rows, cols


def _fits_a_file_name(name: str) -> bool:
    """Whether the tensor name ``name`` can be part of the file name
    ``OUT.<name>.slim`` that ``slim compress`` writes: it holds no NUL and
    no ``/``."""
    return "\0" not in name and "/" not in name


def _tensor_name(flag: str, path, prefer: str | None = None) -> str:
    """``prefer``, or without it the only tensor not named ``__*`` of the
    container at ``path``, found from its header alone. Errors name the
    path by its ``flag``; only ``--inputs`` has no ``--tensor`` to pick one."""
    if prefer is not None:
        return prefer
    named = [n for n in _read_shapes(path) if not n.startswith("__")]
    if len(named) != 1:
        fix = "it must hold one" if flag == "--inputs" else "pass --tensor to pick one"
        raise SlimError(f"{flag} {path} holds {len(named)} tensors; {fix}")
    return named[0]


def _flag_source(flag: str, path, prefer: str | None):
    """The :func:`~slim.container._tensor_source` of :func:`_tensor_name`'s
    tensor, whose shape and value errors name the flag, path and tensor."""
    name = _tensor_name(flag, path, prefer)
    return _tensor_source(path, name, f"{flag} {path} tensor {name!r}")


def _build_compress_config(args) -> LayerCompressionConfig:
    sparsity = SparsityPattern.parse(args.sparsity)
    return LayerCompressionConfig(
        quant_method=_QUANT_FLAG_TO_METHOD[args.quant],
        weight_bits=args.wbits,
        group_size=args.group_size,
        sparsity=sparsity,
        prune_scores=args.scores,
        adapter_method=args.lora,
        rank_ratio=args.rank_ratio,
        quantize_adapters=args.quantize_lora,
        input_fp8=args.input_fp8,
    )


def cmd_compress(args) -> int:
    try:
        cfg = _build_compress_config(args)
    except SlimError as exc:
        raise UsageError(str(exc)) from exc

    if cfg.needs_stats() and args.calib is None:
        raise UsageError(
            "--calib is required with --scores wanda (when pruning), "
            "--lora slim, or --quant slim-o"
        )

    shapes = {n: s for n, s in _read_shapes(args.weights).items() if not n.startswith("__")}
    if not shapes:
        raise SlimError(f"{args.weights} holds no weight tensors")
    stats = load_calibration(args.calib) if args.calib is not None else None
    for name, shape in shapes.items():  # every tensor, before any is read
        if not _fits_a_file_name(name):
            raise SlimError(f"tensor name {name!r} holds '/' or NUL, which an artifact file name cannot")
        _check_shape(shape, f"tensor {name!r}")
        if stats is not None:
            stats._check_rows(shape[0])
    sal = saliency_vector(stats) if stats is not None else None

    out_stem = Path(args.out)
    report: dict[str, dict] = {}
    written: list[Path] = []
    try:
        for name in shapes:  # one tensor at a time, read from the file a block at a time
            try:
                with _tensor_source(args.weights, name) as w:
                    layer = compress_layer(w, stats, cfg)  # the layer its artifact decodes to
                    path = out_stem.parent / f"{out_stem.name}.{name}.slim"
                    written.append(path)
                    write_container(path, layer_to_tensors(layer))
                    entry = weight_space_report(
                        w, layer, sal if sal is not None else SaliencyVector.constant(w.shape[0]),
                    )
            except SlimError as exc:
                raise type(exc)(f"tensor {name!r}: {exc}") from exc
            entry["alpha"] = layer.provenance.alpha
            entry["artifact"] = str(path)
            report[name] = entry
            del layer  # freed before the next tensor is compressed
        if args.report is not None:
            Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
            logger.info("report written to %s", args.report)
    except BaseException:
        for path in written:  # a failed run leaves no artifact behind
            path.unlink(missing_ok=True)
        raise

    for name, entry in report.items():
        print(
            f"{name}: weight_mse={entry['weight_mse']:.6g} "
            f"weighted={entry['weighted_weight_mse']:.6g} "
            f"density={entry['density']:.4f} -> {entry['artifact']}"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    with _flag_source("--original", args.original, args.tensor) as w:
        layer = deserialize_compressed_layer(args.compressed)
        name = _tensor_name("--inputs", args.inputs)
        with _tensor_source(args.inputs, name, f"--inputs {args.inputs}") as x_eval:
            sal = saliency_vector(compute_calibration([x_eval]))  # every block read and checked
            rep = error_report(w, layer, x_eval, sal)
    if args.report is not None:
        Path(args.report).write_text(rep.to_json())
    print(
        f"output_mse={rep.output_mse:.6g} (no adapter {rep.output_mse_no_adapter:.6g}) "
        f"weight_mse={rep.weight_mse:.6g} density={rep.density:.4f} "
        f"bits/weight={rep.effective_bits_per_weight:.3f}"
    )
    return EXIT_OK


def _load_arch_arg(text: str) -> ArchConfig:
    path = Path(text)
    if path.exists():
        return load_arch(path)
    return load_preset(text)


def cmd_budget(args) -> int:
    arch = _load_arch_arg(args.arch)
    scheme = SchemeConfig(
        density=args.density,
        weight_bits=args.wbits,
        dense_bits=args.dense_bits,
        rank_ratio=args.rank_ratio,
        adapter_bits=args.adapter_bits,
        sparsity_metadata_bits=args.meta_bits,
    )
    mem = memory_reduction(arch, scheme)
    flops = flop_reduction(arch, scheme)
    if args.json:
        print(json.dumps({"memory_reduction": round(mem, 4), "flop_reduction": round(flops, 4)}))
    else:
        print(f"memory_reduction {mem:.4f}")
        print(f"flop_reduction {flops:.4f}")
    return EXIT_OK


def cmd_oracle_alpha(args) -> int:
    if args.grid_points < 100:
        raise UsageError(f"--grid-points must be >= 100, got {args.grid_points}")
    if not MIN_BITS <= args.wbits <= MAX_BITS:
        raise UsageError(f"--wbits must be in [{MIN_BITS}, {MAX_BITS}], got {args.wbits}")
    if args.bins is not None and args.bins < 1:
        raise UsageError(f"--bins must be >= 1, got {args.bins}")
    with _flag_source("--weights", args.weights, args.tensor) as w:
        hist = build_abs_histogram(w, args.bins)
    m = hist.max_abs
    if m == 0.0:
        dense_alpha, dense_err = 1.0, 0.0
    else:
        grid = m * np.arange(1, args.grid_points + 1, dtype=np.float64) / args.grid_points
        errs = estimate_error(hist, grid, args.wbits)
        k = int(np.argmin(errs))
        dense_alpha, dense_err = float(grid[k]), float(errs[k])
    search_alpha, search_err = slimquant_search(hist, args.wbits)
    if dense_err > 0.0:
        ratio = search_err / dense_err
    else:
        ratio = 1.0 if search_err <= 1e-18 else float("inf")
    print(f"dense grid: alpha={dense_alpha:.6g} error={dense_err:.6g}")
    print(f"search:     alpha={search_alpha:.6g} error={search_err:.6g}")
    print(f"ratio: {ratio:.4f}")
    return EXIT_OK


def _batches(paths):
    """Each tensor not named ``__*`` of each ``--inputs`` container, in
    order: its block source, open while the batch is summed, or the array
    of an empty 2-D one (a source cannot be empty)."""
    for path in paths:
        for name, shape in _read_shapes(path).items():
            if name.startswith("__"):
                continue
            if len(shape) == 2 and 0 in shape:
                yield read_container(path, [name])[name]
            else:
                with _flag_source("--inputs", path, name) as batch:
                    yield batch


def cmd_calib(args) -> int:
    stats = compute_calibration(_batches(args.inputs))
    save_calibration(args.out, stats)
    print(f"{stats.token_count} tokens x {stats.d_in} channels -> {args.out}")
    return EXIT_OK


def cmd_gen_fixture(args) -> int:
    if not args.name or args.name.startswith("__"):  # readers take "__*" for metadata
        raise UsageError(f"--name must be non-empty and not start with '__', got {args.name!r}")
    if not _fits_a_file_name(args.name):
        raise UsageError(f"--name {args.name!r} holds '/' or NUL, which an artifact file name cannot")
    rows, cols = _parse_shape(args.shape)
    if not (np.isfinite(args.scale) and args.scale > 0):
        raise UsageError(f"--scale must be finite and > 0, got {args.scale}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    size = (rows, cols)
    if args.dist == "gaussian":
        data = rng.standard_normal(size) * args.scale
    elif args.dist == "laplace":
        data = rng.laplace(0.0, args.scale, size)
    elif args.dist == "two-point":
        data = args.scale * (2.0 * rng.integers(0, 2, size) - 1.0)
    else:  # mixture: mostly narrow Gaussian with a wide outlier component
        wide = rng.random(size) < 0.1
        data = np.where(
            wide,
            rng.normal(0.0, 10.0 * args.scale, size),
            rng.normal(0.0, args.scale, size),
        )
    with np.errstate(over="ignore"):  # past f32's range rounds to inf, refused below
        data = data.astype(np.float32)
    if not np.isfinite(data).all():
        raise UsageError(f"--scale {args.scale} puts values past the float32 range")
    write_container(args.out, {args.name: data})
    print(f"{args.dist} {rows}x{cols} seed={args.seed} -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slim", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("compress", help="compress every tensor of a weights container")
    p.add_argument("--weights", required=True, help="input tensor container")
    p.add_argument("--calib", help="calibration statistics container")
    p.add_argument("--out", required=True, help="artifact stem; writes OUT.<tensor>.slim")
    p.add_argument("--quant", choices=sorted(_QUANT_FLAG_TO_METHOD), default="slim")
    p.add_argument("--wbits", type=int, default=4, help="weight code bits (default 4)")
    p.add_argument("--group-size", type=int, default=128, help="group length (default 128)")
    p.add_argument("--sparsity", default="none", help="none, unstructured:RATIO, or N:M")
    p.add_argument("--scores", choices=("wanda", "magnitude"), default="wanda")
    p.add_argument("--lora", choices=("none", "naive", "slim"), default="none")
    p.add_argument("--rank-ratio", type=float, default=None,
                   help="adapter rank / min(dim) (default 0.1 when --lora is set)")
    p.add_argument("--quantize-lora", action="store_true", help="store adapters 4-bit grouped")
    p.add_argument("--input-fp8", action="store_true", help="snap inputs to 8-bit float at inference")
    p.add_argument("--report", help="write a JSON report here; its weighted_weight_mse is "
                   "weighted by the saliency of --calib (unit weights without --calib)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="error report for an artifact against the original")
    p.add_argument("--original", required=True, help="container with the original weight")
    p.add_argument("--compressed", required=True, help="compressed-layer artifact")
    p.add_argument("--inputs", required=True, help="container with evaluation activations")
    p.add_argument("--tensor", help="tensor name inside --original")
    p.add_argument("--report", help="write the JSON report here; its weighted_weight_mse is "
                   "weighted by the saliency of --inputs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("budget", help="analytic memory and FLOP reduction")
    p.add_argument("--arch", required=True,
                   help=f"arch JSON path or preset ({', '.join(preset_names())})")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--wbits", type=int, default=16)
    p.add_argument("--rank-ratio", type=float, default=0.0)
    p.add_argument("--adapter-bits", type=int, default=16)
    p.add_argument("--dense-bits", type=int, default=16)
    p.add_argument("--meta-bits", type=float, default=0.0,
                   help="sparsity metadata bits per weight")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("oracle-alpha", help="dense-grid oracle vs the multi-grid scale search")
    p.add_argument("--weights", required=True)
    p.add_argument("--tensor", help="tensor name inside --weights")
    p.add_argument("--wbits", type=int, default=4)
    p.add_argument("--grid-points", type=int, default=5000)
    p.add_argument("--bins", type=int, default=None, help="histogram bins (default automatic)")
    p.set_defaults(func=cmd_oracle_alpha)

    p = sub.add_parser("calib", help="compute calibration statistics from activation containers")
    p.add_argument("--inputs", required=True, nargs="+", help="activation containers")
    p.add_argument("--out", required=True, help="output statistics container")
    p.set_defaults(func=cmd_calib)

    p = sub.add_parser("gen-fixture", help="deterministic synthetic tensor containers")
    p.add_argument("--dist", required=True, choices=("gaussian", "laplace", "two-point", "mixture"))
    p.add_argument("--shape", required=True, help="ROWSxCOLS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--name", default="weights", help="tensor name in the container")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SlimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
