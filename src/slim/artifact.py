"""Persistence of compressed-layer artifacts.

A compressed layer is stored as one tensor container holding the stored
weight representation (integer codes plus scales, or a raw f32 matrix),
the packed keep-mask, the adapter factors (raw or as codes plus scales),
and a ``__config__`` tensor of canonical JSON bytes describing the
configuration, provenance and channel scaling. Masks pack 8 entries per
byte, row-major, most significant bit first.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .container import read_container, write_container, container_to_bytes, container_from_bytes
from .errors import SchemaViolation, SlimError
from .lora import LowRankAdapter
from .pipeline import CompressedLayer, LayerCompressionConfig, Provenance
from .prune import SparsityMask, SparsityPattern
from .quant import ChannelScaling, QuantizedTensor, dequantize

__all__ = ["serialize_compressed_layer", "deserialize_compressed_layer"]

_ARTIFACT_KIND = "compressed-layer"
_ARTIFACT_VERSION = 1


def _pattern_from_json(raw) -> SparsityPattern | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise SchemaViolation("sparsity entry must be an object or null")
    return SparsityPattern(
        kind=raw.get("kind"),
        ratio=raw.get("ratio"),
        n=raw.get("n"),
        m=raw.get("m"),
    )


def _config_from_json(raw: dict) -> LayerCompressionConfig:
    try:
        return LayerCompressionConfig(
            quant_method=raw["quant_method"],
            weight_bits=raw["weight_bits"],
            group_size=raw["group_size"],
            sparsity=_pattern_from_json(raw.get("sparsity")),
            prune_scores=raw["prune_scores"],
            adapter_method=raw["adapter_method"],
            rank_ratio=raw.get("rank_ratio"),
            quantize_adapters=raw["quantize_adapters"],
            input_fp8=raw["input_fp8"],
            channel_scaling=raw.get("channel_scaling"),
            scale_fraction=raw["scale_fraction"],
            scale_factor=raw["scale_factor"],
        )
    except KeyError as exc:
        raise SchemaViolation(f"artifact config is missing {exc}") from exc


def layer_to_tensors(layer: CompressedLayer) -> dict:
    """Flatten a layer into the tensor mapping stored in the container."""
    tensors = {}
    meta = {
        "artifact": _ARTIFACT_KIND,
        "version": _ARTIFACT_VERSION,
        "config": asdict(layer.config),
        "provenance": asdict(layer.provenance),
        "scaling": None,
        "weights": None,
        "adapter": None,
    }

    if isinstance(layer.weights, QuantizedTensor):
        qt = layer.weights
        tensors["codes"] = qt.codes
        tensors["scales"] = qt.scales.astype(np.float32)
        meta["weights"] = {
            "kind": "quantized",
            "bits": qt.bits,
            "group_size": qt.group_size,
        }
    else:
        tensors["weights"] = np.asarray(layer.weights, dtype=np.float32)
        meta["weights"] = {"kind": "raw"}

    if layer.mask is not None:
        tensors["mask_packed"] = np.packbits(layer.mask.keep.reshape(-1))
        rows, cols = layer.mask.keep.shape
        meta["mask"] = {"rows": rows, "cols": cols}

    if layer.channel_scaling is not None:
        meta["scaling"] = {
            "indices": [int(i) for i in layer.channel_scaling.channel_indices],
            "factor": layer.channel_scaling.factor,
        }

    adapter = layer.adapter
    if adapter is not None:
        if adapter.quantized is not None:
            ql, qr = adapter.quantized
            tensors["adapter_left_codes"] = ql.codes
            tensors["adapter_left_scales"] = ql.scales.astype(np.float32)
            tensors["adapter_right_codes"] = qr.codes
            tensors["adapter_right_scales"] = qr.scales.astype(np.float32)
            meta["adapter"] = {
                "rank": adapter.rank,
                "quantized": True,
                "bits": ql.bits,
                "group_size": ql.group_size,
            }
        else:
            tensors["adapter_left"] = adapter.left.astype(np.float32)
            tensors["adapter_right"] = adapter.right.astype(np.float32)
            meta["adapter"] = {"rank": adapter.rank, "quantized": False}

    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors["__config__"] = np.frombuffer(blob, dtype=np.uint8)
    return tensors


def _need(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise SchemaViolation(f"artifact is missing tensor {name!r}")
    return tensors[name]


def _quantized_from(tensors: dict, prefix: str, bits: int, group_size) -> QuantizedTensor:
    codes = _need(tensors, f"{prefix}codes")
    scales = _need(tensors, f"{prefix}scales")
    if codes.dtype != np.int8 or codes.ndim != 2:
        raise SchemaViolation(f"{prefix}codes must be a 2-D i8 tensor")
    try:
        return QuantizedTensor(
            codes=codes,
            scales=np.asarray(scales, dtype=np.float64).reshape(-1),
            group_size=group_size,
            bits=bits,
        )
    except SlimError as exc:
        raise SchemaViolation(f"artifact holds inconsistent {prefix}tensors: {exc}") from exc


def layer_from_tensors(tensors: dict) -> CompressedLayer:
    """Rebuild a layer from a container's tensor mapping."""
    if "__config__" not in tensors:
        raise SchemaViolation("artifact is missing the __config__ tensor")
    try:
        meta = json.loads(bytes(tensors["__config__"].tobytes()).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SchemaViolation(f"__config__ is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("artifact") != _ARTIFACT_KIND:
        raise SchemaViolation("container does not describe a compressed layer")
    if meta.get("version") != _ARTIFACT_VERSION:
        raise SchemaViolation(f"unsupported artifact version {meta.get('version')!r}")

    try:
        cfg = _config_from_json(meta["config"])
        prov_raw = meta["provenance"]
        prov = Provenance(
            rows=int(prov_raw["rows"]),
            cols=int(prov_raw["cols"]),
            alpha=prov_raw.get("alpha"),
        )
        winfo = meta["weights"]
        ainfo = meta.get("adapter")
        sinfo = meta.get("scaling")
        minfo = meta.get("mask")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaViolation(f"artifact metadata malformed: {exc}") from exc
    except SlimError as exc:
        raise SchemaViolation(f"artifact config invalid: {exc}") from exc

    try:
        if not isinstance(winfo, dict):
            raise SchemaViolation("weights metadata missing")
        if winfo.get("kind") == "quantized":
            weights = _quantized_from(tensors, "", int(winfo["bits"]), winfo.get("group_size"))
        elif winfo.get("kind") == "raw":
            weights = np.asarray(_need(tensors, "weights"), dtype=np.float64)
            if weights.ndim != 2:
                raise SchemaViolation("raw weights tensor must be 2-D")
        else:
            raise SchemaViolation(f"unknown weight kind {winfo.get('kind')!r}")
        if weights.shape != (prov.rows, prov.cols):
            raise SchemaViolation(
                f"weight shape {weights.shape} does not match provenance "
                f"({prov.rows}, {prov.cols})"
            )

        mask = None
        if minfo is not None:
            rows, cols = int(minfo["rows"]), int(minfo["cols"])
            if (rows, cols) != (prov.rows, prov.cols):
                raise SchemaViolation(
                    f"mask shape ({rows}, {cols}) does not match provenance "
                    f"({prov.rows}, {prov.cols})"
                )
            packed = _need(tensors, "mask_packed")
            if packed.dtype != np.uint8:
                raise SchemaViolation("mask_packed must be a u8 tensor")
            total = rows * cols
            if packed.size != -(-total // 8):
                raise SchemaViolation(
                    f"mask_packed holds {packed.size} bytes, need {-(-total // 8)}"
                )
            keep = np.unpackbits(packed.reshape(-1), count=total).astype(bool)
            mask = SparsityMask(keep.reshape(rows, cols))

        adapter = None
        if ainfo is not None:
            rank = int(ainfo["rank"])
            if ainfo.get("quantized"):
                ql = _quantized_from(
                    tensors, "adapter_left_", int(ainfo["bits"]), ainfo.get("group_size")
                )
                qr = _quantized_from(
                    tensors, "adapter_right_", int(ainfo["bits"]), ainfo.get("group_size")
                )
                adapter = LowRankAdapter(
                    left=dequantize(ql), right=dequantize(qr), rank=rank, quantized=(ql, qr)
                )
            else:
                adapter = LowRankAdapter(
                    left=np.asarray(_need(tensors, "adapter_left"), dtype=np.float64),
                    right=np.asarray(_need(tensors, "adapter_right"), dtype=np.float64),
                    rank=rank,
                    quantized=None,
                )

        scaling = None
        if sinfo is not None:
            scaling = ChannelScaling(
                channel_indices=np.asarray(sinfo["indices"], dtype=np.int64),
                factor=float(sinfo["factor"]),
            )

        return CompressedLayer(
            weights=weights,
            mask=mask,
            adapter=adapter,
            channel_scaling=scaling,
            config=cfg,
            provenance=prov,
        )
    except SchemaViolation:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaViolation(f"artifact metadata malformed: {exc}") from exc
    except SlimError as exc:
        raise SchemaViolation(f"artifact contents invalid: {exc}") from exc


def serialize_compressed_layer(layer: CompressedLayer, path) -> None:
    """Write a layer artifact to ``path``; byte-deterministic per layer."""
    write_container(path, layer_to_tensors(layer))


def deserialize_compressed_layer(path) -> CompressedLayer:
    """Read a layer artifact back; inverse of :func:`serialize_compressed_layer`.

    Raises:
        SchemaViolation: the container is valid but does not describe a
            compressed layer (missing tensors, inconsistent metadata).
        BadMagic / UnsupportedVersion / CorruptHeader / TruncatedData:
            propagated from the container reader.
    """
    return layer_from_tensors(read_container(path))


def layer_to_bytes(layer: CompressedLayer) -> bytes:
    """In-memory variant of :func:`serialize_compressed_layer`."""
    return container_to_bytes(layer_to_tensors(layer))


def layer_from_bytes(payload: bytes) -> CompressedLayer:
    """In-memory variant of :func:`deserialize_compressed_layer`."""
    return layer_from_tensors(container_from_bytes(payload))
