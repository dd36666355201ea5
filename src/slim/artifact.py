"""Persistence of compressed-layer artifacts.

A compressed layer is stored as one tensor container holding the stored
weight representation (integer codes plus scales, or a raw f32 matrix),
the packed keep-mask, the adapter factors (raw or as codes plus scales),
and a ``__config__`` tensor of canonical JSON bytes holding the
configuration, provenance and channel scaling. The configuration alone
decides which tensors exist and how they decode (see :func:`_layout`).
Masks pack 8 entries per byte, row-major, most significant bit first.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .container import (_from_fields, _json_typed, container_from_bytes, container_to_bytes,
                        read_container, write_container)
from .errors import SchemaViolation, SlimError
from .lora import ADAPTER_QUANT_BITS, LowRankAdapter, default_rank
from .pipeline import CompressedLayer, LayerCompressionConfig, Provenance
from .prune import SparsityMask, SparsityPattern
from .quant import ChannelScaling, QuantizedTensor, dequantize

__all__ = ["serialize_compressed_layer", "deserialize_compressed_layer"]

_ARTIFACT_KIND = "compressed-layer"
_ARTIFACT_VERSION = 2
# Version 1 also wrote "weights", "adapter" and "mask" records restating the
# config, and older files a "created_at" provenance field; both are ignored.
_READ_VERSIONS = (1, 2)
_PACKED = "packed"  # codec of the keep-mask


def _layout(cfg: LayerCompressionConfig, rows: int, cols: int) -> dict:
    """The parts a config stores for a rows x cols layer, in storage order.

    Maps each part to ``(shape, codec)``. The codec is ``(bits,
    group_size)`` for int8 codes plus f32 scales, None for a raw f32
    matrix, and ``"packed"`` for the keep-mask bit-packed into u8.
    """
    w_codec = None
    if cfg.quant_method != "none":
        group = cfg.group_size if cfg.quant_method == "group_absmax" else None
        w_codec = (cfg.weight_bits, group)
    layout = {"weights": ((rows, cols), w_codec)}
    if cfg.sparsity is not None:
        layout["mask"] = ((rows, cols), _PACKED)
    if cfg.adapter_method != "none":
        rank = default_rank(rows, cols, cfg.effective_rank_ratio)
        a_codec = (ADAPTER_QUANT_BITS, cfg.group_size) if cfg.quantize_adapters else None
        layout["adapter_left"] = ((rows, rank), a_codec)
        layout["adapter_right"] = ((rank, cols), a_codec)
    return layout


def _tensor_names(part: str, codec) -> tuple[str, ...]:
    if codec is None:
        return (part,)
    if codec == _PACKED:
        return (f"{part}_packed",)
    prefix = "" if part == "weights" else f"{part}_"
    return (f"{prefix}codes", f"{prefix}scales")


def _describe(part) -> tuple:
    """``(shape, codec)`` of a stored part, as :func:`_layout` states them."""
    if isinstance(part, QuantizedTensor):
        return part.shape, (part.bits, part.group_size)
    if isinstance(part, SparsityMask):
        return part.keep.shape, _PACKED
    return np.shape(part), None


def _checked_parts(layer: CompressedLayer) -> dict:
    """The layer's stored parts by name, checked against its config.

    Raises:
        SchemaViolation: a part is missing or extra, or its shape, bit width
            or group size is not what the config implies for the layer's
            shape; a stored code or raw weight is nonzero where the mask
            drops it; or the channel scaling disagrees with the config's
            switch or names a channel >= d_in.
    """
    parts = {"weights": layer.weights}
    if layer.mask is not None:
        parts["mask"] = layer.mask
    adapter = layer.adapter
    if adapter is not None:
        factors = adapter.quantized or (adapter.left, adapter.right)
        parts["adapter_left"], parts["adapter_right"] = factors
    layout = _layout(layer.config, *layer.shape)
    for name in sorted(parts.keys() | layout.keys()):
        found = _describe(parts[name]) if name in parts else None
        if found != layout.get(name):
            raise SchemaViolation(
                f"{name} is {found} as (shape, codec); the config implies {layout.get(name)}"
            )
    if layer.mask is not None:
        w = layer.weights
        stored = w.codes if isinstance(w, QuantizedTensor) else w
        dropped = ~layer.mask.keep
        if np.logical_and(dropped, stored, out=dropped).any():  # one temporary, not two
            raise SchemaViolation("stored weights are nonzero where the mask drops them")
    scaling = layer.channel_scaling
    if (scaling is not None) != layer.config.scaling_enabled:
        raise SchemaViolation("channel scaling does not match the config's scaling switch")
    if scaling is not None and (scaling.channel_indices >= layer.shape[0]).any():
        raise SchemaViolation(f"channel scaling names a channel >= d_in {layer.shape[0]}")
    return parts


def layer_to_tensors(layer: CompressedLayer) -> dict:
    """Flatten a layer into the tensor mapping stored in the container.

    Raises:
        SchemaViolation: the layer's parts are not the ones its config
            implies, so the reader would reject the artifact.
    """
    tensors = {}
    for name, part in _checked_parts(layer).items():
        codec = _describe(part)[1]
        names = _tensor_names(name, codec)
        if codec is None:
            tensors[name] = np.asarray(part, dtype=np.float32)
        elif codec == _PACKED:
            tensors[names[0]] = np.packbits(part.keep.reshape(-1))
        else:
            tensors[names[0]], tensors[names[1]] = part.codes, part.scales.astype(np.float32)
    scaling = layer.channel_scaling
    meta = {
        "artifact": _ARTIFACT_KIND,
        "version": _ARTIFACT_VERSION,
        "config": asdict(layer.config),
        "provenance": asdict(layer.provenance),
        "scaling": None if scaling is None else {
            "indices": [int(i) for i in scaling.channel_indices],
            "factor": scaling.factor,
        },
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    _records(json.loads(blob))  # refuse metadata the reader would reject
    tensors["__config__"] = np.frombuffer(blob, dtype=np.uint8)
    return tensors


def _records(meta) -> tuple:
    """``(config, provenance, channel scaling or None)`` of a parsed ``__config__``."""
    if not isinstance(meta, dict) or meta.get("artifact") != _ARTIFACT_KIND:
        raise SchemaViolation("container does not describe a compressed layer")
    version = meta.get("version")
    if isinstance(version, bool) or version not in _READ_VERSIONS:
        raise SchemaViolation(f"unsupported artifact version {version!r}")
    raw = meta["config"]
    sparsity = raw["sparsity"] if isinstance(raw, dict) else None  # required; read on its own
    if sparsity is not None:
        sparsity = _from_fields(SparsityPattern, sparsity)
    cfg = _from_fields(LayerCompressionConfig, raw, ignored=("sparsity",), sparsity=sparsity)
    prov = _from_fields(Provenance, meta["provenance"], ignored=("created_at",))
    s = meta["scaling"]
    if s is None:
        return cfg, prov, None
    indices, factor = s["indices"], s["factor"]
    if not (isinstance(indices, list) and all(_json_typed(i, "int") for i in indices)
            and _json_typed(factor, "float")):
        raise SchemaViolation("scaling must hold a list of int indices and a number factor")
    return cfg, prov, ChannelScaling(np.asarray(indices, dtype=np.int64), float(factor))


def _decode(tensors: dict, name: str, shape: tuple, codec):
    """One part from its container tensors; its shape is checked later."""
    names = _tensor_names(name, codec)
    first = tensors[names[0]]
    if codec is None:
        return np.asarray(first, dtype=np.float64)
    if first.dtype != (np.uint8 if codec == _PACKED else np.int8):
        raise SchemaViolation(f"{names[0]} has the wrong dtype {first.dtype}")
    if codec != _PACKED:
        scales = tensors[names[1]].reshape(-1)
        return QuantizedTensor(first, scales, group_size=codec[1], bits=codec[0])
    total = shape[0] * shape[1]
    if first.shape != (-(-total // 8),):
        raise SchemaViolation(f"{names[0]} holds {first.size} bytes, need {-(-total // 8)}")
    return SparsityMask(np.unpackbits(first, count=total).astype(bool).reshape(shape))


def layer_from_tensors(tensors: dict) -> CompressedLayer:
    """Rebuild a layer from a container's tensor mapping."""
    if "__config__" not in tensors:
        raise SchemaViolation("artifact is missing the __config__ tensor")
    try:
        meta = json.loads(bytes(tensors["__config__"].tobytes()).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SchemaViolation(f"__config__ is not valid JSON: {exc}") from exc
    try:
        cfg, prov, scaling = _records(meta)
        layout = _layout(cfg, prov.rows, prov.cols)
        expected = {"__config__"}.union(*(_tensor_names(n, c) for n, (_, c) in layout.items()))
        if set(tensors) != expected:
            raise SchemaViolation(
                f"the config names tensors {sorted(expected)}, not {sorted(tensors)}"
            )
        parts = {n: _decode(tensors, n, shape, codec) for n, (shape, codec) in layout.items()}

        adapter = None
        if "adapter_left" in parts:
            factors = (parts["adapter_left"], parts["adapter_right"])
            quantized = isinstance(factors[0], QuantizedTensor)
            left, right = map(dequantize, factors) if quantized else factors
            adapter = LowRankAdapter(left, right, factors if quantized else None)
        layer = CompressedLayer(
            weights=parts["weights"],
            mask=parts.get("mask"),
            adapter=adapter,
            channel_scaling=scaling,
            config=cfg,
            provenance=prov,
        )
        _checked_parts(layer)
        return layer
    except SchemaViolation:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaViolation(f"artifact metadata malformed: {exc}") from exc
    except SlimError as exc:
        raise SchemaViolation(f"artifact contents invalid: {exc}") from exc


def serialize_compressed_layer(layer: CompressedLayer, path) -> None:
    """Write a layer artifact to ``path``; byte-deterministic per layer.

    Raises:
        SchemaViolation: the layer's parts are not the ones its config
            implies; nothing is written.
    """
    write_container(path, layer_to_tensors(layer))


def deserialize_compressed_layer(path) -> CompressedLayer:
    """Read a layer artifact back; inverse of :func:`serialize_compressed_layer`.

    Raises:
        SchemaViolation: the container is valid but does not describe a
            compressed layer (a tensor missing or not named by the config,
            metadata inconsistent with the config or the layer shape).
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
