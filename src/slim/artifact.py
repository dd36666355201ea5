"""Persistence of compressed-layer artifacts, artifact version 3.

A compressed layer is stored as one tensor container holding the packed
keep-mask, the stored weight (integer codes plus scales, or raw f32
values), the adapter factors (raw, or codes plus scales), and a
``__config__`` tensor of canonical JSON bytes holding the configuration,
provenance and channel scaling. The configuration alone decides which
tensors exist and how they decode (see :func:`_layout`).

Every part is stored flat, row-major; its shape follows from the config.
One codec writes and reads every part (:func:`_write`, :func:`_read`): the
mask's flags and the codes packed as the layer holds them
(:mod:`slim.tensor`) but with no padding between rows, raw values as f32.
A pruned weight stores only the entries its mask keeps; their count is the
mask's popcount. Only version 3 is read.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from . import tensor
from .container import (_from_fields, _json_typed, _parse_json, _tensor, container_from_bytes,
                        container_to_bytes, read_container, write_container)
from .errors import SchemaViolation, SlimError
from .lora import ADAPTER_QUANT_BITS, LowRankAdapter, default_rank
from .pipeline import CompressedLayer, LayerCompressionConfig, Provenance
from .prune import SparsityMask, SparsityPattern
from .quant import (_CODES, ChannelScaling, QuantizedTensor, _pack_codes, _scaled_channel_count, _unpack_codes,
                    code_field_bits)

__all__ = ["serialize_compressed_layer", "deserialize_compressed_layer"]

_ARTIFACT_KIND = "compressed-layer"
_ARTIFACT_VERSION = 3
_PACKED = "packed"  # codec of the keep-mask


def _layout(cfg: LayerCompressionConfig, rows: int, cols: int) -> dict:
    """The parts a config stores for a rows x cols layer, in storage order.

    Maps each part to ``(shape, codec)``. The codec is ``(bits,
    group_size)`` for packed codes plus f32 scales, None for raw f32
    values, and ``"packed"`` for the keep-mask bit-packed into u8. The mask
    comes first: a pruned weight stores only the entries it keeps.
    """
    layout = {}
    if cfg.sparsity is not None:
        layout["mask"] = ((rows, cols), _PACKED)
    w_codec = None
    if cfg.quant_method != "none":
        group = cfg.group_size if cfg.quant_method == "group_absmax" else None
        w_codec = (cfg.weight_bits, group)
    layout["weights"] = ((rows, cols), w_codec)
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
        return part.shape, _PACKED
    return np.shape(part), None


def _checked_parts(layer: CompressedLayer) -> dict:
    """The layer's stored parts by name, in storage order, checked against
    its config.

    Raises:
        SchemaViolation: a part is missing or extra, or its shape, bit width
            or group size is not what the config implies for the layer's
            shape; or the channel scaling disagrees with the config's
            switch, scale_factor or scale_fraction, or names a channel >= d_in.
    """
    parts = {} if layer.mask is None else {"mask": layer.mask}
    parts["weights"] = layer.weights
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
    scaling, cfg, rows = layer.channel_scaling, layer.config, layer.shape[0]
    if (scaling is not None) != cfg.scaling_enabled:
        raise SchemaViolation("channel scaling does not match the config's scaling switch")
    count = _scaled_channel_count(cfg.scale_fraction, rows)
    if scaling is not None and ((scaling.channel_indices >= rows).any() or (
            scaling.channel_indices.size, scaling.factor) != (count, cfg.scale_factor)):
        raise SchemaViolation(f"channel scaling must boost {count} of {rows} rows by {cfg.scale_factor}")
    return parts


def _codec(codec) -> tuple:
    """``(per, dtype, pack, unpack)`` of a codec as :func:`_layout` names it:
    ``per`` entries in each stored item of ``dtype``; ``pack(entries)`` the
    2-D entries as new packed rows, as the layer holds them; and
    ``unpack(rows, n)`` the first ``n`` entries of each packed row. A flat
    run is packed and unpacked as one row."""
    if codec == _PACKED:  # the keep-mask's flags, most significant bit first
        return 8, np.uint8, lambda e: np.packbits(e, axis=1), lambda b, n: np.unpackbits(b, axis=1, count=n)
    if codec is None:  # raw f32 values
        return 1, np.float32, lambda e: e.astype(np.float32, copy=False), lambda b, n: b
    width = code_field_bits(codec[0])
    return (8 // width, np.uint8, lambda e: _pack_codes(e, width),
            lambda b, n: _unpack_codes(b, n, slice(None), _CODES[width]))


def _write(held: np.ndarray, codec, shape: tuple[int, int], mask: SparsityMask | None) -> np.ndarray:
    """The stored stream of a part whose packed rows are ``held``: each row
    block's entries, or only those ``mask`` keeps (SchemaViolation if a
    dropped one is nonzero, as storing the kept ones would lose it), packed
    after the last run. A pruned weight's run may start inside an item and
    share it with the run before; an unpruned part's blocks are whole items,
    and its rows are stored as held when they are too."""
    per, dtype, pack, unpack = _codec(codec)
    d_in, d_out = shape
    if mask is None and d_out % per == 0:
        return np.asarray(held, dtype).reshape(-1)
    # each item is set by the first run in it before a later run reads it
    stream = np.empty(-(-(d_in * d_out if mask is None else mask.kept) // per), dtype)
    done = 0
    for rows in tensor.row_blocks(shape, per if mask is None else 1):
        run = unpack(held[rows], d_out).reshape(-1)
        if mask is not None:
            kept = np.compress(mask.rows(rows).reshape(-1), run)  # ~3x faster than a bool index
            if np.count_nonzero(kept) != np.count_nonzero(run):
                raise SchemaViolation("stored weights are nonzero where the mask drops them")
            run = kept
        lead = done % per  # entries of the shared item already written
        packed = pack((np.concatenate((np.zeros(lead, run.dtype), run)) if lead else run)[None])[0]
        if lead:
            packed[0] |= stream[done // per]
        stream[done // per:][:packed.size] = packed
        done += run.size
    return stream


def _read(stream: np.ndarray, codec, shape: tuple[int, int], mask: SparsityMask | None) -> np.ndarray:
    """Inverse of :func:`_write`: the packed rows of a part, each row block's
    run of ``stream`` put at the entries ``mask`` keeps, zeros elsewhere, or
    at all of them. The pad entries of the last item are dropped, whatever
    they hold, and the mask is read a row block at a time."""
    per, dtype, pack, unpack = _codec(codec)
    d_in, d_out = shape
    if mask is None and d_out % per == 0:
        return stream.reshape(d_in, -1)
    out = np.empty((d_in, -(-d_out // per)), dtype)
    done = 0
    for rows in tensor.row_blocks(shape, per if mask is None else 1):
        keep = None if mask is None else mask.rows(rows)
        count = (min(rows.stop, d_in) - rows.start) * d_out if keep is None else np.count_nonzero(keep)
        lead = done % per
        run = unpack(stream[done // per: -(-(done + count) // per)][None], lead + count)[0, lead:]
        if keep is None:
            block = run.reshape(-1, d_out)
        else:
            block = np.zeros(keep.shape, run.dtype)
            block.reshape(-1)[np.flatnonzero(keep)] = run
        out[rows] = pack(block)
        done += count
    return out


def layer_to_tensors(layer: CompressedLayer) -> dict:
    """Flatten a layer into the tensor mapping stored in the container.

    Raises:
        SchemaViolation: the layer's parts are not the ones its config
            implies, or it stores a nonzero weight where its mask drops
            one, so the reader would not rebuild it.
    """
    tensors = {}
    for name, part in _checked_parts(layer).items():
        shape, codec = _describe(part)
        names = _tensor_names(name, codec)
        held = part.bits if codec == _PACKED else part if codec is None else part.fields
        tensors[names[0]] = _write(held, codec, shape, layer.mask if name == "weights" else None)
        if len(names) == 2:
            tensors[names[1]] = part.scales.astype(np.float32)
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
    _records(_parse_json(blob, SchemaViolation, "__config__"))  # refuse what the reader would
    tensors["__config__"] = np.frombuffer(blob, dtype=np.uint8)
    return tensors


def _records(meta) -> tuple:
    """``(config, provenance, channel scaling or None)`` of a parsed ``__config__``."""
    if not isinstance(meta, dict) or meta.get("artifact") != _ARTIFACT_KIND:
        raise SchemaViolation("container does not describe a compressed layer")
    version = meta.get("version")
    if isinstance(version, bool) or version != _ARTIFACT_VERSION:
        raise SchemaViolation(
            f"unsupported artifact version {version!r}; only {_ARTIFACT_VERSION} is read"
        )
    raw = meta["config"]
    sparsity = raw["sparsity"] if isinstance(raw, dict) else None  # required; read on its own
    if sparsity is not None:
        sparsity = _from_fields(SparsityPattern, sparsity)
    cfg = _from_fields(LayerCompressionConfig, raw, ignored=("sparsity",), sparsity=sparsity)
    prov = _from_fields(Provenance, meta["provenance"])
    s = meta["scaling"]
    if s is None:
        return cfg, prov, None
    indices, factor = s["indices"], s["factor"]
    if not (isinstance(indices, list) and all(_json_typed(i, "int") for i in indices)
            and _json_typed(factor, "float")):
        raise SchemaViolation("scaling must hold a list of int indices and a number factor")
    return cfg, prov, ChannelScaling(np.asarray(indices, dtype=np.int64), float(factor))


def _decode(tensors: dict, name: str, shape: tuple, codec, mask: SparsityMask | None):
    """One part from its flat container tensors. ``mask`` is the decoded
    mask when the part stores only the entries it keeps."""
    names = _tensor_names(name, codec)
    per, dtype = _codec(codec)[:2]
    count = shape[0] * shape[1] if mask is None else mask.kept
    held = _read(_tensor(tensors, names[0], dtype, -(-count // per)), codec, shape, mask)
    if codec == _PACKED:
        return SparsityMask._of_bits(held, shape)
    if codec is None:
        return held  # the layer widens it
    scales = _tensor(tensors, names[1], np.float32).reshape(-1)
    return QuantizedTensor._of_fields(held, shape, scales, codec[1], codec[0])


def layer_from_tensors(tensors: dict) -> CompressedLayer:
    """Rebuild a layer from a container's tensor mapping."""
    if "__config__" not in tensors:
        raise SchemaViolation("artifact is missing the __config__ tensor")
    meta = _parse_json(tensors["__config__"].tobytes(), SchemaViolation, "__config__")
    try:
        cfg, prov, scaling = _records(meta)
        layout = _layout(cfg, prov.rows, prov.cols)
        expected = {"__config__"}.union(*(_tensor_names(n, c) for n, (_, c) in layout.items()))
        if set(tensors) != expected:
            raise SchemaViolation(
                f"the config names tensors {sorted(expected)}, not {sorted(tensors)}"
            )
        parts = {}
        for name, (shape, codec) in layout.items():  # the mask decodes first
            mask = parts.get("mask") if name == "weights" else None
            parts[name] = _decode(tensors, name, shape, codec, mask)

        adapter = None
        if "adapter_left" in parts:
            adapter = LowRankAdapter(parts["adapter_left"], parts["adapter_right"])
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
