"""Persistence of compressed-layer artifacts, artifact version 3.

A compressed layer is stored as one tensor container holding the packed
keep-mask, the stored weight (integer codes plus scales, or raw f32
values), the adapter factors (raw, or codes plus scales), and a
``__config__`` tensor of canonical JSON bytes holding the configuration,
provenance and channel scaling. The configuration alone decides which
tensors exist and how they decode (see :func:`_layout`).

Every part is stored flat, row-major; its shape follows from the config.
Codes and mask flags are packed as the layer holds them (:mod:`slim.tensor`)
but with no padding between rows. A pruned weight stores only the entries
its mask keeps; their count is the mask's popcount. Only version 3 is read.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from . import tensor
from .container import (_from_fields, _json_typed, _parse_json, container_from_bytes,
                        container_to_bytes, read_container, write_container)
from .errors import SchemaViolation, SlimError
from .lora import ADAPTER_QUANT_BITS, LowRankAdapter, default_rank
from .pipeline import CompressedLayer, LayerCompressionConfig, Provenance
from .prune import SparsityMask, SparsityPattern
from .quant import (_CODES, ChannelScaling, QuantizedTensor, _pack_codes, _packed, _scaled_channel_count,
                    _unpack_codes, code_field_bits)

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


def _runs(values, mask: SparsityMask | None, shape: tuple[int, int]):
    """Each row block's stored entries, row-major: ``values(rows)`` of the
    block, flattened, or only the entries ``mask`` keeps (SchemaViolation
    if a dropped entry is nonzero, as storing the kept ones would lose it)."""
    for rows in tensor.row_blocks(shape):  # as in _placed
        block = values(rows).reshape(-1)
        if mask is not None:
            kept = np.compress(mask.rows(rows).reshape(-1), block)  # ~3x faster than a bool index
            if np.count_nonzero(kept) != np.count_nonzero(block):
                raise SchemaViolation("stored weights are nonzero where the mask drops them")
            block = kept
        yield block


def _placed(take, mask: SparsityMask | None, shape: tuple[int, int], dtype):
    """Inverse of :func:`_runs`: ``(rows, block)`` for each row block, its
    run ``take(start, count)`` of the stored entries put at the entries
    ``mask`` keeps, zeros elsewhere, or at all of them. The mask is indexed
    a row block at a time, so no weight-sized index array is made."""
    d_in, d_out = shape
    done = 0
    for rows in tensor.row_blocks(shape):  # as in _runs
        keep = None if mask is None else mask.rows(rows)
        count = (min(rows.stop, d_in) - rows.start) * d_out if keep is None else np.count_nonzero(keep)
        block = take(done, count)
        if keep is not None:
            block, run = np.zeros(keep.shape, dtype), block
            block.reshape(-1)[np.flatnonzero(keep)] = run
        done += count
        yield rows, block.reshape(-1, d_out)


def _stream(t: QuantizedTensor, mask: SparsityMask | None) -> np.ndarray:
    """The stored codes of ``t`` (all, or those ``mask`` keeps) as one
    row-major run of fields: the held bytes when every row is whole bytes
    and nothing is pruned, else each row block's run packed after the last."""
    width = code_field_bits(t.bits)
    table, per = _CODES[width], 8 // width
    if mask is None and t.shape[1] * width % 8 == 0:
        return t.fields.reshape(-1)
    stream = np.zeros(-(-(t.shape[0] * t.shape[1] if mask is None else mask.kept) // per), np.uint8)
    done = 0
    for run in _runs(lambda rows: _unpack_codes(t.fields[rows], t.shape[1], slice(None), table), mask, t.shape):
        lead = np.zeros(done % per, np.int8)  # the fields of the shared byte already written
        packed = _pack_codes(np.concatenate((lead, run))[None], width)[0]
        stream[done // per:][:packed.size] |= packed
        done += run.size
    return stream


def _kept_values(values: np.ndarray, mask: SparsityMask | None) -> np.ndarray:
    """Raw values as stored: all of them, or those ``mask`` keeps, row-major, as f32."""
    if mask is None:
        return np.asarray(values, dtype=np.float32).reshape(-1)
    kept = np.empty(mask.kept, np.float32)
    done = 0
    for run in _runs(lambda rows: values[rows], mask, values.shape):
        kept[done:done + run.size] = run
        done += run.size
    return kept


def _flat_bits(mask: SparsityMask) -> np.ndarray:
    """The mask's flags row-major, 8 to a byte, as ``np.packbits`` packs the
    flat keep matrix: its held bytes when d_out is a multiple of 8, else
    repacked a row block of whole bytes at a time."""
    d_in, d_out = mask.shape
    if d_out % 8 == 0:
        return mask.bits.reshape(-1)
    flat = np.empty(-(-d_in * d_out // 8), np.uint8)
    for rows in tensor.row_blocks(mask.shape, align=8):
        packed = np.packbits(mask.rows(rows))
        flat[rows.start * d_out // 8:][:packed.size] = packed
    return flat


def _row_bits(flat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`_flat_bits`: the mask's rows, each padded to whole
    bytes with zero bits. The pad bits of ``flat``'s last byte are
    dropped, whatever they hold."""
    d_in, d_out = shape
    if d_out % 8 == 0:  # d_in * d_out bits fill every byte
        return flat.reshape(d_in, d_out // 8)
    bits = np.empty((d_in, -(-d_out // 8)), np.uint8)
    for rows in tensor.row_blocks(shape, align=8):
        count = (min(rows.stop, d_in) - rows.start) * d_out
        run = flat[rows.start * d_out // 8:][:-(-count // 8)]
        bits[rows] = np.packbits(np.unpackbits(run, count=count).reshape(-1, d_out), axis=1)
    return bits


def layer_to_tensors(layer: CompressedLayer) -> dict:
    """Flatten a layer into the tensor mapping stored in the container.

    Raises:
        SchemaViolation: the layer's parts are not the ones its config
            implies, or it stores a nonzero weight where its mask drops
            one, so the reader would not rebuild it.
    """
    tensors = {}
    for name, part in _checked_parts(layer).items():
        codec = _describe(part)[1]
        names = _tensor_names(name, codec)
        mask = layer.mask if name == "weights" else None
        if codec == _PACKED:
            tensors[names[0]] = _flat_bits(part)
        elif codec is None:
            tensors[name] = _kept_values(part, mask)
        else:
            tensors[names[0]] = _stream(part, mask)
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


def _tensor(tensors: dict, name: str, dtype, size: int | None = None) -> np.ndarray:
    """``tensors[name]``, checked to be of ``dtype`` and, given ``size``,
    to hold that many entries in one dimension."""
    arr = tensors[name]
    if arr.dtype != dtype:
        raise SchemaViolation(f"{name} has dtype {arr.dtype}, not {np.dtype(dtype)}")
    if size is not None and arr.shape != (size,):
        raise SchemaViolation(f"{name} has shape {arr.shape}, need ({size},)")
    return arr


def _decode(tensors: dict, name: str, shape: tuple, codec, mask: SparsityMask | None):
    """One part from its flat container tensors. ``mask`` is the decoded
    mask when the part stores only the entries it keeps."""
    names = _tensor_names(name, codec)
    total = shape[0] * shape[1]
    if codec == _PACKED:
        packed = _tensor(tensors, names[0], np.uint8, -(-total // 8))
        return SparsityMask._of_bits(_row_bits(packed, shape), shape)
    count = total if mask is None else mask.kept
    if codec is None:
        values = _tensor(tensors, names[0], np.float32, count)  # the layer widens it
        if mask is None:
            return values.reshape(shape)
        out = np.empty(shape, np.float32)
        for rows, block in _placed(lambda at, n: values[at:at + n], mask, shape, np.float32):
            out[rows] = block
        return out
    bits, group_size = codec
    width = code_field_bits(bits)
    stream = _tensor(tensors, names[0], np.uint8, -(-count * width // 8))
    scales = _tensor(tensors, names[1], np.float32).reshape(-1)
    if mask is None and shape[1] * width % 8 == 0:  # rows of whole bytes: the stored bytes as they are
        fields = stream.reshape(shape[0], -1)
    else:  # each row block's run unpacked, scattered and packed again; the last byte's pad fields dropped
        def run(at: int, n: int) -> np.ndarray:
            return _unpack_codes(stream[None], stream.size * 8 // width, slice(at, at + n), _CODES[width])[0]

        fields = _packed(shape, bits, _placed(run, mask, shape, np.int8))
    return QuantizedTensor._of_fields(fields, shape, scales, group_size, bits)


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
