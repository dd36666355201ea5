import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import (
    ChannelScaling,
    CompressedLayer,
    LayerCompressionConfig,
    LowRankAdapter,
    Provenance,
    QuantizedTensor,
    SchemaViolation,
    SparsityMask,
    SparsityPattern,
    code_field_bits,
    compress_layer,
    compute_calibration,
    default_rank,
    deserialize_compressed_layer,
    quantize_adapter,
    serialize_compressed_layer,
    tensor,
)
from slim.artifact import (
    layer_from_bytes,
    layer_from_tensors,
    layer_to_bytes,
    layer_to_tensors,
)
from slim.container import container_to_bytes


RNG = np.random.default_rng(90)
W = RNG.standard_normal((16, 12))
X = RNG.standard_normal((40, 16))
STATS = compute_calibration([X])

CONFIGS = [
    LayerCompressionConfig(quant_method="none", sparsity=None),
    LayerCompressionConfig(quant_method="absmax", weight_bits=4),
    LayerCompressionConfig(quant_method="group_absmax", weight_bits=3, group_size=8),
    LayerCompressionConfig(quant_method="slim_quant", weight_bits=4),
    LayerCompressionConfig(
        quant_method="slim_quant_o", weight_bits=4, scale_fraction=0.1
    ),
    LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4)),
    LayerCompressionConfig(
        sparsity=SparsityPattern.unstructured(0.5), prune_scores="magnitude"
    ),
    LayerCompressionConfig(adapter_method="naive", rank_ratio=0.25),
    LayerCompressionConfig(adapter_method="slim", rank_ratio=0.25),
    LayerCompressionConfig(
        adapter_method="slim", rank_ratio=0.2, quantize_adapters=True, group_size=8
    ),
    LayerCompressionConfig(
        quant_method="slim_quant_o",
        sparsity=SparsityPattern.semistructured(2, 4),
        adapter_method="slim",
        rank_ratio=0.25,
        input_fp8=True,
        scale_fraction=0.1,
    ),
]


def compressed(cfg):
    return compress_layer(W, STATS, cfg)


def assert_same_bits(got, want):
    """``got`` and ``want`` hold equal values, arrays of the same dtype,
    shape and bytes, through every dataclass field and tuple."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same_bits(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
    else:
        assert got == want


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
    def test_bytes_round_trip_bit_identical(self, cfg):
        layer = compressed(cfg)
        payload = layer_to_bytes(layer)
        again = layer_to_bytes(layer_from_bytes(payload))
        assert payload == again

    @pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
    def test_semantic_round_trip(self, cfg):
        # compress_layer returns the layer its artifact decodes to, part for
        # part and bit for bit, signed zeros included, from either source width
        for dtype in (np.float32, np.float64):
            layer = compress_layer(W.astype(dtype), STATS, cfg)
            assert_same_bits(layer_from_bytes(layer_to_bytes(layer)), layer)
            assert_same_bits(layer_from_tensors(layer_to_tensors(layer)), layer)
            assert_same_bits(dataclasses.replace(layer), layer)

    def test_file_round_trip(self, tmp_path):
        layer = compressed(
            LayerCompressionConfig(
                sparsity=SparsityPattern.semistructured(2, 4),
                adapter_method="slim",
                rank_ratio=0.25,
            )
        )
        p = tmp_path / "layer.slim"
        serialize_compressed_layer(layer, p)
        back = deserialize_compressed_layer(p)
        assert np.array_equal(back.weights.codes, layer.weights.codes)
        assert layer_to_bytes(back) == p.read_bytes()

    def test_legacy_versions_refused(self):
        # Versions 1 and 2 stored one int8 byte per code and explicit zeros
        # for pruned weights; they are no longer read.
        for cfg in CONFIGS:
            for version in (1, 2):
                with pytest.raises(SchemaViolation, match="unsupported artifact version"):
                    layer_from_tensors(legacy_tensors(compressed(cfg), version))

    @settings(max_examples=60, deadline=None)
    @given(
        d_in=st.integers(1, 12),
        d_out=st.integers(1, 12),
        rank_ratio=st.sampled_from([0.05, 0.3, 1.0]),
        group_size=st.integers(1, 40),
        magnitude=st.sampled_from([0.0, 1e-30, 1.0, 1e30]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_quantized_adapter_writes_and_round_trips(
        self, d_in, d_out, rank_ratio, group_size, magnitude, seed
    ):
        # whatever quantize_adapter returns is what a quantize_adapters
        # layer stores: the writer takes it and the reader rebuilds it
        rng = np.random.default_rng(seed)
        r = default_rank(d_in, d_out, rank_ratio)
        adapter = quantize_adapter(LowRankAdapter(
            rng.standard_normal((d_in, r)) * magnitude, rng.standard_normal((r, d_out)) * magnitude,
        ), group_size)
        layer = CompressedLayer(
            weights=np.zeros((d_in, d_out)),
            mask=None, adapter=adapter, channel_scaling=None,
            config=LayerCompressionConfig(
                quant_method="none", adapter_method="naive", rank_ratio=rank_ratio,
                quantize_adapters=True, group_size=group_size,
            ),
            provenance=Provenance(rows=d_in, cols=d_out),
        )
        payload = layer_to_bytes(layer)
        assert_same_bits(layer_from_bytes(payload), layer)
        for got, made in zip(layer.adapter.quantized, adapter.quantized):
            assert np.array_equal(got.codes, made.codes)
            assert np.array_equal(got.scales, made.scales.astype(np.float32))
        assert layer_to_bytes(layer_from_bytes(payload)) == payload

    def test_serialization_deterministic(self):
        cfg = LayerCompressionConfig(adapter_method="naive", rank_ratio=0.25)
        a = layer_to_bytes(compress_layer(W, STATS, cfg))
        b = layer_to_bytes(compress_layer(W.copy(), STATS, cfg))
        assert a == b


class TestMaskPacking:
    def test_32_entries_pack_to_4_bytes(self):
        keep = np.zeros((4, 8), dtype=bool)
        keep[0, 0] = True  # flat bit 0 -> MSB of byte 0
        keep[3, 7] = True  # flat bit 31 -> LSB of byte 3
        layer = CompressedLayer(
            weights=np.zeros((4, 8)),
            mask=SparsityMask(keep),
            adapter=None,
            channel_scaling=None,
            config=LayerCompressionConfig(
                quant_method="none", sparsity=SparsityPattern.unstructured(0.5)
            ),
            provenance=Provenance(rows=4, cols=8),
        )
        tensors = layer_to_tensors(layer)
        packed = tensors["mask_packed"]
        assert packed.shape == (4,)
        assert packed.tolist() == [128, 0, 0, 1]

    def test_ragged_bit_count_pads_with_zeros(self):
        keep = np.ones((5, 7), dtype=bool)  # 35 bits -> 5 bytes
        layer = CompressedLayer(
            weights=np.zeros((5, 7)),
            mask=SparsityMask(keep),
            adapter=None,
            channel_scaling=None,
            config=LayerCompressionConfig(
                quant_method="none", sparsity=SparsityPattern.unstructured(0.5)
            ),
            provenance=Provenance(rows=5, cols=7),
        )
        tensors = layer_to_tensors(layer)
        assert tensors["mask_packed"].shape == (5,)
        back = layer_from_tensors(tensors)
        assert np.array_equal(back.mask.keep, keep)

    def test_pad_bits_of_the_last_byte_are_dropped_on_read(self):
        # 5 x 7 = 35 flags: the last stored byte holds 3 flags and 5 pad
        # bits; set, they change neither the layer nor its kept count
        keep = np.random.default_rng(4).random((5, 7)) < 0.5
        layer = CompressedLayer(
            weights=np.where(keep, 1.5, 0.0),
            mask=SparsityMask(keep),
            adapter=None,
            channel_scaling=None,
            config=LayerCompressionConfig(
                quant_method="none", sparsity=SparsityPattern.unstructured(0.5)
            ),
            provenance=Provenance(rows=5, cols=7),
        )
        canonical = layer_to_tensors(layer)
        dirty = dict(canonical, mask_packed=canonical["mask_packed"] | np.array([0, 0, 0, 0, 0x1F], np.uint8))
        back = layer_from_tensors(dirty)
        assert back.mask == layer.mask and back.density == layer.density
        assert back.mask.bits.tobytes() == np.packbits(keep, axis=1).tobytes()
        assert_same_bits(back, layer_from_tensors(canonical))
        assert {k: v.tobytes() for k, v in layer_to_tensors(back).items()} == \
            {k: v.tobytes() for k, v in canonical.items()}


def code_layer(bits: int | None, keep: np.ndarray, pruned: bool, seed: int, group_size=None) -> CompressedLayer:
    """A layer of random ``bits``-bit codes (raw f32 values for None), zero
    where ``keep`` drops them, whole-tensor or grouped, pruned by ``keep``
    or not."""
    rng = np.random.default_rng(seed)
    if bits is None:
        weights, method = np.where(keep, rng.standard_normal(keep.shape), 0).astype(np.float32), "none"
    else:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        codes = np.where(keep, rng.integers(lo, hi + 1, keep.shape), 0).astype(np.int8)
        scales = rng.uniform(0.1, 2.0, 1 if group_size is None else -(-codes.size // group_size))
        weights = QuantizedTensor(codes, scales, group_size=group_size, bits=bits)
        method = "absmax" if group_size is None else "group_absmax"
    return CompressedLayer(
        weights=weights,
        mask=SparsityMask(keep) if pruned else None,
        adapter=None,
        channel_scaling=None,
        config=LayerCompressionConfig(
            quant_method=method, weight_bits=bits or 4,
            group_size=group_size or 128, sparsity=SparsityPattern.unstructured(0.5) if pruned else None,
        ),
        provenance=Provenance(*keep.shape),
    )


class TestPackedCodes:
    @settings(max_examples=150, deadline=None)
    @given(
        bits=st.none() | st.integers(2, 8),
        rows=st.integers(1, 9),
        cols=st.integers(1, 19),
        kept=st.sampled_from(["random", "all", "none", "unpruned"]),
        group_size=st.sampled_from([None, 3, 8]),
        block=st.sampled_from([tensor.BLOCK_ELEMENTS, 5, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(bits=4, rows=1, cols=3, kept="all", group_size=None, block=5, seed=0)  # 3 nibbles: half a last byte
    @example(bits=2, rows=5, cols=1, kept="all", group_size=None, block=5, seed=0)  # 5 2-bit fields: 1 in the last byte
    @example(bits=3, rows=3, cols=3, kept="unpruned", group_size=None, block=5, seed=0)
    @example(bits=5, rows=4, cols=7, kept="random", group_size=8, block=1, seed=0)
    @example(bits=None, rows=7, cols=3, kept="random", group_size=None, block=5, seed=0)  # raw f32 values
    def test_pack_unpack_round_trip(self, bits, rows, cols, kept, group_size, block, seed):
        # odd widths give rows that end inside a byte, and small blocks give
        # runs of the stream (the mask's too) that start inside one; each
        # part is stored as an independent packing of its kept entries,
        # row-major, and the layer comes back and writes the same bytes again
        keep = {
            "random": np.random.default_rng(seed).random((rows, cols)) < 0.5,
            "none": np.zeros((rows, cols), dtype=bool),
        }.get(kept, np.ones((rows, cols), dtype=bool))
        pruned = kept != "unpruned"
        layer = code_layer(bits, keep, pruned, seed, group_size)
        held = layer.weights if bits is None else layer.weights.codes
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            tensors = layer_to_tensors(layer)
            back = layer_from_tensors(tensors)
            again = layer_to_tensors(back)
        stored = held[keep]  # keep is all ones when unpruned
        if bits is None:
            assert tensors["weights"].dtype == np.float32 and np.array_equal(tensors["weights"], stored)
            assert np.array_equal(back.weights, held)
        else:
            width = code_field_bits(bits)
            per = 8 // width
            fields = np.zeros(-(-stored.size // per) * per, np.int64)
            fields[:stored.size] = stored.astype(np.int64) & ((1 << width) - 1)
            packed = (fields.reshape(-1, per) << (width * np.arange(per))).sum(axis=1)  # low field first
            assert tensors["codes"].dtype == np.uint8 and np.array_equal(tensors["codes"], packed)
            assert np.array_equal(back.weights.codes, held) and back.weights == layer.weights
        assert {k: v.tobytes() for k, v in again.items()} == {k: v.tobytes() for k, v in tensors.items()}
        if pruned:
            assert np.array_equal(tensors["mask_packed"], np.packbits(keep.reshape(-1)))
            assert np.array_equal(back.mask.keep, keep)
        else:
            assert back.mask is None

    @staticmethod
    def with_field(stream: np.ndarray, index: int, width: int, value: int) -> np.ndarray:
        """A copy of ``stream`` whose field ``index`` holds ``value``."""
        per = 8 // width
        shift = index % per * width
        out = stream.copy()
        out[index // per] &= ~np.uint8(((1 << width) - 1) << shift)
        out[index // per] |= np.uint8((value & ((1 << width) - 1)) << shift)
        return out

    @pytest.mark.parametrize("bits, value", [(3, -8), (3, 4), (5, -128), (6, 32), (7, 64)])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_a_field_past_the_code_range_is_refused(self, bits, value, pruned):
        # a field wider than its code can hold a value no code has: the
        # reader refuses it wherever it is, here the last stored code of an
        # odd-width weight
        keep = np.random.default_rng(5).random((3, 5)) < 0.6
        tensors = layer_to_tensors(code_layer(bits, keep, pruned, 6))
        count = int(keep.sum()) if pruned else keep.size
        tensors["codes"] = self.with_field(tensors["codes"], count - 1, code_field_bits(bits), value)
        with pytest.raises(SchemaViolation, match=f"{bits}-bit range"):
            layer_from_tensors(tensors)

    @pytest.mark.parametrize("pruned", [False, True])
    def test_pad_fields_of_the_last_byte_are_dropped_on_read(self, pruned):
        # 3-bit codes in nibbles: an odd count of stored codes leaves a pad
        # nibble in the last byte; set to a value no code has, it changes
        # neither the layer nor the bytes it writes again
        keep = np.ones((3, 5), bool)
        keep[0, 0] = not pruned  # 13 stored codes when pruned, 15 when not
        keep[1, 1] = False
        layer = code_layer(3, keep, pruned, 7)
        canonical = layer_to_tensors(layer)
        count = int(keep.sum()) if pruned else keep.size
        assert count % 2 == 1
        dirty = dict(canonical, codes=self.with_field(canonical["codes"], count, 4, -8))
        back = layer_from_tensors(dirty)
        assert back.weights == layer.weights
        assert {k: v.tobytes() for k, v in layer_to_tensors(back).items()} == \
            {k: v.tobytes() for k, v in canonical.items()}

    @settings(max_examples=80, deadline=None)
    @given(
        bits=st.sampled_from([2, 3, 4, 8]),
        quant=st.sampled_from(["absmax", "none"]),
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        block=st.sampled_from([1, 2, 3, 7, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(bits=2, quant="absmax", rows=5, cols=3, block=3, seed=0)  # 15 codes, 4 a byte, 12 a chunk
    def test_round_trip_across_chunk_edges(self, bits, quant, rows, cols, block, seed):
        # with BLOCK_ELEMENTS patched small, the packer, the gather of the
        # kept entries and the scatter back all work over many chunks, and
        # must give the bytes and the layer of one chunk
        w = np.random.default_rng(seed).standard_normal((rows, cols))
        cfg = LayerCompressionConfig(quant_method=quant, weight_bits=bits,
                                     sparsity=SparsityPattern.unstructured(0.5), prune_scores="magnitude")
        layer = compress_layer(w, None, cfg)
        whole = layer_to_tensors(layer)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            chunked = layer_to_tensors(layer)
            back = layer_from_tensors(chunked)
        assert {k: (v.dtype, v.tobytes()) for k, v in chunked.items()} == \
            {k: (v.dtype, v.tobytes()) for k, v in whole.items()}
        assert_same_bits(back, layer_from_tensors(whole))
        assert np.array_equal(back.effective_weight(), layer.effective_weight())

    @pytest.mark.parametrize("bits, codes, packed", [
        (4, [1, -2, 7], [0xE1, 0x07]),  # low nibble first; -2 is 0b1110
        (2, [1, -1, 0, -2, 1], [0b10_00_11_01, 0b01]),
        (8, [-128, 127], [0x80, 0x7F]),
    ])
    def test_field_layout(self, bits, codes, packed):
        layer = CompressedLayer(
            weights=QuantizedTensor(np.array([codes]), np.array([1.0]), group_size=None,
                                    bits=bits),
            mask=None,
            adapter=None,
            channel_scaling=None,
            config=LayerCompressionConfig(quant_method="absmax", weight_bits=bits),
            provenance=Provenance(rows=1, cols=len(codes)),
        )
        assert layer_to_tensors(layer)["codes"].tolist() == packed


class TestEffectiveBits:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
    def test_report_matches_stored_bytes(self, cfg):
        # the report charges every stored tensor but __config__; each tensor
        # rounds up to whole bytes
        layer = compressed(cfg)
        stored = [t for name, t in layer_to_tensors(layer).items() if name != "__config__"]
        on_disk = 8 * sum(t.nbytes for t in stored) / W.size
        padding = on_disk - layer.effective_bits_per_weight
        assert 0 <= padding < 8 * len(stored) / W.size


def legacy_tensors(layer, version):
    """The tensors a version-1 or version-2 writer produced for ``layer``:
    int8 codes and raw f32 values in full, pruned entries included."""
    tensors = {}
    parts = {"weights": layer.weights}
    if layer.adapter is not None:
        a = layer.adapter
        parts["adapter_left"], parts["adapter_right"] = a.quantized or (a.left, a.right)
    for name, part in parts.items():
        if isinstance(part, QuantizedTensor):
            prefix = "" if name == "weights" else f"{name}_"
            tensors[f"{prefix}codes"] = part.codes
            tensors[f"{prefix}scales"] = part.scales.astype(np.float32)
        else:
            tensors[name] = part.astype(np.float32)
    if layer.mask is not None:
        tensors["mask_packed"] = np.packbits(layer.mask.keep.reshape(-1))
    tensors["__config__"] = layer_to_tensors(layer)["__config__"]
    return edit_meta(tensors, lambda m: m.update(version=version))


def valid_tensors():
    return layer_to_tensors(
        compressed(LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4)))
    )


def edit_meta(tensors, mutate):
    meta = json.loads(bytes(tensors["__config__"].tobytes()))
    mutate(meta)
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    tensors["__config__"] = np.frombuffer(blob, dtype=np.uint8)
    return tensors


class TestSchemaViolations:
    def test_missing_config_tensor(self):
        t = valid_tensors()
        del t["__config__"]
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_config_not_json(self):
        t = valid_tensors()
        t["__config__"] = np.frombuffer(b"not json at all", dtype=np.uint8)
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_wrong_artifact_kind(self):
        t = edit_meta(valid_tensors(), lambda m: m.update(artifact="something-else"))
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_wrong_artifact_version(self):
        t = edit_meta(valid_tensors(), lambda m: m.update(version=99))
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_missing_codes_tensor(self):
        t = valid_tensors()
        del t["codes"]
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_codes_wrong_dtype(self):
        # packed codes are u8; an i8 tensor is a version-2 layout
        t = valid_tensors()
        t["codes"] = t["codes"].view(np.int8)
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    @pytest.mark.parametrize("quant_method, tensor", [
        ("slim_quant", "codes"), ("none", "weights")])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_kept_tensor_length(self, quant_method, tensor, change):
        # a pruned weight stores exactly the mask's popcount of entries, in
        # whole bytes for packed codes
        layer = compressed(LayerCompressionConfig(
            quant_method=quant_method, sparsity=SparsityPattern.semistructured(2, 4)))
        t = layer_to_tensors(layer)
        stored = t[tensor]
        t[tensor] = stored[:-1] if change < 0 else np.append(stored, stored[:1])
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_config_deeply_nested(self):
        t = valid_tensors()
        t["__config__"] = np.frombuffer(b"[" * 100_000, dtype=np.uint8)
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_mask_byte_count_mismatch(self):
        t = valid_tensors()
        t["mask_packed"] = t["mask_packed"][:-1]
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    @pytest.mark.parametrize("mutate", [
        lambda m: m["config"].update(quantize_adapters=True),
        lambda m: m["config"].update(sparsity=None),
        lambda m: m["config"].update(adapter_method="none", rank_ratio=None),
        lambda m: m["config"].update(quant_method="none"),
        lambda m: m["config"].update(weight_bits=2),
        lambda m: m["config"].update(rank_ratio=0.5),
    ], ids=["quantize_adapters", "sparsity", "adapter_method", "quant_method",
            "weight_bits", "rank_ratio"])
    def test_config_contradicting_tensors(self, mutate):
        # The config alone decides which tensors exist and how they decode.
        cfg = LayerCompressionConfig(
            sparsity=SparsityPattern.semistructured(2, 4), adapter_method="slim", rank_ratio=0.25
        )
        t = edit_meta(layer_to_tensors(compressed(cfg)), mutate)
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    @pytest.mark.parametrize("mutate", [
        lambda m: m["config"].update(input_fp8=1),
        lambda m: m["provenance"].update(rows=16.0),
        lambda m: m.update(version=True),
        lambda m: m["scaling"].update(indices=[float(i) for i in m["scaling"]["indices"]]),
    ], ids=["bool_as_int", "int_as_float", "version_as_bool", "scaling_index_as_float"])
    def test_mistyped_config_value(self, mutate):
        # Each edit used to be accepted and written back in its wrong type.
        t = edit_meta(layer_to_tensors(compressed(CONFIGS[4])), mutate)
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_writer_refuses_mistyped_config(self, tmp_path):
        # the config refuses weight_bits=4.0 itself, so the writer's own
        # check is reached only by going round the constructor
        layer = compressed(CONFIGS[0])
        cfg = dataclasses.replace(layer.config)
        object.__setattr__(cfg, "weight_bits", 4.0)
        layer = dataclasses.replace(layer, config=cfg)
        path = tmp_path / "layer.slim"
        with pytest.raises(SchemaViolation):
            serialize_compressed_layer(layer, path)
        assert not path.exists()

    def test_tensor_not_named_by_config(self):
        t = valid_tensors()
        t["adapter_left"] = np.zeros((16, 2), dtype=np.float32)
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_adapter_rows_differ_from_d_in(self):
        t = layer_to_tensors(compressed(CONFIGS[7]))
        t["adapter_left"] = t["adapter_left"][: 12 * 3]  # rank 3, 12 rows for d_in 16
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_scaling_index_beyond_d_in(self):
        t = layer_to_tensors(compressed(CONFIGS[4]))
        t = edit_meta(t, lambda m: m["scaling"].update(indices=[3, 40]))
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    @pytest.mark.parametrize("mutate", [
        lambda m: m["scaling"].update(factor=3.0),
        lambda m: m["scaling"].update(indices=[0, 1, 2, 3, 4]),
    ], ids=["factor", "index_count"])
    def test_scaling_contradicting_config(self, mutate):
        # CONFIGS[4] boosts ceil(0.1 * 16) = 2 channels by the default factor 2.0;
        # each edit used to be read without complaint
        t = edit_meta(layer_to_tensors(compressed(CONFIGS[4])), mutate)
        with pytest.raises(SchemaViolation, match="channel scaling"):
            layer_from_tensors(t)

    def test_writer_refuses_scaling_contradicting_config(self, tmp_path):
        layer = compressed(CONFIGS[4])
        layer = dataclasses.replace(layer, channel_scaling=ChannelScaling(np.arange(5), 2.0))
        path = tmp_path / "layer.slim"
        with pytest.raises(SchemaViolation, match="channel scaling"):
            serialize_compressed_layer(layer, path)
        assert not path.exists()

    def test_scaling_against_config_switch(self):
        t = edit_meta(valid_tensors(), lambda m: m.update(scaling={"indices": [3], "factor": 2.0}))
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_shape_provenance_mismatch(self):
        t = edit_meta(valid_tensors(), lambda m: m["provenance"].update(rows=99))
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_bad_config_enum(self):
        t = edit_meta(
            valid_tensors(), lambda m: m["config"].update(quant_method="bogus")
        )
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_missing_config_field(self):
        t = edit_meta(valid_tensors(), lambda m: m["config"].pop("weight_bits"))
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    def test_missing_sparsity_key(self):
        t = edit_meta(valid_tensors(), lambda m: m["config"].pop("sparsity"))
        with pytest.raises(SchemaViolation):
            layer_from_tensors(t)

    @pytest.mark.parametrize("quant_method, tensor", [("slim_quant", "codes"), ("none", "weights")])
    def test_stored_weight_where_mask_drops(self, quant_method, tensor, tmp_path):
        # Only the kept entries are stored, so a nonzero value at a dropped
        # position would be lost: the writer refuses it. (A reader cannot
        # meet one; see test_kept_tensor_length.)
        layer = compressed(LayerCompressionConfig(
            quant_method=quant_method, sparsity=SparsityPattern.semistructured(2, 4)))
        w = layer.weights
        stored = (w.codes if tensor == "codes" else w).copy()
        stored.reshape(-1)[np.flatnonzero(~layer.mask.keep)[-1]] = 3
        bad = QuantizedTensor(stored, w.scales, w.group_size, w.bits) if tensor == "codes" else stored
        path = tmp_path / "layer.slim"
        with pytest.raises(SchemaViolation):
            serialize_compressed_layer(dataclasses.replace(layer, weights=bad), path)
        assert not path.exists()

    def test_writer_refuses_parts_the_config_does_not_imply(self, tmp_path):
        layer = compressed(CONFIGS[7])
        path = tmp_path / "layer.slim"
        with pytest.raises(SchemaViolation):
            serialize_compressed_layer(dataclasses.replace(layer, adapter=None), path)
        assert not path.exists()

    def test_plain_container_is_not_a_layer(self):
        payload = container_to_bytes({"x": np.zeros((2, 2), dtype=np.float32)})
        with pytest.raises(SchemaViolation):
            layer_from_bytes(payload)
