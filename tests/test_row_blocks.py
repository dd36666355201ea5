"""Row-blocked passes: bit parity with the whole-matrix formulas, and memory.

An f32 (or f16, int, bool) source must give the histogram, codes, AbsMax
scale, grouped-AbsMax codes and scales, and channel scaling of its float64
copy, and the FP8 input snap must give the bits of the whole-matrix snap,
however the rows fall into blocks. The masks ranked from blocks of scores
made from the codes, and the layers built from them, must give the
bits of the whole score matrix; the reports' row blocks of the difference
must give its row sums, and the blocked products of the error report and
the forward pass must give the whole products within stated tolerances.
No pass may hold a matrix-sized temporary besides its result.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import (
    E4M3,
    E5M2,
    ChannelScaling,
    CompressedLayer,
    LayerCompressionConfig,
    NonFinite,
    Provenance,
    QuantizedTensor,
    SparsityPattern,
    absmax_alpha,
    activation_aware_scale,
    apply_mask,
    build_abs_histogram,
    compress_layer,
    compute_calibration,
    default_rank,
    dequantize,
    error_report,
    fp8_fake_quantize,
    group_absmax_quantize,
    layer_output,
    naive_lora,
    quantize_adapter,
    quantize_symmetric,
    saliency_vector,
    slim_lora,
    unstructured_mask,
    weight_space_report,
)
from slim import SlimError, pipeline, tensor
from slim.artifact import layer_from_bytes, layer_to_bytes, layer_to_tensors
from slim.pipeline import _dense, _quantize_weights
from slim.prune import build_mask
from slim.quant import _fp8_snap, compensate_activations
from slim.tensor import BLOCK_ELEMENTS, as_float_matrix, as_matrix, row_blocks

from oracles import topk_column_mask

DTYPES = ["float32", "float16", "int32", "int8", "bool"]
KINDS = ["normal", "half_steps", "bin_edges", "zeros"]

# A step that float32 cannot hold exactly, with 8 levels per side at q=4.
ALPHA, Q = 0.3, 4
STEP = ALPHA * 2.0 ** (1 - Q)

# Fixed bound on what one blocked pass may hold besides its result: eight
# float64 blocks, whatever the size of the source.
BLOCK_BOUND = 8 * 8 * BLOCK_ELEMENTS


def reference_histogram(w64: np.ndarray, num_bins: int) -> tuple[float, np.ndarray]:
    """The whole-matrix histogram the blocked pass replaces."""
    mags = np.abs(w64).ravel()
    max_abs = float(mags.max())
    if max_abs == 0.0:
        counts = np.zeros(num_bins, dtype=np.int64)
        counts[0] = mags.size
        return max_abs, counts
    idx = np.ceil(mags * (num_bins / max_abs)).astype(np.int64) - 1
    np.clip(idx, 0, num_bins - 1, out=idx)
    return max_abs, np.bincount(idx, minlength=num_bins)


def reference_codes(w64: np.ndarray, alpha: float, q: int) -> np.ndarray:
    """The whole-matrix quantizer the blocked pass replaces."""
    v = w64 / (alpha * 2.0 ** (1 - q))
    lo, hi = -(1 << (q - 1)), (1 << (q - 1)) - 1
    return np.clip(np.trunc(v + np.copysign(0.5, v)), lo, hi).astype(np.int8)


def reference_group_absmax(w64: np.ndarray, group_size: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole-array grouped AbsMax the blocked pass replaces: codes, scales."""
    qmax = (1 << (q - 1)) - 1
    flat = w64.ravel()
    n_groups = -(-flat.size // group_size)
    padded = np.zeros(n_groups * group_size)
    padded[: flat.size] = np.abs(flat)
    scales = padded.reshape(n_groups, group_size).max(axis=1)
    scales[scales == 0.0] = 1.0
    v = flat * qmax / np.repeat(scales, group_size)[: flat.size]
    codes = np.clip(np.trunc(v + np.copysign(0.5, v)), -qmax, qmax)
    return codes.astype(np.int8).reshape(w64.shape), scales


def reference_group_dequantize(t: QuantizedTensor) -> np.ndarray:
    """The whole-array grouped dequantize the broadcast product replaces."""
    flat = t.codes.astype(np.float64, order="C").ravel()
    flat *= np.repeat(t.scales / ((1 << (t.bits - 1)) - 1), t.group_size)[: flat.size]
    return flat.reshape(t.codes.shape)


def reference_fp8_snap(x: np.ndarray, fmt) -> np.ndarray:
    """The whole-matrix FP8 snap the blocked pass replaces."""
    clamped = np.clip(x, -fmt.max_value, fmt.max_value)
    _, e = np.frexp(clamped)
    scale = np.ldexp(1.0, np.maximum(e - 1, fmt.min_normal_exponent) - fmt.mantissa_bits)
    return np.rint(clamped / scale) * scale


def reference_fp8_format(x: np.ndarray):
    """The whole-matrix format choice the max/min rewrite replaces."""
    return E4M3 if x.size == 0 or float(np.abs(x).max()) <= E4M3.max_value else E5M2


def reference_channel_scaling(w64: np.ndarray, stats, fraction: float, s: float):
    """The whole-matrix channel scaling the blocked row means replace."""
    act = stats.mean_abs.copy()
    wmag = np.abs(w64).mean(axis=1)
    for v in (act, wmag):
        peak = v.max()
        if peak > 0:
            v /= peak
    k = int(np.ceil(fraction * w64.shape[0]))
    idx = np.sort(np.argsort(-(act * wmag), kind="stable")[:k])
    w_scaled = w64.copy()
    w_scaled[idx, :] *= s
    return w_scaled, idx


def source(kind: str, shape: tuple, dtype: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if dtype == "bool":
        return rng.random(shape) < 0.5
    if dtype.startswith("int"):
        return rng.integers(-100, 101, shape).astype(dtype)
    if kind == "normal":
        v = rng.normal(0.0, 0.1, shape)
    elif kind == "half_steps":  # w / step on k + 1/2, in and beyond the grid
        v = (rng.integers(-10, 10, shape) + 0.5) * STEP
    elif kind == "bin_edges":  # k * max / 8: the edges of an 8-bin histogram
        v = rng.integers(-8, 9, shape) * (ALPHA / 8)
        v.flat[0] = ALPHA
    else:
        v = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    return v.astype(dtype)


def fp8_source(kind: str, shape: tuple, seed: int) -> np.ndarray:
    """Float64 activations that probe the FP8 grids of both formats."""
    rng = np.random.default_rng(seed)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    if kind == "magnitudes":  # below the E5M2 subnormal floor to past its max
        return sign * 2.0 ** rng.uniform(-20.0, 20.0, shape)
    if kind == "ties":  # halfway between neighbours, in every binade of a format
        return sign * tie_values(rng, shape)
    if kind == "specials":
        return rng.choice(SPECIALS, shape)
    picks = rng.integers(0, 3, shape)
    parts = [fp8_source(k, shape, seed + 1) for k in ("magnitudes", "ties", "specials")]
    return np.choose(picks, parts)


def tie_values(rng, shape: tuple) -> np.ndarray:
    """Exact midpoints of random grid neighbours of E4M3 or E5M2; the binade
    below the normal range stands for the subnormal band."""
    e4m3 = rng.random(shape) < 0.5
    mbits = np.where(e4m3, E4M3.mantissa_bits, E5M2.mantissa_bits)
    emin = np.where(e4m3, E4M3.min_normal_exponent, E5M2.min_normal_exponent)
    emax = np.where(e4m3, 8, 15)
    e = rng.integers(emin - 1, emax + 1)
    k = rng.integers(0, 2**mbits)
    lead = np.where(e < emin, 0, 2**mbits)
    return (lead + k + 0.5) * 2.0 ** (np.maximum(e, emin) - mbits)


# Grid extremes, values just past them, signed zeros and the smallest
# subnormals of both formats with their (tie-to-zero) halves.
SPECIALS = np.array([
    448.0, -448.0, np.nextafter(448.0, np.inf), -np.nextafter(448.0, np.inf), 464.0, -448.5,
    57344.0, -57344.0, np.nextafter(57344.0, np.inf), 61440.0, -61440.0, 1e9,
    0.0, -0.0, 2.0**-9, -(2.0**-10), 2.0**-16, -(2.0**-17), 3 * 2.0**-10, 1.0, -1.0,
])


def assert_fp8_parity(x: np.ndarray) -> None:
    before = x.copy()
    for fmt in (E4M3, E5M2):
        got = _fp8_snap(x, fmt)
        assert np.array_equal(got.view(np.uint64), reference_fp8_snap(x, fmt).view(np.uint64))
    out, fmt = fp8_fake_quantize(x)
    assert fmt is reference_fp8_format(x)
    assert np.array_equal(out.view(np.uint64), reference_fp8_snap(x, fmt).view(np.uint64))
    assert not np.may_share_memory(out, x)
    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))


def assert_parity(w: np.ndarray, num_bins: int) -> None:
    w64 = w.astype(np.float64)
    ref_alpha = float(np.abs(w64).max()) or 1.0
    assert absmax_alpha(w) == absmax_alpha(w64) == ref_alpha
    stats = compute_calibration([np.random.default_rng(w.shape[0]).normal(size=(4, w.shape[0]))])
    ref_w, ref_idx = reference_channel_scaling(w64, stats, 0.3, 2.0)
    w_scaled, scaling = activation_aware_scale(w, stats, 0.3, 2.0)
    assert w_scaled.dtype == np.float64 and not np.may_share_memory(w_scaled, w)
    assert np.array_equal(w_scaled.view(np.uint64), ref_w.view(np.uint64))
    assert np.array_equal(scaling.channel_indices, ref_idx)
    h, h64 = build_abs_histogram(w, num_bins), build_abs_histogram(w64, num_bins)
    ref_max, ref_counts = reference_histogram(w64, num_bins)
    assert h.max_abs == h64.max_abs == ref_max
    assert np.array_equal(h.counts, h64.counts)
    assert np.array_equal(h.counts, ref_counts)
    for alpha in (ALPHA, h64.max_abs * 0.37 or 1.0):
        for q in (2, Q, 8):
            codes = quantize_symmetric(w, alpha, q).codes
            assert np.array_equal(codes, quantize_symmetric(w64, alpha, q).codes)
            assert np.array_equal(codes, reference_codes(w64, alpha, q))


class TestDtypeParity:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(1, 30),
        dtype=st.sampled_from(DTYPES),
        kind=st.sampled_from(KINDS),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        num_bins=st.sampled_from([1, 8, 512]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=13, cols=5, dtype="float32", kind="half_steps", block=10, num_bins=8, seed=0)
    @example(rows=13, cols=5, dtype="float16", kind="bin_edges", block=10, num_bins=8, seed=1)
    @example(rows=9, cols=30, dtype="float32", kind="bin_edges", block=7, num_bins=8, seed=2)
    @example(rows=4, cols=4, dtype="float32", kind="zeros", block=7, num_bins=8, seed=3)
    def test_matches_float64_copy(self, rows, cols, dtype, kind, block, num_bins, seed):
        w = source(kind, (rows, cols), dtype, seed)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            assert_parity(w, num_bins)

    def test_float32_division_regression(self):
        # -0.28125 / 0.0375 is -7.5 in float64 but -7.4999995 in float32:
        # a block divided before widening rounds to -7 instead of -8
        w = np.array([[-0.28125, 0.28125]], dtype=np.float32)
        f32_codes = np.trunc(w / STEP + np.copysign(0.5, w / STEP))
        assert f32_codes[0, 0] == -7.0
        assert quantize_symmetric(w, ALPHA, Q).codes.tolist() == [[-8, 7]]

    def test_channel_means_widen_before_summing(self):
        # 1 + 2**-24 rounds to 1 in float32: row means taken before widening
        # tie the two rows, and the tie goes to row 0 instead of row 1
        w = np.array([[1.0, 0.0], [1.0, 2.0**-24]], dtype=np.float32)
        stats = compute_calibration([np.ones((4, 2))])
        _, scaling = activation_aware_scale(w, stats, 0.5, 2.0)
        assert scaling.channel_indices.tolist() == [1]

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_rows_not_a_multiple_of_the_block(self, dtype):
        cols = 1000  # 65 rows per block; 150 rows leave a 20-row last block
        assert BLOCK_ELEMENTS // cols == 65
        assert_parity(source("normal", (150, cols), dtype, 4), 512)

    def test_one_row_wider_than_a_block(self):
        w = source("normal", (3, BLOCK_ELEMENTS + 5), "float32", 5)
        assert [s.stop - s.start for s in row_blocks(w)] == [1, 1, 1]
        assert_parity(w, 512)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_non_finite_in_last_block_raises(self, bad, dtype):
        w = source("normal", (150, 1000), dtype, 6)
        w[-1, -1] = bad
        for call in (
            lambda: as_float_matrix(w, "w"),
            lambda: build_abs_histogram(w),
            lambda: quantize_symmetric(w, ALPHA, Q),
            lambda: compress_layer(w, None, LayerCompressionConfig(prune_scores="magnitude")),
        ):
            with pytest.raises(NonFinite):
                call()


FP8_KINDS = ["magnitudes", "ties", "specials", "mixed"]


class TestFp8Snap:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(0, 30),
        cols=st.integers(0, 30),
        kind=st.sampled_from(FP8_KINDS),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=13, cols=5, kind="ties", block=7, seed=0)
    @example(rows=9, cols=30, kind="specials", block=1, seed=1)
    @example(rows=4, cols=0, kind="mixed", block=7, seed=2)
    def test_matches_whole_matrix_snap(self, rows, cols, kind, block, seed):
        x = fp8_source(kind, (rows, cols), seed)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            assert_fp8_parity(x)

    @pytest.mark.parametrize("fmt", [E4M3, E5M2], ids=lambda f: f.variant)
    def test_every_tie_in_every_binade(self, fmt):
        mbits, emin = fmt.mantissa_bits, fmt.min_normal_exponent
        emax = int(np.floor(np.log2(fmt.max_value)))
        k = np.arange(2**mbits) + 0.5
        ties = [k * 2.0 ** (emin - mbits)]  # the subnormal band
        ties += [(2**mbits + k) * 2.0 ** (e - mbits) for e in range(emin, emax + 1)]
        t = np.concatenate(ties)
        x = np.concatenate([t, -t]).reshape(2, -1)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", 7):
            assert_fp8_parity(x)

    def test_negative_zero_keeps_its_sign(self):
        x = np.array([[-0.0, 0.0, -(2.0**-11), 2.0**-11]])
        for fmt in (E4M3, E5M2):
            out = _fp8_snap(x, fmt)
            assert np.signbit(out).tolist() == [[True, False, True, False]]
        assert_fp8_parity(x)

    def test_rows_not_a_multiple_of_the_block(self):
        assert BLOCK_ELEMENTS // 1000 == 65  # 150 rows leave a 20-row last block
        assert_fp8_parity(fp8_source("mixed", (150, 1000), 3))

    def test_one_row_wider_than_a_block(self):
        x = fp8_source("mixed", (3, BLOCK_ELEMENTS + 1), 4)
        assert [s.stop - s.start for s in row_blocks(x)] == [1, 1, 1]
        assert_fp8_parity(x)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_inputs(self, shape):
        out, fmt = fp8_fake_quantize(np.zeros(shape))
        assert out.shape == shape and fmt is E4M3
        assert_fp8_parity(np.zeros(shape))


class TestFp8FormatChoice:
    def test_max_magnitude_exactly_448_chooses_e4m3(self):
        for x in ([[448.0, -3.0]], [[-448.0, 2.0]], [[448.0, -448.0]]):
            assert fp8_fake_quantize(np.array(x))[1] is E4M3

    def test_only_negative_value_past_448_chooses_e5m2(self):
        x = np.array([[-448.5, 1.0, 448.0]])
        out, fmt = fp8_fake_quantize(x)
        assert fmt is E5M2
        assert out.tolist() == [[-448.0, 1.0, 448.0]]


GROUP_LAYOUTS = ["float64", "float32", "float16", "int32", "fortran", "transposed", "strided"]
GROUP_KINDS = ["normal", "zero_groups", "half_steps"]


def group_source(kind: str, shape: tuple, layout: str, seed: int) -> np.ndarray:
    """A grouped-AbsMax source of ``shape`` in one dtype or memory layout."""
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 0.1, shape)
    if kind == "zero_groups":  # runs of signed zeros, so whole groups are zero
        v[rng.random(shape) < 0.8] = 0.0
        v[rng.random(shape) < 0.5] *= -1.0
        v.reshape(-1)[: v.size // 2] = -0.0
    elif kind == "half_steps":  # v * 7 / 7 lands on k + 1/2 where a group holds 7
        v = rng.integers(-7, 7, shape) + 0.5
        v.reshape(-1)[::3] = 7.0
    if layout == "int32":
        return (v * 100).astype(np.int32)
    if layout == "fortran":
        return np.asfortranarray(v)
    if layout == "transposed":
        return np.ascontiguousarray(v.T).T
    if layout == "strided":
        return np.repeat(v, 2, axis=1)[:, ::2]
    return v.astype(layout)


def assert_group_parity(w: np.ndarray, group_size: int, q: int) -> None:
    w64 = np.array(w, dtype=np.float64)
    ref_codes, ref_scales = reference_group_absmax(w64, group_size, q)
    for src in (w, w64):
        t = group_absmax_quantize(src, group_size, q)
        assert t.codes.dtype == np.int8 and t.codes.shape == w.shape
        assert np.array_equal(t.codes, ref_codes)
        assert np.array_equal(t.scales.view(np.uint64), ref_scales.view(np.uint64))
        ref_values = reference_group_dequantize(t)
        assert np.array_equal(dequantize(t).view(np.uint64), ref_values.view(np.uint64))


class TestGroupAbsmax:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(1, 30),
        group_size=st.one_of(st.integers(1, 40), st.sampled_from([64, 128, 1000, 100000])),
        q=st.integers(2, 8),
        layout=st.sampled_from(GROUP_LAYOUTS),
        kind=st.sampled_from(GROUP_KINDS),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=13, cols=5, group_size=3, q=4, layout="float32", kind="normal", block=7, seed=0)
    @example(rows=4, cols=4, group_size=1000, q=4, layout="float64", kind="normal", block=1, seed=1)
    @example(rows=9, cols=7, group_size=4, q=4, layout="float64", kind="zero_groups", block=7, seed=2)
    @example(rows=6, cols=9, group_size=6, q=4, layout="fortran", kind="half_steps", block=1, seed=3)
    def test_matches_whole_array_formula(self, rows, cols, group_size, q, layout, kind, block, seed):
        w = group_source(kind, (rows, cols), layout, seed)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            assert_group_parity(w, group_size, q)

    def test_negative_zero_group_gets_scale_one(self):
        w = np.array([[-0.0, 0.0, -0.0, 1.5]])
        t = group_absmax_quantize(w, 3, 4)
        assert t.scales.tolist() == [1.0, 1.5]
        assert t.codes.tolist() == [[0, 0, 0, 7]]
        assert_group_parity(w, 3, 4)

    def test_blocks_of_whole_groups_over_many_rows(self):
        # 1000 columns and groups of 128: blocks advance 16 rows at a time
        w = group_source("normal", (150, 1000), "float32", 4)
        slices = list(row_blocks(w, 128))
        assert len(slices) > 1 and all(s.start * 1000 % 128 == 0 for s in slices)
        assert_group_parity(w, 128, 4)

    def test_dequantize_tail_group(self):
        codes = np.arange(-7, 7, dtype=np.int8).reshape(2, 7)  # three groups of 4, a tail of 2
        t = QuantizedTensor(codes=codes, scales=[1.0, 2.0, 3.0, 7.0], group_size=4, bits=4)
        out = dequantize(t)
        assert np.array_equal(out.view(np.uint64), reference_group_dequantize(t).view(np.uint64))
        assert out[1, 5:].tolist() == [5.0, 6.0]

    def test_dequantize_row_major_groups_of_fortran_codes(self):
        codes = np.asfortranarray(np.arange(-6, 6, dtype=np.int8).reshape(3, 4))
        t = QuantizedTensor(codes=codes, scales=[7.0, 14.0, 21.0], group_size=4, bits=4)
        assert dequantize(t).tolist() == (codes * np.array([[1.0], [2.0], [3.0]])).tolist()

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_dequantize_empty_codes(self, shape):
        t = QuantizedTensor(codes=np.zeros(shape, np.int8), scales=np.zeros(0), group_size=4, bits=4)
        out = dequantize(t)
        assert out.shape == shape and out.dtype == np.float64


class TestRowBlocks:
    @pytest.mark.parametrize("shape", [(1, 1), (150, 1000), (65, 1000), (3, 0), (0, 4)])
    def test_blocks_cover_the_rows_in_order(self, shape):
        arr = np.empty(shape)
        slices = list(row_blocks(arr))
        assert [r for s in slices for r in range(shape[0])[s]] == list(range(shape[0]))
        assert all(s.stop - s.start == max(1, BLOCK_ELEMENTS // max(shape[1], 1))
                   for s in slices)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(0, 300),
        cols=st.integers(0, 300),
        align=st.integers(1, 400),
        block=st.sampled_from([1, 7, 64, 1000, BLOCK_ELEMENTS]),
    )
    def test_aligned_blocks_hold_whole_multiples(self, rows, cols, align, block):
        arr = np.empty((rows, cols))
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            slices = list(row_blocks(arr, align))
        assert [r for s in slices for r in range(rows)[s]] == list(range(rows))
        assert all(len(range(rows)[s]) * cols % align == 0 for s in slices[:-1])

    def test_float_sources_keep_their_buffer(self):
        for dtype in ("float16", "float32", "float64"):
            w = np.ones((4, 3), dtype=dtype)
            assert as_float_matrix(w) is w
        for w in (np.ones((4, 3), dtype=np.int8), np.ones((4, 3), dtype=bool), [[1, 2]]):
            assert as_float_matrix(w).dtype == np.float64

    @pytest.mark.parametrize("case, allow_empty, error", [
        ("1-d", False, "ShapeMismatch"),
        ("empty", False, "EmptyTensor"),
        ("empty", True, None),
        ("nan in the last row block", False, "NonFinite"),
        ("int", False, None),
        ("bool", False, None),
        ("1-d int", False, "ShapeMismatch"),
        ("empty bool", False, "EmptyTensor"),
    ])
    def test_as_matrix_is_the_float_check_widened(self, case, allow_empty, error):
        w = {
            "1-d": np.ones(5, dtype=np.float32),
            "empty": np.zeros((3, 0)),
            "nan in the last row block": source("normal", (150, 1000), "float32", 30),
            "int": np.arange(-6, 6, dtype=np.int32).reshape(3, 4),
            "bool": np.eye(3, dtype=bool),
            "1-d int": np.arange(4),
            "empty bool": np.zeros((0, 2), dtype=bool),
        }[case]
        if case.startswith("nan"):
            assert [s.start for s in row_blocks(w)] == [0, 65, 130]
            w[140, 7] = np.nan
        outcomes = []
        for check in (as_matrix, as_float_matrix):
            try:
                outcomes.append(check(w, "w", allow_empty=allow_empty))
            except SlimError as err:
                outcomes.append(err)
        widened, checked = outcomes
        if error is None:
            assert widened.dtype == np.float64
            assert np.array_equal(widened, checked.astype(np.float64))
        else:
            assert type(widened).__name__ == type(checked).__name__ == error
            assert str(widened) == str(checked)


def reference_scores(stored, scaling, norms) -> np.ndarray:
    """The wanda (``norms``) or magnitude scores in a new array."""
    scores = np.abs(_dense(stored, scaling))
    if norms is not None:
        scores *= norms[:, None]
    return scores


def reference_layer(w, stats, cfg: LayerCompressionConfig):
    """compress_layer's earlier order: dequantize the whole quantized
    weight, score and mask it, then fit the adapter to the masked copy.
    Like compress_layer, it scores and fits the full-precision quantized
    weight; only the finished layer is rounded to f32."""
    w_s, scaling = w, None
    if cfg.scaling_enabled:
        w_s, scaling = activation_aware_scale(w, stats, cfg.scale_fraction, cfg.scale_factor)
    weights, alpha = _quantize_weights(w_s, cfg)
    w_c = _dense(weights, scaling)
    norms = stats.l2_norm if cfg.prune_scores == "wanda" else None
    mask = build_mask(reference_scores(weights, scaling, norms), cfg.sparsity)
    if isinstance(weights, QuantizedTensor):
        stored = replace(weights, codes=apply_mask(weights.codes, mask))
    else:
        stored = apply_mask(weights, mask)
    adapter = None
    if cfg.adapter_method != "none":
        w_c = apply_mask(w_c, mask)
        r = default_rank(*w_c.shape, cfg.effective_rank_ratio)
        if cfg.adapter_method == "slim":
            adapter = slim_lora(w, w_c, saliency_vector(stats), r)
        else:
            adapter = naive_lora(w, w_c, r)
        if cfg.quantize_adapters:
            adapter = quantize_adapter(adapter, cfg.group_size)
    return CompressedLayer(weights=stored, mask=mask, adapter=adapter, channel_scaling=scaling,
                           config=cfg, provenance=Provenance(*w.shape, alpha=alpha))


def stored_weight(kind: str, shape: tuple, group_size: int, seed: int):
    """A stored weight of each kind: whole-tensor or grouped codes, or raw
    float64 values."""
    w = source("normal", shape, "float64", seed)
    if kind == "whole":
        return quantize_symmetric(w, ALPHA, Q)
    if kind == "grouped":
        return group_absmax_quantize(w, group_size, Q)
    return w


def tied_scores(shape: tuple, seed: int) -> np.ndarray:
    """Scores from a few values, with an all-tied column and, where there
    is room, an all-zero one."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 3, shape).astype(np.float64)
    s[:, 0] = 1.0
    if shape[1] > 1:
        s[:, -1] = 0.0
    return s


class TestSpans:
    """``tensor._spans`` is the one rule that turns an element budget into
    slices. Its steps must be those of the formulas each caller had before
    it, so no block, mask or artifact moves."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 400),
        across=st.integers(0, 300),
        elements=st.integers(0, 5000),
        unit=st.integers(1, 40),
    )
    @example(n=10, across=3, elements=2, unit=4)  # a budget below one unit
    def test_slices_cover_the_range_in_whole_units(self, n, across, elements, unit):
        slices = list(tensor._spans(n, across, elements, unit))
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(len(range(n)[s]) % unit == 0 for s in slices[:-1])
        assert all(s.start % unit == 0 for s in slices)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 300),
        cols=st.integers(1, 300),
        align=st.integers(1, 400),
        block=st.sampled_from([1, 7, 64, 1000, BLOCK_ELEMENTS]),
    )
    def test_row_blocks_keep_their_old_steps(self, rows, cols, align, block):
        unit = align // int(np.gcd(cols, align))
        whole = max(unit, block // cols // unit * unit)  # the formula row_blocks had
        quarter = max(1, block // 4 // cols)  # its parts=4 form, for grouped dequantize
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            got = list(row_blocks(np.empty((rows, cols)), align))
            quarters = list(tensor._spans(rows, cols, tensor.BLOCK_ELEMENTS // 4))
        assert [s.start for s in got] == list(range(0, rows, whole))
        assert [s.start for s in quarters] == list(range(0, rows, quarter))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 30),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        product=st.sampled_from([1, 9, 100, 1000, 1 << 22]),
    )
    def test_error_report_runs_keep_their_old_steps(self, rows, cols, block, product):
        step = max(1, block // cols)  # a row block
        run = max(1, product // (cols * step)) * step  # the formula of the runs of row blocks
        w = source("normal", (rows, cols), "float64", 3)
        layer = compress_layer(w, None, LayerCompressionConfig(quant_method="absmax"))
        spans = []
        real = pipeline._difference_row_squares

        def recording(w0, layer, span=slice(None), out=None):
            spans.append(span)
            return real(w0, layer, span, out)

        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block), \
                mock.patch.object(tensor, "PRODUCT_ELEMENTS", product), \
                mock.patch.object(pipeline, "_difference_row_squares", recording):
            error_report(w, layer, np.ones((2, rows)), saliency_vector(compute_calibration([w.T])))
        assert [s.start for s in spans] == list(range(0, rows, run))

    @settings(max_examples=100, deadline=None)
    @given(
        groups=st.integers(1, 40),
        m=st.sampled_from([2, 4, 8]),
        cols=st.integers(1, 30),
        block=st.sampled_from([1, 7, 64, 1000, BLOCK_ELEMENTS]),
    )
    def test_n_of_m_blocks_keep_their_old_height(self, groups, m, cols, block):
        rows = groups * m
        height = max(1, block // (cols * m)) * m  # the formula build_mask had
        starts = []
        scores = np.random.default_rng(groups).random((rows, cols))

        def blocks(r, c):
            starts.append(r.start)
            return scores[r, c]

        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            mask = build_mask(blocks, SparsityPattern.semistructured(1, m), (rows, cols))
        assert starts == list(range(0, rows, height))
        assert mask.keep.tobytes() == build_mask(scores, SparsityPattern.semistructured(1, m)).keep.tobytes()

    def test_the_default_budget_is_read_at_the_call(self):
        assert next(tensor._spans(10 * BLOCK_ELEMENTS)).stop == BLOCK_ELEMENTS
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", 6):
            assert [s.start for s in tensor._spans(20, 2)] == [0, 3, 6, 9, 12, 15, 18]
            assert [s.start for s in tensor._spans(20, 2, unit=2)] == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]


class TestBlockedScoresAndMasks:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(1, 30),
        kind=st.sampled_from(["whole", "grouped", "raw"]),
        group_size=st.one_of(st.integers(1, 40), st.sampled_from([128, 100000])),
        scaled=st.booleans(),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=13, cols=5, kind="grouped", group_size=3, scaled=True, block=7, seed=0)
    @example(rows=30, cols=30, kind="grouped", group_size=7, scaled=False, block=64, seed=1)
    def test_dense_blocks_match_the_whole_matrix(self, rows, cols, kind, group_size, scaled, block, seed):
        stored = stored_weight(kind, (rows, cols), group_size, seed)
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(rows, rng.integers(0, rows + 1), replace=False))
        scaling = ChannelScaling(idx, 2.0) if scaled else None
        whole = _dense(stored, scaling)  # one block: no shape here reaches 2**16 entries
        r0, c0 = rng.integers(0, rows), rng.integers(0, cols)
        r1, c1 = rng.integers(r0 + 1, rows + 1), rng.integers(c0 + 1, cols + 1)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            for block_rows, block_cols in [(slice(None), slice(None)), (slice(r0, r1), slice(None)),
                                           (slice(None), slice(c0, c1)), (slice(r0, r1), slice(c0, c1))]:
                got = _dense(stored, scaling, block_rows, block_cols)
                ref = whole[block_rows, block_cols]
                assert got.dtype == np.float64 and got.shape == ref.shape
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("scores", ["wanda", "magnitude"])
    @pytest.mark.parametrize("sparsity", ["unstructured:0", "unstructured:0.3", "unstructured:0.5",
                                          "2:4", "1:4"])
    @pytest.mark.parametrize("method", ["absmax", "group_absmax", "slim_quant", "slim_quant_o", "none"])
    def test_block_built_mask_matches_the_whole_matrix(self, method, sparsity, scores, dtype):
        # 4-bit codes take 16 values, so magnitude scores tie many times in
        # every column. Blocks of 40 and 150 elements are one and four
        # whole columns of 32 rows for unstructured (the last holding three),
        # one and three groups of m rows for n:m (the last holding two).
        w = source("half_steps" if method == "none" else "normal", (32, 11), dtype, 21)
        stats = compute_calibration([np.random.default_rng(22).normal(size=(6, 32))])
        cfg = LayerCompressionConfig(quant_method=method, group_size=5,
                                     sparsity=SparsityPattern.parse(sparsity), prune_scores=scores)
        ref = reference_layer(w, stats, cfg).mask.keep  # build_mask on the whole score matrix
        for block in (40, 150):
            with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
                layer = compress_layer(w, stats, cfg)
            assert layer.mask.keep.tobytes() == ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(1, 30),
        ratio=st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.99]), st.floats(0.0, 0.99)),
        ties=st.booleans(),
        block=st.sampled_from([1, 7, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=20, cols=9, ratio=0.5, ties=True, block=7, seed=0)  # ragged last block
    @example(rows=64, cols=3, ratio=0.5, ties=True, block=64, seed=1)  # one column a block
    def test_column_blocked_mask(self, rows, cols, ratio, ties, block, seed):
        rng = np.random.default_rng(seed)
        s = tied_scores((rows, cols), seed) if ties else rng.random((rows, cols))
        whole = unstructured_mask(s, ratio).keep
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            blocked = unstructured_mask(s, ratio).keep
        assert np.array_equal(blocked, whole)
        assert np.array_equal(blocked, topk_column_mask(s, ratio))

    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.integers(1, 8).map(lambda n: 4 * n),
        cols=st.integers(1, 24),
        method=st.sampled_from(["absmax", "group_absmax", "slim_quant", "slim_quant_o", "none"]),
        group_size=st.sampled_from([1, 3, 4, 7, 128]),
        sparsity=st.sampled_from(["unstructured:0.5", "unstructured:0.3", "2:4"]),
        scores=st.sampled_from(["wanda", "magnitude"]),
        adapter=st.sampled_from([("none", False), ("naive", False), ("slim", False),
                                 ("naive", True), ("slim", True)]),
        dtype=st.sampled_from(["float32", "float64"]),
        kind=st.sampled_from(["normal", "half_steps"]),
        block=st.sampled_from([1, 7, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=12, cols=5, method="group_absmax", group_size=3, sparsity="unstructured:0.5",
             scores="magnitude", adapter=("slim", True), dtype="float32", kind="half_steps",
             block=7, seed=0)
    @example(rows=16, cols=9, method="slim_quant_o", group_size=128, sparsity="2:4",
             scores="wanda", adapter=("slim", False), dtype="float32", kind="normal",
             block=1, seed=1)
    @example(rows=32, cols=3, method="slim_quant_o", group_size=4, sparsity="unstructured:0.3",
             scores="wanda", adapter=("naive", True), dtype="float64", kind="normal",
             block=64, seed=2)
    def test_layer_matches_the_whole_matrix_order(
        self, rows, cols, method, group_size, sparsity, scores, adapter, dtype, kind, block, seed
    ):
        w = source(kind, (rows, cols), dtype, seed)
        x = np.random.default_rng(seed).normal(size=(6, rows))
        stats = compute_calibration([x])
        cfg = LayerCompressionConfig(
            quant_method=method, group_size=group_size, sparsity=SparsityPattern.parse(sparsity),
            prune_scores=scores, adapter_method=adapter[0], quantize_adapters=adapter[1],
            rank_ratio=None if adapter[0] == "none" else 0.25,
        )
        ref = reference_layer(w, stats, cfg)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            layer = compress_layer(w, stats, cfg)
        assert layer_to_bytes(layer) == layer_to_bytes(ref)
        sal = saliency_vector(stats)
        assert error_report(w, layer, x, sal) == error_report(w, ref, x, sal)


def reference_weight_space(w, layer, sal) -> dict:
    """The weight fields of the reports from the whole difference matrix."""
    d = layer.corrected_weight() - np.asarray(w, dtype=np.float64)
    rows = np.einsum("ij,ij->i", d, d)
    return {"weight_mse": float(rows.sum() / d.size),
            "weighted_weight_mse": float(rows @ np.square(sal.values) / d.size)}


# An adapter's row block ``left[rows] @ right`` may round apart from the
# same rows of ``left @ right`` in the last place of an entry, so the
# adapter-layer weight fields are held to this relative tolerance against
# the whole-matrix formula; without an adapter they are bit-identical.
ADAPTER_REPORT_RTOL = 1e-12


class TestBlockedReports:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 8).map(lambda n: 4 * n),
        cols=st.integers(1, 24),
        method=st.sampled_from(["absmax", "group_absmax", "slim_quant_o", "none"]),
        adapter=st.sampled_from([("none", False), ("naive", False), ("slim", True)]),
        dtype=st.sampled_from(["float32", "float64"]),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=12, cols=5, method="group_absmax", adapter=("slim", True), dtype="float32",
             block=7, seed=0)
    def test_weight_fields_match_the_whole_difference(
        self, rows, cols, method, adapter, dtype, block, seed
    ):
        w = source("normal", (rows, cols), dtype, seed)
        x = np.random.default_rng(seed).normal(size=(6, rows))
        stats = compute_calibration([x])
        sal = saliency_vector(stats)
        cfg = LayerCompressionConfig(
            quant_method=method, group_size=3, sparsity=SparsityPattern.semistructured(2, 4),
            adapter_method=adapter[0], quantize_adapters=adapter[1],
            rank_ratio=None if adapter[0] == "none" else 0.25,
        )
        layer = compress_layer(w, stats, cfg)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            got = weight_space_report(w, layer, sal)
            full = error_report(w, layer, x, sal).to_dict()
        assert {k: full[k] for k in got} == got  # one producer: the same bits
        ref = reference_weight_space(w, layer, sal)
        for field, value in ref.items():
            if layer.adapter is None:
                assert got[field] == value
            else:
                assert got[field] == pytest.approx(value, rel=ADAPTER_REPORT_RTOL, abs=0.0)


def reference_output_fields(w, layer, x) -> dict:
    """The output fields of error_report from the whole product x @ D."""
    x64 = np.asarray(x, dtype=np.float64)
    r = x64 @ (layer.corrected_weight() - np.asarray(w, dtype=np.float64))
    out = {"output_mse": float(np.mean(r**2))}
    a = layer.adapter
    no_adapter = r if a is None else r - (x64 @ a.left) @ a.right
    out["output_mse_no_adapter"] = float(np.mean(no_adapter**2))
    return out


def reference_calibration(batches) -> tuple[np.ndarray, np.ndarray]:
    """The sums compute_calibration made from whole-batch temporaries:
    each batch widened to float64 in its own layout, then |x| and x**2."""
    sum_abs = sum_sq = 0.0
    for b in batches:
        a = np.asarray(b).astype(np.float64)
        sum_abs = sum_abs + np.abs(a).sum(axis=0)
        sum_sq = sum_sq + np.square(a).sum(axis=0)
    return sum_abs, sum_sq


# The blocked products sum x @ D and x @ W in another order than the whole
# product, so their results are held to these tolerances against it: the
# output fields relative to their own value, the forward output relative
# to its largest entry.
OUTPUT_MSE_RTOL = 1e-12
LAYER_OUTPUT_RTOL = 1e-12


class TestBlockedProducts:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 10).map(lambda n: 4 * n),
        cols=st.integers(1, 24),
        tokens=st.integers(1, 9),
        method=st.sampled_from(["absmax", "group_absmax", "slim_quant_o", "none"]),
        sparsity=st.sampled_from(["none", "unstructured:0.5", "2:4"]),
        adapter=st.sampled_from([("none", False), ("naive", False), ("slim", True)]),
        dtype=st.sampled_from(["float32", "float64"]),
        x_dtype=st.sampled_from(["float32", "float64"]),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        product=st.sampled_from([1, 9, 100, 1 << 22]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=40, cols=7, tokens=3, method="group_absmax", sparsity="2:4", adapter=("slim", True),
             dtype="float32", x_dtype="float32", block=7, product=30, seed=0)
    def test_error_report_by_product_blocks(
        self, rows, cols, tokens, method, sparsity, adapter, dtype, x_dtype, block, product, seed
    ):
        w = source("normal", (rows, cols), dtype, seed)
        x = np.random.default_rng(seed).normal(size=(tokens, rows)).astype(x_dtype)
        stats = compute_calibration([x])
        sal = saliency_vector(stats)
        cfg = LayerCompressionConfig(
            quant_method=method, group_size=3, sparsity=SparsityPattern.parse(sparsity),
            adapter_method=adapter[0], quantize_adapters=adapter[1],
            rank_ratio=None if adapter[0] == "none" else 0.25,
        )
        layer = compress_layer(w, stats, cfg)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block), \
                mock.patch.object(tensor, "PRODUCT_ELEMENTS", product):
            got = error_report(w, layer, x, sal).to_dict()
            weight = weight_space_report(w, layer, sal)
        assert {k: got[k] for k in weight} == weight  # one producer: the same bits
        for field, value in reference_output_fields(w, layer, x).items():
            assert got[field] == pytest.approx(value, rel=OUTPUT_MSE_RTOL, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 10).map(lambda n: 4 * n),
        cols=st.integers(1, 24),
        tokens=st.integers(1, 9),
        method=st.sampled_from(["absmax", "group_absmax", "slim_quant_o", "none"]),
        adapter=st.sampled_from([("none", False), ("naive", False), ("slim", True)]),
        fp8=st.booleans(),
        product=st.sampled_from([1, 9, 100, 1 << 22]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=12, cols=23, tokens=5, method="group_absmax", adapter=("slim", True), fp8=True,
             product=30, seed=0)
    def test_layer_output_by_weight_blocks(self, rows, cols, tokens, method, adapter, fp8, product, seed):
        w = source("normal", (rows, cols), "float32", seed)
        x = np.random.default_rng(seed).normal(size=(tokens, rows))
        cfg = LayerCompressionConfig(
            quant_method=method, group_size=3, sparsity=SparsityPattern.semistructured(2, 4),
            adapter_method=adapter[0], quantize_adapters=adapter[1], input_fp8=fp8,
            rank_ratio=None if adapter[0] == "none" else 0.25,
        )
        layer = compress_layer(w, compute_calibration([x]), cfg)
        with mock.patch.object(tensor, "PRODUCT_ELEMENTS", product):
            got = layer_output(x, layer)
        xa = fp8_fake_quantize(x)[0] if fp8 else x
        ref = compensate_activations(xa, layer.channel_scaling) @ layer.stored_weight()
        if layer.adapter is not None:
            ref = ref + (xa @ layer.adapter.left) @ layer.adapter.right
        assert got.shape == ref.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=LAYER_OUTPUT_RTOL * np.abs(ref).max())

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 10).map(lambda n: 4 * n),
        cols=st.integers(1, 24),
        tokens=st.integers(1, 9),
        quantized=st.booleans(),
        product=st.sampled_from([16, 160, 1 << 22]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layer_output_adds_the_adapter_term_by_column_chunks(self, rows, cols, tokens, quantized,
                                                                 product, seed):
        # (x @ L) @ R is added a chunk of the output's columns at a time (one
        # column when PRODUCT_ELEMENTS is 16), so the output may move from
        # the whole product's in the last place: LAYER_OUTPUT_RTOL holds it
        w = source("normal", (rows, cols), "float32", seed)
        x = np.random.default_rng(seed).normal(size=(tokens, rows))
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4), adapter_method="slim",
                                     rank_ratio=0.25, quantize_adapters=quantized)
        layer = compress_layer(w, compute_calibration([x]), cfg)
        with mock.patch.object(tensor, "PRODUCT_ELEMENTS", product):
            got = layer_output(x, layer)
        ref = x @ layer.corrected_weight()
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=LAYER_OUTPUT_RTOL * np.abs(ref).max())

    @settings(max_examples=100, deadline=None)
    @given(
        tokens=st.lists(st.integers(0, 30), min_size=1, max_size=3),
        d_in=st.integers(1, 20),
        dtype=st.sampled_from(["float64", "float32", "float16", "int32", "bool"]),
        layout=st.sampled_from(["C", "F", "strided"]),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(tokens=[40], d_in=1, dtype="float32", layout="C", block=7, seed=0)  # one column
    @example(tokens=[1, 1], d_in=17, dtype="float32", layout="F", block=1, seed=1)  # one row
    @example(tokens=[300], d_in=1, dtype="float64", layout="F", block=BLOCK_ELEMENTS, seed=2)
    def test_calibration_matches_the_whole_batch_formula(self, tokens, d_in, dtype, layout, block, seed):
        batches = []
        for i, n in enumerate(tokens):
            base = source("normal", (n, 2 * d_in), dtype, seed + i)
            if layout == "F":
                batches.append(np.asfortranarray(base[:, :d_in]))
            elif layout == "strided":
                batches.append(base[:, ::2])
            else:
                batches.append(np.ascontiguousarray(base[:, :d_in]))
        if sum(tokens) == 0:
            return
        ref_abs, ref_sq = reference_calibration(batches)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            stats = compute_calibration(batches)
        assert stats.mean_abs.tobytes() == (ref_abs / sum(tokens)).tobytes()
        assert stats.l2_norm.tobytes() == np.sqrt(ref_sq).tobytes()
        assert stats.token_count == sum(tokens)


def traced_peak(call) -> tuple[object, int]:
    """``call()``'s result and the peak bytes it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("shape", [(256, 2048), (1024, 2048)])
    def test_histogram_peak_does_not_grow_with_the_shape(self, shape):
        w = source("normal", shape, "float32", 7)
        _, peak = traced_peak(lambda: build_abs_histogram(w))
        assert peak < BLOCK_BOUND

    @pytest.mark.parametrize("shape", [(256, 2048), (1024, 2048)])
    def test_quantize_peak_is_the_codes_plus_a_block_bound(self, shape):
        w = source("normal", shape, "float32", 8)
        qt, peak = traced_peak(lambda: quantize_symmetric(w, ALPHA, Q))
        assert peak < qt.codes.nbytes + BLOCK_BOUND

    @staticmethod
    def compress_peak(sparsity: SparsityPattern, scores: str = "wanda") -> tuple[int, int]:
        """Peak bytes of a no-adapter compress of a 1024x1024 f32 weight, and
        the weight's entry count."""
        w = source("normal", (1024, 1024), "float32", 9)
        stats = compute_calibration([np.random.default_rng(10).normal(size=(32, 1024))])
        cfg = LayerCompressionConfig(sparsity=sparsity, prune_scores=scores)
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        return peak, w.size

    # The codes, the mask and the masked codes take one byte an entry each;
    # the scores exist one block at a time. A float64 weight-sized
    # array (8 bytes an entry: dequantized weight, whole score matrix or a
    # copy of w) fails, and so does a transposed copy of the mask.

    def test_compress_layer_f32_no_adapter(self):
        peak, entries = self.compress_peak(SparsityPattern.unstructured(0.5))
        assert peak <= 3 * entries + BLOCK_BOUND

    def test_compress_layer_f32_magnitude_ties_in_every_column(self):
        # 4-bit codes give 8 magnitudes, so each column's k-th score is tied
        # many times over and the tie fill runs on every column
        peak, entries = self.compress_peak(SparsityPattern.unstructured(0.5), "magnitude")
        assert peak <= 3 * entries + BLOCK_BOUND

    def test_compress_layer_f32_semistructured(self):
        peak, entries = self.compress_peak(SparsityPattern.semistructured(2, 4))
        assert peak <= 3 * entries + BLOCK_BOUND

    def test_reports_make_no_float64_copy_of_w(self):
        w = source("normal", (512, 1024), "float32", 11)
        x = np.random.default_rng(12).normal(size=(8, 512))
        stats = compute_calibration([x])
        sal = saliency_vector(stats)
        w64_bytes = w.size * 8
        for adapter in ("none", "slim"):
            layer = compress_layer(w, stats, LayerCompressionConfig(
                sparsity=SparsityPattern.semistructured(2, 4), adapter_method=adapter,
                rank_ratio=None if adapter == "none" else 0.1))
            # the difference D is one float64 weight; a copy of w, or of
            # the adapter's dense correction, would be another
            _, peak = traced_peak(lambda: error_report(w, layer, x, sal))
            assert peak < 1.5 * w64_bytes
            # row sums of D**2 from one row block of D at a time
            _, peak = traced_peak(lambda: weight_space_report(w, layer, sal))
            assert peak < BLOCK_BOUND

    @pytest.mark.parametrize("method, quantized", [("slim", False), ("naive", True)])
    def test_compress_layer_f32_adapter_makes_no_float64_copy_of_w(self, method, quantized):
        w = source("normal", (1024, 4096), "float32", 27)
        stats = compute_calibration([np.random.default_rng(28).normal(size=(16, 1024))])
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4),
                                     adapter_method=method, rank_ratio=0.1, quantize_adapters=quantized)
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        # about 1.8x the float64 weight: the codes and masks (0.4x), the
        # pruned weight, weighted in place into the fit's error (1x), and the
        # fit's Gram matrix; an error beside the pruned weight (2.8x) fails
        assert peak < 2.0 * w.size * 8

    def test_as_matrix_checks_finiteness_a_row_block_at_a_time(self):
        w = source("normal", (1024, 4096), "float64", 29)
        out, peak = traced_peak(lambda: as_matrix(w, "w"))
        assert out is w
        # about 0.06 MiB; a whole-matrix np.isfinite mask takes 4 MiB
        assert peak < BLOCK_BOUND

    @pytest.mark.parametrize("sparsity", [None, "unstructured:0.5", "2:4"])
    def test_layer_to_tensors_peak_is_its_output_plus_a_block_bound(self, sparsity):
        w = source("normal", (1024, 4096), "float32", 23)
        pattern = None if sparsity is None else SparsityPattern.parse(sparsity)
        layer = compress_layer(w, None, LayerCompressionConfig(sparsity=pattern, prune_scores="magnitude"))
        tensors, peak = traced_peak(lambda: layer_to_tensors(layer))
        # besides its output: the kept codes (one byte each, 2 MiB when
        # pruned) and one chunk's fields; a weight-sized index of the kept
        # entries (8 bytes each) or whole-array packing temporaries fail
        assert peak <= sum(t.nbytes for t in tensors.values()) + BLOCK_BOUND

    def test_layer_from_bytes_dequantizes_the_adapter_once(self):
        w = source("normal", (1024, 4096), "float32", 24)
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4),
                                     prune_scores="magnitude", adapter_method="naive",
                                     rank_ratio=0.1, quantize_adapters=True)
        payload = layer_to_bytes(compress_layer(w, None, cfg))
        layer, peak = traced_peak(lambda: layer_from_bytes(payload))
        a = layer.adapter
        held = (layer.mask.keep.nbytes + layer.weights.codes.nbytes + a.left.nbytes + a.right.nbytes
                + sum(q.codes.nbytes + q.scales.nbytes for q in a.quantized))
        # about held + 2.2 MiB; a second dequantized copy of the factors
        # (4 MiB) fails
        assert peak <= held + 3 * 2**20

    @pytest.mark.parametrize("scaled", [False, True])
    def test_raw_weight_rounds_to_f32_a_row_block_at_a_time(self, scaled):
        w = source("normal", (1024, 2048), "float64", 25)
        stats = compute_calibration([np.random.default_rng(26).normal(size=(8, 1024))])
        cfg = LayerCompressionConfig(quant_method="none", channel_scaling=scaled)
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        # the layer's float64 values, and the scaled copy when scaling; a
        # whole f32 temporary (half a weight) fails
        assert peak <= (2 if scaled else 1) * w.nbytes + BLOCK_BOUND

    def test_fp8_peak_is_its_output_plus_4_mib(self):
        x = fp8_source("mixed", (512, 3072), 13)
        (out, _), peak = traced_peak(lambda: fp8_fake_quantize(x))
        # the output and one block's temporaries; one whole-matrix
        # float64 temporary fails
        assert peak <= out.nbytes + 4 * 2**20

    @pytest.mark.parametrize("shape", [(256, 2048), (1024, 2048), (1000, 1000)])
    def test_group_absmax_peak_is_the_codes_plus_8_mib(self, shape):
        w = source("normal", shape, "float32", 17)
        qt, peak = traced_peak(lambda: group_absmax_quantize(w, 128, 4))
        assert peak <= qt.codes.nbytes + qt.scales.nbytes + 8 * 2**20

    def test_grouped_dequantize_peak_is_its_output_plus_8_mib(self):
        qt = group_absmax_quantize(source("normal", (1024, 2048), "float32", 18), 128, 4)
        out, peak = traced_peak(lambda: dequantize(qt))
        # a weight-sized np.repeat of the group steps would double it
        assert peak <= out.nbytes + 8 * 2**20

    def test_compress_layer_group_absmax_holds_no_float64_weight(self):
        w = source("normal", (1024, 2048), "float32", 19)
        cfg = LayerCompressionConfig(quant_method="group_absmax")
        layer, peak = traced_peak(lambda: compress_layer(w, None, cfg))
        assert peak <= layer.weights.codes.nbytes + layer.weights.scales.nbytes + 8 * 2**20

    @pytest.mark.parametrize("shape", [(256, 2048), (1024, 2048)])
    def test_absmax_alpha_peak_does_not_grow_with_the_shape(self, shape):
        w = source("normal", shape, "float32", 14)
        _, peak = traced_peak(lambda: absmax_alpha(w))
        assert peak < BLOCK_BOUND

    def test_channel_scaling_peak_is_the_float64_weight_plus_a_block_bound(self):
        w = source("normal", (1024, 2048), "float32", 15)
        stats = compute_calibration([np.random.default_rng(16).normal(size=(8, 1024))])
        _, peak = traced_peak(lambda: activation_aware_scale(w, stats))
        assert peak <= w.size * 8 + BLOCK_BOUND

    @staticmethod
    def product_case(adapter: str = "none", shape: tuple = (2048, 4096)):
        """An f32 weight of two product blocks compressed 2:4, and the
        saliency of its calibration."""
        w = source("normal", shape, "float32", 30)
        stats = compute_calibration([np.random.default_rng(31).normal(size=(16, shape[0]))])
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4), adapter_method=adapter,
                                     rank_ratio=None if adapter == "none" else 0.1)
        return w, compress_layer(w, stats, cfg), saliency_vector(stats)

    @pytest.mark.parametrize("adapter", ["none", "slim"])
    def test_error_report_peak_is_r_plus_a_product_block(self, adapter):
        w, layer, sal = self.product_case(adapter)
        x = np.random.default_rng(32).normal(size=(256, 2048))
        _, peak = traced_peak(lambda: error_report(w, layer, x, sal))
        # R (8 MiB), one run of D's rows (32 MiB), and a row block, a chunk
        # of R's columns and x @ left; a whole D (64 MiB) fails
        r_bytes = x.shape[0] * w.shape[1] * 8
        assert peak <= r_bytes + 8 * tensor.PRODUCT_ELEMENTS + BLOCK_BOUND

    @pytest.mark.parametrize("shape", [(2048, 4096), (4096, 2048)])
    def test_layer_output_peak_is_its_output_plus_a_product_block(self, shape):
        w, layer, _ = self.product_case(shape=shape)
        x = np.random.default_rng(33).normal(size=(256, shape[0]))
        y, peak = traced_peak(lambda: layer_output(x, layer))
        # the output (8 or 4 MiB) and one dequantized block of the weight
        # (32 MiB): a block of columns of a wide weight, whose product fills
        # its columns of y, or a block of rows of a tall one, whose product
        # (one more y) is added to y; the whole dequantized weight (64 MiB)
        # fails
        products = 1 if shape[0] <= shape[1] else 2
        assert peak <= products * y.nbytes + 8 * tensor.PRODUCT_ELEMENTS + BLOCK_BOUND

    def test_layer_output_adapter_term_adds_no_output_sized_temporary(self):
        x = np.random.default_rng(35).normal(size=(2048, 1024))
        peaks = {}
        for adapter in ("none", "slim"):
            _, layer, _ = self.product_case(adapter, shape=(1024, 4096))
            _, peaks[adapter] = traced_peak(lambda: layer_output(x, layer))
        # about 96 MiB each: the output and one product block. The adapter
        # term takes x @ L (1.6 MiB) and one column chunk of its product
        # (2 MiB) after the block is freed; a whole (x @ L) @ R (64 MiB) fails
        assert peaks["slim"] <= peaks["none"] + BLOCK_BOUND

    def test_calibration_of_an_f32_batch_holds_one_float64_copy(self):
        x = source("normal", (4096, 1024), "float32", 34)
        _, peak = traced_peak(lambda: compute_calibration([x]))
        # one float64 buffer, filled with |x| and then x**2; a widened copy
        # of the batch beside a whole-batch temporary (2x) fails
        assert peak <= x.size * 8 + BLOCK_BOUND
