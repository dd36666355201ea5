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
    EmptyTensor,
    LayerCompressionConfig,
    LowRankAdapter,
    NonFinite,
    Provenance,
    QuantizedTensor,
    ShapeMismatch,
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
    svd_truncated,
    unstructured_mask,
    weight_space_report,
    write_container,
)
from slim import SlimError, container, pipeline, tensor
from slim.artifact import layer_from_bytes, layer_to_bytes, layer_to_tensors
from slim.pipeline import _dense, _quantize_weights, _residual
from slim.prune import build_mask
from slim.quant import _fp8_snap, _scale_rows
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
    scaling = activation_aware_scale(w, stats, 0.3, 2.0)
    w_scaled = _scale_rows(w.astype(np.float64), scaling, slice(None))  # the whole matrix as one block
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
        scaling = activation_aware_scale(w, stats, 0.5, 2.0)
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


def scaled_copy(w, scaling: ChannelScaling) -> np.ndarray:
    """The whole float64 channel-scaled weight, made the way
    activation_aware_scale once returned it."""
    w_s = np.asarray(w).astype(np.float64)
    w_s[scaling.channel_indices, :] *= scaling.factor
    return w_s


def compensate_activations(x: np.ndarray, scaling: ChannelScaling | None) -> np.ndarray:
    """Activations with the scaled channels divided by the factor, in a copy
    (``x`` itself without scaling): times the stored weight, the product that
    layer_output makes from the weight's unscaled blocks."""
    if scaling is None:
        return x
    out = x.copy()
    out[:, scaling.channel_indices] /= scaling.factor
    return out


def reference_layer(w, stats, cfg: LayerCompressionConfig):
    """compress_layer's earlier order: quantize a whole channel-scaled copy
    of the weight, dequantize the whole quantized weight, score and mask
    it, then fit the adapter to the masked copy. Like compress_layer, it
    scores and fits the full-precision quantized weight; only the finished
    layer is rounded to f32."""
    w_s, scaling = w, None
    if cfg.scaling_enabled:
        scaling = activation_aware_scale(w, stats, cfg.scale_fraction, cfg.scale_factor)
        w_s = scaled_copy(w, scaling)
    weights, alpha = _quantize_weights(tensor._block_source(w_s), None, cfg)
    w_c = _dense(weights, scaling)
    stored, mask = weights, None
    if cfg.sparsity is not None:
        norms = stats.l2_norm if cfg.prune_scores == "wanda" else None
        mask = build_mask(reference_scores(weights, scaling, norms), cfg.sparsity)
        if isinstance(weights, QuantizedTensor):
            stored = QuantizedTensor(apply_mask(weights.codes, mask), weights.scales,
                                     weights.group_size, weights.bits)
        else:
            stored = apply_mask(weights, mask)
        w_c = apply_mask(w_c, mask)
    adapter = None
    if cfg.adapter_method != "none":
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
        quarter = max(1, block // 4 // cols)  # its parts=4 form, now GATHER_ELEMENTS
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block), \
                mock.patch.object(tensor, "GATHER_ELEMENTS", block // 4):
            got = list(row_blocks(np.empty((rows, cols)), align))
            quarters = list(tensor._spans(rows, cols, tensor.GATHER_ELEMENTS))
        assert [s.start for s in got] == list(range(0, rows, whole))
        assert [s.start for s in quarters] == list(range(0, rows, quarter))

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 30),
        block=st.sampled_from([1, 7, 64, BLOCK_ELEMENTS]),
        budget=st.sampled_from([0, 2, 25, 250, 1 << 20]),
    )
    def test_error_report_blocks_follow_their_budget(self, rows, cols, block, budget):
        # E is summed into the output fields by blocks of about
        # SUM_ELEMENTS entries: runs of whole row blocks of a tall or
        # square weight, each added into R, and blocks of a wide weight's
        # columns, each made a row block at a time, beside the row blocks of
        # the weight fields' own pass
        w = source("normal", (rows, cols), "float64", 3)
        layer = compress_layer(w, None, LayerCompressionConfig(quant_method="absmax"))
        heights = []  # the rows of each run's residual, added into R in turn
        residuals = []  # the (rows, cols) of each residual block made
        add_product, residual = pipeline._add_product, pipeline._residual

        def recording_add(out, x, m):
            heights.append(m.shape[0])
            add_product(out, x, m)

        def recording_residual(*args):
            residuals.append(args[4:])
            return residual(*args)

        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block), \
                mock.patch.object(tensor, "SUM_ELEMENTS", budget), \
                mock.patch.object(pipeline, "_add_product", recording_add), \
                mock.patch.object(pipeline, "_residual", recording_residual):
            error_report(w, layer, np.ones((2, rows)), saliency_vector(compute_calibration([w.T])))
        step = max(1, block // cols)  # a row block of whole rows
        whole_rows = [r.start for r, *c in residuals if not c]
        assert whole_rows == list(range(0, rows, step))
        if rows >= cols:
            run = max(1, budget // (cols * step)) * step
            assert [sum(heights[:i]) for i in range(len(heights))] == list(range(0, rows, run))
            assert sum(heights) == rows and len(residuals) == len(whole_rows)
        else:
            width = max(1, budget // rows)
            blocks = [(r, c[0]) for r, *c in residuals if c]
            starts = list(range(0, cols, width))
            assert heights == []
            assert [c.start for r, c in blocks if r.start == 0] == starts
            for start in starts:
                height = max(1, block // min(width, cols - start))
                assert [r.start for r, c in blocks if c.start == start] == list(range(0, rows, height))

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
            mask = build_mask(tensor.BlockSource(blocks, (rows, cols)), SparsityPattern.semistructured(1, m))
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
        w0 = rng.normal(size=(rows, cols)).astype(("float32", "float64")[seed % 2])
        k = min(rows, cols, 3)
        adapter = LowRankAdapter(rng.normal(size=(rows, k)), rng.normal(size=(k, cols)))
        correction = adapter.left @ adapter.right
        read = tensor._block_source(w0)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            for block_rows, block_cols in [(slice(None), slice(None)), (slice(r0, r1), slice(None)),
                                           (slice(None), slice(c0, c1)), (slice(r0, r1), slice(c0, c1))]:
                got = _dense(stored, scaling, block_rows, block_cols)
                ref = whole[block_rows, block_cols]
                assert got.dtype == np.float64 and got.shape == ref.shape
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
                # the residual w0 - w_c: the bits of the whole one's block
                got = _residual(read, stored, scaling, None, block_rows, block_cols)
                ref = (w0 - whole)[block_rows, block_cols]
                assert got.dtype == np.float64 and got.shape == ref.shape
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
                # w0 - (w_c + left @ right): left[rows] @ right[:, cols] may round apart
                got = _residual(read, stored, scaling, adapter, block_rows, block_cols)
                ref = (w0 - (whole + correction))[block_rows, block_cols]
                np.testing.assert_allclose(got, ref, rtol=0.0,
                                           atol=ADAPTER_REPORT_RTOL * np.abs(correction).max())

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


class TestScaledReader:
    """The quantizers read the channel-scaled weight a row block at a time
    from the source; each layer must give the bits of the layer quantized
    from the whole scaled float64 copy."""

    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.integers(1, 8).map(lambda n: 4 * n),
        cols=st.integers(1, 24),
        method=st.sampled_from(["absmax", "group_absmax", "slim_quant", "slim_quant_o", "none"]),
        factor=st.sampled_from([2.0, 3.0]),
        fraction=st.sampled_from([0.01, 0.3, 1.0]),
        sparsity=st.sampled_from([None, "2:4", "unstructured:0.5"]),
        dtype=st.sampled_from(["float32", "float64"]),
        block=st.sampled_from([1, 7, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=12, cols=5, method="group_absmax", factor=3.0, fraction=0.3, sparsity="2:4",
             dtype="float32", block=7, seed=0)
    @example(rows=32, cols=3, method="none", factor=3.0, fraction=1.0, sparsity=None,
             dtype="float64", block=1, seed=1)
    def test_layer_matches_the_whole_scaled_copy(self, rows, cols, method, factor, fraction,
                                                 sparsity, dtype, block, seed):
        w = source("normal", (rows, cols), dtype, seed)
        w_before = w.copy()
        x = np.random.default_rng(seed).normal(size=(6, rows))
        stats = compute_calibration([x])
        cfg = LayerCompressionConfig(
            quant_method=method, group_size=3, channel_scaling=True, scale_factor=factor,
            scale_fraction=fraction, prune_scores="magnitude",
            sparsity=None if sparsity is None else SparsityPattern.parse(sparsity),
        )
        ref = reference_layer(w, stats, cfg)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            layer = compress_layer(w, stats, cfg)
        assert layer_to_bytes(layer) == layer_to_bytes(ref)
        assert layer.provenance == ref.provenance
        assert w.tobytes() == w_before.tobytes()  # the source is left as it was


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
                mock.patch.object(tensor, "SUM_ELEMENTS", product // 4), \
                mock.patch.object(tensor, "CHUNK_ELEMENTS", product // 16):
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
        with mock.patch.object(tensor, "PRODUCT_ELEMENTS", product), \
                mock.patch.object(tensor, "CHUNK_ELEMENTS", product // 16):
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
        # column when CHUNK_ELEMENTS is 1), so the output may move from
        # the whole product's in the last place: LAYER_OUTPUT_RTOL holds it
        w = source("normal", (rows, cols), "float32", seed)
        x = np.random.default_rng(seed).normal(size=(tokens, rows))
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4), adapter_method="slim",
                                     rank_ratio=0.25, quantize_adapters=quantized)
        layer = compress_layer(w, compute_calibration([x]), cfg)
        with mock.patch.object(tensor, "PRODUCT_ELEMENTS", product), \
                mock.patch.object(tensor, "CHUNK_ELEMENTS", product // 16):
            got = layer_output(x, layer)
        ref = x @ layer.corrected_weight()
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=LAYER_OUTPUT_RTOL * np.abs(ref).max())

    @pytest.mark.parametrize("shape", [(36, 100), (64, 64), (100, 36)], ids=["wide", "square", "tall"])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    def test_layer_output_folds_the_adapter_from_its_threshold_on(self, shape, offset):
        # L @ R goes into the weight blocks once tokens * (d_in + d_out)
        # reaches d_in * d_out, and (x @ L) @ R is added to y below that
        d_in, d_out = shape
        tokens = -(-d_in * d_out // (d_in + d_out)) + offset  # the threshold, ceiled, plus offset
        folded = offset >= 0
        assert (tokens * (d_in + d_out) >= d_in * d_out) == folded
        w = source("normal", shape, "float32", 40)
        x = np.random.default_rng(41).normal(size=(tokens, d_in))
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4), adapter_method="slim",
                                     rank_ratio=0.25)
        layer = compress_layer(w, compute_calibration([x]), cfg)
        outs = []

        def spy(out, x, m):
            outs.append(out)
            add_product(out, x, m)

        add_product = pipeline._add_product
        with mock.patch.object(pipeline, "_add_product", spy):
            got = layer_output(x, layer)
        # one product block: the whole weight, with L @ R in it, or y
        assert (outs[0] is got) != folded
        assert outs[0].shape == (shape if folded else got.shape)
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
        assert peak < qt.fields.nbytes + BLOCK_BOUND

    @staticmethod
    def compress_peak(sparsity: SparsityPattern, scores: str = "wanda") -> tuple[int, int]:
        """Peak bytes of a no-adapter compress of a 2048x2048 f32 weight, and
        the weight's entry count (large enough that a bool mask passes the
        block bound)."""
        w = source("normal", (2048, 2048), "float32", 9)
        stats = compute_calibration([np.random.default_rng(10).normal(size=(32, 2048))])
        cfg = LayerCompressionConfig(sparsity=sparsity, prune_scores=scores)
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        return peak, w.size

    # The 4-bit codes take half a byte an entry and the mask one bit, and
    # the codes are masked in place; the scores exist one block at a time.
    # int8 codes (one byte an entry), a bool mask, a masked copy of the
    # codes, a float64 weight-sized array (8 bytes an entry: dequantized
    # weight, whole score matrix or a copy of w) or a transposed copy of
    # the mask fails.

    def test_compress_layer_f32_no_adapter(self):
        peak, entries = self.compress_peak(SparsityPattern.unstructured(0.5))
        assert peak <= 0.625 * entries + BLOCK_BOUND

    def test_compress_layer_f32_magnitude_ties_in_every_column(self):
        # 4-bit codes give 8 magnitudes, so each column's k-th score is tied
        # many times over and the tie fill runs on every column
        peak, entries = self.compress_peak(SparsityPattern.unstructured(0.5), "magnitude")
        assert peak <= 0.625 * entries + BLOCK_BOUND

    def test_compress_layer_f32_semistructured(self):
        peak, entries = self.compress_peak(SparsityPattern.semistructured(2, 4))
        assert peak <= 0.625 * entries + BLOCK_BOUND

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

    @pytest.mark.parametrize("shape", [(1024, 4096), (4096, 1024)])
    @pytest.mark.parametrize("method, quantized", [("slim", False), ("naive", True)])
    def test_compress_layer_f32_adapter_makes_no_float64_copy_of_w(self, shape, method, quantized):
        w = source("normal", shape, "float32", 27)
        stats = compute_calibration([np.random.default_rng(28).normal(size=(16, shape[0]))])
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4),
                                     adapter_method=method, rank_ratio=0.1, quantize_adapters=quantized)
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        # 0.93x the float64 weight: the codes and the mask (0.08x), the
        # fit's Gram matrix, one block's product and one block of the
        # weighted error (0.25x each); a weight-sized error (1x) fails
        assert peak < 1.25 * w.size * 8

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
        # besides its output: one row block's codes, kept run and fields
        # (about 0.04 MiB); int8 kept codes (one byte each, 2 MiB when
        # pruned), a weight-sized index of the kept entries (8 bytes each)
        # or whole-array packing temporaries fail
        assert peak <= sum(t.nbytes for t in tensors.values()) + BLOCK_BOUND // 8

    def test_layer_from_bytes_dequantizes_the_adapter_once(self):
        w = source("normal", (1024, 4096), "float32", 24)
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4),
                                     prune_scores="magnitude", adapter_method="naive",
                                     rank_ratio=0.1, quantize_adapters=True)
        payload = layer_to_bytes(compress_layer(w, None, cfg))
        layer, peak = traced_peak(lambda: layer_from_bytes(payload))
        a = layer.adapter
        held = (layer.mask.bits.nbytes + layer.weights.fields.nbytes + a.left.nbytes + a.right.nbytes
                + sum(q.fields.nbytes + q.scales.nbytes for q in a.quantized))
        # about held + 2.2 MiB; a second dequantized copy of the factors
        # (4 MiB) fails
        assert peak <= held + 3 * 2**20

    @pytest.mark.parametrize("sparsity", ["unstructured:0.5", "2:4"])
    def test_layer_from_bytes_of_a_pruned_layer_holds_the_mask_as_bits(self, sparsity):
        w = source("normal", (1024, 4096), "float32", 43)
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.parse(sparsity), prune_scores="magnitude")
        payload = layer_to_bytes(compress_layer(w, None, cfg))
        layer, peak = traced_peak(lambda: layer_from_bytes(payload))
        held = layer.mask.bits.nbytes + layer.weights.fields.nbytes
        # held plus one row block's run of kept codes, unpacked, scattered
        # and packed again; the kept codes unpacked at once (one byte each,
        # 2 MiB), int8 codes (4 MiB) or a bool mask (4 MiB) fail
        assert peak <= held + BLOCK_BOUND // 2

    @pytest.mark.parametrize("scaled", [False, True])
    def test_raw_weight_rounds_to_f32_a_row_block_at_a_time(self, scaled):
        w = source("normal", (1024, 2048), "float64", 25)
        stats = compute_calibration([np.random.default_rng(26).normal(size=(8, 1024))])
        cfg = LayerCompressionConfig(quant_method="none", channel_scaling=scaled)
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        # the layer's one float64 array, scaled and then rounded a row block
        # at a time; a second float64 weight, or a whole f32 temporary
        # (half a weight), fails
        assert peak <= 1 * w.nbytes + BLOCK_BOUND

    @pytest.mark.parametrize("sparsity", [None, "2:4"])
    def test_raw_scaled_weight_holds_one_float64_weight(self, sparsity):
        w = source("normal", (1024, 2048), "float32", 41)
        stats = compute_calibration([np.random.default_rng(42).normal(size=(8, 1024))])
        cfg = LayerCompressionConfig(quant_method="none", channel_scaling=True,
                                     sparsity=None if sparsity is None else SparsityPattern.parse(sparsity))
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        # the stored values (8 bytes an entry), filled from the scaled
        # reader a row block at a time, and the keep mask (1 bit); a
        # second float64 weight, scaled or not, fails
        assert peak <= 8.125 * w.size + BLOCK_BOUND

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
        assert peak <= qt.fields.nbytes + qt.scales.nbytes + 8 * 2**20

    def test_grouped_dequantize_peak_is_its_output_plus_8_mib(self):
        qt = group_absmax_quantize(source("normal", (1024, 2048), "float32", 18), 128, 4)
        out, peak = traced_peak(lambda: dequantize(qt))
        # a weight-sized np.repeat of the group steps would double it
        assert peak <= out.nbytes + 8 * 2**20

    def test_compress_layer_group_absmax_holds_no_float64_weight(self):
        w = source("normal", (1024, 2048), "float32", 19)
        cfg = LayerCompressionConfig(quant_method="group_absmax")
        layer, peak = traced_peak(lambda: compress_layer(w, None, cfg))
        assert peak <= layer.weights.fields.nbytes + layer.weights.scales.nbytes + 8 * 2**20

    @pytest.mark.parametrize("shape", [(256, 2048), (1024, 2048)])
    def test_absmax_alpha_peak_does_not_grow_with_the_shape(self, shape):
        w = source("normal", shape, "float32", 14)
        _, peak = traced_peak(lambda: absmax_alpha(w))
        assert peak < BLOCK_BOUND

    def test_channel_scaling_peak_is_a_block_bound(self):
        w = source("normal", (1024, 2048), "float32", 15)
        stats = compute_calibration([np.random.default_rng(16).normal(size=(8, 1024))])
        _, peak = traced_peak(lambda: activation_aware_scale(w, stats))
        # the row means, one widened block at a time; no scaled copy
        assert peak <= BLOCK_BOUND

    @pytest.mark.parametrize("method", ["slim_quant_o", "absmax", "group_absmax"])
    def test_compress_layer_f32_scaled_holds_no_float64_weight(self, method):
        # slim-o on its own, and scaling forced on the two AbsMax quantizers:
        # the quantizer reads the scaled weight a row block at a time, so
        # the peak is an unscaled layer's (4-bit codes and mask bits); a
        # scaled float64 copy (8 bytes an entry) or int8 codes fail
        w = source("normal", (1024, 4096), "float32", 36)
        stats = compute_calibration([np.random.default_rng(37).normal(size=(16, 1024))])
        cfg = LayerCompressionConfig(quant_method=method, channel_scaling=True,
                                     sparsity=SparsityPattern.semistructured(2, 4),
                                     prune_scores="magnitude")
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        assert peak <= 0.625 * w.size + BLOCK_BOUND

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
    def test_error_report_of_a_wide_weight_holds_no_r(self, adapter):
        w, layer, sal = self.product_case(adapter)
        x = np.random.default_rng(32).normal(size=(256, 2048)).astype(np.float32)
        _, peak = traced_peak(lambda: error_report(w, layer, x, sal))
        # about 14 MiB: x widened to float64 (4 MiB), one block of E's
        # columns (8 MiB), and a row block, that block's columns of R and
        # x @ left; R (8 MiB) beside a run of E's rows (old: 44 MiB) fails
        column_block = 8 * tensor.SUM_ELEMENTS
        assert peak <= x.size * 8 + column_block + BLOCK_BOUND

    @pytest.mark.parametrize("adapter", ["none", "slim"])
    def test_error_report_of_a_tall_weight_is_r_plus_a_run(self, adapter):
        w, layer, sal = self.product_case(adapter, shape=(4096, 2048))
        x = np.random.default_rng(32).normal(size=(256, 4096))
        _, peak = traced_peak(lambda: error_report(w, layer, x, sal))
        # about 14.5 MiB: R (4 MiB), one run of E's rows (8 MiB), and a
        # row block, a chunk of R's columns and x @ left; a run of 32 MiB
        # (old: 38 MiB) fails
        r_bytes = x.shape[0] * w.shape[1] * 8
        assert peak <= r_bytes + 8 * tensor.SUM_ELEMENTS + BLOCK_BOUND

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

    def adapter_peaks(self, shape: tuple, tokens: int) -> dict:
        """layer_output's peak on ``tokens`` rows, without and with a slim adapter."""
        x = np.random.default_rng(35).normal(size=(tokens, shape[0]))
        peaks = {}
        for adapter in ("none", "slim"):
            _, layer, _ = self.product_case(adapter, shape=shape)
            _, peaks[adapter] = traced_peak(lambda: layer_output(x, layer))
        return peaks

    def test_layer_output_adapter_term_adds_no_output_sized_temporary(self):
        peaks = self.adapter_peaks((1024, 4096), 2048)
        # about 96 MiB each: the output and one product block. At 2048
        # tokens L @ R is added into each column block, one column chunk of
        # it (2 MiB) at a time (98 MiB); a whole (x @ L) @ R (64 MiB), or a
        # whole block of L @ R (32 MiB), fails
        assert peaks["slim"] <= peaks["none"] + BLOCK_BOUND

    def test_layer_output_adapter_term_of_a_tall_weight_adds_no_output_sized_temporary(self):
        peaks = self.adapter_peaks((4096, 1024), 2048)
        # about 64 MiB each: y, the one row block (the whole weight) and
        # its product. L @ R is added into the block, a 2 MiB column chunk
        # at a time; a whole L @ R (32 MiB) beside the block fails
        assert peaks["slim"] <= peaks["none"] + BLOCK_BOUND

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_calibration_holds_no_batch_sized_float64_buffer(self, order):
        x = np.asarray(source("normal", (4096, 1024), "float32", 34), order=order)
        _, peak = traced_peak(lambda: compute_calibration([x]))
        # about 1.1 MiB: the float64 buffer of one block of columns, and the
        # block's sums; one float64 copy of the batch (32 MiB) fails
        assert peak <= BLOCK_BOUND


class TestFileSource:
    """compress_layer and the reports given a tensor's reader from its file
    (``container._tensor_source``) instead of the array."""

    @pytest.mark.parametrize("shape", [(96, 640), (640, 96)])
    @pytest.mark.parametrize("quant, sparsity, adapter, scaled", [
        ("slim_quant", "2:4", "slim", None),
        ("none", "unstructured:0.5", "naive", True),
        ("slim_quant_o", "2:4", "none", None),
        ("group_absmax", "none", "slim", True),
        ("absmax", "unstructured:0.5", "none", None),
    ])
    def test_same_bytes_and_reports_as_the_array(self, tmp_path, shape, quant, sparsity, adapter, scaled):
        rng = np.random.default_rng(38)
        w = rng.standard_normal(shape).astype(np.float32)
        x = rng.standard_normal((48, shape[0]))
        stats = compute_calibration([x])
        sal = saliency_vector(stats)
        path = tmp_path / "w.slim"
        write_container(path, {"before": rng.standard_normal((3, 5)).astype(np.float32), "w": w,
                               "after": rng.standard_normal((5, 3)).astype(np.float32)})
        cfg = LayerCompressionConfig(quant_method=quant, sparsity=SparsityPattern.parse(sparsity),
                                     adapter_method=adapter, rank_ratio=None if adapter == "none" else 0.1,
                                     channel_scaling=scaled)
        # several row blocks, and column blocks of the wide weight in the adapter fit
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", 4096), \
                mock.patch.object(tensor, "SUM_ELEMENTS", 96 * 100):
            layer = compress_layer(w, stats, cfg)
            expected = (layer_to_bytes(layer), weight_space_report(w, layer, sal),
                        error_report(w, layer, x, sal))
            with container._tensor_source(path, "w") as read:
                from_file = compress_layer(read, stats, cfg)
                got = (layer_to_bytes(from_file), weight_space_report(read, layer, sal),
                       error_report(read, layer, x, sal))
        assert got == expected

    def test_compress_layer_from_a_file_peaks_below_the_f32_weight(self, tmp_path):
        w = source("normal", (1024, 2048), "float32", 39)
        stats = compute_calibration([np.random.default_rng(40).normal(size=(16, 1024))])
        path = tmp_path / "w.slim"
        write_container(path, {"w": w})
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4))  # wanda, 4-bit
        with container._tensor_source(path, "w") as read:
            _, peak = traced_peak(lambda: compress_layer(read, stats, cfg))
        # about 2.5 MiB: the 4-bit codes (1 MiB), zeroed in place, the mask
        # bits (0.25 MiB) and one block's temporaries; the weight read whole
        # (8 MiB) fails, and so do int8 codes, a bool mask or a masked copy
        # of the codes (1 MiB or more beyond)
        assert peak < w.nbytes
        assert peak <= 0.625 * w.size + 1.5 * 2**20

    def test_adapter_compress_from_a_file_peaks_as_from_the_array(self, tmp_path):
        w = source("normal", (1024, 4096), "float32", 41)
        stats = compute_calibration([np.random.default_rng(42).normal(size=(16, 1024))])
        path = tmp_path / "w.slim"
        write_container(path, {"w": w})
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4), adapter_method="slim",
                                     rank_ratio=0.1)
        _, from_array = traced_peak(lambda: compress_layer(w, stats, cfg))
        with container._tensor_source(path, "w") as read:
            _, from_file = traced_peak(lambda: compress_layer(read, stats, cfg))
        # the adapter fit reads 1024x1024 blocks; the file's bytes pass
        # through one f32 row block (256 KiB) on their way into each, so
        # the file costs about 0.3 MiB more than the array. An f32 copy of
        # the whole block beside its float64 one (4 MiB more) fails
        assert from_file <= from_array + BLOCK_BOUND // 8


def float64_blocks(w: np.ndarray) -> tensor.BlockSource:
    """``w`` as a block source made here rather than by
    ``tensor._block_source``: a new float64 copy of each block."""
    return tensor.BlockSource(lambda rows, cols: w[rows, cols].astype(np.float64), w.shape)


SOURCE_STATS = compute_calibration([np.random.default_rng(44).normal(size=(16, 48))])
SOURCE_CFG = LayerCompressionConfig(quant_method="slim_quant_o", sparsity=SparsityPattern.semistructured(2, 4),
                                    adapter_method="slim", rank_ratio=0.1)

# Each function that takes a matrix or a block source: the bits of its
# result, given ``w`` and the layer compressed from the array.
SOURCE_CALLS = {
    "build_abs_histogram": lambda w, _: (lambda h: (h.max_abs, h.counts.tobytes()))(build_abs_histogram(w)),
    "svd_truncated": lambda w, _: [f.tobytes() for f in svd_truncated(w, 3)],
    "quantize_symmetric": lambda w, _: quantize_symmetric(w, ALPHA, Q).codes.tobytes(),
    "absmax_alpha": lambda w, _: absmax_alpha(w),
    "group_absmax_quantize": lambda w, _: (lambda t: (t.codes.tobytes(), t.scales.tobytes()))(
        group_absmax_quantize(w, 7, Q)),
    "activation_aware_scale": lambda w, _: activation_aware_scale(w, SOURCE_STATS, 0.1).channel_indices.tobytes(),
    "build_mask": lambda w, _: build_mask(w, SparsityPattern.unstructured(0.5)).keep.tobytes(),
    "compress_layer": lambda w, _: layer_to_bytes(compress_layer(w, SOURCE_STATS, SOURCE_CFG)),
    "weight_space_report": lambda w, layer: weight_space_report(w, layer, saliency_vector(SOURCE_STATS)),
    "error_report": lambda w, layer: error_report(w, layer, np.ones((4, 48)), saliency_vector(SOURCE_STATS)),
}


class TestBlockSource:
    @pytest.mark.parametrize("name", sorted(SOURCE_CALLS))
    def test_a_source_gives_the_bits_of_its_matrix(self, name):
        w = source("normal", (48, 40), "float32", 43)
        layer = compress_layer(w, SOURCE_STATS, SOURCE_CFG)
        # several row blocks, and several blocks of the adapter fit
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", 64), \
                mock.patch.object(tensor, "SUM_ELEMENTS", 100):
            assert SOURCE_CALLS[name](float64_blocks(w), layer) == SOURCE_CALLS[name](w, layer)

    @pytest.mark.parametrize("shape, error", [
        ((4,), ShapeMismatch), ((2, 2, 2), ShapeMismatch), ((), ShapeMismatch),
        ((0, 3), EmptyTensor), ((3, 0), EmptyTensor),
    ])
    def test_a_source_is_a_non_empty_matrix(self, shape, error):
        with pytest.raises(error):
            tensor.BlockSource(lambda rows, cols: np.zeros((1, 1)), shape)
