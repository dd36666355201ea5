"""Row-blocked passes: bit parity with the whole-matrix formulas, and memory.

An f32 (or f16, int, bool) source must give the histogram, codes, AbsMax
scale and channel scaling of its float64 copy, and the FP8 input snap must
give the bits of the whole-matrix snap, however the rows fall into blocks.
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
    LayerCompressionConfig,
    NonFinite,
    SparsityPattern,
    absmax_alpha,
    activation_aware_scale,
    build_abs_histogram,
    compress_layer,
    compute_calibration,
    error_report,
    fp8_fake_quantize,
    quantize_symmetric,
    saliency_vector,
    weight_space_report,
)
from slim import tensor
from slim.quant import _fp8_snap
from slim.tensor import BLOCK_ELEMENTS, as_float_matrix, row_blocks

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


class TestRowBlocks:
    @pytest.mark.parametrize("shape", [(1, 1), (150, 1000), (65, 1000), (3, 0), (0, 4)])
    def test_blocks_cover_the_rows_in_order(self, shape):
        arr = np.empty(shape)
        slices = list(row_blocks(arr))
        assert [r for s in slices for r in range(shape[0])[s]] == list(range(shape[0]))
        assert all(s.stop - s.start == max(1, BLOCK_ELEMENTS // max(shape[1], 1))
                   for s in slices)

    def test_float_sources_keep_their_buffer(self):
        for dtype in ("float16", "float32", "float64"):
            w = np.ones((4, 3), dtype=dtype)
            assert as_float_matrix(w) is w
        for w in (np.ones((4, 3), dtype=np.int8), np.ones((4, 3), dtype=bool), [[1, 2]]):
            assert as_float_matrix(w).dtype == np.float64


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

    def test_compress_layer_f32_no_adapter(self):
        w = source("normal", (1024, 1024), "float32", 9)
        stats = compute_calibration([np.random.default_rng(10).normal(size=(32, 1024))])
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.unstructured(0.5))
        _, peak = traced_peak(lambda: compress_layer(w, stats, cfg))
        # about 2.1x: the codes, the dequantized weight and the wanda scores
        # (or the scores and the mask's column copy); a float64 copy of w
        # or a whole-matrix quantizer temporary would pass the bound
        assert peak <= 2.5 * w.size * 8

    def test_reports_make_no_float64_copy_of_w(self):
        w = source("normal", (512, 1024), "float32", 11)
        x = np.random.default_rng(12).normal(size=(8, 512))
        stats = compute_calibration([x])
        sal = saliency_vector(stats)
        layer = compress_layer(w, stats, LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4)))
        w64_bytes = w.size * 8
        # the difference D is one float64 weight; a copy of w would be another
        _, peak = traced_peak(lambda: error_report(w, layer, x, sal))
        assert peak < 1.5 * w64_bytes
        _, peak = traced_peak(lambda: weight_space_report(w, layer, sal))
        assert peak < 1.5 * w64_bytes

    def test_fp8_peak_is_its_output_plus_4_mib(self):
        x = fp8_source("mixed", (512, 3072), 13)
        (out, _), peak = traced_peak(lambda: fp8_fake_quantize(x))
        # about 1.2x: the output, as_matrix's finiteness mask and one
        # block's temporaries; one whole-matrix float64 temporary fails
        assert peak <= out.nbytes + 4 * 2**20

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
