import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import (
    AbsHistogram,
    CalibrationStats,
    ChannelScaling,
    ConfigInvalid,
    EmptyTensor,
    NonPositiveAlpha,
    QuantizedTensor,
    ShapeMismatch,
    UnsupportedBitwidth,
    absmax_alpha,
    code_field_bits,
    activation_aware_scale,
    build_abs_histogram,
    dequantize,
    estimate_error,
    group_absmax_quantize,
    quantize_symmetric,
    slimquant_search,
)
import slim
from slim import tensor
from slim.quant import _scale_rows

from oracles import (
    dense_grid_alpha,
    group_absmax_dequant,
    per_element_quant_mse,
    symmetric_dequant,
)


def compensate_activations(x: np.ndarray, scaling) -> np.ndarray:
    """Activations with the scaled channels divided by the factor, in a copy:
    times the scaled weight, the product of ``x`` and the unscaled weight."""
    out = x.copy()
    out[:, scaling.channel_indices] /= scaling.factor
    return out


def stats_from(mean_abs, l2_norm=None, tokens=10):
    mean_abs = np.asarray(mean_abs, dtype=np.float64)
    if l2_norm is None:
        l2_norm = np.ones_like(mean_abs)
    return CalibrationStats(
        d_in=mean_abs.size, mean_abs=mean_abs, l2_norm=np.asarray(l2_norm, float),
        token_count=tokens,
    )


class TestQuantizeSymmetric:
    def test_exact_grid_arithmetic(self):
        w = np.array([[0.0, 0.5, -1.0, 0.26]])
        t = quantize_symmetric(w, alpha=1.0, q=4)
        assert t.codes.tolist() == [[0, 4, -8, 2]]
        assert np.allclose(dequantize(t), [[0.0, 0.5, -1.0, 0.25]])

    def test_clamp_at_positive_boundary(self):
        t = quantize_symmetric(np.array([[1.0]]), alpha=1.0, q=4)
        assert t.codes.tolist() == [[7]]
        assert dequantize(t)[0, 0] == pytest.approx(0.875)

    def test_half_step_bound_inside_unclamped_range(self):
        # values up to alpha - step/2 never hit the top clamp, so the
        # round-off bound step/2 holds exactly
        rng = np.random.default_rng(8)
        alpha, q = 1.3, 4
        step = alpha * 2.0 ** (1 - q)
        w = rng.uniform(-alpha, alpha - step / 2, (10, 10))
        t = quantize_symmetric(w, alpha, q)
        err = np.abs(dequantize(t) - w)
        assert err.max() <= step / 2 + 1e-7

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for q in (2, 3, 4, 8):
            w = rng.standard_normal((7, 11)) * 2.0
            t = quantize_symmetric(w, alpha=1.7, q=q)
            assert np.allclose(dequantize(t), symmetric_dequant(w, 1.7, q), atol=0)

    def test_half_away_rounding(self):
        # 0.5 rounds to code 1, -0.5 to code -1 at step 1 (alpha=8, q=4)
        t = quantize_symmetric(np.array([[0.5, -0.5, 1.5, -1.5]]), alpha=8.0, q=4)
        assert t.codes.tolist() == [[1, -1, 2, -2]]

    def test_requant_idempotent(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((6, 6))
        t1 = quantize_symmetric(w, 1.1, 4)
        t2 = quantize_symmetric(dequantize(t1), 1.1, 4)
        assert np.array_equal(t1.codes, t2.codes)

    def test_bad_alpha_and_bits(self):
        w = np.ones((2, 2))
        with pytest.raises(NonPositiveAlpha):
            quantize_symmetric(w, 0.0, 4)
        with pytest.raises(NonPositiveAlpha):
            quantize_symmetric(w, -1.0, 4)
        for q in (1, 9):
            with pytest.raises(UnsupportedBitwidth):
                quantize_symmetric(w, 1.0, q)


class TestDequantize:
    def test_zero_codes(self):
        t = quantize_symmetric(np.zeros((3, 3)), 1.0, 4)
        assert np.all(dequantize(t) == 0.0)

    def test_on_grid_round_trip(self):
        alpha, q = 2.0, 4
        step = alpha * 2.0 ** (1 - q)
        w = np.array([[-8, -3, 0, 5, 7]], dtype=np.float64) * step
        t = quantize_symmetric(w, alpha, q)
        assert np.array_equal(dequantize(t), w)

    def test_grouped_scale_hand_case(self):
        t = group_absmax_quantize(np.array([[1.0, -7.0, 3.0, 0.0]]), group_size=4, q=4)
        assert t.scales.tolist() == [7.0]
        assert t.codes.tolist() == [[1, -7, 3, 0]]
        assert np.array_equal(dequantize(t), [[1.0, -7.0, 3.0, 0.0]])
        # the max-magnitude element is always exact
        assert dequantize(t)[0, 1] == -7.0

    @pytest.mark.parametrize("group_size", [None, 1, 5, 12, 64])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_bit_identical_to_out_of_place_products(self, group_size, order, q):
        rng = np.random.default_rng(96 + q)
        codes = np.asarray(rng.integers(-(1 << (q - 1)), 1 << (q - 1), (12, 9)), np.int8, order=order)
        n = 1 if group_size is None else -(-codes.size // group_size)
        t = QuantizedTensor(codes, rng.uniform(0.01, 3.0, n), group_size, q)
        if group_size is None:
            old = codes.astype(np.float64) * (float(t.scales[0]) * 2.0 ** (1 - q))
        else:
            flat = codes.astype(np.float64).ravel()
            per_elem = np.repeat(t.scales / float((1 << (q - 1)) - 1), group_size)[: flat.size]
            old = (flat * per_elem).reshape(codes.shape)
        # 9 columns: groups of 5, 12 and 64 straddle rows, and blocks of 100,
        # 18 and 1 elements give gathered row blocks of eleven rows, two or
        # one
        for block in (tensor.BLOCK_ELEMENTS, 100, 18, 1):
            with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
                new = dequantize(t)
                assert new.dtype == np.float64 and new.shape == codes.shape
                # a new C-ordered array whatever the codes' layout: the holder
                # packs them by rows
                assert new.flags.c_contiguous
                assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
                for rows, cols in [(slice(None), slice(2, 7)), (slice(3, 11), slice(None)),
                                   (slice(1, 12), slice(4, 9)), (slice(5, 6), slice(8, 9))]:
                    got = dequantize(t, rows, cols)
                    assert got.dtype == np.float64 and got.shape == old[rows, cols].shape
                    assert np.array_equal(got.view(np.uint64), old[rows, cols].view(np.uint64))
        assert np.array_equal(t.codes, codes)

    @pytest.mark.parametrize("group_size", [1, 3, 4, 6, 12])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_blocks_give_the_bits_of_the_whole_matrix(self, group_size, order):
        # groups that divide the 12 columns: a block of columns on group
        # boundaries is scaled by a broadcast, any other by a gather; both
        # give the bits of the same columns of the whole dequantize
        rng = np.random.default_rng(97 + group_size)
        codes = np.asarray(rng.integers(-7, 8, (10, 12)), np.int8, order=order)
        t = QuantizedTensor(codes, rng.uniform(0.01, 3.0, codes.size // group_size), group_size, 4)
        whole = dequantize(t)
        for rows in (slice(None), slice(2, 9), slice(1, None, 3), slice(4, 4)):
            for cols in (slice(0, 12), slice(0, 6), slice(6, 12), slice(3, 9), slice(12, 12),
                         slice(1, 12), slice(0, 11), slice(2, 7), slice(0, 12, 2), slice(9, 3)):
                got = dequantize(t, rows, cols)
                assert got.dtype == np.float64 and got.shape == whole[rows, cols].shape
                assert np.array_equal(got.view(np.uint64), whole[rows, cols].view(np.uint64))
        assert np.array_equal(t.codes, codes)


def int8_dequantize(codes: np.ndarray, scales: np.ndarray, group_size, q: int) -> np.ndarray:
    """The dequantize of an int8 code matrix: each code widened, times its step."""
    if group_size is None:
        return codes.astype(np.float64) * (float(scales[0]) * 2.0 ** (1 - q))
    flat = codes.astype(np.float64).ravel()
    flat *= np.repeat(scales / float((1 << (q - 1)) - 1), group_size)[: flat.size]
    return flat.reshape(codes.shape)


class TestQuantizedTensor:
    def test_codes_are_checked_before_they_narrow(self):
        # 200 is -56 as an int8
        with pytest.raises(UnsupportedBitwidth, match="8-bit range"):
            QuantizedTensor(np.array([[200, 3]]), [1.0], None, 8)

    @pytest.mark.parametrize("codes", [[[1.7, 3.0]], [[1.0, 3.0]], [[True, False]]])
    def test_codes_must_be_integers(self, codes):
        with pytest.raises(UnsupportedBitwidth, match="integers"):
            QuantizedTensor(np.array(codes), [1.0], None, 4)

    @pytest.mark.parametrize("bits, codes, fields", [
        (4, [[1, -2, 7], [-8, 0, 3]], [[0xE1, 0x07], [0x08, 0x03]]),  # each row padded to whole bytes
        (2, [[1, -1, 0, -2, 1]], [[0b10_00_11_01, 0b01]]),
        (3, [[-4, 3]], [[0x3C]]),  # 3-bit codes in 4-bit fields
        (8, [[-128, 127]], [[0x80, 0x7F]]),
    ])
    def test_held_layout(self, bits, codes, fields):
        t = QuantizedTensor(np.array(codes), [1.0], None, bits)
        assert t.fields.dtype == np.uint8 and t.fields.tolist() == fields
        assert t.shape == np.shape(codes) and not t.fields.flags.writeable
        assert t.codes.dtype == np.int8 and t.codes.tolist() == codes

    def test_equality_is_shape_fields_scales_group_and_bits(self):
        codes = np.array([[1, -2, 3, 0]])
        t = QuantizedTensor(codes, [1.0, 2.0], 2, 4)
        assert t == QuantizedTensor(codes.astype(np.int64), [1.0, 2.0], 2, 4)
        assert t != QuantizedTensor(codes.reshape(2, 2), [1.0, 2.0], 2, 4)
        assert t != QuantizedTensor(codes, [1.0, 3.0], 2, 4)
        assert t != QuantizedTensor(codes, [1.0], None, 4)
        assert t != QuantizedTensor(codes, [1.0, 2.0], 2, 5)
        assert t != QuantizedTensor(-codes, [1.0, 2.0], 2, 4)

    @settings(max_examples=150, deadline=None)
    @given(
        bits=st.integers(2, 8),
        rows=st.integers(1, 9),
        cols=st.integers(1, 19),
        group_size=st.sampled_from([None, 1, 3, 4, 8, 16]),
        block=st.sampled_from([tensor.BLOCK_ELEMENTS, 7, 1]),
        data=st.data(),
    )
    @example(bits=4, rows=3, cols=5, group_size=None, block=7, data=None)  # odd d_out, 4-bit fields
    @example(bits=2, rows=2, cols=7, group_size=4, block=1, data=None)
    def test_round_trip_and_blocks_match_the_int8_codes(self, bits, rows, cols, group_size, block, data):
        # the held fields give back the codes, and any block of the
        # dequantize, unaligned column starts included, has the bits of the
        # int8 codes' products
        seed = 0 if data is None else data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        codes = rng.integers(lo, hi + 1, (rows, cols)).astype(np.int8)
        n = 1 if group_size is None else -(-codes.size // group_size)
        t = QuantizedTensor(codes, rng.uniform(0.01, 3.0, n), group_size, bits)
        assert t.fields.shape == (rows, -(-cols * code_field_bits(bits) // 8))
        ref = int8_dequantize(codes, t.scales, group_size, bits)
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            assert np.array_equal(t.codes, codes) and t.codes.dtype == np.int8
            spans = [(0, rows, 0, cols), (0, rows, 1, cols), (1, rows, 0, cols - 1)]
            if data is not None:
                r0, c0 = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
                spans.append((r0, data.draw(st.integers(r0, rows)), c0, data.draw(st.integers(c0, cols))))
            for r0, r1, c0, c1 in spans:
                got = dequantize(t, slice(r0, r1), slice(c0, c1))
                want = ref[r0:r1, c0:c1]
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAbsMax:
    def test_definition(self):
        assert absmax_alpha(np.array([[0.1, -2.5, 0.3]])) == 2.5

    def test_zero_fallback(self):
        assert absmax_alpha(np.zeros((4, 4))) == 1.0

    def test_random_scan_oracle(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((25, 40))
        expected = max(abs(float(v)) for v in w.ravel())
        assert absmax_alpha(w) == expected

    def test_empty_rejected(self):
        with pytest.raises(EmptyTensor):
            absmax_alpha(np.zeros((0, 3)))


class TestGroupAbsMax:
    def test_constant_group_lossless(self):
        w = np.full((1, 4), 0.37)
        t = group_absmax_quantize(w, group_size=4, q=4)
        assert np.array_equal(dequantize(t), w)

    def test_two_groups_and_error_bound(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((2, 128))
        t = group_absmax_quantize(w, group_size=128, q=4)
        assert t.scales.shape == (2,)
        qmax = 2 ** (4 - 1) - 1
        per_elem_scale = np.repeat(t.scales, 128).reshape(w.shape)
        err = np.abs(dequantize(t) - w)
        assert np.all(err <= per_elem_scale / (2 * qmax) + 1e-7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((5, 13))  # 65 elements, ragged final group
        for gs in (1, 4, 7, 128):
            t = group_absmax_quantize(w, group_size=gs, q=3)
            assert np.allclose(dequantize(t), group_absmax_dequant(w, gs, 3), atol=0)

    def test_zero_group_fallback_scale(self):
        w = np.zeros((1, 8))
        t = group_absmax_quantize(w, group_size=4, q=4)
        assert t.scales.tolist() == [1.0, 1.0]
        assert np.all(dequantize(t) == 0.0)

    def test_bad_args(self):
        w = np.ones((2, 2))
        with pytest.raises(UnsupportedBitwidth):
            group_absmax_quantize(w, 4, 1)
        with pytest.raises(ConfigInvalid):
            group_absmax_quantize(w, 0, 4)


class TestEstimateError:
    def test_zero_weights_zero_error(self):
        h = build_abs_histogram(np.zeros((10, 10)), num_bins=16)
        for alpha in (0.1, 1.0, 7.0):
            assert estimate_error(h, alpha, 4) == 0.0

    def test_on_grid_point_mass(self):
        # one bin centered exactly at v = 1.0; alpha = 2 puts v on the
        # 4-bit grid (v = 4 * step, step = 0.25)
        v = 1.0
        h = AbsHistogram(max_abs=2 * v, num_bins=1, counts=np.array([100]), total=100)
        assert h.bin_centers()[0] == v
        assert estimate_error(h, 2.0, 4) <= 1e-10

    def test_matches_per_element_oracle_laplace(self):
        rng = np.random.default_rng(15)
        w = rng.laplace(0.0, 1.0, (100, 100))
        h = build_abs_histogram(w, num_bins=2000)
        est = estimate_error(h, 1.5, 4)
        direct = per_element_quant_mse(w, 1.5, 4)
        assert est == pytest.approx(direct, rel=0.02)

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(16)
        h = build_abs_histogram(rng.standard_normal((40, 40)), num_bins=256)
        alphas = np.linspace(1e-3, 2 * h.max_abs, 200)
        errs = estimate_error(h, alphas, 4)
        assert np.all(errs >= 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        h = build_abs_histogram(rng.standard_normal((30, 30)), num_bins=128)
        alphas = np.array([0.3, 1.0, 2.2])
        batch = estimate_error(h, alphas, 4)
        singles = [estimate_error(h, a, 4) for a in alphas]
        assert all(isinstance(e, float) for e in singles)
        assert batch.shape == (3,)
        # reduction order may differ between the array and scalar matvec
        assert np.allclose(batch, singles, rtol=1e-12, atol=0)

    def test_bad_alpha(self):
        h = build_abs_histogram(np.ones((2, 2)), num_bins=4)
        with pytest.raises(NonPositiveAlpha):
            estimate_error(h, 0.0, 4)
        with pytest.raises(NonPositiveAlpha):
            estimate_error(h, np.array([1.0, np.nan]), 4)
        with pytest.raises(ShapeMismatch):
            estimate_error(h, np.ones((2, 2)), 4)


class TestSlimquantSearch:
    def test_two_point_distribution_near_zero_error(self):
        c = 0.75
        w = np.array([[c, -c] * 50])
        h = build_abs_histogram(w, num_bins=512)
        alpha, err = slimquant_search(h, 4)
        assert err <= 1e-6 * c * c
        # sanity: the dense oracle also finds a near-zero-error scale
        _, dense_err = dense_grid_alpha(h, 4)
        assert dense_err <= 1e-6 * c * c

    def test_matches_dense_oracle_gaussian(self):
        rng = np.random.default_rng(18)
        w = rng.standard_normal((400, 250))  # 1e5 samples
        h = build_abs_histogram(w)
        alpha, err = slimquant_search(h, 4)
        _, dense_err = dense_grid_alpha(h, 4)
        assert err <= 1.02 * dense_err

    def test_all_zero_fallback(self):
        h = build_abs_histogram(np.zeros((5, 5)), num_bins=8)
        assert slimquant_search(h, 4) == (1.0, 0.0)

    def test_never_worse_than_absmax(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            w = rng.laplace(0.0, 1.0, (50, 50))
            h = build_abs_histogram(w)
            _, err = slimquant_search(h, 4)
            absmax_err = estimate_error(h, absmax_alpha(w), 4)
            assert err <= absmax_err + 1e-15


class TestChannelScaling:
    @pytest.mark.parametrize("idx", [[3, 1, 3], [0, -2], [5, 5], [-1]])
    def test_duplicate_or_negative_indices_refused(self, idx):
        with pytest.raises(ConfigInvalid, match="unique and non-negative"):
            ChannelScaling(np.array(idx), 2.0)

    def test_valid_indices_kept_in_order(self):
        assert ChannelScaling(np.array([4, 0, 2]), 2.0).channel_indices.tolist() == [4, 0, 2]
        assert ChannelScaling(np.array([], dtype=np.int64), 2.0).channel_indices.size == 0

    def test_does_not_load_numpy_ma(self):
        # numpy 2 imports numpy.ma on the first np.unique, 8-13 ms of every
        # scaled compress and eval process
        code = ("import sys, numpy; ma = 'numpy.ma' in sys.modules; "
                "from slim import ChannelScaling; ChannelScaling(numpy.array([2, 0, 5]), 2.0); "
                "print(ma, 'numpy.ma' in sys.modules)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(slim.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout.split()
        if out[0] == "True":
            pytest.skip("import numpy alone loads numpy.ma here (numpy 1.x)")
        assert out == ["False", "False"]


class TestActivationAwareScale:
    def test_full_fraction_identity_after_compensation(self):
        rng = np.random.default_rng(20)
        w = rng.standard_normal((16, 8))
        x = rng.standard_normal((10, 16))
        st = stats_from(np.abs(x).mean(axis=0))
        scaling = activation_aware_scale(w, st, fraction=1.0, s=2.0)
        w_scaled = _scale_rows(w.copy(), scaling, slice(None))  # the whole weight as one block
        assert scaling.channel_indices.size == 16
        x_comp = compensate_activations(x, scaling)
        ref = x @ w
        out = x_comp @ w_scaled
        assert np.linalg.norm(out - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_dominant_row_selected(self):
        w = np.eye(8) * 0.01
        w[3, :] = 5.0
        st = stats_from(np.ones(8))
        scaling = activation_aware_scale(w, st, fraction=0.01, s=2.0)
        assert scaling.channel_indices.tolist() == [3]

    def test_matches_brute_force_topk(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((64, 32))
        mean_abs = rng.uniform(0.1, 2.0, 64)
        st = stats_from(mean_abs)
        scaling = activation_aware_scale(w, st, fraction=0.05, s=2.0)
        saliency = (mean_abs / mean_abs.max()) * (
            np.abs(w).mean(axis=1) / np.abs(w).mean(axis=1).max()
        )
        k = int(np.ceil(0.05 * 64))
        expected = sorted(sorted(range(64), key=lambda i: (-saliency[i], i))[:k])
        assert scaling.channel_indices.tolist() == expected

    def test_scaled_rows_multiplied(self):
        rng = np.random.default_rng(22)
        w = rng.standard_normal((10, 4))
        st = stats_from(rng.uniform(0.5, 1.5, 10))
        scaling = activation_aware_scale(w, st, fraction=0.2, s=3.0)
        idx = scaling.channel_indices
        w_scaled = _scale_rows(w.copy(), scaling, slice(None))  # the whole weight as one block
        assert np.allclose(w_scaled[idx], 3.0 * w[idx])
        rest = np.setdiff1d(np.arange(10), idx)
        assert np.array_equal(w_scaled[rest], w[rest])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            activation_aware_scale(np.ones((4, 4)), stats_from(np.ones(5)))

    def test_bad_params(self):
        st = stats_from(np.ones(4))
        with pytest.raises(ConfigInvalid):
            activation_aware_scale(np.ones((4, 4)), st, fraction=0.0)
        with pytest.raises(ConfigInvalid):
            activation_aware_scale(np.ones((4, 4)), st, s=1.0)
