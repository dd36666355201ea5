import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import (
    CalibrationStats,
    ConfigInvalid,
    IndivisibleDimension,
    NonFinite,
    ShapeMismatch,
    SparsityMask,
    SparsityPattern,
    apply_mask,
    magnitude_scores,
    semistructured_mask,
    unstructured_mask,
    tensor,
    wanda_scores,
)
from slim.artifact import layer_from_tensors, layer_to_tensors
from slim.pipeline import CompressedLayer, LayerCompressionConfig, Provenance
from slim.prune import build_mask

from oracles import nm_group_mask, topk_column_mask


def stats_with_l2(l2):
    l2 = np.asarray(l2, dtype=np.float64)
    return CalibrationStats(
        d_in=l2.size, mean_abs=np.ones_like(l2), l2_norm=l2, token_count=4
    )


class TestSparsityPattern:
    def test_parse_none(self):
        assert SparsityPattern.parse("none") is None

    def test_parse_semistructured(self):
        p = SparsityPattern.parse("2:4")
        assert (p.kind, p.n, p.m) == ("semistructured", 2, 4)
        assert p.spec_string() == "2:4"

    def test_parse_unstructured(self):
        p = SparsityPattern.parse("unstructured:0.5")
        assert (p.kind, p.ratio) == ("unstructured", 0.5)
        assert p.spec_string() == "unstructured:0.5"

    def test_parse_round_trip(self):
        for text in ("2:4", "1:4", "4:8", "unstructured:0.25"):
            assert SparsityPattern.parse(text).spec_string() == text

    @pytest.mark.parametrize("bad", ["4:2", "0:4", "junk", "unstructured:x", "1:2:3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigInvalid):
            SparsityPattern.parse(bad)

    def test_ctor_validation(self):
        with pytest.raises(ConfigInvalid):
            SparsityPattern.unstructured(1.0)
        with pytest.raises(ConfigInvalid):
            SparsityPattern.semistructured(4, 4)
        with pytest.raises(ConfigInvalid):
            SparsityPattern(kind="unstructured", ratio=0.5, n=2, m=4)
        assert SparsityPattern.unstructured(0.0).ratio == 0.0


class TestScores:
    def test_wanda_hand_case(self):
        w = np.array([[1.0, -2.0], [3.0, 4.0]])
        s = wanda_scores(w, stats_with_l2([2.0, 1.0]))
        assert s.tolist() == [[2.0, 4.0], [3.0, 4.0]]

    def test_magnitude(self):
        w = np.array([[-1.5, 0.0], [2.0, -3.0]])
        assert magnitude_scores(w).tolist() == [[1.5, 0.0], [2.0, 3.0]]

    def test_unit_norms_reduce_wanda_to_magnitude(self):
        rng = np.random.default_rng(40)
        w = rng.standard_normal((12, 8))
        s = wanda_scores(w, stats_with_l2(np.ones(12)))
        assert np.array_equal(s, magnitude_scores(w))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            wanda_scores(np.ones((3, 2)), stats_with_l2([1.0, 1.0]))


SCORE_KINDS = ("random", "all_equal", "signed_zeros", "mostly_zero", "few_values")


def scores_of_kind(kind, shape, seed):
    """Score matrices that stress the tie rule: equal columns, -0.0 next to
    0.0, more than half zeros, and only a few distinct values."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random(shape)
    if kind == "all_equal":
        return np.full(shape, rng.random())
    if kind == "signed_zeros":
        return rng.choice([-0.0, 0.0, 1.0], shape)
    if kind == "mostly_zero":
        return np.where(rng.random(shape) < 0.7, 0.0, rng.integers(1, 4, shape))
    return rng.integers(0, 3, shape).astype(float)


class TestMaskParity:
    """The selection masks against the sorting and enumerating oracles."""

    @settings(max_examples=200, deadline=None)
    @given(
        d_in=st.integers(1, 24),
        d_out=st.integers(1, 6),
        kind=st.sampled_from(SCORE_KINDS),
        ratio=st.one_of(st.sampled_from([0.0, 0.5, 0.99]), st.floats(0.0, 0.99)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d_in=1, d_out=3, kind="random", ratio=0.5, seed=0)  # d_in = 1
    @example(d_in=9, d_out=4, kind="all_equal", ratio=0.0, seed=0)  # k = d_in
    @example(d_in=9, d_out=4, kind="all_equal", ratio=0.99, seed=0)  # k = 1
    @example(d_in=16, d_out=5, kind="signed_zeros", ratio=0.5, seed=1)
    @example(d_in=20, d_out=5, kind="mostly_zero", ratio=0.5, seed=2)
    def test_unstructured_matches_sort_oracle(self, d_in, d_out, kind, ratio, seed):
        s = scores_of_kind(kind, (d_in, d_out), seed)
        assert np.array_equal(unstructured_mask(s, ratio).keep, topk_column_mask(s, ratio))

    @pytest.mark.parametrize("n, m", [(n, m) for m in (4, 8) for n in range(1, m)])
    @settings(max_examples=25, deadline=None)
    @given(
        groups=st.integers(1, 4),
        d_out=st.integers(1, 4),
        kind=st.sampled_from(SCORE_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_semistructured_matches_exhaustive_oracle(self, n, m, groups, d_out, kind, seed):
        s = scores_of_kind(kind, (groups * m, d_out), seed)
        assert np.array_equal(semistructured_mask(s, n, m).keep, nm_group_mask(s, n, m))


class TestPackedMask:
    """A mask holds ``np.packbits(keep, axis=1)``; ``keep`` is made on demand."""

    def test_bits_are_the_rows_packed(self):
        keep = np.random.default_rng(3).random((5, 13)) < 0.5
        mask = SparsityMask(keep)
        assert mask.shape == (5, 13) and mask.bits.dtype == np.uint8
        assert mask.bits.tobytes() == np.packbits(keep, axis=1).tobytes()
        assert (mask.kept, mask.density) == (int(keep.sum()), float(keep.mean()))
        assert np.array_equal(mask.rows(slice(1, 3)), keep[1:3])

    def test_keep_is_a_new_array_on_each_access_and_the_bits_are_read_only(self):
        mask = SparsityMask(np.ones((3, 4), bool))
        keep = mask.keep
        keep[:] = False
        assert mask.keep.all() and mask.keep is not mask.keep
        for bits in (mask.bits, build_mask(np.ones((3, 4)), SparsityPattern.unstructured(0.5)).bits):
            with pytest.raises(ValueError):
                bits[0, 0] = 0

    def test_masks_compare_by_shape_and_bits(self):
        keep = np.eye(4, 9, dtype=bool)
        assert SparsityMask(keep) == SparsityMask(keep.copy())
        assert SparsityMask(keep) != SparsityMask(~keep)
        assert SparsityMask(np.zeros((2, 1), bool)) != SparsityMask(np.zeros((2, 2), bool))  # same bits

    def test_an_empty_mask_is_dense(self):
        assert SparsityMask(np.zeros((0, 3), bool)).density == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        groups=st.integers(1, 6),
        d_out=st.integers(1, 24),  # every d_out % 8
        kind=st.sampled_from(SCORE_KINDS),
        pattern=st.sampled_from(["unstructured:0.0", "unstructured:0.5", "unstructured:0.99",
                                 "1:4", "2:4", "3:4"]),
        block=st.sampled_from([1, 7, 64, tensor.BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(groups=3, d_out=13, kind="all_equal", pattern="unstructured:0.0", block=7, seed=0)  # k = d_in
    def test_bit_masks_match_the_oracles_and_round_trip(self, groups, d_out, kind, pattern, block, seed):
        # blocks of one byte of columns and more; each layer's artifact
        # stores np.packbits of the flat mask and reads back to its bytes
        s = scores_of_kind(kind, (4 * groups, d_out), seed)
        p = SparsityPattern.parse(pattern)
        want = topk_column_mask(s, p.ratio) if p.kind == "unstructured" else nm_group_mask(s, p.n, p.m)
        layer = CompressedLayer(
            weights=np.where(want, s, 0.0), mask=None, adapter=None, channel_scaling=None,
            config=LayerCompressionConfig(quant_method="none", sparsity=p),
            provenance=Provenance(rows=4 * groups, cols=d_out),
        )
        with mock.patch.object(tensor, "BLOCK_ELEMENTS", block):
            mask = build_mask(s, p)
            layer = dataclasses.replace(layer, mask=mask)
            tensors = layer_to_tensors(layer)
            back = layer_from_tensors(tensors)
            again = layer_to_tensors(back)
        assert np.array_equal(mask.keep, want)
        assert mask.bits.tobytes() == np.packbits(want, axis=1).tobytes()  # pad bits zero
        assert (mask.kept, mask.density) == (int(want.sum()), float(want.mean()))
        assert tensors["mask_packed"].tobytes() == np.packbits(want.reshape(-1)).tobytes()
        assert back.mask == mask and np.array_equal(back.weights, layer.weights)
        assert {k: v.tobytes() for k, v in again.items()} == {k: v.tobytes() for k, v in tensors.items()}


class TestUnstructuredMask:
    def test_hand_case(self):
        scores = np.array([[3.0], [1.0], [2.0]])
        mask = unstructured_mask(scores, ratio=1 / 3)
        assert mask.keep[:, 0].tolist() == [True, False, True]

    def test_ratio_zero_keeps_all(self):
        mask = unstructured_mask(np.zeros((5, 3)), 0.0)
        assert mask.density == 1.0

    def test_exact_keep_count_per_column(self):
        rng = np.random.default_rng(41)
        for d_in, ratio in [(10, 0.5), (16, 0.25), (7, 0.4), (9, 0.77)]:
            s = rng.random((d_in, 6))
            mask = unstructured_mask(s, ratio)
            k = int(np.ceil((1 - ratio) * d_in))
            assert np.all(mask.keep.sum(axis=0) == k)

    def test_dropped_count_is_floor_of_ratio(self):
        # dyadic ratios make keep = d_in - floor(ratio * d_in) exact
        for d_in, ratio in [(8, 0.5), (16, 0.25), (12, 0.75)]:
            mask = unstructured_mask(np.ones((d_in, 2)), ratio)
            dropped = d_in - int(mask.keep[:, 0].sum())
            assert dropped == int(np.floor(ratio * d_in))

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            s = rng.integers(0, 4, (15, 9)).astype(float)  # heavy ties
            ratio = float(rng.uniform(0.1, 0.9))
            mask = unstructured_mask(s, ratio)
            assert np.array_equal(mask.keep, topk_column_mask(s, ratio))

    def test_ties_keep_lowest_indices(self):
        mask = unstructured_mask(np.ones((6, 1)), 0.5)
        assert mask.keep[:, 0].tolist() == [True, True, True, False, False, False]

    def test_order_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(43)
        s = rng.random((20, 5))
        a = unstructured_mask(s, 0.6)
        b = unstructured_mask(2.0 * s + 3.0, 0.6)
        assert np.array_equal(a.keep, b.keep)

    def test_bad_ratio(self):
        with pytest.raises(ConfigInvalid):
            unstructured_mask(np.ones((4, 4)), 1.0)
        with pytest.raises(ConfigInvalid):
            unstructured_mask(np.ones((4, 4)), -0.1)


class TestSemistructuredMask:
    def test_hand_case_with_ties(self):
        scores = np.array([5.0, 1.0, 4.0, 2.0, 9.0, 9.0, 0.0, 3.0]).reshape(8, 1)
        mask = semistructured_mask(scores, 2, 4)
        assert mask.keep[:, 0].tolist() == [
            True, False, True, False,  # 5 and 4 win
            True, True, False, False,  # tied 9s: lower indices win
        ]

    def test_exactly_n_per_group(self):
        rng = np.random.default_rng(44)
        for n, m in [(2, 4), (1, 4), (3, 6), (4, 8)]:
            s = rng.random((24, 10))
            mask = semistructured_mask(s, n, m)
            groups = mask.keep.reshape(24 // m, m, 10)
            assert np.all(groups.sum(axis=1) == n)
            assert mask.density == n / m

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(45)
        for n, m in [(2, 4), (3, 6)]:
            s = rng.integers(0, 3, (m * 4, 7)).astype(float)  # forced ties
            mask = semistructured_mask(s, n, m)
            assert np.array_equal(mask.keep, nm_group_mask(s, n, m))

    def test_order_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(46)
        s = rng.random((16, 6))
        a = semistructured_mask(s, 2, 4)
        b = semistructured_mask(10.0 * s + 1.0, 2, 4)
        assert np.array_equal(a.keep, b.keep)

    def test_indivisible_dim_rejected(self):
        with pytest.raises(IndivisibleDimension):
            semistructured_mask(np.ones((10, 4)), 2, 4)

    def test_bad_nm(self):
        with pytest.raises(ConfigInvalid):
            semistructured_mask(np.ones((8, 4)), 4, 4)
        with pytest.raises(ConfigInvalid):
            semistructured_mask(np.ones((8, 4)), 0, 4)


class TestApplyAndDispatch:
    def test_apply_zeroes_dropped_only(self):
        rng = np.random.default_rng(47)
        w = rng.standard_normal((12, 5)) + 1.0
        mask = unstructured_mask(np.abs(w), 0.5)
        out = apply_mask(w, mask)
        assert np.array_equal(out[mask.keep], w[mask.keep])
        assert np.all(out[~mask.keep] == 0.0)

    def test_apply_shape_mismatch(self):
        mask = SparsityMask(np.ones((3, 3), bool))
        with pytest.raises(ShapeMismatch):
            apply_mask(np.ones((4, 4)), mask)
        with pytest.raises(ShapeMismatch):
            apply_mask(np.ones((4, 4), np.int8), mask)

    def test_apply_rejects_non_finite_floats(self):
        mask = SparsityMask(np.ones((2, 2), bool))
        with pytest.raises(NonFinite):
            apply_mask(np.array([[1.0, np.nan], [0.0, 1.0]]), mask)

    def test_apply_keeps_integer_codes(self):
        codes = np.arange(-6, 6, dtype=np.int8).reshape(3, 4)
        mask = semistructured_mask(np.abs(codes.astype(float)) + 1, 2, 3)
        out = apply_mask(codes, mask)
        assert out.dtype == np.int8
        assert np.array_equal(out, np.where(mask.keep, codes, 0))

    def test_build_mask_dispatch(self):
        rng = np.random.default_rng(48)
        s = rng.random((8, 4))
        u = build_mask(s, SparsityPattern.unstructured(0.5))
        assert np.array_equal(u.keep, unstructured_mask(s, 0.5).keep)
        v = build_mask(s, SparsityPattern.semistructured(2, 4))
        assert np.array_equal(v.keep, semistructured_mask(s, 2, 4).keep)

    def test_mask_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            SparsityMask(np.ones(6, bool))
        with pytest.raises(ShapeMismatch):
            SparsityMask(np.ones((2, 3, 1), bool))
