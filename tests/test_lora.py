import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import (
    CalibrationStats,
    ConfigInvalid,
    EmptyStats,
    EmptyTensor,
    LowRankAdapter,
    NonFinite,
    NonPositiveSaliency,
    RankOutOfRange,
    SaliencyVector,
    ShapeMismatch,
    default_rank,
    dequantize,
    group_absmax_quantize,
    naive_lora,
    quantize_adapter,
    saliency_vector,
    slim_lora,
    svd_truncated,
)

from oracles import best_rank_r_residual


def stats_from_mean_abs(mean_abs, tokens=16):
    mean_abs = np.asarray(mean_abs, dtype=np.float64)
    return CalibrationStats(
        d_in=mean_abs.size,
        mean_abs=mean_abs,
        l2_norm=np.ones_like(mean_abs),
        token_count=tokens,
    )


def random_competitors(rng, d_in, d_out, r, count):
    for _ in range(count):
        yield rng.standard_normal((d_in, r)), rng.standard_normal((r, d_out))


class TestDefaultRank:
    def test_examples(self):
        assert default_rank(64, 64) == 7  # ceil(6.4)
        assert default_rank(100, 50) == 5
        assert default_rank(3, 3) == 1
        assert default_rank(4, 1000, rank_ratio=0.01) == 1  # floor would be 0


class TestSaliencyVector:
    def test_strictly_positive_required(self):
        with pytest.raises(NonPositiveSaliency):
            SaliencyVector(np.array([1.0, 0.0]))
        with pytest.raises(NonPositiveSaliency):
            SaliencyVector(np.array([1.0, -0.5]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyStats):
            SaliencyVector(np.array([]))

    def test_constant(self):
        v = SaliencyVector.constant(4, 2.5)
        assert len(v) == 4
        assert np.all(v.values == 2.5)

    def test_from_stats_always_positive(self):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            mean_abs = rng.uniform(0, 3.0, rng.integers(1, 20))
            mean_abs[rng.random(mean_abs.size) < 0.3] = 0.0  # silent channels
            v = saliency_vector(stats_from_mean_abs(mean_abs))
            assert np.all(v.values > 0.0)

    def test_from_stats_preserves_ordering(self):
        v = saliency_vector(stats_from_mean_abs([0.0, 2.0, 1.0]))
        assert v.values[1] > v.values[2] > v.values[0]

    def test_zero_channel_stats_unconstructible(self):
        # stats themselves refuse d_in = 0, so saliency never sees it
        from slim import EmptyInput

        with pytest.raises(EmptyInput):
            CalibrationStats(
                d_in=0, mean_abs=np.array([]), l2_norm=np.array([]), token_count=1
            )


class TestNaiveLora:
    def test_zero_error_gives_zero_correction(self):
        rng = np.random.default_rng(51)
        w = rng.standard_normal((8, 6))
        a = naive_lora(w, w, 2)
        assert np.allclose(a.correction(), 0.0, atol=1e-12)

    def test_rank_one_error_recovered_exactly(self):
        rng = np.random.default_rng(52)
        w_c = rng.standard_normal((10, 7))
        u = rng.standard_normal((10, 1))
        v = rng.standard_normal((1, 7))
        w = w_c + u @ v
        a = naive_lora(w, w_c, 1)
        assert np.allclose(w_c + a.correction(), w, atol=1e-10)

    def test_full_rank_recovers_error(self):
        rng = np.random.default_rng(53)
        w = rng.standard_normal((6, 9))
        w_c = rng.standard_normal((6, 9))
        a = naive_lora(w, w_c, 6)
        assert np.allclose(a.correction(), w - w_c, atol=1e-10)

    def test_residual_matches_eigen_oracle(self):
        rng = np.random.default_rng(54)
        w = rng.standard_normal((12, 9))
        w_c = rng.standard_normal((12, 9))
        for r in (1, 3, 5):
            a = naive_lora(w, w_c, r)
            res = np.linalg.norm(w - w_c - a.correction(), "fro")
            assert res == pytest.approx(best_rank_r_residual(w - w_c, r), rel=1e-9, abs=1e-12)

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(55)
        w = rng.standard_normal((10, 10))
        w_c = rng.standard_normal((10, 10))
        a = naive_lora(w, w_c, 3)
        res = np.linalg.norm(w - w_c - a.correction(), "fro")
        for cl, cr in random_competitors(rng, 10, 10, 3, 50):
            other = np.linalg.norm(w - w_c - cl @ cr, "fro")
            assert res <= other + 1e-9

    def test_shape_and_rank_errors(self):
        for w, w_c, error in [
            (np.ones((3, 3)), np.ones((4, 3)), ShapeMismatch),
            (np.float64(1.0), np.ones((1, 1)), ShapeMismatch),  # 0-D
            (np.ones(3), np.ones((3, 1)), ShapeMismatch),
            (np.ones((3, 3)), np.ones(3), ShapeMismatch),
            (np.ones((0, 3)), np.ones((0, 3)), EmptyTensor),
            (np.ones((3, 3)), np.full((3, 3), np.nan), NonFinite),
        ]:
            with pytest.raises(error):
                naive_lora(w, w_c, 1)
        with pytest.raises(RankOutOfRange):
            naive_lora(np.ones((3, 3)), np.zeros((3, 3)), 0)
        with pytest.raises(RankOutOfRange):
            naive_lora(np.ones((3, 3)), np.zeros((3, 3)), 4)


def parent_naive_lora(w, w_c, r):
    """The naive fit written out on its own, the truncated SVD of w - w_c:
    the reference naive_lora (slim_lora at unit saliency) must reproduce."""
    return svd_truncated(np.asarray(w, np.float64) - np.asarray(w_c, np.float64), r)


class TestOneFitPath:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 10),
        cols=st.integers(1, 10),
        dtype=st.sampled_from(["float32", "float64"]),
        error=st.sampled_from(["dense", "zero", "zero_rows"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    # the explicit examples (tall, wide, square) fit at full rank
    @example(rows=9, cols=4, dtype="float32", error="dense", data=None, seed=0)
    @example(rows=4, cols=9, dtype="float64", error="zero_rows", data=None, seed=1)
    @example(rows=6, cols=6, dtype="float64", error="zero", data=None, seed=2)
    def test_naive_is_the_parent_formula_bit_for_bit(self, rows, cols, dtype, error, data, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, cols)).astype(dtype)
        other = rng.standard_normal((rows, cols)).astype(dtype)
        w_c = {
            "dense": other,
            "zero": w.copy(),
            "zero_rows": np.where(rng.random((rows, 1)) < 0.5, w, other),
        }[error]
        k = min(rows, cols)
        r = k if data is None else data.draw(st.integers(1, k), label="rank")
        a = naive_lora(w, w_c, r)
        left, right = parent_naive_lora(w, w_c, r)
        assert a.left.dtype == a.right.dtype == np.float64
        # bytes, not values: the sign of a zero entry is kept too
        assert a.left.tobytes() == left.tobytes()
        assert a.right.tobytes() == right.tobytes()


class TestSlimLora:
    def test_constant_saliency_equals_naive(self):
        rng = np.random.default_rng(56)
        w = rng.standard_normal((9, 12))
        w_c = rng.standard_normal((9, 12))
        for c in (1.0, 3.7):
            a = slim_lora(w, w_c, SaliencyVector.constant(9, c), 4)
            b = naive_lora(w, w_c, 4)
            assert np.allclose(a.correction(), b.correction(), atol=1e-9)

    def test_weighted_residual_matches_eigen_oracle(self):
        rng = np.random.default_rng(57)
        # d_in > d_out, and d_in < d_out as in an fc1 projection
        for d_in, d_out in ((14, 10), (10, 40)):
            w = rng.standard_normal((d_in, d_out))
            w_c = rng.standard_normal((d_in, d_out))
            xv = rng.uniform(0.2, 3.0, d_in)
            for r in (1, 4):
                a = slim_lora(w, w_c, SaliencyVector(xv), r)
                res = np.linalg.norm(xv[:, None] * (w - w_c - a.correction()), "fro")
                expected = best_rank_r_residual(xv[:, None] * (w - w_c), r)
                assert res == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_beats_competitors_in_weighted_norm(self):
        rng = np.random.default_rng(58)
        w = rng.standard_normal((10, 8))
        w_c = rng.standard_normal((10, 8))
        xv = rng.uniform(0.5, 2.0, 10)
        a = slim_lora(w, w_c, SaliencyVector(xv), 2)
        res = np.linalg.norm(xv[:, None] * (w - w_c - a.correction()), "fro")
        for cl, cr in random_competitors(rng, 10, 8, 2, 50):
            other = np.linalg.norm(xv[:, None] * (w - w_c - cl @ cr), "fro")
            assert res <= other + 1e-9

    def test_may_lose_to_naive_in_unweighted_norm_but_wins_weighted(self):
        # the two variants optimize different norms; each wins at its own
        rng = np.random.default_rng(59)
        w = rng.standard_normal((12, 12))
        w_c = w + rng.standard_normal((12, 12))
        xv = rng.uniform(0.1, 4.0, 12)
        sal = SaliencyVector(xv)
        s = slim_lora(w, w_c, sal, 3)
        n = naive_lora(w, w_c, 3)
        weighted = lambda adapter: np.linalg.norm(
            xv[:, None] * (w - w_c - adapter.correction()), "fro"
        )
        unweighted = lambda adapter: np.linalg.norm(
            w - w_c - adapter.correction(), "fro"
        )
        assert weighted(s) <= weighted(n) + 1e-9
        assert unweighted(n) <= unweighted(s) + 1e-9

    def test_full_rank_recovers_error(self):
        rng = np.random.default_rng(60)
        w = rng.standard_normal((7, 7))
        w_c = rng.standard_normal((7, 7))
        a = slim_lora(w, w_c, SaliencyVector(rng.uniform(0.5, 2.0, 7)), 7)
        assert np.allclose(a.correction(), w - w_c, atol=1e-9)

    def test_saliency_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            slim_lora(np.ones((4, 4)), np.zeros((4, 4)), SaliencyVector.constant(3), 1)


class TestAdapterAlgebra:
    def test_correction_additivity(self):
        # correcting toward w in two rank-r pieces equals one rank-2r piece
        # when the error is exactly rank 2r; checks the factor conventions
        rng = np.random.default_rng(61)
        u = rng.standard_normal((10, 4))
        v = rng.standard_normal((4, 8))
        err = u @ v
        w_c = rng.standard_normal((10, 8))
        a = naive_lora(w_c + err, w_c, 4)
        assert np.allclose(a.correction(), err, atol=1e-9)

    def test_adapter_shape_properties(self):
        a = LowRankAdapter(left=np.ones((6, 2)), right=np.ones((2, 9)))
        assert a.rank == a.left.shape[1] == 2
        assert a.correction().shape == (6, 9)

    def test_rank_field_validation(self):
        # factors that do not chain (2 columns, 3 rows) name no rank
        with pytest.raises(ShapeMismatch):
            LowRankAdapter(left=np.ones((6, 2)), right=np.ones((3, 9)))


class TestAdapterFromCodes:
    @settings(max_examples=80, deadline=None)
    @given(
        d_in=st.integers(1, 9),
        d_out=st.integers(1, 9),
        rank=st.integers(1, 4),
        group_size=st.integers(1, 20),
        bits=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factors_are_their_codes_dequantized(self, d_in, d_out, rank, group_size, bits, seed):
        rng = np.random.default_rng(seed)
        ql = group_absmax_quantize(rng.standard_normal((d_in, rank)), group_size, bits)
        qr = group_absmax_quantize(rng.standard_normal((rank, d_out)), group_size, bits)
        a = LowRankAdapter(ql, qr)
        assert a.quantized[0] is ql and a.quantized[1] is qr
        assert a.left.tobytes() == dequantize(ql).tobytes()
        assert a.right.tobytes() == dequantize(qr).tobytes()
        assert a.rank == rank

    def test_each_factor_is_given_once(self):
        ql = group_absmax_quantize(np.ones((4, 2)), 4, 4)
        qr = group_absmax_quantize(np.ones((2, 3)), 4, 4)
        # codes beside factors they may disagree with are not accepted
        with pytest.raises(TypeError):
            LowRankAdapter(np.zeros((4, 2)), np.zeros((2, 3)), quantized=(ql, qr))
        with pytest.raises(ConfigInvalid):
            LowRankAdapter(ql, np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            LowRankAdapter(ql, group_absmax_quantize(np.ones((3, 3)), 4, 4))
        assert LowRankAdapter(np.ones((4, 2)), np.ones((2, 3))).quantized is None


class TestQuantizeAdapter:
    def test_round_trip_error_bounded(self):
        rng = np.random.default_rng(62)
        base = naive_lora(rng.standard_normal((32, 32)), np.zeros((32, 32)), 4)
        q = quantize_adapter(base, group_size=16)
        assert q.quantized is not None
        # per-element error of each factor is at most scale / (2 * qmax)
        for orig, deq, qt in [
            (base.left, q.left, q.quantized[0]),
            (base.right, q.right, q.quantized[1]),
        ]:
            qmax = 2 ** (4 - 1) - 1
            per = np.repeat(qt.scales, 16)[: orig.size].reshape(orig.shape)
            assert np.all(np.abs(deq - orig) <= per / (2 * qmax) + 1e-9)

    def test_dequantized_fields_consistent(self):
        from slim import dequantize

        rng = np.random.default_rng(63)
        base = naive_lora(rng.standard_normal((8, 8)), np.zeros((8, 8)), 2)
        q = quantize_adapter(base, group_size=4)
        assert np.array_equal(q.left, dequantize(q.quantized[0]))
        assert np.array_equal(q.right, dequantize(q.quantized[1]))
        assert q.rank == base.rank

    def test_correction_uses_quantized_values(self):
        rng = np.random.default_rng(64)
        base = naive_lora(rng.standard_normal((16, 16)), np.zeros((16, 16)), 3)
        q = quantize_adapter(base)
        assert np.array_equal(q.correction(), q.left @ q.right)
