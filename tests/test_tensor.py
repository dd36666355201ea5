import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import (
    EmptyTensor,
    NonFinite,
    RankOutOfRange,
    build_abs_histogram,
    default_num_bins,
    svd_truncated,
    tensor,
)

from oracles import best_rank_r_residual, singular_values_desc


class TestHistogram:
    def test_default_bin_rule(self):
        # middle branch of the rule: 1e6 elements -> 1000 bins
        assert default_num_bins(1000 * 1000) == 1000
        assert default_num_bins(10) == 512
        assert default_num_bins(10**9) == 20000
        w = np.ones((1000, 1000), dtype=np.float64)
        h = build_abs_histogram(w)
        assert h.num_bins == 1000

    def test_all_zero_mass_in_first_bin(self):
        h = build_abs_histogram(np.zeros((3, 5)), num_bins=7)
        assert h.max_abs == 0.0
        assert h.counts[0] == 15
        assert h.counts[1:].sum() == 0
        assert h.total == 15

    def test_hand_enumerated_bins(self):
        w = np.array([[-2.0, -1.0, 0.0, 1.0, 2.0]])
        h = build_abs_histogram(w, num_bins=4)
        assert h.max_abs == 2.0
        assert h.counts.tolist() == [1, 2, 0, 2]

    def test_max_value_lands_in_last_bin(self):
        w = np.array([[0.5, 1.0, 1.0]])
        h = build_abs_histogram(w, num_bins=10)
        assert h.counts[-1] == 2

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            bins = int(rng.integers(1, 64))
            w = rng.standard_normal((rows, cols))
            h = build_abs_histogram(w, num_bins=bins)
            assert int(h.counts.sum()) == rows * cols == h.total

    def test_empty_rejected(self):
        with pytest.raises(EmptyTensor):
            build_abs_histogram(np.zeros((0, 4)))

    def test_bin_centers_and_probs(self):
        h = build_abs_histogram(np.array([[1.0, -1.0]]), num_bins=2)
        assert np.allclose(h.bin_centers(), [0.25, 0.75])
        assert np.allclose(h.probabilities(), [0.0, 1.0])


class TestSvdTruncated:
    def test_rank1_exact(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((8, 1))
        v = rng.standard_normal((1, 5))
        m = u @ v
        left, right = svd_truncated(m, 1)
        assert left.shape == (8, 1) and right.shape == (1, 5)
        err = np.linalg.norm(left @ right - m)
        assert err <= 1e-5 * np.linalg.norm(m)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 9))
        left, right = svd_truncated(m, 6)
        assert np.linalg.norm(left @ right - m) <= 1e-4 * np.linalg.norm(m)

    def test_residual_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(2)
        # tall, wide and square; the 40x90 and 90x40 cases have the nearly
        # flat spectrum of compression error (uniform rounding noise)
        cases = [
            (rng.standard_normal((6, 4)), 2),
            (rng.standard_normal((4, 6)), 2),
            (rng.standard_normal((30, 30)), 3),
            (rng.uniform(-0.5, 0.5, (40, 90)), 4),
            (rng.uniform(-0.5, 0.5, (90, 40)), 4),
        ]
        for m, r in cases:
            left, right = svd_truncated(m, r)
            resid = np.linalg.norm(m - left @ right)
            assert resid == pytest.approx(best_rank_r_residual(m, r), rel=1e-9)

    def test_singular_values_fold_into_left(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 7))
        left, right = svd_truncated(m, 3)
        # right rows orthonormal, left columns carry the singular values
        assert np.allclose(right @ right.T, np.eye(3), atol=1e-10)
        svals = singular_values_desc(m)[:3]
        assert np.allclose(np.linalg.norm(left, axis=0), svals, rtol=1e-6)

    def test_sign_convention_first_nonzero_right_entry(self):
        rng = np.random.default_rng(4)
        for k in range(20):
            m = rng.standard_normal((5, 6) if k % 2 else (6, 5))
            _, right = svd_truncated(m, 3)
            for row in right:
                nz = row[np.flatnonzero(row)]
                assert nz.size == 0 or nz[0] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 8))
        a = svd_truncated(m, 4)
        b = svd_truncated(m.copy(), 4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_residual_non_increasing_in_rank(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((9, 9))
        resids = []
        for r in range(1, 10):
            left, right = svd_truncated(m, r)
            resids.append(np.linalg.norm(m - left @ right))
        assert all(a >= b - 1e-9 for a, b in zip(resids, resids[1:]))

    def test_eckart_young_against_random_competitors(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows = int(rng.integers(3, 12))
            cols = int(rng.integers(3, 12))
            r = int(rng.integers(1, min(rows, cols) + 1))
            m = rng.standard_normal((rows, cols))
            left, right = svd_truncated(m, r)
            ours = np.linalg.norm(m - left @ right)
            for k in range(20):
                if k % 2 == 0:
                    lc = rng.standard_normal((rows, r))
                    rc = rng.standard_normal((r, cols))
                else:
                    # perturbed-optimal competitors keep the race close
                    lc = left + 1e-3 * rng.standard_normal(left.shape)
                    rc = right + 1e-3 * rng.standard_normal(right.shape)
                assert ours <= np.linalg.norm(m - lc @ rc) + 1e-6

    def test_rank_bounds(self):
        m = np.eye(4)
        with pytest.raises(RankOutOfRange):
            svd_truncated(m, 0)
        with pytest.raises(RankOutOfRange):
            svd_truncated(m, 5)

    def test_nonfinite_rejected(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFinite):
            svd_truncated(m, 1)

    def test_zero_matrix(self):
        for shape in ((4, 3), (3, 4)):
            left, right = svd_truncated(np.zeros(shape), 2)
            assert np.array_equal(left @ right, np.zeros(shape))
            assert np.allclose(right @ right.T, np.eye(2), atol=1e-12)

    def test_rank_deficient_orthonormal_and_exact(self):
        # rank 2 in both orientations; asking for rank 4 must still give
        # orthonormal right rows and reproduce the matrix
        rng = np.random.default_rng(8)
        base = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 14))
        for m in (base, base.T):
            left, right = svd_truncated(m, 4)
            assert np.allclose(right @ right.T, np.eye(4), atol=1e-10)
            assert np.allclose(left @ right, m, atol=1e-10 * np.linalg.norm(m))

    def test_extreme_magnitudes(self):
        # squares of these entries overflow or underflow float64
        rng = np.random.default_rng(10)
        for scale in (1e200, 1e-200):
            for shape in ((9, 6), (6, 9)):
                m = rng.standard_normal(shape)
                left, right = svd_truncated(m * scale, 3)
                resid = np.linalg.norm(m - left @ right / scale)
                assert resid == pytest.approx(best_rank_r_residual(m, 3), rel=1e-9)
                assert np.allclose(right @ right.T, np.eye(3), atol=1e-12)

    def test_eigendecomposition_on_smaller_side(self, monkeypatch):
        # the Gram matrix is min(rows, cols) square whichever side is longer
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            seen.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        rng = np.random.default_rng(9)
        for shape in ((60, 8), (8, 60)):
            svd_truncated(rng.standard_normal(shape), 3)
        assert seen == [(8, 8), (8, 8)]


def block_source(m: np.ndarray, seen: list | None = None) -> tensor.BlockSource:
    """``m`` as a block source: a new float64 copy of each requested block,
    its shape recorded in ``seen``."""
    def block(rows, cols):
        b = np.array(m[rows, cols], dtype=np.float64)
        if seen is not None:
            seen.append(b.shape)
        return b
    return tensor.BlockSource(block, m.shape)


def assert_canonical(left, right, shape, r):
    """Factor shapes, orthonormal right rows, and the sign rule: the first
    nonzero entry of each right row is positive."""
    assert left.shape == (shape[0], r) and right.shape == (r, shape[1])
    assert np.allclose(right @ right.T, np.eye(r), atol=1e-12)
    for row in right:
        nz = row[np.flatnonzero(row)]
        assert nz.size == 0 or nz[0] > 0


class TestSvdTruncatedBlocks:
    """The Gram matrix summed over blocks, and the second pass made from
    them again, with the block size patched down so that small matrices
    span many blocks."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        kind=st.sampled_from(["normal", "deficient", "zero"]),
        block=st.sampled_from([1, 7, 64, 300, tensor.SUM_ELEMENTS]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=40, cols=9, kind="normal", block=64, data=None, seed=0)  # tall
    @example(rows=9, cols=40, kind="deficient", block=64, data=None, seed=1)  # wide
    @example(rows=17, cols=17, kind="zero", block=1, data=None, seed=2)  # square
    def test_optimal_canonical_and_the_array_equals_its_blocks(self, rows, cols, kind, block,
                                                              data, seed):
        rng = np.random.default_rng(seed)
        k = min(rows, cols)
        rank = int(rng.integers(0, k)) if kind == "deficient" else k
        if kind == "zero":
            m = np.zeros((rows, cols))
        else:
            m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        r = int(rng.integers(1, k + 1)) if data is None else data.draw(st.integers(1, k), "r")
        seen = []
        with mock.patch.object(tensor, "SUM_ELEMENTS", block):
            left, right = svd_truncated(m, r)
            blocked = svd_truncated(block_source(m, seen), r)
        assert np.array_equal(left, blocked[0]) and np.array_equal(right, blocked[1])
        # row blocks of a tall or square m, column blocks of a wide one,
        # each of about `block` entries, or k * k / 2 when that is more
        # (at least one row or column)
        long = 0 if cols <= rows else 1
        assert all(shape[1 - long] == k for shape in seen)
        assert all(shape[long] <= max(1, max(block, k * k // 2) // k) for shape in seen)
        assert_canonical(left, right, m.shape, r)
        resid, energy = np.linalg.norm(m - left @ right), np.linalg.norm(m) ** 2
        if r < rank:
            # the oracle sums Gram eigenvalues, each rounded by about 1e-16
            # of the largest, so a residual far below the norm is compared
            # as energy: within 1e-12 relative when the two are of a size
            oracle = best_rank_r_residual(m, r)
            assert abs(resid**2 - oracle**2) <= 1e-12 * max(oracle**2, energy / k)
        else:
            # the optimum is 0, which the oracle reports with rounding noise
            # of about 1e-8 of the norm: bounded against the norm instead
            assert resid <= 1e-10 * np.sqrt(energy)

    @pytest.mark.parametrize("shape", [(64, 16), (16, 64)])
    def test_blocks_sum_at_least_half_of_k_rows(self, shape):
        # k = 16 and SUM_ELEMENTS below k * k / 2 = 128 entries: each block
        # holds 8 rows (columns of a wide m) of the 64, whatever the budget
        m = np.random.default_rng(14).standard_normal(shape)
        for budget in (1, 100):
            seen = []
            with mock.patch.object(tensor, "SUM_ELEMENTS", budget):
                blocked = svd_truncated(block_source(m, seen), 3)
            long = 0 if shape[1] <= shape[0] else 1
            assert [b[long] for b in seen] == [8] * 16  # two passes of 8 blocks
            whole = svd_truncated(m, 3)
            np.testing.assert_allclose(blocked[0] @ blocked[1], whole[0] @ whole[1],
                                       rtol=0, atol=1e-12 * np.abs(m).max())

    @pytest.mark.parametrize("shape", [(50, 7), (7, 50), (12, 12)])
    @pytest.mark.parametrize("exponent", [600, -600])
    def test_extreme_magnitudes_over_several_blocks(self, shape, exponent):
        # squares of these entries overflow or underflow float64, so the
        # rescale must be decided from the largest entry of every block
        # before any block's square is summed
        rng = np.random.default_rng(11)
        m = rng.standard_normal(shape)
        m[-1, -1] = 3.0  # the largest entry is in the last block
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with mock.patch.object(tensor, "SUM_ELEMENTS", 24):
                left, right = svd_truncated(block_source(np.ldexp(m, exponent)), 3)
        resid = np.linalg.norm(m - np.ldexp(left, -exponent) @ right)
        assert resid == pytest.approx(best_rank_r_residual(m, 3), rel=1e-12)
        assert_canonical(left, right, shape, 3)

    def test_mixed_magnitudes_rescale_by_the_largest_entry(self):
        # the first blocks are safe to square and the last is not: the
        # result is the rescaled fit of the whole matrix
        rng = np.random.default_rng(12)
        m = rng.standard_normal((40, 6))
        m[-4:] = np.ldexp(m[-4:], 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with mock.patch.object(tensor, "SUM_ELEMENTS", 12):
                left, right = svd_truncated(block_source(m), 2)
                exp = int(np.frexp(np.abs(m).max())[1])
                expected = svd_truncated(np.ldexp(m, -exp), 2)
        assert exp > tensor.GRAM_SAFE_EXPONENT
        assert np.array_equal(right, expected[1])
        assert np.array_equal(left, np.ldexp(expected[0], exp))

    def test_one_block_is_the_whole_product(self):
        # a matrix inside one block sums its Gram matrix as one product
        rng = np.random.default_rng(13)
        for shape in ((64, 16), (16, 64)):
            m = rng.standard_normal(shape)
            gram = m.T @ m if shape[1] <= shape[0] else m @ m.T
            seen = []
            eigh = np.linalg.eigh

            def recording_eigh(a, *args, **kwargs):
                seen.append(a.copy())
                return eigh(a, *args, **kwargs)

            with mock.patch.object(np.linalg, "eigh", recording_eigh):
                svd_truncated(m, 3)
            assert len(seen) == 1 and np.array_equal(seen[0], gram)
