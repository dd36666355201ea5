import re

import numpy as np
import pytest

from slim import (
    CalibrationStats,
    EmptyInput,
    NonFinite,
    SchemaViolation,
    ShapeMismatch,
    compute_calibration,
    load_calibration,
    save_calibration,
)

from oracles import calib_by_concatenation


class TestComputeCalibration:
    def test_hand_arithmetic(self):
        x = np.array([[1.0, -2.0], [3.0, 0.0]])
        st = compute_calibration([x])
        assert st.d_in == 2
        assert st.token_count == 2
        assert st.mean_abs.tolist() == [2.0, 1.0]
        assert np.allclose(st.l2_norm, [np.sqrt(10.0), 2.0])

    def test_sign_invariance(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((30, 6))
        a = compute_calibration([x])
        b = compute_calibration([-x])
        assert np.array_equal(a.mean_abs, b.mean_abs)
        assert np.array_equal(a.l2_norm, b.l2_norm)

    def test_partition_equals_concatenation(self):
        rng = np.random.default_rng(71)
        batches = [rng.standard_normal((n, 5)) for n in (3, 1, 7, 4)]
        st = compute_calibration(batches)
        ref = calib_by_concatenation(batches)
        assert st.token_count == ref["token_count"]
        assert np.allclose(st.mean_abs, ref["mean_abs"], rtol=1e-12)
        assert np.allclose(st.l2_norm, ref["l2_norm"], rtol=1e-12)

    def test_single_vs_split_identical(self):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((20, 4))
        whole = compute_calibration([x])
        split = compute_calibration([x[:11], x[11:]])
        assert np.allclose(whole.mean_abs, split.mean_abs, rtol=1e-13)
        assert np.allclose(whole.l2_norm, split.l2_norm, rtol=1e-13)

    def test_empty_batch_list_rejected(self):
        with pytest.raises(EmptyInput):
            compute_calibration([])

    def test_zero_token_batches_rejected(self):
        with pytest.raises(EmptyInput):
            compute_calibration([np.zeros((0, 4))])

    def test_zero_row_batches_skipped(self):
        x = np.ones((2, 3))
        st = compute_calibration([np.zeros((0, 3)), x])
        assert st.token_count == 2

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            compute_calibration([np.ones((2, 3)), np.ones((2, 4))])

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeMismatch):
            compute_calibration([np.ones(5)])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            compute_calibration([np.array([[1.0, np.nan]])])


class TestStatsValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(NonFinite):
            CalibrationStats(
                d_in=2,
                mean_abs=np.array([1.0, -1.0]),
                l2_norm=np.ones(2),
                token_count=3,
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            CalibrationStats(
                d_in=3, mean_abs=np.ones(2), l2_norm=np.ones(3), token_count=3
            )


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(73)
        st = compute_calibration([rng.standard_normal((50, 16))])
        p = tmp_path / "calib.slim"
        save_calibration(p, st)
        back = load_calibration(p)
        assert back.d_in == st.d_in
        assert back.token_count == st.token_count
        # storage is f32, so round-trip is exact at f32 resolution
        assert np.array_equal(back.mean_abs, st.mean_abs.astype(np.float32))
        assert np.array_equal(back.l2_norm, st.l2_norm.astype(np.float32))

    def test_missing_tensor_rejected(self, tmp_path):
        from slim import read_container, write_container

        st = compute_calibration([np.ones((4, 3))])
        p = tmp_path / "calib.slim"
        save_calibration(p, st)
        tensors = read_container(p)
        del tensors["l2_norm"]
        p2 = tmp_path / "broken.slim"
        write_container(p2, tensors)
        with pytest.raises(SchemaViolation):
            load_calibration(p2)

    def test_inconsistent_meta_rejected(self, tmp_path):
        import json

        from slim import read_container, write_container

        st = compute_calibration([np.ones((4, 3))])
        p = tmp_path / "calib.slim"
        save_calibration(p, st)
        tensors = dict(read_container(p))
        meta = json.dumps({"d_in": 99, "token_count": 4}).encode()
        tensors["__meta__"] = np.frombuffer(meta, dtype=np.uint8)
        p2 = tmp_path / "broken.slim"
        write_container(p2, tensors)
        with pytest.raises(SchemaViolation):
            load_calibration(p2)

    @pytest.mark.parametrize("mean_abs, message", [
        (np.arange(4, dtype=np.uint8).reshape(2, 2), "mean_abs has dtype uint8, not float32"),
        (np.ones((2, 2), np.float32), "mean_abs has shape (2, 2), need (4,)"),
        (np.ones(3, np.float32), "mean_abs has shape (3,), need (4,)"),
    ], ids=["u8", "2-D", "short"])
    def test_statistics_not_1d_f32_of_d_in_rejected(self, tmp_path, mean_abs, message):
        # save_calibration writes each statistic as a 1-D f32 tensor of d_in
        # entries; any other is refused, not flattened or cast
        import json

        from slim import write_container

        p = tmp_path / "calib.slim"
        meta = json.dumps({"d_in": 4, "token_count": 3}).encode()
        write_container(p, {"mean_abs": mean_abs, "l2_norm": np.ones((2, 2), np.float32),
                            "__meta__": np.frombuffer(meta, dtype=np.uint8)})
        with pytest.raises(SchemaViolation, match=re.escape(message)):
            load_calibration(p)

    @pytest.mark.parametrize("blob", [b"[" * 100_000, b'{"d_in": 3, "d_in": 3, "token_count": 4}'],
                             ids=["deeply_nested", "duplicate_key"])
    def test_unparsable_meta_rejected(self, tmp_path, blob):
        from slim import read_container, write_container

        p = tmp_path / "calib.slim"
        save_calibration(p, compute_calibration([np.ones((4, 3))]))
        tensors = dict(read_container(p))
        tensors["__meta__"] = np.frombuffer(blob, dtype=np.uint8)
        write_container(p, tensors)
        with pytest.raises(SchemaViolation):
            load_calibration(p)

    @pytest.mark.parametrize("meta", [
        {"d_in": 3.0, "token_count": 4},
        {"d_in": 3.9, "token_count": 4},
        {"d_in": "3", "token_count": 4},
        {"d_in": 3, "token_count": True},
        {"d_in": 3, "token_count": 4, "extra": 1},
        {"d_in": 3},
        [3, 4],
    ], ids=["d_in_float", "d_in_fraction", "d_in_string", "token_count_bool", "extra_key",
            "missing_key", "not_an_object"])
    def test_mistyped_meta_rejected(self, tmp_path, meta):
        # metadata holds exactly an int d_in and an int token_count
        import json

        from slim import read_container, write_container

        p = tmp_path / "calib.slim"
        save_calibration(p, compute_calibration([np.ones((4, 3))]))
        tensors = dict(read_container(p))
        tensors["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        write_container(p, tensors)
        with pytest.raises(SchemaViolation):
            load_calibration(p)
