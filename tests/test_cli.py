import contextlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from slim import (
    LayerCompressionConfig,
    SparsityPattern,
    compress_layer,
    compute_calibration,
    deserialize_compressed_layer,
    error_report,
    load_calibration,
    load_preset,
    memory_reduction,
    flop_reduction,
    read_container,
    saliency_vector,
    weight_space_report,
    write_container,
    SchemeConfig,
)
from slim.artifact import layer_to_bytes, layer_to_tensors
from slim import cli, container
from slim.cli import main

from oracles import calib_by_concatenation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_reads(monkeypatch) -> list:
    """The sorted tensor names of each container read of the CLI, in order:
    those a whole read (``read_container``) returns, or the one a block
    source (``_tensor_source``) opens. A source opened in a container
    while another source of that container is open fails the test: the CLI
    reads one weight at a time (eval keeps ``--inputs`` open beside it)."""
    returned, open_paths = [], []

    def recording_read(path, names=None):
        tensors = read_container(path, names)
        returned.append(sorted(tensors))
        return tensors

    @contextlib.contextmanager
    def recording_source(path, name, *args, **kwargs):
        assert path not in open_paths, f"{name!r} opened while another tensor of {path} is open"
        with container._tensor_source(path, name, *args, **kwargs) as source:
            returned.append([name])
            open_paths.append(path)
            try:
                yield source
            finally:
                open_paths.remove(path)

    monkeypatch.setattr(cli, "read_container", recording_read)
    monkeypatch.setattr(cli, "_tensor_source", recording_source)
    return returned


@pytest.fixture
def workspace(tmp_path, capsys):
    """Weights (16x12), activations (40x16), calibration file, all via the CLI."""
    weights = tmp_path / "weights.slim"
    acts = tmp_path / "acts.slim"
    calib = tmp_path / "calib.slim"
    assert main(["gen-fixture", "--dist", "gaussian", "--shape", "16x12",
                 "--seed", "7", "--out", str(weights)]) == 0
    assert main(["gen-fixture", "--dist", "gaussian", "--shape", "40x16",
                 "--seed", "8", "--name", "acts", "--out", str(acts)]) == 0
    assert main(["calib", "--inputs", str(acts), "--out", str(calib)]) == 0
    capsys.readouterr()
    return {"dir": tmp_path, "weights": weights, "acts": acts, "calib": calib}


class TestGenFixture:
    def test_seed_reproducible(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.slim", "b.slim", "c.slim"))
        for out in (a, b):
            code, _, _ = run(capsys, "gen-fixture", "--dist", "laplace",
                             "--shape", "32x32", "--seed", "5", "--out", str(out))
            assert code == 0
        run(capsys, "gen-fixture", "--dist", "laplace", "--shape", "32x32",
            "--seed", "6", "--out", str(c))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_laplace_mean_abs_statistic(self, tmp_path, capsys):
        out = tmp_path / "lap.slim"
        code, _, _ = run(capsys, "gen-fixture", "--dist", "laplace",
                         "--shape", "1000x1000", "--seed", "11",
                         "--scale", "0.7", "--out", str(out))
        assert code == 0
        w = read_container(out)["weights"]
        # Laplace(b) has E|x| = b; 10^6 samples pin it well within 5%
        assert abs(np.abs(w).mean() - 0.7) <= 0.05 * 0.7

    def test_gaussian_std_statistic(self, tmp_path, capsys):
        out = tmp_path / "g.slim"
        run(capsys, "gen-fixture", "--dist", "gaussian", "--shape", "1000x1000",
            "--seed", "12", "--scale", "2.0", "--out", str(out))
        w = read_container(out)["weights"]
        assert abs(w.std() - 2.0) <= 0.05 * 2.0

    def test_two_point_values(self, tmp_path, capsys):
        out = tmp_path / "tp.slim"
        run(capsys, "gen-fixture", "--dist", "two-point", "--shape", "10x10",
            "--seed", "13", "--scale", "0.5", "--out", str(out))
        w = read_container(out)["weights"]
        assert set(np.unique(w)) <= {np.float32(-0.5), np.float32(0.5)}

    def test_mixture_has_wide_component(self, tmp_path, capsys):
        out = tmp_path / "mix.slim"
        run(capsys, "gen-fixture", "--dist", "mixture", "--shape", "200x200",
            "--seed", "14", "--out", str(out))
        w = read_container(out)["weights"]
        outliers = np.mean(np.abs(w) > 4.0)
        assert 0.02 < outliers < 0.15

    @pytest.mark.parametrize("argv", [
        ("--dist", "gaussian", "--shape", "16"),
        ("--dist", "gaussian", "--shape", "0x4"),
        ("--dist", "gaussian", "--shape", "4x4", "--scale", "inf"),
        ("--dist", "gaussian", "--shape", "4x4", "--scale", "nan"),
        ("--dist", "laplace", "--shape", "4x4", "--scale", "-1"),
        ("--dist", "two-point", "--shape", "4x4", "--scale", "0"),
        ("--dist", "gaussian", "--shape", "4x4", "--seed", "-3"),
        ("--dist", "mixture", "--shape", "64x64", "--scale", "1e38"),  # finite, not as f32
    ], ids=" ".join)
    def test_bad_shape_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.slim"
        code, _, err = run(capsys, "gen-fixture", *argv, "--out", str(out))
        assert code == 1 and err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["__config__", "__weights", "__", ""])
    def test_reserved_name_usage_error(self, tmp_path, capsys, name):
        # every reader takes a "__*" tensor for metadata, so compress would
        # find no weight in such a file
        out = tmp_path / "x.slim"
        code, _, err = run(capsys, "gen-fixture", "--dist", "gaussian", "--shape", "4x4",
                           "--name", name, "--out", str(out))
        assert code == 1
        assert err == f"error: --name must be non-empty and not start with '__', got {name!r}\n"
        assert not out.exists()
        code, _, _ = run(capsys, "gen-fixture", "--dist", "gaussian", "--shape", "4x4",
                         "--name", "_w", "--out", str(out))
        assert code == 0 and list(read_container(out)) == ["_w"]

    @pytest.mark.parametrize("name", ["sub/w", "/", "a\0b", "\0"])
    def test_name_that_cannot_name_a_file_usage_error(self, tmp_path, capsys, name):
        # slim compress writes OUT.<name>.slim for each tensor
        out = tmp_path / "x.slim"
        code, _, err = run(capsys, "gen-fixture", "--dist", "gaussian", "--shape", "4x4",
                           "--name", name, "--out", str(out))
        assert code == 1
        assert err == f"error: --name {name!r} holds '/' or NUL, which an artifact file name cannot\n"
        assert not out.exists()

    def test_unknown_dist_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen-fixture", "--dist", "cauchy",
                         "--shape", "4x4", "--out", str(tmp_path / "x.slim"))
        assert code == 1


class TestCompress:
    def test_identity_run_reports_zero_error(self, workspace, capsys):
        out = workspace["dir"] / "id"
        report = workspace["dir"] / "report.json"
        code, stdout, _ = run(
            capsys, "compress", "--weights", str(workspace["weights"]),
            "--out", str(out), "--quant", "none", "--sparsity", "none",
            "--lora", "none", "--report", str(report),
        )
        assert code == 0
        entry = json.loads(report.read_text())["weights"]
        assert entry["weight_mse"] == 0.0
        assert entry["density"] == 1.0
        layer = deserialize_compressed_layer(out.parent / f"{out.name}.weights.slim")
        original = read_container(workspace["weights"])["weights"]
        assert np.array_equal(layer.effective_weight(), np.float64(original))

    def test_full_pipeline_run(self, workspace, capsys):
        out = workspace["dir"] / "full"
        report = workspace["dir"] / "full.json"
        code, stdout, _ = run(
            capsys, "compress", "--weights", str(workspace["weights"]),
            "--calib", str(workspace["calib"]), "--out", str(out),
            "--quant", "slim", "--wbits", "4", "--sparsity", "2:4",
            "--lora", "slim", "--rank-ratio", "0.25", "--report", str(report),
        )
        assert code == 0
        assert "weights:" in stdout and "density=0.5000" in stdout
        entry = json.loads(report.read_text())["weights"]
        assert set(entry) == {
            "weight_mse", "weighted_weight_mse", "density", "alpha",
            "artifact", "effective_bits_per_weight",
        }
        artifact = out.parent / "full.weights.slim"
        assert entry["artifact"] == str(artifact)
        cfg = LayerCompressionConfig(
            sparsity=SparsityPattern.semistructured(2, 4), adapter_method="slim", rank_ratio=0.25
        )
        w = read_container(workspace["weights"])["weights"]
        stats = load_calibration(workspace["calib"])
        layer = compress_layer(w, stats, cfg)
        assert layer_to_bytes(layer) == artifact.read_bytes()
        for described in (layer, deserialize_compressed_layer(artifact)):
            assert entry == {
                **weight_space_report(w, described, saliency_vector(stats)),
                "alpha": described.provenance.alpha, "artifact": str(artifact),
            }

    def test_artifact_bit_identical_to_library(self, workspace, capsys):
        out = workspace["dir"] / "lib"
        code, _, _ = run(
            capsys, "compress", "--weights", str(workspace["weights"]),
            "--calib", str(workspace["calib"]), "--out", str(out),
            "--quant", "slim-o", "--sparsity", "2:4", "--lora", "slim",
            "--rank-ratio", "0.25",
        )
        assert code == 0
        cfg = LayerCompressionConfig(
            quant_method="slim_quant_o",
            sparsity=SparsityPattern.semistructured(2, 4),
            adapter_method="slim",
            rank_ratio=0.25,
        )
        w = read_container(workspace["weights"])["weights"]
        stats = load_calibration(workspace["calib"])
        expected = layer_to_bytes(compress_layer(w, stats, cfg))
        assert (out.parent / "lib.weights.slim").read_bytes() == expected

    def test_adapter_lowers_weighted_error(self, workspace, capsys):
        results = {}
        for tag, lora in (("with", "slim"), ("without", "none")):
            out = workspace["dir"] / f"p_{tag}"
            report = workspace["dir"] / f"p_{tag}.json"
            argv = ["compress", "--weights", str(workspace["weights"]),
                    "--calib", str(workspace["calib"]), "--out", str(out),
                    "--quant", "slim", "--sparsity", "2:4",
                    "--lora", lora, "--report", str(report)]
            if lora != "none":
                argv += ["--rank-ratio", "0.25"]
            assert main(argv) == 0
            capsys.readouterr()
            results[tag] = json.loads(report.read_text())["weights"]
        assert (
            results["with"]["weighted_weight_mse"]
            <= results["without"]["weighted_weight_mse"]
        )

    def test_multi_tensor_artifacts_match_library(self, tmp_path, capsys):
        weights = tmp_path / "multi.slim"
        rng = np.random.default_rng(15)
        tensors = {f"t{i}": rng.standard_normal((8, 8)).astype(np.float32) for i in range(4)}
        write_container(weights, tensors)
        out = tmp_path / "multi"
        code, stdout, _ = run(capsys, "compress", "--weights", str(weights),
                              "--out", str(out), "--quant", "slim")
        assert code == 0
        assert [line.split(":")[0] for line in stdout.splitlines()] == list(tensors)
        cfg = LayerCompressionConfig(quant_method="slim_quant")
        for name, w in tensors.items():
            expected = layer_to_bytes(compress_layer(w, None, cfg))
            assert (tmp_path / f"multi.{name}.slim").read_bytes() == expected

    def test_missing_calib_usage_error(self, workspace, capsys):
        code, _, err = run(
            capsys, "compress", "--weights", str(workspace["weights"]),
            "--out", str(workspace["dir"] / "x"), "--lora", "slim",
            "--rank-ratio", "0.1",
        )
        assert code == 1
        assert "calib" in err

    def test_rank_ratio_without_lora_usage_error(self, workspace, capsys):
        code, _, _ = run(
            capsys, "compress", "--weights", str(workspace["weights"]),
            "--out", str(workspace["dir"] / "x"), "--rank-ratio", "0.1",
        )
        assert code == 1

    def test_mismatched_calib_data_error(self, workspace, tmp_path, capsys):
        narrow = tmp_path / "narrow.slim"
        calib = tmp_path / "narrow_calib.slim"
        main(["gen-fixture", "--dist", "gaussian", "--shape", "30x8",
              "--name", "acts", "--out", str(narrow)])
        main(["calib", "--inputs", str(narrow), "--out", str(calib)])
        capsys.readouterr()
        code, _, _ = run(
            capsys, "compress", "--weights", str(workspace["weights"]),
            "--calib", str(calib), "--out", str(workspace["dir"] / "x"),
            "--quant", "slim-o",
        )
        assert code == 2

    def test_failed_run_leaves_no_artifacts(self, workspace, tmp_path, capsys):
        # "b" (32 rows) does not match the 16-channel stats; the failed run
        # must leave no artifact, for "a" (16 rows) or any other tensor.
        weights = tmp_path / "mixed.slim"
        rng = np.random.default_rng(17)
        write_container(weights, {"a": rng.standard_normal((16, 12)).astype(np.float32),
                                  "b": rng.standard_normal((32, 12)).astype(np.float32)})
        code, out, err = run(capsys, "compress", "--weights", str(weights),
                             "--calib", str(workspace["calib"]),
                             "--out", str(tmp_path / "OUT"), "--quant", "slim-o")
        assert code == 2
        assert out == ""
        assert err == "error: stats cover 16 channels, weight has 32 rows\n"
        assert sorted(tmp_path.glob("OUT*")) == []

    def test_part_f32_cannot_hold_leaves_no_artifacts(self, tmp_path, capsys):
        # "b" holds small multiples of the smallest f32 subnormal: its 8-bit
        # codes leave an error whose 4-bit adapter group scales round to 0
        # at f32; the run fails there and removes the artifact of "a"
        weights = tmp_path / "tiny.slim"
        rng = np.random.default_rng(20)
        tiny = np.finfo(np.float32).smallest_subnormal
        write_container(weights, {"a": rng.standard_normal((8, 8)).astype(np.float32),
                                  "b": rng.integers(-9, 10, (8, 8)).astype(np.float32) * tiny})
        code, out, err = run(capsys, "compress", "--weights", str(weights),
                             "--out", str(tmp_path / "OUT"), "--quant", "absmax", "--wbits", "8",
                             "--lora", "naive", "--rank-ratio", "0.25", "--quantize-lora",
                             "--group-size", "16")
        assert code == 2
        assert out == ""
        assert err == "error: tensor 'b': scales must be positive and finite\n"
        assert sorted(tmp_path.glob("OUT*")) == []

    @pytest.mark.parametrize("name", ["sub/w", "a\0b"])
    def test_name_that_cannot_name_a_file_fails_before_any_tensor_is_read(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # "a" comes first and is fine; OUT.sub exists, so "sub/w" would
        # have written OUT.sub/w.slim into it
        weights = tmp_path / "names.slim"
        write_container(weights, {"a": np.ones((4, 4), np.float32), name: np.ones((4, 4), np.float32)})
        (tmp_path / "OUT.sub").mkdir()
        returned = record_reads(monkeypatch)
        code, out, err = run(capsys, "compress", "--weights", str(weights),
                             "--out", str(tmp_path / "OUT"), "--quant", "absmax")
        assert code == 2
        assert out == ""
        assert err == f"error: tensor name {name!r} holds '/' or NUL, which an artifact file name cannot\n"
        assert returned == []
        assert sorted(tmp_path.glob("OUT*")) == [tmp_path / "OUT.sub"]
        assert list((tmp_path / "OUT.sub").iterdir()) == []

    def test_every_shape_checked_before_any_tensor_is_read(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # "b" (20 rows) does not match the 16-channel stats: the run fails
        # before it reads or compresses "a", which comes first
        weights = tmp_path / "mixed.slim"
        rng = np.random.default_rng(18)
        write_container(weights, {"a": rng.standard_normal((16, 12)).astype(np.float32),
                                  "b": rng.standard_normal((20, 12)).astype(np.float32)})
        returned = record_reads(monkeypatch)
        code, out, err = run(capsys, "compress", "--weights", str(weights),
                             "--calib", str(workspace["calib"]),
                             "--out", str(tmp_path / "OUT"), "--quant", "slim-o")
        assert code == 2
        assert out == ""
        assert err == "error: stats cover 16 channels, weight has 20 rows\n"
        assert returned == []
        assert sorted(tmp_path.glob("OUT*")) == []

    @pytest.mark.parametrize("shape, error", [
        ((16,), "tensor 'b' must be 2-D, got shape (16,)"),
        ((2, 8, 6), "tensor 'b' must be 2-D, got shape (2, 8, 6)"),
        ((0, 12), "tensor 'b' has zero elements"),
    ])
    def test_bad_shape_fails_before_any_tensor_is_read(
        self, tmp_path, capsys, monkeypatch, shape, error
    ):
        weights = tmp_path / "bad.slim"
        write_container(weights, {"a": np.ones((16, 12), np.float32),
                                  "b": np.ones(shape, np.float32)})
        returned = record_reads(monkeypatch)
        code, _, err = run(capsys, "compress", "--weights", str(weights),
                           "--out", str(tmp_path / "OUT"), "--quant", "slim")
        assert code == 2
        assert err == f"error: {error}\n"
        assert returned == []
        assert sorted(tmp_path.glob("OUT*")) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("flags", [
        ("--quant", "slim"),
        ("--quant", "none", "--sparsity", "2:4", "--scores", "magnitude"),
        ("--quant", "group-absmax", "--lora", "naive", "--rank-ratio", "0.25"),
    ], ids=" ".join)
    def test_non_finite_weight_data_error_and_no_artifacts(self, tmp_path, capsys, flags, bad):
        # "a" is compressed and written before the last entry of "b" is read
        weights = tmp_path / "bad.slim"
        rng = np.random.default_rng(21)
        b = rng.standard_normal((16, 12)).astype(np.float32)
        b[-1, -1] = bad
        write_container(weights, {"a": rng.standard_normal((16, 12)).astype(np.float32), "b": b})
        code, out, err = run(capsys, "compress", "--weights", str(weights),
                             "--out", str(tmp_path / "OUT"), *flags)
        assert code == 2
        assert out == ""
        assert err == "error: tensor 'b': w contains NaN or Inf\n"
        assert sorted(tmp_path.glob("OUT*")) == []

    def test_reads_one_tensor_at_a_time(self, tmp_path, capsys, monkeypatch):
        weights = tmp_path / "three.slim"
        rng = np.random.default_rng(19)
        tensors = {n: rng.standard_normal((16, 12)).astype(np.float32) for n in ("a", "b", "c")}
        write_container(weights, tensors)
        returned = record_reads(monkeypatch)
        code, _, _ = run(capsys, "compress", "--weights", str(weights),
                         "--out", str(tmp_path / "one"), "--sparsity", "unstructured:0.5",
                         "--scores", "magnitude")
        assert code == 0
        assert returned == [["a"], ["b"], ["c"]]
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.unstructured(0.5),
                                     prune_scores="magnitude")
        for name, w in tensors.items():
            expected = layer_to_bytes(compress_layer(w, None, cfg))
            assert (tmp_path / f"one.{name}.slim").read_bytes() == expected

    def test_failed_report_leaves_no_artifacts(self, workspace, capsys):
        out = workspace["dir"] / "OUT"
        code, stdout, _ = run(capsys, "compress", "--weights", str(workspace["weights"]),
                              "--out", str(out), "--quant", "absmax",
                              "--report", str(workspace["dir"] / "absent" / "report.json"))
        assert code == 2
        assert stdout == ""
        assert sorted(workspace["dir"].glob("OUT*")) == []

    def test_missing_weights_file_data_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "compress", "--weights",
                         str(tmp_path / "absent.slim"), "--out", str(tmp_path / "x"))
        assert code == 2

    def test_empty_weights_container_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.slim"
        write_container(empty, {})
        code, _, _ = run(capsys, "compress", "--weights", str(empty),
                         "--out", str(tmp_path / "x"))
        assert code == 2


class TestEval:
    def test_non_finite_original_data_error(self, workspace, tmp_path, capsys):
        out = workspace["dir"] / "nan"
        main(["compress", "--weights", str(workspace["weights"]),
              "--out", str(out), "--quant", "slim"])
        w = read_container(workspace["weights"])["weights"]
        w[-1, -1] = np.nan
        original = tmp_path / "nan-original.slim"
        write_container(original, {"weights": w})
        capsys.readouterr()
        report = tmp_path / "nan.json"
        code, stdout, err = run(
            capsys, "eval", "--original", str(original),
            "--compressed", str(out.parent / "nan.weights.slim"),
            "--inputs", str(workspace["acts"]), "--report", str(report),
        )
        assert code == 2
        assert stdout == ""
        assert err == "error: w contains NaN or Inf\n"
        assert not report.exists()

    def test_identity_artifact_zero_report(self, workspace, capsys):
        out = workspace["dir"] / "id2"
        main(["compress", "--weights", str(workspace["weights"]),
              "--out", str(out), "--quant", "none"])
        capsys.readouterr()
        report = workspace["dir"] / "eval.json"
        code, stdout, _ = run(
            capsys, "eval", "--original", str(workspace["weights"]),
            "--compressed", str(out.parent / "id2.weights.slim"),
            "--inputs", str(workspace["acts"]), "--report", str(report),
        )
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["weight_mse"] == 0.0
        assert rep["output_mse"] == 0.0

    def test_report_matches_library_call(self, workspace, capsys):
        out = workspace["dir"] / "ev"
        main(["compress", "--weights", str(workspace["weights"]),
              "--calib", str(workspace["calib"]), "--out", str(out),
              "--quant", "slim", "--sparsity", "2:4", "--lora", "slim",
              "--rank-ratio", "0.25"])
        capsys.readouterr()
        artifact = out.parent / "ev.weights.slim"
        report = workspace["dir"] / "ev.json"
        code, _, _ = run(
            capsys, "eval", "--original", str(workspace["weights"]),
            "--compressed", str(artifact),
            "--inputs", str(workspace["acts"]), "--report", str(report),
        )
        assert code == 0
        w = read_container(workspace["weights"])["weights"]
        x = read_container(workspace["acts"])["acts"]
        layer = deserialize_compressed_layer(artifact)
        sal = saliency_vector(compute_calibration([np.float64(x)]))
        expected = error_report(w, layer, x, sal)
        assert json.loads(report.read_text()) == expected.to_dict()

    def test_dimension_mismatch_data_error(self, workspace, tmp_path, capsys):
        out = workspace["dir"] / "dm"
        main(["compress", "--weights", str(workspace["weights"]),
              "--out", str(out), "--quant", "none"])
        wrong = tmp_path / "wrong.slim"
        main(["gen-fixture", "--dist", "gaussian", "--shape", "10x9",
              "--name", "acts", "--out", str(wrong)])
        capsys.readouterr()
        code, _, _ = run(
            capsys, "eval", "--original", str(workspace["weights"]),
            "--compressed", str(out.parent / "dm.weights.slim"),
            "--inputs", str(wrong),
        )
        assert code == 2

    def test_inputs_of_the_wrong_width_are_named(self, tmp_path, capsys):
        # the saliency comes from --inputs, so a width mismatch must be
        # reported as the inputs', not as a saliency the user never passed
        weights, acts, out = tmp_path / "w.slim", tmp_path / "x.slim", tmp_path / "c"
        main(["gen-fixture", "--dist", "gaussian", "--shape", "64x96", "--out", str(weights)])
        main(["gen-fixture", "--dist", "gaussian", "--shape", "32x48", "--name", "acts",
              "--out", str(acts)])
        main(["compress", "--weights", str(weights), "--out", str(out), "--quant", "absmax"])
        capsys.readouterr()
        code, _, err = run(capsys, "eval", "--original", str(weights),
                           "--compressed", str(tmp_path / "c.weights.slim"), "--inputs", str(acts))
        assert code == 2
        assert err == "error: x_eval has 48 columns, layer expects 64\n"

    @pytest.mark.parametrize("defect, message", [("no_tokens", "has zero elements"),
                                                 ("nan", "contains NaN or Inf")])
    def test_bad_inputs_are_named_not_blamed_on_calibration(self, workspace, tmp_path, capsys,
                                                            defect, message):
        # eval's saliency is made from --inputs, so a batch it cannot use is
        # reported as --inputs and its path, not as calibration's batch
        out = workspace["dir"] / "bi"
        main(["compress", "--weights", str(workspace["weights"]), "--out", str(out), "--quant", "absmax"])
        x = read_container(workspace["acts"])["acts"]
        if defect == "no_tokens":
            x = x[:0]
        else:
            x[3, 5] = np.nan
        acts = tmp_path / f"{defect}.slim"
        write_container(acts, {"acts": x})
        capsys.readouterr()
        code, stdout, err = run(capsys, "eval", "--original", str(workspace["weights"]),
                                "--compressed", str(out.parent / "bi.weights.slim"), "--inputs", str(acts))
        assert code == 2
        assert stdout == ""
        assert err == f"error: --inputs {acts} {message}\n"

    @pytest.mark.parametrize("defect", ["adapter_rows", "scaling_index"])
    def test_artifact_inconsistent_with_shape_data_error(self, workspace, capsys, defect):
        out = workspace["dir"] / "bad"
        main(["compress", "--weights", str(workspace["weights"]),
              "--calib", str(workspace["calib"]), "--out", str(out),
              "--quant", "slim-o", "--lora", "slim", "--rank-ratio", "0.25"])
        artifact = out.parent / "bad.weights.slim"
        tensors = read_container(artifact)
        if defect == "adapter_rows":
            tensors["adapter_left"] = tensors["adapter_left"][: 12 * 3]  # rank 3, 12 rows, d_in 16
        else:
            meta = json.loads(tensors["__config__"].tobytes())
            meta["scaling"]["indices"] = [3, 40]
            blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
            tensors["__config__"] = np.frombuffer(blob, dtype=np.uint8)
        write_container(artifact, tensors)
        capsys.readouterr()
        code, _, err = run(
            capsys, "eval", "--original", str(workspace["weights"]),
            "--compressed", str(artifact), "--inputs", str(workspace["acts"]),
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_version_2_artifact_data_error(self, workspace, capsys):
        # version 2 stored one int8 byte per code; it is no longer read
        out = workspace["dir"] / "v2"
        main(["compress", "--weights", str(workspace["weights"]), "--out", str(out)])
        artifact = out.parent / "v2.weights.slim"
        layer = deserialize_compressed_layer(artifact)
        meta = json.loads(read_container(artifact)["__config__"].tobytes())
        meta["version"] = 2
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        write_container(artifact, {
            "codes": layer.weights.codes,
            "scales": layer.weights.scales.astype(np.float32),
            "__config__": np.frombuffer(blob, dtype=np.uint8),
        })
        capsys.readouterr()
        code, _, err = run(
            capsys, "eval", "--original", str(workspace["weights"]),
            "--compressed", str(artifact), "--inputs", str(workspace["acts"]),
        )
        assert code == 2
        assert "unsupported artifact version 2" in err

    def test_multi_tensor_needs_selector(self, workspace, tmp_path, capsys):
        multi = tmp_path / "multi.slim"
        rng = np.random.default_rng(16)
        write_container(multi, {
            "a": rng.standard_normal((16, 12)).astype(np.float32),
            "b": rng.standard_normal((16, 12)).astype(np.float32),
        })
        out = tmp_path / "sel"
        main(["compress", "--weights", str(multi), "--out", str(out),
              "--quant", "none"])
        capsys.readouterr()
        artifact = tmp_path / "sel.a.slim"
        code, _, _ = run(capsys, "eval", "--original", str(multi),
                         "--compressed", str(artifact),
                         "--inputs", str(workspace["acts"]))
        assert code == 2  # ambiguous without --tensor
        code, _, _ = run(capsys, "eval", "--original", str(multi),
                         "--compressed", str(artifact),
                         "--inputs", str(workspace["acts"]),
                         "--tensor", "a")
        assert code == 0

    def test_inputs_of_two_tensors_name_the_inputs_flag(self, workspace, tmp_path, capsys):
        # --tensor picks inside --original, so it cannot settle ambiguous
        # --inputs: the error names --inputs and what it needs
        out = workspace["dir"] / "x2"
        main(["compress", "--weights", str(workspace["weights"]), "--out", str(out), "--quant", "none"])
        inputs = tmp_path / "x2.slim"
        acts = read_container(workspace["acts"])["acts"]
        write_container(inputs, {"a": acts, "b": acts})
        capsys.readouterr()
        code, _, err = run(capsys, "eval", "--original", str(workspace["weights"]),
                           "--compressed", str(out.parent / "x2.weights.slim"),
                           "--inputs", str(inputs), "--tensor", "weights")
        assert code == 2
        assert err == f"error: --inputs {inputs} holds 2 tensors; it must hold one\n"

    def test_missing_tensor_data_error(self, workspace, capsys):
        out = workspace["dir"] / "mt"
        main(["compress", "--weights", str(workspace["weights"]), "--out", str(out),
              "--quant", "none"])
        capsys.readouterr()
        code, _, err = run(capsys, "eval", "--original", str(workspace["weights"]),
                           "--compressed", str(out.parent / "mt.weights.slim"),
                           "--inputs", str(workspace["acts"]), "--tensor", "fc1")
        assert code == 2
        assert f"{workspace['weights']} has no tensor named 'fc1'" in err

    def test_reads_only_the_selected_tensor(self, workspace, tmp_path, capsys, monkeypatch):
        multi = tmp_path / "multi.slim"
        rng = np.random.default_rng(17)
        write_container(multi, {n: rng.standard_normal((16, 12)).astype(np.float32)
                                for n in ("a", "b", "c")})
        main(["compress", "--weights", str(multi), "--out", str(tmp_path / "sel"),
              "--quant", "none"])
        capsys.readouterr()
        returned = record_reads(monkeypatch)
        code, _, _ = run(capsys, "eval", "--original", str(multi),
                         "--compressed", str(tmp_path / "sel.b.slim"),
                         "--inputs", str(workspace["acts"]), "--tensor", "b")
        assert code == 0
        assert returned == [["b"], ["acts"]]

    def test_inputs_are_never_held_whole(self, tmp_path, capsys):
        # a tall weight and 8192-wide inputs: the report reads them one run
        # of 1024 columns at a time, the saliency a row block at a time, so
        # the inputs add less than their own f32 size to the peak
        d_in, d_out, tokens = 8192, 1024, 256
        rng = np.random.default_rng(90)
        weights, artifact = tmp_path / "w.slim", tmp_path / "c.slim"
        w = rng.standard_normal((d_in, d_out), dtype=np.float32)
        write_container(weights, {"w": w})
        write_container(artifact, layer_to_tensors(
            compress_layer(w, None, LayerCompressionConfig(quant_method="absmax"))))
        del w

        def eval_peak(n: int) -> int:
            inputs = tmp_path / f"x{n}.slim"
            write_container(inputs, {"x": rng.standard_normal((n, d_in), dtype=np.float32)})
            tracemalloc.start()
            try:
                code = main(["eval", "--original", str(weights), "--compressed", str(artifact),
                             "--inputs", str(inputs)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            capsys.readouterr()
            return peak

        no_inputs = eval_peak(1)
        assert eval_peak(tokens) - no_inputs < tokens * d_in * 4


class TestBudget:
    def test_opt125m_reference_values(self, capsys):
        code, out, _ = run(capsys, "budget", "--arch", "opt-125m",
                           "--density", "0.5", "--wbits", "4")
        assert code == 0
        values = dict(line.split() for line in out.strip().splitlines())
        assert float(values["memory_reduction"]) == pytest.approx(0.40, abs=0.005)
        assert float(values["flop_reduction"]) == pytest.approx(1.52, abs=0.005)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "budget", "--arch", "opt-125m",
                           "--density", "0.5", "--wbits", "4",
                           "--rank-ratio", "0.1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["memory_reduction"] == pytest.approx(0.50, abs=0.005)
        assert data["flop_reduction"] == pytest.approx(1.32, abs=0.005)

    def test_identity_scheme(self, capsys):
        code, out, _ = run(capsys, "budget", "--arch", "opt-125m", "--json")
        data = json.loads(out)
        assert data == {"memory_reduction": 1.0, "flop_reduction": 1.0}

    def test_matches_library_formulas(self, capsys):
        code, out, _ = run(capsys, "budget", "--arch", "llama-2-7b",
                           "--density", "0.5", "--wbits", "4",
                           "--rank-ratio", "0.1", "--adapter-bits", "16", "--json")
        assert code == 0
        arch = load_preset("llama-2-7b")
        scheme = SchemeConfig(density=0.5, weight_bits=4, rank_ratio=0.1)
        data = json.loads(out)
        assert data["memory_reduction"] == round(memory_reduction(arch, scheme), 4)
        assert data["flop_reduction"] == round(flop_reduction(arch, scheme), 4)

    def test_arch_from_file(self, tmp_path, capsys):
        p = tmp_path / "arch.json"
        p.write_text(json.dumps({"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": 4.0}))
        code, out, _ = run(capsys, "budget", "--arch", str(p),
                           "--density", "0.5", "--wbits", "4", "--json")
        assert code == 0
        assert json.loads(out)["memory_reduction"] == pytest.approx(0.40, abs=0.005)

    def test_arch_file_not_utf8_data_error(self, tmp_path, capsys):
        p = tmp_path / "arch.json"
        p.write_bytes(b'{"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": 4.0, "note": "\xff"}')
        code, out, err = run(capsys, "budget", "--arch", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad architecture description in {p}")

    def test_arch_file_deeply_nested_data_error(self, tmp_path, capsys):
        p = tmp_path / "arch.json"
        p.write_text("[" * 100_000)
        code, out, err = run(capsys, "budget", "--arch", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad architecture description in {p}")

    @pytest.mark.parametrize("meta_bits", ["nan", "inf"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_non_finite_meta_bits_data_error(self, capsys, meta_bits, as_json):
        code, out, err = run(capsys, "budget", "--arch", "opt-125m", "--meta-bits", meta_bits,
                             *(["--json"] if as_json else []))
        assert code == 2
        assert out == ""
        assert "sparsity_metadata_bits must be finite" in err

    def test_arch_file_non_finite_ffn_ratio_data_error(self, tmp_path, capsys):
        p = tmp_path / "arch.json"
        p.write_text('{"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": NaN}')
        code, out, err = run(capsys, "budget", "--arch", str(p))
        assert code == 2
        assert out == ""
        assert "ffn_ratio must be finite" in err

    def test_unknown_preset_data_error(self, capsys):
        code, _, _ = run(capsys, "budget", "--arch", "opt-9000t")
        assert code == 2

    def test_invalid_scheme_data_error(self, capsys):
        code, _, _ = run(capsys, "budget", "--arch", "opt-125m", "--density", "0")
        assert code == 2


class TestOracleAlpha:
    def get_ratio(self, out):
        for line in out.splitlines():
            if line.startswith("ratio:"):
                return float(line.split()[1])
        raise AssertionError(f"no ratio line in {out!r}")

    def test_two_point_near_zero_error(self, tmp_path, capsys):
        w = tmp_path / "tp.slim"
        main(["gen-fixture", "--dist", "two-point", "--shape", "100x100",
              "--seed", "20", "--out", str(w)])
        capsys.readouterr()
        code, out, _ = run(capsys, "oracle-alpha", "--weights", str(w))
        assert code == 0
        errs = [float(line.split("error=")[1]) for line in out.splitlines()
                if "error=" in line]
        # histogram bin centers sit just inside the point mass, so the
        # residual is tiny but not exactly zero
        assert len(errs) == 2 and all(e <= 1e-8 for e in errs)

    def test_gaussian_ratio_bound(self, tmp_path, capsys):
        w = tmp_path / "g.slim"
        main(["gen-fixture", "--dist", "gaussian", "--shape", "300x300",
              "--seed", "21", "--out", str(w)])
        capsys.readouterr()
        code, out, _ = run(capsys, "oracle-alpha", "--weights", str(w))
        assert code == 0
        assert self.get_ratio(out) <= 1.02

    def test_all_zero_weights(self, tmp_path, capsys):
        w = tmp_path / "z.slim"
        write_container(w, {"weights": np.zeros((10, 10), dtype=np.float32)})
        code, out, _ = run(capsys, "oracle-alpha", "--weights", str(w))
        assert code == 0
        assert "alpha=1 error=0" in out
        assert self.get_ratio(out) == 1.0

    @pytest.mark.parametrize("flag, value", [("--grid-points", "99"), ("--wbits", "9"), ("--wbits", "1"),
                                             ("--bins", "0"), ("--bins", "-3")])
    def test_grid_points_minimum(self, tmp_path, capsys, monkeypatch, flag, value):
        # an out-of-range flag is a usage error, found before the weight is read
        w = tmp_path / "g2.slim"
        main(["gen-fixture", "--dist", "gaussian", "--shape", "10x10",
              "--seed", "22", "--out", str(w)])
        capsys.readouterr()
        returned = record_reads(monkeypatch)
        code, _, err = run(capsys, "oracle-alpha", "--weights", str(w), flag, value)
        assert code == 1
        assert err.startswith(f"error: {flag} must be") and returned == []

    def test_missing_tensor_data_error(self, tmp_path, capsys, monkeypatch):
        w = tmp_path / "g3.slim"
        write_container(w, {"weights": np.ones((10, 10), dtype=np.float32),
                            "other": np.ones((10, 10), dtype=np.float32)})
        code, _, err = run(capsys, "oracle-alpha", "--weights", str(w), "--tensor", "fc1")
        assert code == 2
        assert f"{w} has no tensor named 'fc1'" in err
        returned = record_reads(monkeypatch)
        code, _, _ = run(capsys, "oracle-alpha", "--weights", str(w), "--tensor", "other")
        assert code == 0
        assert returned == [["other"]]


class TestCalib:
    def test_multiple_containers_concatenate(self, tmp_path, capsys):
        parts = []
        arrays = []
        rng = np.random.default_rng(23)
        for i in range(3):
            p = tmp_path / f"act{i}.slim"
            arr = rng.standard_normal((10 + i, 6)).astype(np.float32)
            write_container(p, {"acts": arr})
            parts.append(str(p))
            arrays.append(np.float64(arr))
        out = tmp_path / "calib.slim"
        code, stdout, _ = run(capsys, "calib", "--inputs", *parts, "--out", str(out))
        assert code == 0
        assert "33 tokens x 6 channels" in stdout
        st = load_calibration(out)
        ref = compute_calibration(arrays)
        assert np.allclose(st.mean_abs, ref.mean_abs, rtol=1e-6)

    def test_streams_the_batches(self, tmp_path, capsys, monkeypatch):
        arrays = []
        rng = np.random.default_rng(24)
        paths = []
        for i in range(3):
            p = tmp_path / f"act{i}.slim"
            tensors = {f"x{j}": rng.standard_normal((5 + i + j, 6)).astype(np.float32)
                       for j in range(2)}
            write_container(p, {**tensors, "__note__": np.zeros(3, np.uint8)})
            paths.append(str(p))
            arrays += [np.float64(t) for t in tensors.values()]
        computed = []

        def recording_compute(batches):
            assert not isinstance(batches, (list, tuple))  # a generator, read lazily
            computed.append(compute_calibration(batches))
            return computed[-1]

        monkeypatch.setattr(cli, "compute_calibration", recording_compute)
        code, _, _ = run(capsys, "calib", "--inputs", *paths, "--out", str(tmp_path / "c.slim"))
        assert code == 0
        (st,) = computed
        ref = compute_calibration(arrays)
        assert st.token_count == ref.token_count == 39
        assert np.array_equal(st.mean_abs.view(np.uint64), ref.mean_abs.view(np.uint64))
        assert np.array_equal(st.l2_norm.view(np.uint64), ref.l2_norm.view(np.uint64))
        concat = calib_by_concatenation(arrays)
        assert np.allclose(st.mean_abs, concat["mean_abs"], rtol=1e-12)
        assert np.allclose(st.l2_norm, concat["l2_norm"], rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_statistics_past_the_f32_range_are_refused(self, tmp_path, capsys):
        # every entry at 3e38: the l2 norm over 8 tokens passes f32's maximum,
        # which no reader of the file would accept
        acts, out = tmp_path / "big.slim", tmp_path / "c.slim"
        write_container(acts, {"x": np.full((8, 16), 3e38, np.float32)})
        code, stdout, err = run(capsys, "calib", "--inputs", str(acts), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == "error: l2_norm is past the float32 range a calibration container stores\n"
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.slim"]

    def test_no_usable_tensors_data_error(self, tmp_path, capsys):
        p = tmp_path / "e.slim"
        write_container(p, {})
        code, _, _ = run(capsys, "calib", "--inputs", str(p),
                         "--out", str(tmp_path / "c.slim"))
        assert code == 2


class TestTopLevel:
    def test_no_arguments_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["budget", "--arch", "opt-125m", "--bogus"]) == 1
        capsys.readouterr()

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "0.1.0" in out

    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "compress" in out and "budget" in out

    def test_log_env_controls_stderr(self, tmp_path):
        w = tmp_path / "w.slim"
        env = dict(os.environ, SLIM_LOG="debug")
        gen = subprocess.run(
            [sys.executable, "-m", "slim.cli", "gen-fixture", "--dist", "gaussian",
             "--shape", "32x32", "--seed", "1", "--out", str(w)],
            capture_output=True, text=True, env=env,
        )
        assert gen.returncode == 0
        res = subprocess.run(
            [sys.executable, "-m", "slim.cli", "compress", "--weights", str(w),
             "--out", str(tmp_path / "o"), "--quant", "slim"],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0
        assert "DEBUG" in res.stderr  # scale-search diagnostics
        quiet = subprocess.run(
            [sys.executable, "-m", "slim.cli", "compress", "--weights", str(w),
             "--out", str(tmp_path / "o2"), "--quant", "slim"],
            capture_output=True, text=True, env=dict(os.environ, SLIM_LOG="error"),
        )
        assert quiet.returncode == 0
        assert "DEBUG" not in quiet.stderr
