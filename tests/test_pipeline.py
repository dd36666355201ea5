import dataclasses

import numpy as np
import pytest

from slim import (
    CompressedLayer,
    ConfigInvalid,
    EmptyTensor,
    LayerCompressionConfig,
    LowRankAdapter,
    NonFinite,
    NonPositiveAlpha,
    Provenance,
    QuantizedTensor,
    ShapeMismatch,
    SparsityMask,
    SparsityPattern,
    absmax_alpha,
    compress_layer,
    compute_calibration,
    error_report,
    fp8_fake_quantize,
    layer_output,
    quantize_adapter,
    saliency_vector,
    weight_space_report,
)
from slim import pipeline, prune, quant
from slim.artifact import layer_to_bytes


RNG = np.random.default_rng(100)
W = RNG.standard_normal((32, 24))
W32 = W.astype(np.float32)
X = RNG.standard_normal((64, 32))
STATS = compute_calibration([X])


def layer_arrays(obj) -> list:
    """Every array a layer holds, through its dataclass fields and tuples,
    and a mask's bits."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, SparsityMask):
        return [obj.bits]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in layer_arrays(getattr(obj, f.name))]
    if isinstance(obj, tuple):
        return [a for part in obj for a in layer_arrays(part)]
    return []


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = LayerCompressionConfig()
        assert cfg.quant_method == "slim_quant"
        assert cfg.weight_bits == 4
        assert cfg.adapter_method == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quant_method": "bogus"},
            {"prune_scores": "bogus"},
            {"adapter_method": "bogus"},
            {"weight_bits": 1},
            {"weight_bits": 9},
            {"group_size": 0},
            {"rank_ratio": 0.1},  # adapter_method defaults to none
            {"quantize_adapters": True},
            {"adapter_method": "naive", "rank_ratio": 0.0},
            {"adapter_method": "naive", "rank_ratio": 1.5},
            {"scale_fraction": 0.0},
            {"scale_factor": 1.0},
        ],
    )
    def test_rejected_configs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            LayerCompressionConfig(**kwargs)

    @pytest.mark.parametrize("bits", [4.5, 4.0, True, "4", np.int64(4)])
    def test_weight_bits_must_be_an_int(self, bits):
        # the packed code width follows from weight_bits, and __config__
        # stores it as a JSON integer
        with pytest.raises(ConfigInvalid):
            LayerCompressionConfig(weight_bits=bits)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quant_method": "group_absmax", "group_size": 8.0},
            {"quant_method": "group_absmax", "group_size": True},
            {"quant_method": "none", "weight_bits": 4.0},
            {"adapter_method": "naive", "rank_ratio": True},
            {"input_fp8": 1},
            {"quantize_adapters": 0},
            {"channel_scaling": 0},
            {"scale_fraction": "0.1"},
        ],
    )
    def test_fields_must_have_their_annotated_type(self, kwargs):
        # accepted, each would fail only later: inside numpy, in the
        # artifact writer, or as a bare TypeError
        with pytest.raises(ConfigInvalid):
            LayerCompressionConfig(**kwargs)

    def test_effective_rank_ratio_default(self):
        cfg = LayerCompressionConfig(adapter_method="slim")
        assert cfg.rank_ratio is None
        assert cfg.effective_rank_ratio == 0.1

    def test_scaling_enabled_logic(self):
        assert LayerCompressionConfig(quant_method="slim_quant_o").scaling_enabled
        assert not LayerCompressionConfig(quant_method="slim_quant").scaling_enabled
        assert LayerCompressionConfig(
            quant_method="absmax", channel_scaling=True
        ).scaling_enabled
        assert not LayerCompressionConfig(
            quant_method="slim_quant_o", channel_scaling=False
        ).scaling_enabled

    def test_needs_stats_table(self):
        cases = [
            (LayerCompressionConfig(), False),
            (LayerCompressionConfig(quant_method="slim_quant_o"), True),
            (LayerCompressionConfig(adapter_method="slim", rank_ratio=0.1), True),
            (LayerCompressionConfig(adapter_method="naive", rank_ratio=0.1), False),
            (
                LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4)),
                True,  # wanda scores by default
            ),
            (
                LayerCompressionConfig(
                    sparsity=SparsityPattern.semistructured(2, 4),
                    prune_scores="magnitude",
                ),
                False,
            ),
        ]
        for cfg, expected in cases:
            assert cfg.needs_stats() is expected, cfg


class TestCompressLayer:
    def test_identity_config_changes_nothing(self):
        # the artifact stores f32 values: an f32 weight survives unchanged,
        # and a float64 one is held at its f32 values
        cfg = LayerCompressionConfig(quant_method="none")
        layer = compress_layer(W32, None, cfg)
        assert np.array_equal(layer.effective_weight(), W32)
        assert layer.mask is None and layer.adapter is None
        assert np.array_equal(layer_output(X, layer), X @ W32.astype(np.float64))
        held = compress_layer(W, None, cfg).weights
        assert np.array_equal(held, W32) and not np.shares_memory(held, W)

    def test_missing_required_stats(self):
        for cfg in (
            LayerCompressionConfig(quant_method="slim_quant_o"),
            LayerCompressionConfig(adapter_method="slim", rank_ratio=0.1),
            LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4)),
        ):
            with pytest.raises(ConfigInvalid):
                compress_layer(W, None, cfg)

    def test_stats_dimension_mismatch(self):
        bad = compute_calibration([np.ones((4, 8))])
        with pytest.raises(ShapeMismatch):
            compress_layer(W, bad, LayerCompressionConfig())

    def test_absmax_provenance_alpha(self):
        layer = compress_layer(W, None, LayerCompressionConfig(quant_method="absmax"))
        assert layer.provenance.alpha == absmax_alpha(W)
        assert layer.provenance.rows == 32 and layer.provenance.cols == 24

    def test_slim_quant_beats_absmax_on_weight_mse(self):
        heavy = RNG.laplace(0.0, 1.0, (64, 64))
        sal = saliency_vector(STATS)
        xe = np.eye(64)
        mse = {}
        for method in ("absmax", "slim_quant"):
            cfg = LayerCompressionConfig(quant_method=method, weight_bits=4)
            layer = compress_layer(heavy, None, cfg)
            sal64 = saliency_vector(compute_calibration([xe]))
            mse[method] = error_report(heavy, layer, xe, sal64).weight_mse
        assert mse["slim_quant"] < mse["absmax"]

    def test_group_absmax_stored_form(self):
        cfg = LayerCompressionConfig(quant_method="group_absmax", group_size=8)
        layer = compress_layer(W, None, cfg)
        assert isinstance(layer.weights, QuantizedTensor)
        assert layer.weights.group_size == 8
        assert layer.provenance.alpha is None

    def test_semistructured_pruning_zeroes_codes(self):
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.semistructured(2, 4))
        layer = compress_layer(W, STATS, cfg)
        assert layer.mask.density == 0.5
        assert np.all(layer.weights.codes[~layer.mask.keep] == 0)
        groups = layer.mask.keep.reshape(8, 4, 24)
        assert np.all(groups.sum(axis=1) == 2)

    def test_unstructured_pruning_density(self):
        cfg = LayerCompressionConfig(sparsity=SparsityPattern.unstructured(0.25))
        layer = compress_layer(W, STATS, cfg)
        assert np.all(layer.mask.keep.sum(axis=0) == 24)  # ceil(0.75 * 32)

    def test_channel_scaling_roundtrips_in_effective_weight(self):
        # unquantized pipeline: scaling by 2 then descaling is exact at f32
        cfg = LayerCompressionConfig(
            quant_method="none", channel_scaling=True, scale_fraction=0.1
        )
        layer = compress_layer(W32, STATS, cfg)
        assert layer.channel_scaling is not None
        assert layer.channel_scaling.channel_indices.size == 4  # ceil(0.1 * 32)
        assert np.array_equal(layer.effective_weight(), W32)
        ref = X @ W32.astype(np.float64)
        out = layer_output(X, layer)
        assert np.linalg.norm(out - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_scaled_rows_stored_scaled(self):
        cfg = LayerCompressionConfig(
            quant_method="none", channel_scaling=True, scale_fraction=0.1
        )
        layer = compress_layer(W, STATS, cfg)
        idx = layer.channel_scaling.channel_indices
        stored = layer.stored_weight()
        assert np.allclose(stored[idx], 2.0 * W[idx])

    def test_adapter_reduces_both_error_norms(self):
        cfg = LayerCompressionConfig(
            quant_method="slim_quant",
            weight_bits=4,
            sparsity=SparsityPattern.semistructured(2, 4),
            adapter_method="slim",
            rank_ratio=0.1,
        )
        layer = compress_layer(W, STATS, cfg)
        bare = dataclasses.replace(layer, adapter=None)
        sal = saliency_vector(STATS)
        with_a = error_report(W, layer, X, sal)
        without = error_report(W, bare, X, sal)
        assert with_a.weighted_weight_mse < without.weighted_weight_mse
        assert with_a.output_mse < without.output_mse
        assert with_a.output_mse_no_adapter == pytest.approx(without.output_mse)

    def test_naive_adapter_minimizes_unweighted_error(self):
        base = LayerCompressionConfig(
            quant_method="slim_quant", weight_bits=3,
            adapter_method="naive", rank_ratio=0.2,
        )
        slim_cfg = dataclasses.replace(base, adapter_method="slim")
        sal = saliency_vector(STATS)
        naive_rep = error_report(W, compress_layer(W, STATS, base), X, sal)
        slim_rep = error_report(W, compress_layer(W, STATS, slim_cfg), X, sal)
        assert naive_rep.weight_mse <= slim_rep.weight_mse + 1e-12
        assert slim_rep.weighted_weight_mse <= naive_rep.weighted_weight_mse + 1e-12

    def test_quantized_adapter_stored_quantized(self):
        cfg = LayerCompressionConfig(
            adapter_method="slim", rank_ratio=0.2, quantize_adapters=True, group_size=8
        )
        layer = compress_layer(W, STATS, cfg)
        assert layer.adapter.quantized is not None
        ql, qr = layer.adapter.quantized
        assert ql.bits == 4 and qr.bits == 4

    def test_deterministic_bytes(self):
        cfg = LayerCompressionConfig(
            quant_method="slim_quant_o",
            sparsity=SparsityPattern.semistructured(2, 4),
            adapter_method="slim",
            rank_ratio=0.25,
            scale_fraction=0.1,
        )
        a = layer_to_bytes(compress_layer(W, STATS, cfg))
        b = layer_to_bytes(compress_layer(W.copy(), STATS, cfg))
        assert a == b


class TestF32Range:
    """A layer holds the f32 values its artifact stores, so a scale or value
    f32 cannot hold is refused when the layer is built, before any write."""

    @staticmethod
    def adapter_layer(adapter, quantized):
        cfg = LayerCompressionConfig(quant_method="none", adapter_method="naive", rank_ratio=0.25,
                                     quantize_adapters=quantized, group_size=4)
        return CompressedLayer(weights=np.zeros((8, 8)), mask=None, adapter=adapter,
                               channel_scaling=None, config=cfg, provenance=Provenance(8, 8))

    @pytest.mark.parametrize("quant", ["absmax", "group_absmax", "slim_quant"])
    @pytest.mark.parametrize("magnitude", [1e-50, 1e39])
    def test_weight_scale_f32_cannot_hold(self, quant, magnitude):
        # the scales round to 0 or inf at f32
        w = np.random.default_rng(1).standard_normal((8, 8)) * magnitude
        with pytest.raises(NonPositiveAlpha):
            compress_layer(w, None, LayerCompressionConfig(quant_method=quant, group_size=4))

    def test_raw_weight_f32_cannot_hold(self):
        w = np.random.default_rng(2).standard_normal((8, 8)) * 1e39
        with pytest.raises(NonFinite):
            compress_layer(w, None, LayerCompressionConfig(quant_method="none"))

    def test_adapter_scale_f32_cannot_hold(self):
        adapter = quantize_adapter(LowRankAdapter(np.full((8, 2), 1e-50), np.ones((2, 8))), 4)
        with pytest.raises(NonPositiveAlpha):
            self.adapter_layer(adapter, quantized=True)

    def test_adapter_factor_f32_cannot_hold(self):
        with pytest.raises(NonFinite):
            self.adapter_layer(LowRankAdapter(np.full((8, 2), 1e39), np.ones((2, 8))), False)

    @pytest.mark.parametrize("quant", ["absmax", "group_absmax", "slim_quant", "none"])
    def test_f32_extremes_are_kept(self, quant):
        # the largest f32 and the smallest subnormal are stored, not refused
        f32 = np.finfo(np.float32)
        w = np.full((8, 8), f32.smallest_subnormal, np.float32)
        w[0, 0] = f32.max
        layer = compress_layer(w, None, LayerCompressionConfig(quant_method=quant, group_size=4))
        if quant == "none":
            assert np.array_equal(layer.weights, w)
        else:
            assert np.isfinite(layer.weights.scales).all() and (layer.weights.scales > 0).all()


class TestCallerArraysUntouched:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_scores_masks_and_compress_leave_inputs_bit_identical(self, order):
        # every buffer the pipeline reuses in place must be its own, never
        # the caller's weight, statistics or scores
        w = np.array(W, order=order)
        w[0, :3] = [-0.0, 0.0, -0.0]
        stats = compute_calibration([X])
        scores = prune.wanda_scores(w, stats)
        caller = [w, stats.l2_norm, stats.mean_abs, scores, np.asfortranarray(scores)]
        before = [a.tobytes() for a in caller]
        for pattern in (SparsityPattern.unstructured(0.5), SparsityPattern.semistructured(2, 4)):
            for s in caller[3:]:
                prune.build_mask(s, pattern)
            for cfg in (
                LayerCompressionConfig(quant_method="none", sparsity=pattern),
                LayerCompressionConfig(quant_method="slim_quant_o", sparsity=pattern),
                LayerCompressionConfig(sparsity=pattern, prune_scores="magnitude"),
            ):
                compress_layer(w, stats, cfg)
        prune.wanda_scores(w, stats)
        assert [a.tobytes() for a in caller] == before


class TestLayerOutput:
    def test_matches_dense_reconstruction(self):
        cfg = LayerCompressionConfig(
            quant_method="slim_quant_o",
            sparsity=SparsityPattern.semistructured(2, 4),
            adapter_method="slim",
            rank_ratio=0.2,
            scale_fraction=0.1,
        )
        layer = compress_layer(W, STATS, cfg)
        out = layer_output(X, layer)
        dense = X @ layer.corrected_weight()
        assert np.allclose(out, dense, rtol=1e-10, atol=1e-12)

    def test_fp8_input_path(self):
        cfg = LayerCompressionConfig(
            quant_method="slim_quant", adapter_method="naive",
            rank_ratio=0.2, input_fp8=True,
        )
        layer = compress_layer(W, STATS, cfg)
        out = layer_output(X, layer)
        xq, _ = fp8_fake_quantize(X)
        dense = xq @ layer.corrected_weight()
        assert np.allclose(out, dense, rtol=1e-10, atol=1e-12)
        # fp8 actually perturbs the inputs, so outputs differ from exact-x
        no_fp8 = dataclasses.replace(layer, config=dataclasses.replace(cfg, input_fp8=False))
        assert not np.array_equal(out, layer_output(X, no_fp8))

    def test_wrong_input_width(self):
        layer = compress_layer(W, None, LayerCompressionConfig(quant_method="none"))
        with pytest.raises(ShapeMismatch):
            layer_output(np.ones((3, 31)), layer)

    @pytest.mark.parametrize("input_fp8", [False, True])
    @pytest.mark.parametrize("x, error", [
        (np.zeros((0, 32)), EmptyTensor),
        (np.zeros((4, 0)), EmptyTensor),
        (np.full((4, 32), np.nan), NonFinite),
        (np.ones((4, 31)), ShapeMismatch),
        (np.ones(32), ShapeMismatch),
    ], ids=["no-rows", "no-columns", "nan", "width", "1-d"])
    def test_invalid_inputs_raise_typed_errors(self, input_fp8, x, error):
        layer = compress_layer(W, None, LayerCompressionConfig(input_fp8=input_fp8))
        with pytest.raises(error):
            layer_output(x, layer)

    @pytest.mark.parametrize("input_fp8", [False, True])
    def test_input_is_validated_once(self, input_fp8, monkeypatch):
        calls = []

        def counting(as_matrix):
            def wrapped(*args, **kwargs):
                calls.append(args[1:])
                return as_matrix(*args, **kwargs)
            return wrapped

        for module in (pipeline, quant):
            monkeypatch.setattr(module, "as_matrix", counting(module.as_matrix))
        layer = compress_layer(W, None, LayerCompressionConfig(input_fp8=input_fp8))
        calls.clear()
        out = layer_output(X, layer)
        assert calls == [("x",)]
        xq = fp8_fake_quantize(X)[0] if input_fp8 else X
        assert np.array_equal(out, xq @ layer.stored_weight())


class TestErrorReport:
    def make(self, cfg=None):
        cfg = cfg or LayerCompressionConfig(
            weight_bits=4,
            sparsity=SparsityPattern.semistructured(2, 4),
            adapter_method="slim",
            rank_ratio=0.1,
        )
        layer = compress_layer(W, STATS, cfg)
        return layer, error_report(W, layer, X, saliency_vector(STATS))

    def test_matches_manual_formulas(self):
        layer, rep = self.make()
        w_eff = layer.corrected_weight()
        sal = saliency_vector(STATS).values
        assert rep.weight_mse == pytest.approx(np.mean((w_eff - W) ** 2), rel=1e-12)
        assert rep.weighted_weight_mse == pytest.approx(
            np.mean((sal[:, None] * (w_eff - W)) ** 2), rel=1e-12
        )
        assert rep.output_mse == pytest.approx(
            np.mean((X @ w_eff - X @ W) ** 2), rel=1e-12
        )
        assert rep.density == 0.5

    def test_effective_bits_hand_value(self):
        layer, rep = self.make()
        r = layer.adapter.rank  # ceil(0.1 * 24) = 3
        assert r == 3
        # kept 4-bit codes, one f32 scale, the 1-bit mask, f32 adapter factors
        expected = 4 * 0.5 + (32 + 32 * 24 + 32 * r * (32 + 24)) / (32 * 24)
        assert rep.effective_bits_per_weight == pytest.approx(expected, rel=1e-12)

    def test_effective_bits_quantized_adapter(self):
        cfg = LayerCompressionConfig(
            weight_bits=4, adapter_method="naive", rank_ratio=0.125,
            quantize_adapters=True, group_size=8,
        )
        layer = compress_layer(W, STATS, cfg)
        rep = error_report(W, layer, X, saliency_vector(STATS))
        r = layer.adapter.rank  # 3: 96 + 72 codes in 12 + 9 groups of 8
        assert r == 3
        expected = 4.0 + (32 + 4 * r * (32 + 24) + 32 * (12 + 9)) / (32 * 24)
        assert rep.effective_bits_per_weight == pytest.approx(expected, rel=1e-12)

    def test_corrected_weight_never_aliases_the_stored_weight(self):
        cfg = LayerCompressionConfig(quant_method="none", adapter_method="naive", rank_ratio=0.1)
        layer = compress_layer(W, None, cfg)
        stored = layer.weights.copy()
        first, second = layer.corrected_weight(), layer.corrected_weight()
        assert np.array_equal(layer.weights, stored)
        assert np.array_equal(first, second)
        for a in (first, second, layer.effective_weight(), layer.stored_weight()):
            assert not np.may_share_memory(a, layer.weights)

    def test_dense_layer_reports_zero_error(self):
        # an f32 weight is stored exactly
        layer = compress_layer(W32, None, LayerCompressionConfig(quant_method="none"))
        rep = error_report(W32, layer, X, saliency_vector(STATS))
        assert rep.weight_mse == 0.0
        assert rep.output_mse == 0.0
        assert rep.effective_bits_per_weight == 32.0  # raw f32 values

    def test_json_round_trip(self):
        import json

        _, rep = self.make()
        assert json.loads(rep.to_json()) == rep.to_dict()

    @pytest.mark.parametrize("cfg", [
        LayerCompressionConfig(weight_bits=4, sparsity=SparsityPattern.semistructured(2, 4),
                               adapter_method="slim", rank_ratio=0.1),
        LayerCompressionConfig(quant_method="slim_quant_o", adapter_method="naive",
                               rank_ratio=0.2, quantize_adapters=True, group_size=8),
        LayerCompressionConfig(quant_method="none", channel_scaling=True,
                               sparsity=SparsityPattern.unstructured(0.5),
                               adapter_method="naive", rank_ratio=0.1),
    ])
    def test_no_adapter_output_matches_manual_formula(self, cfg):
        layer = compress_layer(W, STATS, cfg)
        rep = error_report(W, layer, X, saliency_vector(STATS))
        assert rep.output_mse_no_adapter == pytest.approx(
            np.mean((X @ layer.effective_weight() - X @ W) ** 2), rel=1e-12
        )
        assert rep.output_mse_no_adapter > rep.output_mse

    @pytest.mark.parametrize("quant", ["absmax", "group_absmax", "slim_quant", "slim_quant_o"])
    @pytest.mark.parametrize("sparsity", [None, SparsityPattern.unstructured(0.5)])
    def test_without_adapter_both_output_fields_are_one_number(self, quant, sparsity):
        cfg = LayerCompressionConfig(quant_method=quant, sparsity=sparsity, group_size=8)
        rep = error_report(W, compress_layer(W, STATS, cfg), X, saliency_vector(STATS))
        assert rep.output_mse > 0.0
        assert rep.output_mse == rep.output_mse_no_adapter

    @pytest.mark.parametrize("quant", ["absmax", "group_absmax", "slim_quant", "slim_quant_o",
                                       "none"])
    @pytest.mark.parametrize("adapter", [{}, {"adapter_method": "naive", "rank_ratio": 0.1},
                                         {"adapter_method": "slim", "rank_ratio": 0.1},
                                         {"adapter_method": "slim", "rank_ratio": 0.2,
                                          "quantize_adapters": True}])
    @pytest.mark.parametrize("sparsity", [None, SparsityPattern.semistructured(2, 4)])
    def test_weight_space_report_and_layer_arrays(self, quant, adapter, sparsity):
        # weight_space_report is error_report's weight half, exactly; and
        # neither report writes into the layer or the caller's arrays
        cfg = LayerCompressionConfig(quant_method=quant, sparsity=sparsity, group_size=8,
                                     **adapter)
        layer = compress_layer(W, STATS, cfg)
        sal = saliency_vector(STATS)
        arrays = [W, X, sal.values, *layer_arrays(layer)]
        before = [a.tobytes() for a in arrays]
        rep = error_report(W, layer, X, sal)
        weight = weight_space_report(W, layer, sal)
        assert weight == {k: getattr(rep, k) for k in weight}
        assert set(weight) == {"weight_mse", "weighted_weight_mse", "density",
                               "effective_bits_per_weight"}
        assert [a.tobytes() for a in arrays] == before

    def test_x_eval_width_is_checked_before_the_saliency(self):
        # a saliency made from a too-narrow x_eval has its width too: the
        # message names the input the caller gave, not the saliency
        layer, _ = self.make()
        x = X[:, :24]
        with pytest.raises(ShapeMismatch, match=r"^x_eval has 24 columns, layer expects 32$"):
            error_report(W, layer, x, saliency_vector(compute_calibration([x])))

    def test_shape_checks(self):
        layer, _ = self.make()
        sal = saliency_vector(STATS)
        with pytest.raises(ShapeMismatch):
            error_report(W[:31], layer, X, sal)
        with pytest.raises(ShapeMismatch):
            error_report(W, layer, X[:, :31], sal)
