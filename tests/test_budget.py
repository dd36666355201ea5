import json

import pytest

from slim import (
    ArchConfig,
    ConfigInvalid,
    SchemeConfig,
    flop_reduction,
    load_arch,
    load_preset,
    memory_reduction,
    preset_names,
)

# Frozen reduction ratios for the bundled presets, in preset-table order.
PRESET_ORDER = [
    "opt-125m", "opt-350m", "opt-1.3b", "opt-2.7b",
    "opt-6.7b", "opt-13b", "llama-2-7b", "llama-2-13b",
]

Q4_SPARSE = SchemeConfig(density=0.5, weight_bits=4)
Q4_SPARSE_LORA16 = SchemeConfig(density=0.5, weight_bits=4, rank_ratio=0.1)
Q4_SPARSE_LORA4 = SchemeConfig(
    density=0.5, weight_bits=4, rank_ratio=0.1, adapter_bits=4
)
SPARSE_FLOPS = SchemeConfig(density=0.5)
SPARSE_LORA_FLOPS = SchemeConfig(density=0.5, rank_ratio=0.1)

MEMORY_TABLE = {
    "q4_sparse": [0.40, 0.30, 0.25, 0.17, 0.15, 0.14, 0.15, 0.14],
    "q4_sparse_lora16": [0.50, 0.42, 0.38, 0.31, 0.30, 0.29, 0.31, 0.30],
    "q4_sparse_lora4": [0.42, 0.33, 0.28, 0.20, 0.19, 0.18, 0.19, 0.18],
}
FLOP_TABLE = {
    "sparse": [1.52, 1.66, 1.75, 1.91, 1.94, 1.96, 1.95, 1.97],
    "sparse_lora": [1.32, 1.39, 1.43, 1.50, 1.51, 1.52, 1.49, 1.49],
}


class TestReferenceColumns:
    def test_opt125m_memory_column(self):
        arch = load_preset("opt-125m")
        assert memory_reduction(arch, Q4_SPARSE) == pytest.approx(0.40, abs=0.005)
        assert memory_reduction(arch, Q4_SPARSE_LORA16) == pytest.approx(0.50, abs=0.005)
        assert memory_reduction(arch, Q4_SPARSE_LORA4) == pytest.approx(0.42, abs=0.005)

    def test_opt125m_flop_column(self):
        arch = load_preset("opt-125m")
        assert flop_reduction(arch, SPARSE_FLOPS) == pytest.approx(1.52, abs=0.005)
        assert flop_reduction(arch, SPARSE_LORA_FLOPS) == pytest.approx(1.32, abs=0.005)

    def test_full_memory_rows(self):
        schemes = {
            "q4_sparse": Q4_SPARSE,
            "q4_sparse_lora16": Q4_SPARSE_LORA16,
            "q4_sparse_lora4": Q4_SPARSE_LORA4,
        }
        for row, expected in MEMORY_TABLE.items():
            for name, value in zip(PRESET_ORDER, expected):
                got = memory_reduction(load_preset(name), schemes[row])
                assert got == pytest.approx(value, abs=0.01), (row, name)

    def test_full_flop_rows(self):
        schemes = {"sparse": SPARSE_FLOPS, "sparse_lora": SPARSE_LORA_FLOPS}
        for row, expected in FLOP_TABLE.items():
            for name, value in zip(PRESET_ORDER, expected):
                got = flop_reduction(load_preset(name), schemes[row])
                assert got == pytest.approx(value, abs=0.01), (row, name)

    def test_opt125m_hand_arithmetic(self):
        # blocks: 12 * 768^2 * 12 = 84,934,656; embeddings: 768 * 50272
        arch = load_preset("opt-125m")
        blocks = 12 * 768**2 * 12
        emb = 768 * 50272
        assert arch.block_weights == blocks
        assert arch.embedding_weights == emb
        expected = (blocks * (4 * 0.5) / 16 + emb) / (blocks + emb)
        assert memory_reduction(arch, Q4_SPARSE) == pytest.approx(expected, rel=1e-12)


class TestIdentityAndLimits:
    ARCH = ArchConfig(d=512, n=8, vocab=32000, ffn_ratio=4.0)

    def test_identity_scheme(self):
        assert memory_reduction(self.ARCH, SchemeConfig()) == pytest.approx(1.0)
        assert flop_reduction(self.ARCH, SchemeConfig()) == pytest.approx(1.0)

    def test_embedding_dominated_limit(self):
        # vanishing block share pushes both ratios to 1
        tiny_blocks = ArchConfig(d=4, n=1, vocab=10**7, ffn_ratio=4.0)
        scheme = SchemeConfig(density=0.5, weight_bits=4, rank_ratio=0.1)
        assert memory_reduction(tiny_blocks, scheme) == pytest.approx(1.0, abs=1e-4)
        assert flop_reduction(tiny_blocks, SPARSE_LORA_FLOPS) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_memory_monotone_in_each_knob(self):
        base = SchemeConfig(density=0.5, weight_bits=4, rank_ratio=0.1, adapter_bits=4)
        ref = memory_reduction(self.ARCH, base)
        ups = [
            SchemeConfig(density=0.6, weight_bits=4, rank_ratio=0.1, adapter_bits=4),
            SchemeConfig(density=0.5, weight_bits=5, rank_ratio=0.1, adapter_bits=4),
            SchemeConfig(density=0.5, weight_bits=4, rank_ratio=0.2, adapter_bits=4),
            SchemeConfig(density=0.5, weight_bits=4, rank_ratio=0.1, adapter_bits=8),
        ]
        for scheme in ups:
            assert memory_reduction(self.ARCH, scheme) > ref

    def test_flops_monotone_decreasing_and_bit_blind(self):
        ref = flop_reduction(self.ARCH, SchemeConfig(density=0.5, rank_ratio=0.1))
        assert flop_reduction(self.ARCH, SchemeConfig(density=0.6, rank_ratio=0.1)) < ref
        assert flop_reduction(self.ARCH, SchemeConfig(density=0.5, rank_ratio=0.2)) < ref
        for bits in (2, 4, 8):
            same = SchemeConfig(density=0.5, rank_ratio=0.1, weight_bits=bits, adapter_bits=bits)
            assert flop_reduction(self.ARCH, same) == ref

    def test_metadata_bits_increase_memory(self):
        with_meta = SchemeConfig(density=0.5, weight_bits=4, sparsity_metadata_bits=2.0)
        assert memory_reduction(self.ARCH, with_meta) > memory_reduction(
            self.ARCH, Q4_SPARSE
        )


class TestValidation:
    def test_arch_validation(self):
        with pytest.raises(ConfigInvalid):
            ArchConfig(d=0, n=1, vocab=10, ffn_ratio=4.0)
        with pytest.raises(ConfigInvalid):
            ArchConfig(d=8, n=1, vocab=10, ffn_ratio=0.5)

    @pytest.mark.parametrize("ffn_ratio", [float("nan"), float("inf")])
    def test_arch_ffn_ratio_must_be_finite(self, ffn_ratio):
        with pytest.raises(ConfigInvalid):
            ArchConfig(d=8, n=1, vocab=10, ffn_ratio=ffn_ratio)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"density": 0.0},
            {"density": 1.5},
            {"weight_bits": 0},
            {"weight_bits": 32},  # exceeds dense_bits
            {"rank_ratio": 1.0},
            {"rank_ratio": -0.1},
            {"sparsity_metadata_bits": -1.0},
            {"sparsity_metadata_bits": float("nan")},  # passed a bare `< 0` check
            {"sparsity_metadata_bits": float("inf")},
            {"sparsity_metadata_bits": float("-inf")},
        ],
    )
    def test_scheme_validation(self, kwargs):
        with pytest.raises(ConfigInvalid):
            SchemeConfig(**kwargs)


class TestLoading:
    def test_preset_names_cover_tables(self):
        names = preset_names()
        assert set(PRESET_ORDER) <= set(names)

    def test_unknown_preset(self):
        with pytest.raises(ConfigInvalid):
            load_preset("opt-9000t")

    def test_load_arch_file(self, tmp_path):
        p = tmp_path / "arch.json"
        p.write_text(json.dumps({"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": 4.0}))
        arch = load_arch(p)
        assert arch == load_preset("opt-125m")

    def test_load_arch_bad_json(self, tmp_path):
        p = tmp_path / "arch.json"
        p.write_text("{broken")
        with pytest.raises(ConfigInvalid):
            load_arch(p)

    def test_load_arch_missing_field(self, tmp_path):
        p = tmp_path / "arch.json"
        p.write_text(json.dumps({"d": 768, "n": 12}))
        with pytest.raises(ConfigInvalid):
            load_arch(p)

    def test_load_arch_non_object(self, tmp_path):
        p = tmp_path / "arch.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ConfigInvalid):
            load_arch(p)

    @pytest.mark.parametrize("edit", [
        {"d": 768.0},
        {"d": 768.7},
        {"d": True},
        {"d": "768"},
        {"n": 12.0},
        {"vocab": True},
        {"ffn_ratio": "4.0"},
        {"ffn_ratio": True},
        {"layers": 12},
    ], ids=["d_float", "d_fraction", "d_bool", "d_string", "n_float", "vocab_bool",
            "ffn_ratio_string", "ffn_ratio_bool", "unknown_key"])
    def test_load_arch_mistyped(self, tmp_path, edit):
        # exact keys and exact JSON types; nothing is truncated or coerced
        p = tmp_path / "arch.json"
        p.write_text(json.dumps({"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": 4.0, **edit}))
        with pytest.raises(ConfigInvalid):
            load_arch(p)

    def test_load_arch_integer_ffn_ratio(self, tmp_path):
        p = tmp_path / "arch.json"
        p.write_text(json.dumps({"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": 4}))
        assert load_arch(p) == load_preset("opt-125m")

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": 4.0, "d": 1024}',
    ], ids=["deeply_nested", "duplicate_key"])
    def test_load_arch_unparsable(self, tmp_path, text):
        p = tmp_path / "arch.json"
        p.write_text(text)
        with pytest.raises(ConfigInvalid):
            load_arch(p)

    def test_load_arch_not_utf8(self, tmp_path):
        p = tmp_path / "arch.json"
        p.write_bytes(b'{"d": 768, "n": 12, "vocab": 50272, "ffn_ratio": 4.0, "x": "\xff"}')
        with pytest.raises(ConfigInvalid):
            load_arch(p)

    def test_presets_load_unchanged(self):
        expected = {
            "opt-125m": (768, 12, 50272, 4.0),
            "opt-350m": (1024, 16, 50272, 4.0),
            "opt-1.3b": (2048, 12, 50272, 4.0),
            "opt-2.7b": (2560, 32, 50272, 4.0),
            "opt-6.7b": (4096, 32, 50272, 4.0),
            "opt-13b": (5120, 40, 50272, 4.0),
            "llama-2-7b": (4096, 32, 32000, 2.6875),
            "llama-2-13b": (5120, 40, 32000, 2.7),
        }
        assert sorted(preset_names()) == sorted(expected)
        for name, values in expected.items():
            arch = load_preset(name)
            got = (arch.d, arch.n, arch.vocab, arch.ffn_ratio)
            assert got == values, name
            assert [type(v) for v in got] == [int, int, int, float], name
