"""Analytic memory and FLOP budgets for compressed transformer stacks.

Both calculators model a decoder stack of n blocks over hidden size d:
each block carries 4 attention projections (d x d) plus an up/down FFN
pair (d x ad each), giving n * d^2 * (4 + 2a) weight parameters, plus an
uncompressed d * V embedding table. A rank-r adapter pair on every matrix
adds 8 * d^2 * r parameters for attention and 2 * d^2 * r * (1 + a) for
the FFN.

Memory is compared at explicit bit widths (quantized weights at
``weight_bits`` times the kept density, adapters at ``adapter_bits``,
everything else at ``dense_bits``); FLOPs count multiply-accumulates,
which quantization does not reduce, so only density and adapter rank
matter there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .container import _from_fields, _parse_json
from .errors import ConfigInvalid, SchemaViolation

__all__ = [
    "ArchConfig",
    "SchemeConfig",
    "memory_reduction",
    "flop_reduction",
    "load_arch",
    "preset_names",
    "load_preset",
]


@dataclass(frozen=True)
class ArchConfig:
    """Transformer shape: hidden size d, block count n, vocab V, FFN ratio a."""

    d: int
    n: int
    vocab: int
    ffn_ratio: float

    def __post_init__(self):
        if self.d <= 0 or self.n <= 0 or self.vocab <= 0:
            raise ConfigInvalid("d, n and vocab must be positive")
        if not 1.0 <= self.ffn_ratio < math.inf:
            raise ConfigInvalid(f"ffn_ratio must be finite and >= 1, got {self.ffn_ratio}")

    @property
    def block_weights(self) -> float:
        """Weight parameters per stack: n * d^2 * (4 + 2a)."""
        return self.n * self.d**2 * (4.0 + 2.0 * self.ffn_ratio)

    @property
    def embedding_weights(self) -> float:
        return float(self.d * self.vocab)

    def adapter_weights(self, rank_ratio: float) -> float:
        """Adapter parameters per stack at rank r = rank_ratio * d.

        4 attention matrices contribute two d x r factors each; the FFN
        up/down pair contributes d x r and r x ad (twice, both directions).
        """
        r = rank_ratio * self.d
        per_block = 8.0 * self.d * r + 2.0 * self.d * r * (1.0 + self.ffn_ratio)
        return self.n * per_block


@dataclass(frozen=True)
class SchemeConfig:
    """Compression scheme: kept density, bit widths, adapter rank ratio."""

    density: float = 1.0
    weight_bits: int = 16
    dense_bits: int = 16
    rank_ratio: float = 0.0
    adapter_bits: int = 16
    sparsity_metadata_bits: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.density <= 1.0):
            raise ConfigInvalid(f"density must be in (0, 1], got {self.density}")
        if self.weight_bits <= 0 or self.dense_bits <= 0 or self.adapter_bits <= 0:
            raise ConfigInvalid("bit widths must be positive")
        if self.weight_bits > self.dense_bits:
            raise ConfigInvalid(
                f"weight_bits {self.weight_bits} exceeds dense_bits {self.dense_bits}"
            )
        if not (0.0 <= self.rank_ratio < 1.0):
            raise ConfigInvalid(f"rank_ratio must be in [0, 1), got {self.rank_ratio}")
        if not 0.0 <= self.sparsity_metadata_bits < math.inf:
            raise ConfigInvalid(
                f"sparsity_metadata_bits must be finite and >= 0, got {self.sparsity_metadata_bits}"
            )


def memory_reduction(arch: ArchConfig, scheme: SchemeConfig) -> float:
    """Compressed-over-dense size ratio (smaller is better).

    Dense size charges every parameter at ``dense_bits``. The compressed
    model stores block weights at ``weight_bits`` times density (plus any
    per-weight sparsity metadata), adapters at ``adapter_bits``, and the
    embedding table unchanged.
    """
    dense = arch.block_weights + arch.embedding_weights
    weight_cost = (
        scheme.weight_bits * scheme.density + scheme.sparsity_metadata_bits
    ) / scheme.dense_bits
    adapter_cost = scheme.adapter_bits / scheme.dense_bits
    compressed = (
        arch.block_weights * weight_cost
        + arch.adapter_weights(scheme.rank_ratio) * adapter_cost
        + arch.embedding_weights
    )
    return compressed / dense


def flop_reduction(arch: ArchConfig, scheme: SchemeConfig) -> float:
    """Dense-over-compressed FLOP ratio (larger is better).

    Multiply-accumulates scale with the kept density and the adapter rank;
    bit widths do not enter because all arithmetic stays floating point.
    """
    dense = arch.block_weights + arch.embedding_weights
    compressed = (
        arch.block_weights * scheme.density
        + arch.adapter_weights(scheme.rank_ratio)
        + arch.embedding_weights
    )
    return dense / compressed


def _read_arch(file, source: str) -> ArchConfig:
    """ArchConfig from a UTF-8 JSON file holding exactly its four fields."""
    what = f"architecture description in {source}"
    try:
        return _from_fields(ArchConfig, _parse_json(file.read_bytes(), ConfigInvalid, what))
    except SchemaViolation as exc:
        raise ConfigInvalid(f"bad {what}: {exc}") from exc


def load_arch(path) -> ArchConfig:
    """Read an architecture JSON file: {"d", "n", "vocab", "ffn_ratio"}.

    ``d``, ``n`` and ``vocab`` must be JSON integers and ``ffn_ratio`` a
    number; any other key is refused.

    Raises:
        ConfigInvalid: the file is not UTF-8 JSON, or does not describe a
            valid architecture.
    """
    return _read_arch(Path(path), str(path))


def preset_names() -> list[str]:
    """Names of the bundled architecture presets."""
    root = resources.files("slim").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> ArchConfig:
    """Load a bundled preset by name (see :func:`preset_names`)."""
    res = resources.files("slim").joinpath("presets").joinpath(f"{name}.json")
    if not res.is_file():
        raise ConfigInvalid(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return _read_arch(res, f"preset {name}")
