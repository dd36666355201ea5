"""One-shot low-rank error-compensation adapters.

After quantization and pruning leave a compressed weight w_c, a rank-r
factor pair (L, R) is fitted so that w_c + L @ R approximates the original
weight w. The saliency-weighted fit minimizes the residual with each input
row weighted by the channel's average activation magnitude, which spends
the limited rank budget on the channels that actually carry signal; the
naive fit is the same fit at unit saliency, the plain Frobenius norm. It is
an exact truncated factorization of the weighted error
(:func:`slim.tensor.svd_truncated`, which takes the leading singular
subspace from the smaller-side Gram matrix), so optimality in the
weighted norm is the Eckart-Young optimum of that factorization. The fit
reads the weighted error by blocks (:mod:`slim.tensor`), each made on
request from ``w`` and ``w_c``, and never holds it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationStats
from .errors import ConfigInvalid, EmptyStats, NonFinite, NonPositiveSaliency, ShapeMismatch
from .quant import DEFAULT_GROUP_SIZE, QuantizedTensor, dequantize, group_absmax_quantize
from .tensor import BlockSource, as_float_matrix, as_matrix, svd_truncated

__all__ = [
    "SaliencyVector",
    "LowRankAdapter",
    "saliency_vector",
    "naive_lora",
    "slim_lora",
    "quantize_adapter",
    "default_rank",
]

#: Default adapter rank as a fraction of the smaller weight dimension.
DEFAULT_RANK_RATIO = 0.1

ADAPTER_QUANT_BITS = 4


@dataclass(frozen=True)
class SaliencyVector:
    """Strictly positive per-input-channel weights for the error norm."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ShapeMismatch(f"saliency must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise NonFinite("saliency contains NaN or Inf")
        if v.size == 0:
            raise EmptyStats("saliency vector is empty")
        if (v <= 0).any():
            raise NonPositiveSaliency("saliency entries must be strictly positive")

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def constant(cls, d_in: int, value: float = 1.0) -> "SaliencyVector":
        return cls(np.full(d_in, value, dtype=np.float64))


@dataclass(frozen=True)
class LowRankAdapter:
    """Factor pair correcting compression error: w ~ w_c + left @ right.

    Each factor is given once, both as matrices or both as the grouped-AbsMax
    codes that store them (else ConfigInvalid). Given codes, ``quantized``
    holds them and ``left``/``right`` are their dequantized values, so all
    evaluation math reflects the quantized storage.
    """

    left: np.ndarray
    right: np.ndarray
    quantized: tuple[QuantizedTensor, QuantizedTensor] | None = field(init=False, default=None)

    def __post_init__(self):
        factors = (self.left, self.right)
        coded = sum(isinstance(f, QuantizedTensor) for f in factors)
        if coded == 1:
            raise ConfigInvalid("adapter factors must both be codes or both be matrices")
        if coded:
            object.__setattr__(self, "quantized", factors)
        left, right = map(dequantize, factors) if coded else factors
        left = as_matrix(left, "left", allow_empty=True)
        right = as_matrix(right, "right", allow_empty=True)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if left.shape[1] != right.shape[0]:
            raise ShapeMismatch(f"factor shapes {left.shape} x {right.shape} do not chain")

    @property
    def rank(self) -> int:
        """Columns of ``left``, which are the rows of ``right``."""
        return self.left.shape[1]

    def correction(self) -> np.ndarray:
        """Dense left @ right product."""
        return self.left @ self.right


def default_rank(d_in: int, d_out: int, rank_ratio: float = DEFAULT_RANK_RATIO) -> int:
    """ceil(rank_ratio * min(d_in, d_out)), at least 1."""
    return max(1, int(np.ceil(rank_ratio * min(d_in, d_out))))


def saliency_vector(stats: CalibrationStats) -> SaliencyVector:
    """Positive saliency from mean absolute activations.

    The raw per-channel means are shifted by their own minimum plus a
    relative epsilon so the result is strictly positive (and therefore
    invertible as a diagonal weighting) even when some channels were
    silent during calibration.
    """
    x_tilde = stats.mean_abs
    eps = 1e-8 * (float(x_tilde.max()) + 1.0)
    return SaliencyVector(x_tilde + float(x_tilde.min()) + eps)


def naive_lora(w, w_c, r: int) -> LowRankAdapter:
    """Best rank-r correction in the unweighted Frobenius norm:
    :func:`slim_lora` at unit saliency.

    Truncated SVD of the compression error w - w_c; minimizes
    ``||(w - w_c) - L @ R||_F`` over all rank-r pairs.

    Raises:
        ShapeMismatch: operand shapes differ.
        RankOutOfRange: invalid ``r``.
    """
    a = as_float_matrix(w, "w")
    return slim_lora(a, w_c, SaliencyVector.constant(a.shape[0]), r)


def slim_lora(w, w_c, x: SaliencyVector, r: int) -> LowRankAdapter:
    """Best rank-r correction in the saliency-weighted Frobenius norm.

    Factors the row-weighted error diag(x) @ (w - w_c) by truncated SVD and
    unweights the left factor. Minimizes ``||diag(x) @ (w - w_c - L @ R)||_F``
    over all rank-r pairs; channels with large x are corrected
    preferentially.

    Raises:
        ShapeMismatch: operand shapes differ or x length is not d_in.
        RankOutOfRange: invalid ``r``.
        NonPositiveSaliency: propagated from a non-positive ``x``.
    """
    a = as_float_matrix(w, "w")  # an f32 w widens element by element in a - b
    b = as_matrix(w_c, "w_c")
    if a.shape != b.shape:
        raise ShapeMismatch(f"w shape {a.shape} != w_c shape {b.shape}")
    if len(x) != a.shape[0]:
        raise ShapeMismatch(f"saliency length {len(x)} != d_in {a.shape[0]}")
    return _weighted_fit(BlockSource(lambda rows, cols: a[rows, cols] - b[rows, cols], a.shape), x, r)


def _weighted_fit(difference: BlockSource, x: SaliencyVector, r: int) -> LowRankAdapter:
    """:func:`slim_lora` of the error ``w - w_c`` whose blocks
    ``difference`` makes, each weighted in place, as
    :func:`~slim.pipeline._residual` makes them."""
    xv = x.values[:, None]

    def weighted(rows: slice, cols: slice) -> np.ndarray:
        e = difference(rows, cols)
        e *= xv[rows]
        return e

    left, right = svd_truncated(BlockSource(weighted, difference.shape), r)
    left /= xv
    return LowRankAdapter(left, right)


def quantize_adapter(a: LowRankAdapter, group_size: int = DEFAULT_GROUP_SIZE) -> LowRankAdapter:
    """Group-AbsMax quantize both factors to :data:`ADAPTER_QUANT_BITS`
    bits, the width the artifact stores; subsequent math uses the
    dequantized values.

    Raises:
        ConfigInvalid: propagated from the grouped quantizer.
    """
    return LowRankAdapter(*(group_absmax_quantize(f, group_size, ADAPTER_QUANT_BITS)
                            for f in (a.left, a.right)))
