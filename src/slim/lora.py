"""One-shot low-rank error-compensation adapters.

After quantization and pruning leave a compressed weight w_c, a rank-r
factor pair (L, R) is fitted so that w_c + L @ R approximates the original
weight w. The naive variant minimizes the plain Frobenius norm of the
residual; the saliency-weighted variant minimizes the residual with each
input row weighted by the channel's average activation magnitude, which
spends the limited rank budget on the channels that actually carry signal.
Both reduce to an exact truncated factorization of the (weighted) error
(:func:`slim.tensor.svd_truncated`, which takes the leading singular
subspace from the smaller-side Gram matrix), so optimality in the
respective norm is the Eckart-Young optimum of that factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationStats
from .errors import EmptyStats, NonPositiveSaliency, ShapeMismatch
from .quant import DEFAULT_GROUP_SIZE, QuantizedTensor, dequantize, group_absmax_quantize
from .tensor import as_matrix, as_vector, svd_truncated

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
        v = as_vector(self.values, "saliency")
        object.__setattr__(self, "values", v)
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

    When ``quantized`` is present it holds the grouped-AbsMax codes of both
    factors and ``left``/``right`` are their dequantized values, so all
    evaluation math automatically reflects the quantized storage.
    """

    left: np.ndarray
    right: np.ndarray
    quantized: tuple[QuantizedTensor, QuantizedTensor] | None = None

    def __post_init__(self):
        left = as_matrix(self.left, "left", allow_empty=True)
        right = as_matrix(self.right, "right", allow_empty=True)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if left.shape[1] != right.shape[0]:
            raise ShapeMismatch(f"factor shapes {left.shape} x {right.shape} do not chain")
        if self.quantized is not None:
            ql, qr = self.quantized
            if ql.shape != left.shape or qr.shape != right.shape:
                raise ShapeMismatch("quantized factor shapes do not match factors")

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


def _check_pair(w, w_c) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(w, "w")
    b = as_matrix(w_c, "w_c")
    if a.shape != b.shape:
        raise ShapeMismatch(f"w shape {a.shape} != w_c shape {b.shape}")
    return a, b


def naive_lora(w, w_c, r: int) -> LowRankAdapter:
    """Best rank-r correction in the unweighted Frobenius norm.

    Truncated SVD of the compression error w - w_c; minimizes
    ``||(w - w_c) - L @ R||_F`` over all rank-r pairs.

    Raises:
        ShapeMismatch: operand shapes differ.
        RankOutOfRange: invalid ``r``.
    """
    a, b = _check_pair(w, w_c)
    left, right = svd_truncated(a - b, r)
    return LowRankAdapter(left, right)


def slim_lora(w, w_c, x: SaliencyVector, r: int) -> LowRankAdapter:
    """Best rank-r correction in the saliency-weighted Frobenius norm.

    Factors the row-weighted error diag(x) @ (w_c - w) by truncated SVD and
    unweights the left factor, flipping its sign so the correction adds
    back toward w. Minimizes ``||diag(x) @ (w - w_c - L @ R)||_F`` over all
    rank-r pairs; channels with large x are corrected preferentially.

    Raises:
        ShapeMismatch: operand shapes differ or x length is not d_in.
        RankOutOfRange: invalid ``r``.
        NonPositiveSaliency: propagated from a non-positive ``x``.
    """
    a, b = _check_pair(w, w_c)
    xv = x.values
    if xv.size != a.shape[0]:
        raise ShapeMismatch(f"saliency length {xv.size} != d_in {a.shape[0]}")
    e_c = b - a
    e_c *= xv[:, None]  # weight in place: one d_in x d_out temporary, not two
    left, right = svd_truncated(e_c, r)
    left /= -xv[:, None]
    return LowRankAdapter(left, right)


def quantize_adapter(
    a: LowRankAdapter,
    group_size: int = DEFAULT_GROUP_SIZE,
    q: int = ADAPTER_QUANT_BITS,
) -> LowRankAdapter:
    """Group-AbsMax quantize both factors; subsequent math uses the
    dequantized values.

    Raises:
        UnsupportedBitwidth / ConfigInvalid: propagated from the grouped
            quantizer.
    """
    ql = group_absmax_quantize(a.left, group_size, q)
    qr = group_absmax_quantize(a.right, group_size, q)
    return LowRankAdapter(dequantize(ql), dequantize(qr), quantized=(ql, qr))
