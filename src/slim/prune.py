"""Saliency scores and sparsity masks.

Scores are either plain magnitudes or magnitudes weighted by the l2 norm
of each input channel's calibration activations. Masks come in two
flavors: unstructured (keep a fixed fraction per output column) and n:m
semi-structured (keep exactly n of every m consecutive weights along the
input dimension, the layout hardware sparse kernels accelerate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .calibration import CalibrationStats
from .errors import ConfigInvalid, IndivisibleDimension, ShapeMismatch
from .tensor import as_float_matrix, as_matrix

__all__ = [
    "SparsityPattern",
    "SparsityMask",
    "wanda_scores",
    "magnitude_scores",
    "unstructured_mask",
    "semistructured_mask",
    "apply_mask",
]


@dataclass(frozen=True)
class SparsityPattern:
    """Target sparsity structure.

    ``kind`` is "unstructured" (drop ``ratio`` of each output column) or
    "semistructured" (keep ``n`` of every ``m`` along the input dim).
    """

    kind: str
    ratio: float | None = None
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind == "unstructured":
            if self.ratio is None or not (0.0 <= self.ratio < 1.0):
                raise ConfigInvalid(f"ratio must be in [0, 1), got {self.ratio}")
            if self.n is not None or self.m is not None:
                raise ConfigInvalid("unstructured pattern takes no n/m")
        elif self.kind == "semistructured":
            if self.n is None or self.m is None or not (0 < self.n < self.m):
                raise ConfigInvalid(f"semi-structured needs 0 < n < m, got {self.n}:{self.m}")
            if self.ratio is not None:
                raise ConfigInvalid("semi-structured pattern takes no ratio")
        else:
            raise ConfigInvalid(f"unknown sparsity kind {self.kind!r}")

    @classmethod
    def unstructured(cls, ratio: float) -> "SparsityPattern":
        return cls(kind="unstructured", ratio=float(ratio))

    @classmethod
    def semistructured(cls, n: int, m: int) -> "SparsityPattern":
        return cls(kind="semistructured", n=int(n), m=int(m))

    @classmethod
    def parse(cls, text: str) -> "SparsityPattern | None":
        """Parse CLI syntax: "none", "unstructured:RATIO", or "N:M"."""
        text = text.strip().lower()
        if text == "none":
            return None
        if text.startswith("unstructured:"):
            try:
                ratio = float(text.split(":", 1)[1])
            except ValueError:
                raise ConfigInvalid(f"bad unstructured ratio in {text!r}") from None
            return cls.unstructured(ratio)
        parts = text.split(":")
        if len(parts) == 2:
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ConfigInvalid(f"bad sparsity pattern {text!r}") from None
            return cls.semistructured(n, m)
        raise ConfigInvalid(f"bad sparsity pattern {text!r}")

    def spec_string(self) -> str:
        if self.kind == "unstructured":
            return f"unstructured:{self.ratio}"
        return f"{self.n}:{self.m}"


@dataclass(frozen=True)
class SparsityMask:
    """Boolean keep/drop matrix produced by a masking rule."""

    keep: np.ndarray

    def __post_init__(self):
        keep = np.asarray(self.keep, dtype=bool)
        object.__setattr__(self, "keep", keep)
        if keep.ndim != 2:
            raise ShapeMismatch(f"mask must be 2-D, got shape {keep.shape}")

    @property
    def density(self) -> float:
        """Kept fraction."""
        return float(self.keep.mean()) if self.keep.size else 1.0


def wanda_scores(w, stats: CalibrationStats) -> np.ndarray:
    """Activation-weighted saliency: |w_ij| times the l2 norm of input channel i.

    Raises:
        ShapeMismatch: statistics channel count differs from the weight row count.
    """
    arr = as_float_matrix(w, "w")
    stats._check_rows(arr.shape[0])
    return _scores(arr.astype(np.float64), stats.l2_norm)


def magnitude_scores(w) -> np.ndarray:
    """Elementwise |w|."""
    return _scores(as_float_matrix(w, "w", allow_empty=True).astype(np.float64))


def _scores(block: np.ndarray, norms=None) -> np.ndarray:
    """A new float64 ``block`` of weights turned into ``|w|`` in place, times
    ``norms[i]`` on its row i when given; the block comes back."""
    np.abs(block, out=block)
    if norms is not None:
        block *= norms[:, None]
    return block


def unstructured_mask(scores, ratio: float) -> SparsityMask:
    """Keep the top ``ceil((1 - ratio) * d_in)`` scores in every output column.

    Selection, not sorting: a partition finds each column's k-th largest
    score, every score above it is kept, and the scores equal to it fill the
    remaining places, lowest input index first: the first k entries of a
    stable descending sort. Columns are ranked in blocks of about
    :data:`~slim.tensor.BLOCK_ELEMENTS` scores (:func:`build_mask`).
    ``ratio`` = 0 keeps everything.

    Raises:
        ConfigInvalid: ``ratio`` outside [0, 1).
    """
    return build_mask(scores, SparsityPattern.unstructured(ratio))


def semistructured_mask(scores, n: int, m: int) -> SparsityMask:
    """Keep exactly ``n`` of every aligned ``m`` consecutive input weights.

    Groups run along the input dimension at fixed output index. Each entry
    is ranked within its group by pairwise comparison: entry i is beaten by
    every earlier entry with a score >= its own and every later entry with a
    strictly greater score, and it is kept when fewer than ``n`` beat it.
    That rank is its position in a stable descending sort of the group, so
    ties break toward the lower input index.

    Raises:
        ConfigInvalid: not 0 < n < m.
        IndivisibleDimension: input dimension not divisible by ``m``.
    """
    return build_mask(scores, SparsityPattern.semistructured(n, m))


def _top_k(block: np.ndarray, k: int) -> np.ndarray:
    """Keep-mask of the ``k`` largest scores in each column of ``block``,
    ties to the lower index (the rule of :func:`unstructured_mask`)."""
    part = np.ascontiguousarray(block.T)  # each column a contiguous row
    d_in = part.shape[1]
    kth = np.partition(part, d_in - k, axis=1)[:, d_in - k, None]
    keep = part > kth
    tied = part == kth
    need = k - np.count_nonzero(keep, axis=1)
    over = np.count_nonzero(tied, axis=1) > need  # columns whose first ``need`` ties fill
    if over.any():
        sub = tied[over]
        sub &= np.cumsum(sub, axis=1, dtype=np.min_scalar_type(d_in)) <= need[over, None]
        tied[over] = sub
    keep |= tied
    return keep.T


def _n_of_m(block: np.ndarray, n: int, m: int) -> np.ndarray:
    """Keep-mask of the ``n`` largest of every ``m`` consecutive scores down
    each column of ``block``, by the pairwise rank of :func:`semistructured_mask`."""
    grouped = block.reshape(-1, m, block.shape[1])
    rank = np.zeros(grouped.shape, dtype=np.min_scalar_type(m))
    for i in range(m):
        for j in range(i + 1, m):
            later_wins = grouped[:, j] > grouped[:, i]
            rank[:, i] += later_wins
            rank[:, j] += ~later_wins
    return (rank < n).reshape(block.shape)


def apply_mask(w, mask: SparsityMask) -> np.ndarray:
    """Zero the dropped entries of ``w``; kept entries pass through unchanged.

    Integer input (quantized codes) keeps its dtype; any other input is
    validated as a finite matrix and comes back as float64.

    Raises:
        ShapeMismatch: weight and mask shapes differ.
        NonFinite: float input holds NaN or Inf.
    """
    arr = np.asarray(w)
    if not np.issubdtype(arr.dtype, np.integer):
        arr = as_matrix(arr, "w")
    if arr.shape != mask.keep.shape:
        raise ShapeMismatch(
            f"weight shape {arr.shape} does not match mask {mask.keep.shape}"
        )
    return np.where(mask.keep, arr, arr.dtype.type(0))


def build_mask(scores, pattern: SparsityPattern, shape: tuple | None = None) -> SparsityMask:
    """The mask ``pattern`` names over a d_in x d_out score matrix.

    ``scores`` is the matrix itself, or, given its ``shape``, a function that
    returns the float64 block ``scores[rows, cols]`` for two slices (left
    unchanged here). The scores are read and ranked in blocks of about
    :data:`~slim.tensor.BLOCK_ELEMENTS`: whole columns for an unstructured
    pattern, which ranks each column, and whole groups of ``m`` rows for a
    semi-structured one. No score-sized array is made besides the mask.

    Raises:
        IndivisibleDimension: a semi-structured pattern's ``m`` does not
            divide d_in.
        NonFinite / EmptyTensor / ShapeMismatch: a score matrix that
            :func:`~slim.tensor.as_matrix` refuses.
    """
    if shape is None:
        s = as_matrix(scores, "scores")
        scores, shape = (lambda rows, cols: s[rows, cols]), s.shape
    d_in, d_out = shape
    everything = slice(None)
    if pattern.kind == "unstructured":
        k = int(np.ceil((1.0 - pattern.ratio) * d_in))
        if k == d_in:  # k >= 1: d_in >= 1 and ratio < 1
            return SparsityMask(np.ones(shape, dtype=bool))
    keep = np.empty(shape, dtype=bool)
    if pattern.kind == "unstructured":
        for cols in tensor._spans(d_out, d_in):
            keep[:, cols] = _top_k(scores(everything, cols), k)
    else:
        n, m = pattern.n, pattern.m
        if d_in % m != 0:
            raise IndivisibleDimension(f"input dim {d_in} not divisible by m = {m}")
        for rows in tensor._spans(d_in, d_out, unit=m):
            keep[rows] = _n_of_m(scores(rows, everything), n, m)
    return SparsityMask(keep)
