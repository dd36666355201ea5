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


class SparsityMask:
    """Keep/drop flags of a d_in x d_out matrix, held at one bit a flag.

    ``bits`` is ``np.packbits(keep, axis=1)``, packed rows (:mod:`slim.tensor`),
    read-only; ``shape`` is (d_in, d_out). ``SparsityMask(keep)`` packs a
    bool matrix. :meth:`rows` unpacks one row block, ``keep`` all of them,
    into a new bool array. Masks compare equal by shape and bits.
    """

    def __init__(self, keep):
        keep = np.asarray(keep, dtype=bool)
        if keep.ndim != 2:
            raise ShapeMismatch(f"mask must be 2-D, got shape {keep.shape}")
        self.bits, self.shape = np.packbits(keep, axis=1), keep.shape
        self.bits.flags.writeable = False

    @classmethod
    def _of_bits(cls, bits: np.ndarray, shape: tuple[int, int]) -> "SparsityMask":
        """The mask of the packed rows ``bits`` (pad bits zero), held as they are."""
        mask = cls.__new__(cls)
        mask.bits, mask.shape = bits.view(), tuple(shape)
        mask.bits.flags.writeable = False
        return mask

    def __eq__(self, other):
        same = isinstance(other, SparsityMask) and self.shape == other.shape
        return same and np.array_equal(self.bits, other.bits)

    def rows(self, rows: slice) -> np.ndarray:
        """The flags of ``rows`` as a new bool array."""
        return np.unpackbits(self.bits[rows], axis=1, count=self.shape[1]).view(bool)

    @property
    def keep(self) -> np.ndarray:
        """All flags as a new d_in x d_out bool array."""
        return self.rows(slice(None))

    @property
    def kept(self) -> int:
        """Number of kept entries, counted a row block of flags at a time."""
        return sum(np.count_nonzero(self.rows(rows)) for rows in tensor.row_blocks(self.shape))

    @property
    def density(self) -> float:
        """Kept fraction; 1.0 for an empty mask."""
        size = self.shape[0] * self.shape[1]
        return self.kept / size if size else 1.0


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
    stable descending sort. ``ratio`` = 0 keeps everything.

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
    if arr.shape != mask.shape:
        raise ShapeMismatch(f"weight shape {arr.shape} does not match mask {mask.shape}")
    return np.where(mask.keep, arr, arr.dtype.type(0))


def build_mask(scores, pattern: SparsityPattern) -> SparsityMask:
    """The mask ``pattern`` names over a d_in x d_out score matrix.

    ``scores``, a matrix or a :class:`~slim.tensor.BlockSource`, are read
    and ranked by blocks (:mod:`slim.tensor`): of whole columns for an
    unstructured pattern, of whole groups of ``m`` rows for a
    semi-structured one; each block's flags go straight into the bits.

    Raises:
        IndivisibleDimension: a semi-structured pattern's ``m`` does not
            divide d_in.
        NonFinite / EmptyTensor / ShapeMismatch: a score matrix that
            :func:`~slim.tensor.as_float_matrix` refuses.
    """
    scores = tensor._block_source(scores, "scores")
    d_in, d_out = shape = scores.shape
    everything = slice(None)
    if pattern.kind == "unstructured":
        k = int(np.ceil((1.0 - pattern.ratio) * d_in))
        if k == d_in:  # k >= 1: d_in >= 1 and ratio < 1
            return SparsityMask._of_bits(np.tile(np.packbits(np.ones(d_out, bool)), (d_in, 1)), shape)
    bits = np.empty((d_in, -(-d_out // 8)), dtype=np.uint8)
    if pattern.kind == "unstructured":
        for cols in tensor._spans(d_out, d_in, unit=8):  # whole bytes of every row
            keep = np.ascontiguousarray(_top_k(scores(everything, cols), k))  # packs ~3x faster
            bits[:, cols.start // 8: cols.stop // 8] = np.packbits(keep, axis=1)
    else:
        n, m = pattern.n, pattern.m
        if d_in % m != 0:
            raise IndivisibleDimension(f"input dim {d_in} not divisible by m = {m}")
        for rows in tensor._spans(d_in, d_out, unit=m):
            bits[rows] = np.packbits(_n_of_m(scores(rows, everything), n, m), axis=1)
    return SparsityMask._of_bits(bits, shape)
