"""Dense-matrix helpers shared by every other module.

A "matrix" throughout this package is simply a 2-D :class:`numpy.ndarray`
of finite floats. Arithmetic runs in float64; a compressed layer holds its
scales, raw values and adapter factors at the f32 precision its artifact stores.

The magnitude histogram and the quantizers (uniform and grouped AbsMax),
the passes that touch every weight, read an f32 (or f16) source in row
blocks of about :data:`BLOCK_ELEMENTS` elements (:func:`row_blocks`), each
widened to float64 before any arithmetic. They give the bits of the
source's float64 copy without making that copy or any other whole-matrix
temporary. Every blocked pass in the package (row blocks, mask blocks,
artifact chunks, and the product blocks of :data:`PRODUCT_ELEMENTS`) takes
its boundaries from one rule, :func:`_spans`. :func:`as_float_matrix` is
the one check of a matrix (2-D, non-empty unless allowed, finite one row
block at a time) and keeps a float source's buffer; :func:`as_matrix`
widens its result to float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTensor, NonFinite, RankOutOfRange, ShapeMismatch

__all__ = [
    "AbsHistogram",
    "as_matrix",
    "as_float_matrix",
    "row_blocks",
    "default_num_bins",
    "build_abs_histogram",
    "svd_truncated",
]

# Bounds on the automatic histogram resolution: one bin per thousand
# elements, never below 512 bins and never above 20000.
MIN_BINS = 512
MAX_BINS = 20000
ELEMENTS_PER_BIN = 1000

# svd_truncated forms a Gram matrix from entries up to 2**GRAM_SAFE_EXPONENT
# in magnitude (and no smaller than its inverse), so sums of squared entries
# stay well inside float64's normal range (about 2**+-1022).
GRAM_SAFE_EXPONENT = 400

# Row-blocked passes read about this many source elements at a time (at
# least one row), so their float64 working copies stay near 512 KiB
# whatever the size of the matrix.
BLOCK_ELEMENTS = 1 << 16

# Blocked matrix products (the error report's x @ D, the forward pass's
# x @ W) take about this many weight elements at a time: 32 MiB as float64,
# the smallest size measured to multiply as fast as the whole matrix.
PRODUCT_ELEMENTS = 1 << 22


def row_blocks(arr: np.ndarray, align: int = 1):
    """:func:`_spans` over the rows of a 2-D ``arr``: blocks of about
    :data:`BLOCK_ELEMENTS` elements and at least one row. Blocks advance by
    a multiple of ``align // gcd(cols, align)`` rows, so all but the last
    hold a whole number of ``align``-element runs."""
    cols = arr.shape[1]
    return _spans(arr.shape[0], cols, unit=align // int(np.gcd(cols, align)))


def _spans(n: int, across: int = 1, elements: int | None = None, unit: int = 1):
    """Slices that cover ``range(n)`` in order, each about ``elements``
    (default :data:`BLOCK_ELEMENTS`, read at the call) entries of a matrix
    ``across`` wide the other way and at least ``unit`` long; all but the
    last are a whole number of ``unit``. The one rule in this package that
    turns an element budget into block boundaries."""
    elements = BLOCK_ELEMENTS if elements is None else elements
    step = max(unit, elements // max(across, 1) // unit * unit)
    return (slice(start, start + step) for start in range(0, n, step))


def as_matrix(w, name: str = "matrix", allow_empty: bool = False) -> np.ndarray:
    """:func:`as_float_matrix` widened to float64: a float64 source keeps
    its buffer, any other is copied."""
    return as_float_matrix(w, name, allow_empty).astype(np.float64, copy=False)


def as_float_matrix(w, name: str = "matrix", allow_empty: bool = False) -> np.ndarray:
    """Validate a 2-D matrix of finite entries without widening a float one.

    A float16, float32 or float64 source keeps its dtype and buffer; any
    other input is converted to float64. Finiteness is checked one row
    block at a time. Callers widen each block to float64 before any
    arithmetic on it.

    Args:
        w: Array-like input; 2-D.
        name: Label used in error messages.
        allow_empty: Permit zero-element matrices.

    Raises:
        ShapeMismatch: If the input is not 2-D.
        EmptyTensor: If the input has zero elements and ``allow_empty`` is False.
        NonFinite: If any entry is NaN or infinite.
    """
    arr = np.asarray(w)
    if arr.dtype.kind != "f" or arr.dtype.itemsize > 8:
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0 and not allow_empty:
        raise EmptyTensor(f"{name} has zero elements")
    for rows in row_blocks(arr):
        if not np.isfinite(arr[rows]).all():
            raise NonFinite(f"{name} contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class AbsHistogram:
    """Histogram of absolute values over [0, max_abs].

    ``counts[k]`` holds the number of source elements whose magnitude falls
    in bin k of ``num_bins`` equal-width bins spanning [0, ``max_abs``].
    Bins are closed on the right, so a magnitude exactly equal to
    ``max_abs`` lands in the last bin and 0.0 lands in bin 0.

    Attributes:
        max_abs: Largest magnitude of the source matrix (0.0 only for an
            all-zero source).
        num_bins: Number of bins.
        counts: Integer occupancy per bin; sums to ``total``.
        total: Element count of the source matrix.
    """

    max_abs: float
    num_bins: int
    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.num_bins < 1 or counts.shape != (self.num_bins,):
            raise ShapeMismatch(
                f"counts shape {counts.shape} does not match num_bins {self.num_bins}"
            )
        if self.max_abs < 0 or not np.isfinite(self.max_abs):
            raise NonFinite(f"max_abs must be finite and >= 0, got {self.max_abs}")
        if int(counts.sum()) != self.total or self.total <= 0:
            raise ShapeMismatch("histogram counts do not sum to total")

    def bin_centers(self) -> np.ndarray:
        """Midpoints of the bins, length ``num_bins``."""
        width = self.max_abs / self.num_bins
        return (np.arange(self.num_bins, dtype=np.float64) + 0.5) * width

    def probabilities(self) -> np.ndarray:
        """Empirical probability mass per bin."""
        return self.counts.astype(np.float64) / float(self.total)


def default_num_bins(num_elements: int) -> int:
    """Resolution rule for automatic histograms: ~1 bin per 1000 elements,
    clamped to [512, 20000]."""
    return max(MIN_BINS, min(num_elements // ELEMENTS_PER_BIN, MAX_BINS))


def build_abs_histogram(w, num_bins: int | None = None) -> AbsHistogram:
    """Histogram the magnitudes of a matrix.

    Args:
        w: Source matrix, 2-D with at least one element. A float source
            is read in row blocks, each widened to float64.
        num_bins: Bin count; defaults to :func:`default_num_bins` of the
            element count.

    Returns:
        An :class:`AbsHistogram` over [0, max|w|]. A magnitude of exactly
        max|w| is counted in the last bin.

    Raises:
        EmptyTensor: If ``w`` has no elements.
    """
    arr = as_float_matrix(w, "w")
    if num_bins is None:
        num_bins = default_num_bins(arr.size)
    if num_bins < 1:
        raise ShapeMismatch(f"num_bins must be >= 1, got {num_bins}")
    max_abs = float(max(arr.max(), -arr.min()))
    counts = np.zeros(num_bins, dtype=np.int64)
    if max_abs == 0.0:
        counts[0] = arr.size
        return AbsHistogram(0.0, num_bins, counts, arr.size)
    # Right-closed bins: bin k covers ((k * M / B), ((k+1) * M / B)] with
    # zero assigned to bin 0, so the maximum always lands in the last bin.
    per_unit = num_bins / max_abs
    for rows in row_blocks(arr):
        mags = arr[rows].astype(np.float64)
        np.abs(mags, out=mags)
        mags *= per_unit
        idx = np.ceil(mags, out=mags).astype(np.int64)
        idx -= 1
        np.clip(idx, 0, num_bins - 1, out=idx)
        counts += np.bincount(idx.ravel(), minlength=num_bins)
    return AbsHistogram(max_abs, num_bins, counts, arr.size)


def svd_truncated(m, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-r factorization in the Frobenius norm.

    Returns ``(left, right)`` with shapes (rows, r) and (r, cols) such that
    ``left @ right`` is a Frobenius-optimal rank-<=r approximation of ``m``.
    Singular values are folded into the left factor; the right factor has
    orthonormal rows. Output is deterministic: the sign of each component
    is fixed so the first nonzero entry of each right-factor row is
    non-negative.

    Method: the top-r eigenvectors of the Gram matrix on the smaller side
    (``m.T @ m`` when cols <= rows, else ``m @ m.T``) span the leading
    singular subspace, so projecting ``m`` onto them is the exact
    Eckart-Young optimum without computing all min(rows, cols) singular
    triplets. For a tall or square ``m`` with right singular vectors V,
    ``right = V.T`` and ``left = m @ V``. For a wide ``m`` with left
    singular vectors U, ``m.T @ U = Q R`` gives ``right = Q.T`` and
    ``left = U @ R.T``; no singular value is divided by, so the right rows
    stay orthonormal even when ``m`` is rank-deficient or zero. The cost
    is one rows*cols*k Gram product and one k x k symmetric
    eigendecomposition, k = min(rows, cols).

    Args:
        m: Matrix to approximate.
        r: Target rank, 1 <= r <= min(rows, cols).

    Raises:
        RankOutOfRange: If ``r`` is outside the valid range.
        NonFinite: If ``m`` has NaN/Inf entries.
    """
    arr = as_matrix(m, "m")
    rows, cols = arr.shape
    if not (1 <= r <= min(rows, cols)):
        raise RankOutOfRange(f"rank {r} not in [1, {min(rows, cols)}]")
    # The Gram matrix squares the entries: outside a safe exponent range,
    # rescale by a power of two so it neither overflows nor underflows.
    exp = int(np.frexp(max(arr.max(), -arr.min()))[1])
    if abs(exp) > GRAM_SAFE_EXPONENT:
        left, right = svd_truncated(np.ldexp(arr, -exp), r)
        return np.ldexp(left, exp), right
    if cols <= rows:
        # eigh sorts eigenvalues ascending: the last r columns, reversed.
        v = np.linalg.eigh(arr.T @ arr)[1][:, : -r - 1 : -1]
        right = np.ascontiguousarray(v.T)
        left = arr @ v
    else:
        u = np.linalg.eigh(arr @ arr.T)[1][:, : -r - 1 : -1]
        q, rt = np.linalg.qr(arr.T @ u)
        right = np.ascontiguousarray(q.T)
        left = u @ rt.T
    # Sign canonicalization: flip each component so the first nonzero
    # entry of its right-factor row is positive.
    first = right[np.arange(r), np.argmax(right != 0, axis=1)]
    flip = first < 0
    right[flip] *= -1.0
    left[:, flip] *= -1.0
    return left, right
