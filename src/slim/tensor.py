"""Dense-matrix helpers shared by every other module, and the block model
that every pass over a weight follows.

A "matrix" throughout this package is simply a 2-D :class:`numpy.ndarray`
of finite floats. Arithmetic runs in float64; a compressed layer holds its
scales, raw values and adapter factors at the f32 precision its artifact
stores. :func:`as_float_matrix` is the one check of a matrix (its shape by
:func:`_check_shape`, which checks every source's shape too, then finite
one row block at a time) and keeps a float source's buffer;
:func:`as_matrix` widens its result to float64.

**Blocks.** No pass makes a float64 array the size of a weight. Each reads
new float64 blocks of the matrix or its :class:`BlockSource` (a matrix is
the source of its own widened blocks, :func:`_block_source`; a file's
tensor is read from the file, :func:`~slim.container._tensor_source`), so
the blocks give the bits of a float64 copy that is never made. One rule,
:func:`_spans`, cuts every range, with one of the five ``*_ELEMENTS``
budgets below, each named for its use; :data:`SUM_ELEMENTS` and
:data:`PRODUCT_ELEMENTS` cut row blocks of a tall or square matrix and
column blocks of a wide one. An elementwise pass keeps the bits of its
whole-matrix form; a blocked sum may differ from the whole one in the last
places.

**Packed rows.** The keep mask and the quantized codes are held as uint8
rows, d_in x ceil(d_out * w / 8), each padded to whole bytes with zero
fields: the mask's flags at w = 1, most significant bit first (as
``np.packbits`` packs them), the codes as two's-complement fields of w =
2, 4 or 8 bits, low field first. A block of rows is a slice of them, and a
block of columns reads only the bytes that cover it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyTensor, NonFinite, RankOutOfRange, ShapeMismatch

__all__ = [
    "AbsHistogram",
    "BlockSource",
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

# Every elementwise pass's and codec's row blocks (row_blocks), and an
# unstructured mask's column blocks: about 512 KiB as float64.
BLOCK_ELEMENTS = 1 << 16

GATHER_ELEMENTS = 1 << 14  # a grouped dequantize's gather: its index and steps take 16 bytes an entry
CHUNK_ELEMENTS = 1 << 18  # a product added into an output, by its columns (2 MiB as float64)

# Blocks multiplied and summed into a small result (the adapter fit's and
# the error report's), 8 MiB as float64; svd_truncated's take k * k / 2
# entries when that is more, so each block's k x k product sums >= k / 2 rows.
# Measured on a 2:4, rank-0.1 adapter compress with one BLAS thread:
# smaller blocks slow the Gram sum (2048x8192: 5.3 s with 2**18, 3.9 s
# with 2**20, 3.6 s with 2**21 = k * k / 2), and larger ones raise the
# peak for no time gained at k = 1024 (1024x4096: 32 MiB with 2**20, 40
# with 2**21). Nothing changes up to k = 1448, where k * k / 2 reaches 2**20.
SUM_ELEMENTS = 1 << 20

# The forward pass's blocked product x @ W takes about this many weight
# elements at a time: 32 MiB as float64, the smallest size measured to
# multiply as fast as the whole matrix.
PRODUCT_ELEMENTS = 1 << 22


def row_blocks(arr, align: int = 1):
    """:func:`_spans` over the rows of a 2-D ``arr`` (an array, a
    :class:`BlockSource` or a shape): blocks of about
    :data:`BLOCK_ELEMENTS` elements and at least one row. Blocks advance by
    a multiple of ``align // gcd(cols, align)`` rows, so all but the last
    hold a whole number of ``align``-element runs."""
    rows, cols = getattr(arr, "shape", arr)
    return _spans(rows, cols, unit=align // int(np.gcd(cols, align)))


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
    arithmetic on it. Errors name the matrix ``name``.

    Raises:
        ShapeMismatch: If the input is not 2-D.
        EmptyTensor: If the input has zero elements and ``allow_empty`` is False.
        NonFinite: If any entry is NaN or infinite.
    """
    arr = np.asarray(w)
    if arr.dtype.kind != "f" or arr.dtype.itemsize > 8:
        arr = np.asarray(arr, dtype=np.float64)
    _check_shape(arr.shape, name, allow_empty)
    for rows in row_blocks(arr):
        if not np.isfinite(arr[rows]).all():
            raise NonFinite(f"{name} contains NaN or Inf")
    return arr


def _check_shape(shape: tuple, name: str = "w", allow_empty: bool = False) -> tuple:
    """``shape`` as a tuple, once it is 2-D and, unless ``allow_empty``,
    has no zero dimension (else ShapeMismatch or EmptyTensor)."""
    shape = tuple(shape)
    if len(shape) != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {shape}")
    if 0 in shape and not allow_empty:
        raise EmptyTensor(f"{name} has zero elements")
    return shape


@dataclass(frozen=True)
class BlockSource:
    """A matrix read a block at a time: ``source(rows, cols)``, for two
    slices of step 1, returns ``read(rows, cols)``, the new float64 block
    ``[rows, cols]``, which the caller may change in place. ``shape`` is
    checked 2-D and non-empty (errors name the matrix ``w``); the values
    only by ``read``, if at all."""

    read: Callable[[slice, slice], np.ndarray]
    shape: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "shape", _check_shape(self.shape))

    def __call__(self, rows: slice, cols: slice) -> np.ndarray:
        return self.read(rows, cols)


def _block_source(w, name: str = "w") -> BlockSource:
    """``w`` itself when it is a :class:`BlockSource`; otherwise the source
    of the matrix ``w``, checked by :func:`as_float_matrix` (errors naming
    it ``name``) and widened a block at a time (an f32 block would divide
    in f32)."""
    if isinstance(w, BlockSource):
        return w
    arr = as_float_matrix(w, name)
    return BlockSource(lambda rows, cols: arr[rows, cols].astype(np.float64, order="C"), arr.shape)


def _max_abs(source: BlockSource) -> float:
    """Largest magnitude of a block source, one row block at a time."""
    blocks = (source(rows, slice(None)) for rows in row_blocks(source))
    return max((float(np.abs(b, out=b).max()) for b in blocks), default=0.0)


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
    """The :class:`AbsHistogram` of the magnitudes of ``w`` over [0, max|w|]
    in ``num_bins`` bins (default :func:`default_num_bins` of the element
    count); max|w| itself is counted in the last bin. ``w``, a matrix or a
    :class:`BlockSource`, is read twice in row blocks, for the largest
    magnitude and for the counts.

    Raises:
        EmptyTensor: If ``w`` has no elements.
    """
    read = _block_source(w)
    size = read.shape[0] * read.shape[1]
    if num_bins is None:
        num_bins = default_num_bins(size)
    if num_bins < 1:
        raise ShapeMismatch(f"num_bins must be >= 1, got {num_bins}")
    max_abs = _max_abs(read)
    counts = np.zeros(num_bins, dtype=np.int64)
    if max_abs == 0.0:
        counts[0] = size
        return AbsHistogram(0.0, num_bins, counts, size)
    # Right-closed bins: bin k covers ((k * M / B), ((k+1) * M / B)] with
    # zero assigned to bin 0, so the maximum always lands in the last bin.
    per_unit = num_bins / max_abs
    for rows in row_blocks(read):
        mags = read(rows, slice(None))
        np.abs(mags, out=mags)
        mags *= per_unit
        idx = np.ceil(mags, out=mags).astype(np.int64)
        idx -= 1
        np.clip(idx, 0, num_bins - 1, out=idx)
        counts += np.bincount(idx.ravel(), minlength=num_bins)
    return AbsHistogram(max_abs, num_bins, counts, size)


def svd_truncated(m, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-r factorization in the Frobenius norm.

    Returns ``(left, right)`` with shapes (rows, r) and (r, cols) such that
    ``left @ right`` is a Frobenius-optimal rank-<=r approximation of ``m``,
    a matrix or its :class:`BlockSource`, for 1 <= r <= min(rows, cols).
    Singular values are folded into the left factor; the right factor has
    orthonormal rows. Output is deterministic: the sign of each component
    is fixed so the first nonzero entry of each right-factor row is
    non-negative.

    Method: the top-r eigenvectors of the Gram matrix on the smaller side
    (k = min(rows, cols)) span the leading singular subspace, so projecting
    ``m`` onto them is the exact Eckart-Young optimum. ``m`` is read in two
    passes over :data:`SUM_ELEMENTS` blocks (k * k / 2 when that is more;
    see the module docstring). Pass 1 sums the Gram matrix. Pass 2 makes
    ``left = m @ V`` and ``right = V.T`` for a tall or square ``m``, or
    ``m.T @ U = Q R`` for a wide one, giving ``right = Q.T`` and ``left =
    U @ R.T``: no singular value is divided by, so the right rows stay
    orthonormal even when ``m`` is rank-deficient or zero. The cost is one
    rows*cols*k Gram product and one k x k symmetric eigendecomposition.

    Raises:
        RankOutOfRange: If ``r`` is outside the valid range.
        NonFinite: If a matrix ``m`` has NaN/Inf entries.
    """
    m = _block_source(m, "m")
    rows, cols = m.shape
    if not (1 <= r <= min(rows, cols)):
        raise RankOutOfRange(f"rank {r} not in [1, {min(rows, cols)}]")
    tall, everything = cols <= rows, slice(None)
    long, k = (rows, cols) if tall else (cols, rows)

    def blocks():  # (span, block): row blocks of m, or of m.T when m is wide
        for span in _spans(long, k, max(SUM_ELEMENTS, k * k // 2)):
            yield span, (m(span, everything) if tall else m(everything, span).T)

    # Pass 1: the Gram matrix and the largest magnitude. The Gram matrix
    # squares the entries, so once one is past 2**GRAM_SAFE_EXPONENT the
    # blocks are read only for the maximum, and the fit runs rescaled below.
    gram, peak = None, 0.0
    for _, b in blocks():
        peak = max(peak, float(b.max()), -float(b.min()))
        if np.frexp(peak)[1] <= GRAM_SAFE_EXPONENT:
            p = b.T @ b  # numpy runs this as one syrk
            gram = p if gram is None else np.add(gram, p, out=gram)
        b = p = None  # freed before the next block is made
    # Outside a safe exponent range of the largest entry, rescale by a
    # power of two so the Gram matrix neither overflows nor underflows.
    exp = int(np.frexp(peak)[1])
    if abs(exp) > GRAM_SAFE_EXPONENT:
        left, right = svd_truncated(BlockSource(lambda rows, cols: np.ldexp(m(rows, cols), -exp), m.shape), r)
        return np.ldexp(left, exp), right
    # eigh sorts eigenvalues ascending: the last r columns, reversed.
    vecs = np.linalg.eigh(gram)[1][:, : -r - 1 : -1]
    gram = None
    out = np.empty((long, r))  # pass 2: m @ V, or m.T @ U
    for span, b in blocks():
        np.matmul(b, vecs, out=out[span])
        b = None
    if tall:
        left, right = out, np.ascontiguousarray(vecs.T)
    else:
        q, rt = np.linalg.qr(out)
        right = np.ascontiguousarray(q.T)
        left = vecs @ rt.T
    # Sign canonicalization: flip each component so the first nonzero
    # entry of its right-factor row is positive.
    first = right[np.arange(r), np.argmax(right != 0, axis=1)]
    flip = first < 0
    right[flip] *= -1.0
    left[:, flip] *= -1.0
    return left, right

