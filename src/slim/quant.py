"""Symmetric integer quantization and the probabilistic scale search.

The scale search treats the quantization error as an expectation over the
empirical magnitude distribution of the weights: an in-range magnitude x
contributes its squared rounding error on the uniform grid of step
``alpha * 2**(1 - q)``, and an out-of-range magnitude contributes the
squared clipping distance ``(alpha - x)**2``. Minimizing that objective
over alpha with a coarse-to-fine grid gives a scale that trades clipping
against resolution, instead of AbsMax's clip-nothing choice alpha = max|w|.

Also here: the AbsMax and grouped-AbsMax baselines, activation-aware
channel scaling (pre-quantization outlier damping that inference undoes by
dividing the boosted rows again), and 8-bit floating-point fake
quantization for inputs. Every pass reads its input by row blocks
(:mod:`slim.tensor`), so an f32 ``w`` gives the results of its float64
copy, and the quantizers pack each block's codes straight into their
fields (:func:`_pack_codes`, the one codec with :func:`_unpack_codes`).
:func:`dequantize` is the one formula that turns codes into floats, for
any block; :func:`_scale_rows` the one routine that scales (or unscales)
the boosted rows of a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationStats
from .errors import (
    ConfigInvalid,
    NonPositiveAlpha,
    ShapeMismatch,
    UnsupportedBitwidth,
)
from . import tensor
from .tensor import AbsHistogram, _block_source, as_matrix, row_blocks

__all__ = [
    "QuantizedTensor",
    "ChannelScaling",
    "Fp8Format",
    "E4M3",
    "E5M2",
    "quantize_symmetric",
    "dequantize",
    "code_field_bits",
    "absmax_alpha",
    "group_absmax_quantize",
    "estimate_error",
    "slimquant_search",
    "activation_aware_scale",
    "fp8_fake_quantize",
]

MIN_BITS = 2
MAX_BITS = 8

DEFAULT_GROUP_SIZE = 128
DEFAULT_COARSE_POINTS = 10

# Channel-scaling defaults: boost the top 1% most salient input channels
# by 2x before quantization.
DEFAULT_SCALE_FRACTION = 0.01
DEFAULT_SCALE_FACTOR = 2.0


def _check_bits(q: int) -> int:
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool):
        raise UnsupportedBitwidth(f"bit width must be an integer, got {q!r}")
    if not (MIN_BITS <= q <= MAX_BITS):
        raise UnsupportedBitwidth(f"bit width {q} not in [{MIN_BITS}, {MAX_BITS}]")
    return int(q)


def code_field_bits(bits: int) -> int:
    """Width of the bit field that stores one ``bits``-bit code: the
    smallest of 2, 4 or 8 that holds it, so fields never straddle a byte.

    Raises:
        UnsupportedBitwidth: ``bits`` is not an integer in [2, 8].
    """
    q = _check_bits(bits)
    return 2 if q <= 2 else 4 if q <= 4 else 8


def _round_half_away(v: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero."""
    return np.trunc(v + np.copysign(0.5, v))


def _pack_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """The rows of the integer matrix ``codes`` as new packed rows of
    ``width``-bit fields (:mod:`slim.tensor`); :func:`_unpack_codes` reads
    them back."""
    per = 8 // width
    v = np.zeros((len(codes), -(-codes.shape[1] // per) * per), np.int8)  # rows padded with zero codes
    v[:, :codes.shape[1]] = codes
    x = v.view(f"<u{per}")  # one output byte's codes, the first in the low byte
    out = x & ((1 << width) - 1)
    for j in range(1, per):  # code j's low bits, from bit 8 * j down to bit width * j
        out |= (x >> (j * (8 - width))) & (((1 << width) - 1) << (j * width))
    return out.astype(np.uint8, copy=False)


# By field width: each byte's int8 codes, low field first (the decode table),
# and each byte of 8 MSB-first keep flags as w bytes of fields, ones where kept.
_CODES = {w: np.stack([(np.arange(256, dtype=np.uint8) << (8 - w * (j + 1))).view(np.int8) >> (8 - w)
                       for j in range(8 // w)], axis=1) for w in (2, 4, 8)}
_KEEPS = {w: _pack_codes(-np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int8), w)
          for w in (2, 4, 8)}


def _unpack_codes(fields: np.ndarray, d_out: int, cols: slice, table: np.ndarray) -> np.ndarray:
    """The codes ``[:, cols]`` of the packed rows ``fields`` of a d_out wide
    matrix through ``table`` (:data:`_CODES` of their width, or its values),
    a new C-ordered array made a row block at a time from the bytes of ``cols``."""
    start, stop, step = cols.indices(d_out)
    if step != 1:
        return np.ascontiguousarray(_unpack_codes(fields, d_out, slice(None), table)[:, cols])
    per = table.shape[1]
    n = max(stop - start, 0)
    first, skip = divmod(start, per)
    out = np.empty((len(fields), n), table.dtype)
    for piece in row_blocks(out):
        b, dst = fields[piece, first: -(-(start + n) // per)], out[piece]
        if skip == 0 and b.size * per == dst.size:  # whole bytes: straight into out
            np.take(table, b, axis=0, out=dst.reshape(*b.shape, per), mode="clip")
        else:
            dst[...] = np.take(table, b, axis=0, mode="clip").reshape(len(b), -1)[:, skip: skip + n]
    return out


class QuantizedTensor:
    """Integer codes plus scale(s) for a symmetric q-bit tensor, the codes
    held at their field width.

    ``fields`` are the codes as packed rows (:mod:`slim.tensor`) of w =
    :func:`code_field_bits` bits: uint8, d_in x ceil(d_out * w / 8),
    read-only; ``shape`` is (d_in, d_out). ``QuantizedTensor(codes, scales,
    group_size, bits)`` packs an integer matrix of values in [-2**(q-1),
    2**(q-1) - 1] (else UnsupportedBitwidth); ``codes`` unpacks them into a
    new int8 matrix on each access. Holders compare equal by shape, fields,
    scales (float64), group size and bits. ``group_size is None`` means one
    scale, and ``code * scale * 2**(1 - bits)``; otherwise a scale for each
    row-major run of ``group_size`` codes, and ``code * scale / (2**(bits -
    1) - 1)``.
    """

    def __init__(self, codes, scales, group_size: int | None, bits: int):
        codes = np.asarray(codes)
        q = _check_bits(bits)
        if codes.dtype.kind not in "iu":
            raise UnsupportedBitwidth(f"codes must be integers, got dtype {codes.dtype}")
        if codes.ndim != 2:
            raise ShapeMismatch(f"codes must be 2-D, got shape {codes.shape}")
        lo, hi = -(1 << (q - 1)), (1 << (q - 1)) - 1
        if codes.size and (codes.min() < lo or codes.max() > hi):
            raise UnsupportedBitwidth(f"codes exceed the {q}-bit range [{lo}, {hi}]")
        fields = _packed(codes.shape, q, ((rows, codes[rows]) for rows in row_blocks(codes)))
        self._hold(fields, codes.shape, scales, group_size, q)

    @classmethod
    def _of_fields(cls, fields: np.ndarray, shape: tuple[int, int], scales, group_size: int | None,
                   bits: int) -> "QuantizedTensor":
        """The holder of the packed rows ``fields`` as they are, each field
        checked in the code's range a row block at a time."""
        q, t = _check_bits(bits), cls.__new__(cls)
        width, lo, hi = code_field_bits(q), -(1 << (q - 1)), (1 << (q - 1)) - 1
        bad = ((_CODES[width] < lo) | (_CODES[width] > hi)).any(axis=1)  # the bytes a bad field is in
        if bad.any() and any(np.take(bad, fields[rows], mode="clip").any() for rows in row_blocks(fields)):
            raise UnsupportedBitwidth(f"codes exceed the {q}-bit range [{lo}, {hi}]")
        t._hold(fields, shape, scales, group_size, q)
        return t

    def _hold(self, fields, shape, scales, group_size, q):
        self.fields, self.shape, self.scales = fields.view(), tuple(shape), np.asarray(scales, np.float64)
        self.group_size, self.bits = group_size, q
        self.fields.flags.writeable = False
        if not np.isfinite(self.scales).all() or (self.scales <= 0).any():
            raise NonPositiveAlpha("scales must be positive and finite")
        if group_size is not None and group_size < 1:
            raise ConfigInvalid(f"group_size must be >= 1, got {group_size}")
        expected = 1 if group_size is None else -(-shape[0] * shape[1] // group_size)
        if self.scales.shape != (expected,):
            raise ShapeMismatch(f"expected {expected} scales, got shape {self.scales.shape}")

    def __eq__(self, other):
        same = isinstance(other, QuantizedTensor) and (self.shape, self.group_size, self.bits) == (
            other.shape, other.group_size, other.bits)
        return same and np.array_equal(self.scales, other.scales) and np.array_equal(self.fields, other.fields)

    @property
    def codes(self) -> np.ndarray:
        return _unpack_codes(self.fields, self.shape[1], slice(None), _CODES[code_field_bits(self.bits)])

    def _keep_only(self, flags: np.ndarray) -> None:
        """Zero in place, a row block at a time, the codes whose keep flag in
        the packed rows ``flags`` is 0: for the maker of a new holder, before
        anything else reads it."""
        fields, keeps = self.fields, _KEEPS[code_field_bits(self.bits)]
        fields.flags.writeable = True
        for rows in row_blocks(fields):
            keep = np.take(keeps, flags[rows], axis=0, mode="clip")  # each flag byte as w bytes of fields
            fields[rows] &= keep.reshape(len(keep), -1)[:, :fields.shape[1]]
        fields.flags.writeable = False


def _packed(shape: tuple[int, int], q: int, blocks) -> np.ndarray:
    """New packed rows of a ``shape`` matrix of ``q``-bit codes, from the
    ``(rows, codes)`` of each row block."""
    width = code_field_bits(q)
    fields = np.empty((shape[0], -(-shape[1] * width // 8)), np.uint8)
    for rows, codes in blocks:
        fields[rows] = _pack_codes(codes, width)
        del codes  # before the next block is made
    return fields


@dataclass(frozen=True)
class ChannelScaling:
    """Record of which input channels were boosted before quantization.

    Inference divides the boosted rows of each stored weight block by
    ``factor`` again (:func:`_scale_rows`), so the activations are used as
    they are.
    """

    channel_indices: np.ndarray
    factor: float

    def __post_init__(self):
        idx = np.asarray(self.channel_indices, dtype=np.int64)
        object.__setattr__(self, "channel_indices", idx)
        if idx.ndim != 1:
            raise ShapeMismatch("channel_indices must be 1-D")
        if idx.size and (np.unique(idx).size != idx.size or idx.min() < 0):
            raise ConfigInvalid("channel indices must be unique and non-negative")
        if not (self.factor > 1.0) or not np.isfinite(self.factor):
            raise ConfigInvalid(f"scaling factor must be > 1, got {self.factor}")


@dataclass(frozen=True)
class Fp8Format:
    """One of the two 8-bit float layouts: E4M3 (max 448) or E5M2 (max 57344)."""

    variant: str

    # variant -> (mantissa bits, min normal exponent, max finite value)
    _PARAMS = {
        "E4M3": (3, -6, 448.0),
        "E5M2": (2, -14, 57344.0),
    }

    def __post_init__(self):
        if self.variant not in self._PARAMS:
            raise ConfigInvalid(f"unknown FP8 variant {self.variant!r}")

    @property
    def mantissa_bits(self) -> int:
        return self._PARAMS[self.variant][0]

    @property
    def min_normal_exponent(self) -> int:
        return self._PARAMS[self.variant][1]

    @property
    def max_value(self) -> float:
        return self._PARAMS[self.variant][2]


E4M3 = Fp8Format("E4M3")
E5M2 = Fp8Format("E5M2")


def quantize_symmetric(w, alpha: float, q: int) -> QuantizedTensor:
    """Quantize onto the symmetric integer grid of step ``alpha * 2**(1-q)``.

    Codes are round-half-away-from-zero of ``w / step`` clamped to
    [-2**(q-1), 2**(q-1) - 1]; a single scale ``alpha`` is stored.

    Raises:
        NonPositiveAlpha: ``alpha`` is not a positive finite number.
        UnsupportedBitwidth: ``q`` outside [2, 8].
    """
    read = _block_source(w)
    q = _check_bits(q)
    if not np.isfinite(alpha) or alpha <= 0:
        raise NonPositiveAlpha(f"alpha must be positive and finite, got {alpha}")
    step, lo, hi = alpha * 2.0 ** (1 - q), -(1 << (q - 1)), (1 << (q - 1)) - 1

    def codes(rows: slice):
        block = read(rows, slice(None))
        block /= step
        return rows, np.clip(_round_half_away(block), lo, hi)

    fields = _packed(read.shape, q, map(codes, row_blocks(read)))
    return QuantizedTensor._of_fields(fields, read.shape, np.array([alpha]), None, q)


def dequantize(t: QuantizedTensor, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """Map the codes ``[rows, cols]`` (all of them by default) back to float
    values in a new float64 array, made a row block at a time from the
    bytes of its own codes only (:func:`_unpack_codes`).

    Whole-tensor: ``code * scale * 2**(1 - q)``, each byte's fields looked
    up in a table of those products. Grouped: each code times its group's
    step ``scale / (2**(q-1) - 1)``, by a broadcast over whole groups when
    the block's columns start and end on group boundaries of every row (the
    group length divides the row length), else by a gather of each code's
    step a :data:`~slim.tensor.GATHER_ELEMENTS` piece at a time.
    """
    d_in, d_out = t.shape
    width = code_field_bits(t.bits)
    fields = t.fields[rows]
    if t.group_size is None:  # float(code) * step: the product of the int8 code widened
        return _unpack_codes(fields, d_out, cols, _CODES[width] * (float(t.scales[0]) * 2.0 ** (1 - t.bits)))
    g, qmax = t.group_size, float((1 << (t.bits - 1)) - 1)
    start, stop, col_step = cols.indices(d_out)
    out = np.empty((len(fields), len(range(start, stop, col_step))))
    if d_out % g == 0 and col_step == 1 and start % g == 0 and stop % g == 0:
        # whole groups of every row: each group's step by a broadcast
        steps = t.scales.reshape(d_in, d_out // g)[rows, start // g: stop // g] / qmax
        for piece in row_blocks(out):
            shape = (*steps[piece].shape, g)
            codes = _unpack_codes(fields[piece], d_out, cols, _CODES[width])
            np.multiply(codes.reshape(shape), steps[piece, :, None], out=out[piece].reshape(shape))
        return out
    first = np.arange(d_in)[rows, None] * d_out  # row-major index of each row's first code
    col = np.arange(d_out)[cols]
    for piece in tensor._spans(*out.shape, tensor.GATHER_ELEMENTS):
        idx = first[piece] + col
        idx //= g
        steps = t.scales[idx]
        steps /= qmax
        np.multiply(_unpack_codes(fields[piece], d_out, cols, _CODES[width]), steps, out=out[piece])
    return out


def absmax_alpha(w) -> float:
    """Largest magnitude of the matrix, read a row block at a time; 1.0 for
    an all-zero matrix.

    Raises:
        EmptyTensor: ``w`` has no elements.
    """
    return tensor._max_abs(_block_source(w)) or 1.0


def group_absmax_quantize(w, group_size: int = DEFAULT_GROUP_SIZE, q: int = 4) -> QuantizedTensor:
    """AbsMax quantization with one scale per contiguous row-major group.

    Each group of ``group_size`` flattened elements gets scale = max|group|
    (1.0 for an all-zero group) and codes
    ``clamp(round(v * (2**(q-1) - 1) / scale))`` on the symmetric grid with
    2**(q-1) - 1 positive levels, so the group's extreme value is always
    reconstructed exactly. ``w`` is read in row blocks of whole groups.

    Raises:
        UnsupportedBitwidth: ``q`` outside [2, 8].
        ConfigInvalid: ``group_size`` < 1.
    """
    read = _block_source(w)
    q = _check_bits(q)
    if group_size < 1:
        raise ConfigInvalid(f"group_size must be >= 1, got {group_size}")
    qmax = (1 << (q - 1)) - 1
    d_in, d_out = read.shape
    scales = np.empty(-(-d_in * d_out // group_size))

    def codes(rows: slice):  # and the block's scales
        v = read(rows, slice(None)).reshape(-1)  # a copy unless the block is C-ordered
        start = rows.start * d_out  # a multiple of group_size
        s = np.maximum.reduceat(np.abs(v), np.arange(0, v.size, group_size))
        s[s == 0.0] = 1.0
        scales[start // group_size: start // group_size + s.size] = s
        v *= qmax
        full = v.size // group_size * group_size
        groups = v[:full].reshape(-1, group_size)  # a view of the whole groups
        groups /= s[: full // group_size, None]
        if full < v.size:
            v[full:] /= s[-1]
        return rows, np.clip(_round_half_away(v), -qmax, qmax).reshape(-1, d_out)

    fields = _packed(read.shape, q, map(codes, row_blocks(read, group_size)))
    return QuantizedTensor._of_fields(fields, read.shape, scales, group_size, q)


def _grid_error_terms(centers: np.ndarray, probs: np.ndarray, alphas: np.ndarray, q: int) -> np.ndarray:
    """Expected squared error for each candidate scale.

    ``centers``/``probs`` describe the magnitude distribution; for each
    alpha the in-range mass contributes squared rounding error on the
    step-``alpha * 2**(1-q)`` grid and the out-of-range mass contributes
    squared clipping distance. Returns one error per alpha.
    """
    a = alphas[:, None]
    x = centers[None, :]
    half_levels = float(1 << (q - 1))
    snapped = a * np.floor(x * half_levels / a + 0.5) * (2.0 ** (1 - q))
    err = np.where(x <= a, (snapped - x) ** 2, (a - x) ** 2)
    return err @ probs


def estimate_error(h: AbsHistogram, alpha, q: int):
    """Expected squared quantization error of scale ``alpha`` under ``h``.

    Midpoint numerical integration over the histogram bins: bin centers
    x <= alpha accumulate p(x) * (snap(x) - x)**2 where snap rounds onto
    the step-``alpha * 2**(1-q)`` grid, and centers x > alpha accumulate
    p(x) * (alpha - x)**2.

    ``alpha`` is a scalar, giving a float, or a 1-D array of candidate
    scales, giving one error per entry.

    Raises:
        NonPositiveAlpha: some ``alpha`` is not a positive finite number.
        ShapeMismatch: ``alpha`` has more than one dimension.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim > 1:
        raise ShapeMismatch(f"alpha must be a scalar or 1-D, got shape {a.shape}")
    if a.size and (not np.isfinite(a).all() or (a <= 0).any()):
        raise NonPositiveAlpha(f"alpha must be positive and finite, got {alpha}")
    q = _check_bits(q)
    errs = _grid_error_terms(h.bin_centers(), h.probabilities(), a.reshape(-1), q)
    return float(errs[0]) if a.ndim == 0 else errs


def slimquant_search(h: AbsHistogram, q: int) -> tuple[float, float]:
    """Coarse-to-fine minimization of :func:`estimate_error` over alpha.

    Evaluates :data:`DEFAULT_COARSE_POINTS` uniform samples over (0, M]
    (M = h.max_abs, always included, so the result can never be worse than
    AbsMax), then repeatedly refines around the incumbent within plus or
    minus one step of the previous level, dividing the step by
    :data:`DEFAULT_COARSE_POINTS` each level, until the step reaches
    M / 1000.

    Returns:
        ``(alpha_star, error)`` for the best scale seen. An all-zero
        histogram (M = 0) returns ``(1.0, 0.0)``.
    """
    q = _check_bits(q)
    m = float(h.max_abs)
    if m == 0.0:
        return 1.0, 0.0

    centers = h.bin_centers()
    probs = h.probabilities()

    def best_of(cands: np.ndarray, cur_alpha: float, cur_err: float) -> tuple[float, float]:
        errs = _grid_error_terms(centers, probs, cands, q)
        k = int(np.argmin(errs))
        if errs[k] < cur_err:
            return float(cands[k]), float(errs[k])
        return cur_alpha, cur_err

    step = m / DEFAULT_COARSE_POINTS
    coarse = step * np.arange(1, DEFAULT_COARSE_POINTS + 1, dtype=np.float64)
    best_alpha, best_err = best_of(coarse, coarse[-1], np.inf)

    while step > m / 1000.0:
        step /= DEFAULT_COARSE_POINTS
        offsets = np.arange(-DEFAULT_COARSE_POINTS, DEFAULT_COARSE_POINTS + 1, dtype=np.float64)
        cands = best_alpha + offsets * step
        cands = cands[(cands > 0.0) & (cands <= m)]
        if cands.size:
            best_alpha, best_err = best_of(cands, best_alpha, best_err)
    return best_alpha, best_err


def _scaled_channel_count(fraction: float, d_in: int) -> int:
    return int(np.ceil(fraction * d_in))


def activation_aware_scale(
    w,
    stats: CalibrationStats,
    fraction: float = DEFAULT_SCALE_FRACTION,
    s: float = DEFAULT_SCALE_FACTOR,
) -> ChannelScaling:
    """Choose the most salient input channels of ``w`` to boost before
    quantization.

    Saliency per input channel j is the product of the channel's mean
    absolute activation and the mean magnitude of weight row j, with both
    factors normalized to unit maximum. The returned :class:`ChannelScaling`
    names the top ``ceil(fraction * d_in)`` channels and the factor ``s``:
    the scaled weight has those rows multiplied by ``s``, and dividing the
    rows again (or the matching activation channels) restores the original
    product. No scaled weight is made: readers scale each row block
    (:func:`_scale_rows`).

    Raises:
        ShapeMismatch: ``stats.d_in`` differs from the weight row count.
        ConfigInvalid: ``fraction`` outside (0, 1] or ``s`` <= 1.
    """
    read = _block_source(w)
    d_in = read.shape[0]
    stats._check_rows(d_in)
    if not (0.0 < fraction <= 1.0):
        raise ConfigInvalid(f"fraction must be in (0, 1], got {fraction}")
    if not (s > 1.0) or not np.isfinite(s):
        raise ConfigInvalid(f"s must be > 1, got {s}")

    act = stats.mean_abs.copy()
    wmag = np.empty(d_in)
    for rows in row_blocks(read):
        block = read(rows, slice(None))
        wmag[rows] = np.abs(block, out=block).mean(axis=1)
    for v in (act, wmag):
        peak = v.max()
        if peak > 0:
            v /= peak
    saliency = act * wmag
    k = _scaled_channel_count(fraction, d_in)
    order = np.argsort(-saliency, kind="stable")
    return ChannelScaling(channel_indices=np.sort(order[:k]), factor=float(s))


def _scale_rows(block: np.ndarray, scaling: ChannelScaling | None, rows: slice,
                undo: bool = False) -> np.ndarray:
    """Multiply (with ``undo``, divide) the boosted rows of ``block`` by the
    scaling factor, in place, and return it. ``block`` holds the rows
    ``rows`` (a slice of step 1) of a matrix whose rows ``scaling`` names;
    ``None`` leaves it as it is. Each boosted entry gets the bits of the
    same product or quotient taken over the whole matrix."""
    if scaling is not None:
        idx, start = scaling.channel_indices, rows.start or 0
        hit = idx[(idx >= start) & (idx < start + len(block))] - start
        block[hit] = (np.divide if undo else np.multiply)(block[hit], scaling.factor)
    return block


def _fp8_snap(x: np.ndarray, fmt: Fp8Format) -> np.ndarray:
    """Round ``x`` to the nearest value representable in ``fmt``.

    Ties round to the value with even integer mantissa, matching IEEE
    round-to-nearest-even on the format's grid. Magnitudes beyond the
    format maximum clamp to the maximum. Rows are snapped one block at a
    time, in place in the output.
    """
    mbits = fmt.mantissa_bits
    emin = fmt.min_normal_exponent
    out = np.empty_like(x)
    for rows in row_blocks(x):
        b = out[rows]
        np.clip(x[rows], -fmt.max_value, fmt.max_value, out=b)
        _, e = np.frexp(b)
        # frexp yields x = m * 2**e with m in [0.5, 1); unbiased exponent e-1.
        scale = np.ldexp(1.0, np.maximum(e - 1, emin) - mbits)
        b /= scale
        np.rint(b, out=b)
        b *= scale
    return out


def fp8_fake_quantize(x) -> tuple[np.ndarray, Fp8Format]:
    """Snap a matrix onto an 8-bit float grid, picking the format by range.

    E4M3 (finer grid, max 448) is used when max|x| <= 448; otherwise E5M2
    (max 57344). Every entry is rounded to the nearest representable value
    with ties to even mantissa; magnitudes beyond the chosen format's
    maximum clamp to it. Snapping an already-snapped matrix changes
    nothing.

    Raises:
        NonFinite: ``x`` has NaN/Inf entries.
    """
    arr = as_matrix(x, "x", allow_empty=True)
    small = arr.size == 0 or max(arr.max(), -arr.min()) <= E4M3.max_value
    fmt = E4M3 if small else E5M2
    return _fp8_snap(arr, fmt), fmt
