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
quantization for inputs. The quantizers and the FP8 snap (whose format
comes from the input's max and min) read their input one row block
(:func:`~slim.tensor.row_blocks`) at a time into a single output array.
The quantizers, :func:`absmax_alpha` and :func:`activation_aware_scale`
take ``w`` as a matrix or a :class:`~slim.tensor.BlockSource`, and read
each float64 row block of it once per pass, so an f32 ``w`` gives the
results of its float64 copy. :func:`_scale_rows` is the one routine that
scales (or unscales) the boosted rows of a block.
:func:`dequantize` is the one formula that turns codes into floats, for the
whole matrix or any block of it; grouped codes gather their steps a
quarter block at a time.
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


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus scale(s) for a symmetric q-bit tensor.

    ``group_size is None`` means one scale for the whole tensor with
    dequantization ``code * scale * 2**(1 - bits)``. Otherwise scales apply
    to contiguous row-major runs of ``group_size`` elements and
    dequantization is ``code * scale / (2**(bits - 1) - 1)``.

    Attributes:
        codes: int8 matrix of quantized codes.
        scales: float64 vector; length 1 for whole-tensor scaling, else
            ``ceil(codes.size / group_size)``.
        group_size: Elements per scale group, or None for whole-tensor.
        bits: Code bit width q; codes lie in [-2**(q-1), 2**(q-1) - 1].
    """

    codes: np.ndarray
    scales: np.ndarray
    group_size: int | None
    bits: int

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int8)
        scales = np.asarray(self.scales, dtype=np.float64)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "scales", scales)
        q = _check_bits(self.bits)
        if codes.ndim != 2:
            raise ShapeMismatch(f"codes must be 2-D, got shape {codes.shape}")
        lo, hi = -(1 << (q - 1)), (1 << (q - 1)) - 1
        if codes.size and (codes.min() < lo or codes.max() > hi):
            raise UnsupportedBitwidth(f"codes exceed the {q}-bit range [{lo}, {hi}]")
        if not np.isfinite(scales).all() or (scales <= 0).any():
            raise NonPositiveAlpha("scales must be positive and finite")
        if self.group_size is None:
            if scales.shape != (1,):
                raise ShapeMismatch("whole-tensor quantization takes exactly one scale")
        else:
            if self.group_size < 1:
                raise ConfigInvalid(f"group_size must be >= 1, got {self.group_size}")
            expected = -(-codes.size // self.group_size)
            if scales.shape != (expected,):
                raise ShapeMismatch(
                    f"expected {expected} group scales, got {scales.shape[0]}"
                )

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape


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
    step = alpha * 2.0 ** (1 - q)
    lo, hi = -(1 << (q - 1)), (1 << (q - 1)) - 1
    codes = np.empty(read.shape, dtype=np.int8)
    for rows in row_blocks(read):
        block = read(rows, slice(None))
        block /= step
        codes[rows] = np.clip(_round_half_away(block), lo, hi)
    return QuantizedTensor(codes=codes, scales=np.array([alpha]), group_size=None, bits=q)


def dequantize(t: QuantizedTensor, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """Map the codes ``[rows, cols]`` (all of them by default) back to float
    values in a new float64 array; a block is made from its own codes only.

    Whole-tensor: ``code * scale * 2**(1 - q)``. Grouped: each code times
    its group's step ``scale / (2**(q-1) - 1)``, a piece of rows at a time,
    so no temporary grows with the matrix or the group count. A piece of
    whole rows is one row-major run of codes: its whole groups are scaled
    by a broadcast, and only the partial groups at its two ends apart. A
    block of columns that starts and ends on group boundaries of every row
    (the group length divides the row length) is also scaled by a broadcast
    over whole groups; any other block of columns gathers each code's step
    by its row-major index.
    """
    codes = t.codes[rows, cols]
    if t.group_size is None:
        out = codes.astype(np.float64)  # the product runs in place on this new buffer
        out *= float(t.scales[0]) * 2.0 ** (1 - t.bits)
        return out
    d_in, d_out = t.shape
    g, qmax = t.group_size, float((1 << (t.bits - 1)) - 1)
    out = np.empty(codes.shape)
    first_row, _, row_step = rows.indices(d_in)
    if row_step == 1 and cols.indices(d_out) == (0, d_out, 1):
        for piece in row_blocks(out):
            src, dst = codes[piece].reshape(-1), out[piece].reshape(-1)
            start = (first_row + piece.start) * d_out
            steps = t.scales[start // g: -(-(start + dst.size) // g)] / qmax
            lead = min(dst.size, -start % g)  # the codes before the first group boundary
            k, m = int(lead > 0), (dst.size - lead) // g
            end = lead + m * g
            np.multiply(src[:lead], steps[:k], out=dst[:lead])
            np.multiply(src[lead:end].reshape(m, g), steps[k: k + m, None],
                        out=dst[lead:end].reshape(m, g))
            np.multiply(src[end:], steps[k + m:], out=dst[end:])
        return out
    start, stop, col_step = cols.indices(d_out)
    if d_out % g == 0 and col_step == 1 and start % g == 0 and stop % g == 0:
        # whole groups of every row: each group's step by a broadcast
        steps = t.scales.reshape(d_in, d_out // g)[rows, start // g: stop // g] / qmax
        np.multiply(codes.reshape(*steps.shape, g), steps[..., None],
                    out=out.reshape(*steps.shape, g))
        return out
    first = np.arange(d_in)[rows, None] * d_out  # row-major index of each row's first code
    col = np.arange(d_out)[cols]
    for piece in tensor._spans(*out.shape, tensor.GATHER_ELEMENTS):
        idx = first[piece] + col
        idx //= g
        steps = t.scales[idx]
        steps /= qmax
        np.multiply(codes[piece], steps, out=out[piece])
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
    codes = np.empty(read.shape, dtype=np.int8)
    scales = np.empty(-(-codes.size // group_size))
    for rows in row_blocks(read, group_size):
        v = read(rows, slice(None)).reshape(-1)  # a copy unless the block is C-ordered
        start = rows.start * codes.shape[1]  # a multiple of group_size
        s = np.maximum.reduceat(np.abs(v), np.arange(0, v.size, group_size))
        s[s == 0.0] = 1.0
        scales[start // group_size: start // group_size + s.size] = s
        v *= qmax
        full = v.size // group_size * group_size
        groups = v[:full].reshape(-1, group_size)  # a view of the whole groups
        groups /= s[: full // group_size, None]
        if full < v.size:
            v[full:] /= s[-1]
        codes.reshape(-1)[start: start + v.size] = np.clip(_round_half_away(v), -qmax, qmax)
    return QuantizedTensor(codes=codes, scales=scales, group_size=group_size, bits=q)


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
    product. No scaled weight is made here: readers apply the scaling to
    one row block at a time (:func:`_scale_rows`), and the row means read
    ``w`` one float64 row block at a time.

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
