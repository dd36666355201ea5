"""Layer compression pipeline: quantize, prune, compensate.

A layer is compressed in a fixed order: optional activation-aware channel
scaling, weight quantization, pruning of the quantized weight, then a
low-rank adapter fitted to whatever error the first steps left behind
(optionally quantized itself). Each stage's result is kept on the
artifact so inference and reporting can replay the exact arithmetic.

Weights are stored in the scaled coordinate system when channel scaling is
on; every reader of the stored weight (scores, adapter error, reports and
the forward pass) divides the boosted rows of each block by the scale
factor again, and adapters always live in the caller's original
coordinates so ``w ~ effective_weight + left @ right`` holds as seen by
the caller.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from . import prune as prune_mod
from . import tensor
from .calibration import CalibrationStats
from .container import _json_typed
from .errors import ConfigInvalid, EmptyTensor, ShapeMismatch
from .lora import (
    DEFAULT_RANK_RATIO,
    LowRankAdapter,
    SaliencyVector,
    _weighted_fit,
    default_rank,
    quantize_adapter,
    saliency_vector,
)
from .prune import SparsityMask, SparsityPattern
from .quant import (
    DEFAULT_GROUP_SIZE,
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SCALE_FRACTION,
    ChannelScaling,
    QuantizedTensor,
    _scale_rows,
    absmax_alpha,
    activation_aware_scale,
    code_field_bits,
    dequantize,
    fp8_fake_quantize,
    group_absmax_quantize,
    quantize_symmetric,
    slimquant_search,
)
from .tensor import BlockSource, _spans, as_float_matrix, as_matrix, build_abs_histogram, row_blocks

logger = logging.getLogger(__name__)

__all__ = [
    "LayerCompressionConfig",
    "Provenance",
    "CompressedLayer",
    "ErrorReport",
    "compress_layer",
    "layer_output",
    "weight_space_report",
    "error_report",
]

QUANT_METHODS = ("absmax", "group_absmax", "slim_quant", "slim_quant_o", "none")
SCORE_METHODS = ("wanda", "magnitude")
ADAPTER_METHODS = ("naive", "slim", "none")

#: Bits of one stored raw value or scale (f32).
F32_BITS = 32


@dataclass(frozen=True)
class LayerCompressionConfig:
    """Knobs for one compression run.

    Attributes:
        quant_method: One of absmax, group_absmax, slim_quant, slim_quant_o
            (scale search plus channel scaling), none.
        weight_bits: Integer code width for the weights, 2..8.
        group_size: Group length for grouped quantization (weights when
            quant_method is group_absmax, and adapter factors).
        sparsity: Target sparsity pattern, or None to skip pruning.
        prune_scores: "wanda" (activation-weighted) or "magnitude".
        adapter_method: "naive", "slim", or "none".
        rank_ratio: Adapter rank as a fraction of min(d_in, d_out). Must be
            left at None when adapter_method is "none"; defaults to 0.1
            otherwise.
        quantize_adapters: Store adapter factors 4-bit group-quantized.
        input_fp8: Snap activations to an 8-bit float grid at inference.
        channel_scaling: Force channel scaling on/off; None means "on for
            slim_quant_o, off otherwise".
        scale_fraction: Fraction of input channels boosted by scaling.
        scale_factor: Boost multiplier (> 1).

    Every field but ``sparsity`` must hold a value of its annotated type,
    the type ``__config__`` stores it as: an int field refuses a float or a
    bool, a bool field refuses an int, and a float field refuses a bool.
    """

    quant_method: str = "slim_quant"
    weight_bits: int = 4
    group_size: int = DEFAULT_GROUP_SIZE
    sparsity: SparsityPattern | None = None
    prune_scores: str = "wanda"
    adapter_method: str = "none"
    rank_ratio: float | None = None
    quantize_adapters: bool = False
    input_fp8: bool = False
    channel_scaling: bool | None = None
    scale_fraction: float = DEFAULT_SCALE_FRACTION
    scale_factor: float = DEFAULT_SCALE_FACTOR

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "sparsity" and not _json_typed(value, f.type):
                raise ConfigInvalid(f"{f.name} must be {f.type}, got {value!r}")
        if self.quant_method not in QUANT_METHODS:
            raise ConfigInvalid(f"unknown quant_method {self.quant_method!r}")
        if self.prune_scores not in SCORE_METHODS:
            raise ConfigInvalid(f"unknown prune_scores {self.prune_scores!r}")
        if self.adapter_method not in ADAPTER_METHODS:
            raise ConfigInvalid(f"unknown adapter_method {self.adapter_method!r}")
        if self.quant_method != "none" and not 2 <= self.weight_bits <= 8:
            raise ConfigInvalid(f"weight_bits must be in [2, 8], got {self.weight_bits}")
        if self.group_size < 1:
            raise ConfigInvalid(f"group_size must be >= 1, got {self.group_size}")
        if self.adapter_method == "none":
            if self.rank_ratio is not None:
                raise ConfigInvalid("rank_ratio given but adapter_method is none")
            if self.quantize_adapters:
                raise ConfigInvalid("quantize_adapters given but adapter_method is none")
        else:
            r = self.effective_rank_ratio
            if not (0.0 < r <= 1.0):
                raise ConfigInvalid(f"rank_ratio must be in (0, 1], got {r}")
        if not (0.0 < self.scale_fraction <= 1.0):
            raise ConfigInvalid(f"scale_fraction must be in (0, 1], got {self.scale_fraction}")
        if not (self.scale_factor > 1.0):
            raise ConfigInvalid(f"scale_factor must be > 1, got {self.scale_factor}")

    @property
    def effective_rank_ratio(self) -> float:
        if self.rank_ratio is not None:
            return float(self.rank_ratio)
        return DEFAULT_RANK_RATIO

    @property
    def scaling_enabled(self) -> bool:
        if self.channel_scaling is not None:
            return bool(self.channel_scaling)
        return self.quant_method == "slim_quant_o"

    def needs_stats(self) -> bool:
        """True when this configuration reads calibration statistics."""
        return (
            self.scaling_enabled
            or self.adapter_method == "slim"
            or (self.sparsity is not None and self.prune_scores == "wanda")
        )


@dataclass(frozen=True)
class Provenance:
    """Where the artifact came from: source shape plus chosen scale."""

    rows: int
    cols: int
    alpha: float | None = None


def _stored_bits(part: QuantizedTensor | np.ndarray, entries: int) -> int:
    """Bits a stored part takes for ``entries`` values: packed codes plus
    f32 scales, or f32 values."""
    if isinstance(part, QuantizedTensor):
        return code_field_bits(part.bits) * entries + F32_BITS * part.scales.size
    return F32_BITS * entries


def _dense(
    weights: QuantizedTensor | np.ndarray,
    scaling: ChannelScaling | None = None,
    rows: slice = slice(None),
    cols: slice = slice(None),
    adapter: LowRankAdapter | None = None,
) -> np.ndarray:
    """Float64 ``[rows, cols]`` block (the whole matrix by default; ``rows``
    of step 1) of a stored weight in a new buffer of its own: codes by
    :func:`dequantize` of the block, raw values widened. With ``scaling``,
    the block's boosted rows are divided again (:func:`~slim.quant._scale_rows`).
    With ``adapter``, ``left[rows] @ right[:, cols]`` is added by
    :func:`_add_product`, which may round it apart from ``left @ right``."""
    w = (dequantize(weights, rows, cols) if isinstance(weights, QuantizedTensor)
         else weights[rows, cols].astype(np.float64))
    w = _scale_rows(w, scaling, rows, undo=True)
    if adapter is not None:
        _add_product(w, adapter.left[rows], adapter.right[:, cols])
    return w


def _residual(read: BlockSource, weights: QuantizedTensor | np.ndarray, scaling: ChannelScaling | None,
              adapter: LowRankAdapter | None, rows: slice, cols: slice = slice(None)) -> np.ndarray:
    """The new float64 ``[rows, cols]`` block of ``w - (w_c + left @ right)``:
    ``read``'s block of ``w`` less :func:`_dense`'s (no adapter when None)."""
    e = _dense(weights, scaling, rows, cols, adapter)
    return np.subtract(read(rows, cols), e, out=e)


def _round_to_f32(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` (which may be ``src``) filled with ``src`` rounded to f32,
    one row block at a time; a value past f32's range becomes inf."""
    with np.errstate(over="ignore"):
        for rows in row_blocks(src):
            out[rows] = src[rows].astype(np.float32)
    return out


def _at_f32(part: QuantizedTensor | np.ndarray, name: str) -> QuantizedTensor | np.ndarray:
    """``part`` with its scales, or its raw values, rounded to f32 and held
    as float64; a part whose values the rounding leaves alone comes back as
    it is (raw values only when they are float64). Raw values are compared
    and rounded one row block at a time."""
    with np.errstate(over="ignore"):  # past f32's range rounds to inf, refused below
        if isinstance(part, QuantizedTensor):
            rounded = part.scales.astype(np.float32).astype(np.float64)
            if np.array_equal(rounded, part.scales):
                return part
            return QuantizedTensor._of_fields(part.fields, part.shape, rounded, part.group_size, part.bits)
        arr = as_float_matrix(part, name, allow_empty=True)
        if arr.dtype != np.float64 or not all(
            np.array_equal(arr[rows].astype(np.float32), arr[rows]) for rows in row_blocks(arr)
        ):
            arr = _round_to_f32(arr, np.empty(arr.shape))
    return as_matrix(arr, name, allow_empty=True)


@dataclass(frozen=True)
class CompressedLayer:
    """Everything produced by :func:`compress_layer` for one weight matrix:
    the layer its artifact decodes to, each scale or raw value rounded to f32
    (NonPositiveAlpha for a scale that rounds to 0 or inf, else NonFinite)."""

    weights: QuantizedTensor | np.ndarray
    mask: SparsityMask | None
    adapter: LowRankAdapter | None
    channel_scaling: ChannelScaling | None
    config: LayerCompressionConfig
    provenance: Provenance

    def __post_init__(self):
        object.__setattr__(self, "weights", _at_f32(self.weights, "weights at f32"))
        if (a := self.adapter) is not None:
            old = a.quantized or (a.left, a.right)
            new = tuple(map(_at_f32, old, ("left at f32", "right at f32")))
            if any(f is not o for f, o in zip(new, old)):  # a decoded adapter is kept
                object.__setattr__(self, "adapter", LowRankAdapter(*new))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.provenance.rows, self.provenance.cols)

    @property
    def density(self) -> float:
        """Kept-weight fraction; 1.0 when unpruned."""
        return self.mask.density if self.mask is not None else 1.0

    @property
    def effective_bits_per_weight(self) -> float:
        """Bits per weight element of the tensors the artifact stores.

        A code costs its packed field width (:func:`code_field_bits`), a raw
        value or a scale 32 bits. A pruned weight stores only its kept
        entries plus a 1-bit keep mask per element. The ``__config__``
        record and each tensor's padding to whole bytes are not charged.
        """
        d_in, d_out = self.shape
        kept = d_in * d_out if self.mask is None else self.mask.kept
        bits = _stored_bits(self.weights, kept)
        if self.mask is not None:
            bits += d_in * d_out
        if self.adapter is not None:
            for factor in self.adapter.quantized or (self.adapter.left, self.adapter.right):
                bits += _stored_bits(factor, int(np.prod(factor.shape)))
        return bits / (d_in * d_out)

    def stored_weight(self) -> np.ndarray:
        """Dense weight in stored (possibly channel-scaled) coordinates."""
        return _dense(self.weights)

    def effective_weight(self) -> np.ndarray:
        """Dense compressed weight in the caller's coordinates (no adapter)."""
        return _dense(self.weights, self.channel_scaling)

    def corrected_weight(self) -> np.ndarray:
        """effective_weight plus the adapter correction, if any."""
        w = self.effective_weight()
        if self.adapter is not None:
            w += self.adapter.correction()
        return w


@dataclass(frozen=True)
class ErrorReport:
    """Reconstruction-quality summary for one compressed layer: mean-squared
    errors per element, and the layer's own ``density`` and
    ``effective_bits_per_weight`` (see :class:`CompressedLayer`)."""

    weight_mse: float
    weighted_weight_mse: float
    output_mse: float
    output_mse_no_adapter: float
    density: float
    effective_bits_per_weight: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _quantize_weights(read: BlockSource, scaling: ChannelScaling | None, cfg: LayerCompressionConfig):
    """Quantize the weight whose blocks ``read`` makes with the boosted
    rows of ``scaling`` multiplied by its factor (:func:`~slim.quant._scale_rows`
    of each row block); returns (stored, alpha). The raw method stores the
    scaled weight in one float64 array of its own."""
    method = cfg.quant_method

    scaled = BlockSource(lambda rows, cols: _scale_rows(read(rows, cols), scaling, rows), read.shape)
    if method == "none":
        values = np.empty(read.shape)
        for rows in row_blocks(read):
            values[rows] = scaled(rows, slice(None))
        return values, None
    if method == "absmax":
        alpha = absmax_alpha(scaled)
        return quantize_symmetric(scaled, alpha, cfg.weight_bits), alpha
    if method == "group_absmax":
        return group_absmax_quantize(scaled, cfg.group_size, cfg.weight_bits), None
    # slim_quant / slim_quant_o share the histogram-driven scale search.
    alpha, err = slimquant_search(build_abs_histogram(scaled), cfg.weight_bits)
    logger.debug("scale search: alpha=%.6g expected_mse=%.6g", alpha, err)
    return quantize_symmetric(scaled, alpha, cfg.weight_bits), alpha


def compress_layer(w, stats: CalibrationStats | None, cfg: LayerCompressionConfig) -> CompressedLayer:
    """Run the full pipeline, in the module's order, on one weight matrix.

    ``w`` is read only by blocks (:mod:`slim.tensor`); no float64
    weight-sized array is made but the raw values of
    ``quant_method="none"``. The quantizer reads the scaled weight
    (:func:`_quantize_weights`), the mask the scores made from the codes in
    the caller's coordinates (:func:`~slim.prune.build_mask`), and the
    adapter fit the residual ``w - w_c`` (:func:`_residual`) times the
    saliency, the arithmetic of :func:`~slim.lora.slim_lora`. The packed
    codes (or raw values) are pruned in place.

    Args:
        w: Weight matrix, input channels as rows, checked for NaN and Inf
            before any stage runs; or a :class:`~slim.tensor.BlockSource`,
            such as :func:`~slim.container._tensor_source`'s, which checks
            each block as it reads it.
        stats: Calibration statistics, or None when ``cfg.needs_stats()``
            is False.
        cfg: Pipeline configuration.

    Raises:
        ConfigInvalid: required statistics missing.
        ShapeMismatch: statistics do not match the weight's input dimension.
    """
    read = tensor._block_source(w)  # an f32 matrix stays f32
    d_in, d_out = shape = read.shape
    if stats is not None:
        stats._check_rows(d_in)
    elif cfg.needs_stats():
        raise ConfigInvalid(
            "calibration statistics are required by this configuration "
            "(channel scaling, wanda scores, or slim adapter)"
        )

    # 1. Channel scaling (stored coordinates = scaled coordinates).
    scaling = None
    if cfg.scaling_enabled:
        scaling = activation_aware_scale(read, stats, cfg.scale_fraction, cfg.scale_factor)

    # 2. Quantize the scaled weight, read a row block at a time.
    stored, alpha = _quantize_weights(read, scaling, cfg)

    # 3. Prune the quantized weight, scored in the caller's coordinates.
    mask = None
    if cfg.sparsity is not None:
        norms = stats.l2_norm if cfg.prune_scores == "wanda" else None

        def scores(rows: slice, cols: slice) -> np.ndarray:  # made from the codes
            return prune_mod._scores(_dense(stored, scaling, rows, cols),
                                     None if norms is None else norms[rows])

        mask = prune_mod.build_mask(BlockSource(scores, shape), cfg.sparsity)
        if isinstance(stored, QuantizedTensor):  # the layer's own values, zeroed in place
            stored._keep_only(mask.bits)
        else:
            for rows in row_blocks(stored):
                np.copyto(stored[rows], 0, where=~mask.rows(rows))

    # 4. Adapter against the total error left after steps 1-3.
    adapter = None
    if cfg.adapter_method != "none":
        r = default_rank(d_in, d_out, cfg.effective_rank_ratio)
        x = saliency_vector(stats) if cfg.adapter_method == "slim" else SaliencyVector.constant(d_in)

        error = partial(_residual, read, stored, scaling, None)  # w - w_c, a block
        adapter = _weighted_fit(BlockSource(error, shape), x, r)
        if cfg.quantize_adapters:
            adapter = quantize_adapter(adapter, cfg.group_size)
    if not isinstance(stored, QuantizedTensor):
        _round_to_f32(stored, stored)  # after the fit, in place: the layer keeps this array
    return CompressedLayer(
        weights=stored, mask=mask, adapter=adapter,
        channel_scaling=scaling, config=cfg,
        provenance=Provenance(rows=d_in, cols=d_out, alpha=alpha),
    )


def layer_output(x, layer: CompressedLayer) -> np.ndarray:
    """Forward pass through a compressed layer: ``x' @ (W + L @ R)``.

    x' is ``x`` after the optional 8-bit float snap, and W the stored
    weight in the caller's coordinates, a forward block at a time
    (:mod:`slim.tensor`) of :func:`_dense`: for a power-of-two scale
    factor (the default 2.0) its division of the boosted rows gives the
    bits of compensated x' times W. The adapter term takes the cheaper
    order, as ``numpy.linalg.multi_dot`` would. Adding L @ R into each
    block costs ``d_in * r * d_out`` and ``(x' @ L) @ R`` costs
    ``tokens * r * (d_in + d_out)``, so the blocks take L @ R when
    ``tokens * (d_in + d_out) >= d_in * d_out``. A row's bits may differ
    in the last place between batch sizes on either side of that threshold.

    Raises:
        EmptyTensor / NonFinite: ``x`` has no elements, or NaN or Inf.
        ShapeMismatch: ``x`` is not 2-D or not d_in columns wide.
    """
    fp8 = layer.config.input_fp8  # the snap validates x as as_matrix does
    xa = fp8_fake_quantize(x)[0] if fp8 else as_matrix(x, "x", allow_empty=True)
    if xa.size == 0:
        raise EmptyTensor("x has zero elements")
    d_in, d_out = layer.shape
    if xa.shape[1] != d_in:
        raise ShapeMismatch(f"x has {xa.shape[1]} columns, layer expects {d_in}")
    weights, scaling, a = layer.weights, layer.channel_scaling, layer.adapter
    fold = a if xa.shape[0] * (d_in + d_out) >= d_in * d_out else None  # no x @ L is made
    if d_in <= d_out:  # column blocks, each product written into its columns of y
        y = np.empty((xa.shape[0], d_out))
        for cols in _spans(d_out, d_in, tensor.PRODUCT_ELEMENTS):
            np.matmul(xa, _dense(weights, scaling, cols=cols, adapter=fold), out=y[:, cols])
    else:  # row blocks, so the long x is read once: one y-sized product at a time
        y = np.zeros((xa.shape[0], d_out))
        for rows in _spans(d_in, d_out, tensor.PRODUCT_ELEMENTS):
            y += xa[:, rows] @ _dense(weights, scaling, rows=rows, adapter=fold)
    if a is not None and fold is None:
        _add_product(y, xa @ a.left, a.right)
    return y


def _add_product(out: np.ndarray, x: np.ndarray, m: np.ndarray) -> None:
    """``out += x @ m``, a chunk of about :data:`~slim.tensor.CHUNK_ELEMENTS`
    entries of ``out``'s columns at a time, with one chunk-sized
    temporary and none the size of ``out``; the bits may differ from the
    whole product's in the last place."""
    for cols in _spans(out.shape[1], out.shape[0], tensor.CHUNK_ELEMENTS):
        out[:, cols] += x @ m[:, cols]


def _checked_weight(w, layer: CompressedLayer, x_saliency: SaliencyVector) -> BlockSource:
    """The :class:`~slim.tensor.BlockSource` of ``w``, once its shape and the
    saliency's length match the layer."""
    read = tensor._block_source(w)
    if read.shape != layer.shape:
        raise ShapeMismatch(f"w shape {read.shape} does not match layer {layer.shape}")
    if len(x_saliency) != layer.shape[0]:
        raise ShapeMismatch(f"saliency length {len(x_saliency)} != d_in {layer.shape[0]}")
    return read


def _weight_space(sq_rows: np.ndarray, layer: CompressedLayer, x_saliency: SaliencyVector) -> dict:
    size = layer.shape[0] * layer.shape[1]
    return {
        "weight_mse": float(sq_rows.sum() / size),
        "weighted_weight_mse": float(sq_rows @ np.square(x_saliency.values) / size),
        "density": layer.density,
        "effective_bits_per_weight": layer.effective_bits_per_weight,
    }


def _row_squares(read: BlockSource, layer: CompressedLayer) -> np.ndarray:
    """Sum of squares of each row of the residual ``E = w - corrected_weight``,
    made one row block of :func:`_residual` at a time."""
    sq = np.empty(layer.shape[0])
    for rows in row_blocks(layer.shape):
        e = _residual(read, layer.weights, layer.channel_scaling, layer.adapter, rows)
        sq[rows] = np.einsum("ij,ij->i", e, e)
    return sq


def weight_space_report(w, layer: CompressedLayer, x_saliency: SaliencyVector) -> dict:
    """The fields of :func:`error_report` that need no evaluation inputs.

    Returns ``weight_mse``, ``weighted_weight_mse``, ``density`` and
    ``effective_bits_per_weight``, computed exactly as :func:`error_report`
    computes them, from one row block of the residual at a time. ``w`` is
    taken as :func:`compress_layer` takes it.

    Raises:
        ShapeMismatch: ``w`` or ``x_saliency`` disagrees with the layer.
    """
    read = _checked_weight(w, layer, x_saliency)
    return _weight_space(_row_squares(read, layer), layer, x_saliency)


def error_report(w, layer: CompressedLayer, x_eval, x_saliency: SaliencyVector) -> ErrorReport:
    """Compare a compressed layer against the original weight.

    Every field but ``density`` and ``effective_bits_per_weight`` comes
    from one residual ``E = w - corrected_weight`` (:func:`_residual`).
    ``weight_mse`` is the mean of ``E**2``; ``weighted_weight_mse`` scales
    each input row of E by ``x_saliency`` first. ``output_mse`` is the mean
    of ``R**2`` for ``R = x_eval @ E``, the per-element squared difference
    between ``x_eval @ w`` and ``x_eval @ W_reconstructed``.
    ``output_mse_no_adapter`` puts the adapter term back into R, as
    ``R + (x_eval @ left) @ right``; without an adapter it equals
    ``output_mse``. The layer's arrays are left as they were.

    No array the size of the weight is made, and none the size of R when
    the weight is wide. ``w`` and ``x_eval`` are each a matrix or its
    :class:`~slim.tensor.BlockSource`, which gives the same float64
    operands and so the same bits; ``x_eval`` is read whole for a wide
    weight, else one run of its columns at a time. The weight fields have
    the bits of :func:`weight_space_report`; the output fields are summed
    over :data:`~slim.tensor.SUM_ELEMENTS` blocks of E, so they may differ
    from the whole product's in the last places.

    Raises:
        ShapeMismatch: any operand disagrees on dimensions.
    """
    d_in, d_out = layer.shape
    xe = x_eval if isinstance(x_eval, BlockSource) else as_float_matrix(x_eval, "x_eval")
    if xe.shape[1] != d_in:
        raise ShapeMismatch(f"x_eval has {xe.shape[1]} columns, layer expects {d_in}")
    read = _checked_weight(w, layer, x_saliency)
    output = _column_sums if d_in < d_out else _row_run_sums
    sq, total, no_adapter = output(read, layer, xe, tensor.SUM_ELEMENTS)
    size = xe.shape[0] * d_out
    return ErrorReport(
        output_mse=total / size,
        output_mse_no_adapter=no_adapter / size,
        **_weight_space(sq, layer, x_saliency),
    )


def _sum_square(a: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", a, a))


def _x_columns(xe: BlockSource | np.ndarray, cols: slice) -> np.ndarray:
    """``x_eval[:, cols]`` as float64: read from a source, or an array's own
    (a float64 array's read in place)."""
    return xe(slice(None), cols) if isinstance(xe, BlockSource) else xe[:, cols].astype(np.float64, copy=False)


def _column_sums(read: BlockSource, layer: CompressedLayer, xe: BlockSource | np.ndarray, elements: int):
    """:func:`error_report`'s row squares of E, sum of ``R**2`` and sum of
    ``R**2`` with the adapter term put back, for a wide weight: by column
    blocks of E, each times ``x_eval`` (widened once), so R is never whole."""
    d_in, d_out = layer.shape
    a = layer.adapter
    x = _x_columns(xe, slice(None))
    xl = None if a is None else x @ a.left
    spans = list(_spans(d_out, d_in, elements))
    block = np.empty((d_in, min(d_out, spans[0].stop)))  # one column block of E
    total = no_adapter = 0.0
    for cols in spans:
        e = block[:, : min(cols.stop, d_out) - cols.start]
        for rows in row_blocks(e):
            e[rows] = _residual(read, layer.weights, layer.channel_scaling, a, rows, cols)
        r = x @ e  # R's columns
        square = _sum_square(r)
        total += square
        if a is not None:
            _add_product(r, xl, a.right[:, cols])
            square = _sum_square(r)
        no_adapter += square
        del r  # before the next block's is made
    return _row_squares(read, layer), total, no_adapter


def _row_run_sums(read: BlockSource, layer: CompressedLayer, xe: BlockSource | np.ndarray, elements: int):
    """:func:`error_report`'s row squares of E, sum of ``R**2`` and sum of
    ``R**2`` with the adapter term put back, for a tall or square weight,
    whose R is no larger than ``x_eval``: by runs of E's row blocks, each
    times its columns of ``x_eval`` added into R, as ``x_eval @ left`` is."""
    d_in, d_out = layer.shape
    a = layer.adapter
    per_block = next(row_blocks(layer.shape)).stop  # the rows of _row_squares's blocks
    runs = list(_spans(d_in, d_out, elements, unit=per_block))
    block = np.empty((min(d_in, runs[0].stop), d_out))  # one run of E's rows
    sq = np.empty(d_in)
    r = np.zeros((xe.shape[0], d_out))
    xl = None if a is None else np.zeros((xe.shape[0], a.rank))  # x_eval @ left
    for run in runs:
        xp = _x_columns(xe, run)
        e = block[: xp.shape[1]]
        for at in row_blocks(e):  # _row_squares's blocks, as the run starts on one
            rows = slice(run.start + at.start, run.start + at.stop)
            e[at] = _residual(read, layer.weights, layer.channel_scaling, a, rows)
            sq[rows] = np.einsum("ij,ij->i", e[at], e[at])
        _add_product(r, xp, e)
        if a is not None:
            xl += xp @ a.left[run]
    total = no_adapter = _sum_square(r)
    if a is not None:
        _add_product(r, xl, a.right)
        no_adapter = _sum_square(r)
    return sq, total, no_adapter
