"""Layer compression pipeline: quantize, prune, compensate.

A layer is compressed in a fixed order: optional activation-aware channel
scaling, weight quantization, pruning of the quantized weight, then a
low-rank adapter fitted to whatever error the first steps left behind
(optionally quantized itself). Each stage's result is kept on the
artifact so inference and reporting can replay the exact arithmetic.

Weights are stored in the scaled coordinate system when channel scaling is
on; inference divides the matching activation channels by the scale
factor, and adapters always live in the caller's original coordinates so
``w ~ effective_weight + left @ right`` holds as seen by the caller.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, fields, replace

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
    _fit,
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
    absmax_alpha,
    activation_aware_scale,
    code_field_bits,
    compensate_activations,
    dequantize,
    fp8_fake_quantize,
    group_absmax_quantize,
    quantize_symmetric,
    slimquant_search,
)
from .tensor import _spans, as_float_matrix, as_matrix, build_abs_histogram, row_blocks

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
) -> np.ndarray:
    """Float64 ``[rows, cols]`` block (the whole matrix by default) of a
    stored weight in a new buffer of its own, mapped back to the caller's
    coordinates when ``scaling`` is given: codes by :func:`dequantize` of
    the block, raw values widened."""
    if isinstance(weights, QuantizedTensor):
        w = dequantize(weights, rows, cols)
    else:
        w = weights[rows, cols].astype(np.float64)
    if scaling is not None and scaling.channel_indices.size:
        w[np.isin(np.arange(weights.shape[0])[rows], scaling.channel_indices)] /= scaling.factor
    return w


def _at_f32(part: QuantizedTensor | np.ndarray, name: str) -> QuantizedTensor | np.ndarray:
    """``part`` with its scales, or its raw values, rounded to f32 and held
    as float64; a coded part whose scales the rounding leaves alone comes
    back as it is. Raw values are rounded one row block at a time."""
    with np.errstate(over="ignore"):  # past f32's range rounds to inf, refused below
        if isinstance(part, QuantizedTensor):
            rounded = part.scales.astype(np.float32).astype(np.float64)
            return part if np.array_equal(rounded, part.scales) else replace(part, scales=rounded)
        arr = as_float_matrix(part, name, allow_empty=True)
        out = np.empty(arr.shape)
        for rows in row_blocks(arr):
            out[rows] = arr[rows].astype(np.float32)
    return as_matrix(out, name, allow_empty=True)


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
        kept = d_in * d_out if self.mask is None else int(np.count_nonzero(self.mask.keep))
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
    """Reconstruction-quality summary for one compressed layer.

    All mean-squared errors are normalized per element; ``density`` and
    ``effective_bits_per_weight`` are the layer's own (see
    :class:`CompressedLayer`).
    """

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


def _quantize_weights(w_s: np.ndarray, cfg: LayerCompressionConfig):
    """Quantize the (possibly scaled) weight; returns (stored, alpha)."""
    method = cfg.quant_method
    if method == "none":
        return w_s, None  # the layer holds its own float64 copy
    if method == "absmax":
        alpha = absmax_alpha(w_s)
        return quantize_symmetric(w_s, alpha, cfg.weight_bits), alpha
    if method == "group_absmax":
        return group_absmax_quantize(w_s, cfg.group_size, cfg.weight_bits), None
    # slim_quant / slim_quant_o share the histogram-driven scale search.
    hist = build_abs_histogram(w_s)
    alpha, err = slimquant_search(hist, cfg.weight_bits)
    logger.debug("scale search: alpha=%.6g expected_mse=%.6g", alpha, err)
    return quantize_symmetric(w_s, alpha, cfg.weight_bits), alpha


def _check_weight_shape(shape: tuple, stats: CalibrationStats | None, name: str = "w") -> None:
    """Raise unless a weight of this shape can be compressed with ``stats``:
    2-D, non-empty, and one row per calibrated channel."""
    if len(shape) != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {shape}")
    if 0 in shape:
        raise EmptyTensor(f"{name} has zero elements")
    if stats is not None:
        stats._check_rows(shape[0])


def compress_layer(
    w,
    stats: CalibrationStats | None,
    cfg: LayerCompressionConfig,
) -> CompressedLayer:
    """Run the full pipeline on one weight matrix.

    Order: optional channel scaling, quantization, pruning of the
    quantized weight, adapter fit against the total remaining error
    (in the caller's coordinates), optional adapter quantization.

    The pruning scores are never held whole: the mask ranks one block at a
    time (:func:`~slim.prune.build_mask`), each block's scores made from
    the codes with the arithmetic of the dequantized weight in the
    caller's coordinates. Without an adapter no float64 weight-sized array
    is made after the quantizer; an adapter reads the pruned weight,
    dequantized after the mask.

    Args:
        w: Weight matrix, input channels as rows.
        stats: Calibration statistics; required whenever the configuration
            uses them (channel scaling, activation-weighted scores, or the
            saliency-weighted adapter), otherwise may be None.
        cfg: Pipeline configuration.

    Raises:
        ConfigInvalid: required statistics missing.
        ShapeMismatch: statistics do not match the weight's input dimension.
    """
    w0 = as_float_matrix(w, "w")  # an f32 weight stays f32
    d_in, d_out = w0.shape
    _check_weight_shape(w0.shape, stats)
    if stats is None and cfg.needs_stats():
        raise ConfigInvalid(
            "calibration statistics are required by this configuration "
            "(channel scaling, wanda scores, or slim adapter)"
        )

    # 1. Channel scaling (stored coordinates = scaled coordinates).
    scaling = None
    w_s = w0
    if cfg.scaling_enabled:
        w_s, scaling = activation_aware_scale(
            w0, stats, cfg.scale_fraction, cfg.scale_factor
        )

    # 2. Quantize.
    stored, alpha = _quantize_weights(w_s, cfg)
    del w_s  # free a channel-scaled copy before the scores

    # 3. Prune the quantized weight, scored in the caller's coordinates.
    mask = None
    if cfg.sparsity is not None:
        norms = stats.l2_norm if cfg.prune_scores == "wanda" else None

        def scores(rows: slice, cols: slice) -> np.ndarray:  # made from the codes
            return prune_mod._scores(_dense(stored, scaling, rows, cols),
                                     None if norms is None else norms[rows])

        mask = prune_mod.build_mask(scores, cfg.sparsity, (d_in, d_out))
        if isinstance(stored, QuantizedTensor):
            stored = replace(stored, codes=prune_mod.apply_mask(stored.codes, mask))
        else:
            stored = prune_mod.apply_mask(stored, mask)

    # 4. Adapter against the total error left after steps 1-3.
    adapter = None
    if cfg.adapter_method != "none":
        w_c = _dense(stored, scaling)  # the pruned weight, caller coordinates
        r = default_rank(d_in, d_out, cfg.effective_rank_ratio)
        x = saliency_vector(stats) if cfg.adapter_method == "slim" else SaliencyVector.constant(d_in)
        adapter = _fit(np.subtract(w0, w_c, out=w_c), x, r)  # the error in w_c's buffer
        if cfg.quantize_adapters:
            adapter = quantize_adapter(adapter, cfg.group_size)
    return CompressedLayer(
        weights=stored, mask=mask, adapter=adapter,
        channel_scaling=scaling, config=cfg,
        provenance=Provenance(rows=d_in, cols=d_out, alpha=alpha),
    )


def layer_output(x, layer: CompressedLayer) -> np.ndarray:
    """Forward pass through a compressed layer.

    Computes ``x' @ W_stored + (x' @ L) @ R`` where x' is the input after
    optional 8-bit float fake quantization, and channel-scaling
    compensation is applied to the main-path activations before the
    product. Neither the dense weight nor L @ R is materialized. The main
    product takes the weight one block of about
    :data:`~slim.tensor.PRODUCT_ELEMENTS` entries at a time, dequantized
    from the stored codes, along its longer side: a wide (or square)
    weight by blocks of columns, each product written into its columns of
    the output, and a tall one by blocks of rows, each product added to
    the output, so the inputs are read once per block of the shorter side.
    The adapter adds ``(x' @ L) @ R`` a chunk of the output's columns at a
    time (:func:`_add_product`), with no output-sized temporary.

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
    x_main = compensate_activations(xa, layer.channel_scaling)
    if d_in <= d_out:  # column blocks, each product written into its columns of y
        y = np.empty((xa.shape[0], d_out))
        for cols in _spans(d_out, d_in, tensor.PRODUCT_ELEMENTS):
            np.matmul(x_main, _dense(layer.weights, cols=cols), out=y[:, cols])
    else:  # row blocks, so the long x is read once: one y-sized product at a time
        y = np.zeros((xa.shape[0], d_out))
        for rows in _spans(d_in, d_out, tensor.PRODUCT_ELEMENTS):
            y += x_main[:, rows] @ _dense(layer.weights, rows=rows)
    if layer.adapter is not None:
        _add_product(y, xa @ layer.adapter.left, layer.adapter.right)
    return y


def _add_product(out: np.ndarray, x: np.ndarray, m: np.ndarray) -> None:
    """``out += x @ m``, a chunk of about :data:`~slim.tensor.PRODUCT_ELEMENTS`
    ``// 16`` entries of ``out``'s columns at a time, so no temporary the size
    of ``out`` is made; the bits may differ from the whole product's in the
    last place."""
    for cols in _spans(out.shape[1], out.shape[0], tensor.PRODUCT_ELEMENTS // 16):
        out[:, cols] += x @ m[:, cols]


def _checked_weight(w, layer: CompressedLayer, x_saliency: SaliencyVector) -> np.ndarray:
    w0 = as_float_matrix(w, "w")
    if w0.shape != layer.shape:
        raise ShapeMismatch(f"w shape {w0.shape} does not match layer {layer.shape}")
    if len(x_saliency) != layer.shape[0]:
        raise ShapeMismatch(f"saliency length {len(x_saliency)} != d_in {layer.shape[0]}")
    return w0


def _mean_square(a: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", a, a) / a.size)


def _difference_row_squares(w0: np.ndarray, layer: CompressedLayer, span: slice = slice(None),
                            out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of ``D**2`` for ``D = corrected_weight - w0`` over the rows
    ``span`` (all of them by default, else a whole number of row blocks from
    a block boundary), each row block of :func:`~slim.tensor.row_blocks`
    made on its own; with ``out`` (error_report's product block, as many
    rows as the span), the blocks are also written into it. Without an adapter
    a block holds the bits of the same rows of the whole-matrix D; with
    one, ``left[rows] @ right`` may round apart from the rows of
    ``left @ right`` in the last place."""
    a = layer.adapter
    part = w0[span]
    first = span.start or 0
    sq = np.empty(part.shape[0])
    for at in row_blocks(part):
        rows = slice(first + at.start, first + at.stop)
        d = _dense(layer.weights, layer.channel_scaling, rows)
        if a is not None:
            d += a.left[rows] @ a.right
        d -= part[at]  # an f32 w0 widens element by element: the bits of its float64 copy
        sq[at] = np.einsum("ij,ij->i", d, d)
        if out is not None:
            out[at] = d
    return sq


def _weight_space(sq_rows: np.ndarray, layer: CompressedLayer, x_saliency: SaliencyVector) -> dict:
    size = layer.shape[0] * layer.shape[1]
    return {
        "weight_mse": float(sq_rows.sum() / size),
        "weighted_weight_mse": float(sq_rows @ np.square(x_saliency.values) / size),
        "density": layer.density,
        "effective_bits_per_weight": layer.effective_bits_per_weight,
    }


def weight_space_report(w, layer: CompressedLayer, x_saliency: SaliencyVector) -> dict:
    """The fields of :func:`error_report` that need no evaluation inputs.

    Returns ``weight_mse``, ``weighted_weight_mse``, ``density`` and
    ``effective_bits_per_weight``, computed exactly as :func:`error_report`
    computes them, from one row block of the difference at a time.

    Raises:
        ShapeMismatch: ``w`` or ``x_saliency`` disagrees with the layer.
    """
    w0 = _checked_weight(w, layer, x_saliency)
    return _weight_space(_difference_row_squares(w0, layer), layer, x_saliency)


def error_report(
    w,
    layer: CompressedLayer,
    x_eval,
    x_saliency: SaliencyVector,
) -> ErrorReport:
    """Compare a compressed layer against the original weight.

    Every field but ``density`` and ``effective_bits_per_weight`` comes
    from one difference ``D = corrected_weight - w``. ``weight_mse`` is the
    mean of ``D**2``; ``weighted_weight_mse`` scales each input row of D by
    ``x_saliency`` first. ``output_mse`` is the mean of ``R**2`` for
    ``R = x_eval @ D``, the per-element squared difference between
    ``x_eval @ W_reconstructed`` and ``x_eval @ w``.
    ``output_mse_no_adapter`` drops the adapter term from R, as
    ``R - (x_eval @ left) @ right``; without an adapter it equals
    ``output_mse``. The layer's arrays are left as they were.

    No array the size of the weight is made. D is made one row block at a
    time, as :func:`weight_space_report` makes it (so the weight fields
    have its bits), into one product block: a run of D's rows of about
    :data:`~slim.tensor.PRODUCT_ELEMENTS` entries. Each run's product with
    its columns of ``x_eval`` (only those widened to float64) is added into
    R a chunk of R's columns at a time, and ``x_eval @ left`` is summed the
    same way, so the output fields differ from the whole product's in the
    last places.

    Raises:
        ShapeMismatch: any operand disagrees on dimensions.
    """
    d_in, d_out = layer.shape
    xe = as_float_matrix(x_eval, "x_eval")
    if xe.shape[1] != d_in:
        raise ShapeMismatch(f"x_eval has {xe.shape[1]} columns, layer expects {d_in}")
    w0 = _checked_weight(w, layer, x_saliency)

    a = layer.adapter
    per_block = next(row_blocks(w0)).stop  # the rows of weight_space_report's blocks
    runs = list(_spans(d_in, d_out, tensor.PRODUCT_ELEMENTS, unit=per_block))
    block = np.empty((min(d_in, runs[0].stop), d_out))  # one run of D's rows
    sq = np.empty(d_in)
    r = np.zeros((xe.shape[0], d_out))
    xl = None if a is None else np.zeros((xe.shape[0], a.rank))  # x_eval @ left
    for run in runs:
        xp = xe[:, run].astype(np.float64, copy=False)  # a float64 x_eval is read in place
        d = block[: xp.shape[1]]
        sq[run] = _difference_row_squares(w0, layer, run, out=d)
        _add_product(r, xp, d)
        if a is not None:
            xl += xp @ a.left[run]
    output_mse = _mean_square(r)
    no_adapter = output_mse
    if a is not None:
        _add_product(r, -xl, a.right)
        no_adapter = _mean_square(r)
    return ErrorReport(
        output_mse=output_mse,
        output_mse_no_adapter=no_adapter,
        **_weight_space(sq, layer, x_saliency),
    )
