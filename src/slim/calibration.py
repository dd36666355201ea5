"""Per-input-channel activation statistics.

Downstream consumers need two summaries of the calibration activations,
both gathered in a single streaming pass over token batches:

* mean absolute value per channel (drives channel scaling and the
  saliency weighting of low-rank adapters), and
* the per-channel l2 norm over all tokens (drives activation-weighted
  pruning scores).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .container import _from_fields, _parse_json, _tensor, read_container, write_container
from .errors import EmptyInput, NonFinite, SchemaViolation, ShapeMismatch
from .tensor import BlockSource, _array_source, as_float_matrix, row_blocks

__all__ = [
    "CalibrationStats",
    "compute_calibration",
    "save_calibration",
    "load_calibration",
]


@dataclass(frozen=True)
class CalibrationStats:
    """Channel-wise activation statistics.

    Attributes:
        d_in: Number of input channels.
        mean_abs: Mean absolute activation per channel, length ``d_in``.
        l2_norm: l2 norm over all tokens per channel, length ``d_in``.
        token_count: Number of token rows the statistics were computed from.
    """

    d_in: int
    mean_abs: np.ndarray
    l2_norm: np.ndarray
    token_count: int

    def __post_init__(self):
        mean_abs = np.asarray(self.mean_abs, dtype=np.float64)
        l2_norm = np.asarray(self.l2_norm, dtype=np.float64)
        object.__setattr__(self, "mean_abs", mean_abs)
        object.__setattr__(self, "l2_norm", l2_norm)
        if self.d_in <= 0 or self.token_count <= 0:
            raise EmptyInput("statistics require d_in > 0 and token_count > 0")
        for name, v in (("mean_abs", mean_abs), ("l2_norm", l2_norm)):
            if v.shape != (self.d_in,):
                raise ShapeMismatch(f"{name} has shape {v.shape}, need ({self.d_in},)")
            if not np.isfinite(v).all():
                raise NonFinite(f"{name} contains NaN or Inf")
            if (v < 0).any():
                raise NonFinite(f"{name} must be elementwise >= 0")

    def _check_rows(self, rows: int) -> None:
        """Raise ShapeMismatch unless a weight of ``rows`` rows has one
        calibrated channel per row."""
        if self.d_in != rows:
            raise ShapeMismatch(f"stats cover {self.d_in} channels, weight has {rows} rows")


def compute_calibration(x_batches) -> CalibrationStats:
    """Accumulate channel statistics over a sequence of activation batches.

    Each batch is a (tokens, d_in) matrix or its
    :class:`~slim.tensor.BlockSource`; batches may have different token
    counts but must agree on d_in. Accumulation is streaming (one pass, no
    concatenation) in float64, each batch in token order through its source
    (:func:`_batch_sums`): the same bits in every layout, array or file, and
    any partition of the token stream gives them up to last-bit rounding.

    Raises:
        EmptyInput: No batches, or zero tokens in total.
        ShapeMismatch: Batches disagree on the channel count.
    """
    sums = None
    d_in = None
    tokens = 0
    for batch in x_batches:
        if not isinstance(batch, BlockSource):
            batch = as_float_matrix(batch, "activation batch", allow_empty=True)
        if d_in is None:
            d_in = batch.shape[1]
            sums = np.zeros((2, d_in))  # of |x|, then of x**2
        elif batch.shape[1] != d_in:
            raise ShapeMismatch(
                f"batch has {batch.shape[1]} channels, expected {d_in}"
            )
        if 0 in batch.shape:
            continue
        sums += _batch_sums(batch if isinstance(batch, BlockSource) else _array_source(batch))
        tokens += batch.shape[0]
    if d_in is None or d_in == 0 or tokens == 0:
        raise EmptyInput("no calibration tokens provided")
    return CalibrationStats(
        d_in=d_in,
        mean_abs=sums[0] / tokens,
        l2_norm=np.sqrt(sums[1]),
        token_count=tokens,
    )


def _batch_sums(read: BlockSource) -> np.ndarray:
    """Sums over tokens of ``|x|`` and ``x**2`` of a batch's source, in
    token order: each row block (:mod:`slim.tensor`) is summed down its
    rows, the sums so far added into its first, and numpy adds a C-ordered
    block down its rows one row at a time, so the bits are those of the
    whole batch in every layout. A one-column batch, which numpy sums
    pairwise, is read whole."""
    sums = np.zeros((2, read.shape[1]))
    for rows in row_blocks(read) if read.shape[1] > 1 else [slice(None)]:
        x = read(rows, slice(None))
        np.abs(x, out=x)
        for part, total in zip((x, np.square(x)), sums):  # |x| squares to the bits of x**2
            part[0] += total
            part.sum(axis=0, out=total)
    return sums


def save_calibration(path, stats: CalibrationStats) -> None:
    """Persist statistics as a tensor container.

    Layout: f32 tensors "mean_abs" and "l2_norm" plus a "__meta__" tensor
    of UTF-8 JSON bytes holding ``d_in`` and ``token_count``.

    Raises:
        NonFinite: a statistic rounds to inf at f32; nothing is written.
    """
    meta = json.dumps(
        {"d_in": stats.d_in, "token_count": stats.token_count}, sort_keys=True
    ).encode("utf-8")
    tensors = {}
    for name in ("mean_abs", "l2_norm"):
        with np.errstate(over="ignore"):  # past f32's range rounds to inf, refused here
            tensors[name] = getattr(stats, name).astype(np.float32)
        if not np.isfinite(tensors[name]).all():
            raise NonFinite(f"{name} is past the float32 range a calibration container stores")
    write_container(path, {**tensors, "__meta__": np.frombuffer(meta, dtype=np.uint8)})


def load_calibration(path) -> CalibrationStats:
    """Inverse of :func:`save_calibration`.

    Raises:
        SchemaViolation: a tensor is missing, the metadata does not hold
            exactly an int ``d_in`` and an int ``token_count``, or a
            statistic is not 1-D f32, ``d_in`` long, finite and >= 0.
    """
    tensors = read_container(path)
    for name in ("mean_abs", "l2_norm", "__meta__"):
        if name not in tensors:
            raise SchemaViolation(f"calibration container is missing {name!r}")
    meta = _parse_json(tensors["__meta__"].tobytes(), SchemaViolation, "calibration metadata")
    vectors = {name: _tensor(tensors, name, np.float32) for name in ("mean_abs", "l2_norm")}
    try:
        return _from_fields(CalibrationStats, meta, **vectors)
    except (EmptyInput, ShapeMismatch, NonFinite) as exc:
        raise SchemaViolation(f"calibration container invalid: {exc}") from exc
