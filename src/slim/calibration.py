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

from .container import _from_fields, _parse_json, read_container, write_container
from .errors import EmptyInput, NonFinite, SchemaViolation, ShapeMismatch
from .tensor import _spans, as_float_matrix

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
        if mean_abs.shape != (self.d_in,) or l2_norm.shape != (self.d_in,):
            raise ShapeMismatch(
                f"statistics vectors must have length d_in={self.d_in}"
            )
        for name, v in (("mean_abs", mean_abs), ("l2_norm", l2_norm)):
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

    Each batch is a (tokens, d_in) matrix; batches may have different token
    counts but must agree on d_in. Accumulation is streaming (one pass, no
    concatenation) in float64, so any partition of the same token stream
    produces identical statistics up to last-bit rounding.

    A batch is read as it is stored, one block of its columns at a time
    (:mod:`slim.tensor`), into a float64 buffer in the batch's layout:
    ``|x|``, summed over tokens, then ``x**2``. No block is one column wide
    unless the batch is (numpy sums a one-column buffer pairwise), so each
    column's sums have the bits of the whole-batch temporaries.

    Raises:
        EmptyInput: No batches, or zero tokens in total.
        ShapeMismatch: Batches disagree on the channel count.
    """
    sum_abs = None
    sum_sq = None
    d_in = None
    tokens = 0
    for batch in x_batches:
        arr = as_float_matrix(batch, "activation batch", allow_empty=True)
        if d_in is None:
            d_in = arr.shape[1]
            sum_abs = np.zeros(d_in, dtype=np.float64)
            sum_sq = np.zeros(d_in, dtype=np.float64)
        elif arr.shape[1] != d_in:
            raise ShapeMismatch(
                f"batch has {arr.shape[1]} channels, expected {d_in}"
            )
        if arr.shape[0] == 0:
            continue
        spans = list(_spans(d_in, arr.shape[0], unit=2))
        if len(spans) > 1 and spans[-1].start == d_in - 1:  # a lone last column joins the block before
            spans[-2:] = [slice(spans[-2].start, d_in)]
        for cols in spans:
            buf = np.empty_like(arr[:, cols], dtype=np.float64)  # the batch's layout
            for fill, total in ((np.abs, sum_abs), (np.square, sum_sq)):
                fill(arr[:, cols], out=buf, dtype=np.float64)
                total[cols] += buf.sum(axis=0)
        tokens += arr.shape[0]
    if d_in is None or d_in == 0 or tokens == 0:
        raise EmptyInput("no calibration tokens provided")
    return CalibrationStats(
        d_in=d_in,
        mean_abs=sum_abs / tokens,
        l2_norm=np.sqrt(sum_sq),
        token_count=tokens,
    )


def save_calibration(path, stats: CalibrationStats) -> None:
    """Persist statistics as a tensor container.

    Layout: f32 tensors "mean_abs" and "l2_norm" plus a "__meta__" tensor
    of UTF-8 JSON bytes holding ``d_in`` and ``token_count``.
    """
    meta = json.dumps(
        {"d_in": stats.d_in, "token_count": stats.token_count}, sort_keys=True
    ).encode("utf-8")
    write_container(
        path,
        {
            "mean_abs": stats.mean_abs.astype(np.float32),
            "l2_norm": stats.l2_norm.astype(np.float32),
            "__meta__": np.frombuffer(meta, dtype=np.uint8),
        },
    )


def load_calibration(path) -> CalibrationStats:
    """Inverse of :func:`save_calibration`.

    Raises:
        SchemaViolation: the container lacks the expected tensors, the
            metadata does not hold exactly an int ``d_in`` and an int
            ``token_count``, or it is inconsistent with the tensors.
    """
    tensors = read_container(path)
    for name in ("mean_abs", "l2_norm", "__meta__"):
        if name not in tensors:
            raise SchemaViolation(f"calibration container is missing {name!r}")
    meta = _parse_json(tensors["__meta__"].tobytes(), SchemaViolation, "calibration metadata")
    mean_abs = np.asarray(tensors["mean_abs"], dtype=np.float64).reshape(-1)
    l2_norm = np.asarray(tensors["l2_norm"], dtype=np.float64).reshape(-1)
    try:
        return _from_fields(CalibrationStats, meta, mean_abs=mean_abs, l2_norm=l2_norm)
    except (EmptyInput, ShapeMismatch, NonFinite) as exc:
        raise SchemaViolation(f"calibration container invalid: {exc}") from exc
