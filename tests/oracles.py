"""Independent reference implementations used to validate the library.

Everything here is deliberately written the slow, obvious way (explicit
loops, exhaustive enumeration, dense grids) and avoids the library's own
code paths except where the target of a test is explicitly a search
strategy rather than the objective being searched.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def round_half_away(v: float) -> float:
    """Scalar round-to-nearest with halves away from zero."""
    return math.floor(abs(v) + 0.5) * (1.0 if v >= 0 else -1.0)


def symmetric_dequant(w, alpha: float, q: int) -> np.ndarray:
    """Loop-based quantize-then-dequantize on the symmetric grid."""
    w = np.asarray(w, dtype=np.float64)
    step = alpha * 2.0 ** (1 - q)
    lo, hi = -(2 ** (q - 1)), 2 ** (q - 1) - 1
    out = np.empty_like(w)
    flat_in = w.ravel()
    flat_out = out.ravel()
    for i, v in enumerate(flat_in):
        code = min(max(round_half_away(v / step), lo), hi)
        flat_out[i] = code * step
    return out


def group_absmax_dequant(w, group_size: int, q: int) -> np.ndarray:
    """Loop-based grouped AbsMax round trip."""
    w = np.asarray(w, dtype=np.float64)
    qmax = 2 ** (q - 1) - 1
    flat = w.ravel().copy()
    out = np.empty_like(flat)
    for start in range(0, flat.size, group_size):
        group = flat[start : start + group_size]
        scale = max(abs(float(v)) for v in group) or 1.0
        for i, v in enumerate(group):
            code = min(max(round_half_away(v * qmax / scale), -qmax), qmax)
            out[start + i] = code * scale / qmax
    return out.reshape(w.shape)


def per_element_quant_mse(values, alpha: float, q: int) -> float:
    """Direct mean squared quantization error over raw samples.

    Same model as the histogram objective: in-range magnitudes round on
    the step-``alpha * 2**(1-q)`` grid, out-of-range magnitudes are charged
    the squared distance to alpha.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    step = alpha * 2.0 ** (1 - q)
    total = 0.0
    for v in values:
        a = abs(float(v))
        if a > alpha:
            total += (alpha - a) ** 2
        else:
            total += (step * round_half_away(a / step) - a) ** 2
    return total / values.size


def dense_grid_alpha(hist, q: int, points: int = 5000):
    """Exhaustive minimizer of the library's histogram objective.

    This oracle validates the *search strategy*, so it reuses the library
    objective but minimizes it by brute force over ``points`` uniform
    scales spanning (0, max_abs].
    """
    from slim.quant import estimate_error

    m = hist.max_abs
    if m == 0.0:
        return 1.0, 0.0
    grid = m * np.arange(1, points + 1, dtype=np.float64) / points
    errs = estimate_error(hist, grid, q)
    k = int(np.argmin(errs))
    return float(grid[k]), float(errs[k])


def best_rank_r_residual(m, r: int) -> float:
    """Frobenius norm of the optimal rank-r residual, via an
    eigendecomposition of the Gram matrix (no SVD routine involved)."""
    m = np.asarray(m, dtype=np.float64)
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    evals = np.linalg.eigvalsh(gram)  # ascending
    evals = np.clip(evals, 0.0, None)
    if r >= evals.size:
        return 0.0
    return float(np.sqrt(evals[: evals.size - r].sum()))


def singular_values_desc(m) -> np.ndarray:
    """All singular values, descending, from the Gram eigendecomposition."""
    m = np.asarray(m, dtype=np.float64)
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    evals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return np.sqrt(evals[::-1])


# ---------------------------------------------------------------------------
# 8-bit float value tables


def fp8_value_table(variant: str) -> list[tuple[float, int]]:
    """All non-negative finite values of an 8-bit float format.

    Returns (value, k) pairs sorted by value, where k is the integer
    mantissa count at the value's own scale (even k wins distance ties,
    matching round-to-nearest-even). NaN and infinity encodings are
    skipped.
    """
    if variant == "E4M3":
        mbits, bias, emax = 3, 7, 15
        def is_nan(e, m):
            return e == emax and m == (1 << mbits) - 1
        def is_inf(e, m):
            return False
    elif variant == "E5M2":
        mbits, bias, emax = 2, 15, 31
        def is_nan(e, m):
            return e == emax and m != 0
        def is_inf(e, m):
            return e == emax and m == 0
    else:
        raise ValueError(variant)

    table = {}
    for e in range(emax + 1):
        for m in range(1 << mbits):
            if is_nan(e, m) or is_inf(e, m):
                continue
            if e == 0:
                k = m
                value = m * 2.0 ** (1 - bias - mbits)
            else:
                k = (1 << mbits) + m
                value = k * 2.0 ** (e - bias - mbits)
            table.setdefault(value, k)
    return sorted(table.items())


def fp8_snap_oracle(v: float, table: list[tuple[float, int]]) -> float:
    """Nearest-table-value rounding with ties to the even-mantissa entry.

    Magnitudes beyond the table maximum clamp to the maximum.
    """
    a = abs(v)
    sign = -1.0 if v < 0 else 1.0
    if a >= table[-1][0]:
        return sign * table[-1][0]
    # linear scan is fine at <= 256 entries; ties are exact float
    # comparisons because grid values and midpoints are exact binary
    # fractions.
    best = None
    for val, k in table:
        d = abs(val - a)
        if best is None or d < best[0]:
            best = (d, val, k)
        elif d == best[0] and k % 2 == 0 and best[2] % 2 == 1:
            best = (d, val, k)
    return sign * best[1]


# ---------------------------------------------------------------------------
# Mask oracles


def topk_column_mask(scores, ratio: float) -> np.ndarray:
    """Per-output-column top-k keep mask via explicit sorting.

    Keeps ceil((1 - ratio) * d_in) entries per column; ties keep the lower
    input index.
    """
    s = np.asarray(scores, dtype=np.float64)
    d_in, d_out = s.shape
    k = math.ceil((1.0 - ratio) * d_in)
    keep = np.zeros_like(s, dtype=bool)
    for j in range(d_out):
        ranked = sorted(range(d_in), key=lambda i: (-s[i, j], i))
        for i in ranked[:k]:
            keep[i, j] = True
    return keep


def nm_group_mask(scores, n: int, m: int) -> np.ndarray:
    """n:m keep mask by exhaustive subset enumeration per group.

    Picks the n-subset with maximum total score; among ties, the
    lexicographically smallest index set (which matches keeping the lower
    index on per-element ties).
    """
    s = np.asarray(scores, dtype=np.float64)
    d_in, d_out = s.shape
    keep = np.zeros_like(s, dtype=bool)
    for j in range(d_out):
        for g in range(0, d_in, m):
            group = s[g : g + m, j]
            best = None
            # combinations() yields index sets in lexicographic order, so
            # keeping the first maximum picks the lexicographically
            # smallest tied subset.
            for combo in itertools.combinations(range(m), n):
                total = sum(group[i] for i in combo)
                if best is None or total > best[0]:
                    best = (total, combo)
            for i in best[1]:
                keep[g + i, j] = True
    return keep


def calib_by_concatenation(batches):
    """Calibration statistics computed on the concatenated token matrix."""
    x = np.concatenate([np.asarray(b, dtype=np.float64) for b in batches], axis=0)
    return {
        "mean_abs": np.abs(x).mean(axis=0),
        "l2_norm": np.sqrt((x**2).sum(axis=0)),
        "token_count": x.shape[0],
    }
