"""Convergence-trend heuristics for truncated series.

A finite truncation can never decide whether a series converges, so reports
never return a bare boolean.  The classifier splits the summation range into
four geometric quarters (after a short burn-in) and compares the mass of the
last quarter to the first: summands ~ k^{-s} give a ratio g^{3(1-s)} with g
the quarter growth factor, which separates cleanly at the borderline s = 1.
"""

from dataclasses import dataclass

import numpy as np

from .config import TREND_BURN_IN, TREND_CONVERGING, TREND_DIVERGING

# Summands below this fraction of the largest one count as exact zeros.
NOISE_FLOOR = 1e-13
# Geometric bins of the decay-slope fit.
SLOPE_BINS = 16


@dataclass(frozen=True)
class TrendReport:
    """Outcome of the geometric-quarter mass comparison."""

    trend: str              # "converging" | "diverging" | "inconclusive"
    ratio: float            # last-quarter mass / first-quarter mass


def classify_trend(indices, summands):
    """Classify the tail behaviour of sum_k summands[k].

    Summands below NOISE_FLOOR times the largest one are treated as exact
    zeros: singular values computed from dense blocks carry relative roundoff
    around 1e-12, and p-th powers of that noise would otherwise masquerade as
    a non-decaying tail.

    Parameters
    ----------
    indices : array of positive, increasing summation indices
    summands : nonnegative array, same length
    """
    indices = np.asarray(indices, dtype=float)
    summands = np.asarray(summands, dtype=float)
    if indices.shape != summands.shape:
        raise ValueError("indices and summands must align")
    if np.any(summands < 0):
        raise ValueError("summands must be nonnegative")
    cap = float(np.max(summands)) if summands.size else 0.0
    if cap > 0.0:
        summands = np.where(summands >= NOISE_FLOOR * cap, summands, 0.0)
    if np.all(summands == 0.0):
        return TrendReport("converging", 0.0)

    keep = indices >= TREND_BURN_IN
    if np.count_nonzero(keep) < 8:
        keep = np.ones_like(indices, dtype=bool)
    idx = indices[keep]
    val = summands[keep]
    k_lo, k_hi = float(idx[0]), float(idx[-1])
    if k_hi <= k_lo:
        return TrendReport("inconclusive", float("nan"))

    # Geometric quarter boundaries; bin by log position.
    edges = k_lo * (k_hi / k_lo) ** (np.arange(5) / 4.0)
    which = np.searchsorted(edges[1:-1], idx, side="left")
    first, last = (float(np.sum(val[which == q])) for q in (0, 3))
    if first == 0.0:
        ratio = 0.0 if last == 0.0 else float("inf")
    else:
        ratio = last / first
    if ratio < TREND_CONVERGING:
        trend = "converging"
    elif ratio > TREND_DIVERGING:
        trend = "diverging"
    else:
        trend = "inconclusive"
    return TrendReport(trend, float(ratio))


def loglog_slope(indices, values):
    """Decay exponent estimate: slope of log10(bin mean |value|) vs log10 k.

    Values are averaged over geometric bins before fitting so sequences that
    oscillate through zero (sin-sqrt weight differences) still expose their
    envelope.  Returns None when fewer than four nonempty bins survive.
    """
    indices = np.asarray(indices, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    keep = (indices >= TREND_BURN_IN) & (indices > 0)
    idx = indices[keep]
    val = values[keep]
    if idx.size < 4 or np.all(val == 0.0):
        return None
    k_lo, k_hi = idx[0], idx[-1]
    if k_hi <= k_lo:
        return None
    edges = k_lo * (k_hi / k_lo) ** (np.arange(SLOPE_BINS + 1) / SLOPE_BINS)
    which = np.clip(np.searchsorted(edges[1:-1], idx, side="left"), 0, SLOPE_BINS - 1)
    xs, ys = [], []
    for b in range(SLOPE_BINS):
        sel = which == b
        if not np.any(sel):
            continue
        mean = float(np.mean(val[sel]))
        if mean <= 0.0:
            continue
        xs.append(np.log10(np.sqrt(edges[b] * edges[b + 1])))
        ys.append(np.log10(mean))
    if len(xs) < 4:
        return None
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)
