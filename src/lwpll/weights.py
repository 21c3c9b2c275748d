"""Per-instance class weights, normalized separately inside and outside the set.

Each training instance i with candidate mask S_i carries a weight vector
w[i] that sums to 1 over S_i and to 1 over its complement (the complement
side is all zeros when S_i covers every class). One formula sets w: a
softmax of the current scores restricted to each side, so better-scoring
labels accumulate weight without any gradient flowing through w. The start
weights are its value at equal scores, uniform within each side. The
weights are a plain (n, K) float array; the caller keeps the masks.
"""

from __future__ import annotations

import numpy as np


def init_weights(masks) -> np.ndarray:
    """Start weights: the refresh at equal scores, uniform within each side."""
    return update_weights(masks, np.zeros(np.shape(masks)))


def _side_softmax(scores: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Softmax of scores restricted to `side`; zeros where side is empty."""
    peak = np.where(side, scores, -np.inf).max(axis=1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    # A gap beyond the float range overflows to -inf, and exp gives its exact 0.
    with np.errstate(over="ignore"):
        e = np.where(side, np.exp(np.where(side, scores, peak) - peak), 0.0)
    tot = e.sum(axis=1, keepdims=True)
    return np.divide(e, tot, out=np.zeros_like(e), where=tot > 0)


def update_weights(masks, scores) -> np.ndarray:
    """Weights (n, K) from scores: a softmax within each side of the candidate
    masks, which must be 2-D with every set nonempty; the scores must be finite."""
    m = np.asarray(masks, dtype=bool)
    if m.ndim != 2:
        raise ValueError("masks must be a 2-D boolean array")
    if not m.any(axis=1).all():
        raise ValueError("every candidate set must be nonempty")
    g = np.asarray(scores, dtype=float)
    if g.shape != m.shape:
        raise ValueError(f"scores shape {g.shape} does not match masks {m.shape}")
    if not np.isfinite(g).all():
        raise ValueError("scores must be finite")
    return _side_softmax(g, m) + _side_softmax(g, ~m)


def partition_sums(weights, masks) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance weight totals (candidate side, complement side)."""
    inside = np.where(masks, weights, 0.0).sum(axis=1)
    outside = np.where(masks, 0.0, weights).sum(axis=1)
    return inside, outside
