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
    # Each entry takes its side's peak, sum and so softmax; an empty side's
    # -inf peak and 0 sum are never read.
    peak_in = np.where(m, g, -np.inf).max(axis=1, keepdims=True)
    peak_out = np.where(m, -np.inf, g).max(axis=1, keepdims=True)
    # A gap beyond the float range overflows to -inf, and exp gives its exact 0.
    with np.errstate(over="ignore"):
        e = np.exp(g - np.where(m, peak_in, peak_out))
    total_in = np.where(m, e, 0.0).sum(axis=1, keepdims=True)
    total_out = np.where(m, 0.0, e).sum(axis=1, keepdims=True)
    return e / np.where(m, total_in, total_out)

