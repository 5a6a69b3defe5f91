"""Scalar drift metrics over rollout traces.

These are declared proxies for the long-horizon failure modes of
autoregressive rollouts: per-block mean drift (saturation proxy), block
boundary discontinuity (flicker proxy), and windowed cosine similarity
(repetition proxy). All are pure functions of a sequence of trace
records, and each returns one float64 value per record; record 0, having
no history to compare against, is 0 for every metric so that the arrays
stay aligned with the records. Each takes `first`, the first record it
scores: the records before it are context only, and their values are 0.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .engine import TraceRecord


def _stacked_frames(records: Sequence[TraceRecord], metric: str) -> np.ndarray:
    """Every record's frames as one (steps, rows, width) array."""
    if not records:
        raise ValueError("trace is empty")
    frames = [r.frames for r in records]
    if any(f is None for f in frames):
        raise ValueError(
            f"{metric} needs per-frame values; rerun the rollout with frame "
            "recording enabled"
        )
    return np.stack(frames)


def mean_drift(records: Sequence[TraceRecord], first: int = 0) -> np.ndarray:
    """|mean(block i) - mean(block 0)| per record."""
    if not records:
        raise ValueError("trace is empty")
    means = np.array([records[0].mean] + [r.mean for r in records[first:]], dtype=np.float64)
    return np.concatenate([np.zeros(first), np.abs(means[1:] - means[0])])


def flicker_proxy(records: Sequence[TraceRecord], first: int = 0) -> np.ndarray:
    """Mean absolute jump between the last frame of block i-1 and the first
    frame of block i."""
    frames = _stacked_frames(records[max(first - 1, 0):], "flicker_proxy")
    jumps = np.zeros(len(records))
    jumps[len(records) - len(frames) + 1:] = np.abs(frames[1:, 0] - frames[:-1, -1]).mean(axis=1)
    return jumps


def check_window(window: int) -> None:
    """ValueError unless `window` is a repetition_score window, >= 1."""
    if window < 1:
        raise ValueError(f"window must be >= 1 (got {window})")


def repetition_score(records: Sequence[TraceRecord], window: int = 8,
                     first: int = 0) -> np.ndarray:
    """Max cosine similarity between block i and the previous `window`
    blocks (1.0 = exact repetition); a block of norm 0 scores 0 against
    every other. Every record passed, context included, decides the rescale."""
    check_window(window)
    flat = _stacked_frames(records, "repetition_score").reshape(len(records), -1)
    peak = np.abs(flat).max(axis=1, initial=0.0)
    lo, hi = np.sqrt([np.finfo(np.float64).tiny, np.finfo(np.float64).max / max(1, flat.shape[1])])
    if ((peak > hi) | ((0.0 < peak) & (peak < lo))).any():
        # a dot could overflow or underflow; cosine ignores scale, and powers of two scale exactly
        flat = np.ldexp(flat, -np.frexp(peak)[1][:, None])
    n = len(flat)
    width = max(1, min(window, n - 1))
    norms = np.linalg.norm(flat, axis=1)
    scores = np.zeros(n)
    per_pass = max(1, 2**17 // width)  # rows at a time, so memory is O(width) whatever n
    for start in range(max(first, 1), n, per_pass):
        last = min(start + per_pass, n)
        # Row i - start compares block i with blocks i - width .. i - 1; the
        # columns that would fall before block 0 are left out of the max.
        earlier = np.arange(start, last)[:, None] - width + np.arange(width)
        valid = earlier >= 0
        dots = np.zeros(valid.shape)
        for i in range(start, last):
            # one matrix-vector product per block: einsum or a batched matmul
            # would change the low bits of the scores
            lo = max(0, i - width)
            dots[i - start, lo - i:] = flat[lo:i] @ flat[i]
        denom = norms[np.where(valid, earlier, 0)] * norms[start:last, None]
        positive = denom > 0
        sims = np.where(positive, dots / np.where(positive, denom, 1.0), 0.0)
        scores[start:last] = np.where(valid, sims, -np.inf).max(axis=1)
    return scores


METRICS = {
    "mean_drift": mean_drift,
    "flicker_proxy": flicker_proxy,
    "repetition_score": repetition_score,
}
