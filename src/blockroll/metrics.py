"""Scalar drift metrics over rollout traces.

These are declared proxies for the long-horizon failure modes of
autoregressive rollouts: per-block mean drift (saturation proxy), block
boundary discontinuity (flicker proxy), and windowed cosine similarity
(repetition proxy). All are pure functions of the trace; step 0, having
no history to compare against, is defined as 0 for every metric so that
series stay aligned step-for-step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RolloutTrace


@dataclass(frozen=True)
class MetricSeries:
    name: str
    values: tuple[tuple[int, float], ...]

    def terminal(self) -> float:
        return self.values[-1][1]


def _stacked_frames(trace: RolloutTrace, metric: str) -> np.ndarray:
    """Every record's frames as one (steps, rows, width) array."""
    if not trace.records:
        raise ValueError("trace is empty")
    frames = [r.frames for r in trace.records]
    if any(f is None for f in frames):
        raise ValueError(
            f"{metric} needs per-frame values; rerun the rollout with frame "
            "recording enabled"
        )
    return np.stack(frames)


def _series(name: str, trace: RolloutTrace, values: np.ndarray) -> MetricSeries:
    """Pair values[i] with record i's step; step 0's value is 0 by definition."""
    values[0] = 0.0
    return MetricSeries(name, tuple(zip([r.step for r in trace.records],
                                        values.tolist())))


def mean_drift(trace: RolloutTrace) -> MetricSeries:
    """|mean(block i) - mean(block 0)| per step; 0 at step 0 by definition."""
    if not trace.records:
        raise ValueError("trace is empty")
    base = trace.records[0].mean
    values = tuple((r.step, abs(r.mean - base)) for r in trace.records)
    return MetricSeries("mean_drift", values)


def flicker_proxy(trace: RolloutTrace) -> MetricSeries:
    """Mean absolute jump between the last frame of block i-1 and the first
    frame of block i."""
    frames = _stacked_frames(trace, "flicker_proxy")
    jumps = np.empty(len(frames))
    jumps[1:] = np.abs(frames[1:, 0] - frames[:-1, -1]).mean(axis=1)
    return _series("flicker_proxy", trace, jumps)


def repetition_score(trace: RolloutTrace, window: int = 8) -> MetricSeries:
    """Max cosine similarity between block i and the previous `window`
    blocks (1.0 = exact repetition); a block of norm 0 scores 0 against
    every other."""
    if window < 1:
        raise ValueError(f"window must be >= 1 (got {window})")
    flat = _stacked_frames(trace, "repetition_score").reshape(len(trace.records), -1)
    n = len(flat)
    width = max(1, min(window, n - 1))
    # Row i - 1 compares block i with blocks i - width .. i - 1; the columns
    # that would fall before block 0 are left out of the max.
    earlier = np.arange(1, n)[:, None] - width + np.arange(width)
    valid = earlier >= 0
    dots = np.zeros(valid.shape)
    for i in range(1, n):
        # one matrix-vector product per block: einsum or a batched matmul
        # would change the low bits of the scores
        lo = max(0, i - width)
        dots[i - 1, lo - i:] = flat[lo:i] @ flat[i]
    norms = np.linalg.norm(flat, axis=1)
    denom = norms[np.where(valid, earlier, 0)] * norms[1:, None]
    positive = denom > 0
    sims = np.where(positive, dots / np.where(positive, denom, 1.0), 0.0)
    scores = np.empty(n)
    scores[1:] = np.where(valid, sims, -np.inf).max(axis=1)
    return _series("repetition_score", trace, scores)


METRICS = {
    "mean_drift": mean_drift,
    "flicker_proxy": flicker_proxy,
    "repetition_score": repetition_score,
}
