"""Block-by-block references for the frame metrics, shared by the metric
tests: metrics.py computes the same series as whole-array expressions and
must match these repr for repr."""

from __future__ import annotations

import numpy as np

from blockroll.engine import RolloutTrace


def oracle_flicker_proxy(trace: RolloutTrace) -> list[tuple[int, float]]:
    frames = [r.frames for r in trace.records]
    values = [(trace.records[0].step, 0.0)]
    for i in range(1, len(frames)):
        jump = float(np.abs(frames[i][0] - frames[i - 1][-1]).mean())
        values.append((trace.records[i].step, jump))
    return values


def oracle_repetition_score(trace: RolloutTrace, window: int) -> list[tuple[int, float]]:
    flat = np.stack([r.frames.ravel() for r in trace.records])
    norms = np.linalg.norm(flat, axis=1)
    values = [(trace.records[0].step, 0.0)]
    for i in range(1, len(flat)):
        lo = max(0, i - window)
        dots = flat[lo:i] @ flat[i]
        denom = norms[lo:i] * norms[i]
        sims = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
        values.append((trace.records[i].step, float(sims.max())))
    return values
