"""Block-by-block references for the frame metrics, shared by the metric
tests: metrics.py computes the same series as whole-array expressions and
must match these repr for repr, one value per record."""

from __future__ import annotations

import numpy as np

from blockroll.engine import TraceRecord


def oracle_flicker_proxy(records: tuple[TraceRecord, ...]) -> list[float]:
    frames = [r.frames for r in records]
    values = [0.0]
    for i in range(1, len(frames)):
        values.append(float(np.abs(frames[i][0] - frames[i - 1][-1]).mean()))
    return values


def oracle_repetition_score(records: tuple[TraceRecord, ...], window: int) -> list[float]:
    flat = np.stack([r.frames.ravel() for r in records])
    norms = np.linalg.norm(flat, axis=1)
    values = [0.0]
    for i in range(1, len(flat)):
        lo = max(0, i - window)
        dots = flat[lo:i] @ flat[i]
        denom = norms[lo:i] * norms[i]
        sims = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
        values.append(float(sims.max()))
    return values
