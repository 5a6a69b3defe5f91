"""The reference kernel that puts every end-to-end timing on one host speed.

On a shared host, neighbours slow the whole machine by 1.2-2.5x for seconds to
minutes at a time (README.md, "Noise"), so a raw time says as much about the
host as about blockroll. The benchmark therefore runs this fixed kernel, which
shares no code with blockroll, next to every timed unit and every set-up
child, and reports each time t as

    t * NOMINAL_S / k

where k is the kernel's time measured alongside t. NOMINAL_S defines the
reference host: one on which the kernel takes exactly NOMINAL_S. A change to
blockroll moves t and not k, so it shows in full; a slower host moves both.

The kernel mixes what a block step does: small-array numpy arithmetic, a
random draw, reductions, Python calls and list and dict traffic. It imports
numpy only, so child.py can run it after timing blockroll's import.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

NOMINAL_S = 1e-3
# Kernel timings per calibration point; the point is their median, so a
# preemption that lands in one of them does not move it.
REPS = 5

_ROUNDS = 40
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((18, 4))
_W = _rng.standard_normal((4, 4)) * 0.5


def _step(a: np.ndarray, seed: int, seen: dict) -> float:
    noise = np.random.default_rng(seed).standard_normal((3, 4))
    x = np.tanh(a @ _W) + 0.1 * a
    scores = x @ x[-3:].T
    scores -= scores.max(axis=0)
    weights = np.exp(scores)
    weights /= weights.sum(axis=0)
    out = weights.T @ x + noise
    seen[seed % 7] = [out, seed]
    return float(out.mean())


def kernel() -> float:
    """Seconds for one run of the fixed kernel."""
    seen: dict = {}
    t0 = perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        acc += _step(_A, i, seen)
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return perf_counter() - t0


def point(reps: int = REPS) -> list[float]:
    """`reps` kernel timings taken back to back."""
    return [kernel() for _ in range(reps)]


def scale(*points: list[float]) -> float:
    """NOMINAL_S over the median kernel time of `points`: the factor that
    puts a time measured between them on the reference host."""
    return NOMINAL_S / median(t for p in points for t in p)
