"""Workload inputs, generated from the workload seed.

This module imports nothing from blockroll (nor numpy), so a child process
can build a workload's config first and then time the package's import,
config parse and denoiser construction on their own.

Every workload uses the README geometry: K=6, block_size=3, frame_dim=4,
T=4 uniform timesteps, palindrome roll convention, frames recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Blocks per rollout of one workload unit at scale 1. Sized so that a unit
# took 0.2-0.3 s on a 2-CPU x86 host when this benchmark was written: about a
# hundred units fit into a 30-s run, enough for a steady median wall time,
# and each unit gets its own host-speed calibration; a stream unit is still long
# against the K=6 cache, so per-step cost, not per-rollout setup, dominates.
HORIZONS = {
    "stream-attention": 250,
    "stream-analytic": 1000,
    "sweep-drift": 24,
}
WORKLOADS = tuple(HORIZONS)

SWEEP_RATIOS = "0,17,33,50,67,83"
SWEEP_SEEDS = 4

_GEOMETRY = (
    "K = 6",
    "block_size = 3",
    "frame_dim = 4",
    "T = 4",
    "convention = palindrome",
    "record_frames = true",
)


@dataclass(frozen=True)
class Spec:
    """One workload unit: the config document the program receives and the
    number of blocks each rollout generates."""

    workload: str
    seed: int
    config_text: str
    horizon: int


def make_spec(workload: str, seed: int, scale: float = 1.0) -> Spec:
    """Build the unit for `workload` from the workload seed. `scale` shrinks
    the horizon for the smoke test; the benchmark always runs at 1."""
    if workload not in HORIZONS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    horizon = max(10, round(HORIZONS[workload] * scale))
    lines = list(_GEOMETRY) + [f"seed = {rng.getrandbits(32)}", f"horizon = {horizon}"]
    if workload == "stream-attention":
        # Default weights (weight_seed 0). About half of the other weight seeds
        # overflow to inf/NaN within 1000 blocks (see README.md), which would
        # measure non-finite arithmetic, not the engine.
        lines += ["denoiser = tiny-attention", "policy = rolling-sink", "S = 5"]
    elif workload == "stream-analytic":
        lines += ["denoiser = analytic-gaussian", "rho = 0.9",
                  "policy = sliding-window", "S = 0"]
    else:
        # The sweep overrides policy and S per cell; these only make the base
        # config valid on its own.
        lines += ["denoiser = context-mean", "bias = 0.05", "innovation_scale = 0.1",
                  "policy = rolling-sink", "S = 5"]
    return Spec(workload, seed, "\n".join(lines) + "\n", horizon)
