"""Few-step denoising sampler.

One autoregressive step conditions the denoiser once on the step's
Context (the (n, frame_dim) frames and ascending (n,) positions the
schedule expands to): condition(context, block_size) returns a state that
lives for this step only. The step then draws a pure-noise block and
alternates estimate(noisy, t, state, rng) with forward re-noising at the
next-lower level until the noise level reaches zero. The noise level is
linear in the timestep, sigma(t) = t/1000, so t=1000 is pure noise and
t=0 is clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

T_MAX = 1000.0


@dataclass(frozen=True)
class TimestepSchedule:
    """Strictly decreasing timesteps t_T > ... > t_1 > t_0, with the
    endpoints pinned at t_T = 1000 and t_0 = 0."""

    steps: tuple[float, ...] = (1000.0, 750.0, 500.0, 250.0, 0.0)

    def __post_init__(self) -> None:
        if len(self.steps) < 2:
            raise ValueError("need at least two timesteps (t_T and t_0)")
        if any(a <= b for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError(f"timesteps must be strictly decreasing: {self.steps}")
        if self.steps[0] != T_MAX or self.steps[-1] != 0.0:
            raise ValueError(
                f"timesteps must start at {T_MAX} and end at 0 (got {self.steps})"
            )

    @classmethod
    def uniform(cls, count: int = 4) -> "TimestepSchedule":
        """`count` denoising applications at uniformly spaced levels."""
        if count < 1:
            raise ValueError(f"count must be >= 1 (got {count})")
        return cls(tuple(T_MAX * (count - j) / count for j in range(count + 1)))

    @property
    def count(self) -> int:
        return len(self.steps) - 1


class NoiseSource:
    """Seeded Gaussian stream. Identical (seed, stream) pairs reproduce
    identical draws in identical order."""

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = seed
        self.stream = stream
        entropy = seed & 0xFFFF_FFFF_FFFF_FFFF
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=stream))
        )

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


def sigma(t: float) -> float:
    """Noise level at timestep t (linear interpolation schedule)."""
    if not 0.0 <= t <= T_MAX:
        raise ValueError(f"timestep must lie in [0, {T_MAX}] (got {t})")
    return t / T_MAX


def forward_noise(x_hat: np.ndarray, eps: np.ndarray, t: float) -> np.ndarray:
    """Re-noise a clean estimate to level sigma(t): (1-s)*x_hat + s*eps."""
    s = sigma(t)
    return (1.0 - s) * x_hat + s * eps


def sample_block(denoiser, timesteps: TimestepSchedule, context, noise: NoiseSource,
                 shape: tuple[int, int]) -> np.ndarray:
    """Run the full denoising loop for one block.

    `denoiser` must satisfy denoisers.DenoiserInterface; `context` is the
    step's expanded conditioning schedule, a denoisers.Context that is
    empty for the first block. The denoiser conditions on it once, with
    condition(context, block_size), and every level then calls
    estimate(noisy, t, state, rng) with that state. A fresh eps is drawn
    at every re-noising step, including the final one at t=0 where it is
    weighted by zero.
    """
    state = denoiser.condition(context, shape[0])
    y = noise.standard_normal(shape)
    ts = timesteps.steps
    for j in range(len(ts) - 1):
        x_hat = denoiser.estimate(y, ts[j], state, rng=noise)
        eps = noise.standard_normal(shape)
        y = forward_noise(x_hat, eps, ts[j + 1])
    return y
