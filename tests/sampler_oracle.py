"""sample_block as it was written when every level re-noised its estimate
through forward_noise, for tests only.

`sample_block(denoiser, timesteps, context, noise, block_size)` draws the
step's noise in one call and hands it out in the same order as the
package's sampler, then runs the per-level loop: estimate, and for every
level but the last, forward_noise to the next-lower level, which derives
sigma(t) and forms (1 - s) * x_hat + s * eps on its own. The package's
sampler must give the same bytes.
"""

from __future__ import annotations

import numpy as np

from blockroll.sampler import sigma


def forward_noise(x_hat: np.ndarray, eps: np.ndarray, t: float) -> np.ndarray:
    """Re-noise a clean estimate to level sigma(t): (1-s)*x_hat + s*eps."""
    s = sigma(t)
    return (1.0 - s) * x_hat + s * eps


def sample_block(denoiser, timesteps, context, noise, block_size: int) -> np.ndarray:
    state = denoiser.condition(context, block_size)
    ts = timesteps.steps
    levels, d = len(ts) - 1, denoiser.draws_per_level
    draws = noise.standard_normal((levels * (1 + d), block_size, context.values.shape[1]))
    y = draws[0]
    for j in range(levels - 1):
        k = 1 + j * (1 + d)
        x_hat = denoiser.estimate(y, ts[j], state, draws[k] if d else None)
        y = forward_noise(x_hat, draws[k + d], ts[j + 1])
    return denoiser.estimate(y, ts[-2], state, draws[-1] if d else None)
