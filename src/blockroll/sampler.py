"""Few-step denoising sampler.

One autoregressive step conditions the denoiser once on the step's
Context (the (n, frame_dim) frames and ascending (n,) positions the
schedule expands to): condition(context, block_size) returns a state that
lives for this step only. The step then starts from a pure-noise block and
alternates estimate(noisy, t, state, eps) with forward re-noising at the
next-lower level until the noise level reaches zero. The noise level is
linear in the timestep, sigma(t) = t/1000, so t=1000 is pure noise and
t=0 is clean.
"""

from __future__ import annotations

import operator
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
        # `not a > b` rather than `a <= b`, so that a NaN level is refused
        if not all(a > b for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError(f"timesteps must be strictly decreasing: {self.steps}")
        if self.steps[0] != T_MAX or self.steps[-1] != 0.0:
            raise ValueError(
                f"timesteps must start at {T_MAX} and end at 0 (got {self.steps})"
            )

    @classmethod
    def uniform(cls, count: int) -> "TimestepSchedule":
        """`count` denoising applications at uniformly spaced levels."""
        if count < 1:
            raise ValueError(f"count must be >= 1 (got {count})")
        return cls(tuple(T_MAX * (count - j) / count for j in range(count + 1)))


# numpy's SeedSequence hash and mix constants and PCG64's 128-bit LCG
# multiplier (numpy/random/bit_generator.pyx, pcg64.h), for NoiseSource.seek.
_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1
_MULT_A = 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The hash constant once the seed words are mixed into the 4-word pool: the
# initial 0x43B0D7E5 advanced by the 16 hashes of that phase, whatever the
# seed (a seed mod 2^64 never fills more than the pool).
_SPAWN_HASH = 0x43B0D7E5 * pow(_MULT_A, 16, 1 << 32) & _MASK32
# generate_state's (xor, multiply) constant per output word: the hash
# constant 0x8B51F9DD before and after its k-th advance by 0x58F38DED.
_STATE_HASH = tuple(
    (0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32,
     0x8B51F9DD * pow(0x58F38DED, k + 1, 1 << 32) & _MASK32)
    for k in range(8)
)


class NoiseSource:
    """Seeded Gaussian stream. Identical (seed, stream) pairs reproduce
    identical draws in identical order.

    Stream `stream` of `seed` is numpy's
    Generator(PCG64(SeedSequence(seed mod 2^64, spawn_key=stream))).
    NoiseSource(seed) starts at stream (); `seek(stream)` moves its one
    generator to the exact state that stream starts in, so a caller that
    needs many streams of one seed builds one source and re-seats it.
    """

    def __init__(self, seed: int):
        seq = np.random.SeedSequence(seed & _MASK64)
        self._pool = tuple(int(word) for word in seq.pool)
        self._bitgen = np.random.PCG64(seq)
        self._gen = np.random.Generator(self._bitgen)

    def seek(self, stream: tuple[int, ...]) -> None:
        """Re-seat the generator at the start of stream `stream`, as numpy
        derives it: the keys' 32-bit words are mixed into the seed's pool,
        which is hashed into four 64-bit words that seed PCG64. Keys must
        be non-negative integers (ValueError, TypeError otherwise), of any
        size."""
        words = []
        for key in stream:
            key = operator.index(key)
            if key < 0:
                raise ValueError("expected non-negative integer")
            while True:
                words.append(key & _MASK32)
                key >>= 32
                if not key:
                    break
        pool = self._pool
        h = _SPAWN_HASH
        for word in words:
            mixed_pool = []
            for entry in pool:
                value = word ^ h
                h = h * _MULT_A & _MASK32
                value = value * h & _MASK32
                value ^= value >> 16
                mixed = (_MIX_MULT_L * entry - _MIX_MULT_R * value) & _MASK32
                mixed_pool.append(mixed ^ mixed >> 16)
            pool = mixed_pool
        out = []
        for k, (xor, mult) in enumerate(_STATE_HASH):
            value = (pool[k & 3] ^ xor) * mult & _MASK32
            out.append(value ^ value >> 16)
        # the four 64-bit words are (out[1]:out[0]), ... little-endian; PCG64
        # takes the first two as the 128-bit seed, the last two as the stream
        initstate = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
        inc = (out[5] << 97 | out[4] << 65 | out[7] << 33 | out[6] << 1 | 1) & _MASK128
        self._bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + initstate) * _PCG_MULT + inc) & _MASK128,
                      "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }

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
                 block_size: int) -> np.ndarray:
    """Run the full denoising loop for one (block_size, frame_dim) block.

    `denoiser` must satisfy denoisers.DenoiserInterface; `context` is the
    step's expanded conditioning schedule, a denoisers.Context that is
    empty for the first block, and its width is the block's frame_dim. The
    denoiser conditions on it once, with condition(context, block_size),
    and every level then calls estimate(noisy, t, state, eps) with that state.

    The block's noise is one draw of L*(1 + d) blocks, L the number of
    levels and d the denoiser's draws_per_level (0 or 1). It is handed out
    in the order separate draws would take it: the pure-noise block first,
    then per level the estimate's eps (None when d is 0) and, for every
    level but the last, the re-noising eps. The block is the last level's
    estimate itself: re-noising it to t=0 would weigh its eps by zero.
    """
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
