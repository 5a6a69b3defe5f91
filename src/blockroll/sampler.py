"""Few-step denoising sampler.

One autoregressive step conditions the denoiser once on the step's
Context (the (n, frame_dim) frames and ascending (n,) positions the
schedule expands to): condition(context, block_size) returns a state that
lives for this step only. From a pure-noise block, the step alternates
estimate(noisy, t, state, eps) with re-noising to the next-lower level until
sigma(t) = t/1000 reaches zero (t=1000 is pure noise, t=0 clean). A schedule
tables its weights once, and a step forms its re-noising in one product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

T_MAX = 1000.0


@dataclass(frozen=True)
class TimestepSchedule:
    """Strictly decreasing timesteps t_T > ... > t_1 > t_0, with the
    endpoints pinned at t_T = 1000 and t_0 = 0. A read-only table holds per
    level (t, 1 - sigma of the level below) in `levels`, and in `renoise`
    those sigmas but t_0's as an (L - 1, 1, 1) array."""

    steps: tuple[float, ...] = (1000.0, 750.0, 500.0, 250.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if len(self.steps) < 2:
            raise ValueError("need at least two timesteps (t_T and t_0)")
        # `not a > b` rather than `a <= b`, so that a NaN level is refused
        if not all(a > b for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError(f"timesteps must be strictly decreasing: {self.steps}")
        if self.steps[0] != T_MAX or self.steps[-1] != 0.0:
            raise ValueError(
                f"timesteps must start at {T_MAX} and end at 0 (got {self.steps})"
            )
        below = [sigma(t) for t in self.steps[1:]]
        object.__setattr__(self, "levels", tuple(zip(self.steps, [1.0 - s for s in below])))
        object.__setattr__(self, "renoise", np.array(below[:-1]).reshape(-1, 1, 1))
        self.renoise.flags.writeable = False

    @classmethod
    def uniform(cls, count: int) -> "TimestepSchedule":
        """`count` denoising applications at uniformly spaced levels."""
        if count < 1:
            raise ValueError(f"count must be >= 1 (got {count})")
        return cls(tuple(T_MAX * (count - j) / count for j in range(count + 1)))


# NoiseSource derives stream states as numpy's SeedSequence does
# (numpy/random/bit_generator.pyx), in uint32 arrays whose products wrap mod
# 2^32 as its hashes do. A stream's key words are mixed into the seed's 4-word
# pool with the hash constants that follow the 16 hashes of the seed phase,
# whatever the seed (a seed mod 2^64 never fills more than the pool).
_U4 = np.dtype(np.uint32)
_MASK32, _MASK64 = 0xFFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF
_MULT_A = 0x931E8875
_SPAWN_HASH = 0x43B0D7E5 * pow(_MULT_A, 16, 1 << 32) & _MASK32
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Steps per state table: a power of two, so an aligned chunk never straddles a
# multiple of 2^32, and its steps' keys differ only in their lowest word.
_CHUNK = 256


def _hash_run(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**m mod 2^32 for m = 0..count: a hash constant and its
    next `count` advances."""
    run = np.full(count + 1, mult, dtype=_U4)
    run[0] = init
    return np.cumprod(run, dtype=_U4)


# generate_state's (xor, multiply) constant per output word: the hash constant
# before and after its advance for that word. Output word 4h + k reads pool
# entry k, so both are laid out (2, 4, 1), over pool columns of streams.
_STATE_HASH = _hash_run(0x8B51F9DD, 0x58F38DED, 8)
_STATE_XOR, _STATE_MULT = _STATE_HASH[:8].reshape(2, 4, 1), _STATE_HASH[1:].reshape(2, 4, 1)


def _state_words(pool: np.ndarray, words: list) -> np.ndarray:
    """generate_state(4, np.uint64) of the SeedSequences whose spawn-key words
    `words` are mixed into `pool`, the seed's (4, 1) pool: one row per stream.
    A word is an int, shared by every stream, or an (n,) row, one per stream."""
    hashes = _hash_run(_SPAWN_HASH, _MULT_A, 4 * len(words))[:, None]
    for j, word in enumerate(words):  # word j is hashed once for each pool entry
        value = (word ^ hashes[4 * j:4 * j + 4]) * hashes[4 * j + 1:4 * j + 5]
        value ^= value >> 16
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * value
        pool ^= pool >> 16
    out = (pool ^ _STATE_XOR) * _STATE_MULT
    out ^= out >> 16
    # per stream, the 8 words pair up little-endian into 4 uint64, as
    # generate_state's do
    return (np.ascontiguousarray(out.reshape(8, -1).T, dtype="<u4").view("<u8")
            .astype(np.uint64, copy=False))


class _SeedWords:
    """One stream's generate_state(4, np.uint64) words, which PCG64 seeds
    from as it would from the SeedSequence they were derived for. It is
    registered as a numpy ISeedSequence by the first NoiseSource, so that
    importing the package does not import numpy.random."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"holds generate_state(4, uint64), not ({n_words}, {dtype})")
        return self.words


class NoiseSource:
    """Seeded Gaussian stream per step. Identical (seed, step) pairs reproduce
    identical draws in identical order.

    Step i's stream of `seed` is numpy's
    Generator(PCG64(SeedSequence(seed mod 2^64, spawn_key=(i,)))).
    NoiseSource(seed) starts at step 0; `seek(i)` re-seats it at the exact
    state step i's stream starts in, so a caller that needs many steps of
    one seed builds one source and re-seats it.
    """

    def __init__(self, seed: int):
        np.random.bit_generator.ISeedSequence.register(_SeedWords)
        self._pool = np.random.SeedSequence(seed & _MASK64).pool[:, None]
        self._first, self._table = 0, np.empty((0, 4), dtype=np.uint64)  # no chunk yet
        self.seek(0)

    def seek(self, i: int) -> None:
        """Re-seat the source at the start of step i's stream, whose seed words
        it reads from the table of the aligned _CHUNK steps that holds i,
        filled when i falls outside it. A step must be a non-negative integer
        (ValueError, TypeError otherwise), of any size."""
        i = operator.index(i)
        k = i - self._first
        if not 0 <= k < len(self._table):
            if i < 0:
                raise ValueError(f"a step must be non-negative (got {i})")
            # the 32-bit words numpy splits a key into, lowest first: the chunk's
            # lowest words are a row, and its higher words are i's
            k = i % _CHUNK
            low = (i & _MASK32) - k
            words = [np.arange(low, low + _CHUNK, dtype=_U4)]
            words += [i >> shift & _MASK32 for shift in range(32, i.bit_length(), 32)]
            self._first, self._table = i - k, _state_words(self._pool, words)
        self._gen = np.random.Generator(np.random.PCG64(_SeedWords(self._table[k])))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


def sigma(t: float) -> float:
    """Noise level at timestep t (linear interpolation schedule)."""
    if not 0.0 <= t <= T_MAX:
        raise ValueError(f"timestep must lie in [0, {T_MAX}] (got {t})")
    return t / T_MAX


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
    level but the last, the re-noising eps: x becomes (1 - sigma) * x +
    sigma * eps, all sigma * eps from one product with the schedule's
    table, byte for byte the per-level ones. The block is the last level's
    estimate itself: re-noising it to t=0 would weigh its eps by zero.
    """
    state = denoiser.condition(context, block_size)
    levels, d = timesteps.levels, denoiser.draws_per_level
    draws = noise.standard_normal((len(levels) * (1 + d), block_size, context.values.shape[1]))
    renoise = timesteps.renoise * draws[1 + d::1 + d]
    y = draws[0]
    for j, (t, keep) in enumerate(levels[:-1]):
        y = keep * denoiser.estimate(y, t, state, draws[1 + 2 * j] if d else None) + renoise[j]
    return denoiser.estimate(y, levels[-1][0], state, draws[-1] if d else None)
