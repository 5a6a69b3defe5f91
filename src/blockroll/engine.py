"""Blockwise autoregressive rollout engine.

Each step builds the policy's conditioning schedule, expands it into one
Context of positioned latent frames gathered from stored block data,
samples the next block through the few-step denoising loop, appends it to
the bounded history, and emits a replayable trace record. Noise for step
i is drawn from the stream (i,) of the seed, which the rollout's one
NoiseSource is re-seated to at the start of the step, so traces depend
only on the config and seed.

The store mirrors its ring, so a step's recent blocks are one slice of its
rows: the whole context in a fill step (i <= K) and under the sliding window.
Otherwise S sink blocks come first, a window of the rollout's sink strip,
copied at step K+1 by the policy's gather plan, O(K) and shared by its rollouts.

Every policy schedules the fill steps 0..K alike, so `blockroll sweep` runs
them once per seed and forks that rollout into each longer cell's policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import isfinite

import numpy as np

from .denoisers import Context, DenoiserInterface
from .sampler import NoiseSource, TimestepSchedule, sample_block
# The step never calls frame_expand; the name stays here because the
# benchmark's tracer wraps engine.frame_expand (ROADMAP item 3).
from .schedule import (  # noqa: F401
    Orientation, Policy, PolicyConfig, Schedule, frame_expand, roll_slot, schedule_for,
)


class InternalInvariantError(Exception):
    """A schedule referenced history the store no longer holds; unreachable
    unless the retention invariants are broken."""


class NonFiniteBlockError(ValueError):
    """A step's block went to inf or NaN; the rollout stops at that step."""


@dataclass(frozen=True, eq=False)
class RolloutConfig:
    policy: PolicyConfig
    denoiser: DenoiserInterface
    horizon: int
    seed: int = 0
    frame_dim: int = 4
    timesteps: TimestepSchedule = field(default_factory=TimestepSchedule)
    record_frames: bool = True

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1 (got {self.horizon})")
        if self.frame_dim < 1:
            raise ValueError(f"frame_dim must be >= 1 (got {self.frame_dim})")


class HistoryStore:
    """Bounded block storage in one preallocated array of frame rows: the
    first K blocks pinned, then a ring holding the last K blocks at slot
    block_id mod K and again K slots later; the sliding window pins nothing. So
    any <= K consecutive held blocks are one slice from first_row of the first.
    Blocks are put in id order; at most 2K (K unpinned) are held."""

    def __init__(self, policy: PolicyConfig, frame_dim: int):
        self.capacity = K = policy.K
        self.block_size = bs = policy.block_size
        self._ring = 0 if policy.policy is Policy.SLIDING_WINDOW else K  # first ring slot
        self.frames = np.zeros(((self._ring + 2 * K) * bs, frame_dim))
        self._rings = self.frames[self._ring * bs:].reshape(2, K * bs, frame_dim)  # ring, mirror
        self.count = 0  # blocks put so far; the next id put must be this

    @property
    def peak_retained(self) -> int:
        """Blocks held. It never falls, so it is also the peak."""
        return min(self.count, self._ring + self.capacity)

    def holds(self, block_id, count):
        """Whether a block is held once `count` blocks are put; either may be an array."""
        return (0 <= block_id) & (block_id < count) & (
            (block_id < self._ring) | (count - self.capacity <= block_id))

    def first_row(self, block_id):
        """The row in `frames` of a block's first frame; ids may be an array."""
        return (block_id % self.capacity + self._ring * (block_id >= self._ring)) * self.block_size

    def put(self, block_id: int, block: np.ndarray) -> None:
        if block_id != self.count:
            raise ValueError(f"blocks must be put in id order: expected block "
                             f"{self.count}, got {block_id}")
        self.count += 1
        bs = self.block_size
        if block_id < self._ring:  # pinned
            self.frames[block_id * bs:(block_id + 1) * bs] = block
        else:  # at its ring slot and K slots later
            first = block_id % self.capacity * bs
            self._rings[:, first:first + bs] = block

    def get(self, block_id: int) -> np.ndarray:
        """A copy of a held block's frames; KeyError for a block not held,
        also when its ring slot now holds a newer block."""
        if not self.holds(block_id, self.count):
            raise KeyError(block_id)
        first = self.first_row(block_id)
        return self.frames[first:first + self.block_size].copy()


@dataclass(eq=False)
class TraceRecord:
    step: int
    schedule: Schedule
    mean: float
    var: float
    frames: np.ndarray | None
    seed: int


@lru_cache(maxsize=3)  # one plan for equal policies; a sweep runs three per S
def gather_plan(policy: PolicyConfig) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """A sink policy's sink strip rows, their move per step, base and shift,
    read-only: step i past the fill reads S*block_size strip rows from
    ((i - K - 1) mod 2K) * move, at positions base + i * shift. The strip is
    the walk's slots l = 1..2K+S-1 under rolling-sink, moving a slot a step,
    else step K+1's sinks. A sink block the store would not hold at every
    step that reads it raises InternalInvariantError."""
    K, bs = policy.K, policy.block_size
    s = 0 if policy.policy is Policy.SLIDING_WINDOW else policy.S
    rolling = policy.policy is Policy.ROLLING_SINK
    period = 2 * K if rolling else K
    store = HistoryStore(policy, 0)  # the layout only
    now, later = schedule_for(policy, K + 1), schedule_for(policy, K + 2)
    sinks = [roll_slot(policy, l) for l in range(1, 2 * K + s)] if rolling else now.slots[:s]
    content = np.array([slot.content_id for slot in sinks], dtype=np.intp)
    first = K + 1 + np.maximum(0, np.arange(len(sinks)) - s + 1)  # the step first reading it
    held = store.holds(content, first + [[0], [period]]).all(axis=0)  # so pinned
    if not held.all():
        m = held.argmin()
        raise InternalInvariantError(f"schedule for step {first[m]} references block "
                                     f"{content[m]}, which is absent from the history store")
    frames = np.arange(bs)  # a reversed slot's rows run down from its block's last
    back = np.array([slot.orientation is Orientation.REVERSED for slot in sinks], dtype=bool)
    rows = np.where(back[:, None], frames[::-1], frames) + store.first_row(content)[:, None]
    start, end = (np.add.outer([slot.assigned_index * bs for slot in schedule.slots],
                               frames).ravel() for schedule in (now, later))
    shift = end - start
    base = start - (K + 1) * shift
    for array in (rows, base, shift):
        array.flags.writeable = False
    return rows.ravel(), bs if rolling else 0, base, shift  # ravel: a read-only view


class Rollout:
    """Single-threaded rollout state machine; one instance per rollout."""

    def __init__(self, cfg: RolloutConfig):
        self.cfg = cfg
        self.store = HistoryStore(cfg.policy, cfg.frame_dim)
        self.step_index = 0
        self.records: list[TraceRecord] = []
        self.noise: NoiseSource | None = None  # one source, re-seated per step
        self.sink_slots = 0 if cfg.policy.policy is Policy.SLIDING_WINDOW else cfg.policy.S
        self.sinks: tuple | None = None  # the sink strip's frames, move, base, shift

    def fork(self, policy: PolicyConfig) -> Rollout:
        """A rollout of `policy` continuing from copies of this one's store and
        records, sharing its NoiseSource (every step re-seats it) and keeping its
        horizon, which no step reads. ValueError past the fill or across layouts."""
        fork = Rollout(replace(self.cfg, policy=policy))
        store, ours = fork.store, self.store
        if self.step_index > ours.capacity + 1:
            raise ValueError(f"a rollout forks within its fill steps 0..{ours.capacity}, "
                             f"and this one has run {self.step_index} steps")
        if (store.capacity, store.block_size, store._ring) != (
                ours.capacity, ours.block_size, ours._ring):
            raise ValueError(f"the store of {policy.policy.value} is not laid out as "
                             f"the store of {self.cfg.policy.policy.value}")
        store.frames[...], store.count = ours.frames, ours.count
        fork.step_index, fork.records = self.step_index, self.records.copy()
        fork.noise = self.noise
        return fork

    def _expand(self, i: int) -> Context:
        """Step i's frames and positions: s sink blocks from the sink strip (none
        in a fill step, i <= K), then blocks max(0, i-K)+s..i-1, one store slice."""
        store = self.store
        if store.count != i:  # the rows hold step i's blocks only then
            raise InternalInvariantError(
                f"history store holds {store.count} blocks at step {i}, so the "
                f"blocks its schedule references are absent from the history store"
            )
        K, bs = store.capacity, store.block_size
        s = self.sink_slots if i > K else 0
        lo = max(0, i - K) + s
        first = store.first_row(lo)
        recent = store.frames[first:first + (i - lo) * bs]
        if not s:  # the whole context, at native positions
            return Context.unchecked(recent.copy(), np.arange(lo * bs, i * bs))
        if self.sinks is None:  # copied inside a step, so its cost counts as step time
            rows, move, base, shift = gather_plan(self.cfg.policy)
            self.sinks = store.frames.take(rows, axis=0), move, base, shift  # pinned rows
        strip, move, base, shift = self.sinks
        w = (i - K - 1) % (2 * K) * move
        # float64 (n, frame_dim) rows and ascending positions by construction
        return Context.unchecked(np.concatenate((strip[w:w + s * bs], recent)), base + i * shift)

    def step(self) -> np.ndarray:
        """Generate the next block and append its trace record. A block whose
        mean or var is inf or NaN raises NonFiniteBlockError and is neither
        stored nor recorded, so the rollout stays at that step."""
        cfg = self.cfg
        i = self.step_index
        schedule = schedule_for(cfg.policy, i)
        context = self._expand(i)
        noise = self.noise
        if noise is None:  # set up inside a step, so its cost counts as step time
            noise = self.noise = NoiseSource(cfg.seed)
        noise.seek((i,))
        block = sample_block(cfg.denoiser, cfg.timesteps, context, noise, cfg.policy.block_size)
        # np.mean and np.var of the block, by the reductions they run inside
        n = block.size
        mean = float(np.add.reduce(block, axis=None)) / n
        deviation = block - mean
        var = float(np.add.reduce(deviation * deviation, axis=None)) / n
        if not (isfinite(mean) and isfinite(var)):
            raise NonFiniteBlockError(f"trace record for step {i} holds inf or NaN, "
                                      "so the rollout stops at that step")
        self.store.put(i, block)
        self.records.append(TraceRecord(
            step=i, schedule=schedule, mean=mean, var=var,
            frames=block.copy() if cfg.record_frames else None, seed=cfg.seed))
        self.step_index += 1
        return block

    def trace(self) -> tuple[TraceRecord, ...]:
        return tuple(self.records)


def run(cfg: RolloutConfig) -> tuple[TraceRecord, ...]:
    """Execute cfg.horizon steps and return the trace, one record per step."""
    rollout = Rollout(cfg)
    for _ in range(cfg.horizon):
        rollout.step()
    return rollout.trace()
