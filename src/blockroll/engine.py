"""Blockwise autoregressive rollout engine.

Each step builds the policy's conditioning schedule, expands it into one
Context of positioned latent frames gathered from stored block data,
samples the next block through the few-step denoising loop, appends it to
the bounded history, and emits a replayable trace record. Noise for step
i is drawn from the stream (i,) of the seed, which the rollout's one
NoiseSource is re-seated to at the start of the step, so traces depend
only on the config and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .denoisers import Context, DenoiserInterface
from .sampler import NoiseSource, TimestepSchedule, sample_block
# The step never calls frame_expand; the name stays here because the
# benchmark's tracer wraps engine.frame_expand (ROADMAP item 2).
from .schedule import (  # noqa: F401
    Policy, PolicyConfig, Schedule, frame_expand, frame_ranges, schedule_for,
)


class InternalInvariantError(Exception):
    """A schedule referenced history the store no longer holds; unreachable
    unless the retention invariants are broken."""


@dataclass(eq=False)
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
    """Bounded block storage in one preallocated array of frame rows: with
    pinning, the first K blocks, then a ring holding the last K blocks at
    slot block_id mod K; without pinning, the ring alone. Blocks are put in
    id order and held once each, so retention never exceeds 2K blocks (K
    without pinning)."""

    def __init__(self, capacity: int, block_size: int, frame_dim: int,
                 keep_permanent: bool = True):
        self.capacity = capacity
        self.block_size = block_size
        self._ring = capacity if keep_permanent else 0  # first ring slot
        self.frames = np.zeros(((self._ring + capacity) * block_size, frame_dim))
        self.count = 0  # blocks put so far; the next id put must be this

    @property
    def retained(self) -> int:
        """Blocks held. It never falls, so it is also the peak."""
        return min(self.count, self._ring + self.capacity)

    peak_retained = retained

    def row(self, block_id: int) -> int:
        """First row of a retained block in `frames`; KeyError for a block
        not retained, also when its ring slot now holds a newer block."""
        if 0 <= block_id < self.count:
            if block_id < self._ring:
                return block_id * self.block_size
            if block_id >= self.count - self.capacity:
                return (self._ring + block_id % self.capacity) * self.block_size
        raise KeyError(block_id)

    def put(self, block_id: int, block: np.ndarray) -> None:
        if block_id != self.count:
            raise ValueError(f"blocks must be put in id order: expected block "
                             f"{self.count}, got {block_id}")
        self.count += 1
        first = self.row(block_id)
        self.frames[first:first + self.block_size] = block

    def get(self, block_id: int) -> np.ndarray:
        first = self.row(block_id)
        return self.frames[first:first + self.block_size].copy()


@dataclass(eq=False)
class TraceRecord:
    step: int
    schedule: Schedule
    mean: float
    var: float
    frames: np.ndarray | None
    seed: int


@dataclass(eq=False)
class RolloutTrace:
    records: tuple[TraceRecord, ...]
    config: RolloutConfig | None = None

    def __len__(self) -> int:
        return len(self.records)


class Rollout:
    """Single-threaded rollout state machine; one instance per rollout."""

    def __init__(self, cfg: RolloutConfig):
        self.cfg = cfg
        self.store = HistoryStore(
            cfg.policy.K, cfg.policy.block_size, cfg.frame_dim,
            keep_permanent=cfg.policy.policy is not Policy.SLIDING_WINDOW,
        )
        self.step_index = 0
        self.records: list[TraceRecord] = []
        self.noise: NoiseSource | None = None  # one generator, re-seated per step

    def _expand(self, schedule: Schedule) -> Context:
        """Gather the schedule's frames, in frame_ranges' order and at its
        positions, with one row index into the history store."""
        store = self.store
        block_size = store.block_size
        rows, positions = [], []
        for slot in schedule.slots:
            try:
                first = store.row(slot.content_id)
            except KeyError:
                raise InternalInvariantError(
                    f"schedule for step {schedule.step} references block "
                    f"{slot.content_id}, which is absent from the history store"
                ) from None
            slot_rows, slot_positions = frame_ranges(slot, block_size, first)
            rows.extend(slot_rows)
            positions.extend(slot_positions)
        return Context(store.frames.take(rows, axis=0),
                       np.array(positions, dtype=np.int64))

    def step(self) -> np.ndarray:
        """Generate the next block and append its trace record."""
        cfg = self.cfg
        i = self.step_index
        schedule = schedule_for(cfg.policy, i)
        context = self._expand(schedule)
        noise = self.noise
        if noise is None:  # built inside a step, so its cost counts as step time
            noise = self.noise = NoiseSource(cfg.seed)
        noise.seek((i,))
        block = sample_block(
            cfg.denoiser, cfg.timesteps, context, noise,
            shape=(cfg.policy.block_size, cfg.frame_dim),
        )
        self.store.put(i, block)
        # np.mean and np.var of the block, by the reductions they run inside
        n = block.size
        mean = float(np.add.reduce(block, axis=None)) / n
        deviation = block - mean
        self.records.append(
            TraceRecord(
                step=i,
                schedule=schedule,
                mean=mean,
                var=float(np.add.reduce(deviation * deviation, axis=None)) / n,
                frames=block.copy() if cfg.record_frames else None,
                seed=cfg.seed,
            )
        )
        self.step_index += 1
        return block

    def trace(self) -> RolloutTrace:
        return RolloutTrace(records=tuple(self.records), config=self.cfg)


def run(cfg: RolloutConfig) -> RolloutTrace:
    """Execute cfg.horizon steps and return the complete trace."""
    rollout = Rollout(cfg)
    for _ in range(cfg.horizon):
        rollout.step()
    return rollout.trace()
