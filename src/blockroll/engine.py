"""Blockwise autoregressive rollout engine.

Each step builds the policy's conditioning schedule, expands it into one
Context of positioned latent frames gathered from stored block data,
samples the next block through the few-step denoising loop, appends it to
the bounded history, and emits a replayable trace record. Noise for step
i is drawn from a per-step stream derived from (seed, i), so traces
depend only on the config and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .denoisers import Context, DenoiserInterface
from .sampler import NoiseSource, TimestepSchedule, sample_block
from .schedule import Policy, PolicyConfig, Schedule, frame_expand, schedule_for


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
    """Bounded block storage: the first K blocks are pinned for sink-bearing
    policies, plus a ring of the last K blocks. Retention never exceeds 2K
    block slots (K when the pinned prefix is disabled)."""

    def __init__(self, capacity: int, keep_permanent: bool = True):
        self.capacity = capacity
        self.keep_permanent = keep_permanent
        self.permanent: list[np.ndarray] = []
        self.recent: dict[int, np.ndarray] = {}
        self.peak_retained = 0

    @property
    def retained(self) -> int:
        return len(self.permanent) + len(self.recent)

    def put(self, block_id: int, block: np.ndarray) -> None:
        if self.keep_permanent and block_id < self.capacity:
            self.permanent.append(block)
        self.recent[block_id] = block
        if len(self.recent) > self.capacity:
            del self.recent[next(iter(self.recent))]
        self.peak_retained = max(self.peak_retained, self.retained)

    def get(self, block_id: int) -> np.ndarray:
        if block_id in self.recent:
            return self.recent[block_id]
        if self.keep_permanent and 0 <= block_id < len(self.permanent):
            return self.permanent[block_id]
        raise KeyError(block_id)


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
            cfg.policy.K,
            keep_permanent=cfg.policy.policy is not Policy.SLIDING_WINDOW,
        )
        self.step_index = 0
        self.records: list[TraceRecord] = []

    def _expand(self, schedule: Schedule) -> Context:
        """Gather the schedule's frames, in frame_expand's order and at its
        positions, with one concatenate and one row index."""
        block_size = self.cfg.policy.block_size
        if not schedule.slots:
            return Context(np.zeros((0, self.cfg.frame_dim)), np.zeros(0, np.int64))
        blocks, rows, positions = [], [], []
        for rank, slot in enumerate(schedule.slots):
            try:
                blocks.append(self.store.get(slot.content_id))
            except KeyError:
                raise InternalInvariantError(
                    f"schedule for step {schedule.step} references block "
                    f"{slot.content_id}, which is absent from the history store"
                ) from None
            # frame content_frame sits at this row of the concatenated blocks
            first_row = block_size * (rank - slot.content_id)
            for content_frame, position in frame_expand(slot, block_size):
                rows.append(first_row + content_frame)
                positions.append(position)
        return Context(np.concatenate(blocks)[rows], np.array(positions))

    def step(self) -> np.ndarray:
        """Generate the next block and append its trace record."""
        cfg = self.cfg
        i = self.step_index
        schedule = schedule_for(cfg.policy, i)
        context = self._expand(schedule)
        noise = NoiseSource(cfg.seed, stream=(i,))
        block = sample_block(
            cfg.denoiser, cfg.timesteps, context, noise,
            shape=(cfg.policy.block_size, cfg.frame_dim),
        )
        self.store.put(i, block)
        self.records.append(
            TraceRecord(
                step=i,
                schedule=schedule,
                mean=float(block.mean()),
                var=float(block.var()),
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
