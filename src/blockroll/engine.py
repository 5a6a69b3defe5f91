"""Blockwise autoregressive rollout engine.

Each step builds the policy's conditioning schedule, expands it into one
Context of positioned latent frames gathered from stored block data,
samples the next block through the few-step denoising loop, appends it to
the bounded history, and emits a replayable trace record. Noise for step
i is drawn from the stream (i,) of the seed, which the rollout's one
NoiseSource is re-seated to at the start of the step, so traces depend
only on the config and seed.

A step's store rows and positions depend only on the policy and i, so the
rollouts of a policy share one GatherPlan: an entry per step i < 2K, then
per phase 2K + i mod 2K (recent block b sits in ring slot b mod K, and the
rolling walk has period 2K), so at most 4K entries of K*block_size rows.
A rollout fetches it in its first step and builds the entries it will read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite

import numpy as np

from .denoisers import Context, DenoiserInterface
from .sampler import NoiseSource, TimestepSchedule, sample_block
# Plans use schedules.schedule_for; engine.schedule_for is the step's traced call.
from . import schedule as schedules
# The step never calls frame_expand; the name stays here because the
# benchmark's tracer wraps engine.frame_expand (ROADMAP item 2).
from .schedule import (  # noqa: F401
    Policy, PolicyConfig, Schedule, frame_expand, frame_ranges, schedule_for,
)


class InternalInvariantError(Exception):
    """A schedule referenced history the store no longer holds; unreachable
    unless the retention invariants are broken."""


class NonFiniteBlockError(ValueError):
    """A step's block went to inf or NaN; the rollout stops at that step."""


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

    @classmethod
    def for_policy(cls, policy: PolicyConfig, frame_dim: int) -> HistoryStore:
        """The store of a rollout under `policy`: the sliding window pins nothing."""
        return cls(policy.K, policy.block_size, frame_dim,
                   keep_permanent=policy.policy is not Policy.SLIDING_WINDOW)

    @property
    def peak_retained(self) -> int:
        """Blocks held. It never falls, so it is also the peak."""
        return min(self.count, self._ring + self.capacity)

    def row(self, block_id: int) -> int:
        """First row of a retained block in `frames`; KeyError for a block
        not retained, also when its ring slot now holds a newer block."""
        if (not 0 <= block_id < self.count
                or self._ring <= block_id < self.count - self.capacity):
            raise KeyError(block_id)
        return self._first_row(block_id)

    def _first_row(self, block_id: int) -> int:
        slot = block_id if block_id < self._ring else self._ring + block_id % self.capacity
        return slot * self.block_size

    def put(self, block_id: int, block: np.ndarray) -> None:
        if block_id != self.count:
            raise ValueError(f"blocks must be put in id order: expected block "
                             f"{self.count}, got {block_id}")
        self.count += 1
        first = self._first_row(block_id)
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


class GatherPlan(dict):
    """Per key, step i for i < 2K and 2K + i mod 2K from then on: the store
    rows the step gathers and its positions as base + i * shift, read-only,
    built on first read from the key's own step and the store's rows there."""

    def __init__(self, policy: PolicyConfig):
        self.policy = policy
        self._store = HistoryStore.for_policy(policy, 0)  # row arithmetic only
        self._held: dict[bytes, np.ndarray] = {}  # equal arrays, held once

    def __missing__(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        policy, store = self.policy, self._store
        store.count = i  # step i reads the store after i puts
        rows, at = [], []
        for slot in schedules.schedule_for(policy, i).slots:
            try:
                first = store.row(slot.content_id)
            except KeyError:
                raise InternalInvariantError(f"schedule for step {i} references block "
                                             f"{slot.content_id}, which is absent from "
                                             "the history store") from None
            frames, positions = frame_ranges(slot, policy.block_size, first)
            rows.extend(frames)
            at.extend(positions)
        # a frame slides with i if its slot's index is >= i - K: from step 2K on,
        # every frame but those of attention-sink's pinned sinks
        at = np.array(at, dtype=np.intp)
        shift = np.where(at >= (i - policy.K) * policy.block_size, policy.block_size, 0)
        entry = self[i] = tuple(map(self._frozen, (rows, at - i * shift, shift)))
        return entry

    def _frozen(self, values: list[int] | np.ndarray) -> np.ndarray:
        data = np.array(values, dtype=np.intp).tobytes()
        return self._held.setdefault(data, np.frombuffer(data, dtype=np.intp))


# One plan for equal policies; blockroll sweep runs three policies in turn per S.
gather_plan = lru_cache(maxsize=3)(GatherPlan)


class Rollout:
    """Single-threaded rollout state machine; one instance per rollout."""

    def __init__(self, cfg: RolloutConfig):
        self.cfg = cfg
        self.store = HistoryStore.for_policy(cfg.policy, cfg.frame_dim)
        self.step_index = 0
        self.records: list[TraceRecord] = []
        self.noise: NoiseSource | None = None  # one generator, re-seated per step
        self.plan: GatherPlan | None = None  # the policy's, fetched with the noise

    def _expand(self, i: int) -> Context:
        """Step i's frames and positions, by one lookup in the plan."""
        store = self.store
        if store.count != i:  # the plan's rows hold step i's blocks only then
            raise InternalInvariantError(
                f"history store holds {store.count} blocks at step {i}, so the "
                f"blocks its schedule references are absent from the history store"
            )
        period = 2 * store.capacity
        rows, base, shift = self.plan[i if i < period else period + i % period]
        # float64 (n, frame_dim) rows and ascending positions by construction
        return Context.unchecked(store.frames.take(rows, axis=0), base + i * shift)

    def step(self) -> np.ndarray:
        """Generate the next block and append its trace record. A block whose
        mean or var is inf or NaN raises NonFiniteBlockError and is neither
        stored nor recorded, so the rollout stays at that step."""
        cfg = self.cfg
        i = self.step_index
        schedule = schedule_for(cfg.policy, i)
        noise = self.noise
        if noise is None:  # set up inside a step, so their cost counts as step time
            noise = self.noise = NoiseSource(cfg.seed)
            self.plan = gather_plan(cfg.policy)
            for key in range(min(4 * cfg.policy.K, cfg.horizon)):  # every key it reads
                self.plan[key]  # noqa: B018 -- a missing entry is built on reading it
        context = self._expand(i)
        noise.seek((i,))
        block = sample_block(
            cfg.denoiser, cfg.timesteps, context, noise,
            shape=(cfg.policy.block_size, cfg.frame_dim),
        )
        # np.mean and np.var of the block, by the reductions they run inside
        n = block.size
        mean = float(np.add.reduce(block, axis=None)) / n
        deviation = block - mean
        var = float(np.add.reduce(deviation * deviation, axis=None)) / n
        if not (isfinite(mean) and isfinite(var)):
            raise NonFiniteBlockError(f"trace record for step {i} holds inf or NaN, "
                                      "so the rollout stops at that step")
        self.store.put(i, block)
        self.records.append(
            TraceRecord(
                step=i,
                schedule=schedule,
                mean=mean,
                var=var,
                frames=block.copy() if cfg.record_frames else None,
                seed=cfg.seed,
            )
        )
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
