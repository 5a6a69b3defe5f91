"""Blockwise autoregressive rollout engine.

Each step builds the policy's conditioning schedule, expands it into one
Context of positioned latent frames gathered from stored block data,
samples the next block through the few-step denoising loop, appends it to
the bounded history, and emits a replayable trace record. Noise for step
i is drawn from the stream (i,) of the seed, which the rollout's one
NoiseSource is re-seated to at the start of the step, so traces depend
only on the config and seed.

A step's store rows and positions depend only on the policy and i, so the
rollouts of a policy share one gather plan: an entry per step i < 2K, then
per phase 2K + i mod 2K (recent block b sits in ring slot b mod K, and the
rolling walk has period 2K), so 4K entries of K*block_size rows. A rollout
fetches it in its first step; it is built whole, by array arithmetic.

Every policy schedules the fill steps 0..K alike, so a rollout that has
run no further can fork into one of another policy with its store layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import isfinite

import numpy as np

from .denoisers import Context, DenoiserInterface
from .sampler import NoiseSource, TimestepSchedule, sample_block
# The step never calls frame_expand; the name stays here because the
# benchmark's tracer wraps engine.frame_expand (ROADMAP item 2).
from .schedule import (  # noqa: F401
    Policy, PolicyConfig, RollConvention, Schedule, frame_expand, schedule_for,
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


def _slot_grid(policy: PolicyConfig, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's block and whether it is reversed, as (len(steps), K)
    arrays, for steps past the fill (i > K): schedule_for's slots by array
    arithmetic."""
    K = policy.K
    j = np.arange(K)
    block = steps[:, None] - K + j
    sink = j < (0 if policy.policy is Policy.SLIDING_WINDOW else policy.S)
    if policy.policy is not Policy.ROLLING_SINK:
        return np.where(sink, j, block), np.zeros(block.shape, dtype=bool)
    walk = block % (2 * K)  # the walk over l = block, forward on even cycles
    back = walk >= K
    if policy.roll_convention is RollConvention.PALINDROME:
        mirror = 2 * K - 1 - walk
    else:
        mirror = (2 * K - walk) % K
    return np.where(sink, np.where(back, mirror, walk), block), sink & back


Entry = tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=3)  # one plan for equal policies; a sweep runs three per S
def gather_plan(policy: PolicyConfig) -> tuple[Entry, ...]:
    """Per key, step i for i < 2K and 2K + i mod 2K from then on: the store
    rows the step gathers and its positions as base + i * shift, read-only.
    Fill step i <= K gathers rows 0..i*block_size at their own positions.
    Past it, one row table holds steps K+1..2K-1, then one period of rows
    (the walk's 2K, else the ring's K), and every key shares one base and
    shift: frames slide with i but attention-sink's pinned sinks. A block
    the store would not hold at its step raises InternalInvariantError."""
    K, bs = policy.K, policy.block_size
    period = 2 * K if policy.policy is Policy.ROLLING_SINK else K
    ring = 0 if policy.policy is Policy.SLIDING_WINDOW else K  # HistoryStore's layout
    steps = np.arange(K + 1, 2 * K + period)
    content, reverse = _slot_grid(policy, steps)
    i = steps[:, None]
    held = (0 <= content) & (content < i) & ~((ring <= content) & (content < i - K))
    if not held.all():
        step, slot = np.argwhere(~held)[0]
        raise InternalInvariantError(f"schedule for step {steps[step]} references block "
                                     f"{content[step, slot]}, which is absent from the "
                                     "history store")
    # a slot's rows run up from its block's first row, or down from its last
    table = np.multiply.outer(1 - 2 * reverse, np.arange(bs))
    table += ((content % K + ring * (content >= ring)) * bs + reverse * (bs - 1))[:, :, None]
    table = table.reshape(len(steps), K * bs)
    frame = np.arange(K * bs)
    pinned = frame < (policy.S * bs if policy.policy is Policy.ATTENTION_SINK else 0)
    base, shift = np.where(pinned, frame, frame - K * bs), np.where(pinned, 0, bs)
    zeros = np.zeros(K * bs, dtype=np.intp)
    for array in (table, frame, base, shift, zeros):
        array.flags.writeable = False
    rows = list(table)
    fill = [(frame[:n], frame[:n], zeros[:n]) for n in range(0, (K + 1) * bs, bs)]
    return tuple(fill) + tuple(
        (rows[key - K - 1 if key < 2 * K else K - 1 + (key - 2 * K) % period], base, shift)
        for key in range(K + 1, 4 * K))


class Rollout:
    """Single-threaded rollout state machine; one instance per rollout."""

    def __init__(self, cfg: RolloutConfig):
        self.cfg = cfg
        self.store = HistoryStore.for_policy(cfg.policy, cfg.frame_dim)
        self.step_index = 0
        self.records: list[TraceRecord] = []
        self.noise: NoiseSource | None = None  # one generator, re-seated per step
        self.plan: tuple[Entry, ...] | None = None  # the policy's, fetched in a step

    def fork(self, policy: PolicyConfig, horizon: int) -> Rollout:
        """A rollout of `policy` to `horizon` that continues from copies of
        this one's store and records and shares its NoiseSource, which every
        step re-seats. ValueError past the fill steps or across store layouts."""
        fork = Rollout(replace(self.cfg, policy=policy, horizon=horizon))
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
        if self.plan is None:  # set up inside a step, so their cost counts as step time
            self.plan = gather_plan(cfg.policy)
            if self.noise is None:  # a fork shares its parent's
                self.noise = NoiseSource(cfg.seed)
        context = self._expand(i)
        noise = self.noise
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
