"""Blockwise autoregressive rollout engine.

Each step builds the policy's conditioning schedule, expands it into one
Context of positioned latent frames gathered from stored block data,
samples the next block through the few-step denoising loop, appends it to
the bounded history, and emits a replayable trace record. Noise for step
i is drawn from the stream (i,) of the seed, which the rollout's one
NoiseSource is re-seated to at the start of the step, so traces depend
only on the config and seed.

A fill step i <= K reads the first i blocks' rows from the store. Past
it, a step's rows and positions depend only on the policy and i, so a
policy's rollouts share one gather plan, built whole at step K+1 from an
O(K) sink strip and an O(K) recent strip: a (K-1+P) x K*block_size intp
table, P = 2K under rolling-sink else K (26 MB, ~8 ms at K=600, block_size 3).

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
    Orientation, Policy, PolicyConfig, Schedule, frame_expand, roll_slot, schedule_for,
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
        if not self.holds(block_id, self.count):
            raise KeyError(block_id)
        return self.first_row(block_id)

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
        first = self.first_row(block_id)
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


Entry = tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=3)  # one plan for equal policies; a sweep runs three per S
def gather_plan(policy: PolicyConfig) -> tuple[Entry, ...]:
    """Per key K+1..4K-1 (step i's key is i below 2K, then 2K + i mod 2K),
    the store rows the step gathers and its positions as base + i * shift,
    read-only. One row table holds steps K+1..2K-1, then one period of rows
    (the walk's 2K, else the ring's K). A row is its S sinks' rows (none for
    sliding-window), a window of the sink strip: the walk's slots l = 1, 2,
    ..., one further per step, or else step K+1's sinks. Then its K-S recent
    blocks' rows, a window of the store's rows of blocks S+1, S+2, .... base
    and shift come from the schedules of steps K+1 and K+2. A sink block the
    store would not hold at every step that reads it raises InternalInvariantError."""
    K, bs = policy.K, policy.block_size
    s = 0 if policy.policy is Policy.SLIDING_WINDOW else policy.S
    rolling = policy.policy is Policy.ROLLING_SINK
    period = 2 * K if rolling else K
    steps = K - 1 + period  # the table's, K+1..2K+period-1
    store = HistoryStore.for_policy(policy, 0)  # the layout only
    now, later = schedule_for(policy, K + 1), schedule_for(policy, K + 2)
    sinks = [roll_slot(policy, l) for l in range(1, steps + s)] if rolling and s else now.slots[:s]
    content = np.array([slot.content_id for slot in sinks], dtype=np.intp)
    first = K + 1 + np.maximum(0, np.arange(len(sinks)) - s + 1)  # the step first reading it
    held = store.holds(content, first + [[0], [period]]).all(axis=0)  # so pinned
    if not held.all():
        m = held.argmin()
        raise InternalInvariantError(f"schedule for step {first[m]} references block "
                                     f"{content[m]}, which is absent from the history store")
    frames = np.arange(bs)  # a reversed slot's rows run down from its block's last
    back = np.array([slot.orientation is Orientation.REVERSED for slot in sinks], dtype=bool)
    sink = np.where(back[:, None], frames[::-1], frames) + store.first_row(content)[:, None]
    recent = store.first_row(np.arange(s + 1, K + steps))[:, None] + frames
    table = np.empty((steps, K * bs), dtype=np.intp)
    for window, strip, move in ((table[:, :s * bs], sink, bs if rolling else 0),
                                (table[:, s * bs:], recent, bs)):  # row w: strip[w*move:]
        window[...] = np.ndarray(window.shape, np.intp, strip.ravel(), 0,
                                 (move * table.itemsize, table.itemsize))
    start, end = (np.add.outer([slot.assigned_index * bs for slot in schedule.slots],
                               frames).ravel() for schedule in (now, later))
    shift = end - start
    base = start - (K + 1) * shift
    for array in (table, base, shift):
        array.flags.writeable = False
    return tuple((table[key - K - 1 if key < 2 * K else K - 1 + key % period], base, shift)
                 for key in range(K + 1, 4 * K))


class Rollout:
    """Single-threaded rollout state machine; one instance per rollout."""

    def __init__(self, cfg: RolloutConfig):
        self.cfg = cfg
        self.store = HistoryStore.for_policy(cfg.policy, cfg.frame_dim)
        self.step_index = 0
        self.records: list[TraceRecord] = []
        self.noise: NoiseSource | None = None  # one generator, re-seated per step
        self.plan: tuple[Entry, ...] | None = None  # the policy's, fetched past the fill

    def fork(self, policy: PolicyConfig, horizon: int) -> Rollout:
        """A rollout of `policy` to `horizon` that continues from copies of
        this one's store and records and shares its NoiseSource, which every step
        re-seats. ValueError past the fill, below the steps run or across layouts."""
        fork = Rollout(replace(self.cfg, policy=policy, horizon=horizon))
        store, ours = fork.store, self.store
        if horizon < self.step_index:
            raise ValueError(f"a fork's horizon {horizon} is below the {self.step_index} "
                             "steps this rollout has run")
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
        """Step i's frames and positions: in a fill step (i <= K), store rows
        and positions 0..i*block_size; past it, by one lookup in the plan."""
        store = self.store
        if store.count != i:  # the rows hold step i's blocks only then
            raise InternalInvariantError(
                f"history store holds {store.count} blocks at step {i}, so the "
                f"blocks its schedule references are absent from the history store"
            )
        K = store.capacity
        if i <= K:  # blocks 0..K-1 sit in rows 0..K*block_size in either layout
            n = i * store.block_size
            return Context.unchecked(store.frames[:n].copy(), np.arange(n))
        if self.plan is None:  # fetched inside a step, so its cost counts as step time
            self.plan = gather_plan(self.cfg.policy)
        rows, base, shift = self.plan[(i if i < 2 * K else 2 * K + i % (2 * K)) - K - 1]
        # float64 (n, frame_dim) rows and ascending positions by construction
        return Context.unchecked(store.frames.take(rows, axis=0), base + i * shift)

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
