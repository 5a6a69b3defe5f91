"""Blockwise autoregressive rollout engine.

Each step gathers one Context of positioned latent frames from stored block
data, samples the next block through the few-step denoising loop, appends it
to the bounded history, and emits a replayable trace record, whose schedule
derives from the policy when read. Noise for step i is drawn from the stream
(i,) of the seed, which the rollout's one NoiseSource is re-seated to at the
start of the step, so traces depend only on the config and seed.

The store is a mirrored ring of the last K blocks, so a step's recent blocks
are one slice of its rows: the whole context of a step that reads no sinks.
Otherwise policy.sink_slots(i) sink blocks come first, a window of the
rollout's sink strip, copied at step K by the policy's gather plan, O(K) and
shared by its rollouts.

No step up to K reads sinks, so `blockroll sweep` runs steps 0..K-1 once per
seed, forking it at step K once per rollout its cells name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import isfinite

import numpy as np

from . import schedule as schedules
from .denoisers import Context, DenoiserInterface
from .sampler import NoiseSource, TimestepSchedule, sample_block
# The step never calls frame_expand; the name stays here because the
# benchmark's tracer wraps engine.frame_expand (ROADMAP item 8).
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
    """Bounded block storage in one preallocated array of frame rows: a ring
    holding the last K blocks at slot block_id mod K and again K slots later,
    so any <= K consecutive held blocks are one slice from first_row of the
    first. Each block put takes the next id; at most K are held."""

    def __init__(self, policy: PolicyConfig, frame_dim: int):
        self.capacity = K = policy.K
        self.block_size = bs = policy.block_size
        self.frames = np.zeros((2 * K * bs, frame_dim))
        self._rings = self.frames.reshape(2, K * bs, frame_dim)  # ring, mirror
        self.count = 0  # blocks put so far, and the id of the next

    @property
    def peak_retained(self) -> int:
        """Blocks held. It never falls, so it is also the peak."""
        return min(self.count, self.capacity)

    def holds(self, block_id, count):
        """Whether a block is held once `count` blocks are put; either may be an array."""
        return (0 <= block_id) & (block_id < count) & (count - self.capacity <= block_id)

    def first_row(self, block_id):
        """The row in `frames` of a block's first frame; ids may be an array."""
        return block_id % self.capacity * self.block_size

    def put(self, block: np.ndarray) -> None:
        """Hold `block` as the next block, id `count`."""
        first = self.first_row(self.count)  # at its ring slot and K slots later
        self._rings[:, first:first + self.block_size] = block
        self.count += 1

    def get(self, block_id: int) -> np.ndarray:
        """A copy of a held block's frames; KeyError for a block not held,
        also when its ring slot now holds a newer block."""
        if not self.holds(block_id, self.count):
            raise KeyError(block_id)
        first = self.first_row(block_id)
        return self.frames[first:first + self.block_size].copy()


@dataclass(eq=False)
class TraceRecord:
    """One step's block stats, its frames as float64 if recorded, and the rollout's
    policy, from which the step's schedule derives; a record read back has none."""

    step: int
    policy: PolicyConfig | None
    mean: float
    var: float
    frames: np.ndarray | None
    seed: int

    @property
    def schedule(self) -> Schedule:
        if self.policy is None:
            raise ValueError(f"trace record for step {self.step} was read back "
                             "from a trace and holds no schedule")
        # through the module: the benchmark's tracer times engine.schedule_for
        # as part of a step, and this runs outside one. The trace writer does
        # not read it; it slides each record's slot text (schedule.SlotWalk)
        return schedules.schedule_for(self.policy, self.step)


@lru_cache(maxsize=3)  # one plan for equal policies; a sweep runs at most three per S
def gather_plan(policy: PolicyConfig) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """A sink policy's sink strip rows, their move per step, base and shift,
    read-only: step i past the fill reads S*block_size strip rows from
    ((i - K - 1) mod 2K) * move, at positions base + i * shift. The strip is
    the walk's slots l = 1..2K+S-1 under rolling-sink, moving a slot a step,
    else step K+1's sinks. A sink block the store does not hold at step K,
    which copies the strip, raises InternalInvariantError."""
    K, bs, s = policy.K, policy.block_size, policy.sink_slots(policy.K + 1)
    rolling = policy.policy is Policy.ROLLING_SINK
    store = HistoryStore(policy, 0)  # the layout only
    now, later = schedule_for(policy, K + 1), schedule_for(policy, K + 2)
    sinks = [roll_slot(policy, l) for l in range(1, 2 * K + s)] if rolling else now.slots[:s]
    content = np.array([slot.content_id for slot in sinks], dtype=np.intp)
    first = K + 1 + np.maximum(0, np.arange(len(sinks)) - s + 1)  # the step first reading it
    held = store.holds(content, K)  # the ring at step K
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
        self.records: list[TraceRecord] = []
        self.noise: NoiseSource | None = None  # one source, re-seated per step
        self.sinks: tuple | None = None  # the sink strip's frames, move, base, shift

    @property
    def step_index(self) -> int:
        """The next step: the store holds one block per step run."""
        return self.store.count

    def fork(self, policy: PolicyConfig) -> Rollout:
        """A rollout of `policy` continuing from copies of this one's store and
        records, sharing its NoiseSource (every step re-seats it) and keeping its
        horizon, which no step reads. ValueError once step K, which copies the
        sink strip, has run, or for another K or block_size."""
        ours = self.cfg.policy
        if self.step_index > ours.K:
            raise ValueError(f"a rollout forks before its step {ours.K}, which copies the "
                             f"sink strip, and this one has run {self.step_index} steps")
        if (policy.K, policy.block_size) != (ours.K, ours.block_size):
            raise ValueError(f"the store of K={policy.K}, block_size={policy.block_size} is "
                             f"not laid out as the store of K={ours.K}, "
                             f"block_size={ours.block_size}")
        fork = Rollout(replace(self.cfg, policy=policy))
        fork.store.frames[...], fork.store.count = self.store.frames, self.store.count
        fork.records, fork.noise = self.records.copy(), self.noise
        return fork

    def _expand(self, i: int) -> Context:
        """Step i's frames and positions: its s = policy.sink_slots(i) sink blocks
        from the sink strip, then blocks max(0, i-K)+s..i-1, one store slice."""
        store, policy = self.store, self.cfg.policy
        K, bs, s = store.capacity, store.block_size, policy.sink_slots(i)
        # step K is the last whose ring holds blocks 0..K-1; the copy is inside a
        # step, so its cost counts as step time
        if i == K and policy.sink_slots(K + 1):
            rows, move, base, shift = gather_plan(policy)
            self.sinks = store.frames.take(rows, axis=0), move, base, shift
        lo = max(0, i - K) + s
        first = store.first_row(lo)
        recent = store.frames[first:first + (i - lo) * bs]
        if not s:  # the whole context, at native positions
            return Context.unchecked(recent.copy(), np.arange(lo * bs, i * bs))
        strip, move, base, shift = self.sinks
        w = (i - K - 1) % (2 * K) * move
        # float64 (n, frame_dim) rows and ascending positions by construction
        return Context.unchecked(np.concatenate((strip[w:w + s * bs], recent)), base + i * shift)

    def step(self) -> TraceRecord:
        """Generate the next block, and append and return its trace record. A
        block whose mean or var is inf or NaN raises NonFiniteBlockError and is
        neither stored nor recorded, so the rollout stays at that step."""
        cfg = self.cfg
        i = self.store.count
        context = self._expand(i)
        noise = self.noise
        if noise is None:  # set up inside a step, so its cost counts as step time
            noise = self.noise = NoiseSource(cfg.seed)
        noise.seek(i)
        block = sample_block(cfg.denoiser, cfg.timesteps, context, noise, cfg.policy.block_size)
        block = block.astype(np.float64, copy=cfg.record_frames)  # as stored; a copy if recorded
        # np.mean and np.var of the block, by the reductions they run inside
        n = block.size
        mean = float(np.add.reduce(block, axis=None)) / n
        deviation = block - mean
        var = float(np.add.reduce(deviation * deviation, axis=None)) / n
        if not (isfinite(mean) and isfinite(var)):
            raise NonFiniteBlockError(f"trace record for step {i} holds inf or NaN, "
                                      "so the rollout stops at that step")
        self.store.put(block)
        record = TraceRecord(step=i, policy=cfg.policy, mean=mean, var=var, seed=cfg.seed,
                             frames=block if cfg.record_frames else None)
        self.records.append(record)
        return record

    def trace(self) -> tuple[TraceRecord, ...]:
        return tuple(self.records)


def run(cfg: RolloutConfig) -> tuple[TraceRecord, ...]:
    """Execute cfg.horizon steps and return the trace: the record each returns."""
    rollout = Rollout(cfg)
    return tuple(rollout.step() for _ in range(cfg.horizon))
