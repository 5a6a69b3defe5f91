"""Rollout engine tests: schedule wiring, determinism, bounded retention."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from blockroll.denoisers import (AnalyticGaussianDenoiser, ContextMeanDenoiser,
                                 TinyAttentionDenoiser)
from blockroll import engine
from blockroll.cli import trace_to_lines
from blockroll.engine import (
    HistoryStore,
    InternalInvariantError,
    NonFiniteBlockError,
    Rollout,
    RolloutConfig,
    gather_plan,
    run,
)
from blockroll.sampler import NoiseSource
from blockroll.schedule import (
    Policy,
    PolicyConfig,
    RollConvention,
    Schedule,
    frame_expand,
    schedule_for,
)

from plan_oracle import oracle_gather
from trace_oracle import record_to_obj


def make_config(policy=Policy.ROLLING_SINK, K=6, S=5, horizon=10, seed=0,
                denoiser=None, frame_dim=4, block_size=3, record_frames=True):
    return RolloutConfig(
        policy=PolicyConfig(K=K, S=S, block_size=block_size, policy=policy),
        denoiser=denoiser or ContextMeanDenoiser(anchor_weight=0.5,
                                                 innovation_scale=0.1),
        horizon=horizon,
        seed=seed,
        frame_dim=frame_dim,
        record_frames=record_frames,
    )


def traces_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra.step, ra.schedule, ra.mean, ra.var, ra.seed) != (
            rb.step, rb.schedule, rb.mean, rb.var, rb.seed
        ):
            return False
        if (ra.frames is None) != (rb.frames is None):
            return False
        if ra.frames is not None and not np.array_equal(ra.frames, rb.frames):
            return False
    return True


def test_first_step_conditions_on_nothing():
    trace = run(make_config(horizon=1))
    assert len(trace) == 1
    assert trace[0].schedule.slots == ()
    assert trace[0].frames.shape == (3, 4)


def test_trace_schedules_come_from_the_policy():
    cfg = make_config(horizon=8)
    trace = run(cfg)
    assert trace[7].schedule == schedule_for(
        replace(cfg.policy, policy=Policy.ROLLING_SINK), 7)
    for record in trace:
        assert record.schedule == schedule_for(cfg.policy, record.step)


def test_identical_config_and_seed_replay_identically():
    a = run(make_config(horizon=25, seed=9))
    b = run(make_config(horizon=25, seed=9))
    assert traces_equal(a, b)
    c = run(make_config(horizon=25, seed=10))
    assert not traces_equal(a, c)


def test_conditioning_size_is_exactly_min_step_capacity():
    for policy in Policy:
        trace = run(make_config(policy=policy, horizon=20, K=6, S=3))
        for record in trace:
            assert len(record.schedule.slots) == min(record.step, 6)


def test_all_policies_share_the_warmup_trace():
    K = 6
    reference = None
    for policy in Policy:
        trace = run(make_config(policy=policy, K=K, S=5, horizon=K + 1, seed=4))
        head = trace[: K + 1]
        if reference is None:
            reference = head
        else:
            for ra, rb in zip(reference, head):
                assert ra.schedule == rb.schedule
                assert np.array_equal(ra.frames, rb.frames)


def test_policies_diverge_after_warmup():
    K = 6
    # attention sink departs from the window at K+1; the rolling sink's
    # first cycle still walks forward in lockstep with the window, so its
    # divergence starts once a reversed slot enters the segment (i >= 8).
    window = run(make_config(policy=Policy.SLIDING_WINDOW, K=K, S=5, horizon=K + 5))
    sink = run(make_config(policy=Policy.ATTENTION_SINK, K=K, S=5, horizon=K + 5))
    rolling = run(make_config(policy=Policy.ROLLING_SINK, K=K, S=5, horizon=K + 5))
    assert not np.array_equal(window[K + 1].frames,
                              sink[K + 1].frames)
    assert not np.array_equal(window[K + 4].frames,
                              rolling[K + 4].frames)


def record_bytes(trace) -> list[tuple]:
    return [(r.step, np.float64(r.mean).tobytes(), np.float64(r.var).tobytes(),
             r.frames.tobytes()) for r in trace]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("K, S", [(1, 0), (2, 1), (4, 2), (6, 5)])
@pytest.mark.parametrize("denoiser", [
    lambda: AnalyticGaussianDenoiser(rho=0.8),
    lambda: ContextMeanDenoiser(anchor_weight=0.5, innovation_scale=0.1, bias=0.05),
], ids=["analytic-gaussian", "context-mean"])
def test_sliding_indices_rolls_out_as_attention_sink_without_reading_positions(
        denoiser, K, S, seed):
    # the two pin the same blocks at other positions, which these denoisers
    # do not read (reads_positions), so `blockroll sweep` runs one for both
    assert not denoiser().reads_positions
    sink, sliding = (record_bytes(run(make_config(
        policy=policy, K=K, S=S, horizon=3 * K + 4, seed=seed, denoiser=denoiser())))
        for policy in (Policy.ATTENTION_SINK, Policy.SLIDING_INDICES))
    assert sink == sliding


def test_rolling_sink_slots_always_reference_retainable_blocks():
    cfg = make_config(horizon=100, K=6, S=5)
    trace = run(cfg)
    for record in trace:
        if record.step <= 6:
            continue
        for slot in record.schedule.slots[:5]:
            assert slot.content_id < 6


def test_retention_is_bounded_by_twice_capacity():
    # every policy's store holds the last K blocks, and a sink policy's strip,
    # copied at step K, the blocks 0..K-1 it reads: at most 2K distinct blocks
    K, S, bs = 6, 2, 3
    strip_rows = {Policy.ATTENTION_SINK: S * bs, Policy.SLIDING_INDICES: S * bs,
                  Policy.ROLLING_SINK: (2 * K + S - 1) * bs}
    for policy in Policy:
        cfg = make_config(policy=policy, K=K, S=S, horizon=500, frame_dim=1,
                          record_frames=False)
        rollout = Rollout(cfg)
        for _ in range(cfg.horizon):
            rollout.step()
        assert rollout.store.peak_retained == K, policy
        # the ring is mirrored, so the rows are its K slots twice
        assert rollout.store.frames.shape == (2 * K * bs, 1), policy
        if policy is Policy.SLIDING_WINDOW:
            assert rollout.sinks is None
        else:
            assert rollout.sinks[0].shape == (strip_rows[policy], 1), policy


@pytest.mark.parametrize("name", [f.name for f in fields(RolloutConfig)])
def test_a_rollout_config_is_frozen(name):
    # a rollout reads its config at every step, so a field set mid-rollout
    # would change the layout or the seed its records name
    cfg = make_config()
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, name, getattr(make_config(K=3, S=1, seed=2, horizon=4), name))


@pytest.mark.parametrize("policy", list(Policy))
def test_history_store_keeps_the_last_k_blocks(policy):
    store = HistoryStore(PolicyConfig(K=3, S=1, block_size=2, policy=policy), frame_dim=1)
    for i in range(8):
        store.put(np.full((2, 1), float(i)))
    assert store.peak_retained == 3
    assert store.frames.shape == (12, 1)  # the ring and its mirror
    for i in (5, 6, 7):
        assert store.get(i).tolist() == [[float(i)], [float(i)]]
    # block 4 was evicted: its ring rows now hold block 7, which must not be
    # served under id 4
    for evicted in (0, 3, 4, 8, -1):
        with pytest.raises(KeyError):
            store.get(evicted)


@pytest.mark.parametrize("bs", [1, 2])
@pytest.mark.parametrize("policy", list(Policy))
def test_held_runs_of_up_to_k_blocks_are_one_slice_of_the_store(policy, bs):
    K = 4
    store = HistoryStore(PolicyConfig(K=K, S=2, block_size=bs, policy=policy), frame_dim=3)
    for b in range(5 * K):
        store.put(np.arange(b * bs * 3, (b + 1) * bs * 3, dtype=float).reshape(bs, 3))
        for lo in range(b + 1):
            for n in range(1, K + 1):
                if not store.holds(np.arange(lo, lo + n), store.count).all():
                    break
                first = store.first_row(lo)
                assert np.array_equal(store.frames[first:first + n * bs], np.concatenate(
                    [store.get(block) for block in range(lo, lo + n)])), (b, lo, n)


def test_missing_history_is_an_internal_invariant_violation(monkeypatch):
    # a step's recent blocks are the store's last by construction, so a missing
    # block can only be a sink, which the plan checks at step K, when the strip
    # is copied; here every walk slot reads block K, which step K has not put
    K = 3
    roll = engine.roll_slot
    monkeypatch.setattr(engine, "roll_slot",
                        lambda policy, l: roll(policy, l)._replace(content_id=K))
    rollout = Rollout(make_config(horizon=10, K=K, S=2))
    for _ in range(K):
        rollout.step()
    with pytest.raises(InternalInvariantError, match="absent from the history"):
        rollout.step()
    assert rollout.step_index == rollout.store.count == len(rollout.records) == K


def test_a_rollouts_step_is_its_store_count():
    rollout = Rollout(make_config(K=4, S=2))
    for _ in range(3):
        rollout.step()
    assert rollout.step_index == rollout.store.count == 3
    with pytest.raises(AttributeError):
        rollout.step_index = 0
    fork = rollout.fork(PolicyConfig(K=4, S=1))
    assert fork.step_index == fork.store.count == 3


class ContextRecorder:
    """Delegates to a denoiser, keeping every Context it is conditioned on."""

    def __init__(self, inner):
        self.inner = inner
        self.draws_per_level = inner.draws_per_level
        self.contexts = []

    def condition(self, context, block_size):
        self.contexts.append(context)
        return self.inner.condition(context, block_size)

    def estimate(self, noisy, t, state, eps=None):
        return self.inner.estimate(noisy, t, state, eps)


@pytest.mark.parametrize("block_size", [1, 2, 3])
@pytest.mark.parametrize("convention", list(RollConvention))
@pytest.mark.parametrize("policy", list(Policy))
def test_context_is_frame_expand_of_the_stored_blocks(policy, convention, block_size):
    # horizon 7K+3 covers the fill steps (i <= K) and three periods of the
    # rolling walk past them, with recent slices that wrap through the mirror
    frame_dim = 4
    for K in range(1, 7):
        for S in range(K):
            recorder = ContextRecorder(ContextMeanDenoiser(anchor_weight=0.5,
                                                           innovation_scale=0.1))
            cfg = RolloutConfig(
                policy=PolicyConfig(K=K, S=S, block_size=block_size, policy=policy,
                                    roll_convention=convention),
                denoiser=recorder,
                horizon=7 * K + 3,
                frame_dim=frame_dim,
            )
            trace = run(cfg)
            assert len(recorder.contexts) == len(trace)
            for record, context in zip(trace, recorder.contexts):
                rows, positions = [], []
                for slot in record.schedule.slots:
                    block = trace[slot.content_id].frames
                    for content_frame, position in frame_expand(slot, block_size):
                        rows.append(block[content_frame - block_size * slot.content_id])
                        positions.append(position)
                assert context.positions.tolist() == positions
                assert np.array_equal(context.values,
                                      np.reshape(rows, (len(rows), frame_dim)))


class NaNAtStep:
    """Returns noisy unchanged, and a NaN block from step `bad` on."""

    draws_per_level = 0

    def __init__(self, bad):
        self.bad, self.steps = bad, -1

    def condition(self, context, block_size):
        self.steps += 1
        return context

    def estimate(self, noisy, t, state, eps=None):
        return noisy * np.nan if self.steps >= self.bad else noisy


def test_non_finite_block_stops_the_rollout_at_its_step():
    rollout = Rollout(make_config(horizon=10, denoiser=NaNAtStep(4)))
    for _ in range(4):
        rollout.step()
    with pytest.raises(NonFiniteBlockError, match="^trace record for step 4 holds inf "
                                                  "or NaN, so the rollout stops at that "
                                                  "step$"):
        rollout.step()
    # neither stored nor recorded; the records so far stay as they were
    assert rollout.step_index == rollout.store.count == len(rollout.records) == 4
    with pytest.raises(ValueError, match="step 0 "):  # NonFiniteBlockError is one
        run(make_config(denoiser=NaNAtStep(0)))


def test_rollout_builds_one_noise_source(monkeypatch):
    built = []
    init = NoiseSource.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NoiseSource, "__init__", counting_init)
    trace = run(make_config(horizon=50, seed=4))
    assert len(trace) == 50
    assert built == [(4,)]


def test_rollout_draws_noise_once_per_step(monkeypatch):
    shapes = []
    draw = NoiseSource.standard_normal

    def counting_draw(self, shape):
        shapes.append(shape)
        return draw(self, shape)

    monkeypatch.setattr(NoiseSource, "standard_normal", counting_draw)
    for denoiser, per_level in ((AnalyticGaussianDenoiser(), 2),
                                (ContextMeanDenoiser(innovation_scale=0.1), 2),
                                (ContextMeanDenoiser(), 1)):
        shapes.clear()
        run(make_config(horizon=20, denoiser=denoiser))
        # per level (4) the level's input (the pure-noise block or the
        # previous level's re-noising draw) and the estimate's draw
        assert shapes == [(4 * per_level, 3, 4)] * 20


def plans_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_rollouts_of_equal_policies_share_one_gather_plan():
    def plan_of(policy_cfg):
        rollout = Rollout(replace(make_config(), policy=policy_cfg))
        for _ in range(policy_cfg.K + 1):  # step K fetches the plan
            rollout.step()
        plan = gather_plan(policy_cfg)
        assert rollout.sinks[2] is plan[2] and rollout.sinks[3] is plan[3]  # base, shift
        return plan

    plan = plan_of(PolicyConfig(K=4, S=2))
    assert plan_of(PolicyConfig(K=4, S=2)) is plan  # equal, not the same object
    assert gather_plan.cache_info().misses == 1
    others = [plan_of(cfg) for cfg in (
        PolicyConfig(K=4, S=1), PolicyConfig(K=4, S=2, block_size=2),
        PolicyConfig(K=4, S=2, policy=Policy.ATTENTION_SINK),
        PolicyConfig(K=4, S=2, roll_convention=RollConvention.LITERAL_MOD))]
    assert all(other is not plan and not plans_equal(other, plan) for other in others)


@pytest.mark.parametrize("policy", list(Policy))
def test_a_plan_and_its_sink_strip_hold_o_k_memory(policy):
    # the plan is memoised and shared, so its arrays are read-only; at K = 600 a
    # table of every step's rows would hold about 26 MB under rolling-sink
    K = 600
    run(make_config(horizon=1))  # untraced: a process's first step imports modules
    rollout = Rollout(make_config(policy=policy, K=K, S=K // 2, horizon=K + 3,
                                  record_frames=False))
    for _ in range(K):
        rollout.step()
    rollout.records.clear()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for _ in range(2):  # step K builds the plan and copies the sink strip
            rollout.step()
        rollout.records.clear()
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert held < 2**20
    if policy is Policy.SLIDING_WINDOW:  # no sinks, so no plan
        assert gather_plan.cache_info().misses == 0 and rollout.sinks is None
        return
    assert gather_plan.cache_info().misses == 1 and rollout.sinks is not None
    rows, _, base, shift = gather_plan(rollout.cfg.policy)
    for array in (rows, base, shift):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_records_hold_no_schedules():
    # a record derives its schedule from the rollout's policy, which its records
    # share, so K steps hold O(K) memory; K schedules would hold ~K^2/2 slots
    K = 100
    run(make_config(horizon=1))  # untraced: a process's first step imports modules
    rollout = Rollout(make_config(K=K, S=K // 2, horizon=3 * K, record_frames=False))
    for _ in range(K + 2):  # step K builds the plan and copies the sink strip
        rollout.step()
    tracemalloc.start()
    try:
        for _ in range(K):
            rollout.step()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000
    assert all(record.policy is rollout.cfg.policy for record in rollout.records)
    assert rollout.records[-1].schedule == schedule_for(rollout.cfg.policy, 2 * K + 1)


def test_a_rollout_within_its_fill_steps_builds_no_plan():
    # steps 0..K-1 read the store directly and copy no strip, so a horizon of
    # K needs no plan; the records are dropped as they come, as they grow with
    # the horizon
    K = 300
    run(make_config(horizon=1))  # untraced: a process's first step imports modules
    rollout = Rollout(make_config(K=K, S=K // 2, horizon=K, record_frames=False))
    tracemalloc.start()
    try:
        for _ in range(K):
            rollout.step()
            rollout.records.clear()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gather_plan.cache_info().misses == 0 and rollout.sinks is None
    assert peak < 2**20


@pytest.mark.parametrize("convention", list(RollConvention))
@pytest.mark.parametrize("policy", list(Policy))
def test_the_plan_gathers_what_the_slot_by_slot_oracle_gathers(policy, convention):
    # steps 0..K are fill steps, K+1..3K the walk's first period and 3K+1..6K-1
    # read it again; frame f of the blocks put holds f, so the values are the
    # ids of the frames _expand gathers
    for K in range(1, 8):
        for S in range(K):
            for bs in (1, 2, 3):
                cfg = PolicyConfig(K=K, S=S, block_size=bs, policy=policy,
                                   roll_convention=convention)
                rollout = Rollout(replace(make_config(frame_dim=1), policy=cfg))
                for i in range(6 * K):
                    context = rollout._expand(i)
                    assert (context.values[:, 0].tolist(), context.positions.tolist()) == (
                        oracle_gather(cfg, i)), (K, S, bs, i)
                    rollout.store.put(np.arange(i * bs, (i + 1) * bs, dtype=float)[:, None])
                planned = policy is not Policy.SLIDING_WINDOW and S > 0
                assert (rollout.sinks is not None) == planned


@pytest.mark.parametrize("policy", [p for p in Policy if p is not Policy.SLIDING_WINDOW])
def test_missing_history_is_caught_when_the_strip_is_copied(monkeypatch, policy):
    # every sink reads block K, which step K, copying the strip, has not put, so
    # the plan built then refuses it, naming step K+1, which reads it first; the
    # sliding window's context is the store's last K blocks, never missing
    K = 3
    roll, schedule = engine.roll_slot, engine.schedule_for
    monkeypatch.setattr(engine, "roll_slot",
                        lambda policy, l: roll(policy, l)._replace(content_id=K))
    monkeypatch.setattr(engine, "schedule_for", lambda policy, i: Schedule(tuple(
        slot._replace(content_id=K) for slot in schedule(policy, i).slots)))
    gather_plan.cache_clear()  # an equal policy's cached plan would skip the check
    rollout = Rollout(make_config(policy=policy, K=K, S=2, horizon=10 * K))
    for _ in range(K):
        rollout.step()
    with pytest.raises(InternalInvariantError, match=f"^schedule for step {K + 1} references "
                                                     f"block {K}, which is absent"):
        rollout.step()
    assert rollout.step_index == len(rollout.records) == K and rollout.sinks is None
    assert gather_plan.cache_info().currsize == 0


@pytest.mark.parametrize("policy, block, step", [
    (Policy.ROLLING_SINK, 3, 4),  # block K: held at step K+1, evicted at step 2K+1
    (Policy.ROLLING_SINK, 9, 5),  # not yet generated at the step that reads it
    (Policy.ATTENTION_SINK, 3, 4),  # the same two as step K+1's pinned sink
    (Policy.ATTENTION_SINK, 4, 4),
])
def test_a_plan_refuses_a_block_the_store_would_not_hold(monkeypatch, policy, block, step):
    K = 3  # and S = 1
    if policy is Policy.ROLLING_SINK:  # step i reads walk slot l = i - K
        roll = engine.roll_slot

        def misplaced(policy, l):
            slot = roll(policy, l)
            return slot._replace(content_id=block) if l == step - K else slot

        monkeypatch.setattr(engine, "roll_slot", misplaced)
    else:  # every step past the fill reads step K+1's sink
        schedule = engine.schedule_for

        def misplaced(policy, i):
            slots = schedule(policy, i).slots
            return Schedule((slots[0]._replace(content_id=block),) + slots[1:])

        monkeypatch.setattr(engine, "schedule_for", misplaced)
    with pytest.raises(InternalInvariantError, match=f"^schedule for step {step} references "
                                                     f"block {block}, which is absent"):
        gather_plan(PolicyConfig(K=K, S=1, policy=policy))
    assert gather_plan.cache_info().currsize == 0


@pytest.mark.parametrize("policy", list(Policy))
def test_a_warm_plan_replays_a_cold_one_byte_for_byte(policy):
    K = 3
    short, long = (make_config(policy=policy, K=K, S=2, horizon=h, seed=7)
                   for h in (2 * K + 1, 6 * K + 2))
    cold = list(trace_to_lines(run(long)))
    gather_plan.cache_clear()
    warm_short = list(trace_to_lines(run(short)))
    # built at the short rollout's step K; the sliding window builds none
    assert gather_plan.cache_info().misses == (policy is not Policy.SLIDING_WINDOW)
    assert list(trace_to_lines(run(long))) == cold
    assert gather_plan.cache_info().misses == (policy is not Policy.SLIDING_WINDOW)
    assert warm_short == list(trace_to_lines(run(short))) == cold[:2 * K + 1]


@pytest.mark.parametrize("policy", list(Policy))
def test_no_step_reads_a_store_row(policy, monkeypatch):
    calls = []
    get = HistoryStore.get

    def counting_get(self, block_id):
        calls.append(block_id)
        return get(self, block_id)

    monkeypatch.setattr(HistoryStore, "get", counting_get)
    K = 4
    rollout = Rollout(make_config(policy=policy, K=K, S=2, horizon=7 * K))
    for _ in range(7 * K):
        rollout.step()
    assert calls == []


@pytest.mark.parametrize("steps", [0, 1, 3, 4])  # K = 4: up to step K, which the fork runs
def test_a_fork_replays_an_independent_run_of_its_policy(steps):
    K, horizon = 4, 6 * 4 + 3
    prefix = Rollout(make_config(K=K, S=2, seed=9))
    for _ in range(steps):
        prefix.step()
    before = prefix.store.frames.copy()
    for policy in Policy:
        for S in range(K):
            cfg = make_config(policy=policy, K=K, S=S, horizon=horizon, seed=9)
            fork = prefix.fork(cfg.policy)
            assert fork.cfg.horizon == prefix.cfg.horizon  # no step reads it
            for _ in range(horizon - steps):
                fork.step()
            assert list(trace_to_lines(fork.trace())) == list(trace_to_lines(run(cfg)))
    # the forks wrote their own stores and record lists
    assert np.array_equal(prefix.store.frames, before)
    assert len(prefix.records) == prefix.store.count == steps


def test_a_fork_refuses_a_rollout_that_has_run_step_k():
    # step K copies the sink strip from the ring, which then drops block 0
    K = 4
    prefix = Rollout(make_config(K=K, S=2, horizon=K + 1))
    for _ in range(K + 1):
        prefix.step()
    with pytest.raises(ValueError, match=r"^a rollout forks before its step 4, which copies "
                                         r"the sink strip, and this one has run 5 steps$"):
        prefix.fork(PolicyConfig(K=K, S=2, policy=Policy.ATTENTION_SINK))


@pytest.mark.parametrize("ours, theirs", [
    (PolicyConfig(K=4, S=2), PolicyConfig(K=5, S=2)),
    (PolicyConfig(K=4, S=2), PolicyConfig(K=4, S=2, block_size=2)),
])
def test_a_fork_refuses_a_store_of_another_layout(ours, theirs):
    prefix = Rollout(replace(make_config(), policy=ours))
    prefix.step()
    with pytest.raises(ValueError, match="is not laid out as the store of"):
        prefix.fork(theirs)


class BlocksOfType:
    """A context-mean denoiser whose estimates are cast to `dtype`, keeping
    each step's block, the last estimate after its condition()."""

    def __init__(self, dtype, innovation_scale=0.1):
        self.inner = ContextMeanDenoiser(anchor_weight=0.5, innovation_scale=innovation_scale)
        self.draws_per_level = self.inner.draws_per_level
        self.dtype, self.blocks = dtype, []

    def condition(self, context, block_size):
        self.blocks.append(None)
        return self.inner.condition(context, block_size)

    def estimate(self, noisy, t, state, eps=None):
        self.blocks[-1] = self.inner.estimate(noisy, t, state, eps).astype(self.dtype)
        return self.blocks[-1]


STEP_DENOISERS = {
    "analytic": lambda: AnalyticGaussianDenoiser(rho=0.9),
    "context-mean": lambda: ContextMeanDenoiser(anchor_weight=0.5, innovation_scale=0.1),
    "tiny-attention": lambda: TinyAttentionDenoiser(frame_dim=4),
    "float32": lambda: BlocksOfType(np.float32),
    "int64": lambda: BlocksOfType(np.int64, innovation_scale=5.0),  # not all zeros
}


@pytest.mark.parametrize("denoiser", STEP_DENOISERS.values(), ids=STEP_DENOISERS)
def test_a_step_returns_the_record_it_appends(denoiser):
    cfg = make_config(K=4, S=2, horizon=4 * 4 + 3, seed=5, denoiser=denoiser())
    rollout = Rollout(cfg)
    for i in range(cfg.horizon):
        record = rollout.step()
        assert record is rollout.records[-1] and record.step == i
        # the block as the store holds it, float64, in a copy of its own
        assert record.frames.dtype == np.float64
        assert np.array_equal(record.frames, rollout.store.get(i))
        assert not np.shares_memory(record.frames, rollout.store.frames)
    trace = run(replace(cfg, denoiser=denoiser()))
    assert traces_equal(trace, rollout.records)
    assert list(trace_to_lines(trace)) == list(trace_to_lines(rollout.records))


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_a_records_frames_are_its_block_as_float64(dtype):
    # a denoiser's block of another type is recorded as float64, whose values
    # are the block's own; a float32 block's line is the line of its float32
    # frames, as json.dumps writes them
    denoiser = BlocksOfType(dtype, 0.1 if dtype is np.float32 else 5.0)
    trace = run(make_config(K=4, S=2, horizon=15, denoiser=denoiser))
    assert [block.dtype for block in denoiser.blocks] == [np.dtype(dtype)] * len(trace)
    for record, block in zip(trace, denoiser.blocks):
        assert record.frames.dtype == np.float64 and np.array_equal(record.frames, block)
        # its stats are those of its frames, bit for bit
        assert [repr(record.mean), repr(record.var)] == [
            repr(float(np.mean(record.frames))), repr(float(np.var(record.frames)))]
    if dtype is np.float32:
        assert list(trace_to_lines(trace)) == [
            json.dumps(record_to_obj(replace(record, frames=block)), separators=(",", ":"))
            for record, block in zip(trace, denoiser.blocks)]


class WideBlocks:
    """Blocks every value of which is the int64 2^62, so a block's int64 sum wraps."""

    draws_per_level = 0

    def condition(self, context, block_size):
        return None

    def estimate(self, noisy, t, state, eps=None):
        return np.full(noisy.shape, 2**62, dtype=np.int64)


def test_a_records_stats_do_not_wrap_in_its_blocks_type():
    trace = run(make_config(K=4, S=2, horizon=6, denoiser=WideBlocks()))
    assert [(record.mean, record.var) for record in trace] == [(2.0**62, 0.0)] * 6


def test_analytic_rollout_tracks_its_context():
    # strong correlation keeps consecutive blocks close
    cfg = make_config(denoiser=AnalyticGaussianDenoiser(rho=0.995), horizon=40,
                      frame_dim=1, seed=2)
    trace = run(cfg)
    jumps = [abs(b.mean - a.mean)
             for a, b in zip(trace, trace[1:])]
    assert np.mean(jumps) < 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(horizon=0)
    with pytest.raises(ValueError):
        make_config(frame_dim=0)
