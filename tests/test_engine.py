"""Rollout engine tests: schedule wiring, determinism, bounded retention."""

from __future__ import annotations

import numpy as np
import pytest

from blockroll.denoisers import AnalyticGaussianDenoiser, ContextMeanDenoiser
from blockroll.engine import (
    HistoryStore,
    InternalInvariantError,
    Rollout,
    RolloutConfig,
    run,
)
from blockroll.sampler import NoiseSource
from blockroll.schedule import (
    Policy,
    PolicyConfig,
    RollConvention,
    frame_expand,
    rolling_sink_schedule,
    schedule_for,
)


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
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
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
    assert trace.records[0].schedule.slots == ()
    assert trace.records[0].frames.shape == (3, 4)


def test_trace_schedules_come_from_the_policy():
    cfg = make_config(horizon=8)
    trace = run(cfg)
    assert trace.records[7].schedule == rolling_sink_schedule(cfg.policy, 7)
    for record in trace.records:
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
        for record in trace.records:
            assert len(record.schedule) == min(record.step, 6)


def test_all_policies_share_the_warmup_trace():
    K = 6
    reference = None
    for policy in Policy:
        trace = run(make_config(policy=policy, K=K, S=5, horizon=K + 1, seed=4))
        head = trace.records[: K + 1]
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
    assert not np.array_equal(window.records[K + 1].frames,
                              sink.records[K + 1].frames)
    assert not np.array_equal(window.records[K + 4].frames,
                              rolling.records[K + 4].frames)


def test_rolling_sink_slots_always_reference_retainable_blocks():
    cfg = make_config(horizon=100, K=6, S=5)
    trace = run(cfg)
    for record in trace.records:
        if record.step <= 6:
            continue
        for slot in record.schedule.slots[:5]:
            assert slot.content_id < 6


def test_retention_is_bounded_by_twice_capacity():
    for policy in Policy:
        cfg = make_config(policy=policy, K=6, S=2, horizon=500, frame_dim=1,
                          record_frames=False)
        rollout = Rollout(cfg)
        for _ in range(cfg.horizon):
            rollout.step()
        bound = 6 if policy is Policy.SLIDING_WINDOW else 12
        assert rollout.store.peak_retained == bound, policy
        assert rollout.store.frames.shape == (bound * 3, 1), policy


def test_history_store_serves_pinned_and_recent_blocks():
    store = HistoryStore(capacity=3, block_size=1, frame_dim=1, keep_permanent=True)
    blocks = [np.full((1, 1), float(i)) for i in range(8)]
    for i, block in enumerate(blocks):
        store.put(i, block)
    for i in (0, 1, 2):  # pinned prefix
        assert store.get(i)[0, 0] == i
    for i in (5, 6, 7):  # recent ring
        assert store.get(i)[0, 0] == i
    # block 4 was evicted: its ring row now holds block 7, which must not be
    # served under id 4
    for evicted in (3, 4, 8, -1):
        with pytest.raises(KeyError):
            store.get(evicted)
    assert store.peak_retained == 6


def test_history_store_without_pinning_keeps_only_the_ring():
    store = HistoryStore(capacity=3, block_size=2, frame_dim=1, keep_permanent=False)
    for i in range(8):
        store.put(i, np.full((2, 1), float(i)))
    assert store.retained == 3
    assert store.frames.shape == (6, 1)
    assert store.get(7).tolist() == [[7.0], [7.0]]
    with pytest.raises(KeyError):
        store.get(0)
    with pytest.raises(KeyError):
        store.get(4)  # its ring row holds block 7


def test_history_store_rejects_out_of_order_puts():
    store = HistoryStore(capacity=3, block_size=1, frame_dim=1)
    store.put(0, np.zeros((1, 1)))
    for block_id in (0, 2, -1):
        with pytest.raises(ValueError, match="in id order"):
            store.put(block_id, np.ones((1, 1)))
    assert store.retained == 1
    assert store.get(0)[0, 0] == 0.0


def test_missing_history_is_an_internal_invariant_violation():
    cfg = make_config(horizon=10, K=3, S=2)
    rollout = Rollout(cfg)
    for _ in range(5):
        rollout.step()
    rollout.store = HistoryStore(capacity=3, block_size=3, frame_dim=4)
    with pytest.raises(InternalInvariantError, match="absent from the history"):
        rollout.step()


class ContextRecorder:
    """Delegates to a denoiser, keeping every Context it is conditioned on."""

    def __init__(self, inner):
        self.inner = inner
        self.contexts = []

    def condition(self, context, block_size):
        self.contexts.append(context)
        return self.inner.condition(context, block_size)

    def estimate(self, noisy, t, state, rng=None):
        return self.inner.estimate(noisy, t, state, rng=rng)


@pytest.mark.parametrize("block_size", [1, 2, 3])
@pytest.mark.parametrize("convention", list(RollConvention))
@pytest.mark.parametrize("policy", list(Policy))
def test_context_is_frame_expand_of_the_stored_blocks(policy, convention, block_size):
    # horizon 30 covers the fill steps (i <= K) and more than a full
    # 2K-slot period of the rolling walk at S=3; block_size 1 takes a
    # reversed slot's rows from a range that ends at row -1
    K, frame_dim = 6, 4
    recorder = ContextRecorder(ContextMeanDenoiser(anchor_weight=0.5,
                                                   innovation_scale=0.1))
    cfg = RolloutConfig(
        policy=PolicyConfig(K=K, S=3, block_size=block_size, policy=policy,
                            roll_convention=convention),
        denoiser=recorder,
        horizon=30,
        frame_dim=frame_dim,
    )
    trace = run(cfg)
    assert len(recorder.contexts) == len(trace.records)
    for record, context in zip(trace.records, recorder.contexts):
        rows, positions = [], []
        for slot in record.schedule.slots:
            block = trace.records[slot.content_id].frames
            for content_frame, position in frame_expand(slot, block_size):
                rows.append(block[content_frame - block_size * slot.content_id])
                positions.append(position)
        assert context.positions.tolist() == positions
        assert np.array_equal(context.values,
                              np.reshape(rows, (len(rows), frame_dim)))


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


def test_analytic_rollout_tracks_its_context():
    # strong correlation keeps consecutive blocks close
    cfg = make_config(denoiser=AnalyticGaussianDenoiser(rho=0.995), horizon=40,
                      frame_dim=1, seed=2)
    trace = run(cfg)
    jumps = [abs(b.mean - a.mean)
             for a, b in zip(trace.records, trace.records[1:])]
    assert np.mean(jumps) < 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(horizon=0)
    with pytest.raises(ValueError):
        make_config(frame_dim=0)
