"""Schedule policy unit tests: worked examples plus exhaustive invariants."""

from __future__ import annotations

import pytest

from blockroll.schedule import (
    CacheSlot,
    Orientation,
    Policy,
    PolicyConfig,
    RollConvention,
    frame_expand,
    roll_slot,
    schedule_for,
)
from walk_oracle import oracle_boustrophedon

F = Orientation.FORWARD
R = Orientation.REVERSED


def cfg(K=6, S=2, block_size=3, policy=Policy.ROLLING_SINK,
        convention=RollConvention.PALINDROME) -> PolicyConfig:
    return PolicyConfig(K=K, S=S, block_size=block_size, policy=policy,
                        roll_convention=convention)


def as_tuples(schedule):
    return [(s.content_id, s.orientation, s.assigned_index) for s in schedule.slots]


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------

def test_sink_equal_to_capacity_is_rejected():
    with pytest.raises(ValueError, match="S must be < K"):
        PolicyConfig(K=6, S=6)


def test_negative_sink_is_rejected():
    with pytest.raises(ValueError):
        PolicyConfig(K=6, S=-1)


def test_zero_capacity_is_rejected():
    with pytest.raises(ValueError):
        PolicyConfig(K=0, S=0)


def test_zero_block_size_is_rejected():
    with pytest.raises(ValueError):
        PolicyConfig(K=6, S=2, block_size=0)


def test_defaults_match_contract():
    c = PolicyConfig()
    assert (c.K, c.S, c.block_size) == (6, 5, 3)
    assert c.roll_convention is RollConvention.PALINDROME


# --------------------------------------------------------------------------
# sliding window
# --------------------------------------------------------------------------

def test_window_empty_at_step_zero():
    assert schedule_for(cfg(policy=Policy.SLIDING_WINDOW), 0).slots == ()


def test_window_clamps_to_available_history():
    assert as_tuples(schedule_for(cfg(policy=Policy.SLIDING_WINDOW), 3)) == [
        (0, F, 0), (1, F, 1), (2, F, 2),
    ]


def test_window_keeps_last_k_blocks():
    assert as_tuples(schedule_for(cfg(policy=Policy.SLIDING_WINDOW), 10)) == [
        (b, F, b) for b in range(4, 10)
    ]


def test_window_rejects_negative_step():
    with pytest.raises(ValueError):
        schedule_for(cfg(policy=Policy.SLIDING_WINDOW), -1)


def test_every_policy_rejects_negative_step():
    for policy in Policy:
        with pytest.raises(ValueError, match="step index must be >= 0"):
            schedule_for(cfg(policy=policy), -1)


# --------------------------------------------------------------------------
# attention sink
# --------------------------------------------------------------------------

def test_sink_pins_prefix_at_native_indices():
    assert as_tuples(schedule_for(cfg(K=6, S=2, policy=Policy.ATTENTION_SINK), 10)) == [
        (0, F, 0), (1, F, 1), (6, F, 6), (7, F, 7), (8, F, 8), (9, F, 9),
    ]


def test_sink_at_capacity_boundary_is_full_history():
    assert as_tuples(schedule_for(cfg(K=6, S=2, policy=Policy.ATTENTION_SINK), 6)) == [
        (b, F, b) for b in range(6)
    ]


# --------------------------------------------------------------------------
# sliding indices
# --------------------------------------------------------------------------

def test_sliding_indices_remaps_sink_positions():
    assert as_tuples(schedule_for(cfg(K=6, S=2, policy=Policy.SLIDING_INDICES), 10)) == [
        (0, F, 4), (1, F, 5), (6, F, 6), (7, F, 7), (8, F, 8), (9, F, 9),
    ]


def test_sliding_indices_one_past_capacity():
    assert as_tuples(schedule_for(cfg(K=6, S=2, policy=Policy.SLIDING_INDICES), 7)) == [
        (0, F, 1), (1, F, 2), (3, F, 3), (4, F, 4), (5, F, 5), (6, F, 6),
    ]


def test_sliding_indices_matches_sink_at_capacity():
    assert (schedule_for(cfg(K=6, S=2, policy=Policy.SLIDING_INDICES), 6)
            == schedule_for(cfg(K=6, S=2, policy=Policy.ATTENTION_SINK), 6))


# --------------------------------------------------------------------------
# roll operator
# --------------------------------------------------------------------------

@pytest.mark.parametrize("l", [-1, -7])
def test_roll_rejects_a_negative_slot_index(l):
    with pytest.raises(ValueError, match=rf"^slot index must be >= 0 \(got {l}\)$"):
        roll_slot(cfg(), l)


def test_roll_even_cycle_is_forward_identity():
    assert roll_slot(cfg(), 4) == CacheSlot(4, F, 4)


def test_roll_odd_cycle_conventions_differ():
    assert roll_slot(cfg(), 8) == CacheSlot(3, R, 8)
    assert roll_slot(cfg(convention=RollConvention.LITERAL_MOD), 8) == CacheSlot(4, R, 8)


def test_roll_returns_to_start_after_two_cycles():
    assert roll_slot(cfg(), 12) == CacheSlot(0, F, 12)


@pytest.mark.parametrize("convention", list(RollConvention))
def test_roll_is_periodic_with_period_two_cycles(convention):
    for K in range(1, 9):
        c = cfg(K=K, S=0, convention=convention)
        for l in range(4 * K):
            a = roll_slot(c, l)
            b = roll_slot(c, l + 2 * K)
            assert (a.content_id, a.orientation) == (b.content_id, b.orientation)
            assert b.assigned_index == l + 2 * K


@pytest.mark.parametrize("convention", list(RollConvention))
def test_roll_matches_walk_oracle(convention):
    for K in range(1, 9):
        c = cfg(K=K, S=0, convention=convention)
        oracle = oracle_boustrophedon(c, 10 * K)
        for l, expected in enumerate(oracle):
            assert roll_slot(c, l) == expected, f"K={K} l={l} {convention}"


def test_walk_oracle_ping_pong_for_two_blocks():
    walk = [(s.content_id, s.orientation) for s in
            oracle_boustrophedon(cfg(K=2, S=1), 8)]
    assert walk == [(0, F), (1, F), (1, R), (0, R), (0, F), (1, F), (1, R), (0, R)]


def test_walk_oracle_single_block_alternates_orientation():
    walk = [(s.content_id, s.orientation) for s in
            oracle_boustrophedon(cfg(K=1, S=0), 3)]
    assert walk == [(0, F), (0, R), (0, F)]


def test_walk_oracle_even_cycle_is_convention_independent():
    for convention in RollConvention:
        walk = oracle_boustrophedon(cfg(K=6, convention=convention), 6)
        assert [(s.content_id, s.orientation) for s in walk] == [
            (b, F) for b in range(6)
        ]


# --------------------------------------------------------------------------
# rolling sink
# --------------------------------------------------------------------------

def test_rolling_sink_even_cycle_coincides_with_window():
    assert as_tuples(schedule_for(cfg(K=6, S=2, policy=Policy.ROLLING_SINK), 10)) == [
        (4, F, 4), (5, F, 5), (6, F, 6), (7, F, 7), (8, F, 8), (9, F, 9),
    ]


def test_rolling_sink_odd_cycle_reverses_content():
    assert as_tuples(schedule_for(cfg(K=6, S=2, policy=Policy.ROLLING_SINK), 14)) == [
        (3, R, 8), (2, R, 9), (10, F, 10), (11, F, 11), (12, F, 12), (13, F, 13),
    ]


def test_rolling_sink_default_ratio_one_past_capacity():
    assert as_tuples(schedule_for(cfg(K=6, S=5, policy=Policy.ROLLING_SINK), 7)) == [
        (1, F, 1), (2, F, 2), (3, F, 3), (4, F, 4), (5, F, 5), (6, F, 6),
    ]


# --------------------------------------------------------------------------
# frame expansion
# --------------------------------------------------------------------------

@pytest.mark.parametrize("block_size", [0, -1])
def test_frame_expand_rejects_a_block_size_below_one(block_size):
    with pytest.raises(ValueError, match=rf"^block_size must be >= 1 \(got {block_size}\)$"):
        frame_expand(CacheSlot(0, F, 0), block_size)


def test_frame_expand_forward_identity_when_index_is_native():
    assert frame_expand(CacheSlot(2, F, 2), 3) == [(6, 6), (7, 7), (8, 8)]


def test_frame_expand_reversed_with_shifted_index():
    assert frame_expand(CacheSlot(4, R, 8), 3) == [(14, 24), (13, 25), (12, 26)]


def test_frame_expand_forward_with_shifted_index():
    assert frame_expand(CacheSlot(0, F, 4), 3) == [(0, 12), (1, 13), (2, 14)]


def test_frame_expand_positions_always_ascend():
    for orientation in Orientation:
        for block_size in (1, 2, 3, 5):
            pairs = frame_expand(CacheSlot(3, orientation, 7), block_size)
            positions = [p for _, p in pairs]
            assert positions == sorted(positions)
            assert len(set(positions)) == block_size


def test_palindrome_walk_is_frame_continuous():
    # Frame ids along the rolled walk move by at most one step; the only
    # zero-diffs are the repeated boundary frames at reflection points.
    block_size = 3
    for K in (1, 2, 3, 6):
        c = cfg(K=K, S=0)
        frames = []
        for l in range(6 * K):
            frames.extend(fc for fc, _ in frame_expand(roll_slot(c, l), block_size))
        diffs = [b - a for a, b in zip(frames, frames[1:])]
        period = block_size * K
        for idx, d in enumerate(diffs):
            if (idx + 1) % period == 0:
                assert d == 0, f"K={K}: expected repeat at reflection {idx}"
            else:
                assert abs(d) == 1, f"K={K}: jump {d} at {idx}"


# --------------------------------------------------------------------------
# cross-policy invariants
# --------------------------------------------------------------------------

ALL_POLICIES = list(Policy)


def test_slot_count_is_min_step_capacity():
    for policy in ALL_POLICIES:
        for K in range(2, 9):
            for S in range(K):
                c = cfg(K=K, S=S, policy=policy)
                for i in range(0, 20 * K + 1):
                    assert len(schedule_for(c, i).slots) == min(i, K)


def test_assigned_indices_strictly_increase_and_are_unique():
    for policy in ALL_POLICIES:
        for K in (2, 5, 8):
            for S in range(K):
                c = cfg(K=K, S=S, policy=policy)
                for i in range(0, 6 * K):
                    idx = [s.assigned_index for s in schedule_for(c, i).slots]
                    assert idx == sorted(set(idx))


def test_translating_policies_cover_contiguous_index_range():
    for policy in (Policy.SLIDING_INDICES, Policy.ROLLING_SINK):
        for K in range(2, 9):
            for S in range(K):
                c = cfg(K=K, S=S, policy=policy)
                for i in range(K + 1, 8 * K):
                    idx = [s.assigned_index for s in schedule_for(c, i).slots]
                    assert idx == list(range(i - K, i)), (policy, K, S, i)


def test_attention_sink_index_multiset():
    for K in range(2, 9):
        for S in range(K):
            c = cfg(K=K, S=S, policy=Policy.ATTENTION_SINK)
            for i in range(K + 1, 8 * K):
                idx = sorted(s.assigned_index for s in schedule_for(c, i).slots)
                assert idx == sorted(
                    list(range(S)) + list(range(i - (K - S), i))
                ), (K, S, i)


def test_rolling_sink_content_ranges():
    for K in range(2, 9):
        for S in range(K):
            for convention in RollConvention:
                c = cfg(K=K, S=S, policy=Policy.ROLLING_SINK, convention=convention)
                for i in range(K + 1, 8 * K):
                    slots = schedule_for(c, i).slots
                    for slot in slots[:S]:
                        assert 0 <= slot.content_id < K
                    for slot in slots[S:]:
                        assert i - (K - S) <= slot.content_id < i
                        assert slot.orientation is F


def test_reversed_orientation_only_under_rolling_sink():
    for policy in (Policy.SLIDING_WINDOW, Policy.ATTENTION_SINK,
                   Policy.SLIDING_INDICES):
        for K in (3, 6):
            c = cfg(K=K, S=K - 1, policy=policy)
            for i in range(0, 5 * K):
                assert all(s.orientation is F for s in schedule_for(c, i).slots)


def test_all_policies_agree_during_warmup():
    for K in range(1, 9):
        for S in range(K):
            window = cfg(K=K, S=S, policy=Policy.SLIDING_WINDOW)
            reference = [schedule_for(window, i) for i in range(K + 1)]
            for policy in ALL_POLICIES:
                c = cfg(K=K, S=S, policy=policy)
                assert [schedule_for(c, i) for i in range(K + 1)] == reference


def test_sink_slots_open_past_step_k_under_a_sink_policy():
    # the one rule for when a step reads sinks, so a sink policy with S = 0
    # schedules every step as the sliding window (attention-sink, K = 6, step
    # 10, among them)
    for K in range(1, 8):
        for S in range(K):
            for policy in ALL_POLICIES:
                for convention in RollConvention:
                    c = cfg(K=K, S=S, policy=policy, convention=convention)
                    zero = cfg(K=K, S=0, policy=policy, convention=convention)
                    window = cfg(K=K, S=0, policy=Policy.SLIDING_WINDOW,
                                 convention=convention)
                    for i in range(3 * K + 3):
                        s = c.sink_slots(i)
                        assert s == (0 if i <= K or policy is Policy.SLIDING_WINDOW else S)
                        recent = range(max(0, i - K) + s, i)
                        assert as_tuples(schedule_for(c, i))[s:] == [
                            (b, F, b) for b in recent]
                        assert schedule_for(zero, i) == schedule_for(window, i)


def test_schedules_are_pure():
    c = cfg(K=6, S=3, policy=Policy.ROLLING_SINK)
    assert schedule_for(c, 23) == schedule_for(c, 23)
    assert roll_slot(c, 17) == roll_slot(c, 17)
