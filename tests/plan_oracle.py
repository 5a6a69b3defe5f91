"""Slot-by-slot reference for the engine's gather, shared by the engine
tests: Rollout._expand takes a step's recent blocks as one store slice and
its sinks from the rollout's sink strip, and must gather the frames and the
positions this builds from schedule_for and frame_expand alone, step by
step, without the store's row arithmetic."""

from __future__ import annotations

from blockroll.schedule import PolicyConfig, frame_expand, schedule_for


def oracle_gather(policy: PolicyConfig, i: int) -> tuple[list[int], list[int]]:
    """Step i's frame ids (block_size * content + offset) and positions, slot
    by slot: KeyError for a slot whose block step i has not generated."""
    frames, positions = [], []
    for slot in schedule_for(policy, i).slots:
        if not 0 <= slot.content_id < i:
            raise KeyError(slot.content_id)
        for frame, position in frame_expand(slot, policy.block_size):
            frames.append(frame)
            positions.append(position)
    return frames, positions
