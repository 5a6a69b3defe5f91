"""Slot-by-slot reference for the engine's gather, shared by the engine
tests: Rollout._expand takes a step's recent blocks as one store slice and
its sinks from the rollout's sink strip, and must gather the frames at the
rows and the positions this builds from schedule_for and the store's row
arithmetic, step by step."""

from __future__ import annotations

from blockroll.engine import HistoryStore
from blockroll.schedule import PolicyConfig, frame_expand, schedule_for


def oracle_gather(policy: PolicyConfig, i: int) -> tuple[list[int], list[int]]:
    """Step i's store rows and positions, slot by slot: KeyError for a slot
    whose block a store that has taken i blocks does not hold."""
    store = HistoryStore(policy, 0)  # row arithmetic only
    rows, positions = [], []
    for slot in schedule_for(policy, i).slots:
        if not store.holds(slot.content_id, i):  # step i reads the store after i puts
            raise KeyError(slot.content_id)
        first = store.first_row(slot.content_id)
        for frame, position in frame_expand(slot, policy.block_size):
            rows.append(first + frame - policy.block_size * slot.content_id)
            positions.append(position)
    return rows, positions
