"""Brute-force reference for schedule.roll_slot, shared by the schedule
tests and the acceptance gate."""

from __future__ import annotations

from blockroll.schedule import CacheSlot, Orientation, PolicyConfig, RollConvention


def oracle_boustrophedon(cfg: PolicyConfig, horizon: int) -> list[CacheSlot]:
    """Brute-force reference for roll_slot: simulate the ping-pong walk.

    Walks content ids 0..K-1 forward, then emits a reversed pass (order
    fixed by the roll convention), and repeats, collecting the first
    `horizon` slots with assigned_index = emission position. Kept
    deliberately independent of roll_slot's modular arithmetic.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 (got {horizon})")
    k = cfg.K
    if cfg.roll_convention is RollConvention.PALINDROME:
        backward = list(range(k - 1, -1, -1))
    else:
        # Literal reduction: the reversed pass starts from the wrapped top.
        backward = [k % k] + list(range(k - 1, 0, -1))
    slots: list[CacheSlot] = []
    pos = 0
    while len(slots) < horizon:
        for c in range(k):
            slots.append(CacheSlot(c, Orientation.FORWARD, pos))
            pos += 1
        for c in backward:
            slots.append(CacheSlot(c, Orientation.REVERSED, pos))
            pos += 1
    return slots[:horizon]
