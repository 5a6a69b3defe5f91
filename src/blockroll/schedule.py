"""Cache-conditioning schedules for blockwise autoregressive rollout.

Every policy answers the same question: at generation step ``i``, which
previously generated blocks fill the K cache slots, in which orientation,
and under which block-time index. Everything here is pure index
arithmetic; no frame data is touched.

Policies:

* ``SLIDING_WINDOW``  — the last K blocks at their native indices.
* ``ATTENTION_SINK``  — pin the first S blocks forever (static prefix),
  plus the last K-S recent blocks.
* ``SLIDING_INDICES`` — same pinned content as the attention sink, but the
  sink blocks' time indices are remapped to a window that slides along the
  global time axis just before the recent blocks.
* ``ROLLING_SINK``    — sink slots additionally refresh their *content* as a
  moving segment over the first K blocks, alternating forward and
  frame-reversed orientation (a boustrophedon walk), so both indices and
  semantics keep sliding while memory stays bounded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Policy(enum.Enum):
    SLIDING_WINDOW = "sliding-window"
    ATTENTION_SINK = "attention-sink"
    SLIDING_INDICES = "sliding-indices"
    ROLLING_SINK = "rolling-sink"


class RollConvention(enum.Enum):
    """How the reversed leg of the boustrophedon walk indexes content.

    The walk alternates a forward pass over blocks 0..K-1 with a reversed
    pass. PALINDROME reflects off the ends (…, K-2, K-1, K-1, K-2, …),
    which keeps the frame-level walk continuous. LITERAL_MOD reduces the
    raw index K - (l mod K) modulo K, so the reversed pass starts at block
    0 instead of K-1 (discontinuous, kept for comparison).
    """

    PALINDROME = "palindrome"
    LITERAL_MOD = "literal-mod"


class Orientation(enum.Enum):
    FORWARD = "F"
    REVERSED = "R"


@dataclass(frozen=True)
class PolicyConfig:
    """Cache geometry and policy selection.

    K is the total cache capacity in blocks, S the number of sink slots.
    S = K is rejected: at least one recent slot is required, otherwise the
    conditioning context would never contain the immediately preceding
    block.
    """

    K: int = 6
    S: int = 5
    block_size: int = 3
    policy: Policy = Policy.ROLLING_SINK
    roll_convention: RollConvention = RollConvention.PALINDROME

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError(f"K must be >= 1 (got K={self.K})")
        if not 0 <= self.S < self.K:
            raise ValueError(
                f"S must be < K and >= 0 (got S={self.S}, K={self.K}); "
                "at least one recent slot is required"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1 (got {self.block_size})")


@dataclass(frozen=True)
class CacheSlot:
    """One conditioning slot: which block's content, which way round,
    and the block-time index used for positional embedding."""

    content_id: int
    orientation: Orientation
    assigned_index: int


@dataclass(frozen=True)
class Schedule:
    """Ordered conditioning plan for one step: sink slots first, then
    recent slots. Assigned indices are strictly increasing."""

    step: int
    slots: tuple[CacheSlot, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.slots)


def window_schedule(cfg: PolicyConfig, i: int) -> Schedule:
    """Last-K window: blocks [max(0, i-K), i), forward, native indices."""
    if i < 0:
        raise ValueError(f"step index must be >= 0 (got {i})")
    slots = tuple(
        CacheSlot(b, Orientation.FORWARD, b) for b in range(max(0, i - cfg.K), i)
    )
    return Schedule(step=i, slots=slots)


def sink_schedule(cfg: PolicyConfig, i: int) -> Schedule:
    """Static prefix of the first S blocks, then the last K-S recent blocks,
    everything at native indices."""
    if i <= cfg.K:
        return window_schedule(cfg, i)
    sink = tuple(CacheSlot(b, Orientation.FORWARD, b) for b in range(cfg.S))
    recent = tuple(
        CacheSlot(b, Orientation.FORWARD, b) for b in range(i - (cfg.K - cfg.S), i)
    )
    return Schedule(step=i, slots=sink + recent)


def sliding_index_schedule(cfg: PolicyConfig, i: int) -> Schedule:
    """Sink content stays the first S blocks, but sink slot l is re-embedded
    at index i-K+l, so assigned indices cover the contiguous range [i-K, i)."""
    if i <= cfg.K:
        return window_schedule(cfg, i)
    sink = tuple(
        CacheSlot(l, Orientation.FORWARD, i - cfg.K + l) for l in range(cfg.S)
    )
    recent = tuple(
        CacheSlot(b, Orientation.FORWARD, b) for b in range(i - (cfg.K - cfg.S), i)
    )
    return Schedule(step=i, slots=sink + recent)


def roll_slot(cfg: PolicyConfig, l: int) -> CacheSlot:
    """Slot l of the infinite rolling walk over blocks [0, K).

    Cycle floor(l/K) even: forward pass, content l mod K. Cycle odd:
    reversed pass, content chosen by the roll convention. Periodic in l
    with period 2K; assigned_index is always l itself.
    """
    if l < 0:
        raise ValueError(f"slot index must be >= 0 (got {l})")
    k = cfg.K
    if (l // k) % 2 == 0:
        return CacheSlot(l % k, Orientation.FORWARD, l)
    if cfg.roll_convention is RollConvention.PALINDROME:
        content = k - 1 - (l % k)
    else:
        content = (k - (l % k)) % k
    return CacheSlot(content, Orientation.REVERSED, l)


def rolling_sink_schedule(cfg: PolicyConfig, i: int) -> Schedule:
    """Sink slots are the rolling-walk slots for l in [i-K, i-(K-S)), then
    the last K-S recent blocks at native indices."""
    if i <= cfg.K:
        return window_schedule(cfg, i)
    sink = tuple(roll_slot(cfg, l) for l in range(i - cfg.K, i - (cfg.K - cfg.S)))
    recent = tuple(
        CacheSlot(b, Orientation.FORWARD, b) for b in range(i - (cfg.K - cfg.S), i)
    )
    return Schedule(step=i, slots=sink + recent)


_DISPATCH = {
    Policy.SLIDING_WINDOW: window_schedule,
    Policy.ATTENTION_SINK: sink_schedule,
    Policy.SLIDING_INDICES: sliding_index_schedule,
    Policy.ROLLING_SINK: rolling_sink_schedule,
}


def schedule_for(cfg: PolicyConfig, i: int) -> Schedule:
    """Build the conditioning schedule for step i under cfg.policy."""
    return _DISPATCH[cfg.policy](cfg, i)


def frame_expand(slot: CacheSlot, block_size: int) -> list[tuple[int, int]]:
    """Expand a block slot into (frame_content_id, frame_position) pairs.

    Forward slots pair frame block_size*content + k with position
    block_size*assigned + k; reversed slots pair the block's frames in
    reverse content order against the same ascending positions.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1 (got {block_size})")
    base_c = block_size * slot.content_id
    base_p = block_size * slot.assigned_index
    if slot.orientation is Orientation.FORWARD:
        return [(base_c + k, base_p + k) for k in range(block_size)]
    return [(base_c + (block_size - 1 - k), base_p + k) for k in range(block_size)]
