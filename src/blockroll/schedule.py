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
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple


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

    def sink_slots(self, i: int) -> int:
        """How many sink slots step i's schedule opens with: S past step K
        under a sink policy, else 0. So every policy schedules steps 0..K
        alike, and a sink policy with S = 0 schedules as the sliding window."""
        return self.S if i > self.K and self.policy is not _SLIDING_WINDOW else 0


class CacheSlot(NamedTuple):
    """One conditioning slot: which block's content, which way round,
    and the block-time index used for positional embedding."""

    content_id: int
    orientation: Orientation
    assigned_index: int


@dataclass(frozen=True)
class Schedule:
    """Ordered conditioning plan for one step: sink slots first, then
    recent slots. Assigned indices are strictly increasing."""

    slots: tuple[CacheSlot, ...]


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


def schedule_for(cfg: PolicyConfig, i: int) -> Schedule:
    """The conditioning schedule for step i under cfg.policy: its s =
    cfg.sink_slots(i) sink slots, then blocks [max(0, i-K) + s, i), forward,
    at native indices. ATTENTION_SINK pins blocks [0, s) at native indices;
    SLIDING_INDICES pins the same blocks at indices [i-K, i-K+s); ROLLING_SINK
    takes the rolling-walk slots l in [i-K, i-K+s).
    """
    if i < 0:
        raise ValueError(f"step index must be >= 0 (got {i})")
    s = cfg.sink_slots(i)
    first = max(0, i - cfg.K) + s
    if cfg.policy is _ATTENTION_SINK:
        sink = tuple(CacheSlot(b, Orientation.FORWARD, b) for b in range(s))
    elif cfg.policy is _SLIDING_INDICES:
        sink = tuple(CacheSlot(b, Orientation.FORWARD, i - cfg.K + b) for b in range(s))
    else:  # ROLLING_SINK, and SLIDING_WINDOW, whose s is 0
        sink = tuple(roll_slot(cfg, l) for l in range(first - s, first))
    recent = tuple(CacheSlot(b, Orientation.FORWARD, b) for b in range(first, i))
    return Schedule(sink + recent)


_FORWARD = Orientation.FORWARD.value
# the members in definition order: a member read through its enum class is slow
_SLIDING_WINDOW, _ATTENTION_SINK, _SLIDING_INDICES, _ROLLING_SINK = Policy


class SlotWalk:
    """The rendered slots of steps' schedules, slid from step to step.

    A schedule is its sink slots, then its recent blocks, each held as the
    string that `render((content_id, orientation value, assigned_index))`
    gives, rendered once, when it enters. Steps come one after another, as in a
    trace. A step of the PolicyConfig object last walked slides while the sinks
    hold its policy.sink_slots(i) slots: the recent blocks gain block i-1 and
    drop the oldest past their bound, and the sinks move as the policy moves
    them. Any other step reseats both from schedule_for in O(K): a first step,
    another policy (a fork's), and step K+1, where a sink policy's sinks appear.
    """

    def __init__(self, render):
        self.render = render
        self.policy: PolicyConfig | None = None  # walked last
        self.sinks: deque[str] = deque()
        self.recent: deque[str] = deque()

    def slots(self, policy: PolicyConfig, i: int) -> list[str]:
        """Step i's rendered slots under policy, in schedule order."""
        render, K, s = self.render, policy.K, policy.sink_slots(i)
        if policy is self.policy and len(self.sinks) == s:
            self.recent.append(render((i - 1, _FORWARD, i - 1)))
            if s and policy.policy is _ROLLING_SINK:
                content, orientation, index = roll_slot(policy, i - K + s - 1)
                self.sinks.append(render((content, orientation.value, index)))
            elif s and policy.policy is _SLIDING_INDICES:
                self.sinks.extend(map(render, zip(range(s), repeat(_FORWARD, s),
                                                  range(i - K, i - K + s))))
        else:
            texts = [render((content, orientation.value, index))
                     for content, orientation, index in schedule_for(policy, i).slots]
            self.sinks = deque(texts[:s], maxlen=s)
            self.recent = deque(texts[s:], maxlen=K - s)
            self.policy = policy
        return [*self.sinks, *self.recent]


def frame_expand(slot: CacheSlot, block_size: int) -> list[tuple[int, int]]:
    """Expand a block slot into (frame_content_id, frame_position) pairs.

    Forward slots pair frame block_size*content + k with position
    block_size*assigned + k; reversed slots pair the block's frames in
    reverse content order against the same ascending positions.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1 (got {block_size})")
    first, position = block_size * slot.content_id, block_size * slot.assigned_index
    frames = range(first, first + block_size)
    if slot.orientation is Orientation.REVERSED:
        frames = frames[::-1]
    return list(zip(frames, range(position, position + block_size)))
