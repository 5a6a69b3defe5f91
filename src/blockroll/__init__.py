"""Blockwise autoregressive rollout with bounded-cache scheduling policies."""

from .denoisers import (
    AnalyticGaussianDenoiser,
    Conditioned,
    Context,
    ContextMeanDenoiser,
    DenoiserInterface,
    TinyAttentionDenoiser,
)
from .engine import (
    HistoryStore,
    InternalInvariantError,
    NonFiniteBlockError,
    Rollout,
    RolloutConfig,
    TraceRecord,
    run,
)
from .metrics import flicker_proxy, mean_drift, repetition_score
from .rope import pair_frequencies, rotate
from .sampler import NoiseSource, TimestepSchedule, forward_noise, sample_block, sigma
from .schedule import (
    CacheSlot,
    Orientation,
    Policy,
    PolicyConfig,
    RollConvention,
    Schedule,
    frame_expand,
    roll_slot,
    schedule_for,
)

__all__ = [
    "AnalyticGaussianDenoiser",
    "CacheSlot",
    "Conditioned",
    "Context",
    "ContextMeanDenoiser",
    "DenoiserInterface",
    "HistoryStore",
    "InternalInvariantError",
    "NoiseSource",
    "NonFiniteBlockError",
    "Orientation",
    "Policy",
    "PolicyConfig",
    "RollConvention",
    "Rollout",
    "RolloutConfig",
    "Schedule",
    "TimestepSchedule",
    "TinyAttentionDenoiser",
    "TraceRecord",
    "flicker_proxy",
    "forward_noise",
    "frame_expand",
    "mean_drift",
    "pair_frequencies",
    "repetition_score",
    "roll_slot",
    "rotate",
    "run",
    "sample_block",
    "schedule_for",
    "sigma",
]
