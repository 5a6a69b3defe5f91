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
    InternalInvariantError,
    NonFiniteBlockError,
    Rollout,
    RolloutConfig,
    TraceRecord,
    run,
)
from .metrics import flicker_proxy, mean_drift, repetition_score
from .sampler import NoiseSource, TimestepSchedule
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
    "frame_expand",
    "mean_drift",
    "repetition_score",
    "roll_slot",
    "run",
    "schedule_for",
]
