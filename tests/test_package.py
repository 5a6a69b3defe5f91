"""The package root exports what the README documents and nothing else."""

from __future__ import annotations

import re
from pathlib import Path

import blockroll

README = Path(__file__).resolve().parent.parent / "README.md"

# The names the README documents, and the types its documented values carry.
EXPORTED = {
    "AnalyticGaussianDenoiser", "CacheSlot", "Conditioned", "Context",
    "ContextMeanDenoiser", "DenoiserInterface", "InternalInvariantError", "NoiseSource",
    "NonFiniteBlockError", "Orientation", "Policy", "PolicyConfig", "RollConvention",
    "Rollout", "RolloutConfig", "Schedule", "TimestepSchedule", "TinyAttentionDenoiser",
    "TraceRecord", "flicker_proxy", "frame_expand", "mean_drift", "repetition_score",
    "roll_slot", "run", "schedule_for",
}


def test_the_package_root_exports_the_documented_names():
    assert len(EXPORTED) == 26
    assert set(blockroll.__all__) == EXPORTED
    assert len(blockroll.__all__) == len(EXPORTED)
    assert all(hasattr(blockroll, name) for name in EXPORTED)


def test_every_name_the_readme_uses_resolves_on_the_package():
    used = set(re.findall(r"\bbr\.(\w+)", README.read_text(encoding="utf-8")))
    assert used
    assert used <= set(blockroll.__all__)
