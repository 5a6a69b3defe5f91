"""Golden behaviour: short rollouts under every policy and roll convention,
checked against values recorded from the implementation in which every
denoising level re-derived its state from per-frame context objects.

Trace bytes of the analytic and context-mean denoisers must match exactly.
Tiny-attention frames may differ in low bits (its projections are fused and
its context keys computed once per step), within ATTENTION_TOLERANCE.

Sweep CSV bytes must match exactly: they were recorded from the sweep that
ran one fill per (seed, fill length) and one run per S = 0 (horizon, seed).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from blockroll import cli
from blockroll.cli import write_trace
from blockroll.denoisers import (
    AnalyticGaussianDenoiser,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from blockroll.engine import RolloutConfig, run
from blockroll.schedule import Policy, PolicyConfig, RollConvention

ATTENTION_TOLERANCE = 1e-9  # max |delta| per frame value
FRAMES_FILE = Path(__file__).with_name("golden_attention_frames.json")

DENOISERS = {
    "analytic-gaussian": lambda: AnalyticGaussianDenoiser(rho=0.9),
    "context-mean": lambda: ContextMeanDenoiser(anchor_weight=0.6,
                                                innovation_scale=0.2, bias=0.05),
    "tiny-attention": lambda: TinyAttentionDenoiser(frame_dim=4),
}

TRACE_SHA256 = {
    ("analytic-gaussian", "sliding-window", "palindrome"):
        "9965da451b2e98b5ee4656ba4d842a28ac71c5ba3dcb0a3eaef918471d828deb",
    ("analytic-gaussian", "sliding-window", "literal-mod"):
        "9965da451b2e98b5ee4656ba4d842a28ac71c5ba3dcb0a3eaef918471d828deb",
    ("analytic-gaussian", "attention-sink", "palindrome"):
        "789c3f42dc391d456e424eb473e4bafd2f157b44978579705ef03b5e9d9fd6e7",
    ("analytic-gaussian", "attention-sink", "literal-mod"):
        "789c3f42dc391d456e424eb473e4bafd2f157b44978579705ef03b5e9d9fd6e7",
    ("analytic-gaussian", "sliding-indices", "palindrome"):
        "8b913295c74412e693b349f11c68902313df0af4445d36458c0763f416a15464",
    ("analytic-gaussian", "sliding-indices", "literal-mod"):
        "8b913295c74412e693b349f11c68902313df0af4445d36458c0763f416a15464",
    ("analytic-gaussian", "rolling-sink", "palindrome"):
        "fd1c6bba036631a7991ce03aeeb4dc1a3b70fb57fa8c92fb861a910930281327",
    ("analytic-gaussian", "rolling-sink", "literal-mod"):
        "c1e15554d9ddd0aeb46f63ade0230373d3e65e763fe83e176310474566ef5d9b",
    ("context-mean", "sliding-window", "palindrome"):
        "f800377ce6675d97af873ccc8e022743301b5eebc7ac4f1ac580295be0a7af70",
    ("context-mean", "sliding-window", "literal-mod"):
        "f800377ce6675d97af873ccc8e022743301b5eebc7ac4f1ac580295be0a7af70",
    ("context-mean", "attention-sink", "palindrome"):
        "6491ea19cf06f6d39c07a453116fdcff2fb3184763011c49b7aff0378f1c3777",
    ("context-mean", "attention-sink", "literal-mod"):
        "6491ea19cf06f6d39c07a453116fdcff2fb3184763011c49b7aff0378f1c3777",
    ("context-mean", "sliding-indices", "palindrome"):
        "74191e70ad909e5663bbf20f99385fa6cd1c01299816f326c8de4420db5e870b",
    ("context-mean", "sliding-indices", "literal-mod"):
        "74191e70ad909e5663bbf20f99385fa6cd1c01299816f326c8de4420db5e870b",
    ("context-mean", "rolling-sink", "palindrome"):
        "02e074f20a458a6e5ef55434173c5f13966568c663ae36fecad48f277b698e73",
    ("context-mean", "rolling-sink", "literal-mod"):
        "e9339f0f47353be17b61f5fc194c6a0c3695020e8454cf60dc7cb004539bbafa",
}


SWEEP_GEOMETRY = "K = 6\nS = 5\nblock_size = 3\nframe_dim = 4\nseed = 7\nhorizon = 12\n"

# horizons below, at and past the fill's K + 1 = 7 steps
SWEEPS = {
    "context-mean": (
        "denoiser = context-mean\nanchor_weight = 0.6\ninnovation_scale = 0.2\nbias = 0.05\n",
        ["--horizons", "1,6,7,8,24", "--seeds", "2"]),
    "analytic-gaussian": (
        "denoiser = analytic-gaussian\nrho = 0.9\nconvention = literal-mod\n",
        ["--ratios", "0,50", "--horizons", "1,7,30", "--seeds", "2", "--window", "3"]),
    "tiny-attention": (
        "denoiser = tiny-attention\n",
        ["--ratios", "0,33", "--horizons", "2,7,27", "--seeds", "2"]),
}

SWEEP_SHA256 = {
    "context-mean": "4d5bbcde3d8e6ec0cecb3847e02fc58c0f07f33e3deb6157410be61ae7f2cb19",
    "analytic-gaussian": "c3e3e212d21caecde89f5c356e73184c9cb5213506328a1fd1aa8229d312e260",
    "tiny-attention": "e1eb43aa656c56edd58bdebc2eead2331cbc287136dd78f507a2e43fc004df2b",
}


def golden_run(denoiser: str, policy: Policy, convention: RollConvention):
    # horizon 12 reaches the rolling walk's reversed leg (steps >= 8 at S=5),
    # where the two conventions differ
    return run(RolloutConfig(
        policy=PolicyConfig(K=6, S=5, block_size=3, policy=policy,
                            roll_convention=convention),
        denoiser=DENOISERS[denoiser](),
        horizon=12,
        seed=7,
        frame_dim=4,
    ))


@pytest.mark.parametrize("convention", list(RollConvention))
@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("denoiser", ["analytic-gaussian", "context-mean"])
def test_trace_bytes_match_golden(tmp_path, denoiser, policy, convention):
    path = tmp_path / "trace.jsonl"
    write_trace(golden_run(denoiser, policy, convention), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[(denoiser, policy.value, convention.value)]


@pytest.mark.parametrize("convention", list(RollConvention))
@pytest.mark.parametrize("policy", list(Policy))
def test_attention_frames_match_golden(policy, convention):
    golden = json.loads(FRAMES_FILE.read_text())[f"{policy.value}/{convention.value}"]
    trace = golden_run("tiny-attention", policy, convention)
    frames = np.array([record.frames for record in trace])
    assert frames.shape == np.shape(golden)
    assert np.abs(frames - np.array(golden)).max() <= ATTENTION_TOLERANCE


@pytest.mark.parametrize("denoiser", sorted(SWEEPS))
def test_sweep_bytes_match_golden(tmp_path, denoiser):
    text, argv = SWEEPS[denoiser]
    config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    config.write_text(SWEEP_GEOMETRY + text)
    assert cli.main(["sweep", str(config), *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[denoiser]
