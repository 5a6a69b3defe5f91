"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import time

import numpy as np

from blockroll import cli
from blockroll.denoisers import (
    AnalyticGaussianDenoiser,
    Context,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from blockroll.engine import Rollout, RolloutConfig, run
from blockroll.metrics import mean_drift
from blockroll.rope import pair_frequencies, rotate
from blockroll.schedule import (
    Policy,
    PolicyConfig,
    RollConvention,
    roll_slot,
    schedule_for,
)
from walk_oracle import oracle_boustrophedon


def _report(name: str, started: float, budget_s: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded {budget_s}s budget"
    print(f"PASS  {name}  ({elapsed:.2f}s)")


def test_roll_oracle_equivalence():
    started = time.monotonic()
    for convention in RollConvention:
        for K in range(1, 9):
            cfg = PolicyConfig(K=K, S=0, roll_convention=convention)
            walk = oracle_boustrophedon(cfg, 10 * K)
            for l in range(10 * K):
                assert roll_slot(cfg, l) == walk[l], (convention, K, l)
    _report("roll oracle equivalence", started, 1.0)


def test_schedule_shape_suite():
    started = time.monotonic()
    for policy in Policy:
        for K in range(2, 9):
            for S in range(K):
                cfg = PolicyConfig(K=K, S=S, policy=policy)
                for i in range(0, 20 * K + 1):
                    slots = schedule_for(cfg, i).slots
                    assert len(slots) == min(i, K)
                    if i <= K:
                        continue
                    indices = [s.assigned_index for s in slots]
                    if policy in (Policy.SLIDING_INDICES, Policy.ROLLING_SINK):
                        assert indices == list(range(i - K, i))
                    elif policy is Policy.ATTENTION_SINK:
                        assert sorted(indices) == sorted(
                            list(range(S)) + list(range(i - (K - S), i))
                        )
                    if policy is Policy.ROLLING_SINK:
                        assert all(0 <= s.content_id < K for s in slots[:S])
    _report("schedule shape suite", started, 5.0)


def test_warmup_equivalence():
    started = time.monotonic()
    for K in range(1, 9):
        for S in range(K):
            configs = [
                PolicyConfig(K=K, S=S, policy=policy) for policy in Policy
            ]
            for i in range(K + 1):
                schedules = [schedule_for(cfg, i) for cfg in configs]
                assert all(s == schedules[0] for s in schedules[1:]), (K, S, i)
    _report("warm-up equivalence", started, 5.0)


def test_rope_properties():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    dim = 24
    freqs = pair_frequencies(dim)
    for _ in range(120):
        v = rng.standard_normal(dim)
        m = int(rng.integers(0, 100_000))
        assert abs(np.linalg.norm(rotate(freqs, v, m)) - np.linalg.norm(v)) \
            <= 1e-12 * np.linalg.norm(v)
    for _ in range(120):
        q = rng.standard_normal(dim)
        k = rng.standard_normal(dim)
        m, n, d = (int(x) for x in rng.integers(0, 10_000, size=3))
        lhs = rotate(freqs, q, m + d) @ rotate(freqs, k, n + d)
        rhs = rotate(freqs, q, m) @ rotate(freqs, k, n)
        assert abs(lhs - rhs) < 1e-9
    for _ in range(120):
        v = rng.standard_normal(dim)
        m, n = (int(x) for x in rng.integers(0, 10_000, size=2))
        assert np.abs(rotate(freqs, rotate(freqs, v, m), n)
                      - rotate(freqs, v, m + n)).max() < 1e-9
    _report("rotary embedding properties", started, 10.0)


def test_attention_position_shift_invariance():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    for trial in range(20):
        frame_dim = int(rng.integers(2, 9))
        den = TinyAttentionDenoiser(
            frame_dim=frame_dim, model_dim=16, head_count=2, layer_count=2,
            weight_seed=trial,
        )
        block_size = int(rng.integers(1, 4))
        noisy = rng.standard_normal((block_size, frame_dim))
        n_ctx = int(rng.integers(1, 13))
        base_pos = int(rng.integers(0, 100))
        ctx = Context(rng.standard_normal((n_ctx, frame_dim)),
                      base_pos + np.arange(n_ctx))
        shift = int(rng.integers(1, 20_000))
        moved = Context(ctx.values, ctx.positions + shift)
        a = den.estimate(noisy, 500.0, den.condition(ctx, block_size))
        b = den.estimate(noisy, 500.0, den.condition(moved, block_size))
        assert np.abs(a - b).max() < 1e-6, f"trial {trial}"
    _report("attention position-shift invariance", started, 10.0)


def test_sampler_statistics():
    # Scalar rollout driven by the exact-conditioning denoiser must
    # reproduce the synthetic data model's stationary law: variance 1,
    # mean 0. The mean's standard error accounts for the rollout's serial
    # correlation at rho.
    started = time.monotonic()
    rho = 0.9
    horizon = 10_000
    cfg = RolloutConfig(
        policy=PolicyConfig(K=6, S=5, block_size=1, policy=Policy.ROLLING_SINK),
        denoiser=AnalyticGaussianDenoiser(rho=rho),
        horizon=horizon,
        seed=0,
        frame_dim=1,
        record_frames=False,
    )
    values = np.array([r.mean for r in run(cfg)])
    variance = values.var()
    assert abs(variance - 1.0) < 0.05, f"variance {variance:.4f} not within 5% of 1"
    standard_error = np.sqrt(((1 + rho) / (1 - rho)) / horizon)
    assert abs(values.mean()) < 3 * standard_error, (
        f"mean {values.mean():.4f} outside 3 SE ({3 * standard_error:.4f})"
    )
    _report("sampler stationary statistics", started, 30.0)


def test_drift_separation():
    # The core long-horizon claim at toy scale: with an identical biased
    # denoiser, a pure sliding window drifts without bound while the
    # rolling sink stays anchored to its early history. Measured median
    # separation is ~200x (min ~130x over 20 seeds); the gate is pinned
    # at a conservative 50x.
    started = time.monotonic()
    denoiser = ContextMeanDenoiser(anchor_weight=1.0, innovation_scale=0.1,
                                   bias=0.05)
    ratios = []
    for seed in range(20):
        terminal = {}
        for policy, sink in ((Policy.SLIDING_WINDOW, 0), (Policy.ROLLING_SINK, 5)):
            cfg = RolloutConfig(
                policy=PolicyConfig(K=6, S=sink, block_size=3, policy=policy),
                denoiser=denoiser,
                horizon=2000,
                seed=seed,
                frame_dim=4,
                record_frames=False,
            )
            terminal[policy] = mean_drift(run(cfg))[-1]
        ratios.append(terminal[Policy.SLIDING_WINDOW]
                      / terminal[Policy.ROLLING_SINK])
    median = float(np.median(ratios))
    assert median >= 50.0, f"median separation {median:.1f}x below pinned 50x"
    _report(f"drift separation (median {median:.0f}x >= 50x)", started, 120.0)


def test_bounded_memory():
    started = time.monotonic()
    for policy in Policy:
        cfg = RolloutConfig(
            policy=PolicyConfig(K=6, S=5, block_size=3, policy=policy),
            denoiser=ContextMeanDenoiser(anchor_weight=1.0),
            horizon=10_000,
            seed=0,
            frame_dim=1,
            record_frames=False,
        )
        rollout = Rollout(cfg)
        for _ in range(cfg.horizon):
            rollout.step()
        bound = 6 if policy is Policy.SLIDING_WINDOW else 12
        assert rollout.store.peak_retained <= bound, (
            f"{policy}: retained {rollout.store.peak_retained} > {bound}"
        )
    _report("bounded history retention", started, 60.0)


def test_rollout_determinism(tmp_path):
    started = time.monotonic()
    config = tmp_path / "rollout.cfg"
    config.write_text(
        "policy = rolling-sink\nhorizon = 40\nseed = 7\nframe_dim = 3\n"
        "denoiser = context-mean\nanchor_weight = 0.6\ninnovation_scale = 0.2\n"
    )
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(["rollout", str(config), "--out", str(out1)]) == 0
    assert cli.main(["rollout", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes(), "trace files differ"
    _report("trace determinism", started, 30.0)


def test_sweep_grid_fidelity(tmp_path):
    started = time.monotonic()
    config = tmp_path / "base.cfg"
    config.write_text(
        "K = 6\nS = 5\nframe_dim = 2\ndenoiser = context-mean\nbias = 0.05\n"
    )
    out = tmp_path / "sweep.csv"
    rc = cli.main([
        "sweep", str(config), "--ratios", "0,17,33,50,67,83",
        "--horizons", "30", "--seeds", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
    ratio_col, s_col, policy_col = (header.index(c) for c in ("ratio", "S", "policy"))
    sink_sizes = sorted({int(r[s_col]) for r in rows})
    assert sink_sizes == [0, 1, 2, 3, 4, 5], f"sink sizes {sink_sizes}"
    by_cell: dict[int, set[str]] = {}
    for row in rows:
        by_cell.setdefault(int(row[ratio_col]), set()).add(row[policy_col])
    expected = {"attention-sink", "sliding-indices", "rolling-sink"}
    assert set(by_cell) == {0, 17, 33, 50, 67, 83}
    assert all(variants == expected for variants in by_cell.values())
    _report("sweep grid fidelity", started, 60.0)
