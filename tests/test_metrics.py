"""Metric tests against constant traces and Monte-Carlo references."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockroll.denoisers import (
    AnalyticGaussianDenoiser,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from blockroll.engine import RolloutConfig, TraceRecord, run
from blockroll.metrics import METRICS, flicker_proxy, mean_drift, repetition_score
from blockroll.sampler import TimestepSchedule
from blockroll.schedule import Policy, PolicyConfig
from metric_oracle import oracle_flicker_proxy, oracle_repetition_score


class ConstantDenoiser:
    draws_per_level = 0

    def __init__(self, block):
        self.block = block

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, eps=None):
        return self.block


def analytic_trace(rho, horizon, frame_dim, seed=11, block_size=3):
    cfg = RolloutConfig(
        policy=PolicyConfig(K=6, S=5, block_size=block_size,
                            policy=Policy.ROLLING_SINK),
        denoiser=AnalyticGaussianDenoiser(rho=rho),
        horizon=horizon,
        seed=seed,
        frame_dim=frame_dim,
    )
    return run(cfg)


def constant_trace(horizon=10):
    block = np.full((3, 4), 1.5)
    cfg = RolloutConfig(
        policy=PolicyConfig(),
        denoiser=ConstantDenoiser(block),
        horizon=horizon,
        seed=0,
        frame_dim=4,
    )
    return run(cfg)


def test_constant_trace_has_zero_drift_and_flicker():
    trace = constant_trace()
    assert np.all(mean_drift(trace) == 0.0)
    assert np.all(flicker_proxy(trace) == 0.0)


def test_mean_drift_starts_at_zero_by_definition():
    trace = analytic_trace(rho=0.5, horizon=20, frame_dim=2)
    assert mean_drift(trace)[0] == 0.0


def test_each_metric_is_one_float64_value_per_record():
    trace = analytic_trace(rho=0.5, horizon=20, frame_dim=2)
    for values in (mean_drift(trace), flicker_proxy(trace), repetition_score(trace)):
        assert values.dtype == np.float64 and values.shape == (20,)
        assert values[0] == 0.0
    assert mean_drift(list(trace[:5])).tolist() == mean_drift(trace)[:5].tolist()


def test_verbatim_repetition_scores_one():
    trace = constant_trace()
    values = repetition_score(trace, window=4)
    assert values[0] == 0.0
    assert np.all(values[1:] == 1.0)


def test_flicker_concentrates_on_the_folded_gaussian_mean():
    # rho=0 makes every generated frame an independent N(0,1) draw, so the
    # block-boundary jump is |N(0,2)| per coordinate. Reference computed by
    # direct Monte Carlo, independent of the sampler.
    trace = analytic_trace(rho=0.0, horizon=400, frame_dim=8)
    observed = flicker_proxy(trace)[1:].mean()
    rng = np.random.default_rng(123)
    reference = np.abs(rng.standard_normal(400_000)
                       - rng.standard_normal(400_000)).mean()
    assert abs(observed - reference) < 0.05


def test_strong_correlation_reduces_flicker():
    smooth = flicker_proxy(analytic_trace(rho=0.99, horizon=300, frame_dim=8))[1:].mean()
    rough = flicker_proxy(analytic_trace(rho=0.0, horizon=300, frame_dim=8))[1:].mean()
    assert smooth < 0.3 * rough


def test_independent_blocks_score_near_zero_with_dimension_shrinking_spread():
    # 64-dimensional independent blocks: cosine similarities concentrate
    # around 0 at scale ~1/sqrt(dim). The bound is a Monte-Carlo quantile of
    # the max-of-window statistic, computed on fresh Gaussians.
    trace = analytic_trace(rho=0.0, horizon=300, frame_dim=16, block_size=4)
    observed = repetition_score(trace, window=8)[1:]
    rng = np.random.default_rng(7)
    sims = rng.standard_normal((20_000, 8, 64))
    ref_blocks = rng.standard_normal((20_000, 64))
    cos = np.einsum("nwd,nd->nw", sims, ref_blocks)
    cos /= np.linalg.norm(sims, axis=2) * np.linalg.norm(ref_blocks, axis=1)[:, None]
    bound = np.quantile(cos.max(axis=1), 0.9999)
    assert observed.mean() < bound
    assert observed.max() < 1.8 * bound

    wide = repetition_score(
        analytic_trace(rho=0.0, horizon=300, frame_dim=64, block_size=4), window=8)[1:]
    narrow = repetition_score(
        analytic_trace(rho=0.0, horizon=300, frame_dim=4, block_size=4), window=8)[1:]
    assert wide.std() < narrow.std()
    assert wide.mean() < narrow.mean()


def test_correlated_rollout_sits_between_the_extremes():
    iid, correlated = (
        repetition_score(analytic_trace(rho=rho, horizon=300, frame_dim=16, block_size=4),
                         window=8)[1:].mean()
        for rho in (0.0, 0.9))
    assert iid < correlated < 1.0


def test_metrics_are_idempotent():
    trace = analytic_trace(rho=0.5, horizon=30, frame_dim=4)
    assert np.array_equal(mean_drift(trace), mean_drift(trace))
    assert np.array_equal(flicker_proxy(trace), flicker_proxy(trace))
    assert np.array_equal(repetition_score(trace, 5), repetition_score(trace, 5))


def test_frame_metrics_require_recorded_frames():
    cfg = RolloutConfig(
        policy=PolicyConfig(),
        denoiser=AnalyticGaussianDenoiser(rho=0.5),
        horizon=5,
        seed=0,
        frame_dim=2,
        record_frames=False,
    )
    trace = run(cfg)
    mean_drift(trace)  # works from summary stats alone
    with pytest.raises(ValueError, match="frame"):
        flicker_proxy(trace)
    with pytest.raises(ValueError, match="frame"):
        repetition_score(trace)


@pytest.mark.parametrize("metric", [mean_drift, flicker_proxy, repetition_score])
def test_every_metric_refuses_an_empty_trace(metric):
    with pytest.raises(ValueError, match="^trace is empty$"):
        metric([])


def test_repetition_window_must_be_positive():
    with pytest.raises(ValueError):
        repetition_score(constant_trace(), window=0)


def test_timestep_schedule_override_is_honored():
    cfg = RolloutConfig(
        policy=PolicyConfig(),
        denoiser=AnalyticGaussianDenoiser(rho=0.5),
        horizon=3,
        seed=0,
        frame_dim=2,
        timesteps=TimestepSchedule.uniform(1),
    )
    assert len(run(cfg)) == 3


# --------------------------------------------------------------------------
# whole-array metrics against their block-by-block oracles
# --------------------------------------------------------------------------

def frames_trace(frames):
    """A trace of the given (steps, rows, width) frames, steps from 0."""
    return tuple(
        TraceRecord(i, None, float(block.mean()), float(block.var()),
                    block, 0)
        for i, block in enumerate(np.asarray(frames, dtype=np.float64))
    )


def reprs(values):
    return [repr(value) for value in values]


def assert_matches_oracles(trace, window):
    assert reprs(flicker_proxy(trace).tolist()) == reprs(oracle_flicker_proxy(trace))
    assert (reprs(repetition_score(trace, window).tolist())
            == reprs(oracle_repetition_score(trace, window)))


def random_frames(seed, steps, rows, width):
    return np.random.default_rng(seed).standard_normal((steps, rows, width))


@pytest.mark.parametrize("frames, window", [
    (random_frames(1, 12, 3, 4) * (np.arange(12) != 5)[:, None, None], 8),
    (np.zeros((6, 3, 4)), 3),
    (random_frames(2, 10, 3, 4), 1),
    (random_frames(3, 7, 2, 5), 50),
    (random_frames(4, 1, 3, 4), 8),
    (np.repeat(random_frames(5, 1, 3, 4), 9, axis=0), 4),
], ids=["zero-block", "all-zero", "window-1", "window-past-trace", "one-record",
        "exact-repeats"])
def test_metrics_match_oracles_on_edge_traces(frames, window):
    assert_matches_oracles(frames_trace(frames), window)


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30),
       rows=st.integers(1, 4), width=st.sampled_from([1, 2, 3, 4, 7, 8, 9, 16, 33, 64]),
       zero_blocks=st.sets(st.integers(0, 29), max_size=4),
       window=st.integers(1, 40))
def test_metrics_match_oracles_on_random_traces(seed, steps, rows, width,
                                                zero_blocks, window):
    frames = random_frames(seed, steps, rows, width)
    frames[[b for b in zero_blocks if b < steps]] = 0.0
    assert_matches_oracles(frames_trace(frames), window)


@pytest.mark.parametrize("denoiser, policy", [
    (AnalyticGaussianDenoiser(rho=0.9), Policy.SLIDING_WINDOW),
    (ContextMeanDenoiser(bias=0.05, innovation_scale=0.1), Policy.ROLLING_SINK),
    (TinyAttentionDenoiser(frame_dim=4), Policy.ROLLING_SINK),
], ids=["analytic", "context-mean", "tiny-attention"])
def test_metrics_match_oracles_on_rollouts(denoiser, policy):
    cfg = RolloutConfig(policy=PolicyConfig(policy=policy, S=5), denoiser=denoiser,
                        horizon=60, seed=5, frame_dim=4)
    assert_matches_oracles(run(cfg), 8)


def test_repetition_scores_blocks_near_the_float_limit_as_their_rescaled_copies():
    # the dot products and norms of these finite blocks overflow; scaling a
    # block by a power of two changes no cosine and is exact
    frames = np.array([[[1e308, 1e308]], [[-1e308, 1e308]], [[1e308, 1e-300]],
                       [[0.0, 0.0]], [[1e308, 1e308]]])
    with np.errstate(over="ignore"):  # the records' means and vars overflow
        trace = frames_trace(frames)
    with np.errstate(all="raise", under="ignore"):  # numpy ignores underflow by default
        scores = repetition_score(trace, 8)
    rescaled = np.ldexp(frames, -np.frexp(np.abs(frames).max(axis=(1, 2)))[1][:, None, None])
    assert reprs(scores.tolist()) == reprs(repetition_score(frames_trace(rescaled), 8).tolist())
    assert abs(scores[1]) < 1e-15 and scores[4] == 1.0


def test_repetition_scores_tiny_blocks_as_their_rescaled_copies():
    # the dot products and norms of the first three blocks underflow, and a
    # norm of 0 would score 0, also against the last block, of normal size
    frames = np.array([[[1e-200, 1e-200]], [[1e-200, 1e-200]], [[1e-160, 2e-160]],
                       [[3.0, 1.0]]])
    scores = repetition_score(frames_trace(frames), 8)
    rescaled = np.ldexp(frames, -np.frexp(np.abs(frames).max(axis=(1, 2)))[1][:, None, None])
    assert reprs(scores.tolist()) == reprs(repetition_score(frames_trace(rescaled), 8).tolist())
    assert np.allclose(scores, [0.0, 1.0, 3 / np.sqrt(10), 2 / np.sqrt(5)], rtol=1e-15)


@pytest.mark.parametrize("window", [1, 3, 8, 40, 699])
def test_repetition_score_matches_its_oracle_across_its_passes(window):
    # at width 699 the rows are scored 187 at a time, four passes over 700 blocks
    frames = random_frames(6, 700, 3, 4)
    frames[[0, 186, 187, 500]] = 0.0
    assert_matches_oracles(frames_trace(frames), window)


def test_repetition_score_memory_is_bounded_in_the_window():
    # rows are scored 2**17 // width at a time: all at once, 6000 blocks at
    # window 700 peaked at 169 MB, and a window of 2000 over 10**5 blocks at 7.7 GB
    trace = frames_trace(random_frames(7, 6000, 3, 4))
    tracemalloc.start()
    try:
        repetition_score(trace, 700)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# --------------------------------------------------------------------------
# scoring from a first row: the rows before it are context only
# --------------------------------------------------------------------------

def assert_first_rows_match(trace, window):
    for name, metric in METRICS.items():
        kwargs = {"window": window} if name == "repetition_score" else {}
        whole = metric(trace, **kwargs)
        for j in range(len(trace)):
            assert metric(trace, first=j, **kwargs)[j:].tobytes() == whole[j:].tobytes(), (name, j)


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 20),
       rows=st.integers(1, 4), width=st.sampled_from([1, 2, 4, 7, 8, 9, 16, 33]),
       zero_blocks=st.sets(st.integers(0, 19), max_size=3), window=st.integers(1, 25))
def test_every_metric_scores_the_same_rows_from_any_first_row(seed, steps, rows, width,
                                                             zero_blocks, window):
    frames = random_frames(seed, steps, rows, width)
    frames[[b for b in zero_blocks if b < steps]] = 0.0
    assert_first_rows_match(frames_trace(frames), window)


@pytest.mark.parametrize("block0", [1e200, 1e-200], ids=["huge", "tiny"])
def test_a_first_row_keeps_the_rescale_that_block_0_triggers(block0):
    # block 0's dot products overflow or underflow, so every block is rescaled
    frames = random_frames(8, 12, 3, 4)
    frames[0] = block0
    with np.errstate(over="ignore"):  # the huge block's var overflows
        trace = frames_trace(frames)
    assert_first_rows_match(trace, 8)
