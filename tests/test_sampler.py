"""Denoising-loop tests with controllable test-double denoisers."""

from __future__ import annotations

import numpy as np
import pytest

from blockroll.denoisers import Context
from blockroll.sampler import (
    NoiseSource,
    TimestepSchedule,
    forward_noise,
    sample_block,
    sigma,
)

SHAPE = (3, 4)
EMPTY = Context(np.zeros((0, SHAPE[1])), np.zeros(0, dtype=int))


class ConstantDenoiser:
    def __init__(self, block):
        self.block = block

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, rng=None):
        return self.block


class RecordingDenoiser:
    """Returns noisy unchanged, remembering every (t, noisy) it saw, and
    every (context, block_size) it was conditioned on."""

    def __init__(self):
        self.calls = []
        self.conditioned = []
        self.states = []

    def condition(self, context, block_size):
        self.conditioned.append((context, block_size))
        return object()

    def estimate(self, noisy, t, state, rng=None):
        self.calls.append((t, noisy.copy()))
        self.states.append(state)
        return noisy


def test_default_schedule_is_four_uniform_steps():
    ts = TimestepSchedule()
    assert ts.steps == (1000.0, 750.0, 500.0, 250.0, 0.0)
    assert ts.count == 4
    assert TimestepSchedule.uniform(4) == ts


def test_schedule_endpoints_are_pinned():
    with pytest.raises(ValueError):
        TimestepSchedule((900.0, 0.0))
    with pytest.raises(ValueError):
        TimestepSchedule((1000.0, 100.0))


def test_schedule_must_strictly_decrease():
    with pytest.raises(ValueError):
        TimestepSchedule((1000.0, 500.0, 500.0, 0.0))


def test_noise_source_replays_identically():
    a = NoiseSource(12345)
    b = NoiseSource(12345)
    assert np.array_equal(a.standard_normal(SHAPE), b.standard_normal(SHAPE))


def test_noise_source_streams_are_independent():
    a = NoiseSource(7, stream=(0,))
    b = NoiseSource(7, stream=(1,))
    assert not np.array_equal(a.standard_normal(SHAPE), b.standard_normal(SHAPE))


def test_noise_level_is_linear_in_timestep():
    assert sigma(0) == 0.0
    assert sigma(1000) == 1.0
    assert sigma(250) == 0.25
    with pytest.raises(ValueError):
        sigma(1001)
    with pytest.raises(ValueError):
        sigma(-1)


def test_forward_noise_interpolates_between_clean_and_noise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(SHAPE)
    eps = rng.standard_normal(SHAPE)
    assert np.array_equal(forward_noise(x, eps, 0), x)
    assert np.array_equal(forward_noise(x, eps, 1000), eps)
    assert np.allclose(forward_noise(x, eps, 500), 0.5 * x + 0.5 * eps)


def test_constant_denoiser_passes_through_regardless_of_noise():
    target = np.full(SHAPE, 2.5)
    for seed in (0, 1, 99):
        out = sample_block(ConstantDenoiser(target), TimestepSchedule(), EMPTY,
                           NoiseSource(seed), SHAPE)
        assert np.array_equal(out, target)


def test_single_step_schedule_applies_denoiser_once_at_full_noise():
    den = RecordingDenoiser()
    noise = NoiseSource(3)
    expected_initial = NoiseSource(3).standard_normal(SHAPE)
    out = sample_block(den, TimestepSchedule.uniform(1), EMPTY, noise, SHAPE)
    assert len(den.calls) == 1
    t, seen = den.calls[0]
    assert t == 1000.0
    assert np.array_equal(seen, expected_initial)
    assert np.array_equal(out, seen)


def test_denoiser_sees_strictly_decreasing_noise_levels():
    den = RecordingDenoiser()
    sample_block(den, TimestepSchedule(), EMPTY, NoiseSource(0), SHAPE)
    ts = [t for t, _ in den.calls]
    assert ts == [1000.0, 750.0, 500.0, 250.0]


def test_sampling_is_deterministic_under_a_fixed_seed():
    den = RecordingDenoiser()
    a = sample_block(den, TimestepSchedule(), EMPTY, NoiseSource(42), SHAPE)
    b = sample_block(RecordingDenoiser(), TimestepSchedule(), EMPTY,
                     NoiseSource(42), SHAPE)
    assert np.array_equal(a, b)
    c = sample_block(RecordingDenoiser(), TimestepSchedule(), EMPTY,
                     NoiseSource(43), SHAPE)
    assert not np.array_equal(a, c)


def test_denoiser_conditions_once_per_block():
    den = RecordingDenoiser()
    sample_block(den, TimestepSchedule(), EMPTY, NoiseSource(0), SHAPE)
    assert den.conditioned == [(EMPTY, SHAPE[0])]
    assert len(den.states) == 4
    assert all(state is den.states[0] for state in den.states)
