"""Denoising-loop tests with controllable test-double denoisers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockroll.denoisers import Context
from blockroll.sampler import (
    NoiseSource,
    TimestepSchedule,
    forward_noise,
    sample_block,
    sigma,
)

SHAPE = (3, 4)
MASK64 = (1 << 64) - 1
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


def numpy_stream(seed, stream):
    """The stream NoiseSource(seed, stream) is documented to be."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed & MASK64, spawn_key=stream))
    )


KEYS = st.lists(st.integers(0, 2**70 - 1), max_size=3).map(tuple)


@given(seed=st.integers(-2**70, 2**70),
       visits=st.lists(st.tuples(KEYS, st.integers(1, 9)), min_size=1, max_size=4))
def test_seek_is_numpys_stream_derivation(seed, visits):
    # one source visits several streams, leaving a different number of
    # draws behind in each, and must start every stream afresh
    source = NoiseSource(seed)
    for stream, count in visits:
        source.seek(stream)
        want = numpy_stream(seed, stream).standard_normal(count)
        assert np.array_equal(source.standard_normal(count), want)
        assert np.array_equal(NoiseSource(seed, stream).standard_normal(count), want)


@pytest.mark.parametrize("stream", [(2**640 - 1,), tuple(range(20))],
                         ids=["one-20-word-key", "20-keys"])
def test_seek_accepts_keys_of_any_length(stream):
    source = NoiseSource(11)
    source.seek(stream)
    assert np.array_equal(source.standard_normal(SHAPE),
                          numpy_stream(11, stream).standard_normal(SHAPE))


@pytest.mark.parametrize("stream, error", [((3, -1), ValueError), ((1.0,), TypeError)],
                         ids=["negative-key", "float-key"])
def test_seek_rejects_the_keys_numpy_rejects(stream, error):
    with pytest.raises(error):
        numpy_stream(0, stream)
    with pytest.raises(error):
        NoiseSource(0).seek(stream)
    with pytest.raises(error):
        NoiseSource(0, stream)


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
