"""Denoising-loop tests with controllable test-double denoisers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sampler_oracle
from blockroll.denoisers import (
    AnalyticGaussianDenoiser,
    Context,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from blockroll.sampler import (
    _CHUNK,
    NoiseSource,
    _SeedWords,
    TimestepSchedule,
    sample_block,
    sigma,
)
from sampler_oracle import forward_noise

SHAPE = (3, 4)
MASK64 = (1 << 64) - 1
EMPTY = Context(np.zeros((0, SHAPE[1])), np.zeros(0, dtype=int))


class ConstantDenoiser:
    draws_per_level = 0

    def __init__(self, block):
        self.block = block

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, eps=None):
        return self.block


class RecordingDenoiser:
    """Returns noisy unchanged, remembering every (t, noisy) it saw, and
    every (context, block_size) it was conditioned on."""

    draws_per_level = 0

    def __init__(self):
        self.calls = []
        self.conditioned = []
        self.states = []

    def condition(self, context, block_size):
        self.conditioned.append((context, block_size))
        return object()

    def estimate(self, noisy, t, state, eps=None):
        assert eps is None
        self.calls.append((t, noisy.copy()))
        self.states.append(state)
        return noisy


def test_default_schedule_is_four_uniform_steps():
    ts = TimestepSchedule()
    assert ts.steps == (1000.0, 750.0, 500.0, 250.0, 0.0)
    assert TimestepSchedule.uniform(4) == ts


def test_schedule_endpoints_are_pinned():
    with pytest.raises(ValueError):
        TimestepSchedule((900.0, 0.0))
    with pytest.raises(ValueError):
        TimestepSchedule((1000.0, 100.0))


@pytest.mark.parametrize("steps", [(), (1000.0,), (0.0,)])
def test_schedule_needs_two_timesteps(steps):
    with pytest.raises(ValueError, match=r"^need at least two timesteps \(t_T and t_0\)$"):
        TimestepSchedule(steps)


def test_schedule_must_strictly_decrease():
    with pytest.raises(ValueError):
        TimestepSchedule((1000.0, 500.0, 500.0, 0.0))


def test_schedule_tables_each_levels_weights():
    ts = TimestepSchedule()
    assert ts.levels == ((1000.0, 0.25), (750.0, 0.5), (500.0, 0.75), (250.0, 1.0))
    assert ts.renoise.shape == (3, 1, 1)
    assert ts.renoise.ravel().tolist() == [0.75, 0.5, 0.25]
    with pytest.raises(ValueError):
        ts.renoise[0, 0, 0] = 1.0


def test_a_list_of_steps_gives_an_equal_hashable_schedule_with_the_same_table():
    steps = [1000, 600.0, 250, 0.0]
    from_list, from_tuple = TimestepSchedule(steps), TimestepSchedule(tuple(steps))
    assert type(from_list.steps) is tuple and from_list.steps == tuple(steps)
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    steps[1] = 900.0  # the caller's list, changed afterwards, is not the schedule's
    assert from_list.steps == from_tuple.steps
    assert from_list.levels == from_tuple.levels
    assert from_list.renoise.tobytes() == from_tuple.renoise.tobytes()


def test_noise_source_replays_identically():
    a = NoiseSource(12345)
    b = NoiseSource(12345)
    assert np.array_equal(a.standard_normal(SHAPE), b.standard_normal(SHAPE))


def numpy_stream(seed, i):
    """The stream that NoiseSource(seed).seek(i) is documented to seat."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed & MASK64, spawn_key=(i,)))
    )


@given(seed=st.integers(-2**70, 2**70),
       visits=st.lists(st.tuples(st.integers(0, 2**70 - 1), st.integers(1, 9)),
                       min_size=1, max_size=4))
def test_seek_is_numpys_stream_derivation(seed, visits):
    # one source visits several steps, leaving a different number of draws
    # behind in each, and must start every step's stream afresh; a new
    # source starts at step 0
    source = NoiseSource(seed)
    assert np.array_equal(source.standard_normal(3),
                          numpy_stream(seed, 0).standard_normal(3))
    for i, count in visits:
        source.seek(i)
        want = numpy_stream(seed, i).standard_normal(count)
        assert np.array_equal(source.standard_normal(count), want)


def pcg64_state(seed, i):
    """The PCG64 state that step i's stream of `seed` starts in."""
    return np.random.PCG64(np.random.SeedSequence(seed & MASK64, spawn_key=(i,))).state


# forward across the first chunk edges, back across a chunk, then far ahead
# across the steps where a key gains a 32-bit word
N = _CHUNK
SEEK_ORDER = (0, N - 1, N, 2 * N - 1, N - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 0)


# numpy warns on an overflowing scalar integer operation, which cli.main's
# errstate hides but a library caller sees
@pytest.mark.filterwarnings("error")
@given(seed=st.integers(-2**70, 2**70))
def test_the_state_table_is_numpys_stream_derivation(seed):
    source = NoiseSource(seed)
    for i in SEEK_ORDER:
        source.seek(i)
        assert source._gen.bit_generator.state == pcg64_state(seed, i)
        assert np.array_equal(source.standard_normal(3),
                              numpy_stream(seed, i).standard_normal(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, -1, 2**64 + 3], ids=["0", "-1", "2^64+3"])
@pytest.mark.parametrize("first", [0, 2**32 - N, 2**64 - N],
                         ids=["first-chunks", "below-2^32", "below-2^64"])
def test_every_step_of_two_chunks_is_numpys(seed, first):
    # two whole chunks, the second past a new key word for all but the first
    source = NoiseSource(seed)
    for i in range(first, first + 2 * N):
        source.seek(i)
        assert source._gen.bit_generator.state == pcg64_state(seed, i)


def test_a_state_row_serves_only_the_request_of_pcg64():
    # any other request would read past the row's 4 words
    words = _SeedWords(np.zeros(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    for request in ((4,), (8, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError):
            words.generate_state(*request)


def test_seek_accepts_steps_of_any_size():
    i = 2**640 - 1  # a key of 20 32-bit words
    source = NoiseSource(11)
    source.seek(i)
    assert np.array_equal(source.standard_normal(SHAPE),
                          numpy_stream(11, i).standard_normal(SHAPE))


@pytest.mark.parametrize("i, error", [(-1, ValueError), (1.0, TypeError)],
                         ids=["negative-step", "float-step"])
def test_seek_rejects_the_steps_numpy_rejects(i, error):
    with pytest.raises(error):
        numpy_stream(0, i)
    with pytest.raises(error):
        NoiseSource(0).seek(i)


def test_noise_source_streams_are_independent():
    a, b = NoiseSource(7), NoiseSource(7)
    a.seek(0)
    b.seek(1)
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
                           NoiseSource(seed), SHAPE[0])
        assert np.array_equal(out, target)


def test_single_step_schedule_applies_denoiser_once_at_full_noise():
    den = RecordingDenoiser()
    noise = NoiseSource(3)
    expected_initial = NoiseSource(3).standard_normal(SHAPE)
    out = sample_block(den, TimestepSchedule.uniform(1), EMPTY, noise, SHAPE[0])
    assert len(den.calls) == 1
    t, seen = den.calls[0]
    assert t == 1000.0
    assert np.array_equal(seen, expected_initial)
    assert np.array_equal(out, seen)


def test_denoiser_sees_strictly_decreasing_noise_levels():
    den = RecordingDenoiser()
    sample_block(den, TimestepSchedule(), EMPTY, NoiseSource(0), SHAPE[0])
    ts = [t for t, _ in den.calls]
    assert ts == [1000.0, 750.0, 500.0, 250.0]


def test_sampling_is_deterministic_under_a_fixed_seed():
    den = RecordingDenoiser()
    a = sample_block(den, TimestepSchedule(), EMPTY, NoiseSource(42), SHAPE[0])
    b = sample_block(RecordingDenoiser(), TimestepSchedule(), EMPTY,
                     NoiseSource(42), SHAPE[0])
    assert np.array_equal(a, b)
    c = sample_block(RecordingDenoiser(), TimestepSchedule(), EMPTY,
                     NoiseSource(43), SHAPE[0])
    assert not np.array_equal(a, c)


class EpsRecorder:
    """Takes one draw per level and returns noisy + eps, remembering every
    eps it was handed."""

    draws_per_level = 1

    def __init__(self):
        self.eps = []

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, eps=None):
        self.eps.append(eps.copy())
        return noisy + eps


def test_one_draw_hands_out_the_noise_of_separate_draws_in_their_order():
    # y, then per level the estimate's eps and the re-noising eps, as if
    # each were drawn on its own
    ts = TimestepSchedule()
    separate = NoiseSource(8)
    y = separate.standard_normal(SHAPE)
    levels = []
    for t in ts.steps[1:]:
        levels.append((separate.standard_normal(SHAPE), separate.standard_normal(SHAPE)))
        y = forward_noise(y + levels[-1][0], levels[-1][1], t)
    den = EpsRecorder()
    out = sample_block(den, ts, EMPTY, NoiseSource(8), SHAPE[0])
    assert all(np.array_equal(got, want) for got, (want, _) in zip(den.eps, levels))
    assert len(den.eps) == 4
    assert np.array_equal(out, y)


class SignedZeroLastEstimate:
    """Returns noisy + eps, and at the last level (t = 250) a fixed block
    that holds -0.0."""

    draws_per_level = 1
    last = np.array([[-0.0, 0.0, -0.0, 1.5]] * 3)

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, eps=None):
        return self.last.copy() if t == 250.0 else noisy + eps


@pytest.mark.parametrize("seed", range(8))
def test_block_is_the_last_estimate_bit_for_bit(seed):
    # re-noising to t = 0 would add 0.0 * eps, which turns -0.0 into 0.0
    # wherever eps > 0
    out = sample_block(SignedZeroLastEstimate(), TimestepSchedule(), EMPTY,
                       NoiseSource(seed), SHAPE[0])
    assert out.tobytes() == SignedZeroLastEstimate.last.tobytes()


def test_the_block_takes_its_width_from_the_context():
    context = Context(np.zeros((2, 5)), np.arange(2))
    den = RecordingDenoiser()
    out = sample_block(den, TimestepSchedule(), context, NoiseSource(0), 3)
    assert out.shape == (3, 5)
    assert den.conditioned == [(context, 3)]


def test_denoiser_conditions_once_per_block():
    den = RecordingDenoiser()
    sample_block(den, TimestepSchedule(), EMPTY, NoiseSource(0), SHAPE[0])
    assert den.conditioned == [(EMPTY, SHAPE[0])]
    assert len(den.states) == 4
    assert all(state is den.states[0] for state in den.states)


class NonlinearDouble:
    """d = 0: a nonlinear estimate of noisy and t."""

    draws_per_level = 0

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, eps=None):
        assert eps is None
        return 1.5 * np.tanh(noisy) - t / 997.0


class EpsDouble:
    """d = 1: mixes noisy, eps and the context's last frame."""

    draws_per_level = 1

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, eps=None):
        last = state.values[-1] if len(state) else 0.0
        return 0.7 * noisy + 0.3 * eps + sigma(t) * last


class Float32Double:
    """d = 0: a float32 estimate, which the re-noising promotes to float64."""

    draws_per_level = 0

    def condition(self, context, block_size):
        return context

    def estimate(self, noisy, t, state, eps=None):
        return (0.9 * noisy).astype(np.float32)


DENOISERS = {
    "analytic": lambda frame_dim: AnalyticGaussianDenoiser(rho=0.8),
    "context-mean": lambda frame_dim: ContextMeanDenoiser(0.6, bias=0.05),
    "context-mean-innovation": lambda frame_dim: ContextMeanDenoiser(0.6, 0.3, 0.05),
    "tiny-attention": TinyAttentionDenoiser,
    "double-d0": lambda frame_dim: NonlinearDouble(),
    "double-d1": lambda frame_dim: EpsDouble(),
    "double-float32": lambda frame_dim: Float32Double(),
}


@st.composite
def custom_schedules(draw):
    """Strictly decreasing steps from 1000 to a zero, with int and float
    entries, and -0.0 as a possible last step."""
    inner = draw(st.lists(st.one_of(st.integers(1, 999),
                                    st.floats(0.0, 1000.0, exclude_min=True,
                                              exclude_max=True)),
                          unique=True, max_size=7))
    first = draw(st.sampled_from([1000, 1000.0]))
    last = draw(st.sampled_from([0, 0.0, -0.0]))
    return TimestepSchedule((first, *sorted(inner, reverse=True), last))


@given(kind=st.sampled_from(sorted(DENOISERS)),
       timesteps=st.one_of(st.integers(1, 8).map(TimestepSchedule.uniform),
                           custom_schedules()),
       block_size=st.integers(1, 4), frame_dim=st.integers(1, 6),
       positions=st.lists(st.integers(0, 10**4), unique=True, max_size=6),
       seed=st.integers(0, 2**32))
def test_sample_block_is_the_per_level_loop_byte_for_byte(kind, timesteps, block_size,
                                                          frame_dim, positions, seed):
    values = np.random.default_rng(seed).standard_normal((len(positions), frame_dim))
    context = Context(values, np.array(sorted(positions), dtype=np.int64))
    got = sample_block(DENOISERS[kind](frame_dim), timesteps, context, NoiseSource(seed),
                       block_size)
    want = sampler_oracle.sample_block(DENOISERS[kind](frame_dim), timesteps, context,
                                       NoiseSource(seed), block_size)
    assert got.shape == want.shape == (block_size, frame_dim)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
