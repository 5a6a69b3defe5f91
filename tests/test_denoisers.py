"""Denoiser tests, including the brute-force quadrature oracle for the
analytic Gaussian conditioning."""

from __future__ import annotations

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import attention_oracle
from blockroll import denoisers, rope
from blockroll.denoisers import (
    AnalyticGaussianDenoiser,
    Context,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from blockroll.engine import RolloutConfig, run
from blockroll.rope import pair_frequencies
from blockroll.sampler import NoiseSource, TimestepSchedule, sigma
from blockroll.schedule import PolicyConfig


def make_context(values):
    """Frames at positions 0..n-1; values is (n, frame_dim), n >= 1."""
    values = np.asarray(values, dtype=float)
    return Context(values, np.arange(len(values)))


def empty_context(frame_dim):
    return Context(np.zeros((0, frame_dim)), np.zeros(0, dtype=int))


def estimate(den, noisy, t, ctx, eps=None):
    """One denoising level: condition on ctx for this block, then estimate."""
    return den.estimate(noisy, t, den.condition(ctx, len(noisy)), eps)


def posterior_mean(den, noisy, t, ctx):
    return den.posterior(noisy, t, den.condition(ctx, len(noisy)))[0]


def noise_at(seed, i):
    """A NoiseSource of `seed` seated at the start of step i's stream."""
    noise = NoiseSource(seed)
    noise.seek(i)
    return noise


def _trapezoid(ys, dx):
    return (ys.sum() - 0.5 * (ys[0] + ys[-1])) * dx


def quadrature_posterior_mean(y, s, mu, tau2):
    """E[x | y] for y = (1-s)x + s*eps, x ~ N(mu, tau2), by dense numerical
    integration over the joint density. Independent of the package's
    closed-form conditioning."""
    tau = np.sqrt(tau2)
    xs = np.linspace(mu - 12 * tau, mu + 12 * tau, 400001)
    log_w = -((xs - mu) ** 2) / (2 * tau2) - ((y - (1 - s) * xs) ** 2) / (2 * s * s)
    w = np.exp(log_w - log_w.max())
    dx = xs[1] - xs[0]
    return _trapezoid(xs * w, dx) / _trapezoid(w, dx)


def test_context_rejects_mismatched_shapes_and_unordered_positions():
    with pytest.raises(ValueError, match="ascending"):
        Context(np.zeros((2, 1)), [1, 1])
    with pytest.raises(ValueError, match="ascending"):
        Context(np.zeros((2, 1)), [1, 0])
    with pytest.raises(ValueError):
        Context(np.zeros((2, 1)), [0, 1, 2])
    with pytest.raises(ValueError):
        Context(np.zeros(2), [0, 1])
    assert len(Context(np.zeros((3, 2)), [5, 6, 9])) == 3


@pytest.mark.parametrize("positions", [[0.5, 1.7], [0.0, 1.0], np.array([2.0, 3.0]),
                                       [True, False], ["1", "2"], np.array([b"1", b"2"]),
                                       np.array([5, 2**63], np.uint64), [5, 2**70]],
                         ids=["fractional", "integral-floats", "float-array", "bool",
                              "str", "bytes", "uint64-past-int64", "int-past-int64"])
def test_context_refuses_positions_that_are_not_integers(positions):
    with pytest.raises(ValueError, match="integers"):
        Context(np.zeros((2, 4)), positions)


@pytest.mark.parametrize("positions", [[], np.zeros(0), [3, 7], np.array([3, 7], np.int32),
                                       np.array([3, 7], np.uint8)],
                         ids=["empty-list", "empty-float-array", "ints", "int32", "uint8"])
def test_context_takes_integer_positions_as_int64(positions):
    context = Context(np.zeros((len(positions), 4)), positions)
    assert context.positions.dtype == np.int64
    assert context.positions.tolist() == list(positions)


# --------------------------------------------------------------------------
# analytic Gaussian denoiser
# --------------------------------------------------------------------------

def test_rho_outside_open_interval_is_rejected():
    for rho in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            AnalyticGaussianDenoiser(rho=rho)


def test_clean_observation_is_returned_unchanged():
    den = AnalyticGaussianDenoiser(rho=0.9)
    noisy = np.array([[0.3, -0.7], [1.1, 0.0]])
    ctx = make_context([[1.0, 1.0]])
    assert np.array_equal(posterior_mean(den, noisy, 0.0, ctx), noisy)
    eps = NoiseSource(0).standard_normal(noisy.shape)
    assert np.array_equal(estimate(den, noisy, 0.0, ctx, eps), noisy)


def test_pure_noise_with_no_context_yields_prior_mean_zero():
    den = AnalyticGaussianDenoiser(rho=0.9)
    noisy = np.array([[5.0], [-3.0]])
    assert np.array_equal(posterior_mean(den, noisy, 1000.0, empty_context(1)),
                          np.zeros((2, 1)))


def test_worked_example_matches_two_by_two_conditioning():
    # rho=0.9, sigma=0.5, last context frame 1.0, noisy 0.0
    den = AnalyticGaussianDenoiser(rho=0.9)
    ctx = make_context([[1.0]])
    mean = posterior_mean(den, np.array([[0.0]]), 500.0, ctx)
    oracle = quadrature_posterior_mean(0.0, 0.5, 0.9, 1 - 0.81)
    assert abs(mean[0, 0] - oracle) < 1e-6


def test_posterior_mean_matches_quadrature_on_random_configurations():
    rng = np.random.default_rng(20)
    for trial in range(20):
        rho = rng.uniform(-0.95, 0.95)
        den = AnalyticGaussianDenoiser(rho=rho)
        z_prev = rng.normal(scale=1.5)
        y = rng.normal(scale=1.5)
        t = rng.uniform(50.0, 1000.0)
        s = t / 1000.0
        block_size = rng.integers(1, 4)
        noisy = np.full((block_size, 1), y)
        ctx = make_context([[z_prev]])
        mean = posterior_mean(den, noisy, t, ctx)
        for k in range(block_size):
            mu = rho ** (k + 1) * z_prev
            tau2 = 1 - rho ** (2 * (k + 1))
            oracle = quadrature_posterior_mean(y, s, mu, tau2)
            assert abs(mean[k, 0] - oracle) < 1e-6, f"trial {trial} frame {k}"


def test_gap_grows_with_in_block_offset():
    den = AnalyticGaussianDenoiser(rho=0.5)
    ctx = make_context([[2.0]])
    mean = posterior_mean(den, np.zeros((3, 1)), 1000.0, ctx)
    # at full noise the posterior collapses to the prior mean rho^(k+1)*z
    assert np.allclose(mean[:, 0], [1.0, 0.5, 0.25])


def test_most_recent_context_frame_wins():
    den = AnalyticGaussianDenoiser(rho=0.5)
    ctx = make_context([[10.0], [2.0]])  # positions 0, 1: the later one rules
    mean = posterior_mean(den, np.zeros((1, 1)), 1000.0, ctx)
    assert mean[0, 0] == pytest.approx(1.0)


def test_posterior_draw_is_calibrated():
    den = AnalyticGaussianDenoiser(rho=0.9)
    ctx = make_context([[1.0]])
    noisy = np.zeros((1, 1))
    state = den.condition(ctx, 1)
    mean, var, _ = den.posterior(noisy, 500.0, state)
    eps = NoiseSource(5).standard_normal((20000, 1, 1))
    draws = np.array([den.estimate(noisy, 500.0, state, e)[0, 0] for e in eps])
    assert abs(draws.mean() - mean[0, 0]) < 4 * np.sqrt(var[0, 0] / len(draws))
    assert abs(draws.var() - var[0, 0]) < 0.05 * var[0, 0]


def test_estimate_without_eps_degrades_to_posterior_mean():
    den = AnalyticGaussianDenoiser(rho=0.7)
    ctx = make_context([[0.4]])
    noisy = np.array([[0.2]])
    state = den.condition(ctx, 1)
    assert np.array_equal(den.estimate(noisy, 300.0, state),
                          den.posterior(noisy, 300.0, state)[0])


def closed_form_posterior(rho, ctx, noisy, t):
    """The analytic posterior written out from the model, every term built
    per call: the reference for the denoiser's shared per-level table."""
    block_size, frame_dim = noisy.shape
    gaps = np.arange(1, block_size + 1, dtype=np.float64)[:, None]
    if len(ctx):
        mu = rho ** gaps * ctx.values[-1][None, :]
        tau2 = 1.0 - rho ** (2.0 * gaps)
    else:
        mu, tau2 = np.zeros((block_size, frame_dim)), np.ones((block_size, 1))
    s = sigma(t)
    if s == 0.0:
        return noisy.copy(), np.zeros_like(noisy)
    denom = (1.0 - s) ** 2 * tau2 + s**2
    mean = mu + (1.0 - s) * tau2 / denom * (noisy - (1.0 - s) * mu)
    return mean, np.broadcast_to(tau2 * s**2 / denom, noisy.shape).copy()


def test_level_table_is_exact_across_block_sizes_contexts_and_timesteps():
    rho, frame_dim = 0.8, 2
    shared = AnalyticGaussianDenoiser(rho)
    timesteps = TimestepSchedule((1000.0, 910.0, 420.0, 35.0, 0.0))
    gen = np.random.default_rng(3)
    contexts = (empty_context(frame_dim),
                make_context(gen.standard_normal((4, frame_dim))))
    draw = 0
    for block_size in (3, 2):
        for ctx in contexts:  # empty, then non-empty
            state = shared.condition(ctx, block_size)
            for t in timesteps.steps:
                noisy = gen.standard_normal((block_size, frame_dim))
                fresh = AnalyticGaussianDenoiser(rho)
                fresh_state = fresh.condition(ctx, block_size)
                z = noise_at(7, draw).standard_normal(noisy.shape)
                got = shared.estimate(noisy, t, state, z)
                want = fresh.estimate(noisy, t, fresh_state, z)
                assert np.array_equal(got, want)
                mean, var, std = shared.posterior(noisy, t, state)
                want_mean, want_var = closed_form_posterior(rho, ctx, noisy, t)
                assert np.array_equal(mean, want_mean)
                assert np.array_equal(np.broadcast_to(var, mean.shape), want_var)
                assert np.array_equal(std, np.sqrt(var))
                assert np.array_equal(got, mean + np.sqrt(var) * z)
                assert np.array_equal(shared.estimate(noisy, t, state), mean)
                draw += 1
            cached = [state.tau2] + [a for level in state.levels.values()
                                     for a in level[1:]]
            assert len(cached) == 1 + 3 * len(timesteps.steps)
            for array in cached:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0] = 1.0


# --------------------------------------------------------------------------
# context-mean denoiser
# --------------------------------------------------------------------------

def test_full_anchor_on_constant_context_returns_the_constant():
    den = ContextMeanDenoiser(anchor_weight=1.0)
    ctx = make_context([[0.7, 0.7]] * 4)
    out = estimate(den, np.random.default_rng(0).standard_normal((3, 2)), 500.0, ctx)
    assert np.allclose(out, 0.7)


def test_empty_context_renormalizes_onto_noisy_term():
    den = ContextMeanDenoiser(anchor_weight=1.0, bias=0.25)
    noisy = np.array([[1.0, -1.0]])
    assert np.allclose(estimate(den, noisy, 500.0, empty_context(2)), noisy + 0.25)


def test_anchor_mixes_context_mean_and_noisy():
    den = ContextMeanDenoiser(anchor_weight=0.25, bias=0.0)
    ctx = make_context([[2.0]] * 3)
    noisy = np.array([[4.0]])
    assert estimate(den, noisy, 0.0, ctx)[0, 0] == pytest.approx(
        0.25 * 2.0 + 0.75 * 4.0
    )


def test_innovation_requires_eps():
    den = ContextMeanDenoiser(innovation_scale=0.1)
    with pytest.raises(ValueError, match="requires eps"):
        estimate(den, np.zeros((1, 1)), 500.0, empty_context(1))
    out = estimate(den, np.zeros((1, 1)), 500.0, empty_context(1), np.full((1, 1), 2.0))
    assert out.tolist() == [[0.2]]


def test_context_mean_parameter_validation():
    with pytest.raises(ValueError):
        ContextMeanDenoiser(anchor_weight=1.5)
    with pytest.raises(ValueError):
        ContextMeanDenoiser(innovation_scale=-0.1)
    with pytest.raises(ValueError):
        ContextMeanDenoiser(innovation_scale=float("nan"))
    for bias in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="bias must be a finite number"):
            ContextMeanDenoiser(bias=bias)
    assert ContextMeanDenoiser(bias=1e308).bias == 1e308  # finite: overflows later


def test_each_denoiser_states_its_draws_per_level():
    assert AnalyticGaussianDenoiser().draws_per_level == 1
    assert ContextMeanDenoiser().draws_per_level == 0
    assert ContextMeanDenoiser(innovation_scale=0.1).draws_per_level == 1
    assert TinyAttentionDenoiser(frame_dim=4).draws_per_level == 0


# --------------------------------------------------------------------------
# reads_positions
# --------------------------------------------------------------------------

FRAME_DIM = 6
# the position-blind denoisers, built to take eps or not
POSITION_BLIND = {
    "analytic-gaussian": lambda with_eps: AnalyticGaussianDenoiser(rho=0.7),
    "context-mean": lambda with_eps: ContextMeanDenoiser(
        anchor_weight=0.6, innovation_scale=0.3 if with_eps else 0.0, bias=0.05),
}
FINITE = st.floats(-1e3, 1e3)


@st.composite
def ascending_positions(draw, n: int) -> np.ndarray:
    start = draw(st.integers(-10**6, 10**6))
    gaps = draw(st.lists(st.integers(1, 10**4), min_size=n, max_size=n))
    return start + np.cumsum(np.array(gaps, dtype=np.int64))


def test_each_denoiser_states_whether_it_reads_positions():
    assert AnalyticGaussianDenoiser.reads_positions is False
    assert ContextMeanDenoiser.reads_positions is False
    assert TinyAttentionDenoiser.reads_positions is True


@given(data=st.data(), name=st.sampled_from(sorted(POSITION_BLIND)), n=st.integers(1, 8),
       block_size=st.integers(1, 4), frame_dim=st.integers(1, 5),
       t=st.floats(0.0, 1000.0), with_eps=st.booleans())
def test_a_position_blind_denoiser_gives_the_same_bytes_at_any_positions(
        data, name, n, block_size, frame_dim, t, with_eps):
    values = data.draw(hnp.arrays(np.float64, (n, frame_dim), elements=FINITE))
    noisy = data.draw(hnp.arrays(np.float64, (block_size, frame_dim), elements=FINITE))
    eps = (data.draw(hnp.arrays(np.float64, noisy.shape, elements=FINITE))
           if with_eps else None)
    first = data.draw(ascending_positions(n))
    second = data.draw(ascending_positions(n))
    if np.array_equal(first, second):
        second = second + 1
    outputs = []
    for positions in (first, second):
        den = POSITION_BLIND[name](with_eps)
        state = den.condition(Context(values, positions), block_size)
        outputs.append(den.estimate(noisy, t, state, eps).tobytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("den", [
    AnalyticGaussianDenoiser(rho=0.7), ContextMeanDenoiser(anchor_weight=0.6, bias=0.05),
    TinyAttentionDenoiser(frame_dim=FRAME_DIM)], ids=lambda den: type(den).__name__)
def test_sliding_indices_positions_move_only_a_denoiser_that_reads_them(den):
    # K = 4, S = 1, block_size 3, step 7: attention-sink pins block 0 at
    # positions 0..2, sliding-indices at 9..11; blocks 4..6 follow at 12..20
    rng = np.random.default_rng(6)
    values, noisy = rng.standard_normal((12, FRAME_DIM)), rng.standard_normal((3, FRAME_DIM))
    eps = rng.standard_normal(noisy.shape) if den.draws_per_level else None
    recent = np.arange(12, 21)
    outputs = [den.estimate(noisy, 500.0, den.condition(Context(
        values, np.concatenate((sinks, recent))), 3), eps).tobytes()
        for sinks in (np.arange(0, 3), np.arange(9, 12))]
    assert (outputs[0] == outputs[1]) is not den.reads_positions


# --------------------------------------------------------------------------
# tiny attention denoiser
# --------------------------------------------------------------------------


def build_attention(seed=3):
    return TinyAttentionDenoiser(frame_dim=FRAME_DIM, model_dim=32, head_count=4,
                                 layer_count=2, weight_seed=seed)


def random_case(rng, n_ctx=6):
    noisy = rng.standard_normal((3, FRAME_DIM))
    ctx = make_context(rng.standard_normal((n_ctx, FRAME_DIM)))
    return noisy, ctx


def test_attention_output_shape_matches_input():
    rng = np.random.default_rng(0)
    den = build_attention()
    noisy, ctx = random_case(rng)
    assert estimate(den, noisy, 500.0, ctx).shape == noisy.shape
    assert estimate(den, noisy, 1000.0, empty_context(FRAME_DIM)).shape == noisy.shape


def test_attention_weights_are_seed_deterministic():
    rng = np.random.default_rng(1)
    noisy, ctx = random_case(rng)
    a = estimate(build_attention(seed=9), noisy, 500.0, ctx)
    b = estimate(build_attention(seed=9), noisy, 500.0, ctx)
    c = estimate(build_attention(seed=10), noisy, 500.0, ctx)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_attention_is_invariant_under_uniform_position_shift():
    rng = np.random.default_rng(2)
    den = build_attention()
    for trial in range(20):
        noisy, ctx = random_case(rng, n_ctx=int(rng.integers(1, 9)))
        d = int(rng.integers(1, 5000))
        shifted = Context(ctx.values, ctx.positions + d)
        base = estimate(den, noisy, 500.0, ctx)
        moved = estimate(den, noisy, 500.0, shifted)
        assert np.abs(base - moved).max() < 1e-6, f"trial {trial}"


def test_attention_is_sensitive_to_nonuniform_position_changes():
    rng = np.random.default_rng(3)
    den = build_attention()
    noisy, ctx = random_case(rng)
    skew = np.full(len(ctx), 3)
    skew[0] = 0  # every frame but the first moves 3 positions later
    skewed = Context(ctx.values, ctx.positions + skew)
    assert np.abs(estimate(den, noisy, 500.0, ctx)
                  - estimate(den, noisy, 500.0, skewed)).max() > 1e-8


def test_duplicating_a_context_slot_changes_the_output():
    rng = np.random.default_rng(4)
    den = build_attention()
    noisy, ctx = random_case(rng)
    dup = Context(np.vstack([ctx.values, ctx.values[-1:]]),
                  np.append(ctx.positions, ctx.positions[-1] + 1))
    assert np.abs(estimate(den, noisy, 500.0, ctx)
                  - estimate(den, noisy, 500.0, dup)).max() > 1e-8


def test_attention_rejects_mismatched_widths():
    den = build_attention()
    with pytest.raises(ValueError):
        estimate(den, np.zeros((3, FRAME_DIM + 1)), 500.0, empty_context(FRAME_DIM))
    with pytest.raises(ValueError):
        estimate(den, np.zeros((3, FRAME_DIM)), 500.0,
                 make_context(np.zeros((2, FRAME_DIM + 1))))


def test_attention_builds_its_rotary_frequencies_once(monkeypatch):
    calls = []

    def counting(dim):
        calls.append(dim)
        return pair_frequencies(dim)

    # both names: the denoiser's import and the one rope's own functions call
    monkeypatch.setattr(denoisers, "pair_frequencies", counting)
    monkeypatch.setattr(rope, "pair_frequencies", counting)
    den = TinyAttentionDenoiser(frame_dim=4)
    run(RolloutConfig(PolicyConfig(), den, horizon=20))
    assert calls == [den.head_dim]


def test_attention_configuration_validation():
    with pytest.raises(ValueError):
        TinyAttentionDenoiser(frame_dim=4, model_dim=30, head_count=4)
    with pytest.raises(ValueError):
        TinyAttentionDenoiser(frame_dim=4, model_dim=12, head_count=4)  # odd head dim
    with pytest.raises(ValueError):
        TinyAttentionDenoiser(frame_dim=0)


ORACLE_GEOMETRIES = [(32, 4, 2), (16, 2, 1), (24, 3, 3)]  # (model_dim, head_count, layer_count)


def attention_case(seed, geometry, block_size, frame_dim, n):
    """A denoiser of `geometry`, a Context of n frames at random strictly
    ascending positions, and one noisy block per level of a T=4 schedule."""
    model_dim, head_count, layer_count = geometry
    rng = np.random.default_rng(seed)
    den = TinyAttentionDenoiser(frame_dim=frame_dim, model_dim=model_dim,
                                head_count=head_count, layer_count=layer_count,
                                weight_seed=int(rng.integers(2**32)))
    positions = int(rng.integers(0, 10**6)) + np.cumsum(rng.integers(1, 6, size=n))
    ctx = Context(rng.standard_normal((n, frame_dim)), positions)
    levels = TimestepSchedule.uniform(4).steps[:-1]
    return den, ctx, [(t, rng.standard_normal((block_size, frame_dim))) for t in levels]


@given(seed=st.integers(0, 2**32 - 1), geometry=st.sampled_from(ORACLE_GEOMETRIES),
       block_size=st.integers(1, 4), frame_dim=st.integers(2, 6),
       n=st.one_of(st.integers(0, 24), st.integers(0, 450)))
def test_attention_matches_the_concatenating_oracle_byte_for_byte(
        seed, geometry, block_size, frame_dim, n):
    den, ctx, levels = attention_case(seed, geometry, block_size, frame_dim, n)
    state = den.condition(ctx, block_size)
    expected = attention_oracle.condition(den, ctx, block_size)
    for t, noisy in levels:
        got = den.estimate(noisy, t, state)
        assert got.tobytes() == attention_oracle.estimate(den, noisy, t, expected).tobytes()


def kv_context_bytes(state):
    """The context rows of every layer's key and value buffers, as bytes."""
    n = len(state)
    return ([k[..., :n].tobytes() for k in state.keys]
            + [v[:, :n].tobytes() for v in state.values])


@pytest.mark.parametrize("n", [0, 1, 18, 450])
@pytest.mark.parametrize("geometry", ORACLE_GEOMETRIES)
def test_the_reserved_kv_slots_are_scratch_only(geometry, n):
    den, ctx, levels = attention_case(n, geometry, 3, 4, n)
    state = den.condition(ctx, 3)
    context_rows = kv_context_bytes(state)
    (t_a, a), (t_b, b) = levels[:2]
    first = den.estimate(a, t_a, state)
    den.estimate(b, t_b, state)
    assert den.estimate(a, t_a, state).tobytes() == first.tobytes()
    assert kv_context_bytes(state) == context_rows
