"""Pluggable block denoisers at toy scale.

A denoiser maps (noisy block, timestep, conditioning context) to an
estimate of the clean block, in two calls. Each step the engine expands
its schedule into one `Context`: an (n, frame_dim) float64 array of latent
frames and their (n,) frame positions, ascending. `condition(context,
block_size)` runs once per step and returns a state holding that Context
plus everything derived from it alone; `estimate(noisy, t, state, eps)`
runs once per denoising level, with `draws_per_level` standard-normal
blocks of noise (eps, or None when it is 0). The state lives for one step.
Three implementations:

* AnalyticGaussianDenoiser — closed-form oracle for a synthetic AR(1)
  data model; lets the sampler be checked against an exact stationary law.
* ContextMeanDenoiser — convex mix of the context mean and the noisy
  input with an optional additive bias, the controllable error source used
  to demonstrate long-horizon drift.
* TinyAttentionDenoiser — fixed random-weight attention stack that
  consumes the cache exactly the way a real backbone would: queries from
  the current block only, keys/values from context plus current block,
  rotary embedding applied to queries and keys at their assigned frame
  positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .rope import apply_rotation, pair_frequencies, rotate, rotation
from .sampler import sigma


@dataclass(frozen=True, eq=False)
class Context:
    """One step's conditioning: row j of `values` (n, frame_dim) is the
    latent frame embedded at frame position `positions[j]`. Positions are
    integers, strictly ascending, so the last row is the most recent frame."""

    values: np.ndarray
    positions: np.ndarray

    @classmethod
    def unchecked(cls, values: np.ndarray, positions: np.ndarray) -> "Context":
        """A Context of `values` and `positions` as they are, without the
        checks: the caller guarantees a float64 (n, frame_dim) array and a
        strictly ascending int64 (n,) array, as the engine's gather builds."""
        context = object.__new__(cls)
        object.__setattr__(context, "values", values)
        object.__setattr__(context, "positions", positions)
        return context

    def __post_init__(self) -> None:
        values, positions = np.asarray(self.values, dtype=np.float64), np.asarray(self.positions)
        if positions.size and (positions.dtype.kind not in "iu" or positions.max() >= 2**63):
            raise ValueError(f"context positions must be int64 integers, got {positions.dtype}")
        positions = positions.astype(np.int64, copy=False)
        if values.ndim != 2 or positions.shape != values.shape[:1]:
            raise ValueError(
                f"context needs values (n, frame_dim) and positions (n,), got "
                f"{values.shape} and {positions.shape}"
            )
        if not (positions[1:] > positions[:-1]).all():
            raise ValueError("context positions must be strictly ascending")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True, eq=False)
class Conditioned:
    """What a denoiser derives from one step's Context before its first
    estimate. It is valid for that step only; len() is the number of
    context frames."""

    context: Context

    def __len__(self) -> int:
        return len(self.context)


class DenoiserInterface(Protocol):
    """Contract consumed by sampler.sample_block.

    condition() runs once per step and does every piece of work that depends
    only on the step's context, not on the noise level or the noisy block.
    estimate() runs once per denoising level and returns the intermediate
    clean prediction for `noisy` (block_size, frame_dim) at timestep `t` from
    that state, which may hold per-block scratch that every estimate()
    overwrites before it reads it. A denoiser that needs randomness states
    draws_per_level = 1 and takes it from `eps`, a standard-normal array of
    noisy's shape that the sampler draws from the step's noise stream, so
    results are deterministic under a fixed seed; with draws_per_level = 0
    the sampler passes eps=None. reads_positions is False when the output
    depends on context.values alone, never on context.positions; then
    policies that pin the same blocks at other positions give the same
    rollout (`blockroll sweep` runs one rollout for both).
    """

    draws_per_level: int
    reads_positions: bool

    def condition(self, context: Context, block_size: int) -> Conditioned: ...

    def estimate(self, noisy: np.ndarray, t: float, state: Conditioned,
                 eps: np.ndarray | None = None) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class GaussianPrior(Conditioned):
    """Prior mean (block_size, frame_dim) and variance (block_size, 1) of
    the next block's frames, and the denoiser's read-only per-level table
    for this block size and context emptiness (see AnalyticGaussianDenoiser)."""

    mu: np.ndarray
    tau2: np.ndarray
    levels: dict[float, tuple[float, np.ndarray, np.ndarray, np.ndarray]]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class AnalyticGaussianDenoiser:
    """Exact Gaussian conditioning for the AR(1) data model
    z_{n+1} = rho*z_n + sqrt(1-rho^2)*w (stationary variance 1, applied
    per coordinate).

    The frame at in-block offset k is modeled as lying k+1 steps after the
    most recent context frame; with no context the prior is the stationary
    N(0, 1). `posterior` wraps `estimate`: the exact posterior mean, variance
    and standard deviation of the clean frame given the noisy observation
    at level sigma(t).

    Only the prior mean depends on the context values. rho**gaps and tau2
    are built once per (block_size, context empty or not), and each
    level's gain, variance and standard deviation once per such key and
    timestep, in a read-only table that later blocks reuse and `estimate`
    reads. It grows by one entry per distinct timestep the caller uses.
    """

    draws_per_level = 1
    reads_positions = False

    def __init__(self, rho: float = 0.9):
        if not -1.0 < rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1) (got {rho})")
        self.rho = rho
        # (block_size, context empty) -> (rho**gaps or None, tau2, levels)
        self._priors: dict[tuple[int, bool], tuple] = {}

    def condition(self, context: Context, block_size: int) -> GaussianPrior:
        key = (block_size, not len(context))
        if key not in self._priors:
            if len(context):
                gaps = np.arange(1, block_size + 1, dtype=np.float64)[:, None]
                self._priors[key] = (_frozen(self.rho ** gaps),
                                     _frozen(1.0 - self.rho ** (2.0 * gaps)), {})
            else:
                self._priors[key] = (None, _frozen(np.ones((block_size, 1))), {})
        powers, tau2, levels = self._priors[key]
        if powers is None:
            mu = np.zeros((block_size, context.values.shape[1]))
        else:
            mu = powers * context.values[-1]
        return GaussianPrior(context, mu, tau2, levels)

    def estimate(self, noisy: np.ndarray, t: float, state: GaussianPrior,
                 eps: np.ndarray | None = None) -> np.ndarray:
        """Posterior draw mean + std*eps when eps is supplied, posterior
        mean otherwise.

        Drawing from the exact posterior keeps the denoise/re-noise loop
        calibrated: composed over any timestep schedule, the sampled block
        is distributed exactly as the data model's conditional law, so
        long rollouts reproduce the stationary statistics. The bare
        posterior mean would systematically under-disperse.
        """
        level = state.levels.get(t)
        if level is None:
            s = sigma(t)
            denom = (1.0 - s) ** 2 * state.tau2 + s**2
            var = state.tau2 * s**2 / denom
            level = state.levels[t] = (s, _frozen((1.0 - s) * state.tau2 / denom),
                                       _frozen(var), _frozen(np.sqrt(var)))
        s, gain, _, std = level
        if s == 0.0:
            mean = np.array(noisy, dtype=np.float64)
        else:  # mu + gain * (noisy - (1 - s) * mu), the sums in place
            mean = noisy - (1.0 - s) * state.mu
            mean *= gain
            mean += state.mu
        if eps is not None:
            mean += std * eps
        return mean

    def posterior(self, noisy: np.ndarray, t: float, state: GaussianPrior):
        """Posterior mean, and the (block_size, 1) posterior variance and
        standard deviation, of the clean block at level t."""
        return (self.estimate(noisy, t, state), *state.levels[t][2:])


@dataclass(frozen=True, eq=False)
class ContextMean(Conditioned):
    """anchor_weight times the mean context frame (frame_dim,), None for an
    empty context."""

    anchored: np.ndarray | None


class ContextMeanDenoiser:
    """Convex combination of the context mean and the noisy block, plus an
    additive bias injected at every estimate (the controllable drift
    source) and an optional fresh-noise innovation.

    With an empty context the anchor weight is renormalized onto the noisy
    term, so the estimate degrades to noisy + bias. The innovation is
    innovation_scale * eps, so it takes one draw per level when
    innovation_scale > 0 and none otherwise.
    """

    reads_positions = False

    def __init__(self, anchor_weight: float = 1.0, innovation_scale: float = 0.0,
                 bias: float = 0.0):
        if not 0.0 <= anchor_weight <= 1.0:
            raise ValueError(f"anchor_weight must lie in [0, 1] (got {anchor_weight})")
        if not innovation_scale >= 0.0:  # also refuses NaN
            raise ValueError(f"innovation_scale must be >= 0 (got {innovation_scale})")
        if not math.isfinite(bias):
            raise ValueError(f"bias must be a finite number (got {bias})")
        self.anchor_weight = anchor_weight
        self.innovation_scale = innovation_scale
        self.bias = bias

    @property
    def draws_per_level(self) -> int:
        return 1 if self.innovation_scale > 0.0 else 0

    def condition(self, context: Context, block_size: int) -> ContextMean:
        if not len(context):
            return ContextMean(context, None)
        # np.mean's own reduction and divide, without its Python wrapper
        mean = np.add.reduce(context.values, axis=0) / len(context.values)
        return ContextMean(context, self.anchor_weight * mean)

    def estimate(self, noisy: np.ndarray, t: float, state: ContextMean,
                 eps: np.ndarray | None = None) -> np.ndarray:
        est = np.asarray(noisy, dtype=np.float64)
        if state.anchored is not None:
            est = state.anchored + (1.0 - self.anchor_weight) * est
        est = est + self.bias
        if self.innovation_scale > 0.0:
            if eps is None:
                raise ValueError("innovation_scale > 0 requires eps")
            est = est + self.innovation_scale * eps
        return est


@dataclass(frozen=True, eq=False)
class KVCache(Conditioned):
    """Per layer, the rotated keys (head_count, head_dim, n + block_size) and the
    values (head_count, n + block_size, head_dim): n context rows, then block_size
    slots that every estimate() fills with its block's rows before it reads them;
    and the rotation of the current block's positions (block_size, 1, 1, head_dim/2)."""

    keys: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    rot: np.ndarray


class TinyAttentionDenoiser:
    """Fixed random-weight attention stack over latent-frame tokens.

    Exercises the cache-conditioning plumbing, not generation quality:
    queries come solely from the current block's tokens; keys and values
    are the current tokens concatenated after the context tokens. Rotary
    embedding is applied to queries and keys per head at their frame
    positions, which makes the output invariant under a uniform
    translation of all positions. The current block's positions are the
    block_size positions immediately after the highest context position
    (starting at 0 when the context is empty). Context token
    representations are fixed input embeddings across layers, so their
    keys and values depend on the context alone: condition() computes them
    once per step as a K/V cache, and each estimate() projects and rotates
    only the block_size current rows. It draws no noise.
    """

    draws_per_level = 0
    reads_positions = True

    def __init__(self, frame_dim: int, model_dim: int = 32, head_count: int = 4,
                 layer_count: int = 2, weight_seed: int = 0):
        if frame_dim < 1 or model_dim < 1 or head_count < 1 or layer_count < 1:
            raise ValueError("frame_dim, model_dim, head_count, layer_count must be >= 1")
        if model_dim % head_count != 0:
            raise ValueError(
                f"model_dim {model_dim} not divisible by head_count {head_count}"
            )
        head_dim = model_dim // head_count
        if head_dim % 2 != 0:
            raise ValueError(f"head dim {head_dim} must be even for rotation")
        self.frame_dim = frame_dim
        self.model_dim = model_dim
        self.head_count = head_count
        self.head_dim = head_dim
        self.layer_count = layer_count
        self.freqs = pair_frequencies(head_dim)

        gen = np.random.default_rng(weight_seed & 0xFFFF_FFFF_FFFF_FFFF)
        self.w_in = gen.standard_normal((frame_dim, model_dim)) / np.sqrt(frame_dim)
        self.t_embed = gen.standard_normal(model_dim) / np.sqrt(model_dim)
        self.layers = []  # per layer: fused (w_q | w_k | w_v) and w_o
        for _ in range(layer_count):
            w_q, w_k, w_v, w_o = (
                gen.standard_normal((model_dim, model_dim)) / np.sqrt(model_dim)
                for _ in range(4)
            )
            self.layers.append((np.concatenate([w_q, w_k, w_v], axis=1), w_o))
        # every layer's (w_k | w_v), for the context's keys and values in one product
        self.w_kv = np.concatenate([w_qkv[:, model_dim:] for w_qkv, _ in self.layers], axis=1)
        self.w_out = gen.standard_normal((model_dim, frame_dim)) / np.sqrt(model_dim)

    def condition(self, context: Context, block_size: int) -> KVCache:
        width = context.values.shape[1]
        if width != self.frame_dim:
            raise ValueError(
                f"context frame width {width} does not match frame_dim {self.frame_dim}"
            )
        n = len(context)
        # One allocation, which the heap reuses step after step: each row's K/V
        # product, whose values are read in place, then the rotated keys. Rows lie
        # as np.concatenate lays them out in tests/attention_oracle.py, since BLAS
        # picks its kernel by layout.
        rows, cols = n + block_size, 2 * self.layer_count * self.model_dim
        buf = np.empty(rows * cols * 3 // 2)
        kv = buf[:rows * cols].reshape(rows, cols)
        np.matmul(context.values @ self.w_in, self.w_kv, out=kv[:n])
        kv = kv.reshape(rows, self.layer_count, 2, self.head_count, self.head_dim)
        keys = buf[rows * cols:].reshape(self.layer_count, rows, self.head_count, self.head_dim)
        keys = keys.transpose(0, 2, 3, 1)
        if n == 0 or n == block_size == 1:  # keys (h, d, ctx+q), not (ctx+q, h, d)
            keys = buf[rows * cols:].reshape(keys.shape)
        keys[..., :n] = rotate(self.freqs, kv[:n, :, 0].swapaxes(0, 1),
                               context.positions[:, None]).transpose(0, 2, 3, 1)
        start = context.positions[-1] + 1 if n else 0
        return KVCache(
            context,
            keys=tuple(keys),
            values=tuple(kv[:, :, 1].transpose(1, 2, 0, 3)),
            rot=rotation(self.freqs, start + np.arange(block_size)[:, None, None]),
        )

    def estimate(self, noisy: np.ndarray, t: float, state: KVCache,
                 eps: np.ndarray | None = None) -> np.ndarray:
        noisy = np.asarray(noisy, dtype=np.float64)
        block_size = len(state.rot)
        if noisy.shape != (block_size, self.frame_dim):
            raise ValueError(
                f"noisy block must have shape ({block_size}, {self.frame_dim}), "
                f"got {noisy.shape}"
            )
        scale = math.sqrt(self.head_dim)
        n = len(state)
        h_cur = noisy @ self.w_in + sigma(t) * self.t_embed
        for (w_qkv, w_o), k, v in zip(self.layers, state.keys, state.values):
            qkv = (h_cur @ w_qkv).reshape(block_size, 3, self.head_count, self.head_dim)
            qk = apply_rotation(qkv[:, :2], state.rot)
            # heads first: q (h, q, d), k (h, d, ctx+q), v (h, ctx+q, d); the block's
            # keys and values fill the slots after the context's
            k[..., n:] = qk[:, 1].transpose(1, 2, 0)
            v[:, n:] = qkv[:, 2].transpose(1, 0, 2)
            attn = qk[:, 0].transpose(1, 0, 2) @ k
            attn /= scale  # softmax in place
            attn -= attn.max(axis=-1, keepdims=True)
            np.exp(attn, out=attn)
            attn /= attn.sum(axis=-1, keepdims=True)
            mixed = (attn @ v).transpose(1, 0, 2)
            h_cur = h_cur + mixed.reshape(block_size, self.model_dim) @ w_o
        return h_cur @ self.w_out
