"""Pluggable block denoisers at toy scale.

A denoiser maps (noisy block, timestep, conditioning context) to an
estimate of the clean block, in two calls. Each step the engine expands
its schedule into one `Context`: an (n, frame_dim) float64 array of latent
frames and their (n,) frame positions, ascending. `condition(context,
block_size)` runs once per step and returns a state holding that Context
plus everything derived from it alone; `estimate(noisy, t, state, rng)`
runs once per denoising level. The state lives for one step. Three
implementations:

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

from .rope import RotaryConfig, apply_rotation, rotate, rotation
from .sampler import NoiseSource, sigma


@dataclass(frozen=True, eq=False)
class Context:
    """One step's conditioning: row j of `values` (n, frame_dim) is the
    latent frame embedded at frame position `positions[j]`. Positions are
    strictly ascending, so the last row is the most recent frame."""

    values: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        positions = np.asarray(self.positions, dtype=np.int64)
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

    condition() runs once per step and does every piece of work that
    depends only on the step's context, not on the noise level or the
    noisy block. estimate() runs once per denoising level and returns the
    intermediate clean prediction for `noisy` (block_size, frame_dim) at
    timestep `t` from that state. Implementations needing randomness draw
    from `rng`, so results are deterministic under a fixed seed.
    """

    def condition(self, context: Context, block_size: int) -> Conditioned: ...

    def estimate(self, noisy: np.ndarray, t: float, state: Conditioned,
                 rng: NoiseSource | None = None) -> np.ndarray: ...


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
    N(0, 1). `posterior` returns the exact posterior mean and variance of
    the clean frame given the noisy observation at level sigma(t).

    Only the prior mean depends on the context values. rho**gaps and tau2
    are built once per (block_size, context empty or not), and each
    level's gain, variance and standard deviation once per such key and
    timestep; later blocks reuse these read-only arrays. The table grows
    by one entry per distinct timestep the caller uses.
    """

    def __init__(self, rho: float):
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

    def _posterior(self, noisy: np.ndarray, t: float, state: GaussianPrior):
        """Posterior mean, and the (block_size, 1) posterior variance and
        standard deviation, of the clean block at level t."""
        level = state.levels.get(t)
        if level is None:
            s = sigma(t)
            denom = (1.0 - s) ** 2 * state.tau2 + s**2
            gain = (1.0 - s) * state.tau2 / denom
            var = state.tau2 * s**2 / denom
            level = (s, _frozen(gain), _frozen(var), _frozen(np.sqrt(var)))
            state.levels[t] = level
        s, gain, var, std = level
        noisy = np.asarray(noisy, dtype=np.float64)
        if s == 0.0:
            return noisy.copy(), var, std
        mu = state.mu
        return mu + gain * (noisy - (1.0 - s) * mu), var, std

    def posterior(self, noisy: np.ndarray, t: float,
                  state: GaussianPrior) -> tuple[np.ndarray, np.ndarray]:
        mean, var, _ = self._posterior(noisy, t, state)
        return mean, np.broadcast_to(var, mean.shape).copy()

    def posterior_mean(self, noisy: np.ndarray, t: float,
                       state: GaussianPrior) -> np.ndarray:
        """Deterministic MMSE estimate (exact posterior mean)."""
        return self._posterior(noisy, t, state)[0]

    def estimate(self, noisy: np.ndarray, t: float, state: GaussianPrior,
                 rng: NoiseSource | None = None) -> np.ndarray:
        """Posterior draw when rng is supplied, posterior mean otherwise.

        Drawing from the exact posterior keeps the denoise/re-noise loop
        calibrated: composed over any timestep schedule, the sampled block
        is distributed exactly as the data model's conditional law, so
        long rollouts reproduce the stationary statistics. The bare
        posterior mean would systematically under-disperse.
        """
        mean, _, std = self._posterior(noisy, t, state)
        if rng is None:
            return mean
        return mean + std * rng.standard_normal(mean.shape)


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
    term, so the estimate degrades to noisy + bias.
    """

    def __init__(self, anchor_weight: float = 1.0, innovation_scale: float = 0.0,
                 bias: float = 0.0):
        if not 0.0 <= anchor_weight <= 1.0:
            raise ValueError(f"anchor_weight must lie in [0, 1] (got {anchor_weight})")
        if innovation_scale < 0.0:
            raise ValueError(f"innovation_scale must be >= 0 (got {innovation_scale})")
        self.anchor_weight = anchor_weight
        self.innovation_scale = innovation_scale
        self.bias = bias

    def condition(self, context: Context, block_size: int) -> ContextMean:
        if not len(context):
            return ContextMean(context, None)
        return ContextMean(context, self.anchor_weight * context.values.mean(axis=0))

    def estimate(self, noisy: np.ndarray, t: float, state: ContextMean,
                 rng: NoiseSource | None = None) -> np.ndarray:
        sigma(t)  # range check only
        noisy = np.asarray(noisy, dtype=np.float64)
        if state.anchored is not None:
            est = state.anchored + (1.0 - self.anchor_weight) * noisy
        else:
            est = noisy.copy()
        est = est + self.bias
        if self.innovation_scale > 0.0:
            if rng is None:
                raise ValueError("innovation_scale > 0 requires a NoiseSource")
            est = est + self.innovation_scale * rng.standard_normal(noisy.shape)
        return est


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class KVCache(Conditioned):
    """Per layer, the rotated context keys (head_count, head_dim, n) and the
    context values (head_count, n, head_dim); and the rotation of the
    current block's positions (block_size, 1, 1, head_dim/2)."""

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
    only the block_size current rows.
    """

    def __init__(self, frame_dim: int, model_dim: int = 32, head_count: int = 4,
                 layer_count: int = 2, weight_seed: int = 0,
                 rope_base: float = 10000.0):
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
        self.weight_seed = weight_seed
        self.rotary = RotaryConfig(dim=head_dim, base=rope_base)

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
        self.w_out = gen.standard_normal((model_dim, frame_dim)) / np.sqrt(model_dim)

    def condition(self, context: Context, block_size: int) -> KVCache:
        width = context.values.shape[1]
        if width != self.frame_dim:
            raise ValueError(
                f"context frame width {width} does not match frame_dim {self.frame_dim}"
            )
        n = len(context)
        h_ctx = context.values @ self.w_in
        kv = np.stack([h_ctx @ w_qkv[:, self.model_dim:] for w_qkv, _ in self.layers])
        kv = kv.reshape(self.layer_count, n, 2, self.head_count, self.head_dim)
        keys = rotate(self.rotary, kv[:, :, 0], context.positions[:, None])
        start = context.positions[-1] + 1 if n else 0
        return KVCache(
            context,
            keys=tuple(keys.transpose(0, 2, 3, 1)),
            values=tuple(kv[:, :, 1].transpose(0, 2, 1, 3)),
            rot=rotation(self.rotary, start + np.arange(block_size)[:, None, None]),
        )

    def estimate(self, noisy: np.ndarray, t: float, state: KVCache,
                 rng: NoiseSource | None = None) -> np.ndarray:
        noisy = np.asarray(noisy, dtype=np.float64)
        block_size = len(state.rot)
        if noisy.shape != (block_size, self.frame_dim):
            raise ValueError(
                f"noisy block must have shape ({block_size}, {self.frame_dim}), "
                f"got {noisy.shape}"
            )
        scale = math.sqrt(self.head_dim)
        h_cur = noisy @ self.w_in + sigma(t) * self.t_embed
        for (w_qkv, w_o), k_ctx, v_ctx in zip(self.layers, state.keys, state.values):
            qkv = (h_cur @ w_qkv).reshape(block_size, 3, self.head_count, self.head_dim)
            qk = apply_rotation(qkv[:, :2], state.rot)
            # heads first: q (h, q, d), k (h, d, ctx+q), v (h, ctx+q, d)
            k = np.concatenate([k_ctx, qk[:, 1].transpose(1, 2, 0)], axis=2)
            v = np.concatenate([v_ctx, qkv[:, 2].transpose(1, 0, 2)], axis=1)
            attn = _softmax(qk[:, 0].transpose(1, 0, 2) @ k / scale)
            mixed = (attn @ v).transpose(1, 0, 2)
            h_cur = h_cur + mixed.reshape(block_size, self.model_dim) @ w_o
        return h_cur @ self.w_out
