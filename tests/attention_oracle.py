"""TinyAttentionDenoiser's condition and estimate as they were written when
every estimate concatenated the block's keys and values after the whole
context's, for tests only.

`condition(den, context, block_size)` and `estimate(den, noisy, t, state)`
take a TinyAttentionDenoiser for its weights and compute, op for op, what
that denoiser computed then: per layer one context K/V product, stacked;
per estimate one np.concatenate of the context's keys and values with the
block's, and a softmax built from fresh temporaries. The package's
denoiser must give the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from blockroll.denoisers import Context
from blockroll.rope import apply_rotation, rotate, rotation
from blockroll.sampler import sigma


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class OracleKVCache:
    """Per layer, the rotated context keys (head_count, head_dim, n) and the
    context values (head_count, n, head_dim); and the rotation of the
    current block's positions (block_size, 1, 1, head_dim/2)."""

    context: Context
    keys: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    rot: np.ndarray


def condition(den, context: Context, block_size: int) -> OracleKVCache:
    n = len(context)
    h_ctx = context.values @ den.w_in
    kv = np.stack([h_ctx @ w_qkv[:, den.model_dim:] for w_qkv, _ in den.layers])
    kv = kv.reshape(den.layer_count, n, 2, den.head_count, den.head_dim)
    keys = rotate(den.freqs, kv[:, :, 0], context.positions[:, None])
    start = context.positions[-1] + 1 if n else 0
    return OracleKVCache(
        context,
        keys=tuple(keys.transpose(0, 2, 3, 1)),
        values=tuple(kv[:, :, 1].transpose(0, 2, 1, 3)),
        rot=rotation(den.freqs, start + np.arange(block_size)[:, None, None]),
    )


def estimate(den, noisy: np.ndarray, t: float, state: OracleKVCache) -> np.ndarray:
    noisy = np.asarray(noisy, dtype=np.float64)
    block_size = len(state.rot)
    scale = math.sqrt(den.head_dim)
    h_cur = noisy @ den.w_in + sigma(t) * den.t_embed
    for (w_qkv, w_o), k_ctx, v_ctx in zip(den.layers, state.keys, state.values):
        qkv = (h_cur @ w_qkv).reshape(block_size, 3, den.head_count, den.head_dim)
        qk = apply_rotation(qkv[:, :2], state.rot)
        # heads first: q (h, q, d), k (h, d, ctx+q), v (h, ctx+q, d)
        k = np.concatenate([k_ctx, qk[:, 1].transpose(1, 2, 0)], axis=2)
        v = np.concatenate([v_ctx, qkv[:, 2].transpose(1, 0, 2)], axis=1)
        attn = _softmax(qk[:, 0].transpose(1, 0, 2) @ k / scale)
        mixed = (attn @ v).transpose(1, 0, 2)
        h_cur = h_cur + mixed.reshape(block_size, den.model_dim) @ w_o
    return h_cur @ den.w_out
