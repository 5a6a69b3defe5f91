"""Output oracle: blockroll's behaviour as of the commit that defined this
benchmark, re-derived for any workload seed.

It reads the same config document the program receives and recomputes,
without importing blockroll, what the program must output:

* the exact trace bytes and `blockroll metrics` CSV bytes of an
  analytic-gaussian rollout (the trace bytes are the behaviour oracle, so the
  arithmetic follows the package's operation order exactly);
* the exact `blockroll sweep` CSV bytes of a context-mean sweep;
* the frames of a tiny-attention rollout, computed per head with complex
  rotation instead of the package's batched einsum. Those are compared within
  ATTENTION_TOLERANCE, because a condition-once / KV-cache rewrite of the
  attention denoiser is expected to change low bits only.
"""

from __future__ import annotations

import json

import numpy as np

ATTENTION_TOLERANCE = 1e-9  # max |delta| per frame value, tiny-attention only

_T_MAX = 1000.0
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_SWEEP_VARIANTS = ("attention-sink", "sliding-indices", "rolling-sink")


def parse_config(text: str) -> dict:
    """The `key = value` subset the benchmark's generated configs use."""
    params: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            params[key] = value
    for key in ("K", "S", "block_size", "frame_dim", "T", "horizon", "seed", "weight_seed"):
        if key in params:
            params[key] = int(params[key])
    for key in ("rho", "bias", "innovation_scale", "anchor_weight"):
        if key in params:
            params[key] = float(params[key])
    return params


# ---------------------------------------------------------------- schedules

def _roll(K: int, convention: str, l: int) -> tuple[int, str, int]:
    if (l // K) % 2 == 0:
        return (l % K, "F", l)
    content = K - 1 - (l % K) if convention == "palindrome" else (K - (l % K)) % K
    return (content, "R", l)


def schedule(policy: str, K: int, S: int, convention: str, i: int) -> list[tuple[int, str, int]]:
    """(content block, orientation, assigned index) per slot at step i."""
    window = [(b, "F", b) for b in range(max(0, i - K), i)]
    if policy == "sliding-window" or i <= K:
        return window
    recent = [(b, "F", b) for b in range(i - (K - S), i)]
    if policy == "attention-sink":
        sink = [(b, "F", b) for b in range(S)]
    elif policy == "sliding-indices":
        sink = [(l, "F", i - K + l) for l in range(S)]
    else:
        sink = [_roll(K, convention, l) for l in range(i - K, i - (K - S))]
    return sink + recent


# ---------------------------------------------------------------- denoisers

def _analytic(rho: float):
    def estimate(noisy, t, ctx_vals, ctx_pos, gen):
        bs = noisy.shape[0]
        if len(ctx_pos):
            z_prev = ctx_vals[int(np.argmax(ctx_pos))]
            gaps = np.arange(1, bs + 1, dtype=np.float64)[:, None]
            mu = rho ** gaps * z_prev[None, :]
            tau2 = 1.0 - rho ** (2.0 * gaps)
        else:
            mu = np.zeros_like(noisy)
            tau2 = np.ones((bs, 1))
        s = t / _T_MAX
        if s == 0.0:
            mean, var = noisy.copy(), np.zeros_like(noisy)
        else:
            denom = (1.0 - s) ** 2 * tau2 + s**2
            gain = (1.0 - s) * tau2 / denom
            mean = mu + gain * (noisy - (1.0 - s) * mu)
            var = np.broadcast_to(tau2 * s**2 / denom, noisy.shape).copy()
        return mean + np.sqrt(var) * gen.standard_normal(mean.shape)
    return estimate


def _context_mean(anchor: float, innovation: float, bias: float):
    def estimate(noisy, t, ctx_vals, ctx_pos, gen):
        if len(ctx_pos):
            est = anchor * np.mean(ctx_vals, axis=0) + (1.0 - anchor) * noisy
        else:
            est = noisy.copy()
        est = est + bias
        if innovation > 0.0:
            est = est + innovation * gen.standard_normal(noisy.shape)
        return est
    return estimate


def _attention(frame_dim: int, weight_seed: int, model_dim=32, heads=4, layers=2,
               base=10000.0):
    gen = np.random.default_rng(weight_seed & _MASK64)
    w_in = gen.standard_normal((frame_dim, model_dim)) / np.sqrt(frame_dim)
    t_embed = gen.standard_normal(model_dim) / np.sqrt(model_dim)
    stack = [[gen.standard_normal((model_dim, model_dim)) / np.sqrt(model_dim)
              for _ in range(4)] for _ in range(layers)]
    w_out = gen.standard_normal((model_dim, frame_dim)) / np.sqrt(model_dim)
    hd = model_dim // heads
    freqs = base ** (-np.arange(0, hd, 2, dtype=np.float64) / hd)

    def rope(x, pos):
        z = (x[:, 0::2] + 1j * x[:, 1::2]) * np.exp(1j * pos[:, None] * freqs)
        out = np.empty_like(x)
        out[:, 0::2], out[:, 1::2] = z.real, z.imag
        return out

    def estimate(noisy, t, ctx_vals, ctx_pos, gen):
        bs = noisy.shape[0]
        start = ctx_pos.max() + 1.0 if len(ctx_pos) else 0.0
        cur_pos = start + np.arange(bs, dtype=np.float64)
        all_pos = np.concatenate([ctx_pos, cur_pos])
        h_ctx = ctx_vals @ w_in
        h = noisy @ w_in + (t / _T_MAX) * t_embed
        for w_q, w_k, w_v, w_o in stack:
            src = np.vstack([h_ctx, h])
            q, k, v = h @ w_q, src @ w_k, src @ w_v
            mixed = np.empty((bs, model_dim))
            for head in range(heads):
                cols = slice(head * hd, (head + 1) * hd)
                scores = rope(q[:, cols], cur_pos) @ rope(k[:, cols], all_pos).T / np.sqrt(hd)
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                mixed[:, cols] = (weights / weights.sum(axis=1, keepdims=True)) @ v[:, cols]
            h = h + mixed @ w_o
        return h @ w_out
    return estimate


def _denoiser(params: dict):
    kind = params["denoiser"]
    if kind == "analytic-gaussian":
        return _analytic(params.get("rho", 0.9))
    if kind == "context-mean":
        return _context_mean(params.get("anchor_weight", 1.0),
                             params.get("innovation_scale", 0.0), params.get("bias", 0.0))
    return _attention(params["frame_dim"], params.get("weight_seed", 0))


# ---------------------------------------------------------------- rollouts

def rollout(params: dict, policy: str, S: int, seed: int, horizon: int):
    """Blocks and schedules of one rollout, in step order."""
    K, bs, fd = params["K"], params["block_size"], params["frame_dim"]
    T = params["T"]
    levels = [_T_MAX * (T - j) / T for j in range(T + 1)]
    estimate = _denoiser(params)
    blocks, schedules = [], []
    for i in range(horizon):
        slots = schedule(policy, K, S, params["convention"], i)
        vals, pos = [], []
        for content, orient, index in slots:
            block = blocks[content]
            for k in range(bs):
                vals.append(block[k] if orient == "F" else block[bs - 1 - k])
                pos.append(bs * index + k)
        ctx_vals = np.array(vals).reshape(len(vals), fd)
        ctx_pos = np.array(pos, dtype=np.float64)
        gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed & _MASK64, spawn_key=(i,))))
        y = gen.standard_normal((bs, fd))
        for j in range(T):
            x_hat = estimate(y, levels[j], ctx_vals, ctx_pos, gen)
            eps = gen.standard_normal((bs, fd))
            s = levels[j + 1] / _T_MAX
            y = (1.0 - s) * x_hat + s * eps
        blocks.append(y)
        schedules.append(slots)
    return blocks, schedules


def trace_bytes(blocks, schedules, seed: int) -> bytes:
    """The `blockroll rollout` trace file for these blocks, byte for byte."""
    lines = []
    for i, (block, slots) in enumerate(zip(blocks, schedules)):
        obj = {
            "step": i,
            "schedule": [{"content": c, "orient": o, "index": a} for c, o, a in slots],
            "frame_stats": {"mean": float(block.mean()), "var": float(block.var())},
            "frames": block.tolist(),
            "seed": seed,
        }
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


def _metric_rows(means, frames, window: int = 8):
    """(mean_drift, flicker_proxy, repetition_score) per step."""
    flat = np.stack([f.ravel() for f in frames])
    norms = np.linalg.norm(flat, axis=1)
    rows = [(0.0, 0.0, 0.0)]
    for i in range(1, len(frames)):
        lo = max(0, i - window)
        dots = flat[lo:i] @ flat[i]
        denom = norms[lo:i] * norms[i]
        sims = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
        rows.append((abs(means[i] - means[0]),
                     float(np.abs(frames[i][0] - frames[i - 1][-1]).mean()),
                     float(sims.max())))
    return rows


def metrics_csv(blocks) -> bytes:
    """`blockroll metrics` output for the default metric list, window 8."""
    means = [float(b.mean()) for b in blocks]
    lines = ["step,mean_drift,flicker_proxy,repetition_score"]
    lines += [f"{i},{a!r},{b!r},{c!r}" for i, (a, b, c) in enumerate(_metric_rows(means, blocks))]
    return ("\n".join(lines) + "\n").encode("utf-8")


def sweep_csv(params: dict, ratios: str, horizon: int, seeds: int) -> bytes:
    """`blockroll sweep` output for one horizon, byte for byte."""
    K = params["K"]
    lines = ["ratio,S,K,policy,horizon,seed,mean_drift,flicker_proxy,repetition_score"]
    for ratio in sorted(int(r) for r in ratios.split(",")):
        S = next(s for s in range(K) if round(100 * s / K) == ratio)
        for policy in _SWEEP_VARIANTS:
            for seed in range(params["seed"], params["seed"] + seeds):
                blocks, _ = rollout(params, policy, S, seed, horizon)
                means = [float(b.mean()) for b in blocks]
                drift, flicker, rep = _metric_rows(means, blocks)[-1]
                lines.append(f"{ratio},{S},{K},{policy},{horizon},{seed},"
                             f"{drift!r},{flicker!r},{rep!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")
