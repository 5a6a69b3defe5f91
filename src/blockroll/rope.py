"""Rotary positional embedding over latent-frame vectors.

Positions are frame-granular: a block at time index j contributes frames
at positions block_size*j + k. Rotation acts on adjacent coordinate pairs
(2t, 2t+1) with angle m * BASE^(-2t/dim), so pairwise dot products depend
only on relative position. BASE is RoFormer's 10000.
"""

from __future__ import annotations

import numpy as np

BASE = 10000.0


def pair_frequencies(dim: int) -> np.ndarray:
    """Per-pair angular frequencies BASE^(-2t/dim), t = 0..dim/2-1."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"dim must be a positive even integer (got {dim})")
    return BASE ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)


def rotate(freqs: np.ndarray, v: np.ndarray, m) -> np.ndarray:
    """Rotate v (shape (..., dim)) to position m, where freqs =
    pair_frequencies(dim).

    m may be a scalar or an array broadcastable against v's leading
    dimensions (one position per row). Norm-preserving.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape[-1] != 2 * len(freqs):
        raise ValueError(
            f"vector width {v.shape[-1]} does not match rotary dim {2 * len(freqs)}"
        )
    return apply_rotation(v, rotation(freqs, m))


def rotation(freqs: np.ndarray, m) -> np.ndarray:
    """Unit complex numbers exp(i * angle) of the pair angles at position m,
    shaped m.shape + (dim/2,)."""
    angles = np.asarray(m, dtype=np.float64)[..., None] * freqs
    return np.cos(angles) + 1j * np.sin(angles)


def apply_rotation(v: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rotate float64 v, whose last axis is contiguous, by rot = rotation(freqs, m):
    pair (2t, 2t+1) is multiplied as the complex number v[2t] + i*v[2t+1].
    Rows at fixed positions can be rotated again without recomputing the
    angles."""
    return (v.view(np.complex128) * rot).view(np.float64)
