"""Rotary positional embedding over latent-frame vectors.

Positions are frame-granular: a block at time index j contributes frames
at positions block_size*j + k. Rotation acts on adjacent coordinate pairs
(2t, 2t+1) with angle m * base^(-2t/dim), so pairwise dot products depend
only on relative position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RotaryConfig:
    dim: int
    base: float = 10000.0

    def __post_init__(self) -> None:
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"dim must be a positive even integer (got {self.dim})")
        if self.base <= 0:
            raise ValueError(f"base must be positive (got {self.base})")


def pair_frequencies(cfg: RotaryConfig) -> np.ndarray:
    """Per-pair angular frequencies base^(-2t/dim), t = 0..dim/2-1."""
    return cfg.base ** (-np.arange(0, cfg.dim, 2, dtype=np.float64) / cfg.dim)


def rotate(cfg: RotaryConfig, v: np.ndarray, m) -> np.ndarray:
    """Rotate v (shape (..., dim)) to position m.

    m may be a scalar or an array broadcastable against v's leading
    dimensions (one position per row). Norm-preserving.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape[-1] != cfg.dim:
        raise ValueError(
            f"vector width {v.shape[-1]} does not match rotary dim {cfg.dim}"
        )
    return apply_rotation(v, rotation(cfg, m))


def rotation(cfg: RotaryConfig, m) -> np.ndarray:
    """Unit complex numbers exp(i * angle) of the pair angles at position m,
    shaped m.shape + (dim/2,)."""
    angles = np.asarray(m, dtype=np.float64)[..., None] * pair_frequencies(cfg)
    return np.cos(angles) + 1j * np.sin(angles)


def apply_rotation(v: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rotate float64 v, whose last axis is contiguous, by rot = rotation(cfg, m):
    pair (2t, 2t+1) is multiplied as the complex number v[2t] + i*v[2t+1].
    Rows at fixed positions can be rotated again without recomputing the
    angles."""
    return (v.view(np.complex128) * rot).view(np.float64)
