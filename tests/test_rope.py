"""Rotary embedding properties: isometry, relative-position invariance."""

from __future__ import annotations

import numpy as np
import pytest

from blockroll.rope import pair_frequencies, rotate
from blockroll.schedule import CacheSlot, Orientation, frame_expand

DIM = 16
FREQS = pair_frequencies(DIM)


def test_zero_position_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(DIM)
        assert np.allclose(rotate(FREQS, v, 0), v, atol=0)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(1)
    for m in (1, 7, 1000):
        v = rng.standard_normal(DIM)
        assert abs(np.linalg.norm(rotate(FREQS, v, m)) - np.linalg.norm(v)) \
            <= 1e-12 * np.linalg.norm(v)


def test_dot_products_depend_only_on_relative_position():
    rng = np.random.default_rng(2)
    q = rng.standard_normal(DIM)
    k = rng.standard_normal(DIM)
    m, n, d = 3, 5, 11
    lhs = rotate(FREQS, q, m + d) @ rotate(FREQS, k, n + d)
    rhs = rotate(FREQS, q, m) @ rotate(FREQS, k, n)
    assert abs(lhs - rhs) < 1e-9


def test_rotation_angles_are_additive():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(DIM)
    out = rotate(FREQS, rotate(FREQS, v, 123), 456)
    assert np.abs(out - rotate(FREQS, v, 579)).max() < 1e-9


def test_batched_rotation_matches_per_row():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((5, DIM))
    positions = np.array([0, 3, 9, 27, 81])
    batched = rotate(FREQS, rows, positions)
    for row, pos, got in zip(rows, positions, batched):
        assert np.allclose(got, rotate(FREQS, row, int(pos)))


def test_width_mismatch_is_rejected():
    with pytest.raises(ValueError, match="does not match"):
        rotate(FREQS, np.zeros(DIM + 2), 1)


def test_odd_dimension_is_rejected():
    with pytest.raises(ValueError, match="positive even integer"):
        pair_frequencies(7)


def test_frame_positions_are_block_granular():
    # offset k of a block at time index j sits at frame position block_size*j + k
    for j, k, block_size, position in ((0, 0, 3, 0), (2, 1, 3, 7), (9, 2, 3, 29),
                                       (4, 3, 5, 23)):
        assert block_size * j + k == position
        slot = CacheSlot(0, Orientation.FORWARD, j)
        assert frame_expand(slot, block_size)[k][1] == position
