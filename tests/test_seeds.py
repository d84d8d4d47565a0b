"""Seed-mixing tests: determinism, scalar/vector agreement, dispersion."""

from __future__ import annotations

import numpy as np
import pytest

from cwtasim import mix64, mix64_array
from cwtasim.seeds import float_bits, splitmix64


def test_splitmix64_is_deterministic_and_64_bit():
    a = splitmix64(12345)
    assert a == splitmix64(12345)
    assert 0 <= a < 2**64
    assert splitmix64(12345) != splitmix64(12346)


def test_mix64_order_sensitivity():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0) != mix64(0, 0)
    assert mix64(7, 0.0 .__hash__()) == mix64(7, 0)


def test_mix64_array_matches_scalar():
    prefix = (99, 3)
    indices = np.arange(500, dtype=np.uint64)
    vectorized = mix64_array(prefix, indices)
    scalar = np.array([mix64(99, 3, int(i)) for i in range(500)], dtype=np.uint64)
    assert np.array_equal(vectorized, scalar)


def test_mix64_no_collisions_on_contiguous_indices():
    """A trial draws one stream per subject: indices 0..n-1 must not collide."""
    indices = np.arange(1_000_000, dtype=np.uint64)
    seeds = mix64_array((42,), indices)
    assert len(np.unique(seeds)) == indices.size


def test_mix64_bit_dispersion():
    """Flipping one input bit should flip roughly half the output bits."""
    flips = []
    for i in range(64):
        a = mix64(0, 0)
        b = mix64(0, 1 << i)
        flips.append(bin(a ^ b).count("1"))
    assert 20 <= np.mean(flips) <= 44


def test_float_bits_is_injective_on_distinct_floats():
    values = [0.5, 0.7, 0.5000000001, -0.5, 1.0, 2.0, 0.0]
    bits = [float_bits(v) for v in values]
    assert len(set(bits)) == len(values)
    assert float_bits(0.5) == float_bits(0.5)
    # bit pattern, not rounding: 0.1 + 0.2 differs from 0.3
    assert float_bits(0.1 + 0.2) != float_bits(0.3)
