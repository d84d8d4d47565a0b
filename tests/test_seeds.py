"""Seed-mixing tests: determinism, scalar/vector agreement, dispersion;
the stream pass: default_rng's draws across chunk boundaries; and the
settled pass: streams dropped between rounds leave the kept ones' draws
unchanged."""

from __future__ import annotations

import numpy as np

from cwtasim import mix64, mix64_array
from cwtasim.seeds import CHUNK, LANES, float_bits, pcg64_rounds, pcg64_uniforms, splitmix64


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


def test_pcg64_uniforms_match_default_rng_across_chunks():
    """Passes of zero to three chunks and a ragged tail: sampled columns on
    either side of chunk boundaries are default_rng(seed).random(width)."""
    rng = np.random.default_rng(29)
    for n in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37, 3 * CHUNK + 1):
        subject_seeds = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        sampled = sorted({0, n // 2, CHUNK, 2 * CHUNK + 1, n - 1} & set(range(n)))
        for width in (1, LANES, 62):
            got = pcg64_uniforms(subject_seeds, width)
            assert got.shape == (width, n), (n, width)
            for j in sampled:
                assert np.array_equal(got[:, j], np.random.default_rng(int(subject_seeds[j])).random(width))


def settled_draws(subject_seeds, width, keep_rate):
    """pcg64_rounds over subject_seeds, each round keeping every live stream
    with chance keep_rate, decided by a generator seeded by the chunk's
    first seed index and the width: the (width, n) draws each stream gave,
    NaN where it was no longer drawn."""
    got = np.full((width, len(subject_seeds)), np.nan)

    def begin(part):
        live, drops = np.arange(len(subject_seeds))[part], np.random.default_rng([part.start, width])

        def visit(first, draws):
            nonlocal live
            assert draws.shape == (min(LANES, width - first), len(live)) and draws.flags.c_contiguous
            got[first : first + len(draws), live] = draws
            keep = np.flatnonzero(drops.random(len(live)) < keep_rate)
            live = live[keep]
            return keep

        return visit

    pcg64_rounds(subject_seeds, width, begin)
    return got


def test_pcg64_rounds_continue_the_kept_streams():
    """The settled pass: streams dropped in arbitrary sets between rounds
    leave the kept streams' later draws bit for bit those of
    default_rng(seed).random(width), and a dropped stream is never drawn
    again."""
    rng = np.random.default_rng(30)
    for n in (1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 37):
        subject_seeds = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        sampled = sorted({0, n // 2, CHUNK, 2 * CHUNK + 1, n - 1} & set(range(n)))
        for width in (1, 7, 8, 9, 62, 202):
            got = settled_draws(subject_seeds, width, 0.8)
            drawn = ~np.isnan(got)
            # each stream is drawn for a prefix of whole rounds, then never again
            rounds = drawn[::LANES]
            assert np.array_equal(drawn, np.repeat(rounds, LANES, axis=0)[:width]), (n, width)
            assert np.all(rounds[:-1] >= rounds[1:]) and rounds[0].all(), (n, width)
            assert np.array_equal(got[drawn], pcg64_uniforms(subject_seeds, width)[drawn]), (n, width)
            assert n == 1 or width <= LANES or not drawn[-1].all()  # some stream was dropped
            for j in sampled:
                depth = int(drawn[:, j].sum())
                assert np.array_equal(got[:depth, j], np.random.default_rng(int(subject_seeds[j])).random(depth))
