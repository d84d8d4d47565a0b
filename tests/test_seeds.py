"""Seed-mixing tests: determinism, scalar/vector agreement, dispersion;
and the stream pass's threads: the same draws on any thread count, and
every thread joined when one of them fails."""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from cwtasim import mix64, mix64_array, seeds
from cwtasim.seeds import CHUNK, LANES, float_bits, pcg64_uniforms, splitmix64


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


class CountedThread(threading.Thread):
    """A threading.Thread that records every instance it starts."""

    started: list = []

    def start(self):
        CountedThread.started.append(self)
        super().start()


@pytest.fixture()
def counted_threads(monkeypatch):
    """The threads started while the test runs, whatever module starts them."""
    monkeypatch.setattr(CountedThread, "started", [])
    monkeypatch.setattr(threading, "Thread", CountedThread)
    return CountedThread.started


@pytest.fixture()
def short_switch_interval():
    """The interpreter lock handed over every 10 us while the test runs: more interleavings."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(switch)


def test_pcg64_uniforms_are_the_same_on_any_thread_count(monkeypatch, counted_threads, short_switch_interval):
    """The stream counterpart of worker-count invariance: 1, 2 and 3 usable
    CPUs give bit-identical draws, a pass of c chunks starts min(cpus, c) - 1
    threads, and every thread has ended when the call returns."""
    rng = np.random.default_rng(29)
    for n in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37, 3 * CHUNK + 1):
        subject_seeds = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        sampled = sorted({0, n // 2, CHUNK, 2 * CHUNK + 1, n - 1} & set(range(n)))
        for width in (1, LANES, 62):
            expected = None
            for cpus in (1, 2, 3):
                monkeypatch.setattr(seeds, "usable_cpus", lambda cpus=cpus: cpus)
                before, starts = threading.active_count(), len(counted_threads)
                got = pcg64_uniforms(subject_seeds, width)
                assert threading.active_count() == before, (n, width, cpus)
                assert len(counted_threads) - starts == max(0, min(cpus, -(-n // CHUNK)) - 1), (n, width, cpus)
                if expected is None:
                    expected = got
                    for j in sampled:
                        assert np.array_equal(got[:, j], np.random.default_rng(int(subject_seeds[j])).random(width))
                assert got.shape == (width, n) and np.array_equal(got, expected), (n, width, cpus)
    assert counted_threads and not any(t.is_alive() for t in counted_threads)


@pytest.mark.parametrize("failing", ["started thread", "calling thread"])
def test_a_failing_share_is_raised_once_every_thread_is_joined(monkeypatch, counted_threads, failing):
    """One share raises in a _mul128 call; the caller raises that exception
    only after both other shares have stopped, and no exception reaches
    threading.excepthook."""
    monkeypatch.setattr(seeds, "usable_cpus", lambda: 3)
    failure, mul128 = RuntimeError("lane step failed"), seeds._mul128
    lock, fired = threading.Lock(), []

    def failing_mul128(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        with lock:
            fire = not fired and on_caller == (failing == "calling thread")
            if fire:
                fired.append(True)
        if fire:
            raise failure
        return mul128(*args)

    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(seeds, "_mul128", failing_mul128)
    before = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError) as raised:
            pcg64_uniforms(np.arange(3 * CHUNK, dtype=np.uint64), 62)
    assert raised.value is failure and fired == [True]
    assert len(counted_threads) == 2 and not any(t.is_alive() for t in counted_threads)
    assert threading.active_count() == before
    assert hooked == [] and caught == []
