"""Deterministic 64-bit seed derivation and subject uniform streams.

Every random stream in this package is seeded by hashing integer
coordinates (trial seed + subject index, master seed + replicate index,
...) through a fixed splitmix64-based mix. The mix is part of the
reproducibility contract: changing any constant below would silently
change every simulated dataset, so treat them as frozen.

pcg64_uniforms turns many seeds into the doubles that
np.random.default_rng(seed).random(width) would give for each, bit for
bit, without building one generator per seed: it is a numpy version of
NumPy's SeedSequence hashing (on uint32 words) and of the PCG64 XSL-RR
128/64 generator (O'Neill 2014), with 128-bit integers held as uint64
halves. Its constants are NumPy's and equally frozen. Streams are stepped
CHUNK (8 192) seeds at a time: LANES consecutive draws of every stream are
held as lanes, and each round advances all lanes by LANES draws with one
128-bit multiply by a constant and one add, in place. A pass of two or
more chunks shares them out among min(usable_cpus(), chunks) threads,
the calling thread among them; numpy releases the GIL inside each ufunc,
and at CHUNK seeds a lane operation spans 64 K elements, long enough to
outweigh the hand-off. A pass of one chunk runs on the calling thread
alone. Every grid block is one chunk (harness.BLOCK_ROWS <= CHUNK), so a
grid's passes start no thread and a pooled grid forks with only the main
thread alive; the only pooled run that threads is a grid with one trial
of more than CHUNK subjects, which then runs up to workers x usable-CPU
threads. LANES, CHUNK and the thread count change only the speed, never
a drawn value: no output depends on the CPU count.
"""

from __future__ import annotations

import os
import struct
import threading

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB
_OFFSET = 0xB5AD4ECEDA1CE2A9  # arbitrary fixed non-zero starting state


def splitmix64(x: int) -> int:
    """One splitmix64 step: a bijective 64-bit mixer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MULT_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MULT_B) & _MASK64
    return x ^ (x >> 31)


def mix64(*parts: int) -> int:
    """Hash integer parts into one 64-bit seed (order-sensitive).

    Folds each part into an accumulator with a splitmix64 step, so
    mix64(a, b) != mix64(b, a) and nearby indices land far apart.
    """
    acc = _OFFSET
    for part in parts:
        acc = splitmix64(acc ^ (part & _MASK64))
    return acc


def as_uint64(part) -> np.ndarray:
    """An int as a uint64 scalar, taken modulo 2**64 like mix64 does; an array as uint64."""
    if isinstance(part, (int, np.integer)):
        return np.uint64(int(part) & _MASK64)
    return np.asarray(part, dtype=np.uint64)


def mix64_array(prefix: tuple, indices) -> np.ndarray:
    """Vectorized mix64(*prefix, i) for an array of indices.

    Each prefix part is an int shared by every index, or an array that
    broadcasts against indices (each subject row's trial seed against its
    subject index gives the subject seeds of a block of trials).
    Returns uint64 seeds identical to the scalar path element by element.
    """
    acc = np.uint64(_OFFSET)
    with np.errstate(over="ignore"):
        for part in (*prefix, indices):
            x = acc ^ as_uint64(part)
            x = x + np.uint64(_GOLDEN)
            x = (x ^ (x >> np.uint64(30))) * np.uint64(_MULT_A)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(_MULT_B)
            acc = x ^ (x >> np.uint64(31))
    return acc


def float_bits(x: float) -> int:
    """IEEE-754 bit pattern of a double, as an unsigned 64-bit int.

    Used to fold real-valued grid coordinates (e.g. a hazard ratio) into
    seed mixes without rounding ambiguity.
    """
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


# NumPy's SeedSequence (pool of four uint32 words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

LANES = 8  # draws per round of the draw kernel
CHUNK = 8192  # seeds per chunk: a grid block (harness.BLOCK_ROWS rows) is one chunk; 64 K-element lane ops

_U32_16 = np.uint32(16)
_U64_MASK32 = np.uint64(_MASK32)
_U64_1, _U64_11, _U64_32 = np.uint64(1), np.uint64(11), np.uint64(32)
_U64_58, _U64_63, _U64_64 = np.uint64(58), np.uint64(63), np.uint64(64)


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The first count + 1 values of SeedSequence's hash_const sequence."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return consts


# mix_entropy makes 4 + 12 hashmix calls and generate_state(4, uint64) 8;
# every call uses the current constant and the one after it.
_MIX_CONSTS = _hash_consts(_SS_INIT_A, _SS_MULT_A, 16)
_GEN_CONSTS = _hash_consts(_SS_INIT_B, _SS_MULT_B, 8)


def _hashmix(value: np.ndarray, k: int, consts: list[int]) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, as its k-th call."""
    v = (value ^ np.uint32(consts[k])) * np.uint32(consts[k + 1])
    return v ^ (v >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
    return r ^ (r >> _U32_16)


def _seed_sequence_state(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, uint64) for each uint64 seed.

    The entropy is always the two words [lo32, hi32]. NumPy hashes a seed
    below 2**32 as the single word [lo32], but pool words beyond the
    entropy are hashed as 0, so the two agree.
    """
    lo = (seeds & _U64_MASK32).astype(np.uint32)
    hi = (seeds >> _U64_32).astype(np.uint32)
    zero = np.zeros_like(lo)
    pool = [_hashmix(word, k, _MIX_CONSTS) for k, word in enumerate((lo, hi, zero, zero))]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k, _MIX_CONSTS))
                k += 1
    words = [_hashmix(pool[i % 4], i, _GEN_CONSTS).astype(np.uint64) for i in range(8)]
    return [words[2 * i] | (words[2 * i + 1] << _U64_32) for i in range(4)]


def _const128(value: int) -> tuple[np.uint64, ...]:
    """A 128-bit constant as uint64 scalars: hi, lo, lo's low and high 32 bits."""
    lo = value & _MASK64
    return tuple(np.uint64(v) for v in (value >> 64, lo, lo & _MASK32, lo >> 32))


# PCG64 steps the state s <- M * s + inc; LANES steps at once are
# s <- M**LANES * s + C_LANES * inc, where C_j = sum of M**i over i < j.
_M = _const128(_PCG_MULT)
_M_LANES = _const128(pow(_PCG_MULT, LANES, 1 << 128))
_C_LANES = _const128(sum(pow(_PCG_MULT, i, 1 << 128) for i in range(LANES)) & _MASK128)


def _mul128(hi: np.ndarray, lo: np.ndarray, const: tuple[np.uint64, ...], scratch: np.ndarray) -> None:
    """(hi, lo) <- const * (hi, lo) mod 2**128, in place.

    uint64 products wrap, which gives the low word and the cross terms;
    only the high word of lo * const_lo needs 32-bit halves. scratch is
    three uint64 arrays shaped like hi.
    """
    c_hi, c_lo, c_lo32, c_hi32 = const
    t, u, w = scratch
    np.multiply(hi, c_lo, out=hi)
    np.multiply(lo, c_hi, out=w)
    hi += w
    np.bitwise_and(lo, _U64_MASK32, out=t)
    np.right_shift(lo, _U64_32, out=u)
    lo *= c_lo
    # high word of (c_lo32 + c_hi32 * 2**32) * (t + u * 2**32)
    np.multiply(u, c_hi32, out=w)
    hi += w
    u *= c_lo32
    np.multiply(t, c_lo32, out=w)
    w >>= _U64_32
    t *= c_hi32
    t += w
    np.right_shift(t, _U64_32, out=w)
    hi += w
    t &= _U64_MASK32
    u += t
    u >>= _U64_32
    hi += u


def _add128(hi: np.ndarray, lo: np.ndarray, add_hi: np.ndarray, add_lo: np.ndarray, carry: np.ndarray) -> None:
    """(hi, lo) <- (hi, lo) + (add_hi, add_lo) mod 2**128, in place."""
    lo += add_lo
    np.less(lo, add_lo, out=carry)
    hi += add_hi
    hi += carry


def usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the OS has one.

    The set reflects taskset and cpusets, which os.cpu_count() ignores; the
    fallback is os.cpu_count(), None when unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def pcg64_uniforms(seeds: np.ndarray, width: int) -> np.ndarray:
    """(width, n) doubles; column j is default_rng(int(seeds[j])).random(width).

    Seeds are hashed in one pass, then streamed CHUNK seeds at a time on
    T = min(usable_cpus(), chunks) threads, the calling thread and T - 1
    started ones: thread t steps chunks t, t + T, t + 2T, ... into their
    own columns of out. The caller allocates every thread's buffers, and
    joins every thread before it returns or raises the first exception a
    thread met. A pass of one chunk starts no thread.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(seeds)
    inc_hi = (seq_hi << _U64_1) | (seq_lo >> _U64_63)
    inc_lo = (seq_lo << _U64_1) | _U64_1
    del seq_hi, seq_lo  # freed before the thread buffers are allocated
    out = np.empty((width, len(seeds)))
    starts = range(0, len(seeds), CHUNK)
    if not width or not starts:
        return out
    threads = min(usable_cpus() or 1, len(starts))
    lanes, size = min(LANES, width), min(CHUNK, len(seeds))
    lane_buf = np.empty((threads, 2, lanes, size), dtype=np.uint64)
    scratch_buf = np.empty((threads, 3, lanes, size), dtype=np.uint64)
    carry_buf = np.empty((threads, lanes, size), dtype=bool)
    state_buf = np.empty((threads, 4, size), dtype=np.uint64)
    errors: list[BaseException] = []

    def share(t: int) -> None:
        try:
            buffers = lane_buf[t], scratch_buf[t], carry_buf[t], state_buf[t]
            for start in starts[t::threads]:
                if errors:  # another share failed: stop at a chunk boundary
                    return
                part = slice(start, start + CHUNK)
                _stream_chunk(out[:, part], init_hi[part], init_lo[part], inc_hi[part], inc_lo[part], *buffers)
        except BaseException as exc:  # raised by the caller once every thread has stopped
            errors.append(exc)

    started = [threading.Thread(target=share, args=(t,)) for t in range(1, threads)]
    for thread in started:
        thread.start()
    try:
        share(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return out


def _stream_chunk(out, init_hi, init_lo, c_hi, c_lo, lane_buf, scratch_buf, carry_buf, state_buf) -> None:
    """Write the (width, m) doubles of one chunk of m seeds to out.

    PCG64 seeding sets state = init + inc and steps once; each draw steps
    once more and outputs the new state. The chunk is stepped one draw at a
    time up to draw LANES, which gives a (LANES, m) array whose lane k
    holds the state of draw k + 1. Each round then writes the outputs of
    all lanes to LANES rows of out, and the next round first advances every
    lane by LANES draws: one multiply by M**LANES and one add of
    C_LANES * inc, a term computed once per seed. The last round writes
    only the rows that are left. Every buffer is at least m wide.
    """
    width, m = out.shape
    lanes = lane_buf.shape[1]
    hi, lo = lane_buf[:, :, :m]
    scratch, carry = scratch_buf[:, :, :m], carry_buf[:, :m]
    s_hi, s_lo, d_hi, d_lo = state_buf[:, :m]

    np.copyto(s_hi, init_hi)
    np.copyto(s_lo, init_lo)
    _add128(s_hi, s_lo, c_hi, c_lo, carry[0])
    for k in range(-1, lanes):  # the seeding step, then draws 1..lanes
        _mul128(s_hi, s_lo, _M, scratch[:, 0])
        _add128(s_hi, s_lo, c_hi, c_lo, carry[0])
        if k >= 0:
            hi[k], lo[k] = s_hi, s_lo
    np.copyto(d_hi, c_hi)
    np.copyto(d_lo, c_lo)
    _mul128(d_hi, d_lo, _C_LANES, scratch[:, 0])

    for first in range(0, width, LANES):
        if first:
            _mul128(hi, lo, _M_LANES, scratch)
            _add128(hi, lo, d_hi, d_lo, carry)
        rows = min(LANES, width - first)
        x, rot, w = scratch[:, :rows]
        # XSL-RR output: rotate hi ^ lo right by the top six bits of the state
        np.bitwise_xor(hi[:rows], lo[:rows], out=x)
        np.right_shift(hi[:rows], _U64_58, out=rot)
        np.right_shift(x, rot, out=w)
        np.subtract(_U64_64, rot, out=rot)
        rot &= _U64_63
        x <<= rot
        x |= w
        x >>= _U64_11
        np.multiply(x, 1.0 / 9007199254740992.0, out=out[first : first + rows])
