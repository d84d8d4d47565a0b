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
128-bit multiply by a constant and one add, in place (_Streams). The
lanes of a round are exactly the streams' states there, so a pass may
drop streams between rounds and the kept ones continue bit for bit.
A pass is a loop: pcg64_chunks hashes the seeds and yields each chunk's
streams in turn, and a caller either draws every round straight into its
output (pcg64_uniforms) or loops over streams.rounds(width), calling
streams.keep between rounds to name the streams it still reads. Every
chunk is stepped on the calling thread in one set of buffers: a chunk's
lane, scratch and round buffers take about 3.3 MB, and every grid block
is one chunk (harness.BLOCK_ROWS <= CHUNK), so a block's pass is one
chunk of lane operations. No pass starts a thread, so a pooled grid
forks with only the main thread alive. A pass split between processes,
as calibration's are, is split into contiguous shares of whole chunks
(chunk_shares), each a pass of its own with one set of buffers. LANES
and CHUNK change only the speed, never a drawn value.
"""

from __future__ import annotations

import struct
from typing import Iterator

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
CHUNK = 8192  # seeds per chunk: a grid block (harness.BLOCK_ROWS rows) is one chunk; 3.3 MB of buffers

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


def pcg64_uniforms(seeds: np.ndarray, width: int) -> np.ndarray:
    """(width, n) doubles; column j is default_rng(int(seeds[j])).random(width).

    The stream pass that keeps every stream: each chunk's rounds are
    drawn straight into their own columns of out.
    """
    out = np.empty((width, len(seeds)))
    for part, streams in pcg64_chunks(seeds, width):
        for first in range(0, width, LANES):
            streams.draw(out[first : first + LANES, part])
    return out


def pcg64_chunks(seeds: np.ndarray, width: int) -> Iterator[tuple[slice, _Streams]]:
    """Hash seeds in one pass, then yield (part, streams) for each part of
    CHUNK seeds in order: part is its slice of seeds and streams the
    _Streams of its seeds, ready to draw up to width doubles each. Every
    chunk is stepped in the same buffers, so a chunk's streams are spent
    once the next chunk is yielded."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    if not width or not len(seeds):
        return
    init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(seeds)
    inc_hi = (seq_hi << _U64_1) | (seq_lo >> _U64_63)
    inc_lo = (seq_lo << _U64_1) | _U64_1
    del seq_hi, seq_lo  # freed before the chunk buffers are allocated
    lanes, size = min(LANES, width), min(CHUNK, len(seeds))
    buffers = (
        np.empty((2, lanes, size), dtype=np.uint64),
        np.empty((3, lanes, size), dtype=np.uint64),
        np.empty((lanes, size), dtype=bool),
        np.empty((4, size), dtype=np.uint64),
        np.empty(lanes * size),
    )
    for start in range(0, len(seeds), CHUNK):
        part = slice(start, start + CHUNK)
        yield part, _Streams(init_hi[part], init_lo[part], inc_hi[part], inc_lo[part], *buffers)


def chunk_shares(n: int, most: int) -> list[int]:
    """Bounds of min(most, chunks) contiguous shares of a pass over n seeds:
    share k is seeds bounds[k]:bounds[k + 1], every share whole chunks of
    CHUNK seeds but the last, their chunk counts differing by at most one.
    A pass over no seed is one empty share."""
    chunks = -(-n // CHUNK)
    count = max(1, min(most, chunks))
    return [k * chunks // count * CHUNK for k in range(count)] + [n]


class _Streams:
    """The PCG64 streams of one chunk of m seeds, a round of LANES draws at a time.

    PCG64 seeding sets state = init + inc and steps once; each draw steps
    once more and outputs the new state. The streams are stepped one draw
    at a time up to draw LANES, which gives (LANES, m) lanes whose lane k
    holds the state of draw k + 1. Each round outputs the draws of the
    lanes, and the round after first advances every lane by LANES draws:
    one multiply by M**LANES and one add of C_LANES * inc, a term computed
    once per seed. keep drops streams between rounds by taking the kept
    columns of the lanes and of that term into new C-ordered arrays (a
    column selection by indexing would give F order, slower in place).
    The caller's buffers are at least m wide: the lane state until the
    first keep, the scratch of each draw, and round, which rounds draws
    each round into.
    """

    def __init__(self, init_hi, init_lo, c_hi, c_lo, lane_buf, scratch_buf, carry_buf, state_buf, round_buf) -> None:
        m = len(init_hi)
        self.lanes, self.scratch, self.carry, self.round = lane_buf, scratch_buf, carry_buf, round_buf
        self.live, self.drawn = m, False
        scratch, carry = scratch_buf[:, :, :m], carry_buf[:, :m]
        hi, lo = lane_buf[:, :, :m]
        s_hi, s_lo, d_hi, d_lo = state_buf[:, :m]
        self.step = state_buf[2:]  # C_LANES * inc of each live stream, as hi and lo rows

        np.copyto(s_hi, init_hi)
        np.copyto(s_lo, init_lo)
        _add128(s_hi, s_lo, c_hi, c_lo, carry[0])
        for k in range(-1, len(hi)):  # the seeding step, then draws 1..lanes
            _mul128(s_hi, s_lo, _M, scratch[:, 0])
            _add128(s_hi, s_lo, c_hi, c_lo, carry[0])
            if k >= 0:
                hi[k], lo[k] = s_hi, s_lo
        np.copyto(d_hi, c_hi)
        np.copyto(d_lo, c_lo)
        _mul128(d_hi, d_lo, _C_LANES, scratch[:, 0])

    def draw(self, out: np.ndarray) -> np.ndarray:
        """Write the next round's first len(out) draws of the live streams to
        out, a (rows, live) array, and return it."""
        live, rows = self.live, len(out)
        hi, lo = self.lanes[:, :, :live]
        scratch = self.scratch[:, :, :live]
        if self.drawn:
            _mul128(hi, lo, _M_LANES, scratch)
            _add128(hi, lo, self.step[0, :live], self.step[1, :live], self.carry[:, :live])
        self.drawn = True
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
        np.multiply(x, 1.0 / 9007199254740992.0, out=out)
        return out

    def rounds(self, width: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (first, draws) for each round of the first width draws while
        any stream is live: draws first, first + 1, ... of the live streams
        as a C-contiguous (rows, live) array, in the order of the chunk, valid
        until the next round. keep between rounds drops streams; the kept
        ones continue bit for bit, so a stream's draws are
        default_rng(seed).random(width)'s for as long as it is kept."""
        for first in range(0, width, LANES):
            if not self.live:
                return
            rows = min(LANES, width - first)
            yield first, self.draw(self.round[: rows * self.live].reshape(rows, self.live))

    def keep(self, columns: np.ndarray) -> None:
        """Keep drawing the live streams at columns (increasing) alone."""
        if len(columns) < self.live:
            self.lanes = self.lanes[:, :, : self.live].take(columns, axis=2)
            self.step = self.step[:, : self.live].take(columns, axis=1)
            self.live = len(columns)
