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
halves. Its constants are NumPy's and equally frozen.
"""

from __future__ import annotations

import struct
from functools import lru_cache

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


def mix64_array(prefix: tuple[int, ...], indices: np.ndarray) -> np.ndarray:
    """Vectorized mix64(*prefix, i) for an array of indices.

    Returns uint64 seeds identical to the scalar path element by element.
    """
    acc = _OFFSET
    for part in prefix:
        acc = splitmix64(acc ^ (part & _MASK64))
    x = np.asarray(indices, dtype=np.uint64) ^ np.uint64(acc)
    with np.errstate(over="ignore"):
        x = x + np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MULT_A)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MULT_B)
        return x ^ (x >> np.uint64(31))


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

CHUNK = 256  # subjects per pass of the draw kernel; keeps temporaries in cache

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


def _as_factor(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit constants as (width, 1) uint64 columns: hi, lo, lo's low and high 32 bits."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)[:, None]
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)[:, None]
    factor = (hi, lo, lo & _U64_MASK32, lo >> _U64_32)
    for column in factor:
        column.flags.writeable = False  # shared by every caller through the cache
    return factor


@lru_cache(maxsize=8)
def _jump_tables(width: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Factors (A, C): draw k outputs from the state A[k] * init + C[k] * inc.

    PCG64 seeding sets state = inc, adds init and steps once; each draw
    steps once more and outputs the new state. So draw k (k = 1..width)
    outputs from M**(k+1) * init + C_(k+2) * inc, where M is the multiplier
    and C_j the sum of M**i over i < j, all mod 2**128.
    """
    powers, sums = [1], [0]
    for _ in range(width + 2):
        sums.append((sums[-1] + powers[-1]) & _MASK128)
        powers.append((powers[-1] * _PCG_MULT) & _MASK128)
    return _as_factor(powers[2 : width + 2]), _as_factor(sums[3 : width + 3])


def _mul128(factor: tuple[np.ndarray, ...], x_hi: np.ndarray, x_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of factor[k] * x[j] mod 2**128 for every k (rows) and j (columns).

    uint64 products wrap, which gives the low word and the cross terms;
    only the high word of lo * lo needs 32-bit halves.
    """
    f_hi, f_lo, f_lo32, f_hi32 = factor
    x_lo32, x_hi32 = x_lo & _U64_MASK32, x_lo >> _U64_32
    t = ((f_lo32 * x_lo32) >> _U64_32) + f_hi32 * x_lo32
    u = (t & _U64_MASK32) + f_lo32 * x_hi32
    hi = f_hi32 * x_hi32 + (t >> _U64_32) + (u >> _U64_32) + f_lo * x_hi + f_hi * x_lo
    return hi, f_lo * x_lo


def pcg64_uniforms(seeds: np.ndarray, width: int) -> np.ndarray:
    """(width, n) doubles; column j is default_rng(int(seeds[j])).random(width).

    Seeds are hashed in one pass; draws are computed for CHUNK seeds at a
    time, every draw of a chunk in one broadcast over the jump tables.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(seeds)
    inc_hi = (seq_hi << _U64_1) | (seq_lo >> _U64_63)
    inc_lo = (seq_lo << _U64_1) | _U64_1
    a, c = _jump_tables(width)
    out = np.empty((width, len(seeds)))
    for start in range(0, len(seeds), CHUNK):
        part = slice(start, start + CHUNK)
        a_hi, a_lo = _mul128(a, init_hi[part], init_lo[part])
        c_hi, c_lo = _mul128(c, inc_hi[part], inc_lo[part])
        s_lo = a_lo + c_lo
        s_hi = a_hi + c_hi + (s_lo < a_lo)
        # XSL-RR output: rotate hi ^ lo right by the top six bits of the state
        x = s_hi ^ s_lo
        rot = s_hi >> _U64_58
        x = (x >> rot) | (x << ((_U64_64 - rot) & _U64_63))
        np.multiply(x >> _U64_11, 1.0 / 9007199254740992.0, out=out[:, part])
    return out
