"""Seeded random streams: the splitmix64 seed mix, a block kernel that
computes ``np.random.default_rng(seed).random(n)`` for an array of seeds, and
``default_rng(seed).integers`` for the schedules.

Every random stream of a run is keyed by ``mix_seed(master, *streams)``, and
the run loop needs one trajectory stream per episode. Building a
``default_rng`` per episode (a SeedSequence hash plus PCG64 seeding) costs
about a fifth of a cheap episode, so ``default_rng_uniforms`` computes the
same doubles for a whole block of seeds as uint32/uint64 numpy arithmetic:
SeedSequence's entropy hash and ``generate_state`` (numpy's
``bit_generator.pyx``), PCG64's seeding, LCG and XSL-RR output (O'Neill 2014;
numpy's ``pcg64.h``) on pairs of uint64 words, and ``random()``'s 53-bit
double. numpy keeps both streams stable across releases (NEP 19), and
``tests/test_streams.py`` pins the kernel to ``default_rng`` with exact
equality, so a release that changed them would fail there first.

``default_rng_integers`` draws a run's participation and initial-state
schedules from the same generator, so that a run that draws nothing else
(every hard-instance run) never imports ``numpy.random``, which loads OpenSSL
through ``secrets``: about 6 MB of resident memory and 14 ms.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# splitmix64 (Steele, Lea and Flood 2014): increment and finalizer multipliers.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def mix_seed(master: int, *streams: int) -> int:
    """Chain the splitmix64 finalizer over (master, streams...)."""
    z = master & _MASK64
    for s in streams:
        z = (z + _SM_GAMMA + (s & _MASK64)) & _MASK64
        z ^= z >> 30
        z = (z * _SM_MUL1) & _MASK64
        z ^= z >> 27
        z = (z * _SM_MUL2) & _MASK64
        z ^= z >> 31
    return z


def mix_seeds(master: int, ks: np.ndarray, tag: int) -> np.ndarray:
    """``mix_seed(master, k, tag)`` for every k of a non-negative int array,
    as a uint64 array. numpy's uint64 arrays wrap mod 2**64 silently."""
    z = np.full(np.shape(ks), master & _MASK64, np.uint64)
    for s in (np.asarray(ks).astype(np.uint64), np.uint64(tag & _MASK64)):
        z += np.uint64(_SM_GAMMA)
        z += s
        z ^= z >> np.uint64(30)
        z *= np.uint64(_SM_MUL1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_SM_MUL2)
        z ^= z >> np.uint64(31)
    return z


def _const_chain(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's hash_const before each of n hashmix calls and after the
    last, as a uint32 column: each call multiplies it by mult."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


# SeedSequence (pool size 4): mix_entropy makes 4 + 12 hashmix calls on chain
# A, generate_state(4, uint64) 8 on chain B.
_POOL = 4
_HASH_A = _const_chain(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_HASH_B = _const_chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT16, _SHIFT32 = np.uint32(16), np.uint64(32)
_LOW32 = np.uint64(_MASK32)


def _hashmix(value: np.ndarray, chain: np.ndarray, first: int) -> np.ndarray:
    """hashmix of each row of value, row i being call first + i on chain."""
    end = first + len(value)
    value = (value ^ chain[first:end]) * chain[first + 1:end + 1]
    return value ^ (value >> _SHIFT16)


def _seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each uint64 seed,
    as a (4, len(seeds)) array.

    An int entropy is split into little-endian uint32 words, and a seed below
    2**32 has only one; mix_entropy hashes a 0 in place of every missing
    word, so the pool starts from the words (low, high, 0, 0) of every seed.
    """
    words = np.zeros((_POOL, len(seeds)), np.uint32)
    words[0] = seeds & np.uint64(_MASK32)
    words[1] = seeds >> _SHIFT32
    pool = _hashmix(words, _HASH_A, 0)
    # Each source word's hash is mixed into the other three in turn; the
    # three updates read only the source, so they run as one.
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        hashed = _hashmix(np.broadcast_to(pool[src], (_POOL - 1, len(seeds))), _HASH_A,
                          _POOL + src * (_POOL - 1))
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> _SHIFT16)
    out32 = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0).astype(np.uint64)
    return out32[0::2] | (out32[1::2] << _SHIFT32)


def _mul128(x_hi: np.ndarray, x_lo: np.ndarray, c_hi: np.ndarray,
            c_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * c (mod 2**128) on (high, low) uint64 words, broadcasting."""
    # The high word of the full product x_lo * c_lo, from 32-bit halves.
    x0, x1 = x_lo & _LOW32, x_lo >> _SHIFT32
    c0, c1 = c_lo & _LOW32, c_lo >> _SHIFT32
    p01, p10 = x0 * c1, x1 * c0
    mid = ((x0 * c0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = x1 * c1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return carry + x_lo * c_hi + x_hi * c_lo, x_lo * c_lo


def _words(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 word columns."""
    return (np.array([v >> 64 for v in values], np.uint64)[:, None],
            np.array([v & _MASK64 for v in values], np.uint64)[:, None])


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
            b_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b (mod 2**128) on (high, low) uint64 words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of each 128-bit state given as (high, low) words."""
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def default_rng_uniforms(seeds: np.ndarray, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)`` for every uint64 seed: row i
    of the (len(seeds), n) result equals, bit for bit, the first n doubles of
    a fresh ``default_rng(int(seeds[i]))``."""
    seed_hi, seed_lo, inc_hi, inc_lo = _seed_sequence_state(seeds)
    # pcg64_set_seed: inc = (initseq << 1) | 1, then from state 0 it steps,
    # adds initstate and steps again, so s_0 = t * A + inc, t = inc + initstate.
    inc_hi = (inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63))
    inc_lo = (inc_lo << np.uint64(1)) | np.uint64(1)
    t_hi, t_lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    # Draw j steps, then outputs the new state s_j = A^j s_0 + C_j inc with
    # C_j = A^0 + ... + A^(j-1), that is s_j = A^(j+1) t + C_(j+1) inc. Draws
    # are rows until the end, so every operation runs along the seeds.
    powers, sums = [_PCG_MULT], [1]
    for _ in range(n):
        sums.append(sums[-1] + powers[-1] & _MASK128)
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
    hi, lo = _add128(*_mul128(t_hi, t_lo, *_words(powers[1:])),
                     *_mul128(inc_hi, inc_lo, *_words(sums[1:])))
    # random()'s 53-bit double.
    return ((_xsl_rr(hi, lo) >> np.uint64(11)) * (1.0 / 9007199254740992.0)).T


def default_rng_integers(seed: int, low: int, high: int, size: int) -> np.ndarray:
    """``np.random.default_rng(seed).integers(low, high, size=size)`` as an
    int64 array, bit for bit, for 0 <= seed < 2**64 and 1 <= high - low < 2**32.

    numpy draws a span under 2**32 from PCG64's 32-bit stream (each 64-bit
    output's low half, then its high half) by Lemire's multiply-shift with
    rejection (arXiv:1805.10941).
    """
    span = high - low
    if not (0 <= seed <= _MASK64 and 1 <= span <= _MASK32):
        raise ValueError(f"need 0 <= seed < 2**64 and 1 <= high - low < 2**32, "
                         f"got seed {seed}, span {span}")
    seed_hi, seed_lo, inc_hi, inc_lo = (
        int(w[0]) for w in _seed_sequence_state(np.array([seed], np.uint64)))
    # pcg64_set_seed, as in default_rng_uniforms.
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
    threshold = np.uint64((1 << 32) % span)
    drawn, count = [np.empty(0, np.uint64)], 0
    while count < size:
        # Enough LCG steps (in Python ints) for the draws still missing if
        # none is rejected; the 32-bit words, each output's low half then its
        # high half, and Lemire's test run as arrays.
        states = []
        for _ in range(-(-(size - count) // 2)):
            state = (state * _PCG_MULT + inc) & _MASK128
            states.append(state)
        x = _xsl_rr(*_words(states))
        m = np.concatenate([x & _LOW32, x >> _SHIFT32], axis=1).ravel() * np.uint64(span)
        drawn.append(m[(m & _LOW32) >= threshold] >> _SHIFT32)
        count += len(drawn[-1])
    return np.concatenate(drawn)[:size].astype(np.int64) + low
