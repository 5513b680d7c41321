"""Seeded random streams: the splitmix64 seed mix, and one PCG64 kernel that
reproduces numpy's ``default_rng`` bit for bit through three entry points.

Every random stream of a run is keyed by ``mix_seed(master, *streams)``. The
kernel seeds PCG64 as numpy does (SeedSequence's entropy hash and
``generate_state``, numpy's ``bit_generator.pyx``, then ``pcg64_set_seed``)
and steps its 128-bit LCG s <- A*s + inc (O'Neill 2014; numpy's ``pcg64.h``)
by jump-ahead: from a word table of C_j = A^0 + ... + A^(j-1), built by
doubling, it computes a block of states s_(b+j) = A^j s_b + C_j inc, which is
s_b + C_j ((A - 1) s_b + inc) since A^j = 1 + (A - 1) C_j, for j = 1..B as
uint64 word arithmetic, chains block to block, and returns each state's
XSL-RR output. The entry points:

- ``default_rng_uniforms(seeds, n)``: ``default_rng(seed).random(n)`` for an
  array of seeds, one trajectory stream per episode. Building a
  ``default_rng`` per episode costs about a fifth of a cheap episode.
- ``default_rng_random(seed, n)``: the same for one seed and any n, the
  tables of ``mdp.random_tabular``.
- ``default_rng_integers(seed, low, high, size)``: ``default_rng(seed)
  .integers`` for the participation and initial-state schedules.

So no run imports ``numpy.random``, which loads OpenSSL through ``secrets``:
about 6 MB of resident memory and 14 ms. numpy keeps these streams stable
across releases (NEP 19), and ``tests/test_streams.py`` pins every entry
point to ``default_rng`` with exact equality, so a release that changed them
would fail there first.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

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
# The pool words each source word is mixed into.
_MIX_DST = [np.array([i for i in range(_POOL) if i != src]) for src in range(_POOL)]
_SHIFT16, _SHIFT32 = np.uint32(16), np.uint64(32)
_LOW32 = np.uint64(_MASK32)


def _hashmix(value: np.ndarray, chain: np.ndarray, first: int, calls: int) -> np.ndarray:
    """hashmix of each of the calls rows of value (or of one row broadcast),
    row i being call first + i on chain."""
    end = first + calls
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
    pool = _hashmix(words, _HASH_A, 0, _POOL)
    # Each source word's hash is mixed into the other three in turn; the
    # three updates read only the source, so they run as one.
    for src, dst in enumerate(_MIX_DST):
        hashed = _hashmix(pool[src], _HASH_A, _POOL + src * (_POOL - 1), _POOL - 1)
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> _SHIFT16)
    out32 = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0, 2 * _POOL).astype(np.uint64)
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


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
            b_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b (mod 2**128) on (high, low) uint64 words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


# A - 1 as (high, low) words, A being PCG64's 128-bit LCG multiplier.
_A_LESS_1 = tuple(np.uint64(w) for w in divmod(0x2360ED051FC65DA44385DF649FCCF645 - 1, 1 << 64))
# A jump-ahead block holds at most 2**_MAX_PASSES states. Past about 2**13 a
# block's uint64 temporaries outgrow the CPU's L2 cache and a long draw slows.
_MAX_PASSES = 13
# Tables of up to 2**_KEPT_PASSES entries, enough for every trajectory block
# (H uniforms a seed), are kept once built; a longer draw doubles on from them
# for itself and keeps nothing (2 KB kept, not 256 KB).
_KEPT_PASSES = 6


def _double(c: np.ndarray) -> np.ndarray:
    """The words of C_j for j = 1..2m from those for j = 1..m:
    C_(m+j) = C_m + A^m C_j, where A^m = 1 + (A - 1) C_m."""
    a_m = _add128(*_mul128(*_A_LESS_1, *c[:, -1:]), np.uint64(0), np.uint64(1))
    return np.concatenate([c, np.stack(_add128(*c[:, -1:], *_mul128(*a_m, *c)))], axis=1)


@functools.cache
def _jump_tables(passes: int) -> np.ndarray:
    """(high, low) word rows of C_j = A^0 + ... + A^(j-1) for j = 1..2**passes,
    read-only; kept for passes <= _KEPT_PASSES only."""
    c = np.array([[0], [1]], np.uint64) if passes == 0 else _double(_jump_tables(passes - 1))
    c.setflags(write=False)
    return c


def _seeded(seeds: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For each uint64 seed of a ``default_rng``, PCG64's increment and the
    state one step before its first state s_0, each as (high, low) word rows:
    its first output is two steps on."""
    seed_hi, seed_lo, inc_hi, inc_lo = _seed_sequence_state(seeds)
    # pcg64_set_seed: inc = (initseq << 1) | 1, then from state 0 it steps,
    # adds initstate and steps again: s_0 = A (inc + initstate) + inc.
    inc = ((inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63)),
           (inc_lo << np.uint64(1)) | np.uint64(1))
    return _add128(*inc, seed_hi, seed_lo), inc


def _draw64(state: tuple[np.ndarray, np.ndarray], inc: tuple[np.ndarray, np.ndarray],
            n: int, skip: int = 0) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The kernel: the 64-bit outputs of steps skip + 1 .. skip + n on from
    each stream's state (state and inc as (high, low) word rows) as an
    (n, streams) array, and the state of the last step, where the streams go
    on from."""
    # Steps run down the columns and streams along the rows, so that each
    # operation's inner loop runs over the streams or, for one stream, the steps.
    passes = min(max(n + skip - 1, 0).bit_length(), _MAX_PASSES)
    c = _jump_tables(min(passes, _KEPT_PASSES))
    for _ in range(passes - _KEPT_PASSES):
        c = _double(c)
    c = c[..., None]
    out = np.empty((n, len(inc[0])), np.uint64)
    done = 0
    while done < n:
        w = min(c.shape[1] - skip, n - done)
        # s_(b+j) = A^j s_b + C_j inc = s_b + C_j ((A - 1) s_b + inc), as
        # A^j - 1 = (A - 1) C_j: one product per state.
        d = _add128(*_mul128(*state, *_A_LESS_1), *inc)
        hi, lo = _add128(*state, *_mul128(*d, *c[:, skip:skip + w]))
        # XSL-RR: the xor of the words, rotated right by the top six bits.
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[done:done + w] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        state, done, skip = (hi[-1], lo[-1]), done + w, 0
    return out, state


def default_rng_uniforms(seeds: np.ndarray, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)`` for every uint64 seed: row i
    of the (len(seeds), n) result equals, bit for bit, the first n doubles of
    a fresh ``default_rng(int(seeds[i]))``."""
    x = _draw64(*_seeded(seeds), n, skip=1)[0]
    # random()'s 53-bit double, in place.
    x >>= np.uint64(11)
    out = x.astype(np.float64)
    out *= 1.0 / 9007199254740992.0
    return out.T


def default_rng_random(seed: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)``, bit for bit, for
    0 <= seed < 2**64 and any n >= 0; ValueError for any other seed, which a
    uint64 array would wrap silently."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return default_rng_uniforms(np.array([seed], np.uint64), n)[0]


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
    state, inc = _seeded(np.array([seed], np.uint64))
    threshold = np.uint64((1 << 32) % span)
    drawn, count, skip = [np.empty(0, np.uint64)], 0, 1
    while count < size:
        # Enough outputs for the draws still missing if none is rejected.
        x, state = _draw64(state, inc, -(-(size - count) // 2), skip)
        skip = 0
        m = np.concatenate([x & _LOW32, x >> _SHIFT32], axis=1).ravel() * np.uint64(span)
        drawn.append(m[(m & _LOW32) >= threshold] >> _SHIFT32)
        count += len(drawn[-1])
    return np.concatenate(drawn)[:size].astype(np.int64) + low
