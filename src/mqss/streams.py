"""The package's random draws: its generators, and the two array rules it draws by.

Every random number comes from a ``numpy.random.Generator`` on ``PCG64``,
seeded through ``SeedSequence``; a pass of many sessions hashes its seeds as
arrays. The pattern bits (``pattern_blocks``) and step 6's check positions
and secrets (``check_draws``) follow the package's own rules on those
generators, each with one code path for a lone attempt, a group of attempts
and a batch wider than a chunk. This module is the one place that knows them.

numpy 2 loads ``numpy.random`` on first use, and this module touches it only
when a generator is made or read: a module-level import would add its import
time to every start-up.
"""

from __future__ import annotations

import copy
import operator
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

# A pass of fewer seeds hashes them one at a time, by ``SeedSequence``: with timeit on a 2-core
# host (numpy 2.4), the array hash made 1 generator in 92 us against 14 us one at a time, 8 in
# 134 against 112 us, and 16 in 169 against 228 us.
_ARRAY_PASS = 16


# --- generators and seeds ------------------------------------------------------


def derived_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (master seed, trial index, ...) streams.

    ``default_rng(SeedSequence((master_seed, *stream)))``; ``derived_rngs`` makes many at once.
    """
    return np.random.default_rng(np.random.SeedSequence((master_seed, *stream)))


def child_seed(master_seed: int, *stream: int) -> int:
    """Deterministic 128-bit seed derived from (master seed, indices).

    ``SeedSequence((master_seed, *stream))``'s first four state words, read
    little-endian; ``child_seeds`` makes many at once. 32-bit seeds repeat
    within a few hundred thousand trials.
    """
    low, high = np.random.SeedSequence((master_seed, *stream)).generate_state(2, np.uint64)
    return int(high) << 64 | int(low)


# numpy's SeedSequence constants (O'Neill's seed_seq_fe): pool hash, state hash, mixing
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def derived_rngs(seeds: Sequence[int], *stream: int) -> list[np.random.Generator]:
    """``[derived_rng(seed, *stream) for seed in seeds]``, hashed as arrays.

    Every seed's ``SeedSequence`` hash runs at once in uint32 arithmetic, and
    its four state words seed ``PCG64`` as ``default_rng`` would seed it.
    Seeds must be non-negative ints on both paths: ``SeedSequence`` would
    also read integer strings and sequences, which ``operator.index`` refuses
    with the ``TypeError`` the array hash raises.
    """
    if len(seeds) < _ARRAY_PASS:
        return [derived_rng(operator.index(seed), *stream) for seed in seeds]
    tail = _words(stream)
    state = _seed_state([_words([seed]) + tail for seed in seeds], 8).view("<u8").astype(np.uint64)
    np.random.bit_generator.ISeedSequence.register(_Generated)  # PCG64 takes only these
    return [np.random.Generator(np.random.PCG64(_Generated(row))) for row in state]


def child_seeds(master_seed: int, count: int) -> list[int]:
    """``[child_seed(master_seed, trial) for trial in range(count)]``, hashed as arrays."""
    if count < _ARRAY_PASS:
        return [child_seed(master_seed, trial) for trial in range(count)]
    head = _words([master_seed])
    data = _seed_state([head + _words([trial]) for trial in range(count)], 4).tobytes()
    return [int.from_bytes(data[at : at + 16], "little") for at in range(0, len(data), 16)]


def _words(values) -> bytes:
    """Non-negative ints as ``SeedSequence`` reads them: little-endian 32-bit words, one or more."""
    out = b""
    for value in map(operator.index, values):  # a float raises TypeError, as in SeedSequence
        if value < 0:
            raise ValueError("expected non-negative integer")
        out += value.to_bytes(4 * max(1, -(-value.bit_length() // 32)), "little")
    return out


def _seed_state(rows: list[bytes], n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` per row of ``_words``, N x n_words.

    A row of at most 4 words hashes as itself zero-padded to 4; longer rows hash by length.
    """
    pools, groups = np.empty((len(rows), 4), dtype=np.uint32), {}
    for index, row in enumerate(rows):
        groups.setdefault(max(len(row), 16), []).append(index)
    for size, indices in groups.items():  # mix_entropy: 4 hash steps per word, so size steps
        data = b"".join(rows[index].ljust(size, b"\0") for index in indices)
        words = np.frombuffer(data, "<u4").reshape(len(indices), -1).astype(np.uint32)
        steps = _hash_steps(_INIT_A, _MULT_A, size)
        pool = _hashmix(words[:, :4], steps[:4])
        for source in range(4):  # every other pool word mixes in a hash of this one
            others, step = [word for word in range(4) if word != source], 4 + 3 * source
            hashed = _hashmix(pool[:, [source]], steps[step : step + 3])
            pool[:, others] = _mix(pool[:, others], hashed)
        for source in range(4, size // 4):  # each word past the pool mixes into all of it
            pool = _mix(pool, _hashmix(words[:, [source]], steps[4 * source : 4 * source + 4]))
        pools[indices] = pool
    state = _hashmix(pools[:, np.arange(n_words) % 4], _hash_steps(_INIT_B, _MULT_B, n_words))
    return np.ascontiguousarray(state, "<u4")


@lru_cache(maxsize=None)
def _hash_steps(init: int, mult: int, count: int) -> np.ndarray:
    """count x 2 uint32: each hash step's xor constant and multiplier (the constant advanced)."""
    constants = list(accumulate(range(count), lambda c, _: c * mult & 0xFFFFFFFF, initial=init))
    steps = np.column_stack((constants[:-1], constants[1:])).astype(np.uint32)
    steps.flags.writeable = False  # one cached array for every caller
    return steps


def _hashmix(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    values = (values ^ steps[:, 0]) * steps[:, 1]
    return values ^ (values >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


class _Generated:
    """A seed sequence whose state is already generated: the four uint64 words of ``PCG64``.

    ``derived_rngs`` registers it as an ``ISeedSequence`` on use, so that
    importing this module does not import ``numpy.random``.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


# --- pattern bits --------------------------------------------------------------


def pattern_blocks(rngs, rows: int, q: int, block: int):
    """Each generator's batch of ``rows`` patterns and phases, in blocks of at most ``block`` rows.

    A generator's pattern bits, then its phase bits, are the bits of whole
    ``random_raw`` words, 64 to a word, low bit first, and each of the two
    starts on a fresh word. A batch that fits a block comes as one block of
    every generator's rows in turn, (A rows) x q booleans and A rows uint8
    phases, from one ``random_raw`` call each. A wider batch, of one
    generator, is never held whole: the generator skips its words, and each
    block reads the words that hold its bits from a copy taken at the start.
    Skipping draws the words unread, as ``random_raw`` does on the narrow
    path, so a 32-bit half that numpy holds for its next draw is kept on both.
    """
    pattern_words, phase_words = -(-rows * q // 64), -(-rows // 64)
    if rows <= block:
        raw = np.array([rng.bit_generator.random_raw(pattern_words + phase_words) for rng in rngs])
        bits = _bits(raw[:, :pattern_words], rows * q).reshape(-1, q)
        yield bits, _bits(raw[:, pattern_words:], rows).reshape(-1).view(np.uint8)
        return
    (rng,) = rngs
    origin, phases_at = copy.deepcopy(rng.bit_generator), 64 * pattern_words
    rng.bit_generator.random_raw(pattern_words + phase_words, output=False)
    for start in range(0, rows, block):
        end = min(start + block, rows)
        bits = _window(origin, start * q, end * q).reshape(-1, q)
        yield bits, _window(origin, phases_at + start, phases_at + end).view(np.uint8)


def _window(origin, begin: int, end: int) -> np.ndarray:
    """Bits ``begin`` to ``end`` of the words ``origin`` draws next, read from a copy of it."""
    source, first = copy.deepcopy(origin), begin // 64
    source.advance(first)
    return _bits(source.random_raw(-(-end // 64) - first))[begin - 64 * first : end - 64 * first]


def _bits(words: np.ndarray, count=None) -> np.ndarray:
    """The first ``count`` bits (all by default) of 64-bit words (last axis), low bit first."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=count, bitorder="little").view(bool)


# --- step 6's check positions and secrets --------------------------------------


def check_draws(rngs, lengths, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each attempt's m check positions among its n = ``lengths[i]`` rows, and m secret bits.

    Each generator makes one ``random(2m)`` call. Its first m doubles u pick
    the positions by Floyd's selection, uniform over m-subsets of range(n)
    but for the doubles' grain: for j = n - m to n - 1 it takes
    t = floor(u (j + 1)), or j where t is already picked. The next m give the
    secret bits, as u < 0.5. Returns picks (A x m int64) and secrets (A x m uint8).

    The grain: u is k / 2^53 for a uniform integer k < 2^53. Each t in [0, j]
    takes floor(2^53 / (j + 1)) values of k or one more, and rounding the
    product moves at most one k across each integer, so each t's chance is
    within 2^-52 of 1 / (j + 1), and the m positions' law is within m n 2^-53
    of uniform in total variation. While j + 1 < 2^53 the product never
    reaches j + 1: u <= 1 - 2^-53 puts it at least (j + 1) 2^-53 below, more
    than half the spacing of doubles there, so it rounds below and t <= j.
    """
    draws = np.array([rng.random(2 * m) for rng in rngs]).reshape(len(rngs), 2 * m)
    tops = np.asarray(lengths, dtype=np.int64)[:, None] - m + np.arange(m)  # j = n - m .. n - 1
    picks = (draws[:, :m] * (tops + 1)).astype(np.int64)
    for step in range(1, m):
        repeat = (picks[:, :step] == picks[:, step, None]).any(axis=1)
        picks[:, step] = np.where(repeat, tops[:, step], picks[:, step])
    return picks, (draws[:, m:] < 0.5).view(np.uint8)
