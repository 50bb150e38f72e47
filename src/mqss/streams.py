"""The package's random draws: its generators, and the two array rules it draws by.

Every random number comes from a ``numpy.random.Generator`` on ``PCG64``,
seeded by one keyed mix of the seed and stream values for one seed or a
thousand. The pattern bits (``pattern_blocks``) and step 6's check positions
and secrets (``check_draws``) follow the package's own rules on those
generators, for a lone attempt and a group alike. This module is the one
place that knows them. It touches ``numpy.random``, which numpy 2 loads on
first use, only when a generator is made or read, to keep it out of start-up.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

# rows drawn at a time: a block's pattern words, then its phase words, then its rows' doubles
BLOCK_ROWS = 1 << 12


# --- generators and seeds ------------------------------------------------------


def derived_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (master seed, trial, ...) streams: ``derived_rngs`` of one."""
    return derived_rngs([master_seed], *stream)[0]


def derived_rngs(seeds: Sequence[int], *stream: int) -> list[np.random.Generator]:
    """One ``PCG64`` generator per seed, seeded with the four words ``_state_words`` derives."""
    np.random.bit_generator.ISeedSequence.register(_Generated)  # PCG64 takes only these
    words = _state_words(seeds, *stream)
    return [np.random.Generator(np.random.PCG64(_Generated(row))) for row in words]


def child_seed(master_seed: int, *stream: int) -> int:
    """128-bit seed of (master seed, indices), two state words low first; 32-bit seeds repeat."""
    low, high = _state_words([master_seed], *stream)[0, :2].tolist()
    return high << 64 | low


def child_seeds(master_seed: int, count: int) -> list[int]:
    """``[child_seed(master_seed, trial) for trial in range(count)]``, derived as arrays."""
    words = _state_words([master_seed], np.arange(count, dtype=np.uint64))
    data = words[:, :2].astype("<u8").tobytes()
    return [int.from_bytes(data[at : at + 16], "little") for at in range(0, len(data), 16)]


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its Weyl increment and its finalizer's constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULTIPLIERS = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS = np.uint64(30), np.uint64(27), np.uint64(31)
_OUTPUTS = _GAMMA * np.arange(1, 5, dtype=np.uint64)  # four outputs' counters


def _state_words(seeds: Sequence[int], *stream) -> np.ndarray:
    """Each seed's four ``PCG64`` state words, N x 4 uint64, by a keyed counter-based mix.

    From state 0, a fold absorbs the seed's 64-bit limb count, its limbs low first (0 has
    one) and the stream values, each word by ``state = mix((state ^ word) + GAMMA)``, mix
    being SplitMix64's finalizer. The words are SplitMix64's first four outputs from the
    folded state, ``mix(state + k GAMMA)`` for k = 1 to 4. The count first makes the words
    absorbed name (seed, stream) uniquely. Seeds are non-negative ints; a stream value is an
    int below 2^64 or a uint64 array of one per seed.
    """
    values = list(map(operator.index, seeds))  # a float or a string raises TypeError
    if values and min(values) < 0:
        raise ValueError("expected non-negative integer")
    for value in stream:
        if not isinstance(value, np.ndarray) and not 0 <= operator.index(value) < 1 << 64:
            raise ValueError(f"a stream value must be in [0, 2**64), got {value}")
    counts = [max(1, -(-value.bit_length() // 64)) for value in values]
    width, counts = max(counts, default=1), np.array(counts, dtype=np.intp)
    data = b"".join(value.to_bytes(8 * width, "little") for value in values)
    limbs = np.frombuffer(data, "<u8").reshape(-1, width).astype(np.uint64)
    state = _absorb(_counted(width)[counts], limbs[:, 0])
    for at in range(1, width):  # a seed of fewer limbs keeps its state past them
        state = np.where(counts > at, _absorb(state, limbs[:, at]), state)
    for value in stream:
        state = _absorb(state, value)
    return _mix(state[:, None] + _OUTPUTS)


def _absorb(state, word) -> np.ndarray:
    return _mix((state ^ word) + _GAMMA)


@lru_cache(maxsize=8)
def _counted(width: int) -> np.ndarray:
    """The state once limb count k is absorbed from state 0, at index k, for k up to ``width``."""
    table = _absorb(0, np.arange(width + 1, dtype=np.uint64))
    table.flags.writeable = False
    return table


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array, wrapping as unsigned 64-bit arithmetic does."""
    z = (z ^ (z >> _SHIFTS[0])) * _MULTIPLIERS[0]
    z = (z ^ (z >> _SHIFTS[1])) * _MULTIPLIERS[1]
    return z ^ (z >> _SHIFTS[2])


class _Generated:
    """Given ``PCG64`` words as a seed sequence; registered on use, keeping numpy.random lazy."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


# --- pattern bits --------------------------------------------------------------


def pattern_blocks(rngs, rows: int, q: int):
    """Each generator's batch of ``rows`` patterns and phases, in blocks of ``BLOCK_ROWS`` rows.

    A block's pattern bits, then its phase bits, are the bits of whole
    ``random_raw`` words, 64 to a word, low bit first, each of the two from a
    fresh word; a 32-bit half numpy holds is left alone. A block is drawn when
    asked for, after the rows of the one before, and holds every generator's
    rows in turn: (A rows) x q booleans and A rows uint8 phases, from one
    ``random_raw`` call each. An empty batch is one empty block. A caller's
    generator is checked by ``refuse_32_bit_words`` as it comes in.
    """
    for start in range(0, max(rows, 1), BLOCK_ROWS):
        size = min(rows - start, BLOCK_ROWS)
        pattern_words, phase_words = -(-size * q // 64), -(-size // 64)
        raw = np.array([rng.bit_generator.random_raw(pattern_words + phase_words) for rng in rngs])
        octets = np.ascontiguousarray(raw, dtype="<u8").view(np.uint8)
        drawn = np.unpackbits(octets, axis=-1, bitorder="little").view(bool)
        phases = drawn[:, 64 * pattern_words :][:, :size].reshape(-1).view(np.uint8)
        yield drawn[:, : size * q].reshape(-1, q), phases


def refuse_32_bit_words(rng) -> None:
    """Refuse ``MT19937``, whose raw words are 32-bit: pattern bits need 64-bit words."""
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("MT19937 hands out 32-bit raw words; pattern bits need 64-bit words")


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
