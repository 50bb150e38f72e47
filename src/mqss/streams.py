"""numpy's random draws as this package makes them, reproduced as arrays.

Every random number in a session comes from a ``numpy.random.Generator``
on ``PCG64``, seeded through ``SeedSequence``. A pass over many sessions
makes the same numbers as arrays: it hashes many seeds at once, reads fair
bits, check positions and secret bits from raw ``PCG64`` words, and moves
generators past draws without making them. This module is the one place
that knows those internals. Each function returns what the numpy call it
names returns, and leaves the generator where that call leaves it, except
where its docstring says otherwise.

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

# A pass of fewer seeds or attempts calls numpy once per item. Below it the seed hash's
# fixed cost would slow a lone session; and timed with timeit on a 2-core host (numpy 2.4),
# one attempt's array check draws took 36 us at m = 1 and 100 us at m = 16, against 12 us
# for its ``choice`` and ``integers``, while 16 attempts' took 56 and 135 us, against 190 us.
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


# --- fair bits -----------------------------------------------------------------


def fair_bits(rng, count: int) -> np.ndarray:
    """``rng.integers(0, 2, size=count)`` as booleans, read from raw ``PCG64`` words.

    numpy draws each such number from one 32-bit half word u as
    (2u) >> 32, bit 31 of u: Lemire's method never rejects on a range of 2.
    ``PCG64`` hands out halves low first and holds the unused high half for
    its next 32-bit draw, so one ``random_raw`` call gives the same halves.
    A held half is read first, and the generator is left holding what numpy
    leaves it holding; only a half numpy has already handed out may differ.
    Other bit generators draw with ``integers``.
    """
    bit_generator = getattr(rng, "bit_generator", None)
    if not isinstance(bit_generator, np.random.PCG64):
        return rng.integers(0, 2, size=count).astype(bool)
    if not count:
        return np.zeros(0, dtype=bool)
    state = bit_generator.state
    held = state["has_uint32"]
    fresh = count - held
    halves = raw_halves(bit_generator.random_raw(-(-fresh // 2)))
    if held:
        halves = np.concatenate((np.array([state["uinteger"]], dtype=_HALF), halves))
    if held or fresh % 2:  # the last half drawn is held, or the held one is spent
        _hold(bit_generator, fresh % 2, int(halves[-1]))
    return halves[:count].view(_SIGNED_HALF) < 0  # bit 31 is the sign


def fair_bit_rows(rngs, count: int) -> np.ndarray:
    """``[fair_bits(rng, count) for rng in rngs]`` as one A x count array.

    For ``PCG64`` generators known to hold no half word, whose states it
    does not read: one ``random_raw`` call each, all cut in one array step.
    An odd count leaves each holding its last high half, as numpy does.
    """
    generators = [rng.bit_generator for rng in rngs]
    raw = np.array([generator.random_raw(-(-count // 2)) for generator in generators], _WORD)
    if count % 2:
        for generator, word in zip(generators, raw[:, -1].tolist()):
            _hold(generator, 1, word >> 32)
    return raw_halves(raw)[:, :count].view(_SIGNED_HALF) < 0


def skip_fair_bits(rng, count: int) -> None:
    """Move ``rng`` past ``fair_bits(rng, count)`` without drawing the bits.

    ``PCG64.advance`` jumps the whole words, and an odd count draws one
    more word to hold its high half, as numpy does. Other bit generators
    draw the bits in blocks and drop them.
    """
    bit_generator = getattr(rng, "bit_generator", None)
    if not isinstance(bit_generator, np.random.PCG64):
        for start in range(0, count, 1 << 16):
            rng.integers(0, 2, size=min(1 << 16, count - start))
        return
    if not count:
        return
    fresh = count - bit_generator.state["has_uint32"]
    bit_generator.advance(fresh // 2)  # which also drops a held half
    if fresh % 2:
        _hold(bit_generator, 1, int(bit_generator.random_raw()) >> 32)


def replay_fair_bits(rng, count: int) -> np.random.Generator:
    """A copy of ``rng`` that draws its next ``count`` fair bits, while ``rng`` skips them."""
    replay = np.random.Generator(copy.deepcopy(rng.bit_generator))
    skip_fair_bits(rng, count)
    return replay


def _hold(bit_generator, held: int, half: int) -> None:
    """Set whether ``PCG64`` holds a half word for its next 32-bit draw, and which."""
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = held, half
    bit_generator.state = state


_WORD, _HALF, _SIGNED_HALF = np.dtype("<u8"), np.dtype("<u4"), np.dtype("<i4")


def raw_halves(words: np.ndarray) -> np.ndarray:
    """Raw 64-bit words (last axis) as their 32-bit halves, low half first, as uint32."""
    return np.asarray(words, dtype=_WORD).view(_HALF)


# --- step 6's check positions and secrets --------------------------------------


def check_draws(rngs, lengths, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each attempt's ``rng.choice(n, size=m, replace=False)``, then ``integers(0, 2, size=m)``.

    Returns the picks (A x m, in no set order) and the secret bits (A x m uint8) of the
    ``PCG64`` generators ``derived_rngs`` makes. numpy's ``choice`` runs Floyd's selection
    unless n > 10,000 and m > n // 50: for j = n - m to n - 1 it draws on [0, j] and takes j
    in place of a repeat, then shuffles its m picks, drawing on [0, i] for i = m - 1 down to
    1; each draw is ``_lemire`` on the next 32-bit half word. The secret bits are bit 31 of
    the next m halves. No generator may hold a half word, and none of a pass does: its
    rows draw only doubles, and its batches (even row counts) draw even counts of bits. In
    a pass of ``_ARRAY_PASS`` attempts or more, every attempt reads the 3m - 1 halves these
    take from one ``random_raw`` block, and the steps run as arrays over all attempts. An
    attempt where a draw rejects its half, or on numpy's other branch (the tail shuffle, or
    past 2^32 rows), moves its generator back before the block and makes numpy's calls, as
    every attempt of a smaller pass does. The others end past their block, not where
    numpy's calls would leave them: nothing draws on them after step 6.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(rngs) < _ARRAY_PASS:
        return _numpy_checks(rngs, lengths, m)
    generators = [rng.bit_generator for rng in rngs]
    words = (3 * m) // 2  # 3m - 1 halves or more
    raw = np.array([generator.random_raw(words) for generator in generators], np.uint64)
    draws = raw_halves(raw)[:, : 3 * m - 1]
    floyd = (lengths - m)[:, None] + np.arange(m)  # j = n - m .. n - 1
    shuffle = np.broadcast_to(np.arange(m - 1, 0, -1), (len(rngs), m - 1))  # sorting undoes it
    values, rejected = _lemire(draws[:, : 2 * m - 1], np.concatenate((floyd, shuffle), axis=1))
    picks = values[:, :m]
    for step in range(1, m):
        repeat = (picks[:, :step] == picks[:, step, None]).any(axis=1)
        picks[:, step] = np.where(repeat, floyd[:, step], picks[:, step])
    secrets = (draws[:, 2 * m - 1 :] >> 31).astype(np.uint8)
    other = ((lengths > 10_000) & (m > lengths // 50)) | (lengths > 1 << 32)  # not Floyd's
    redo = np.flatnonzero(rejected.any(axis=1) | other)
    for i in redo.tolist():
        generators[i].advance(-words)  # back to its start: advance leaves no half held
    picks[redo], secrets[redo] = _numpy_checks([rngs[i] for i in redo], lengths[redo], m)
    return picks, secrets


def _numpy_checks(rngs, lengths: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``check_draws`` by numpy's own calls: ``choice`` then ``integers`` on each generator."""
    picks = [rng.choice(n, size=m, replace=False) for rng, n in zip(rngs, lengths.tolist())]
    secrets = [rng.integers(0, 2, size=m) for rng in rngs]
    return np.array(picks, np.int64).reshape(-1, m), np.array(secrets, np.uint8).reshape(-1, m)


def _lemire(halves: np.ndarray, tops) -> tuple[np.ndarray, np.ndarray]:
    """numpy's 32-bit draw on [0, top] from each half word u, and where it rejects u.

    Lemire's method gives (u (top + 1)) >> 32 unless the low word of that product is
    below 2^32 mod (top + 1); numpy then draws again on the next half.
    """
    span = np.asarray(tops, dtype=np.uint64) + np.uint64(1)
    product = halves * span
    return (product >> 32).astype(np.int64), (product & 0xFFFFFFFF) < np.uint64(1 << 32) % span
