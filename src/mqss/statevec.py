"""Dense state-vector engine for small multi-qubit systems.

Conventions used throughout the package:

- Particle indices are 1-based; particle 1 owns the most significant bit of
  the basis index, so ``|x1 x2 ... xq>`` maps to index ``x1 x2 ... xq`` read
  as binary.
- States are immutable snapshots; every operation returns a new ``PureState``.
- All randomness is drawn from an explicitly passed generator (anything with
  a ``random()`` method; normally ``numpy.random.Generator``), never from
  hidden global state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import sqrt
from typing import Sequence

import numpy as np

ATOL = 1e-9
MAX_QUBITS = 24

_SQRT2_INV = 1.0 / sqrt(2.0)

IDENTITY = np.eye(2, dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over ``qubit_count`` qubits."""

    qubit_count: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(
                f"qubit_count must be in [1, {MAX_QUBITS}], got {self.qubit_count}"
            )
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.qubit_count,):
            raise ValueError(
                f"expected {1 << self.qubit_count} amplitudes, got {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > ATOL:
            raise ValueError(f"state norm^2 = {norm_sq} is not 1 within {ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return 1 << self.qubit_count

    def probabilities(self) -> np.ndarray:
        """Born probabilities over the full computational basis."""
        return np.abs(self.amplitudes) ** 2


def _trusted_state(qubit_count: int, amplitudes: np.ndarray) -> PureState:
    # fast path for operations that preserve the invariants by construction
    state = object.__new__(PureState)
    amplitudes.setflags(write=False)
    object.__setattr__(state, "qubit_count", qubit_count)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


def _ensure_unitary_gate(gate: np.ndarray) -> np.ndarray:
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {g.shape}")
    u = g @ g.conj().T
    if not (
        abs(u[0, 0] - 1.0) <= ATOL
        and abs(u[1, 1] - 1.0) <= ATOL
        and abs(u[0, 1]) <= ATOL
        and abs(u[1, 0]) <= ATOL
    ):
        raise ValueError("gate is not unitary within tolerance")
    return g


def _check_particle(state: PureState, particle: int) -> None:
    if not 1 <= particle <= state.qubit_count:
        raise ValueError(
            f"particle index {particle} out of range 1..{state.qubit_count}"
        )


def _split_axis(state: PureState, particle: int) -> np.ndarray:
    # (before, 2, after) view with the target particle on the middle axis
    q = state.qubit_count
    return state.amplitudes.reshape(1 << (particle - 1), 2, 1 << (q - particle))


def basis_state(qubit_count: int, bits: Sequence[int]) -> PureState:
    """Computational basis state |bits[0] bits[1] ...> in index convention."""
    if len(bits) != qubit_count:
        raise ValueError(f"expected {qubit_count} bits, got {len(bits)}")
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        index = (index << 1) | b
    amps = np.zeros(1 << qubit_count, dtype=complex)
    amps[index] = 1.0
    return PureState(qubit_count, amps)


def apply_gate(state: PureState, particle: int, gate: np.ndarray) -> PureState:
    """Apply a single-qubit gate to one particle of the joint state.

    The gate must be unitary within tolerance (checked here, so norm
    preservation of the output is guaranteed rather than re-verified).
    """
    _check_particle(state, particle)
    g = _ensure_unitary_gate(gate)
    view = _split_axis(state, particle)
    out = np.empty_like(view)
    out[:, 0, :] = g[0, 0] * view[:, 0, :] + g[0, 1] * view[:, 1, :]
    out[:, 1, :] = g[1, 0] * view[:, 0, :] + g[1, 1] * view[:, 1, :]
    return _trusted_state(state.qubit_count, out.reshape(-1))


def measure_z(
    state: PureState, particle: int, rng
) -> tuple[int, PureState, float]:
    """Projective Z measurement of one particle.

    Returns ``(outcome, collapsed, probability)`` where ``probability`` is
    the Born probability of the sampled outcome and ``collapsed`` is the
    renormalized post-measurement state (same qubit count, measured particle
    pinned to the outcome).
    """
    _check_particle(state, particle)
    view = _split_axis(state, particle)
    ones = view[:, 1, :]
    p1 = float(np.vdot(ones, ones).real)
    outcome = 1 if rng.random() < p1 else 0
    prob = p1 if outcome == 1 else 1.0 - p1
    collapsed = np.zeros(state.dimension, dtype=complex)
    cview = collapsed.reshape(view.shape)
    np.divide(view[:, outcome, :], sqrt(prob), out=cview[:, outcome, :])
    return outcome, _trusted_state(state.qubit_count, collapsed), prob


def measure_after_hadamard(
    state: PureState, particle: int, rng
) -> tuple[int, PureState, float]:
    """Hadamard-then-Z measurement fused into one collapse.

    Exactly equivalent to ``apply_gate(state, particle, HADAMARD)`` followed
    by ``measure_z`` with the same draw; fused to halve the work in the
    protocol's inner loop.
    """
    _check_particle(state, particle)
    view = _split_axis(state, particle)
    minus = (view[:, 0, :] - view[:, 1, :]) * _SQRT2_INV
    p1 = float(np.vdot(minus, minus).real)
    outcome = 1 if rng.random() < p1 else 0
    prob = p1 if outcome == 1 else 1.0 - p1
    collapsed = np.zeros(state.dimension, dtype=complex)
    cview = collapsed.reshape(view.shape)
    if outcome == 1:
        np.divide(minus, sqrt(prob), out=cview[:, 1, :])
    else:
        plus = (view[:, 0, :] + view[:, 1, :]) * _SQRT2_INV
        np.divide(plus, sqrt(prob), out=cview[:, 0, :])
    return outcome, _trusted_state(state.qubit_count, collapsed), prob


def attach_register(state: PureState, register: PureState) -> PureState:
    """Tensor a register onto a state; register particles come last."""
    amps = np.kron(state.amplitudes, register.amplitudes)
    return PureState(state.qubit_count + register.qubit_count, amps)


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 (global phase drops out)."""
    if a.qubit_count != b.qubit_count:
        raise ValueError(
            f"dimension mismatch: {a.qubit_count} vs {b.qubit_count} qubits"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


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
# fewer seeds hash a SeedSequence each: the array hash's fixed cost would slow a lone session
_ARRAY_HASH_SEEDS = 16


def derived_rngs(seeds: Sequence[int], *stream: int) -> list[np.random.Generator]:
    """``[derived_rng(seed, *stream) for seed in seeds]``, hashed as arrays.

    Every seed's ``SeedSequence`` hash runs at once in uint32 arithmetic, and
    its four state words seed ``PCG64`` as ``default_rng`` would seed it.
    Seeds must be non-negative ints on both paths: ``SeedSequence`` would
    also read integer strings and sequences, which ``operator.index`` refuses
    with the ``TypeError`` the array hash raises.
    """
    if len(seeds) < _ARRAY_HASH_SEEDS:
        return [derived_rng(operator.index(seed), *stream) for seed in seeds]
    tail = _words(stream)
    state = _seed_state([_words([seed]) + tail for seed in seeds], 8).view("<u8").astype(np.uint64)
    np.random.bit_generator.ISeedSequence.register(_Generated)  # PCG64 takes only these
    return [np.random.Generator(np.random.PCG64(_Generated(row))) for row in state]


def child_seeds(master_seed: int, count: int) -> list[int]:
    """``[child_seed(master_seed, trial) for trial in range(count)]``, hashed as arrays."""
    if count < _ARRAY_HASH_SEEDS:
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

    ``derived_rngs`` registers it as an ``ISeedSequence`` on use: importing
    ``numpy.random`` here would add its import time to every start-up.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words
