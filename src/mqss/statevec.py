"""Dense state-vector engine for small multi-qubit systems.

Conventions used throughout the package:

- Particle indices are 1-based; particle 1 owns the most significant bit of
  the basis index, so ``|x1 x2 ... xq>`` maps to index ``x1 x2 ... xq`` read
  as binary.
- States are immutable snapshots; every operation returns a new ``PureState``.
- All randomness is drawn from an explicitly passed generator (anything with
  a ``random()`` method; normally one ``streams.derived_rng`` makes), never
  from hidden global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

