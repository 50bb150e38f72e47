"""GHZ-state constructors and closed-form Hadamard-evolution predictors.

A GHZ state here is ``(|x> + (-1)^phase |~x>)/sqrt(2)`` for a bit pattern
``x`` and a relative-phase bit. The closed forms below predict what such a
state becomes when the Hadamard gate is applied to every particle, or to an
arbitrary proper subset, without running the gate-by-gate evolution. The
dense engine prepares its honest states with ``prepare``; only the test
suite uses the closed-form predictors, checking them against the
gate-by-gate engine as an independent oracle.

The server's draws are arrays, the bits of raw generator words by
``streams.pattern_blocks``' rule; arrays are the form the batch engine and
the session checks read. A ``GhzSpec`` is built only where one state is
described on its own (records, transcripts, the dense oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .statevec import MAX_QUBITS, PureState


@dataclass(frozen=True)
class GhzSpec:
    """Descriptor (bit pattern, phase bit) of one GHZ state.

    Two descriptors can denote the same physical state (complementing the
    pattern and absorbing a sign); no canonicalization is applied, because
    the dealer-side server samples patterns and phases independently.
    """

    bits: tuple[int, ...]
    phase: int

    def __post_init__(self) -> None:
        if len(self.bits) < 2:
            raise ValueError("a GHZ spec needs at least 2 particles")
        if len(self.bits) > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} particles supported")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("pattern bits must be 0 or 1")
        if self.phase not in (0, 1):
            raise ValueError("phase must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def qubit_count(self) -> int:
        return len(self.bits)

    def complement(self) -> tuple[int, ...]:
        return tuple(1 - b for b in self.bits)


@dataclass(frozen=True)
class HadamardPattern:
    """Partition of particle positions into Hadamard-ed and untouched sets."""

    hadamard_positions: frozenset[int]
    identity_positions: frozenset[int]

    def __post_init__(self) -> None:
        h, i = self.hadamard_positions, self.identity_positions
        object.__setattr__(self, "hadamard_positions", frozenset(h))
        object.__setattr__(self, "identity_positions", frozenset(i))
        if self.hadamard_positions & self.identity_positions:
            raise ValueError("hadamard and identity positions overlap")
        q = len(self.hadamard_positions) + len(self.identity_positions)
        if self.hadamard_positions | self.identity_positions != set(range(1, q + 1)):
            raise ValueError("positions must partition 1..q")

    @classmethod
    def for_qubits(cls, qubit_count: int, hadamard_positions) -> "HadamardPattern":
        h = frozenset(hadamard_positions)
        return cls(h, frozenset(range(1, qubit_count + 1)) - h)


@dataclass(frozen=True)
class PartialTerm:
    """One term of the partial-Hadamard expansion.

    ``index`` enumerates the Hadamard-side basis ket ``h_bits``;
    ``sign_exponent`` gives the term's overall sign, ``weight_parity`` the
    relative sign inside the entangled remainder, and ``identity_value`` the
    numeric value of the untouched substring that selected the branching.
    """

    index: int
    h_bits: tuple[int, ...]
    sign_exponent: int
    weight_parity: int
    identity_value: int


def _int_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def prepare(spec: GhzSpec) -> PureState:
    """Build ``(|x> + (-1)^phase |~x>)/sqrt(2)`` as a state vector."""
    q = spec.qubit_count
    idx = 0
    for b in spec.bits:
        idx = (idx << 1) | b
    comp = idx ^ ((1 << q) - 1)
    amps = np.zeros(1 << q, dtype=complex)
    amps[idx] = 1.0 / sqrt(2.0)
    amps[comp] = (-1.0) ** spec.phase / sqrt(2.0)
    return PureState(q, amps)


def predict_full_hadamard(spec: GhzSpec) -> PureState:
    """Closed form of the state after Hadamard on every particle.

    The support is exactly the basis kets whose Hamming-weight parity equals
    the phase bit, all with magnitude ``1/sqrt(2^(q-1))``; the sign of ket
    ``k`` is ``(-1)^(k . x)``.
    """
    q = spec.qubit_count
    x_index = int("".join(map(str, spec.bits)), 2)
    ks = np.arange(1 << q)
    weights = _popcount(ks)
    dots = _popcount(ks & x_index)
    amps = np.where(
        weights % 2 == spec.phase,
        (-1.0) ** (dots % 2) / sqrt(2.0 ** (q - 1)),
        0.0,
    ).astype(complex)
    return PureState(q, amps)


def _popcount(values: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(values)
    v = values.copy()
    while np.any(v):
        counts += v & 1
        v >>= 1
    return counts


def partial_hadamard_terms(
    spec: GhzSpec, pattern: HadamardPattern
) -> list[PartialTerm]:
    """Expansion terms for Hadamard on a proper subset of particles.

    The branching on the untouched substring's value keeps each term's
    entangled remainder written with its numerically smaller ket first,
    matching the orientation the closed form is stated in.
    """
    q = spec.qubit_count
    h_pos = sorted(pattern.hadamard_positions)
    i_pos = sorted(pattern.identity_positions)
    if not 1 <= len(h_pos) <= q - 1:
        raise ValueError("pattern must Hadamard a proper nonempty subset")
    x_h = tuple(spec.bits[p - 1] for p in h_pos)
    x_i = tuple(spec.bits[p - 1] for p in i_pos)
    identity_value = int("".join(map(str, x_i)), 2)
    low_branch = identity_value < (1 << (len(i_pos) - 1))
    delta_bits = x_h if low_branch else tuple(1 - b for b in x_h)
    terms = []
    m = len(h_pos)
    for index in range(1 << m):
        k = _int_bits(index, m)
        sign = sum(ki * di for ki, di in zip(k, delta_bits)) % 2
        parity = sum(k) % 2
        terms.append(PartialTerm(index, k, sign, parity, identity_value))
    return terms


def predict_partial_hadamard(spec: GhzSpec, pattern: HadamardPattern) -> PureState:
    """Closed-form state after Hadamard on a proper subset of particles.

    Amplitudes are scattered back to the original particle ordering, so
    callers never track the Hadamard-ed-first permutation the expansion is
    derived in.
    """
    q = spec.qubit_count
    h_pos = sorted(pattern.hadamard_positions)
    i_pos = sorted(pattern.identity_positions)
    terms = partial_hadamard_terms(spec, pattern)
    x_i = tuple(spec.bits[p - 1] for p in i_pos)
    x_i_comp = tuple(1 - b for b in x_i)
    low_branch = terms[0].identity_value < (1 << (len(i_pos) - 1))
    first_inner, second_inner = (x_i, x_i_comp) if low_branch else (x_i_comp, x_i)

    weight = tuple(1 << (q - p) for p in range(1, q + 1))
    amps = np.zeros(1 << q, dtype=complex)
    scale = 1.0 / sqrt(2.0 ** (len(h_pos) + 1))
    for term in terms:
        base = 0
        for p, bit in zip(h_pos, term.h_bits):
            if bit:
                base |= weight[p - 1]
        first_idx = base
        second_idx = base
        for p, b1, b2 in zip(i_pos, first_inner, second_inner):
            if b1:
                first_idx |= weight[p - 1]
            if b2:
                second_idx |= weight[p - 1]
        sign = (-1.0) ** term.sign_exponent
        inner_sign = (-1.0) ** ((term.sign_exponent + term.weight_parity + spec.phase) % 2)
        amps[first_idx] += sign * scale
        amps[second_idx] += inner_sign * scale
    return PureState(q, amps)


def parity_oracle(spec: GhzSpec) -> int:
    """XOR of all-particle Z results after Hadamard on every particle."""
    return spec.phase


def residual_phase(spec: GhzSpec, measured_position: int, outcome: int) -> GhzSpec:
    """Spec of the remainder after Hadamard-then-Z measuring one particle.

    The surviving particles keep their pattern bits; the phase bit flips
    exactly when the measured outcome is 1.
    """
    if spec.qubit_count < 3:
        raise ValueError("need at least 3 particles for an entangled remainder")
    if not 1 <= measured_position <= spec.qubit_count:
        raise ValueError(f"measured_position {measured_position} out of range")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    remaining = tuple(
        b for p, b in enumerate(spec.bits, start=1) if p != measured_position
    )
    return GhzSpec(remaining, spec.phase ^ outcome)
