"""Exact engine for protocol rounds: a GHZ state held as a few basis kets.

The server only prepares GHZ states ``(|x> + (-1)^b |~x>)/sqrt(2)``,
optionally entangled with one probe qubit; noise only flips bits; and the
participants only Z-measure (Check mode, measure-resend taps) or apply a
Hadamard and then Z-measure (Share mode). Such a state is a sum of at most
four computational-basis kets, so it is held as a dict ``{ket: amplitude}``.
Ket integers follow ``statevec``'s index convention: particle 1 owns the
most significant bit and a probe register the least significant one. No
operation enlarges the support, so every step costs O(q) where the dense
engine pays O(2^q).

Every measurement takes exactly one draw and compares it with the outcome-1
probability, as ``statevec``'s measurements do, so a round consumes the same
draws in the same order on either engine and samples the same outcomes
(barring a draw that lands within rounding of a probability).
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .statevec import PureState

Kets = dict[int, complex]

_SQRT2_INV = 1.0 / sqrt(2.0)


def _pattern_pair(bits) -> tuple[int, int]:
    pattern = 0
    for b in bits:
        pattern = (pattern << 1) | b
    return pattern, pattern ^ ((1 << len(bits)) - 1)


def ghz_kets(spec) -> Kets:
    """The honest GHZ state of a ``GhzSpec``, as ``ghz.prepare`` builds it."""
    pattern, complement = _pattern_pair(spec.bits)
    return {
        pattern: complex(_SQRT2_INV),
        complement: complex((-1.0) ** spec.phase * _SQRT2_INV),
    }


def probe_kets(spec, attack) -> Kets:
    """``a_p |x>|0> + a_c (-1)^b |~x>(c|0> + sqrt(1-c^2)|1>)`` with a probe bit.

    ``attack`` is a ``CollectiveAttackConfig``: ``c`` is its probe overlap,
    ``a_p`` and ``a_c`` its pattern and complement weights.
    """
    pattern, complement = _pattern_pair(spec.bits)
    overlap = attack.probe_overlap
    residual = sqrt(max(0.0, 1.0 - overlap * overlap))
    weight = (-1.0) ** spec.phase * attack.complement_weight
    kets = {
        pattern << 1: complex(attack.pattern_weight),
        complement << 1: complex(weight * overlap),
        (complement << 1) | 1: complex(weight * residual),
    }
    return {ket: amp for ket, amp in kets.items() if amp}


def to_state(kets: Kets, qubit_count: int, register_qubits: int = 0) -> PureState:
    """The same state as a validated dense vector (for the dense engine)."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    for ket, amp in kets.items():
        amps[ket] = amp
    return PureState(qubit_count, amps, register_qubits)


def particle_mask(qubit_count: int, particle: int) -> int:
    """Bit of 1-based ``particle`` in a ket over ``qubit_count`` qubits."""
    if not 1 <= particle <= qubit_count:
        raise ValueError(f"particle index {particle} out of range 1..{qubit_count}")
    return 1 << (qubit_count - particle)


def flip(kets: Kets, mask: int) -> Kets:
    """Pauli X on one particle: flip its bit in every ket."""
    return {ket ^ mask: amp for ket, amp in kets.items()}


def _draw(p1: float, rng) -> tuple[int, float]:
    # one draw, compared with p1 exactly as statevec compares it
    outcome = 1 if rng.random() < p1 else 0
    return outcome, p1 if outcome else 1.0 - p1


def measure_z(kets: Kets, mask: int, rng) -> tuple[int, Kets, float]:
    """Z measurement: keep the kets that match the outcome, renormalised.

    Returns ``(outcome, collapsed, probability)`` like ``statevec.measure_z``.
    """
    p1 = 0.0
    for ket, amp in kets.items():
        if ket & mask:
            p1 += amp.real * amp.real + amp.imag * amp.imag
    outcome, prob = _draw(p1, rng)
    scale = 1.0 / sqrt(prob)
    keep = mask if outcome else 0
    return outcome, {
        ket: amp * scale for ket, amp in kets.items() if ket & mask == keep
    }, prob


def measure_after_hadamard(kets: Kets, mask: int, rng) -> tuple[int, Kets, float]:
    """Hadamard then Z measurement of one particle.

    ``<o|H|bit> = (-1)^(o*bit)/sqrt(2)``: outcome ``o`` keeps every ket with
    the particle's bit set to ``o`` and the sign ``(-1)^(o*bit)`` applied;
    kets that then coincide merge, and drop out where they cancel. That is
    where GHZ interference shows.
    """
    plus: Kets = {}   # rest -> v0 + v1, where v_b is the amplitude with bit b
    minus: Kets = {}  # rest -> v0 - v1
    for ket, amp in kets.items():
        rest = ket & ~mask
        signed = -amp if ket & mask else amp
        if rest in plus:
            plus[rest] += amp
            minus[rest] += signed
        else:
            plus[rest] = amp
            minus[rest] = signed
    p1 = 0.0
    for amp in minus.values():
        amp *= _SQRT2_INV
        p1 += amp.real * amp.real + amp.imag * amp.imag
    outcome, prob = _draw(p1, rng)
    scale = 1.0 / sqrt(prob)
    kept, bit = (minus, mask) if outcome else (plus, 0)
    return outcome, {
        rest | bit: amp * _SQRT2_INV * scale for rest, amp in kept.items() if amp
    }, prob
