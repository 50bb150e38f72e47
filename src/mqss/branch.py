"""Exact engine for protocol rounds: a batch of GHZ rounds played as arrays.

The server only prepares GHZ states ``(|x> + (-1)^b |~x>)/sqrt(2)``,
optionally entangled with one probe qubit; noise only flips bits; and the
participants only Z-measure (Check mode, measure-resend taps) or apply a
Hadamard and then Z-measure (Share mode). So every round is a pair of
branches, the pattern ket ``|x>`` and the complement ket ``|~x>``, each
carrying a probe amplitude pair (one amplitude when there is no probe).

- A bit flip flips one column of the pattern bits; the complement branch
  follows, since its bits are always the complement of the pattern's.
- A Z measurement keeps the branch whose bit matches the outcome.
- Hadamard-then-Z multiplies each branch by ``(-1)^(outcome * bit)``, which
  is ``ghz.residual_phase``. While other particles remain unmeasured the
  two branches stay orthogonal, so either outcome has probability 1/2; at
  the last particle their kets coincide and they interfere.

Besides its pattern bits, then, a round holds four bits of state: whether
each branch survives and the parity of each one's signs, the complement's
starting at ``b``. ``BranchPairs`` holds R rounds at once: their R x q
pattern bits, the one amplitude pair all their branches start from, and
those four bits per round as a uint8 row code. What a step reads and
leaves depends only on the code, the particle's bit, the mode and whether
the particle is the last, so lookup tables hold it all: the outcome-1
probabilities and the code each outcome leaves. They are built once per
starting amplitude pair, on first use, and cached. A step is a few uint8
array operations and two ``ndarray.take`` gathers over the batch, O(R)
work where the dense engine pays O(2^q) per round.

Probabilities are ratios of branch norms and nothing is renormalised, so an
honest round's probabilities are exactly 0, 1/2 or 1. A table entry is the
float expression a row would evaluate, evaluated once per code, so it is
the same to the last bit. Amplitudes are real unless a weight is complex.
Honest rounds and the collective attack at real weights are real, and give
the same probabilities to the last bit as those weights written as complex
numbers.

Every measurement compares one uniform draw per round with the outcome-1
probability, as ``statevec``'s measurements do, so rounds fed the draws the
dense walk would take sample the same outcomes (barring a draw that lands
within rounding of a probability). Ket integers in ``probe_kets`` and
``BranchPairs.kets`` follow ``statevec``'s index convention: particle 1 owns
the most significant bit and a probe register the least significant one.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt
from typing import NamedTuple

import numpy as np

from .statevec import PureState

Kets = dict[int, complex]

_SQRT2_INV = 1.0 / sqrt(2.0)


def _pattern_pair(bits) -> tuple[int, int]:
    pattern = 0
    for b in bits:
        pattern = (pattern << 1) | b
    return pattern, pattern ^ ((1 << len(bits)) - 1)


def _probe_pair(attack) -> tuple[float, float]:
    overlap = attack.probe_overlap
    return overlap, sqrt(max(0.0, 1.0 - overlap * overlap))


def probe_kets(spec, attack) -> Kets:
    """``a_p |x>|0> + a_c (-1)^b |~x>(c|0> + sqrt(1-c^2)|1>)`` with a probe bit.

    ``attack`` is a ``CollectiveAttackConfig``: ``c`` is its probe overlap,
    ``a_p`` and ``a_c`` its pattern and complement weights.
    """
    pattern, complement = _pattern_pair(spec.bits)
    overlap, residual = _probe_pair(attack)
    weight = (-1.0) ** spec.phase * attack.complement_weight
    kets = {
        pattern << 1: complex(attack.pattern_weight),
        complement << 1: complex(weight * overlap),
        (complement << 1) | 1: complex(weight * residual),
    }
    return {ket: amp for ket, amp in kets.items() if amp}


def to_state(kets: Kets, qubit_count: int) -> PureState:
    """The same state as a validated dense vector (for the dense engine)."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    for ket, amp in kets.items():
        amps[ket] = amp
    return PureState(qubit_count, amps)


def _norms(amps: np.ndarray) -> np.ndarray:
    """Squared norms over the leading (amplitude slot) axis."""
    squares = amps.real * amps.real
    if np.iscomplexobj(amps):
        squares += amps.imag * amps.imag
    return squares.sum(axis=0)


# a row code's bits 2 to 5: which branch survives and the parity of each
# one's signs; a step puts its particle's bit in bit 1 and its mode in bit 0
_LIVE = (0b000100, 0b001000)  # pattern, complement
_SIGN = (0b010000, 0b100000)


class _Tables(NamedTuple):
    """What a step reads, for every code, from one starting amplitude pair."""

    middle: np.ndarray  # code | bit << 1 | share: outcome-1 probability, other particles unmeasured
    last: np.ndarray  # the same at the last particle, where the Hadamard interferes
    probe: np.ndarray  # code: the probe's outcome-1 probability
    after: np.ndarray  # (code | bit << 1 | share) << 1 | outcome: the code a step leaves


@lru_cache(maxsize=64)
def _tables(initial: bytes, dtype: str, slots: int) -> _Tables:
    """Every step's probabilities and next codes, from the pair's amplitudes.

    The probabilities are the float expressions the rows would evaluate,
    evaluated once per code, so they are the same to the last bit. Codes
    whose branches have both died are never read; their entries are NaN.
    """
    pair = np.frombuffer(initial, dtype=dtype).reshape(2, slots)
    codes = np.arange(0, 64, 4)
    alive = np.array([codes & live for live in _LIVE], dtype=bool)
    signs = np.array([codes & sign for sign in _SIGN], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = _norms(pair.T)[:, None] * alive
        z = np.stack((weights[1], weights[0]), axis=1) / (weights[0] + weights[1])[:, None]
        factors = np.where(signs, -1.0, 1.0) * alive
        amps = pair[:, :, None] * factors[:, None, :]  # branch x slot x code
        pattern, complement = amps
        minus = _norms(pattern - complement)
        hadamard = minus / (minus + _norms(pattern + complement))
        both = amps.sum(axis=0)  # after the last particle both branches share one ket
        probe = _norms(both[1:]) / _norms(both)
    # code x bit x share; a Hadamard's branches stay orthogonal on the unmeasured rest
    middle = np.stack((z, np.full_like(z, 0.5)), axis=2)
    last = np.stack((z, np.repeat(hadamard[:, None], 2, axis=1)), axis=2)
    code, bit, share, outcome = np.indices((len(codes), 2, 2, 2), dtype=np.uint8)
    code <<= 2
    # a check keeps the branch whose bit is the outcome; Hadamard-then-Z
    # negates the branch whose bit is 1 when the outcome is 1
    dies = np.where(outcome == bit, _LIVE[1], _LIVE[0]) * (share == 0)
    flips = np.where(bit == 1, _SIGN[0], _SIGN[1]) * (share & outcome)
    after = ((code & ~dies) ^ flips).astype(np.uint8)
    tables = _Tables(middle.ravel(), last.ravel(), np.repeat(probe, 4), after.ravel())
    for table in tables:
        table.setflags(write=False)
    return tables


class BranchPairs:
    """R rounds, each a pattern branch and a complement branch.

    ``bits`` is the R x q array of pattern bits. Every round starts from
    the amplitudes ``pattern`` and ``complement``, or from these probe
    amplitude pairs when a probe qubit is attached, its complement negated
    where its bit of ``phases`` is 1. After that a round changes only in
    its pattern bits and its row code in ``code``: a uint8 whose bits say
    whether each branch survives and the parity of each one's signs. A step
    looks its rows' probabilities and next codes up in ``tables``, built
    once per starting pair. The steps address particle ``column + 1`` and
    take one uniform draw per round; each returns the sampled outcomes and
    the outcome-1 probabilities.
    """

    def __init__(self, bits, pattern, complement, phases) -> None:
        # column-major, so a step reads its particle's bits contiguously; a copy: flips write to it
        self.bits = np.array(bits, dtype=bool, order="F")
        rounds, qubits = self.bits.shape
        initial = np.array((pattern, complement))
        if initial.ndim != 2:
            raise ValueError("need one pattern and one complement amplitude slot each")
        # real weights keep every table in real arithmetic
        self.initial = initial.astype(np.result_type(initial, np.float64))
        self.tables = _tables(self.initial.tobytes(), self.initial.dtype.str, self.initial.shape[1])
        self.code = np.empty(rounds, dtype=np.uint8)
        self.code[:] = phases  # the complement's sign parity starts at b
        self.code <<= 5
        self.code |= _LIVE[0] | _LIVE[1]
        self.results = np.zeros((rounds, qubits), dtype=np.uint8)
        self.measured = np.zeros(qubits, dtype=bool)

    @classmethod
    def ghz(cls, bits, phases, collective=None) -> "BranchPairs":
        """The server's states: honest GHZ states, or a collective attack's.

        ``collective`` is a ``CollectiveAttackConfig``; its states are the
        ones ``probe_kets`` writes out.
        """
        if collective is None:
            return cls(bits, [_SQRT2_INV], [_SQRT2_INV], phases)
        complement = np.multiply(collective.complement_weight, _probe_pair(collective))
        return cls(bits, [collective.pattern_weight, 0.0], complement, phases)

    @property
    def probe(self) -> bool:
        return self.initial.shape[1] == 2

    def flip(self, column: int, rows) -> None:
        """Pauli X on the particle in the rounds where ``rows`` is set."""
        self.bits[:, column] ^= rows

    def tap(self, column: int, draws, rows=None):
        """Z measurement in transit; the particle stays for its owner.

        Measures every round, or only those where ``rows`` is set.
        """
        index = self._index(column)
        p1 = self.tables.middle.take(index)
        outcome = draws < p1
        code = self.tables.after.take(index << 1 | outcome)
        self.code = code if rows is None else np.where(rows, code, self.code)
        return outcome, p1

    def measure(self, column: int, share, draws):
        """The owner's measurement: Hadamard-then-Z where ``share``, else Z."""
        if self.measured[column]:
            raise ValueError(f"particle {column + 1} was already measured")
        last = np.count_nonzero(self.measured) == len(self.measured) - 1
        index = self._index(column, share)
        p1 = (self.tables.last if last else self.tables.middle).take(index)
        outcome = draws < p1
        self.code = self.tables.after.take(index << 1 | outcome)
        self.results[:, column] = outcome
        self.measured[column] = True
        return outcome, p1

    def read_probe(self, draws):
        """Z measurement of the probe once every particle has been measured."""
        if not self.probe or not self.measured.all():
            raise ValueError("the probe is read last, and only when there is one")
        p1 = self.tables.probe.take(self.code)
        return draws < p1, p1

    def kets(self, row: int) -> Kets:
        """Round ``row`` as normalised kets, measured particles at their results."""
        qubits = self.bits.shape[1]
        slots = self.initial.shape[1]
        code = int(self.code[row])
        kets: Kets = {}
        for branch, amps in enumerate(self.initial.tolist()):
            if not code & _LIVE[branch]:
                continue
            sign = -1.0 if code & _SIGN[branch] else 1.0
            bits = np.where(self.measured, self.results[row], self.bits[row] ^ bool(branch))
            ket = int(bits.astype(np.int64) @ (1 << np.arange(qubits - 1, -1, -1)))
            for slot, amp in enumerate(amps):
                key = ket * slots + slot
                kets[key] = kets.get(key, 0j) + sign * amp
        scale = 1.0 / sqrt(sum(abs(amp) ** 2 for amp in kets.values()))
        return {ket: amp * scale for ket, amp in kets.items() if amp}

    def _index(self, column: int, share=None):
        """Each row's code with its particle's bit and, for a measurement, its mode."""
        index = self.code | self.bits[:, column].view(np.uint8) << 1
        if share is not None:
            index |= np.asarray(share, dtype=bool).view(np.uint8)
        return index
