"""Exact engine for protocol rounds: a batch of GHZ rounds played as arrays.

The server only prepares GHZ states ``(|x> + (-1)^b |~x>)/sqrt(2)``,
optionally entangled with one probe qubit; noise only flips bits; and the
participants only Z-measure (Check mode, measure-resend taps) or apply a
Hadamard and then Z-measure (Share mode). So every round is a pair of
branches, the pattern ket ``|x>`` and the complement ket ``|~x>``, each
carrying a probe amplitude pair (one amplitude when there is no probe).
``BranchPairs`` holds R rounds at once: their R x q pattern bits, the one
amplitude pair all their branches start from, and per round and branch
whether it survives and the parity of its signs, which starts at ``b``.

- A bit flip flips one column of the pattern bits; the complement branch
  follows, since its bits are always the complement of the pattern's.
- A Z measurement keeps the branch whose bit matches the outcome.
- Hadamard-then-Z multiplies each branch by ``(-1)^(outcome * bit)``, which
  is ``ghz.residual_phase``. While other particles remain unmeasured the
  two branches stay orthogonal, so either outcome has probability 1/2; at
  the last particle their kets coincide and they interfere.

Probabilities are ratios of branch norms and nothing is renormalised, so an
honest round's probabilities are exactly 0, 1/2 or 1. A step costs O(R)
array work where the dense engine pays O(2^q) per round, and works out only
what its rows' modes read: a measurement builds the Hadamard probability
only if some row shares and the Z probability only if some row checks.
Amplitudes are real unless a weight is complex. Honest rounds and the
collective attack at real weights are real, and give the same probabilities
to the last bit as those weights written as complex numbers.

Every measurement compares one uniform draw per round with the outcome-1
probability, as ``statevec``'s measurements do, so rounds fed the draws the
dense walk would take sample the same outcomes (barring a draw that lands
within rounding of a probability). Ket integers in ``probe_kets`` and
``BranchPairs.kets`` follow ``statevec``'s index convention: particle 1 owns
the most significant bit and a probe register the least significant one.
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


class BranchPairs:
    """R rounds, each a pattern branch and a complement branch.

    ``bits`` is the R x q array of pattern bits. Every round starts from
    the amplitudes ``pattern`` and ``complement``, or from these probe
    amplitude pairs when a probe qubit is attached, its complement negated
    where its bit of ``phases`` is 1. The steps address particle
    ``column + 1`` and take one uniform draw per round; each returns the
    sampled outcomes and the outcome-1 probabilities.
    """

    def __init__(self, bits, pattern, complement, phases) -> None:
        self.bits = np.array(bits, dtype=bool)  # a copy: flips write to it
        rounds, qubits = self.bits.shape
        initial = np.array((pattern, complement))
        if initial.ndim != 2:
            raise ValueError("need one pattern and one complement amplitude slot each")
        # real weights keep every step in real arithmetic
        self.initial = initial.astype(np.result_type(initial, np.float64))
        self.norms = _norms(self.initial.T)[:, None]
        self.alive = np.ones((2, rounds), dtype=bool)
        self.signs = np.zeros((2, rounds), dtype=bool)  # parity of -1 factors
        self.signs[1] = phases
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
        bit = self.bits[:, column]
        p1 = self._z_probability(bit)
        outcome = draws < p1
        keep = outcome == bit  # the pattern branch survives
        if rows is None:
            self.alive[0] &= keep
            self.alive[1] &= ~keep
        else:
            self.alive[0] &= keep | ~rows
            self.alive[1] &= ~keep | ~rows
        return outcome, p1

    def measure(self, column: int, share, draws):
        """The owner's measurement: Hadamard-then-Z where ``share``, else Z.

        Only what the rows' modes read is worked out: the Hadamard
        probability and the signs if some row shares, the Z probability and
        the survivals if some row checks.
        """
        if self.measured[column]:
            raise ValueError(f"particle {column + 1} was already measured")
        bit = self.bits[:, column]
        shares = np.count_nonzero(share)
        checks = len(bit) - shares
        if not checks:
            p1 = self._hadamard_probability()
        elif shares:
            p1 = np.where(share, self._hadamard_probability(), self._z_probability(bit))
        else:
            p1 = self._z_probability(bit)
        outcome = draws < p1
        if checks:
            keep = outcome == bit
            self.alive[0] &= keep | share
            self.alive[1] &= ~keep | share
        if shares:
            flipped = share & outcome
            self.signs[0] ^= flipped & bit
            self.signs[1] ^= flipped & ~bit
        self.results[:, column] = outcome
        self.measured[column] = True
        return outcome, p1

    def read_probe(self, draws):
        """Z measurement of the probe once every particle has been measured."""
        if not self.probe or not self.measured.all():
            raise ValueError("the probe is read last, and only when there is one")
        amps = self._amplitudes().sum(axis=0)  # both branches now share one ket
        p1 = _norms(amps[1:]) / _norms(amps)
        return draws < p1, p1

    def kets(self, row: int) -> Kets:
        """Round ``row`` as normalised kets, measured particles at their results."""
        qubits = self.bits.shape[1]
        slots = self.initial.shape[1]
        kets: Kets = {}
        for branch, amps in enumerate(self._amplitudes()):
            bits = np.where(self.measured, self.results[row], self.bits[row] ^ bool(branch))
            ket = int(bits.astype(np.int64) @ (1 << np.arange(qubits - 1, -1, -1)))
            for slot, amp in enumerate(amps[:, row].tolist()):
                key = ket * slots + slot
                kets[key] = kets.get(key, 0j) + amp
        scale = 1.0 / sqrt(sum(abs(amp) ** 2 for amp in kets.values()))
        return {ket: amp * scale for ket, amp in kets.items() if amp}

    def _z_probability(self, bit):
        weights = self.norms * self.alive
        return np.where(bit, weights[0], weights[1]) / (weights[0] + weights[1])

    def _hadamard_probability(self):
        if self.measured.sum() < len(self.measured) - 1:
            return np.full(len(self.bits), 0.5)  # orthogonal on the unmeasured rest
        # the last particle: both kets reduce to the probe and interfere
        pattern, complement = self._amplitudes()
        minus = _norms(pattern - complement)
        return minus / (minus + _norms(pattern + complement))

    def _amplitudes(self) -> np.ndarray:
        """Both branches' current amplitudes, branch x slot x round, zero where a branch died."""
        factors = np.where(self.signs, -1.0, 1.0) * self.alive
        return self.initial[:, :, None] * factors[:, None, :]
