from collections import Counter

import numpy as np
import pytest

from mqss import protocol, streams

from mqss.statevec import PureState


class FixedRng:
    """Stand-in generator returning preset uniform draws."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self):
        if len(self._draws) > 1:
            return self._draws.pop(0)
        return self._draws[0]


def raw_word_bits(words, start: int, count: int) -> list[int]:
    """Bits ``start`` to ``start + count`` of 64-bit words, low bit first, in plain Python."""
    return [words[at // 64] >> (at % 64) & 1 for at in range(start, start + count)]


def integers_draw_bits(rng, rows: int, q: int) -> tuple[list[int], list[int]]:
    """The pattern bits and phases of ``rows`` x ``q`` from ``rng``'s ``integers`` draws of words.

    numpy's ``integers`` over the whole uint64 range hands out raw words, one
    per value, and leaves alone a 32-bit half it holds for a narrower draw.
    The pattern bits fill whole words, and the phases start on a fresh one.
    """
    pattern_words, phase_words = -(-rows * q // 64), -(-rows // 64)
    words = rng.integers(0, 2**64, size=pattern_words + phase_words, dtype=np.uint64).tolist()
    return raw_word_bits(words, 0, rows * q), raw_word_bits(words, 64 * pattern_words, rows)


def drawn_patterns(rng, rows: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` x ``q`` pattern bits and ``rows`` phases of ``rng``, its blocks joined."""
    bits, phases = zip(*streams.pattern_blocks([rng], rows, q))
    return np.concatenate(bits), np.concatenate(phases)


def state_from_terms(qubit_count, terms, scale=1.0):
    """Build a PureState from {bitstring: coefficient} ket terms."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    for ket, coeff in terms.items():
        amps[int(ket, 2)] = coeff * scale
    return PureState(qubit_count, amps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def built(monkeypatch):
    """How many ``SessionOutcome`` and ``SessionStats`` objects ``protocol`` builds, by name."""
    counts = Counter()
    for name in ("SessionOutcome", "SessionStats"):

        def counting(*args, _made=getattr(protocol, name), _name=name, **kwargs):
            counts[_name] += 1
            return _made(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counting)
    return counts
