from collections import Counter

import numpy as np
import pytest

from mqss import protocol

from mqss.statevec import PureState


class FixedRng:
    """Stand-in generator returning preset uniform draws."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self):
        if len(self._draws) > 1:
            return self._draws.pop(0)
        return self._draws[0]


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
