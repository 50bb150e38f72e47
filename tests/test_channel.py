"""Channel noise and interception hooks."""

from math import sqrt

import pytest

from mqss.channel import QubitChannel, transmit
from mqss.statevec import basis_state, fidelity

from conftest import FixedRng


def test_noiseless_channel_is_identity(rng):
    channel = QubitChannel(epsilon=0.0)
    state = basis_state(3, [0, 1, 0])
    out = transmit(channel, state, 2, rng)
    assert fidelity(out, state) == pytest.approx(1.0)


def test_certain_flip(rng):
    channel = QubitChannel(epsilon=1.0)
    out = transmit(channel, basis_state(1, [0]), 1, rng)
    assert fidelity(out, basis_state(1, [1])) == pytest.approx(1.0)


def test_flip_rate_within_3_sigma(rng):
    channel = QubitChannel(epsilon=0.1)
    zero = basis_state(1, [0])
    one = basis_state(1, [1])
    trials = 10_000
    flips = 0
    for _ in range(trials):
        out = transmit(channel, zero, 1, rng)
        flips += fidelity(out, one) > 0.5
    sigma = sqrt(trials * 0.1 * 0.9)
    assert abs(flips - trials * 0.1) <= 3 * sigma


def test_no_flip_leaves_state_untouched():
    # a draw above epsilon means no flip happened; the joint state must be
    # exactly the input (no disturbance of untransmitted particles either)
    channel = QubitChannel(epsilon=0.3)
    state = basis_state(4, [0, 1, 1, 0])
    out = transmit(channel, state, 1, FixedRng(0.95))
    assert fidelity(out, state) == pytest.approx(1.0)


def test_identity_interceptor_matches_no_interceptor():
    plain = QubitChannel(epsilon=0.0)
    tapped = QubitChannel(epsilon=0.0, interceptor=lambda s, p, r: s)
    state = basis_state(2, [1, 0])
    a = transmit(plain, state, 1, FixedRng(0.5))
    b = transmit(tapped, state, 1, FixedRng(0.5))
    assert fidelity(a, b) == pytest.approx(1.0)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        QubitChannel(epsilon=1.5)


def test_transmit_validates_particle_index(rng):
    with pytest.raises(ValueError):
        transmit(QubitChannel(), basis_state(2, [0, 0]), 3, rng)

