"""Unit tests for the dense state-vector engine."""

import copy
import itertools
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqss import streams
from mqss.statevec import (
    ATOL,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PureState,
    apply_gate,
    attach_register,
    basis_state,
    fidelity,
    measure_after_hadamard,
    measure_z,
)
from mqss.streams import child_seed, child_seeds, derived_rng, derived_rngs

from conftest import FixedRng, state_from_terms

S2 = 1.0 / sqrt(2.0)


def random_state(rng, qubit_count):
    amps = rng.normal(size=1 << qubit_count) + 1j * rng.normal(size=1 << qubit_count)
    return PureState(qubit_count, amps / np.linalg.norm(amps))


def random_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- construction -----------------------------------------------------------


@pytest.mark.parametrize(
    "qubit_count,bits,index",
    [(1, [0], 0), (4, [0, 0, 1, 1], 3), (2, [1, 0], 2)],
)
def test_basis_state_index_convention(qubit_count, bits, index):
    state = basis_state(qubit_count, bits)
    expected = np.zeros(1 << qubit_count)
    expected[index] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_basis_state_length_mismatch():
    with pytest.raises(ValueError):
        basis_state(3, [0, 1])


def test_qubit_cap():
    with pytest.raises(ValueError):
        PureState(25, np.zeros(2, dtype=complex))


def test_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0], dtype=complex))


def test_amplitudes_are_frozen():
    state = basis_state(2, [0, 1])
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


# --- gates ------------------------------------------------------------------


def test_hadamard_on_zero_gives_plus():
    plus = apply_gate(basis_state(1, [0]), 1, HADAMARD)
    np.testing.assert_allclose(plus.amplitudes, [S2, S2], atol=ATOL)


def test_gate_constants_are_unitary():
    for gate in (IDENTITY, HADAMARD, PAULI_X):
        np.testing.assert_allclose(gate @ gate.conj().T, IDENTITY, atol=ATOL)


def test_hadamard_twice_restores(rng):
    for q in (1, 3, 5):
        state = random_state(rng, q)
        target = int(rng.integers(1, q + 1))
        back = apply_gate(apply_gate(state, target, HADAMARD), target, HADAMARD)
        assert fidelity(state, back) > 1 - ATOL


def test_full_hadamard_matches_published_eight_terms():
    ghz = state_from_terms(4, {"0011": S2, "1100": S2})
    state = ghz
    for p in range(1, 5):
        state = apply_gate(state, p, HADAMARD)
    expected = state_from_terms(
        4,
        {
            "0000": 1, "0011": 1, "0101": -1, "0110": -1,
            "1001": -1, "1010": -1, "1100": 1, "1111": 1,
        },
        scale=1 / (2 * sqrt(2)),
    )
    np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), qubits=st.integers(1, 6))
def test_apply_gate_preserves_norm(seed, qubits):
    rng = np.random.default_rng(seed)
    state = random_state(rng, qubits)
    gate = random_unitary(rng)
    target = int(rng.integers(1, qubits + 1))
    out = apply_gate(state, target, gate)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < ATOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_apply_gate_matches_kron_expansion(seed):
    # independent oracle: build the full 2^q x 2^q operator explicitly
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    state = random_state(rng, q)
    gate = random_unitary(rng)
    target = int(rng.integers(1, q + 1))
    full = np.array([[1.0]], dtype=complex)
    for p in range(1, q + 1):
        full = np.kron(full, gate if p == target else IDENTITY)
    expected = full @ state.amplitudes
    out = apply_gate(state, target, gate)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-9)


def test_apply_gate_index_out_of_range():
    with pytest.raises(ValueError):
        apply_gate(basis_state(2, [0, 0]), 3, HADAMARD)


def test_apply_gate_rejects_non_unitary():
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        apply_gate(basis_state(1, [0]), 1, shear)


def test_gate_mutated_in_place_after_use_is_checked_again():
    gate = PAULI_X.copy()
    apply_gate(basis_state(1, [0]), 1, gate)
    gate[1, 0] = 5
    with pytest.raises(ValueError):
        apply_gate(basis_state(1, [0]), 1, gate)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), draw=st.floats(0.0, 1.0))
def test_fused_hadamard_measurement_matches_two_step(seed, draw):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 6))
    state = random_state(rng, q)
    target = int(rng.integers(1, q + 1))
    fused = measure_after_hadamard(state, target, FixedRng(draw))
    rotated = apply_gate(state, target, HADAMARD)
    stepwise = measure_z(rotated, target, FixedRng(draw))
    assert fused[0] == stepwise[0]
    assert fused[2] == pytest.approx(stepwise[2], abs=1e-12)
    np.testing.assert_allclose(
        fused[1].amplitudes, stepwise[1].amplitudes, atol=1e-12
    )


# --- measurement ------------------------------------------------------------


def measure_each(state, rng):
    """Z-measure particles 1..q in turn; the bits and their joint probability."""
    outcomes = []
    joint = 1.0
    for particle in range(1, state.qubit_count + 1):
        bit, state, prob = measure_z(state, particle, rng)
        outcomes.append(bit)
        joint *= prob
    return tuple(outcomes), joint


def test_measure_zero_state_is_deterministic(rng):
    outcome, collapsed, prob = measure_z(basis_state(1, [0]), 1, rng)
    assert outcome == 0
    assert prob == pytest.approx(1.0)
    assert fidelity(collapsed, basis_state(1, [0])) == pytest.approx(1.0)


def test_measure_after_hadamard_collapses_remainder():
    # Hadamard on particle 1 of (|0010> + |1101>)/sqrt(2), then measure it
    ghz = state_from_terms(4, {"0010": S2, "1101": S2})
    state = apply_gate(ghz, 1, HADAMARD)

    outcome, collapsed, prob = measure_z(state, 1, FixedRng(0.9))
    assert (outcome, prob) == (0, pytest.approx(0.5))
    expected = state_from_terms(4, {"0010": S2, "0101": S2})
    assert fidelity(collapsed, expected) > 1 - ATOL

    outcome, collapsed, prob = measure_z(state, 1, FixedRng(0.1))
    assert (outcome, prob) == (1, pytest.approx(0.5))
    expected = state_from_terms(4, {"1010": S2, "1101": -S2})
    assert fidelity(collapsed, expected) > 1 - ATOL


def test_measure_ghz_first_particle():
    ghz = state_from_terms(4, {"0000": S2, "1111": S2})
    outcome, collapsed, prob = measure_z(ghz, 1, FixedRng(0.99))
    assert outcome == 0
    assert prob == pytest.approx(0.5)
    assert fidelity(collapsed, basis_state(4, [0, 0, 0, 0])) == pytest.approx(1.0)


def test_measure_all_basis_state(rng):
    outcomes, prob = measure_each(basis_state(4, [0, 0, 1, 1]), rng)
    assert outcomes == (0, 0, 1, 1)
    assert prob == pytest.approx(1.0)


def test_measure_all_on_uniform_support(rng):
    eq4 = state_from_terms(
        4,
        {
            "0000": 1, "0011": 1, "0101": -1, "0110": -1,
            "1001": -1, "1010": -1, "1100": 1, "1111": 1,
        },
        scale=1 / (2 * sqrt(2)),
    )
    support = {0b0000, 0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100, 0b1111}
    for _ in range(50):
        outcomes, prob = measure_each(eq4, rng)
        index = int("".join(map(str, outcomes)), 2)
        assert index in support
        assert prob == pytest.approx(1 / 8)


def test_measure_all_bell_correlation(rng):
    bell = state_from_terms(2, {"00": S2, "11": S2})
    for _ in range(100):
        outcomes, prob = measure_each(bell, rng)
        assert outcomes in {(0, 0), (1, 1)}
        assert prob == pytest.approx(0.5)


def test_measurement_statistics_within_3_sigma(rng):
    plus = apply_gate(basis_state(1, [0]), 1, HADAMARD)
    trials = 10_000
    zeros = sum(measure_z(plus, 1, rng)[0] == 0 for _ in range(trials))
    sigma = sqrt(trials * 0.25)
    assert abs(zeros - trials / 2) <= 3 * sigma


def test_collapse_idempotence(rng):
    for _ in range(25):
        q = int(rng.integers(1, 6))
        state = random_state(rng, q)
        target = int(rng.integers(1, q + 1))
        first, collapsed, _ = measure_z(state, target, rng)
        second, _, prob = measure_z(collapsed, target, rng)
        assert second == first
        assert prob == pytest.approx(1.0)


def test_index_convention_roundtrip(rng):
    for q in range(1, 5):
        for bits in itertools.product((0, 1), repeat=q):
            outcomes, prob = measure_each(basis_state(q, bits), rng)
            assert outcomes == bits
            assert prob == pytest.approx(1.0)
    for _ in range(40):
        q = int(rng.integers(5, 9))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=q))
        outcomes, prob = measure_each(basis_state(q, bits), rng)
        assert outcomes == bits
        assert prob == pytest.approx(1.0)


# --- composition ------------------------------------------------------------


def test_attach_register_product():
    joined = attach_register(basis_state(1, [0]), basis_state(1, [1]))
    assert fidelity(joined, basis_state(2, [0, 1])) == pytest.approx(1.0)


def test_attach_register_on_ghz():
    ghz = state_from_terms(4, {"0000": S2, "1111": S2})
    probe = basis_state(1, [0])
    joined = attach_register(ghz, probe)
    assert joined.qubit_count == 5
    assert fidelity(joined, attach_register(ghz, probe)) == pytest.approx(1.0)
    # register sits on the least significant bit
    assert abs(joined.amplitudes[0b00000] - S2) < ATOL
    assert abs(joined.amplitudes[0b11110] - S2) < ATOL


@pytest.mark.parametrize(
    "a_terms,b_terms,expected",
    [
        ({"0": 1}, {"0": 1}, 1.0),
        ({"0": 1}, {"1": 1}, 0.0),
        ({"0": 1}, {"0": S2, "1": S2}, 0.5),
    ],
)
def test_fidelity_values(a_terms, b_terms, expected):
    a = state_from_terms(1, a_terms)
    b = state_from_terms(1, b_terms)
    assert fidelity(a, b) == pytest.approx(expected, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(basis_state(1, [0]), basis_state(2, [0, 0]))


def test_child_seeds_of_one_master_are_distinct():
    # 32-bit seeds gave three repeats among these trials
    seeds = {child_seed(7, trial) for trial in range(200_000)}
    assert len(seeds) == 200_000


MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# one to three 64-bit limbs each, at the limb edges
EDGE_SEEDS = [0, 1, 2**32, 2**64 - 1, 2**64, 2**64 + 7, 2**96, 2**128 - 1, 2**128 + 1, 2**160 + 3]


def splitmix64_finalizer(z):
    """SplitMix64's output function, in plain Python ints."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def splitmix64(state, count):
    """SplitMix64's first ``count`` outputs from ``state``: the state steps by GAMMA, then mixes."""
    return [splitmix64_finalizer(state + step * GAMMA & MASK64) for step in range(1, count + 1)]


def folded_words(seed, *stream):
    """A generator's four state words, in plain Python ints: SplitMix64 from a fold of its words."""
    limbs = [seed >> 64 * at & MASK64 for at in range(max(1, -(-seed.bit_length() // 64)))]
    state = 0
    for word in [len(limbs), *limbs, *stream]:
        state = splitmix64_finalizer((state ^ word) + GAMMA & MASK64)
    return splitmix64(state, 4)


def pcg64_state(words):
    """numpy's PCG64 state seeded with four words: words 0 and 1 the state, 2 and 3 the stream."""
    mask, multiplier = (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
    increment = (words[2] << 64 | words[3]) << 1 & mask | 1
    state = (increment + (words[0] << 64 | words[1])) & mask
    return {"state": state * multiplier + increment & mask, "inc": increment}


def test_the_mixer_is_splitmix64():
    assert splitmix64(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    states = [0, 1, GAMMA, MASK64, *np.random.default_rng(5).integers(0, 2**64, 500, np.uint64)]
    states = [int(state) for state in states]
    mixed = streams._mix(np.array(states, dtype=np.uint64))
    assert mixed.tolist() == [splitmix64_finalizer(state) for state in states]


@pytest.mark.parametrize("stream", [(), (0,), (2,), (3, 5), (2**64 - 1, 0, 7)], ids=str)
def test_generators_are_seeded_by_a_plain_int_fold(stream):
    for seed in EDGE_SEEDS:
        words = folded_words(seed, *stream)
        assert streams._state_words([seed], *stream).tolist() == [words]
        assert child_seed(seed, *stream) == words[1] << 64 | words[0]
        state = derived_rng(seed, *stream).bit_generator.state
        assert state["bit_generator"] == "PCG64" and state["state"] == pcg64_state(words)
    # the limb count comes first, so a seed's high limb is not read as a stream value
    assert folded_words(2**64 + 5, 3) != folded_words(5, 1, 3)
    assert child_seed(2**64 + 5, 3) != child_seed(5, 1, 3)
    trials = [folded_words(9, trial) for trial in range(300)]
    assert child_seeds(9, 300) == [high << 64 | low for low, high, *_ in trials]


@pytest.mark.parametrize("stream", [(0,), (2,), (3, 5)], ids=str)
@pytest.mark.parametrize("count", [0, 1, 15, 16, 163, 1000])
def test_derived_rngs_are_the_seed_sequence_generators(stream, count):
    # one seed at a time or a thousand, the generators are the same
    seeds = (EDGE_SEEDS * count)[:count]
    alone = [derived_rng(seed, *stream) for seed in seeds]
    together = derived_rngs(seeds, *stream)
    assert [rng.bit_generator.state for rng in together] == [
        rng.bit_generator.state for rng in alone
    ]
    for mine, theirs in zip(together, alone):
        assert np.array_equal(mine.random(3), theirs.random(3))
        assert np.array_equal(mine.integers(0, 2, size=5), theirs.integers(0, 2, size=5))


@pytest.mark.parametrize("master", [0, 7, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("count", [1, 15, 16, 3_000])
def test_child_seeds_are_the_seed_sequence_seeds(master, count):
    assert child_seeds(master, count) == [child_seed(master, trial) for trial in range(count)]


def test_a_copied_array_hash_generator_draws_what_the_original_draws():
    rng = derived_rngs(list(range(20)), 1)[-1]
    replay = np.random.Generator(copy.deepcopy(rng.bit_generator))
    assert np.array_equal(replay.random(6), rng.random(6))
    assert replay.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("bad, error", [(-1, ValueError), (1.5, TypeError)])
@pytest.mark.parametrize("count", [1, 20])
def test_bad_seeds_are_refused_on_both_sides_of_the_threshold(count, bad, error):
    with pytest.raises(error):
        derived_rngs([*range(count - 1), bad], 0)
    with pytest.raises(error):
        child_seeds(bad, count)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_a_stream_value_outside_64_bits_is_refused_by_name(bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        derived_rng(1, bad)
    with pytest.raises(ValueError, match=f"got {bad}$"):
        child_seed(1, bad)


def test_a_uint64_array_of_stream_values_reads_each_seed_its_own():
    values = np.array([0, 7, 2**63, 2**64 - 1], dtype=np.uint64)
    words = streams._state_words([3] * len(values), values)
    assert words.tolist() == [folded_words(3, value) for value in values.tolist()]


@pytest.mark.parametrize("width", [1, 2, 5])
def test_the_first_absorb_is_a_lookup_of_the_limb_count(width):
    table = streams._counted(width)
    assert len(table) == width + 1 and not table.flags.writeable
    for count in range(width + 1):
        assert table[count] == streams._absorb(0, np.array([count], dtype=np.uint64))[0]
