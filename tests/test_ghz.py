"""Closed-form GHZ predictions checked against frozen published values and
against gate-by-gate evolution as an independent oracle."""

import itertools
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqss.ghz import (
    GhzSpec,
    HadamardPattern,
    parity_oracle,
    partial_hadamard_terms,
    predict_full_hadamard,
    predict_partial_hadamard,
    prepare,
    residual_phase,
)
from mqss.statevec import (
    ATOL,
    HADAMARD,
    IDENTITY,
    PureState,
    apply_gate,
    fidelity,
    measure_z,
)
from mqss import streams
from mqss.streams import pattern_blocks, refuse_32_bit_words

from conftest import FixedRng, drawn_patterns, integers_draw_bits, raw_word_bits, state_from_terms

S2 = 1.0 / sqrt(2.0)
QUARTER = 1.0 / (2.0 * sqrt(2.0))

# Frozen expected states for the worked 4-particle examples. Signs and
# supports transcribed once and treated as golden data.
FULL_HADAMARD_0011_EVEN = {
    "0000": 1, "0011": 1, "0101": -1, "0110": -1,
    "1001": -1, "1010": -1, "1100": 1, "1111": 1,
}
FULL_HADAMARD_0011_ODD = {
    "0001": -1, "0010": -1, "0100": 1, "0111": 1,
    "1000": 1, "1011": 1, "1101": -1, "1110": -1,
}
# H on particles 1-3 of (|0010> + |1101>)/sqrt(2); particle 4 ends in |+->
PARTIAL_0010_H123 = {
    "0000": 1, "0001": 1,   # |000>|+>
    "0010": -1, "0011": 1,  # -|001>|->
    "0100": 1, "0101": -1,  # +|010>|->
    "0110": -1, "0111": -1, # -|011>|+>
    "1000": 1, "1001": -1,  # +|100>|->
    "1010": -1, "1011": -1, # -|101>|+>
    "1100": 1, "1101": 1,   # +|110>|+>
    "1110": -1, "1111": 1,  # -|111>|->
}
# H on particles 1-3 of (|0001> + |1110>)/sqrt(2)
PARTIAL_0001_H123 = {
    "0000": 1, "0001": 1,
    "0010": -1, "0011": 1,
    "0100": -1, "0101": 1,
    "0110": 1, "0111": 1,
    "1000": -1, "1001": 1,
    "1010": 1, "1011": 1,
    "1100": 1, "1101": 1,
    "1110": -1, "1111": 1,
}
# H on particles 1,2 of (|0010> + |1101>)/sqrt(2); remainder on 3,4
PARTIAL_0010_H12 = {
    "0001": 1, "0010": 1,    # |00>(|01>+|10>)
    "0101": -1, "0110": 1,   # -|01>(|01>-|10>)
    "1001": -1, "1010": 1,   # -|10>(|01>-|10>)
    "1101": 1, "1110": 1,    # +|11>(|01>+|10>)
}
# H on particles 1,2 of (|0000> + |1111>)/sqrt(2)
PARTIAL_0000_H12 = {
    "0000": 1, "0011": 1,
    "0100": 1, "0111": -1,
    "1000": 1, "1011": -1,
    "1100": 1, "1111": 1,
}
# H on particle 1 of (|0010> + |1101>)/sqrt(2)
PARTIAL_0010_H1 = {
    "0010": 1, "0101": 1,
    "1010": 1, "1101": -1,
}
# H on particle 1 of (|0000> + |1111>)/sqrt(2)
PARTIAL_0000_H1 = {
    "0000": 1, "0111": 1,
    "1000": 1, "1111": -1,
}


def evolve(spec, positions):
    state = prepare(spec)
    for p in positions:
        state = apply_gate(state, p, HADAMARD)
    return state


def all_specs(qubit_count):
    for bits in itertools.product((0, 1), repeat=qubit_count):
        for phase in (0, 1):
            yield GhzSpec(bits, phase)


# --- preparation ------------------------------------------------------------


def test_prepare_running_examples():
    even = prepare(GhzSpec((0, 0, 1, 1), 0))
    assert abs(even.amplitudes[0b0011] - S2) < ATOL
    assert abs(even.amplitudes[0b1100] - S2) < ATOL
    odd = prepare(GhzSpec((0, 0, 1, 1), 1))
    assert abs(odd.amplitudes[0b0011] - S2) < ATOL
    assert abs(odd.amplitudes[0b1100] + S2) < ATOL


def test_prepare_complement_is_same_state_when_phase_zero():
    spec = GhzSpec((0, 1, 1, 0), 0)
    flipped = GhzSpec(spec.complement(), 0)
    assert fidelity(prepare(spec), prepare(flipped)) > 1 - ATOL


def test_spec_validation():
    with pytest.raises(ValueError):
        GhzSpec((0,), 0)
    with pytest.raises(ValueError):
        GhzSpec((0, 2), 0)
    with pytest.raises(ValueError):
        GhzSpec((0, 1), 2)


def test_sample_patterns_draws_all_patterns_then_all_phases():
    rng, oracle = np.random.default_rng(3), np.random.PCG64(3)
    bits, phases = drawn_patterns(rng, 40, 5)
    assert bits.dtype == bool and phases.dtype == np.uint8
    # 200 pattern bits fill 4 words, and the 40 phases start on a fifth
    words = oracle.random_raw(5).tolist()
    assert bits.reshape(-1).tolist() == raw_word_bits(words, 0, 200)
    assert phases.tolist() == raw_word_bits(words, 256, 40)


@pytest.mark.parametrize(
    "count, q", [(1, 3), (3, 3), (5, 5), (7, 9), (64, 3), (0, 4), (1, 2), (4, 24)]
)
def test_sample_patterns_one_draw_matches_bits_then_phases(count, q):
    # the pattern bits take ceil(count q / 64) words, and the phases the next ceil(count / 64)
    pattern_words, phase_words = -(-count * q // 64), -(-count // 64)
    for seed in range(100):
        rng, oracle = np.random.default_rng(seed), np.random.PCG64(seed)
        bits, phases = drawn_patterns(rng, count, q)
        words = oracle.random_raw(pattern_words + phase_words).tolist()
        assert bits.shape == (count, q)
        assert bits.reshape(-1).tolist() == raw_word_bits(words, 0, count * q)
        assert phases.tolist() == raw_word_bits(words, 64 * pattern_words, count)
        assert rng.bit_generator.random_raw() == oracle.random_raw()


def hold_a_half(*rngs):
    """Leave each generator holding the 32-bit half that numpy keeps after a one-bit draw."""
    assert len({rng.integers(0, 2) for rng in rngs}) == 1
    assert all(rng.bit_generator.state["has_uint32"] for rng in rngs)


@pytest.mark.parametrize("held", [False, True], ids=["fresh", "held-half"])
@pytest.mark.parametrize("q", range(2, 25))
def test_sample_patterns_reads_raw_words_as_the_integers_draws(q, held):
    # counts 1 to 4 give one or two pattern words, the last one whole or in part
    for count, seed in itertools.product(range(1, 5), range(10)):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        if held:
            hold_a_half(rng, oracle)
        bits, phases = drawn_patterns(rng, count, q)
        expected_bits, expected_phases = integers_draw_bits(oracle, count, q)
        assert bits.dtype == bool and phases.dtype == np.uint8
        assert bits.shape == (count, q)
        assert bits.reshape(-1).tolist() == expected_bits and phases.tolist() == expected_phases
        assert rng.bit_generator.state == oracle.bit_generator.state  # a held half is kept
        assert rng.integers(0, 2, size=3).tolist() == oracle.integers(0, 2, size=3).tolist()
        assert rng.random() == oracle.random()


@pytest.mark.parametrize("held", [False, True], ids=["fresh", "held-half"])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 1001])
def test_skipping_bits_leaves_the_generator_where_drawing_them_would(monkeypatch, count, held):
    # in blocks of 1 row, each block draws its own words when it is asked for
    monkeypatch.setattr(streams, "BLOCK_ROWS", 1)
    for seed in range(20):
        rng, oracle, whole = (np.random.default_rng(seed) for _ in range(3))
        if held:
            hold_a_half(rng, oracle, whole)
        blocks = []
        for block_bits, block_phases in pattern_blocks([rng], count, 3):
            expected_bits, expected_phases = integers_draw_bits(oracle, len(block_bits), 3)
            assert rng.bit_generator.state == oracle.bit_generator.state  # a held half is kept
            assert block_bits.reshape(-1).tolist() == expected_bits
            assert block_phases.tolist() == expected_phases
            blocks.append((block_bits, block_phases))
        assert len(blocks) == max(count, 1)
        bits, phases = drawn_patterns(whole, count, 3)  # the same blocks, one after another
        assert np.array_equal(np.concatenate([block_bits for block_bits, _ in blocks]), bits)
        assert np.array_equal(np.concatenate([block_phases for _, block_phases in blocks]), phases)
        assert whole.bit_generator.state == rng.bit_generator.state
        assert rng.integers(0, 2, size=3).tolist() == oracle.integers(0, 2, size=3).tolist()


def test_sample_patterns_refuses_32_bit_raw_words():
    # MT19937's raw words are 32-bit: half of every word's 64 bits would read 0
    with pytest.raises(ValueError, match="MT19937"):
        refuse_32_bit_words(np.random.Generator(np.random.MT19937(5)))
    rng = np.random.Generator(np.random.Philox(5))
    refuse_32_bit_words(rng)
    assert drawn_patterns(rng, 3, 3)[0].shape == (3, 3)


@pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 1001])
def test_a_group_of_generators_draws_each_ones_integers(count):
    rngs, oracles = ([np.random.default_rng([count, seed]) for seed in range(12)] for _ in range(2))
    (bits, phases), = pattern_blocks(rngs, count, 3)
    assert bits.shape == (12 * count, 3) and phases.shape == (12 * count,)
    for index, (rng, oracle) in enumerate(zip(rngs, oracles)):
        rows = slice(index * count, (index + 1) * count)
        own_bits, own_phases = integers_draw_bits(oracle, count, 3)
        assert bits[rows].reshape(-1).tolist() == own_bits
        assert phases[rows].tolist() == own_phases
        assert rng.random() == oracle.random()


# --- full-Hadamard closed form ----------------------------------------------


def test_full_hadamard_reproduces_even_phase_expansion():
    state = predict_full_hadamard(GhzSpec((0, 0, 1, 1), 0))
    expected = state_from_terms(4, FULL_HADAMARD_0011_EVEN, scale=QUARTER)
    np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=ATOL)


def test_full_hadamard_reproduces_odd_phase_expansion():
    state = predict_full_hadamard(GhzSpec((0, 0, 1, 1), 1))
    expected = state_from_terms(4, FULL_HADAMARD_0011_ODD, scale=QUARTER)
    np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=ATOL)


@pytest.mark.parametrize("qubit_count", [2, 3, 4, 5])
def test_full_hadamard_matches_gate_evolution(qubit_count):
    for spec in all_specs(qubit_count):
        predicted = predict_full_hadamard(spec)
        evolved = evolve(spec, range(1, qubit_count + 1))
        assert fidelity(predicted, evolved) > 1 - ATOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), qubits=st.integers(6, 8))
def test_full_hadamard_matches_gate_evolution_sampled(seed, qubits):
    rng = np.random.default_rng(seed)
    spec = GhzSpec(tuple(rng.integers(0, 2, size=qubits)), int(rng.integers(0, 2)))
    assert fidelity(predict_full_hadamard(spec), evolve(spec, range(1, qubits + 1))) > 1 - ATOL


def test_parity_oracle_values():
    assert parity_oracle(GhzSpec((0, 0, 1, 1), 0)) == 0
    assert parity_oracle(GhzSpec((0, 0, 1, 1), 1)) == 1


@pytest.mark.parametrize("qubit_count", [2, 3, 4, 5, 6])
def test_full_hadamard_support_has_uniform_magnitude_and_parity(qubit_count):
    magnitude = 1.0 / sqrt(2.0 ** (qubit_count - 1))
    for spec in all_specs(qubit_count):
        amps = predict_full_hadamard(spec).amplitudes
        for index in range(1 << qubit_count):
            if abs(amps[index]) > ATOL:
                assert bin(index).count("1") % 2 == parity_oracle(spec)
                assert abs(abs(amps[index]) - magnitude) < ATOL


# --- partial-Hadamard closed form -------------------------------------------


@pytest.mark.parametrize(
    "bits,h_positions,expected,scale",
    [
        ((0, 0, 1, 0), {1, 2, 3}, PARTIAL_0010_H123, QUARTER * S2),
        ((0, 0, 0, 1), {1, 2, 3}, PARTIAL_0001_H123, QUARTER * S2),
        ((0, 0, 1, 0), {1, 2}, PARTIAL_0010_H12, QUARTER),
        ((0, 0, 0, 0), {1, 2}, PARTIAL_0000_H12, QUARTER),
        ((0, 0, 1, 0), {1}, PARTIAL_0010_H1, 0.5),
        ((0, 0, 0, 0), {1}, PARTIAL_0000_H1, 0.5),
    ],
)
def test_partial_hadamard_reproduces_published_expansions(
    bits, h_positions, expected, scale
):
    spec = GhzSpec(bits, 0)
    pattern = HadamardPattern.for_qubits(4, h_positions)
    state = predict_partial_hadamard(spec, pattern)
    target = state_from_terms(4, expected, scale=scale)
    np.testing.assert_allclose(state.amplitudes, target.amplitudes, atol=ATOL)


@pytest.mark.parametrize("qubit_count", [2, 3, 4])
def test_partial_hadamard_matches_gate_evolution_exhaustive(qubit_count):
    positions = list(range(1, qubit_count + 1))
    for spec in all_specs(qubit_count):
        for r in range(1, qubit_count):
            for h_positions in itertools.combinations(positions, r):
                pattern = HadamardPattern.for_qubits(qubit_count, h_positions)
                predicted = predict_partial_hadamard(spec, pattern)
                evolved = evolve(spec, h_positions)
                assert fidelity(predicted, evolved) > 1 - ATOL, (spec, h_positions)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), qubits=st.integers(5, 8))
def test_partial_hadamard_matches_gate_evolution_sampled(seed, qubits):
    rng = np.random.default_rng(seed)
    spec = GhzSpec(tuple(rng.integers(0, 2, size=qubits)), int(rng.integers(0, 2)))
    count = int(rng.integers(1, qubits))
    h_positions = tuple(rng.choice(range(1, qubits + 1), size=count, replace=False))
    pattern = HadamardPattern.for_qubits(qubits, h_positions)
    predicted = predict_partial_hadamard(spec, pattern)
    evolved = evolve(spec, h_positions)
    assert fidelity(predicted, evolved) > 1 - ATOL


def test_partial_hadamard_rejects_empty_and_full_patterns():
    spec = GhzSpec((0, 0, 1, 1), 0)
    with pytest.raises(ValueError):
        predict_partial_hadamard(spec, HadamardPattern.for_qubits(4, set()))
    with pytest.raises(ValueError):
        predict_partial_hadamard(spec, HadamardPattern.for_qubits(4, {1, 2, 3, 4}))


def test_pattern_validation():
    with pytest.raises(ValueError):
        HadamardPattern(frozenset({1, 2}), frozenset({2, 3}))
    with pytest.raises(ValueError):
        HadamardPattern(frozenset({1}), frozenset({3}))


def test_partial_terms_branching():
    # untouched substring 10 reads as 2, at or above half the range, so the
    # sign exponent switches to the complemented pattern bits
    spec = GhzSpec((0, 0, 1, 0), 0)
    terms = partial_hadamard_terms(spec, HadamardPattern.for_qubits(4, {1, 2}))
    assert [t.identity_value for t in terms] == [2, 2, 2, 2]
    assert [t.sign_exponent for t in terms] == [0, 1, 1, 0]
    assert [t.weight_parity for t in terms] == [0, 1, 1, 0]
    # untouched substring 00 stays below half the range
    spec = GhzSpec((1, 1, 0, 0), 0)
    terms = partial_hadamard_terms(spec, HadamardPattern.for_qubits(4, {1, 2}))
    assert [t.identity_value for t in terms] == [0, 0, 0, 0]
    assert [t.sign_exponent for t in terms] == [0, 1, 1, 0]


# --- remainder after measuring one Hadamard-ed particle ----------------------


def test_residual_phase_examples():
    spec = GhzSpec((0, 0, 0, 0), 0)
    assert residual_phase(spec, 1, 1) == GhzSpec((0, 0, 0), 1)
    assert residual_phase(spec, 1, 0) == GhzSpec((0, 0, 0), 0)


def test_residual_phase_validation():
    with pytest.raises(ValueError):
        residual_phase(GhzSpec((0, 1), 0), 1, 0)
    with pytest.raises(ValueError):
        residual_phase(GhzSpec((0, 1, 0), 0), 4, 0)


def embed_remainder(outcome, position, remainder):
    """Rebuild the q-qubit post-measurement state from the remainder spec."""
    q = remainder.qubit_count + 1
    inner = prepare(remainder)
    amps = np.zeros(1 << q, dtype=complex)
    for index in range(inner.dimension):
        bits = [(index >> (remainder.qubit_count - 1 - i)) & 1
                for i in range(remainder.qubit_count)]
        bits.insert(position - 1, outcome)
        full_index = int("".join(map(str, bits)), 2)
        amps[full_index] = inner.amplitudes[index]
    return PureState(q, amps)


@pytest.mark.parametrize("qubit_count", [3, 4, 5, 6])
def test_residual_phase_matches_collapse(qubit_count):
    for spec in all_specs(qubit_count):
        for position in range(1, qubit_count + 1):
            state = apply_gate(prepare(spec), position, HADAMARD)
            for draw, outcome in ((0.75, 0), (0.25, 1)):
                observed, collapsed, prob = measure_z(state, position, FixedRng(draw))
                assert observed == outcome
                assert prob == pytest.approx(0.5)
                expected = embed_remainder(
                    outcome, position, residual_phase(spec, position, outcome)
                )
                assert fidelity(collapsed, expected) > 1 - ATOL


# --- structural properties ---------------------------------------------------


def test_identity_on_every_particle_is_invariant():
    spec = GhzSpec((1, 0, 1, 1), 1)
    state = prepare(spec)
    for p in range(1, 5):
        state = apply_gate(state, p, IDENTITY)
    assert fidelity(state, prepare(spec)) > 1 - ATOL


def test_unhadamarded_subset_measures_pattern_or_complement(rng):
    for _ in range(60):
        q = int(rng.integers(3, 7))
        spec = GhzSpec(tuple(rng.integers(0, 2, size=q)), int(rng.integers(0, 2)))
        size = int(rng.integers(2, q + 1))
        subset = sorted(rng.choice(range(1, q + 1), size=size, replace=False))
        state = prepare(spec)
        results = []
        for p in subset:
            bit, state, _ = measure_z(state, p, rng)
            results.append(bit)
        reference = [spec.bits[p - 1] for p in subset]
        complement = [1 - b for b in reference]
        assert results in (reference, complement)
