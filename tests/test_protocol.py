"""Round classification, checks, sifting, and full-session behavior."""

import copy
import gc
import hashlib
import itertools
import pickle
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple, fields, replace
from math import sqrt

import numpy as np
import pytest

from mqss import branch, protocol, streams
from mqss.adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    MeasureResendConfig,
    attacked,
    collective_attack,
    collusion_attack,
    estimate_leakage,
    measure_resend_attack,
)
from mqss.ghz import GhzSpec, sample_patterns
from mqss.protocol import (
    BatchLimitError,
    IndeterminateCheckError,
    InsufficientRawKeyError,
    Mode,
    RoundAttack,
    RoundBatch,
    RoundCase,
    SessionConfig,
    SessionStats,
    Verdict,
    case_counts,
    case_table,
    classify_round,
    combine_shadows,
    effective_threshold,
    finalize_and_share,
    play_rounds,
    run_round,
    run_rounds,
    run_session,
    run_sessions,
    sift,
    verify_step5,
    verify_step6,
)
from mqss.statevec import MAX_QUBITS, PAULI_X, apply_gate
from mqss.streams import derived_rng, derived_rngs

from conftest import integers_draw_bits, raw_word_bits

C, S = Mode.CHECK, Mode.SHARE


def make_batch(rows, specs=None):
    """A hand-built batch: one (modes, results) pair per round."""
    modes, results = zip(*rows)
    q = len(modes[0])
    return RoundBatch.from_specs(
        specs or [GhzSpec((0,) * q, 0)] * len(rows),
        [[mode is S for mode in row] for row in modes],
        np.array(results, dtype=np.uint8),
    )


def mismatch(modes, results, spec):
    """The step-5 distance of one round against ``spec``."""
    return verify_step5(make_batch([(modes, results)], [spec])).mismatches


# --- classification -----------------------------------------------------------


@pytest.mark.parametrize(
    "modes,expected",
    [
        ((S, S, S, S), RoundCase.CASE1),
        ((C, C, C, C), RoundCase.CASE2),
        ((S, C, C, S), RoundCase.CASE3),
        ((C, S, S, S), RoundCase.DISCARD),
        ((S, S, C, S), RoundCase.DISCARD),
    ],
)
def test_classify_round(modes, expected):
    assert classify_round(modes) == expected


@pytest.mark.parametrize("participants", [2, 3, 4, 5])
def test_classification_partitions_every_mode_vector(participants):
    for modes in itertools.product((C, S), repeat=participants):
        case = classify_round(modes)
        checks = sum(1 for m in modes if m is C)
        assert case_table(participants)[checks] is case
        if checks == 0:
            assert case is RoundCase.CASE1
        elif checks == participants:
            assert case is RoundCase.CASE2
        elif checks == 1:
            assert case is RoundCase.DISCARD
        else:
            assert case is RoundCase.CASE3


# --- per-round checks ---------------------------------------------------------


def test_check_case2_accepts_pattern_and_complement():
    spec = GhzSpec((0, 0, 1, 1), 0)
    assert mismatch([C] * 4, [0, 0, 1, 1], spec) == 0
    assert mismatch([C] * 4, [1, 1, 0, 0], spec) == 0
    assert mismatch([C] * 4, [0, 0, 1, 0], spec) == 1


def test_check_case3_examines_only_checkers():
    spec = GhzSpec((0, 0, 0, 1), 0)
    # checkers on particles 3 and 4 (positions 2,3); sharers' bits arbitrary
    assert mismatch([S, S, C, C], [1, 0, 0, 1], spec) == 0
    assert mismatch([S, S, C, C], [1, 0, 1, 0], spec) == 0
    assert mismatch([S, S, C, C], [1, 0, 0, 0], spec) == 1


def test_rounds_without_a_check_are_not_checked():
    spec = GhzSpec((0, 0, 0, 1), 0)
    unchecked = [([S] * 4, [1, 1, 1, 1]), ([S, C, S, S], [1, 1, 1, 1])]
    with pytest.raises(IndeterminateCheckError):
        verify_step5(make_batch(unchecked, [spec] * 2))
    report = verify_step5(make_batch(unchecked + [([C] * 4, [0, 0, 0, 1])], [spec] * 3))
    assert (report.mismatches, report.checked_positions, report.checked_rounds) == (0, 4, 1)


# --- round execution ----------------------------------------------------------


def honest_config(**kwargs):
    return SessionConfig(**{"n_agents": 3, "secret_bits": 4, "seed": 7, **kwargs})


def test_all_check_round_reads_pattern_or_complement():
    config = honest_config()
    rng = derived_rng(11)
    for trial in range(40):
        spec = GhzSpec(tuple(rng.integers(0, 2, size=4)), int(rng.integers(0, 2)))
        batch = play_rounds(config, [spec], rng, forced_modes=[C] * 4)
        assert case_counts(batch)[RoundCase.CASE2.value] == len(batch) == 1
        assert verify_step5(batch).mismatches == 0


@pytest.mark.parametrize("phase", [0, 1])
def test_all_share_round_parity_equals_phase(phase):
    config = honest_config()
    rng = derived_rng(13, phase)
    for trial in range(40):
        spec = GhzSpec(tuple(rng.integers(0, 2, size=4)), phase)
        record = run_round(config, spec, rng, forced_modes=[S] * 4)
        parity = 0
        for bit in record.results:
            parity ^= bit
        assert parity == phase


def test_run_round_rejects_wrong_width_spec():
    config = honest_config()
    rng = derived_rng(1)
    with pytest.raises(ValueError):
        run_round(config, GhzSpec((0, 0), 0), rng)


@pytest.mark.parametrize("kind", ["honest", "collective"])
def test_run_round_records_the_row_play_rounds_plays(kind):
    config = honest_config(epsilon=0.05, attack=CHUNK_ATTACKS[kind])
    patterns = derived_rng(47)
    for index, forced in enumerate(itertools.product((C, S), repeat=4)):
        spec = GhzSpec(tuple(patterns.integers(0, 2, size=4)), int(patterns.integers(0, 2)))
        record = run_round(config, spec, derived_rng(48, index), list(forced))
        batch = play_rounds(config, [spec], derived_rng(48, index), list(forced))
        assert len(batch) == 1 and record.round_index == 0
        assert record.spec == spec == GhzSpec(tuple(batch.bits[0].tolist()), int(batch.phases[0]))
        assert record.modes == forced
        assert batch.share[0].tolist() == [mode is S for mode in forced]
        assert record.results == tuple(batch.results[0].tolist())
        assert record.classification is case_table(4)[forced.count(C)]
        if batch.probe is None:
            assert kind == "honest" and record.probe_outcome is None
        else:
            assert kind == "collective" and record.probe_outcome == batch.probe[0]


# --- sifting ------------------------------------------------------------------


def test_sift_folds_phase_into_dealer_key():
    spec0 = GhzSpec((0, 1, 1, 0), 0)
    spec1 = GhzSpec((0, 1, 1, 0), 1)
    batch = make_batch(
        [([S] * 4, [1, 1, 0, 0]), ([S] * 4, [0, 1, 0, 0]), ([C] * 4, [0, 1, 1, 0])],
        [spec0, spec1, spec0],
    )
    keys = sift(batch)
    assert keys == ((1, 1), (1, 1), (0, 0), (0, 0))
    # parity law: dealer bit equals XOR of agent bits in every column
    for j in range(2):
        assert keys[0][j] == keys[1][j] ^ keys[2][j] ^ keys[3][j]
    # sifting reads the batch and leaves it as it was
    assert batch.results[1].tolist() == [0, 1, 0, 0]


def test_sift_no_key_rounds():
    assert sift(make_batch([([C] * 4, [0, 0, 0, 0])])) == ()


# --- verification -------------------------------------------------------------


def test_effective_threshold_zero_noise_rejects_any_error():
    assert effective_threshold(0.0, 100) == 0.0


@pytest.mark.parametrize("base", [0, 0.05, 0.2, 1])
def test_an_array_of_counts_gives_each_counts_threshold(base):
    counts = np.arange(10_001)
    scalar = [effective_threshold(base, count) for count in counts.tolist()]
    assert all(type(bound) is float for bound in scalar)
    # the formula in plain Python floats, one count at a time
    assert scalar == [base] + [base + 3.0 * sqrt(base * (1.0 - base) / c) for c in range(1, 10_001)]
    bounds = effective_threshold(base, counts)
    assert bounds.shape == counts.shape and bounds.tolist() == scalar


def test_verify_step5_honest_perfect():
    spec = GhzSpec((1, 0, 1, 0), 0)
    batch = make_batch(
        [([C] * 4, [1, 0, 1, 0]), ([C] * 4, [0, 1, 0, 1]), ([S, C, C, S], [0, 0, 1, 1])],
        [spec] * 3,
    )
    report = verify_step5(batch)
    assert report.error_rate == 0.0
    assert report.passed
    assert report.checked_rounds == 3
    assert report.checked_positions == 4 + 4 + 2


def test_verify_step5_counts_mismatched_positions():
    report = verify_step5(make_batch([([C] * 4, [0, 0, 0, 1])]))
    assert report.mismatches == 1
    assert report.error_rate == pytest.approx(0.25)
    assert report.round_failures == 1
    assert not report.passed


def test_verify_step5_without_check_rounds_is_indeterminate():
    with pytest.raises(IndeterminateCheckError):
        verify_step5(make_batch([([S] * 4, [0, 0, 0, 0])]))


def per_round_oracle(specs, share, results):
    """Case tally, step-5 figures and raw keys, one round at a time."""
    q = len(specs[0].bits)
    cases = {case.value: 0 for case in RoundCase}
    step5 = {"mismatches": 0, "checked_positions": 0, "round_failures": 0,
             "checked_rounds": 0}
    keys = [[] for _ in range(q)]
    for spec, shares, bits in zip(specs, share.tolist(), results.tolist()):
        checkers = [i for i in range(q) if not shares[i]]
        if not checkers:
            cases["case1"] += 1
            keys[0].append(bits[0] ^ spec.phase)
            for i in range(1, q):
                keys[i].append(bits[i])
            continue
        if len(checkers) == 1:
            cases["discard"] += 1
            continue
        cases["case2" if len(checkers) == q else "case3"] += 1
        to_pattern = sum(bits[i] != spec.bits[i] for i in checkers)
        to_complement = sum(bits[i] == spec.bits[i] for i in checkers)
        step5["mismatches"] += min(to_pattern, to_complement)
        step5["checked_positions"] += len(checkers)
        step5["round_failures"] += min(to_pattern, to_complement) > 0
        step5["checked_rounds"] += 1
    return cases, step5, tuple(map(tuple, keys)) if keys[0] else ()


@pytest.mark.parametrize("seed", range(12))
def test_batch_checks_match_a_per_round_oracle(seed):
    rng = np.random.default_rng(seed)
    q = 3 + seed % 4
    rounds = 600
    specs = [
        GhzSpec(tuple(int(b) for b in rng.integers(0, 2, size=q)), int(rng.integers(0, 2)))
        for _ in range(rounds)
    ]
    share = rng.random((rounds, q)) < 0.5
    # each round reads the pattern or its complement, then a few bits flip
    pattern = np.array([spec.bits for spec in specs], dtype=np.uint8)
    complement = rng.random((rounds, 1)) < 0.5
    flips = rng.random((rounds, q)) < 0.1
    results = (pattern ^ complement ^ flips).astype(np.uint8)
    batch = RoundBatch.from_specs(specs, share, results)
    assert np.array_equal(batch.bits, pattern)
    assert batch.phases.tolist() == [spec.phase for spec in specs]
    cases, step5, keys = per_round_oracle(specs, share, results)
    assert min(cases.values()) > 0
    # some checked rounds pass by reading the complement
    checkers = ~share
    assert (complement[:, 0] & (checkers.sum(axis=1) >= 2) & ~(flips & checkers).any(axis=1)).any()

    report = verify_step5(batch, 0.05)
    figures = {name: getattr(report, name) for name in step5}
    assert figures == step5
    assert 0 < report.round_failures < report.checked_rounds
    assert report.error_rate == step5["mismatches"] / step5["checked_positions"]
    assert report.threshold == effective_threshold(0.05, step5["checked_positions"])
    assert sift(batch) == keys
    assert case_counts(batch) == cases
    for row in batch.share.tolist():
        cases[classify_round([S if chose else C for chose in row]).value] -= 1
    assert set(cases.values()) == {0}


def test_batches_are_equal_when_their_rows_are():
    config = SessionConfig(n_agents=2, seed=4, attack=collective_attack(
        CollectiveAttackConfig(probe_overlap=0.5)
    ))
    batch = run_rounds(config, 50)
    copy = RoundBatch(*(np.copy(getattr(batch, name))
                        for name in ("bits", "phases", "share", "results", "probe")))
    assert batch.probe is not None
    assert copy == batch and not copy != batch
    flipped = np.copy(batch.results)
    flipped[17, 1] ^= 1
    assert replace(batch, results=flipped) != batch
    assert replace(batch, probe=None) != batch
    assert batch != replace(batch, probe=None)
    assert replace(batch, probe=None) == replace(copy, probe=None)
    assert batch.select(slice(0, 49)) != batch
    assert batch != batch.results.tolist()


class PresetDoublesRng:
    """A generator whose ``random`` calls each return the same preset doubles."""

    def __init__(self, doubles):
        self.doubles = doubles

    def random(self, size):
        assert size == len(self.doubles)
        return np.asarray(self.doubles, dtype=float)


# Floyd's selection of 2 of range(4) takes floor(0.5 * 3) = 1, then floor(0.9 * 4) = 3
CHECK_1_AND_3 = PresetDoublesRng([0.5, 0.9, 0.25, 0.75])


def test_verify_step6_honest_keys_pass():
    raw = ((0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0), (1, 1, 1, 1))
    for j in range(4):
        assert raw[0][j] == raw[1][j] ^ raw[2][j] ^ raw[3][j]
    report = verify_step6(raw, 2, CHECK_1_AND_3)
    assert report.check_positions == (1, 3)
    assert report.error_rate == 0.0
    assert report.passed
    assert report.remaining_keys == ((0, 1), (0, 1), (1, 1), (1, 1))


def test_verify_step6_flipped_bit_fails_at_checked_position():
    raw = [[0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 1, 1]]
    raw[2][3] ^= 1  # break parity at position 3
    report = verify_step6(tuple(map(tuple, raw)), 2, CHECK_1_AND_3)
    assert report.failures == 1
    assert report.error_rate == pytest.approx(0.5)
    assert not report.passed


def floyd_oracle(doubles, n: int, m: int) -> list[int]:
    """Floyd's selection of m of range(n) from m doubles, one pick at a time in plain Python."""
    picks = []
    for u, j in zip(doubles, range(n - m, n)):
        t = int(u * (j + 1))
        picks.append(j if t in picks else t)
    return picks


def step6_oracle(raw_keys, secret_bits, rng, base_threshold):
    """Step 6 one position and one bit at a time."""
    doubles = rng.random(2 * secret_bits).tolist()
    positions = sorted(floyd_oracle(doubles, len(raw_keys[0]), secret_bits))
    failures = 0
    for p in positions:
        agents = 0
        for key in raw_keys[1:]:
            agents ^= key[p]
        failures += raw_keys[0][p] != agents
    threshold = effective_threshold(base_threshold, secret_bits)
    remaining = tuple(
        tuple(bit for i, bit in enumerate(key) if i not in positions) for key in raw_keys
    )
    return tuple(positions), failures / secret_bits, failures, threshold, remaining


@pytest.mark.parametrize("seed", range(6))
def test_verify_step6_matches_a_per_bit_oracle(seed):
    rng = np.random.default_rng(seed)
    participants, length, secret_bits = 2 + seed % 4, 12 + seed, 2 + seed % 3
    keys = rng.integers(0, 2, size=(participants, length))
    keys[0] = np.bitwise_xor.reduce(keys[1:], axis=0)
    keys[rng.integers(participants), rng.integers(length, size=3)] ^= 1
    raw = tuple(map(tuple, keys.tolist()))
    base = 0.05 * (seed % 2)  # seeds 0 and 4 fail at a zero base rate
    report = verify_step6(raw, secret_bits, derived_rng(seed, 1), base)
    assert (
        report.check_positions,
        report.error_rate,
        report.failures,
        report.threshold,
        report.remaining_keys,
    ) == step6_oracle(raw, secret_bits, derived_rng(seed, 1), base)
    assert report.passed == (report.error_rate <= report.threshold)


def test_verify_step6_needs_twice_the_secret_length():
    raw = ((0, 1), (0, 1), (0, 0), (0, 0))
    with pytest.raises(InsufficientRawKeyError):
        verify_step6(raw, 2, PresetDoublesRng([0.0] * 4))


def test_verify_step6_refuses_a_secret_of_no_bits():
    raw = ((0, 1), (0, 1), (0, 0), (0, 0))
    with pytest.raises(ValueError, match="secret must have at least 1 bit"):
        verify_step6(raw, 0, derived_rng(1))


def test_verify_step6_refuses_a_dealer_without_agents():
    # it used to check the dealer's bits alone against an empty parity
    with pytest.raises(ValueError, match="dealer and at least one agent, got 1"):
        verify_step6(((0, 1),), 1, derived_rng(1))


def test_verify_step6_refuses_keys_that_are_not_bits():
    # a 2 used to count as parity 0
    raw = ((0, 1, 1, 0), (0, 0, 2, 1), (0, 1, 1, 1))
    with pytest.raises(ValueError, match="raw key bits must be 0 or 1, got 2"):
        verify_step6(raw, 2, derived_rng(1))


@pytest.mark.parametrize("base", [1.5, -0.1, float("nan")])
def test_a_base_rate_outside_zero_to_one_is_refused(base):
    # it used to end in "math domain error" from the square root
    message = re.escape(f"base rate must be in [0, 1], got {base}")
    raw = ((0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1))
    with pytest.raises(ValueError, match=message):
        verify_step6(raw, 1, derived_rng(1), base)
    with pytest.raises(ValueError, match=message):
        verify_step5(make_batch([((C, C, C), (0, 0, 0))]), base)
    with pytest.raises(ValueError, match=message):
        effective_threshold(base, 0)


# --- finalization ---------------------------------------------------------------


def test_finalize_reconstructs_secret():
    keys = ((0, 1, 1), (1, 1, 0), (1, 0, 1))  # dealer, agent1, agent2
    secret = (1, 0, 1)
    result = finalize_and_share(keys, 3, secret)
    assert result.ciphertext == (1, 1, 0)
    assert result.reconstructed == secret


def test_finalize_zero_secret_exposes_dealer_shadow():
    keys = ((0, 1, 1, 0), (1, 1, 0, 0), (1, 0, 1, 0))
    result = finalize_and_share(keys, 4, (0, 0, 0, 0))
    assert result.ciphertext == result.shadow_keys[0]


def test_finalize_insufficient_bits():
    with pytest.raises(InsufficientRawKeyError):
        finalize_and_share(((0,), (1,), (0,)), 2, (0, 1))


@pytest.mark.parametrize("secret", [(2, 0), (1,), (0, 1, 1)], ids=["not-a-bit", "short", "long"])
def test_finalize_refuses_a_malformed_secret(secret):
    keys = ((0, 1), (1, 1), (1, 0))
    with pytest.raises(ValueError, match="secret must be 2 bits, each 0 or 1"):
        finalize_and_share(keys, 2, secret)


@pytest.mark.parametrize("keys", [(), ((0, 1),)], ids=["no-parties", "dealer-only"])
def test_finalize_refuses_fewer_than_two_parties(keys):
    # no keys used to raise numpy's IndexError; the dealer's alone "reconstructed" the secret
    with pytest.raises(ValueError, match=f"dealer and at least one agent, got {len(keys)}"):
        finalize_and_share(keys, 1, (1,))


def test_finalize_refuses_keys_that_are_not_bits():
    # it used to return shadow (2,) and ciphertext (3,)
    with pytest.raises(ValueError, match="raw key bits must be 0 or 1, got 2"):
        finalize_and_share(((2, 1), (0, 1), (2, 0)), 1, (1,))


@pytest.mark.parametrize(
    "ciphertext, shadows, bad",
    [((1, 0), [(3, 0)], 3), ((1, 0), [(0, 1), (1, -1)], -1), ((2, 0), [], 2)],
    ids=["shadow", "second-shadow", "ciphertext"],
)
def test_combine_shadows_refuses_values_that_are_not_bits(ciphertext, shadows, bad):
    # (1, 0) with (3, 0) used to give (2, 0)
    with pytest.raises(ValueError, match=f"ciphertext and shadow bits must be 0 or 1, got {bad}"):
        combine_shadows(ciphertext, shadows)


def test_combine_shadows_partial_subset_differs():
    keys = ((0, 1, 1), (1, 1, 0), (1, 0, 1))
    secret = (1, 0, 1)
    result = finalize_and_share(keys, 3, secret)
    assert combine_shadows(result.ciphertext, result.shadow_keys[1:]) == secret
    partial = combine_shadows(result.ciphertext, result.shadow_keys[1:2])
    assert partial != secret or result.shadow_keys[2] == (0, 0, 0)


@pytest.mark.parametrize("shadow, length", [((1, 0), 2), ((1, 0, 1, 1), 4)], ids=["short", "long"])
def test_combine_shadows_refuses_a_shadow_of_another_length(shadow, length):
    with pytest.raises(ValueError, match=f"shadow has {length} bits, ciphertext has 3"):
        combine_shadows((1, 0, 1), [(0, 1, 1), shadow])


# --- sessions -------------------------------------------------------------------


def test_honest_session_completes_and_reconstructs():
    config = SessionConfig(n_agents=3, secret_bits=16, epsilon=0.0, seed=42)
    secret = tuple(int(b) for b in np.random.default_rng(5).integers(0, 2, 16))
    outcome = run_session(config, secret=secret)
    assert outcome.verdict is Verdict.COMPLETED
    assert outcome.reconstructed == secret
    assert outcome.stats.step5_error_rate == 0.0
    assert outcome.stats.step6_error_rate == 0.0
    assert outcome.stats.attempts == 1
    assert all(len(k) == 16 for k in outcome.shadow_keys)
    assert len(outcome.shadow_keys) == 4


def test_case1_parity_invariant_in_honest_rounds():
    config = SessionConfig(n_agents=3, secret_bits=4, seed=3)
    outcome = run_session(config, collect_records=True)
    batch = outcome.rounds
    case1 = [
        (results, phase)
        for share, results, phase in zip(
            batch.share.tolist(), batch.results.tolist(), batch.phases.tolist()
        )
        if all(share)
    ]
    assert case1
    for results, phase in case1:
        parity = 0
        for bit in results:
            parity ^= bit
        assert parity == phase


def test_session_determinism():
    config = SessionConfig(n_agents=3, secret_bits=8, seed=123)
    first = run_session(config, collect_records=True)
    second = run_session(config, collect_records=True)
    assert first == second


def test_completed_session_log_holds_the_public_discussion():
    config = SessionConfig(n_agents=3, secret_bits=4, seed=3)
    outcome = run_session(config)
    assert outcome.verdict is Verdict.COMPLETED
    rounds = outcome.stats.rounds_used
    entries = outcome.log.entries
    assert len(entries) == rounds + 3
    assert entries[:rounds] == tuple(
        ("dealer", {"round": index, "ack": True}) for index in range(rounds)
    )
    assert entries[rounds] == ("tp", {"announced_specs": rounds})
    sender, message = entries[rounds + 1]
    positions = message["check_positions"]
    assert sender == "dealer" and list(message) == ["check_positions"]
    assert positions == tuple(sorted(set(positions)))
    assert len(positions) == config.secret_bits
    # the announced positions are the ones burned before the shadows are cut
    for raw, shadow in zip(outcome.raw_keys, outcome.shadow_keys):
        kept = tuple(bit for i, bit in enumerate(raw) if i not in positions)
        assert kept[: config.secret_bits] == shadow
    assert entries[rounds + 2] == ("dealer", {"ciphertext": outcome.ciphertext})


@pytest.mark.parametrize(
    "kind, verdict, tail",
    [
        ("dense", Verdict.ABORTED_STEP5, ()),
        ("measure-resend", Verdict.ABORTED_STEP6, (("dealer", {"check_positions": (0, 1)}),)),
        (
            "honest",
            Verdict.COMPLETED,
            (("dealer", {"check_positions": (0, 2)}), ("dealer", {"ciphertext": (0, 1)})),
        ),
    ],
)
def test_each_verdicts_log_is_rebuilt_from_its_outcome(kind, verdict, tail):
    attack, epsilon = TRIAL_ATTACKS[kind]
    # seed 10: the lowest seed at which each of the three ends so, after one 32-round batch
    config = SessionConfig(
        n_agents=2, secret_bits=2, epsilon=epsilon, seed=10, max_attempts=1, attack=attack
    )
    outcome = run_session(config)
    assert outcome.verdict is verdict
    acks = tuple(("dealer", {"round": index, "ack": True}) for index in range(32))
    expected = (*acks, ("tp", {"announced_specs": 32}), *tail)
    assert outcome.log.entries == expected
    assert len(outcome.log) == len(outcome.log.entries)
    assert (outcome.check_positions is None) == (verdict is Verdict.ABORTED_STEP5)
    # a reader that edits the messages it was handed changes no later read
    for _, message in outcome.log.entries:
        message["check_positions"] = (1,)
    assert outcome.log.entries == expected


class RowCountingRng:
    """A generator that records how many rounds' draws each ``random`` call takes."""

    def __init__(self, rng):
        self._rng = rng
        self.rows = []

    def random(self, size=None):
        # an R x k size is R rounds' draws; a flat one is one round's
        self.rows.append(size[0] if isinstance(size, tuple) else 1)
        return self._rng.random(size=size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


CHUNK_ATTACKS = {
    "honest": None,
    "measure-resend": measure_resend_attack(MeasureResendConfig(target=2)),
    "collusion": collusion_attack(
        CollusionConfig(frozenset({1}), MeasureResendConfig(target=2))
    ),
    "collective": collective_attack(CollectiveAttackConfig(probe_overlap=0.5)),
}


@pytest.mark.parametrize("kind", sorted(CHUNK_ATTACKS))
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("n_agents", [2, 3, 5])
def test_sessions_do_not_depend_on_the_chunk_size(monkeypatch, n_agents, epsilon, kind):
    generators = []

    def counting_rngs(seeds, *stream):
        made = [RowCountingRng(rng) for rng in derived_rngs(seeds, *stream)]
        generators.extend(made)
        return made

    monkeypatch.setattr(protocol, "derived_rngs", counting_rngs)
    for seed in (1, 2, 3):
        config = SessionConfig(
            n_agents=n_agents,
            secret_bits=2 if n_agents == 5 else 4,
            epsilon=epsilon,
            seed=seed,
            attack=CHUNK_ATTACKS[kind],
        )
        outcomes = []
        for chunk in (sys.maxsize, 1024, 7, 1):
            monkeypatch.setattr(protocol, "_CHUNK_ROWS", chunk)
            generators.clear()
            outcomes.append(run_session(config, collect_records=True))
            assert max(row for rng in generators for row in rng.rows) <= chunk
        whole = outcomes[0]
        assert len(whole.rounds) == whole.stats.rounds_used > 7
        # every field, the records and the classical log included
        assert all(outcome == whole for outcome in outcomes[1:])


def random_flips(state, particle, rng):
    """A dense interceptor that bit-flips the particle on a tenth of the rounds."""
    return apply_gate(state, particle, PAULI_X) if rng.random() < 0.1 else state


TRIAL_ATTACKS = {
    "honest": (None, 0.0),
    "noise": (None, 0.05),
    "measure-resend": (CHUNK_ATTACKS["measure-resend"], 0.0),
    "collusion": (CHUNK_ATTACKS["collusion"], 0.0),
    "collective": (CHUNK_ATTACKS["collective"], 0.0),
    "dense": (protocol.RoundAttack(interceptors={2: random_flips}), 0.0),
}


@pytest.mark.parametrize("kind", sorted(TRIAL_ATTACKS))
@pytest.mark.parametrize("n_agents", [2, 3, 5])
def test_many_sessions_match_the_same_sessions_one_at_a_time(monkeypatch, n_agents, kind):
    attack, epsilon = TRIAL_ATTACKS[kind]
    config = SessionConfig(
        n_agents=n_agents, secret_bits=2 if n_agents == 5 else 4, epsilon=epsilon, attack=attack
    )
    # passes of 5 and 20 seeds, one seed past 2^64
    seeds = [11, 3, 2**64 + 7, 3, 5] * 4
    alone = [run_session(replace(config, seed=seed), collect_records=True) for seed in seeds]
    streams = []

    def recording_rngs(seeds, *stream):
        streams.extend((seed, *stream) for seed in seeds)
        return derived_rngs(seeds, *stream)

    monkeypatch.setattr(protocol, "derived_rngs", recording_rngs)
    # 7-row chunks: sessions start and end inside chunks and straddle them
    monkeypatch.setattr(protocol, "_CHUNK_ROWS", 7)
    for count in (5, len(seeds)):
        streams.clear()
        together = run_sessions(config, seeds[:count], collect_records=True)
        # every field, the records and the classical log included
        assert together == alone[:count]
        # attempt k of a session draws from derived_rng(seed, k), k from 0
        assert sorted(streams) == sorted(
            (seed, attempt) for seed, outcome in zip(seeds[:count], alone)
            for attempt in range(outcome.stats.attempts)
        )
    assert alone[1] == alone[3] and alone[0] != alone[1]
    if kind in ("measure-resend", "collusion"):
        assert any(outcome.stats.attempts > 1 for outcome in alone)


def chunk_rounds(chunks, config):
    """Per played chunk, the rounds of its attempts its rows come from.

    ``chunks`` holds each chunk's (owner, rows) segments in order; a segment's
    round follows from where it starts among its owner's rows.
    """
    top_up, drawn, rounds = max(config.batch_size // 4, 8), {}, []
    for segments in chunks:
        rounds.append(set())
        for owner, length in segments:
            start = drawn.get(owner, 0)
            drawn[owner] = start + length
            over = start - config.batch_size
            rounds[-1].add(0 if over < 0 else 1 + over // top_up)
    return rounds


@pytest.mark.parametrize("collect_records", [False, True], ids=["keys-only", "records"])
@pytest.mark.parametrize("kind", sorted(TRIAL_ATTACKS))
@pytest.mark.parametrize("n_agents, secret_bits", [(2, 3), (3, 4), (5, 2)])
def test_attempts_drawn_as_groups_match_the_same_sessions_one_at_a_time(
    monkeypatch, n_agents, secret_bits, kind, collect_records
):
    attack, epsilon = TRIAL_ATTACKS[kind]
    config = SessionConfig(
        n_agents=n_agents, secret_bits=secret_bits, epsilon=epsilon, attack=attack
    )
    seeds = range(100, 120)
    alone = [
        run_session(replace(config, seed=seed), collect_records=collect_records)
        for seed in seeds
    ]
    passes, play_rows = [], protocol._play_rows

    def recording_play_rows(config, rounds, sink, *args, **kwargs):
        chunks = []
        passes.append(chunks)

        def recording_sink(chunk, owners, lengths):
            chunks.append(list(zip(owners, lengths)))
            sink(chunk, owners, lengths)

        play_rows(config, rounds, recording_sink, *args, **kwargs)

    monkeypatch.setattr(protocol, "_play_rows", recording_play_rows)
    # batches of 48, 128 and 256 rows and top-ups of a quarter: groups fill, split and carry over
    for chunk in (4096, 1000, 100):
        monkeypatch.setattr(protocol, "_CHUNK_ROWS", chunk)
        passes.clear()
        assert run_sessions(config, seeds, collect_records=collect_records) == alone
        owners = [{owner for owner, _ in segments} for chunks in passes for segments in chunks]
        assert any(len(chunk_owners) > 1 for chunk_owners in owners)
        # a top-up joins a chunk that an earlier round's rows left partial
        rounds = [sources for chunks in passes for sources in chunk_rounds(chunks, config)]
        assert any(len(sources) > 1 for sources in rounds)


@pytest.mark.parametrize("collect_records", [False, True], ids=["keys-only", "records"])
@pytest.mark.parametrize("kind", ["honest", "collusion"])
def test_batches_at_the_chunk_boundary_match_the_same_sessions_alone(
    monkeypatch, kind, collect_records
):
    config = SessionConfig(n_agents=2, secret_bits=2, epsilon=0.05, attack=CHUNK_ATTACKS[kind])
    seeds = range(40)
    alone = [
        run_session(replace(config, seed=seed), collect_records=collect_records)
        for seed in seeds
    ]
    # one row short of a batch, every batch is wider than a chunk and its rows go on in the next;
    # at one batch a batch fills a chunk; one row more, every next batch straddles a chunk alone
    for chunk in (config.batch_size - 1, config.batch_size, config.batch_size + 1):
        monkeypatch.setattr(protocol, "_CHUNK_ROWS", chunk)
        assert run_sessions(config, seeds, collect_records=collect_records) == alone


def test_no_seeds_run_no_sessions():
    assert run_sessions(SessionConfig(), []) == []


def test_a_pass_of_many_seeds_derives_its_generators_as_arrays(monkeypatch):
    keys = []

    def recording_rng(*key):
        keys.append(key)
        return derived_rng(*key)

    monkeypatch.setattr(streams, "derived_rng", recording_rng)
    config = attacked(SessionConfig(n_agents=2, secret_bits=2), MeasureResendConfig(2))
    run_sessions(config, list(range(64)))
    # a lone pass derives its generators by the same array rule; seed 1 retries here
    (outcome,) = run_sessions(config, [1])
    assert outcome.stats.attempts > 1
    assert keys == []


@pytest.mark.parametrize("bad, error", [(-1, ValueError), (1.5, TypeError)])
@pytest.mark.parametrize("count", [1, 20])
def test_a_bad_seed_is_refused_before_any_round_plays(monkeypatch, count, bad, error):
    played = []
    monkeypatch.setattr(protocol, "_play_rows", lambda *args, **kwargs: played.append(args))
    seeds = list(range(count))
    seeds[count // 2] = bad
    with pytest.raises(error):
        run_sessions(SessionConfig(), seeds)
    assert played == []


NOOP_INTERCEPTOR = protocol.RoundAttack(interceptors={2: lambda state, particle, rng: state})


@pytest.mark.parametrize("attack", [None, NOOP_INTERCEPTOR], ids=["branch", "dense"])
def test_an_attempt_short_of_raw_key_after_its_last_batch_raises(monkeypatch, attack):
    # 16-round batches hold 2 all-Share rounds on average, and 2 are needed
    config = SessionConfig(n_agents=2, secret_bits=1, attack=attack, max_attempts=1)
    seeds = range(1, 13)
    topped_up = [
        run_session(replace(config, seed=seed)).stats.rounds_used > config.batch_size
        for seed in seeds
    ]
    assert any(topped_up) and not all(topped_up)
    monkeypatch.setattr(protocol, "_MAX_BATCHES", 1)
    for seed, short in zip(seeds, topped_up):
        if short:
            with pytest.raises(BatchLimitError, match="1 batches of rounds gave [01] of 2 raw"):
                run_session(replace(config, seed=seed))
        else:
            assert run_session(replace(config, seed=seed)).stats.rounds_used == config.batch_size
    with pytest.raises(BatchLimitError):
        run_sessions(config, seeds)


@pytest.mark.parametrize("size", [1, 6, 7, 8, 21, 30])
def test_pattern_blocks_replay_the_batch_draws(monkeypatch, size):
    # the chunk size does not split a block: at 7-row chunks a batch is still one block
    monkeypatch.setattr(protocol, "_CHUNK_ROWS", 7)
    rng, oracle = derived_rng(4, size), derived_rng(4, size)
    blocks = list(protocol.pattern_blocks([rng], size, 3))
    bits, phases = sample_patterns(oracle, size, 3)
    assert len(blocks) == 1
    assert np.array_equal(blocks[0][0], bits) and np.array_equal(blocks[0][1], phases)
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("held", [False, True], ids=["fresh", "held-half"])
@pytest.mark.parametrize("size, q", [(8, 2), (21, 3), (30, 3), (29, 4)])
def test_wide_pattern_blocks_are_the_integers_draws(monkeypatch, size, q, held):
    # past 7-row blocks, each block's bits are the integers draws of its own rows, drawn when
    # the block is asked for, so the rows' draws between blocks come from where they leave off
    monkeypatch.setattr(streams, "BLOCK_ROWS", 7)
    for seed in range(10):
        rng, oracle = derived_rng(seed, size), derived_rng(seed, size)
        if held:
            assert rng.integers(0, 2) == oracle.integers(0, 2)
        lengths = []
        for bits, phases in protocol.pattern_blocks([rng], size, q):
            expected_bits, expected_phases = integers_draw_bits(oracle, len(bits), q)
            assert rng.bit_generator.state == oracle.bit_generator.state  # a held half is kept
            assert bits.reshape(-1).tolist() == expected_bits
            assert phases.tolist() == expected_phases
            assert rng.random(2).tolist() == oracle.random(2).tolist()  # a block's rows' draws
            lengths.append(len(bits))
        assert lengths == [min(7, size - at) for at in range(0, size, 7)]
        assert rng.integers(0, 2, size=3).tolist() == oracle.integers(0, 2, size=3).tolist()


def block_oracle(config, rows, rng):
    """``run_rounds`` by the block rule, from plain parts: per block of at most 4,096 rows, its
    pattern words and then its phase words from ``random_raw``, then its rows played on their
    ``rng.random`` draws by ``play_rounds``."""
    q, batches = config.particle_count, []
    for start in range(0, rows, 4096):
        size = min(4096, rows - start)
        pattern_words, phase_words = -(-size * q // 64), -(-size // 64)
        words = rng.bit_generator.random_raw(pattern_words + phase_words).tolist()
        bits = raw_word_bits(words, 0, size * q)
        phases = raw_word_bits(words, 64 * pattern_words, size)
        specs = [GhzSpec(tuple(bits[row * q : row * q + q]), phases[row]) for row in range(size)]
        batches.append(play_rounds(config, specs, rng))
    return RoundBatch.join(batches)


@pytest.mark.parametrize("chunk", [4096, 7])
def test_wide_round_batches_are_drawn_block_by_block(monkeypatch, chunk):
    monkeypatch.setattr(protocol, "_CHUNK_ROWS", chunk)
    config = SessionConfig(n_agents=2, epsilon=0.05, attack=CHUNK_ATTACKS["collusion"])
    for rows in (4095, 4096, 4097, 9000):
        rng, oracle = derived_rng(61, rows), derived_rng(61, rows)
        assert run_rounds(config, rows, rng) == block_oracle(config, rows, oracle)
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_a_pass_draws_the_check_positions_of_floyds_selection_then_secret_bits():
    # 5,312 attempts: m from 1 to 16, passes of 1 to 300 attempts, n from 2m past 10,000
    draws = np.random.default_rng(22)
    for m, attempts in itertools.product(range(1, 17), (1, 15, 16, 300)):
        lengths = draws.integers(2 * m, 80, size=attempts)
        lengths[::25] = draws.integers(9_000, 12_000, size=len(lengths[::25]))
        lengths[-1] = 2 * m
        seeds = draws.integers(2**63, size=attempts).tolist()
        rngs, oracles = ([np.random.default_rng(seed) for seed in seeds] for _ in range(2))
        picks, secrets = streams.check_draws(rngs, lengths, m)
        for pick, secret, oracle, n in zip(picks.tolist(), secrets.tolist(), oracles, lengths):
            doubles = oracle.random(2 * m).tolist()
            assert pick == floyd_oracle(doubles, int(n), m)
            assert secret == [int(u < 0.5) for u in doubles[m:]]
        # one random(2m) call each
        assert [rng.random() for rng in rngs] == [oracle.random() for oracle in oracles]


@pytest.mark.parametrize("n, m", [(2, 1), (4, 2), (9, 4), (40, 16)])
def test_verify_step6_and_a_pass_pick_floyds_positions_from_the_same_doubles(n, m):
    # doubles of 0 repeat t = 0, and the largest double below 1 takes t = j every time
    cases = [[0.0] * m, [1 - 2**-53] * m, *np.random.default_rng(n).random((30, m)).tolist()]
    keys = tuple((0,) * n for _ in range(3))
    for first, last in itertools.product(cases, cases[:3]):
        doubles = first + last
        expected = floyd_oracle(doubles, n, m)
        assert sorted(set(expected)) == sorted(expected) and 0 <= min(expected) <= max(expected) < n
        assert verify_step6(keys, m, PresetDoublesRng(doubles)).check_positions == tuple(
            sorted(expected)
        )
        picks, secrets = streams.check_draws([PresetDoublesRng(doubles)] * 2, [n, n], m)
        assert picks.tolist() == [expected] * 2
        assert secrets.tolist() == [[int(u < 0.5) for u in last]] * 2


# chi-squared quantiles at 1 - 10^-4 by degrees of freedom (scipy.stats.chi2.isf(1e-4, df))
CHI2_QUANTILES = {4: 23.5127, 5: 25.7448, 19: 50.7955, 34: 73.4812, 69: 121.4404}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, m", [(5, 1), (4, 2), (6, 3), (7, 3), (8, 4)])
def test_check_positions_are_uniform_over_m_subsets(n, m, seed):
    # a uniform sampler fails each case with chance 10^-4, so all 15 with chance below 0.0015
    subsets = list(itertools.combinations(range(n), m))
    attempts = 200 * len(subsets)
    rng = np.random.default_rng([n, m, seed])
    picks, _ = streams.check_draws([rng] * attempts, [n] * attempts, m)
    counts = Counter(map(tuple, np.sort(picks, axis=1).tolist()))
    assert set(counts) <= set(subsets)
    chi2 = sum((counts[subset] - 200) ** 2 / 200 for subset in subsets)
    assert chi2 < CHI2_QUANTILES[len(subsets) - 1]


@pytest.mark.parametrize("n", [8, 2**32 - 1, 2**32, 2**32 + 1, 2**53 - 1])
def test_the_largest_double_picks_inside_the_range(n):
    # u = 1 - 2^-53 puts u (j + 1) more than half a double's spacing below j + 1: t = j
    picks, secrets = streams.check_draws([PresetDoublesRng([1 - 2**-53] * 8)], [n], 4)
    assert picks.tolist() == [[n - 4, n - 3, n - 2, n - 1]]
    assert secrets.tolist() == [[0, 0, 0, 0]]


@pytest.mark.parametrize("kind", sorted(CHUNK_ATTACKS))
def test_a_pass_reads_generator_states_only_where_a_half_word_may_be_held(monkeypatch, kind):
    # no module reads a generator's state (test_package), so no generator of a pass may hold
    # a half word where its pattern bits or step-6 doubles are drawn, and none does
    config = SessionConfig(n_agents=3, secret_bits=3, epsilon=0.05, attack=CHUNK_ATTACKS[kind])
    seeds = list(range(40))
    read = run_sessions(config, seeds)
    held = []
    pattern_blocks, check_draws = protocol.pattern_blocks, protocol.check_draws

    def recording_blocks(rngs, rows, q):
        held.extend(rng.bit_generator.state["has_uint32"] for rng in rngs)
        return pattern_blocks(rngs, rows, q)

    def recording_draws(rngs, lengths, m):
        held.extend(rng.bit_generator.state["has_uint32"] for rng in rngs)
        return check_draws(rngs, lengths, m)

    monkeypatch.setattr(protocol, "pattern_blocks", recording_blocks)
    monkeypatch.setattr(protocol, "check_draws", recording_draws)
    assert run_sessions(config, seeds) == read
    assert len(held) > 2 * len(seeds) and held == [0] * len(held)


def test_an_interceptor_that_takes_a_second_draw_raises():
    def twice(state, particle, rng):
        rng.random()
        rng.random()
        return state

    config = SessionConfig(n_agents=2, secret_bits=2, attack=RoundAttack(interceptors={2: twice}))
    with pytest.raises(RuntimeError, match="holds one draw"):
        run_rounds(config, 10, derived_rng(52))
    with pytest.raises(RuntimeError, match="holds one draw"):
        run_sessions(config, range(20))
    # and a draw of any other kind is not there to take
    odd = RoundAttack(interceptors={2: lambda state, particle, rng: rng.integers(0, 2) and state})
    with pytest.raises(AttributeError):
        run_rounds(replace(config, attack=odd), 10, derived_rng(52))


def test_an_interceptor_spends_its_draw_column_whether_or_not_it_draws():
    def drawing(state, particle, rng):
        seen.append(rng.random())
        return state

    seen, played, ends = [], [], []
    for hook in (_unchanged, drawing):
        rng = derived_rng(53)
        config = SessionConfig(n_agents=2, epsilon=0.05, attack=RoundAttack(interceptors={2: hook}))
        played.append(run_rounds(config, 300, rng))
        ends.append(rng.bit_generator.state)
    assert played[0] == played[1] and ends[0] == ends[1]
    # a row: 3 mode draws, then per particle its noise and measurement draws, and particle
    # 2's interceptor draw between them, where a rate-1 tap's sits
    rng = derived_rng(53)
    sample_patterns(rng, 300, 3)
    assert seen == rng.random((300, 10))[:, 6].tolist()
    rng = derived_rng(53)
    tap = RoundAttack(z_taps={2: 1.0})
    tapped = run_rounds(SessionConfig(n_agents=2, epsilon=0.05, attack=tap), 300, rng)
    assert rng.bit_generator.state == ends[0]
    assert np.array_equal(tapped.share, played[0].share)


@pytest.mark.parametrize("count", [15, 16])
def test_seeds_are_ints_on_both_sides_of_the_threshold(count):
    config = SessionConfig(n_agents=2, secret_bits=2)
    # an integer string is not read as its integer
    with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
        run_sessions(config, ["3"] * count)
    big = [2**64 + 5, 2**64 - 1, 2**70 + 3]
    outcomes = run_sessions(config, (big * count)[:count])
    for seed, outcome in zip(big, outcomes):
        assert outcome == run_session(replace(config, seed=seed))


CHUNK_PLAYS = {
    "run_rounds": lambda rng: run_rounds(
        SessionConfig(epsilon=0.05, attack=CHUNK_ATTACKS["collusion"]), 50, rng
    ),
    "run_rounds-forced": lambda rng: run_rounds(
        SessionConfig(attack=CHUNK_ATTACKS["collective"]), 50, rng, forced_modes=[C, S, C, C]
    ),
    "run_rounds-dense": lambda rng: run_rounds(
        SessionConfig(n_agents=2, attack=TRIAL_ATTACKS["dense"][0]), 50, rng
    ),
    # 1,000 pattern rows: one block, whose rows straddle 143 7-row chunks
    "estimate_leakage": lambda rng: estimate_leakage(
        CollectiveAttackConfig(probe_overlap=0.5), SessionConfig(), 1_000, rng
    ),
}


@pytest.mark.parametrize("kind", sorted(CHUNK_PLAYS))
def test_round_batches_do_not_depend_on_the_chunk_size(monkeypatch, kind):
    played = []
    for chunk in (sys.maxsize, 7):
        monkeypatch.setattr(protocol, "_CHUNK_ROWS", chunk)
        rng = RowCountingRng(derived_rng(41))
        result = CHUNK_PLAYS[kind](rng)
        assert max(rng.rows) <= chunk
        played.append((result, rng.bit_generator.state))
    assert len(rng.rows) > 2  # the 7-row chunks took several draw calls
    assert played[1] == played[0]


@pytest.mark.parametrize(
    "config, secret",
    [
        (SessionConfig(n_agents=2, max_attempts=1, attack=CHUNK_ATTACKS["collusion"]), (1,)),
        (SessionConfig(n_agents=3), (2, 0, 1, 1)),
    ],
    ids=["too-short", "not-a-bit"],
)
def test_a_malformed_secret_is_refused_before_any_round_plays(monkeypatch, config, secret):
    config = replace(config, secret_bits=4, seed=0)
    streams = []

    def recording_rngs(seeds, *stream):
        streams.extend((seed, *stream) for seed in seeds)
        return derived_rngs(seeds, *stream)

    monkeypatch.setattr(protocol, "derived_rngs", recording_rngs)
    with pytest.raises(ValueError, match="secret must be 4 bits, each 0 or 1"):
        run_session(config, secret=secret)
    assert streams == []


KEYS_ONLY_ATTACKS = {
    "honest": None,
    "measure-resend": MeasureResendConfig(target=2),
    "collusion": CollusionConfig(frozenset({1}), MeasureResendConfig(target=2)),
    "collective": CollectiveAttackConfig(
        probe_overlap=0.3, pattern_weight=0.6, complement_weight=0.8
    ),
}


@pytest.mark.parametrize("kind", sorted(KEYS_ONLY_ATTACKS))
@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("n_agents", [2, 3, 5])
def test_sessions_without_records_match_sessions_that_play_every_row(
    monkeypatch, n_agents, epsilon, kind
):
    session = SessionConfig(
        n_agents=n_agents, secret_bits=2 if n_agents == 5 else 4, epsilon=epsilon
    )
    config = attacked(session, KEYS_ONLY_ATTACKS[kind])
    seeds = range(12)
    every_row = run_sessions(config, seeds, collect_records=True)
    assert all(len(outcome.rounds) == outcome.stats.rounds_used for outcome in every_row)
    expected = [replace(outcome, rounds=None) for outcome in every_row]
    assert run_sessions(config, seeds) == expected
    # 7-row chunks: the tallied rows of several sessions share and straddle chunks
    monkeypatch.setattr(protocol, "_CHUNK_ROWS", 7)
    assert run_sessions(config, seeds) == expected


# the modelled attacks, and an X-basis tap that step 5 sees
STEP5_ATTACKS = {**CHUNK_ATTACKS, "x-flips": TRIAL_ATTACKS["dense"][0]}


@pytest.mark.parametrize("kind", sorted(STEP5_ATTACKS))
@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.2])
def test_a_sessions_step5_figures_are_verify_step5_of_its_rounds(epsilon, kind):
    config = SessionConfig(
        n_agents=3, secret_bits=4, epsilon=epsilon, max_attempts=1, attack=STEP5_ATTACKS[kind]
    )
    verdicts = set()
    for outcome in run_sessions(config, range(20), collect_records=True):
        stats, rounds = outcome.stats, outcome.rounds
        report = verify_step5(rounds, epsilon)
        assert stats.step5_error_rate == report.error_rate
        assert stats.step5_round_failures == report.round_failures
        assert stats.step5_checked_rounds == report.checked_rounds
        assert (outcome.verdict is not Verdict.ABORTED_STEP5) == report.passed
        cases = case_counts(rounds)
        assert stats.rounds_used == len(rounds) == sum(cases.values())
        assert (
            stats.case1_rounds, stats.case2_rounds, stats.case3_rounds, stats.discarded_rounds
        ) == tuple(cases[case.value] for case in RoundCase)
        verdicts.add(outcome.verdict)
    if kind == "x-flips" and epsilon == 0.0:
        assert Verdict.ABORTED_STEP5 in verdicts


def step6_and_sharing_oracle(outcome, secret_bits, epsilon):
    """An outcome's step 6 and sharing, re-derived bit by bit from its raw keys and log.

    Returns (failures, rate, passed) and, for a passed check, the shadows,
    ciphertext and reconstruction its secret gives.
    """
    raw = outcome.raw_keys
    positions = outcome.check_positions
    assert [
        message["check_positions"] for _, message in outcome.log.entries
        if "check_positions" in message
    ] == [positions]
    assert list(positions) == sorted(set(positions)) and len(positions) == secret_bits
    assert all(type(p) is int and 0 <= p < len(raw[0]) for p in positions)
    failures = 0
    for p in positions:
        agents = 0
        for key in raw[1:]:
            agents ^= key[p]
        failures += raw[0][p] != agents
    rate = failures / secret_bits
    passed = rate <= effective_threshold(epsilon, secret_bits)
    if not passed:
        return (failures, rate, passed), None
    shadows = tuple(
        tuple([bit for i, bit in enumerate(key) if i not in positions][:secret_bits])
        for key in raw
    )
    ciphertext = tuple(s ^ d for s, d in zip(outcome.secret, shadows[0]))
    reconstructed = []
    for i, bit in enumerate(ciphertext):
        for shadow in shadows[1:]:
            bit ^= shadow[i]
        reconstructed.append(bit)
    return (failures, rate, passed), (shadows, ciphertext, tuple(reconstructed))


def assert_python_ints(rows):
    assert all(type(bit) is int for row in rows for bit in row)


SHARING_CASES = {
    "honest": (None, 3, 4),
    "measure-resend": (CHUNK_ATTACKS["measure-resend"], 3, 4),
    "collusion": (CHUNK_ATTACKS["collusion"], 2, 4),
    "x-flips": (TRIAL_ATTACKS["dense"][0], 2, 2),
}


@pytest.mark.parametrize("given_secret", [False, True], ids=["drawn-secret", "given-secret"])
@pytest.mark.parametrize("kind", sorted(SHARING_CASES))
@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.2])
def test_a_pass_step6_and_sharing_match_a_per_bit_oracle(epsilon, kind, given_secret):
    attack, n_agents, m = SHARING_CASES[kind]
    secret = (1, 0, 1, 1)[:m] if given_secret else None
    config = SessionConfig(n_agents=n_agents, secret_bits=m, epsilon=epsilon, attack=attack)
    reached, attempts = [], set()
    for max_attempts in (1, 3):
        outcomes = run_sessions(replace(config, max_attempts=max_attempts), range(40), secret)
        if max_attempts == 1:
            reached = [o.verdict is not Verdict.ABORTED_STEP5 for o in outcomes]
        for outcome in outcomes:
            attempts.add(outcome.stats.attempts)
            stats = outcome.stats
            if outcome.verdict is Verdict.ABORTED_STEP5:
                assert outcome.raw_keys is None and stats.step6_failures is None
                continue
            assert_python_ints(outcome.raw_keys)
            step6, sharing = step6_and_sharing_oracle(outcome, m, epsilon)
            assert (stats.step6_failures, stats.step6_error_rate, sharing is not None) == step6
            assert type(stats.step6_failures) is int and type(stats.step6_error_rate) is float
            if sharing is None:
                assert outcome.verdict is Verdict.ABORTED_STEP6
                assert outcome.secret is outcome.shadow_keys is outcome.ciphertext is None
                continue
            assert outcome.verdict is Verdict.COMPLETED
            assert (outcome.shadow_keys, outcome.ciphertext, outcome.reconstructed) == sharing
            assert outcome.secret == (secret or outcome.secret) and len(outcome.secret) == m
            for rows in (outcome.shadow_keys, [outcome.secret, outcome.ciphertext]):
                assert_python_ints(rows)
            assert type(outcome.reconstructed) is tuple
            assert_python_ints([outcome.reconstructed])
            assert outcome.log.entries[-1] == ("dealer", {"ciphertext": outcome.ciphertext})
    if attack is not None and epsilon == 0.0:
        assert attempts == {1, 2, 3}
    if kind == "x-flips" and epsilon == 0.0:
        # some attempts of the one pass stop at step 5 between ones that go on
        first, last = reached.index(True), len(reached) - reached[::-1].index(True)
        assert not all(reached[first:last])


def test_a_pass_calls_neither_one_attempt_entry_point(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pass ran step 6 or the sharing one attempt at a time")

    monkeypatch.setattr(protocol, "verify_step6", refuse)
    monkeypatch.setattr(protocol, "finalize_and_share", refuse)
    outcomes = run_sessions(SessionConfig(n_agents=2, secret_bits=2), range(20))
    assert all(outcome.verdict is Verdict.COMPLETED for outcome in outcomes)


# sha256 of every field of run_sessions(config, range(50)) at n = 3, m = 4, epsilon
# 0.05 and max_attempts = 3, so that retries write over earlier attempts' rows
OUTCOME_DIGESTS = {
    ("honest", False): "41d3a34bdedc507833c817fec0d601923017c12752f93a064b6e85af4df991da",
    ("honest", True): "b83a6d2d1b96f45d63206f9c932f789e4e0755f873c61c737a99e0fe30efc525",
    ("measure-resend", False): "423c8562dc32ffd3d165616e44af973aabf3209ad7f30453abcbc16a0a3c0fa8",
    ("measure-resend", True): "92ce62be4b688dfbc97ee1afb6d82b81bd4b78220565da7263dfc33fa5530c1f",
    ("collusion", False): "9a463a7ebbb71a08f58f115fc38f324510c7458278e550df390b9ab308f38644",
    ("collusion", True): "8a01fc8b7f6032dbdd28ce0851bd8a16dab6ee8972c7adefa08865826b806d82",
    ("collective", False): "eb5bc1f52ef8cc6f81f93d4239d04013a4f8fd7eef6643c370866692d04a460c",
    ("collective", True): "6724a98b2a3b6a75ecd956e8238d5cda8326e3f136d252ff0199922608a6fa62",
}


def outcomes_digest(outcomes) -> str:
    """sha256 of ``repr`` of every field of every outcome, in order.

    ``repr`` names each value's type, so an int that turns into a float or an
    ``np.int64`` changes the digest. A ``RoundBatch`` enters as its arrays'
    dtypes, shapes and bytes, since an array's ``repr`` elides its middle.
    """
    digest = hashlib.sha256()
    for outcome in outcomes:
        for value in (getattr(outcome, field.name) for field in fields(outcome)):
            if isinstance(value, RoundBatch):
                value = [
                    None if array is None else (array.dtype.str, array.shape, array.tobytes())
                    for array in (value.bits, value.phases, value.share, value.results, value.probe)
                ]
            digest.update(repr(value).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("collect_records", [False, True], ids=["keys-only", "records"])
@pytest.mark.parametrize("kind", sorted(CHUNK_ATTACKS))
def test_session_outcomes_keep_their_pinned_digests(kind, collect_records):
    config = SessionConfig(
        n_agents=3, secret_bits=4, epsilon=0.05, attack=CHUNK_ATTACKS[kind], max_attempts=3
    )
    outcomes = run_sessions(config, range(50), collect_records=collect_records)
    assert outcomes_digest(outcomes) == OUTCOME_DIGESTS[kind, collect_records]
    if kind != "honest":
        assert any(outcome.stats.attempts > 1 for outcome in outcomes)


COLUMN_CASES = {**CHUNK_ATTACKS, "x-flips": TRIAL_ATTACKS["dense"][0]}


@pytest.mark.parametrize("collect_records", [False, True], ids=["keys-only", "records"])
@pytest.mark.parametrize("kind", sorted(COLUMN_CASES))
def test_every_column_of_sessions_is_the_matching_field_of_its_outcomes(kind, collect_records):
    # retries write over a trial's row: an attempt may stop at any step after one went on
    config = SessionConfig(n_agents=2, secret_bits=3, attack=COLUMN_CASES[kind])
    sessions = run_sessions(config, range(30), collect_records=collect_records)
    outcomes = [sessions[trial] for trial in range(30)]
    assert len(sessions) == 30 and sessions == outcomes and outcomes == sessions
    assert list(sessions) == outcomes and sessions[-1] == outcomes[-1]
    assert sessions[0] is not sessions[0]  # a view, built on each read
    with pytest.raises(IndexError):
        sessions[30]
    for trial, outcome in enumerate(outcomes):
        assert sessions.ended(outcome.verdict)[trial]
        row = [None if np.isnan(value) else value for value in sessions.stats[trial].tolist()]
        assert row == list(astuple(outcome.stats))
        if outcome.raw_keys is not None:
            start = sessions.key_starts[trial]
            keys = sessions.keys[start : start + outcome.stats.case1_rounds]
            assert keys.T.tolist() == list(map(list, outcome.raw_keys))
        for name in ("check_positions", "shadow_keys", "secret", "ciphertext", "reconstructed"):
            if getattr(outcome, name) is not None:
                assert np.array_equal(getattr(sessions, name)[trial], getattr(outcome, name))
        if collect_records:
            assert RoundBatch.join(sessions.rounds[trial]) == outcome.rounds
    assert sessions.rounds is None or collect_records
    for name in (field.name for field in fields(SessionStats)):
        present = [getattr(o.stats, name) for o in outcomes if getattr(o.stats, name) is not None]
        assert sessions.stat(name).tolist() == present
    verdicts = {outcome.verdict for outcome in outcomes}
    assert Verdict.COMPLETED in verdicts and (kind == "honest" or len(verdicts) == 2)
    assert max(outcome.stats.attempts for outcome in outcomes) == (1 if kind == "honest" else 3)


def test_a_single_session_builds_one_outcome_and_a_pass_builds_none(built):
    sessions = run_sessions(SessionConfig(n_agents=2, secret_bits=2), range(20))
    assert built == {}
    assert sessions[3] == run_session(SessionConfig(n_agents=2, secret_bits=2, seed=3))
    assert built == {"SessionOutcome": 2, "SessionStats": 2}


def test_every_session_config_hashes_and_keys_a_dict():
    config = attacked(SessionConfig(), MeasureResendConfig(2))
    same = attacked(SessionConfig(), MeasureResendConfig(2))
    assert config == same and hash(config) == hash(same)
    dense = SessionConfig(attack=RoundAttack(interceptors={2: random_flips}))
    keyed = {config: "tapped", dense: "dense", SessionConfig(): "honest"}
    assert keyed[same] == "tapped" and keyed[replace(dense)] == "dense"
    assert config.attack.z_taps == {3: 1.0} and list(config.attack.z_taps) == [3]
    with pytest.raises(TypeError, match="read-only"):
        config.attack.z_taps[4] = 0.5
    assert pickle.loads(pickle.dumps(config)) == config == copy.deepcopy(config)
    assert hash(copy.deepcopy(config)) == hash(config)


def counted_rows(monkeypatch) -> list[int]:
    """The number of rows each engine call plays, on either engine, as calls are made."""
    counts = []
    ghz, play_dense = branch.BranchPairs.ghz, protocol._play_dense

    def counting_ghz(bits, phases, collective=None):
        counts.append(len(bits))
        return ghz(bits, phases, collective)

    def counting_dense(config, bits, *rest):
        counts.append(len(bits))
        return play_dense(config, bits, *rest)

    monkeypatch.setattr(branch.BranchPairs, "ghz", staticmethod(counting_ghz))
    monkeypatch.setattr(protocol, "_play_dense", counting_dense)
    return counts


@pytest.mark.parametrize("collect_records", [False, True], ids=["keys-only", "records"])
@pytest.mark.parametrize(
    "attack, epsilon",
    [(None, 0.0), (CHUNK_ATTACKS["collusion"], 0.05), (NOOP_INTERCEPTOR, 0.0)],
    ids=["honest", "collusion", "dense"],
)
def test_only_sessions_without_records_on_the_branch_engine_skip_rows(
    monkeypatch, attack, epsilon, collect_records
):
    # one attempt each, so the outcome's stats count every row played
    config = SessionConfig(
        n_agents=3, secret_bits=4, epsilon=epsilon, attack=attack, max_attempts=1
    )
    counts = counted_rows(monkeypatch)
    outcomes = run_sessions(config, range(1, 6), collect_records=collect_records)
    every_row = collect_records or attack is NOOP_INTERCEPTOR
    rows = [o.stats.rounds_used if every_row else o.stats.case1_rounds for o in outcomes]
    assert sum(counts) == sum(rows) > 0
    assert all(o.stats.case1_rounds < o.stats.rounds_used for o in outcomes)


# n=2, m=1: 16-row batches that often fall short of the 2 raw bits, and 8-row top-ups
TOPPED_UP = SessionConfig(n_agents=2, secret_bits=1)


@pytest.mark.parametrize("collect_records", [False, True], ids=["keys-only", "records"])
def test_a_batch_and_its_top_ups_in_one_chunk_play_in_one_engine_pass(
    monkeypatch, collect_records
):
    config = replace(TOPPED_UP, max_attempts=1)
    seed = next(
        seed for seed in range(1, 100)
        if run_session(replace(config, seed=seed)).stats.rounds_used > config.batch_size
    )
    counts = counted_rows(monkeypatch)
    outcome = run_session(replace(config, seed=seed), collect_records=collect_records)
    stats = outcome.stats
    assert counts == [stats.rounds_used if collect_records else stats.case1_rounds]


@pytest.mark.parametrize("collect_records", [False, True], ids=["keys-only", "records"])
@pytest.mark.parametrize("chunk", [None, 7], ids=["default-chunk", "7-row-chunk"])
def test_sessions_topped_up_in_rounds_match_the_same_sessions_one_at_a_time(
    monkeypatch, chunk, collect_records
):
    seeds = range(200)
    alone = [
        run_session(replace(TOPPED_UP, seed=seed), collect_records=collect_records)
        for seed in seeds
    ]
    # the last attempt's top-ups: the pass ran rounds to at least the fourth
    top_ups = {(o.stats.rounds_used - TOPPED_UP.batch_size) // 8 for o in alone}
    assert {0, 1, 2, 3} <= top_ups
    if chunk is not None:
        monkeypatch.setattr(protocol, "_CHUNK_ROWS", chunk)
    assert run_sessions(TOPPED_UP, seeds, collect_records=collect_records) == alone


@pytest.mark.parametrize("batches", [1, 2])
def test_a_pass_short_of_raw_key_after_its_last_batch_raises(monkeypatch, batches):
    monkeypatch.setattr(protocol, "_MAX_BATCHES", batches)
    message = f"^{batches} batches of rounds gave [01] of 2 raw key bits$"
    with pytest.raises(BatchLimitError, match=message):
        run_sessions(replace(TOPPED_UP, max_attempts=1), range(200))


def test_run_rounds_refuses_a_generator_of_32_bit_raw_words():
    with pytest.raises(ValueError, match="MT19937"):
        run_rounds(SessionConfig(), 10, np.random.Generator(np.random.MT19937(5)))
    assert len(run_rounds(SessionConfig(), 10, np.random.Generator(np.random.Philox(5)))) == 10


def test_lone_sessions_keep_one_plan_and_leave_no_memory_behind():
    protocol._shape_plan.cache_clear()
    config = SessionConfig(n_agents=3, secret_bits=1)
    run_session(config)  # the shape's plan and engine tables are built on first use
    gc.collect()
    tracemalloc.start()
    try:
        for seed in range(1, 1_001):
            run_session(replace(config, seed=seed))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert protocol._shape_plan.cache_info().currsize == 1
    assert retained < 64 * 1024


@pytest.mark.parametrize(
    "attack",
    [None, CHUNK_ATTACKS["collective"], NOOP_INTERCEPTOR],
    ids=["honest", "collective", "dense"],
)
def test_run_rounds_plays_every_row(monkeypatch, attack):
    counts = counted_rows(monkeypatch)
    run_rounds(SessionConfig(attack=attack), 300, derived_rng(8))
    run_rounds(SessionConfig(attack=attack), 200, derived_rng(9), forced_modes=[C, S, C, C])
    assert sum(counts) == 500


def test_session_with_noise_keeps_parity_checks_clean():
    # bit-flip noise remaps the pattern, not the phase, so the sacrificial
    # parity check stays exactly clean while pattern checks absorb the noise
    config = SessionConfig(n_agents=2, secret_bits=8, epsilon=0.08, seed=9)
    outcome = run_session(config)
    assert outcome.verdict is Verdict.COMPLETED
    assert outcome.stats.step6_error_rate == 0.0
    assert outcome.stats.step5_error_rate > 0.0


def test_round_statistics_match_classification_combinatorics():
    config = SessionConfig(n_agents=3, secret_bits=4, seed=17)
    batch = run_rounds(config, 20_000)
    counts = {case: 0 for case in RoundCase}
    for share in batch.share.tolist():
        counts[classify_round([S if chose else C for chose in share])] += 1
    n = len(batch)
    p_case1 = 2.0 ** -4
    p_discard = 4 * 2.0 ** -4
    for observed, p in ((counts[RoundCase.CASE1], p_case1),
                        (counts[RoundCase.DISCARD], p_discard)):
        sigma = sqrt(n * p * (1 - p))
        assert abs(observed - n * p) <= 3 * sigma


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(n_agents=1)
    with pytest.raises(ValueError):
        SessionConfig(secret_bits=0)
    with pytest.raises(ValueError):
        SessionConfig(epsilon=-0.1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SessionConfig(seed=-1)
    SessionConfig(n_agents=MAX_QUBITS - 1)
    with pytest.raises(ValueError, match=f"at most {MAX_QUBITS - 1} agents"):
        SessionConfig(n_agents=MAX_QUBITS)


@pytest.mark.parametrize("field", ["n_agents", "secret_bits", "seed", "max_attempts"])
def test_config_counts_and_seeds_are_ints(field):
    # a float was accepted and failed only once a session ran
    for bad in (3.0, "3"):
        with pytest.raises(TypeError):
            SessionConfig(**{field: bad})
    config = SessionConfig(**{"n_agents": 2, "secret_bits": 2, field: np.int64(3)})
    assert getattr(config, field) == 3 and type(getattr(config, field)) is int
    assert run_session(config) == run_session(replace(config, **{field: 3}))


def _unchanged(state, particle, rng):
    return state


@pytest.mark.parametrize("attack_at", [
    lambda position: RoundAttack(z_taps={position: 1.0}),
    lambda position: RoundAttack(z_taps={position: 0.5}),
    lambda position: RoundAttack(interceptors={position: _unchanged}),
], ids=["tap", "half-rate-tap", "interceptor"])
def test_attack_positions_outside_the_particles_are_refused(attack_at):
    # an n=3 session has 4 particles: 4 is agent 3's position, 5 is past it
    SessionConfig(n_agents=3, attack=attack_at(4))
    with pytest.raises(ValueError, match="position 5 is past particle 4"):
        SessionConfig(n_agents=3, attack=attack_at(5))
    with pytest.raises(ValueError, match="1-based"):
        attack_at(0)


def test_a_measure_resend_victim_past_the_agents_is_refused():
    session = SessionConfig(n_agents=3)
    replace(session, attack=measure_resend_attack(MeasureResendConfig(3)))
    with pytest.raises(ValueError, match="past particle 4"):
        replace(session, attack=measure_resend_attack(MeasureResendConfig(9)))
