"""Round classification, checks, sifting, and full-session behavior."""

import itertools
from math import sqrt

import numpy as np
import pytest

from mqss.ghz import GhzSpec
from mqss.protocol import (
    IndeterminateCheckError,
    InsufficientRawKeyError,
    Mode,
    RoundCase,
    RoundRecord,
    SessionConfig,
    Verdict,
    check_mismatch,
    classify_round,
    combine_shadows,
    effective_threshold,
    finalize_and_share,
    participant_labels,
    run_round,
    run_rounds,
    run_session,
    sift,
    verify_step5,
    verify_step6,
)
from mqss.statevec import derived_rng

C, S = Mode.CHECK, Mode.SHARE


def make_record(modes, results, spec=None, classification=None):
    spec = spec or GhzSpec((0,) * len(modes), 0)
    return RoundRecord(
        round_index=0,
        spec=spec,
        modes=tuple(modes),
        results=tuple(results),
        classification=classification or classify_round(modes),
    )


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


@pytest.mark.parametrize("participants", [3, 4, 5])
def test_classification_partitions_every_mode_vector(participants):
    for modes in itertools.product((C, S), repeat=participants):
        case = classify_round(modes)
        checks = sum(1 for m in modes if m is C)
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
    assert check_mismatch(make_record([C] * 4, [0, 0, 1, 1]), spec) == 0
    assert check_mismatch(make_record([C] * 4, [1, 1, 0, 0]), spec) == 0
    assert check_mismatch(make_record([C] * 4, [0, 0, 1, 0]), spec) == 1


def test_check_case3_examines_only_checkers():
    spec = GhzSpec((0, 0, 0, 1), 0)
    # checkers on particles 3 and 4 (positions 2,3); sharers' bits arbitrary
    record = make_record([S, S, C, C], [1, 0, 0, 1])
    assert check_mismatch(record, spec) == 0
    record = make_record([S, S, C, C], [1, 0, 1, 0])
    assert check_mismatch(record, spec) == 0
    record = make_record([S, S, C, C], [1, 0, 0, 0])
    assert check_mismatch(record, spec) == 1


def test_check_case3_requires_case3():
    spec = GhzSpec((0, 0, 0, 1), 0)
    with pytest.raises(ValueError):
        check_mismatch(make_record([S] * 4, [0, 0, 0, 1]), spec)
    with pytest.raises(ValueError):
        check_mismatch(make_record([S, C, S, S], [0, 0, 0, 1]), spec)


# --- round execution ----------------------------------------------------------


def honest_config(**kwargs):
    return SessionConfig(**{"n_agents": 3, "secret_bits": 4, "seed": 7, **kwargs})


def test_all_check_round_reads_pattern_or_complement():
    config = honest_config()
    rng = derived_rng(11)
    for trial in range(40):
        spec = GhzSpec(tuple(rng.integers(0, 2, size=4)), int(rng.integers(0, 2)))
        record = run_round(config, spec, rng, forced_modes=[C] * 4)
        assert record.classification is RoundCase.CASE2
        assert check_mismatch(record, spec) == 0


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


# --- sifting ------------------------------------------------------------------


def test_sift_folds_phase_into_dealer_key():
    spec0 = GhzSpec((0, 1, 1, 0), 0)
    spec1 = GhzSpec((0, 1, 1, 0), 1)
    records = [
        make_record([S] * 4, [1, 1, 0, 0], spec=spec0),
        make_record([S] * 4, [0, 1, 0, 0], spec=spec1),
        make_record([C] * 4, [0, 1, 1, 0], spec=spec0),
    ]
    keys = sift(records, [spec0, spec1, spec0])
    assert keys == ((1, 1), (1, 1), (0, 0), (0, 0))
    # parity law: dealer bit equals XOR of agent bits in every column
    for j in range(2):
        assert keys[0][j] == keys[1][j] ^ keys[2][j] ^ keys[3][j]


def test_sift_requires_announced_specs():
    records = [make_record([S] * 4, [0, 0, 0, 0])]
    with pytest.raises(ValueError):
        sift(records, [])


def test_sift_no_key_rounds():
    records = [make_record([C] * 4, [0, 0, 0, 0])]
    assert sift(records, [records[0].spec]) == ()


# --- verification -------------------------------------------------------------


def test_effective_threshold_zero_noise_rejects_any_error():
    assert effective_threshold(0.0, 100) == 0.0


def test_verify_step5_honest_perfect():
    spec = GhzSpec((1, 0, 1, 0), 0)
    records = [
        make_record([C] * 4, [1, 0, 1, 0], spec=spec),
        make_record([C] * 4, [0, 1, 0, 1], spec=spec),
        make_record([S, C, C, S], [0, 0, 1, 1], spec=spec),
    ]
    report = verify_step5(records, [spec] * 3)
    assert report.error_rate == 0.0
    assert report.passed
    assert report.checked_rounds == 3
    assert report.checked_positions == 4 + 4 + 2


def test_verify_step5_counts_mismatched_positions():
    spec = GhzSpec((0, 0, 0, 0), 0)
    records = [make_record([C] * 4, [0, 0, 0, 1], spec=spec)]
    report = verify_step5(records, [spec])
    assert report.mismatches == 1
    assert report.error_rate == pytest.approx(0.25)
    assert report.round_failures == 1
    assert not report.passed


def test_verify_step5_without_check_rounds_is_indeterminate():
    records = [make_record([S] * 4, [0, 0, 0, 0])]
    with pytest.raises(IndeterminateCheckError):
        verify_step5(records, [records[0].spec])


class PresetChoiceRng:
    def __init__(self, picks):
        self.picks = picks

    def choice(self, n, size, replace):
        assert size == len(self.picks) and not replace
        return np.asarray(self.picks)


def test_verify_step6_honest_keys_pass():
    raw = ((0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0), (1, 1, 1, 1))
    for j in range(4):
        assert raw[0][j] == raw[1][j] ^ raw[2][j] ^ raw[3][j]
    report = verify_step6(raw, 2, PresetChoiceRng([1, 3]))
    assert report.check_positions == (1, 3)
    assert report.error_rate == 0.0
    assert report.passed
    assert report.remaining_keys == ((0, 1), (0, 1), (1, 1), (1, 1))


def test_verify_step6_flipped_bit_fails_at_checked_position():
    raw = [[0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 1, 1]]
    raw[2][3] ^= 1  # break parity at position 3
    report = verify_step6(tuple(map(tuple, raw)), 2, PresetChoiceRng([1, 3]))
    assert report.failures == 1
    assert report.error_rate == pytest.approx(0.5)
    assert not report.passed


def test_verify_step6_needs_twice_the_secret_length():
    raw = ((0, 1), (0, 1), (0, 0), (0, 0))
    with pytest.raises(InsufficientRawKeyError):
        verify_step6(raw, 2, PresetChoiceRng([0, 1]))


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


def test_combine_shadows_partial_subset_differs():
    keys = ((0, 1, 1), (1, 1, 0), (1, 0, 1))
    secret = (1, 0, 1)
    result = finalize_and_share(keys, 3, secret)
    assert combine_shadows(result.ciphertext, result.shadow_keys[1:]) == secret
    partial = combine_shadows(result.ciphertext, result.shadow_keys[1:2])
    assert partial != secret or result.shadow_keys[2] == (0, 0, 0)


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
    case1 = [r for r in outcome.records if r.classification is RoundCase.CASE1]
    assert case1
    for record in case1:
        parity = 0
        for bit in record.results:
            parity ^= bit
        assert parity == record.spec.phase


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
    records = run_rounds(config, 20_000)
    counts = {case: 0 for case in RoundCase}
    for record in records:
        counts[record.classification] += 1
    n = len(records)
    p_case1 = 2.0 ** -4
    p_discard = 4 * 2.0 ** -4
    for observed, p in ((counts[RoundCase.CASE1], p_case1),
                        (counts[RoundCase.DISCARD], p_discard)):
        sigma = sqrt(n * p * (1 - p))
        assert abs(observed - n * p) <= 3 * sigma


def test_participant_labels():
    assert participant_labels(3) == ("dealer", "agent1", "agent2", "agent3")


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(n_agents=1)
    with pytest.raises(ValueError):
        SessionConfig(secret_bits=0)
    with pytest.raises(ValueError):
        SessionConfig(epsilon=-0.1)
