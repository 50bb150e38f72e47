"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Statistical criteria use three-sigma binomial
tolerances around values pinned by independent oracles (exhaustive
enumeration, closed-form combinatorics, or small-instance state-vector
computation), never around values the code under test produced.
"""

import itertools
from contextlib import contextmanager
from math import comb, sqrt

import numpy as np
import pytest

from mqss.adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    MeasureResendConfig,
    estimate_leakage,
    run_collusion,
)
from mqss.cli import main as cli_main
from mqss.ghz import (
    GhzSpec,
    HadamardPattern,
    parity_oracle,
    predict_full_hadamard,
    predict_partial_hadamard,
    prepare,
)
from mqss.protocol import (
    RoundCase,
    SessionConfig,
    Verdict,
    case_table,
    run_rounds,
    run_session,
)
from mqss.statevec import ATOL, HADAMARD, apply_gate, fidelity
from mqss.streams import child_seed

from conftest import state_from_terms
from test_adversary import enumerated_parity_failure
from test_ghz import (
    FULL_HADAMARD_0011_EVEN,
    FULL_HADAMARD_0011_ODD,
    PARTIAL_0000_H1,
    PARTIAL_0000_H12,
    PARTIAL_0001_H123,
    PARTIAL_0010_H1,
    PARTIAL_0010_H12,
    PARTIAL_0010_H123,
)

S2 = 1.0 / sqrt(2.0)
QUARTER = 1.0 / (2.0 * sqrt(2.0))


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def assert_amplitudes_match(observed, expected, atol=ATOL):
    """Per-amplitude agreement up to one global phase factor."""
    exp = expected.amplitudes
    obs = observed.amplitudes
    anchor = int(np.argmax(np.abs(exp)))
    phase = obs[anchor] / exp[anchor]
    assert abs(abs(phase) - 1.0) <= atol
    np.testing.assert_allclose(obs, phase * exp, atol=atol)


def all_specs(qubit_count):
    for bits in itertools.product((0, 1), repeat=qubit_count):
        for phase in (0, 1):
            yield GhzSpec(bits, phase)


def test_criterion_1_closed_form_reproduction():
    cases = [
        ((0, 0, 1, 1), 0, None, FULL_HADAMARD_0011_EVEN, QUARTER),
        ((0, 0, 1, 1), 1, None, FULL_HADAMARD_0011_ODD, QUARTER),
        ((0, 0, 1, 0), 0, {1, 2, 3}, PARTIAL_0010_H123, QUARTER * S2),
        ((0, 0, 0, 1), 0, {1, 2, 3}, PARTIAL_0001_H123, QUARTER * S2),
        ((0, 0, 1, 0), 0, {1, 2}, PARTIAL_0010_H12, QUARTER),
        ((0, 0, 0, 0), 0, {1, 2}, PARTIAL_0000_H12, QUARTER),
        ((0, 0, 1, 0), 0, {1}, PARTIAL_0010_H1, 0.5),
        ((0, 0, 0, 0), 0, {1}, PARTIAL_0000_H1, 0.5),
    ]
    with criterion("criterion 1 (closed-form reproduction)"):
        for bits, phase, h_positions, table, scale in cases:
            spec = GhzSpec(bits, phase)
            if h_positions is None:
                observed = predict_full_hadamard(spec)
            else:
                pattern = HadamardPattern.for_qubits(len(bits), h_positions)
                observed = predict_partial_hadamard(spec, pattern)
            assert_amplitudes_match(observed, state_from_terms(4, table, scale))


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2025)
    with criterion("criterion 2 (oracle equivalence)"):
        for q in (2, 3, 4, 5):
            positions = list(range(1, q + 1))
            for spec in all_specs(q):
                for r in range(1, q):
                    for h_positions in itertools.combinations(positions, r):
                        pattern = HadamardPattern.for_qubits(q, h_positions)
                        predicted = predict_partial_hadamard(spec, pattern)
                        evolved = prepare(spec)
                        for p in h_positions:
                            evolved = apply_gate(evolved, p, HADAMARD)
                        assert fidelity(predicted, evolved) >= 1 - ATOL
        for q in (6, 7, 8):
            for _ in range(15):
                spec = GhzSpec(
                    tuple(rng.integers(0, 2, size=q)), int(rng.integers(0, 2))
                )
                size = int(rng.integers(1, q))
                h_positions = tuple(
                    rng.choice(range(1, q + 1), size=size, replace=False)
                )
                pattern = HadamardPattern.for_qubits(q, h_positions)
                predicted = predict_partial_hadamard(spec, pattern)
                evolved = prepare(spec)
                for p in h_positions:
                    evolved = apply_gate(evolved, p, HADAMARD)
                assert fidelity(predicted, evolved) >= 1 - ATOL


def test_criterion_3_parity_law():
    with criterion("criterion 3 (parity law)"):
        for q in range(2, 9):
            magnitude = 1.0 / sqrt(2.0 ** (q - 1))
            for spec in all_specs(q):
                amps = predict_full_hadamard(spec).amplitudes
                support = np.nonzero(np.abs(amps) > ATOL)[0]
                for index in support:
                    assert bin(int(index)).count("1") % 2 == parity_oracle(spec)
                    assert abs(abs(amps[index]) - magnitude) <= ATOL


def test_criterion_4_honest_end_to_end():
    secret_rng = np.random.default_rng(4)
    with criterion("criterion 4 (honest end-to-end)"):
        for trial in range(100):
            secret = tuple(int(b) for b in secret_rng.integers(0, 2, size=16))
            config = SessionConfig(
                n_agents=3, secret_bits=16, epsilon=0.0,
                seed=child_seed(400, trial),
            )
            outcome = run_session(config, secret=secret)
            assert outcome.verdict is Verdict.COMPLETED
            assert outcome.reconstructed == secret
            assert outcome.stats.step5_error_rate == 0.0
            assert outcome.stats.step6_error_rate == 0.0


def test_criterion_5_qubit_efficiency():
    n_rounds = 100_000
    config = SessionConfig(n_agents=3, secret_bits=4, seed=55)
    with criterion("criterion 5 (qubit efficiency)"):
        batch = run_rounds(config, n_rounds)
        counts = {case: 0 for case in RoundCase}
        for share in batch.share.tolist():
            counts[case_table(len(share))[share.count(False)]] += 1
        participants = 4
        # exact oracle from mode combinatorics: each of the 2^4 mode vectors
        # is equally likely per round
        p_case1 = 0.5 ** participants
        assert p_case1 == 2.0 ** -4
        p_discard = comb(participants, 1) * 0.5 ** participants
        assert p_discard == 4 * 2.0 ** -4
        for observed, p in ((counts[RoundCase.CASE1], p_case1),
                            (counts[RoundCase.DISCARD], p_discard)):
            sigma = sqrt(n_rounds * p * (1 - p))
            assert abs(observed - n_rounds * p) <= 3 * sigma


def test_criterion_6_collusion_detection_law():
    collusion = CollusionConfig(frozenset({1, 2}), MeasureResendConfig(target=3))
    plans = [(1, 3000, 601), (4, 1000, 602), (16, 1000, 603)]
    with criterion("criterion 6 (collusion detection law)"):
        pooled_failures = 0
        pooled_bits = 0
        for m, trials, seed in plans:
            session = SessionConfig(n_agents=3, secret_bits=m, seed=seed)
            report = run_collusion(collusion, session, trials=trials)
            pooled_failures += round(report.per_bit_rate * report.checked_bits)
            pooled_bits += report.checked_bits
            expected_abort = 1.0 - 0.75 ** m
            sigma = sqrt(expected_abort * (1 - expected_abort) / trials)
            assert abs(report.detection_rate_overall - expected_abort) <= 3 * sigma
        assert pooled_bits >= 10_000
        per_bit = pooled_failures / pooled_bits
        sigma = sqrt(0.25 * 0.75 / pooled_bits)
        assert abs(per_bit - 0.25) <= 3 * sigma


def test_criterion_7_collective_attack_trade_off():
    overlaps = (0.0, 0.25, 0.5, 0.75, 1.0)
    trials = 2_500
    session = SessionConfig(n_agents=3, seed=700)
    with criterion("criterion 7 (collective-attack trade-off)"):
        # independent small-instance oracle for the orthogonal-probe setting
        oracle = enumerated_parity_failure(
            GhzSpec((0, 0, 0, 0), 0), CollectiveAttackConfig(probe_overlap=0.0)
        )
        assert oracle == pytest.approx(0.5, abs=1e-12)
        estimates = [
            estimate_leakage(
                CollectiveAttackConfig(probe_overlap=c), session, trials=trials
            )
            for c in overlaps
        ]
        # pinned endpoints
        zero_overlap, full_overlap = estimates[0], estimates[-1]
        sigma = sqrt(oracle * (1 - oracle) / trials)
        assert abs(zero_overlap.detection_rate - oracle) <= 3 * sigma
        assert full_overlap.detection_rate == 0.0
        assert full_overlap.mutual_information < 0.01
        # monotone trade-off: both curves fall as the probes grow alike
        for lower, higher in zip(estimates, estimates[1:]):
            pair_sigma = sqrt(0.25 / trials) * 2
            assert higher.detection_rate <= lower.detection_rate + 3 * pair_sigma
            assert higher.mutual_information <= lower.mutual_information + 0.02


def test_criterion_8_threshold_property():
    sessions = 10_000
    subsets = [(1,), (2, 3)]
    with criterion("criterion 8 (threshold property)"):
        subset_matches = {subset: 0 for subset in subsets}
        bits_total = 0
        for trial in range(sessions):
            config = SessionConfig(
                n_agents=3, secret_bits=1, seed=child_seed(800, trial)
            )
            outcome = run_session(config)
            assert outcome.verdict is Verdict.COMPLETED
            assert outcome.reconstructed == outcome.secret
            bits_total += 1
            agent_shadows = outcome.shadow_keys[1:]
            for subset in subsets:
                guess = outcome.ciphertext  # XOR-ed with the subset's shadows
                for i in subset:
                    guess = tuple(c ^ s for c, s in zip(guess, agent_shadows[i - 1]))
                subset_matches[subset] += guess == outcome.secret
        sigma = sqrt(0.25 / bits_total)
        for subset in subsets:
            rate = subset_matches[subset] / bits_total
            assert abs(rate - 0.5) <= 3 * sigma, (subset, rate)


def test_criterion_9_noise_calibration():
    epsilon = 0.05
    sessions = 1_000
    participants = 4
    with criterion("criterion 9 (noise calibration)"):
        # analytic oracle: enumerate flip patterns; an all-Check round reads
        # branch XOR flips, so its distance to the nearer of pattern or
        # complement is min(weight, q - weight) of the flip pattern
        mean_distance = 0.0
        second_moment = 0.0
        for flips in itertools.product((0, 1), repeat=participants):
            weight = sum(flips)
            p = epsilon ** weight * (1 - epsilon) ** (participants - weight)
            d = min(weight, participants - weight)
            mean_distance += p * d
            second_moment += p * d * d
        var_distance = second_moment - mean_distance ** 2

        aborted = 0
        case2_rounds = 0
        case2_mismatch = 0
        for trial in range(sessions):
            config = SessionConfig(
                n_agents=3, secret_bits=8, epsilon=epsilon,
                seed=child_seed(900, trial), max_attempts=1,
            )
            outcome = run_session(config, collect_records=True)
            if outcome.verdict is not Verdict.COMPLETED:
                aborted += 1
            batch = outcome.rounds
            for share, results, bits in zip(
                batch.share.tolist(), batch.results.tolist(), batch.bits.tolist()
            ):
                if any(share):  # case 2: every participant checked
                    continue
                case2_rounds += 1
                direct = sum(1 for r, x in zip(results, bits) if r != x)
                case2_mismatch += min(direct, participants - direct)

        observed_rate = case2_mismatch / (case2_rounds * participants)
        expected_rate = mean_distance / participants
        sigma = sqrt(var_distance / case2_rounds) / participants
        assert abs(observed_rate - expected_rate) <= 3 * sigma
        assert aborted / sessions < 0.01


def test_criterion_10_transcript_determinism(tmp_path):
    args = ["--agents", "3", "--secret-bits", "8", "--seed", "33",
            "--trials", "2"]
    with criterion("criterion 10 (determinism)"):
        path_a = tmp_path / "first.jsonl"
        path_b = tmp_path / "second.jsonl"
        assert cli_main(args + ["--transcript", str(path_a)]) == 0
        assert cli_main(args + ["--transcript", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.stat().st_size > 0
