"""Attack models: state-level guarantees and Monte-Carlo detection laws."""

from math import sqrt

import numpy as np
import pytest

from mqss.adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    MeasureResendConfig,
    collective_attack,
    estimate_leakage,
    measure_resend_attack,
    mutual_information_bits,
    prepare_attacked_state,
    probe_readout,
    run_collusion,
)
from mqss.ghz import GhzSpec, prepare
from mqss.protocol import (
    Mode,
    SessionConfig,
    check_mismatch,
    run_round,
)
from mqss.statevec import (
    ATOL,
    HADAMARD,
    apply_gate,
    attach_register,
    basis_state,
    derived_rng,
    fidelity,
)

S2 = 1.0 / sqrt(2.0)
C, S = Mode.CHECK, Mode.SHARE


def enumerated_parity_failure(spec, attack_config):
    """Independent oracle: exact per-round parity failure probability.

    Evolves the attacked state with Hadamard on every protocol particle and
    sums the Born weight of system kets whose parity disagrees with the
    announced phase, tracing out the probe.
    """
    state = prepare_attacked_state(spec, attack_config)
    for particle in range(1, spec.qubit_count + 1):
        state = apply_gate(state, particle, HADAMARD)
    probs = state.probabilities()
    failure = 0.0
    for index in range(state.dimension):
        system = index >> 1
        if bin(system).count("1") % 2 != spec.phase:
            failure += probs[index]
    return failure


# --- collective attack: state level ------------------------------------------


def test_full_overlap_preparation_is_honest_state_with_bystander_probe():
    spec = GhzSpec((0, 1, 1, 0), 1)
    attacked = prepare_attacked_state(spec, CollectiveAttackConfig(probe_overlap=1.0))
    honest = attach_register(prepare(spec), basis_state(1, [0]))
    assert fidelity(attacked, honest) > 1 - ATOL
    assert attacked.register_qubits == 1


def test_orthogonal_probe_preparation_records_the_branch():
    spec = GhzSpec((0, 0, 0, 0), 0)
    attacked = prepare_attacked_state(spec, CollectiveAttackConfig(probe_overlap=0.0))
    amps = attacked.amplitudes
    assert abs(amps[0b00000] - S2) < ATOL  # |0000>|0>
    assert abs(amps[0b11111] - S2) < ATOL  # |1111>|1>
    assert np.count_nonzero(np.abs(amps) > ATOL) == 2


@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.7, 1.0])
def test_attacked_state_z_support_stays_on_pattern_or_complement(overlap):
    # whatever the overlap, all-Check rounds read the pattern or its
    # complement, so the attack never trips the full-pattern comparison
    spec = GhzSpec((1, 0, 0, 1), 0)
    attacked = prepare_attacked_state(spec, CollectiveAttackConfig(overlap))
    pattern = int("".join(map(str, spec.bits)), 2)
    complement = pattern ^ 0b1111
    for index in np.nonzero(np.abs(attacked.amplitudes) > ATOL)[0]:
        assert int(index) >> 1 in (pattern, complement)


def test_collective_config_validation():
    with pytest.raises(ValueError):
        CollectiveAttackConfig(probe_overlap=1.2)
    with pytest.raises(ValueError):
        CollectiveAttackConfig(probe_overlap=0.5, pattern_weight=1.0,
                               complement_weight=1.0)


def test_probe_readout_requires_register(rng):
    with pytest.raises(ValueError):
        probe_readout(prepare(GhzSpec((0, 0), 0)), rng)


def test_probe_readout_constant_when_probe_is_bystander(rng):
    spec = GhzSpec((1, 1, 0, 0), 0)
    state = prepare_attacked_state(spec, CollectiveAttackConfig(probe_overlap=1.0))
    assert all(probe_readout(state, rng) == 0 for _ in range(50))


def test_probe_predicts_branch_when_orthogonal():
    config = SessionConfig(
        n_agents=3,
        attack=collective_attack(CollectiveAttackConfig(probe_overlap=0.0)),
    )
    rng = derived_rng(31)
    for _ in range(60):
        spec = GhzSpec(tuple(rng.integers(0, 2, size=4)), int(rng.integers(0, 2)))
        record = run_round(config, spec, rng, forced_modes=[C] * 4)
        took_complement = record.results[0] != spec.bits[0]
        assert record.probe_outcome == int(took_complement)
        assert check_mismatch(record, spec) == 0


# --- collective attack: measured trade-off ------------------------------------


def test_leakage_estimate_undetectable_setting():
    estimate = estimate_leakage(
        CollectiveAttackConfig(probe_overlap=1.0),
        SessionConfig(n_agents=3, seed=5),
        trials=1_500,
    )
    assert estimate.detection_rate == 0.0
    assert estimate.mutual_information < 0.01
    assert estimate.sifted_mutual_information < 0.01


def test_leakage_estimate_orthogonal_probes():
    spec = GhzSpec((0, 0, 0, 0), 0)
    oracle = enumerated_parity_failure(spec, CollectiveAttackConfig(0.0))
    assert oracle == pytest.approx(0.5, abs=1e-12)
    trials = 4_000
    estimate = estimate_leakage(
        CollectiveAttackConfig(probe_overlap=0.0),
        SessionConfig(n_agents=3, seed=6),
        trials=trials,
    )
    sigma = sqrt(oracle * (1 - oracle) / trials)
    assert abs(estimate.detection_rate - oracle) <= 3 * sigma
    assert estimate.mutual_information > 0.9
    # the probe stays silent about post-Hadamard key bits even here
    assert estimate.sifted_mutual_information < 0.01


def test_enumerated_failure_matches_overlap_formula():
    # the closed form (1 - overlap)/2 for equal weights is derived from the
    # enumeration, not the other way round
    for overlap in (0.0, 0.25, 0.5, 0.75, 1.0):
        config = CollectiveAttackConfig(probe_overlap=overlap)
        for spec in (GhzSpec((0, 0, 0, 0), 0), GhzSpec((1, 0, 1, 1), 1)):
            value = enumerated_parity_failure(spec, config)
            assert value == pytest.approx((1 - overlap) / 2, abs=1e-12)


def test_leakage_requires_enough_trials():
    with pytest.raises(ValueError):
        estimate_leakage(CollectiveAttackConfig(), SessionConfig(), trials=10)


def test_mutual_information_of_independent_table_is_small():
    counts = np.array([[250, 250], [250, 250]])
    assert mutual_information_bits(counts) < 0.01
    perfect = np.array([[500, 0], [0, 500]])
    assert mutual_information_bits(perfect) > 0.95


# --- measure-resend -------------------------------------------------------------


def test_intercepted_check_rounds_are_indistinguishable():
    attack = measure_resend_attack(MeasureResendConfig(target=3))
    config = SessionConfig(n_agents=3, attack=attack)
    rng = derived_rng(41)
    for _ in range(200):
        spec = GhzSpec(tuple(rng.integers(0, 2, size=4)), int(rng.integers(0, 2)))
        record = run_round(config, spec, rng, forced_modes=[C] * 4)
        assert check_mismatch(record, spec) == 0


def test_z_basis_interception_leaves_pattern_checks_clean():
    # the Z collapse commutes with every Z-basis comparison, so the
    # post-distribution pattern verification cannot see this attack at all;
    # only the key-parity check catches it
    from mqss.protocol import run_rounds, verify_step5

    attack = measure_resend_attack(MeasureResendConfig(target=2))
    config = SessionConfig(n_agents=3, secret_bits=4, seed=47, attack=attack)
    records = run_rounds(config, 4_000)
    report = verify_step5(records, [r.spec for r in records])
    assert report.error_rate == 0.0
    assert report.round_failures == 0


def test_basis_mismatched_interceptor_trips_pattern_checks():
    # sanity check that the pattern verification is not vacuous: a tap that
    # measures in the Hadamard basis disturbs Z statistics and gets caught
    from mqss.protocol import run_rounds, verify_step5
    from mqss.statevec import HADAMARD, apply_gate, measure_z

    def x_basis_tap(state, particle, rng):
        rotated = apply_gate(state, particle, HADAMARD)
        _, collapsed, _ = measure_z(rotated, particle, rng)
        return apply_gate(collapsed, particle, HADAMARD)

    from mqss.protocol import RoundAttack

    config = SessionConfig(
        n_agents=3, secret_bits=4, seed=48,
        attack=RoundAttack(interceptors={3: x_basis_tap}),
    )
    records = run_rounds(config, 2_000)
    report = verify_step5(records, [r.spec for r in records])
    assert report.error_rate > 0.0
    assert not report.passed


def test_intercepted_share_rounds_break_parity_half_the_time():
    attack = measure_resend_attack(MeasureResendConfig(target=2))
    config = SessionConfig(n_agents=3, attack=attack)
    rng = derived_rng(43)
    trials = 3_000
    failures = 0
    for _ in range(trials):
        spec = GhzSpec(tuple(rng.integers(0, 2, size=4)), 0)
        record = run_round(config, spec, rng, forced_modes=[S] * 4)
        parity = 0
        for bit in record.results:
            parity ^= bit
        failures += parity != 0
    sigma = sqrt(trials * 0.25)
    assert abs(failures - trials / 2) <= 3 * sigma


# --- collusion -------------------------------------------------------------------


def test_collusion_config_validation():
    with pytest.raises(ValueError):
        CollusionConfig(frozenset(), MeasureResendConfig(target=3))
    with pytest.raises(ValueError):
        CollusionConfig(frozenset({1, 3}), MeasureResendConfig(target=3))


def test_collusion_single_check_bit_detected_quarter_of_the_time():
    config = CollusionConfig(frozenset({1, 2}), MeasureResendConfig(target=3))
    session = SessionConfig(n_agents=3, secret_bits=1, seed=71)
    report = run_collusion(config, session, trials=2_000)
    sigma = sqrt(0.25 * 0.75 / report.checked_bits)
    assert abs(report.per_bit_rate - 0.25) <= 3 * sigma
    sigma_overall = sqrt(0.25 * 0.75 / report.sessions)
    assert abs(report.detection_rate_overall - 0.25) <= 3 * sigma_overall


@pytest.mark.parametrize("agents,victim", [(4, 2), (5, 5)])
def test_collusion_quarter_law_holds_across_party_sizes(agents, victim):
    colluders = frozenset({1}) if victim != 1 else frozenset({2})
    config = CollusionConfig(colluders, MeasureResendConfig(target=victim))
    session = SessionConfig(n_agents=agents, secret_bits=1, seed=73 + agents)
    report = run_collusion(config, session, trials=1_000)
    sigma = sqrt(0.25 * 0.75 / report.checked_bits)
    assert abs(report.per_bit_rate - 0.25) <= 3 * sigma


def test_collusion_disabled_never_detects():
    session = SessionConfig(n_agents=3, secret_bits=1, seed=72)
    report = run_collusion(None, session, trials=1_000)
    assert report.detection_rate_overall == 0.0
    assert report.per_bit_rate == 0.0


def test_collusion_validates_victim_and_trials():
    session = SessionConfig(n_agents=3, secret_bits=1)
    with pytest.raises(ValueError):
        run_collusion(
            CollusionConfig(frozenset({1}), MeasureResendConfig(target=5)),
            session,
            trials=1_000,
        )
    with pytest.raises(ValueError):
        run_collusion(None, session, trials=5)
