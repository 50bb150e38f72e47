"""Attack models: state-level guarantees and Monte-Carlo detection laws."""

from dataclasses import astuple, replace
from math import log2, sqrt

import numpy as np
import pytest

from mqss.adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    CollusionReport,
    MeasureResendConfig,
    attacked,
    collective_attack,
    collusion_attack,
    estimate_leakage,
    measure_resend_attack,
    mutual_information_bits,
    prepare_attacked_state,
    run_collusion,
)
from mqss.ghz import GhzSpec, prepare
from mqss.protocol import (
    Mode,
    RoundAttack,
    SessionConfig,
    Verdict,
    play_rounds,
    run_round,
    run_sessions,
    verify_step5,
)
from mqss.statevec import (
    ATOL,
    HADAMARD,
    apply_gate,
    attach_register,
    basis_state,
    fidelity,
)
from mqss.streams import child_seeds, derived_rng

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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "weights",
    [
        {"pattern_weight": NAN},
        {"complement_weight": NAN},
        {"pattern_weight": INF},
        {"complement_weight": -INF},
        {"pattern_weight": complex(NAN, 0.0)},
        {"complement_weight": complex(0.0, NAN)},
        {"pattern_weight": complex(INF, 0.0)},
    ],
)
def test_collective_config_refuses_weights_that_are_not_numbers(weights):
    # NaN compares false with any tolerance, so it must fail the norm check
    with pytest.raises(ValueError, match="branch weights"):
        CollectiveAttackConfig(probe_overlap=0.5, **weights)


def test_probe_predicts_branch_when_orthogonal():
    config = SessionConfig(
        n_agents=3,
        attack=collective_attack(CollectiveAttackConfig(probe_overlap=0.0)),
    )
    rng = derived_rng(31)
    for _ in range(60):
        spec = GhzSpec(tuple(rng.integers(0, 2, size=4)), int(rng.integers(0, 2)))
        batch = play_rounds(config, [spec], rng, forced_modes=[C] * 4)
        took_complement = batch.results[0, 0] != spec.bits[0]
        assert batch.probe[0] == int(took_complement)
        assert verify_step5(batch).mismatches == 0


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


def binary_entropy(p):
    return 0.0 if p in (0.0, 1.0) else -p * log2(p) - (1 - p) * log2(1 - p)


@pytest.mark.parametrize("overlap", [0.25, 0.5, 0.75])
def test_leakage_estimate_between_the_endpoints(overlap):
    """Detection is (1 - c)/2, and the Z readout of the probe carries
    h((1 - c^2)/2) - h(1 - c^2)/2 bits about the branch: it reads 1 only
    on the complement branch, with probability 1 - c^2."""
    trials = 4_000
    estimate = estimate_leakage(
        CollectiveAttackConfig(probe_overlap=overlap),
        SessionConfig(n_agents=3, seed=7),
        trials=trials,
    )
    detection = (1 - overlap) / 2
    sigma = sqrt(detection * (1 - detection) / trials)
    assert abs(estimate.detection_rate - detection) <= 3 * sigma
    readout = 1 - overlap * overlap
    information = binary_entropy(readout / 2) - binary_entropy(readout) / 2
    # across seeds the estimate spreads about 0.011 bits, and sits about
    # 0.003 low from the add-one smoothing
    assert estimate.mutual_information == pytest.approx(information, abs=0.045)
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


def test_leakage_refuses_a_generator_of_32_bit_raw_words():
    rng = np.random.Generator(np.random.MT19937(5))
    with pytest.raises(ValueError, match="MT19937"):
        estimate_leakage(CollectiveAttackConfig(0.5), SessionConfig(), 4_000, rng)


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
        batch = play_rounds(config, [spec], rng, forced_modes=[C] * 4)
        assert verify_step5(batch).mismatches == 0


def test_z_basis_interception_leaves_pattern_checks_clean():
    # the Z collapse commutes with every Z-basis comparison, so the
    # post-distribution pattern verification cannot see this attack at all;
    # only the key-parity check catches it
    from mqss.protocol import run_rounds

    attack = measure_resend_attack(MeasureResendConfig(target=2))
    config = SessionConfig(n_agents=3, secret_bits=4, seed=47, attack=attack)
    report = verify_step5(run_rounds(config, 4_000))
    assert report.error_rate == 0.0
    assert report.round_failures == 0


def test_basis_mismatched_interceptor_trips_pattern_checks():
    # sanity check that the pattern verification is not vacuous: a tap that
    # measures in the Hadamard basis disturbs Z statistics and gets caught
    from mqss.protocol import run_rounds
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
    report = verify_step5(run_rounds(config, 2_000))
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


def test_measure_resend_step6_law_on_a_noiseless_channel():
    # the victim's Z-collapsed particle leaves each checked key bit's parity a
    # fair coin, so m checked bits catch the tap with probability 1 - (1/2)^m
    m, sessions = 2, 2_000
    config = SessionConfig(n_agents=3, secret_bits=m, max_attempts=1,
                           attack=measure_resend_attack(MeasureResendConfig(target=2)))
    outcomes = run_sessions(config, range(sessions))
    # Z-basis checks cannot see the tap: every session reaches step 6
    assert all(outcome.stats.step6_failures is not None for outcome in outcomes)
    aborted = sum(outcome.verdict is Verdict.ABORTED_STEP6 for outcome in outcomes) / sessions
    expected = 1.0 - 0.5 ** m
    assert abs(aborted - expected) <= 3 * sqrt(expected * (1 - expected) / sessions)
    bits = sessions * m
    per_bit = sum(outcome.stats.step6_failures for outcome in outcomes) / bits
    assert abs(per_bit - 0.5) <= 3 * sqrt(0.25 / bits)


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


def test_run_collusion_reads_columns_and_builds_no_session_outcome(built):
    config = CollusionConfig(frozenset({1}), MeasureResendConfig(target=2))
    session = SessionConfig(n_agents=2, secret_bits=4, seed=1)
    report = run_collusion(config, session, trials=1_000)
    assert built == {}
    # the figures the CLI pins for these sessions, each of its own type
    assert report == CollusionReport(0.696, 0.25675, 1_000, 4_000)
    assert [type(value) for value in astuple(report)] == [float, float, int, int]
    outcomes = run_sessions(
        replace(attacked(session, config), max_attempts=1), child_seeds(1, 1_000)
    )
    failures = [o.stats.step6_failures for o in outcomes if o.stats.step6_failures is not None]
    aborted = sum(outcome.verdict is not Verdict.COMPLETED for outcome in outcomes)
    assert (aborted / 1_000, sum(failures) / (4 * len(failures))) == astuple(report)[:2]


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


# --- applying an attack config -------------------------------------------------------


def test_attacked_applies_each_config_through_its_factory():
    session = SessionConfig(n_agents=3, secret_bits=2, seed=5)
    assert attacked(session, None) == session
    for config, factory in [
        (CollectiveAttackConfig(probe_overlap=0.3), collective_attack),
        (MeasureResendConfig(target=2), measure_resend_attack),
        (CollusionConfig(frozenset({1}), MeasureResendConfig(target=3)), collusion_attack),
    ]:
        assert attacked(session, config) == replace(session, attack=factory(config))
    with pytest.raises(TypeError):  # a built attack is not a config
        attacked(session, measure_resend_attack(MeasureResendConfig(target=2)))


@pytest.mark.parametrize(
    "config,message",
    [
        (CollusionConfig(frozenset({1, 4}), MeasureResendConfig(target=3)), "proper subset"),
        (CollusionConfig(frozenset({0}), MeasureResendConfig(target=3)), "proper subset"),
        (CollusionConfig(frozenset({1, 2, 3}), MeasureResendConfig(target=4)), "proper subset"),
        (MeasureResendConfig(target=4), "victim 4 is past agent 3"),
    ],
)
def test_attacked_refuses_what_three_agents_cannot_hold(config, message):
    with pytest.raises(ValueError, match=message):
        attacked(SessionConfig(n_agents=3), config)


@pytest.mark.parametrize(
    "config",
    [
        MeasureResendConfig(target=9),
        CollusionConfig(frozenset({1}), MeasureResendConfig(target=9)),
    ],
    ids=["measure-resend", "collusion"],
)
def test_a_victim_past_the_last_agent_is_named_as_an_agent(config):
    with pytest.raises(ValueError, match="^victim 9 is past agent 3$"):
        attacked(SessionConfig(n_agents=3), config)
    # a victim among the agents is tapped at its particle, one past its index
    session = attacked(SessionConfig(n_agents=9), config)
    assert list(session.attack.z_taps) == [10]


def keep_state(state, particle, rng):
    return state


def test_an_attack_position_that_is_not_an_integer_is_refused():
    # a tap at 2.5 would never fire: the attack would be disarmed without a word
    for build in (
        lambda: MeasureResendConfig(1.5),
        lambda: CollusionConfig(frozenset({1.5}), MeasureResendConfig(target=3)),
        lambda: RoundAttack(z_taps={2.5: 1.0}),
        lambda: RoundAttack(interceptors={2.5: keep_state}),
    ):
        with pytest.raises(TypeError):
            build()
    two = np.int64(2)
    positions = [
        MeasureResendConfig(two).target,
        *CollusionConfig({two}, MeasureResendConfig(target=3)).colluders,
        *RoundAttack(z_taps={two: 1.0}).z_taps,
        *RoundAttack(interceptors={two: keep_state}).interceptors,
        *attacked(SessionConfig(n_agents=3), MeasureResendConfig(two - 1)).attack.z_taps,
    ]
    assert positions == [2] * 5 and {type(position) for position in positions} == {int}
