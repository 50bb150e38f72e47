"""The exact branch engine against the dense state-vector oracle."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from mqss import branch
from mqss.adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    MeasureResendConfig,
    collective_attack,
    collusion_attack,
    measure_resend_attack,
    measure_resend_interceptor,
    prepare_attacked_state,
)
from mqss.ghz import GhzSpec, prepare
from mqss.protocol import (
    Mode,
    RoundAttack,
    SessionConfig,
    round_engine,
    run_rounds,
    run_session,
)
from mqss.statevec import (
    HADAMARD,
    PAULI_X,
    apply_gate,
    derived_rng,
    measure_after_hadamard,
    measure_z,
)

from conftest import FixedRng

# a draw of 0.0 samples outcome 1 whenever it is possible; the largest draw
# below 1 samples outcome 0 whenever that is possible
FORCE = {1: 0.0, 0: float(np.nextafter(1.0, 0.0))}
NEGLIGIBLE = 1e-15


# --- single operations: same outcome, probability and amplitudes ------------------


@pytest.mark.parametrize("seed", range(40))
def test_each_operation_matches_the_dense_engine(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 6))
    particle = int(rng.integers(1, q + 1))
    mask = branch.particle_mask(q, particle)
    # a ket pair differing only in the measured bit makes the Hadamard merge
    first, second = (int(k) for k in rng.choice(1 << q, size=2, replace=False))
    support = list({first, first ^ mask, second})
    rng.shuffle(support)
    amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    kets = dict(zip(support, (amps / np.linalg.norm(amps)).tolist()))
    state = branch.to_state(kets, q)

    flipped = branch.to_state(branch.flip(kets, mask), q)
    oracle = apply_gate(state, particle, PAULI_X)
    assert np.array_equal(flipped.amplitudes, oracle.amplitudes)
    for exact_op, dense_op in (
        (branch.measure_z, measure_z),
        (branch.measure_after_hadamard, measure_after_hadamard),
    ):
        for draw in FORCE.values():
            outcome, after, prob = exact_op(kets, mask, FixedRng(draw))
            oracle = dense_op(state, particle, FixedRng(draw))
            assert (outcome, prob) == (oracle[0], pytest.approx(oracle[2], abs=1e-12))
            np.testing.assert_allclose(
                branch.to_state(after, q).amplitudes, oracle[1].amplitudes, atol=1e-12
            )


# --- exact outcome distributions, by enumeration ---------------------------------


def dense_engine(spec, collective):
    if collective is None:
        state = prepare(spec)
    else:
        state = prepare_attacked_state(spec, collective)
    ops = {
        "flip": lambda s, p: apply_gate(s, p, PAULI_X),
        Mode.CHECK: measure_z,
        Mode.SHARE: measure_after_hadamard,
    }
    return state, ops, state.qubit_count


def branch_engine(spec, collective):
    if collective is None:
        kets, width = branch.ghz_kets(spec), spec.qubit_count
    else:
        kets, width = branch.probe_kets(spec, collective), spec.qubit_count + 1

    def mask(particle):
        return branch.particle_mask(width, particle)

    ops = {
        "flip": lambda k, p: branch.flip(k, mask(p)),
        Mode.CHECK: lambda k, p, rng: branch.measure_z(k, mask(p), rng),
        Mode.SHARE: lambda k, p, rng: branch.measure_after_hadamard(k, mask(p), rng),
    }
    return kets, ops, width


def outcome_distribution(engine, spec, collective, z_taps):
    """Probability of every (flips, modes, taps, results, probe) history.

    Walks a round the way ``run_round`` plays it: per particle, noise flip,
    Z tap (its schedule branching at the tap rate), then the measurement
    in the chosen mode; the probe last. Flip patterns and mode vectors are
    branches of weight 1 each, so every one of them carries total mass 1.
    """
    state, ops, width = engine(spec, collective)
    q = spec.qubit_count
    dist = {}

    def outcomes(op, state, particle):
        for intended, draw in FORCE.items():
            outcome, after, prob = ops[op](state, particle, FixedRng(draw))
            if outcome == intended and prob > NEGLIGIBLE:
                yield outcome, after, prob

    def walk(state, particle, weight, history):
        if particle > q:
            if width == q:
                dist[history] = weight
                return
            for bit, _, prob in outcomes(Mode.CHECK, state, width):
                dist[history + (("probe", bit),)] = weight * prob
            return
        for flipped in (False, True):
            noisy = ops["flip"](state, particle) if flipped else state
            rate = z_taps.get(particle, 0.0)
            for tapped, tap_weight in ((True, rate), (False, 1.0 - rate)):
                if tap_weight == 0.0:
                    continue
                if tapped:
                    branches = [
                        (("tap", bit), after, tap_weight * prob)
                        for bit, after, prob in outcomes(Mode.CHECK, noisy, particle)
                    ]
                else:
                    branches = [(("tap", None), noisy, tap_weight)]
                for tap, tapped_state, tap_prob in branches:
                    for mode in Mode:
                        for bit, after, prob in outcomes(mode, tapped_state, particle):
                            walk(
                                after,
                                particle + 1,
                                weight * tap_prob * prob,
                                history + ((flipped, tap, mode, bit),),
                            )

    walk(state, 1, 1.0, ())
    return dist


ATTACKS = [
    (None, {}),
    (None, {2: 1.0}),
    (None, {3: 0.5}),
    (CollectiveAttackConfig(probe_overlap=0.0), {}),
    (CollectiveAttackConfig(probe_overlap=0.5), {1: 1.0}),
    (CollectiveAttackConfig(probe_overlap=1.0), {2: 0.5}),
]


@pytest.mark.parametrize("qubits", [3, 4, 5])
@pytest.mark.parametrize("collective,z_taps", ATTACKS)
def test_exact_outcome_distributions_match_dense_oracle(qubits, collective, z_taps):
    rng = np.random.default_rng(qubits)
    spec = GhzSpec(tuple(int(b) for b in rng.integers(0, 2, size=qubits)), qubits % 2)
    dense = outcome_distribution(dense_engine, spec, collective, z_taps)
    exact = outcome_distribution(branch_engine, spec, collective, z_taps)
    # every flip pattern and mode vector was walked, each with mass 1
    histories = 4 ** qubits
    assert sum(dense.values()) == pytest.approx(histories, abs=1e-9)
    assert sum(exact.values()) == pytest.approx(histories, abs=1e-9)
    for history in dense.keys() | exact.keys():
        assert abs(dense.get(history, 0.0) - exact.get(history, 0.0)) <= 1e-12, history


def test_every_mode_vector_and_flip_pattern_is_walked():
    spec = GhzSpec((0, 1, 1), 0)
    dist = outcome_distribution(branch_engine, spec, None, {})
    walked = {
        (tuple(step[0] for step in history), tuple(step[2] for step in history))
        for history in dist
    }
    patterns = set(itertools.product((False, True), repeat=3))
    vectors = set(itertools.product(Mode, repeat=3))
    assert walked == set(itertools.product(patterns, vectors))


def test_support_never_grows():
    collective = CollectiveAttackConfig(probe_overlap=0.5)
    kets = branch.probe_kets(GhzSpec((1, 0, 1, 1), 1), collective)
    assert len(kets) == 3
    rng = derived_rng(9)
    for particle in range(1, 5):
        mask = branch.particle_mask(5, particle)
        kets = branch.flip(kets, mask)
        _, kets, _ = branch.measure_after_hadamard(kets, mask, rng)
        assert len(kets) <= 3


# --- seeded runs: field-for-field identical records --------------------------------


def _unchanged(state, particle, rng):
    return state


def on_dense_engine(config):
    """The same config, routed to the dense engine by a no-op interceptor."""
    attack = config.attack or RoundAttack()
    return replace(config, attack=replace(attack, interceptors={1: _unchanged}))


ROUND_ATTACKS = {
    "honest": lambda n: None,
    "measure-resend": lambda n: measure_resend_attack(MeasureResendConfig(target=n)),
    "collusion": lambda n: collusion_attack(
        CollusionConfig(frozenset({1}), MeasureResendConfig(target=2))
    ),
    "collective": lambda n: collective_attack(CollectiveAttackConfig(0.5)),
}


@pytest.mark.parametrize("kind", sorted(ROUND_ATTACKS))
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("n_agents", [2, 3, 5, 8])
def test_seeded_rounds_identical_on_both_engines(n_agents, epsilon, kind):
    config = SessionConfig(
        n_agents=n_agents,
        epsilon=epsilon,
        seed=1000 + n_agents,
        attack=ROUND_ATTACKS[kind](n_agents),
    )
    dense_config = on_dense_engine(config)
    assert round_engine(config) == "branch"
    assert round_engine(dense_config) == "dense"
    exact = run_rounds(config, 2_000)
    dense = run_rounds(dense_config, 2_000)
    for fast, oracle in zip(exact, dense):
        assert fast == oracle
    assert len(exact) == len(dense) == 2_000


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["honest", "measure-resend", "collusion"])
def test_whole_sessions_identical_on_both_engines(kind, epsilon, seed):
    config = SessionConfig(
        n_agents=3,
        secret_bits=8,
        epsilon=epsilon,
        seed=seed,
        attack=ROUND_ATTACKS[kind](3),
    )
    exact = run_session(config, collect_records=True)
    dense = run_session(on_dense_engine(config), collect_records=True)
    assert (exact.engine, dense.engine) == ("branch", "dense")
    assert exact.records and exact.log.entries
    # every other field, the records and the classical log included
    assert replace(dense, engine=exact.engine) == exact


def test_rate_one_tap_matches_the_dense_measure_resend_interceptor():
    target = MeasureResendConfig(target=2)
    config = SessionConfig(n_agents=3, epsilon=0.05, seed=77,
                           attack=measure_resend_attack(target))
    dense_config = replace(config, attack=RoundAttack(
        interceptors={target.target + 1: measure_resend_interceptor(target)}
    ))
    assert run_rounds(config, 2_000) == run_rounds(dense_config, 2_000)


def test_sessions_report_their_engine():
    honest = SessionConfig(n_agents=3, secret_bits=2, seed=4)
    collusion = replace(honest, attack=collusion_attack(
        CollusionConfig(frozenset({1}), MeasureResendConfig(target=3))
    ))

    def x_basis_tap(state, particle, rng):
        rotated = apply_gate(state, particle, HADAMARD)
        _, collapsed, _ = measure_z(rotated, particle, rng)
        return apply_gate(collapsed, particle, HADAMARD)

    tapped = replace(honest, attack=RoundAttack(interceptors={3: x_basis_tap}))
    assert run_session(honest).engine == "branch"
    assert run_session(collusion).engine == "branch"
    assert run_session(tapped).engine == "dense"


def test_tap_rates_are_validated():
    with pytest.raises(ValueError):
        RoundAttack(z_taps={2: 0.0})
    with pytest.raises(ValueError):
        RoundAttack(z_taps={2: 1.5})
    with pytest.raises(ValueError):
        RoundAttack(z_taps={0: 1.0})
