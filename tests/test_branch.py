"""The exact branch engine against the dense state-vector oracle."""

import copy
import hashlib
import itertools
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from mqss import branch, protocol
from mqss.adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    MeasureResendConfig,
    collective_attack,
    collusion_attack,
    estimate_leakage,
    measure_resend_attack,
    measure_resend_interceptor,
    prepare_attacked_state,
)
from mqss.ghz import GhzSpec, prepare
from mqss.protocol import (
    Mode,
    RoundAttack,
    RoundBatch,
    SessionConfig,
    play_rounds,
    round_engine,
    run_rounds,
    run_session,
)
from mqss.statevec import (
    HADAMARD,
    PAULI_X,
    apply_gate,
    measure_after_hadamard,
    measure_z,
)
from mqss.streams import derived_rng

from conftest import FixedRng, drawn_patterns

# a draw of 0.0 samples outcome 1 whenever it is possible; the largest draw
# below 1 samples outcome 0 whenever that is possible
FORCE = {1: 0.0, 0: float(np.nextafter(1.0, 0.0))}
NEGLIGIBLE = 1e-15


# --- single steps: same outcome, probability and state ----------------------------


def random_pairs(rng, qubits, overlap):
    """One round holding a random two-branch state.

    Random complex branch weights; with a probe, the branches' unit probe
    vectors have overlap ``overlap``, and ``None`` attaches no probe.
    """
    bits = rng.integers(0, 2, size=(1, qubits))
    weights = rng.normal(size=2) + 1j * rng.normal(size=2)
    weights /= np.linalg.norm(weights)
    if overlap is None:
        return branch.BranchPairs(bits, [weights[0]], [weights[1]], [0])
    first = rng.normal(size=2) + 1j * rng.normal(size=2)
    first /= np.linalg.norm(first)
    orthogonal = np.array([-first[1].conjugate(), first[0].conjugate()])
    orthogonal *= np.exp(2j * np.pi * rng.random())
    second = overlap * first + sqrt(1.0 - overlap * overlap) * orthogonal
    return branch.BranchPairs(bits, weights[0] * first, weights[1] * second, [0])


def fork(pairs):
    """A copy of a batch whose steps leave the original as it was."""
    twin = copy.copy(pairs)
    for name, value in vars(pairs).items():
        if isinstance(value, np.ndarray):
            setattr(twin, name, value.copy())
    return twin


def dense_view(pairs):
    qubits = pairs.bits.shape[1]
    return branch.to_state(pairs.kets(0), qubits + pairs.probe)


@pytest.mark.parametrize("seed", range(40))
def test_each_operation_matches_the_dense_engine(seed):
    """Every step, on a random two-branch state: same outcomes,
    probabilities and states as ``statevec``."""
    overlap = (None, 0.0, 0.5, 1.0)[seed % 4]  # None: no probe qubit
    rng = np.random.default_rng(seed)
    qubits = int(rng.integers(2, 6))
    pairs = random_pairs(rng, qubits, overlap)
    width = qubits + pairs.probe

    def check(step, dense_op, particle, collapses=True):
        """Both outcomes of one step agree; the walk goes on from a possible one."""
        possible = []
        state = dense_view(pairs)
        for intended, draw in FORCE.items():
            after = fork(pairs)
            outcome, p1 = step(after, np.array([draw]))
            oracle, collapsed, prob = dense_op(state, particle, FixedRng(draw))
            if oracle != intended:
                prob = 1.0 - prob
            assert (p1[0] if intended else 1.0 - p1[0]) == pytest.approx(prob, abs=1e-12)
            if prob > NEGLIGIBLE:
                assert int(outcome[0]) == oracle == intended
                if collapses:
                    np.testing.assert_allclose(
                        dense_view(after).amplitudes, collapsed.amplitudes, atol=1e-12
                    )
                possible.append(after)
        return possible[int(rng.integers(len(possible)))]

    for column in range(qubits):
        particle = column + 1
        if rng.random() < 0.5:
            state = dense_view(pairs)
            pairs.flip(column, np.array([True]))
            flipped = apply_gate(state, particle, PAULI_X)
            np.testing.assert_allclose(
                dense_view(pairs).amplitudes, flipped.amplitudes, atol=1e-12
            )
        if rng.random() < 0.3:
            pairs = check(lambda p, d: p.tap(column, d), measure_z, particle)
        share = bool(rng.random() < 0.5)
        pairs = check(
            lambda p, d: p.measure(column, np.array([share]), d),
            measure_after_hadamard if share else measure_z,
            particle,
        )
    if pairs.probe:
        # the probe is read last, so nothing keeps its collapse
        check(lambda p, d: p.read_probe(d), measure_z, width, collapses=False)


def test_support_never_grows():
    collective = CollectiveAttackConfig(probe_overlap=0.5)
    pairs = branch.BranchPairs.ghz(np.array([[1, 0, 1, 1]]), [1], collective)
    assert len(pairs.kets(0)) == 3
    rng = derived_rng(9)
    for column in range(4):
        pairs.flip(column, np.array([True]))
        pairs.measure(column, np.array([True]), rng.random(1))
        assert len(pairs.kets(0)) <= 3


def test_a_particle_is_measured_once_and_the_probe_read_last():
    collective = CollectiveAttackConfig(probe_overlap=0.5)
    pairs = branch.BranchPairs.ghz(np.array([[1, 0, 1]]), [1], collective)
    draws = np.array([0.3])
    with pytest.raises(ValueError):
        pairs.read_probe(draws)
    pairs.measure(0, np.array([True]), draws)
    with pytest.raises(ValueError):
        pairs.measure(0, np.array([True]), draws)
    honest = branch.BranchPairs.ghz(np.array([[1, 0]]), [0])
    for column in range(2):
        honest.measure(column, np.array([False]), draws)
    with pytest.raises(ValueError):
        honest.read_probe(draws)


def test_honest_probabilities_are_exact():
    rng = derived_rng(5)
    rounds, qubits = 500, 6
    pairs = branch.BranchPairs.ghz(
        rng.integers(0, 2, size=(rounds, qubits)), rng.integers(0, 2, size=rounds)
    )
    for column in range(qubits):
        pairs.flip(column, rng.random(rounds) < 0.2)
        _, p1 = pairs.measure(column, rng.random(rounds) < 0.5, rng.random(rounds))
        assert set(np.unique(p1)) <= {0.0, 0.5, 1.0}


# --- real arithmetic, and the tables a batch steps on ---------------------------


def real_slots(rng, overlap):
    """Random real pattern and complement amplitude slots of a two-branch state.

    As ``random_pairs``, with real weights and real unit probe vectors of
    overlap ``overlap``; ``None`` attaches no probe.
    """
    weights = rng.normal(size=2)
    weights /= np.linalg.norm(weights)
    if overlap is None:
        return [weights[0]], [weights[1]]
    first = rng.normal(size=2)
    first /= np.linalg.norm(first)
    orthogonal = np.array([-first[1], first[0]]) * rng.choice([-1.0, 1.0])
    second = overlap * first + sqrt(1.0 - overlap * overlap) * orthogonal
    return weights[0] * first, weights[1] * second


def play_steps(pairs, share, draws, taps):
    """Play every step on a batch; return each step's (outcomes, p1).

    Per column: a flip where the row's draw is below 0.3, a Z tap if
    ``taps`` gives the column a rate (rate 1 taps every row, a lower rate
    the rows its schedule draw picks), then the owner's measurement in
    ``share``'s mode; last the probe readout. Row i reads only ``draws[i]``.
    """
    returned = []
    for column in range(pairs.bits.shape[1]):
        flip, schedule, tap, measure = draws[:, 4 * column : 4 * column + 4].T
        pairs.flip(column, flip < 0.3)
        rate = taps.get(column)
        if rate is not None:
            returned.append(pairs.tap(column, tap, None if rate == 1.0 else schedule < rate))
        returned.append(pairs.measure(column, share[:, column], measure))
    if pairs.probe:
        returned.append(pairs.read_probe(draws[:, -1]))
    return returned


def random_batch(seed):
    """A seeded batch to play: bits, phases, real slots, mixed modes, draws and taps."""
    rng = np.random.default_rng(seed)
    overlap = (None, 0.0, 0.5, 1.0)[seed % 4]
    rounds, qubits = 200, int(rng.integers(2, 6))
    bits = rng.integers(0, 2, size=(rounds, qubits))
    phases = rng.integers(0, 2, size=rounds)
    pattern, complement = real_slots(rng, overlap)
    share = rng.random((rounds, qubits)) < 0.5
    draws = rng.random((rounds, 4 * qubits + 1))
    taps = {int(rng.integers(qubits)): 1.0, int(rng.integers(qubits)): 0.5}
    return bits, phases, pattern, complement, share, draws, taps


@pytest.mark.parametrize("seed", range(16))
def test_real_and_complex_weights_play_identical_rounds(seed):
    """Real weights play in real arithmetic, and to the last bit as the
    same weights written as complex numbers."""
    bits, phases, pattern, complement, share, draws, taps = random_batch(seed)
    real = branch.BranchPairs(bits, pattern, complement, phases)
    twin = branch.BranchPairs(
        bits, np.asarray(pattern, dtype=complex), np.asarray(complement, dtype=complex), phases
    )
    assert real.initial.dtype == np.float64 and twin.initial.dtype == np.complex128
    played = play_steps(real, share, draws, taps)
    twin_played = play_steps(twin, share, draws, taps)
    for (outcome, p1), (twin_outcome, twin_p1) in zip(played, twin_played, strict=True):
        assert np.array_equal(outcome, twin_outcome)
        assert np.array_equal(p1, twin_p1)


@pytest.mark.parametrize("seed", range(8))
def test_a_mixed_batch_plays_as_its_rows_one_at_a_time(seed):
    """Rows of mixed modes step exactly as each row does alone, where every
    step has one mode."""
    bits, phases, pattern, complement, share, draws, taps = random_batch(seed)
    batch = branch.BranchPairs(bits, pattern, complement, phases)
    played = play_steps(batch, share, draws, taps)
    for row in range(len(bits)):
        one = slice(row, row + 1)
        alone = branch.BranchPairs(bits[one], pattern, complement, phases[one])
        for (outcome, p1), (one_outcome, one_p1) in zip(
            played, play_steps(alone, share[one], draws[one], taps), strict=True
        ):
            assert outcome[row] == one_outcome[0]
            assert p1[row] == one_p1[0]


def test_measure_returns_an_outcome_and_probability_per_row():
    rng = derived_rng(12)
    rounds, qubits = 50, 3
    bits = rng.integers(0, 2, size=(rounds, qubits))
    phases = rng.integers(0, 2, size=rounds)
    mixed = rng.random((rounds, qubits)) < 0.5
    for share in (np.ones_like(mixed), np.zeros_like(mixed), mixed):
        pairs = branch.BranchPairs.ghz(bits, phases, CollectiveAttackConfig(probe_overlap=0.5))
        for column in range(qubits):
            outcome, p1 = pairs.measure(column, share[:, column], rng.random(rounds))
            assert outcome.shape == p1.shape == (rounds,)


@pytest.mark.parametrize(
    "forced_modes, hadamard_calls, z_calls",
    [([Mode.CHECK] * 4, 0, 4), ([Mode.SHARE] * 4, 4, 0), (None, 4, 4)],
)
def test_a_step_works_out_only_the_probabilities_its_rows_read(
    monkeypatch, forced_modes, hadamard_calls, z_calls
):
    calls = {"hadamard": 0, "z": 0}
    index = branch.BranchPairs._index

    def counted(self, column, share=None):
        rows = index(self, column, share)
        if share is not None:
            # a measurement reads Hadamard entries at odd table indices, Z entries at even ones
            calls["hadamard"] += bool(np.any(rows & 1))
            calls["z"] += bool(np.any(~rows & 1))
        return rows

    monkeypatch.setattr(branch.BranchPairs, "_index", counted)
    config = SessionConfig(
        n_agents=3, seed=13, attack=collective_attack(CollectiveAttackConfig(0.5))
    )
    # one chunk of rows; unforced, every column mixes both modes
    run_rounds(config, 500, forced_modes=forced_modes)
    assert calls == {"hadamard": hadamard_calls, "z": z_calls}


def test_a_table_set_is_built_once_per_starting_pair_and_plays_without_warnings():
    branch._tables.cache_clear()
    collective = CollectiveAttackConfig(0.5)
    # overlap 1 too, where the branches' probe amplitudes can cancel
    attacks = (None, collective_attack(collective), collective_attack(CollectiveAttackConfig()))
    modes = ([Mode.SHARE] * 4, [Mode.CHECK] * 4, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for attack, forced_modes in itertools.product(attacks, modes):
            # two chunks of rows each
            run_rounds(SessionConfig(attack=attack, epsilon=0.05), 5_000, forced_modes=forced_modes)
        run_rounds(SessionConfig(attack=ROUND_ATTACKS["collusion"](3)), 5_000)
        estimate_leakage(collective, SessionConfig(seed=3), 4_000)
    # honest and tapped rounds start alike, and so do both collective-0.5 plays
    assert branch._tables.cache_info().misses == 3


def test_importing_the_package_builds_no_tables():
    env = {**os.environ, "PYTHONPATH": str(Path(branch.__file__).parents[1])}
    script = "import mqss; print(mqss.branch._tables.cache_info().misses)"
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "0"


# --- exact outcome distributions, by enumeration ---------------------------------


def outcome_distribution(spec, collective, z_taps):
    """Probability of every (flips, modes, taps, results, probe) history.

    Walks a round on the dense engine the way ``run_round`` plays it: per
    particle, noise flip, Z tap (its schedule branching at the tap rate),
    then the measurement in the chosen mode; the probe last. Flip patterns
    and mode vectors are branches of weight 1 each, so every one of them
    carries total mass 1.
    """
    if collective is None:
        state = prepare(spec)
    else:
        state = prepare_attacked_state(spec, collective)
    width = state.qubit_count
    ops = {
        "tap": measure_z,
        Mode.CHECK: measure_z,
        Mode.SHARE: measure_after_hadamard,
        "probe": lambda s, rng: measure_z(s, width, rng),
    }
    q = spec.qubit_count
    dist = {}

    def outcomes(op, *args):
        for intended, draw in FORCE.items():
            outcome, after, prob = ops[op](*args, FixedRng(draw))
            if outcome == intended and prob > NEGLIGIBLE:
                yield outcome, after, prob

    def walk(state, particle, weight, history):
        if particle > q:
            if width == q:
                dist[history] = weight
                return
            for bit, _, prob in outcomes("probe", state):
                dist[history + (("probe", bit),)] = weight * prob
            return
        for flipped in (False, True):
            noisy = apply_gate(state, particle, PAULI_X) if flipped else state
            rate = z_taps.get(particle, 0.0)
            for tapped, tap_weight in ((True, rate), (False, 1.0 - rate)):
                if tap_weight == 0.0:
                    continue
                if tapped:
                    branches = [
                        (("tap", bit), after, tap_weight * prob)
                        for bit, after, prob in outcomes("tap", noisy, particle)
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


def batch_distribution(spec, collective, z_taps):
    """``outcome_distribution`` from one ``BranchPairs`` batch.

    Every history the walk can take is one row: its flips, tap schedule,
    modes and intended outcomes, the probe's last. Each step forces the
    row's intended outcome with a ``FORCE`` draw, and the row's weight is
    the product of those outcomes' probabilities and its tap schedule's
    rates. A row whose intended outcome is impossible carries no mass and
    is dropped, as the walk prunes it; its later steps divide zero by zero.
    """
    q = spec.qubit_count
    per_particle = []
    for particle in range(1, q + 1):
        rate = z_taps.get(particle, 0.0)
        taps = [("tap", bit) for bit in (0, 1) if rate > 0.0]
        taps += [("tap", None)] if rate < 1.0 else []
        per_particle.append(list(itertools.product((False, True), taps, Mode, (0, 1))))
    probes = [(0,), (1,)] if collective is not None else [()]
    histories = list(itertools.product(*per_particle, probes))
    rounds = len(histories)
    # row r takes option choice[c][r] at particle c + 1, as the product orders them
    choice = np.unravel_index(
        np.arange(rounds), [len(options) for options in per_particle] + [len(probes)]
    )
    pairs = branch.BranchPairs.ghz(
        np.tile(spec.bits, (rounds, 1)), np.full(rounds, spec.phase), collective
    )
    weight = np.ones(rounds)
    possible = every = np.ones(rounds, dtype=bool)

    def force(step, intended, rows=every):
        """One step with each row's intended outcome; it counts where ``rows``."""
        nonlocal weight, possible
        outcome, p1 = step(np.where(intended, FORCE[1], FORCE[0]))
        prob = np.where(intended, p1, 1.0 - p1)
        ok = prob > NEGLIGIBLE  # false where a dead row's probability is nan
        assert (outcome == intended)[ok & rows].all()
        possible = possible & (ok | ~rows)
        weight = np.where(rows, weight * prob, weight)

    with np.errstate(invalid="ignore", divide="ignore"):
        for column in range(q):
            table = np.array(
                [(flipped, tap[1] is not None, tap[1] or 0, mode is Mode.SHARE, bit)
                 for flipped, tap, mode, bit in per_particle[column]],
                dtype=bool,
            )
            flip, tapped, tap_bit, share, bit = table[choice[column]].T
            pairs.flip(column, flip)
            rate = z_taps.get(column + 1)
            if rate is not None:
                fired = None if rate == 1.0 else tapped
                force(lambda d: pairs.tap(column, d, fired), tap_bit, tapped)
                weight *= np.where(tapped, rate, 1.0 - rate)
            force(lambda d: pairs.measure(column, share, d), bit)
        if collective is not None:
            force(pairs.read_probe, choice[q] == 1)
    return {
        history[:q] + ((("probe", history[q][0]),) if history[q] else ()): mass
        for history, mass, kept in zip(histories, weight.tolist(), possible.tolist())
        if kept
    }


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
    dense = outcome_distribution(spec, collective, z_taps)
    exact = batch_distribution(spec, collective, z_taps)
    # every flip pattern and mode vector was walked, each with mass 1
    histories = 4 ** qubits
    assert sum(dense.values()) == pytest.approx(histories, abs=1e-9)
    assert sum(exact.values()) == pytest.approx(histories, abs=1e-9)
    for history in dense.keys() | exact.keys():
        assert abs(dense.get(history, 0.0) - exact.get(history, 0.0)) <= 1e-12, history


def test_every_mode_vector_and_flip_pattern_is_walked():
    spec = GhzSpec((0, 1, 1), 0)
    patterns = set(itertools.product((False, True), repeat=3))
    vectors = set(itertools.product(Mode, repeat=3))
    for distribution in (outcome_distribution, batch_distribution):
        walked = {
            (tuple(step[0] for step in history), tuple(step[2] for step in history))
            for history in distribution(spec, None, {})
        }
        assert walked == set(itertools.product(patterns, vectors))


# --- seeded runs: field-for-field identical records --------------------------------


def on_dense_kernel(monkeypatch):
    """Swap the dense kernel in for the branch kernel; returns the rows it plays, per call."""
    rows, play_dense = [], protocol._play_dense

    def dense(config, bits, *rest):
        rows.append(len(bits))
        return play_dense(config, bits, *rest)

    monkeypatch.setattr(protocol, "_play_on_branches", dense)
    return rows


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
def test_seeded_rounds_identical_on_both_engines(monkeypatch, n_agents, epsilon, kind):
    config = SessionConfig(
        n_agents=n_agents,
        epsilon=epsilon,
        seed=1000 + n_agents,
        attack=ROUND_ATTACKS[kind](n_agents),
    )
    assert round_engine(config) == "branch"
    exact_rng, dense_rng = derived_rng(config.seed), derived_rng(config.seed)
    exact = run_rounds(config, 2_000, exact_rng)
    dense_rows = on_dense_kernel(monkeypatch)
    dense = run_rounds(config, 2_000, dense_rng)
    assert sum(dense_rows) == 2_000  # every row played on the dense engine
    assert exact == dense
    assert len(exact) == len(dense) == 2_000
    # the batch took exactly the draws the round-by-round walk took
    assert exact_rng.bit_generator.state == dense_rng.bit_generator.state


PINNED_ATTACKS = {
    "honest": None,
    "measure-resend": ROUND_ATTACKS["measure-resend"](3),
    "collusion": ROUND_ATTACKS["collusion"](3),
    **{
        f"collective-{overlap}": collective_attack(CollectiveAttackConfig(overlap))
        for overlap in (0.0, 0.5, 1.0)
    },
    "collective-complex": collective_attack(CollectiveAttackConfig(0.5, 0.6, 0.8j)),
}

PLAYED_DIGESTS = {
    "collective-0.0": "4dd5dfa810b57fe580221fa63b224752f8be3c5fe64c3eb23ace3232a4479a68",
    "collective-0.5": "be80cd610bc22254a2d5f62bfaf427f7c7830edc1f9bf44b3fbbe80bd90749ed",
    "collective-1.0": "19e92e6a0556a86f299f518960ff93cdd5802f7c92b1b2ea3911274de2ab449a",
    "collective-complex": "64a58a2eb8ae84d2e95096b41dd3cc183a043f9b1aed10502ab77bebe8057537",
    "collusion": "dffdac738a2711f5b43b77386faf63f20ed94b9082067da6b2b74b3f8add8bda",
    "honest": "8d49b60a575489cb566e64b3be2fff37ceb9222c3ba512c1d7be4c35ae1398de",
    "measure-resend": "61af4fbf5547fcb3242d0748ef22b82cc3964b8e502f004d19758ad6ab6e3ee0",
}


@pytest.mark.parametrize("kind", sorted(PINNED_ATTACKS))
def test_played_rounds_keep_their_pinned_digests(kind):
    """sha256 of every array of the rounds ``run_rounds`` plays, over two
    chunks of rows, at both noise levels and in all three mode settings."""
    digest = hashlib.sha256()
    for epsilon in (0.0, 0.05):
        config = SessionConfig(
            n_agents=3, epsilon=epsilon, seed=41, attack=PINNED_ATTACKS[kind]
        )
        for forced_modes in ([Mode.SHARE] * 4, [Mode.CHECK] * 4, None):
            batch = run_rounds(config, 5_000, forced_modes=forced_modes)
            for array in (batch.bits, batch.phases, batch.share, batch.results, batch.probe):
                if array is not None:
                    digest.update(array.dtype.str.encode() + np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == PLAYED_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(ROUND_ATTACKS))
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_a_batch_split_in_two_plays_the_same_rounds(kind, epsilon):
    config = SessionConfig(
        n_agents=3, epsilon=epsilon, seed=31, attack=ROUND_ATTACKS[kind](3)
    )
    bits, phases = drawn_patterns(derived_rng(32), 300, config.particle_count)
    specs = [GhzSpec(tuple(b), p) for b, p in zip(bits.tolist(), phases.tolist())]
    whole_rng = derived_rng(33)
    whole = play_rounds(config, specs, whole_rng)
    for cut in (0, 1, 2, 150, 299, 300):
        rng = derived_rng(33)
        first = play_rounds(config, specs[:cut], rng)
        second = play_rounds(config, specs[cut:], rng)
        assert RoundBatch.join([first, second]) == whole
        assert rng.bit_generator.state == whole_rng.bit_generator.state


@pytest.mark.parametrize("kind", sorted(ROUND_ATTACKS))
def test_an_empty_batch_draws_nothing(kind):
    config = SessionConfig(n_agents=3, epsilon=0.05, attack=ROUND_ATTACKS[kind](3))
    rng = derived_rng(34)
    before = rng.bit_generator.state
    assert len(play_rounds(config, [], rng)) == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["honest", "measure-resend", "collusion"])
def test_whole_sessions_identical_on_both_engines(monkeypatch, kind, epsilon, seed):
    config = SessionConfig(
        n_agents=3,
        secret_bits=8,
        epsilon=epsilon,
        seed=seed,
        attack=ROUND_ATTACKS[kind](3),
    )
    exact = run_session(config, collect_records=True)
    dense_rows = on_dense_kernel(monkeypatch)
    dense = run_session(config, collect_records=True)
    # the final attempt's rows, and any earlier attempt's, played on the dense engine
    assert sum(dense_rows) >= exact.stats.rounds_used
    assert len(exact.rounds) and exact.log
    # every field, the records and the classical log included
    assert dense == exact


def test_rate_one_tap_matches_the_dense_measure_resend_interceptor():
    target = MeasureResendConfig(target=2)
    config = SessionConfig(n_agents=3, epsilon=0.05, seed=77,
                           attack=measure_resend_attack(target))
    dense_config = replace(config, attack=RoundAttack(
        interceptors={target.target + 1: measure_resend_interceptor(target)}
    ))
    assert run_rounds(config, 2_000) == run_rounds(dense_config, 2_000)


def test_sessions_report_their_engine(monkeypatch):
    honest = SessionConfig(n_agents=3, secret_bits=2, seed=4)
    collusion = replace(honest, attack=collusion_attack(
        CollusionConfig(frozenset({1}), MeasureResendConfig(target=3))
    ))

    def x_basis_tap(state, particle, rng):
        rotated = apply_gate(state, particle, HADAMARD)
        _, collapsed, _ = measure_z(rotated, particle, rng)
        return apply_gate(collapsed, particle, HADAMARD)

    tapped = replace(honest, attack=RoundAttack(interceptors={3: x_basis_tap}))
    assert round_engine(honest) == "branch"
    assert round_engine(collusion) == "branch"
    assert round_engine(tapped) == "dense"

    dense_calls = []
    play_dense = protocol._play_dense

    def counted(*args):
        dense_calls.append(args[0])
        return play_dense(*args)

    monkeypatch.setattr(protocol, "_play_dense", counted)
    run_session(honest)
    run_session(collusion)
    assert not dense_calls
    run_session(tapped)
    assert dense_calls and all(config is tapped for config in dense_calls)


def test_tap_rates_are_validated():
    with pytest.raises(ValueError):
        RoundAttack(z_taps={2: 0.0})
    with pytest.raises(ValueError):
        RoundAttack(z_taps={2: 1.5})
    with pytest.raises(ValueError):
        RoundAttack(z_taps={0: 1.0})
