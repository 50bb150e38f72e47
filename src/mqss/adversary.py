"""Adversary models and the estimators that measure what they achieve.

Three attack families are modeled:

- a collective attack where the server entangles a probe qubit with each
  distributed state instead of preparing it honestly, trading detection
  odds against the information its probe can carry;
- measure-resend interception, which measures a victim's qubit in the
  computational basis while it is in transit and forwards the collapse;
- collusion, where the server and a subset of agents mount the interception
  against one victim and pool what the public discussion gives them.

Detection rates and information leakage are measured empirically by
running the real protocol machinery, never assumed from formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt
from typing import Optional

import numpy as np

from .branch import probe_kets, to_state
from .channel import Interceptor
from .ghz import GhzSpec
from .protocol import (
    Mode,
    RoundAttack,
    SessionConfig,
    Verdict,
    run_round,
    run_session,
)
from .statevec import (
    ATOL,
    PureState,
    child_seed,
    derived_rng,
    measure_z,
)


# --- attack configurations ----------------------------------------------------


@dataclass(frozen=True)
class CollectiveAttackConfig:
    """Probe-entangled preparation, restricted to the surviving two-branch family.

    The prepared state is ``a_p |x>|probe_p> + a_c (-1)^phase |~x>|probe_c>``
    with ``<probe_p|probe_c> = probe_overlap``. Overlap 1 makes the probe a
    bystander (undetectable, uninformative); overlap 0 makes it a perfect
    branch recorder (maximally informative, maximally disturbing).
    """

    probe_overlap: float = 1.0
    pattern_weight: complex = 1.0 / sqrt(2.0)
    complement_weight: complex = 1.0 / sqrt(2.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probe_overlap <= 1.0:
            raise ValueError("probe_overlap must be in [0, 1]")
        total = abs(self.pattern_weight) ** 2 + abs(self.complement_weight) ** 2
        if abs(total - 1.0) > ATOL:
            raise ValueError("branch weights must satisfy |a_p|^2 + |a_c|^2 = 1")


@dataclass(frozen=True)
class MeasureResendConfig:
    """Z-basis interception of the qubits sent to one victim agent."""

    target: int

    def __post_init__(self) -> None:
        if self.target < 1:
            raise ValueError("target agent index is 1-based")


@dataclass(frozen=True)
class CollusionConfig:
    """Server plus a subset of agents attacking one outside victim."""

    colluders: frozenset[int]
    inner_attack: MeasureResendConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "colluders", frozenset(self.colluders))
        if not self.colluders:
            raise ValueError("collusion needs at least one colluding agent")
        if self.inner_attack.target in self.colluders:
            raise ValueError("the victim cannot be a colluder")


@dataclass(frozen=True)
class LeakageEstimate:
    """Measured information/detection trade-off of a collective attack.

    ``mutual_information`` is measured between the probe readout and the
    victim's direct Z-basis result, the channel through which the probe can
    actually learn the collapsed branch. ``sifted_mutual_information`` pairs
    the probe with the victim's sifted key bit instead; for this attack
    family the post-Hadamard key bits are branch-independent, so it stays at
    the estimator floor regardless of overlap.
    """

    mutual_information: float
    sifted_mutual_information: float
    detection_rate: float
    sample_count: int


@dataclass(frozen=True)
class CollusionReport:
    detection_rate_overall: float
    per_bit_rate: float
    sessions: int
    checked_bits: int


# --- collective attack ----------------------------------------------------------


def prepare_attacked_state(
    spec: GhzSpec, config: CollectiveAttackConfig
) -> PureState:
    """The server's substitute preparation with one probe qubit appended.

    Only two basis branches survive (anything else would already fail the
    all-Check pattern comparison), and two pure probe states span at most a
    two-dimensional space, so a single probe qubit loses no generality.
    """
    return to_state(probe_kets(spec, config), spec.qubit_count + 1, register_qubits=1)


def collective_attack(config: CollectiveAttackConfig) -> RoundAttack:
    """Session hook that swaps in the probe-entangled preparation."""
    return RoundAttack(collective=config)


def probe_readout(state: PureState, rng) -> int:
    """Z measurement of the probe register, returned to the server."""
    if state.register_qubits < 1:
        raise ValueError("state carries no probe register")
    outcome, _, _ = measure_z(state, state.qubit_count, rng)
    return outcome


def mutual_information_bits(counts: np.ndarray) -> float:
    """Plug-in mutual information (bits) with add-one smoothing.

    Adequate for 2x2 contingency tables at a thousand samples or more; the
    smoothing keeps empty cells finite at a bias well below 0.01 bits.
    """
    table = np.asarray(counts, dtype=float) + 1.0
    joint = table / table.sum()
    row = joint.sum(axis=1, keepdims=True)
    col = joint.sum(axis=0, keepdims=True)
    mi = float((joint * np.log2(joint / (row * col))).sum())
    return max(mi, 0.0)


def estimate_leakage(
    config: CollectiveAttackConfig,
    session: SessionConfig,
    trials: int,
    rng=None,
    victim: int = 1,
) -> LeakageEstimate:
    """Monte-Carlo the attack's detection rate and information gain.

    Detection is the per-checked-key-bit parity failure rate, measured on
    all-Share rounds. Information is measured on all-Check rounds, where
    the probe readout can correlate with the victim's recorded result.
    """
    if trials < 1_000:
        raise ValueError("need at least 1000 trials for stable estimates")
    if not 1 <= victim <= session.n_agents:
        raise ValueError("victim must be one of the agents")
    if rng is None:
        rng = derived_rng(session.seed, 983)
    attacked = replace(session, attack=collective_attack(config))
    q = attacked.particle_count
    victim_position = victim  # dealer-first vectors: agent i sits at index i

    def sample_round(forced_modes):
        spec = GhzSpec(
            tuple(int(b) for b in rng.integers(0, 2, size=q)),
            int(rng.integers(0, 2)),
        )
        return spec, run_round(attacked, spec, rng, forced_modes=forced_modes)

    all_share = [Mode.SHARE] * q
    all_check = [Mode.CHECK] * q

    parity_failures = 0
    sifted_counts = np.zeros((2, 2))
    for _ in range(trials):
        spec, record = sample_round(all_share)
        parity = 0
        for bit in record.results:
            parity ^= bit
        if parity != spec.phase:
            parity_failures += 1
        sifted_counts[record.probe_outcome, record.results[victim_position]] += 1

    check_counts = np.zeros((2, 2))
    for _ in range(trials):
        spec, record = sample_round(all_check)
        # compare against the announced pattern so the probe/branch channel
        # is scored identically for every announced state
        branch_bit = record.results[victim_position] ^ spec.bits[victim_position]
        check_counts[record.probe_outcome, branch_bit] += 1

    return LeakageEstimate(
        mutual_information=mutual_information_bits(check_counts),
        sifted_mutual_information=mutual_information_bits(sifted_counts),
        detection_rate=parity_failures / trials,
        sample_count=trials,
    )


# --- measure-resend and collusion ------------------------------------------------


def measure_resend_interceptor(config: MeasureResendConfig) -> Interceptor:
    """Tap that Z-measures the victim's particle and forwards the collapse."""

    def intercept(state: PureState, particle: int, rng) -> PureState:
        _, collapsed, _ = measure_z(state, particle, rng)
        return collapsed

    return intercept


def measure_resend_attack(config: MeasureResendConfig) -> RoundAttack:
    """Always-on interception of every transmission to the victim.

    The rate-1 Z tap does what ``measure_resend_interceptor`` does on the
    dense engine, with the same single draw, but keeps rounds exact and O(q).
    """
    return RoundAttack(z_taps={config.target + 1: 1.0})


def collusion_attack(config: CollusionConfig) -> RoundAttack:
    """Interception schedule the colluders actually mount.

    The victim's qubit is tapped on a random half of the rounds: hitting
    every round would double the disturbance for no extra key knowledge,
    since a Z-collapsed qubit reveals nothing about post-Hadamard results.
    Under this schedule each checked key bit breaks parity with probability
    1/4, so m checked bits catch the collusion with probability
    1 - (3/4)^m.
    """
    return RoundAttack(z_taps={config.inner_attack.target + 1: 0.5})


def run_collusion(
    config: Optional[CollusionConfig],
    session: SessionConfig,
    trials: int,
    rng_seed: Optional[int] = None,
) -> CollusionReport:
    """Measure collusion detection statistics over independent sessions.

    Each trial runs one single-attempt session; the colluders disclose
    their modes and results to the server out of band, which does not
    change what the honest checks see. Returns the session abort fraction
    and the pooled per-checked-bit failure rate.
    """
    if trials < 1_000:
        raise ValueError("need at least 1000 trials for stable estimates")
    attack = None
    if config is not None:
        if config.inner_attack.target > session.n_agents:
            raise ValueError("victim index exceeds agent count")
        if not config.colluders < set(range(1, session.n_agents + 1)):
            raise ValueError("colluders must be a proper subset of the agents")
        attack = collusion_attack(config)
    master = session.seed if rng_seed is None else rng_seed

    aborted = 0
    checked_bits = 0
    bit_failures = 0
    for trial in range(trials):
        trial_config = replace(
            session,
            attack=attack,
            max_attempts=1,
            seed=child_seed(master, trial),
        )
        outcome = run_session(trial_config)
        if outcome.verdict is not Verdict.COMPLETED:
            aborted += 1
        if outcome.stats.step6_failures is not None:
            checked_bits += session.secret_bits
            bit_failures += outcome.stats.step6_failures
    per_bit = bit_failures / checked_bits if checked_bits else 0.0
    return CollusionReport(
        detection_rate_overall=aborted / trials,
        per_bit_rate=per_bit,
        sessions=trials,
        checked_bits=checked_bits,
    )
