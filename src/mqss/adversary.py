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

import operator
from dataclasses import dataclass, replace
from functools import reduce
from math import sqrt
from typing import Optional, Union

import numpy as np

from .branch import probe_kets, to_state
from .channel import Interceptor
from .ghz import GhzSpec
from .protocol import (  # noqa: F401 - perfbench's tracer wraps run_round here
    Mode,
    RoundAttack,
    SessionConfig,
    Verdict,
    run_round,
    run_rounds,
    run_sessions,
)
from .statevec import ATOL, PureState, measure_z
from .streams import child_seeds, derived_rng


# the fewest trials an estimator accepts: fewer give no stable estimate
MIN_ESTIMATE_TRIALS = 1_000


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
        if not abs(total - 1.0) <= ATOL:  # NaN and inf weights fail too
            raise ValueError(f"branch weights must satisfy |a_p|^2 + |a_c|^2 = 1, got {total}")


@dataclass(frozen=True)
class MeasureResendConfig:
    """Z-basis interception of the qubits sent to one victim agent."""

    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", operator.index(self.target))  # a float raises
        if self.target < 1:
            raise ValueError("target agent index is 1-based")


@dataclass(frozen=True)
class CollusionConfig:
    """Server plus a subset of agents attacking one outside victim."""

    colluders: frozenset[int]
    inner_attack: MeasureResendConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "colluders", frozenset(map(operator.index, self.colluders)))
        if not self.colluders:
            raise ValueError("collusion needs at least one colluding agent")
        if self.inner_attack.target in self.colluders:
            raise ValueError("the victim cannot be a colluder")


AttackConfig = Union[CollectiveAttackConfig, MeasureResendConfig, CollusionConfig]


def attacked(session: SessionConfig, config: Optional[AttackConfig]) -> SessionConfig:
    """``session`` under the attack ``config``, the one place the two meet.

    ``None`` leaves the session honest. Colluders must be a proper subset of
    the agents, and a victim must be one of them.
    """
    attack = None
    if isinstance(config, CollectiveAttackConfig):
        attack = collective_attack(config)
    elif isinstance(config, MeasureResendConfig):
        _refuse_absent_victim(config, session)
        attack = measure_resend_attack(config)
    elif isinstance(config, CollusionConfig):
        if not config.colluders < set(range(1, session.n_agents + 1)):
            raise ValueError("colluders must be a proper subset of the agents")
        _refuse_absent_victim(config.inner_attack, session)
        attack = collusion_attack(config)
    elif config is not None:
        raise TypeError(f"not an attack config: {config!r}")
    return replace(session, attack=attack)


def _refuse_absent_victim(config: MeasureResendConfig, session: SessionConfig) -> None:
    # named in agents: SessionConfig would name the tapped particle, one past it
    if config.target > session.n_agents:
        raise ValueError(f"victim {config.target} is past agent {session.n_agents}")


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
    return to_state(probe_kets(spec, config), spec.qubit_count + 1)


def collective_attack(config: CollectiveAttackConfig) -> RoundAttack:
    """Session hook that swaps in the probe-entangled preparation."""
    return RoundAttack(collective=config)


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


def _counts(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """2x2 contingency table of two arrays of bits."""
    return np.bincount(2 * rows + columns, minlength=4).reshape(2, 2)


def estimate_leakage(
    config: CollectiveAttackConfig,
    session: SessionConfig,
    trials: int,
    rng=None,
) -> LeakageEstimate:
    """Monte-Carlo the attack's detection rate and information gain.

    Detection is the per-checked-key-bit parity failure rate, measured on
    all-Share rounds. Information is measured on all-Check rounds, where
    the probe readout can correlate with the victim's recorded result. The
    victim is agent 1: every agent's particle is prepared alike.
    """
    if trials < MIN_ESTIMATE_TRIALS:
        raise ValueError(f"need at least {MIN_ESTIMATE_TRIALS} trials for stable estimates")
    if rng is None:
        rng = derived_rng(session.seed, 983)
    session = attacked(session, config)

    def play(mode):
        return run_rounds(session, trials, rng, forced_modes=[mode] * session.particle_count)

    batch = play(Mode.SHARE)  # dealer-first columns: agent 1 sits at column 1
    # XOR the columns: numpy reduces along a short row axis several times more slowly
    parity = reduce(operator.xor, batch.results.T)
    parity_failures = int(np.count_nonzero(parity != batch.phases))
    sifted_counts = _counts(batch.probe, batch.results[:, 1])

    # compare against the announced pattern so the probe/branch channel
    # is scored identically for every announced state
    batch = play(Mode.CHECK)
    check_counts = _counts(batch.probe, batch.results[:, 1] ^ batch.bits[:, 1])

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
    Each checked key bit then breaks parity with probability 1/2, so at zero
    noise m checked bits catch it with probability 1 - (1/2)^m; under noise, less.
    """
    return RoundAttack(z_taps={config.target + 1: 1.0})


def collusion_attack(config: CollusionConfig) -> RoundAttack:
    """Interception schedule the colluders actually mount.

    The victim's qubit is tapped on a random half of the rounds: hitting
    every round would double the disturbance for no extra key knowledge,
    since a Z-collapsed qubit reveals nothing about post-Hadamard results.
    Under this schedule each checked key bit breaks parity with probability
    1/4, so at zero channel noise m checked bits catch the collusion with
    probability 1 - (3/4)^m. Under noise step 6 aborts only above its
    noise threshold, so it catches less.
    """
    return RoundAttack(z_taps={config.inner_attack.target + 1: 0.5})


def run_collusion(
    config: Optional[CollusionConfig],
    session: SessionConfig,
    trials: int,
) -> CollusionReport:
    """Measure collusion detection statistics over independent sessions.

    Each trial is one single-attempt session seeded by
    ``child_seed(master, trial)``; ``child_seeds`` derives those seeds as
    arrays, and all the sessions run as one ``run_sessions`` call, which
    plays their rounds together. The colluders disclose their modes and
    results to the server out of band, which does not change what the
    honest checks see. Returns the session abort fraction and the pooled
    per-checked-bit failure rate, read from the sessions' verdict and
    ``step6_failures`` columns: no ``SessionOutcome`` is built.
    """
    if trials < MIN_ESTIMATE_TRIALS:
        raise ValueError(f"need at least {MIN_ESTIMATE_TRIALS} trials for stable estimates")
    sessions = run_sessions(
        replace(attacked(session, config), max_attempts=1),
        child_seeds(session.seed, trials),
    )
    aborted = trials - int(np.count_nonzero(sessions.ended(Verdict.COMPLETED)))
    # sessions that reach step 6 check secret_bits positions each
    failures = sessions.stat("step6_failures")
    checked_bits = len(failures) * session.secret_bits
    per_bit = int(failures.sum()) / checked_bits if checked_bits else 0.0
    return CollusionReport(
        detection_rate_overall=aborted / trials,
        per_bit_rate=per_bit,
        sessions=trials,
        checked_bits=checked_bits,
    )
