"""Participant state machines and the session driver.

One session distributes an m-bit secret from the dealer to n agents with a
fully quantum but untrusted server in the middle. Per round the server
prepares an (n+1)-particle GHZ state and sends one particle to each
participant; everyone independently picks Check (measure straight away) or
Share (Hadamard, then measure) mode. After enough rounds the modes are
disclosed, rounds are classified, pattern checks run on the check rounds,
and the all-Share rounds become raw key bits. A sacrificial parity check
over m random raw positions then guards the key that encrypts the secret.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import sqrt
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from . import branch
from .channel import ClassicalLog, Interceptor, QubitChannel, broadcast, transmit
from .ghz import GhzSpec, prepare, sample_specs
from .statevec import derived_rng, measure_after_hadamard, measure_z

if TYPE_CHECKING:
    from .adversary import CollectiveAttackConfig


class Mode(enum.Enum):
    CHECK = "check"
    SHARE = "share"


class RoundCase(enum.Enum):
    CASE1 = "case1"      # everyone shared: contributes raw key bits
    CASE2 = "case2"      # everyone checked: full-pattern check
    CASE3 = "case3"      # two or more checked: subset-pattern check
    DISCARD = "discard"  # exactly one checker: uninformative, thrown away


class Verdict(enum.Enum):
    COMPLETED = "completed"
    ABORTED_STEP5 = "aborted_step5"
    ABORTED_STEP6 = "aborted_step6"


class IndeterminateCheckError(RuntimeError):
    """No check-eligible rounds were available; the session must restart."""


class InsufficientRawKeyError(RuntimeError):
    """Fewer raw key bits than the checks and shadows require; gather more rounds."""


def participant_labels(n_agents: int) -> tuple[str, ...]:
    """Dealer-first labels matching the ordering of modes/results vectors."""
    return ("dealer",) + tuple(f"agent{i}" for i in range(1, n_agents + 1))


@dataclass(frozen=True)
class RoundRecord:
    """Everything one round produced, ordered dealer first, then agents."""

    round_index: int
    spec: GhzSpec
    modes: tuple[Mode, ...]
    results: tuple[int, ...]
    classification: "RoundCase"
    probe_outcome: Optional[int] = None


@dataclass(frozen=True)
class RoundAttack:
    """What an adversary does to a session's rounds, as data both engines read.

    ``collective`` replaces the server's preparation with the probe-entangled
    state of that attack; the server reads the probe back after the
    participants measure. ``z_taps`` Z-measures a transmission in transit at
    the given rate: rate 1 taps every round, and a lower rate first spends
    one draw on its schedule. ``interceptors`` are arbitrary callables on the
    dense state, applied after channel noise and before a Z tap; a round
    with any of them runs on the dense engine. Taps and interceptors are
    keyed by particle position (1 = dealer, 1+i = agent i).
    """

    collective: Optional["CollectiveAttackConfig"] = None
    z_taps: Mapping[int, float] = field(default_factory=dict)
    interceptors: Mapping[int, Interceptor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for position, rate in self.z_taps.items():
            if position < 1:
                raise ValueError("tap positions are 1-based")
            if not 0.0 < rate <= 1.0:
                raise ValueError(f"tap rate must be in (0, 1], got {rate}")


_NO_ATTACK = RoundAttack()


@dataclass(frozen=True)
class SessionConfig:
    """Run parameters; every random draw derives from ``seed``."""

    n_agents: int = 3
    secret_bits: int = 16
    epsilon: float = 0.0
    abort_threshold: Optional[float] = None
    seed: int = 0
    rounds_per_batch: Optional[int] = None
    attack: Optional[RoundAttack] = None
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.n_agents < 2:
            raise ValueError("need at least 2 agents")
        if self.secret_bits < 1:
            raise ValueError("secret must have at least 1 bit")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")

    @property
    def particle_count(self) -> int:
        return self.n_agents + 1

    @property
    def batch_size(self) -> int:
        # double the bare minimum so one batch usually suffices: the
        # minimal round count only yields the needed 2m raw bits on average
        if self.rounds_per_batch is not None:
            return self.rounds_per_batch
        return self.secret_bits * (1 << (self.n_agents + 2))

    @property
    def base_threshold(self) -> float:
        return self.epsilon if self.abort_threshold is None else self.abort_threshold


def effective_threshold(base_rate: float, checked: int) -> float:
    """Abort bound: expected rate plus three binomial standard deviations.

    A bare comparison against the noise rate would abort on ordinary
    fluctuation at finite sample sizes; at zero noise this reduces to
    "any error aborts".
    """
    if checked <= 0:
        return base_rate
    return base_rate + 3.0 * sqrt(base_rate * (1.0 - base_rate) / checked)


# --- round execution ---------------------------------------------------------


def build_channels(config: SessionConfig) -> dict[int, QubitChannel]:
    """One channel per particle position, with attack taps installed."""
    interceptors = config.attack.interceptors if config.attack else {}
    return {
        particle: QubitChannel(config.epsilon, interceptors.get(particle))
        for particle in range(1, config.particle_count + 1)
    }


def round_engine(channels: Mapping[int, QubitChannel]) -> str:
    """``"dense"`` when a channel carries a custom interceptor, else ``"branch"``.

    An interceptor may do anything to the state vector, so only the dense
    engine can run it; everything else the protocol and the modelled
    attacks do keeps a round on the exact branch engine.
    """
    for channel in channels.values():
        if channel.interceptor is not None:
            return "dense"
    return "branch"


def _round_modes(
    count: int, rng, forced_modes: Optional[Sequence[Mode]]
) -> tuple[Mode, ...]:
    if forced_modes is not None:
        if len(forced_modes) != count:
            raise ValueError(f"expected {count} forced modes, got {len(forced_modes)}")
        return tuple(forced_modes)
    draws = rng.random(size=count).tolist()
    return tuple([Mode.SHARE if draw < 0.5 else Mode.CHECK for draw in draws])


def _tap_fires(z_taps: Mapping[int, float], particle: int, rng) -> bool:
    rate = z_taps.get(particle)
    return rate is not None and (rate >= 1.0 or rng.random() < rate)


def run_round(
    config: SessionConfig,
    spec: GhzSpec,
    rng,
    channels: Mapping[int, QubitChannel],
    round_index: int = 0,
    forced_modes: Optional[Sequence[Mode]] = None,
    log: Optional[ClassicalLog] = None,
) -> RoundRecord:
    """Execute one full distribution round.

    The server prepares the state (or the adversary's substitute), the
    dealer receives and measures particle 1 and acknowledges, then each
    agent receives and measures in turn. Noise and attacks do not raise
    here; they surface later as check failures.

    The round runs on the exact branch engine (``mqss.branch``) unless
    ``round_engine(channels)`` is ``"dense"``; ``run_round_dense`` makes the
    same draws in the same order, so both give the same record.
    """
    if round_engine(channels) == "dense":
        return run_round_dense(
            config, spec, rng, channels, round_index, forced_modes, log
        )
    q = _checked_qubits(config, spec)
    attack = config.attack or _NO_ATTACK
    if attack.collective is None:
        kets, width = branch.ghz_kets(spec), q
    else:
        kets, width = branch.probe_kets(spec, attack.collective), q + 1

    modes = _round_modes(q, rng, forced_modes)
    taps = attack.z_taps
    results = []
    for position, mode in enumerate(modes):
        particle = position + 1
        mask = branch.particle_mask(width, particle)
        epsilon = channels[particle].epsilon
        if epsilon > 0.0 and rng.random() < epsilon:
            kets = branch.flip(kets, mask)
        if taps and _tap_fires(taps, particle, rng):
            _, kets, _ = branch.measure_z(kets, mask, rng)
        if mode is Mode.SHARE:
            outcome, kets, _ = branch.measure_after_hadamard(kets, mask, rng)
        else:
            outcome, kets, _ = branch.measure_z(kets, mask, rng)
        results.append(outcome)
        if position == 0 and log is not None:
            broadcast(log, "dealer", {"round": round_index, "ack": True})

    probe_outcome = None
    if width > q:
        probe_outcome, _, _ = branch.measure_z(
            kets, branch.particle_mask(width, width), rng
        )
    return RoundRecord(
        round_index=round_index,
        spec=spec,
        modes=modes,
        results=tuple(results),
        classification=classify_round(modes),
        probe_outcome=probe_outcome,
    )


def run_round_dense(
    config: SessionConfig,
    spec: GhzSpec,
    rng,
    channels: Mapping[int, QubitChannel],
    round_index: int = 0,
    forced_modes: Optional[Sequence[Mode]] = None,
    log: Optional[ClassicalLog] = None,
) -> RoundRecord:
    """``run_round`` on the dense state-vector engine.

    It is the oracle the branch engine is tested against, and the engine
    for rounds whose channels carry custom interceptors.
    """
    q = _checked_qubits(config, spec)
    attack = config.attack or _NO_ATTACK
    if attack.collective is None:
        state = prepare(spec)
    else:
        state = branch.to_state(
            branch.probe_kets(spec, attack.collective), q + 1, register_qubits=1
        )

    modes = _round_modes(q, rng, forced_modes)
    results = []
    for position, mode in enumerate(modes):
        particle = position + 1
        channel = channels[particle]
        if channel.epsilon > 0.0 or channel.interceptor is not None:
            state = transmit(channel, state, particle, rng)
        if _tap_fires(attack.z_taps, particle, rng):
            _, state, _ = measure_z(state, particle, rng)
        if mode is Mode.SHARE:
            outcome, state, _ = measure_after_hadamard(state, particle, rng)
        else:
            outcome, state, _ = measure_z(state, particle, rng)
        results.append(outcome)
        if position == 0 and log is not None:
            broadcast(log, "dealer", {"round": round_index, "ack": True})

    probe_outcome = None
    if state.register_qubits:
        probe_outcome, _, _ = measure_z(state, state.qubit_count, rng)
    return RoundRecord(
        round_index=round_index,
        spec=spec,
        modes=modes,
        results=tuple(results),
        classification=classify_round(modes),
        probe_outcome=probe_outcome,
    )


def _checked_qubits(config: SessionConfig, spec: GhzSpec) -> int:
    if spec.qubit_count != config.particle_count:
        raise ValueError(
            f"spec has {spec.qubit_count} particles, expected {config.particle_count}"
        )
    return spec.qubit_count


def classify_round(modes: Sequence[Mode]) -> RoundCase:
    """Table the round by how many participants checked.

    A single checker is discarded outright: the lone unmeasured-by-Hadamard
    particle ends up in an X-basis state, so its Z result carries nothing.
    """
    checks = modes.count(Mode.CHECK)
    if checks == 0:
        return RoundCase.CASE1
    if checks == len(modes):
        return RoundCase.CASE2
    if checks >= 2:
        return RoundCase.CASE3
    return RoundCase.DISCARD


def _pattern_mismatch(results: Sequence[int], reference: Sequence[int]) -> int:
    """Hamming distance to the nearer of the reference pattern / complement."""
    direct = sum(1 for r, x in zip(results, reference) if r != x)
    return min(direct, len(reference) - direct)


def check_case2(record: RoundRecord, spec: GhzSpec) -> bool:
    """Full-pattern check: all results must read the pattern or its complement."""
    if record.classification is not RoundCase.CASE2:
        raise ValueError("check_case2 requires an all-Check round")
    return _pattern_mismatch(record.results, spec.bits) == 0


def check_case3(record: RoundRecord, spec: GhzSpec) -> bool:
    """Subset check over the checkers' positions; sharers' results are ignored."""
    if record.classification is not RoundCase.CASE3:
        raise ValueError("check_case3 requires a round with two or more checkers")
    positions = [i for i, m in enumerate(record.modes) if m is Mode.CHECK]
    results = [record.results[i] for i in positions]
    reference = [spec.bits[i] for i in positions]
    return _pattern_mismatch(results, reference) == 0


# --- sifting and verification -------------------------------------------------


def sift(
    records: Sequence[RoundRecord], announced_specs: Sequence[GhzSpec]
) -> tuple[tuple[int, ...], ...]:
    """Raw keys (dealer first) from the all-Share rounds.

    Each agent keeps their measured bit. The dealer folds the announced
    phase bit into hers so the parity relation between her key and the
    agents' keys holds for every announced state, not only phase-0 ones.
    """
    if len(announced_specs) < len(records):
        raise ValueError("announced specs must cover every record")
    keys: Optional[list[list[int]]] = None
    for record, spec in zip(records, announced_specs):
        if record.classification is not RoundCase.CASE1:
            continue
        if keys is None:
            keys = [[] for _ in record.results]
        keys[0].append(record.results[0] ^ spec.phase)
        for i, bit in enumerate(record.results[1:], start=1):
            keys[i].append(bit)
    if keys is None:
        return ()
    return tuple(tuple(k) for k in keys)


@dataclass(frozen=True)
class Step5Report:
    error_rate: float
    mismatches: int
    checked_positions: int
    round_failures: int
    checked_rounds: int
    threshold: float
    passed: bool


def verify_step5(
    records: Sequence[RoundRecord],
    announced_specs: Sequence[GhzSpec],
    base_threshold: float = 0.0,
) -> Step5Report:
    """Pattern verification over the check rounds.

    The error rate is measured per checked position (Hamming distance to
    the nearer of pattern/complement), which is the unit the noise-rate
    threshold is calibrated in; whole-round pass/fail counts are also
    reported.
    """
    if len(announced_specs) < len(records):
        raise ValueError("announced specs must cover every record")
    mismatches = 0
    positions_checked = 0
    round_failures = 0
    checked_rounds = 0
    for record, spec in zip(records, announced_specs):
        if record.classification is RoundCase.CASE2:
            positions = range(len(record.results))
        elif record.classification is RoundCase.CASE3:
            positions = [i for i, m in enumerate(record.modes) if m is Mode.CHECK]
        else:
            continue
        results = [record.results[i] for i in positions]
        reference = [spec.bits[i] for i in positions]
        distance = _pattern_mismatch(results, reference)
        mismatches += distance
        positions_checked += len(results)
        checked_rounds += 1
        if distance > 0:
            round_failures += 1
    if positions_checked == 0:
        raise IndeterminateCheckError("no check-mode rounds available")
    error_rate = mismatches / positions_checked
    threshold = effective_threshold(base_threshold, positions_checked)
    return Step5Report(
        error_rate=error_rate,
        mismatches=mismatches,
        checked_positions=positions_checked,
        round_failures=round_failures,
        checked_rounds=checked_rounds,
        threshold=threshold,
        passed=error_rate <= threshold,
    )


@dataclass(frozen=True)
class Step6Report:
    check_positions: tuple[int, ...]
    error_rate: float
    failures: int
    threshold: float
    passed: bool
    remaining_keys: tuple[tuple[int, ...], ...]


def verify_step6(
    raw_keys: Sequence[Sequence[int]],
    secret_bits: int,
    rng,
    base_threshold: float = 0.0,
) -> Step6Report:
    """Sacrificial parity check over randomly chosen raw key positions.

    The dealer announces m random positions; everyone announces their bits
    there and each position must satisfy dealer = XOR of all agents. The
    checked positions are burned from every key, whatever the verdict.
    """
    lengths = {len(k) for k in raw_keys}
    if len(lengths) != 1:
        raise ValueError("raw keys must all have the same length")
    available = lengths.pop()
    if available < 2 * secret_bits:
        raise InsufficientRawKeyError(
            f"need {2 * secret_bits} raw bits, have {available}"
        )
    chosen = rng.choice(available, size=secret_bits, replace=False)
    check_positions = tuple(sorted(int(p) for p in chosen))
    failures = 0
    for p in check_positions:
        agent_parity = 0
        for key in raw_keys[1:]:
            agent_parity ^= key[p]
        if raw_keys[0][p] != agent_parity:
            failures += 1
    error_rate = failures / secret_bits
    threshold = effective_threshold(base_threshold, secret_bits)
    burn = set(check_positions)
    remaining = tuple(
        tuple(bit for i, bit in enumerate(key) if i not in burn) for key in raw_keys
    )
    return Step6Report(
        check_positions=check_positions,
        error_rate=error_rate,
        failures=failures,
        threshold=threshold,
        passed=error_rate <= threshold,
        remaining_keys=remaining,
    )


@dataclass(frozen=True)
class SharingResult:
    shadow_keys: tuple[tuple[int, ...], ...]  # dealer first, then agents
    ciphertext: tuple[int, ...]
    reconstructed: tuple[int, ...]


def finalize_and_share(
    raw_keys_after_check: Sequence[Sequence[int]],
    secret_bits: int,
    secret: Sequence[int],
) -> SharingResult:
    """Cut shadows, publish the masked secret, and reconstruct it.

    The dealer's shadow masks the secret; XOR-ing the ciphertext with every
    agent's shadow recovers it, and nothing less than all of them does.
    """
    if len(secret) != secret_bits:
        raise ValueError(f"secret must have {secret_bits} bits")
    for key in raw_keys_after_check:
        if len(key) < secret_bits:
            raise InsufficientRawKeyError(
                f"need {secret_bits} shadow bits, have {len(key)}"
            )
    shadows = tuple(tuple(key[:secret_bits]) for key in raw_keys_after_check)
    ciphertext = tuple(s ^ k for s, k in zip(secret, shadows[0]))
    reconstructed = combine_shadows(ciphertext, shadows[1:])
    return SharingResult(shadows, ciphertext, reconstructed)


def combine_shadows(
    ciphertext: Sequence[int], shadows: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """XOR a set of agent shadows into the ciphertext (a recovery attempt)."""
    out = list(ciphertext)
    for shadow in shadows:
        out = [c ^ s for c, s in zip(out, shadow)]
    return tuple(out)


# --- session driver -----------------------------------------------------------


@dataclass(frozen=True)
class SessionStats:
    rounds_used: int
    case1_rounds: int
    case2_rounds: int
    case3_rounds: int
    discarded_rounds: int
    step5_error_rate: Optional[float]
    step5_round_failures: Optional[int]
    step5_checked_rounds: Optional[int]
    step6_error_rate: Optional[float]
    step6_failures: Optional[int]
    attempts: int

    @property
    def raw_bits_per_round(self) -> float:
        return self.case1_rounds / self.rounds_used if self.rounds_used else 0.0

    @property
    def case_frequencies(self) -> dict[str, float]:
        total = self.rounds_used or 1
        return {
            RoundCase.CASE1.value: self.case1_rounds / total,
            RoundCase.CASE2.value: self.case2_rounds / total,
            RoundCase.CASE3.value: self.case3_rounds / total,
            RoundCase.DISCARD.value: self.discarded_rounds / total,
        }


@dataclass(frozen=True)
class SessionOutcome:
    verdict: Verdict
    stats: SessionStats
    secret: Optional[tuple[int, ...]] = None
    raw_keys: Optional[tuple[tuple[int, ...], ...]] = None
    shadow_keys: Optional[tuple[tuple[int, ...], ...]] = None
    ciphertext: Optional[tuple[int, ...]] = None
    reconstructed: Optional[tuple[int, ...]] = None
    records: Optional[tuple[RoundRecord, ...]] = None
    engine: str = "branch"  # round_engine() of the session's channels


_MAX_BATCHES = 64


def run_session(
    config: SessionConfig,
    secret: Optional[Sequence[int]] = None,
    collect_records: bool = False,
) -> SessionOutcome:
    """Run a full session, restarting on abort up to ``config.max_attempts``.

    Deterministic given the config: every attempt draws from a generator
    derived from (seed, attempt index). Returns the final attempt's outcome;
    a non-completed verdict after the retry cap means the session failed.
    """
    outcome = None
    for attempt in range(config.max_attempts):
        rng = derived_rng(config.seed, attempt)
        outcome = _run_attempt(config, rng, secret, collect_records, attempt + 1)
        if outcome.verdict is Verdict.COMPLETED:
            break
    return outcome


def _case_counts(records: Sequence[RoundRecord]) -> dict[RoundCase, int]:
    counts = {case: 0 for case in RoundCase}
    for record in records:
        counts[record.classification] += 1
    return counts


def _stats(
    records: Sequence[RoundRecord],
    step5: Optional[Step5Report],
    step6: Optional[Step6Report],
    attempts: int,
) -> SessionStats:
    counts = _case_counts(records)
    return SessionStats(
        rounds_used=len(records),
        case1_rounds=counts[RoundCase.CASE1],
        case2_rounds=counts[RoundCase.CASE2],
        case3_rounds=counts[RoundCase.CASE3],
        discarded_rounds=counts[RoundCase.DISCARD],
        step5_error_rate=step5.error_rate if step5 else None,
        step5_round_failures=step5.round_failures if step5 else None,
        step5_checked_rounds=step5.checked_rounds if step5 else None,
        step6_error_rate=step6.error_rate if step6 else None,
        step6_failures=step6.failures if step6 else None,
        attempts=attempts,
    )


def _run_attempt(
    config: SessionConfig,
    rng,
    secret: Optional[Sequence[int]],
    collect_records: bool,
    attempt: int,
) -> SessionOutcome:
    q = config.particle_count
    m = config.secret_bits
    channels = build_channels(config)
    engine = round_engine(channels)
    log = ClassicalLog()
    records: list[RoundRecord] = []
    specs: list[GhzSpec] = []

    case1 = 0
    batches = 0
    while case1 < 2 * m:
        if batches >= _MAX_BATCHES:
            raise RuntimeError("could not gather enough key rounds")
        # full batch first; smaller top-ups cover any raw-bit shortfall
        batch = config.batch_size if batches == 0 else max(config.batch_size // 4, 8)
        for spec in sample_specs(rng, batch, q):
            record = run_round(
                config, spec, rng, channels, round_index=len(records), log=log
            )
            records.append(record)
            specs.append(spec)
            if record.classification is RoundCase.CASE1:
                case1 += 1
        batches += 1

    broadcast(log, "tp", {"announced_specs": len(specs)})
    try:
        step5 = verify_step5(records, specs, config.base_threshold)
    except IndeterminateCheckError:
        return SessionOutcome(
            verdict=Verdict.ABORTED_STEP5,
            stats=_stats(records, None, None, attempt),
            records=tuple(records) if collect_records else None,
            engine=engine,
        )
    if not step5.passed:
        return SessionOutcome(
            verdict=Verdict.ABORTED_STEP5,
            stats=_stats(records, step5, None, attempt),
            records=tuple(records) if collect_records else None,
            engine=engine,
        )

    raw_keys = sift(records, specs)
    step6 = verify_step6(raw_keys, m, rng, config.base_threshold)
    broadcast(log, "dealer", {"check_positions": step6.check_positions})
    if not step6.passed:
        return SessionOutcome(
            verdict=Verdict.ABORTED_STEP6,
            stats=_stats(records, step5, step6, attempt),
            raw_keys=raw_keys,
            records=tuple(records) if collect_records else None,
            engine=engine,
        )

    if secret is None:
        secret_vec = tuple(int(b) for b in rng.integers(0, 2, size=m))
    else:
        secret_vec = tuple(int(b) for b in secret)
    sharing = finalize_and_share(step6.remaining_keys, m, secret_vec)
    broadcast(log, "dealer", {"ciphertext": sharing.ciphertext})

    return SessionOutcome(
        verdict=Verdict.COMPLETED,
        stats=_stats(records, step5, step6, attempt),
        secret=secret_vec,
        raw_keys=raw_keys,
        shadow_keys=sharing.shadow_keys,
        ciphertext=sharing.ciphertext,
        reconstructed=sharing.reconstructed,
        records=tuple(records) if collect_records else None,
        engine=engine,
    )


def run_rounds(
    config: SessionConfig,
    n_rounds: int,
    rng=None,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> list[RoundRecord]:
    """Round statistics mode: execute rounds with no sifting or key steps."""
    if rng is None:
        rng = derived_rng(config.seed, 0)
    channels = build_channels(config)
    records = []
    for index, spec in enumerate(sample_specs(rng, n_rounds, config.particle_count)):
        records.append(
            run_round(
                config, spec, rng, channels,
                round_index=index, forced_modes=forced_modes,
            )
        )
    return records
