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
from functools import lru_cache
from itertools import repeat
from math import sqrt
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from . import branch
from .channel import ClassicalLog, Interceptor, acknowledge, broadcast
from .ghz import GhzSpec, prepare, sample_patterns
from .statevec import (
    MAX_QUBITS,
    PAULI_X,
    apply_gate,
    derived_rng,
    measure_after_hadamard,
    measure_z,
)

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


class BatchLimitError(RuntimeError):
    """An attempt played its last batch of rounds short of the raw key it needs."""


@dataclass(frozen=True)
class RoundRecord:
    """One played round, dealer first: a row that ``RoundBatch.records()`` exports."""

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
    one draw on its schedule, then takes its measurement draw whether or
    not it fires. ``interceptors`` are arbitrary callables on the
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
    seed: int = 0
    attack: Optional[RoundAttack] = None
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.n_agents < 2:
            raise ValueError("need at least 2 agents")
        if self.n_agents + 1 > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS - 1} agents supported")
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
        return self.secret_bits << (self.n_agents + 2)


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


def round_engine(config: SessionConfig) -> str:
    """``"dense"`` when the attack carries a custom interceptor, else ``"branch"``.

    An interceptor may do anything to the state vector, so only the dense
    engine can run it; everything else the protocol and the modelled
    attacks do keeps a round on the exact branch engine.
    """
    attack = config.attack
    return "dense" if attack is not None and attack.interceptors else "branch"


@dataclass(frozen=True, eq=False)
class RoundBatch:
    """Played rounds: one row per round, columns dealer first.

    The one in-memory form of played rounds. The server's announced states
    are arrays too: ``bits`` holds each round's pattern and ``phases`` its
    phase bit. The step-5 check, sifting and the case tally read these
    arrays; ``records()`` exports the rows as ``RoundRecord``s, and
    ``specs`` the states as ``GhzSpec``s, for transcripts and callers that
    ask for them.
    """

    bits: np.ndarray  # R x q booleans: the announced pattern bits
    phases: np.ndarray  # R uint8: the announced phase bits
    share: np.ndarray  # R x q booleans: the participant chose Share mode
    results: np.ndarray  # R x q measurement results
    probe: Optional[np.ndarray] = None  # R probe readouts (collective attack)

    @classmethod
    def from_specs(cls, specs, share, results, probe=None) -> "RoundBatch":
        """A batch whose row i announced ``specs[i]``."""
        share = np.asarray(share, dtype=bool)
        return cls(*_spec_arrays(specs, share.shape[1]), share, np.asarray(results), probe)

    @classmethod
    def join(cls, batches: Sequence["RoundBatch"]) -> "RoundBatch":
        """The batches' rows in order, as one batch."""
        probes = [batch.probe for batch in batches]
        return cls(
            *(
                np.concatenate([getattr(batch, name) for batch in batches])
                for name in ("bits", "phases", "share", "results")
            ),
            None if probes[0] is None else np.concatenate(probes),
        )

    def __len__(self) -> int:
        return len(self.share)

    def select(self, rows) -> "RoundBatch":
        """The rows where ``rows`` is set, as a batch."""
        probe = None if self.probe is None else self.probe[rows]
        return RoundBatch(
            self.bits[rows], self.phases[rows], self.share[rows], self.results[rows], probe
        )

    @property
    def specs(self) -> list[GhzSpec]:
        """The announced states, one ``GhzSpec`` per row."""
        q = self.bits.shape[1]
        codes = (self.bits @ (1 << np.arange(q))).tolist()
        return [_spec_of(code, phase, q) for code, phase in zip(codes, self.phases.tolist())]

    def records(self) -> list[RoundRecord]:
        """One ``RoundRecord`` per row, numbered from 0."""
        q = self.share.shape[1]
        codes = self.share @ (1 << np.arange(q))
        probes = self.probe.tolist() if self.probe is not None else repeat(None)
        records = []
        for index, (spec, code, results, probe) in enumerate(
            zip(self.specs, codes.tolist(), self.results.tolist(), probes)
        ):
            modes, case = _modes_and_case(code, q)
            records.append(RoundRecord(index, spec, modes, tuple(results), case, probe))
        return records


def _spec_arrays(specs: Sequence[GhzSpec], q: int) -> tuple[np.ndarray, np.ndarray]:
    """The specs' patterns (R x q booleans) and phase bits (R uint8)."""
    bits = np.array([spec.bits for spec in specs], dtype=bool).reshape(len(specs), q)
    return bits, np.array([spec.phase for spec in specs], dtype=np.uint8)


@lru_cache(maxsize=1 << 12)
def _spec_of(code: int, phase: int, q: int) -> GhzSpec:
    # bit j of code set: particle j + 1's pattern bit is 1
    return GhzSpec(tuple(code >> j & 1 for j in range(q)), phase)


@lru_cache(maxsize=1 << 12)
def _modes_and_case(code: int, q: int) -> tuple[tuple[Mode, ...], RoundCase]:
    # bit j of code set: participant j chose Share
    modes = tuple(Mode.SHARE if code >> j & 1 else Mode.CHECK for j in range(q))
    return modes, classify_round(modes)


# rows played per engine call: bounds a batch's draw array and engine arrays
_CHUNK_ROWS = 1 << 16


def play_rounds(
    config: SessionConfig,
    specs: Sequence[GhzSpec],
    rng,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> RoundBatch:
    """Execute one full distribution round per spec, in order.

    ``play_patterns`` of the specs' patterns and phase bits, for callers
    that hold ``GhzSpec``s: ``run_round``, the tests and the dense oracle's
    checks.
    """
    q = config.particle_count
    for spec in specs:
        if spec.qubit_count != q:
            raise ValueError(f"spec has {spec.qubit_count} particles, expected {q}")
    return play_patterns(config, *_spec_arrays(specs, q), rng, forced_modes)


def play_patterns(
    config: SessionConfig,
    bits: np.ndarray,
    phases: np.ndarray,
    rng,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> RoundBatch:
    """Execute one full distribution round per row of announced states.

    Row i is the GHZ state with pattern ``bits[i]`` (R x q booleans) and
    phase bit ``phases[i]``. Per round the server prepares the state (or
    the adversary's substitute), then each participant, dealer first,
    receives and measures their particle. Noise and attacks do not raise
    here; they surface later as check failures.

    The rounds run together on the exact branch engine (``mqss.branch``)
    unless ``round_engine(config)`` is ``"dense"``, which plays them one
    after another. Either way each round takes the same draws in the same
    order: the mode draws, then per particle the noise draw, any tap's
    schedule and measurement draws and the owner's measurement draw, and
    last the probe draw. So every round of a batch takes the same number of
    draws, and both engines give the same rounds and leave ``rng`` in the
    same state. The rows are played ``_CHUNK_ROWS`` at a time; split
    row-major draws are the same numbers as one call, so the chunk size
    changes no round.
    """
    q = config.particle_count
    if np.shape(bits) != (len(phases), q):
        raise ValueError(f"expected {len(phases)} x {q} pattern bits, got {np.shape(bits)}")
    forced = None
    if forced_modes is not None:
        if len(forced_modes) != q:
            raise ValueError(f"expected {q} forced modes, got {len(forced_modes)}")
        forced = np.array([mode is Mode.SHARE for mode in forced_modes])
    return RoundBatch.join(list(_play_chunks(config, bits, phases, rng, forced)))


def _play_chunks(config: SessionConfig, bits, phases, rng, forced):
    """The rows played in order, as batches of at most ``_CHUNK_ROWS`` rows."""
    play = _play_dense if round_engine(config) == "dense" else _play_on_branches
    # an empty batch still plays one empty chunk, which draws nothing
    for start in range(0, max(len(bits), 1), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        share, results, probe = play(config, bits[rows], phases[rows], rng, forced)
        yield RoundBatch(bits[rows], phases[rows], share, results, probe)


def run_round(
    config: SessionConfig,
    spec: GhzSpec,
    rng,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> RoundRecord:
    """Execute one full distribution round: ``play_rounds`` of one spec."""
    return play_rounds(config, [spec], rng, forced_modes).records()[0]


def _play_on_branches(config: SessionConfig, bits, phases, rng, forced):
    q = config.particle_count
    attack = config.attack or _NO_ATTACK
    epsilon = config.epsilon
    # the column of each draw in a round's row, in the order the walk takes
    # them: per particle noise, tap schedule, tap and measurement (None where
    # the round takes no such draw), then the probe
    steps = []
    width = q if forced is None else 0
    for particle in range(1, q + 1):
        noise = schedule = tap = None
        rate = attack.z_taps.get(particle)
        if epsilon > 0.0:
            noise, width = width, width + 1
        if rate is not None and rate < 1.0:
            schedule, width = width, width + 1
        if rate is not None:
            tap, width = width, width + 1
        steps.append((noise, schedule, rate, tap, width))
        width += 1
    probe_column, width = width, width + (attack.collective is not None)
    rounds = len(bits)
    draws = rng.random(size=(rounds, width))

    share = draws[:, :q] < 0.5 if forced is None else np.broadcast_to(forced, (rounds, q))
    pairs = branch.BranchPairs.ghz(bits, phases, attack.collective)
    for column, (noise, schedule, rate, tap, measure) in enumerate(steps):
        if noise is not None:
            pairs.flip(column, draws[:, noise] < epsilon)
        if tap is not None:
            fired = None if schedule is None else draws[:, schedule] < rate
            pairs.tap(column, draws[:, tap], fired)
        pairs.measure(column, share[:, column], draws[:, measure])
    probe = None
    if attack.collective is not None:
        probe = pairs.read_probe(draws[:, probe_column])[0].astype(np.uint8)
    return share, pairs.results, probe


def _play_dense(config: SessionConfig, bits, phases, rng, forced):
    # one round after another: an interceptor draws from rng itself
    q = config.particle_count
    attack = config.attack or _NO_ATTACK
    epsilon, taps, interceptors = config.epsilon, attack.z_taps, attack.interceptors
    rounds = len(bits)
    share = np.zeros((rounds, q), dtype=bool)
    results = np.zeros((rounds, q), dtype=np.uint8)
    probe = None if attack.collective is None else np.zeros(rounds, dtype=np.uint8)
    for row, (pattern, phase) in enumerate(zip(bits.tolist(), phases.tolist())):
        spec = GhzSpec(tuple(pattern), phase)
        if attack.collective is None:
            state = prepare(spec)
        else:
            kets = branch.probe_kets(spec, attack.collective)
            state = branch.to_state(kets, q + 1, register_qubits=1)
        share[row] = rng.random(size=q) < 0.5 if forced is None else forced
        for particle in range(1, q + 1):
            if epsilon > 0.0 and rng.random() < epsilon:
                state = apply_gate(state, particle, PAULI_X)
            hook = interceptors.get(particle)
            if hook is not None:
                state = hook(state, particle, rng)
            rate = taps.get(particle)
            if rate is not None:
                if rate >= 1.0 or rng.random() < rate:
                    _, state, _ = measure_z(state, particle, rng)
                else:
                    rng.random()  # an idle tap still takes its measurement draw
            measure = measure_after_hadamard if share[row, particle - 1] else measure_z
            results[row, particle - 1], state, _ = measure(state, particle, rng)
        if probe is not None:
            probe[row], _, _ = measure_z(state, q + 1, rng)
    return share, results, probe


def classify_round(modes: Sequence[Mode]) -> RoundCase:
    """Table the round by how many participants checked.

    A single checker is discarded outright: the lone unmeasured-by-Hadamard
    particle ends up in an X-basis state, so its Z result carries nothing.
    """
    return _case_of(modes.count(Mode.CHECK), len(modes))


def _case_of(checks: int, participants: int) -> RoundCase:
    """The case of a round with ``checks`` checkers among ``participants``."""
    if checks == 0:
        return RoundCase.CASE1
    if checks == participants:
        return RoundCase.CASE2
    if checks >= 2:
        return RoundCase.CASE3
    return RoundCase.DISCARD


# --- sifting and verification -------------------------------------------------


def sift(batch: RoundBatch) -> tuple[tuple[int, ...], ...]:
    """Raw keys (dealer first) from the all-Share rounds.

    Each agent keeps their measured bit. The dealer folds the announced
    phase bit into hers so the parity relation between her key and the
    agents' keys holds for every announced state, not only phase-0 ones.
    """
    case1 = batch.share.all(axis=1)
    if not case1.any():
        return ()
    keys = batch.results[case1]
    keys[:, 0] ^= batch.phases[case1]
    return tuple(map(tuple, keys.T.tolist()))


@dataclass(frozen=True)
class Step5Report:
    error_rate: float
    mismatches: int
    checked_positions: int
    round_failures: int
    checked_rounds: int
    threshold: float
    passed: bool


def verify_step5(batch: RoundBatch, base_threshold: float = 0.0) -> Step5Report:
    """Pattern verification over the rounds with two or more checkers.

    A round passes when its checkers' results match the announced pattern
    or its complement there; sharers' results are ignored. The error rate
    is measured per checked position (Hamming distance to the nearer of
    pattern/complement), the unit the noise-rate threshold is calibrated
    in; whole-round pass/fail counts are also reported.
    """
    return _step5_report(_step5_sums(batch), base_threshold)


def _step5_sums(batch: RoundBatch) -> np.ndarray:
    """Mismatches, checked positions, failed rounds and checked rounds.

    Sums over rows, so a batch played in chunks adds up its chunks' sums.
    """
    checkers = ~batch.share
    checks = checkers.sum(axis=1)
    direct = ((batch.results != batch.bits) & checkers).sum(axis=1)
    checked = checks >= 2
    distance = np.minimum(direct, checks - direct)[checked]
    return np.array(
        [distance.sum(), checks[checked].sum(), np.count_nonzero(distance), len(distance)]
    )


def _step5_report(sums: np.ndarray, base_threshold: float) -> Step5Report:
    mismatches, positions_checked, round_failures, checked_rounds = sums.tolist()
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
    engine: str = "branch"  # round_engine() of the session's config
    log: Optional[ClassicalLog] = None  # what the attempt broadcast


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


def case_counts(batch: RoundBatch) -> dict[str, int]:
    """Rounds per case, keyed by ``RoundCase`` value; every case is present."""
    return _cases(_checker_counts(batch))


def _checker_counts(batch: RoundBatch) -> np.ndarray:
    """Rounds per number of checkers, 0 to q."""
    q = batch.share.shape[1]
    return np.bincount(q - batch.share.sum(axis=1), minlength=q + 1)


def _cases(per_checks: np.ndarray) -> dict[str, int]:
    q = len(per_checks) - 1
    counts = {case.value: 0 for case in RoundCase}
    for checks, rounds in enumerate(per_checks.tolist()):
        counts[_case_of(checks, q).value] += rounds
    return counts


def _stats(
    per_checks: np.ndarray,
    step5: Optional[Step5Report],
    step6: Optional[Step6Report],
    attempts: int,
) -> SessionStats:
    counts = _cases(per_checks)
    return SessionStats(
        rounds_used=int(per_checks.sum()),
        case1_rounds=counts[RoundCase.CASE1.value],
        case2_rounds=counts[RoundCase.CASE2.value],
        case3_rounds=counts[RoundCase.CASE3.value],
        discarded_rounds=counts[RoundCase.DISCARD.value],
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
    """One attempt, its batches played and tallied ``_CHUNK_ROWS`` rows at a time.

    Of the played rounds it keeps the rounds per checker count, the step-5
    sums and the all-Share rows that sifting reads, and every row only when
    records are asked for.
    """
    q = config.particle_count
    m = config.secret_bits
    per_checks = np.zeros(q + 1, dtype=np.int64)  # per_checks[0]: case-1 rounds
    step5_sums = np.zeros(4, dtype=np.int64)
    case1: list[RoundBatch] = []
    played: list[RoundBatch] = []

    batches = 0
    while per_checks[0] < 2 * m:
        if batches >= _MAX_BATCHES:
            raise BatchLimitError(
                f"{_MAX_BATCHES} batches of rounds gave {per_checks[0]} of {2 * m} raw key bits"
            )
        # full batch first; smaller top-ups cover any raw-bit shortfall
        size = config.batch_size if not batches else max(config.batch_size // 4, 8)
        batches += 1
        bits, phases = sample_patterns(rng, size, q, _CHUNK_ROWS)
        for chunk in _play_chunks(config, bits, phases, rng, None):
            per_checks += _checker_counts(chunk)
            step5_sums += _step5_sums(chunk)
            case1.append(chunk.select(chunk.share.all(axis=1)))
            if collect_records:
                played.append(chunk)

    rounds = int(per_checks.sum())
    log = ClassicalLog()
    acknowledge(log, "dealer", rounds)
    broadcast(log, "tp", {"announced_specs": rounds})
    records = tuple(RoundBatch.join(played).records()) if collect_records else None

    def outcome(verdict, step5=None, step6=None, **fields) -> SessionOutcome:
        return SessionOutcome(
            verdict=verdict,
            stats=_stats(per_checks, step5, step6, attempt),
            records=records,
            engine=round_engine(config),
            log=log,
            **fields,
        )

    try:
        step5 = _step5_report(step5_sums, config.epsilon)
    except IndeterminateCheckError:
        return outcome(Verdict.ABORTED_STEP5)
    if not step5.passed:
        return outcome(Verdict.ABORTED_STEP5, step5)

    raw_keys = sift(RoundBatch.join(case1))
    step6 = verify_step6(raw_keys, m, rng, config.epsilon)
    broadcast(log, "dealer", {"check_positions": step6.check_positions})
    if not step6.passed:
        return outcome(Verdict.ABORTED_STEP6, step5, step6, raw_keys=raw_keys)

    if secret is None:
        secret_vec = tuple(int(b) for b in rng.integers(0, 2, size=m))
    else:
        secret_vec = tuple(int(b) for b in secret)
    sharing = finalize_and_share(step6.remaining_keys, m, secret_vec)
    broadcast(log, "dealer", {"ciphertext": sharing.ciphertext})
    return outcome(
        Verdict.COMPLETED,
        step5,
        step6,
        secret=secret_vec,
        raw_keys=raw_keys,
        shadow_keys=sharing.shadow_keys,
        ciphertext=sharing.ciphertext,
        reconstructed=sharing.reconstructed,
    )


def run_rounds(config: SessionConfig, n_rounds: int, rng=None) -> RoundBatch:
    """Round statistics mode: execute rounds with no sifting or key steps."""
    if rng is None:
        rng = derived_rng(config.seed, 0)
    bits, phases = sample_patterns(rng, n_rounds, config.particle_count, _CHUNK_ROWS)
    return play_patterns(config, bits, phases, rng)
