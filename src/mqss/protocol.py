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

import copy
import enum
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import repeat
from math import sqrt
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

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
    keyed by particle position (1 = dealer, 1+i = agent i); the session
    config refuses a position past its last particle.
    """

    collective: Optional["CollectiveAttackConfig"] = None
    z_taps: Mapping[int, float] = field(default_factory=dict)
    interceptors: Mapping[int, Interceptor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(position < 1 for position in (*self.z_taps, *self.interceptors)):
            raise ValueError("tap and interceptor positions are 1-based")
        for rate in self.z_taps.values():
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        attack, q = self.attack or _NO_ATTACK, self.particle_count
        # a tap or interceptor past the last particle would never fire
        for position in (*attack.z_taps, *attack.interceptors):
            if position > q:
                raise ValueError(f"attack position {position} is past particle {q}")

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
    attacks do keeps a round on the exact branch engine. ``_play_rows`` is
    its one caller here; a user can ask it before a run.
    """
    attack = config.attack
    return "dense" if attack is not None and attack.interceptors else "branch"


@dataclass(frozen=True, eq=False)
class RoundBatch:
    """Played rounds: one row per round, columns dealer first.

    The one in-memory form of played rounds. The server's announced states
    are arrays too: ``bits`` holds each round's pattern and ``phases`` its
    phase bit. The step-5 check, sifting, the case tally and transcripts
    read these arrays; ``records()`` exports the rows as ``RoundRecord``s,
    and ``specs`` the states as ``GhzSpec``s, for callers that ask for
    them. Batches are equal when they hold the same rows.
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
        """The batches' rows in order, as one batch; one batch is its own join."""
        if len(batches) == 1:
            return batches[0]
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, RoundBatch):
            return NotImplemented
        # the same rows: equal arrays, and a probe on both or on neither
        return all(
            mine is theirs if mine is None or theirs is None else np.array_equal(mine, theirs)
            for mine, theirs in (
                (getattr(self, name), getattr(other, name))
                for name in ("bits", "phases", "share", "results", "probe")
            )
        )

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
_CHUNK_ROWS = 1 << 12


def play_rounds(
    config: SessionConfig,
    specs: Sequence[GhzSpec],
    rng,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> RoundBatch:
    """Execute one full distribution round per spec, in order.

    Per round the server prepares the announced state (or the adversary's
    substitute), then each participant, dealer first, receives and
    measures their particle; ``forced_modes`` fixes every round's modes in
    place of the mode draws. Noise and attacks do not raise here; they
    surface later as check failures. The rounds play through ``_play_rows``
    like every other round of the package.
    """
    q = config.particle_count
    for spec in specs:
        if spec.qubit_count != q:
            raise ValueError(f"spec has {spec.qubit_count} particles, expected {q}")
    return _play_batch(config, rng, [_spec_arrays(specs, q)], forced_modes)


def run_round(
    config: SessionConfig,
    spec: GhzSpec,
    rng,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> RoundRecord:
    """Execute one full distribution round: ``play_rounds`` of one spec."""
    return play_rounds(config, [spec], rng, forced_modes).records()[0]


def run_rounds(
    config: SessionConfig,
    n_rounds: int,
    rng=None,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> RoundBatch:
    """Round statistics mode: execute rounds with no sifting or key steps.

    The server draws the rounds' states as ``sample_patterns`` does, and
    the rounds play as ``play_rounds`` plays them.
    """
    if rng is None:
        rng = derived_rng(config.seed, 0)
    blocks = _pattern_blocks(rng, n_rounds, config.particle_count)
    return _play_batch(config, rng, blocks, forced_modes)


def _play_batch(config: SessionConfig, rng, blocks, forced_modes) -> RoundBatch:
    """The (bits, phases) ``blocks`` of rows played on ``rng``, as one batch."""
    q = config.particle_count
    forced = None
    if forced_modes is not None:
        if len(forced_modes) != q:
            raise ValueError(f"expected {q} forced modes, got {len(forced_modes)}")
        forced = np.array([mode is Mode.SHARE for mode in forced_modes])
    chunks = []
    _play_rows(config, [(rng, lambda _: blocks)], lambda chunk, *_: chunks.append(chunk), forced)
    return RoundBatch.join([chunk.batch for chunk in chunks])


class _Chunk(NamedTuple):
    """A played chunk of rows: every row's modes, and what played of them."""

    share: np.ndarray  # R x q booleans: the participant chose Share
    case1: np.ndarray  # R booleans: every participant chose Share
    batch: Optional[RoundBatch]  # every row, when every row played
    keys: Optional[np.ndarray] = None  # else the case1 rows' raw key rows
    flips: Optional[np.ndarray] = None  # and the noise flips, None at epsilon 0


def _play_rows(config: SessionConfig, jobs, sink, forced=None, keys_only=False) -> None:
    """Play every job's rows: the one driver all played rounds go through.

    A job is a pair (rng, blocks): ``blocks(shared)`` yields the job's
    (bits, phases) blocks of rows in draw order, and ``shared()`` counts
    the all-Share rows among the job's rows drawn so far, which is what a
    session's top-ups read. Jobs draw one after another, each from its own
    ``rng``, and each round takes the same draws in the same order on
    either engine: the mode draws, then per particle the noise draw, any
    interceptor's, any tap's schedule and measurement draws and the owner's
    measurement draw, and last the probe draw.

    On the branch engine a row's draws are taken as the row is packed into
    a chunk of at most ``_CHUNK_ROWS`` rows, and each chunk, whatever jobs
    its rows come from, plays in one ``BranchPairs`` pass. Split row-major
    draws are the same numbers as one call, so the chunk size changes no
    round. With ``keys_only`` that pass plays only the all-Share rows; every
    other row is tallied from its draws, since each of its checkers reads
    the one surviving branch, off its announced bit exactly where a noise
    flip hit it. On the dense engine (``round_engine``) each block plays
    round by round as it arrives, because an interceptor draws from the
    job's generator itself, and every row plays. ``sink(chunk, owners,
    starts)`` receives each played ``_Chunk``, whose rows from ``starts[i]``
    on are job ``owners[i]``'s.
    """
    q = config.particle_count
    dense = round_engine(config) == "dense"
    width = _draw_columns(config, forced)[2]
    pieces, rows = [], 0  # the chunk being packed: (owner, bits, phases, draws, share, case1)
    for owner, (rng, blocks) in enumerate(jobs):
        shared = 0
        for bits, phases in blocks(lambda: shared):
            if dense:
                batch = RoundBatch(bits, phases, *_play_dense(config, bits, phases, rng, forced))
                chunk = _Chunk(batch.share, batch.share.all(axis=1), batch)
                shared += np.count_nonzero(chunk.case1)
                sink(chunk, [owner], [0])
                continue
            while True:  # one piece per chunk the block reaches; an empty block is one piece
                take = min(len(bits), _CHUNK_ROWS - rows)
                draws = rng.random(size=(take, width))
                if forced is None:
                    share = draws[:, :q] < 0.5
                    case1 = share.all(axis=1)
                else:
                    share = np.broadcast_to(forced, (take, q))
                    case1 = np.broadcast_to(forced.all(), take)
                shared += np.count_nonzero(case1)
                pieces.append((owner, bits[:take], phases[:take], draws, share, case1))
                bits, phases, rows = bits[take:], phases[take:], rows + take
                if rows == _CHUNK_ROWS:
                    _play_packed(config, pieces, sink, forced, keys_only)
                    pieces, rows = [], 0
                if not len(bits):
                    break
    if pieces:
        _play_packed(config, pieces, sink, forced, keys_only)


def _play_packed(config: SessionConfig, pieces, sink, forced, keys_only) -> None:
    """Play (owner, bits, phases, draws, share, case1) pieces as one chunk and sink it."""
    owners, *columns = map(list, zip(*pieces))
    # one piece plays as it is: a copy would cost a fresh chunk-sized allocation
    bits, phases, draws, share, case1 = (
        np.concatenate(arrays) if len(arrays) > 1 else arrays[0] for arrays in columns
    )
    starts = np.cumsum([0] + [len(piece[1]) for piece in pieces[:-1]])
    if not keys_only:
        results, probe = _play_on_branches(config, bits, phases, draws, share, forced)
        sink(_Chunk(share, case1, RoundBatch(bits, phases, share, results, probe)), owners, starts)
        return
    results = np.zeros((0, config.particle_count), dtype=np.uint8)
    if case1.any():  # most chunks of a wide session hold no all-Share row
        results, _ = _play_on_branches(
            config, bits[case1], phases[case1], draws[case1], share[case1], forced
        )
    flips = None
    if config.epsilon > 0.0:
        noise = [steps[0] for steps in _draw_columns(config, forced)[0]]
        flips = draws[:, noise] < config.epsilon
    keys = _key_rows(results, phases[case1])
    sink(_Chunk(share, case1, None, keys, flips), owners, starts)


def _draw_columns(config: SessionConfig, forced):
    """Where a round's draws sit in its row of ``rng.random`` draws.

    Per particle, in the order the walk takes them: the noise, tap schedule
    and tap columns (None where the round takes no such draw) and the
    measurement column; then the probe column, and the row's width. Unforced
    rounds start with one mode column per particle.
    """
    attack = config.attack or _NO_ATTACK
    q = config.particle_count
    steps = []
    width = q if forced is None else 0
    for particle in range(1, q + 1):
        noise = schedule = tap = None
        rate = attack.z_taps.get(particle)
        if config.epsilon > 0.0:
            noise, width = width, width + 1
        if rate is not None and rate < 1.0:
            schedule, width = width, width + 1
        if rate is not None:
            tap, width = width, width + 1
        steps.append((noise, schedule, rate, tap, width))
        width += 1
    return steps, width, width + (attack.collective is not None)


def _play_on_branches(config: SessionConfig, bits, phases, draws, share, forced):
    """Play rows on the branch engine: row i's modes are ``share[i]``, its draws ``draws[i]``.

    Returns the results and, under the collective attack, the probe readouts.
    """
    attack = config.attack or _NO_ATTACK
    steps, probe_column, _ = _draw_columns(config, forced)
    pairs = branch.BranchPairs.ghz(bits, phases, attack.collective)
    for column, (noise, schedule, rate, tap, measure) in enumerate(steps):
        if noise is not None:
            pairs.flip(column, draws[:, noise] < config.epsilon)
        if tap is not None:
            fired = None if schedule is None else draws[:, schedule] < rate
            pairs.tap(column, draws[:, tap], fired)
        pairs.measure(column, share[:, column], draws[:, measure])
    probe = None
    if attack.collective is not None:
        probe = pairs.read_probe(draws[:, probe_column])[0].astype(np.uint8)
    return pairs.results, probe


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
    """Table the round by how many participants checked: ``case_table``."""
    return case_table(len(modes))[modes.count(Mode.CHECK)]


@lru_cache(maxsize=None)
def case_table(q: int) -> tuple[RoundCase, ...]:
    """The case of a round with 0 to q checkers among q participants, by count.

    The one statement of the rule every classification reads. A single
    checker is discarded outright: the lone unmeasured-by-Hadamard particle
    ends up in an X-basis state, so its Z result carries nothing.
    """
    return tuple(
        RoundCase.CASE1 if checks == 0
        else RoundCase.CASE2 if checks == q
        else RoundCase.CASE3 if checks >= 2
        else RoundCase.DISCARD
        for checks in range(q + 1)
    )


# --- sifting and verification -------------------------------------------------


def sift(batch: RoundBatch) -> tuple[tuple[int, ...], ...]:
    """Raw keys (dealer first) from the all-Share rounds.

    Each agent keeps their measured bit. The dealer folds the announced
    phase bit into hers so the parity relation between her key and the
    agents' keys holds for every announced state, not only phase-0 ones.
    """
    case1 = batch.share.all(axis=1)
    keys = _key_rows(batch.results[case1], batch.phases[case1])
    return tuple(map(tuple, keys.T.tolist())) if len(keys) else ()


def _key_rows(results: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """All-Share rows' results as raw key rows, each phase folded into the dealer's in place."""
    results[:, 0] ^= phases
    return results


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
    sums = _segment_sums(batch.share, batch.results != batch.bits, [0])
    return _step5_report(sums[0, -4:], base_threshold)


def _segment_sums(share: np.ndarray, wrong: Optional[np.ndarray], starts) -> np.ndarray:
    """Sums over segments of rows, one row of sums per start row.

    ``share`` marks the participants who chose Share and ``wrong`` the
    results off their announced pattern bits, read at checkers only; None
    marks none. Played rows pass ``results != bits``, unplayed rows their
    noise flips: a checker reads the one surviving branch, pattern or
    complement, so a row's distance to the nearer of the two, min(F, k - F)
    for F flips among k checkers, is the same either way.

    A segment runs from its start to the next one's, the last to the end.
    Per segment: the rounds per number of checkers, 0 to q, then the step-5
    sums (mismatches, checked positions, failed rounds, checked rounds).
    Sums add, so rounds played in pieces add up their pieces' sums.
    """
    rounds, q = share.shape
    if not rounds:
        return np.zeros((len(starts), q + 5), dtype=np.int64)
    checkers = ~share
    checks = checkers.sum(axis=1)
    direct = 0 if wrong is None else (wrong & checkers).sum(axis=1)
    checked = checks >= 2
    distance = np.minimum(direct, checks - direct) * checked
    segment = np.repeat(np.arange(len(starts)), np.diff(starts, append=rounds))
    per_checks = np.bincount(segment * (q + 1) + checks, minlength=len(starts) * (q + 1))
    step5 = np.column_stack((distance, checks * checked, distance > 0, checked))
    return np.hstack((per_checks.reshape(-1, q + 1), np.add.reduceat(step5, starts)))


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
    keys = np.asarray(raw_keys, dtype=np.uint8)  # ragged keys raise ValueError here
    if keys.ndim != 2:
        raise ValueError("raw keys must all have the same length")
    available = keys.shape[1]
    if available < 2 * secret_bits:
        raise InsufficientRawKeyError(
            f"need {2 * secret_bits} raw bits, have {available}"
        )
    chosen = np.sort(rng.choice(available, size=secret_bits, replace=False))
    # a position passes when the dealer's bit equals the agents' XOR
    failures = int(np.count_nonzero(np.bitwise_xor.reduce(keys[:, chosen], axis=0)))
    error_rate = failures / secret_bits
    threshold = effective_threshold(base_threshold, secret_bits)
    kept = np.ones(available, dtype=bool)
    kept[chosen] = False
    return Step6Report(
        check_positions=tuple(chosen.tolist()),
        error_rate=error_rate,
        failures=failures,
        threshold=threshold,
        passed=error_rate <= threshold,
        remaining_keys=tuple(map(tuple, keys[:, kept].tolist())),
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
    rounds: Optional[RoundBatch] = None  # the attempt's rows, when records are asked for
    log: Optional[ClassicalLog] = None  # what the attempt broadcast


_MAX_BATCHES = 64


def run_session(
    config: SessionConfig,
    secret: Optional[Sequence[int]] = None,
    collect_records: bool = False,
) -> SessionOutcome:
    """Run a full session, restarting on abort up to ``config.max_attempts``.

    ``run_sessions`` of the one seed ``config.seed``: deterministic given
    the config, every attempt drawing from a generator derived from (seed,
    attempt index). Returns the final attempt's outcome; a non-completed
    verdict after the retry cap means the session failed.
    """
    return run_sessions(config, [config.seed], secret, collect_records)[0]


def run_sessions(
    config: SessionConfig,
    seeds: Sequence[int],
    secret: Optional[Sequence[int]] = None,
    collect_records: bool = False,
) -> list[SessionOutcome]:
    """Run one session per seed, each ``config`` with that seed, in seed order.

    A session's outcome depends on its seed alone: attempt k draws from
    ``derived_rng(seed, k)`` exactly what the session run on its own draws,
    in the same order. The sessions' rounds are played together, one
    ``_play_rows`` job per attempt, so on the branch engine every attempt's
    rows share chunks of at most ``_CHUNK_ROWS`` rows; then each attempt's
    checks run on its own generator. Retries run as a further pass over the
    sessions that aborted. A ``secret`` is checked before any round plays.
    """
    if secret is not None and (
        len(secret) != config.secret_bits or any(bit not in (0, 1) for bit in secret)
    ):
        raise ValueError(f"secret must be {config.secret_bits} bits, each 0 or 1")
    outcomes: list[SessionOutcome] = [None] * len(seeds)
    pending = range(len(seeds))
    for attempt in range(config.max_attempts):
        if not pending:
            break
        rngs = [derived_rng(seeds[trial], attempt) for trial in pending]
        played = _Played(len(rngs), config.particle_count, collect_records)
        jobs = [(rng, partial(_attempt_blocks, config, rng)) for rng in rngs]
        _play_rows(config, jobs, played.add, keys_only=not collect_records)
        for index, (trial, rng) in enumerate(zip(pending, rngs)):
            outcomes[trial] = _finish_attempt(config, played, index, rng, secret, attempt + 1)
        pending = [trial for trial in pending if outcomes[trial].verdict is not Verdict.COMPLETED]
    return outcomes


def case_counts(batch: RoundBatch) -> dict[str, int]:
    """Rounds per case, keyed by ``RoundCase`` value; every case is present."""
    tally = _case_tally(_segment_sums(batch.share, None, [0])[0, :-4].tolist())
    return {case.value: rounds for case, rounds in zip(RoundCase, tally)}


_CASE_ORDER = tuple(RoundCase)


def _case_tally(per_checks: list[int]) -> list[int]:
    """Rounds per case in ``RoundCase`` order, from rounds per checker count 0 to q."""
    tally = [0] * len(_CASE_ORDER)
    for case, rounds in zip(case_table(len(per_checks) - 1), per_checks):
        tally[_CASE_ORDER.index(case)] += rounds  # by identity: no Enum hashing
    return tally


def _stats(
    per_checks: list[int],
    step5: Optional[Step5Report],
    step6: Optional[Step6Report],
    attempts: int,
) -> SessionStats:
    case1, case2, case3, discarded = _case_tally(per_checks)
    return SessionStats(
        rounds_used=sum(per_checks),
        case1_rounds=case1,
        case2_rounds=case2,
        case3_rounds=case3,
        discarded_rounds=discarded,
        step5_error_rate=step5.error_rate if step5 else None,
        step5_round_failures=step5.round_failures if step5 else None,
        step5_checked_rounds=step5.checked_rounds if step5 else None,
        step6_error_rate=step6.error_rate if step6 else None,
        step6_failures=step6.failures if step6 else None,
        attempts=attempts,
    )


class _Played:
    """What a pass keeps of each attempt's played rows.

    Per attempt: its ``_segment_sums`` (rounds per checker count and the
    step-5 sums), the raw key rows of its all-Share rounds, and every row
    when records are asked for.
    """

    def __init__(self, attempts: int, q: int, collect_records: bool) -> None:
        self.sums = np.zeros((attempts, q + 5), dtype=np.int64)
        self.keys: list[list[np.ndarray]] = [[] for _ in range(attempts)]
        self.rows = [[] for _ in range(attempts)] if collect_records else None

    def add(self, chunk: _Chunk, owners: Sequence[int], starts) -> None:
        """Tally a played chunk whose rows from ``starts[i]`` on are attempt ``owners[i]``'s."""
        batch, case1 = chunk.batch, chunk.case1
        if batch is None:
            wrong, keys = chunk.flips, chunk.keys
        else:
            wrong = batch.results != batch.bits
            keys = _key_rows(batch.results[case1], batch.phases[case1])
        sums = _segment_sums(chunk.share, wrong, starts)
        np.add.at(self.sums, owners, sums)
        # the key rows come in row order, sums[:, 0] of them per segment
        ends = np.cumsum(sums[:, 0]).tolist()
        for owner, start, end in zip(owners, [0, *ends], ends):
            self.keys[owner].append(keys[start:end])
        if self.rows is not None:
            for owner, start, end in zip(owners, starts, [*starts[1:], len(batch)]):
                self.rows[owner].append(batch.select(slice(start, end)))


def _attempt_blocks(config: SessionConfig, rng, raw_bits):
    """An attempt's pattern blocks, batch after batch until ``raw_bits()`` reaches 2m.

    A batch of ``config.batch_size`` rows comes first; smaller top-ups
    cover any raw-bit shortfall.
    """
    need = 2 * config.secret_bits
    batches = 0
    while raw_bits() < need:
        if batches >= _MAX_BATCHES:
            raise BatchLimitError(
                f"{_MAX_BATCHES} batches of rounds gave {raw_bits()} of {need} raw key bits"
            )
        size = config.batch_size if not batches else max(config.batch_size // 4, 8)
        yield from _pattern_blocks(rng, size, config.particle_count)
        batches += 1


def _pattern_blocks(rng, size: int, q: int):
    """A batch's pattern bits and phases, in blocks of at most ``_CHUNK_ROWS`` rows.

    The same bits and phases ``sample_patterns`` draws, leaving ``rng`` in
    the same state. A batch of more rows never holds all its pattern bits:
    ``rng`` draws past them and draws the phases, and a copy of it taken
    before draws each block's bits again when the block is asked for.
    """
    if size <= _CHUNK_ROWS:
        yield sample_patterns(rng, size, q)
        return
    starts = range(0, size, _CHUNK_ROWS)
    rows = [min(_CHUNK_ROWS, size - start) for start in starts]
    replay = np.random.Generator(copy.deepcopy(rng.bit_generator))
    for count in rows:
        rng.integers(0, 2, size=(count, q))
    phases = np.empty(size, dtype=np.uint8)
    for start, count in zip(starts, rows):
        phases[start : start + count] = rng.integers(0, 2, size=count)
    for start, count in zip(starts, rows):
        yield replay.integers(0, 2, size=(count, q)).astype(bool), phases[start : start + count]


def _finish_attempt(
    config: SessionConfig,
    played: _Played,
    index: int,
    rng,
    secret: Optional[Sequence[int]],
    attempt: int,
) -> SessionOutcome:
    """Steps 5 and 6 and the sharing of the attempt at ``index`` of ``played``."""
    m = config.secret_bits
    per_checks = played.sums[index, :-4].tolist()
    played_rounds = sum(per_checks)
    log = ClassicalLog()
    acknowledge(log, "dealer", played_rounds)
    broadcast(log, "tp", {"announced_specs": played_rounds})
    rounds = None if played.rows is None else RoundBatch.join(played.rows[index])

    def outcome(verdict, step5=None, step6=None, **fields) -> SessionOutcome:
        return SessionOutcome(
            verdict=verdict,
            stats=_stats(per_checks, step5, step6, attempt),
            rounds=rounds,
            log=log,
            **fields,
        )

    try:
        step5 = _step5_report(played.sums[index, -4:], config.epsilon)
    except IndeterminateCheckError:
        return outcome(Verdict.ABORTED_STEP5)
    if not step5.passed:
        return outcome(Verdict.ABORTED_STEP5, step5)

    keys = np.concatenate(played.keys[index]).T
    raw_keys = tuple(map(tuple, keys.tolist()))
    step6 = verify_step6(keys, m, rng, config.epsilon)
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
