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
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate
from math import isnan
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

import numpy as np

from . import branch, streams
from .channel import Interceptor
from .ghz import GhzSpec, prepare
from .statevec import MAX_QUBITS, PAULI_X, apply_gate, measure_after_hadamard, measure_z
from .streams import BLOCK_ROWS, check_draws, derived_rng, derived_rngs, pattern_blocks

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
    """One played round, dealer first: only ``run_round`` and ``read_transcript`` build one."""

    round_index: int
    spec: GhzSpec
    modes: tuple[Mode, ...]
    results: tuple[int, ...]
    classification: "RoundCase"
    probe_outcome: Optional[int] = None


class _Frozen(dict):
    """A dict that refuses changes and hashes, so that a config holding one can key a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("an attack's positions are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):  # pickle and copy rebuild it whole, never item by item
        return _Frozen, (dict(self),)


@dataclass(frozen=True)
class RoundAttack:
    """What an adversary does to a session's rounds, as data both engines read.

    ``collective`` replaces the server's preparation with the probe-entangled
    state of that attack; the server reads the probe back after the
    participants measure. ``z_taps`` Z-measures a transmission in transit at
    the given rate: rate 1 taps every round, and a lower rate first spends
    one draw on its schedule, then takes its measurement draw whether or
    not it fires. ``interceptors`` are arbitrary callables on the dense
    state, applied after channel noise and before a Z tap. Each spends one
    draw of its round whether or not it draws, and may take that one draw
    from the generator it is handed; a config with any of them plays on the
    dense engine. Taps and interceptors are keyed by particle position
    (1 = dealer, 1+i = agent i); the session config refuses a position past
    its last particle. Both are read-only and hash.
    """

    collective: Optional["CollectiveAttackConfig"] = None
    z_taps: Mapping[int, float] = field(default_factory=dict)
    interceptors: Mapping[int, Interceptor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("z_taps", "interceptors"):  # a float position raises: it would never fire
            keyed = ((operator.index(at), value) for at, value in getattr(self, name).items())
            object.__setattr__(self, name, _Frozen(keyed))
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
        for name in ("n_agents", "secret_bits", "seed", "max_attempts"):  # a float or str raises
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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
        # a row is all-Share with probability 2^-(n+1), so the batch yields the 2m
        # raw bits an attempt needs only on average: about half of attempts top up
        return self.secret_bits << (self.n_agents + 2)


def effective_threshold(base_rate: float, checked):
    """Abort bound: expected rate plus three binomial standard deviations.

    A bare comparison against the noise rate would abort on ordinary
    fluctuation at finite sample sizes; at zero noise this reduces to
    "any error aborts". An array of counts gives an array of bounds, one count a float.
    """
    if not 0.0 <= base_rate <= 1.0:
        raise ValueError(f"base rate must be in [0, 1], got {base_rate}")
    counts = np.asarray(checked)  # no count checked divides by 1 and drops the spread
    spread = np.sqrt(base_rate * (1.0 - base_rate) / np.maximum(counts, 1)) * (counts > 0)
    bounds = base_rate + 3.0 * spread
    return bounds if counts.ndim else float(bounds)


# --- round execution ---------------------------------------------------------


def round_engine(config: SessionConfig) -> str:
    """``"dense"`` when the attack carries a custom interceptor, else ``"branch"``.

    An interceptor may do anything to the state vector, so only the dense
    engine can run it; everything else the protocol and the modelled
    attacks do keeps a round on the exact branch engine. A session shape's
    plan asks it once; a user can ask it before a run.
    """
    attack = config.attack
    return "dense" if attack is not None and attack.interceptors else "branch"


class _Plan(NamedTuple):
    """What rounds of one session shape play and are checked by: all but the seed.

    ``steps`` holds, per particle in the order a round takes them, the
    columns of its row of ``width`` draws: noise, interceptor (where a
    rate-1 tap's would sit), tap schedule and tap (None where the round
    takes no such draw), the tap's rate, and the measurement. Unforced rows
    start with one mode column per particle; a probe's column is the last.
    """

    forced: Optional[np.ndarray]  # every round's Share choices; None where rounds draw them
    steps: tuple
    width: int
    dense: bool  # the kernel, by ``round_engine``
    tally: np.ndarray  # ``_tally_matrix``
    step6_threshold: float


def _plan(config: SessionConfig, forced_modes: Optional[Sequence[Mode]] = None) -> _Plan:
    """The plan of ``config``'s shape: its fields but seed and max_attempts, and forced modes."""
    forced = None if forced_modes is None else tuple(mode is Mode.SHARE for mode in forced_modes)
    return _shape_plan(config.n_agents, config.secret_bits, config.epsilon, config.attack, forced)


@lru_cache(maxsize=64)  # bounded: each new interceptor callable is a new shape
def _shape_plan(n_agents, secret_bits, epsilon, attack, forced) -> _Plan:
    shape = SessionConfig(n_agents, secret_bits, epsilon, attack=attack)
    attack, q = attack or _NO_ATTACK, shape.particle_count
    if forced is not None and len(forced) != q:
        raise ValueError(f"expected {q} forced modes, got {len(forced)}")
    steps, width = [], q if forced is None else 0
    for particle in range(1, q + 1):
        noise = hook = schedule = tap = None
        rate = attack.z_taps.get(particle)
        if epsilon > 0.0:
            noise, width = width, width + 1
        if particle in attack.interceptors:
            hook, width = width, width + 1
        if rate is not None and rate < 1.0:
            schedule, width = width, width + 1
        if rate is not None:
            tap, width = width, width + 1
        steps.append((noise, hook, schedule, rate, tap, width))
        width += 1
    return _Plan(
        None if forced is None else np.frombuffer(bytes(forced), dtype=bool),  # read-only
        tuple(steps), width + (attack.collective is not None),
        round_engine(shape) == "dense", _tally_matrix(q), effective_threshold(epsilon, secret_bits),
    )


@dataclass(frozen=True, eq=False)
class RoundBatch:
    """Played rounds: one row per round, columns dealer first.

    The one in-memory form of played rounds. The server's announced states
    are arrays too: ``bits`` holds each round's pattern and ``phases`` its
    phase bit. The step-5 check, sifting, the case tally and transcripts
    read these arrays; a ``RoundRecord`` exists only as what ``run_round``
    returns and ``read_transcript`` parses. Batches are equal when they
    hold the same rows.
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


def _spec_arrays(specs: Sequence[GhzSpec], q: int) -> tuple[np.ndarray, np.ndarray]:
    """The specs' patterns (R x q booleans) and phase bits (R uint8)."""
    bits = np.array([spec.bits for spec in specs], dtype=bool).reshape(len(specs), q)
    return bits, np.array([spec.phase for spec in specs], dtype=np.uint8)


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
    """Execute one full distribution round: ``play_rounds`` of one spec, as its record."""
    batch = play_rounds(config, [spec], rng, forced_modes)
    modes = tuple(Mode.SHARE if share else Mode.CHECK for share in batch.share[0].tolist())
    probe = None if batch.probe is None else int(batch.probe[0])
    case = case_table(len(modes))[modes.count(Mode.CHECK)]
    return RoundRecord(0, spec, modes, tuple(batch.results[0].tolist()), case, probe)


def run_rounds(
    config: SessionConfig,
    n_rounds: int,
    rng=None,
    forced_modes: Optional[Sequence[Mode]] = None,
) -> RoundBatch:
    """Round statistics mode: execute rounds with no sifting or key steps.

    The server draws the rounds' states block by block, by ``pattern_blocks``'
    rule, each block before its rows' draws, and the rounds play as
    ``play_rounds`` plays them. A generator on ``MT19937`` is refused.
    """
    if rng is None:
        rng = derived_rng(config.seed, 0)
    streams.refuse_32_bit_words(rng)
    blocks = pattern_blocks([rng], n_rounds, config.particle_count)
    return _play_batch(config, rng, blocks, forced_modes)


def _play_batch(config: SessionConfig, rng, blocks, forced_modes) -> RoundBatch:
    """The (bits, phases) ``blocks`` of rows played on ``rng``, as one batch."""
    plan, chunks, shared = _plan(config, forced_modes), [], np.zeros(1, dtype=np.int64)
    _play_rows(config, [[(0, rng, blocks)]], lambda chunk, *_: chunks.append(chunk), shared, plan)
    return RoundBatch.join([chunk.batch for chunk in chunks])


class _Chunk(NamedTuple):
    """A played chunk of rows: every row's modes, and what played of them."""

    share: np.ndarray  # R x q booleans: the participant chose Share
    shares: np.ndarray  # R int64: how many participants chose Share
    batch: Optional[RoundBatch]  # every row, when every row played
    keys: Optional[np.ndarray] = None  # else the all-Share rows' raw key rows
    flips: Optional[np.ndarray] = None  # and the noise flips, None at epsilon 0


def _play_rows(config: SessionConfig, rounds, sink, shared, plan: _Plan, keys_only=False) -> None:
    """Play every round's rows by ``plan``: the one driver all played rounds go through.

    ``rounds`` yields rounds of (owner, rng, blocks) jobs, where ``blocks``
    yields the job's (bits, phases) blocks in draw order, or is the number
    of rows, the same in a round, whose patterns ``rng`` draws first. A
    round's row of ``rng.random`` draws is taken as it is packed into a
    chunk of at most ``_CHUNK_ROWS`` rows, and its all-Share rows are counted
    into ``shared[owner]`` then, for a session's top-ups. Each chunk plays
    in one ``_play_packed`` call. Jobs draw their pattern bits with one
    ``pattern_blocks`` call per group: the next jobs that fit the room left
    and one block, which draw their rows after all the group's bits, or the
    next job alone, whose blocks' rows fill the chunk and go on in the next.
    Split row-major draws are the same numbers as one call, so the chunk
    size changes no round. ``sink(chunk, owners, lengths)`` receives each
    played ``_Chunk``: ``lengths[0]`` rows of job ``owners[0]``, and so on.
    """
    q, width = config.particle_count, plan.width
    pieces, rows = [], 0  # the chunk being packed, as _play_packed's pieces

    def pack(owners, lengths, bits, phases, draws) -> None:
        nonlocal pieces, rows
        if plan.forced is None:
            share = draws[:, :q] < 0.5
            shares = _row_counts(share)
        else:  # every row takes the forced modes, so one count serves them all
            share = np.broadcast_to(plan.forced, (len(bits), q))
            shares = np.broadcast_to(np.count_nonzero(plan.forced), len(bits))
        case1 = shares == q  # counted by owner: a piece of one owner takes one count
        if len(owners) == 1:
            shared[owners[0]] += np.count_nonzero(case1)
        elif case1.any():
            shared[:] += np.bincount(np.repeat(owners, lengths)[case1], minlength=len(shared))
        pieces.append((owners, lengths, bits, phases, draws, share, shares))
        rows += len(bits)
        if rows == _CHUNK_ROWS:
            _play_packed(config, pieces, sink, plan, keys_only)
            pieces, rows = [], 0

    for jobs in rounds:
        at = 0
        while at < len(jobs):
            owner, rng, blocks = jobs[at]
            group = jobs[at : at + 1]
            if isinstance(blocks, int):  # the next jobs that fit the room left and a block, or one
                size = blocks
                group = jobs[at : at + max(min(_CHUNK_ROWS - rows, BLOCK_ROWS) // size, 1)]
                owners, rngs, _ = zip(*group)
                blocks = pattern_blocks(rngs, size, q)
            at += len(group)
            if len(group) > 1:  # every generator of the group draws its bits before its rows
                bits, phases = next(blocks)
                draws = np.concatenate([rng.random(size=(size, width)) for rng in rngs])
                pack(owners, [size] * len(owners), bits, phases, draws)
                continue
            for bits, phases in blocks:
                while True:  # one piece per chunk the block reaches; an empty block is one piece
                    take = min(len(bits), _CHUNK_ROWS - rows)
                    pack([owner], [take], bits[:take], phases[:take], rng.random((take, width)))
                    bits, phases = bits[take:], phases[take:]
                    if not len(bits):
                        break
    if pieces:
        _play_packed(config, pieces, sink, plan, keys_only)


def _join(arrays: list) -> np.ndarray:
    """The arrays joined along their first axis; one array is its own join, with no copy."""
    return np.concatenate(arrays) if len(arrays) > 1 else arrays[0]


def _play_packed(config: SessionConfig, pieces, sink, plan: _Plan, keys_only) -> None:
    """Play (owners, lengths, bits, phases, draws, share, shares) pieces as one chunk; sink it.

    The one place a kernel is chosen, by the plan. With ``keys_only`` a
    branch chunk plays only its all-Share rows; every other row is tallied
    from its draws, since each of its checkers reads the one surviving
    branch, off its announced bit exactly where a noise flip hit it. An
    interceptor may break that, so a dense chunk plays every row.
    """
    owners = [owner for piece in pieces for owner in piece[0]]
    lengths = [length for piece in pieces for length in piece[1]]
    # one piece plays as it is: a copy would cost a fresh chunk-sized allocation
    bits, phases, draws, share, shares = list(zip(*pieces))[2:]  # the pieces' arrays
    share, shares = _join(share), _join(shares)
    if plan.dense or not keys_only:
        bits, phases, draws = _join(bits), _join(phases), _join(draws)
        kernel = _play_dense if plan.dense else _play_on_branches
        results, probe = kernel(config, bits, phases, draws, share, plan)
        batch = RoundBatch(bits, phases, share, results, probe)
        sink(_Chunk(share, shares, batch), owners, lengths)
        return
    q = config.particle_count
    # each piece gives up only its all-Share rows, so no chunk of draws is joined
    case1 = [(piece[6] == q).nonzero()[0] for piece in pieces]
    bits, phases, case1_draws = (
        _join([array[rows] for array, rows in zip(arrays, case1)])
        for arrays in (bits, phases, draws)
    )
    results = np.zeros((0, q), dtype=np.uint8)
    if len(bits):  # most chunks of a wide session hold no all-Share row
        every_share = np.ones((len(bits), q), dtype=bool)
        results, _ = _play_on_branches(config, bits, phases, case1_draws, every_share, plan)
    flips = None
    if config.epsilon > 0.0:
        noise = [step[0] for step in plan.steps]
        flips = _join([piece_draws[:, noise] < config.epsilon for piece_draws in draws])
    keys = _key_rows(results, phases)
    sink(_Chunk(share, shares, None, keys, flips), owners, lengths)


def _play_on_branches(config: SessionConfig, bits, phases, draws, share, plan: _Plan):
    """Play rows on the branch engine: row i's modes are ``share[i]``, its draws ``draws[i]``.

    Returns the results and, under the collective attack, the probe readouts.
    """
    collective = (config.attack or _NO_ATTACK).collective
    pairs = branch.BranchPairs.ghz(bits, phases, collective)
    for column, (noise, _, schedule, rate, tap, measure) in enumerate(plan.steps):
        if noise is not None:
            pairs.flip(column, draws[:, noise] < config.epsilon)
        if tap is not None:
            fired = None if schedule is None else draws[:, schedule] < rate
            pairs.tap(column, draws[:, tap], fired)
        pairs.measure(column, share[:, column], draws[:, measure])
    probe = None if collective is None else pairs.read_probe(draws[:, -1])[0].astype(np.uint8)
    return pairs.results, probe


class _OneDraw:
    """A generator whose ``random()`` returns one given draw, and raises on a second."""

    def __init__(self, draw: float) -> None:
        self._draws = [draw]

    def random(self) -> float:
        if not self._draws:
            raise RuntimeError("a round's draw column holds one draw, and it was taken")
        return self._draws.pop()


def _play_dense(config: SessionConfig, bits, phases, draws, share, plan: _Plan):
    """Play rows round by round on the dense engine: ``_play_on_branches``' contract.

    Every step of row i, an interceptor too, is handed its column of ``draws[i]`` as a ``_OneDraw``.
    """
    q = config.particle_count
    attack = config.attack or _NO_ATTACK
    results = np.zeros((len(bits), q), dtype=np.uint8)
    probe = None if attack.collective is None else np.zeros(len(bits), dtype=np.uint8)
    rows = zip(bits.tolist(), phases.tolist(), draws.tolist(), share.tolist())
    for row, (pattern, phase, drawn, chose) in enumerate(rows):
        spec = GhzSpec(tuple(pattern), phase)
        if attack.collective is None:
            state = prepare(spec)
        else:
            state = branch.to_state(branch.probe_kets(spec, attack.collective), q + 1)
        for particle, (noise, hook, schedule, rate, tap, column) in enumerate(plan.steps, 1):
            if noise is not None and drawn[noise] < config.epsilon:
                state = apply_gate(state, particle, PAULI_X)
            if hook is not None:
                state = attack.interceptors[particle](state, particle, _OneDraw(drawn[hook]))
            if tap is not None and (schedule is None or drawn[schedule] < rate):
                _, state, _ = measure_z(state, particle, _OneDraw(drawn[tap]))
            measure = measure_after_hadamard if chose[particle - 1] else measure_z
            results[row, particle - 1], state, _ = measure(state, particle, _OneDraw(drawn[column]))
        if probe is not None:
            probe[row] = measure_z(state, q + 1, _OneDraw(drawn[-1]))[0]
    return results, probe


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
    share, q = batch.share, batch.share.shape[1]
    sums = _segment_sums(share, _row_counts(share), batch.results != batch.bits, [len(share)])
    tally = sums @ _tally_matrix(q)
    mismatches, failures, checked, positions = tally[0, 5:].tolist()
    if positions == 0:
        raise IndeterminateCheckError("no check-mode rounds available")
    verdicts = _step5_verdicts(tally[:, 5], tally[:, 8], base_threshold)
    rate, threshold, passed = (column.item() for column in verdicts)
    return Step5Report(rate, mismatches, positions, failures, checked, threshold, passed)


def _segment_sums(share: np.ndarray, shares, wrong: Optional[np.ndarray], lengths) -> np.ndarray:
    """Each segment's rounds per number of checkers, then step 5's mismatches and failed rounds.

    Segments run ``lengths[0]`` rows, then ``lengths[1]`` and so on. ``share``
    marks Share choices, ``shares`` counts them, and ``wrong`` (None for none)
    the results off their pattern bits, read at checkers: played rows pass
    ``results != bits``, unplayed rows their noise flips, as a row's distance
    to the nearer of pattern and complement, min(F, k - F) for F flips among
    k checkers, is the same. Sums add up; ``_tally_matrix`` makes them tallies.
    """
    q = share.shape[1]
    checks = q - shares
    segment = np.arange(len(lengths)).repeat(lengths)
    sums = np.zeros((len(lengths), q + 3), dtype=np.int64)
    cells = segment * (q + 1) + checks
    sums[:, : q + 1] = np.bincount(cells, minlength=len(lengths) * (q + 1)).reshape(-1, q + 1)
    if wrong is not None:  # a row adds the two sums of its checkers and wrong checkers
        cells = cells * (q + 1) + _row_counts(wrong > share)
        per_cell = np.bincount(cells, minlength=len(lengths) * (q + 1) ** 2)
        sums[:, q + 1 :] = per_cell.reshape(len(lengths), -1) @ _distances(q)
    return sums


@lru_cache(maxsize=None)
def _distances(q: int) -> np.ndarray:
    """Row k (q + 1) + f: the mismatches and failed rounds of a round of k checkers, f wrong."""
    checks, wrong = np.divmod(np.arange((q + 1) ** 2), q + 1)
    distance = np.minimum(wrong, checks - wrong)  # 0 below two checkers; no round has f > k
    table = np.stack([distance, distance > 0], axis=1)
    table.flags.writeable = False
    return table


def _row_counts(flags: np.ndarray) -> np.ndarray:
    """The set flags in each row of an R x q boolean matrix, as int64.

    A float32 matrix-vector product, exact for these counts: numpy reduces
    along a short row axis, or multiplies uint8, about twice as slowly.
    """
    return (flags.view(np.uint8) @ np.ones(flags.shape[1], dtype=np.float32)).astype(np.int64)


def _step5_verdicts(mismatches, positions, base_threshold: float) -> tuple[np.ndarray, ...]:
    """Each tally's step-5 error rate, threshold and verdict, as arrays: the one step-5 rule.

    A tally passes when its mismatches per checked position are within
    ``effective_threshold``, never with none checked.
    """
    rates = mismatches / np.maximum(positions, 1)
    thresholds = effective_threshold(base_threshold, positions)
    passed = (positions > 0) & (rates <= thresholds)
    return rates, thresholds, passed


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

    The dealer announces m random positions, drawn by ``check_draws`` with
    one ``rng.random(2m)`` call; everyone announces their bits there and
    each position must satisfy dealer = XOR of all agents. The checked
    positions are burned from every key, whatever the verdict. One attempt
    of the step-6 rule that a session's pass runs on all its attempts.
    """
    if secret_bits < 1:
        raise ValueError("secret must have at least 1 bit")
    _check_parties(raw_keys)
    keys = _bits(raw_keys)  # ragged keys raise ValueError here
    if keys.ndim != 2:
        raise ValueError("raw keys must all have the same length")
    available = keys.shape[1]
    if available < 2 * secret_bits:
        raise InsufficientRawKeyError(
            f"need {2 * secret_bits} raw bits, have {available}"
        )
    picks, _ = check_draws([rng], [available], secret_bits)
    threshold = effective_threshold(base_threshold, secret_bits)
    starts = np.zeros(1, dtype=np.int64)
    chosen, failures, rates, passed, kept = _step6_verdicts(keys.T, starts, picks, threshold)
    return Step6Report(
        tuple(chosen[0].tolist()), rates.item(), failures.item(), threshold, passed.item(),
        tuple(map(tuple, keys[:, kept].tolist())),
    )


def _step6_verdicts(keys: np.ndarray, starts: np.ndarray, picks: np.ndarray, threshold: float):
    """The one step-6 rule: sorted check positions, failures, rates, verdicts and rows kept.

    Attempt i checks the rows ``starts[i] + picks[i]`` of ``keys`` (R x q, dealer first):
    its m positions among its own rows, as ``check_draws`` draws them for ``verify_step6``
    and for every attempt of a pass alike. A row fails where its parity is 1, and burns
    if checked; the bound is ``effective_threshold`` of the noise rate and m.
    """
    chosen = np.sort(picks, axis=1)
    checked = chosen + starts[:, None]
    failures = np.bitwise_xor.reduce(keys[checked], axis=2).sum(axis=1)
    rates = failures / picks.shape[1]
    kept = np.ones(len(keys), dtype=bool)
    kept[checked] = False
    return chosen, failures, rates, rates <= threshold, kept


@dataclass(frozen=True)
class SharingResult:
    """What the sharing makes; a completed ``SessionOutcome`` holds each field by name."""

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
    agent's shadow recovers it, and nothing less than all of them does. One
    attempt of the sharing rule that a session's pass runs on all its attempts.
    """
    _check_secret(secret, secret_bits)
    _check_parties(raw_keys_after_check)
    for key in raw_keys_after_check:
        if len(key) < secret_bits:
            raise InsufficientRawKeyError(
                f"need {secret_bits} shadow bits, have {len(key)}"
            )
    keys = _bits([key[:secret_bits] for key in raw_keys_after_check])
    sharing = _share(keys.T, np.zeros(1, dtype=np.int64), np.array([secret], dtype=np.uint8))
    shadows, *texts = (field[0].tolist() for field in sharing)
    return SharingResult(tuple(map(tuple, shadows)), *map(tuple, texts))


def _share(keys: np.ndarray, starts, secrets: np.ndarray):
    """The one sharing rule: shadows (A x q x m), ciphertexts and reconstructions.

    Attempt i's shadows are the m rows of ``keys`` from ``starts[i]`` on; ``secrets`` is uint8.
    """
    shadows = keys[starts[:, None] + np.arange(secrets.shape[1])].transpose(0, 2, 1)
    ciphertext = secrets ^ shadows[:, 0]
    return shadows, ciphertext, ciphertext ^ np.bitwise_xor.reduce(shadows[:, 1:], axis=1)


def _bits(rows) -> np.ndarray:
    """Raw key ``rows`` as a uint8 array, refusing any value but 0 and 1."""
    array = np.asarray(rows)
    bad = array[(array != 0) & (array != 1)]
    if bad.size:
        raise ValueError(f"raw key bits must be 0 or 1, got {bad[0].item()}")
    return array.astype(np.uint8)


def _check_parties(raw_keys: Sequence) -> None:
    """The one party rule: raw keys of the dealer and at least one agent."""
    if len(raw_keys) < 2:
        raise ValueError(f"need raw keys of the dealer and at least one agent, got {len(raw_keys)}")


def _check_secret(secret: Sequence[int], secret_bits: int) -> None:
    """The one secret rule: exactly ``secret_bits`` bits, each 0 or 1."""
    if len(secret) != secret_bits or any(bit not in (0, 1) for bit in secret):
        raise ValueError(f"secret must be {secret_bits} bits, each 0 or 1")


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
    check_positions: Optional[tuple[int, ...]] = None  # sorted; None when step 6 did not run

    @property
    def log(self) -> tuple[tuple[str, dict], ...]:
        """The attempt's public discussion: (sender, message) pairs in the order sent.

        Classical traffic goes over an authenticated public channel that
        every party, the adversary too, reads in full. The log is rebuilt
        from the outcome on each read, so no reader can rewrite it.
        """
        rounds = self.stats.rounds_used
        log = [("dealer", {"round": index, "ack": True}) for index in range(rounds)]
        log.append(("tp", {"announced_specs": rounds}))
        if self.check_positions is not None:
            log.append(("dealer", {"check_positions": self.check_positions}))
        if self.ciphertext is not None:
            log.append(("dealer", {"ciphertext": self.ciphertext}))
        return tuple(log)


_VERDICTS = tuple(Verdict)  # a verdict code indexes this
_SHARING = ("secret", "ciphertext", "reconstructed")
_STAT_NAMES = tuple(stat.name for stat in fields(SessionStats))
_STAT_TYPES = (int,) * 5 + (float, int, int, float, int, int)  # of each field, in that order


@dataclass(eq=False)
class Sessions(Sequence):
    """A run's sessions as columns: row i holds session i's final attempt.

    ``sessions[i]`` builds that attempt's ``SessionOutcome`` as it is read,
    and a ``Sessions`` equals any sequence of the same outcomes in order. A
    row is read only where its verdict says the step ran: the key rows and
    check positions past step 5, the sharing columns once completed.
    """

    verdicts: np.ndarray  # A int8 codes, indices into tuple(Verdict)
    stats: np.ndarray  # A x 11 float64: SessionStats' fields in order, NaN for None
    keys: np.ndarray  # raw key rows (dealer first), one pass's attempts after another's
    key_starts: np.ndarray  # A: where each attempt's case1_rounds key rows start
    check_positions: np.ndarray  # A x m: step 6's sorted raw-key positions
    shadow_keys: np.ndarray  # A x q x m, dealer first
    secret: np.ndarray  # A x m, as are the next two
    ciphertext: np.ndarray
    reconstructed: np.ndarray
    rounds: Optional[list] = None  # per session its played rows as one RoundBatch, with records

    def __len__(self) -> int:
        return len(self.verdicts)

    def __getitem__(self, index) -> SessionOutcome:
        trial = range(len(self))[operator.index(index)]  # past either end raises IndexError
        verdict, row = _VERDICTS[self.verdicts[trial]], self.stats[trial].tolist()
        stats = SessionStats(*[None if isnan(v) else kind(v) for v, kind in zip(row, _STAT_TYPES)])
        steps = {}
        if verdict is not Verdict.ABORTED_STEP5:
            start = self.key_starts[trial]
            keys = self.keys[start : start + stats.case1_rounds]
            steps["raw_keys"] = tuple(map(tuple, keys.T.tolist()))
            steps["check_positions"] = tuple(self.check_positions[trial].tolist())
        if verdict is Verdict.COMPLETED:
            steps["shadow_keys"] = tuple(map(tuple, self.shadow_keys[trial].tolist()))
            for name in _SHARING:
                steps[name] = tuple(getattr(self, name)[trial].tolist())
        rounds = None if self.rounds is None else self.rounds[trial]
        return SessionOutcome(verdict, stats, rounds=rounds, **steps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def ended(self, verdict: Verdict) -> np.ndarray:
        """Which sessions' final attempts ended with ``verdict``, as booleans."""
        return self.verdicts == _VERDICTS.index(verdict)

    def stat(self, name: str) -> np.ndarray:
        """The ``SessionStats`` field ``name`` of each session where it is not None, in order."""
        column = self.stats[:, _STAT_NAMES.index(name)]
        return column[~np.isnan(column)]

    def _overwrite(self, trials: np.ndarray, retried: "Sessions") -> "Sessions":
        """Write a retry pass's sessions over rows ``trials``, in order; returns self."""
        for name in ("verdicts", "stats", "check_positions", "shadow_keys", *_SHARING):
            getattr(self, name)[trials] = getattr(retried, name)
        self.key_starts[trials] = retried.key_starts + len(self.keys)
        self.keys = np.concatenate((self.keys, retried.keys))
        if self.rounds is not None:
            for trial, rows in zip(trials.tolist(), retried.rounds):
                self.rounds[trial] = rows
        return self


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
) -> Sessions:
    """Run one session per seed, each ``config`` with that seed, in seed order.

    A session's outcome depends on its seed alone: attempt k draws from
    ``derived_rng(seed, k)`` what the session run on its own draws, in the
    same order. A pass derives its generators with one ``derived_rngs``
    call, plays every attempt's rows together as ``_play_rows`` jobs, and
    checks each attempt on its own generator, all by the shape's one plan.
    Each pass returns its attempts as ``Sessions`` columns; a retry pass over
    the aborted sessions writes over their rows. A ``secret`` is checked
    before any round plays, and so is every seed.
    """
    if secret is not None:
        _check_secret(secret, config.secret_bits)
    sessions, pending, plan = None, np.arange(len(seeds)), _plan(config)
    for attempt in range(config.max_attempts):
        rngs = derived_rngs([seeds[trial] for trial in pending.tolist()], attempt)
        played = _Played(len(rngs), config.particle_count, collect_records)
        shared = np.zeros(len(rngs), dtype=np.int64)
        rounds = _attempt_rounds(config, rngs, shared)
        _play_rows(config, rounds, played.add, shared, plan, keys_only=not collect_records)
        finished = _finish_pass(config, plan, played, rngs, secret, attempt + 1)
        sessions = finished if sessions is None else sessions._overwrite(pending, finished)
        pending = pending[~finished.ended(Verdict.COMPLETED)]
        if not len(pending):
            break
    return sessions


def case_counts(batch: RoundBatch) -> dict[str, int]:
    """Rounds per case, keyed by ``RoundCase`` value; every case is present."""
    sums = _segment_sums(batch.share, _row_counts(batch.share), None, [len(batch)])
    tally = sums[0] @ _tally_matrix(batch.share.shape[1])
    return {case.value: rounds for case, rounds in zip(RoundCase, tally.tolist()[1:5])}


@lru_cache(maxsize=None)
def _tally_matrix(q: int) -> np.ndarray:
    """(q+3) x 9 integers that turn ``_segment_sums``' rows into tallies, by a product.

    A tally is ``SessionStats``' first 8 fields, step 5's mismatches in place
    of its rate, then its checked positions. Row k < q+1 adds a round of k
    checkers: a round, one of its case, and for k >= 2 a checked round of k
    positions. The last two rows pass mismatches and failed rounds on.
    """
    cases, checks = list(RoundCase), np.arange(q + 1)
    matrix = np.zeros((q + 3, 9), dtype=np.int64)
    matrix[checks, [1 + cases.index(case) for case in case_table(q)]] = 1
    matrix[checks, 0], matrix[checks, 7], matrix[checks, 8] = 1, checks >= 2, checks * (checks >= 2)
    matrix[q + 1, 5] = matrix[q + 2, 6] = 1
    matrix.flags.writeable = False
    return matrix


class _Played:
    """What a pass keeps of each attempt's played rows.

    Per attempt: its ``_segment_sums``, the raw key rows of its all-Share
    rounds, and every row when records are asked for. The key rows are kept
    per chunk and, in a pass of more than one attempt, sorted by attempt
    once the pass has played.
    """

    def __init__(self, attempts: int, q: int, collect_records: bool) -> None:
        self.sums = np.zeros((attempts, q + 3), dtype=np.int64)
        self.keys = [np.zeros((0, q), dtype=np.uint8)]  # a pass of no attempts plays no chunk
        self.key_owners: list[np.ndarray] = []
        self.rows = [[] for _ in range(attempts)] if collect_records else None

    def add(self, chunk: _Chunk, owners: Sequence[int], lengths: Sequence[int]) -> None:
        """Tally a played chunk: ``lengths[i]`` rows of attempt ``owners[i]``, in turn."""
        batch = chunk.batch
        if batch is None:
            wrong, keys = chunk.flips, chunk.keys
        else:
            wrong = batch.results != batch.bits
            case1 = chunk.shares == chunk.share.shape[1]
            keys = _key_rows(batch.results[case1], batch.phases[case1])
        sums = _segment_sums(chunk.share, chunk.shares, wrong, lengths)
        np.add.at(self.sums, owners, sums)
        # the key rows come in row order, sums[:, 0] of them per segment
        self.keys.append(keys)
        if len(self.sums) > 1:  # one attempt's key rows need no sorting
            self.key_owners.append(np.repeat(owners, sums[:, 0]))
        if self.rows is not None:
            for owner, end, length in zip(owners, accumulate(lengths), lengths):
                self.rows[owner].append(batch.select(slice(end - length, end)))

    def attempt_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Every key row, attempt by attempt in row order, and where each attempt's rows start."""
        keys, rows = np.concatenate(self.keys), self.sums[:, 0]
        if self.key_owners:
            keys = keys[np.argsort(np.concatenate(self.key_owners), kind="stable")]
        return keys, rows.cumsum() - rows


def _attempt_rounds(config: SessionConfig, rngs, shared):
    """A pass's rounds of jobs, one job per attempt short of raw key.

    Every attempt draws a batch of ``config.batch_size`` rows in the first
    round; each later round draws a smaller top-up for every attempt whose
    ``shared`` all-Share rows, its raw key bits, are still short of 2m.
    """
    need = 2 * config.secret_bits
    for batches in range(_MAX_BATCHES + 1):
        short = (shared < need).nonzero()[0].tolist()
        if not short:
            return
        if batches == _MAX_BATCHES:
            raise BatchLimitError(
                f"{_MAX_BATCHES} batches of rounds gave {shared[short[0]]} of {need} raw key bits"
            )
        size = config.batch_size if not batches else max(config.batch_size // 4, 8)
        yield [(owner, rngs[owner], size) for owner in short]


def _finish_pass(
    config: SessionConfig,
    plan: _Plan,
    played: _Played,
    rngs,
    secret: Optional[Sequence[int]],
    attempt: int,
) -> Sessions:
    """Steps 5 and 6 and the sharing of every attempt of a pass, as the pass's columns.

    Tallies and step-5 verdicts come from ``played.sums`` by the plan's tally
    matrix; the attempts that pass go on to one ``_step6_verdicts``, each
    drawing on its own generator, and those that clear it to one ``_share``.
    With records, each attempt's played pieces are joined here, once, into its one batch.
    """
    q, m = config.particle_count, config.secret_bits
    tally = played.sums @ plan.tally
    rates, _, passed = _step5_verdicts(tally[:, 5], tally[:, 8], config.epsilon)
    keys, starts = played.attempt_keys()
    on = passed.nonzero()[0]  # the attempts that go on to step 6
    picks, drawn = check_draws([rngs[i] for i in on.tolist()], tally[on, 1], m)
    chosen, failures, rates6, cleared, kept = _step6_verdicts(
        keys, starts[on], picks, plan.step6_threshold
    )
    done = on[cleared]  # and complete
    secrets = drawn[cleared] if secret is None else np.full((len(done), m), secret, np.uint8)
    # each attempt's shadows are its first m kept rows: m burned from every earlier one on
    shadows, *texts = _share(keys[kept], (starts[on] - m * np.arange(len(on)))[cleared], secrets)
    # SessionStats' fields: the tally with step 5's rate; step 6's rate and failures; the attempt
    stats = np.full((len(rngs), len(_STAT_TYPES)), np.nan)
    stats[:, :8], stats[:, 5], stats[:, 10] = tally[:, :8], rates, attempt
    stats[tally[:, 8] == 0, 5:8] = np.nan  # step 5's fields are None where it checked nothing
    stats[on, 8], stats[on, 9] = rates6, failures
    verdicts = (1 + passed).astype(np.int8)  # ABORTED_STEP5, or ABORTED_STEP6 past step 5
    verdicts[done] = 0  # COMPLETED
    check_positions = np.zeros((len(rngs), m), dtype=np.int64)
    check_positions[on] = chosen
    shadow_keys = np.zeros((len(rngs), q, m), dtype=np.uint8)
    shadow_keys[done] = shadows
    sharing = np.zeros((len(_SHARING), len(rngs), m), dtype=np.uint8)
    sharing[:, done] = secrets, *texts
    rounds = None if played.rows is None else [RoundBatch.join(pieces) for pieces in played.rows]
    return Sessions(verdicts, stats, keys, starts, check_positions, shadow_keys, *sharing, rounds)
