"""Batch experiment runner with text reports and line-delimited transcripts.

Usage examples::

    mqss --agents 3 --secret-bits 16 --seed 7
    mqss --trials 100 --transcript out.jsonl
    mqss --attack collusion --colluders 1,2 --victim 3 --trials 2000
    mqss --attack collective --probe-overlap 0.5 --trials 2000
    mqss --rounds-only 10000 --report cases

Transcripts carry one JSON record per round, grouped by trial, with a fixed
key order, so identical configurations produce byte-identical files. They
are rendered straight from the played ``RoundBatch`` arrays.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adversary import (
    MIN_ESTIMATE_TRIALS,
    AttackConfig,
    CollectiveAttackConfig,
    CollusionConfig,
    CollusionReport,
    LeakageEstimate,
    MeasureResendConfig,
    attacked,
    estimate_leakage,
    run_collusion,
)
from .ghz import GhzSpec
from .protocol import (
    BatchLimitError,
    IndeterminateCheckError,
    InsufficientRawKeyError,
    Mode,
    RoundBatch,
    RoundCase,
    RoundRecord,
    SessionConfig,
    Verdict,
    case_counts,
    case_table,
    run_rounds,
    run_sessions,
)
from .streams import child_seeds

SEED_ENV_VAR = "MQSS_SEED"

EXIT_OK = 0
EXIT_SESSION_FAILED = 1
EXIT_USAGE = 2

# what a valid experiment can still run into; anything else is a bug
_SESSION_FAILURES = (BatchLimitError, IndeterminateCheckError, InsufficientRawKeyError)

# the attacks that read each attack flag: any other would silently ignore it
_FLAG_READERS = {
    "victim": ("measure-resend", "collusion"),
    "colluders": ("collusion",),
    "probe_overlap": ("collective",),
}

# the --attack name of each attack config, as reports print it
_ATTACK_NAMES = {type(None): "none", MeasureResendConfig: "measure-resend",
                 CollectiveAttackConfig: "collective", CollusionConfig: "collusion"}


@dataclass(frozen=True)
class ExperimentConfig:
    session: SessionConfig
    trials: int = 1
    attack: Optional[AttackConfig] = None
    rounds_only: Optional[int] = None
    transcript: Optional[Path] = None
    report: str = "full"


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    trials: int = 0
    verdict_counts: Optional[dict[str, int]] = None
    reconstruction_matches: int = 0
    case_counts: Optional[dict[str, int]] = None
    rounds_total: int = 0
    step5_error_rate: Optional[float] = None
    step6_error_rate: Optional[float] = None
    raw_bits_per_round: Optional[float] = None
    leakage: Optional[LeakageEstimate] = None
    collusion: Optional[CollusionReport] = None
    duration_seconds: float = 0.0

    @property
    def session_failed(self) -> bool:
        if self.verdict_counts is None:
            return False
        return any(v != Verdict.COMPLETED.value and n > 0
                   for v, n in self.verdict_counts.items())


# --- argument and config-file parsing ------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqss",
        description="Run mediated quantum secret sharing experiments.",
    )
    parser.add_argument("--agents", type=int, default=3,
                        help="number of agents (default 3)")
    parser.add_argument("--secret-bits", type=int, default=16,
                        help="secret length in bits (default 16)")
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="channel bit-flip noise rate (default 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--trials", type=int, default=None,
                        help="number of independent sessions (default 1)")
    parser.add_argument("--attack", default="none",
                        choices=list(_ATTACK_NAMES.values()),
                        help="adversary model (default none)")
    parser.add_argument("--victim", type=int, default=None,
                        help="victim agent index for interception attacks")
    parser.add_argument("--colluders", type=_parse_colluders, default=None,
                        help="comma-separated colluding agent indices")
    parser.add_argument("--probe-overlap", type=float, default=None,
                        help="probe state overlap for the collective attack (default 1)")
    parser.add_argument("--transcript", default=None,
                        help="write per-round records to this file (JSON lines)")
    parser.add_argument("--config", default=None,
                        help="flat key=value config file; flags take precedence")
    parser.add_argument("--rounds-only", type=int, default=None, metavar="N",
                        help="statistics mode: run N rounds without key steps")
    parser.add_argument("--report", default="full", choices=["full", "cases"],
                        help="report style (default full)")
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed:
        try:
            parser.set_defaults(seed=int(env_seed))
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    return parser


def _config_file_args(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """Each ``key = value`` line of a config file as a ``--key=value`` argument."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    args = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            parser.error(f"{path}:{lineno}: expected 'key = value'")
        if key.strip() == "config":
            parser.error(f"{path}:{lineno}: unknown key 'config'")
        args.append(f"--{key.strip()}={value.strip()}")
    return args


def _parse_colluders(text: str) -> frozenset[int]:
    try:
        return frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad colluder list {text!r}")


def parse_config(argv: Optional[Sequence[str]] = None) -> ExperimentConfig:
    """Resolve flags, config file, and environment into an experiment setup.

    One argparse parser holds every flag with its default, type and choices.
    It reads each ``key = value`` line of a ``--config`` file as
    ``--key=value`` ahead of the command line, so a key must name a flag
    other than ``--config`` exactly, and its value gets that flag's checks.
    Precedence: flags, then config-file values, then the MQSS_SEED
    environment variable (seed only), then built-in defaults. Whatever the
    parser or the library rejects (a negative seed or a victim past the last
    agent, say), a cross-field check fails or a set MQSS_SEED that is not an
    integer exits with the usage status.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # a config key must name its flag exactly; the command line may abbreviate
        parser.allow_abbrev = False
        from_file = parser.parse_args(_config_file_args(args.config, parser))
        parser.allow_abbrev = True
        args = parser.parse_args(argv, namespace=from_file)

    attack_kind = args.attack
    for flag in ("victim", "colluders"):
        if attack_kind in _FLAG_READERS[flag] and getattr(args, flag) is None:
            parser.error(f"--attack {attack_kind} requires --{flag}")
    for flag, readers in _FLAG_READERS.items():
        if attack_kind not in readers and getattr(args, flag) is not None:
            parser.error(f"--attack {attack_kind} reads no --{flag.replace('_', '-')}")
    try:
        session = SessionConfig(n_agents=args.agents, secret_bits=args.secret_bits,
                                epsilon=args.epsilon, seed=args.seed)
        attack = None
        if attack_kind == "collective":
            overlap = 1.0 if args.probe_overlap is None else args.probe_overlap
            attack = CollectiveAttackConfig(probe_overlap=overlap)
        elif attack_kind == "measure-resend":
            attack = MeasureResendConfig(args.victim)
        elif attack_kind == "collusion":
            attack = CollusionConfig(args.colluders, MeasureResendConfig(args.victim))
        attacked(session, attack)  # the library judges the attack against the session
    except ValueError as exc:
        parser.error(f"invalid session: {exc}")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be positive")
    if args.rounds_only is not None and args.rounds_only < 1:
        parser.error("--rounds-only must be positive")
    if args.rounds_only is not None and args.trials is not None:
        parser.error("--rounds-only reads no --trials")
    # a Monte-Carlo estimate plays no session rounds to write
    if attack_kind in ("collective", "collusion") and args.transcript and not args.rounds_only:
        parser.error(f"--transcript with --attack {attack_kind} needs --rounds-only")
    transcript = Path(args.transcript) if args.transcript else None
    # the transcript is written after every session has run: refuse a bad path first
    if transcript is not None and (transcript.is_dir() or not transcript.parent.is_dir()):
        parser.error(f"--transcript {transcript} is not a file in an existing directory")

    return ExperimentConfig(
        session=session,
        trials=1 if args.trials is None else args.trials,
        attack=attack,
        rounds_only=args.rounds_only,
        transcript=transcript,
        report=args.report,
    )


# --- transcripts -----------------------------------------------------------------


def record_from_json(line: str) -> tuple[int, RoundRecord]:
    payload = json.loads(line)
    spec = GhzSpec(
        tuple(int(ch) for ch in payload["spec"]["x"]), payload["spec"]["b"]
    )
    record = RoundRecord(
        round_index=payload["round_index"],
        spec=spec,
        modes=tuple(Mode(m) for m in payload["modes"]),
        results=tuple(payload["results"]),
        classification=RoundCase(payload["classification"]),
        probe_outcome=payload["probe"],
    )
    return payload["trial"], record


def write_transcript(path: Path, grouped) -> None:
    """Write each (trial, ``RoundBatch``) pair's rows, one JSON line per round.

    Row i of a batch is its round i, and a trial is a non-negative integer.
    A line is what ``json.dumps(record, sort_keys=True, separators=(",",
    ":"))`` makes of the round's record.
    """
    held, size, shape = [], 0, None
    with open(path, "wb") as handle:
        for trial, batch in grouped:
            for first in range(0, len(batch), _CHUNK_ROWS):
                rows = batch.select(slice(first, first + _CHUNK_ROWS))
                shape, held_shape = (rows.share.shape[1], rows.probe is None), shape
                if size + len(rows) > _CHUNK_ROWS or held and shape != held_shape:
                    handle.write(_transcript_lines(held))
                    held, size = [], 0
                held.append((trial, first, rows))
                size += len(rows)
        if held:
            handle.write(_transcript_lines(held))


_CHUNK_ROWS = 1 << 12  # rows rendered at a time, all of one shape, which bounds the byte matrix


def _transcript_lines(held) -> bytes:
    """The lines of (trial, first round index, rows) pieces, laid out as one byte matrix.

    Each row is the template's constant bytes, its fields written over NULs.
    Dropping the NULs left in the classification, round index and trial fields
    leaves the lines.
    """
    trials, firsts, pieces = zip(*held)
    rows, lengths = RoundBatch.join(pieces), [len(piece) for piece in pieces]
    count, q = rows.share.shape
    widths = len(str(max(map(sum, zip(firsts, lengths))) - 1)), len(str(max(trials)))
    template, columns, cases = _layout(q, rows.probe is not None, *widths)
    case, modes, probe, results, index, phase, pattern, trial = columns
    lines = np.empty((count, len(template)), dtype=np.uint8)
    lines[:] = template
    # a float32 product counts each row's Share choices several times faster than a sum
    shares = rows.share.view(np.uint8) @ np.ones(q, dtype=np.float32)
    lines[:, case] = cases.take(shares.astype(np.intp), axis=0)
    lines[:, modes] = _listed(_MODE_CELLS, rows.share.view(np.uint8))
    lines[:, results] = _listed(_RESULT_CELLS, rows.results)
    for field, bits in ((probe, rows.probe), (phase, rows.phases), (pattern, rows.bits)):
        if bits is not None:  # each 0/1 value as its digit's byte
            digits = lines[:, field]
            np.add(bits.reshape(digits.shape), np.uint8(ord("0")), out=digits, casting="unsafe")
    offsets = np.subtract(firsts, np.cumsum(lengths) - lengths)  # round index less chunk row
    _put_number(lines[:, index], np.arange(count) + np.repeat(offsets, lengths))
    _put_number(lines[:, trial], np.repeat(trials, lengths))
    return lines.tobytes().replace(b"\0", b"")


@lru_cache(maxsize=None)
def _layout(q: int, probed: bool, index_width: int, trial_width: int):
    """A line's template, its fields' columns, and row k the NUL-padded case of k Share choices.

    The template holds NUL in the fields: the classification, modes, probe
    (empty unless ``probed``), results, round index, phase, pattern and trial.
    """
    cases = np.array([case.value for case in reversed(case_table(q))], dtype="S")
    fields = (
        (b'{"classification":"', cases.itemsize), (b'","modes":[', 8 * q - 1),
        (b'],"probe":' + (b"" if probed else b"null"), int(probed)),
        (b',"results":[', 2 * q - 1), (b'],"round_index":', index_width),
        (b',"spec":{"b":', 1), (b',"x":"', q), (b'"},"trial":', trial_width),
    )
    template, columns = bytearray(), []
    for text, width in fields:
        template += text
        columns.append(slice(len(template), len(template) + width))
        template += bytes(width)
    template += b"}\n"
    cases = np.frombuffer(cases.tobytes(), np.uint8).reshape(q + 1, -1)  # read-only, as cached
    return np.frombuffer(bytes(template), np.uint8), columns, cases


# a list's items as fixed-width cells, each with its trailing comma: a Check
# or Share mode in 8 bytes, a result bit in 2
_MODE_CELLS = np.frombuffer(b'"check","share",', dtype=np.uint64)
_RESULT_CELLS = np.frombuffer(b"0,1,", dtype=np.uint16)


def _listed(cells: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Each row of ``codes`` as the comma-separated bytes of its cells."""
    return cells.take(codes).view(np.uint8).reshape(len(codes), -1)[:, :-1]


@lru_cache(maxsize=None)
def _digit_table() -> np.ndarray:
    """The four digit bytes of each v < 10,000, in three sections of 10,000 rows.

    Row v pads them with NUL, row 10,000 + v with 0, and row 20,000 + v with NUL, 0 left blank.
    """
    numbers, places = np.arange(10_000)[:, None], np.array([1000, 100, 10, 1])
    digits = numbers // places % 10 + ord("0")
    sections = (digits * (numbers >= places * (places > 1)), digits, digits * (numbers >= places))
    table = np.concatenate(sections).astype(np.uint8)
    table.flags.writeable = False
    return table


def _put_number(field: np.ndarray, numbers: np.ndarray, section: int = 0) -> None:
    """Write each number's digits into its row of ``field``, NUL-padded, from ``_digit_table``."""
    if field.shape[1] > 4:  # the places before the last four, blank past the first digit
        _put_number(field[:, :-4], numbers // 10_000, 20_000)
        numbers, section = numbers % 10_000, np.where(numbers >= 10_000, 10_000, section)
    field[:, -4:] = _digit_table().take(numbers + section, axis=0)[:, -field.shape[1] :]


def read_transcript(path: Path) -> list[tuple[int, RoundRecord]]:
    with open(path) as handle:
        return [record_from_json(line) for line in handle if line.strip()]


# --- experiment execution ---------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment and aggregate its statistics."""
    started = time.perf_counter()
    session = attacked(config.session, config.attack)

    if config.rounds_only is not None:
        batch = run_rounds(session, config.rounds_only)
        results = dict(case_counts=case_counts(batch), rounds_total=len(batch))
        if config.transcript:
            write_transcript(config.transcript, [(0, batch)])
    elif isinstance(config.attack, CollectiveAttackConfig):
        trials = _monte_carlo_trials(config)
        leakage = estimate_leakage(config.attack, config.session, trials=trials)
        results = dict(trials=trials, leakage=leakage)
    elif isinstance(config.attack, CollusionConfig):
        trials = _monte_carlo_trials(config)
        collusion = run_collusion(config.attack, config.session, trials=trials)
        results = dict(trials=trials, collusion=collusion)
    else:
        results = _run_sessions(config, session)

    return RunReport(
        config=config,
        duration_seconds=time.perf_counter() - started,
        **results,
    )


def _monte_carlo_trials(config: ExperimentConfig) -> int:
    """The trial count of an attack estimate, which needs ``MIN_ESTIMATE_TRIALS``."""
    if config.trials >= MIN_ESTIMATE_TRIALS:
        return config.trials
    print(
        f"warning: --trials {config.trials} raised to {MIN_ESTIMATE_TRIALS} "
        f"for --attack {_ATTACK_NAMES[type(config.attack)]}",
        file=sys.stderr,
    )
    return MIN_ESTIMATE_TRIALS


def _mean(rates: list[float]) -> Optional[float]:
    return sum(rates) / len(rates) if rates else None


def _run_sessions(config: ExperimentConfig, session: SessionConfig) -> dict:
    """The ``RunReport`` fields of ``config.trials`` seeded sessions, read from their columns."""
    seeds = child_seeds(config.session.seed, config.trials)
    sessions = run_sessions(session, seeds, collect_records=config.transcript is not None)
    if config.transcript is not None:  # each session's rows, built without outcomes
        write_transcript(config.transcript, list(enumerate(sessions.rounds)))  # a list to recount
    verdicts = {v.value: int(np.count_nonzero(sessions.ended(v))) for v in Verdict}
    completed = sessions.ended(Verdict.COMPLETED)
    matches = np.count_nonzero((sessions.reconstructed == sessions.secret).all(axis=1) & completed)
    names = ("case1_rounds", "case2_rounds", "case3_rounds", "discarded_rounds")
    counts = {case.value: int(sessions.stat(name).sum()) for case, name in zip(RoundCase, names)}
    rounds_total = sum(counts.values())
    return dict(
        trials=config.trials,
        verdict_counts=verdicts,
        reconstruction_matches=int(matches),
        case_counts=counts,
        rounds_total=rounds_total,
        step5_error_rate=_mean(sessions.stat("step5_error_rate").tolist()),
        step6_error_rate=_mean(sessions.stat("step6_error_rate").tolist()),
        raw_bits_per_round=(
            counts[RoundCase.CASE1.value] / rounds_total if rounds_total else None
        ),
    )


# --- reporting ----------------------------------------------------------------------


def _interval(successes: int, total: int) -> str:
    """The rate with its Wilson score interval at z = 3, which stays inside [0, 1]."""
    if total == 0:
        return "n/a"
    p, z2 = successes / total, 9.0 / total
    centre = (p + z2 / 2) / (1 + z2)
    half = 3.0 * sqrt(p * (1.0 - p) / total + z2 * z2 / 36) / (1 + z2)
    low, high = max(0.0, centre - half), min(1.0, centre + half)
    return f"{p:.6f} [{low:.6f}, {high:.6f}] (Wilson z=3, n={total})"


def render_report(report: RunReport) -> str:
    config = report.config
    session = config.session
    attack = config.attack
    lines = ["mqss run report"]
    lines.append(
        "config: agents={} secret_bits={} epsilon={} seed={} trials={} attack={}".format(
            session.n_agents, session.secret_bits, session.epsilon,
            session.seed, report.trials or config.trials, _ATTACK_NAMES[type(attack)],
        )
    )
    if isinstance(attack, MeasureResendConfig):
        lines.append(f"attack: victim={attack.target}")
    if isinstance(attack, CollusionConfig):
        colluders = ",".join(map(str, sorted(attack.colluders)))
        lines.append(f"attack: victim={attack.inner_attack.target} colluders={colluders}")
    if isinstance(attack, CollectiveAttackConfig):
        lines.append(f"attack: probe_overlap={attack.probe_overlap}")

    if report.case_counts is not None:
        lines.append(f"rounds: {report.rounds_total}")
        for case in RoundCase:
            count = report.case_counts[case.value]
            lines.append(
                f"  {case.value:<8} {_interval(count, report.rounds_total)}"
            )

    if config.report == "cases":
        return "\n".join(lines) + "\n"

    if report.verdict_counts is not None:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(report.verdict_counts.items()))
        lines.append("verdicts: " + pairs)
        completed = report.verdict_counts[Verdict.COMPLETED.value]
        lines.append(
            f"reconstruction matches: {report.reconstruction_matches}/{completed}"
        )
        if report.step5_error_rate is not None:
            lines.append(f"step5 error rate (mean): {report.step5_error_rate:.6f}")
        if report.step6_error_rate is not None:
            lines.append(f"step6 error rate (mean): {report.step6_error_rate:.6f}")
        if report.raw_bits_per_round is not None:
            lines.append(f"raw bits per round: {report.raw_bits_per_round:.6f}")

    if report.leakage is not None:
        est = report.leakage
        lines.append(
            "collective attack: detection_rate={} mutual_information={:.6f} "
            "sifted_mutual_information={:.6f}".format(
                _interval(round(est.detection_rate * est.sample_count), est.sample_count),
                est.mutual_information, est.sifted_mutual_information,
            )
        )
    if report.collusion is not None:
        rep = report.collusion
        lines.append(
            "collusion: abort_rate={} per_bit_rate={} checked_bits={}".format(
                _interval(
                    round(rep.detection_rate_overall * rep.sessions), rep.sessions
                ),
                _interval(round(rep.per_bit_rate * rep.checked_bits),
                          rep.checked_bits),
                rep.checked_bits,
            )
        )

    lines.append(f"duration: {report.duration_seconds:.2f}s")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = parse_config(argv)
    try:
        report = run_experiment(config)
    except _SESSION_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SESSION_FAILED
    sys.stdout.write(render_report(report))
    if config.attack is None and report.session_failed:
        return EXIT_SESSION_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
