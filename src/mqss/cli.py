"""Batch experiment runner with text reports and line-delimited transcripts.

Usage examples::

    mqss --agents 3 --secret-bits 16 --seed 7
    mqss --trials 100 --transcript out.jsonl
    mqss --attack collusion --colluders 1,2 --victim 3 --trials 2000
    mqss --attack collective --probe-overlap 0.5 --trials 2000
    mqss --rounds-only 10000 --report cases

Transcripts carry one JSON record per round, grouped by trial, with a fixed
key order, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from math import sqrt
from pathlib import Path
from typing import Optional, Sequence

from .adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    CollusionReport,
    LeakageEstimate,
    MeasureResendConfig,
    collusion_attack,
    estimate_leakage,
    measure_resend_attack,
    run_collusion,
)
from .ghz import GhzSpec
from .protocol import (
    Mode,
    RoundCase,
    RoundRecord,
    SessionConfig,
    Verdict,
    case_counts,
    round_engine,
    run_rounds,
    run_session,
)
from .statevec import child_seed

SEED_ENV_VAR = "MQSS_SEED"

EXIT_OK = 0
EXIT_SESSION_FAILED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class ExperimentConfig:
    session: SessionConfig
    trials: int = 1
    attack_kind: str = "none"
    victim: Optional[int] = None
    colluders: Optional[frozenset[int]] = None
    probe_overlap: float = 1.0
    rounds_only: Optional[int] = None
    transcript: Optional[Path] = None
    report: str = "full"


@dataclass
class RunReport:
    config: ExperimentConfig
    trials: int = 0
    verdict_counts: dict = None
    reconstruction_matches: int = 0
    case_counts: dict = None
    rounds_total: int = 0
    step5_error_rate: Optional[float] = None
    step6_error_rate: Optional[float] = None
    raw_bits_per_round: Optional[float] = None
    leakage: Optional[LeakageEstimate] = None
    collusion: Optional[CollusionReport] = None
    engine: Optional[str] = None
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
    parser.add_argument("--agents", type=int, default=None,
                        help="number of agents (default 3)")
    parser.add_argument("--secret-bits", type=int, default=None,
                        help="secret length in bits (default 16)")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="channel bit-flip noise rate (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--trials", type=int, default=None,
                        help="number of independent sessions (default 1)")
    parser.add_argument("--attack", default=None,
                        choices=["none", "measure-resend", "collective", "collusion"],
                        help="adversary model (default none)")
    parser.add_argument("--victim", type=int, default=None,
                        help="victim agent index for interception attacks")
    parser.add_argument("--colluders", default=None,
                        help="comma-separated colluding agent indices")
    parser.add_argument("--probe-overlap", type=float, default=None,
                        help="probe state overlap for the collective attack")
    parser.add_argument("--transcript", default=None,
                        help="write per-round records to this file (JSON lines)")
    parser.add_argument("--config", default=None,
                        help="flat key=value config file; flags take precedence")
    parser.add_argument("--rounds-only", type=int, default=None, metavar="N",
                        help="statistics mode: run N rounds without key steps")
    parser.add_argument("--report", default=None, choices=["full", "cases"],
                        help="report style (default full)")
    return parser


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    values = {}
    known = {
        "agents", "secret-bits", "epsilon", "seed", "trials", "attack",
        "victim", "colluders", "probe-overlap", "transcript", "rounds-only",
        "report",
    }
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _pick(parser, flag_value, file_values: dict, key: str, convert, default):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        try:
            return convert(file_values[key])
        except ValueError:
            parser.error(f"invalid value for {key!r} in config file")
    return default


def _parse_colluders(text: str) -> frozenset[int]:
    try:
        return frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad colluder list {text!r}")


def parse_config(argv: Optional[Sequence[str]] = None) -> ExperimentConfig:
    """Resolve flags, config file, and environment into an experiment setup.

    Precedence: command-line flags, then config-file values, then the
    MQSS_SEED environment variable (seed only), then built-in defaults.
    Invalid combinations exit with the usage status.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    file_values = _load_config_file(args.config, parser) if args.config else {}

    agents = _pick(parser, args.agents, file_values, "agents", int, 3)
    secret_bits = _pick(parser, args.secret_bits, file_values, "secret-bits", int, 16)
    epsilon = _pick(parser, args.epsilon, file_values, "epsilon", float, 0.0)
    env_seed = os.environ.get(SEED_ENV_VAR)
    seed_default = int(env_seed) if env_seed and env_seed.lstrip("-").isdigit() else 0
    seed = _pick(parser, args.seed, file_values, "seed", int, seed_default)
    trials = _pick(parser, args.trials, file_values, "trials", int, 1)
    attack_kind = _pick(parser, args.attack, file_values, "attack", str, "none")
    victim = _pick(parser, args.victim, file_values, "victim", int, None)
    colluders = args.colluders
    if colluders is None and "colluders" in file_values:
        colluders = file_values["colluders"]
    probe_overlap = _pick(parser, args.probe_overlap, file_values, "probe-overlap",
                          float, 1.0)
    transcript = _pick(parser, args.transcript, file_values, "transcript", str, None)
    rounds_only = _pick(parser, args.rounds_only, file_values, "rounds-only", int, None)
    report = _pick(parser, args.report, file_values, "report", str, "full")

    if agents < 2:
        parser.error("--agents must be at least 2")
    if secret_bits < 1:
        parser.error("--secret-bits must be at least 1")
    if not 0.0 <= epsilon <= 1.0:
        parser.error("--epsilon must lie in [0, 1]")
    if trials < 1:
        parser.error("--trials must be positive")
    if rounds_only is not None and rounds_only < 1:
        parser.error("--rounds-only must be positive")
    if not 0.0 <= probe_overlap <= 1.0:
        parser.error("--probe-overlap must lie in [0, 1]")
    if report not in ("full", "cases"):
        parser.error("--report must be 'full' or 'cases'")
    if attack_kind not in ("none", "measure-resend", "collective", "collusion"):
        parser.error(f"unknown attack {attack_kind!r}")

    colluder_set: Optional[frozenset[int]] = None
    if attack_kind in ("measure-resend", "collusion"):
        if victim is None:
            parser.error(f"--attack {attack_kind} requires --victim")
        if not 1 <= victim <= agents:
            parser.error("--victim must name one of the agents")
    if attack_kind == "collusion":
        if not colluders:
            parser.error("--attack collusion requires --colluders")
        try:
            colluder_set = _parse_colluders(colluders)
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
        if not colluder_set:
            parser.error("--colluders must not be empty")
        if any(not 1 <= c <= agents for c in colluder_set):
            parser.error("--colluders must name agents")
        if victim in colluder_set:
            parser.error("the victim cannot be a colluder")
        if len(colluder_set) >= agents:
            parser.error("--colluders must be a proper subset of the agents")
    if attack_kind in ("collective", "collusion") and transcript:
        parser.error(f"--transcript is not available with --attack {attack_kind}")

    session = SessionConfig(
        n_agents=agents,
        secret_bits=secret_bits,
        epsilon=epsilon,
        seed=seed,
    )
    return ExperimentConfig(
        session=session,
        trials=trials,
        attack_kind=attack_kind,
        victim=victim,
        colluders=colluder_set,
        probe_overlap=probe_overlap,
        rounds_only=rounds_only,
        transcript=Path(transcript) if transcript else None,
        report=report,
    )


# --- transcripts -----------------------------------------------------------------


def record_to_json(trial: int, record: RoundRecord) -> str:
    payload = {
        "trial": trial,
        "round_index": record.round_index,
        "spec": {
            "x": "".join(str(b) for b in record.spec.bits),
            "b": record.spec.phase,
        },
        "modes": [m.value for m in record.modes],
        "results": list(record.results),
        "classification": record.classification.value,
        "probe": record.probe_outcome,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


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


def write_transcript(path: Path, grouped_records) -> None:
    with open(path, "w") as handle:
        for trial, records in grouped_records:
            for record in records:
                handle.write(record_to_json(trial, record))
                handle.write("\n")


def read_transcript(path: Path) -> list[tuple[int, RoundRecord]]:
    with open(path) as handle:
        return [record_from_json(line) for line in handle if line.strip()]


# --- experiment execution ---------------------------------------------------------


def _session_attack(config: ExperimentConfig):
    if config.attack_kind == "measure-resend":
        return measure_resend_attack(MeasureResendConfig(target=config.victim))
    if config.attack_kind == "collusion":
        return collusion_attack(
            CollusionConfig(config.colluders, MeasureResendConfig(config.victim))
        )
    return None


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment and aggregate its statistics."""
    report = RunReport(config=config)
    started = time.perf_counter()
    # the collective attack only swaps the preparation, so it has no
    # interceptor either; every experiment's rounds run on this engine
    attacked = replace(config.session, attack=_session_attack(config))
    report.engine = round_engine(attacked)

    if config.rounds_only is not None:
        records = run_rounds(attacked, config.rounds_only)
        report.case_counts = case_counts(records)
        report.rounds_total = len(records)
        if config.transcript:
            write_transcript(config.transcript, [(0, records)])
    elif config.attack_kind == "collective":
        trials = max(config.trials, 1_000)
        report.leakage = estimate_leakage(
            CollectiveAttackConfig(probe_overlap=config.probe_overlap),
            config.session,
            trials=trials,
        )
        report.trials = trials
    elif config.attack_kind == "collusion":
        trials = max(config.trials, 1_000)
        report.collusion = run_collusion(
            CollusionConfig(config.colluders, MeasureResendConfig(config.victim)),
            config.session,
            trials=trials,
        )
        report.trials = trials
    else:
        _run_sessions(config, attacked, report)

    report.duration_seconds = time.perf_counter() - started
    return report


def _run_sessions(
    config: ExperimentConfig, attacked: SessionConfig, report: RunReport
) -> None:
    collect = config.transcript is not None
    verdicts = {verdict.value: 0 for verdict in Verdict}
    counts = case_counts(())
    matches = 0
    step5_rates = []
    step6_rates = []
    grouped = []
    for trial in range(config.trials):
        session = replace(attacked, seed=child_seed(config.session.seed, trial))
        # the final attempt's records: the rounds the session's stats count
        outcome = run_session(session, collect_records=True)
        verdicts[outcome.verdict.value] += 1
        case_counts(outcome.records or (), into=counts)
        if outcome.verdict is Verdict.COMPLETED:
            matches += outcome.reconstructed == outcome.secret
        if outcome.stats.step5_error_rate is not None:
            step5_rates.append(outcome.stats.step5_error_rate)
        if outcome.stats.step6_error_rate is not None:
            step6_rates.append(outcome.stats.step6_error_rate)
        if collect:
            grouped.append((trial, outcome.records))
    report.trials = config.trials
    report.verdict_counts = verdicts
    report.reconstruction_matches = matches
    report.case_counts = counts
    report.rounds_total = sum(counts.values())
    if step5_rates:
        report.step5_error_rate = sum(step5_rates) / len(step5_rates)
    if step6_rates:
        report.step6_error_rate = sum(step6_rates) / len(step6_rates)
    if report.rounds_total:
        case1 = report.case_counts[RoundCase.CASE1.value]
        report.raw_bits_per_round = case1 / report.rounds_total
    if collect:
        write_transcript(config.transcript, grouped)


# --- reporting ----------------------------------------------------------------------


def _interval(successes: int, total: int) -> str:
    if total == 0:
        return "n/a"
    p = successes / total
    sigma = sqrt(p * (1.0 - p) / total)
    return f"{p:.6f} +-3sigma {3 * sigma:.6f} (n={total})"


def render_report(report: RunReport) -> str:
    config = report.config
    session = config.session
    lines = ["mqss run report"]
    lines.append(
        "config: agents={} secret_bits={} epsilon={} seed={} trials={} attack={}".format(
            session.n_agents, session.secret_bits, session.epsilon,
            session.seed, report.trials or config.trials, config.attack_kind,
        )
    )
    if config.attack_kind in ("measure-resend", "collusion"):
        extra = f"victim={config.victim}"
        if config.colluders:
            extra += " colluders={}".format(",".join(map(str, sorted(config.colluders))))
        lines.append("attack: " + extra)
    if config.attack_kind == "collective":
        lines.append(f"attack: probe_overlap={config.probe_overlap}")
    if report.engine is not None:
        lines.append(f"engine: {report.engine}")

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
            "collective attack: detection_rate={:.6f} mutual_information={:.6f} "
            "sifted_mutual_information={:.6f} (n={})".format(
                est.detection_rate, est.mutual_information,
                est.sifted_mutual_information, est.sample_count,
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
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SESSION_FAILED
    sys.stdout.write(render_report(report))
    if config.attack_kind == "none" and report.session_failed:
        return EXIT_SESSION_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
