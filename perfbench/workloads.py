"""Seeded benchmark workloads with their correctness gates.

Each workload turns the benchmark seed into a deterministic stream of
inputs, runs one public mqss entry point per operation, checks every
operation's output, and checks the paper's closed forms once per run over
all operations pooled. Sizes are fixed here, never chosen per seed.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
and refuses to run against any other copy of mqss.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

if not (SRC / "mqss" / "__init__.py").is_file():
    raise ImportError(f"mqss sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import mqss  # noqa: E402
from mqss import adversary, cli, protocol  # noqa: E402

if Path(mqss.__file__).resolve().parent != SRC / "mqss":
    raise ImportError(f"imported mqss from {mqss.__file__}, not from {SRC}")

# Closed-form gates accept a pooled rate within this many binomial standard
# deviations of the paper's value. Fixed before any run, for every workload.
SIGMA_BOUND = 6.0

# Sifted (key-bit) mutual information must stay below this many bits.
SIFTED_MI_LIMIT = 0.01


def derive_seed(workload: str, seed: int, index: int) -> int:
    """Deterministic 64-bit seed of input ``index`` for ``(workload, seed)``."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass
class OpResult:
    """What the benchmark keeps of one operation."""

    trials: int                 # CLI trials: sessions, or attack trials
    sessions: int               # protocol sessions run (0 when there are none)
    rounds: Optional[int]       # simulated rounds, when the operation reports them
    stats: dict[str, Any]       # simulated statistics, for gates and the digest
    problems: list[str] = field(default_factory=list)


def _binomial_gate(label: str, hits: float, total: int, p: float) -> list[str]:
    if total == 0:
        return [f"{label}: no samples"]
    rate = hits / total
    sigma = sqrt(p * (1.0 - p) / total)
    if abs(rate - p) > SIGMA_BOUND * sigma:
        return [
            f"{label}: measured {rate:.6f}, closed form {p:.6f}, "
            f"bound {SIGMA_BOUND:g} sigma = {SIGMA_BOUND * sigma:.6f} (n={total})"
        ]
    return []


def _case_gates(label: str, results: list[OpResult], qubits: int) -> list[str]:
    """case1 = case2 = 2^-q and discard = q 2^-q over all pooled rounds."""
    totals = {case.value: 0 for case in protocol.RoundCase}
    for result in results:
        for case, count in result.stats["cases"].items():
            totals[case] += count
    rounds = sum(totals.values())
    p = 2.0 ** -qubits
    return (
        _binomial_gate(f"{label} case1 frequency", totals["case1"], rounds, p)
        + _binomial_gate(f"{label} case2 frequency", totals["case2"], rounds, p)
        + _binomial_gate(f"{label} discard frequency", totals["discard"], rounds, qubits * p)
    )


def _secret(workload: str, seed: int, index: int, bits: int) -> tuple[int, ...]:
    value = derive_seed(f"{workload}.secret", seed, index)
    return tuple((value >> i) & 1 for i in range(bits))


class Workload:
    """Shared lifecycle: ``prepare(seed)`` before the first input, ``close()`` at the end."""

    seed = 0

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def close(self) -> None:
        pass


@dataclass
class SessionN3(Workload):
    """The everyday CLI path: one honest noisy session with a transcript."""

    name = "session_n3"
    n_agents: int = 3
    secret_bits: int = 16
    epsilon: float = 0.05
    min_ops: int = 100       # p90 needs at least ten sessions beyond it
    digest_ops: int = 20
    transcript: Path = OUT_DIR / "transcript-session_n3.jsonl"

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.transcript.parent.mkdir(parents=True, exist_ok=True)

    def make_input(self, index: int):
        session = protocol.SessionConfig(
            n_agents=self.n_agents,
            secret_bits=self.secret_bits,
            epsilon=self.epsilon,
            seed=derive_seed(self.name, self.seed, index),
        )
        return cli.ExperimentConfig(session=session, trials=1, transcript=self.transcript)

    def run(self, config):
        return cli.run_experiment(config)

    def check(self, config, report) -> OpResult:
        problems = []
        completed = report.verdict_counts[protocol.Verdict.COMPLETED.value]
        if completed != 1:
            problems.append(f"session failed past the retry cap: {report.verdict_counts}")
        if report.reconstruction_matches != completed:
            problems.append("completed session did not reconstruct its secret")
        records = [record for _, record in cli.read_transcript(config.transcript)]
        cases = {case.value: 0 for case in protocol.RoundCase}
        for record in records:
            cases[record.classification.value] += 1
        if len(records) != report.rounds_total or cases != report.case_counts:
            problems.append(
                f"transcript has {len(records)} rounds {cases}, "
                f"report has {report.rounds_total} {report.case_counts}"
            )
        return OpResult(
            trials=1,
            sessions=1,
            rounds=report.rounds_total,
            stats={
                "verdicts": report.verdict_counts,
                "cases": report.case_counts,
                "step5": report.step5_error_rate,
                "step6": report.step6_error_rate,
            },
            problems=problems,
        )

    def run_gates(self, results: list[OpResult]) -> list[str]:
        return _case_gates(self.name, results, self.n_agents + 1)

    def close(self) -> None:
        self.transcript.unlink(missing_ok=True)


@dataclass
class SessionN8(Workload):
    """Wide GHZ states: 512 amplitudes per round, no noise, no records."""

    name = "session_n8"
    n_agents: int = 8
    secret_bits: int = 2
    min_ops: int = 3
    digest_ops: int = 3

    def make_input(self, index: int):
        config = protocol.SessionConfig(
            n_agents=self.n_agents,
            secret_bits=self.secret_bits,
            epsilon=0.0,
            seed=derive_seed(self.name, self.seed, index),
        )
        return config, _secret(self.name, self.seed, index, self.secret_bits)

    def run(self, inputs):
        config, secret = inputs
        return protocol.run_session(config, secret=secret)

    def check(self, inputs, outcome) -> OpResult:
        _, secret = inputs
        stats = outcome.stats
        problems = []
        if outcome.verdict is not protocol.Verdict.COMPLETED:
            problems.append(f"session failed past the retry cap: {outcome.verdict.value}")
        elif outcome.reconstructed != secret or outcome.secret != secret:
            problems.append("completed session did not reconstruct its secret")
        if stats.step5_error_rate != 0 or stats.step5_round_failures != 0:
            problems.append(f"step-5 errors at epsilon=0: {stats.step5_error_rate}")
        if stats.step6_failures != 0:
            problems.append(f"step-6 errors at epsilon=0: {stats.step6_failures}")
        return OpResult(
            trials=1,
            sessions=1,
            rounds=stats.rounds_used,
            stats={
                "verdict": outcome.verdict.value,
                "attempts": stats.attempts,
                "cases": {
                    protocol.RoundCase.CASE1.value: stats.case1_rounds,
                    protocol.RoundCase.CASE2.value: stats.case2_rounds,
                    protocol.RoundCase.CASE3.value: stats.case3_rounds,
                    protocol.RoundCase.DISCARD.value: stats.discarded_rounds,
                },
                "step5": stats.step5_error_rate,
                "step6": stats.step6_error_rate,
            },
            problems=problems,
        )

    def run_gates(self, results: list[OpResult]) -> list[str]:
        return _case_gates(self.name, results, self.n_agents + 1)



@dataclass
class CollusionMC(Workload):
    """1,000 short single-attempt sessions under the collusion tap."""

    name = "collusion_mc"
    n_agents: int = 2
    secret_bits: int = 4
    colluders: frozenset[int] = frozenset({1})
    victim: int = 2
    trials: int = 1_000      # run_collusion's floor
    min_ops: int = 1
    digest_ops: int = 1

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.attack = adversary.CollusionConfig(
            self.colluders, adversary.MeasureResendConfig(self.victim)
        )

    def make_input(self, index: int):
        return protocol.SessionConfig(
            n_agents=self.n_agents,
            secret_bits=self.secret_bits,
            seed=derive_seed(self.name, self.seed, index),
        )

    def run(self, session):
        return adversary.run_collusion(self.attack, session, trials=self.trials)

    def check(self, session, report) -> OpResult:
        problems = []
        # Z-basis taps never trip step 5, so every session reaches step 6
        if report.sessions != self.trials:
            problems.append(f"ran {report.sessions} sessions, asked for {self.trials}")
        if report.checked_bits != self.trials * self.secret_bits:
            problems.append(
                f"{report.checked_bits} checked bits, expected {self.trials * self.secret_bits}"
            )
        aborted = round(report.detection_rate_overall * report.sessions)
        failures = round(report.per_bit_rate * report.checked_bits)
        return OpResult(
            trials=report.sessions,
            sessions=report.sessions,
            rounds=None,
            stats={"aborted": aborted, "bit_failures": failures,
                   "checked_bits": report.checked_bits},
            problems=problems,
        )

    def run_gates(self, results: list[OpResult]) -> list[str]:
        sessions = sum(r.sessions for r in results)
        checked = sum(r.stats["checked_bits"] for r in results)
        return _binomial_gate(
            f"{self.name} abort rate 1-(3/4)^m",
            sum(r.stats["aborted"] for r in results),
            sessions,
            1.0 - 0.75 ** self.secret_bits,
        ) + _binomial_gate(
            f"{self.name} per-bit failure rate 1/4",
            sum(r.stats["bit_failures"] for r in results),
            checked,
            0.25,
        )



@dataclass
class CollectiveMC(Workload):
    """Probe-entangled preparation with forced modes; no sessions at all."""

    name = "collective_mc"
    n_agents: int = 3
    probe_overlap: float = 0.5
    trials: int = 4_000
    min_ops: int = 3
    digest_ops: int = 3

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.attack = adversary.CollectiveAttackConfig(probe_overlap=self.probe_overlap)

    def make_input(self, index: int):
        return protocol.SessionConfig(
            n_agents=self.n_agents, seed=derive_seed(self.name, self.seed, index)
        )

    def run(self, session):
        return adversary.estimate_leakage(self.attack, session, trials=self.trials)

    def check(self, session, estimate) -> OpResult:
        problems = []
        if estimate.sample_count != self.trials:
            problems.append(f"{estimate.sample_count} samples, asked for {self.trials}")
        if not estimate.sifted_mutual_information < SIFTED_MI_LIMIT:
            problems.append(
                f"sifted mutual information {estimate.sifted_mutual_information:.6f} "
                f">= {SIFTED_MI_LIMIT} bits"
            )
        return OpResult(
            trials=self.trials,
            sessions=0,
            rounds=2 * self.trials,   # one all-Share and one all-Check round per trial
            stats={
                "detected": round(estimate.detection_rate * self.trials),
                "mi": estimate.mutual_information,
                "sifted_mi": estimate.sifted_mutual_information,
            },
            problems=problems,
        )

    def run_gates(self, results: list[OpResult]) -> list[str]:
        return _binomial_gate(
            f"{self.name} detection rate (1-c)/2",
            sum(r.stats["detected"] for r in results),
            sum(r.trials for r in results),
            (1.0 - self.probe_overlap) / 2.0,
        )



WORKLOADS = {w.name: w for w in (SessionN3, SessionN8, CollusionMC, CollectiveMC)}


def digest(results: list[OpResult]) -> str:
    """Hash of the simulated statistics of the given operations."""
    payload = json.dumps([r.stats for r in results], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
