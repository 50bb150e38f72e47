"""mqss benchmark: seeded workloads, end-to-end metrics, traced layer timings.

One workload::

    python3 perfbench/run.py --workload session_n3 --seed 1 --seconds 20 --trace 0

Every workload, untraced and then traced, each in a fresh process::

    python3 perfbench/run.py --seed 1 --seconds 20

Each workload is a closed loop with one caller in one process: the next
operation starts when the previous one returns. ``--trace 0`` measures the
end-to-end metrics with nothing wrapped. ``--trace 1`` runs each input
untraced and then again with every layer boundary traced, restoring the
bindings in between, and ends with the untraced per-n round sweep. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy

from speed import NOMINAL_S, SpeedLog, corrected_seconds

try:
    import tracer as tracing
    import workloads
except ImportError as exc:  # the checkout holds no mqss sources
    workloads = None
    IMPORT_ERROR = exc

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# (agents, rounds) of the per-n round-cost sweep run via protocol.run_rounds
SWEEP = ((2, 3000), (3, 3000), (5, 2000), (8, 1000), (12, 200))
WORKLOAD_NAMES = ("session_n3", "session_n8", "collusion_mc", "collective_mc")


@dataclass
class Sample:
    started: float
    seconds: float
    result: object  # workloads.OpResult


def timed_op(workload, op_input) -> Sample:
    """Run and time one operation, then check its output outside the timing."""
    started = perf_counter()
    try:
        raw = workload.run(op_input)
    except Exception as exc:  # a raising operation is counted as failed
        return Sample(started, perf_counter() - started,
                      workloads.OpResult(0, 0, None, {}, [f"raised {exc!r}"]))
    elapsed = perf_counter() - started
    return Sample(started, elapsed, workload.check(op_input, raw))


def run_ops(workload, seconds: float, min_ops: int, speed: SpeedLog) -> list[Sample]:
    """Closed loop: run operations until ``seconds`` pass and ``min_ops`` ran.

    Reference passes run between operations, outside their timing.
    """
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < min_ops or perf_counter() < deadline:
        speed.sample()
        samples.append(timed_op(workload, workload.make_input(len(samples))))
    speed.sample()
    return samples


def run_traced_pairs(workload, seconds: float, min_ops: int, spans):
    """Each input runs untraced, then traced; bindings are restored in between.

    Pairing the two runs of one input keeps drift in machine speed out of
    the tracing overhead.
    """
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while len(untraced) < min_ops or perf_counter() < deadline:
        op_input = workload.make_input(len(untraced))
        untraced.append(timed_op(workload, op_input))
        spans.op_id = len(traced)
        with tracing.traced(spans, workloads.mqss):
            traced.append(timed_op(workload, op_input))
    return untraced, traced


def setup_seconds(workload_name: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference pass seconds) of fresh processes."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=HERE.parent,
        )
        setup, reference = done.stdout.split()[-2:]
        times.append((float(setup), float(reference)))
    return times


def round_cost_sweep(seed: int) -> dict[str, tuple[float, str]]:
    """Microseconds per round at several agent counts, untraced."""
    protocol = workloads.protocol
    out = {}
    for agents, rounds in SWEEP:
        config = protocol.SessionConfig(
            n_agents=agents, seed=workloads.derive_seed("sweep", seed, agents)
        )
        started = perf_counter()
        protocol.run_rounds(config, rounds)
        out[f"protocol.us_per_round.n{agents}"] = (
            (perf_counter() - started) / rounds * 1e6, "us",
        )
    return out


def git_sha() -> str:
    head = HERE.parent / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (head.parent / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "seed": seed,
    }


def end_to_end(
    samples: list[Sample], setup: list[tuple[float, float]], speed: SpeedLog
) -> tuple[dict, list[str]]:
    """End-to-end metrics, and the human-readable lines that report them.

    The JSON metrics are corrected to the nominal reference speed (see
    ``speed.py``); the lines also give the raw, as-seen figures.
    """
    ok = [s for s in samples if not s.result.problems] or samples
    seconds = sum(s.seconds for s in ok)
    ref_seconds = sum(speed.corrected(s.started, s.started + s.seconds) for s in ok)
    trials = sum(s.result.trials for s in ok)
    sessions = sum(s.result.sessions for s in ok)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_raw = statistics.median(t for t, _ in setup)
    setup_ref = statistics.median(corrected_seconds(t, r) for t, r in setup)
    metrics = {
        "trials_per_ref_s": (trials / ref_seconds, "1/ref_s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_ref, "s"),
    }
    reference = statistics.median(speed.seconds)
    lines = [
        f"  reference pass   {reference * 1e3:10.3f} ms   (median of {len(speed.seconds)}; "
        f"nominal {NOMINAL_S * 1e3:g} ms, so raw times x about "
        f"{corrected_seconds(1.0, reference):.3f})",
        f"  trials_per_ref_s {trials / ref_seconds:10.4f} 1/ref_s  "
        f"(raw trials_per_s {trials / seconds:.4f}; {trials} trials in {seconds:.3f} s)",
    ]
    rates = [s.result.rounds / s.seconds for s in ok if s.result.rounds is not None]
    if rates:
        lines.append(f"  rounds_per_s     {statistics.median(rates):10.2f} 1/s  "
                     f"(raw, median of {len(rates)} per-operation rates)")
    else:
        lines.append("  rounds_per_s            n/a      (the operation does not report its rounds)")
    if sessions:
        lines.append(f"  sessions_per_s   {sessions / seconds:10.4f} 1/s  (raw, {sessions} sessions)")
    else:
        lines.append("  sessions_per_s          n/a      (no sessions on this workload)")
    ms = [s.seconds * 1e3 for s in ok]
    label = "session_ms" if all(s.result.sessions == 1 for s in ok) else "op_ms"
    lines.append(f"  {label + '_p50':<16} {statistics.median(ms):10.3f} ms   (raw, n={len(ms)})")
    if len(ms) >= 100:
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
        lines.append(f"  {label + '_p90':<16} {p90:10.3f} ms   "
                     f"(raw, n={len(ms)}, {sum(v > p90 for v in ms)} beyond)")
    else:
        lines.append(f"  {label + '_p90':<16}        n/a      (fewer than 100 operations)")
    lines.append(f"  peak_rss_mb      {peak_rss_mb:10.3f} MB")
    lines.append(f"  setup_s          {setup_ref:10.4f} s    (raw {setup_raw:.4f} s; median of "
                 f"{len(setup)} fresh processes)")
    failed = sum(1 for s in samples if s.result.problems)
    lines.append(f"  fail_frac        {failed / len(samples):10.4f}      "
                 f"({failed}/{len(samples)} operations)")
    return metrics, lines


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workload=None,
    probes: int = SETUP_PROBES,
    spans_path: Path | None = None,
) -> tuple[dict, list[str], dict]:
    """Run one workload; returns (result line, report lines, run record)."""
    if workload is None:
        workload = workloads.WORKLOADS[name]()
    workload.prepare(seed)
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    record = {"workload": name, "trace": int(trace), "metadata": metadata(seed)}
    lines.append("  " + " ".join(f"{k}={v}" for k, v in record["metadata"].items()))
    try:
        if not trace:
            setup = setup_seconds(name, seed, probes)
            speed = SpeedLog()
            samples = run_ops(workload, seconds, workload.min_ops, speed)
            metrics, metric_lines = end_to_end(samples, setup, speed)
            lines += metric_lines
            problems = []
        else:
            before = tracing.binding_snapshot(workloads.mqss)
            spans = tracing.Tracer()
            samples, replay = run_traced_pairs(workload, seconds / 2, workload.digest_ops, spans)
            problems = []
            if tracing.binding_snapshot(workloads.mqss) != before:
                problems.append("module bindings were not restored after tracing")
            if [s.result.stats for s in replay] != [s.result.stats for s in samples]:
                problems.append("tracing changed the simulated statistics")
            metrics = tracing.layer_metrics(
                spans, sum(s.seconds for s in replay), sum(s.seconds for s in samples)
            )
            metrics.update(round_cost_sweep(seed))
            spans_path = spans_path or workloads.OUT_DIR / f"spans-{name}-seed{seed}.npz"
            spans.write(spans_path)
            lines += layer_lines(metrics, len(spans.start), spans_path)
            samples = samples + replay
    finally:
        workload.close()

    base = samples if not trace else samples[: len(samples) // 2]
    problems += workload.run_gates([s.result for s in base])
    op_problems = [(i, s.result.problems) for i, s in enumerate(samples) if s.result.problems]
    failed = len(op_problems)
    correct = failed == 0 and not problems
    digest_ops = min(workload.digest_ops, len(base))
    record["digest"] = workloads.digest([s.result for s in base[:digest_ops]])
    lines.append(f"  digest {record['digest']} (simulated statistics of the first "
                 f"{digest_ops} operations)")
    for index, op in op_problems[:5]:
        lines.append(f"  FAILED operation {index}: {'; '.join(op)}")
    for problem in problems:
        lines.append(f"  FAILED run gate: {problem}")
    lines.append(f"  correctness: {'ok' if correct else 'FAILED'} "
                 f"({len(samples)} operations, {failed} failed, {len(problems)} run gates failed)")

    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result)
    record["run_gate_problems"] = problems
    return result, lines, record


def layer_lines(metrics: dict, span_count: int, spans_path: Path) -> list[str]:
    lines = [f"  traced {span_count} spans, written to {spans_path.name}"]
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<{width}} {value:14.6g} {unit}")
    return lines


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            summary[f"{name}/trace{trace}"] = result
            status |= 0 if result["correct"] else 1
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if workloads is None:
        print(f"perfbench: cannot load mqss: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)

    result, lines, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    record_path = workloads.OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(f"  run record written to {record_path.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
