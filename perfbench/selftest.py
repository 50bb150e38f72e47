"""Tests of the benchmark itself: ``python3 -m pytest perfbench/selftest.py``.

The file name keeps them out of the repository's default test collection,
because they start processes and take about fifteen seconds. Workloads run
here at tiny sizes; the benchmark's own sizes are the dataclass defaults.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str, tmp_path: Path):
    return {
        "session_n3": lambda: workloads.SessionN3(
            secret_bits=2, min_ops=3, digest_ops=2, transcript=tmp_path / "t.jsonl"
        ),
        "session_n8": lambda: workloads.SessionN8(
            n_agents=4, secret_bits=1, min_ops=3, digest_ops=2
        ),
        "collusion_mc": lambda: workloads.CollusionMC(secret_bits=1),
        "collective_mc": lambda: workloads.CollectiveMC(
            trials=1_000, min_ops=2, digest_ops=2
        ),
    }[name]()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_smoke_reports_every_end_to_end_metric(name, tmp_path):
    result, lines, _ = run.run_workload(
        name, seed=3, seconds=0.01, trace=False, workload=tiny(name, tmp_path), probes=1
    )
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_reports_every_layer_metric(name, tmp_path):
    result, lines, _ = run.run_workload(
        name, seed=3, seconds=0.01, trace=True, workload=tiny(name, tmp_path),
        spans_path=tmp_path / "spans.npz",
    )
    assert result["correct"], lines
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    shares = sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS)
    residual = metrics["trace.residual_s"] / metrics["trace.wall_s"]
    assert shares + residual == pytest.approx(1.0)
    assert residual >= 0
    with np.load(tmp_path / "spans.npz") as spans:
        assert len(spans["start"]) == sum(
            v for k, v in metrics.items() if k.endswith(".calls")
        )


def traced_session(tmp_path):
    workload = tiny("session_n3", tmp_path)
    workload.prepare(5)
    spans = tracing.Tracer()
    with tracing.traced(spans, workloads.mqss):
        for index in range(2):
            spans.op_id = index
            workload.run(workload.make_input(index))
    return spans


def test_self_time_is_nonnegative_and_children_fit_in_parents(tmp_path):
    spans = traced_session(tmp_path)
    start, end = np.frombuffer(spans.start), np.frombuffer(spans.end)
    parent = np.frombuffer(spans.parent, dtype=np.int32)
    duration, self_time = spans.self_times()
    nested = np.flatnonzero(parent >= 0)
    assert len(nested) > 0
    assert np.all(start[nested] >= start[parent[nested]])
    assert np.all(end[nested] <= end[parent[nested]])
    assert np.all(self_time >= 0)
    top = parent < 0
    assert self_time.sum() == pytest.approx(duration[top].sum())
    assert set(np.frombuffer(spans.op, dtype=np.int32)) == {0, 1}


def test_bindings_are_restored_even_when_the_operation_raises():
    before = tracing.binding_snapshot(workloads.mqss)
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer(), workloads.mqss):
            assert workloads.protocol.measure_z is not before[("mqss.protocol", "measure_z")]
            assert workloads.adversary.run_round is not before[("mqss.adversary", "run_round")]
            raise RuntimeError("stop")
    assert tracing.binding_snapshot(workloads.mqss) == before


def test_same_seed_same_digest_and_new_seed_new_inputs(tmp_path):
    def digest(seed):
        _, _, record = run.run_workload(
            "session_n8", seed, 0.01, False, tiny("session_n8", tmp_path), probes=1
        )
        return record["digest"]

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)
    first, again, other = (tiny("session_n3", tmp_path) for _ in range(3))
    first.prepare(11)
    again.prepare(11)
    other.prepare(12)
    assert first.make_input(0) == again.make_input(0)
    assert first.make_input(0) != other.make_input(0)


def test_closed_form_gate_rejects_a_rate_far_outside_its_bound():
    assert workloads._binomial_gate("rate", 50, 100, 0.5) == []
    assert workloads._binomial_gate("rate", 10, 100, 0.5) != []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "session_n3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
