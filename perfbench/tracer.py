"""Span tracer that measures mqss layer by layer from outside the package.

Tracing replaces each traced public function at every module binding that
holds it (``mqss.protocol.measure_z``, ``mqss.adversary.run_round``, ...)
with a wrapper that records a span, and restores every original binding on
exit. Nothing under ``src/`` is edited. Spans live in typed arrays, so a
traced run of a million spans stays near 30 MB, and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

# Layers are the package's modules; the order is the report order.
LAYERS = ("statevec", "ghz", "channel", "protocol", "adversary", "cli")

# Span name -> (defining module, public function). Every module binding that
# holds the function is wrapped, so callers that imported it are traced too.
TRACED_FUNCTIONS = {
    "statevec.measure_z": ("statevec", "measure_z"),
    "statevec.measure_after_hadamard": ("statevec", "measure_after_hadamard"),
    "statevec.apply_gate": ("statevec", "apply_gate"),
    "ghz.prepare": ("ghz", "prepare"),
    "channel.transmit": ("channel", "transmit"),
    "protocol.run_round": ("protocol", "run_round"),
    "protocol.verify_step5": ("protocol", "verify_step5"),
    "protocol.sift": ("protocol", "sift"),
    "protocol.verify_step6": ("protocol", "verify_step6"),
    "protocol.finalize_and_share": ("protocol", "finalize_and_share"),
    "protocol.run_session": ("protocol", "run_session"),
    "adversary.prepare_attacked_state": ("adversary", "prepare_attacked_state"),
    "adversary.run_collusion": ("adversary", "run_collusion"),
    "adversary.estimate_leakage": ("adversary", "estimate_leakage"),
    "cli.run_experiment": ("cli", "run_experiment"),
    "cli.write_transcript": ("cli", "write_transcript"),
}

# Interceptors are closures built per attack, so their factories are wrapped
# and the callables they return are traced: ``adversary.interceptor`` is the
# collusion schedule (every interception opportunity), ``adversary.tap`` the
# measure-resend tap it fires on about half of them.
INTERCEPTOR_SPAN = "adversary.interceptor"
TAP_SPAN = "adversary.tap"

SPAN_NAMES = tuple(TRACED_FUNCTIONS) + (INTERCEPTOR_SPAN, TAP_SPAN)

# Computed traffic model for one state-vector call on q qubits: one full read
# and one full write of 2^q complex128 amplitudes (16 bytes each).
BYTES_PER_AMPLITUDE_PASS = 16 * 2


class Tracer:
    """In-memory span store with layer-boundary counters.

    A span is (name, start, end, parent span, operation id). ``op_id`` is
    set by the caller before each benchmark operation so that spans of one
    operation share it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {
            "amplitude_bytes": 0,
            "case1_rounds": 0,
            "session_attempts": 0,
            "transcript_bytes": 0,
            "transcript_rounds": 0,
        }

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_return: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call under ``name``."""
        nid = self._id(name)
        start, end, name_id, parent, op = (
            self.start, self.end, self.name_id, self.parent, self.op,
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            start.append(0.0)
            stack.append(index)
            start[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span (duration, self time); self = duration minus child spans."""
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child_total = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        return duration, duration - child_total

    def per_name(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) for every span name, traced or not."""
        _, self_time = self.self_times()
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self_time, minlength=len(self.names))
        out = {name: (0, 0.0) for name in SPAN_NAMES}
        for nid, name in enumerate(self.names):
            out[name] = (int(calls[nid]), float(self_s[nid]))
        return out

    def write(self, path: Path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _hooks(tracer: Tracer, mqss) -> dict[str, Callable[[tuple, object], None]]:
    """Counters taken at layer boundaries, so ratios come from where work happens."""
    counters = tracer.counters
    case1 = mqss.protocol.RoundCase.CASE1

    def amplitude_traffic(args, _result):
        counters["amplitude_bytes"] += BYTES_PER_AMPLITUDE_PASS << args[0].qubit_count

    def round_case(_args, record):
        if record.classification is case1:
            counters["case1_rounds"] += 1

    def session_attempts(_args, outcome):
        counters["session_attempts"] += outcome.stats.attempts

    def transcript_size(args, _result):
        counters["transcript_bytes"] += Path(args[0]).stat().st_size
        counters["transcript_rounds"] += sum(len(records) for _, records in args[1])

    return {
        "statevec.measure_z": amplitude_traffic,
        "statevec.measure_after_hadamard": amplitude_traffic,
        "statevec.apply_gate": amplitude_traffic,
        "protocol.run_round": round_case,
        "protocol.run_session": session_attempts,
        "cli.write_transcript": transcript_size,
    }


def package_modules(mqss) -> list:
    return [mqss] + [getattr(mqss, layer) for layer in LAYERS]


def _rebind(modules, original, replacement, saved) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def traced(tracer: Tracer, mqss) -> Iterator[Tracer]:
    """Wrap every traced binding in the package; restore all of them on exit."""
    modules = package_modules(mqss)
    hooks = _hooks(tracer, mqss)
    saved: list[tuple[object, str, object]] = []
    try:
        for span, (layer, attr) in TRACED_FUNCTIONS.items():
            original = getattr(getattr(mqss, layer), attr)
            _rebind(modules, original, tracer.wrap(span, original, hooks.get(span)), saved)

        adversary = mqss.adversary
        make_tap = adversary.measure_resend_interceptor
        make_collusion = adversary.collusion_attack

        def measure_resend_interceptor(config):
            return tracer.wrap(TAP_SPAN, make_tap(config))

        def collusion_attack(config):
            attack = make_collusion(config)
            return replace(attack, interceptors={
                particle: tracer.wrap(INTERCEPTOR_SPAN, hook)
                for particle, hook in attack.interceptors.items()
            })

        _rebind(modules, make_tap, measure_resend_interceptor, saved)
        _rebind(modules, make_collusion, collusion_attack, saved)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def binding_snapshot(mqss) -> dict[tuple[str, str], object]:
    """Every callable binding in the package, for checking restoration."""
    return {
        (module.__name__, attr): value
        for module in package_modules(mqss)
        for attr, value in vars(module).items()
        if callable(value)
    }


def layer_metrics(
    tracer: Tracer, wall_s: float, untraced_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase as ``name -> (value, unit)``.

    ``wall_s`` is the benchmark's own timing of the traced operations and
    ``untraced_s`` that of the same operations with tracing off.
    """
    per_name = tracer.per_name()
    metrics: dict[str, tuple[float, str]] = {}
    for span, (calls, self_s) in per_name.items():
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_s"] = (self_s, "s")
    traced_self = sum(self_s for _, self_s in per_name.values())
    for layer in LAYERS:
        layer_self = sum(
            self_s for span, (_, self_s) in per_name.items()
            if span.split(".", 1)[0] == layer
        )
        metrics[f"{layer}.share"] = (_ratio(layer_self, wall_s), "frac")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.residual_s"] = (wall_s - traced_self, "s")
    metrics["trace.overhead_frac"] = (_ratio(wall_s, untraced_s) - 1.0, "frac")

    counters = tracer.counters
    rounds = per_name["protocol.run_round"][0]
    sessions = per_name["protocol.run_session"][0]
    metrics["statevec.bytes_per_round"] = (
        _ratio(counters["amplitude_bytes"], rounds), "B",
    )
    metrics["protocol.rounds_per_session"] = (_ratio(rounds, sessions), "count")
    metrics["protocol.attempts_per_session"] = (
        _ratio(counters["session_attempts"], sessions), "count",
    )
    metrics["protocol.case1_frac"] = (_ratio(counters["case1_rounds"], rounds), "frac")
    metrics["adversary.taps_per_intercept"] = (
        _ratio(per_name[TAP_SPAN][0], per_name[INTERCEPTOR_SPAN][0]), "frac",
    )
    metrics["cli.transcript_bytes_per_round"] = (
        _ratio(counters["transcript_bytes"], counters["transcript_rounds"]), "B",
    )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    # a layer the workload bypasses reads 0, not NaN
    return numerator / denominator if denominator else 0.0
