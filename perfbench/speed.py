"""Machine-speed reference that corrects timings for drift of a shared host.

On a shared two-core host the same code ran up to 1.8 times slower for
minutes at a time, because of neighbours' load. Ten raw runs of one workload
spread by up to 46 % between quartiles, far beyond any regression bound
worth having. A fixed kernel, timed between operations, follows that drift.
It is a Python loop of numpy calls on a 512-amplitude complex vector, the
mix of the simulator's hot path.

Not every workload slows as much as the kernel does. On recorded runs,
``session_n3`` and ``collective_mc`` moved with it fully, while
``collusion_mc`` moved about a quarter as much. So a time is corrected by
``(NOMINAL_S / reference) ** SENSITIVITY``. That gives the time the run
would have taken on a machine whose reference pass takes ``NOMINAL_S``,
assuming the workload follows the kernel at that power. On six recorded
runs of each workload, 0.6 gave the lowest worst-case spread of corrected
throughput: 0.074 between quartiles. Raw throughput spread up to 0.21 on
the same runs, and full correction up to 0.12.

The kernel and both constants are part of the benchmark definition.
Changing any of them changes every corrected number.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010
SENSITIVITY = 0.6
_LOOPS = 1_500
_AMPLITUDES = 512
_SQRT2_INV = 0.7071067811865476


def reference_pass() -> float:
    """Seconds taken by one pass of the fixed reference kernel."""
    state = np.full(_AMPLITUDES, _AMPLITUDES ** -0.5, dtype=complex)
    started = perf_counter()
    total = 0.0
    for _ in range(_LOOPS):
        view = state.reshape(16, 2, 16)
        minus = (view[:, 0, :] - view[:, 1, :]) * _SQRT2_INV
        total += float(np.vdot(minus, minus).real)
        collapsed = np.zeros(_AMPLITUDES, dtype=complex)
        collapsed.reshape(16, 2, 16)[:, 1, :] = minus
    return perf_counter() - started


def corrected_seconds(seconds: float, reference: float) -> float:
    """``seconds`` taken while a reference pass took ``reference`` seconds,
    at the nominal reference speed."""
    return seconds * (NOMINAL_S / reference) ** SENSITIVITY


class SpeedLog:
    """Reference passes taken between operations, with their timestamps.

    About one pass per ``INTERVAL_S`` of elapsed time: after a long
    operation, up to ``MAX_PASSES`` passes make up for the gap. A time span
    is corrected by the median of the passes within ``MARGIN_S`` of it. On
    recorded runs a 2 s margin tracked drift better than one median per run.
    """

    INTERVAL_S = 0.25
    MAX_PASSES = 5
    MARGIN_S = 2.0

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = None

    def sample(self) -> None:
        """Time reference passes if ``INTERVAL_S`` has passed since the last."""
        if self._last is None:
            passes = 1
        else:
            elapsed = perf_counter() - self._last
            passes = min(self.MAX_PASSES, int(elapsed / self.INTERVAL_S))
        for _ in range(passes):
            self.seconds.append(reference_pass())
            self.times.append(perf_counter())
        if passes:
            self._last = perf_counter()

    def corrected(self, start: float, end: float) -> float:
        """Seconds of [start, end] at the nominal reference speed."""
        near = [
            s for t, s in zip(self.times, self.seconds)
            if start - self.MARGIN_S <= t <= end + self.MARGIN_S
        ]
        return corrected_seconds(end - start, statistics.median(near or self.seconds))
