"""Print one fresh process's set-up seconds and reference-pass seconds.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``. The clock
starts before mqss (and numpy) are imported and stops once the first
operation's inputs exist, which is where the benchmark starts timing. The
median of three reference passes taken afterwards gives the machine speed
that the set-up time is corrected by.
"""

import sys
from time import perf_counter

_STARTED = perf_counter()


def main(argv: list[str]) -> int:
    import workloads

    workload = workloads.WORKLOADS[argv[1]]()
    workload.prepare(int(argv[2]))
    workload.make_input(0)
    setup = perf_counter() - _STARTED

    import statistics

    import speed

    reference = statistics.median(speed.reference_pass() for _ in range(3))
    print(repr(setup), repr(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
