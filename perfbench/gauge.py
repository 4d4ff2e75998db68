"""Gauge the speed of one CPU while the benchmark's interpreters run on it.

    python3 perfbench/gauge.py CPU

It pins itself to CPU and, until its stdin closes, runs a fixed burst of
work every GAP_S seconds, timing each burst in its own CPU time, so that
the time the interpreters beside it take from it does not count.  It then
prints one JSON list of [start, seconds] pairs, start on the perf_counter
clock (system-wide, so comparable with the benchmark's stamps).  A burst
is a few milliseconds of exact fractions and small-integer arithmetic and
uses no gapkit code.
"""

from __future__ import annotations

import json
import os
import select
import sys
from fractions import Fraction
from time import perf_counter, thread_time

GAP_S = 0.045


def burst() -> int:
    q = Fraction(0)
    for i in range(1, 240):
        q += Fraction(i % 7 - 3, i % 97 + 1)
    s = 0
    for i in range(12000):
        s += i * i % 7
    return s + q.numerator


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    while True:
        start, cpu = perf_counter(), thread_time()
        burst()
        samples.append([start, thread_time() - cpu])
        # stdin turns readable when the benchmark closes it
        if select.select([sys.stdin], [], [], GAP_S)[0]:
            break
    sys.stdout.write(json.dumps(samples))


if __name__ == "__main__":
    main()
