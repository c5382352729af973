"""The host-speed probe that the benchmark's times are read against.

The host the benchmark runs on is shared, and how fast it runs the
interpreter moves by a third within seconds and by more over minutes.  So
the run reads the host's speed before the first pass and after every pass:
a fixed piece of pure-Python work in the simulator's mix — objects with
attribute reads and method calls, a heap of pending events, a dict, float
arithmetic — timed a few times.  It belongs to the benchmark, not the
program, so no change to the program can move it.  A workload that keeps
several processes busy (the spool's workers) is read with as many
processes running the probe at once, the extra ones helpers that wait on a
pipe between readings.

Every timed sample is then scaled by ``REFERENCE_PROBE_S`` over the probe
time around it (``measures.scaled``): it reads as the seconds the work would
have taken on a host where the probe takes ``REFERENCE_PROBE_S`` — about the
probe's median time on the 2-vCPU Xeon (2.1 GHz) the benchmark was tuned on.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
from time import perf_counter
from typing import List

#: Probe timings per reading.
PROBES_PER_READING = 5

#: Seconds one probe takes on the reference host.
REFERENCE_PROBE_S = 0.002


class _Node:
    __slots__ = ("index", "position", "speed", "seen")

    def __init__(self, index: int) -> None:
        self.index = index
        self.position = float(index)
        self.speed = 1.0 + (index % 7) * 0.25
        self.seen = 0

    def step(self, dt: float) -> float:
        self.position += self.speed * dt
        self.seen += 1
        return self.position


def _work() -> float:
    nodes = [_Node(i) for i in range(32)]
    queue: list = []
    table: dict = {}
    for i in range(64):
        heapq.heappush(queue, ((i * 2654435761) % 1000003 / 1000003.0, i))
    total = 0.0
    for _ in range(1500):
        when, i = heapq.heappop(queue)
        node = nodes[i & 31]
        total += node.step(0.01)
        table[i & 255] = total
        heapq.heappush(queue, (when + 0.001 * (1 + (i % 5)), (i * 7 + 3) & 1023))
    return total + len(table)


def _timings() -> List[float]:
    timings = []
    for _ in range(PROBES_PER_READING):
        started = perf_counter()
        _work()
        timings.append(perf_counter() - started)
    return timings


class SpeedProbe:
    """Readings of the probe on ``processes`` processes at once; a context
    manager that stops its helper processes on exit."""

    def __init__(self, processes: int = 1) -> None:
        self.readings: List[List[float]] = []
        self._helpers = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(processes - 1)
        ]
        # The first timings of a fresh interpreter run slow: warm up.
        self.read()
        self.readings.clear()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait()
            helper.stdout.close()

    def read(self) -> float:
        """Take a reading; returns the mean probe time of it and the reading
        before, which bracket the work done between them."""
        for helper in self._helpers:
            helper.stdin.write("read\n")
            helper.stdin.flush()
        reading = _timings()
        for helper in self._helpers:
            reading.extend(float(value) for value in helper.stdout.readline().split())
        self.readings.append(reading)
        return statistics.fmean(t for r in self.readings[-2:] for t in r)


if __name__ == "__main__":
    # A helper: one reading per line read, until standard input closes.
    for _line in sys.stdin:
        print(" ".join(repr(t) for t in _timings()), flush=True)
