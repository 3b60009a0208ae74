"""Gauging the host's speed around and during timed queries.

Other tenants of a shared host move its speed by ±25% over minutes, which
swamps the run-to-run comparison the benchmark exists for. A ``Pacer``
times a fixed reference computation between queries and, through a SIGALRM
interval timer, every DURING_INTERVAL_S while a query runs. A query's
latency is then reported at a fixed nominal speed: its busy time (wall time
less the time its in-query probes took) times NOMINAL_ITERATION_S over the
median seconds per probe iteration within WINDOW_S of it.

The reference computation is the same mix of interpreter work and small
numpy calls that belldet's queries are made of, so contention slows both
alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

# Seconds one probe iteration takes at the nominal speed: about its median
# on a 2.1 GHz Xeon vCPU, so scaled times read close to wall times there.
NOMINAL_ITERATION_S = 5e-6
BETWEEN_ITERATIONS = 1000
DURING_ITERATIONS = 200
DURING_INTERVAL_S = 0.05
WINDOW_S = 2.0


class Pacer:
    def __init__(self, during: bool = True) -> None:
        import numpy as np

        matrix = np.random.default_rng(0).standard_normal((8, 8))
        trace = np.trace

        def work(iterations: int) -> float:
            acc = 0.0
            for _ in range(iterations):
                acc += float(trace(matrix @ matrix))
            return acc

        self._work = work
        self._during = during
        self._in_query = 0.0
        # (midpoint, seconds per iteration) of every probe, in time order.
        self.samples: list[tuple[float, float]] = []
        # (start, end, busy seconds) of the last timed call.
        self.last: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def probe(self, iterations: int = BETWEEN_ITERATIONS) -> float:
        """Run the reference computation once; return the seconds it took."""
        start = time.perf_counter()
        self._work(iterations)
        end = time.perf_counter()
        self.samples.append(((start + end) / 2.0, (end - start) / iterations))
        return end - start

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe(DURING_ITERATIONS)
        self._in_query += time.perf_counter() - start

    def time(self, call: Callable[[], object]) -> object:
        """Return ``call()``; its (start, end, busy seconds) go to ``self.last``."""
        self._in_query = 0.0
        if self._during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, DURING_INTERVAL_S, DURING_INTERVAL_S)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            if self._during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.last = (start, end, end - start - self._in_query)

    def pace(self, start: float, end: float) -> float:
        """Median seconds per probe iteration within WINDOW_S of [start, end]."""
        return statistics.median(
            per_iteration for mid, per_iteration in self.samples
            if start - WINDOW_S <= mid <= end + WINDOW_S
        )

    def scaled(self, start: float, end: float, busy: float) -> float:
        """``busy`` seconds spent over [start, end], at the nominal speed."""
        return busy * NOMINAL_ITERATION_S / self.pace(start, end)
