"""Span tracer that wraps belldet's public functions where they are imported.

Every wrapped call appends one span (layer, start, end, parent) to an
in-memory list; nothing is written until the run ends. ``install`` swaps
the wrappers in at the import sites below and ``restore`` puts the
original objects back, so an untraced query after a traced one runs the
program exactly as shipped. ``traced`` does both around one query.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Callable, Iterator

# (module, attribute, layer): every import site a benchmark query reaches.
# A layer imported into several modules is wrapped at each of them.
SITES = (
    ("cli", "main", "cli.main"),
    ("protocol", "critical_eta_high", "protocol.critical_eta_high"),
    ("protocol", "critical_visibility", "protocol.critical_visibility"),
    ("protocol", "composite_parts", "protocol.composite_parts"),
    ("protocol", "projected_state", "protocol.projected_state"),
    ("analysis", "projected_state", "protocol.projected_state"),
    ("analysis", "damaged_state", "analysis.damaged_state"),
    ("bell", "optimize_settings", "bell.optimize_settings"),
    ("protocol", "optimize_settings", "bell.optimize_settings"),
    ("cli", "optimize_settings", "bell.optimize_settings"),
    ("protocol", "quantum_value", "bell.quantum_value"),
    ("bell", "minimize", "bell.minimize"),
    ("bell", "lhv_bound", "bell.lhv_bound"),
    ("cli", "lhv_bound", "bell.lhv_bound"),
    ("protocol", "project", "qstate.project"),
    ("analysis", "project", "qstate.project"),
    ("protocol", "partial_trace", "qstate.partial_trace"),
    ("analysis", "partial_trace", "qstate.partial_trace"),
    ("protocol", "make_state", "states.make_state"),
    ("protocol", "add_white_noise", "states.add_white_noise"),
)

QUERY = "query"


class Tracer:
    def __init__(self, modules: dict) -> None:
        """``modules`` maps the names used in SITES to belldet's modules."""
        self.modules = modules
        # Each span is [layer, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn: Callable, layer: str, on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every site in SITES that exists in the program.

        A site missing from the program (say, once scipy's ``minimize`` is
        gone) is skipped, and its layer reports no calls.
        """
        hooks = {
            "protocol.critical_eta_high": self._count_solve,
            "protocol.critical_visibility": self._count_solve,
            "bell.minimize": self._count_minimize,
        }
        for module_name, attr, layer in SITES:
            module = self.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is not None:
                self._patch(module, attr, self.wrap(fn, layer, hooks.get(layer)))
        # Every DensityMatrix construction runs a full eigvalsh.
        cls = self.modules["qstate"].DensityMatrix
        self._patch(cls, "__post_init__", self.wrap(cls.__post_init__, "qstate.DensityMatrix"))

    def traced(self, call: Callable) -> Callable:
        """``call`` run as one query span with every site wrapped, and the
        program restored afterwards."""

        def run():
            self.install()
            try:
                with self.span(QUERY):
                    return call()
            finally:
                self.restore()

        return run

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _count_solve(self, result) -> None:
        self.counters["protocol.solver_rounds"] += result.iterations
        self.counters["protocol.bisection_iterations"] += result.diagnostics.get(
            "bisection_iterations", 0
        )
        residual = result.achieved_residual
        if result.status == "ok" and (residual is None or residual >= 1e-9):
            self.counters["protocol.ok_above_tol"] += 1

    def _count_minimize(self, result) -> None:
        self.counters["bell.minimize.nfev"] += int(result.nfev)
        self.counters["bell.minimize.success"] += int(bool(result.success))


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per layer.

    Spans come from one thread and nest strictly, so a span's children
    cover disjoint parts of it and its self time is its duration minus the
    sum of its direct children's durations.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (layer, start, end, _), children in zip(spans, child_time):
        entry = out.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children
    return out
