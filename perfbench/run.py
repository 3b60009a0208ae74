"""belldet benchmark: one closed-loop client issuing queries back to back.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; belldet is imported from ``src/``. The run
builds the workload's inputs from the seed, times fresh-interpreter set-up
in child processes, then issues ``round(S / PASS_SECONDS)`` whole passes
over the workload's queries, checking every answer against its oracle.
Latencies are reported at the nominal host speed that ``pace.Pacer``
gauges, since the shared host's own speed drifts between runs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes half the
passes, issuing every query untraced and then traced, and reports
per-layer metrics and the tracing overhead. The second-to-last stdout line is a JSON record with
the environment, sample counts and raw layer times; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import Pacer
from tracer import QUERY, Tracer, layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

# BLAS thread cap, applied before numpy loads; set-up probes inherit it.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS_USABLE = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))

SETUP_PROBES = 5
SETUP_PACE_PROBES = 10
TAIL_BEYOND = 10

# Layers whose calls and time shares the traced run reports.
LAYERS = (
    "cli.main",
    "protocol.critical_eta_high",
    "protocol.critical_visibility",
    "protocol.composite_parts",
    "protocol.projected_state",
    "analysis.damaged_state",
    "bell.optimize_settings",
    "bell.quantum_value",
    "bell.lhv_bound",
    "qstate.project",
    "qstate.partial_trace",
    "states.make_state",
    "states.add_white_noise",
)
SELF_SHARE_LAYERS = (
    "cli.main",
    "protocol.projected_state",
    "analysis.damaged_state",
    "bell.optimize_settings",
)
COUNTERS = ("protocol.solver_rounds", "protocol.bisection_iterations")
TRACED_MODULES = ("cli", "protocol", "analysis", "bell", "qstate")


def import_belldet() -> float:
    """Import belldet from src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import belldet
        import belldet.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import belldet from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    if Path(belldet.__file__).resolve().parent != SRC / "belldet":
        sys.exit(f"perfbench: belldet was imported from {belldet.__file__}, not {SRC}")
    return elapsed


def pass_count(workload: str, seconds: float, trace: int) -> int:
    """Whole passes a run makes; a traced pass issues every query twice."""
    import workloads

    return max(1, round(seconds / (workloads.PASS_SECONDS[workload] * (1 + trace))))


def setup_probe(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Child process: import, build the inputs, report, clean up."""
    import_s = import_belldet()
    import workloads

    workdir = WORKDIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.build(workload, seed, workdir, pass_count(workload, seconds, trace))
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, seconds: float, trace: int
                  ) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until its inputs are built.

    Reference probes run before and after each child, and its wall time is
    reported at the nominal host speed they gauge.
    """
    setup, imports = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    pacer = Pacer(during=False)
    children = []
    for _ in range(SETUP_PACE_PROBES):
        pacer.probe()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            end = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or not line:
            sys.exit(f"perfbench: set-up probe exited with code {code}")
        for _ in range(SETUP_PACE_PROBES):
            pacer.probe()
        children.append((start, end))
        imports.append(json.loads(line)["import_s"])
    setup = [pacer.scaled(start, end, end - start) for start, end in children]
    return setup, imports


def run_passes(queries, pacer: Pacer):
    """Issue the queries in order, probing the host between them.

    Returns each query's ``(start, end, busy seconds)`` and the failure
    reasons. Only the program call is timed; the probes and the oracle
    check run outside it.
    """
    samples: list[tuple[float, float, float]] = []
    failures: list[str] = []
    pacer.probe()
    for query in queries:
        reason = None
        try:
            answer = pacer.time(query.call)
        except Exception as exc:  # a query that raises counts as failed
            reason = f"{type(exc).__name__}: {exc}"
        samples.append(pacer.last)
        pacer.probe()
        if reason is None:
            try:
                reason = query.check(answer)
            except Exception as exc:  # a malformed answer counts as failed
                reason = f"unreadable answer: {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{query.label}: {reason}")
    return samples, failures


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": CPUS_USABLE,
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "pinned_cpu": CPU,
        "commit": git_commit(),
    }


def query_figures(latencies: list[float]) -> dict:
    """queries_per_s, query_p50_s and query_tail_s over every query of the run."""
    return {
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "query_p50_s": (statistics.median(latencies), "s"),
        "query_tail_s": (tail(latencies)[0], "s"),
    }


def end_to_end(scaled: list[float], wall: list[float], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from scaled latencies; the wall-clock figures go to the record."""
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        **query_figures(scaled),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"queries": len(scaled), "tail_percentile": tail(scaled)[1],
              "tail_samples_beyond": TAIL_BEYOND,
              "wall": {name: value for name, (value, _) in query_figures(wall).items()},
              "setup_samples_s": setup}
    return metrics, detail


def per_layer(tracer, traced: list[float], untraced: list[float], imports: list[float]):
    times = layer_times(tracer.spans)
    query_s = times[QUERY]["s"]
    count = len(traced)
    none = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {}
    for layer in LAYERS:
        entry = times.get(layer, none)
        metrics[f"{layer}.calls_per_query"] = (entry["calls"] / count, "calls/query")
        metrics[f"{layer}.share"] = (entry["s"] / query_s, "ratio")
        if layer in SELF_SHARE_LAYERS:
            metrics[f"{layer}.self_share"] = (entry["self_s"] / query_s, "ratio")
    dm = times.get("qstate.DensityMatrix", none)
    metrics["qstate.DensityMatrix.constructions_per_query"] = (dm["calls"] / count, "calls/query")
    for name in COUNTERS:
        metrics[f"{name}_per_query"] = (tracer.counters[name] / count, "count/query")
    metrics["protocol.ok_above_tol"] = (tracer.counters["protocol.ok_above_tol"], "count")
    metrics["setup.import_s"] = (statistics.median(imports), "s")
    metrics["trace.query_s"] = (query_s / count, "s")
    metrics["trace.overhead"] = (sum(traced) / sum(untraced), "ratio")
    detail = {"layers": times, "counters": dict(tracer.counters)}
    minimize = times.get("bell.minimize")
    if minimize is not None:  # absent once the optimizer no longer uses scipy
        detail["bell.minimize"] = {
            "calls": minimize["calls"],
            "nfev": tracer.counters["bell.minimize.nfev"],
            "success_ratio": tracer.counters["bell.minimize.success"] / minimize["calls"],
        }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # One CPU for the run and its set-up children, so that the reference
    # probes gauge the CPU the queries run on.
    os.sched_setaffinity(0, {CPU})
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds, args.trace)
        return 0

    import_belldet()
    import belldet
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        passes = pass_count(args.workload, args.seconds, args.trace)
        built = workloads.build(args.workload, args.seed, workdir, passes)
        setup, imports = measure_setup(args.workload, args.seed, args.seconds, args.trace)
        record = {"env": environment(args.workload, args.seed), "queries_per_pass": len(built[0])}
        queries = [query for one_pass in built for query in one_pass]
        if args.trace:
            tracer = Tracer({name: getattr(belldet, name) for name in TRACED_MODULES})
            # Each query runs untraced and then traced, back to back, so the
            # overhead compares the two under the same load on the machine.
            paired = []
            for query in queries:
                paired += [query, dataclasses.replace(query, call=tracer.traced(query.call))]
            samples, failures = run_passes(paired, Pacer(during=False))
            wall = [busy for _, _, busy in samples]
            metrics, detail = per_layer(tracer, wall[1::2], wall[0::2], imports)
        else:
            pacer = Pacer()
            samples, failures = run_passes(queries, pacer)
            wall = [busy for _, _, busy in samples]
            metrics, detail = end_to_end([pacer.scaled(*sample) for sample in samples], wall, setup)
        attempted = len(samples)
        record.update(detail, passes=passes, fail_ratio=len(failures) / attempted,
                      failures=failures[:20])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    print(json.dumps({"perfbench": record}, default=float))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
