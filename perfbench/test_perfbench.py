"""Tests of the benchmark itself: oracles, tracer arithmetic, traced answers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import belldet  # noqa: E402
import oracles as orc  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pace import Pacer  # noqa: E402
from tracer import SITES, Tracer, layer_times  # noqa: E402

MODULES = {name: getattr(belldet, name) for name in run.TRACED_MODULES}


def test_paper_closed_forms():
    assert orc.CRITICAL_ETA_CHSH == pytest.approx(0.8284271247461901, abs=1e-15)
    assert orc.CRITICAL_ETA_CHSH == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-15)
    assert orc.CRITICAL_VISIBILITY_CHSH == pytest.approx(0.7071067811865476, abs=1e-15)


def test_horodecki_on_known_states():
    phi_plus = np.zeros((4, 4))
    phi_plus[np.ix_((0, 3), (0, 3))] = 0.5
    t = orc.correlation_matrix(phi_plus)
    assert np.allclose(t, orc.T_PHI_PLUS)
    assert orc.horodecki_chsh(t) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
    # Dicke(4,2) losing one qubit, next qubit on |1>: the criterion-7 value
    # 4 sqrt(2)/3 over all settings, 2 sqrt(5)/3 in the x-z plane.
    weight, fraction, t = orc.dicke_loss(4, 2, 1, 1)
    assert (weight, fraction) == pytest.approx((0.5, 2.0 / 3.0))
    assert orc.horodecki_chsh(t) == pytest.approx(1.885618083164127, abs=1e-14)
    assert orc.horodecki_chsh_real_plane(t) == pytest.approx(2.0 * math.sqrt(5.0) / 3.0, abs=1e-14)


@pytest.mark.parametrize("n,e,lost,u", [(4, 2, 1, 1), (5, 2, 2, 0), (6, 3, 1, 2), (7, 4, 3, 1)])
def test_dicke_loss_matches_numerical_partial_trace(n, e, lost, u):
    weight, _, t = orc.dicke_loss(n, e, lost, u)
    amp = np.array([1.0 if bin(i).count("1") == e else 0.0 for i in range(2**n)])
    psi = (amp / np.linalg.norm(amp)).reshape([2] * n)
    pattern = [1] * u + [0] * (n - lost - 2 - u)
    kept = psi[(slice(None),) * lost + tuple(pattern)].reshape(2**lost, 4)
    rho = kept.T @ kept.conj()
    assert np.trace(rho).real == pytest.approx(weight, abs=1e-14)
    assert np.allclose(orc.correlation_matrix(rho / np.trace(rho)), t, atol=1e-14)


def test_projection_weights():
    assert orc.ghz_projection_weight(8) == 1.0 / 64.0
    assert orc.dicke_projection_weight(4) == pytest.approx(1.0 / 3.0)
    assert orc.dicke_projection_weight(9) == pytest.approx(2.0 / 126.0)
    total, v_eff = orc.noisy_projection(orc.ghz_projection_weight(4), 4, 0.5)
    assert (total, v_eff) == pytest.approx((0.25, 0.5))


def test_chsh_on_noisy_pair():
    ideal = [[(0.0, 0.0), (math.pi / 2, 0.0)], [(math.pi / 4, 0.0), (-math.pi / 4, 0.0)]]
    assert orc.chsh_on_noisy_pair(orc.T_PHI_PLUS, 1.0, 1.0, ideal) == pytest.approx(2 * math.sqrt(2))
    assert orc.chsh_on_noisy_pair(orc.T_PHI_PLUS, 0.5, 1.0, ideal) == pytest.approx(math.sqrt(2))
    # White noise alone: each folded correlator is (eta - 1)^2, and the CHSH
    # weights sum to 2.
    assert orc.chsh_on_noisy_pair(orc.T_PHI_PLUS, 0.0, 0.8, ideal) == pytest.approx(2 * 0.04)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_mermin_bound_matches_bruteforce(n):
    doc = workloads._mermin_doc(n)
    assert len(doc["terms"]) == 2 ** (n - 1)
    assert orc.lhv_bound_bruteforce(doc) == orc.mermin_bound(n)


def test_bruteforce_on_presets():
    assert orc.lhv_bound_bruteforce(belldet.preset("CHSH").to_json_dict()) == 2.0
    assert orc.lhv_bound_bruteforce(belldet.preset("EBERHARD_CH").to_json_dict()) == 0.0


def test_paper_configs_match_shipped_configs():
    shipped = HERE.parent / "configs"
    for name, doc in workloads.PAPER_CONFIGS.items():
        assert json.loads((shipped / f"{name}.json").read_text()) == doc, name


def test_layer_times_self_time_arithmetic():
    # query [0, 10] holds a [1, 6] (which holds b [2, 4]) and c [7, 9].
    spans = [["query", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 2.0, 4.0, 1], ["c", 7.0, 9.0, 0],
             ["a", 11.0, 12.0, -1]]
    times = layer_times(spans)
    assert times["query"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert times["a"] == {"calls": 2, "s": 6.0, "self_s": 4.0}
    assert times["b"] == {"calls": 1, "s": 2.0, "self_s": 2.0}
    assert times["c"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_tracer_nests_spans_and_restores_every_site():
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _ in SITES if hasattr(MODULES[m], a)}
    post_init = belldet.qstate.DensityMatrix.__post_init__
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        assert all(getattr(MODULES[m], a) is not fn for (m, a), fn in originals.items())
        belldet.protocol.projected_state(
            belldet.ScenarioConfig(belldet.StateSpec("GHZ", 3), 2, 0.5, 1.0, belldet.preset("CHSH"))
        )
    finally:
        tracer.restore()
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in originals.items())
    assert belldet.qstate.DensityMatrix.__post_init__ is post_init
    names = [span[0] for span in tracer.spans]
    assert names[0] == "protocol.projected_state"
    assert {"states.make_state", "qstate.project", "qstate.partial_trace"} <= set(names)
    assert all(span[3] == 0 for span in tracer.spans[1:] if span[0] == "states.make_state")


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)


def test_end_to_end_reports_scaled_latencies_and_records_wall_ones():
    metrics, detail = run.end_to_end([1.0, 3.0, 2.0, 2.0], [0.5, 1.5, 1.0, 1.0], [0.7, 0.9, 0.8])
    assert metrics["queries_per_s"] == (4 / 8.0, "1/s")
    assert metrics["query_p50_s"] == (2.0, "s")
    assert metrics["setup_s"] == (0.8, "s")
    assert detail["wall"]["queries_per_s"] == 4 / 4.0


def test_pacer_scales_by_the_median_pace_in_the_window():
    pacer = Pacer(during=False)
    nominal = pace.NOMINAL_ITERATION_S
    # Probes at 2x the nominal time per iteration near [10, 11], and one at
    # 4x that lies outside the window.
    pacer.samples = [(9.0, 2 * nominal), (10.5, 2 * nominal), (11.5, 3 * nominal),
                     (11.6, 2 * nominal), (20.0, 4 * nominal)]
    assert pacer.pace(10.0, 11.0) == 2 * nominal
    assert pacer.scaled(10.0, 11.0, 0.8) == pytest.approx(0.4)


def test_pacer_time_excludes_in_query_probes_and_restores_the_alarm_handler():
    handler = signal.getsignal(signal.SIGALRM)
    pacer = Pacer()

    def busy() -> str:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return "done"

    assert pacer.time(busy) == "done"
    start, end, busy_s = pacer.last
    assert len(pacer.samples) >= 3  # probes ran while the call did
    assert busy_s < end - start
    assert busy_s == pytest.approx(0.3, abs=0.05)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e, _ = run.end_to_end([0.5] * 20, [0.5] * 20, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    tracer = Tracer(MODULES)
    tracer.spans = [["query", 0.0, 1.0, -1]]
    layer, _ = run.per_layer(tracer, [1.0], [1.0], [0.5])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}


def _answer(query):
    answer = query.call()
    assert query.check(answer) is None
    return answer


@pytest.mark.parametrize("workload,count", [("large_n_projection", 4), ("lhv_enum", 3),
                                            ("loss_scan", 2)])
def test_traced_query_returns_the_untraced_answer(tmp_path, workload, count):
    (queries,) = workloads.build(workload, 7, tmp_path)
    if workload == "large_n_projection":
        queries = [q for q in queries if "10" not in q.label]
    queries = queries[:count]
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _ in SITES if hasattr(MODULES[m], a)}
    plain = [_answer(q) for q in queries]
    tracer = Tracer(MODULES)
    traced = [_answer(dataclasses.replace(q, call=tracer.traced(q.call))) for q in queries]
    assert [span[0] for span in tracer.spans].count("query") == len(queries)
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in originals.items())
    for a, b in zip(plain, traced):
        if workload == "loss_scan":
            assert np.array_equal(a[0].matrix, b[0].matrix) and a[1] == b[1]
        else:
            assert a == b
