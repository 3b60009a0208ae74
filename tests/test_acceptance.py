"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
lines for passing criteria too).
"""

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from belldet import (
    BellExpression,
    BellForm,
    BellTerm,
    Convention,
    DickeLossSpec,
    MeasurementSetting,
    OptimizeOptions,
    ScenarioConfig,
    StateSpec,
    composite_parts,
    critical_eta,
    critical_eta_high,
    critical_visibility,
    damaged_state,
    dicke,
    dicke_loss_mixture,
    ghz,
    lhv_bound,
    make_state,
    optimize_settings,
    preset,
    psi_plus_fraction,
    psi_plus_weight,
    trial_stats,
)
from belldet.cli import EXIT_OK, main as cli_main
from belldet.detmodel import X_PLUS, Z_ZERO
from reference import partial_trace, project_leading

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ETA_CRIT = 2.0 / (1.0 + math.sqrt(2.0))
TSIRELSON = 2.0 * math.sqrt(2.0)


def report(number: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")


def chsh_scenario(state: StateSpec, **kwargs) -> ScenarioConfig:
    defaults = dict(state=state, k=2, eta_L=0.1, eta_H=1.0, bell=preset("CHSH"))
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def test_criterion_1_critical_efficiency_maximal_cases(capsys):
    cases = {
        "GHZ_3": chsh_scenario(StateSpec("GHZ", 3)),
        "GHZ_4": chsh_scenario(StateSpec("GHZ", 4)),
        "GHZ_5": chsh_scenario(StateSpec("GHZ", 5)),
        "GHZ_6": chsh_scenario(StateSpec("GHZ", 6)),
        "Dicke_4_2": chsh_scenario(StateSpec("Dicke", 4, excitations=2)),
        "Cluster4": chsh_scenario(StateSpec("Cluster4", 4)),
        "Cluster4_blind": chsh_scenario(
            StateSpec("Cluster4", 4), lost=1, projectors=(Z_ZERO,)
        ),
    }
    failures = []
    for name, config in cases.items():
        start = time.monotonic()
        result = critical_eta_high(config)
        elapsed = time.monotonic() - start
        if not result.found or abs(result.critical_value - ETA_CRIT) > 1e-6:
            failures.append(f"{name}: got {result.critical_value}")
        if elapsed >= 5.0:
            failures.append(f"{name}: took {elapsed:.1f}s")
    # the same threshold through the CLI surface
    code = cli_main(
        ["critical-eta", "--config", str(CONFIG_DIR / "ghz4.json"), "--restarts", "32"]
    )
    out = capsys.readouterr().out
    cli_value = json.loads(out)["result"]["critical_value"]
    if code != EXIT_OK or abs(cli_value - ETA_CRIT) > 1e-6:
        failures.append(f"cli: exit {code}, value {cli_value}")
    ok = not failures
    report(1, ok, f"critical eta_H = 2/(1+sqrt(2)) for all seven cases {failures or ''}")
    assert ok, failures


def test_criterion_2_eberhard_limit():
    start = time.monotonic()
    thresholds = []
    for alpha in (0.4, 0.2, 0.1, 0.05):
        config = ScenarioConfig(
            state=StateSpec("GHZ", 4),
            k=2,
            eta_L=0.1,
            eta_H=1.0,
            bell=preset("EBERHARD_CH"),
            convention=Convention.TRINARY,
            projectors=(MeasurementSetting(2 * alpha), X_PLUS),
        )
        result = critical_eta_high(config)
        assert result.found
        thresholds.append(result.critical_value)
    elapsed = time.monotonic() - start
    decreasing = all(a > b for a, b in zip(thresholds, thresholds[1:]))
    in_window = 2.0 / 3.0 < thresholds[-1] < 0.70
    ok = decreasing and in_window and elapsed < 60.0
    report(
        2,
        ok,
        f"Eberhard thresholds {['%.4f' % t for t in thresholds]} decrease toward 2/3 "
        f"(sweep {elapsed:.0f}s)",
    )
    assert decreasing, thresholds
    assert in_window, thresholds[-1]
    assert elapsed < 60.0, elapsed


def test_criterion_3_eta_L_irrelevance():
    signs = []
    for eta_L in (1e-3, 1e-2, 1e-1, 1.0):
        config = chsh_scenario(StateSpec("GHZ", 4), eta_L=eta_L, eta_H=0.9)
        signs.append(math.copysign(1.0, composite_parts(config, restarts=16)[0]))
    ok = all(sign > 0 for sign in signs)
    report(3, ok, f"composite sign positive for eta_L in 1e-3..1, signs {signs}")
    assert ok, signs


def test_criterion_4_duration(capsys):
    config = chsh_scenario(StateSpec("GHZ", 4), eta_L=0.45, eta_H=1.0)
    ratio = trial_stats(config).n_prime
    exact = abs(ratio - 4.0 * 0.45**-2) < 1e-9
    near_twenty = abs(ratio - 20.0) < 0.5

    code = cli_main(
        ["sweep", "--config", str(CONFIG_DIR / "fig2.json"), "--output", "csv"]
    )
    out = capsys.readouterr().out
    rows = [tuple(float(c) for c in line.split(",")) for line in out.splitlines()[1:]]
    monotone = all(a[1] > b[1] for a, b in zip(rows, rows[1:]))
    ok = exact and near_twenty and code == EXIT_OK and monotone
    report(4, ok, f"trial ratio {ratio:.9f} (about 20x), sweep monotone decreasing")
    assert exact, ratio
    assert near_twenty, ratio
    assert monotone


def _independent_correlation_bound(weights: np.ndarray) -> float:
    """Test-only oracle: exhaust +/-1 assignments with matrix algebra."""
    strategies = [np.array(s, dtype=float) for s in itertools.product((1, -1), repeat=2)]
    return max(a @ weights @ b for a in strategies for b in strategies)


def _horodecki_chsh(rho: np.ndarray) -> float:
    """Test-only oracle: maximal CHSH value of a two-qubit density matrix.

    Horodecki criterion (Phys. Lett. A 200, 340 (1995)): with the
    correlation matrix T_ij = Tr[rho sigma_i (x) sigma_j], the maximum is
    twice the square root of the sum of the two largest eigenvalues of T^T T.
    """
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    t = np.array(
        [[float(np.real(np.trace(rho @ np.kron(a, b)))) for b in paulis] for a in paulis]
    )
    eigenvalues = np.sort(np.linalg.eigvalsh(t.T @ t))
    return 2.0 * math.sqrt(eigenvalues[-1] + eigenvalues[-2])


def test_criterion_5_lhv_oracle():
    chsh_exact = lhv_bound(preset("CHSH")) == 2.0
    rng = np.random.default_rng(2024)
    mismatches = []
    for _ in range(20):
        weights = rng.normal(size=(2, 2))
        terms = tuple(
            BellTerm((x, y), float(weights[x, y])) for x in range(2) for y in range(2)
        )
        expr = BellExpression(2, 2, BellForm.CORRELATION, terms, 0.0)
        ours = lhv_bound(expr)
        oracle = _independent_correlation_bound(weights)
        if abs(ours - oracle) > 1e-12:
            mismatches.append((weights, ours, oracle))
    ok = chsh_exact and not mismatches
    report(5, ok, "lhv_bound(CHSH) = 2 exactly; 20 random expressions match the re-enumeration")
    assert chsh_exact
    assert not mismatches, mismatches


def _chsh_grid_maximum_one_degree() -> float:
    """Dense scan oracle on the ideal Bell pair.

    Real-plane observables on phi+ give <a b> = cos(theta_a - theta_b), and
    a global rotation fixes the first angle at zero, leaving a 1-degree
    scan over the other three.
    """
    degrees = np.deg2rad(np.arange(360))
    best = -np.inf
    b1 = degrees[None, :, None]
    b2 = degrees[None, None, :]
    for a2_block in np.array_split(degrees, 12):
        a2 = a2_block[:, None, None]
        s = np.cos(-b1) + np.cos(-b2) + np.cos(a2 - b1) - np.cos(a2 - b2)
        best = max(best, float(s.max()))
    return best


def test_criterion_6_tsirelson_check():
    _, value = optimize_settings(preset("CHSH"), ghz(2).density(), [1.0, 1.0])
    grid = _chsh_grid_maximum_one_degree()
    hit = abs(value - TSIRELSON) < 1e-6
    consistent = value >= grid - 1e-9 and value - grid < 1e-3
    ok = hit and consistent
    report(6, ok, f"optimizer {value:.9f} vs 1-degree grid {grid:.9f} vs 2*sqrt(2)")
    assert hit, value
    assert consistent, (value, grid)


def _loss_specs(n_max: int):
    for n in range(3, n_max + 1):
        for e in range(1, n):
            for l in range(0, n - 2):
                yield n, e, l


def _brute_psi_plus_weight(n: int, e: int, l: int, u: int) -> float:
    mat = partial_trace(dicke(n, e).density().matrix, range(l))
    for i in range(n - l - 2):
        mat = project_leading(mat, np.eye(2)[1 if i < u else 0])  # onto |1> or |0>
    psi = dicke(2, 1).amplitudes
    return float(np.real(psi.conj() @ mat @ psi))


def test_criterion_7_dicke_loss_identities():
    mixture_bad = []
    weight_bad = []
    for n, e, l in _loss_specs(8):
        if l:
            direct = partial_trace(dicke(n, e).density().matrix, range(l))
            combo = sum(
                w * make_state(spec).density().matrix for w, spec in dicke_loss_mixture(n, e, l)
            )
            if not np.allclose(direct, combo, atol=1e-12):
                mixture_bad.append((n, e, l))
        for u in range(0, n - l - 1):
            spec = DickeLossSpec(n, e, l, u)
            closed = psi_plus_weight(spec)
            brute = _brute_psi_plus_weight(n, e, l, u)
            if abs(closed - brute) > 1e-10:
                weight_bad.append((n, e, l, u, closed, brute))
    ok = not mixture_bad and not weight_bad
    report(
        7,
        ok,
        "loss mixtures match the numerical partial trace (1e-12) and the "
        "closed-form psi+ weight matches the brute-force pipeline (1e-10) "
        "for every spec up to 8 qubits",
    )
    assert ok, (mixture_bad, weight_bad)


def test_criterion_7_chsh_violation_for_every_nonzero_weight_spec():
    # Nonzero psi+ overlap alone does not certify a violation: for l >= 1
    # the surviving pair is a psi+ / |00> / |11> mixture with psi+ fraction
    # p <= 2/3, correlation matrix diag(p, -p, 1 - 2p), and maximal CHSH
    # value 2 sqrt(p^2 + max(p^2, (1 - 2p)^2)), which exceeds 2 iff
    # p > 1/sqrt(2). So for every nonzero-weight spec the optimized value
    # must equal the Horodecki closed form, and it violates iff p > 1/sqrt(2).
    chsh = preset("CHSH")
    mismatches = []
    checked = 0
    violations = 0
    for n, e, l in _loss_specs(8):
        for u in range(0, n - l - 1):
            spec = DickeLossSpec(n, e, l, u)
            if psi_plus_weight(spec) <= 0.0:
                continue
            checked += 1
            post = damaged_state(dicke(n, e).density(), l, spec.projectors())
            _, value = optimize_settings(
                chsh,
                post,
                [1.0, 1.0],
                options=OptimizeOptions(restarts=4, include_phi=True),
            )
            closed_form = _horodecki_chsh(post.matrix)
            fraction = psi_plus_fraction(spec)
            violates = value > 2.0
            violations += violates
            if abs(value - closed_form) > 1e-6 or violates != (fraction > 1 / math.sqrt(2)):
                mismatches.append(
                    (n, e, l, u, round(value, 6), round(closed_form, 6), round(fraction, 6))
                )
    ok = not mismatches
    report(
        7,
        ok,
        f"CHSH over {checked} nonzero-weight specs equals the Horodecki bound (1e-6) "
        f"and violates iff the psi+ fraction exceeds 1/sqrt(2) ({violations} violate) "
        f"{mismatches[:3] or ''}",
    )
    assert ok, (
        "(n, e, l, u, value, closed_form, fraction) disagreeing with the Horodecki "
        f"bound or the 1/sqrt(2) verdict, {len(mismatches)} of {checked}: {mismatches[:5]}"
    )


def test_criterion_8_visibility_consistency():
    bell_config = ScenarioConfig(
        state=StateSpec("BellPhiPlus", 2), k=2, eta_L=1.0, eta_H=1.0, bell=preset("CHSH")
    )
    bell_result = critical_visibility(bell_config, restarts=24)
    bell_ok = bell_result.found and abs(bell_result.critical_value - 1 / math.sqrt(2)) < 1e-6

    ghz_config = chsh_scenario(StateSpec("GHZ", 4))
    affine = critical_visibility(ghz_config, restarts=24)

    # brute bisection oracle over v, re-optimizing settings at each midpoint
    lo, hi = 0.0, 1.0
    assert composite_parts(replace(ghz_config, visibility=hi), restarts=16)[0] > 0.0
    assert composite_parts(replace(ghz_config, visibility=lo), restarts=16)[0] < 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if composite_parts(replace(ghz_config, visibility=mid), restarts=8)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    brute = 0.5 * (lo + hi)
    agree = abs(affine.critical_value - brute) < 1e-8

    eta_solve = critical_eta_high(ghz_config, restarts=24)
    at_threshold = critical_visibility(
        replace(ghz_config, eta_H=eta_solve.critical_value), restarts=24
    )
    unit = at_threshold.found and abs(at_threshold.critical_value - 1.0) < 1e-6

    ok = bell_ok and agree and unit
    report(
        8,
        ok,
        f"v*(Bell pair) = {bell_result.critical_value:.7f}; affine vs bisection "
        f"|{affine.critical_value:.9f} - {brute:.9f}|; v* at critical eta = "
        f"{at_threshold.critical_value:.7f}",
    )
    assert bell_ok, bell_result.critical_value
    assert agree, (affine.critical_value, brute)
    assert unit, at_threshold.critical_value


def test_criterion_9_external_expression_plumbing():
    # the literature comparison values cannot be reproduced here because the
    # referenced inequality families are not part of this package; the
    # substitute check: a user-supplied JSON expression drives the threshold
    # solver end to end and CHSH reproduces the two-detector threshold.
    doc = json.loads((CONFIG_DIR / "chsh.json").read_text())
    expr = BellExpression.from_json_dict(doc)
    result = critical_eta(expr, ghz(2).density(), restarts=24)
    chsh_ok = result.found and abs(result.critical_value - ETA_CRIT) < 1e-6

    # a handmade 4-party expression exercises the same path; no reference
    # value exists, so only the plumbing is asserted
    terms = tuple(
        BellTerm(js, 1.0 if sum(js) % 2 == 0 else -1.0)
        for js in itertools.product((0, 1), repeat=4)
    )
    four_party = BellExpression(4, 2, BellForm.CORRELATION, terms, 0.0)
    four_party = BellExpression(
        4, 2, BellForm.CORRELATION, terms, lhv_bound(four_party)
    )
    four_doc = json.loads(json.dumps(four_party.to_json_dict()))
    loaded = BellExpression.from_json_dict(four_doc)
    run = critical_eta(loaded, make_state(StateSpec("GHZ", 4)).density(), restarts=4)
    plumbing_ok = run.status in ("ok", "not_found")
    if run.found:
        plumbing_ok = plumbing_ok and run.achieved_residual < 1e-9

    ok = chsh_ok and plumbing_ok
    report(
        9,
        ok,
        f"JSON-fed CHSH gives {result.critical_value:.7f}; 4-party JSON expression "
        f"solves end to end ({run.status})",
    )
    assert chsh_ok, result.critical_value
    assert plumbing_ok, run.status
