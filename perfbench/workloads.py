"""The benchmark's four query workloads.

``build(name, seed, workdir)`` makes a workload's inputs from the seed and
returns its queries in seeded order. A query's ``call`` is the timed part:
one ``belldet.cli.main(argv)`` run in-process or one library call sequence.
Its ``check`` compares the answer with an oracle from ``oracles`` and
returns None, or the reason the answer is wrong. Program functions are
looked up on their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import belldet
import belldet.cli

import oracles as orc

WORKLOADS = ("paper_thresholds", "loss_scan", "large_n_projection", "lhv_enum")

# Seconds one pass over a workload's queries takes at the nominal host
# speed (see pace.py), measured when the workloads were sized. A run makes
# round(--seconds / PASS_SECONDS) whole passes, so two commits run the same
# queries the same number of times and the tail percentile stays put.
PASS_SECONDS = {"paper_thresholds": 10.6, "loss_scan": 7.2, "large_n_projection": 7.4,
                "lhv_enum": 1.64}

# Optimizer restarts of every paper_thresholds query. Fewer than the CLI's
# default 64 (which makes one pass take 25 s), so that a 25-second run
# issues every query twice; every answer still meets its oracle.
PAPER_RESTARTS = 8
# Qubit counts of the loss scan: n = 4, 5 give 23 specs, a 7-second pass.
LOSS_SCAN_N = (4, 5)


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = belldet.cli.main(argv)
        return code, out.getvalue()

    return call


def _cli_check(check_report: Callable[[dict], str | None]) -> Callable[[tuple[int, str]], str | None]:
    def check(answer: tuple[int, str]) -> str | None:
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        return check_report(json.loads(text))

    return check


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _off(what: str, got: float, expected: float) -> str:
    return f"{what} {got!r} != oracle {expected!r}"


# --- paper_thresholds -------------------------------------------------------


def _scenario(state: dict, eta_L: float = 0.1, eta_H: float = 1.0, preset: str = "CHSH",
              convention: str = "fold", lost: int = 0, projectors="default") -> dict:
    if projectors != "default":
        projectors = [{"phi": 0.0, "theta": theta} for theta in projectors]
    return {
        "bell": {"preset": preset},
        "convention": convention,
        "eta_H": eta_H,
        "eta_L": eta_L,
        "k": 2,
        "lost": lost,
        "projectors": projectors,
        "settings": "auto",
        "state": state,
        "visibility": 1.0,
    }


def _ghz(n: int) -> dict:
    return {"kind": "GHZ", "n": n}


# The scenario configs shipped in configs/, kept here so that the
# benchmark's inputs stay fixed when those files change.
PAPER_CONFIGS = {
    "bell_visibility": _scenario({"kind": "BellPhiPlus", "n": 2}, eta_L=1.0),
    "cluster4": _scenario({"kind": "Cluster4", "n": 4}),
    "cluster4_blind": _scenario({"kind": "Cluster4", "n": 4}, lost=1, projectors=[0.0]),
    "dicke42": _scenario({"excitations": 2, "kind": "Dicke", "n": 4}),
    "dicke42_damaged": _scenario(
        {"excitations": 2, "kind": "Dicke", "n": 4}, lost=1, projectors=[math.pi]
    ),
    "eberhard_alpha005": _scenario(
        _ghz(4), preset="EBERHARD_CH", convention="trinary", projectors=[0.1, math.pi / 2]
    ),
    "ghz3": _scenario(_ghz(3)),
    "ghz4": _scenario(_ghz(4)),
    "ghz4_eta09": _scenario(_ghz(4), eta_H=0.9),
    "ghz4_visibility": _scenario(_ghz(4)),
    "ghz5": _scenario(_ghz(5)),
    "ghz6": _scenario(_ghz(6)),
}


def _solver_check(expected: float) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        result = report["result"]
        if result["status"] != "ok":
            return f"status {result['status']}"
        if not result["achieved_residual"] < orc.RESIDUAL_TOL:
            return f"status ok with residual {result['achieved_residual']!r}"
        if not orc.close(result["critical_value"], expected, orc.THRESHOLD_TOL):
            return _off("critical value", result["critical_value"], expected)
        return None

    return check


def _eval_check(bell_value: float, p_prod: float) -> Callable[[dict], str | None]:
    """eval report: Bell value, projection weights and the composite they make."""

    def check(report: dict) -> str | None:
        result, inputs = report["result"], report["inputs"]
        p = math.prod(result["projection_probs"])
        if not orc.rel_close(p, p_prod):
            return _off("projection weight", p, p_prod)
        if not orc.close(result["bell_value"], bell_value, orc.VALUE_TOL):
            return _off("bell value", result["bell_value"], bell_value)
        scale = inputs["eta_L"] ** result["eta_L_exponent"] * p_prod
        lhs = scale * (bell_value - result["classical_bound"])
        if not orc.close(result["composite_lhs"], lhs, orc.VALUE_TOL * scale):
            return _off("composite", result["composite_lhs"], lhs)
        return None

    return check


def _damaged_check(n: int, e: int, lost: int, u: int) -> Callable[[dict], str | None]:
    weight, fraction, t = orc.dicke_loss(n, e, lost, u)
    # The damaged command optimizes in the real (x-z) plane.
    bell_value = orc.horodecki_chsh_real_plane(t)

    def check(report: dict) -> str | None:
        result = report["result"]
        p = math.prod(result["projection_probs"])
        if not orc.rel_close(p, weight):
            return _off("projection weight", p, weight)
        if not orc.close(result["psi_plus_overlap"], fraction, orc.VALUE_TOL):
            return _off("psi+ overlap", result["psi_plus_overlap"], fraction)
        if not orc.close(result["bell_value"], bell_value, orc.VALUE_TOL):
            return _off("bell value", result["bell_value"], bell_value)
        return None

    return check


def _paper_thresholds(rng: random.Random, workdir: Path) -> list[Query]:
    paths = {name: _write(workdir, name, doc) for name, doc in PAPER_CONFIGS.items()}
    chsh_eta = _solver_check(orc.CRITICAL_ETA_CHSH)
    visibility = _solver_check(orc.CRITICAL_VISIBILITY_CHSH)
    plan = [
        ("critical-eta", name, chsh_eta)
        for name in ("ghz3", "ghz4", "ghz5", "ghz6", "cluster4", "dicke42", "ghz4_eta09",
                     "bell_visibility")
    ]
    plan += [
        ("critical-eta", "eberhard_alpha005", _solver_check(orc.EBERHARD_CRITICAL_ETA)),
        ("critical-visibility", "ghz4_visibility", visibility),
        ("critical-visibility", "bell_visibility", visibility),
        ("critical-visibility", "cluster4", visibility),
        ("eval", "ghz4", _eval_check(orc.TSIRELSON, 0.25)),
        ("eval", "cluster4_blind", _eval_check(orc.TSIRELSON, 0.5)),
        ("eval", "eberhard_alpha005", _eval_check(orc.EBERHARD_EVAL_BELL_VALUE, 0.25)),
        ("damaged", "dicke42_damaged", _damaged_check(4, 2, 1, 1)),
    ]
    queries = [
        Query(
            f"{command} {name}",
            _cli_call([command, "--config", paths[name], "--seed", str(rng.randrange(2**31)),
                       "--restarts", str(PAPER_RESTARTS)]),
            _cli_check(check),
        )
        for command, name, check in plan
    ]
    rng.shuffle(queries)
    return queries


# --- loss_scan --------------------------------------------------------------


def _loss_call(rho, lost: int, projectors, chsh, seed: int) -> Callable[[], tuple]:
    options = belldet.OptimizeOptions(restarts=4, include_phi=True, seed=seed)

    def call() -> tuple:
        post = belldet.analysis.damaged_state(rho, lost, projectors)
        _, value = belldet.bell.optimize_settings(
            chsh, post, [1.0, 1.0], belldet.Convention.FOLD, options
        )
        return post, value

    return call


def _loss_check(n: int, e: int, lost: int, u: int) -> Callable[[tuple], str | None]:
    _, _, t_closed = orc.dicke_loss(n, e, lost, u)

    def check(answer: tuple) -> str | None:
        post, value = answer
        t = orc.correlation_matrix(post.matrix)
        if not abs(t - t_closed).max() <= orc.STATE_TOL:
            return f"post-loss correlations {t.tolist()} != {t_closed.tolist()}"
        bound = orc.horodecki_chsh(t)
        if not orc.close(value, bound, orc.VALUE_TOL):
            return _off("CHSH maximum", value, bound)
        return None

    return check


def _loss_scan(rng: random.Random, workdir: Path) -> list[Query]:
    chsh = belldet.preset("CHSH")
    states: dict = {}
    queries = []
    for n in LOSS_SCAN_N:
        for e in range(1, n):
            for lost in range(n - 2):
                for u in range(n - lost - 1):
                    spec = belldet.DickeLossSpec(n, e, lost, u)
                    if belldet.psi_plus_weight(spec) <= 0.0:
                        continue
                    if (n, e) not in states:
                        states[n, e] = belldet.dicke(n, e).density()
                    queries.append(
                        Query(
                            f"loss n={n} e={e} l={lost} u={u}",
                            _loss_call(states[n, e], lost, spec.projectors(), chsh,
                                       rng.randrange(2**31)),
                            _loss_check(n, e, lost, u),
                        )
                    )
    rng.shuffle(queries)
    return queries


# --- large_n_projection -----------------------------------------------------


def _large_doc(rng: random.Random, kind: str, n: int) -> dict:
    state = {"kind": kind, "n": n}
    if kind == "Dicke":
        state["excitations"] = n // 2
    settings = [
        [{"phi": rng.uniform(0.0, 2 * math.pi), "theta": rng.uniform(0.0, math.pi)}
         for _ in range(2)]
        for _ in range(2)
    ]
    doc = _scenario(state, eta_L=rng.uniform(0.1, 0.9), eta_H=rng.uniform(0.85, 1.0))
    doc.update(settings=settings, visibility=rng.uniform(0.6, 0.95))
    return doc


def _large_check(command: str, doc: dict) -> Callable[[dict], str | None]:
    kind, n = doc["state"]["kind"], doc["state"]["n"]
    pure = orc.ghz_projection_weight(n) if kind == "GHZ" else orc.dicke_projection_weight(n)
    p_prod, v_eff = orc.noisy_projection(pure, n, doc["visibility"])
    eta_L, eta_H = doc["eta_L"], doc["eta_H"]
    if command == "eval":
        t = orc.T_PHI_PLUS if kind == "GHZ" else orc.T_PSI_PLUS
        angles = [[(s["theta"], s["phi"]) for s in party] for party in doc["settings"]]
        return _eval_check(orc.chsh_on_noisy_pair(t, v_eff, eta_H, angles), p_prod)

    p_succ = p_prod * eta_L ** (n - 2) * eta_H**2
    expected = {
        "p_succ": p_succ,
        "p_succ_standard": eta_H**n,
        "trial_ratio": eta_H**n / p_succ,
        "expected_trials": doc["target_successes"] / p_succ,
        "expected_trials_standard": doc["target_successes"] / eta_H**n,
    }

    def check(report: dict) -> str | None:
        for key, value in expected.items():
            if not orc.rel_close(report["result"][key], value):
                return _off(key, report["result"][key], value)
        return None

    return check


def _large_n_projection(rng: random.Random, workdir: Path) -> list[Query]:
    queries = []
    for kind in ("GHZ", "Dicke"):
        for n in (8, 9, 10):
            for command in ("eval", "duration"):
                doc = _large_doc(rng, kind, n)
                if command == "duration":
                    doc["target_successes"] = rng.randrange(10, 1000)
                path = _write(workdir, f"{kind}{n}_{command}", doc)
                queries.append(
                    Query(
                        f"{command} {kind}{n}",
                        _cli_call([command, "--config", path]),
                        _cli_check(_large_check(command, doc)),
                    )
                )
    rng.shuffle(queries)
    return queries


# --- lhv_enum ---------------------------------------------------------------


def _mermin_doc(n: int) -> dict:
    return {
        "classical_bound": orc.mermin_bound(n),
        "form": "correlation",
        "n_parties": n,
        "settings_per_party": 2,
        "terms": [{"settings": list(s), "weight": w} for s, w in orc.mermin_terms(n)],
    }


def _probability_doc(rng: random.Random, n: int, shape_seed: int) -> dict:
    """A 2-setting probability-form expression with 12 terms.

    Settings and outcome labels come from the fixed ``shape_seed``, so the
    enumeration does the same work for every workload seed; the integer
    weights, and with them the bound, come from the workload seed.
    """
    shape = random.Random(shape_seed)
    terms = [
        {
            "outcomes": [shape.choice("+-0*") for _ in range(n)],
            "settings": [shape.randrange(2) for _ in range(n)],
            "weight": float(rng.choice((-2, -1, 1, 2))),
        }
        for _ in range(12)
    ]
    return {"form": "probability", "n_parties": n, "settings_per_party": 2, "terms": terms}


def _lhv_check(doc: dict) -> Callable[[dict], str | None]:
    stored = "classical_bound" in doc

    def check(report: dict) -> str | None:
        expected = orc.lhv_bound_bruteforce(doc)
        got = report["result"]["lhv_bound"]
        if not orc.close(got, expected, orc.VALUE_TOL):
            return _off("LHV bound", got, expected)
        if stored and "stored_bound_mismatch" in report["diagnostics"]:
            return "stored bound reported as a mismatch"
        if not stored and not orc.close(report["inputs"]["classical_bound"], expected,
                                        orc.VALUE_TOL):
            return _off("parsed bound", report["inputs"]["classical_bound"], expected)
        return None

    return check


def _lhv_enum(rng: random.Random, workdir: Path) -> list[Query]:
    docs = {f"mermin{n}": _mermin_doc(n) for n in (5, 6, 7)}
    for n in (4, 5):
        docs[f"prob{n}_unstored"] = _probability_doc(rng, n, shape_seed=10 * n)
        stored = _probability_doc(rng, n, shape_seed=10 * n + 1)
        stored["classical_bound"] = orc.lhv_bound_bruteforce(stored)
        docs[f"prob{n}_stored"] = stored
    queries = [
        Query(f"lhv-bound {name}", _cli_call(["lhv-bound", "--config", _write(workdir, name, doc)]),
              _cli_check(_lhv_check(doc)))
        for name, doc in docs.items()
    ]
    rng.shuffle(queries)
    return queries


_GENERATORS = {
    "paper_thresholds": _paper_thresholds,
    "loss_scan": _loss_scan,
    "large_n_projection": _large_n_projection,
    "lhv_enum": _lhv_enum,
}


def build(name: str, seed: int, workdir: Path, passes: int = 1) -> list[list[Query]]:
    """The workload's passes, each its queries in the order a run issues them.

    Every pass has the same query kinds, with fresh draws from the seed's
    generator: optimizer seeds, generated settings and weights, and order.
    A run thus averages over ``passes`` times as many optimizer starts as a
    pass holds, rather than repeating one seed's luck.
    """
    rng = random.Random(seed)
    built = []
    for index in range(passes):
        pass_dir = workdir / f"pass{index}"
        pass_dir.mkdir()
        built.append(_GENERATORS[name](rng, pass_dir))
    return built
