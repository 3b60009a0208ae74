"""Command-line front end: scenario runs, sweeps, machine-readable reports.

Reports are JSON documents with top-level keys ``inputs``, ``result`` and
``diagnostics``; sweeps can emit CSV. Exit codes: 0 success, 2 config
parse/validation error, 3 solver found no threshold (status "not_found":
no violation; "not_converged": the residual stayed above its
tolerance) or a zero-weight projection.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from io import StringIO
from typing import Sequence

import numpy as np

from . import analysis, protocol
from .bell import expression_from_json_dict, lhv_bound
from .detmodel import json_float, json_int
from .protocol import ScenarioConfig, SolveResult
from .qstate import DEFAULT_MAX_QUBITS, QubitCapacityError, ZeroProjectionError, expectation
from .states import bell_psi_plus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_FOUND = 3

# A sweep grid with more rows than this is a config error, rejected before any row is built.
MAX_SWEEP_ROWS = 100_000

COMMANDS = (
    "eval",
    "critical-eta",
    "critical-visibility",
    "duration",
    "damaged",
    "sweep",
    "lhv-bound",
    "validate",
)


class ConfigurationError(Exception):
    pass


def non_negative_int(text: str) -> int:
    """argparse type of ``--seed`` and ``--restarts``: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belldet",
        description="Bell tests with a limited number of efficient detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.add_argument("--output", choices=("json", "csv"), default="json")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--seed", type=non_negative_int, default=0, help="optimizer seed")
        cmd.add_argument("--restarts", type=non_negative_int, default=64, help="optimizer restarts")
        cmd.add_argument("--max-qubits", type=int, default=16, dest="max_qubits")
    return parser


# Built once per process: parse_args returns a fresh Namespace on every call
# and leaves the parser unchanged, so in-process callers share it.
_PARSER = build_parser()


def _qubit_cap(max_qubits: int) -> int:
    """``--max-qubits``, lowered to the cap that ``states.make_state`` applies."""
    return min(max_qubits, DEFAULT_MAX_QUBITS)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc


def _parse_scenario(doc: dict, max_qubits: int) -> ScenarioConfig:
    try:
        config = ScenarioConfig.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"config does not describe a valid scenario: {exc}") from exc
    cap = _qubit_cap(max_qubits)
    if config.n_qubits > cap:
        raise ConfigurationError(f"state uses {config.n_qubits} qubits, above the cap {cap}")
    issues = config.validate()
    if issues:
        raise ConfigurationError("config violates invariants: " + "; ".join(issues))
    return config


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _json_report(inputs: dict, result: dict, diagnostics: dict) -> str:
    report = {"inputs": inputs, "result": result, "diagnostics": diagnostics}
    return json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"


def _solver_report(config: ScenarioConfig, solve: SolveResult, args) -> tuple[str, int]:
    doc = solve.to_json_dict()
    diagnostics = doc.pop("diagnostics")
    diagnostics.update(
        {
            "convention": config.convention.value,
            "optimizer_restarts": args.restarts,
            "seed": args.seed,
        }
    )
    text = _json_report(config.to_json_dict(), doc, diagnostics)
    return text, EXIT_OK if solve.found else EXIT_NOT_FOUND


def _run_eval(config: ScenarioConfig, args) -> tuple[str, int]:
    lhs, parts = protocol.composite_parts(config, restarts=args.restarts, seed=args.seed)
    settings = parts.pop("settings")
    result = {"composite_lhs": lhs, "violated": bool(lhs > 0.0), **parts}
    diagnostics = {
        "convention": config.convention.value,
        "optimizer_restarts": args.restarts,
        "seed": args.seed,
        "settings": settings,
    }
    return _json_report(config.to_json_dict(), result, diagnostics), EXIT_OK


def _run_duration(config: ScenarioConfig, doc: dict, args) -> tuple[str, int]:
    try:
        stats = analysis.trial_stats(config)
    except ValueError as exc:  # success probability needs every qubit present
        raise ConfigurationError(str(exc)) from exc
    result = {
        "p_succ": stats.p_succ,
        "p_succ_standard": stats.p_succ_standard,
        "trial_ratio": stats.n_prime,
    }
    if "target_successes" in doc:
        try:
            r = json_int(doc["target_successes"], "target_successes", minimum=1)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        result["expected_trials"] = stats.expected_trials(r)
        result["expected_trials_standard"] = stats.expected_trials_standard(r)
    diagnostics = {"convention": config.convention.value, "seed": args.seed}
    return _json_report(config.to_json_dict(), result, diagnostics), EXIT_OK


def _run_damaged(config: ScenarioConfig, args) -> tuple[str, int]:
    p_list, rho = protocol.projected_state(config)
    psi_plus = bell_psi_plus().density().matrix if config.k == 2 else None
    result: dict = {"projection_probs": p_list}
    if psi_plus is not None:
        result["psi_plus_overlap"] = expectation(rho, psi_plus)
    settings, value = protocol.resolve_settings(
        config.bell, rho, [config.eta_H] * config.k, config.convention, config.settings,
        args.restarts, args.seed,
    )
    result["bell_value"] = value
    result["classical_bound"] = config.bell.classical_bound
    result["violated"] = bool(value > config.bell.classical_bound)
    diagnostics = {
        "convention": config.convention.value,
        "optimizer_restarts": args.restarts,
        "seed": args.seed,
        "lost": config.lost,
        "settings": [[s.to_json_dict() for s in party] for party in settings],
    }
    return _json_report(config.to_json_dict(), result, diagnostics), EXIT_OK


def _run_sweep(doc: dict, args) -> tuple[str, int]:
    if "scenario" not in doc or "grid" not in doc:
        raise ConfigurationError('sweep config needs "scenario" and "grid" sections')
    config = _parse_scenario(doc["scenario"], args.max_qubits)
    grid = doc["grid"]
    try:
        start, stop, step = (json_float(grid[name], name) for name in ("start", "stop", "step"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f'grid needs numeric "start", "stop", "step": {exc}') from exc
    if not (step > 0.0 and stop >= start):
        raise ConfigurationError("grid must satisfy step > 0 and stop >= start")
    half_steps = (stop - start) / step + 0.5
    if not half_steps < MAX_SWEEP_ROWS:  # also catches inf and nan
        raise ConfigurationError(f"grid has more than {MAX_SWEEP_ROWS} rows")
    try:
        analysis.require_no_lost(config)
    except ValueError as exc:  # the trial ratio needs every qubit present
        raise ConfigurationError(str(exc)) from exc
    p_list, _ = protocol.projected_state(config)
    ratios = [round(start + i * step, 12) for i in range(int(math.floor(half_steps)) + 1)]
    p_prod = float(np.prod(p_list))
    exponent = config.n_projections
    rows = [(float(r), float(p_prod**-1 * r**-exponent)) for r in ratios if r > 0.0]
    if args.output == "csv":
        buffer = StringIO()
        buffer.write("ratio,n_prime\n")
        for ratio, n_prime in rows:
            buffer.write(f"{ratio!r},{n_prime!r}\n")
        return buffer.getvalue(), EXIT_OK
    result = {"rows": [{"ratio": r, "n_prime": n} for r, n in rows]}
    diagnostics = {"projection_probs": p_list, "eta_ratio_exponent": exponent}
    return _json_report(config.to_json_dict(), result, diagnostics), EXIT_OK


def _run_lhv_bound(doc: dict) -> tuple[str, int]:
    """The bound of a sweep's ``scenario.bell``, a scenario's ``bell`` or a bare expression."""
    try:
        if "scenario" in doc:
            doc = doc["scenario"]
        expr = expression_from_json_dict(doc["bell"] if "bell" in doc else doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"config does not describe a Bell expression: {exc}") from exc
    bound = lhv_bound(expr)
    diagnostics = {}
    if abs(bound - expr.classical_bound) > 1e-9:
        diagnostics["stored_bound_mismatch"] = expr.classical_bound
    return _json_report(expr.to_json_dict(), {"lhv_bound": bound}, diagnostics), EXIT_OK


def _run_validate(doc: dict, args) -> tuple[str, int]:
    violations: list[str] = []
    try:
        config = ScenarioConfig.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        violations.append(f"parse: {exc}")
        return _json_report({"raw": doc}, {"violations": violations}, {}), EXIT_OK
    violations.extend(config.validate())
    cap = _qubit_cap(args.max_qubits)
    if config.n_qubits > cap:
        violations.append(f"state.n: {config.n_qubits} qubits exceeds cap {cap}")
    return _json_report(config.to_json_dict(), {"violations": violations}, {}), EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.output == "csv" and args.command != "sweep":
        print("csv output is only available for sweep", file=sys.stderr)
        return EXIT_CONFIG
    try:
        doc = _load_json(args.config)
        if args.command == "sweep":
            text, code = _run_sweep(doc, args)
        elif args.command == "lhv-bound":
            text, code = _run_lhv_bound(doc)
        elif args.command == "validate":
            text, code = _run_validate(doc, args)
        else:
            config = _parse_scenario(doc, args.max_qubits)
            if args.command == "eval":
                text, code = _run_eval(config, args)
            elif args.command == "critical-eta":
                solve = protocol.critical_eta_high(
                    config, restarts=args.restarts, seed=args.seed
                )
                text, code = _solver_report(config, solve, args)
            elif args.command == "critical-visibility":
                solve = protocol.critical_visibility(
                    config, restarts=args.restarts, seed=args.seed
                )
                text, code = _solver_report(config, solve, args)
            elif args.command == "duration":
                text, code = _run_duration(config, doc, args)
            elif args.command == "damaged":
                text, code = _run_damaged(config, args)
            else:  # pragma: no cover - argparse restricts the choices
                raise ConfigurationError(f"unknown command {args.command}")
    except (ConfigurationError, QubitCapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroProjectionError as exc:
        print(f"zero-weight projection: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except ZeroDivisionError as exc:
        print(f"degenerate scenario: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    _write(text, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
