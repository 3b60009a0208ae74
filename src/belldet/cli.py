"""Command-line front end: scenario runs, sweeps, machine-readable reports.

Reports are JSON documents with top-level keys ``inputs``, ``result`` and
``diagnostics``; sweeps can emit CSV. Exit codes: 0 success, 2 config
parse/validation error, 3 no threshold ("not_found": no violation;
"not_converged": the residual stayed above its tolerance), a zero-weight
projection or a degenerate scenario (zero success probability, a number
beyond the float range).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence

import numpy as np

from . import analysis, protocol
from .bell import BellExpression, lhv_bound
from .detmodel import json_float, json_int, json_object
from .protocol import ScenarioConfig, SolveResult
from .qstate import ZeroProjectionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_FOUND = 3

# A sweep grid with more rows than this is a config error, rejected before any row is built.
MAX_SWEEP_ROWS = 100_000


class ConfigurationError(Exception):
    """A config the commands reject; ``violations`` names each broken rule."""

    def __init__(self, message: str, violations: list[str] | None = None) -> None:
        super().__init__(message)
        self.violations = violations or [message]


def non_negative_int(text: str) -> int:
    """argparse type of ``--seed`` and ``--restarts``: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _reject_constant(name: str):
    """json.load's hook for NaN, Infinity and -Infinity, which JSON does not have."""
    raise ValueError(f"{name} is not a JSON number")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, NaN/Infinity, or bytes that are not UTF-8
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc


def _parse_error(exc: Exception) -> str:
    """A config parser's error as text; a KeyError's names the missing field, not a bare key."""
    return f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def _parse_scenario(doc, restarts: int | None) -> ScenarioConfig:
    """The scenario of ``doc``, admitted by ``ScenarioConfig.validate(restarts)``: the
    invariants, the qubit cap and the memory budget of a run whose optimizer takes
    ``restarts`` starts, None for a command that never optimizes."""
    try:
        config = ScenarioConfig.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        reason = _parse_error(exc)
        message = f"config does not describe a valid scenario: {reason}"
        raise ConfigurationError(message, [f"parse: {reason}"]) from exc
    if violations := config.validate(restarts):
        raise ConfigurationError("config violates invariants: " + "; ".join(violations), violations)
    return config


def _parse_sweep(doc) -> tuple[ScenarioConfig, Iterator[float]]:
    """A sweep's scenario and its eta_L/eta_H ratios, which are made only when iterated."""
    if not isinstance(doc, dict) or "scenario" not in doc or "grid" not in doc:
        raise ConfigurationError('sweep config needs "scenario" and "grid" sections')
    config = _parse_scenario(doc["scenario"], None)
    try:
        grid = json_object(doc["grid"], "grid")
        start, stop, step = (json_float(grid[name], name) for name in ("start", "stop", "step"))
    except (KeyError, TypeError, ValueError) as exc:
        reason = _parse_error(exc)
        raise ConfigurationError(f'grid needs numeric "start", "stop", "step": {reason}') from exc
    if not (step > 0.0 and stop >= start):
        raise ConfigurationError("grid must satisfy step > 0 and stop >= start")
    half_steps = (stop - start) / step + 0.5
    if not half_steps < MAX_SWEEP_ROWS:  # also catches a quotient that overflows to inf
        raise ConfigurationError(f"grid has more than {MAX_SWEEP_ROWS} rows")
    rows = int(half_steps) + 1
    # the ratios rise with the row, and _run_sweep drops those that are not positive
    if not round(start + (rows - 1) * step, 12) > 0.0:
        raise ConfigurationError("grid has no positive eta_L/eta_H ratio at 12 decimal places")
    try:
        analysis.require_no_lost(config)
    except ValueError as exc:  # the trial ratio needs every qubit present
        raise ConfigurationError(str(exc)) from exc
    return config, (round(start + i * step, 12) for i in range(rows))


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")  # json's message


# Exact types first; subclasses (str and int enums, numpy.float64) fall through to isinstance.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _encode(o, indent: str) -> str:
    """``o`` as json.dumps(indent=2, sort_keys=True, default=float, allow_nan=False) writes
    it at nesting ``indent``, byte for byte, without json's pure-Python indenting encoder.
    Dict keys must be strings, as in every report. No class is both a container and a str,
    int or float, so containers go first."""
    leaf = _LEAVES.get(type(o))
    if leaf is not None:
        return leaf(o)
    inner = indent + "  "
    # a container looks its leaves up inline, which saves a call of _encode per leaf
    if isinstance(o, (list, tuple)):
        items = [leaf(v) if (leaf := _LEAVES.get(type(v))) else _encode(v, inner) for v in o]
        brackets = "[]"
    elif isinstance(o, dict):
        items = [
            f"{encode_basestring_ascii(k)}: "
            f"{leaf(v) if (leaf := _LEAVES.get(type(v))) else _encode(v, inner)}"
            for k, v in sorted(o.items())
        ]
        brackets = "{}"
    elif isinstance(o, str):
        return encode_basestring_ascii(o)
    elif isinstance(o, int):
        return int.__repr__(o)
    elif isinstance(o, float):
        return _float_text(o)
    else:
        return _encode(float(o), indent)  # json's default=float
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _json_report(inputs: dict, result: dict, diagnostics: dict) -> str:
    report = {"inputs": inputs, "result": result, "diagnostics": diagnostics}
    try:
        return _encode(report, "") + "\n"
    except ValueError as exc:  # inf or NaN, which JSON does not have
        raise ArithmeticError(f"the report holds a non-finite number ({exc})") from exc


def _diagnostics(config: ScenarioConfig, args, **extra) -> dict:
    """``extra`` plus the convention, optimizer restarts and seed of an optimizing run."""
    return {**extra, "convention": config.convention.value,
            "optimizer_restarts": args.restarts, "seed": args.seed}


# A handler maps the loaded document and the flags to (report, exit code). It
# looks library functions up on their module when called, so that a wrapper
# installed after import (a tracer, a test) sees the call.


def _run_eval(doc, args) -> tuple[str, int]:
    config = _parse_scenario(doc, args.restarts)
    lhs, parts = protocol.composite_parts(config, restarts=args.restarts, seed=args.seed)
    diagnostics = _diagnostics(config, args, settings=parts.pop("settings"))
    result = {"composite_lhs": lhs, **parts}
    return _json_report(config.to_json_dict(), result, diagnostics), EXIT_OK


def _run_solver(solver: Callable[..., SolveResult], doc, args) -> tuple[str, int]:
    config = _parse_scenario(doc, args.restarts)
    solve = solver(config, restarts=args.restarts, seed=args.seed)
    report = solve.to_json_dict()
    diagnostics = _diagnostics(config, args, **report.pop("diagnostics"))
    text = _json_report(config.to_json_dict(), report, diagnostics)
    return text, EXIT_OK if solve.found else EXIT_NOT_FOUND


def _run_duration(doc, args) -> tuple[str, int]:
    config = _parse_scenario(doc, None)
    try:  # the target is read before trial_stats projects the state
        r = None
        if "target_successes" in doc:
            r = json_int(doc["target_successes"], "target_successes", minimum=1)
        stats = analysis.trial_stats(config)  # success probability needs every qubit present
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    result = {
        "p_succ": stats.p_succ,
        "p_succ_standard": stats.p_succ_standard,
        "trial_ratio": stats.n_prime,
    }
    if stats.p_succ_standard == 0.0:  # a zero p_succ already raised in trial_ratio
        raise ZeroDivisionError("standard success probability eta_H^N underflows to zero")
    if r is not None:
        trials = analysis.pascal_expected_trials
        result["expected_trials"] = trials(r, stats.p_succ)
        result["expected_trials_standard"] = trials(r, stats.p_succ_standard)
    diagnostics = {"convention": config.convention.value}
    return _json_report(config.to_json_dict(), result, diagnostics), EXIT_OK


def _run_sweep(doc, args) -> tuple[str, int]:
    config, ratios = _parse_sweep(doc)
    p_list, _ = protocol.projected_state(config)
    p_prod = float(np.prod(p_list))
    exponent = config.n_projections
    rows = [(r, analysis.n_prime_from_ratio(p_prod, r, exponent)) for r in ratios if r > 0.0]
    if args.output == "csv":
        return "ratio,n_prime\n" + "".join(f"{r!r},{n!r}\n" for r, n in rows), EXIT_OK
    result = {"rows": [{"ratio": r, "n_prime": n} for r, n in rows]}
    diagnostics = {"projection_probs": p_list, "eta_ratio_exponent": exponent}
    return _json_report(config.to_json_dict(), result, diagnostics), EXIT_OK


def _run_lhv_bound(doc, args) -> tuple[str, int]:
    """The bound of a sweep's ``scenario.bell``, a scenario's ``bell`` or a bare expression."""
    try:
        doc = json_object(doc, "config")
        if "scenario" in doc:
            doc = json_object(doc["scenario"], "scenario")
        expr = BellExpression.from_json_dict(doc["bell"] if "bell" in doc else doc)
        # without a stated bound, the expression's own bound is the enumerated one
        bound = expr.classical_bound if expr.stated_bound is None else lhv_bound(expr)
    except (KeyError, TypeError, ValueError) as exc:
        reason = _parse_error(exc)
        raise ConfigurationError(f"config does not describe a Bell expression: {reason}") from exc
    diagnostics = {}
    if abs(bound - expr.classical_bound) > 1e-9:
        diagnostics["stored_bound_mismatch"] = expr.classical_bound
    return _json_report(expr.to_json_dict(), {"lhv_bound": bound}, diagnostics), EXIT_OK


def _run_validate(doc, args) -> tuple[str, int]:
    """What ``sweep`` (given a ``scenario`` section) or else ``eval`` would exit 2 on."""
    try:
        if isinstance(doc, dict) and "scenario" in doc:
            config, _ = _parse_sweep(doc)
        else:
            config = _parse_scenario(doc, args.restarts)
    except ConfigurationError as exc:
        raw = json.loads(json.dumps(doc), parse_constant=str)  # json read 1e400 as inf
        return _json_report({"raw": raw}, {"violations": exc.violations}, {}), EXIT_OK
    return _json_report(config.to_json_dict(), {"violations": []}, {}), EXIT_OK


_HANDLERS = {
    "eval": _run_eval,
    "critical-eta": lambda doc, args: _run_solver(protocol.critical_eta_high, doc, args),
    "critical-visibility": lambda doc, args: _run_solver(protocol.critical_visibility, doc, args),
    "duration": _run_duration,
    "damaged": _run_eval,  # a lost-detector scenario is judged as eval judges any other
    "sweep": _run_sweep,
    "lhv-bound": _run_lhv_bound,
    "validate": _run_validate,
}
COMMANDS = tuple(_HANDLERS)
_OPTIMIZING = ("eval", "critical-eta", "critical-visibility", "damaged")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belldet",
        description="Bell tests with a limited number of efficient detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:  # each command takes only the flags its handler reads
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        if name == "sweep":
            cmd.add_argument("--output", choices=("json", "csv"), default="json")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        if name in _OPTIMIZING:
            cmd.add_argument("--seed", type=non_negative_int, default=0, help="optimizer seed")
        if name in _OPTIMIZING or name == "validate":  # validate budgets as eval does
            cmd.add_argument("--restarts", type=non_negative_int, default=64,
                             help="optimizer restarts")
    return parser


# Built once per process: parse_args returns a fresh Namespace on every call
# and leaves the parser unchanged, so in-process callers share it.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text, code = _HANDLERS[args.command](_load_json(args.config), args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroProjectionError as exc:
        print(f"zero-weight projection: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except ArithmeticError as exc:  # zero success probability, or beyond the float range
        print(f"degenerate scenario: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write report to {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    raise SystemExit(main())
