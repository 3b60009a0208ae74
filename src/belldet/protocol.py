"""Project-then-test protocol: N - k parties apply single projectors, the
remaining k run a Bell test. Houses the composite expression, the projected
state, and the critical-efficiency / critical-visibility solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .bell import BellExpression, BellForm, OptimizeOptions, optimize_settings, quantum_value
from .detmodel import Convention, MeasurementSetting, X_PLUS, Z_ONE, Z_ZERO, validate_efficiency
from .qstate import ZERO_WEIGHT_THRESHOLD, DensityMatrix, ZeroProjectionError
from .states import StateSpec, make_state

RESIDUAL_TOL = 1e-9
_BISECT_TOL = 1e-12
_MAX_ROUNDS = 20

SettingsAssignment = list[list[MeasurementSetting]]


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment.

    The first ``lost`` qubits are traced out (vanished detectors), the next
    len(projectors) qubits receive single projectors, and the Bell
    expression acts on the last ``k`` qubits. ``projectors=None`` picks the
    per-state defaults; ``settings=None`` means AUTO (optimize).
    """

    state: StateSpec
    k: int
    eta_L: float
    eta_H: float
    bell: BellExpression
    projectors: tuple[MeasurementSetting, ...] | None = None
    settings: tuple[tuple[MeasurementSetting, ...], ...] | None = None
    visibility: float = 1.0
    convention: Convention = Convention.FOLD
    lost: int = 0

    @property
    def n_qubits(self) -> int:
        return self.state.n

    @property
    def n_projections(self) -> int:
        return self.n_qubits - self.k - self.lost

    def validate(self) -> list[str]:
        """Return every invariant violation, naming field and rule."""
        issues: list[str] = []
        n = self.n_qubits
        if not 2 <= self.k <= n:
            issues.append(f"k: must satisfy 2 <= k <= N, got k={self.k}, N={n}")
        if not 0.0 <= self.eta_L <= 1.0:
            issues.append(f"eta_L: efficiency out of [0,1], got {self.eta_L}")
        if not 0.0 <= self.eta_H <= 1.0:
            issues.append(f"eta_H: efficiency out of [0,1], got {self.eta_H}")
        if not 0.0 <= self.visibility <= 1.0:
            issues.append(f"visibility: out of [0,1], got {self.visibility}")
        if not 0 <= self.lost <= max(n - self.k, 0):
            issues.append(f"lost: must satisfy 0 <= lost <= N-k, got {self.lost}")
        if self.projectors is not None and len(self.projectors) != self.n_projections:
            issues.append(
                f"projectors: expected {self.n_projections} single-qubit projectors, "
                f"got {len(self.projectors)}"
            )
        if self.bell.n_parties != self.k:
            issues.append(
                f"bell: expression covers {self.bell.n_parties} parties but k={self.k}"
            )
        if self.settings is not None:
            if len(self.settings) != self.bell.n_parties or any(
                len(party) != self.bell.settings_per_party for party in self.settings
            ):
                issues.append("settings: shape does not match the Bell expression")
        if self.bell.form == BellForm.CORRELATION and self.convention != Convention.FOLD:
            issues.append("convention: correlation-form expressions require FOLD")
        return issues

    def require_valid(self) -> None:
        issues = self.validate()
        if issues:
            raise ValueError("invalid scenario config: " + "; ".join(issues))

    def resolved_projectors(self) -> tuple[MeasurementSetting, ...]:
        if self.projectors is not None:
            return self.projectors
        return tuple(default_projectors(self.state, self.n_projections, skip=self.lost))

    def to_json_dict(self) -> dict:
        return {
            "state": self.state.to_json_dict(),
            "k": self.k,
            "eta_L": self.eta_L,
            "eta_H": self.eta_H,
            "bell": self.bell.to_json_dict(),
            "projectors": [
                {"theta": p.theta, "phi": p.phi} for p in self.projectors
            ]
            if self.projectors is not None
            else "default",
            "settings": [
                [{"theta": s.theta, "phi": s.phi} for s in party] for party in self.settings
            ]
            if self.settings is not None
            else "auto",
            "visibility": self.visibility,
            "convention": self.convention.value,
            "lost": self.lost,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioConfig":
        from .bell import preset  # local import to keep module load cheap

        bell_doc = doc["bell"]
        if isinstance(bell_doc, dict) and "preset" in bell_doc:
            bell = preset(bell_doc["preset"])
        else:
            bell = BellExpression.from_json_dict(bell_doc)
        projectors_doc = doc.get("projectors", "default")
        if projectors_doc == "default" or projectors_doc is None:
            projectors = None
        else:
            projectors = tuple(
                MeasurementSetting(float(p["theta"]), float(p.get("phi", 0.0)))
                for p in projectors_doc
            )
        settings_doc = doc.get("settings", "auto")
        if settings_doc == "auto" or settings_doc is None:
            settings = None
        else:
            settings = tuple(
                tuple(
                    MeasurementSetting(float(s["theta"]), float(s.get("phi", 0.0)))
                    for s in party
                )
                for party in settings_doc
            )
        return cls(
            state=StateSpec.from_json_dict(doc["state"]),
            k=int(doc["k"]),
            eta_L=float(doc["eta_L"]),
            eta_H=float(doc["eta_H"]),
            bell=bell,
            projectors=projectors,
            settings=settings,
            visibility=float(doc.get("visibility", 1.0)),
            convention=Convention(doc.get("convention", "fold")),
            lost=int(doc.get("lost", 0)),
        )


@dataclass
class SolveResult:
    """Outcome of a threshold solve.

    ``status`` is "ok" or "not_found"; on success the residual (quantum
    value minus classical bound at the returned threshold, optimized
    settings) is below 1e-9.
    """

    status: str
    critical_value: float | None
    iterations: int
    bracket: tuple[float, float] | None
    achieved_residual: float | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "critical_value": self.critical_value,
            "iterations": self.iterations,
            "bracket": list(self.bracket) if self.bracket is not None else None,
            "achieved_residual": self.achieved_residual,
            "diagnostics": self.diagnostics,
        }


def default_projectors(spec: StateSpec, count: int, skip: int = 0) -> list[MeasurementSetting]:
    """Per-state projector defaults for the low-efficiency parties.

    GHZ projects every qubit onto |+>; the four-qubit cluster uses |+> then
    |0> (which leaves a Bell pair); Dicke states project excitations-1
    qubits onto |1> and the rest onto |0>. ``skip`` drops the leading
    entries of the pattern when qubits were lost.
    """
    if count < 0:
        raise ValueError("projector count must be >= 0")
    if spec.kind in ("GHZ", "BellPhiPlus", "BellPsiPlus", "PartialPair"):
        pattern = [X_PLUS] * (skip + count)
    elif spec.kind == "Cluster4":
        pattern = [X_PLUS, Z_ZERO][: skip + count]
    elif spec.kind in ("Dicke", "W"):
        excitations = 1 if spec.kind == "W" else int(spec.excitations or 0)
        ones = max(excitations - 1, 0)
        pattern = [Z_ONE] * ones + [Z_ZERO] * (spec.n - 2 - ones)
    else:
        raise ValueError(f"no default projectors for state kind {spec.kind!r}")
    out = pattern[skip : skip + count]
    if len(out) != count:
        raise ValueError(
            f"default projector pattern for {spec.kind} too short: "
            f"need {count} after skipping {skip}"
        )
    return out


def projected_state(config: ScenarioConfig) -> tuple[list[float], DensityMatrix]:
    """Sequentially project the low-efficiency qubits.

    Returns the chain of success probabilities (each conditioned on the
    previous projections, so their product is the single-shot weight of the
    combined projector) and the renormalized k-qubit state. White noise at
    the configured visibility is mixed in before any projection; lost
    qubits are traced out first.

    Works on the amplitude vector, never on the N-qubit density matrix:
    O(N 2^N) time and O(2^N) memory.
    """
    config.require_valid()
    psi = make_state(config.state)
    factor = psi.amplitudes.reshape(2**config.lost, -1)
    return _project_factor(factor, config.resolved_projectors(), config.visibility)


def _project_factor(
    factor: np.ndarray, projectors: Sequence[MeasurementSetting], visibility: float = 1.0
) -> tuple[list[float], DensityMatrix]:
    """Project the leading qubits of v F^T F^* + (1 - v) I / 2^n one by one.

    ``factor`` F has shape (rows, 2^n): the rows index whatever is traced
    out (lost qubits, or a mixed state's eigenvectors), so F^T F^* is the
    n-qubit state without noise. Each projector |m><m| contracts m^* into
    F's leading qubit and drops it. The noise term is carried in closed
    form: after i rank-one projections it has weight (1 - v) 2^-i and is
    still maximally mixed. Returns the conditional weights and the
    renormalized state on the n - len(projectors) qubits left.
    """
    v = float(visibility)
    rows = factor.shape[0]
    n_left = factor.shape[1].bit_length() - 1 - len(projectors)
    weight = v * float(np.vdot(factor, factor).real) + (1.0 - v)
    p_list: list[float] = []
    for i, setting in enumerate(projectors):
        factor = np.tensordot(factor.reshape(rows, 2, -1), setting.ket().conj(), axes=([1], [0]))
        new_weight = v * float(np.vdot(factor, factor).real) + (1.0 - v) * 2.0 ** -(i + 1)
        p = new_weight / weight
        if p < ZERO_WEIGHT_THRESHOLD:
            raise ZeroProjectionError(f"projector {setting} has zero weight after {i} projections")
        p_list.append(p)
        weight = new_weight
    dim = 2**n_left
    noise = (1.0 - v) * 2.0 ** -len(projectors) / dim
    matrix = v * (factor.T @ factor.conj()) + noise * np.eye(dim, dtype=complex)
    return p_list, DensityMatrix(n_left, matrix / weight)


def _resolve_settings(
    config: ScenarioConfig,
    rho_prime: DensityMatrix,
    etas: Sequence[float],
    opts: OptimizeOptions,
) -> tuple[SettingsAssignment, float]:
    if config.settings is not None:
        settings = [list(party) for party in config.settings]
        value = quantum_value(config.bell, rho_prime, settings, etas, config.convention)
        return settings, value
    return optimize_settings(config.bell, rho_prime, etas, config.convention, opts)


def composite_lhs(
    config: ScenarioConfig,
    restarts: int = 64,
    seed: int = 0,
) -> float:
    """Left side of the composite expression.

    eta_L^(number of projecting parties) * prod(p_i) * (Q - L), where Q is
    the Bell value on the projected state at eta_H-dressed settings. A
    positive value certifies a violation; the eta_L factor never changes
    the sign, which is why the low efficiencies only need to be nonzero.
    """
    value, _ = composite_parts(config, restarts=restarts, seed=seed)
    return value


def composite_parts(
    config: ScenarioConfig,
    restarts: int = 64,
    seed: int = 0,
) -> tuple[float, dict]:
    """composite_lhs plus the pieces it is built from, for reports."""
    validate_efficiency(config.eta_L)
    validate_efficiency(config.eta_H)
    p_list, rho_prime = projected_state(config)
    etas = [config.eta_H] * config.k
    settings, q = _resolve_settings(
        config, rho_prime, etas, OptimizeOptions(restarts=restarts, seed=seed)
    )
    p_prod = float(np.prod(p_list)) if p_list else 1.0
    lhs = config.eta_L**config.n_projections * p_prod * (q - config.bell.classical_bound)
    parts = {
        "projection_probs": p_list,
        "bell_value": q,
        "classical_bound": config.bell.classical_bound,
        "eta_L_exponent": config.n_projections,
        "settings": [[{"theta": s.theta, "phi": s.phi} for s in party] for party in settings],
    }
    return lhs, parts


def _bisect(
    f: Callable[[float], float], lo: float, hi: float, tol: float = _BISECT_TOL
) -> tuple[float, int, tuple[float, float]]:
    """Root of f on [lo, hi] with f(lo) < 0 <= f(hi), by bisection."""
    bracket = (lo, hi)
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations, bracket


def _scan_bracket_low(f: Callable[[float], float], hi: float) -> float | None:
    """Find some eta below ``hi`` where the violation disappears."""
    for factor in (0.75, 0.5, 0.3, 0.15, 0.05, 0.01, 1e-3, 1e-4):
        lo = hi * factor
        if f(lo) < 0.0:
            return lo
    return None


def _solve_threshold(
    value_at: Callable[[float, SettingsAssignment], float],
    optimize_at: Callable[[float, SettingsAssignment | None], tuple[SettingsAssignment, float]] | None,
    start_settings: SettingsAssignment,
    bound: float,
    residual_tol: float = RESIDUAL_TOL,
    max_rounds: int = _MAX_ROUNDS,
) -> SolveResult:
    """Shared fixed-point engine for the threshold solvers.

    Alternates a bisection at fixed settings with a re-optimization at the
    current root. Because optimizing can only raise the quantum value, each
    round's root is an upper bound on the true threshold and the sequence
    decreases monotonically; convergence is declared when the optimized
    value at the root sits on the bound to within ``residual_tol``.
    """
    settings = start_settings
    hi = 1.0
    rounds = 0
    total_bisect = 0
    bracket: tuple[float, float] | None = None
    root = hi
    residual = math.inf
    while rounds < max_rounds:
        rounds += 1

        def f(eta: float) -> float:
            return value_at(eta, settings) - bound

        lo = _scan_bracket_low(f, hi)
        if lo is None:
            return SolveResult(
                status="not_found",
                critical_value=None,
                iterations=rounds,
                bracket=None,
                achieved_residual=None,
                diagnostics={"reason": "no sign change found below the upper end"},
            )
        root, iters, bracket = _bisect(f, lo, hi)
        total_bisect += iters
        if optimize_at is None:
            residual = abs(f(root))
            break
        settings, q_root = optimize_at(root, settings)
        residual = q_root - bound
        if abs(residual) < residual_tol:
            break
        hi = root
    return SolveResult(
        status="ok",
        critical_value=root,
        iterations=rounds,
        bracket=bracket,
        achieved_residual=abs(residual),
        diagnostics={"bisection_iterations": total_bisect},
    )


def critical_eta_high(
    config: ScenarioConfig,
    restarts: int = 64,
    refine_restarts: int = 16,
    seed: int = 0,
) -> SolveResult:
    """Smallest eta_H at which the composite expression still violates.

    Solves Q(eta_H) = L on (0, 1] for the Bell value on the projected
    state, with settings re-optimized against the shrinking efficiency when
    the config says AUTO. NOT_FOUND when there is no violation at eta_H = 1.
    """
    p_list, rho_prime = projected_state(config)
    expr = config.bell
    bound = expr.classical_bound
    k = config.k
    auto = config.settings is None

    def value_at(eta: float, settings: SettingsAssignment) -> float:
        return quantum_value(expr, rho_prime, settings, [eta] * k, config.convention)

    if auto:
        settings, q_one = optimize_settings(
            expr, rho_prime, [1.0] * k, config.convention, OptimizeOptions(restarts=restarts, seed=seed)
        )
    else:
        settings = [list(party) for party in config.settings]
        q_one = value_at(1.0, settings)
    if q_one - bound <= 1e-11:
        return SolveResult(
            status="not_found",
            critical_value=None,
            iterations=0,
            bracket=None,
            achieved_residual=None,
            diagnostics={"reason": "no violation at eta_H = 1", "value_at_one": q_one},
        )

    optimize_at = None
    if auto:

        def optimize_at(eta: float, warm: SettingsAssignment | None):
            opts = OptimizeOptions(
                restarts=refine_restarts,
                seed=seed + 1,
                warm_starts=(warm,) if warm is not None else (),
            )
            return optimize_settings(expr, rho_prime, [eta] * k, config.convention, opts)

    result = _solve_threshold(value_at, optimize_at, settings, bound)
    result.diagnostics["value_at_one"] = q_one
    result.diagnostics["projection_probs"] = p_list
    return result


def symmetric_critical_eta(
    expr: BellExpression,
    state: DensityMatrix,
    eta_fixed: Sequence[float | None] | None = None,
    convention: Convention = Convention.FOLD,
    restarts: int = 64,
    refine_restarts: int = 16,
    seed: int = 0,
) -> SolveResult:
    """Critical efficiency when all free parties share one eta.

    ``eta_fixed`` pins individual parties (None entries share the solved
    eta); by default every detector is dressed equally. Settings are always
    optimized (AUTO).
    """
    n = expr.n_parties
    pins = list(eta_fixed) if eta_fixed is not None else [None] * n
    if len(pins) != n:
        raise ValueError(f"eta_fixed must list {n} entries")

    def etas(eta: float) -> list[float]:
        return [eta if pin is None else validate_efficiency(pin) for pin in pins]

    def value_at(eta: float, settings: SettingsAssignment) -> float:
        return quantum_value(expr, state, settings, etas(eta), convention)

    settings, q_one = optimize_settings(
        expr, state, etas(1.0), convention, OptimizeOptions(restarts=restarts, seed=seed)
    )
    if q_one - expr.classical_bound <= 1e-11:
        return SolveResult(
            status="not_found",
            critical_value=None,
            iterations=0,
            bracket=None,
            achieved_residual=None,
            diagnostics={"reason": "no violation at eta = 1", "value_at_one": q_one},
        )

    def optimize_at(eta: float, warm: SettingsAssignment | None):
        opts = OptimizeOptions(
            restarts=refine_restarts,
            seed=seed + 1,
            warm_starts=(warm,) if warm is not None else (),
        )
        return optimize_settings(expr, state, etas(eta), convention, opts)

    result = _solve_threshold(value_at, optimize_at, settings, expr.classical_bound)
    result.diagnostics["value_at_one"] = q_one
    return result


def critical_visibility(
    config: ScenarioConfig,
    restarts: int = 64,
    refine_restarts: int = 16,
    seed: int = 0,
) -> SolveResult:
    """Threshold visibility v* where the composite expression crosses zero.

    At fixed settings the composite value is exactly affine in v (the
    mixing enters linearly and the projection renormalization cancels), so
    each round solves the affine root from the v=0 and v=1 endpoints, then
    re-optimizes settings at the root until the fixed point. eta_H stays at
    the configured value. Diagnostics carry the two closed-form readings of
    the visibility/efficiency link; the root finder is the ground truth.
    """
    config.require_valid()
    expr = config.bell
    bound = expr.classical_bound
    k = config.k
    auto = config.settings is None
    etas = [config.eta_H] * k

    def parts_at(v: float, settings: SettingsAssignment) -> tuple[float, float, list[float]]:
        p_list, rho_v = projected_state(replace(config, visibility=v))
        q = quantum_value(expr, rho_v, settings, etas, config.convention)
        lhs = config.eta_L**config.n_projections * float(np.prod(p_list)) * (q - bound)
        return lhs, q, p_list

    p_pure, rho_pure = projected_state(replace(config, visibility=1.0))
    if auto:
        settings, q_pure = optimize_settings(
            expr, rho_pure, etas, config.convention, OptimizeOptions(restarts=restarts, seed=seed)
        )
    else:
        settings = [list(party) for party in config.settings]
        q_pure = quantum_value(expr, rho_pure, settings, etas, config.convention)

    f_one, _, _ = parts_at(1.0, settings)
    if f_one < -RESIDUAL_TOL:
        return SolveResult(
            status="not_found",
            critical_value=None,
            iterations=0,
            bracket=None,
            achieved_residual=None,
            diagnostics={"reason": "no violation at v = 1", "composite_at_one": f_one},
        )

    rounds = 0
    v_root = 1.0
    residual = math.inf
    bracket = (0.0, 1.0)
    while rounds < _MAX_ROUNDS:
        rounds += 1
        f0, _, _ = parts_at(0.0, settings)
        f1, _, _ = parts_at(1.0, settings)
        if abs(f1 - f0) < 1e-300:
            return SolveResult(
                status="not_found",
                critical_value=None,
                iterations=rounds,
                bracket=None,
                achieved_residual=None,
                diagnostics={"reason": "composite does not depend on v"},
            )
        v_root = min(max(-f0 / (f1 - f0), 0.0), 1.0)
        bracket = (0.0, 1.0)
        if auto:
            _, rho_v = projected_state(replace(config, visibility=v_root))
            settings, q_v = optimize_settings(
                expr,
                rho_v,
                etas,
                config.convention,
                OptimizeOptions(restarts=refine_restarts, seed=seed + rounds, warm_starts=(settings,)),
            )
        else:
            _, q_v, _ = parts_at(v_root, settings)
        residual = q_v - bound
        if abs(residual) < RESIDUAL_TOL:
            break

    # Closed-form diagnostics for the visibility/efficiency link. The
    # "noise_branch" reading evaluates the reference value on the projected
    # maximally mixed state and is algebraically exact at fixed settings;
    # the "literal" reading plugs the solved mixture itself in and
    # degenerates near threshold. Neither is asserted anywhere.
    m = config.n_projections
    _, q_noise, _ = parts_at(0.0, settings)
    q_pure_final = quantum_value(expr, rho_pure, settings, etas, config.convention)
    p_prod = float(np.prod(p_pure)) if p_pure else 1.0
    diagnostics: dict = {}
    denom = q_noise - bound
    if abs(denom) > 1e-300:
        diagnostics["closed_form_noise_branch"] = 1.0 / (
            1.0 - 2.0**m * p_prod * (q_pure_final - bound) / denom
        )
    _, q_mix, _ = parts_at(v_root, settings)
    denom_lit = q_mix - bound
    if abs(denom_lit) > 1e-300:
        diagnostics["closed_form_literal"] = 1.0 / (
            1.0
            - 2.0**m * config.eta_L**m * p_prod * (q_pure_final - bound) / denom_lit
        )
    diagnostics["bell_value_pure"] = q_pure_final
    diagnostics["bell_value_noise"] = q_noise
    return SolveResult(
        status="ok",
        critical_value=v_root,
        iterations=rounds,
        bracket=bracket,
        achieved_residual=abs(residual),
        diagnostics=diagnostics,
    )
