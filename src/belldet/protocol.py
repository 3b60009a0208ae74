"""Project-then-test protocol: N - k parties apply single projectors, the
remaining k run a Bell test. Houses the composite expression, the projected
state, and the critical-efficiency / critical-visibility solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebinterpolate, chebroots, chebval

from .bell import _BLOCK_FLOATS, _CELL_LABELS, BellExpression, BellForm, OptimizeOptions
from .bell import _coefficient_tensor, optimize_settings, quantum_value
from .detmodel import Convention, MeasurementSetting, json_float, json_int
from .detmodel import json_array, json_object, validate_efficiency
from .qstate import MEMORY_BUDGET_BYTES, QUBIT_CAP, ZERO_WEIGHT_THRESHOLD, DensityMatrix, StateSpec
from .qstate import QubitCapacityError, ZeroProjectionError, make_state

RESIDUAL_TOL = 1e-9
_MAX_ROUNDS = 20
_ROOT_FLOOR = 1e-4  # roots below this fraction of the upper end count as none
_REFINE_RESTARTS = 16  # random starts of each re-optimization, besides the warm start

# Copies of the k-qubit density matrix alive at once while states are built,
# checked and turned into Pauli tensors: GHZ_10 and GHZ_11 with one-term expressions
# grow peak RSS by 4.3-4.4 copies in eval and 4.6-4.9 in critical-visibility.
_STATE_COPIES = 5

SettingsAssignment = list[list[MeasurementSetting]]


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment.

    The first ``lost`` qubits are traced out (vanished detectors), the next
    len(projectors) qubits receive single projectors, and the Bell
    expression acts on the last ``k`` qubits. ``projectors=None`` picks the
    state's own (``StateSpec.pair_projectors``, from qubit ``lost`` on), which
    leave a Bell pair on the last two qubits; ``settings=None`` means AUTO (optimize).
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

    def validate(self, restarts: int | None = None) -> list[str]:
        """Return every invariant violation, naming field and rule, then the qubit cap and
        the memory budget (``_working_set_bytes``) of a run whose optimizer takes ``restarts``
        starts (None: it never optimizes). Every command and library projection admits by it."""
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
        if n > QUBIT_CAP:  # qstate.make_state builds no more than that
            issues.append(str(QubitCapacityError(n)))
        elif self.k <= n:  # so 4^k stays small enough to compute
            needed = _working_set_bytes(self, restarts)
            if needed > MEMORY_BUDGET_BYTES:
                issues.append(f"k = {self.k} with {self.bell.settings_per_party} settings per "
                              f"party needs about {_mebibytes(needed)} MiB, above the budget "
                              f"{_mebibytes(MEMORY_BUDGET_BYTES)} MiB")
        return issues

    def require_valid(self) -> None:
        """Raise ValueError naming every violation of ``validate()``, before any state is built."""
        if issues := self.validate():
            raise ValueError("invalid scenario config: " + "; ".join(issues))

    def resolved_projectors(self) -> tuple[MeasurementSetting, ...]:
        if self.projectors is not None:
            return self.projectors
        return self.state.pair_projectors()[self.lost : self.n_qubits - self.k]

    def to_json_dict(self) -> dict:
        return {
            "state": self.state.to_json_dict(),
            "k": self.k,
            "eta_L": self.eta_L,
            "eta_H": self.eta_H,
            "bell": self.bell.to_json_dict(),
            "projectors": [p.to_json_dict() for p in self.projectors]
            if self.projectors is not None
            else "default",
            "settings": [[s.to_json_dict() for s in party] for party in self.settings]
            if self.settings is not None
            else "auto",
            "visibility": self.visibility,
            "convention": self.convention.value,
            "lost": self.lost,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioConfig":
        doc = json_object(doc, "scenario")
        bell = BellExpression.from_json_dict(doc["bell"])
        projectors_doc = doc.get("projectors", "default")
        if projectors_doc == "default" or projectors_doc is None:
            projectors = None
        else:
            projectors = tuple(
                MeasurementSetting.from_json_dict(json_object(p, "projector"))
                for p in json_array(projectors_doc, "projectors")
            )
        settings_doc = doc.get("settings", "auto")
        if settings_doc == "auto" or settings_doc is None:
            settings = None
        else:
            settings = tuple(
                tuple(
                    MeasurementSetting.from_json_dict(json_object(s, "setting"))
                    for s in json_array(party, "a party's settings")
                )
                for party in json_array(settings_doc, "settings")
            )
        return cls(
            state=StateSpec.from_json_dict(doc["state"]),
            k=json_int(doc["k"], "k"),
            eta_L=json_float(doc["eta_L"], "eta_L"),
            eta_H=json_float(doc["eta_H"], "eta_H"),
            bell=bell,
            projectors=projectors,
            settings=settings,
            visibility=json_float(doc.get("visibility", 1.0), "visibility"),
            convention=Convention(doc.get("convention", "fold")),
            lost=json_int(doc.get("lost", 0), "lost"),
        )


def _working_set_bytes(config: ScenarioConfig, restarts: int | None) -> int:
    """Peak bytes a command may hold for ``config`` (k parties, s settings each):
    copies of the k-qubit complex density matrix (16 * 4^k bytes each), the expression's
    cell tensor C (``bell.BellExpression.cells``, (s L)^k floats, L = 1 cell label per
    setting in correlation form or 4 in probability form), which the expression keeps
    from its first use to the end of the command, its first contraction
    ((s + 1) (s L)^(k-1) floats) and the coefficient tensor W ((s + 1)^k floats), two
    arrays of one block of starts (bell._BLOCK_FLOATS floats, or one start's
    max(s + 1, 4)^k), and, if ``restarts`` is not None and the settings are AUTO, the
    optimizer's (starts, D, D) Hessian over D = 2 k s tangent directions, which outweighs
    its (starts, k, s, 3, 2) tangent frames for k s >= 2. The threshold solvers re-optimize
    from _REFINE_RESTARTS random starts, even at 0 ``restarts``; each run adds two more."""
    k, s = config.k, config.bell.settings_per_party
    cells = s * len(_CELL_LABELS[config.bell.form])
    tensors = cells**k + (s + 1) * cells ** (k - 1) + (s + 1) ** k
    optimizes = restarts is not None and config.settings is None
    starts = max(restarts, _REFINE_RESTARTS) + 2 if optimizes else 0
    block = 2 * max(_BLOCK_FLOATS, max(s + 1, 4) ** k)
    return _STATE_COPIES * 16 * 4**k + 8 * (tensors + block + starts * (2 * k * s) ** 2)


def _mebibytes(n_bytes: int) -> str:
    """``n_bytes`` in MiB to the nearest integer; beyond the float range, as a power of ten."""
    try:
        return f"{n_bytes / 2**20:.0f}"
    except OverflowError:
        return f"10^{math.log10(n_bytes) - 20 * math.log10(2):.0f}"


@dataclass
class SolveResult:
    """Outcome of a threshold solve.

    ``status`` is "ok" when the residual (quantum value minus classical
    bound at the returned threshold, optimized settings) is below
    RESIDUAL_TOL = 1e-9 and below RESIDUAL_TOL times the slope there (so
    the threshold is within about 1e-9 too); "not_found" when there is no
    violation to start from or no sign change below the upper end;
    "not_converged" when the residual stays above that, with the last root
    and its residual reported. ``iterations`` counts the threshold engine's
    rounds and ``bracket`` is the last round's interval (0, hi); the
    closed-form visibility solve reports one round on (0, 1).
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


def resolve_settings(
    expr: BellExpression,
    rho: DensityMatrix,
    etas: Sequence[float],
    convention: Convention,
    fixed: Sequence[Sequence[MeasurementSetting]] | None,
    restarts: int,
    seed: int,
    warm: SettingsAssignment | None = None,
) -> tuple[SettingsAssignment, float]:
    """The settings to evaluate and their Bell value at ``etas``.

    ``fixed`` settings come back as they are, with their quantum value;
    None (AUTO) runs the optimizer from ``restarts`` random starts, plus
    ``warm`` when given. Every choice between configured and optimized
    settings goes through here.
    """
    if fixed is not None:
        settings = [list(party) for party in fixed]
        return settings, quantum_value(expr, rho, settings, etas, convention)
    warm_starts = () if warm is None else (warm,)
    opts = OptimizeOptions(restarts=restarts, seed=seed, warm_starts=warm_starts)
    return optimize_settings(expr, rho, etas, convention, opts)


def composite_parts(
    config: ScenarioConfig,
    restarts: int = 64,
    seed: int = 0,
) -> tuple[float, dict]:
    """Left side of the composite expression, and the pieces it is built from.

    The value is eta_L^m prod(p_i) (Q - L), m the number of projecting
    parties and Q the Bell value on the projected state at eta_H-dressed
    settings. Its scale is positive for any eta_L > 0, so the low efficiencies
    need only be nonzero, but may round to 0.0: the verdict ``violated`` is
    Q > L at eta_L > 0 (or m = 0). The dict carries it, the probabilities, Q,
    L, the eta_L exponent, the settings and, at k = 2, ``psi_plus_overlap``.
    """
    p_list, rho_prime = projected_state(config)
    settings, q = resolve_settings(
        config.bell, rho_prime, [config.eta_H] * config.k, config.convention, config.settings,
        restarts, seed,
    )
    p_prod, m = float(np.prod(p_list)), config.n_projections
    lhs = config.eta_L**m * p_prod * (q - config.bell.classical_bound)
    parts = {
        "projection_probs": p_list,
        "bell_value": q,
        "classical_bound": config.bell.classical_bound,
        "eta_L_exponent": m,
        "violated": q > config.bell.classical_bound and (config.eta_L > 0.0 or not m),
        "settings": [[s.to_json_dict() for s in party] for party in settings],
    }
    if config.k == 2:
        t = rho_prime.pauli_tensor  # |psi+><psi+| = (II + XX + YY - ZZ) / 4
        parts["psi_plus_overlap"] = float((1.0 + t[1, 1] + t[2, 2] - t[3, 3]) / 4.0)
    return lhs, parts


def _not_found(reason: str, iterations: int = 0, **diagnostics) -> SolveResult:
    return SolveResult("not_found", None, iterations, None, None, {"reason": reason, **diagnostics})


def _upper_root(f: Callable[[float], float], degree: int, hi: float) -> tuple[float, float] | None:
    """Largest root of f in [1e-4 hi, hi) where f turns from negative to
    non-negative, read off the exact degree-``degree`` interpolant of f
    through Chebyshev nodes on [0, hi], with the interpolant's slope there.

    Roots below 1e-4 hi count as none: CHSH under FOLD and CH under TRINARY
    vanish identically at eta = 0. An f already negative at hi puts the
    root at hi: the engine's hi is the previous round's root, where the
    re-optimized value may sit just below the bound.
    """
    coef = chebinterpolate(lambda ts: np.array([f(0.5 * hi * (t + 1.0)) for t in ts]), degree)
    slope = chebder(coef) * (2.0 / hi)  # df/dx as a series in t
    if chebval(1.0, coef) < 0.0:
        return hi, chebval(1.0, slope)
    roots = chebroots(coef)
    roots = np.sort(roots[roots.imag == 0.0].real)
    floor = 2.0 * _ROOT_FLOOR - 1.0
    # From the top down: the first root in range with f < 0 just below it.
    for i in reversed(range(len(roots))):
        t = roots[i]
        below = roots[i - 1] if i else t - 1.0
        if floor <= t < 1.0 and chebval(0.5 * (below + t), coef) < 0.0:
            return 0.5 * hi * (t + 1.0), chebval(t, slope)
    return None


def _solve_threshold(
    value_at: Callable[[float, SettingsAssignment], float],
    degree: int,
    optimize_at: Callable[[float, SettingsAssignment], tuple[SettingsAssignment, float]],
    settings: SettingsAssignment,
    bound: float,
) -> SolveResult:
    """The threshold engine behind the eta solvers.

    At fixed settings value_at(x, settings) is a polynomial of the given
    degree in x, so each round takes the exact root of value_at - bound on
    (0, hi] and re-optimizes the settings there. Optimizing can only raise
    the value, so each root is an upper bound on the true threshold and the
    roots decrease; the solve is "ok" once the optimized value at the root
    sits on the bound to within RESIDUAL_TOL times min(1, slope there), so
    that a shallow crossing too leaves the root within RESIDUAL_TOL.
    """
    hi = 1.0
    for rounds in range(1, _MAX_ROUNDS + 1):
        bracket = (0.0, hi)
        found = _upper_root(lambda x: value_at(x, settings) - bound, degree, hi)
        if found is None:
            return _not_found("no sign change found below the upper end", rounds)
        root, slope = found
        settings, q_root = optimize_at(root, settings)
        residual = abs(q_root - bound)
        if residual < RESIDUAL_TOL * min(1.0, abs(slope)):
            return SolveResult("ok", root, rounds, bracket, residual)
        hi = root
    reason = f"residual still above {RESIDUAL_TOL} x min(1, slope) after {_MAX_ROUNDS} rounds"
    return SolveResult("not_converged", root, rounds, bracket, residual, {"reason": reason})


def critical_eta(
    expr: BellExpression,
    state: DensityMatrix,
    pins: Sequence[float | None] | None = None,
    convention: Convention = Convention.FOLD,
    restarts: int = 64,
    seed: int = 0,
    fixed: Sequence[Sequence[MeasurementSetting]] | None = None,
) -> SolveResult:
    """Critical efficiency of the free detectors.

    ``pins`` lists one efficiency per party; parties pinned to None share
    the solved eta, so Q(eta) has degree pins.count(None). ``pins=None``
    frees every party. ``fixed`` settings skip the optimizer. NOT_FOUND when
    there is no violation with the free parties at eta = 1.
    """
    n = expr.n_parties
    pins = [None] * n if pins is None else list(pins)
    degree = pins.count(None)
    if len(pins) != n:
        raise ValueError(f"pins must list {n} entries, one per party, got {len(pins)}")
    if not degree:
        raise ValueError("pins must leave at least one party free (None)")
    pins = [None if pin is None else validate_efficiency(pin) for pin in pins]

    def etas(eta: float) -> list[float]:
        return [eta if pin is None else pin for pin in pins]

    def value_at(eta: float, settings: SettingsAssignment) -> float:
        return quantum_value(expr, state, settings, etas(eta), convention)

    def optimize_at(eta: float, warm: SettingsAssignment):
        return resolve_settings(
            expr, state, etas(eta), convention, fixed, _REFINE_RESTARTS, seed + 1, warm
        )

    settings, q_one = resolve_settings(expr, state, etas(1.0), convention, fixed, restarts, seed)
    if q_one - expr.classical_bound <= 1e-11:
        return _not_found("no violation at eta_H = 1", value_at_one=q_one)
    result = _solve_threshold(value_at, degree, optimize_at, settings, expr.classical_bound)
    result.diagnostics["value_at_one"] = q_one
    return result


def critical_eta_high(
    config: ScenarioConfig,
    restarts: int = 64,
    seed: int = 0,
) -> SolveResult:
    """Smallest eta_H at which the composite expression still violates.

    Solves Q(eta_H) = L on (0, 1] for the Bell value on the projected
    state, with settings re-optimized against the shrinking efficiency when
    the config says AUTO. NOT_FOUND when there is no violation at eta_H = 1.
    Every result carries the projection probabilities.
    """
    p_list, rho_prime = projected_state(config)
    result = critical_eta(
        config.bell, rho_prime, None, config.convention, restarts, seed, config.settings
    )
    result.diagnostics["projection_probs"] = p_list
    return result


def critical_visibility(
    config: ScenarioConfig,
    restarts: int = 64,
    seed: int = 0,
) -> SolveResult:
    """Threshold visibility v* where the composite expression crosses zero.

    The state is projected once, at v = 1. White noise stays maximally
    mixed under projection (the closed form ``_project_factor`` carries),
    so the composite over eta_L^m, whose roots eta_L never moves, is affine
    in v: v prod(p) (Q(rho') - L) + (1 - v) 2^-m (Q(I/d) - L), with rho'
    the noise-free projected state. Q(I/d) is the corner W[0, ..., 0] of
    the expression's coefficient tensor, which no measurement direction
    changes, so the settings that maximize Q(rho') maximize the composite at
    every v and v* is the root of one affine function, read off directly (a
    gap Q(rho') - L down to -RESIDUAL_TOL puts it at v = 1; below, "not_found"
    with ``value_at_one``). AUTO settings come from ``restarts`` starts, then
    one refinement from _REFINE_RESTARTS more (so ``restarts=0`` still
    searches). The residual Q(rho(v*)) - L is checked on the projection path's
    own state at v*, against the slope of Q(rho(v)) there, at the configured eta_H.
    """
    config.require_valid()
    p_list, rho_prime = projected_state(replace(config, visibility=1.0))
    expr, bound, m = config.bell, config.bell.classical_bound, config.n_projections
    etas = [config.eta_H] * config.k
    p_prod = float(np.prod(p_list))
    q = partial(quantum_value, expr, etas=etas, convention=config.convention)  # q(rho, settings)
    resolve = partial(resolve_settings, expr, rho_prime, etas, config.convention, config.settings)
    settings, q_pure = resolve(restarts, seed)
    if q_pure - bound < -RESIDUAL_TOL:
        return _not_found("no violation at v = 1", value_at_one=q_pure)
    settings, q_pure = resolve(_REFINE_RESTARTS, seed + 1, settings)
    q_noise = float(_coefficient_tensor(expr, etas, config.convention).flat[0])
    at_zero, at_one = 2.0**-m * (q_noise - bound), p_prod * (q_pure - bound)
    if at_zero == at_one:
        return _not_found("composite does not depend on v")
    diagnostics = {"bell_value_pure": q_pure, "bell_value_noise": q_noise}
    if at_one < 0.0:
        root = 1.0
    elif at_zero < 0.0:
        root = at_zero / (at_zero - at_one)
    else:
        return _not_found("no sign change found below the upper end", 1, **diagnostics)
    # Q(rho(v)) - L is the composite over the mixture's weight w(v), so at the root
    # its slope is the composite's, at_one - at_zero, over w(v*).
    slope = (at_one - at_zero) / (root * p_prod + (1.0 - root) * 2.0**-m)
    del rho_prime, resolve  # free rho' before the state at v* is built
    residual = abs(q(projected_state(replace(config, visibility=root))[1], settings) - bound)
    if residual < RESIDUAL_TOL * min(1.0, abs(slope)):
        return SolveResult("ok", root, 1, (0.0, 1.0), residual, diagnostics)
    diagnostics["reason"] = f"residual above {RESIDUAL_TOL} x min(1, slope) at the closed-form root"
    return SolveResult("not_converged", root, 1, (0.0, 1.0), residual, diagnostics)
