"""Bell expressions: quantum values under dressed measurements and exact
local-hidden-variable bounds by best response over deterministic strategies."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .detmodel import Convention, MeasurementSetting, validate_efficiency
from .detmodel import _coefficients, _outcome_factors
from .qstate import DensityMatrix

OUTCOME_PLUS = "+"
OUTCOME_MINUS = "-"
OUTCOME_NONE = "0"  # no click (trinary bookkeeping)
OUTCOME_ANY = "*"  # marginalized party
_OUTCOME_LABELS = (OUTCOME_PLUS, OUTCOME_MINUS, OUTCOME_NONE, OUTCOME_ANY)
_OUTCOME_FOLDED = "±"  # the folded observable of every correlation term

STRATEGY_LIMIT = 1_000_000

# Stopping rules for every start of the settings optimizer: see-saw sweeps
# until one gains at most _SWEEP_GAIN, then Newton steps until the gradient
# or the step is negligible. _HESSIAN_STEP is the central-difference step.
_MAX_SWEEPS = 10
_SWEEP_GAIN = 1e-15
_MAX_NEWTON = 100
_GRADIENT_TOL = 1e-13
_STEP_TOL = 1e-10
_HESSIAN_STEP = 1e-5
_INITIAL_DAMPING = 1e-5


class BellForm(str, Enum):
    CORRELATION = "correlation"
    PROBABILITY = "probability"


# How each form books the outcomes of a deterministic local strategy.
_LHV_CONVENTION = {BellForm.CORRELATION: Convention.FOLD, BellForm.PROBABILITY: Convention.TRINARY}


@dataclass(frozen=True)
class BellTerm:
    """One weighted term: a joint setting choice and, for probability-form
    expressions, a joint outcome label per party ('*' marginalizes)."""

    settings: tuple[int, ...]
    weight: float
    outcomes: tuple[str, ...] | None = None


@dataclass(frozen=True)
class BellExpression:
    """Coefficient table over joint settings (and outcomes) with its
    classical bound."""

    n_parties: int
    settings_per_party: int
    form: BellForm
    terms: tuple[BellTerm, ...]
    classical_bound: float

    def __post_init__(self) -> None:
        if self.n_parties < 1:
            raise ValueError("n_parties must be >= 1")
        if self.settings_per_party < 1:
            raise ValueError("settings_per_party must be >= 1")
        for term in self.terms:
            if len(term.settings) != self.n_parties:
                raise ValueError(f"term {term} does not cover {self.n_parties} parties")
            if any(not 0 <= j < self.settings_per_party for j in term.settings):
                raise ValueError(f"term {term} uses a setting index out of range")
            if self.form == BellForm.CORRELATION:
                if term.outcomes is not None:
                    raise ValueError("correlation terms carry no outcome labels")
            else:
                if term.outcomes is None or len(term.outcomes) != self.n_parties:
                    raise ValueError(f"probability term {term} needs one outcome per party")
                if any(o not in _OUTCOME_LABELS for o in term.outcomes):
                    raise ValueError(f"term {term} uses an unknown outcome label")

    def to_json_dict(self) -> dict:
        terms = []
        for term in self.terms:
            doc: dict = {"settings": list(term.settings), "weight": term.weight}
            if term.outcomes is not None:
                doc["outcomes"] = list(term.outcomes)
            terms.append(doc)
        return {
            "n_parties": self.n_parties,
            "settings_per_party": self.settings_per_party,
            "form": self.form.value,
            "classical_bound": self.classical_bound,
            "terms": terms,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BellExpression":
        form = BellForm(doc["form"])
        terms = []
        for item in doc["terms"]:
            outcomes = item.get("outcomes")
            terms.append(
                BellTerm(
                    settings=tuple(int(j) for j in item["settings"]),
                    weight=float(item["weight"]),
                    outcomes=None if outcomes is None else tuple(str(o) for o in outcomes),
                )
            )
        expr = cls(
            n_parties=int(doc["n_parties"]),
            settings_per_party=int(doc["settings_per_party"]),
            form=form,
            terms=tuple(terms),
            classical_bound=float(doc.get("classical_bound", 0.0)),
        )
        if "classical_bound" not in doc:
            expr = replace(expr, classical_bound=lhv_bound(expr))
        return expr


def preset(name: str) -> BellExpression:
    """Built-in expressions: "CHSH" (correlation, bound 2) and
    "EBERHARD_CH" (probability/CH form, bound 0, detected clicks only)."""
    if name == "CHSH":
        terms = (
            BellTerm((0, 0), 1.0),
            BellTerm((0, 1), 1.0),
            BellTerm((1, 0), 1.0),
            BellTerm((1, 1), -1.0),
        )
        return BellExpression(2, 2, BellForm.CORRELATION, terms, 2.0)
    if name == "EBERHARD_CH":
        pp = (OUTCOME_PLUS, OUTCOME_PLUS)
        terms = (
            BellTerm((0, 0), 1.0, pp),
            BellTerm((0, 1), 1.0, pp),
            BellTerm((1, 0), 1.0, pp),
            BellTerm((1, 1), -1.0, pp),
            BellTerm((0, 0), -1.0, (OUTCOME_PLUS, OUTCOME_ANY)),
            BellTerm((0, 0), -1.0, (OUTCOME_ANY, OUTCOME_PLUS)),
        )
        return BellExpression(2, 2, BellForm.PROBABILITY, terms, 0.0)
    raise ValueError(f"unknown preset {name!r}")


def expression_from_json_dict(doc: dict) -> BellExpression:
    """A config's Bell section: ``{"preset": name}`` or an inline expression."""
    if isinstance(doc, dict) and "preset" in doc:
        return preset(doc["preset"])
    return BellExpression.from_json_dict(doc)


def _labels(term: BellTerm, n_parties: int) -> tuple[str, ...]:
    """A term's outcome label per party; correlation terms measure "±"."""
    return term.outcomes or (_OUTCOME_FOLDED,) * n_parties


def _strategy_count(expr: BellExpression) -> int:
    # "*" has one factor per deterministic outcome of a party
    n_outcomes = len(_outcome_factors(_LHV_CONVENTION[expr.form])[OUTCOME_ANY])
    return (n_outcomes**expr.settings_per_party) ** expr.n_parties


def lhv_bound(expr: BellExpression) -> float:
    """Exact maximum over all deterministic local strategies, by best response.

    Correlation form assigns +/-1 per setting and party; probability form
    assigns one of {+, -, no-click}. The maximum over this finite set is
    the classical bound of the local polytope. The first n-1 parties'
    joint strategies are enumerated as numpy vectors; the value is a sum
    over the last party's settings, each with its own outcome, so the last
    party takes its best outcome per setting in closed form.
    """
    if _strategy_count(expr) > STRATEGY_LIMIT:
        raise ValueError(
            f"enumeration would visit {_strategy_count(expr)} strategies, "
            f"limit is {STRATEGY_LIMIT}"
        )
    n, s = expr.n_parties, expr.settings_per_party
    # outcome_factor[label][o]: a term's factor from one party answering o.
    outcome_factor = _outcome_factors(_LHV_CONVENTION[expr.form])
    n_outcomes = len(outcome_factor[OUTCOME_ANY])
    # One row per deterministic strategy of a party: an outcome index per setting.
    table = np.array(list(itertools.product(range(n_outcomes), repeat=s)))
    factors = {label: f[table] for label, f in outcome_factor.items()}  # (strategy, setting)
    # acc[j, o, r]: the terms' value at the last party's setting j when it
    # answers o there and the other parties play joint strategy r.
    acc = np.zeros((s, n_outcomes, len(table) ** (n - 1)))
    for term in expr.terms:
        labels = _labels(term, n)
        vec = np.array([term.weight])
        for label, j in zip(labels[:-1], term.settings[:-1]):
            vec = np.multiply.outer(vec, factors[label][:, j]).ravel()
        acc[term.settings[-1]] += np.multiply.outer(outcome_factor[labels[-1]], vec)
    return float(acc.max(axis=1).sum(axis=0).max())


class _Evaluator:
    """Vectorized quantum-value kernel for a fixed expression and state.

    Reads each term's dressed operators a Pi+ + b I from the detector
    model once, so that one evaluation is a gather of the projectors by
    setting, one affine map and one einsum. The settings optimizer also
    reads each party's effective operators from it (``bloch_fields``).
    """

    def __init__(
        self,
        expr: BellExpression,
        rho: np.ndarray,
        etas: Sequence[float],
        convention: Convention,
    ) -> None:
        n = expr.n_parties
        self.etas = np.array([validate_efficiency(e) for e in etas], dtype=float)
        if self.etas.shape != (n,):
            raise ValueError(f"expected {n} efficiencies, got {self.etas.shape}")
        dim = 2**n
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (dim, dim):
            raise ValueError(f"state dimension {rho.shape} does not match {n} parties")
        self.rho_tensor = rho.reshape([2] * (2 * n))
        self.weights = np.array([t.weight for t in expr.terms], dtype=float)
        self.term_settings = np.array([t.settings for t in expr.terms], dtype=int).reshape(-1, n)
        self.parties = np.arange(n)
        # Correlation terms need the folded row, which only FOLD has
        # (ConventionError otherwise).
        labels = np.array([_labels(t, n) for t in expr.terms], dtype=str).reshape(-1, n)
        a, b = _coefficients(convention, labels, self.etas)  # (terms, parties)
        self.scale = a[..., None, None]
        self.shift = b[..., None, None] * np.eye(2, dtype=complex)
        # Tr(rho kron_i M_i) = sum rho[r, c] prod_i M_i[c_i, r_i]
        rows = [chr(ord("a") + i) for i in range(n)]
        cols = [chr(ord("a") + n + i) for i in range(n)]
        operands = ["".join(rows) + "".join(cols)]
        for i in range(n):
            operands.append("t" + cols[i] + rows[i])
        self.subscript = ",".join(operands) + "->t"
        self.operands = operands
        self.settings_per_party = expr.settings_per_party

    # The optimizer's extras, built on first use so that quantum_value does
    # not pay for them.
    @cached_property
    def partial(self) -> list[str]:
        """Party i's operand left out: G[t] with term t = Tr(G[t] M_ti)."""
        rho, ops = self.operands[0], self.operands[1:]
        return [
            ",".join([rho, *ops[:i], *ops[i + 1 :]]) + f"->t{ops[i][2]}{ops[i][1]}"
            for i in range(len(ops))
        ]

    @cached_property
    def route(self) -> list[np.ndarray]:
        """route[i][t, j] = w_t a_ti if term t uses party i's setting j."""
        uses = self.term_settings[..., None] == np.arange(self.settings_per_party)
        weighted = self.weights[:, None] * self.scale[..., 0, 0]  # w_t a_ti
        return [uses[:, i] * weighted[:, i, None] for i in range(len(self.parties))]

    def _projectors(self, thetas: np.ndarray, phis: np.ndarray | None) -> np.ndarray:
        half = 0.5 * np.asarray(thetas, dtype=float)
        upper = np.cos(half).astype(complex)
        lower = np.sin(half).astype(complex)
        if phis is not None:
            lower = lower * np.exp(1j * np.asarray(phis, dtype=float))
        kets = np.stack([upper, lower], axis=-1)  # (n, s, 2)
        return kets[..., :, None] * kets[..., None, :].conj()  # (n, s, 2, 2)

    def _operators(self, thetas: np.ndarray, phis: np.ndarray | None) -> np.ndarray:
        proj = self._projectors(thetas, phis)[self.parties, self.term_settings]
        return (self.scale * proj + self.shift).swapaxes(0, 1)  # (parties, terms, 2, 2)

    def value(self, thetas: np.ndarray, phis: np.ndarray | None = None) -> float:
        per_term = np.einsum(self.subscript, self.rho_tensor, *self._operators(thetas, phis))
        return float(np.real(self.weights @ per_term))

    def bloch_fields(self, thetas: np.ndarray, phis: np.ndarray | None, party: int) -> np.ndarray:
        """c[j] = Tr(E_j sigma) for each of the party's settings j, shape (s, 3).

        The value is affine in each projector Pi_ij = (I + n_ij . sigma) / 2:
        with the other parties fixed it is Tr(E_j Pi_ij) summed over j plus a
        constant, E_j the effective operator, so it depends on the Bloch
        vector n_ij only through c[j] . n_ij / 2.
        """
        ops = self._operators(thetas, phis)
        g = np.einsum(self.partial[party], self.rho_tensor, *ops[:party], *ops[party + 1 :])
        eff = np.einsum("tj,trc->jrc", self.route[party], g)
        off = eff[:, 0, 1] + eff[:, 1, 0].conj()  # Tr(E sigma_x) - i Tr(E sigma_y)
        return np.stack([off.real, -off.imag, (eff[:, 0, 0] - eff[:, 1, 1]).real], axis=-1)


def quantum_value(
    expr: BellExpression,
    rho: DensityMatrix | np.ndarray,
    settings: Sequence[Sequence[MeasurementSetting]],
    etas: Sequence[float],
    convention: Convention = Convention.FOLD,
) -> float:
    """Evaluate the expression on ``rho`` with efficiency-dressed measurements.

    Correlation form uses folded observables 2 eta Pi+ - I and requires the
    FOLD convention; probability form counts click probabilities under the
    requested convention ('*' parties contribute the identity).
    """
    if len(settings) != expr.n_parties:
        raise ValueError(f"expected settings for {expr.n_parties} parties, got {len(settings)}")
    if any(len(party) != expr.settings_per_party for party in settings):
        raise ValueError(f"every party needs {expr.settings_per_party} settings")
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    thetas, phis = settings_to_angles(settings)
    return _Evaluator(expr, mat, etas, convention).value(thetas, phis)


def angles_to_settings(
    thetas: np.ndarray, phis: np.ndarray | None = None
) -> list[list[MeasurementSetting]]:
    """Pack per-party, per-setting angles into MeasurementSetting lists."""
    thetas = np.asarray(thetas, dtype=float)
    if phis is None:
        phis = np.zeros_like(thetas)
    return [
        [MeasurementSetting(float(t), float(p)) for t, p in zip(row_t, row_p)]
        for row_t, row_p in zip(thetas, phis)
    ]


def settings_to_angles(
    settings: Sequence[Sequence[MeasurementSetting]],
) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.array([[s.theta for s in party] for party in settings], dtype=float)
    phis = np.array([[s.phi for s in party] for party in settings], dtype=float)
    return thetas, phis


def chsh_seed_angles(n_parties: int, settings_per_party: int) -> np.ndarray:
    """Known-good start: {0, pi/2} for the leading parties and
    {pi/4, -pi/4} for the last, the ideal CHSH geometry."""
    thetas = np.zeros((n_parties, settings_per_party), dtype=float)
    for i in range(n_parties):
        base = [0.0, math.pi / 2.0] if i < n_parties - 1 else [math.pi / 4.0, -math.pi / 4.0]
        for j in range(settings_per_party):
            thetas[i, j] = base[j % 2]
    return thetas


@dataclass
class OptimizeOptions:
    """Knobs for the multistart settings optimizer."""

    restarts: int = 64
    seed: int = 0
    include_phi: bool = False
    warm_starts: tuple = field(default_factory=tuple)


def optimize_settings(
    expr: BellExpression,
    rho: DensityMatrix | np.ndarray,
    etas: Sequence[float],
    convention: Convention = Convention.FOLD,
    options: OptimizeOptions | None = None,
) -> tuple[list[list[MeasurementSetting]], float]:
    """Maximize the quantum value over measurement angles.

    Every start (the CHSH seed, any warm starts and ``restarts`` random
    starts) runs see-saw sweeps (Liang & Doherty, PRA 75, 042103 (2007)):
    the value is affine in each projector, so each party in turn takes the
    exact best projector for every setting given the others. Where the
    optimum is ill-conditioned (Eberhard's CH optimum below eta = 1) the
    sweeps crawl, so a damped Newton polish finishes every start; one sweep
    after each trial step puts it back onto the crest of a curved ridge.
    The returned value is the best over every start's own evaluation and
    end point, so it never falls below the value at the seed. Angles stay
    in the real (x-z) Bloch plane unless ``include_phi`` is set.
    """
    opts = options or OptimizeOptions()
    n, s = expr.n_parties, expr.settings_per_party
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    evaluator = _Evaluator(expr, mat, etas, convention)
    n_theta = n * s

    def split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Views of x as thetas and phis (n, s)."""
        thetas = x[:n_theta].reshape(n, s)
        phis = x[n_theta:].reshape(n, s) if opts.include_phi else None
        return thetas, phis

    def value(x: np.ndarray) -> float:
        return evaluator.value(*split(x))

    def sweep(x: np.ndarray) -> None:
        """Give each party in turn its best projectors given the others, in place."""
        thetas, phis = split(x)
        for i in range(n):
            c = evaluator.bloch_fields(thetas, phis, i)
            if phis is None:
                c[:, 1] = 0.0
            norm = np.linalg.norm(c, axis=1)
            moves = norm > 0.0  # a setting no term reaches keeps its angles
            cx, cy, cz = c[moves].T
            if phis is None:
                thetas[i, moves] = np.arctan2(cx, cz)
            else:
                thetas[i, moves] = np.arctan2(np.hypot(cx, cy), cz)
                phis[i, moves] = np.arctan2(cy, cx)

    def gradient(x: np.ndarray) -> np.ndarray:
        """Exact d value / d angles: each Bloch field against dn/dtheta, dn/dphi."""
        thetas, phis = split(x)
        c = np.array([evaluator.bloch_fields(thetas, phis, i) for i in range(n)])
        phi = np.zeros_like(thetas) if phis is None else phis
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        in_plane = c[..., 0] * cos_p + c[..., 1] * sin_p
        d_theta = 0.5 * (np.cos(thetas) * in_plane - np.sin(thetas) * c[..., 2])
        if phis is None:
            return d_theta.ravel()
        d_phi = 0.5 * np.sin(thetas) * (c[..., 1] * cos_p - c[..., 0] * sin_p)
        return np.concatenate([d_theta.ravel(), d_phi.ravel()])

    def polish(x: np.ndarray, v: float) -> tuple[np.ndarray, float]:
        """Levenberg-Marquardt steps on the exact gradient and a central-difference
        Hessian of it, each accepted only when the value rises."""
        eye = np.eye(len(x))
        damping = _INITIAL_DAMPING
        for _ in range(_MAX_NEWTON):
            g = gradient(x)
            if np.abs(g).max() <= _GRADIENT_TOL:
                break
            shifts = _HESSIAN_STEP * eye
            hessian = np.array([gradient(x + d) - gradient(x - d) for d in shifts])
            curvature = -0.25 / _HESSIAN_STEP * (hessian + hessian.T)
            while True:
                step = np.linalg.solve(curvature + damping * eye, g)
                if np.abs(step).max() <= _STEP_TOL:
                    return x, v
                moved = x + step
                sweep(moved)  # back onto the crest of a curved ridge
                trial = value(moved)
                if trial > v:
                    x, v = moved, trial
                    damping *= 0.1
                    break
                damping *= 10.0
        return x, v

    starts: list[np.ndarray] = []
    seed_vec = chsh_seed_angles(n, s).reshape(-1)
    if opts.include_phi:
        seed_vec = np.concatenate([seed_vec, np.zeros(n_theta)])
    starts.append(seed_vec)
    for warm in opts.warm_starts:
        thetas, phis = settings_to_angles(warm)
        vec = thetas.reshape(-1)
        if opts.include_phi:
            vec = np.concatenate([vec, phis.reshape(-1)])
        starts.append(vec)
    rng = np.random.default_rng(opts.seed)
    dim = n_theta * (2 if opts.include_phi else 1)
    for _ in range(opts.restarts):
        starts.append(rng.uniform(0.0, 2.0 * math.pi, size=dim))

    best_x, best_val = None, -math.inf
    for x0 in starts:
        start_val = value(x0)
        if start_val > best_val:
            best_x, best_val = x0, start_val
        x, v = x0.copy(), start_val
        for _ in range(_MAX_SWEEPS):
            sweep(x)
            swept = value(x)
            gain, v = swept - v, swept
            if gain <= _SWEEP_GAIN:
                break
        x, v = polish(x, v)
        if v > best_val:
            best_x, best_val = x, v
    assert best_x is not None
    thetas, phis = split(np.asarray(best_x, dtype=float))
    return angles_to_settings(thetas, phis), float(best_val)
