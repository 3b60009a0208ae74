"""Bell expressions: quantum values under dressed measurements and exact
local-hidden-variable bounds by best response over deterministic strategies."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .detmodel import Convention, MeasurementSetting, json_float, json_int, validate_efficiency
from .detmodel import _coefficients, _outcome_factors
from .qstate import DensityMatrix

OUTCOME_PLUS = "+"
OUTCOME_MINUS = "-"
OUTCOME_NONE = "0"  # no click (trinary bookkeeping)
OUTCOME_ANY = "*"  # marginalized party
_OUTCOME_LABELS = (OUTCOME_PLUS, OUTCOME_MINUS, OUTCOME_NONE, OUTCOME_ANY)
_OUTCOME_FOLDED = "±"  # the folded observable of every correlation term

STRATEGY_LIMIT = 1_000_000
_BLOCK_FLOATS = 2**22  # floats in each array the quantum kernel makes per block of starts

# Stopping rules for every start of the settings optimizer: see-saw sweeps
# until one gains at most _SWEEP_GAIN, then Newton steps until the gradient
# or the step is negligible.
_MAX_SWEEPS = 10
_SWEEP_GAIN = 1e-15
_MAX_NEWTON = 100
_GRADIENT_TOL = 1e-13
_STEP_TOL = 1e-10
_INITIAL_DAMPING = 1e-5


class BellForm(str, Enum):
    CORRELATION = "correlation"
    PROBABILITY = "probability"


# How each form books the outcomes of a deterministic local strategy.
_LHV_CONVENTION = {BellForm.CORRELATION: Convention.FOLD, BellForm.PROBABILITY: Convention.TRINARY}
# The labels l of a party's cells (setting j, label l): every label a form's terms use.
_CELL_LABELS = {BellForm.CORRELATION: (_OUTCOME_FOLDED,), BellForm.PROBABILITY: _OUTCOME_LABELS}


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
            # not item.get: a term that is no JSON object must fail with TypeError
            outcomes = item["outcomes"] if "outcomes" in item else None
            if outcomes is not None and not (
                isinstance(outcomes, (list, tuple)) and all(isinstance(o, str) for o in outcomes)
            ):
                raise ValueError(f"outcomes must be a list of labels, got {outcomes!r}")
            terms.append(
                BellTerm(
                    settings=tuple(json_int(j, "term settings") for j in item["settings"]),
                    weight=json_float(item["weight"], "weight"),
                    outcomes=None if outcomes is None else tuple(outcomes),
                )
            )
        expr = cls(
            n_parties=json_int(doc["n_parties"], "n_parties"),
            settings_per_party=json_int(doc["settings_per_party"], "settings_per_party"),
            form=form,
            terms=tuple(terms),
            classical_bound=json_float(doc.get("classical_bound", 0.0), "classical_bound"),
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


def _expression_tensor(expr: BellExpression) -> np.ndarray:
    """C over every party's cells (setting j, label l), shape (s L,) * n with
    L = len(_CELL_LABELS[form]): the expression's weights, free of any
    detector model. Each term adds its weight to exactly one cell."""
    n, labels = expr.n_parties, _CELL_LABELS[expr.form]
    width = len(labels)
    cells = expr.settings_per_party * width
    code = {label: l for l, label in enumerate(labels)}
    settings = np.array([t.settings for t in expr.terms], dtype=int).reshape(-1, n)
    # a correlation term measures the folded label at every party
    codes = np.array([[code[o] for o in t.outcomes or labels * n] for t in expr.terms], dtype=int)
    flat = (settings * width + codes.reshape(-1, n)) @ cells ** np.arange(n - 1, -1, -1)
    weights = np.array([t.weight for t in expr.terms], dtype=float)
    return np.bincount(flat, weights, minlength=cells**n).reshape((cells,) * n)


@functools.cache
def _lhv_basis(form: BellForm) -> np.ndarray:
    """basis[l, o]: the factor of cell label l (``_CELL_LABELS``) when a party answers o."""
    outcome_factor = _outcome_factors(_LHV_CONVENTION[form])
    basis = np.array([outcome_factor[label] for label in _CELL_LABELS[form]])
    basis.setflags(write=False)
    return basis


def _strategy_count(expr: BellExpression) -> int:
    # a party's deterministic strategy answers each of its settings with one outcome
    n_outcomes = _lhv_basis(expr.form).shape[1]
    return (n_outcomes**expr.settings_per_party) ** expr.n_parties


def lhv_bound(expr: BellExpression) -> float:
    """Exact maximum over all deterministic local strategies, by best response.

    Correlation form assigns +/-1 per setting and party; probability form
    assigns one of {+, -, no-click}. The maximum over this finite set is
    the classical bound of the local polytope. The value is multilinear in
    the parties' strategies: a strategy gives each cell (setting j, label l)
    of the expression tensor C (``_expression_tensor``) the factor of l at
    the strategy's answer to j. The first n-1 parties are contracted with
    their strategy matrices one at a time, which enumerates their joint
    strategies; the value is then a sum over the last party's settings,
    each with its own outcome, so the last party takes its best outcome per
    setting in closed form.
    """
    if _strategy_count(expr) > STRATEGY_LIMIT:
        raise ValueError(
            f"enumeration would visit {_strategy_count(expr)} strategies, "
            f"limit is {STRATEGY_LIMIT}"
        )
    s, basis = expr.settings_per_party, _lhv_basis(expr.form)
    width, n_outcomes = basis.shape
    # One row per deterministic strategy of a party: an outcome index per setting.
    table = np.array(list(itertools.product(range(n_outcomes), repeat=s)))
    # strategies[r, (j, l)]: label l's factor at the answer strategy r gives at setting j.
    strategies = basis.T[table].reshape(len(table), s * width)
    x = _expression_tensor(expr).reshape(s * width, -1)
    for _ in range(expr.n_parties - 1):
        # the leading party's cells become its strategies, moved to the back
        x = (x.T @ strategies.T).reshape(s * width, -1)
    # acc[j, o, r]: the value at the last party's setting j when it answers o
    # there and the other parties play joint strategy r.
    acc = basis.T @ x.reshape(s, width, -1)
    return float(acc.max(axis=1).sum(axis=0).max())


def _coefficient_tensor(
    expr: BellExpression, etas: Sequence[float], convention: Convention
) -> np.ndarray:
    """W[q_1, ..., q_n]: the expression as a sum of products of per-party units,
    q = 0 the identity and q = j + 1 the Pauli vector n_j . sigma of setting j.
    A dressed operator a Pi+ + b I, (a, b) from the detector model at the
    party's eta, is (b + a/2) I + (a/2) n_j . sigma, so each party's cells
    (j, l) of the expression tensor C map to its units by the dressing matrix
    D[(j, l), q], contracted one party at a time. W[0, ..., 0] is the value
    on white noise."""
    n, s = expr.n_parties, expr.settings_per_party
    # Correlation terms need the folded row, which only FOLD has (ConventionError otherwise).
    a, b = _coefficients(convention, np.array(_CELL_LABELS[expr.form])[:, None], etas)
    a, b = a.T[:, None, :, None], b.T[:, None, :, None]  # (parties, 1, labels, 1)
    units = np.eye(s + 1)  # row 0 the identity, row j + 1 setting j's Pauli vector
    # dressing[i, j, l, q]: party i's cell (j, l) on its unit q
    dressing = (b + 0.5 * a) * units[0] + 0.5 * a * units[1:, None]
    tensor = _expression_tensor(expr)
    for d in dressing.reshape(n, -1, s + 1):
        # the leading party's cells become its units, moved to the back
        tensor = tensor.reshape(len(d), -1).T @ d
    return tensor.reshape((s + 1,) * n)


class _Evaluator:
    """Vectorized quantum-value kernel for a fixed expression and state.

    Works in the real Pauli basis: the state is its tensor T (see
    ``DensityMatrix.pauli_tensor``), the expression its coefficient tensor W, and T
    is contracted with one party's units (``_units``) at a time, then with W.
    Angles carry a leading start axis: thetas and phis of shape (S, n, s)
    evaluate S independent settings at once, and every result keeps that
    axis first. The settings optimizer also runs see-saw sweeps (``sweep``)
    and reads the exact angle derivatives (``derivatives``).
    """

    def __init__(
        self,
        expr: BellExpression,
        rho: DensityMatrix,
        etas: Sequence[float],
        convention: Convention,
    ) -> None:
        n = expr.n_parties
        if not isinstance(rho, DensityMatrix):  # the one checked state input
            raise TypeError(f"the state must be a DensityMatrix, got {type(rho).__name__}")
        etas = np.array([validate_efficiency(e) for e in etas], dtype=float)
        if etas.shape != (n,):
            raise ValueError(f"expected {n} efficiencies, got {etas.shape}")
        if rho.n_qubits != n:
            raise ValueError(f"a state of {rho.n_qubits} qubits does not match {n} parties")
        self.tensor = rho.pauli_tensor
        self.coefficients = _coefficient_tensor(expr, etas, convention)
        self.n_parties, self.settings_per_party = n, expr.settings_per_party

    def _partial(self, units: np.ndarray, open_parties: tuple[int, ...] = ()) -> np.ndarray:
        """T contracted with every party's units but ``open_parties``', then with W
        over the contracted unit axes: (S, mu_i, ..., q_i, ...) over the open
        parties i, the value's derivative in Pauli component mu_i of unit q_i.
        The starts run in blocks whose arrays hold about _BLOCK_FLOATS floats."""
        n, width = self.n_parties, units.shape[2]
        sizes = [4 if i in open_parties else width for i in range(n)]
        # einsum sublists: 0 the starts, i + 1 party i's units, n + 1 + i its Pauli axis
        axes = [0] + [n + 1 + i if i in open_parties else i + 1 for i in range(n)]
        kept = [0] + [n + 1 + i for i in open_parties] + [i + 1 for i in open_parties]
        step, parts = max(1, _BLOCK_FLOATS // max(width, 4) ** n), []
        for lo in range(0, max(len(units), 1), step):  # one block even for zero starts
            block, x = units[lo : lo + step], self.tensor
            for i in range(n):  # x (S, axes done, mu_i, Pauli axes to go); matmul adds S
                x = x.reshape(-1, math.prod(sizes[:i]), 4, 4 ** (n - 1 - i))
                if i not in open_parties:
                    x = block[:, None, i] @ x
            if len(x) != len(block):  # every party open: T (x) W at every start
                x = np.broadcast_to(x, (len(block),) + x.shape[1:])
            x = x.reshape(len(block), *sizes)
            parts.append(np.einsum(x, axes, self.coefficients, list(range(1, n + 1)), kept))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def value(self, thetas: np.ndarray, phis: np.ndarray | None = None) -> np.ndarray:
        """The expression's value at each start, shape (S,)."""
        return self._partial(_units(thetas, phis))

    def sweep(self, thetas: np.ndarray, phis: np.ndarray | None) -> np.ndarray:
        """One see-saw sweep in place, returning the value after it, (S,). With
        the other parties fixed, the value is the identity corner of party i's
        one-party partial plus sum_j c_j . n_ij over its Bloch fields c_j (the
        setting units' block), so each party in turn takes n_ij = c_j / |c_j|
        and the value after the last one is that corner plus sum_j |c_j|. The
        angles are read back from the units once; a setting no term reaches
        keeps its angles. Without ``phis`` the fields' y parts are dropped."""
        units = _units(thetas, phis)
        moves = np.zeros(thetas.shape, dtype=bool)
        for i in range(self.n_parties):
            part = self._partial(units, (i,))
            c = part[:, 1:, 1:].transpose(0, 2, 1)  # (S, s, 3)
            if phis is None:
                c[..., 1] = 0.0
            norm = np.sqrt(np.einsum("sjx,sjx->sj", c, c))
            moves[:, i] = norm > 0.0
            np.divide(c, norm[..., None], out=units[:, i, 1:, 1:], where=moves[:, i, :, None])
        bx, by, bz = units[:, :, 1:, 1:].transpose(3, 0, 1, 2)
        if phis is None:
            np.copyto(thetas, np.arctan2(bx, bz), where=moves)
        else:
            np.copyto(thetas, np.arctan2(np.hypot(bx, by), bz), where=moves)
            np.copyto(phis, np.arctan2(by, bx), where=moves)
        return part[:, 0, 0] + norm.sum(axis=1)

    def derivatives(
        self, thetas: np.ndarray, phis: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact gradient (S, D) and Hessian (S, D, D) of the value in the
        angles, ordered as the thetas (n, s) followed by the phis (n, s) when
        ``phis`` is given (D = n s or 2 n s).

        The value is multilinear in the Bloch vectors n_ij with no second
        derivative within one party (each product holds one unit per party).
        Each cross-party block comes from one two-party partial per party pair.
        Each party's Bloch fields c_j = d value / d n_ij are the first pair
        partial that holds the party, contracted with the other party's units;
        the within-party blocks are those fields against n_ij's second
        derivatives.
        """
        n, s = self.n_parties, self.settings_per_party
        jac, curl = _bloch_derivatives(thetas, phis)  # (S, n, s, 3, A), (S, n, s, 3, A, A)
        units = np.zeros(thetas.shape[:2] + (s + 1, 4))
        units[:, :, 0, 0] = 1.0
        units[:, :, 1:, 1:] = -curl[..., 0, 0]  # n = -d2n/dt2, bit for bit: no second sin/cos
        c = np.empty(thetas.shape + (3,))
        if n == 1:  # no pairs: the party's own partial
            c[:, 0] = self._partial(units, (0,))[:, 1:, 1:].transpose(0, 2, 1)
        # hessian[:, a, i, j, b, k, l]: angle a of setting (i, j) against angle b of (k, l)
        hessian = np.zeros((len(units),) + (jac.shape[-1], n, s) * 2)
        for i, k in itertools.combinations(range(n), 2):
            pair = self._partial(units, (i, k))
            if i == 0:  # party k's first pair, and for k = 1 party 0's
                c[:, k] = np.einsum("sxyjl,sjx->sly", pair[:, :, 1:, :, 1:], units[:, 0])
                if k == 1:
                    c[:, 0] = np.einsum("sxyjl,sly->sjx", pair[:, 1:, :, 1:], units[:, 1])
            bloch = pair[:, 1:, 1:, 1:, 1:]  # d2 value / d n_ijx d n_kly
            block = np.einsum("sjxa,sxyjl,slyb->sajbl", jac[:, i], bloch, jac[:, k])
            hessian[:, :, i, :, :, k] = block
            hessian[:, :, k, :, :, i] = block.transpose(0, 3, 4, 1, 2)
        party, setting = np.arange(n)[:, None], np.arange(s)
        hessian[:, :, party, setting, :, party, setting] = np.einsum("sijx,sijxab->ijsab", c, curl)
        gradient = np.einsum("sijx,sijxa->saij", c, jac)
        dim = math.prod(gradient.shape[1:])  # from the shape: a batch may have no starts
        return gradient.reshape(-1, dim), hessian.reshape(-1, dim, dim)


def _units(thetas: np.ndarray, phis: np.ndarray | None) -> np.ndarray:
    """u (S, parties, s + 1, 4): each party's identity (1, 0, 0, 0), then each setting's
    Pauli vector (0, n), n = (sin t cos p, sin t sin p, cos t); p = 0 without phis."""
    units = np.zeros(thetas.shape[:2] + (thetas.shape[2] + 1, 4))
    units[:, :, 0, 0] = 1.0
    bloch = units[:, :, 1:, 1:]
    sin_t = np.sin(thetas, out=bloch[..., 0])
    if phis is not None:
        np.multiply(sin_t, np.sin(phis), out=bloch[..., 1])
        sin_t *= np.cos(phis)
    np.cos(thetas, out=bloch[..., 2])
    return units


def _bloch_derivatives(thetas: np.ndarray, phis: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """First and second derivatives of n = (sin t cos p, sin t sin p, cos t)
    in the angles (t, or t and p), shapes (..., 3, A) and (..., 3, A, A)."""
    ct, st = np.cos(thetas), np.sin(thetas)
    cp, sp = (1.0, 0.0) if phis is None else (np.cos(phis), np.sin(phis))  # p = 0 without phis
    shape = thetas.shape + (3,) + (1 if phis is None else 2,) * 2
    first, second = np.zeros(shape[:-1]), np.zeros(shape)
    first[..., 0, 0], first[..., 1, 0], first[..., 2, 0] = ct * cp, ct * sp, -st
    second[..., 0, 0, 0], second[..., 1, 0, 0], second[..., 2, 0, 0] = -st * cp, -st * sp, -ct
    if phis is not None:  # n_z does not depend on p
        first[..., 0, 1], first[..., 1, 1] = -st * sp, st * cp
        second[..., 0, 0, 1] = second[..., 0, 1, 0] = -ct * sp
        second[..., 1, 0, 1] = second[..., 1, 1, 0] = ct * cp
        second[..., 0, 1, 1], second[..., 1, 1, 1] = -st * cp, -st * sp
    return first, second


def quantum_value(
    expr: BellExpression,
    rho: DensityMatrix,
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
    thetas, phis = settings_to_angles(settings)
    return float(_Evaluator(expr, rho, etas, convention).value(thetas[None], phis[None])[0])


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
    base = [[0.0, math.pi / 2.0]] * (n_parties - 1) + [[math.pi / 4.0, -math.pi / 4.0]]
    return np.array(base)[:, np.arange(settings_per_party) % 2]


@dataclass
class OptimizeOptions:
    """Knobs for the multistart settings optimizer."""

    restarts: int = 64
    seed: int = 0
    include_phi: bool = False
    warm_starts: tuple = field(default_factory=tuple)


def optimize_settings(
    expr: BellExpression,
    rho: DensityMatrix,
    etas: Sequence[float],
    convention: Convention = Convention.FOLD,
    options: OptimizeOptions | None = None,
) -> tuple[list[list[MeasurementSetting]], float]:
    """Maximize the quantum value over measurement angles.

    Every start (the CHSH seed, any warm starts and ``restarts`` random
    starts) runs see-saw sweeps (Liang & Doherty, PRA 75, 042103 (2007)):
    the value is affine in each projector, so each party in turn takes the
    exact best projector for every setting given the others, the unit
    vector c/|c| of the setting's Bloch field c, and each sweep's value is
    read off the last party's field norms (``_Evaluator.sweep``). Where the
    optimum is ill-conditioned (Eberhard's CH optimum below eta = 1) the
    sweeps crawl, so a damped Newton polish on the exact Hessian finishes
    every start; one sweep after each trial step puts it back onto the
    crest of a curved ridge. All starts advance together along a leading
    start axis, each with its own stopping rules, damping and step count,
    so a start ends exactly where it would alone. The returned value is the
    first maximum over every start's own evaluation and end point, in start
    order, so it never falls below the value at the seed. Angles stay in
    the real (x-z) Bloch plane unless ``include_phi`` is set.
    """
    opts = options or OptimizeOptions()
    n, s = expr.n_parties, expr.settings_per_party
    evaluator = _Evaluator(expr, rho, etas, convention)
    n_theta = n * s

    def split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Views of starts x (S, D) as thetas and phis (S, n, s)."""
        thetas = x[:, :n_theta].reshape(-1, n, s)
        phis = x[:, n_theta:].reshape(-1, n, s) if opts.include_phi else None
        return thetas, phis

    dim = n_theta * (2 if opts.include_phi else 1)
    seed = chsh_seed_angles(n, s)
    given = [(seed, np.zeros_like(seed)), *map(settings_to_angles, opts.warm_starts)]
    # The seed, the warm starts, then the random starts; phis follow thetas only if searched.
    starts = [np.concatenate([t.ravel(), p.ravel()])[:dim] for t, p in given]
    rng = np.random.default_rng(opts.seed)
    starts += [rng.uniform(0.0, 2.0 * math.pi, size=dim) for _ in range(opts.restarts)]
    x0 = np.array(starts)
    start_vals = evaluator.value(*split(x0))

    # See-saw: a start freezes once a sweep gains at most _SWEEP_GAIN.
    x, v = x0.copy(), start_vals.copy()
    active = np.ones(len(x), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        rows = np.flatnonzero(active)
        moved = x[rows]
        swept = evaluator.sweep(*split(moved))
        active[rows] = swept - v[rows] > _SWEEP_GAIN
        x[rows], v[rows] = moved, swept
        if not active.any():
            break

    # Levenberg-Marquardt polish on the exact gradient and Hessian, each step
    # accepted only when the value rises; a start's derivatives are rebuilt
    # only after it accepted a step.
    damping = np.full(len(x), _INITIAL_DAMPING)
    newton_steps = np.zeros(len(x), dtype=int)
    gradient, curvature = np.zeros_like(x), np.zeros((len(x), dim, dim))
    active = np.ones(len(x), dtype=bool)
    fresh = active.copy()
    while active.any():
        rows = np.flatnonzero(fresh)
        if rows.size:
            g, hessian = evaluator.derivatives(*split(x[rows]))
            gradient[rows], curvature[rows] = g, -hessian
            newton_steps[rows] += 1
            active[rows] = np.abs(g).max(axis=1) > _GRADIENT_TOL
        rows = np.flatnonzero(active)
        lhs = curvature[rows] + damping[rows, None, None] * np.eye(dim)
        step = np.linalg.solve(lhs, gradient[rows][..., None])[..., 0]
        moving = np.abs(step).max(axis=1) > _STEP_TOL
        active[rows[~moving]] = False
        rows, moved = rows[moving], x[rows[moving]] + step[moving]
        trial = evaluator.sweep(*split(moved))  # back onto the crest of a curved ridge
        rises = trial > v[rows]
        up, down = rows[rises], rows[~rises]
        x[up], v[up] = moved[rises], trial[rises]
        damping[up] *= 0.1
        damping[down] *= 10.0
        active[up] = newton_steps[up] < _MAX_NEWTON
        fresh[:] = False
        fresh[up] = active[up]

    # Start 0, end 0, start 1, end 1, ...: the order a start-by-start run meets them.
    values = np.stack([start_vals, v], axis=1).ravel()
    best = int(np.argmax(values))
    thetas, phis = split(np.stack([x0, x], axis=1).reshape(-1, dim)[best : best + 1])
    return angles_to_settings(thetas[0], None if phis is None else phis[0]), float(values[best])
