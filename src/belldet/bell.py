"""Bell expressions: quantum values under dressed measurements and exact
local-hidden-variable bounds by best response over deterministic strategies."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .detmodel import Convention, MeasurementSetting, json_array, json_float, json_int, json_object
from .detmodel import _coefficients, _outcome_factors, validate_efficiency
from .qstate import DensityMatrix

OUTCOME_PLUS = "+"
OUTCOME_MINUS = "-"
OUTCOME_NONE = "0"  # no click (trinary bookkeeping)
OUTCOME_ANY = "*"  # marginalized party
_OUTCOME_LABELS = (OUTCOME_PLUS, OUTCOME_MINUS, OUTCOME_NONE, OUTCOME_ANY)
_OUTCOME_SET = frozenset(_OUTCOME_LABELS)
_OUTCOME_FOLDED = "±"  # the folded observable of every correlation term

STRATEGY_LIMIT = 1_000_000
_PRINTED_DIGITS = 4300  # the most digits of an int Python converts to text by default
_BLOCK_FLOATS = 2**22  # floats in each array the quantum kernel makes per block of starts

# Stopping rules for every start of the settings optimizer: see-saw sweeps
# until one gains at most _SWEEP_GAIN, then Newton steps until the gradient
# or the step is negligible, or the step's predicted rise is within rounding
# (_RISE_TOL relative to the value) on curvature concave to rounding
# (_CONCAVE_TOL relative to the largest eigenvalue) and to the gradient's size.
_MAX_SWEEPS = 10
_SWEEP_GAIN = 1e-15
_MAX_NEWTON = 100
_GRADIENT_TOL = 1e-13
_STEP_TOL = 1e-10
_RISE_TOL = 4.0 * np.finfo(float).eps
_CONCAVE_TOL = 1e-12
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
    """Coefficient table over joint settings (and outcomes) with its classical bound:
    ``stated_bound`` if given, else ``lhv_bound``'s, enumerated on the first read of
    ``classical_bound``. The stated bound takes no part in ``==`` or the hash."""

    n_parties: int
    settings_per_party: int
    form: BellForm
    terms: tuple[BellTerm, ...]
    stated_bound: float | None = field(compare=False)

    def __post_init__(self) -> None:
        if self.n_parties < 1:
            raise ValueError("n_parties must be >= 1")
        if self.settings_per_party < 1:
            raise ValueError("settings_per_party must be >= 1")
        if self.stated_bound is None:
            _check_strategy_count(self)  # so that classical_bound can be enumerated
        for term in self.terms:
            if len(term.settings) != self.n_parties:
                raise ValueError(f"term {term} does not cover {self.n_parties} parties")
            if not (0 <= min(term.settings) and max(term.settings) < self.settings_per_party):
                raise ValueError(f"term {term} uses a setting index out of range")
            if self.form == BellForm.CORRELATION:
                if term.outcomes is not None:
                    raise ValueError("correlation terms carry no outcome labels")
            else:
                if term.outcomes is None or len(term.outcomes) != self.n_parties:
                    raise ValueError(f"probability term {term} needs one outcome per party")
                if not _OUTCOME_SET.issuperset(term.outcomes):
                    raise ValueError(f"term {term} uses an unknown outcome label")

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """C over every party's cells (setting j, label l), shape (s L,) * n with
        L = len(_CELL_LABELS[form]): the expression's weights, free of any detector
        model, each term's weight added to exactly one cell. Built on first use, never
        at construction, and kept, read-only, as long as the expression: it has
        (s L)^n floats, so the strategy limit (``lhv_bound``) and the memory budget
        (``ScenarioConfig.validate``) must be able to reject the expression before it exists."""
        n, labels = self.n_parties, _CELL_LABELS[self.form]
        width = len(labels)
        size = self.settings_per_party * width  # cells per party
        term_cells = np.array([t.settings for t in self.terms], dtype=int).reshape(-1, n) * width
        # a correlation term measures the folded label, code 0, at every party
        if self.form == BellForm.PROBABILITY:
            code = {label: l for l, label in enumerate(labels)}
            codes = np.array([[code[o] for o in t.outcomes] for t in self.terms], dtype=int)
            term_cells += codes.reshape(-1, n)
        flat = term_cells @ size ** np.arange(n - 1, -1, -1)
        weights = np.array([t.weight for t in self.terms], dtype=float)
        tensor = np.bincount(flat, weights, minlength=size**n).reshape((size,) * n)
        tensor.setflags(write=False)
        return tensor

    @functools.cached_property
    def classical_bound(self) -> float:
        """The stated bound, or else ``lhv_bound``'s, enumerated on first read and kept."""
        return lhv_bound(self) if self.stated_bound is None else self.stated_bound

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
        """A config's Bell section: ``{"preset": name}`` alone, or an inline expression."""
        doc = json_object(doc, "bell")
        if "preset" in doc:
            if extra := sorted(doc.keys() - {"preset"}):  # a preset fixes every other field
                raise ValueError(f"a preset Bell section takes no other field, got {extra}")
            return preset(doc["preset"])
        form = BellForm(doc["form"])
        terms = []
        for item in json_array(doc["terms"], "terms"):
            item = json_object(item, "term")
            outcomes = item.get("outcomes")
            if outcomes is not None and not (
                isinstance(outcomes, (list, tuple)) and all(isinstance(o, str) for o in outcomes)
            ):
                raise ValueError(f"outcomes must be a list of labels, got {outcomes!r}")
            settings = tuple(json_array(item["settings"], "term settings"))
            if not {int}.issuperset(map(type, settings)):  # bools, fractions and strings raise
                settings = tuple(json_int(j, "term settings") for j in settings)
            terms.append(
                BellTerm(
                    settings=settings,
                    weight=json_float(item["weight"], "weight"),
                    outcomes=None if outcomes is None else tuple(outcomes),
                )
            )
        return cls(
            n_parties=json_int(doc["n_parties"], "n_parties"),
            settings_per_party=json_int(doc["settings_per_party"], "settings_per_party"),
            form=form,
            terms=tuple(terms),
            stated_bound=json_float(doc["classical_bound"], "classical_bound")
            if "classical_bound" in doc
            else None,
        )


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


@functools.cache
def _strategy_matrix(form: BellForm, s: int) -> np.ndarray:
    """strategies[r, (j, l)]: label l's factor at the answer that a party's deterministic
    strategy r (an outcome index per setting) gives at setting j; at s = 1, row r is
    answer r. lhv_bound needs s > 1 only with two or more parties, where STRATEGY_LIMIT
    keeps it to at most 1000 rows."""
    outcome_factor = _outcome_factors(_LHV_CONVENTION[form])
    answers = np.array([outcome_factor[label] for label in _CELL_LABELS[form]]).T
    table = np.array(list(itertools.product(range(len(answers)), repeat=s)))
    strategies = answers[table].reshape(len(table), -1)
    strategies.setflags(write=False)
    return strategies


def _check_strategy_count(expr: BellExpression) -> None:
    """ValueError if enumeration would visit more than STRATEGY_LIMIT joint strategies,
    n_outcomes^(s n): a party's deterministic strategy answers each of its s settings
    with one outcome. Decided without forming a count beyond the limit, which has
    up to millions of digits; the message prints the count while Python can."""
    n_outcomes = len(_strategy_matrix(expr.form, 1))
    exponent = expr.settings_per_party * expr.n_parties
    # n_outcomes >= 2, so a count with exponent STRATEGY_LIMIT.bit_length() is already above
    if n_outcomes ** min(exponent, STRATEGY_LIMIT.bit_length()) <= STRATEGY_LIMIT:
        return
    if exponent < _PRINTED_DIGITS / math.log10(n_outcomes):  # an exact int-float comparison
        count = f"{n_outcomes**exponent}"
    else:
        count = f"{n_outcomes}^{exponent}"
    raise ValueError(f"enumeration would visit {count} strategies, limit is {STRATEGY_LIMIT}")


def _contract(cells: np.ndarray, matrices: Iterable[np.ndarray]) -> np.ndarray:
    """C contracted party by party: each (cells x basis) matrix in turn maps the
    leading party's cell axis to its basis, which moves to the back. After m matrices
    the axes are the other parties' cells, then the m bases, flattened to two with the
    last basis alone on the second (C itself when m = 0)."""
    x = cells
    for m in matrices:
        x = x.reshape(len(m), -1).T @ m
    return x


def lhv_bound(expr: BellExpression) -> float:
    """Exact maximum over all deterministic local strategies, by best response.

    Correlation form assigns +/-1 per setting and party; probability form
    assigns one of {+, -, no-click}. The maximum over this finite set is
    the classical bound of the local polytope. The value is multilinear in
    the parties' strategies: a strategy gives each cell (setting j, label l)
    of the expression's tensor C (``BellExpression.cells``) the factor of l
    at the strategy's answer to j. ``_contract`` maps the first n-1 parties'
    cells to their strategies, which enumerates their joint strategies; the
    value is then a sum over the last party's settings, each with its own
    outcome, so the last party takes its best outcome per setting in closed
    form. Above STRATEGY_LIMIT it raises ValueError before C is read.
    """
    _check_strategy_count(expr)
    s, answers = expr.settings_per_party, _strategy_matrix(expr.form, 1)
    # lazy: a lone party builds no strategy matrix, which has 3^12 rows at s = 12
    x = _contract(expr.cells, (_strategy_matrix(expr.form, s).T for _ in range(expr.n_parties - 1)))
    # acc[j, o, r]: the value at the last party's setting j when it answers o
    # there and the other parties play joint strategy r.
    acc = answers @ x.reshape(s, answers.shape[1], -1)
    return float(acc.max(axis=1).sum(axis=0).max())


def _coefficient_tensor(
    expr: BellExpression, etas: Sequence[float | None], convention: Convention
) -> np.ndarray:
    """W[q_1, ..., q_n]: the expression as a sum of products of per-party units,
    q = 0 the identity and q = j + 1 the Pauli vector n_j . sigma of setting j.
    A dressed operator a Pi+ + b I, (a, b) from the detector model at the
    party's eta, is (b + a/2) I + (a/2) n_j . sigma, so each party's cells
    (j, l) of the expression's tensor C (``BellExpression.cells``, built once
    per expression) map to its units by the dressing matrix D[(j, l), q], which
    ``_contract`` applies. W[0, ..., 0] is the value on white noise.

    A party whose eta is None is free, and W[q_1, ..., q_n, d] is then the eta^d
    coefficient of W in the free parties' shared eta. Every dressing is affine in eta,
    D = D0 + eta D1 (``detmodel._DRESSING``), so a free party's cells map to the
    stacked (D0 | D1): the D1 half raises the degree of what it multiplies by one, and
    the degree axis, last, grows by one per free party, to pins.count(None) + 1."""
    n, s = expr.n_parties, expr.settings_per_party
    labels = np.array(_CELL_LABELS[expr.form])[:, None]

    def dressing(values: Sequence[float]) -> np.ndarray:
        """The (s L, s + 1) dressing matrix at each efficiency in ``values``."""
        # Correlation terms need the folded row, which only FOLD has (ConventionError otherwise).
        a, b = _coefficients(convention, labels, values)
        a, b = a.T[:, None, :, None], b.T[:, None, :, None]  # (values, 1, labels, 1)
        units = np.eye(s + 1)  # row 0 the identity, row j + 1 setting j's Pauli vector
        # dressing[i, j, l, q]: cell (j, l) on unit q at efficiency i
        dressed = (b + 0.5 * a) * units[0] + 0.5 * a * units[1:, None]
        return dressed.reshape(len(values), -1, s + 1)

    matrices = dressing([0.0 if eta is None else eta for eta in etas])
    if None not in etas:
        return _contract(expr.cells, matrices).reshape((s + 1,) * n)
    one, zero = dressing([1.0, 0.0])  # D1 = D(1) - D(0), exactly: the rows are small halves
    matrices = [m if eta is not None else np.hstack([m, one - zero])
                for m, eta in zip(matrices, etas)]
    x, degrees = expr.cells, 1
    for matrix in matrices:
        halves = len(matrix[0]) // (s + 1)  # 2 for a free party's (D0 | D1)
        y = _contract(x, [matrix]).reshape(-1, degrees, halves, s + 1).transpose(0, 3, 1, 2)
        x = y[..., 0]  # (rest, q, degree): the degree axis stays last
        if halves == 2:  # the D1 half raises the degree by one
            x = np.zeros(y.shape[:2] + (degrees + 1,))
            x[..., :-1] = y[..., 0]
            x[..., 1:] += y[..., 1]
            degrees += 1
    return x.reshape((s + 1,) * n + (degrees,))


class _Evaluator:
    """Vectorized quantum-value kernel for a fixed expression and state.

    Works in the real Pauli basis: the state is its tensor T (see
    ``DensityMatrix.pauli_tensor``), the expression its coefficient tensor W, and T
    is contracted with one party's units at a time, then with W. Units
    (S, n, s + 1, 4), made from angles by ``_units``, carry a leading start axis:
    each party's identity (1, 0, 0, 0), then each setting's Pauli vector (0, n),
    n its unit Bloch vector. Every result keeps the start axis first. The
    settings optimizer also runs see-saw sweeps on the units in place
    (``sweep``) and reads the exact derivatives along great circles
    (``derivatives``). An efficiency of None frees its party: W then carries the
    eta-degree axis (``_coefficient_tensor``), and ``value`` gives each start's
    coefficients of the value as a polynomial in the free parties' eta, which is
    all such an evaluator is for.
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
        etas = [None if e is None else validate_efficiency(e) for e in etas]
        if len(etas) != n:
            raise ValueError(f"expected {n} efficiencies, got {(len(etas),)}")
        if rho.n_qubits != n:
            raise ValueError(f"a state of {rho.n_qubits} qubits does not match {n} parties")
        self.tensor = rho.pauli_tensor
        self.coefficients = _coefficient_tensor(expr, etas, convention)
        self.n_parties, self.settings_per_party = n, expr.settings_per_party

    def _partial(self, units: np.ndarray, open_parties: tuple[int, ...] = ()) -> np.ndarray:
        """T contracted with every party's units but ``open_parties``', then with W
        over the contracted unit axes: (S, mu_i, ..., q_i, ...) over the open
        parties i, the value's derivative in Pauli component mu_i of unit q_i,
        with W's eta-degree axis last if it has one.
        The starts run in blocks whose arrays hold about _BLOCK_FLOATS floats."""
        n, width = self.n_parties, units.shape[2]
        degree = [2 * n + 1] * (self.coefficients.ndim - n)  # W's eta-degree axis, if any
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
            w_axes = list(range(1, n + 1)) + degree
            parts.append(np.einsum(x, axes, self.coefficients, w_axes, kept + degree))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def value(self, units: np.ndarray) -> np.ndarray:
        """The expression's value at each start, shape (S,); with free parties, its
        coefficients in their eta, lowest degree first, shape (S, free parties + 1)."""
        return self._partial(units)

    def sweep(self, units: np.ndarray) -> np.ndarray:
        """One see-saw sweep on ``units`` in place, returning the value after it, (S,).
        With the other parties fixed, the value is the identity corner of party i's
        one-party partial plus sum_j c_j . n_ij over its Bloch fields c_j (the
        setting units' block), so each party in turn takes n_ij = c_j / |c_j|
        and the value after the last one is that corner plus sum_j |c_j|. A
        setting no term reaches (c_j = 0) keeps its unit."""
        for i in range(self.n_parties):
            part = self._partial(units, (i,))
            c = part[:, 1:, 1:].transpose(0, 2, 1)  # (S, s, 3)
            norm = np.sqrt(np.einsum("sjx,sjx->sj", c, c))
            np.divide(c, norm[..., None], out=units[:, i, 1:, 1:], where=norm[..., None] > 0.0)
        return part[:, 0, 0] + norm.sum(axis=1)

    def derivatives(self, units: np.ndarray, tangents: np.ndarray) -> tuple[np.ndarray, ...]:
        """Exact gradient (S, D) and Hessian (S, D, D) of the value in tangent
        coordinates: ``tangents`` (S, n, s, 3, A) holds A orthonormal directions
        e_a tangent to each setting's Bloch vector n, and coordinates t (ordered
        as party, setting, a; D = n s A) move n along its great circle to
        n cos|xi| + xi sin|xi| / |xi|, xi = sum_a t_a e_a.

        The value is multilinear in the Bloch vectors n_ij with no second
        derivative within one party (each product holds one unit per party).
        Each party's Bloch fields c_j = d value / d n_ij are the first pair
        partial that holds the party, contracted with the other party's units,
        and the gradient is c_j . e_a. Each cross-party block e_a . B e_b comes
        from the Bloch block B of one two-party partial per party pair. Along
        every great circle d2n/dt2 = -n, so a setting's own block is -(c_j . n) I.
        """
        n, s, width = self.n_parties, self.settings_per_party, tangents.shape[-1]
        c = np.empty(tangents.shape[:-1])  # (S, n, s, 3)
        if n == 1:  # no pairs: the party's own partial
            c[:, 0] = self._partial(units, (0,))[:, 1:, 1:].transpose(0, 2, 1)
        # hessian[:, i, j, a, k, l, b]: direction a of setting (i, j) against b of (k, l)
        hessian = np.zeros((len(units),) + (n, s, width) * 2)
        for i, k in itertools.combinations(range(n), 2):
            pair = self._partial(units, (i, k))
            if i == 0:  # party k's first pair, and for k = 1 party 0's
                c[:, k] = np.einsum("sxyjl,sjx->sly", pair[:, :, 1:, :, 1:], units[:, 0])
                if k == 1:
                    c[:, 0] = np.einsum("sxyjl,sly->sjx", pair[:, 1:, :, 1:], units[:, 1])
            bloch = pair[:, 1:, 1:, 1:, 1:]  # d2 value / d n_ijx d n_kly
            block = np.einsum("sjxa,sxyjl,slyb->sjalb", tangents[:, i], bloch, tangents[:, k])
            hessian[:, i, :, :, k] = block
            hessian[:, k, :, :, i] = block.transpose(0, 3, 4, 1, 2)
        party, setting = np.arange(n)[:, None], np.arange(s)
        within = np.einsum("sijx,sijx->ijs", c, units[:, :, 1:, 1:])
        hessian[:, party, setting, :, party, setting] = -within[..., None, None] * np.eye(width)
        gradient = np.einsum("sijx,sijxa->sija", c, tangents)
        dim = math.prod(gradient.shape[1:])  # from the shape: a batch may have no starts
        return gradient.reshape(-1, dim), hessian.reshape(-1, dim, dim)


def _units(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """u (S, parties, s + 1, 4): each party's identity (1, 0, 0, 0), then each setting's
    Pauli vector (0, n), n = (sin t cos p, sin t sin p, cos t)."""
    units = np.zeros(thetas.shape[:2] + (thetas.shape[2] + 1, 4))
    units[:, :, 0, 0] = 1.0
    bloch = units[:, :, 1:, 1:]
    sin_t = np.sin(thetas, out=bloch[..., 0])
    np.multiply(sin_t, np.sin(phis), out=bloch[..., 1])
    sin_t *= np.cos(phis)
    np.cos(thetas, out=bloch[..., 2])
    return units


def _tangents(bloch: np.ndarray) -> np.ndarray:
    """Orthonormal directions (..., 3, 2) tangent to the unit Bloch vectors n (..., 3),
    the branch-free frame of Duff et al., J. Comput. Graph. Tech. 6(1), 1 (2017). At
    n = (x, 0, z) they are +-dn/dtheta = +-(z, 0, -x) and +-(0, 1, 0), exactly."""
    x, y, z = bloch[..., 0], bloch[..., 1], bloch[..., 2]
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    e = np.empty(bloch.shape + (2,))  # e[..., :, 0] and e[..., :, 1], the two directions
    e[..., 0, 0], e[..., 1, 0], e[..., 2, 0] = 1.0 + sign * x * x * a, sign * b, -sign * x
    e[..., 0, 1], e[..., 1, 1], e[..., 2, 1] = b, sign + y * y * a, -y
    return e


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
    units = _units(thetas[None], phis[None])
    return float(_Evaluator(expr, rho, etas, convention).value(units)[0])


def angles_to_settings(
    thetas: np.ndarray, phis: np.ndarray | float = 0.0
) -> list[list[MeasurementSetting]]:
    """Pack per-party, per-setting angles into MeasurementSetting lists."""
    thetas = np.asarray(thetas, dtype=float)
    phis = np.broadcast_to(phis, thetas.shape)  # float(p) below rejects a None
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
    """Knobs for the multistart settings optimizer; ``include_phi`` draws the random
    starts' phi too, where they would otherwise start in the x-z plane."""

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
    """Maximize the quantum value over measurement settings.

    Every start (the CHSH seed, any warm starts and ``restarts`` random
    starts) becomes units once, and the search runs on each setting's unit
    Bloch vector, over the whole sphere. See-saw sweeps come first (Liang &
    Doherty, PRA 75, 042103 (2007)): the value is affine in each projector, so
    each party in turn takes the exact best projector for every setting given
    the others, the unit vector c/|c| of the setting's Bloch field c
    (``_Evaluator.sweep``). Where the optimum is ill-conditioned (Eberhard's
    CH optimum below eta = 1) the sweeps crawl, so a damped Newton polish
    finishes every start on the product of spheres (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds (2008), ch. 6): the exact
    gradient and Hessian in each setting's tangent plane, a step along great
    circles, then one sweep back onto the crest of a curved ridge. A start's
    polish stops once its gradient or its step is negligible, or once the
    quadratic model predicts a rise g . s - s . C s / 2 within rounding of the
    value on curvature C (minus the Hessian) positive semidefinite to rounding
    and |g|, the Newton decrement test (Boyd & Vandenberghe, Convex
    Optimization, section 9.5.1). All starts advance together along a leading
    start axis, each with its own stopping rules, damping and step count, so a
    start ends exactly where it would alone. The returned value is the first
    maximum over every start's own evaluation and end point, in start order,
    so it never falls below the value at the seed. Angles are read once, from
    the winning units; a setting whose unit never moved keeps its start
    angles; a Bloch vector with y = 0 reads back as a signed theta at phi = 0.
    On a real state, fields, gradients and x-z/y Hessian blocks are exactly 0
    in y on the x-z plane, so a search from x-z starts stays there.
    """
    angles, start_units, start_vals, units, v = _search(expr, rho, etas, convention, options)
    # Start 0, end 0, start 1, end 1, ...: the order a start-by-start run meets them.
    values = np.stack([start_vals, v], axis=1).ravel()
    best = int(np.argmax(values))
    start, bloch = start_units[best // 2], (start_units, units)[best % 2][best // 2]
    thetas, phis = _read_angles(angles[best // 2], start[:, 1:, 1:], bloch[:, 1:, 1:])
    return angles_to_settings(thetas, phis), float(values[best])


def _end_points(
    expr: BellExpression,
    rho: DensityMatrix,
    etas: Sequence[float],
    convention: Convention,
    options: OptimizeOptions,
) -> tuple[np.ndarray, float]:
    """Every start's end point of ``optimize_settings``' search, as angles (S, 2, n, s)
    read back as it reads its winner's, and the value it returns. The threshold engine
    roots each end point: at eta = 1 Eberhard's CH optimum is a continuous family whose
    points tie to 1e-12 while their thresholds differ by more than 0.1."""
    angles, start_units, start_vals, units, v = _search(expr, rho, etas, convention, options)
    ends = _read_angles(angles, start_units[..., 1:, 1:], units[..., 1:, 1:])
    return ends, float(max(start_vals.max(), v.max()))


def _read_angles(angles: np.ndarray, start: np.ndarray, bloch: np.ndarray) -> np.ndarray:
    """Angles (..., 2, n, s) of the unit Bloch vectors ``bloch`` (..., n, s, 3): a vector
    with y == 0 as a signed theta at phi = 0, any other on the sphere; a vector equal to
    its ``start`` keeps its start ``angles``."""
    angles = angles.copy()
    moved = np.any(bloch != start, axis=-1)
    x, y, z = np.moveaxis(bloch, -1, 0)
    np.copyto(angles[..., 0, :, :], np.arctan2(np.where(y == 0.0, x, np.hypot(x, y)), z),
              where=moved)
    np.copyto(angles[..., 1, :, :], np.where(y == 0.0, 0.0, np.arctan2(y, x)), where=moved)
    return angles


def _search(
    expr: BellExpression,
    rho: DensityMatrix,
    etas: Sequence[float],
    convention: Convention,
    options: OptimizeOptions | None,
) -> tuple[np.ndarray, ...]:
    """``optimize_settings``' search over every start at once: the start angles
    (S, 2, n, s), the start units and values, and each start's end units and value."""
    opts = options or OptimizeOptions()
    n, s = expr.n_parties, expr.settings_per_party
    evaluator = _Evaluator(expr, rho, etas, convention)
    seed = chsh_seed_angles(n, s)
    given = [(seed, np.zeros_like(seed)), *map(settings_to_angles, opts.warm_starts)]
    # The seed, the warm starts, then the random starts: thetas, and phis only if drawn.
    rng = np.random.default_rng(opts.seed)
    angles = np.zeros((len(given) + opts.restarts, 2, n, s))
    angles[: len(given)] = given
    width = 2 if opts.include_phi else 1
    angles[len(given) :, :width] = rng.uniform(0.0, 2.0 * math.pi, (opts.restarts, width, n, s))
    start_units = _units(angles[:, 0], angles[:, 1])
    start_vals = evaluator.value(start_units)

    # See-saw: a start freezes once a sweep gains at most _SWEEP_GAIN.
    units, v = start_units.copy(), start_vals.copy()
    active = np.ones(len(units), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        rows = np.flatnonzero(active)
        moved = units[rows]
        swept = evaluator.sweep(moved)
        active[rows] = swept - v[rows] > _SWEEP_GAIN
        units[rows], v[rows] = moved, swept
        if not active.any():
            break

    # Levenberg-Marquardt polish on the exact gradient and Hessian, each step
    # accepted only when the value rises; a start's tangent frame and
    # derivatives are rebuilt only after it accepted a step.
    dim = n * s * 2
    damping = np.full(len(units), _INITIAL_DAMPING)
    newton_steps = np.zeros(len(units), dtype=int)
    gradient, curvature = np.zeros((len(units), dim)), np.zeros((len(units), dim, dim))
    tangents = np.zeros((len(units), n, s, 3, 2))
    active, fresh = np.ones((2, len(units)), dtype=bool)
    while active.any():
        rows = np.flatnonzero(fresh)
        if rows.size:
            tangents[rows] = _tangents(units[rows, :, 1:, 1:])
            g, hessian = evaluator.derivatives(units[rows], tangents[rows])
            gradient[rows], curvature[rows] = g, -hessian
            newton_steps[rows] += 1
            active[rows] = np.abs(g).max(axis=1) > _GRADIENT_TOL
        rows = np.flatnonzero(active)
        if not rows.size:  # every gradient is negligible
            break
        g, c = gradient[rows], curvature[rows]
        step = np.linalg.solve(c + damping[rows, None, None] * np.eye(dim), g[..., None])[..., 0]
        # The Newton decrement test: a start is done when its model predicts a
        # rise g . s - s . C s / 2 within rounding and no direction curves upward.
        # Along a symmetry of rho (Rz(p) x Rz(-p) on the GHZ pair) the value is flat,
        # and the curvature there is g against the orbit's acceleration, about -0.7|g|.
        rise = np.einsum("sd,sd->s", g, step) - 0.5 * np.einsum("sd,sde,se->s", step, c, step)
        done = np.abs(rise) <= _RISE_TOL * np.maximum(1.0, np.abs(v[rows]))
        if done.any():
            eig = np.linalg.eigvalsh(c[done])
            slack = np.linalg.norm(g[done], axis=1) + _CONCAVE_TOL * np.maximum(1.0, eig[:, -1])
            done[done] = eig[:, 0] >= -slack
        moving = (np.abs(step).max(axis=1) > _STEP_TOL) & ~done
        if not moving.any():  # every step is negligible or promises no rise
            break
        active[rows[~moving]] = False
        rows, moved = rows[moving], units[rows[moving]]
        # Each unit n turns along its great circle to n cos|t| + xi sin|t| / |t|, xi = t . e.
        t = step[moving].reshape(-1, n, s, 2)
        turn = np.sqrt(np.einsum("sija,sija->sij", t, t))[..., None]
        t *= np.divide(np.sin(turn), turn, out=np.zeros_like(turn), where=turn > 0.0)
        xi = np.einsum("sija,sijxa->sijx", t, tangents[rows])
        moved[:, :, 1:, 1:] = moved[:, :, 1:, 1:] * np.cos(turn) + xi
        trial = evaluator.sweep(moved)  # back onto the crest of a curved ridge
        rises = trial > v[rows]
        up, down = rows[rises], rows[~rises]
        units[up], v[up] = moved[rises], trial[rises]
        damping[up] *= 0.1
        damping[down] *= 10.0
        active[up] = newton_steps[up] < _MAX_NEWTON
        fresh[:] = False
        fresh[up] = active[up]

    return angles, start_units, start_vals, units, v
