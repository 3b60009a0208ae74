"""Named states, pure states, density matrices and their real Pauli-basis tensor.

Index convention: qubit 0 is the most significant bit of the basis index,
so for three qubits ``|q0 q1 q2>`` lives at index ``4*q0 + 2*q1 + q2``.
Kronecker products therefore compose left to right: ``np.kron(a, b)`` puts
a's qubits first.

``StateSpec`` describes a named state as config files do, and ``make_state``
builds it within ``QUBIT_CAP``. The library projects on the amplitude vector
(``protocol``) and evaluates Bell values on the cached Pauli tensor (``bell``).
All values are immutable after construction, so independent evaluations can
run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .detmodel import MeasurementSetting, X_PLUS, Z_ONE, Z_ZERO, json_float, json_int, json_object

# Every command's peak working set stays under this; a scenario estimated above
# it is a config error, rejected before any state is built.
MEMORY_BUDGET_BYTES = 2**30
# Peak bytes per amplitude while a state is built and projected, with margin:
# fresh processes measured 28-30 B for GHZ_20..23 and 33 B for Dicke(23, 11).
_PEAK_BYTES_PER_AMPLITUDE = 80
# The most qubits whose amplitude vector is built within the budget (23).
QUBIT_CAP = (MEMORY_BUDGET_BYTES // _PEAK_BYTES_PER_AMPLITUDE).bit_length() - 1

# Projection weights below this count as exact orthogonality, not round-off.
ZERO_WEIGHT_THRESHOLD = 1e-14

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10

# [(a, b), mu] = sigma_mu[b, a] for mu = I, X, Y, Z: a (row a, column b) pair times
# this table is Tr(rho sigma_mu) = sum_ab rho[a, b] sigma_mu[b, a] on one qubit.
_PAULI_TRACE = (
    np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    .transpose(2, 1, 0)
    .reshape(4, 4)
)


class QubitCapacityError(ValueError):
    """A state above ``QUBIT_CAP``, raised with its qubit count; str() is the one message."""

    def __str__(self) -> str:
        return f"state uses {self.args[0]} qubits, above the cap {QUBIT_CAP}"


class ZeroProjectionError(RuntimeError):
    """A projection required to succeed has (numerically) zero weight."""


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits.

    Amplitudes are renormalized on construction, so the state always
    satisfies sum |amplitude|^2 = 1 to within 1e-12; their norm must be
    finite and nonzero.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)  # the state's own copy
        if amp.size != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amp.size}, expected {2**self.n_qubits}"
            )
        with np.errstate(over="ignore"):  # an overflow reads inf, judged below
            norm = float(np.linalg.norm(amp))
        if not math.isfinite(norm):  # a non-finite amplitude, or a norm past the float range
            raise ValueError("amplitude vector norm is not finite")
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero amplitude vector")
        if abs(norm - 1.0) > 1e-12:
            amp /= norm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def density(self) -> "DensityMatrix":
        """Return the rank-1 density matrix |psi><psi|."""
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-one operator on ``n_qubits`` qubits.

    Construction rejects a non-finite entry, then checks Hermiticity (1e-12
    elementwise), a finite positive trace and positivity (lowest eigenvalue
    >= -1e-10), and renormalizes the trace to one.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = 2**self.n_qubits
        mat = np.array(self.matrix, dtype=complex)  # the state's own copy
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        with np.errstate(over="ignore"):  # a result past the float range reads inf, judged below
            asymmetry = np.abs(mat - mat.conj().T).max()  # elementwise |rho - rho^dagger|
            tr = complex(np.trace(mat))
        if asymmetry > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if not math.isfinite(tr.real):
            raise ValueError("matrix trace is not finite")
        if tr.real <= 0.0:
            raise ValueError("matrix trace must be positive")
        if abs(tr - 1.0) > _TRACE_TOL:
            mat /= tr.real
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -_PSD_TOL:
            raise ValueError(f"matrix is not PSD: lowest eigenvalue {low:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def pauli_tensor(self) -> np.ndarray:
        """T[mu_1, ..., mu_n] = Tr(rho sigma_mu_1 (x) ... (x) sigma_mu_n), computed once:
        the real coordinates of rho = 2^-n sum_mu T_mu sigma_mu (Horodecki's T for n = 2)."""
        t = self.matrix
        for left in range(self.n_qubits, 0, -1):  # trace the leading qubit against each sigma
            a_x_b_rest = t.reshape(2, 2 ** (left - 1), 2, -1)  # rest: other columns, then mu so far
            t = a_x_b_rest.transpose(1, 3, 0, 2).reshape(-1, 4) @ _PAULI_TRACE  # mu goes last
        return np.ascontiguousarray(t.real.reshape((4,) * self.n_qubits))


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a state, as it appears in config files.

    ``excitations`` is given for Dicke only and ``alpha`` (radians) for
    PartialPair only; every other kind rejects them.
    """

    kind: str
    n: int
    excitations: int | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in STATE_KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}; expected one of {STATE_KINDS}")
        row = _KINDS[self.kind]
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if row.n is not None and self.n != row.n:
            raise ValueError(f"{self.kind} requires n = {row.n}, got {self.n}")
        if self.n < row.least_n:
            raise ValueError(f"{self.kind} requires n >= {row.least_n}")
        for name, owner in (("excitations", "Dicke"), ("alpha", "PartialPair")):
            if getattr(self, name) is not None and self.kind != owner:
                raise ValueError(f"{name} is for {owner} states only, not {self.kind}")
        if self.kind == "Dicke":
            if self.excitations is None:
                raise ValueError("Dicke requires an excitation count")
            if not 0 <= self.excitations <= self.n:
                raise ValueError(f"Dicke excitations must lie in [0, {self.n}]")
        if self.kind == "PartialPair" and self.alpha is None:
            raise ValueError("PartialPair requires alpha")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StateSpec":
        doc = json_object(doc, "state")
        kind = doc["kind"]
        # only a kind of fixed count may omit n; a kind that is no STATE_KINDS entry,
        # hashable or not, is named by __post_init__
        fixed_n = _KINDS[kind].n if kind in STATE_KINDS else 0
        excitations = doc.get("excitations")
        alpha = doc.get("alpha")
        return cls(
            kind=kind,
            n=json_int(doc["n"] if fixed_n is None else doc.get("n", fixed_n), "n"),
            excitations=None if excitations is None else json_int(excitations, "excitations"),
            alpha=None if alpha is None else json_float(alpha, "alpha"),
        )

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "n": self.n}
        if self.excitations is not None:
            doc["excitations"] = self.excitations
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        return doc

    def pair_projectors(self) -> tuple[MeasurementSetting, ...]:
        """The n - 2 projectors on qubits 0..n-3 that leave the last two in a Bell pair."""
        return tuple(_KINDS[self.kind].pair_projectors(self))


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amp)


def dicke(n: int, excitations: int) -> PureState:
    """Uniform superposition of all n-qubit basis states with the given weight."""
    if not 0 <= excitations <= n:
        raise ValueError(f"excitations must lie in [0, {n}]")
    # Hamming weight of every index, one byte each: the upper half of the
    # indices below 2^(b+1) has bit b set.
    weight = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        weight = np.concatenate([weight, weight + 1])
    amp = np.zeros(2**n, dtype=complex)
    amp[weight == excitations] = 1.0 / math.sqrt(math.comb(n, excitations))
    return PureState(n, amp)


def cluster4() -> PureState:
    """Four-qubit linear cluster state.

    Local-basis convention is pinned so that tracing out qubit 0 yields the
    even mixture of |0>(|00>+|11>)/sqrt(2) and |1>(|11>-|00>)/sqrt(2);
    explicitly (|0000> + |0011> - |1100> + |1111>)/2.
    """
    amp = np.zeros(16, dtype=complex)
    amp[0b0000] = 0.5
    amp[0b0011] = 0.5
    amp[0b1100] = -0.5
    amp[0b1111] = 0.5
    return PureState(4, amp)


def partial_pair(alpha: float) -> PureState:
    """cos(alpha)|00> + sin(alpha)|11>, the partially entangled pair."""
    return PureState(2, np.array([math.cos(alpha), 0.0, 0.0, math.sin(alpha)]))


def _dicke_pair_projectors(n: int, excitations: int) -> list[MeasurementSetting]:
    """|1> on excitations - 1 of the n - 2 qubits and |0> on the rest."""
    ones = min(max(excitations - 1, 0), n - 2)
    return [Z_ONE] * ones + [Z_ZERO] * (n - 2 - ones)


class _Kind(NamedTuple):
    """One state kind: its factory and its pair projectors (see
    StateSpec.pair_projectors), each on a spec that StateSpec has checked, its
    fixed qubit count (None when the config gives n) and its least count."""

    build: Callable[[StateSpec], PureState]
    pair_projectors: Callable[[StateSpec], list[MeasurementSetting]]
    n: int | None = None
    least_n: int = 1


# Every rule of a state kind, one row each; STATE_KINDS lists the keys. W is one
# excitation over n qubits, and the Bell pairs are the two-qubit GHZ and W states.
_KINDS = {
    "GHZ": _Kind(lambda spec: ghz(spec.n), lambda spec: [X_PLUS] * (spec.n - 2), least_n=2),
    "Dicke": _Kind(
        lambda spec: dicke(spec.n, spec.excitations),
        lambda spec: _dicke_pair_projectors(spec.n, spec.excitations),
    ),
    "W": _Kind(
        lambda spec: dicke(spec.n, 1), lambda spec: _dicke_pair_projectors(spec.n, 1), least_n=2
    ),
    "Cluster4": _Kind(lambda spec: cluster4(), lambda spec: [X_PLUS, Z_ZERO], n=4),
    "BellPhiPlus": _Kind(lambda spec: ghz(2), lambda spec: [], n=2),
    "BellPsiPlus": _Kind(lambda spec: dicke(2, 1), lambda spec: [], n=2),
    "PartialPair": _Kind(lambda spec: partial_pair(spec.alpha), lambda spec: [], n=2),
}
STATE_KINDS = tuple(_KINDS)


def make_state(spec: StateSpec) -> PureState:
    """Build the state described by ``spec``, at most QUBIT_CAP qubits."""
    if spec.n > QUBIT_CAP:
        raise QubitCapacityError(spec.n)
    return _KINDS[spec.kind].build(spec)
