"""Factories for the named multiqubit states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detmodel import json_float, json_int
from .qstate import QUBIT_CAP, PureState, QubitCapacityError

# Kinds whose qubit count is fixed; used to fill defaults when parsing configs.
_FIXED_N = {"Cluster4": 4, "BellPhiPlus": 2, "BellPsiPlus": 2, "PartialPair": 2}


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a state, as it appears in config files.

    ``excitations`` is meaningful for Dicke only; ``alpha`` (radians) for
    PartialPair only.
    """

    kind: str
    n: int
    excitations: int | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in STATE_KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}; expected one of {STATE_KINDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind in _FIXED_N and self.n != _FIXED_N[self.kind]:
            raise ValueError(f"{self.kind} requires n = {_FIXED_N[self.kind]}, got {self.n}")
        if self.kind in ("GHZ", "W") and self.n < 2:
            raise ValueError(f"{self.kind} requires n >= 2")
        if self.kind == "Dicke":
            if self.excitations is None:
                raise ValueError("Dicke requires an excitation count")
            if not 0 <= self.excitations <= self.n:
                raise ValueError(f"Dicke excitations must lie in [0, {self.n}]")
        if self.kind == "PartialPair" and self.alpha is None:
            raise ValueError("PartialPair requires alpha")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StateSpec":
        kind = doc["kind"]
        excitations = doc.get("excitations")
        alpha = doc.get("alpha")
        return cls(
            kind=kind,
            n=json_int(doc.get("n", _FIXED_N.get(kind, 0)), "n"),
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


def w_state(n: int) -> PureState:
    """The W state, an alias for one excitation shared over n qubits."""
    return dicke(n, 1)


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


def bell_phi_plus() -> PureState:
    return PureState(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def bell_psi_plus() -> PureState:
    return PureState(2, np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0))


def partial_pair(alpha: float) -> PureState:
    """cos(alpha)|00> + sin(alpha)|11>, the partially entangled pair."""
    return PureState(2, np.array([math.cos(alpha), 0.0, 0.0, math.sin(alpha)]))


# Each kind's factory, on a spec that StateSpec has checked; STATE_KINDS lists its keys.
_FACTORIES = {
    "GHZ": lambda spec: ghz(spec.n),
    "Dicke": lambda spec: dicke(spec.n, spec.excitations),
    "W": lambda spec: w_state(spec.n),
    "Cluster4": lambda spec: cluster4(),
    "BellPhiPlus": lambda spec: bell_phi_plus(),
    "BellPsiPlus": lambda spec: bell_psi_plus(),
    "PartialPair": lambda spec: partial_pair(spec.alpha),
}
STATE_KINDS = tuple(_FACTORIES)


def make_state(spec: StateSpec) -> PureState:
    """Build the state described by ``spec``, at most QUBIT_CAP qubits."""
    if spec.n > QUBIT_CAP:
        raise QubitCapacityError(f"state needs {spec.n} qubits, cap is {QUBIT_CAP}")
    return _FACTORIES[spec.kind](spec)
