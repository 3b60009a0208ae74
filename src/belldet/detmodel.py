"""Detection model: dress measurement effects with detector efficiency.

Two bookkeeping conventions coexist and every Bell evaluation declares
which one it uses:

* FOLD: a missed detection counts as a "-" click, so the dressed pair is
  (eta Pi+, I - eta Pi+). Used with correlation-type inequalities.
* TRINARY: a missed detection is a third outcome with probability 1 - eta,
  independent of the state. Used with probability-type (CH/Eberhard)
  inequalities, where only registered clicks enter the expression.

Both are rows of one coefficient table, ``_DRESSING``. A Bell expression is
one tensor of weights over each party's cells (setting, outcome label), and
the detector model only maps those cells: to the party's identity and Pauli
units at its efficiency for the quantum-value kernel (``_coefficients``), and
to each deterministic answer for the LHV bounds (``_outcome_factors``).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Convention(str, Enum):
    FOLD = "fold"
    TRINARY = "trinary"


class ConventionError(ValueError):
    """Bell-expression form and inefficiency convention do not match."""


@dataclass(frozen=True)
class MeasurementSetting:
    """Qubit projective setting on the Bloch sphere.

    Defines Pi+ = |m><m| with |m> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>
    (``ket``), and Pi- = I - Pi+.
    """

    theta: float
    phi: float = 0.0

    def ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta / 2.0), cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0)],
            dtype=complex,
        )

    def to_json_dict(self) -> dict:
        return {"theta": self.theta, "phi": self.phi}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeasurementSetting":
        """``{"theta": ..., "phi": ...}``; a missing phi is 0."""
        return cls(json_float(doc["theta"], "theta"), json_float(doc.get("phi", 0.0), "phi"))


# Recurring projector choices: |+><+|, |0><0| and |1><1|.
X_PLUS = MeasurementSetting(theta=math.pi / 2.0)
Z_ZERO = MeasurementSetting(theta=0.0)
Z_ONE = MeasurementSetting(theta=math.pi)


def json_int(value, name: str, minimum: int | None = None) -> int:
    """An integer field of a config: a JSON integer or an integral float.

    Bools, fractions and strings raise instead of being truncated, as does
    a value below ``minimum``.
    """
    number = int(value) if type(value) is float and value.is_integer() else value
    # type(), not isinstance(): bool subclasses int.
    if type(number) is int and (minimum is None or number >= minimum):
        return number
    at_least = "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


def json_float(value, name: str) -> float:
    """A real-valued field of a config: a finite JSON number; bools, strings,
    NaN and infinities raise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):  # bool subclasses int
        if abs(value) <= sys.float_info.max:  # fails for NaN, inf and ints beyond float range
            return float(value)
        raise ValueError(f"{name} must be finite, got {value!r}")
    raise ValueError(f"{name} must be a number, got {value!r}")


def json_object(value, name: str) -> dict:
    """A section of a config that is indexed by field name: a JSON object.
    An array is named, not printed, since it may hold a whole document."""
    if isinstance(value, dict):
        return value
    got = "an array" if isinstance(value, list) else repr(value)
    raise ValueError(f"{name} must be a JSON object, got {got}")


def json_array(value, name: str) -> list | tuple:
    """A section of a config that is iterated: a JSON array (or a tuple, from
    library callers). An object is named, not printed, as in ``json_object``."""
    if isinstance(value, (list, tuple)):
        return value
    got = "an object" if isinstance(value, dict) else repr(value)
    raise ValueError(f"{name} must be a JSON array, got {got}")


def validate_efficiency(eta: float) -> float:
    """Check eta lies in [0, 1] and return it as a float."""
    value = float(eta)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"efficiency {value} outside [0, 1]")
    return value


# One detector model: outcome label l of a detector with efficiency eta is
# alpha eta Pi+ + (beta + gamma eta) I, with (alpha, beta, gamma) from the row
# of the convention in use. "*" marginalizes a party; "±" is the folded
# observable of correlation terms, which only FOLD defines.
_DRESSING = {
    Convention.FOLD: {
        "+": (1, 0, 0), "-": (-1, 1, 0), "0": (0, 0, 0), "*": (0, 1, 0), "±": (2, -1, 0)
    },
    Convention.TRINARY: {
        "+": (1, 0, 0), "-": (-1, 0, 1), "0": (0, 1, -1), "*": (0, 1, 0)
    },
}

# Deterministic outcomes as points (eta, Pi+): "+" (1, 1), "-" (1, 0), no click
# (0, 0). FOLD books a missed click as "-", so it has only the first two.
_DETERMINISTIC = {Convention.FOLD: ((1, 1), (1, 0)), Convention.TRINARY: ((1, 1), (1, 0), (0, 0))}


def _coefficients(convention: Convention, labels, etas) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) = (alpha eta, beta + gamma eta) per label, so that the dressed
    operator is a Pi+ + b I; ``labels`` broadcasts against ``etas``."""
    labels, table = np.asarray(labels), _DRESSING[convention]
    try:
        rows = np.array([table[label] for label in labels.flat], dtype=float)
    except KeyError as exc:
        raise ConventionError(f"no {convention.value} row for outcome {exc.args[0]!r}") from None
    alpha, beta, gamma = rows.reshape(-1, 3).T.reshape((3,) + labels.shape)
    return alpha * etas, beta + gamma * etas


def _outcome_factors(convention: Convention) -> dict[str, np.ndarray]:
    """Each label's dressed value at every deterministic outcome of ``convention``."""
    labels = list(_DRESSING[convention])
    etas, clicks = np.array(_DETERMINISTIC[convention], dtype=float).T
    a, b = _coefficients(convention, np.array(labels)[:, None], etas)
    return dict(zip(labels, a * clicks + b))
