"""Dense state-vector and density-matrix algebra for few-qubit systems.

Index convention: qubit 0 is the most significant bit of the basis index,
so for three qubits ``|q0 q1 q2>`` lives at index ``4*q0 + 2*q1 + q2``.
Kronecker products therefore compose left to right: ``np.kron(a, b)`` puts
a's qubits first.

All values are immutable after construction and every operation is a pure
function, so independent evaluations can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MAX_QUBITS = 16

# Projection weights below this count as exact orthogonality, not round-off.
ZERO_WEIGHT_THRESHOLD = 1e-14

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_EFFECT_EIG_TOL = 1e-10
_IMAG_TOL = 1e-10


class QubitCapacityError(ValueError):
    """An operation would produce more qubits than the configured cap."""


class ZeroProjectionError(RuntimeError):
    """A projection required to succeed has (numerically) zero weight."""


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits.

    Amplitudes are renormalized on construction, so the state always
    satisfies sum |amplitude|^2 = 1 to within 1e-12.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amp.size}, expected {2**self.n_qubits}"
            )
        norm = float(np.linalg.norm(amp))
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero amplitude vector")
        if abs(norm - 1.0) > 1e-12:
            amp = amp / norm
        object.__setattr__(self, "amplitudes", _frozen(amp))

    def density(self) -> "DensityMatrix":
        """Return the rank-1 density matrix |psi><psi|."""
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-one operator on ``n_qubits`` qubits.

    Construction checks Hermiticity (1e-12 elementwise) and positivity
    (lowest eigenvalue >= -1e-10) and renormalizes the trace to one.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = 2**self.n_qubits
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
        if not np.allclose(mat, mat.conj().T, atol=_HERMITICITY_TOL, rtol=0.0):
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
        if tr.real <= 0.0:
            raise ValueError("matrix trace must be positive")
        if abs(tr - 1.0) > _TRACE_TOL:
            mat = mat / tr.real
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -_PSD_TOL:
            raise ValueError(f"matrix is not PSD: lowest eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", _frozen(mat))

    @cached_property
    def pauli_tensor(self) -> np.ndarray:
        """``pauli_tensor(self.matrix)``, computed once per state."""
        return pauli_tensor(self.matrix)


# sigma_mu for mu = I, X, Y, Z.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pauli_tensor(matrix: np.ndarray) -> np.ndarray:
    """T[mu_1, ..., mu_n] = Tr(rho sigma_mu_1 (x) ... (x) sigma_mu_n), the real
    coordinates of rho = 2^-n sum_mu T_mu sigma_mu (Horodecki's T for n = 2)."""
    n = len(matrix).bit_length() - 1
    t = matrix.reshape([2] * (2 * n))
    for left in range(n, 0, -1):  # trace the leading qubit against each sigma; mu goes last
        t = np.tensordot(t, _PAULI, axes=([0, left], [2, 1]))
    return np.ascontiguousarray(t.real)


@dataclass(frozen=True)
class Effect:
    """POVM element acting on an ordered subset of qubits.

    ``operator`` is a 2^m x 2^m Hermitian matrix with eigenvalues in
    [0, 1] (tolerance 1e-10); axis order follows ``targets``.
    """

    operator: np.ndarray
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        targets = tuple(int(t) for t in self.targets)
        if len(targets) == 0:
            raise ValueError("an effect must target at least one qubit")
        if len(set(targets)) != len(targets):
            raise ValueError("target qubit indices must be distinct")
        dim = 2 ** len(targets)
        op = np.asarray(self.operator, dtype=complex)
        if op.shape != (dim, dim):
            raise ValueError(f"operator has shape {op.shape}, expected {(dim, dim)}")
        if not np.allclose(op, op.conj().T, atol=_HERMITICITY_TOL, rtol=0.0):
            raise ValueError("effect operator is not Hermitian within 1e-12")
        eig = np.linalg.eigvalsh(op)
        if eig[0] < -_EFFECT_EIG_TOL or eig[-1] > 1.0 + _EFFECT_EIG_TOL:
            raise ValueError(
                f"effect eigenvalues [{eig[0]:.3e}, {eig[-1]:.3e}] outside [0, 1]"
            )
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "operator", _frozen(op))

    @property
    def n_qubits(self) -> int:
        """Number of qubits the effect acts on."""
        return len(self.targets)


def basis_state(bits: str | Sequence[int]) -> PureState:
    """Computational basis state, e.g. ``basis_state("01")`` for |01>."""
    values = [int(b) for b in bits]
    if any(b not in (0, 1) for b in values):
        raise ValueError("bits must be 0 or 1")
    n = len(values)
    index = 0
    for b in values:
        index = (index << 1) | b
    amp = np.zeros(2**n, dtype=complex)
    amp[index] = 1.0
    return PureState(n, amp)


def embed_operator(
    op: np.ndarray, targets: Sequence[int], n_qubits: int
) -> np.ndarray:
    """Lift an operator on ``targets`` to the full 2^n x 2^n space.

    ``op`` axis order follows ``targets``; remaining qubits get identity.
    """
    targets = [int(t) for t in targets]
    m = len(targets)
    if len(set(targets)) != m:
        raise ValueError("target qubit indices must be distinct")
    if any(t < 0 or t >= n_qubits for t in targets):
        raise ValueError(f"target indices {targets} out of range for {n_qubits} qubits")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**m, 2**m):
        raise ValueError(f"operator shape {op.shape} does not match {m} target qubits")
    if m == n_qubits and targets == list(range(n_qubits)):
        return op
    rest = [q for q in range(n_qubits) if q not in targets]
    big = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # big's qubit order is targets + rest; permute axes back to natural order
    order = targets + rest
    perm = list(np.argsort(order))
    t = big.reshape([2] * (2 * n_qubits))
    t = t.transpose(perm + [n_qubits + p for p in perm])
    return t.reshape(2**n_qubits, 2**n_qubits)


def _trace_out_one(mat: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    dim_a = 2**qubit
    dim_b = 2 ** (n_qubits - qubit - 1)
    t = mat.reshape(dim_a, 2, dim_b, dim_a, 2, dim_b)
    return np.einsum("aibcid->abcd", t).reshape(dim_a * dim_b, dim_a * dim_b)


def partial_trace(rho: DensityMatrix, traced_qubits: Iterable[int]) -> DensityMatrix:
    """Trace out ``traced_qubits``; remaining qubits keep their relative order."""
    traced = sorted({int(q) for q in traced_qubits})
    if not traced:
        raise ValueError("traced_qubits must be nonempty")
    if any(q < 0 or q >= rho.n_qubits for q in traced):
        raise ValueError(f"traced indices {traced} out of range for {rho.n_qubits} qubits")
    if len(traced) >= rho.n_qubits:
        raise ValueError("cannot trace out every qubit; a scalar is not a state")
    mat = rho.matrix
    n = rho.n_qubits
    for q in reversed(traced):
        mat = _trace_out_one(mat, q, n)
        n -= 1
    return DensityMatrix(n, mat)


def project(rho: DensityMatrix, effect: Effect) -> tuple[float, DensityMatrix | None]:
    """Apply an effect as a projective update: weight and renormalized state.

    The weight is Tr(E rho E^dag); for a rank-1 qubit projector this equals
    Tr(rho Pi+). Weights below 1e-14 report (0.0, None) instead of raising,
    flagging the post state as absent.
    """
    full = embed_operator(effect.operator, effect.targets, rho.n_qubits)
    sandwiched = full @ rho.matrix @ full.conj().T
    weight = float(np.trace(sandwiched).real)
    if weight < ZERO_WEIGHT_THRESHOLD:
        return 0.0, None
    return weight, DensityMatrix(rho.n_qubits, sandwiched / weight)


def expectation(rho: DensityMatrix, observable: Effect | np.ndarray) -> float:
    """Tr(rho O) for a Hermitian observable, returned as a real number."""
    if isinstance(observable, Effect):
        full = embed_operator(observable.operator, observable.targets, rho.n_qubits)
    else:
        full = np.asarray(observable, dtype=complex)
        dim = 2**rho.n_qubits
        if full.shape != (dim, dim):
            raise ValueError(f"observable shape {full.shape} does not match state dimension {dim}")
    if not np.allclose(full, full.conj().T, atol=_IMAG_TOL, rtol=0.0):
        raise ValueError("observable is not Hermitian")
    value = complex(np.trace(rho.matrix @ full))
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real
