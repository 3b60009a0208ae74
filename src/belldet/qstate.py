"""Pure states, density matrices and their real Pauli-basis tensor.

Index convention: qubit 0 is the most significant bit of the basis index,
so for three qubits ``|q0 q1 q2>`` lives at index ``4*q0 + 2*q1 + q2``.
Kronecker products therefore compose left to right: ``np.kron(a, b)`` puts
a's qubits first.

The library projects on the amplitude vector (``protocol``) and evaluates
Bell values on the cached Pauli tensor (``bell``). All values are immutable
after construction, so independent evaluations can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# sigma_mu for mu = I, X, Y, Z.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class QubitCapacityError(ValueError):
    """A state would have more qubits than ``QUBIT_CAP``."""


class ZeroProjectionError(RuntimeError):
    """A projection required to succeed has (numerically) zero weight."""


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
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)  # the state's own copy
        if amp.size != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amp.size}, expected {2**self.n_qubits}"
            )
        norm = float(np.linalg.norm(amp))
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

    Construction checks Hermiticity (1e-12 elementwise) and positivity
    (lowest eigenvalue >= -1e-10) and renormalizes the trace to one.
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
        if not np.allclose(mat, mat.conj().T, atol=_HERMITICITY_TOL, rtol=0.0):
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
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
        t = self.matrix.reshape([2] * (2 * self.n_qubits))
        for left in range(self.n_qubits, 0, -1):  # trace the leading qubit against each sigma
            t = np.tensordot(t, _PAULI, axes=([0, left], [2, 1]))  # mu goes last
        return np.ascontiguousarray(t.real)

