"""Independent answers that every benchmark query is checked against.

Nothing here imports belldet: each value is a closed form, a small
stand-alone numpy computation, or a reference value recorded from the
seed commit together with the tolerance it is compared at.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

SQRT2 = math.sqrt(2.0)

# Paper, CHSH on a projected Bell pair: critical eta_H and critical visibility.
CRITICAL_ETA_CHSH = 2.0 / (1.0 + SQRT2)
CRITICAL_VISIBILITY_CHSH = 1.0 / SQRT2
TSIRELSON = 2.0 * SQRT2

# Seed-commit values for configs without a closed form (the Eberhard CH
# expression on GHZ4 with alpha = 0.05 projectors). Across optimizer seeds
# they repeat to 1e-15 (the solved threshold to 1e-12); the tolerance
# leaves room for a different but correct optimizer.
EBERHARD_CRITICAL_ETA = 0.6742959781982696
EBERHARD_EVAL_BELL_VALUE = 0.002485500059300483

THRESHOLD_TOL = 1e-9  # thresholds (eta_H, visibility), absolute
VALUE_TOL = 1e-9  # Bell values and composite values, absolute
WEIGHT_RTOL = 1e-9  # projection weights and trial statistics, relative
STATE_TOL = 1e-10  # entries of a returned state's correlation matrix
RESIDUAL_TOL = 1e-9  # a solver's "ok" must come with a residual below this

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Correlation matrices T_ij = <sigma_i x sigma_j> of the two Bell pairs the
# default projections leave behind.
T_PHI_PLUS = np.diag([1.0, -1.0, 1.0])
T_PSI_PLUS = np.diag([1.0, 1.0, -1.0])

CHSH_WEIGHTS = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}


def close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


def rel_close(value: float, expected: float, rtol: float = WEIGHT_RTOL) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """T_ij = Tr(rho sigma_i x sigma_j) of a two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.array(
        [[float(np.real(np.trace(rho @ np.kron(a, b)))) for b in _PAULI] for a in _PAULI]
    )


def horodecki_chsh(t: np.ndarray) -> float:
    """Largest CHSH value over all projective settings at unit efficiency,
    2 sqrt(m1 + m2) with m1, m2 the two largest eigenvalues of T^T T
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995))."""
    eig = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(eig[-1] + eig[-2], 0.0))


def horodecki_chsh_real_plane(t: np.ndarray) -> float:
    """The same maximum with every setting in the x-z Bloch plane: the
    2x2 x-z block's two singular values, so 2 times its Frobenius norm."""
    block = t[np.ix_((0, 2), (0, 2))]
    return 2.0 * float(np.linalg.norm(block))


def bloch(theta: float, phi: float) -> np.ndarray:
    """Bloch vector of the projector cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def chsh_on_noisy_pair(
    t: np.ndarray, v_eff: float, eta: float, settings: Sequence[Sequence[tuple[float, float]]]
) -> float:
    """CHSH with folded observables 2 eta Pi - I on v_eff pair + (1 - v_eff) I/4.

    Both components have zero marginals, so each correlator is
    eta^2 v_eff a.T b + (eta - 1)^2.
    """
    total = 0.0
    for (i, j), w in CHSH_WEIGHTS.items():
        a = bloch(*settings[0][i])
        b = bloch(*settings[1][j])
        total += w * (eta * eta * v_eff * float(a @ t @ b) + (eta - 1.0) ** 2)
    return total


def ghz_projection_weight(n: int) -> float:
    """Weight of N-2 |+> projections on GHZ(N)."""
    return 2.0 ** -(n - 2)


def dicke_projection_weight(n: int) -> float:
    """Weight of the default pattern on Dicke(N, floor(N/2)): only the two
    basis states with one excitation on the surviving pair match."""
    return 2.0 / math.comb(n, n // 2)


def noisy_projection(weight: float, n: int, visibility: float) -> tuple[float, float]:
    """(product of projection weights, visibility of the projected pair)
    for v |psi><psi| + (1 - v) I / 2^N under N-2 rank-one projections."""
    noise = 2.0 ** -(n - 2)
    total = visibility * weight + (1.0 - visibility) * noise
    return total, visibility * weight / total


def dicke_loss(n: int, e: int, lost: int, u: int) -> tuple[float, float, np.ndarray]:
    """(pattern weight, psi+ fraction, correlation matrix) after Dicke(n, e)
    loses ``lost`` qubits and u of the next n - lost - 2 qubits project on |1>.

    Counting matching basis states: the pair holds e - u - j excitations
    when j of the lost qubits were excited, so the surviving state mixes
    psi+ (C(l, e-u-1) twice), |00> (C(l, e-u)) and |11> (C(l, e-u-2)); the
    total is C(l + 2, e - u) by Vandermonde.
    """

    def comb(m: int, j: int) -> int:
        return math.comb(m, j) if 0 <= j <= m else 0

    m = e - u
    q_psi, q_00, q_11 = 2 * comb(lost, m - 1), comb(lost, m), comb(lost, m - 2)
    total = q_psi + q_00 + q_11
    fraction = q_psi / total
    t = np.diag([fraction, fraction, 1.0 - 2.0 * fraction])
    return comb(lost + 2, m) / math.comb(n, e), fraction, t


def mermin_bound(n: int) -> float:
    """LHV bound of the n-party Mermin expression."""
    return float(2 ** (n // 2))


def mermin_terms(n: int) -> list[tuple[tuple[int, ...], float]]:
    """Re prod_k (X_k + i Y_k): every term with an even number 2m of Y
    settings (index 1), weighted (-1)^m."""
    terms = []
    for mask in range(2**n):
        ys = bin(mask).count("1")
        if ys % 2 == 0:
            settings = tuple((mask >> (n - 1 - k)) & 1 for k in range(n))
            terms.append((settings, float((-1) ** (ys // 2))))
    return terms


def lhv_bound_bruteforce(doc: dict) -> float:
    """Maximum over deterministic local strategies, by numpy broadcasting.

    A stand-alone reference for belldet's enumeration: each party's
    strategies form an axis, each term is an outer product of per-party
    indicator (or sign) vectors, and the bound is the largest entry.
    """
    n, s = int(doc["n_parties"]), int(doc["settings_per_party"])
    correlation = doc["form"] == "correlation"
    # One row per deterministic strategy of a party: an outcome per setting,
    # +1/-1 for correlation form, 0/1/2 for "+"/"-"/"0" in probability form.
    table = np.array(list(np.ndindex(*([2 if correlation else 3] * s))))
    codes = {"+": 0, "-": 1, "0": 2}

    def factor(j: int, label: str) -> np.ndarray:
        if correlation:
            return 1.0 - 2.0 * table[:, j]
        if label == "*":
            return np.ones(len(table))
        return (table[:, j] == codes[label]).astype(float)

    values = np.zeros([len(table)] * n)
    for term in doc["terms"]:
        outcomes = term.get("outcomes") or ["*"] * n
        vec = np.array(float(term["weight"]))
        for j, label in zip(term["settings"], outcomes):
            vec = np.multiply.outer(vec, factor(int(j), label))
        values += vec
    return float(values.max())
