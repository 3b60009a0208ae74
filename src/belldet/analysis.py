"""Experiment-duration statistics and the lost-detector analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detmodel import MeasurementSetting, Z_ONE, Z_ZERO
from .protocol import ScenarioConfig, _project_factor, projected_state
from .qstate import DensityMatrix, StateSpec


@dataclass(frozen=True)
class TrialStats:
    """One trial without lost qubits: prod p_i of the N - k projections and both efficiencies."""

    p_projections: float
    n_projections: int
    k: int
    eta_L: float
    eta_H: float

    @property
    def p_succ(self) -> float:
        """p_1...p_{N-k} eta_L^(N-k) eta_H^k: all detectors click, every projection gives "+"."""
        return self.p_projections * self.eta_L**self.n_projections * self.eta_H**self.k

    @property
    def p_succ_standard(self) -> float:
        """The standard all-efficient test succeeds with eta_H^N."""
        return self.eta_H ** (self.n_projections + self.k)

    @property
    def n_prime(self) -> float:
        """Extra-repetition factor p_succ_standard / p_succ."""
        if self.p_succ <= 0.0:
            raise ZeroDivisionError("projected-scenario success probability is zero")
        return n_prime_from_ratio(self.p_projections, self.eta_L / self.eta_H, self.n_projections)


def n_prime_from_ratio(p_projections: float, eta_ratio: float, n_projections: int) -> float:
    """How many times more trials the projected scenario needs: n' = eta_H^N / p_succ
    = (prod p_i)^(-1) (eta_L/eta_H)^(-(N-k)), the factor 20 at p = (1/2, 1/2), ratio 0.45."""
    try:
        return p_projections**-1 * eta_ratio**-n_projections
    except OverflowError as exc:  # pow's own message names neither n' nor its inputs
        raise OverflowError(
            f"n' is beyond the float range: eta_L/eta_H = {eta_ratio!r} to the power "
            f"-{n_projections}, prod p_i = {p_projections!r}"
        ) from exc


def trial_stats(config: ScenarioConfig) -> TrialStats:
    """Projects ``config`` once; a lost qubit raises ValueError."""
    require_no_lost(config)
    p_list, _ = projected_state(config)
    return TrialStats(
        float(np.prod(p_list)), config.n_projections, config.k, config.eta_L, config.eta_H
    )


def require_no_lost(config: ScenarioConfig) -> None:
    """Trial counts need every qubit present: a lost qubit raises ValueError."""
    if config.lost:
        raise ValueError("success probability is defined for scenarios without lost qubits")


def pascal_expected_trials(r: int, p: float) -> float:
    """Average number of trials until the r-th success, r / p."""
    if r < 1 or int(r) != r:
        raise ValueError("r must be a positive integer")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    return r / p


def bernoulli_pmf(m: int, r: int, p: float) -> float:
    """Probability of exactly r successes in m trials, C(m,r) p^r (1-p)^(m-r)."""
    if not 0 <= r <= m:
        raise ValueError(f"r must lie in [0, {m}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return math.comb(m, r) * p**r * (1.0 - p) ** (m - r)


def damaged_state(
    rho: DensityMatrix, lost: int, projectors: Sequence[MeasurementSetting]
) -> DensityMatrix:
    """State left after ``lost`` particles vanish and the survivors project.

    Traces out the first ``lost`` qubits, applies the given single-qubit
    projectors to the leading remaining qubits one by one, and renormalizes.
    Meaningful for permutation-invariant states, where it does not matter
    which qubits were lost.
    """
    if lost < 0 or lost >= rho.n_qubits:
        raise ValueError(f"lost must lie in [0, {rho.n_qubits - 1}]")
    if lost + len(projectors) >= rho.n_qubits:
        raise ValueError("tracing and projecting would consume every qubit")
    # rho = F^T F^* with rows sqrt(lambda_j) v_j; splitting each row into the
    # lost and surviving qubits traces the lost ones out.
    eigenvalues, vectors = np.linalg.eigh(rho.matrix)
    keep = eigenvalues > 0.0
    factor = (vectors[:, keep] * np.sqrt(eigenvalues[keep])).T
    _, out = _project_factor(factor.reshape(-1, 2 ** (rho.n_qubits - lost)), projectors)
    return out


def dicke_loss_mixture(n: int, excitations: int, lost: int) -> list[tuple[float, StateSpec]]:
    """Decompose a traced Dicke state into smaller Dicke states.

    Losing ``lost`` qubits of an n-qubit, e-excitation Dicke state leaves
    the mixture sum_j C(l,j) C(n-l, e-j) / C(n,e) over Dicke(n-l, e-j).
    The weights are a Vandermonde convolution, so they sum to one exactly.
    """
    if not 0 <= excitations <= n:
        raise ValueError(f"excitations must lie in [0, {n}]")
    if not 0 <= lost < n:
        raise ValueError(f"lost must lie in [0, {n - 1}]")
    total = math.comb(n, excitations)
    out: list[tuple[float, StateSpec]] = []
    for j in range(max(0, excitations - (n - lost)), min(lost, excitations) + 1):
        weight = math.comb(lost, j) * math.comb(n - lost, excitations - j)
        out.append(
            (weight / total, StateSpec(kind="Dicke", n=n - lost, excitations=excitations - j))
        )
    return out


@dataclass(frozen=True)
class DickeLossSpec:
    """A Dicke state, a loss count, and a computational-basis projector
    pattern with ``u`` ones among the n - l - 2 projected qubits."""

    n: int
    excitations: int
    lost: int
    u: int

    def __post_init__(self) -> None:
        if not 0 <= self.excitations <= self.n:
            raise ValueError(f"excitations must lie in [0, {self.n}]")
        if not 0 <= self.lost < self.n - 2:
            raise ValueError(f"lost must lie in [0, {self.n - 3}]")
        if not 0 <= self.u <= self.n - self.lost - 2:
            raise ValueError(f"u must lie in [0, {self.n - self.lost - 2}]")

    def projectors(self) -> list[MeasurementSetting]:
        return [Z_ONE] * self.u + [Z_ZERO] * (self.n - self.lost - 2 - self.u)


def psi_plus_weight(spec: DickeLossSpec) -> float:
    """Unnormalized weight of the |psi+> component after loss and projection.

    The surviving Bell pair holds exactly one excitation, so only the loss
    term with j = e - u - 1 contributes: weight 2 C(l, e-u-1) / C(n, e),
    and zero whenever e - u - 1 falls outside [0, l].
    """
    j = spec.excitations - spec.u - 1
    if not 0 <= j <= spec.lost:
        return 0.0
    return 2.0 * math.comb(spec.lost, j) / math.comb(spec.n, spec.excitations)


def psi_plus_fraction(spec: DickeLossSpec) -> float:
    """Normalized |psi+> fraction of the post-projection state.

    With m = e-u, the surviving components |psi+>, |00><00| (j = e-u) and
    |11><11| (j = e-u-2) weigh 2 C(l, m-1), C(l, m) and C(l, m-2), which sum
    to C(l+2, m), so the fraction is 2m(l+2-m) / ((l+1)(l+2)) for
    1 <= m <= l+1 and zero otherwise: never above 2/3 for l >= 1 and
    therefore always below the 1/sqrt(2) a CHSH violation needs.
    """
    m, l = spec.excitations - spec.u, spec.lost
    if not 1 <= m <= l + 1:
        return 0.0
    return 2 * m * (l + 2 - m) / ((l + 1) * (l + 2))
