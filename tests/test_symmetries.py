"""Symmetry oracles: relations that physics fixes between results with no closed form.

Each test draws seeded random inputs and checks an exact identity:
``lhv_bound`` under relabelings and party permutations (Rosset, Bancal & Gisin,
J. Phys. A 47, 424022 (2014)), the quantum kernel under local unitaries, the
settings optimizer from starts on the sphere under local unitaries and a party
swap, the critical efficiency with AUTO settings under local unitaries and a party
swap, and the optimizer from the default x-z starts on real states under setting
permutations and TRINARY "+"/"-" swaps. Under FOLD, a "+"/"-" swap is no symmetry
once eta < 1, and a test pins that too.
"""

import dataclasses
import math

import numpy as np
import pytest

from belldet import (
    BellExpression,
    BellForm,
    BellTerm,
    Convention,
    DensityMatrix,
    MeasurementSetting,
    OptimizeOptions,
    critical_eta,
    ghz,
    lhv_bound,
    optimize_settings,
    preset,
    quantum_value,
)
from belldet.bell import angles_to_settings
from belldet.protocol import RESIDUAL_TOL
from test_bell import random_expression, random_mixed_state

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
SWAP = np.eye(4)[[0, 2, 1, 3]]
SPHERE = OptimizeOptions(include_phi=True, restarts=16)


def haar_unitary(rng):
    """A Haar-random 2 x 2 unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / abs(np.diag(r)))


def rotation(u):
    """R[b, a] = Tr(sigma_b u sigma_a u^dagger) / 2, so u^dagger (n . sigma) u = (R^T n) . sigma."""
    return np.einsum("bij,jk,akl,il->ba", PAULIS, u, PAULIS, u.conj()).real / 2.0


def rotated(setting, r):
    """The setting whose Bloch vector is R^T n."""
    x, y, z = r.T @ [
        math.sin(setting.theta) * math.cos(setting.phi),
        math.sin(setting.theta) * math.sin(setting.phi),
        math.cos(setting.theta),
    ]
    return MeasurementSetting(math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x))


def conjugated(rho, unitary):
    matrix = unitary @ rho.matrix @ unitary.conj().T
    return DensityMatrix(rho.n_qubits, (matrix + matrix.conj().T) / 2.0)


def local_unitary(rng, n):
    """Haar-random u_0, ..., u_{n-1} and their product, qubit 0 the leading factor."""
    unitaries = [haar_unitary(rng) for _ in range(n)]
    total = np.eye(1)
    for u in unitaries:
        total = np.kron(total, u)
    return unitaries, total


def relabeled(expr, settings=lambda i, j: j, weight=lambda t: t.weight, outcome=lambda i, j, o: o,
              parties=None):
    """``expr`` with party i's setting j renamed settings(i, j), each term's weight
    weight(t), party i's outcome o at setting j renamed outcome(i, j, o), and party
    ``parties[m]`` moved to position m."""
    n = expr.n_parties
    parties = range(n) if parties is None else parties
    terms = []
    for t in expr.terms:
        js = tuple(settings(i, t.settings[i]) for i in parties)
        outcomes = None
        if t.outcomes is not None:
            outcomes = tuple(outcome(i, t.settings[i], t.outcomes[i]) for i in parties)
        terms.append(BellTerm(js, weight(t), outcomes))
    return BellExpression(n, expr.settings_per_party, expr.form, tuple(terms), 0.0)


@pytest.mark.parametrize("form", list(BellForm))
@pytest.mark.parametrize("n,s", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_lhv_bound_is_invariant_under_relabelings(form, n, s):
    """A party permutation, a permutation of one party's settings and a "+"/"-" swap
    at one (party, setting) each keep the bound: probability form swaps the labels,
    correlation form negates the terms at that setting."""
    rng = np.random.default_rng(100 * n + 10 * s + (form == BellForm.PROBABILITY))
    for _ in range(3):
        expr = random_expression(rng, form, n, s, 12)
        bound = lhv_bound(expr)
        party, setting = int(rng.integers(n)), int(rng.integers(s))
        order = rng.permutation(s)
        swap = {"+": "-", "-": "+"}
        if form == BellForm.CORRELATION:
            swapped = relabeled(
                expr, weight=lambda t: -t.weight if t.settings[party] == setting else t.weight
            )
        else:
            swapped = relabeled(
                expr,
                outcome=lambda i, j, o: swap.get(o, o) if (i, j) == (party, setting) else o,
            )
        copies = [
            relabeled(expr, parties=rng.permutation(n)),
            relabeled(expr, settings=lambda i, j: int(order[j]) if i == party else j),
            swapped,
        ]
        for copy in copies:
            assert lhv_bound(copy) == pytest.approx(bound, abs=1e-12)


@pytest.mark.parametrize(
    "form,convention",
    [
        (BellForm.CORRELATION, Convention.FOLD),
        (BellForm.PROBABILITY, Convention.FOLD),
        (BellForm.PROBABILITY, Convention.TRINARY),
    ],
)
@pytest.mark.parametrize("n", [2, 3])
def test_kernel_turns_local_unitaries_into_rotated_settings(form, convention, n):
    """Tr(U rho U^dagger n . sigma) = Tr(rho (R^T n) . sigma) party by party, at eta < 1."""
    rng = np.random.default_rng([n, form == BellForm.PROBABILITY, convention == Convention.TRINARY])
    for _ in range(5):
        expr = random_expression(rng, form, n, 2, 10)
        rho = random_mixed_state(rng, n)
        unitaries, total = local_unitary(rng, n)
        thetas, phis = rng.uniform(0, math.pi, size=(n, 2)), rng.uniform(-math.pi, math.pi, (n, 2))
        settings = angles_to_settings(thetas, phis)
        turned = [[rotated(m, rotation(u)) for m in party] for party, u in zip(settings, unitaries)]
        etas = rng.uniform(0.5, 0.99, size=n)
        value = quantum_value(expr, conjugated(rho, total), settings, etas, convention)
        assert value == pytest.approx(quantum_value(expr, rho, turned, etas, convention), abs=1e-12)


@pytest.mark.parametrize(
    "name,convention,eta",
    [("CHSH", Convention.FOLD, 1.0), ("CHSH", Convention.FOLD, 0.9),
     ("EBERHARD_CH", Convention.TRINARY, 0.9)],
)
def test_sphere_optimum_is_invariant_under_local_unitaries_and_a_party_swap(name, convention, eta):
    rng = np.random.default_rng(int(eta * 10) + len(name))
    expr = preset(name)
    swapped_expr = relabeled(expr, parties=[1, 0])
    for _ in range(3):
        rho = random_mixed_state(rng, 2)
        _, best = optimize_settings(expr, rho, [eta, eta], convention, SPHERE)
        _, total = local_unitary(rng, 2)
        _, turned = optimize_settings(expr, conjugated(rho, total), [eta, eta], convention, SPHERE)
        _, swapped = optimize_settings(swapped_expr, conjugated(rho, SWAP), [eta, eta], convention,
                                       SPHERE)
        assert turned == pytest.approx(best, abs=1e-9)
        assert swapped == pytest.approx(best, abs=1e-9)


def test_fold_outcome_swap_is_no_symmetry_below_unit_efficiency():
    """Negating CHSH's terms at party 0's setting 0 is n -> -n there at eta = 1, but
    under FOLD the no-click stays folded onto "-", so at eta = 0.9 the optimum moves."""
    chsh = preset("CHSH")
    negated = relabeled(chsh, weight=lambda t: -t.weight if t.settings[0] == 0 else t.weight)
    rho = random_mixed_state(np.random.default_rng(5), 2)
    optima = {}
    for eta in (1.0, 0.9):
        optima[eta] = [
            optimize_settings(expr, rho, [eta, eta], Convention.FOLD, SPHERE)[1]
            for expr in (chsh, negated)
        ]
    assert optima[1.0][0] == pytest.approx(optima[1.0][1], abs=1e-9)
    assert abs(optima[0.9][0] - optima[0.9][1]) > 1e-3


def random_real_state(rng, n, rank):
    """A random real n-qubit state of the given rank: pure at rank 1."""
    raw = rng.normal(size=(2**n, rank))
    return DensityMatrix(n, raw @ raw.T / np.sum(raw**2))


def random_pure_state(rng, n):
    """A random complex pure n-qubit state."""
    ket = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return DensityMatrix(n, np.outer(ket, ket.conj()) / np.vdot(ket, ket).real)


@pytest.mark.parametrize(
    "name,convention", [("CHSH", Convention.FOLD), ("EBERHARD_CH", Convention.TRINARY)]
)
def test_critical_eta_is_invariant_under_a_party_swap(name, convention):
    """Swapping rho's qubits together with the expression's parties keeps the threshold,
    or its absence, on random real and complex pure states and random mixed states."""
    rng = np.random.default_rng(len(name))
    expr = preset(name)
    # a relabeling keeps the local bound, which the swapped copy enumerates on first read
    swapped_expr = dataclasses.replace(relabeled(expr, parties=[1, 0]), stated_bound=None)
    states = [random_real_state(rng, 2, rank=1) for _ in range(3)]
    states += [random_pure_state(rng, 2) for _ in range(3)]
    states += [random_mixed_state(rng, 2) for _ in range(3)]
    for seed, rho in enumerate(states):
        kwargs = {"convention": convention, "restarts": 16, "seed": seed}
        result = critical_eta(expr, rho, **kwargs)
        swapped = critical_eta(swapped_expr, conjugated(rho, SWAP), **kwargs)
        assert swapped.status == result.status
        if result.found:
            assert swapped.critical_value == pytest.approx(
                result.critical_value, abs=2 * RESIDUAL_TOL
            )


@pytest.mark.parametrize(
    "name,convention", [("CHSH", Convention.FOLD), ("EBERHARD_CH", Convention.TRINARY)]
)
def test_critical_eta_is_invariant_under_local_unitaries(name, convention):
    """Phi+ turned by Haar-random local unitaries keeps its threshold 2/(1 + sqrt 2): the
    AUTO settings turn with the state, off the x-z plane. In the x-z plane every one of
    these cases gave a wrong "ok", at 0.830-0.99988."""
    rng = np.random.default_rng(len(name) + 24)
    phi_plus = ghz(2).density()
    for seed in range(5):
        _, total = local_unitary(rng, 2)
        result = critical_eta(preset(name), conjugated(phi_plus, total), convention=convention,
                              restarts=8, seed=seed)
        assert result.status == "ok", seed
        assert result.critical_value == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), abs=1e-9)


@pytest.mark.parametrize("eta", [1.0, 0.9])
def test_xz_optimum_is_invariant_under_relabelings_on_real_states(eta):
    """A permutation of one party's settings, and a TRINARY "+"/"-" swap at one
    (party, setting), which is n -> -n there, keep the optimum from x-z starts."""
    rng = np.random.default_rng(int(eta * 10))
    chsh, ch = preset("CHSH"), preset("EBERHARD_CH")
    swap = {"+": "-", "-": "+"}
    for _ in range(3):
        rho = random_real_state(rng, 2, rank=4)
        party, setting = int(rng.integers(2)), int(rng.integers(2))
        permuted = relabeled(chsh, settings=lambda i, j: 1 - j if i == party else j)
        outcome_swapped = relabeled(
            ch, outcome=lambda i, j, o: swap.get(o, o) if (i, j) == (party, setting) else o
        )
        for expr, copy, convention in [(chsh, permuted, Convention.FOLD),
                                       (ch, outcome_swapped, Convention.TRINARY)]:
            _, best = optimize_settings(expr, rho, [eta, eta], convention)
            _, moved = optimize_settings(copy, rho, [eta, eta], convention)
            assert moved == pytest.approx(best, abs=1e-12)
