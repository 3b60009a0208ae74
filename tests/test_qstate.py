import functools
import itertools
import math

import numpy as np
import pytest

from belldet import (
    DensityMatrix,
    Effect,
    PureState,
    basis_state,
    bell_phi_plus,
    cluster4,
    expectation,
    ghz,
    partial_trace,
    project,
)
from belldet.detmodel import MeasurementSetting, X_PLUS
from belldet.qstate import embed_operator, pauli_tensor

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_density(n_qubits, rng):
    dim = 2**n_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(n_qubits, mat / np.trace(mat))


class TestPartialTrace:
    def test_cluster_first_qubit_gives_two_branch_mixture(self):
        traced = partial_trace(cluster4().density(), [0])
        psi1 = np.zeros(8, dtype=complex)
        psi1[0b111] = 1.0 / math.sqrt(2)
        psi1[0b100] = -1.0 / math.sqrt(2)
        psi2 = np.zeros(8, dtype=complex)
        psi2[0b000] = 1.0 / math.sqrt(2)
        psi2[0b011] = 1.0 / math.sqrt(2)
        expected = 0.5 * np.outer(psi1, psi1.conj()) + 0.5 * np.outer(psi2, psi2.conj())
        np.testing.assert_allclose(traced.matrix, expected, atol=1e-12)

    def test_product_state(self):
        reduced = partial_trace(basis_state("01").density(), [1])
        np.testing.assert_allclose(reduced.matrix, basis_state("0").density().matrix, atol=1e-15)

    def test_bell_pair_gives_maximally_mixed(self):
        reduced = partial_trace(bell_phi_plus().density(), [0])
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        rho = random_density(3, rng)
        reduced = partial_trace(rho, [0, 2])
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            partial_trace(bell_phi_plus().density(), [2])

    def test_tracing_everything_is_an_error(self):
        with pytest.raises(ValueError):
            partial_trace(bell_phi_plus().density(), [0, 1])


class TestProject:
    def test_ghz4_plus_projection(self):
        weight, post = project(ghz(4).density(), Effect(X_PLUS.projector_plus(), (0,)))
        assert abs(weight - 0.5) < 1e-12
        remaining = partial_trace(post, (0,))
        np.testing.assert_allclose(remaining.matrix, ghz(3).density().matrix, atol=1e-12)

    def test_orthogonal_projection_is_absent_not_an_exception(self):
        weight, post = project(basis_state("0").density(), Effect(np.diag([0.0, 1.0]), (0,)))
        assert weight == 0.0
        assert post is None

    def test_blind_cluster_chain_recovers_bell_state(self):
        # trace qubit 0 of the cluster, then project |0><0| on the next qubit
        rho = partial_trace(cluster4().density(), [0])
        weight, post = project(rho, Effect(np.diag([1.0, 0.0]), (0,)))
        assert abs(weight - 0.5) < 1e-12
        final = partial_trace(post, (0,))
        np.testing.assert_allclose(final.matrix, bell_phi_plus().density().matrix, atol=1e-12)

    def test_idempotent_in_state(self):
        rng = np.random.default_rng(3)
        rho = random_density(2, rng)
        effect = Effect(MeasurementSetting(0.7).projector_plus(), (1,))
        _, once = project(rho, effect)
        weight_again, twice = project(once, effect)
        assert abs(weight_again - 1.0) < 1e-10
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-10)

    def test_complete_projector_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        rho = random_density(2, rng)
        setting = MeasurementSetting(1.234)
        w_plus, _ = project(rho, Effect(setting.projector_plus(), (0,)))
        w_minus, _ = project(rho, Effect(setting.projector_minus(), (0,)))
        assert abs(w_plus + w_minus - 1.0) < 1e-10
        # full two-qubit computational basis
        total = 0.0
        for bits in ("00", "01", "10", "11"):
            proj = np.outer(basis_state(bits).amplitudes, basis_state(bits).amplitudes.conj())
            w, _ = project(rho, Effect(proj, (0, 1)))
            total += w
        assert abs(total - 1.0) < 1e-10


class TestExpectation:
    def test_sigma_z_on_zero(self):
        assert expectation(basis_state("0").density(), SZ) == pytest.approx(1.0, abs=1e-14)

    def test_xx_stabilizer_of_bell(self):
        assert expectation(bell_phi_plus().density(), np.kron(SX, SX)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_xz_on_bell_vanishes(self):
        assert expectation(bell_phi_plus().density(), np.kron(SX, SZ)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(bell_phi_plus().density(), SZ)

    def test_partial_trace_matches_padded_operator(self):
        rng = np.random.default_rng(21)
        rho = random_density(3, rng)
        observable = MeasurementSetting(0.9).projector_plus() * 2.0 - np.eye(2)
        reduced = partial_trace(rho, [0, 1])
        lhs = expectation(reduced, observable)
        rhs = expectation(rho, embed_operator(observable, [2], 3))
        assert abs(lhs - rhs) < 1e-10


class TestPauliTensor:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reconstructs_the_state(self, n):
        """rho = 2^-n sum_mu T_mu sigma_mu, T real with T_0...0 = Tr(rho) = 1."""
        rho = random_density(n, np.random.default_rng(40 + n))
        tensor = rho.pauli_tensor
        assert tensor.dtype == np.float64 and tensor.shape == (4,) * n
        assert tensor[(0,) * n] == pytest.approx(1.0, abs=1e-12)
        paulis = (np.eye(2), SX, SY, SZ)
        rebuilt = sum(
            tensor[mu] * functools.reduce(np.kron, [paulis[m] for m in mu])
            for mu in itertools.product(range(4), repeat=n)
        )
        np.testing.assert_allclose(rebuilt / 2**n, rho.matrix, rtol=0, atol=1e-12)

    def test_cached_on_the_state_and_equal_to_the_raw_matrix_tensor(self):
        rho = random_density(3, np.random.default_rng(9))
        assert rho.pauli_tensor is rho.pauli_tensor
        np.testing.assert_array_equal(rho.pauli_tensor, pauli_tensor(rho.matrix))


class TestValidation:
    def test_pure_state_normalizes(self):
        state = PureState(1, np.array([3.0, 4.0]))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_effect_rejects_eigenvalues_above_one(self):
        with pytest.raises(ValueError):
            Effect(np.diag([1.5, 0.0]), (0,))

    def test_arrays_are_immutable(self):
        state = ghz(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
