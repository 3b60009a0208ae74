import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from belldet import DensityMatrix, PureState, bell_phi_plus, cluster4, ghz, preset, quantum_value
from belldet.detmodel import MeasurementSetting, X_PLUS, Z_ONE, Z_ZERO
from reference import partial_trace, project_leading

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_density(n_qubits, rng):
    dim = 2**n_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(n_qubits, mat / np.trace(mat))


class TestPartialTrace:
    """The reference partial trace the tests check the library against."""

    def test_cluster_first_qubit_gives_two_branch_mixture(self):
        traced = partial_trace(cluster4().density().matrix, [0])
        psi1 = np.zeros(8, dtype=complex)
        psi1[0b111] = 1.0 / math.sqrt(2)
        psi1[0b100] = -1.0 / math.sqrt(2)
        psi2 = np.zeros(8, dtype=complex)
        psi2[0b000] = 1.0 / math.sqrt(2)
        psi2[0b011] = 1.0 / math.sqrt(2)
        expected = 0.5 * np.outer(psi1, psi1.conj()) + 0.5 * np.outer(psi2, psi2.conj())
        np.testing.assert_allclose(traced, expected, atol=1e-12)

    def test_product_state(self):
        reduced = partial_trace(np.diag([0.0, 1.0, 0.0, 0.0]), [1])  # |01><01|
        np.testing.assert_allclose(reduced, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_pair_gives_maximally_mixed(self):
        reduced = partial_trace(bell_phi_plus().density().matrix, [0])
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        rho = random_density(3, rng)
        reduced = partial_trace(rho.matrix, [0, 2])
        assert abs(np.trace(reduced) - 1.0) < 1e-12


class TestProject:
    """The reference rank-one projection of the leading qubit."""

    def test_ghz4_plus_projection(self):
        post = project_leading(ghz(4).density().matrix, X_PLUS.ket())
        weight = np.trace(post).real
        assert abs(weight - 0.5) < 1e-12
        np.testing.assert_allclose(post / weight, ghz(3).density().matrix, atol=1e-12)

    def test_blind_cluster_chain_recovers_bell_state(self):
        # trace qubit 0 of the cluster, then project |0><0| on the next qubit
        rho = partial_trace(cluster4().density().matrix, [0])
        post = project_leading(rho, Z_ZERO.ket())
        weight = np.trace(post).real
        assert abs(weight - 0.5) < 1e-12
        np.testing.assert_allclose(post / weight, bell_phi_plus().density().matrix, atol=1e-12)

    def test_complete_projector_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        rho = random_density(2, rng).matrix
        setting = MeasurementSetting(1.234)
        orthogonal = MeasurementSetting(1.234 + math.pi)
        w_plus = np.trace(project_leading(rho, setting.ket())).real
        w_minus = np.trace(project_leading(rho, orthogonal.ket())).real
        assert abs(w_plus + w_minus - 1.0) < 1e-10
        # full two-qubit computational basis
        total = 0.0
        for first, second in itertools.product((Z_ZERO, Z_ONE), repeat=2):
            total += project_leading(project_leading(rho, first.ket()), second.ket())[0, 0].real
        assert abs(total - 1.0) < 1e-10


class TestExpectation:
    """Expectation values as the library reads them: off the Pauli tensor."""

    def test_sigma_z_on_zero(self):
        assert PureState(1, np.array([1.0, 0.0])).density().pauli_tensor[3] == pytest.approx(
            1.0, abs=1e-14
        )

    def test_xx_stabilizer_of_bell(self):
        assert bell_phi_plus().density().pauli_tensor[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_xz_on_bell_vanishes(self):
        assert bell_phi_plus().density().pauli_tensor[1, 3] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        one_qubit = PureState(1, np.array([1.0, 0.0])).density()
        with pytest.raises(ValueError, match="does not match 2 parties"):
            quantum_value(preset("CHSH"), one_qubit, [[X_PLUS, Z_ZERO]] * 2, [1.0, 1.0])

    def test_partial_trace_matches_padded_operator(self):
        """Tr(Tr_01(rho) O) = Tr(rho I (x) I (x) O) for every Pauli O."""
        rng = np.random.default_rng(21)
        rho = random_density(3, rng)
        reduced = DensityMatrix(1, partial_trace(rho.matrix, [0, 1]))
        np.testing.assert_allclose(reduced.pauli_tensor, rho.pauli_tensor[0, 0], atol=1e-12)


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
        """Computed once, and equal to Tr(rho sigma_mu) traced densely on the matrix."""
        rho = random_density(3, np.random.default_rng(9))
        assert rho.pauli_tensor is rho.pauli_tensor
        paulis = (np.eye(2), SX, SY, SZ)
        for mu in itertools.product(range(4), repeat=3):
            op = functools.reduce(np.kron, [paulis[m] for m in mu])
            assert rho.pauli_tensor[mu] == pytest.approx(np.trace(rho.matrix @ op).real, abs=1e-12)


class TestValidation:
    def test_pure_state_normalizes(self):
        state = PureState(1, np.array([3.0, 4.0]))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_pure_state_normalizes_one_copy_in_place(self):
        """The state holds one copy of the caller's vector and divides it in
        place: building from 2^18 amplitudes whose norm is off by 1e-9 peaks
        near one vector, and the caller's array is left as it was."""
        amp = np.full(2**18, (1.0 + 1e-9) / 2**9, dtype=complex)
        given = amp.copy()
        tracemalloc.start()
        try:
            state = PureState(18, amp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * amp.nbytes
        np.testing.assert_array_equal(amp, given)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_density_normalizes_its_own_copy(self):
        mat = np.diag([3.0, 1.0]).astype(complex)
        rho = DensityMatrix(1, mat)
        np.testing.assert_array_equal(mat, np.diag([3.0, 1.0]))
        np.testing.assert_allclose(rho.matrix, np.diag([0.75, 0.25]), rtol=0, atol=1e-15)

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_arrays_are_immutable(self):
        state = ghz(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
