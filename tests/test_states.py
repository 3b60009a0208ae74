import math

import numpy as np
import pytest

from belldet import (
    BellExpression,
    BellForm,
    BellTerm,
    ScenarioConfig,
    StateSpec,
    cluster4,
    dicke,
    ghz,
    make_state,
    partial_pair,
    projected_state,
)
from belldet.detmodel import X_PLUS
from reference import partial_trace, project_leading


def test_ghz3_amplitudes():
    amp = ghz(3).amplitudes
    expected = np.zeros(8)
    expected[0] = expected[7] = 1.0 / math.sqrt(2)
    np.testing.assert_allclose(amp, expected, atol=1e-15)


def test_w_state_is_one_excitation_dicke():
    w = make_state(StateSpec("W", 3))
    np.testing.assert_allclose(w.amplitudes, dicke(3, 1).amplitudes, atol=1e-15)
    expected = np.zeros(8)
    expected[0b100] = expected[0b010] = expected[0b001] = 1.0 / math.sqrt(3)
    np.testing.assert_allclose(w.amplitudes, expected, atol=1e-15)


def test_partial_pair():
    amp = partial_pair(0.3).amplitudes
    np.testing.assert_allclose(amp, [math.cos(0.3), 0.0, 0.0, math.sin(0.3)], atol=1e-15)


def test_bell_states():
    psi_plus = make_state(StateSpec("BellPsiPlus", 2))
    np.testing.assert_allclose(
        psi_plus.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15
    )
    # the partially entangled pair at alpha = pi/4 is the phi+ Bell state
    phi_plus = make_state(StateSpec("BellPhiPlus", 2))
    np.testing.assert_allclose(
        partial_pair(math.pi / 4).amplitudes, phi_plus.amplitudes, atol=1e-15
    )


def test_cluster_convention_fixed_by_first_qubit_trace():
    traced = partial_trace(cluster4().density().matrix, [0])
    psi1 = np.zeros(8, dtype=complex)
    psi1[0b111] = 1.0 / math.sqrt(2)
    psi1[0b100] = -1.0 / math.sqrt(2)
    psi2 = np.zeros(8, dtype=complex)
    psi2[0b000] = 1.0 / math.sqrt(2)
    psi2[0b011] = 1.0 / math.sqrt(2)
    expected = 0.5 * np.outer(psi1, psi1.conj()) + 0.5 * np.outer(psi2, psi2.conj())
    np.testing.assert_allclose(traced, expected, atol=1e-12)


def test_dicke_amplitudes_match_the_bit_counts_exactly():
    for n in range(1, 13):
        popcount = np.array([bin(i).count("1") for i in range(2**n)])
        for e in range(n + 1):
            expected = np.where(popcount == e, 1.0 / math.sqrt(math.comb(n, e)), 0.0)
            np.testing.assert_array_equal(dicke(n, e).amplitudes, expected)


def test_dicke_permutation_invariance():
    state = dicke(5, 2)
    amp = state.amplitudes
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.choice(5, size=2, replace=False)
        swapped = np.empty_like(amp)
        for idx in range(32):
            bits = [(idx >> (4 - q)) & 1 for q in range(5)]
            bits[a], bits[b] = bits[b], bits[a]
            new = 0
            for bit in bits:
                new = (new << 1) | bit
            swapped[new] = amp[idx]
        np.testing.assert_allclose(swapped, amp, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ghz_plus_projection_chain(n):
    rho = ghz(n).density().matrix  # unnormalized along the chain: its trace is the total weight
    for _ in range(n - 2):
        rho = project_leading(rho, X_PLUS.ket())
    total = np.trace(rho).real
    assert abs(total - 2.0 ** -(n - 2)) < 1e-12
    np.testing.assert_allclose(rho / total, ghz(2).density().matrix, atol=1e-12)


def noisy(spec, visibility):
    """The library's white-noise mixing, v |psi><psi| + (1 - v) I / 2^n: the
    projected state when every qubit runs the Bell test (k = N)."""
    expr = BellExpression(spec.n, 1, BellForm.CORRELATION, (BellTerm((0,) * spec.n, 1.0),), 0.0)
    config = ScenarioConfig(spec, spec.n, 1.0, 1.0, expr, visibility=visibility)
    return projected_state(config)[1]


class TestWhiteNoise:
    def test_full_visibility_is_the_pure_projector(self):
        rho = noisy(StateSpec("GHZ", 3), 1.0)
        np.testing.assert_allclose(rho.matrix, ghz(3).density().matrix, atol=1e-15)

    def test_zero_visibility_is_maximally_mixed(self):
        rho = noisy(StateSpec("GHZ", 3), 0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(8) / 8, atol=1e-15)

    def test_half_visibility_werner_expectation(self):
        rho = noisy(StateSpec("BellPhiPlus", 2), 0.5)
        assert rho.pauli_tensor[1, 1] == pytest.approx(0.5, abs=1e-12)  # <XX>

    def test_affine_in_visibility(self):
        values = [noisy(StateSpec("BellPhiPlus", 2), v).pauli_tensor[1, 1] for v in (0.0, 0.5, 1.0)]
        assert abs(values[1] - 0.5 * (values[0] + values[2])) < 1e-12

    def test_visibility_out_of_range(self):
        with pytest.raises(ValueError, match="visibility"):
            noisy(StateSpec("GHZ", 2), 1.2)


class TestStateSpec:
    def test_make_state_matches_helpers(self):
        np.testing.assert_allclose(
            make_state(StateSpec("GHZ", 4)).amplitudes, ghz(4).amplitudes, atol=1e-15
        )
        np.testing.assert_allclose(
            make_state(StateSpec("Dicke", 4, excitations=2)).amplitudes,
            dicke(4, 2).amplitudes,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            make_state(StateSpec("PartialPair", 2, alpha=0.2)).amplitudes,
            partial_pair(0.2).amplitudes,
            atol=1e-15,
        )

    def test_dicke_needs_valid_excitations(self):
        with pytest.raises(ValueError):
            StateSpec("Dicke", 3, excitations=4)
        with pytest.raises(ValueError):
            StateSpec("Dicke", 3)

    def test_cluster_is_four_qubits(self):
        with pytest.raises(ValueError):
            StateSpec("Cluster4", 5)

    def test_partial_pair_needs_alpha(self):
        with pytest.raises(ValueError):
            StateSpec("PartialPair", 2)

    def test_json_round_trip(self):
        spec = StateSpec("Dicke", 6, excitations=3)
        assert StateSpec.from_json_dict(spec.to_json_dict()) == spec
        # fixed-n kinds may omit n in config files
        assert StateSpec.from_json_dict({"kind": "Cluster4"}).n == 4


def test_dicke_all_zero_excitations_is_product():
    np.testing.assert_allclose(dicke(3, 0).amplitudes, np.eye(8)[0], atol=1e-15)  # |000>
