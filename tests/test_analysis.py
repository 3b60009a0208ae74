import math
from fractions import Fraction

import numpy as np
import pytest

from belldet import (
    DickeLossSpec,
    OptimizeOptions,
    ScenarioConfig,
    StateSpec,
    ZeroProjectionError,
    bernoulli_pmf,
    damaged_state,
    dicke,
    dicke_loss_mixture,
    ghz,
    make_state,
    optimize_settings,
    pascal_expected_trials,
    preset,
    projected_state,
    psi_plus_fraction,
    psi_plus_weight,
    trial_stats,
)
from belldet.analysis import n_prime_from_ratio
from belldet.detmodel import Z_ONE
from reference import partial_trace, project_leading

TSIRELSON = 2.0 * math.sqrt(2.0)


def ghz4_config(eta_L, eta_H):
    return ScenarioConfig(
        state=StateSpec("GHZ", 4), k=2, eta_L=eta_L, eta_H=eta_H, bell=preset("CHSH")
    )


def brute_psi_plus_weight(n, excitations, lost, u):
    """Unnormalized psi+ weight straight from the linear algebra, kept
    independent of both the closed form and damaged_state."""
    mat = partial_trace(dicke(n, excitations).density().matrix, range(lost))
    for i in range(n - lost - 2):
        mat = project_leading(mat, np.eye(2)[1 if i < u else 0])  # onto |1> or |0>
    psi = dicke(2, 1).amplitudes
    return float(np.real(psi.conj() @ mat @ psi))


class TestSuccessProbability:
    def test_ideal_detectors(self):
        stats = trial_stats(ghz4_config(1.0, 1.0))
        assert stats.p_succ == pytest.approx(0.25, abs=1e-12)
        assert stats.p_succ_standard == pytest.approx(1.0, abs=1e-15)

    def test_blind_low_detectors_never_succeed(self):
        assert trial_stats(ghz4_config(0.0, 1.0)).p_succ == 0.0

    def test_mixed_efficiencies(self):
        stats = trial_stats(ghz4_config(0.1, 0.9))
        assert stats.p_succ == pytest.approx(0.25 * 0.01 * 0.81, abs=1e-15)
        assert stats.p_succ_standard == pytest.approx(0.9**4, abs=1e-15)


class TestTrialRatio:
    def test_quadratic_exponent_reproduces_the_20x_figure(self):
        # ratio 0.45 with two projecting parties: 4 * 0.45^-2, about 20
        assert trial_stats(ghz4_config(0.45, 1.0)).n_prime == pytest.approx(
            4.0 * 0.45**-2, abs=1e-9
        )

    def test_equal_efficiencies_and_unit_probabilities(self):
        config = ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=0.7, eta_H=0.7, bell=preset("CHSH")
        )
        assert trial_stats(config).n_prime == pytest.approx(1.0, abs=1e-12)

    def test_unit_ratio_costs_only_the_projections(self):
        assert trial_stats(ghz4_config(1.0, 1.0)).n_prime == pytest.approx(4.0, abs=1e-12)

    def test_zero_eta_L_guard(self):
        with pytest.raises(ZeroDivisionError):
            trial_stats(ghz4_config(0.0, 1.0)).n_prime

    @pytest.mark.parametrize("eta_L,eta_H", [(0.45, 1.0), (0.1, 0.9), (0.9, 0.7)])
    def test_trial_ratio_is_the_one_formula(self, eta_L, eta_H):
        config = ghz4_config(eta_L, eta_H)
        stats = trial_stats(config)
        p_prod = float(np.prod(projected_state(config)[0]))
        assert stats.n_prime == n_prime_from_ratio(p_prod, eta_L / eta_H, 2)
        assert stats.n_prime == pytest.approx(stats.p_succ_standard / stats.p_succ, rel=1e-15)

    def test_zero_eta_L_without_projections_costs_nothing(self):
        config = ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=0.0, eta_H=0.7, bell=preset("CHSH")
        )
        assert trial_stats(config).n_prime == 1.0

    def test_zero_eta_H_guard(self):
        with pytest.raises(ZeroDivisionError, match="success probability is zero"):
            trial_stats(ghz4_config(0.5, 0.0)).n_prime


class TestPascal:
    def test_expected_trials(self):
        assert pascal_expected_trials(100, 0.25) == 400.0
        assert pascal_expected_trials(1, 1.0) == 1.0

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            pascal_expected_trials(0, 0.5)
        with pytest.raises(ValueError):
            pascal_expected_trials(10, 0.0)

    def test_monte_carlo_negative_binomial(self):
        r, p, samples = 50, 0.1, 2000
        rng = np.random.default_rng(12345)
        trials = rng.negative_binomial(r, p, size=samples) + r
        mean = trials.mean()
        sigma_mean = math.sqrt(r * (1 - p)) / p / math.sqrt(samples)
        assert abs(mean - pascal_expected_trials(r, p)) < 3 * sigma_mean

    def test_doubling_target_successes_leaves_the_ratio_fixed(self):
        config = ghz4_config(0.45, 1.0)
        stats = trial_stats(config)
        for r in (10, 20):
            trials = pascal_expected_trials(r, stats.p_succ)
            ratio_via_trials = trials / pascal_expected_trials(r, stats.p_succ_standard)
            assert ratio_via_trials == pytest.approx(stats.n_prime, rel=1e-12)
        assert pascal_expected_trials(20, stats.p_succ) == pytest.approx(
            2 * pascal_expected_trials(10, stats.p_succ), rel=1e-12
        )

    def test_trial_stats_ties_the_pieces_together(self):
        config = ghz4_config(0.1, 0.9)
        stats = trial_stats(config)
        p_prod = float(np.prod(projected_state(config)[0]))
        assert stats.p_succ == pytest.approx(p_prod * 0.1**2 * 0.9**2, rel=1e-15)
        assert stats.n_prime == pytest.approx(stats.p_succ_standard / stats.p_succ, rel=1e-12)


class TestBernoulliPmf:
    def test_simple_values(self):
        assert bernoulli_pmf(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert bernoulli_pmf(10, 0, 0.1) == pytest.approx(0.9**10, abs=1e-15)

    def test_normalization_up_to_64_trials(self):
        for m, p in ((8, 0.3), (64, 0.123)):
            total = sum(bernoulli_pmf(m, r, p) for r in range(m + 1))
            assert abs(total - 1.0) < 1e-10

    def test_mean_identity(self):
        for m, p in ((12, 0.25), (30, 0.61)):
            mean = sum(r * bernoulli_pmf(m, r, p) for r in range(m + 1))
            assert abs(mean - m * p) < 1e-9

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            bernoulli_pmf(5, 6, 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_invalid_p(self, p):
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
            bernoulli_pmf(5, 2, p)


class TestDamagedState:
    def test_dicke42_one_lost_one_projector(self):
        post = damaged_state(dicke(4, 2).density(), 1, [Z_ONE])
        psi = dicke(2, 1).amplitudes
        overlap = np.vdot(psi, post.matrix @ psi).real
        assert overlap == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_lost_ghz_is_classical_for_chsh(self):
        post = damaged_state(ghz(4).density(), 1, [Z_ONE])
        _, value = optimize_settings(
            preset("CHSH"), post, [1, 1],
            options=OptimizeOptions(restarts=8, include_phi=True),
        )
        assert value <= 2.0 + 1e-9

    def test_no_loss_matches_projected_state_path(self):
        config = ScenarioConfig(
            state=StateSpec("Dicke", 4, excitations=2),
            k=2,
            eta_L=0.1,
            eta_H=1.0,
            bell=preset("CHSH"),
        )
        _, via_protocol = projected_state(config)
        via_damaged = damaged_state(
            make_state(config.state).density(), 0, list(config.resolved_projectors())
        )
        np.testing.assert_allclose(via_damaged.matrix, via_protocol.matrix, atol=1e-12)

    def test_zero_projection_on_orthogonal_pattern(self):
        from belldet.detmodel import Z_ZERO

        with pytest.raises(ZeroProjectionError):
            damaged_state(dicke(4, 4).density(), 1, [Z_ZERO])

    @pytest.mark.parametrize(
        "lost,projectors,message",
        [
            (-1, [], r"lost must lie in \[0, 3\]"),
            (4, [], r"lost must lie in \[0, 3\]"),
            (2, [Z_ONE, Z_ONE], "tracing and projecting would consume every qubit"),
        ],
        ids=["negative", "every qubit lost", "every qubit used"],
    )
    def test_loss_and_pattern_must_leave_a_qubit(self, lost, projectors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            damaged_state(dicke(4, 2).density(), lost, projectors)


class TestDickeLossMixture:
    def test_four_two_one(self):
        mix = dicke_loss_mixture(4, 2, 1)
        assert len(mix) == 2
        weights = {spec.excitations: w for w, spec in mix}
        assert weights[2] == pytest.approx(0.5, abs=1e-15)
        assert weights[1] == pytest.approx(0.5, abs=1e-15)
        assert all(spec.n == 3 for _, spec in mix)

    def test_no_loss_is_identity(self):
        mix = dicke_loss_mixture(5, 2, 0)
        assert mix == [(1.0, StateSpec("Dicke", 5, excitations=2))]

    def test_matches_numerical_partial_trace(self):
        for n, e, l in ((4, 2, 1), (5, 3, 2), (6, 2, 3)):
            direct = partial_trace(dicke(n, e).density().matrix, range(l))
            mixed = sum(w * make_state(spec).density().matrix for w, spec in dicke_loss_mixture(n, e, l))
            np.testing.assert_allclose(direct, mixed, atol=1e-12)

    @pytest.mark.parametrize(
        "excitations,lost,message",
        [
            (5, 1, r"excitations must lie in \[0, 4\]"),
            (-1, 1, r"excitations must lie in \[0, 4\]"),
            (2, 4, r"lost must lie in \[0, 3\]"),
            (2, -1, r"lost must lie in \[0, 3\]"),
        ],
        ids=["excitations above n", "negative excitations", "every qubit lost", "negative loss"],
    )
    def test_invalid_input(self, excitations, lost, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dicke_loss_mixture(4, excitations, lost)

    def test_weights_sum_to_one_exactly_in_rational_arithmetic(self):
        for n in range(2, 9):
            for e in range(n + 1):
                for l in range(n):
                    total = sum(
                        Fraction(math.comb(l, j)) * math.comb(n - l, e - j)
                        for j in range(max(0, e - (n - l)), min(l, e) + 1)
                    )
                    assert total == math.comb(n, e)
                    float_total = sum(w for w, _ in dicke_loss_mixture(n, e, l))
                    assert abs(float_total - 1.0) < 1e-14


class TestPsiPlusWeight:
    def test_four_qubit_reference_case(self):
        assert psi_plus_weight(DickeLossSpec(4, 2, 1, 1)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_out_of_range_projector_count_gives_zero(self):
        assert psi_plus_weight(DickeLossSpec(6, 1, 1, 3)) == 0.0

    def test_matches_brute_force_small_cases(self):
        for n, e, l, u in ((4, 2, 1, 0), (4, 2, 1, 1), (5, 2, 2, 0), (5, 3, 1, 2), (6, 3, 2, 1)):
            assert psi_plus_weight(DickeLossSpec(n, e, l, u)) == pytest.approx(
                brute_psi_plus_weight(n, e, l, u), abs=1e-10
            )

    def test_fraction_is_normalized_weight(self):
        spec = DickeLossSpec(4, 2, 1, 1)
        assert psi_plus_fraction(spec) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            DickeLossSpec(4, 2, 2, 0)  # lost must stay below n - 2
        with pytest.raises(ValueError):
            DickeLossSpec(5, 2, 1, 3)  # too many projectors
        with pytest.raises(ValueError, match=r"^excitations must lie in \[0, 4\]$"):
            DickeLossSpec(4, 5, 1, 0)


class TestLostDetectorBellReality:
    """What actually happens to CHSH after losses: the surviving psi+
    fraction never exceeds 2/3 once l >= 1, below the 1/sqrt(2) a
    violation needs, so nonzero overlap alone certifies nothing."""

    @staticmethod
    def horodecki_chsh(rho):
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        t = np.array(
            [
                [float(np.real(np.trace(rho.matrix @ np.kron(a, b)))) for b in paulis]
                for a in paulis
            ]
        )
        eigenvalues = np.sort(np.linalg.eigvalsh(t.T @ t))
        return 2.0 * math.sqrt(eigenvalues[-1] + eigenvalues[-2])

    def test_fraction_closed_form_and_cap(self):
        for n in range(4, 8):
            for e in range(1, n):
                for l in range(1, n - 2):
                    for u in range(n - l - 1):
                        fraction = psi_plus_fraction(DickeLossSpec(n, e, l, u))
                        m = e - u
                        if 1 <= m <= l + 1:
                            expected = 2.0 * m * (l + 2 - m) / ((l + 1) * (l + 2))
                            assert fraction == pytest.approx(expected, abs=1e-12)
                        assert fraction <= 2.0 / 3.0 + 1e-12
                        assert fraction < 1.0 / math.sqrt(2.0)

    def test_no_loss_projects_to_a_pure_bell_state(self):
        spec = DickeLossSpec(5, 3, 0, 2)
        post = damaged_state(dicke(5, 3).density(), 0, spec.projectors())
        _, value = optimize_settings(
            preset("CHSH"), post, [1, 1], options=OptimizeOptions(restarts=8)
        )
        assert value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_lost_qubits_destroy_the_chsh_violation(self):
        cases = [(4, 2, 1, 1), (5, 2, 1, 0), (5, 3, 2, 1), (6, 3, 1, 2)]
        for n, e, l, u in cases:
            spec = DickeLossSpec(n, e, l, u)
            assert psi_plus_weight(spec) > 0.0
            post = damaged_state(dicke(n, e).density(), l, spec.projectors())
            _, value = optimize_settings(
                preset("CHSH"), post, [1, 1],
                options=OptimizeOptions(restarts=8, include_phi=True),
            )
            assert value <= 2.0 + 1e-9
            assert value == pytest.approx(self.horodecki_chsh(post), abs=1e-6)
