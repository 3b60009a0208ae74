import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from belldet import protocol
from belldet import (
    Convention,
    DensityMatrix,
    MeasurementSetting,
    ScenarioConfig,
    StateSpec,
    ZeroProjectionError,
    bell_phi_plus,
    composite_parts,
    critical_eta,
    critical_eta_high,
    critical_visibility,
    damaged_state,
    default_projectors,
    partial_pair,
    preset,
    projected_state,
    quantum_value,
)
from belldet.bell import BellExpression, BellForm, BellTerm
from belldet.detmodel import X_PLUS, Z_ONE, Z_ZERO
from belldet.protocol import (
    _REFINE_RESTARTS, RESIDUAL_TOL, SettingsAssignment, _not_found, _solve_threshold,
    resolve_settings,
)
from belldet.states import make_state
from reference import partial_trace, project_leading, white_noise

ETA_CRIT = 2.0 / (1.0 + math.sqrt(2.0))
TSIRELSON = 2.0 * math.sqrt(2.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def ghz_chsh_config(n=4, **kwargs):
    defaults = dict(state=StateSpec("GHZ", n), k=2, eta_L=0.1, eta_H=1.0, bell=preset("CHSH"))
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def pinned_threshold_closed_form(alpha):
    # one ideal party, the other dressed: exact root for cos(a)|00>+sin(a)|11>
    c, s = math.cos(2 * alpha), math.sin(2 * alpha)
    return 2.0 * (1.0 - c) / (2.0 * math.sqrt(1.0 + s * s) - 2.0 * c)


class TestProjectedState:
    def test_ghz4_default_plus_projections(self):
        p_list, rho = projected_state(ghz_chsh_config())
        assert p_list == pytest.approx([0.5, 0.5], abs=1e-12)
        np.testing.assert_allclose(rho.matrix, bell_phi_plus().density().matrix, atol=1e-12)

    def test_ghz_with_tilted_first_projector_leaves_partial_pair(self):
        alpha = 0.3
        config = ghz_chsh_config(projectors=(MeasurementSetting(2 * alpha), X_PLUS))
        p_list, rho = projected_state(config)
        assert p_list[0] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(rho.matrix, partial_pair(alpha).density().matrix, atol=1e-12)

    def test_orthogonal_projector_raises_zero_projection(self):
        config = ScenarioConfig(
            state=StateSpec("Dicke", 4, excitations=4),
            k=2,
            eta_L=0.1,
            eta_H=1.0,
            bell=preset("CHSH"),
            projectors=(Z_ZERO, Z_ZERO),
        )
        with pytest.raises(ZeroProjectionError):
            projected_state(config)

    def test_sequential_weights_match_single_shot_combined_projector(self):
        config = ScenarioConfig(
            state=StateSpec("Dicke", 5, excitations=2),
            k=2,
            eta_L=0.1,
            eta_H=1.0,
            bell=preset("CHSH"),
            visibility=0.8,
        )
        p_list, _ = projected_state(config)
        rho = white_noise(make_state(config.state).density().matrix, 0.8)
        # the unnormalized chain leaves Tr(P rho P), P the combined projector
        for setting in config.resolved_projectors():
            rho = project_leading(rho, setting.ket())
        single_shot = float(np.trace(rho).real)
        assert abs(np.prod(p_list) - single_shot) < 1e-12

    def test_blind_cluster_path(self):
        config = ScenarioConfig(
            state=StateSpec("Cluster4", 4),
            k=2,
            eta_L=0.1,
            eta_H=1.0,
            bell=preset("CHSH"),
            lost=1,
            projectors=(Z_ZERO,),
        )
        p_list, rho = projected_state(config)
        assert p_list == pytest.approx([0.5], abs=1e-12)
        np.testing.assert_allclose(rho.matrix, bell_phi_plus().density().matrix, atol=1e-12)


# States the dense reference can afford (N <= 8), each with every lost count k = 2 allows.
_REFERENCE_STATES = (
    StateSpec("GHZ", 3),
    StateSpec("GHZ", 5),
    StateSpec("GHZ", 8),
    StateSpec("Dicke", 4, excitations=2),
    StateSpec("Dicke", 6, excitations=3),
    StateSpec("Dicke", 8, excitations=3),
    StateSpec("W", 5),
    StateSpec("W", 7),
    StateSpec("Cluster4", 4),
)
_REFERENCE_CASES = [(spec, lost) for spec in _REFERENCE_STATES for lost in range(spec.n - 1)]


def _dense_reference_chain(rho, lost, projectors):
    """The projection chain spelled out with the reference's dense operations:
    the conditional weights and the renormalized matrix left."""
    rho = partial_trace(rho, range(lost))
    p_list = []
    for setting in projectors:
        post = project_leading(rho, setting.ket())
        p_list.append(float(np.trace(post).real))
        rho = post / p_list[-1]
    return p_list, rho


def _random_projectors(rng, count):
    return tuple(
        MeasurementSetting(rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.1, 2 * math.pi - 0.1))
        for _ in range(count)
    )


@pytest.mark.parametrize("visibility", [0.0, 0.37, 1.0])
@pytest.mark.parametrize(
    "spec,lost",
    _REFERENCE_CASES,
    ids=[f"{spec.kind}{spec.n}-lost{lost}" for spec, lost in _REFERENCE_CASES],
)
def test_projection_matches_dense_reference(spec, lost, visibility):
    rng = np.random.default_rng([spec.n, lost, int(100 * visibility)])
    projectors = _random_projectors(rng, spec.n - 2 - lost)
    config = ScenarioConfig(
        state=spec, k=2, eta_L=0.1, eta_H=1.0, bell=preset("CHSH"),
        projectors=projectors, visibility=visibility, lost=lost,
    )
    noisy = white_noise(make_state(spec).density().matrix, visibility)
    p_ref, rho_ref = _dense_reference_chain(noisy, lost, projectors)
    p_list, rho = projected_state(config)
    np.testing.assert_allclose(p_list, p_ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(rho.matrix, rho_ref, rtol=0.0, atol=1e-12)
    damaged = damaged_state(DensityMatrix(spec.n, noisy), lost, projectors)
    np.testing.assert_allclose(damaged.matrix, rho_ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("lost", [0, 1, 2])
def test_damaged_state_matches_dense_reference_on_a_complex_mixed_state(lost):
    rng = np.random.default_rng(lost)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = DensityMatrix(4, g @ g.conj().T)
    projectors = _random_projectors(rng, 3 - lost)
    _, rho_ref = _dense_reference_chain(rho.matrix, lost, projectors)
    damaged = damaged_state(rho, lost, projectors)
    np.testing.assert_allclose(damaged.matrix, rho_ref, rtol=0.0, atol=1e-12)


class TestComposite:
    def test_ghz4_reference_value(self):
        lhs = composite_parts(ghz_chsh_config())[0]
        assert lhs == pytest.approx(0.01 * 0.25 * (TSIRELSON - 2.0), abs=1e-9)

    def test_zero_at_threshold(self):
        lhs = composite_parts(ghz_chsh_config(eta_H=ETA_CRIT))[0]
        assert abs(lhs) < 1e-9

    def test_maximally_mixed_never_violates(self):
        lhs = composite_parts(ghz_chsh_config(visibility=0.0))[0]
        assert lhs <= 0.0

    def test_eta_L_cannot_flip_the_sign(self):
        settings = None
        signs = []
        for eta_L in (1e-3, 1e-1, 1.0):
            config = ghz_chsh_config(eta_L=eta_L, eta_H=0.9)
            signs.append(math.copysign(1.0, composite_parts(config, restarts=12)[0]))
        assert len(set(signs)) == 1 and signs[0] > 0


class TestCriticalEta:
    def test_ghz3_default_projections(self):
        result = critical_eta_high(ghz_chsh_config(n=3), restarts=24)
        assert result.found
        assert result.critical_value == pytest.approx(ETA_CRIT, abs=1e-6)
        assert result.achieved_residual < 1e-9

    def test_threshold_consistency_with_composite(self):
        result = critical_eta_high(ghz_chsh_config(), restarts=24)
        lhs = composite_parts(ghz_chsh_config(eta_H=result.critical_value), restarts=24)[0]
        assert abs(lhs) < 1e-8

    def test_not_found_without_violation(self):
        # frozen settings that cannot violate: both parties measure sigma_z
        frozen = ((Z_ZERO, Z_ZERO), (Z_ZERO, Z_ZERO))
        result = critical_eta_high(ghz_chsh_config(settings=frozen))
        assert not result.found
        assert result.critical_value is None

    def test_monotone_in_eta_at_fixed_settings(self):
        config = ghz_chsh_config()
        _, rho = projected_state(config)
        settings = [
            [MeasurementSetting(0.0), MeasurementSetting(math.pi / 2)],
            [MeasurementSetting(math.pi / 4), MeasurementSetting(-math.pi / 4)],
        ]
        values = [
            quantum_value(preset("CHSH"), rho, settings, [eta, eta]) for eta in (0.83, 0.9, 1.0)
        ]
        assert values[0] <= values[1] <= values[2]


class TestSymmetricCriticalEta:
    def test_chsh_on_bell_pair(self):
        result = critical_eta(preset("CHSH"), bell_phi_plus().density(), restarts=24)
        assert result.found
        assert result.critical_value == pytest.approx(ETA_CRIT, abs=1e-6)

    def test_pinned_party_matches_closed_form(self):
        # thresholds approach 1/2 for weak entanglement but never cross it;
        # at alpha = pi/4 the marginal term vanishes and the root is 1/sqrt(2)
        thresholds = []
        for alpha in (math.pi / 4, 0.2, 0.1):
            state = partial_pair(alpha).density()
            result = critical_eta(preset("CHSH"), state, pins=[1.0, None], restarts=24)
            assert result.found
            assert result.critical_value == pytest.approx(
                pinned_threshold_closed_form(alpha), abs=1e-6
            )
            thresholds.append(result.critical_value)
        assert thresholds[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        assert thresholds == sorted(thresholds, reverse=True)
        assert 0.5 < min(thresholds) < 0.51

    def test_pinned_is_easier_than_symmetric(self):
        pinned = critical_eta(
            preset("CHSH"), bell_phi_plus().density(), pins=[1.0, None], restarts=24
        )
        assert pinned.critical_value < ETA_CRIT

    def test_not_found_on_product_state(self):
        result = critical_eta(preset("CHSH"), partial_pair(0.0).density(), restarts=12)
        assert not result.found
        assert result.diagnostics["reason"] == "no violation at eta_H = 1"


class TestPinnedCriticalEta:
    @pytest.mark.parametrize(
        "pins, message",
        [
            # every party pinned leaves no eta to solve for (a degree-0 interpolant)
            ([1.0, 1.0], "at least one party free"),
            ([0.9, 0.0], "at least one party free"),
            ([None], "must list 2 entries"),
            ([None, None, None], "must list 2 entries"),
            ([1.0, None, None], "must list 2 entries"),
            ([1.5, None], "outside"),
            ([None, -0.1], "outside"),
        ],
    )
    def test_bad_pins_are_an_error(self, pins, message):
        with pytest.raises(ValueError, match=message):
            critical_eta(preset("CHSH"), bell_phi_plus().density(), pins=pins)

    def test_pins_are_checked_once_at_entry(self, monkeypatch):
        calls = []
        original = protocol.validate_efficiency

        def counting(eta):
            calls.append(eta)
            return original(eta)

        monkeypatch.setattr(protocol, "validate_efficiency", counting)
        result = critical_eta(
            preset("CHSH"), partial_pair(0.2).density(), pins=[1.0, None], restarts=4
        )
        assert result.found
        assert calls == [1.0]

    # ROADMAP item 8's CH table on cos(a)|00> + sin(a)|11>, party A pinned at eta = 1.
    # The values are this solver's own, measured at 16 restarts: regressions, not oracles.
    _CH_TABLE = {0.6: (0.6346940159015311, 0.7823664742540375),
                 0.15: (0.5109321900215543, 0.6908046439354445)}

    def test_ch_trinary_pinned_threshold_table(self):
        ch = preset("EBERHARD_CH")
        pinned_by_alpha = {}
        for alpha, (pinned_expected, symmetric_expected) in self._CH_TABLE.items():
            state = partial_pair(alpha).density()
            pinned = critical_eta(ch, state, [1.0, None], Convention.TRINARY, restarts=16)
            symmetric = critical_eta(ch, state, None, Convention.TRINARY, restarts=16)
            assert pinned.found and symmetric.found
            # the Cabello-Larsson limit 1/2 bounds a one-sided threshold from below
            assert 0.5 < pinned.critical_value < symmetric.critical_value
            assert pinned.critical_value == pytest.approx(pinned_expected, abs=1e-6)
            assert symmetric.critical_value == pytest.approx(symmetric_expected, abs=1e-6)
            pinned_by_alpha[alpha] = pinned.critical_value
        assert pinned_by_alpha[0.15] < pinned_by_alpha[0.6]


@pytest.mark.parametrize(
    "filename", ["ghz4.json", "eberhard_alpha005.json", "dicke42_damaged.json"]
)
def test_critical_eta_high_is_critical_eta_on_the_projected_state(filename):
    """The config adapter projects, solves with every party free and only adds
    the projection probabilities, found or not."""
    config = ScenarioConfig.from_json_dict(json.loads((CONFIG_DIR / filename).read_text()))
    p_list, rho = projected_state(config)
    adapted = critical_eta_high(config, restarts=8, seed=3)
    direct = critical_eta(config.bell, rho, None, config.convention, 8, 3, config.settings)
    assert adapted.found == (filename != "dicke42_damaged.json")
    assert adapted.diagnostics.pop("projection_probs") == p_list
    assert adapted == direct


class TestCriticalVisibility:
    def test_bell_pair_threshold(self):
        config = ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=1.0, eta_H=1.0, bell=preset("CHSH")
        )
        result = critical_visibility(config, restarts=24)
        assert result.found
        assert result.critical_value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        assert result.achieved_residual < 1e-9

    def test_noise_branch_closed_form_agrees(self):
        # v* solves v (Q_pure - L) + (1 - v) (Q_noise - L) = 0 for the reported Bell values
        config = ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=1.0, eta_H=1.0, bell=preset("CHSH")
        )
        result = critical_visibility(config, restarts=24)
        gap_pure = result.diagnostics["bell_value_pure"] - 2.0
        gap_noise = result.diagnostics["bell_value_noise"] - 2.0
        assert result.critical_value == pytest.approx(
            gap_noise / (gap_noise - gap_pure), abs=1e-15
        )
        assert "closed_form_noise_branch" not in result.diagnostics

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
    @pytest.mark.parametrize("kind", ["W", "Dicke"])
    def test_projected_pair_thresholds_down_to_small_roots(self, kind, n):
        """The default projectors leave psi+ with weight prod p = 2 / C(N, e), so
        v* = 1 / (1 + 2^(N-3) prod p (2 sqrt 2 - 2)): 9.2e-5 for W_20 and 0.46 for
        Dicke(20, 10), where the slope of the composite is 1.7e-5."""
        excitations = 1 if kind == "W" else n // 2
        config = ScenarioConfig(
            state=StateSpec(kind, n, excitations=None if kind == "W" else excitations), k=2,
            eta_L=0.5, eta_H=1.0, bell=preset("CHSH"),
        )
        result = critical_visibility(config, restarts=4)
        p_prod = 2.0 / math.comb(n, excitations)
        expected = 1.0 / (1.0 + 2.0 ** (n - 3) * p_prod * (TSIRELSON - 2.0))
        assert result.status == "ok", result.diagnostics
        assert result.critical_value == pytest.approx(expected, abs=1e-9)

    def test_not_found_below_efficiency_threshold(self):
        config = ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=1.0, eta_H=0.5, bell=preset("CHSH")
        )
        result = critical_visibility(config, restarts=12)
        assert not result.found

    @pytest.mark.parametrize("eta_L", [1.0, 0.1, 0.01, 1e-300])
    def test_no_violation_at_full_visibility_whatever_eta_L(self, eta_L):
        """GHZ_6 at eta_H = 0.8: Q = 2 sqrt(2) 0.64 + 2 (0.2)^2 = 1.890 < 2 at v = 1.
        The guard reads Q - L, which eta_L^4 prod(p) once shrank past -1e-9."""
        config = ScenarioConfig(
            state=StateSpec("GHZ", 6), k=2, eta_L=eta_L, eta_H=0.8, bell=preset("CHSH")
        )
        result = critical_visibility(config, restarts=4)
        assert result.status == "not_found"
        assert result.diagnostics["reason"] == "no violation at v = 1"
        expected = 2.0 * math.sqrt(2.0) * 0.64 + 2.0 * 0.2**2
        assert result.diagnostics["value_at_one"] == pytest.approx(expected, abs=1e-9)

    def test_threshold_does_not_depend_on_eta_L(self):
        doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
        config = ScenarioConfig.from_json_dict(doc)
        results = [
            critical_visibility(replace(config, eta_L=eta_L), restarts=4)
            for eta_L in (1.0, 0.1, 0.01, 1e-300)
        ]
        assert {r.status for r in results} == {"ok"}
        assert len({r.critical_value for r in results}) == 1

    def test_residual_is_checked_on_the_projection_paths_state(self, monkeypatch):
        # A projection path that dropped the noise would leave Q - L = 2 sqrt(2) - 2
        # at the closed-form root: the solve must report it, not "ok".
        original = protocol.projected_state
        monkeypatch.setattr(
            protocol, "projected_state", lambda c: original(replace(c, visibility=1.0))
        )
        config = ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=1.0, eta_H=1.0, bell=preset("CHSH")
        )
        result = critical_visibility(config, restarts=8)
        assert result.status == "not_converged" and "reason" in result.diagnostics
        assert result.critical_value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert result.achieved_residual == pytest.approx(TSIRELSON - 2.0, abs=1e-9)

    @staticmethod
    def bell_pair(bell, convention=Convention.FOLD):
        return ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=1.0, eta_H=1.0, bell=bell,
            convention=convention,
        )

    def test_value_just_below_the_bound_at_full_visibility_is_a_root_at_one(self):
        # Q - L = -5e-10 at v = 1 is within RESIDUAL_TOL of the bound, so v* = 1 itself
        bell = replace(preset("CHSH"), classical_bound=TSIRELSON + 5e-10)
        result = critical_visibility(self.bell_pair(bell), restarts=8)
        assert result.status == "ok"
        assert result.critical_value == 1.0
        assert result.achieved_residual == pytest.approx(5e-10, abs=1e-12)

    def test_violation_at_every_visibility_has_no_root(self):
        # L = -10 lies below even the white-noise value Q(I/4) = 0
        bell = replace(preset("CHSH"), classical_bound=-10.0)
        result = critical_visibility(self.bell_pair(bell), restarts=8)
        assert result.status == "not_found"
        assert result.diagnostics["reason"] == "no sign change found below the upper end"
        assert result.diagnostics["bell_value_noise"] == 0.0
        assert result.diagnostics["bell_value_pure"] == pytest.approx(TSIRELSON, abs=1e-9)

    def test_composite_that_ignores_the_state_has_no_root(self):
        # P(*, *) = 1 on every state, so the composite is 1 - 0.5 at v = 0 and at v = 1
        bell = BellExpression(
            2, 2, BellForm.PROBABILITY, (BellTerm((0, 0), 1.0, ("*", "*")),), 0.5
        )
        result = critical_visibility(self.bell_pair(bell, Convention.TRINARY), restarts=8)
        assert result.status == "not_found"
        assert result.diagnostics == {"reason": "composite does not depend on v"}

    @pytest.mark.parametrize("eta_H", [1.0, 0.95, 0.9, 0.85])
    def test_auto_settings_reach_the_closed_form(self, eta_H):
        # CHSH(eta) = v 2 sqrt(2) eta^2 + 2 (1 - eta)^2 on the noisy Phi+ pair
        config = ScenarioConfig(
            state=StateSpec("BellPhiPlus", 2), k=2, eta_L=1.0, eta_H=eta_H, bell=preset("CHSH")
        )
        result = critical_visibility(config, restarts=8)
        assert result.found
        expected = (2.0 - eta_H) / (math.sqrt(2.0) * eta_H)
        assert result.critical_value == pytest.approx(expected, abs=1e-9)


def _three_party_probability_expression(rng):
    labels = ("+", "-", "0", "*")
    terms = tuple(
        BellTerm(
            tuple(rng.integers(0, 2, size=3).tolist()), float(rng.normal()),
            tuple(rng.choice(labels, size=3).tolist()),
        )
        for _ in range(10)
    )
    return BellExpression(3, 2, BellForm.PROBABILITY, terms, 0.0)


@pytest.mark.parametrize(
    "expr,convention",
    [
        (preset("CHSH"), Convention.FOLD),
        (preset("EBERHARD_CH"), Convention.TRINARY),
        (_three_party_probability_expression(np.random.default_rng(3)), Convention.TRINARY),
    ],
    ids=["CHSH", "CH", "3-party"],
)
def test_white_noise_value_does_not_depend_on_the_settings(expr, convention):
    """Q(I/d) reads only each dressed operator's trace, the same for every
    projector: the reason the critical visibility has a closed form."""
    k = expr.n_parties
    rng = np.random.default_rng(k)
    etas = rng.uniform(0.3, 1.0, size=k)
    draws = [_random_settings(rng, k) for _ in range(8)]
    noise = DensityMatrix(k, np.eye(2**k) / 2**k)
    ghz = make_state(StateSpec("GHZ", k)).density()
    assert np.ptp([quantum_value(expr, noise, s, etas, convention) for s in draws]) < 1e-14
    # the same settings do move the value on a pure state
    assert np.ptp([quantum_value(expr, ghz, s, etas, convention) for s in draws]) > 1e-3


def engine_critical_visibility(
    config: ScenarioConfig,
    restarts: int = 64,
    seed: int = 0,
) -> protocol.SolveResult:
    """The threshold-engine solve that ``critical_visibility`` replaced,
    kept as the reference for the closed form's roots; ``optimize_at``
    records the settings the engine ends on."""
    config.require_valid()
    p_list, rho_prime = projected_state(replace(config, visibility=1.0))
    expr, bound, m = config.bell, config.bell.classical_bound, config.n_projections
    etas = [config.eta_H] * config.k
    p_prod = float(np.prod(p_list))
    pure = rho_prime.matrix
    noise = DensityMatrix(config.k, np.eye(len(pure), dtype=complex) / len(pure))

    def q(rho: DensityMatrix, settings: SettingsAssignment) -> float:
        return quantum_value(expr, rho, settings, etas, config.convention)

    def endpoints(settings: SettingsAssignment) -> tuple[float, float]:
        """composite / eta_L^m at v = 0 and at v = 1."""
        return 2.0**-m * (q(noise, settings) - bound), p_prod * (q(rho_prime, settings) - bound)

    def gap_at(v: float, settings: SettingsAssignment) -> float:
        at_zero, at_one = endpoints(settings)
        return (1.0 - v) * at_zero + v * at_one

    def mixed(v: float) -> DensityMatrix:
        pure_weight, noise_weight = v * p_prod, (1.0 - v) * 2.0**-m
        matrix = (pure_weight * pure + noise_weight * noise.matrix) / (pure_weight + noise_weight)
        return DensityMatrix(config.k, matrix)

    optimized: list[SettingsAssignment] = []

    def optimize_at(v: float, warm: SettingsAssignment):
        settings, q_v = resolve_settings(
            expr, mixed(v), etas, config.convention, config.settings, _REFINE_RESTARTS, seed + 1,
            warm,
        )
        optimized.append(settings)
        return settings, q_v - bound

    settings, q_pure = resolve_settings(
        expr, rho_prime, etas, config.convention, config.settings, restarts, seed
    )
    if q_pure - bound < -RESIDUAL_TOL:
        return _not_found("no violation at v = 1", value_at_one=q_pure)
    at_zero, at_one = endpoints(settings)
    if at_zero == at_one:
        return _not_found("composite does not depend on v")
    result = _solve_threshold(gap_at, 1, optimize_at, settings, 0.0)
    settings = optimized[-1] if optimized else settings
    result.diagnostics["bell_value_pure"] = q(rho_prime, settings)
    result.diagnostics["bell_value_noise"] = q(noise, settings)
    return result


_RANDOM_STATES = (
    StateSpec("GHZ", 3), StateSpec("GHZ", 4), StateSpec("W", 3), StateSpec("W", 4),
    StateSpec("Dicke", 4, excitations=2), StateSpec("Cluster4", 4),
    StateSpec("PartialPair", 2, alpha=0.3),
)


def _random_visibility_scenario(seed):
    rng = np.random.default_rng([17, seed])
    spec = _RANDOM_STATES[seed % len(_RANDOM_STATES)]
    name, convention = (("CHSH", Convention.FOLD), ("EBERHARD_CH", Convention.TRINARY))[seed % 2]
    # half keep the default projectors, which leave a Bell pair behind
    projectors = None if seed % 4 < 2 else tuple(
        MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        for _ in range(spec.n - 2)
    )
    config = ScenarioConfig(
        state=spec, k=2, eta_L=rng.uniform(0.1, 1.0), eta_H=rng.uniform(0.8, 1.0),
        bell=preset(name), projectors=projectors, convention=convention,
    )
    return config, int(rng.choice([0, 2, 8])), int(rng.integers(1000))


def test_critical_visibility_matches_the_engine_reference():
    statuses = set()
    for seed in range(42):
        config, restarts, optimizer_seed = _random_visibility_scenario(seed)
        result = critical_visibility(config, restarts=restarts, seed=optimizer_seed)
        reference = engine_critical_visibility(config, restarts=restarts, seed=optimizer_seed)
        assert result.status == reference.status, seed
        statuses.add(result.status)
        if reference.critical_value is None:
            assert result.critical_value is None
        else:
            assert result.critical_value == pytest.approx(reference.critical_value, abs=1e-12)
    assert statuses == {"ok", "not_found"}


# Tsirelson's settings for Phi+ under CHSH: A = Z, X and B = (Z +- X)/sqrt(2).
TSIRELSON_SETTINGS = (
    (MeasurementSetting(0.0), MeasurementSetting(math.pi / 2)),
    (MeasurementSetting(math.pi / 4), MeasurementSetting(-math.pi / 4)),
)


@pytest.mark.parametrize("eta_H", [1.0, 0.9])
def test_fixed_settings_never_reach_the_optimizer(monkeypatch, eta_H):
    def optimizer(*args, **kwargs):
        raise AssertionError("fixed settings were optimized")

    monkeypatch.setattr(protocol, "optimize_settings", optimizer)
    config = ScenarioConfig(
        state=StateSpec("BellPhiPlus", 2), k=2, eta_L=0.5, eta_H=eta_H, bell=preset("CHSH"),
        settings=TSIRELSON_SETTINGS,
    )
    # Under FOLD, CHSH(eta) = 2 sqrt(2) eta^2 + 2 (1 - eta)^2 on Phi+ and
    # 2 (1 - eta)^2 on the maximally mixed state.
    lhs, parts = protocol.composite_parts(config)
    chsh = 2.0 * math.sqrt(2.0) * eta_H**2 + 2.0 * (1.0 - eta_H) ** 2
    assert lhs == pytest.approx(chsh - 2.0, abs=1e-12)
    assert parts["settings"] == [[s.to_json_dict() for s in party] for party in TSIRELSON_SETTINGS]
    threshold = critical_eta_high(config)
    assert threshold.found
    assert threshold.critical_value == pytest.approx(ETA_CRIT, abs=1e-12)
    visibility = critical_visibility(config)
    assert visibility.found
    assert visibility.critical_value == pytest.approx(
        (2.0 - eta_H) / (math.sqrt(2.0) * eta_H), abs=1e-12
    )


class TestConfigValidation:
    def test_k_exceeds_n(self):
        config = ghz_chsh_config(k=5)
        assert any("k" in issue for issue in config.validate())

    def test_efficiency_out_of_range(self):
        config = ghz_chsh_config(eta_H=1.2)
        assert any("eta_H" in issue for issue in config.validate())

    def test_projector_count_mismatch(self):
        config = ghz_chsh_config(projectors=(X_PLUS,))
        assert any("projectors" in issue for issue in config.validate())

    def test_convention_mismatch(self):
        config = ghz_chsh_config(convention=Convention.TRINARY)
        assert any("convention" in issue for issue in config.validate())

    def test_lost_beyond_the_projecting_parties(self):
        assert ghz_chsh_config(lost=3).validate() == [
            "lost: must satisfy 0 <= lost <= N-k, got 3"
        ]

    def test_settings_shape_mismatch(self):
        one_setting_each = ((X_PLUS,), (X_PLUS,))
        assert ghz_chsh_config(settings=one_setting_each).validate() == [
            "settings: shape does not match the Bell expression"
        ]

    def test_valid_config_has_no_issues(self):
        assert ghz_chsh_config().validate() == []

    def test_json_round_trip(self):
        config = ghz_chsh_config(projectors=(MeasurementSetting(0.2), X_PLUS))
        assert ScenarioConfig.from_json_dict(config.to_json_dict()) == config


class TestDefaultProjectors:
    def test_ghz_all_plus(self):
        assert default_projectors(StateSpec("GHZ", 5), 3) == [X_PLUS, X_PLUS, X_PLUS]

    def test_cluster_pattern(self):
        assert default_projectors(StateSpec("Cluster4", 4), 2) == [X_PLUS, Z_ZERO]
        assert default_projectors(StateSpec("Cluster4", 4), 1, skip=1) == [Z_ZERO]

    def test_dicke_pattern_has_excitations_minus_one_ones(self):
        assert default_projectors(StateSpec("Dicke", 5, excitations=3), 3) == [
            Z_ONE,
            Z_ONE,
            Z_ZERO,
        ]

    def test_dicke_defaults_leave_a_bell_state(self):
        config = ScenarioConfig(
            state=StateSpec("Dicke", 4, excitations=2),
            k=2,
            eta_L=0.1,
            eta_H=1.0,
            bell=preset("CHSH"),
        )
        p_list, rho = projected_state(config)
        assert p_list == pytest.approx([0.5, 2.0 / 3.0], abs=1e-12)
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)


class TestThresholdEngine:
    def test_not_converged_when_rounds_run_out(self):
        # each re-optimization lowers the root but never closes the residual
        def value_at(x, n):
            return x - 0.5 * 0.9**n

        calls = []

        def optimize_at(x, n):
            calls.append(n)
            return n + 1, 1.0

        result = protocol._solve_threshold(value_at, 1, optimize_at, 0, 0.0)
        assert result.status == "not_converged"
        assert not result.found
        assert result.iterations == protocol._MAX_ROUNDS
        assert calls == list(range(protocol._MAX_ROUNDS))  # each round warm-starts from the last
        assert result.achieved_residual >= protocol.RESIDUAL_TOL
        assert result.critical_value == pytest.approx(0.5 * 0.9 ** (protocol._MAX_ROUNDS - 1))

    def test_ok_bounds_the_threshold_error_on_a_shallow_crossing(self):
        # Eberhard's gap rises about 5e-3 per unit eta: a root 1e-7 above the
        # threshold leaves an optimized residual of 5e-10, under RESIDUAL_TOL.
        # The settings stand for the root of their own fixed-settings line.
        slope, threshold = 5e-3, 0.6742959781982696

        def value_at(x, root):
            return slope * (x - root)

        def optimize_at(x, root):
            return threshold, slope * (x - threshold)

        result = protocol._solve_threshold(value_at, 1, optimize_at, threshold + 1e-7, 0.0)
        assert result.status == "ok"
        assert result.critical_value == pytest.approx(threshold, abs=1e-9)
        assert result.iterations == 2

    def test_round_that_starts_below_the_bound_roots_at_its_upper_end(self):
        # Round 1 roots at 0.5; the settings it returns put the value at 0.5 below
        # the bound, so round 2 takes hi = 0.5 itself and the optimum there closes.
        def value_at(x, settings):
            return x - (0.5 if settings == 0 else 0.6)

        def optimize_at(x, settings):
            return settings + 1, 1.0 if settings == 0 else 0.0

        result = protocol._solve_threshold(value_at, 1, optimize_at, 0, 0.0)
        assert result.status == "ok"
        assert result.iterations == 2
        assert result.critical_value == pytest.approx(0.5, abs=1e-12)
        assert result.bracket == (0.0, result.critical_value)
        assert result.achieved_residual == 0.0

    def test_root_below_the_floor_counts_as_none(self):
        # f turns non-negative at 1e-6, below the floor of 1e-4 of the upper end
        def value_at(x, settings):
            return x - 1e-6

        result = protocol._solve_threshold(
            value_at, 1, lambda x, s: (s, value_at(x, s)), None, 0.0
        )
        assert result.status == "not_found"


def _random_settings(rng, n_parties):
    return [
        [MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(2)]
        for _ in range(n_parties)
    ]


def _assert_polynomial_of_degree(q, degree, rng):
    nodes = np.linspace(0.2, 1.0, degree + 1)
    poly = np.polynomial.Polynomial.fit(nodes, [q(x) for x in nodes], degree)
    for x in rng.uniform(0.0, 1.0, size=5):
        assert q(x) == pytest.approx(poly(x), abs=1e-12)
    assert abs(poly.convert().coef[-1]) > 1e-3


@pytest.mark.parametrize(
    "name,convention,pins",
    [
        ("CHSH", Convention.FOLD, [None, None]),
        ("EBERHARD_CH", Convention.TRINARY, [None, None]),
        ("CHSH", Convention.FOLD, [0.9, None]),
        ("EBERHARD_CH", Convention.TRINARY, [None, 0.8]),
    ],
)
def test_quantum_value_is_a_polynomial_of_degree_free_parties(name, convention, pins):
    rng = np.random.default_rng(len(name) + pins.count(None))
    state = partial_pair(0.3).density()
    settings = _random_settings(rng, 2)

    def q(eta):
        etas = [eta if pin is None else pin for pin in pins]
        return quantum_value(preset(name), state, settings, etas, convention)

    _assert_polynomial_of_degree(q, pins.count(None), rng)


@pytest.mark.parametrize(
    "name,convention", [("CHSH", Convention.FOLD), ("EBERHARD_CH", Convention.TRINARY)]
)
def test_composite_is_affine_in_visibility(name, convention):
    rng = np.random.default_rng(7)
    settings = tuple(tuple(party) for party in _random_settings(rng, 2))
    config = ghz_chsh_config(
        eta_L=1.0, eta_H=0.9, bell=preset(name), convention=convention, settings=settings,
        projectors=(MeasurementSetting(0.4, 0.3), X_PLUS),
    )
    vs = (0.2, 0.55, 0.9)
    values = [composite_parts(replace(config, visibility=v))[0] for v in vs]
    slope_low = (values[1] - values[0]) / (vs[1] - vs[0])
    slope_high = (values[2] - values[1]) / (vs[2] - vs[1])
    assert slope_low == pytest.approx(slope_high, abs=1e-12)
    assert abs(slope_low) > 1e-3


# The bracket scan and bisection the threshold solvers used before the
# polynomial root, kept verbatim as the reference for the engine's roots.
_BISECT_TOL = 1e-12


def _bisect(f, lo, hi, tol=_BISECT_TOL):
    """Root of f on [lo, hi] with f(lo) < 0 <= f(hi), by bisection."""
    bracket = (lo, hi)
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations, bracket


def _scan_bracket_low(f, hi):
    """Find some eta below ``hi`` where the violation disappears."""
    for factor in (0.75, 0.5, 0.3, 0.15, 0.05, 0.01, 1e-3, 1e-4):
        lo = hi * factor
        if f(lo) < 0.0:
            return lo
    return None


_SCENARIO_FILES = sorted(
    path.name for path in CONFIG_DIR.glob("*.json") if "state" in json.loads(path.read_text())
)
# Closed forms: every CHSH scenario leaves a maximally entangled pair; the
# Eberhard value is the seed commit's, repeatable to 1e-12 across seeds.
_EXPECTED_ETA = {"eberhard_alpha005.json": 0.6742959781982696, "dicke42_damaged.json": None}


@pytest.mark.parametrize("filename", _SCENARIO_FILES)
def test_critical_eta_matches_reference_bisection(filename, monkeypatch):
    config = ScenarioConfig.from_json_dict(json.loads((CONFIG_DIR / filename).read_text()))
    # the settings a round's root is taken at are the next optimization's warm start
    warm = []
    original = protocol.optimize_settings

    def recording(*args, **kwargs):
        warm.extend(args[4].warm_starts)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "optimize_settings", recording)
    result = critical_eta_high(config, restarts=8)
    expected = _EXPECTED_ETA.get(filename, ETA_CRIT)
    if expected is None:
        assert not result.found
        assert result.diagnostics["value_at_one"] <= config.bell.classical_bound + 1e-11
        return
    assert result.found
    assert result.critical_value == pytest.approx(expected, abs=1e-9)
    settings = warm[-1] if config.settings is None else config.settings
    _, rho = projected_state(config)

    def f(eta):
        value = quantum_value(config.bell, rho, settings, [eta] * config.k, config.convention)
        return value - config.bell.classical_bound

    hi = result.bracket[1]
    root, _, _ = _bisect(f, _scan_bracket_low(f, hi), hi)
    assert abs(root - result.critical_value) <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_eberhard_critical_eta_holds_for_every_seed(seed):
    """An "ok" threshold is within 1e-9 whichever random starts the
    optimizer draws, not only for the default seed."""
    config = ScenarioConfig.from_json_dict(
        json.loads((CONFIG_DIR / "eberhard_alpha005.json").read_text())
    )
    result = critical_eta_high(config, restarts=8, seed=seed)
    assert result.found
    assert result.critical_value == pytest.approx(_EXPECTED_ETA["eberhard_alpha005.json"], abs=1e-9)
