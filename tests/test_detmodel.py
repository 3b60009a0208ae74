import math

import numpy as np
import pytest

from belldet import (
    MeasurementSetting,
    basis_state,
    bell_phi_plus,
    click_probabilities,
    dressed_effects,
    dressed_observable,
    expectation,
    partial_trace,
)
from belldet.detmodel import X_PLUS, Z_ONE, Z_ZERO, json_float, validate_efficiency

ETA_CRIT = 2.0 / (1.0 + math.sqrt(2.0))


def test_named_settings():
    np.testing.assert_allclose(Z_ZERO.ket(), [1, 0], atol=1e-15)
    np.testing.assert_allclose(Z_ONE.ket(), [0, 1], atol=1e-12)
    np.testing.assert_allclose(X_PLUS.ket(), [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_projectors_sum_to_identity_exactly():
    setting = MeasurementSetting(0.77, 1.3)
    np.testing.assert_array_equal(
        setting.projector_plus() + setting.projector_minus(), np.eye(2)
    )


class TestDressedEffects:
    def test_ideal_detector(self):
        setting = MeasurementSetting(0.9)
        plus, minus = dressed_effects(setting, 1.0)
        np.testing.assert_allclose(plus.operator, setting.projector_plus(), atol=1e-15)
        np.testing.assert_allclose(minus.operator, setting.projector_minus(), atol=1e-15)

    def test_blind_detector_always_reports_minus(self):
        plus, minus = dressed_effects(MeasurementSetting(0.9), 0.0)
        np.testing.assert_allclose(plus.operator, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(minus.operator, np.eye(2), atol=1e-15)

    def test_effects_sum_to_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            setting = MeasurementSetting(rng.uniform(0, 2 * math.pi))
            plus, minus = dressed_effects(setting, rng.uniform())
            np.testing.assert_allclose(plus.operator + minus.operator, np.eye(2), atol=1e-15)

    def test_threshold_efficiency_click_split(self):
        rho = basis_state("0").density()
        plus, minus = dressed_effects(Z_ZERO, 0.8284)
        p_plus = expectation(rho, plus)
        p_minus = expectation(rho, minus)
        assert p_plus == pytest.approx(0.8284, abs=1e-12)
        assert p_minus == pytest.approx(0.1716, abs=1e-12)


class TestDressedObservable:
    def test_ideal_is_plus_minus_one(self):
        obs = dressed_observable(MeasurementSetting(0.4), 1.0)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(obs)), [-1.0, 1.0], atol=1e-12)

    def test_half_efficiency_eigenvalues(self):
        obs = dressed_observable(MeasurementSetting(0.4), 0.5)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(obs)), [-1.0, 0.0], atol=1e-12)

    def test_plus_eigenstate_expectation(self):
        for eta in (0.0, 0.3, 0.9, 1.0):
            setting = MeasurementSetting(1.1)
            rho = np.outer(setting.ket(), setting.ket().conj())
            value = float(np.trace(rho @ dressed_observable(setting, eta)).real)
            assert value == pytest.approx(2 * eta - 1, abs=1e-12)

    def test_expectation_affine_in_eta(self):
        setting = MeasurementSetting(0.8)
        rho = partial_trace(bell_phi_plus().density(), [1])
        values = [
            float(np.trace(rho.matrix @ dressed_observable(setting, eta)).real)
            for eta in (0.0, 0.5, 1.0)
        ]
        assert abs(values[1] - 0.5 * (values[0] + values[2])) < 1e-12


class TestClickProbabilities:
    def test_perfect_detector_on_plus_eigenstate(self):
        setting = MeasurementSetting(0.6)
        rho = np.outer(setting.ket(), setting.ket().conj())
        assert click_probabilities(setting, 1.0, rho) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_two_thirds_on_maximally_mixed(self):
        probs = click_probabilities(MeasurementSetting(0.6), 2.0 / 3.0, np.eye(2) / 2)
        assert probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_point_nine_on_reduced_bell_pair(self):
        rho = partial_trace(bell_phi_plus().density(), [0])
        probs = click_probabilities(MeasurementSetting(1.9), 0.9, rho)
        assert probs == pytest.approx((0.45, 0.45, 0.10), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            setting = MeasurementSetting(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            ket = np.array([rng.normal() + 1j * rng.normal() for _ in range(2)])
            ket /= np.linalg.norm(ket)
            probs = click_probabilities(setting, rng.uniform(), np.outer(ket, ket.conj()))
            assert abs(sum(probs) - 1.0) < 1e-12


def test_validate_efficiency_range():
    assert validate_efficiency(ETA_CRIT) == pytest.approx(0.8284271247461903)
    with pytest.raises(ValueError):
        validate_efficiency(1.0001)
    with pytest.raises(ValueError):
        validate_efficiency(-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_float_rejects_non_finite_numbers(value):
    with pytest.raises(ValueError, match="theta must be finite"):
        json_float(value, "theta")
    with pytest.raises(ValueError, match="theta must be finite"):
        MeasurementSetting.from_json_dict({"theta": value})


def test_json_float_keeps_finite_numbers():
    assert json_float(-1.5e308, "x") == -1.5e308
    assert json_float(3, "x") == 3.0 and type(json_float(3, "x")) is float
