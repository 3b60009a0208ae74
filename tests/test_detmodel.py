import math

import numpy as np
import pytest

from belldet import MeasurementSetting, ghz
from belldet.detmodel import (
    X_PLUS, Z_ONE, Z_ZERO, Convention, _coefficients, _outcome_factors, json_float,
    validate_efficiency,
)
from reference import dressed, partial_trace, projector

FOLD, TRINARY = Convention.FOLD, Convention.TRINARY

ETA_CRIT = 2.0 / (1.0 + math.sqrt(2.0))


def test_named_settings():
    np.testing.assert_allclose(Z_ZERO.ket(), [1, 0], atol=1e-15)
    np.testing.assert_allclose(Z_ONE.ket(), [0, 1], atol=1e-12)
    np.testing.assert_allclose(X_PLUS.ket(), [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def table_operators(convention, labels, setting, eta):
    """The detector table's dressed operators a Pi+ + b I for ``labels``."""
    a, b = _coefficients(convention, labels, eta)
    return np.multiply.outer(a, projector(setting)) + np.multiply.outer(b, np.eye(2))


def test_projectors_sum_to_identity_exactly():
    """At eta = 1 the "+" and "-" rows of either convention are Pi+ and
    Pi- = I - Pi+, coefficient for coefficient."""
    for convention in (FOLD, TRINARY):
        a, b = _coefficients(convention, ["+", "-"], 1.0)
        assert (a.sum(), b.sum()) == (0.0, 1.0)


@pytest.mark.parametrize("convention", [FOLD, TRINARY])
def test_table_matches_the_reference_operators(convention):
    rng = np.random.default_rng(4)
    labels = ["+", "-", "0", "*", "±"] if convention == FOLD else ["+", "-", "0", "*"]
    for _ in range(5):
        setting = MeasurementSetting(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        eta = rng.uniform()
        ref = dressed(setting, eta, convention)
        ops = table_operators(convention, labels, setting, eta)
        for label, op in zip(labels, ops):
            np.testing.assert_allclose(op, ref[label], atol=1e-15)


@pytest.mark.parametrize("convention", [FOLD, TRINARY])
def test_outcome_factors_are_the_reference_operators_at_deterministic_outcomes(convention):
    """LHV factors: each label's value at a click on |m> (eta 1), on |m_perp>
    (eta 1) and, for TRINARY, at a blind detector (eta 0)."""
    setting = MeasurementSetting(0.7, 0.3)
    on, off = setting.ket(), MeasurementSetting(0.7 + math.pi, 0.3).ket()
    points = [(1.0, on), (1.0, off), (0.0, off)][: 3 if convention == TRINARY else 2]
    for label, factors in _outcome_factors(convention).items():
        expected = [np.vdot(ket, dressed(setting, eta, convention)[label] @ ket).real
                    for eta, ket in points]
        np.testing.assert_allclose(factors, expected, atol=1e-15)


class TestDressedEffects:
    """The FOLD "+"/"-" pair, (eta Pi+, I - eta Pi+)."""

    def test_ideal_detector(self):
        setting = MeasurementSetting(0.9)
        plus, minus = table_operators(FOLD, ["+", "-"], setting, 1.0)
        np.testing.assert_allclose(plus, projector(setting), atol=1e-15)
        np.testing.assert_allclose(minus, np.eye(2) - projector(setting), atol=1e-15)

    def test_blind_detector_always_reports_minus(self):
        plus, minus = table_operators(FOLD, ["+", "-"], MeasurementSetting(0.9), 0.0)
        np.testing.assert_allclose(plus, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(minus, np.eye(2), atol=1e-15)

    def test_effects_sum_to_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            setting = MeasurementSetting(rng.uniform(0, 2 * math.pi))
            plus, minus = table_operators(FOLD, ["+", "-"], setting, rng.uniform())
            np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-15)

    def test_threshold_efficiency_click_split(self):
        plus, minus = table_operators(FOLD, ["+", "-"], Z_ZERO, 0.8284)
        # on |0>, p = <0|E|0>
        assert plus[0, 0].real == pytest.approx(0.8284, abs=1e-12)
        assert minus[0, 0].real == pytest.approx(0.1716, abs=1e-12)


class TestDressedObservable:
    """The FOLD row "±", A(eta) = 2 eta Pi+ - I."""

    def test_ideal_is_plus_minus_one(self):
        obs = table_operators(FOLD, "±", MeasurementSetting(0.4), 1.0)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(obs)), [-1.0, 1.0], atol=1e-12)

    def test_half_efficiency_eigenvalues(self):
        obs = table_operators(FOLD, "±", MeasurementSetting(0.4), 0.5)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(obs)), [-1.0, 0.0], atol=1e-12)

    def test_plus_eigenstate_expectation(self):
        for eta in (0.0, 0.3, 0.9, 1.0):
            setting = MeasurementSetting(1.1)
            obs = table_operators(FOLD, "±", setting, eta)
            assert np.vdot(setting.ket(), obs @ setting.ket()).real == pytest.approx(
                2 * eta - 1, abs=1e-12
            )
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(obs)), sorted([2 * eta - 1, -1.0]), atol=1e-12
            )

    def test_expectation_affine_in_eta(self):
        setting = MeasurementSetting(0.8)
        rho = partial_trace(ghz(2).density().matrix, [1])
        values = [
            float(np.trace(rho @ table_operators(FOLD, "±", setting, eta)).real)
            for eta in (0.0, 0.5, 1.0)
        ]
        assert abs(values[1] - 0.5 * (values[0] + values[2])) < 1e-12


def click_probabilities(setting, eta, rho):
    """TRINARY (p+, p-, p0) = Tr(rho E) over the table's "+", "-", "0" rows."""
    ops = table_operators(TRINARY, ["+", "-", "0"], setting, eta)
    return tuple(float(p) for p in np.einsum("ij,lji->l", rho, ops).real)


class TestClickProbabilities:
    def test_perfect_detector_on_plus_eigenstate(self):
        setting = MeasurementSetting(0.6)
        rho = np.outer(setting.ket(), setting.ket().conj())
        assert click_probabilities(setting, 1.0, rho) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_two_thirds_on_maximally_mixed(self):
        probs = click_probabilities(MeasurementSetting(0.6), 2.0 / 3.0, np.eye(2) / 2)
        assert probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_point_nine_on_reduced_bell_pair(self):
        rho = partial_trace(ghz(2).density().matrix, [0])
        probs = click_probabilities(MeasurementSetting(1.9), 0.9, rho)
        assert probs == pytest.approx((0.45, 0.45, 0.10), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            setting = MeasurementSetting(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            ket = np.array([rng.normal() + 1j * rng.normal() for _ in range(2)])
            ket /= np.linalg.norm(ket)
            eta = rng.uniform()
            probs = click_probabilities(setting, eta, np.outer(ket, ket.conj()))
            assert abs(sum(probs) - 1.0) < 1e-12
            assert probs[2] == pytest.approx(1.0 - eta, abs=1e-15)  # state independent


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
