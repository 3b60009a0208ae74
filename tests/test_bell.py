import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from belldet import (
    BellExpression,
    BellForm,
    BellTerm,
    Convention,
    ConventionError,
    DensityMatrix,
    MeasurementSetting,
    OptimizeOptions,
    ScenarioConfig,
    bell_phi_plus,
    ghz,
    lhv_bound,
    optimize_settings,
    preset,
    projected_state,
    quantum_value,
)
from belldet import bell
from belldet.bell import (
    OUTCOME_ANY,
    STRATEGY_LIMIT,
    _CELL_LABELS,
    _Evaluator,
    _coefficient_tensor,
    _expression_tensor,
    _strategy_count,
    angles_to_settings,
    chsh_seed_angles,
)
from reference import dressed

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ETA_CRIT = 2.0 / (1.0 + math.sqrt(2.0))
TSIRELSON = 2.0 * math.sqrt(2.0)

CHSH_SETTINGS = angles_to_settings(chsh_seed_angles(2, 2))


def random_two_qubit_product(rng):
    kets = []
    for _ in range(2):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        kets.append(ket)
    joint = np.kron(kets[0], kets[1])
    return DensityMatrix(2, np.outer(joint, joint.conj()))


def random_settings(rng, n=2, s=2):
    return [
        [MeasurementSetting(rng.uniform(0, 2 * math.pi)) for _ in range(s)] for _ in range(n)
    ]


def enumerated_lhv_bound(expr: BellExpression) -> float:
    """Reference: the plain enumeration of every deterministic strategy of
    all n parties, one Python loop over terms per strategy."""
    if _strategy_count(expr) > STRATEGY_LIMIT:
        raise ValueError(
            f"enumeration would visit {_strategy_count(expr)} strategies, "
            f"limit is {STRATEGY_LIMIT}"
        )
    s = expr.settings_per_party
    if expr.form == BellForm.CORRELATION:
        party_strategies = list(itertools.product((1.0, -1.0), repeat=s))
        best = -math.inf
        for assignment in itertools.product(party_strategies, repeat=expr.n_parties):
            value = 0.0
            for term in expr.terms:
                prod = term.weight
                for i, j in enumerate(term.settings):
                    prod *= assignment[i][j]
                value += prod
            best = max(best, value)
        return best

    party_strategies = list(itertools.product(("+", "-", "0"), repeat=s))
    best = -math.inf
    for assignment in itertools.product(party_strategies, repeat=expr.n_parties):
        value = 0.0
        for term in expr.terms:
            assert term.outcomes is not None
            hit = True
            for i, j in enumerate(term.settings):
                label = term.outcomes[i]
                if label != OUTCOME_ANY and assignment[i][j] != label:
                    hit = False
                    break
            if hit:
                value += term.weight
        best = max(best, value)
    return best


def random_expression(rng, form, n, s, n_terms):
    terms = []
    for _ in range(n_terms):
        settings = tuple(int(j) for j in rng.integers(s, size=n))
        weight = float(rng.normal())
        outcomes = None
        if form == BellForm.PROBABILITY:
            outcomes = tuple(str(o) for o in rng.choice(list("+-0*"), size=n))
        terms.append(BellTerm(settings, weight, outcomes))
    return BellExpression(n, s, form, tuple(terms), 0.0)


def dense_quantum_value(expr, rho, settings, etas, convention):
    """Reference: sum over terms of weight * Tr(rho kron_i E_i), one dense
    2^n x 2^n operator per term, each E_i the reference's dressed operator."""
    total = 0.0
    for term in expr.terms:
        labels = term.outcomes or ("±",) * expr.n_parties
        op = np.eye(1)
        for i, (j, label) in enumerate(zip(term.settings, labels)):
            op = np.kron(op, dressed(settings[i][j], etas[i], convention)[label])
        total += term.weight * float(np.trace(rho.matrix @ op).real)
    return total


def random_mixed_state(rng, n):
    dim = 2**n
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


def mermin_expression(n):
    """Mermin's n-party expression: the real part of prod_i (A_i + i B_i),
    terms with an even number m of B settings (index 1), weighted (-1)^(m/2)."""
    terms = []
    for settings in itertools.product((0, 1), repeat=n):
        m = sum(settings)
        if m % 2 == 0:
            terms.append(BellTerm(settings, float((-1) ** (m // 2))))
    return BellExpression(n, 2, BellForm.CORRELATION, tuple(terms), 2.0 ** (n // 2))


class TestPresets:
    def test_chsh_form_and_bound(self):
        chsh = preset("CHSH")
        assert chsh.form == BellForm.CORRELATION
        assert chsh.classical_bound == 2.0
        assert lhv_bound(chsh) == 2.0

    def test_eberhard_form_and_bound(self):
        eb = preset("EBERHARD_CH")
        assert eb.form == BellForm.PROBABILITY
        assert eb.classical_bound == 0.0
        assert lhv_bound(eb) == 0.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("MERMIN")


class TestLhvBound:
    def test_all_positive_chsh_reaches_four(self):
        expr = BellExpression(
            2,
            2,
            BellForm.CORRELATION,
            tuple(BellTerm(js, 1.0) for js in itertools.product((0, 1), repeat=2)),
            4.0,
        )
        assert lhv_bound(expr) == 4.0

    def test_zero_coefficients(self):
        expr = BellExpression(2, 2, BellForm.CORRELATION, (BellTerm((0, 0), 0.0),), 0.0)
        assert lhv_bound(expr) == 0.0

    def test_size_limit(self):
        expr = BellExpression(8, 2, BellForm.PROBABILITY,
                              (BellTerm((0,) * 8, 1.0, ("+",) * 8),), 1.0)
        with pytest.raises(ValueError):
            lhv_bound(expr)

    def test_stored_bound_matches_enumeration(self):
        for name in ("CHSH", "EBERHARD_CH"):
            expr = preset(name)
            assert abs(lhv_bound(expr) - expr.classical_bound) < 1e-9


class TestExpressionTensor:
    @pytest.mark.parametrize("form", list(BellForm))
    def test_each_term_lands_in_exactly_one_cell(self, form):
        """C has s L cells per party (L = 1 in correlation form, 4 in probability
        form, "*" included), and each term adds its weight to one of them."""
        rng = np.random.default_rng(41 + (form == BellForm.PROBABILITY))
        n, s = 3, 2
        expr = random_expression(rng, form, n, s, 30)
        assert form == BellForm.CORRELATION or any(OUTCOME_ANY in t.outcomes for t in expr.terms)
        width = len(_CELL_LABELS[form])
        tensor = _expression_tensor(expr)
        assert tensor.shape == (s * width,) * n
        assert tensor.sum() == pytest.approx(sum(t.weight for t in expr.terms), abs=1e-12)
        for term in expr.terms:
            single = _expression_tensor(BellExpression(n, s, form, (term,), 0.0))
            labels = term.outcomes or _CELL_LABELS[form] * n
            cell = tuple(j * width + _CELL_LABELS[form].index(o)
                         for j, o in zip(term.settings, labels))
            assert np.flatnonzero(single).tolist() == [np.ravel_multi_index(cell, single.shape)]
            assert single[cell] == term.weight

    @pytest.mark.parametrize("convention", list(Convention))
    def test_marginal_cells_dress_to_the_identity(self, convention):
        """A "*" cell is one cell of C whatever the convention; dressed at any
        eta it is the identity unit alone, so a term marginalizing every party
        puts its weight in W's white-noise corner and nowhere else."""
        term = BellTerm((1, 0, 1), 2.5, (OUTCOME_ANY,) * 3)
        expr = BellExpression(3, 2, BellForm.PROBABILITY, (term,), 0.0)
        assert np.count_nonzero(_expression_tensor(expr)) == 1
        w = _coefficient_tensor(expr, [0.3, 0.7, 1.0], convention)
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 2.5
        np.testing.assert_array_equal(w, expected)


class TestBestResponse:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("form", list(BellForm))
    def test_matches_the_enumeration_on_random_expressions(self, form, n, s):
        rng = np.random.default_rng(1000 * n + 10 * s + (form == BellForm.PROBABILITY))
        # the reference visits every strategy; fewer draws where that is slow
        draws = 1 if _strategy_count(BellExpression(n, s, form, (), 0.0)) > 50_000 else 12
        for _ in range(draws):
            expr = random_expression(rng, form, n, s, int(rng.integers(1, 9)))
            assert lhv_bound(expr) == pytest.approx(enumerated_lhv_bound(expr), abs=1e-12)

    def test_random_probability_expressions_use_every_label(self):
        rng = np.random.default_rng(7)
        expr = random_expression(rng, BellForm.PROBABILITY, 4, 2, 12)
        assert {o for t in expr.terms for o in t.outcomes} == {"+", "-", "0", "*"}
        assert lhv_bound(expr) == pytest.approx(enumerated_lhv_bound(expr), abs=1e-12)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_bundled_expressions_match_the_enumeration_exactly(self, path):
        doc = json.loads(path.read_text())
        doc = doc.get("scenario", doc)
        doc = doc.get("bell", doc)
        expr = preset(doc["preset"]) if "preset" in doc else BellExpression.from_json_dict(doc)
        assert lhv_bound(expr) == enumerated_lhv_bound(expr) == expr.classical_bound

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
    def test_mermin_bound(self, n):
        assert lhv_bound(mermin_expression(n)) == 2.0 ** (n // 2)

    @pytest.mark.parametrize("form", list(BellForm))
    def test_permuting_the_parties_keeps_the_bound(self, form):
        """Each party in turn is the last one, the one closed in form."""
        rng = np.random.default_rng(31 + (form == BellForm.PROBABILITY))
        for n, s in [(3, 3), (4, 2), (5, 1)]:
            expr = random_expression(rng, form, n, s, 10)
            bound = lhv_bound(expr)
            for perm in [np.roll(np.arange(n), shift) for shift in range(1, n)]:
                terms = tuple(
                    BellTerm(
                        tuple(t.settings[i] for i in perm),
                        t.weight,
                        None if t.outcomes is None else tuple(t.outcomes[i] for i in perm),
                    )
                    for t in expr.terms
                )
                permuted = BellExpression(n, s, form, terms, 0.0)
                assert lhv_bound(permuted) == pytest.approx(bound, abs=1e-12)

    def test_correlation_at_the_strategy_limit(self):
        """With one setting per party every term is its weight times the same
        product of the parties' +/-1 answers, so the bound is |sum of weights|."""
        rng = np.random.default_rng(23)
        expr = random_expression(rng, BellForm.CORRELATION, 19, 1, 200)
        assert _strategy_count(expr) <= STRATEGY_LIMIT
        total = sum(t.weight for t in expr.terms)
        assert lhv_bound(expr) == pytest.approx(abs(total), abs=1e-12)

    def test_numpy_calls_do_not_grow_with_the_terms(self, monkeypatch):
        """The terms fold into one tensor: with every term of Mermin-5 repeated
        20 times, the LHV bound and the coefficient tensor W each look up
        exactly as many numpy functions as on Mermin-5."""

        class CountingNumpy:
            lookups = 0

            def __getattr__(self, name):
                CountingNumpy.lookups += 1
                return getattr(np, name)

        lhv_bound(mermin_expression(5))  # fills the per-form cache before counting
        monkeypatch.setattr(bell, "np", CountingNumpy())
        bound_counts, tensor_counts, tensors = [], [], []
        for repeat in (1, 20):
            expr = mermin_expression(5)
            expr = BellExpression(5, 2, expr.form, expr.terms * repeat, 0.0)
            CountingNumpy.lookups = 0
            assert lhv_bound(expr) == 4.0 * repeat
            bound_counts.append(CountingNumpy.lookups)
            CountingNumpy.lookups = 0
            tensors.append(_coefficient_tensor(expr, [0.9] * 5, Convention.FOLD))
            tensor_counts.append(CountingNumpy.lookups)
        assert bound_counts[0] == bound_counts[1]
        assert tensor_counts[0] == tensor_counts[1]
        np.testing.assert_allclose(tensors[1], 20 * tensors[0], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("form", list(BellForm))
    @pytest.mark.parametrize("n", [1, 3])
    def test_no_terms_give_zero(self, form, n):
        assert lhv_bound(BellExpression(n, 2, form, (), 0.0)) == 0.0

    def test_single_party_correlation(self):
        terms = (BellTerm((0,), 1.0), BellTerm((1,), -0.5), BellTerm((1,), 2.0))
        assert lhv_bound(BellExpression(1, 2, BellForm.CORRELATION, terms, 0.0)) == 2.5

    def test_single_party_probability(self):
        terms = (
            BellTerm((0,), -1.0, ("+",)),
            BellTerm((0,), -1.0, ("-",)),
            BellTerm((1,), 2.0, ("*",)),
            BellTerm((1,), 1.0, ("-",)),
            BellTerm((2,), 0.5, ("0",)),
        )
        # setting 0 answers no-click, setting 1 "-", setting 2 no-click
        expr = BellExpression(1, 3, BellForm.PROBABILITY, terms, 0.0)
        assert lhv_bound(expr) == 3.5


class TestQuantumValue:
    def test_tsirelson_at_ideal_angles(self):
        value = quantum_value(preset("CHSH"), bell_phi_plus().density(), CHSH_SETTINGS, [1, 1])
        assert value == pytest.approx(TSIRELSON, abs=1e-12)

    def test_exactly_classical_at_threshold_efficiency(self):
        value = quantum_value(
            preset("CHSH"), bell_phi_plus().density(), CHSH_SETTINGS, [ETA_CRIT, ETA_CRIT]
        )
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_blind_detectors_give_the_all_minus_point(self):
        rng = np.random.default_rng(4)
        weights = rng.normal(size=4)
        terms = tuple(
            BellTerm(js, w) for js, w in zip(itertools.product((0, 1), repeat=2), weights)
        )
        expr = BellExpression(2, 2, BellForm.CORRELATION, terms, 0.0)
        # every observable collapses to -I, so each correlation term is +1
        all_minus_point = float(np.sum(weights))
        value = quantum_value(
            expr, random_two_qubit_product(rng), random_settings(rng), [0.0, 0.0]
        )
        assert value == pytest.approx(all_minus_point, abs=1e-12)

    @pytest.mark.parametrize("form", list(BellForm))
    def test_no_terms_give_zero(self, form):
        expr = BellExpression(2, 2, form, (), 0.0)
        assert quantum_value(expr, bell_phi_plus().density(), CHSH_SETTINGS, [1, 1]) == 0.0

    def test_correlation_form_requires_fold(self):
        with pytest.raises(ConventionError):
            quantum_value(
                preset("CHSH"),
                bell_phi_plus().density(),
                CHSH_SETTINGS,
                [1, 1],
                Convention.TRINARY,
            )

    def test_affine_in_each_party_efficiency(self):
        rng = np.random.default_rng(8)
        rho = bell_phi_plus().density()
        settings = random_settings(rng)
        for party in (0, 1):
            values = []
            for eta in (0.2, 0.5, 0.8):
                etas = [0.7, 0.7]
                etas[party] = eta
                values.append(quantum_value(preset("CHSH"), rho, settings, etas))
            assert abs(values[1] - 0.5 * (values[0] + values[2])) < 1e-10

    @pytest.mark.parametrize("name", ["CHSH", "EBERHARD_CH"])
    def test_product_states_never_beat_the_classical_bound(self, name):
        expr = preset(name)
        convention = Convention.FOLD if name == "CHSH" else Convention.TRINARY
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = random_two_qubit_product(rng)
            settings = random_settings(rng)
            etas = [rng.uniform(), rng.uniform()]
            value = quantum_value(expr, rho, settings, etas, convention)
            assert value <= expr.classical_bound + 1e-9

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "form, convention",
        [
            (BellForm.CORRELATION, Convention.FOLD),
            (BellForm.PROBABILITY, Convention.FOLD),
            (BellForm.PROBABILITY, Convention.TRINARY),
        ],
    )
    def test_matches_the_dense_textbook_value(self, form, convention, n, s):
        rng = np.random.default_rng(100 * n + 10 * s + list(Convention).index(convention))
        for _ in range(6):
            expr = random_expression(rng, form, n, s, int(rng.integers(1, 9)))
            rho = random_mixed_state(rng, n)
            settings = [
                [
                    MeasurementSetting(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
                    for _ in range(s)
                ]
                for _ in range(n)
            ]
            etas = list(rng.uniform(size=n))
            value = quantum_value(expr, rho, settings, etas, convention)
            reference = dense_quantum_value(expr, rho, settings, etas, convention)
            assert value == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("n", [10, 11])
    def test_many_parties_keep_every_axis_apart(self, n):
        """GHZ_n with Z on every party and X on the first: <Z^n> is 1 for
        even n and 0 for odd n, and <X Z^(n-1)> is 0. With ten or more
        parties a column axis once shared the term axis's einsum label."""
        ket = np.zeros(2**n)
        ket[0] = ket[-1] = math.sqrt(0.5)
        terms = (BellTerm((0,) * n, 1.0), BellTerm((1,) + (0,) * (n - 1), 0.5))
        expr = BellExpression(n, 2, BellForm.CORRELATION, terms, 1.0)
        settings = [[MeasurementSetting(0.0), MeasurementSetting(math.pi / 2)]] * n
        value = quantum_value(expr, DensityMatrix(n, np.outer(ket, ket)), settings, [1.0] * n)
        assert value == pytest.approx(1.0 if n % 2 == 0 else 0.0, abs=1e-12)

    def test_separable_states_stay_local_on_chsh(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            value = quantum_value(
                preset("CHSH"), random_two_qubit_product(rng), random_settings(rng), [1, 1]
            )
            assert value <= 2.0 + 1e-9


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def correlation_matrix(rho):
    """T_ij = Tr(rho sigma_i (x) sigma_j)."""
    return np.array([[np.trace(rho.matrix @ np.kron(a, b)).real for b in PAULI] for a in PAULI])


# Optima found by the earlier Nelder-Mead optimizer (restarts=64, seed=0)
# for the Eberhard CH expression on eberhard_alpha005.json's projected state:
# below eta_H = 1 the optimum is ill-conditioned (Hessian eigenvalues from
# -0.5 to -8e-6 at 0.997), where see-saw sweeps alone stop short.
EBERHARD_OPTIMA = {
    0.997: 0.002455000736694464,
    0.9: 0.0015455652752546325,
    0.7: 0.00013609325947626003,
}


class TestOptimizeSettings:
    def test_tsirelson_point(self):
        _, value = optimize_settings(preset("CHSH"), bell_phi_plus().density(), [1, 1])
        assert value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_product_state_has_no_quantum_advantage(self):
        rho = DensityMatrix(2, np.diag([1.0, 0, 0, 0]))
        _, value = optimize_settings(
            preset("CHSH"), rho, [1, 1], options=OptimizeOptions(restarts=16)
        )
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_below_threshold_no_violation(self):
        _, value = optimize_settings(
            preset("CHSH"),
            bell_phi_plus().density(),
            [0.5, 0.5],
            options=OptimizeOptions(restarts=16),
        )
        assert value < 2.0

    def test_never_below_the_seed_settings(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = DensityMatrix(2, raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real)
            seed_value = quantum_value(preset("CHSH"), rho, CHSH_SETTINGS, [1, 1])
            _, best = optimize_settings(
                preset("CHSH"), rho, [1, 1], options=OptimizeOptions(restarts=4)
            )
            assert best >= seed_value - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_two_qubit_optimum_is_the_horodecki_value(self, seed):
        """At eta = 1 the CHSH maximum over all settings is 2 sqrt(m1 + m2),
        m1, m2 the two largest eigenvalues of T^T T (Horodecki, Horodecki &
        Horodecki, Phys. Lett. A 200, 340 (1995)); in the x-z plane it is
        2 ||T_xz||_F, the Frobenius norm of T's x-z block."""
        rho = random_mixed_state(np.random.default_rng(seed), 2)
        t = correlation_matrix(rho)
        eig = np.linalg.eigvalsh(t.T @ t)
        _, full = optimize_settings(
            preset("CHSH"), rho, [1, 1], options=OptimizeOptions(restarts=8, include_phi=True)
        )
        assert full == pytest.approx(2.0 * math.sqrt(eig[-1] + eig[-2]), abs=1e-9)
        _, plane = optimize_settings(
            preset("CHSH"), rho, [1, 1], options=OptimizeOptions(restarts=8)
        )
        assert plane == pytest.approx(2.0 * np.linalg.norm(t[np.ix_((0, 2), (0, 2))]), abs=1e-9)

    def test_single_party_optimum_is_the_bloch_length(self):
        """One party at eta = 1: each folded setting reaches |r|, the
        length of the state's Bloch vector, whatever the sign of its weight."""
        rho = random_mixed_state(np.random.default_rng(8), 1)
        bloch = [np.trace(rho.matrix @ sigma).real for sigma in PAULI]
        terms = (BellTerm((0,), 1.0), BellTerm((1,), -0.5))
        expr = BellExpression(1, 2, BellForm.CORRELATION, terms, 1.5)
        _, value = optimize_settings(expr, rho, [1.0], options=OptimizeOptions(include_phi=True))
        assert value == pytest.approx(1.5 * np.linalg.norm(bloch), abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_mermin_optimum_on_ghz_is_two_to_the_n_minus_one(self, n):
        """Mermin's n-party expression reaches 2^(n-1) on GHZ_n at eta = 1,
        with X and Y measurements (Mermin, PRL 65, 1838 (1990))."""
        rho, options = ghz(n).density(), OptimizeOptions(include_phi=True)
        _, value = optimize_settings(mermin_expression(n), rho, [1.0] * n, options=options)
        assert value == pytest.approx(2.0 ** (n - 1), abs=1e-9)

    @pytest.mark.parametrize("eta", sorted(EBERHARD_OPTIMA))
    def test_ill_conditioned_ch_optimum_keeps_its_value(self, eta):
        doc = json.loads((CONFIG_DIR / "eberhard_alpha005.json").read_text())
        config = ScenarioConfig.from_json_dict(doc)
        _, rho = projected_state(config)
        _, value = optimize_settings(
            config.bell, rho, [eta, eta], config.convention, OptimizeOptions(restarts=64)
        )
        assert value == pytest.approx(EBERHARD_OPTIMA[eta], abs=1e-12)


def _pair_projector(ket):
    ket = np.array(ket) / math.sqrt(2.0)
    return np.outer(ket, ket)


# 1.5 |Phi+><Phi+| - 0.5 |psi-><psi-|: trace one, lowest eigenvalue -0.5. A raw
# matrix once skipped every state check, and the optimizer returned 4 sqrt 2 on it.
NOT_A_STATE = 1.5 * _pair_projector([1, 0, 0, 1]) - 0.5 * _pair_projector([0, 1, -1, 0])


class TestStateType:
    """The kernel takes the checked DensityMatrix only: a raw matrix, a state's
    own or one no DensityMatrix accepts, is a TypeError."""

    def test_the_repro_matrix_is_no_state(self):
        with pytest.raises(ValueError, match="not PSD"):
            DensityMatrix(2, NOT_A_STATE)

    @pytest.mark.parametrize("matrix", [bell_phi_plus().density().matrix, NOT_A_STATE])
    def test_quantum_value_rejects_a_raw_matrix(self, matrix):
        with pytest.raises(TypeError, match="DensityMatrix"):
            quantum_value(preset("CHSH"), matrix, CHSH_SETTINGS, [1.0, 1.0])

    @pytest.mark.parametrize("matrix", [bell_phi_plus().density().matrix, NOT_A_STATE])
    def test_optimize_settings_rejects_a_raw_matrix(self, matrix):
        with pytest.raises(TypeError, match="DensityMatrix"):
            optimize_settings(preset("CHSH"), matrix, [1.0, 1.0])


class TestJsonRoundTrip:
    def test_correlation_round_trip(self):
        chsh = preset("CHSH")
        assert BellExpression.from_json_dict(chsh.to_json_dict()) == chsh

    def test_probability_round_trip(self):
        eb = preset("EBERHARD_CH")
        assert BellExpression.from_json_dict(eb.to_json_dict()) == eb

    def test_missing_bound_is_computed_by_enumeration(self):
        doc = preset("CHSH").to_json_dict()
        del doc["classical_bound"]
        assert BellExpression.from_json_dict(doc).classical_bound == 2.0

    def test_bad_outcome_label_rejected(self):
        doc = preset("EBERHARD_CH").to_json_dict()
        doc["terms"][0]["outcomes"] = ["+", "?"]
        with pytest.raises(ValueError):
            BellExpression.from_json_dict(doc)

    @pytest.mark.parametrize("outcomes", ["++", [0, "+"], ["+", None], "+"])
    def test_outcomes_must_be_a_list_of_labels(self, outcomes):
        # a string would split into characters and 0 would become the label "0"
        doc = preset("EBERHARD_CH").to_json_dict()
        doc["terms"][0]["outcomes"] = outcomes
        with pytest.raises(ValueError, match="outcomes must be a list of labels"):
            BellExpression.from_json_dict(doc)


def angle_split(evaluator, include_phi):
    """Views of angle rows x (S, D) as the evaluator's thetas and phis."""
    n, s = evaluator.n_parties, evaluator.settings_per_party

    def split(x):
        phis = x[:, n * s :].reshape(-1, n, s) if include_phi else None
        return x[:, : n * s].reshape(-1, n, s), phis

    return split


def chained_derivatives(evaluator, thetas, phis):
    """Reference: the exact derivatives as the optimizer first built them, one
    one-party partial per party for the Bloch fields and one two-party
    partial per pair, the within-party blocks placed by an einsum against
    two identity matrices."""
    n, s = evaluator.n_parties, evaluator.settings_per_party
    units = bell._units(thetas, phis)
    c = np.stack(  # (S, n, s, 3)
        [evaluator._partial(units, (i,))[:, 1:, 1:].transpose(0, 2, 1) for i in range(n)], axis=1
    )
    jac, curl = stacked_bloch_derivatives(thetas, phis)  # (S, n, s, 3, A), (S, n, s, 3, A, A)
    gradient = np.einsum("sijx,sijxa->saij", c, jac)
    within = np.einsum("sijx,sijxab->sijab", c, curl)
    # hessian[:, a, i, j, b, k, l]: angle a of setting (i, j) against angle b of (k, l)
    hessian = np.einsum("sijab,ik,jl->saijbkl", within, np.eye(n), np.eye(s))
    for i, k in itertools.combinations(range(n), 2):
        bloch = evaluator._partial(units, (i, k))[:, 1:, 1:, 1:, 1:]  # d2 value / d n_ijx d n_kly
        block = np.einsum("sjxa,sxyjl,slyb->sajbl", jac[:, i], bloch, jac[:, k])
        hessian[:, :, i, :, :, k] = block
        hessian[:, :, k, :, :, i] = block.transpose(0, 3, 4, 1, 2)
    dim = math.prod(gradient.shape[1:])  # from the shape: a batch may have no starts
    return gradient.reshape(-1, dim), hessian.reshape(-1, dim, dim)


def stacked_bloch_derivatives(thetas, phis):
    """Reference: first and second derivatives of n = (sin t cos p, sin t sin p, cos t)
    in the angles (t, or t and p), shapes (..., 3, A) and (..., 3, A, A)."""
    phi = np.zeros_like(thetas) if phis is None else phis
    ct, st, cp, sp = np.cos(thetas), np.sin(thetas), np.cos(phi), np.sin(phi)
    zero = np.zeros_like(ct)
    d_t = np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_tt = -np.stack([st * cp, st * sp, ct], axis=-1)
    if phis is None:
        return d_t[..., None], d_tt[..., None, None]
    d_p = np.stack([-st * sp, st * cp, zero], axis=-1)
    d_tp = np.stack([-ct * sp, ct * cp, zero], axis=-1)
    d_pp = np.stack([-st * cp, -st * sp, zero], axis=-1)
    second = np.stack([np.stack([d_tt, d_tp], -1), np.stack([d_tp, d_pp], -1)], -1)
    return np.stack([d_t, d_p], axis=-1), second


def random_evaluator(rng, form, n, s, n_terms):
    """A random expression on a random mixed state at random efficiencies."""
    expr = random_expression(rng, form, n, s, n_terms)
    etas = rng.uniform(0.6, 1.0, n)
    return _Evaluator(expr, random_mixed_state(rng, n), etas, bell._LHV_CONVENTION[form])


THREE_PARTY_CORRELATION = BellExpression(
    3,
    2,
    BellForm.CORRELATION,
    (
        BellTerm((0, 0, 0), 1.0),
        BellTerm((1, 1, 0), -0.7),
        BellTerm((0, 1, 1), 0.4),
        BellTerm((1, 0, 1), 1.3),
    ),
    2.0,
)
THREE_PARTY_PROBABILITY = BellExpression(
    3,
    2,
    BellForm.PROBABILITY,
    (
        BellTerm((0, 1, 0), 1.0, ("+", "-", "0")),
        BellTerm((1, 1, 0), -0.5, ("*", "+", "-")),
        BellTerm((1, 0, 1), 0.8, ("0", "*", "+")),
    ),
    0.0,
)


class TestExactDerivatives:
    @pytest.mark.parametrize(
        "expr, convention, include_phi",
        [
            (preset("CHSH"), Convention.FOLD, False),
            (preset("EBERHARD_CH"), Convention.TRINARY, False),
            (preset("EBERHARD_CH"), Convention.TRINARY, True),
            (THREE_PARTY_CORRELATION, Convention.FOLD, True),
            (THREE_PARTY_PROBABILITY, Convention.TRINARY, True),
        ],
    )
    def test_hessian_matches_central_second_differences(self, expr, convention, include_phi):
        rng = np.random.default_rng(5)
        n, s = expr.n_parties, expr.settings_per_party
        evaluator = _Evaluator(expr, random_mixed_state(rng, n), rng.uniform(0.6, 1.0, n), convention)
        split = angle_split(evaluator, include_phi)
        dim = n * s * (2 if include_phi else 1)
        h = 1e-4
        for _ in range(2):
            x = rng.uniform(0.0, 2.0 * math.pi, size=dim)
            gradient, hessian = evaluator.derivatives(*split(x[None]))
            shifts = h * np.eye(dim)
            corners = [
                x + sa * shifts[a] + sb * shifts[b]
                for a in range(dim)
                for b in range(dim)
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))
            ]
            v = evaluator.value(*split(np.array(corners))).reshape(dim, dim, 4)
            reference = (v[..., 0] - v[..., 1] - v[..., 2] + v[..., 3]) / (4.0 * h * h)
            np.testing.assert_allclose(hessian[0], reference, rtol=0, atol=1e-6)
            sides = evaluator.value(*split(np.concatenate([x + shifts, x - shifts])))
            slope = (sides[:dim] - sides[dim:]) / (2.0 * h)
            np.testing.assert_allclose(gradient[0], slope, rtol=0, atol=1e-6)


class TestSeeSaw:
    @pytest.mark.parametrize("include_phi", [False, True])
    @pytest.mark.parametrize("form", list(BellForm))
    @pytest.mark.parametrize("k", [2, 3])
    def test_sweep_returns_the_value_at_the_angles_it_leaves(self, k, form, include_phi):
        rng = np.random.default_rng(10 * k + include_phi)
        evaluator = random_evaluator(rng, form, k, 2, 12)
        split = angle_split(evaluator, include_phi)
        x = rng.uniform(0.0, 2.0 * math.pi, size=(6, 2 * k * (2 if include_phi else 1)))
        before = evaluator.value(*split(x))
        swept = evaluator.sweep(*split(x))
        np.testing.assert_allclose(swept, evaluator.value(*split(x)), rtol=0, atol=1e-14)
        assert np.all(swept >= before - 1e-14)  # each best response keeps or raises the value

    @pytest.mark.parametrize("include_phi", [False, True])
    def test_a_setting_no_term_reaches_keeps_its_angles(self, include_phi):
        """Party 0's setting 1 is in no term. Its angles start above 2 pi, where
        reading them back from a Bloch vector would change them."""
        terms = (BellTerm((0, 0), 1.0), BellTerm((0, 1), -0.8))
        expr = BellExpression(2, 2, BellForm.CORRELATION, terms, 2.0)
        rng = np.random.default_rng(12)
        evaluator = _Evaluator(expr, random_mixed_state(rng, 2), [0.9, 0.8], Convention.FOLD)
        split = angle_split(evaluator, include_phi)
        start = rng.uniform(2.0 * math.pi, 4.0 * math.pi, size=(5, 4 * (2 if include_phi else 1)))
        x = start.copy()
        evaluator.sweep(*split(x))
        for got, was in zip(split(x), split(start)):
            if got is not None:
                np.testing.assert_array_equal(got[:, 0, 1], was[:, 0, 1])
                assert not np.any(got[:, 0, 0] == was[:, 0, 0])  # the reached setting moves

    @pytest.mark.parametrize("include_phi", [False, True])
    @pytest.mark.parametrize("form", list(BellForm))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_derivatives_match_the_chained_reference(self, k, form, include_phi):
        rng = np.random.default_rng(100 * k + include_phi)
        s = 3 if k <= 3 else 2
        evaluator = random_evaluator(rng, form, k, s, 16)
        split = angle_split(evaluator, include_phi)
        x = rng.uniform(0.0, 2.0 * math.pi, size=(4, k * s * (2 if include_phi else 1)))
        got, want = evaluator.derivatives(*split(x)), chained_derivatives(evaluator, *split(x))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("include_phi", [False, True])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_one_trig_pass_keeps_the_derivatives_bit_identical(self, k, include_phi, monkeypatch):
        """``derivatives`` takes one pass of sines and cosines and reads its units
        off the second derivative, n = -d2n/dt2: the units equal ``_units``', and
        the derivatives, gradient and Hessian those of the stacked reference,
        bit for bit."""
        rng = np.random.default_rng(20 * k + include_phi)
        evaluator = random_evaluator(rng, BellForm.PROBABILITY, k, 2, 12)
        split = angle_split(evaluator, include_phi)
        x = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=(5, 2 * k * (2 if include_phi else 1)))
        thetas, phis = split(x)
        first, second = bell._bloch_derivatives(thetas, phis)
        for got, want in zip((first, second), stacked_bloch_derivatives(thetas, phis)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(-second[..., 0, 0], bell._units(thetas, phis)[:, :, 1:, 1:])
        shared = evaluator.derivatives(thetas, phis)
        monkeypatch.setattr(bell, "_bloch_derivatives", stacked_bloch_derivatives)
        for got, want in zip(shared, evaluator.derivatives(thetas, phis)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_partials_per_sweep_and_per_derivatives_call(self, k, monkeypatch):
        """A sweep makes one one-party partial per party and never evaluates
        the value anew; the derivatives make one two-party partial per pair."""
        evaluator = _Evaluator(mermin_expression(k), ghz(k).density(), [0.9] * k, Convention.FOLD)
        partial, calls = _Evaluator._partial, []

        def counting(self, units, open_parties=()):
            calls.append(open_parties)
            return partial(self, units, open_parties)

        def no_value(self, thetas, phis=None):
            raise AssertionError("the sweep evaluated the value anew")

        monkeypatch.setattr(_Evaluator, "_partial", counting)
        monkeypatch.setattr(_Evaluator, "value", no_value)
        split = angle_split(evaluator, include_phi=True)
        x = np.random.default_rng(k).uniform(0.0, 2.0 * math.pi, size=(3, 4 * k))
        evaluator.sweep(*split(x))
        assert calls == [(i,) for i in range(k)]
        calls.clear()
        evaluator.derivatives(*split(x))
        assert calls == list(itertools.combinations(range(k), 2))


def eberhard_state():
    doc = json.loads((CONFIG_DIR / "eberhard_alpha005.json").read_text())
    config = ScenarioConfig.from_json_dict(doc)
    return config.bell, projected_state(config)[1], config.convention


class TestBatchedStarts:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", ["chsh_phase", "eberhard"])
    @pytest.mark.parametrize("caps", [None, (2, 3)])
    def test_batch_is_the_best_of_each_start_alone(self, case, seed, caps, monkeypatch):
        """Every start runs as it would alone: the batched result is the
        best of single-start runs warm-started from each random draw. With
        the sweep and Newton caps cut short, every start stops mid-way, so
        its end value depends on its own damping, step count and freezing."""
        if caps is not None:
            monkeypatch.setattr(bell, "_MAX_SWEEPS", caps[0])
            monkeypatch.setattr(bell, "_MAX_NEWTON", caps[1])
        if case == "eberhard":
            (expr, rho, convention), etas, include_phi = eberhard_state(), [0.9, 0.9], False
        else:
            expr, convention, include_phi = preset("CHSH"), Convention.FOLD, True
            rho, etas = random_mixed_state(np.random.default_rng(100 + seed), 2), [0.95, 0.9]
        restarts = 6
        n_theta = expr.n_parties * expr.settings_per_party
        rng = np.random.default_rng(seed)
        draws = [rng.uniform(0.0, 2.0 * math.pi, size=n_theta * (2 if include_phi else 1))
                 for _ in range(restarts)]
        alone = []
        for x in draws:
            thetas = x[:n_theta].reshape(expr.n_parties, -1)
            phis = x[n_theta:].reshape(expr.n_parties, -1) if include_phi else None
            opts = OptimizeOptions(
                restarts=0, include_phi=include_phi, warm_starts=(angles_to_settings(thetas, phis),)
            )
            alone.append(optimize_settings(expr, rho, etas, convention, opts)[1])
        opts = OptimizeOptions(restarts=restarts, seed=seed, include_phi=include_phi)
        _, batched = optimize_settings(expr, rho, etas, convention, opts)
        assert batched == pytest.approx(max(alone), abs=1e-12)

    def test_blocks_of_starts_give_the_batch_result(self, monkeypatch):
        """With one start (and one term) per block the kernel gives the numbers
        of one batch, and a batch with no starts gives empty results."""
        rng = np.random.default_rng(9)
        args = THREE_PARTY_PROBABILITY, random_mixed_state(rng, 3), [0.9, 0.8, 0.7]
        evaluator = _Evaluator(*args, Convention.TRINARY)
        split = angle_split(evaluator, include_phi=True)
        x = rng.uniform(0.0, 2.0 * math.pi, size=(5, 12))
        batch = [evaluator.value(*split(x)), *evaluator.derivatives(*split(x))]
        monkeypatch.setattr(bell, "_BLOCK_FLOATS", 1)
        blocked = _Evaluator(*args, Convention.TRINARY)
        np.testing.assert_allclose(blocked.coefficients, evaluator.coefficients, rtol=0, atol=1e-15)
        for got, want in zip([blocked.value(*split(x)), *blocked.derivatives(*split(x))], batch):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert blocked.value(*split(x[:0])).shape == (0,)
        assert blocked.sweep(*split(x[:0])).shape == (0,)

    @pytest.mark.parametrize("include_phi", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_derivatives_of_no_starts_are_empty(self, k, include_phi):
        rho = random_mixed_state(np.random.default_rng(k), k)
        evaluator = _Evaluator(mermin_expression(k), rho, [0.9] * k, Convention.FOLD)
        dim = 2 * k * (2 if include_phi else 1)
        thetas, phis = angle_split(evaluator, include_phi)(np.zeros((0, dim)))
        gradient, hessian = evaluator.derivatives(thetas, phis)
        assert (gradient.shape, hessian.shape) == ((0, dim), (0, dim, dim))

    def test_einsum_calls_do_not_grow_with_the_starts(self, monkeypatch):
        """The starts share every contraction: 16x the starts may cost at
        most 1.5x the einsum calls (a start-by-start loop costs about 14x)."""
        einsum, calls = np.einsum, []

        def counting(*args, **kwargs):
            calls.append(1)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(bell.np, "einsum", counting)
        counts = []
        for restarts in (4, 64):
            calls.clear()
            opts = OptimizeOptions(restarts=restarts, seed=3)
            optimize_settings(preset("CHSH"), bell_phi_plus().density(), [1.0, 1.0], options=opts)
            counts.append(len(calls))
        assert counts[1] <= 1.5 * counts[0]
