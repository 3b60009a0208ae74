"""The package's public names are pinned, the dense operator algebra stays
out of the library, and the tests' dense reference stays independent of it."""

import ast
import importlib
from pathlib import Path

import belldet

KEPT = {
    "BellExpression", "BellForm", "BellTerm", "Convention", "ConventionError", "DensityMatrix",
    "DickeLossSpec", "MeasurementSetting", "OptimizeOptions", "PureState", "QubitCapacityError",
    "ScenarioConfig", "SolveResult", "StateSpec", "TrialStats", "X_PLUS", "Z_ONE", "Z_ZERO",
    "ZeroProjectionError", "bell_phi_plus", "bell_psi_plus", "bernoulli_pmf", "cluster4",
    "composite_parts", "critical_eta", "critical_eta_high", "critical_visibility", "damaged_state",
    "default_projectors", "dicke", "dicke_loss_mixture", "ghz", "lhv_bound", "make_state",
    "optimize_settings", "partial_pair", "pascal_expected_trials", "preset", "projected_state",
    "psi_plus_fraction", "psi_plus_weight", "quantum_value", "trial_stats", "w_state",
}

# The dense algebra that no command ran, by the module that held it.
REMOVED = {
    "qstate": ["Effect", "embed_operator", "_trace_out_one", "partial_trace", "project",
               "expectation", "basis_state", "_EFFECT_EIG_TOL", "_IMAG_TOL"],
    "detmodel": ["_dressed", "dressed_effects", "dressed_observable", "click_probabilities"],
    "states": ["add_white_noise"],
}

# What tests/reference.py may take from belldet: value types, no computation.
REFERENCE_MAY_IMPORT = {"MeasurementSetting", "DensityMatrix", "PureState"}


def _imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every import in a source file; name is "" for ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [(module, alias.name) for alias in node.names]
    return found


def test_all_is_the_kept_surface():
    assert len(belldet.__all__) == len(set(belldet.__all__))
    assert set(belldet.__all__) == KEPT
    for name in belldet.__all__:
        assert getattr(belldet, name) is not None


def test_removed_dense_algebra_is_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(f"belldet.{module_name}")
        for name in names:
            assert not hasattr(module, name), f"belldet.{module_name}.{name}"
            assert not hasattr(belldet, name), name
    setting = belldet.MeasurementSetting(0.3)
    assert not hasattr(setting, "projector_plus") and not hasattr(setting, "projector_minus")


def test_detmodel_does_not_import_qstate():
    source = Path(importlib.import_module("belldet.detmodel").__file__)
    assert not any("qstate" in module for module, _ in _imports(source))


def test_reference_imports_no_runtime_function_from_belldet():
    imports = _imports(Path(__file__).with_name("reference.py"))
    from_belldet = [(m, name) for m, name in imports if m.split(".")[0] == "belldet"]
    assert all(name in REFERENCE_MAY_IMPORT for _, name in from_belldet), from_belldet
