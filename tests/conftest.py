"""Tier-1 runs with one BLAS thread, as the benchmark does. The tests' matrices
are small, so extra BLAS threads buy nothing on a quiet host and, beside another
busy process, stretch a multi-second test by two to three times. This module
loads before any test module imports numpy; a value already in the environment
wins."""

import os
import sys

import pytest

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

# Read by tests/test_dependencies.py: numpy fixes its BLAS threads when it loads.
NUMPY_LOADED_FIRST = "numpy" in sys.modules


@pytest.fixture
def cell_builds(monkeypatch):
    """Every expression whose cell tensor C (``BellExpression.cells``) is built
    while the test runs, once per build."""
    from belldet import BellExpression

    prop = BellExpression.__dict__["cells"]
    build, built = prop.func, []

    def counted(expr):
        built.append(expr)
        return build(expr)

    monkeypatch.setattr(prop, "func", counted)
    return built
