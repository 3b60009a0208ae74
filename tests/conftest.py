"""Tier-1 runs with one BLAS thread, as the benchmark does. The tests' matrices
are small, so extra BLAS threads buy nothing on a quiet host and, beside another
busy process, stretch a multi-second test by two to three times. This module
loads before any test module imports numpy; a value already in the environment
wins."""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

# Read by tests/test_dependencies.py: numpy fixes its BLAS threads when it loads.
NUMPY_LOADED_FIRST = "numpy" in sys.modules
