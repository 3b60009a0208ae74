import ctypes
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belldet

ROOT = Path(__file__).resolve().parent.parent


def test_importing_belldet_loads_no_scipy():
    src = str(Path(belldet.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import belldet; "
        "print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0].split("=")[0] for dep in project["dependencies"]] == ["numpy"]


def test_blas_runs_one_thread_unless_the_environment_says_otherwise():
    import conftest

    assert not conftest.NUMPY_LOADED_FIRST
    assert all(var in os.environ for var in conftest.BLAS_THREAD_VARS)
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_*.so"):
        # numpy already loaded this library, so this handle reads its thread count
        get_num_threads = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
        assert get_num_threads() == int(os.environ["OPENBLAS_NUM_THREADS"])
        return
    pytest.skip("numpy does not bundle OpenBLAS here")


def test_the_console_script_entry_point_resolves_to_main():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"belldet": "belldet.cli:main"}
    module, _, attr = scripts["belldet"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_the_cli_module_runs_as_a_script():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "belldet.cli", "validate", "--config", "configs/ghz4.json"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
