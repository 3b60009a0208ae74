"""Every demo under demos/ runs end to end, and the README's library tour gives the
numbers its comments state."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    """Each demo exits 0 with every warning an error, as the suite runs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    tour = {}
    exec(block, tour)
    assert tour["p_list"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert tour["q"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert tour["result"].critical_value == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), abs=1e-9)
    assert tour["pinned"].critical_value == pytest.approx(0.5109, abs=1e-4)
    assert tour["v_star"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert tour["n_prime"] == pytest.approx(19.75, abs=5e-3)  # the "20x"
