"""Every demo under demos/ runs end to end, the README's library tour gives the
numbers its comments state, and each line of its command-line block exits 0."""

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from belldet import cli

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


def test_readme_command_line_block(capsys, monkeypatch, tmp_path):
    """Each ``belldet ...`` line runs as written from a directory that holds ``configs``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```bash\n(.*?)```", readme, re.S) if "belldet " in b]
    lines = block.splitlines()
    assert lines and all(line.startswith("belldet ") for line in lines)
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        assert code == cli.EXIT_OK, (line, capsys.readouterr().err)
    assert (tmp_path / "fig2.csv").read_text().startswith("ratio,n_prime\n")
