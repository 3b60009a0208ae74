"""Every configs/*.json x command report, against the committed golden file.

``tests/golden/seeded_reports.json`` is the output of ``scripts/seeded_reports.py``
(``--restarts 8 --seed 0`` for each command that takes them). A change that moves a
report regenerates the file in the same commit, so its diff lists every moved number:

    PYTHONPATH=src python scripts/seeded_reports.py > tests/golden/seeded_reports.json

Exit codes, stdout and stderr are compared exactly.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "seeded_reports.json"


def _script():
    path = ROOT / "scripts" / "seeded_reports.py"
    spec = importlib.util.spec_from_file_location("seeded_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_reports_match_the_golden_file(monkeypatch):
    script = _script()
    monkeypatch.chdir(ROOT)  # the script reads configs/ from the working directory
    reports = script.write_reports()
    golden = json.loads(GOLDEN.read_text())
    assert reports == golden, script.compare(golden, reports)
