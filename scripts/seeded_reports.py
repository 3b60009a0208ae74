"""Seeded CLI reports: write every configs/*.json x command report, or compare two sets.

Run from the root of a checkout, with that checkout's package on the path:

    PYTHONPATH=src python scripts/seeded_reports.py > reports.json
    python scripts/seeded_reports.py --compare base.json head.json

The first form runs ``belldet <command> --config configs/<name>.json`` for every
config and command in this process, with ``--restarts 8`` and ``--seed 0`` for each
command whose parser takes them (so it also runs on a package whose every command
takes both), and prints one JSON object mapping "<name>.json <command>" to
[exit code, stdout, stderr]. The second prints a Markdown summary: how many reports
are byte-identical, and a unified diff of each one that is not. It always exits 0,
since a recorded contract change may move a report.
"""

import contextlib
import difflib
import io
import json
import pathlib
import sys


def _seeded_flags(parser, command: str) -> list[str]:
    """``--restarts 8 --seed 0``, less each flag that ``command`` does not take."""
    flags = []
    for pair in (["--restarts", "8"], ["--seed", "0"]):
        _, unknown = parser.parse_known_args([command, "--config", "-", *pair])
        flags += [] if unknown else pair
    return flags


def write_reports() -> dict:
    from belldet.cli import COMMANDS, build_parser, main

    parser = build_parser()
    flags = {command: _seeded_flags(parser, command) for command in COMMANDS}
    reports = {}
    for path in sorted(pathlib.Path("configs").glob("*.json")):
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), *flags[command]])
            reports[f"{path.name} {command}"] = [code, out.getvalue(), err.getvalue()]
    return reports


def _lines(entry: list | None) -> list[str]:
    """A report as diffable lines: its exit code, stdout, then stderr."""
    if entry is None:
        return []
    code, out, err = entry
    return [f"exit code {code}", *out.splitlines(), *(f"stderr: {s}" for s in err.splitlines())]


def compare(base: dict, head: dict) -> str:
    keys = sorted(base.keys() | head.keys())
    moved = [key for key in keys if base.get(key) != head.get(key)]
    lines = [f"{len(keys) - len(moved)} of {len(keys)} byte-identical"]
    for key in moved:
        before, after = _lines(base.get(key)), _lines(head.get(key))
        diff = difflib.unified_diff(before, after, "base", "head", lineterm="")
        lines += ["", f"`{key}`", "```diff", *diff, "```"]
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        base, head = (json.loads(pathlib.Path(p).read_text()) for p in sys.argv[2:4])
        print(compare(base, head))
    else:
        print(json.dumps(write_reports(), indent=1, sort_keys=True))
