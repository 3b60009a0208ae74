import argparse
import enum
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from belldet import QubitCapacityError, ScenarioConfig, StateSpec, make_state, preset
from belldet import bell, cli, protocol
from belldet.analysis import n_prime_from_ratio
from belldet.cli import (
    COMMANDS, EXIT_CONFIG, EXIT_NOT_FOUND, EXIT_OK, MAX_SWEEP_ROWS, build_parser, main,
)
from belldet.qstate import QUBIT_CAP, STATE_KINDS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCENARIO_CONFIGS = [
    "ghz3.json",
    "ghz4.json",
    "ghz5.json",
    "ghz6.json",
    "ghz4_eta09.json",
    "dicke42.json",
    "cluster4.json",
    "cluster4_blind.json",
    "eberhard_alpha005.json",
    "ghz4_duration.json",
    "bell_visibility.json",
    "ghz4_visibility.json",
    "dicke42_damaged.json",
    "w4.json",
    "ghz4_inline.json",
    "ghz4_phase.json",
]
SWEEP_CONFIGS = ["fig2.json"]
EXPRESSION_CONFIGS = ["chsh.json"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(name):
    raise AssertionError(f"the report holds {name}, which JSON does not have")


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out, parse_constant=_not_json)


# The flags each command takes besides -h/--help, --config and --out: those its handler reads.
OPTIMIZER_FLAGS = {"--seed", "--restarts"}
COMMAND_FLAGS = {
    "eval": OPTIMIZER_FLAGS,
    "critical-eta": OPTIMIZER_FLAGS,
    "critical-visibility": OPTIMIZER_FLAGS,
    "damaged": OPTIMIZER_FLAGS,
    "validate": {"--restarts"},  # it budgets eval's working set at that count
    "sweep": {"--output"},
    "duration": set(),
    "lhv-bound": set(),
}


def restarts_flags(command, count):
    """``--restarts count`` for a command that takes it, else nothing."""
    return ["--restarts", count] if "--restarts" in COMMAND_FLAGS[command] else []


def test_lhv_bound_command(capsys):
    report = run_json(capsys, "lhv-bound", "--config", str(CONFIG_DIR / "chsh.json"))
    assert report["result"]["lhv_bound"] == 2.0
    assert set(report) == {"inputs", "result", "diagnostics"}


def test_critical_eta_command(capsys):
    report = run_json(
        capsys,
        "critical-eta",
        "--config",
        str(CONFIG_DIR / "ghz4.json"),
        "--restarts",
        "16",
    )
    assert report["result"]["status"] == "ok"
    assert report["result"]["critical_value"] == pytest.approx(
        2.0 / (1.0 + math.sqrt(2.0)), abs=1e-6
    )
    assert report["diagnostics"]["optimizer_restarts"] == 16


def test_eval_command(capsys):
    report = run_json(capsys, "eval", "--config", str(CONFIG_DIR / "ghz4.json"),
                      "--restarts", "16")
    assert report["result"]["violated"] is True
    assert report["result"]["composite_lhs"] == pytest.approx(
        0.01 * 0.25 * (2 * math.sqrt(2) - 2), abs=1e-8
    )
    assert report["result"]["projection_probs"] == pytest.approx([0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("n", range(4, 9))
def test_eval_verdict_is_the_sign_of_the_bell_gap(capsys, tmp_path, n):
    """Two efficient detectors suffice and the others may be arbitrarily poor:
    Q > L decides at every eta_L > 0, also where eta_L^(N-2) prod(p) (Q - L)
    rounds to 0.0, which is still reported as computed. At eta_L = 0 no
    trial counts."""
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc["state"]["n"] = n
    path = tmp_path / "ghz.json"
    for eta_L, violated in ((1e-3, True), (1e-100, True), (1e-300, True), (0.0, False)):
        path.write_text(json.dumps({**doc, "eta_L": eta_L}))
        result = run_json(capsys, "eval", "--config", str(path), "--restarts", "2")["result"]
        assert result["violated"] is violated, eta_L
        gap = result["bell_value"] - result["classical_bound"]
        assert gap == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-9)
        scale = eta_L ** (n - 2) * math.prod(result["projection_probs"])
        assert result["composite_lhs"] == pytest.approx(scale * gap, rel=1e-12, abs=0.0)


def test_duration_command(capsys):
    report = run_json(capsys, "duration", "--config", str(CONFIG_DIR / "ghz4_duration.json"))
    assert report["result"]["trial_ratio"] == pytest.approx(4.0 * 0.45**-2, abs=1e-9)
    assert report["result"]["expected_trials"] == pytest.approx(
        100 / report["result"]["p_succ"], rel=1e-12
    )


def test_damaged_command(capsys):
    report = run_json(
        capsys, "damaged", "--config", str(CONFIG_DIR / "dicke42_damaged.json"),
        "--restarts", "8",
    )
    assert report["result"]["psi_plus_overlap"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert report["result"]["violated"] is False
    assert report["inputs"]["lost"] == 1


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_damaged_is_eval_under_a_second_name(capsys, name):
    """One handler resolves and judges a scenario for both commands."""
    path = str(CONFIG_DIR / name)
    evaluated = run(capsys, "eval", "--config", path, "--restarts", "8")
    assert run(capsys, "damaged", "--config", path, "--restarts", "8") == evaluated


def test_a_blind_low_detector_violates_under_neither_command(capsys, tmp_path):
    """At eta_L = 0 no trial counts, whatever Q - L is, and both commands say so."""
    doc = json.loads((CONFIG_DIR / "cluster4_blind.json").read_text())
    path = tmp_path / "blind.json"
    path.write_text(json.dumps({**doc, "eta_L": 0.0}))
    for command in ("eval", "damaged"):
        result = run_json(capsys, command, "--config", str(path), "--restarts", "8")["result"]
        assert result["bell_value"] > result["classical_bound"], command
        assert result["violated"] is False, command


@pytest.mark.parametrize(
    "name,overlap", [("dicke42_damaged.json", 2.0 / 3.0), ("w4.json", 1.0), ("ghz4.json", 0.0)]
)
def test_eval_reports_the_psi_plus_overlap(capsys, name, overlap):
    """The projected pair's overlap with psi+: Dicke(4, 2) with one qubit lost, W_4's
    defaults leave psi+ itself, and GHZ_4's leave phi+, which is orthogonal to it."""
    report = run_json(capsys, "eval", "--config", str(CONFIG_DIR / name), "--restarts", "8")
    assert report["result"]["psi_plus_overlap"] == pytest.approx(overlap, abs=1e-12)


def test_w4_defaults_leave_psi_plus_at_the_closed_forms(capsys):
    """W_4's defaults put |0> on qubits 0 and 1: p = 3/4, then 2/3, and psi+ on the
    last two, so every threshold is the Bell pair's at prod p = 1/2 and two projections."""
    path = str(CONFIG_DIR / "w4.json")
    reports = {
        command: run_json(
            capsys, command, "--config", path, *restarts_flags(command, "8")
        )["result"]
        for command in ("damaged", "critical-eta", "critical-visibility", "duration")
    }
    assert reports["damaged"]["projection_probs"] == pytest.approx([0.75, 2.0 / 3.0], abs=1e-15)
    assert reports["damaged"]["psi_plus_overlap"] == pytest.approx(1.0, abs=1e-12)
    root2 = math.sqrt(2.0)
    assert reports["critical-eta"]["critical_value"] == pytest.approx(2.0 / (1.0 + root2), abs=1e-9)
    assert reports["critical-visibility"]["critical_value"] == pytest.approx(
        1.0 / (2.0 * root2 - 1.0), abs=1e-9
    )
    assert reports["duration"]["trial_ratio"] == pytest.approx(1.0 / (0.5 * 0.1**2), rel=1e-12)


def test_damaged_keeps_fixed_settings(capsys, tmp_path):
    doc = json.loads((CONFIG_DIR / "dicke42_damaged.json").read_text())
    doc["settings"] = [[{"theta": 0.0, "phi": 0.0}] * 2] * 2
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(doc))
    evaluated = run_json(capsys, "eval", "--config", str(path), "--restarts", "8")
    damaged = run_json(capsys, "damaged", "--config", str(path), "--restarts", "8")
    assert damaged["result"]["bell_value"] == evaluated["result"]["bell_value"]
    assert damaged["diagnostics"]["settings"] == doc["settings"]


def test_visibility_command(capsys):
    report = run_json(
        capsys,
        "critical-visibility",
        "--config",
        str(CONFIG_DIR / "bell_visibility.json"),
        "--restarts",
        "16",
    )
    assert report["result"]["critical_value"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)


class TestSweep:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--config", str(CONFIG_DIR / "fig2.json"), "--output", "csv"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "ratio,n_prime"
        rows = [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]
        assert len(rows) == 20
        for ratio, n_prime in rows:
            assert n_prime == pytest.approx(4.0 * ratio**-2, rel=1e-12)
        values = [n for _, n in rows]
        assert values == sorted(values, reverse=True)
        assert out.endswith("\n") and "\r" not in out

    def test_json_output(self, capsys):
        report = run_json(capsys, "sweep", "--config", str(CONFIG_DIR / "fig2.json"))
        assert len(report["result"]["rows"]) == 20

    def test_grid_that_starts_at_zero_drops_only_the_zero_ratio(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
        doc["grid"].update(start=0.0)
        path = tmp_path / "from_zero.json"
        path.write_text(json.dumps(doc))
        rows = run_json(capsys, "sweep", "--config", str(path))["result"]["rows"]
        assert [row["ratio"] for row in rows[:2]] == [0.05, 0.1] and len(rows) == 20

    @pytest.mark.parametrize("bound", [1e-154, 4e-13, 0.0])
    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_grid_without_a_positive_ratio_is_a_config_error(self, capsys, tmp_path, bound,
                                                             output):
        # each ratio is rounded to 12 decimal places, and ratios <= 0 are dropped
        doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
        doc["grid"].update(start=bound, stop=bound)
        path = tmp_path / "tiny_grid.json"
        path.write_text(json.dumps(doc))
        message = "grid has no positive eta_L/eta_H ratio at 12 decimal places"
        code, out, err = run(capsys, "sweep", "--config", str(path), "--output", output)
        assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")
        report = run_json(capsys, "validate", "--config", str(path))
        assert report["result"]["violations"] == [message]

    def test_writes_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--config",
            str(CONFIG_DIR / "fig2.json"),
            "--output",
            "csv",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert out_path.read_text().startswith("ratio,n_prime\n")


def test_every_bundled_config_is_listed():
    listed = SCENARIO_CONFIGS + SWEEP_CONFIGS + EXPRESSION_CONFIGS
    assert sorted(listed) == sorted(p.name for p in CONFIG_DIR.glob("*.json"))


class TestValidate:
    def test_bundled_configs_are_clean(self, capsys):
        for name in SCENARIO_CONFIGS + SWEEP_CONFIGS:
            report = run_json(capsys, "validate", "--config", str(CONFIG_DIR / name))
            assert report["result"]["violations"] == [], name

    def test_k_exceeds_n(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
        doc["k"] = 6
        doc["projectors"] = "default"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        report = run_json(capsys, "validate", "--config", str(path))
        assert any("k" in v for v in report["result"]["violations"])

    def test_state_above_the_states_cap_is_a_violation(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
        doc["state"] = {"kind": "GHZ", "n": QUBIT_CAP + 1}
        path = tmp_path / "ghz_over.json"
        path.write_text(json.dumps(doc))
        report = run_json(capsys, "validate", "--config", str(path))
        message = f"state uses {QUBIT_CAP + 1} qubits, above the cap {QUBIT_CAP}"
        assert report["result"]["violations"] == [message]
        code, _, err = run(capsys, "eval", "--config", str(path))
        assert code == EXIT_CONFIG
        assert err == f"config error: config violates invariants: {message}\n"

    def test_efficiency_out_of_range(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
        doc["eta_H"] = 1.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        report = run_json(capsys, "validate", "--config", str(path))
        assert any("out of [0,1]" in v for v in report["result"]["violations"])


class TestExitCodes:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "eval", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "JSON" in err or "json" in err

    def test_invalid_scenario_exits_2(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
        doc["eta_H"] = 1.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "critical-eta", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "eta_H" in err

    def test_not_found_exits_3(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
        # freeze settings at sigma_z everywhere: no violation exists
        doc["settings"] = [[{"theta": 0.0}, {"theta": 0.0}]] * 2
        path = tmp_path / "frozen.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "critical-eta", "--config", str(path))
        assert code == EXIT_NOT_FOUND
        assert json.loads(out)["result"]["status"] == "not_found"

    def test_not_converged_exits_3(self, capsys, monkeypatch):
        # the Eberhard threshold takes four rounds; one is not enough
        monkeypatch.setattr("belldet.protocol._MAX_ROUNDS", 1)
        code, out, _ = run(
            capsys, "critical-eta", "--config", str(CONFIG_DIR / "eberhard_alpha005.json"),
            "--restarts", "8",
        )
        result = json.loads(out)["result"]
        assert code == EXIT_NOT_FOUND
        assert result["status"] == "not_converged"
        assert result["achieved_residual"] >= 1e-9

    def test_zero_projection_exits_3(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "dicke42.json").read_text())
        doc["state"] = {"kind": "Dicke", "n": 4, "excitations": 4}
        doc["projectors"] = [{"theta": 0.0}, {"theta": 0.0}]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "critical-eta", "--config", str(path))
        assert code == EXIT_NOT_FOUND
        assert "zero" in err.lower()

    def test_state_above_the_states_cap_exits_2(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
        doc["state"] = {"kind": "GHZ", "n": QUBIT_CAP + 1}
        path = tmp_path / "ghz_over.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--config", str(path))
        assert code == EXIT_CONFIG
        assert err.startswith("config error:")

    @pytest.mark.parametrize("target", [0, "many", 2.5, True])
    def test_bad_target_successes_exits_2(self, capsys, monkeypatch, tmp_path, target):
        def fail(spec):
            raise AssertionError("the state was built before the target was read")

        monkeypatch.setattr("belldet.protocol.make_state", fail)
        doc = json.loads((CONFIG_DIR / "ghz4_duration.json").read_text())
        doc["target_successes"] = target
        path = tmp_path / "bad_target.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "duration", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("config error:") and "target_successes" in err

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        code, out, err = run(
            capsys, "eval", "--config", str(CONFIG_DIR / "ghz4.json"), "--restarts", "8",
            "--out", str(path),
        )
        assert code == EXIT_CONFIG
        assert out == "" and not path.exists()
        assert err == f"cannot write report to {path}: No such file or directory\n"

    def test_csv_only_for_sweep(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--config", str(CONFIG_DIR / "ghz4.json"), "--output", "csv"])
        assert excinfo.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --output csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state,pure_weight",
    [
        ({"kind": "GHZ", "n": 16}, 2.0**-14),
        ({"kind": "Dicke", "n": 16, "excitations": 8}, 2.0 / math.comb(16, 8)),
    ],
    ids=["GHZ16", "Dicke16"],
)
def test_sixteen_qubits_run_at_the_default_cap(capsys, tmp_path, state, pure_weight):
    v, eta_L, eta_H = 0.8, 0.9, 0.95
    doc = json.loads((CONFIG_DIR / "ghz4_duration.json").read_text())
    doc.update(
        state=state,
        visibility=v,
        eta_L=eta_L,
        eta_H=eta_H,
        settings=[[{"theta": 0.0}, {"theta": math.pi / 2}]] * 2,
    )
    path = tmp_path / "sixteen.json"
    path.write_text(json.dumps(doc))
    expected = v * pure_weight + (1.0 - v) * 2.0**-14
    evaluated = run_json(capsys, "eval", "--config", str(path))
    assert math.prod(evaluated["result"]["projection_probs"]) == pytest.approx(expected, rel=1e-9)
    duration = run_json(capsys, "duration", "--config", str(path))
    p_succ = duration["result"]["p_succ"]
    assert p_succ / (eta_L**14 * eta_H**2) == pytest.approx(expected, rel=1e-9)


def test_round_trip_bundled_configs():
    for name in SCENARIO_CONFIGS:
        doc = json.loads((CONFIG_DIR / name).read_text())
        config = ScenarioConfig.from_json_dict(doc)
        assert config.validate() == []
        again = ScenarioConfig.from_json_dict(config.to_json_dict())
        assert again == config, name


@pytest.mark.parametrize("name", SCENARIO_CONFIGS)
def test_every_bundled_scenario_runs(capsys, name):
    report = run_json(
        capsys, "eval", "--config", str(CONFIG_DIR / name), "--restarts", "8"
    )
    assert "composite_lhs" in report["result"], name


def test_each_call_reports_its_own_flags(capsys, tmp_path):
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc["settings"] = [[{"theta": 0.0}, {"theta": math.pi / 2}]] * 2
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(doc))
    calls = [(["--seed", "3", "--restarts", "5"], 3, 5), ([], 0, 64), (["--seed", "9"], 9, 64)]
    for flags, seed, restarts in calls:
        report = run_json(capsys, "eval", "--config", str(path), *flags)
        assert report["diagnostics"]["seed"] == seed
        assert report["diagnostics"]["optimizer_restarts"] == restarts


def test_fixed_settings_are_budgeted_without_the_optimizer(capsys, tmp_path):
    """With every setting fixed no optimizer runs, so a restart count whose Hessians
    alone would need about 48892 MiB neither fails the budget nor reaches the report's
    numbers; the report still echoes the flags it was given."""
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc["settings"] = [[{"theta": 0.0}, {"theta": math.pi / 2}],
                       [{"theta": math.pi / 4}, {"theta": -math.pi / 4}]]
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(doc))
    flags = ["--config", str(path), "--restarts", "100000000"]
    assert run_json(capsys, "validate", *flags)["result"]["violations"] == []
    for command in ("eval", "damaged"):
        report = run_json(capsys, command, *flags)
        assert report["result"]["bell_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert report["diagnostics"]["optimizer_restarts"] == 100000000
    for command, critical in (("critical-eta", 2.0 / (1.0 + math.sqrt(2.0))),
                              ("critical-visibility", 1.0 / math.sqrt(2.0))):
        result = run_json(capsys, command, *flags)["result"]
        assert result["status"] == "ok", command
        assert result["critical_value"] == pytest.approx(critical, abs=1e-9), command


# X-Y-plane projectors on GHZ4 (phi 0.7, and |+i>) leave Phi+ up to a relative phase.
PHASE_PROJECTORS = {
    "phi 0.7": [{"theta": math.pi / 2, "phi": 0.7}, {"theta": math.pi / 2, "phi": 0.0}],
    "+i": [{"theta": math.pi / 2, "phi": math.pi / 2}, {"theta": math.pi / 2, "phi": 0.0}],
}


@pytest.mark.parametrize("projectors", list(PHASE_PROJECTORS))
def test_phase_projectors_leave_the_maximally_entangled_thresholds(capsys, tmp_path, projectors):
    """The pair's phase needs y settings: in the x-z plane these gave a wrong "ok" at
    0.8853626638843985 (phi 0.7) and "not_found" with a critical visibility of 1 (+i)."""
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc["projectors"] = PHASE_PROJECTORS[projectors]
    path = tmp_path / "phase.json"
    path.write_text(json.dumps(doc))
    flags = ["--config", str(path), "--restarts", "8"]
    value = run_json(capsys, "eval", *flags)["result"]["bell_value"]
    assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    for command, critical in (("critical-eta", 2.0 / (1.0 + math.sqrt(2.0))),
                              ("critical-visibility", 1.0 / math.sqrt(2.0))):
        result = run_json(capsys, command, *flags)["result"]
        assert result["status"] == "ok", command
        assert result["critical_value"] == pytest.approx(critical, abs=1e-9), command


def test_seeded_runs_are_byte_identical(capsys):
    argv = [
        "critical-eta",
        "--config",
        str(CONFIG_DIR / "ghz4.json"),
        "--restarts",
        "8",
        "--seed",
        "42",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_main_reuses_one_parser(capsys, monkeypatch, tmp_path):
    def fail():
        raise AssertionError("main built a parser")

    monkeypatch.setattr("belldet.cli.build_parser", fail)
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc["settings"] = [[{"theta": 0.0}, {"theta": math.pi / 2}]] * 2
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(doc))
    for seed in ("5", "7"):
        report = run_json(capsys, "eval", "--config", str(path), "--seed", seed)
        assert report["diagnostics"]["seed"] == int(seed)


def test_rejected_call_leaves_no_flags_behind(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--seed", "4", "--restarts", "3"])
    assert excinfo.value.code == EXIT_CONFIG
    capsys.readouterr()
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc["settings"] = [[{"theta": 0.0}, {"theta": math.pi / 2}]] * 2
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, "eval", "--config", str(path), "--restarts", "5")
    assert report["diagnostics"]["seed"] == 0
    assert report["diagnostics"]["optimizer_restarts"] == 5


MAIN_MESSAGES = (
    "config error: ",
    "zero-weight projection: ",
    "degenerate scenario: ",
)


@pytest.mark.parametrize("command", ["duration", "lhv-bound", "validate", "sweep"])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_bundled_configs_keep_the_exit_code_contract(capsys, name, command):
    code, out, err = run(capsys, command, "--config", str(CONFIG_DIR / name))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NOT_FOUND)
    if code == EXIT_OK:
        assert err == ""
        assert set(json.loads(out)) == {"inputs", "result", "diagnostics"}
    else:
        assert out == ""
        assert err.startswith(MAIN_MESSAGES) and err.count("\n") == 1, err


@pytest.mark.parametrize("name", ["dicke42_damaged.json", "cluster4_blind.json"])
def test_duration_with_lost_qubits_is_a_config_error(capsys, name):
    code, _, err = run(capsys, "duration", "--config", str(CONFIG_DIR / name))
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "lost qubits" in err


def test_lhv_bound_reports_a_stored_bound_that_differs(capsys, tmp_path):
    doc = json.loads((CONFIG_DIR / "chsh.json").read_text())
    doc["classical_bound"] = 3.0
    path = tmp_path / "chsh3.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, "lhv-bound", "--config", str(path))
    assert report["result"] == {"lhv_bound": 2.0}
    assert report["diagnostics"] == {"stored_bound_mismatch": 3.0}
    assert report["inputs"]["classical_bound"] == 3.0


@pytest.mark.parametrize(
    "name,bound",
    [("ghz4.json", 2.0), ("eberhard_alpha005.json", 0.0), ("fig2.json", 2.0)],
)
def test_lhv_bound_reads_the_bell_section_of_scenarios_and_sweeps(capsys, name, bound):
    report = run_json(capsys, "lhv-bound", "--config", str(CONFIG_DIR / name))
    assert report["result"]["lhv_bound"] == bound
    assert report["diagnostics"] == {}


def _inline_chsh(doc):
    doc["bell"] = json.loads((CONFIG_DIR / "chsh.json").read_text())
    return doc["bell"]


# (config, edit, field): each edit puts a bool or a non-integral number where
# the parser once truncated it with int().
NON_INTEGRAL_FIELDS = [
    ("ghz4.json", lambda doc: doc.update(k=2.7), "k"),
    ("ghz4.json", lambda doc: doc.update(lost=True), "lost"),
    ("ghz4.json", lambda doc: doc["state"].update(n=4.9), "n"),
    ("dicke42.json", lambda doc: doc["state"].update(excitations=1.5), "excitations"),
    ("ghz4.json", lambda doc: _inline_chsh(doc).update(n_parties=2.9), "n_parties"),
    ("ghz4.json", lambda doc: _inline_chsh(doc).update(settings_per_party=False),
     "settings_per_party"),
    ("ghz4.json", lambda doc: _inline_chsh(doc)["terms"][1].update(settings=[0, 1.6]),
     "term settings"),
]


class TestIntegerFields:
    @staticmethod
    def write(tmp_path, name, edit):
        doc = json.loads((CONFIG_DIR / name).read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "name,edit,field", NON_INTEGRAL_FIELDS, ids=[field for _, _, field in NON_INTEGRAL_FIELDS]
    )
    def test_non_integral_value_is_a_config_error(self, capsys, tmp_path, name, edit, field):
        path = self.write(tmp_path, name, edit)
        for command in ("eval", "critical-eta", "duration"):
            code, out, err = run(capsys, command, "--config", path)
            assert (code, out) == (EXIT_CONFIG, ""), (command, err)
            assert err.startswith("config error:") and f"{field} must be an integer" in err
        report = run_json(capsys, "validate", "--config", path)
        [violation] = report["result"]["violations"]
        assert violation.startswith("parse:") and field in violation

    def test_integral_floats_still_parse(self, capsys, tmp_path):
        def edit(doc):
            doc.update(k=2.0, lost=0.0)
            doc["state"].update(n=4.0)
            _inline_chsh(doc).update(n_parties=2.0, settings_per_party=2.0)

        report = run_json(capsys, "validate", "--config", self.write(tmp_path, "ghz4.json", edit))
        assert report["result"]["violations"] == []
        assert (report["inputs"]["k"], report["inputs"]["state"]["n"]) == (2, 4)


# (config, edit, field): each edit puts a bool or a numeric string into a
# real-valued field, where the parser once read it with float().
NON_NUMERIC_FIELDS = [
    ("ghz4.json", lambda doc: doc.update(eta_L=True), "eta_L"),
    ("ghz4.json", lambda doc: doc.update(eta_H="0.9"), "eta_H"),
    ("ghz4.json", lambda doc: doc.update(visibility="0.9"), "visibility"),
    ("ghz4.json", lambda doc: doc.update(projectors=[{"theta": True}, {"theta": 1.0}]), "theta"),
    ("eberhard_alpha005.json", lambda doc: doc["projectors"][0].update(phi="0.5"), "phi"),
    ("ghz4.json", lambda doc: doc.update(state={"kind": "PartialPair", "alpha": False}), "alpha"),
    ("ghz4.json", lambda doc: _inline_chsh(doc)["terms"][0].update(weight=True), "weight"),
    ("ghz4.json", lambda doc: _inline_chsh(doc).update(classical_bound="2"), "classical_bound"),
]


@pytest.mark.parametrize(
    "name,edit,field", NON_NUMERIC_FIELDS, ids=[field for _, _, field in NON_NUMERIC_FIELDS]
)
def test_non_numeric_real_field_is_a_config_error(capsys, tmp_path, name, edit, field):
    path = TestIntegerFields.write(tmp_path, name, edit)
    for command in ("eval", "critical-eta", "duration"):
        code, out, err = run(capsys, command, "--config", path)
        assert (code, out) == (EXIT_CONFIG, ""), (command, err)
        assert err.startswith("config error:") and f"{field} must be a number" in err
    report = run_json(capsys, "validate", "--config", path)
    [violation] = report["result"]["violations"]
    assert violation.startswith("parse:") and field in violation


@pytest.mark.parametrize("field", ["weight", "classical_bound"])
def test_non_numeric_bell_field_is_an_lhv_bound_config_error(capsys, tmp_path, field):
    [edit] = [edit for _, edit, name in NON_NUMERIC_FIELDS if name == field]
    path = TestIntegerFields.write(tmp_path, "ghz4.json", edit)
    code, out, err = run(capsys, "lhv-bound", "--config", path)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error:") and f"{field} must be a number" in err


@pytest.mark.parametrize("stored", [False, True])
def test_lhv_bound_over_the_strategy_limit_is_a_config_error(capsys, tmp_path, cell_builds, stored):
    """With or without a stored bound, the enumeration limit exits 2 before C is built."""
    doc = {"n_parties": 8, "settings_per_party": 2, "form": "probability",
           "terms": [{"settings": [0] * 8, "weight": 1.0, "outcomes": ["+"] * 8}]}
    if stored:
        doc["classical_bound"] = 1.0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lhv-bound", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error:") and "limit is 1000000" in err
    assert cell_builds == []


def test_a_missing_field_is_named_as_missing(capsys, tmp_path):
    """A bare expression is no scenario: eval and validate name the absent "bell"
    field. lhv-bound names an expression's absent "form", and sweep a grid's
    absent "start", each as a missing field, not a bare key."""
    chsh = str(CONFIG_DIR / "chsh.json")
    code, out, err = run(capsys, "eval", "--config", chsh)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: config does not describe a valid scenario: missing field 'bell'\n"
    violations = run_json(capsys, "validate", "--config", chsh)["result"]["violations"]
    assert violations == ["parse: missing field 'bell'"]
    doc = json.loads((CONFIG_DIR / "chsh.json").read_text())
    del doc["form"]
    path = tmp_path / "formless.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lhv-bound", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: config does not describe a Bell expression: missing field 'form'\n"
    doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
    del doc["grid"]["start"]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.endswith('"step": missing field \'start\'\n')


@pytest.mark.parametrize("stored", [False, True])
def test_lhv_bound_at_ten_thousand_parties_is_a_config_error(capsys, tmp_path, stored):
    """2^20000 strategies, a count beyond the digits Python prints, exit 2 with the limit."""
    doc = {"n_parties": 10_000, "settings_per_party": 2, "form": "correlation",
           "terms": [{"settings": [1] * 10_000, "weight": 1.0}]}
    if stored:
        doc["classical_bound"] = 1.0
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lhv-bound", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == ("config error: config does not describe a Bell expression: "
                   "enumeration would visit 2^20000 strategies, limit is 1000000\n")


@pytest.mark.parametrize("grid", [{"start": "0.5"}, {"step": True}, {"stop": None}])
def test_non_numeric_sweep_grid_is_a_config_error(capsys, tmp_path, grid):
    doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
    doc["grid"].update(grid)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sweep", "--config", str(path), "--output", "csv")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith('config error: grid needs numeric "start", "stop", "step"')


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--restarts", "-3"), ("--seed", "abc")])
def test_seed_and_restarts_must_be_non_negative_integers(capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--config", str(CONFIG_DIR / "ghz4.json"), flag, value])
    assert excinfo.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag}:" in captured.err


def test_sweep_with_lost_qubits_is_the_duration_config_error(capsys, tmp_path):
    doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
    doc["scenario"]["lost"] = 1
    sweep_path, scenario_path = tmp_path / "sweep.json", tmp_path / "scenario.json"
    sweep_path.write_text(json.dumps(doc))
    scenario_path.write_text(json.dumps(doc["scenario"]))
    code, out, err = run(capsys, "sweep", "--config", str(sweep_path), "--output", "csv")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error:") and "lost qubits" in err
    assert run(capsys, "duration", "--config", str(scenario_path)) == (EXIT_CONFIG, "", err)


@pytest.mark.parametrize(
    "grid,rows",
    [
        ({"start": 0.0, "stop": 1.0, "step": 1.0 / (MAX_SWEEP_ROWS - 1)}, MAX_SWEEP_ROWS),
        ({"start": 0.0, "stop": 1.0, "step": 1.0 / MAX_SWEEP_ROWS}, MAX_SWEEP_ROWS + 1),
        ({"start": 0.0, "stop": 1.0, "step": 1e-9}, 10**9 + 1),
        ({"start": 0.0, "stop": 1.0, "step": 5e-324}, None),
    ],
)
def test_sweep_row_limit_is_checked_before_any_row(capsys, tmp_path, monkeypatch, grid, rows):
    class RowsBuilt(Exception):
        pass

    def build_rows(config):
        raise RowsBuilt

    # The sweep projects the state before it builds any row, so raising there
    # proves that no row was built.
    monkeypatch.setattr("belldet.protocol.projected_state", build_rows)
    doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
    doc["grid"] = grid
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    if rows == MAX_SWEEP_ROWS:
        with pytest.raises(RowsBuilt):
            main(["sweep", "--config", str(path)])
    else:
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error: grid has more than {MAX_SWEEP_ROWS} rows\n"


# (config, edit, flags, broken): validate must flag a document exactly when
# the command that reads it (eval for a scenario, sweep for a sweep) exits 2.
VALIDATE_CASES = {
    "clean scenario": ("ghz4.json", None, [], False),
    "clean sweep": ("fig2.json", None, [], False),
    "bad k": ("ghz4.json", lambda doc: doc.update(k=6), [], True),
    "bad eta_H": ("ghz4.json", lambda doc: doc.update(eta_H=1.2), [], True),
    "state over the cap": (
        "ghz4.json", lambda doc: doc.update(state={"kind": "GHZ", "n": QUBIT_CAP + 1}), [], True
    ),
    "projector count": ("ghz4.json", lambda doc: doc.update(projectors=[{"theta": 0.0}]), [], True),
    "missing bell": ("ghz4.json", lambda doc: doc.pop("bell"), [], True),
    "bad grid": ("fig2.json", lambda doc: doc["grid"].update(step=-0.05), [], True),
    "grid over the row limit": ("fig2.json", lambda doc: doc["grid"].update(step=1e-6), [], True),
    "lost in a sweep": ("fig2.json", lambda doc: doc["scenario"].update(lost=1), [], True),
    "bad sweep scenario": ("fig2.json", lambda doc: doc["scenario"].update(eta_L=-0.1), [], True),
    "lost above N-k": ("ghz4.json", lambda doc: doc.update(lost=3), [], True),
    "settings shape": (
        "ghz4.json", lambda doc: doc.update(settings=[[{"theta": 0.0}], [{"theta": 0.0}]]), [], True
    ),
    "sweep without a grid": ("fig2.json", lambda doc: doc.pop("grid"), [], True),
    "sweep over the cap": (
        "fig2.json", lambda doc: doc["scenario"].update(state={"kind": "GHZ", "n": QUBIT_CAP + 1}),
        [], True,
    ),
}


@pytest.mark.parametrize("case", list(VALIDATE_CASES))
def test_validate_flags_what_the_reading_command_rejects(capsys, tmp_path, case):
    name, edit, flags, broken = VALIDATE_CASES[case]
    doc = json.loads((CONFIG_DIR / name).read_text())
    if edit is not None:
        edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    violations = run_json(capsys, "validate", "--config", str(path), *flags)["result"]["violations"]
    command = "sweep" if "scenario" in doc else "eval"
    code, out, err = run(
        capsys, command, "--config", str(path), *restarts_flags(command, "2"), *flags
    )
    assert bool(violations) == broken == (code == EXIT_CONFIG), (violations, code, err)
    # each violation is named in the command's one error line
    assert all(v.removeprefix("parse: ") in err for v in violations)


def test_validate_on_a_sweep_does_not_project(capsys, monkeypatch):
    def fail(config):
        raise AssertionError("validate projected the state")

    monkeypatch.setattr("belldet.protocol.projected_state", fail)
    monkeypatch.setattr("belldet.analysis.projected_state", fail)
    report = run_json(capsys, "validate", "--config", str(CONFIG_DIR / "fig2.json"))
    assert report["result"]["violations"] == []
    assert report["inputs"]["state"] == {"kind": "GHZ", "n": 4}


@pytest.mark.parametrize(
    "command,site",
    [
        ("eval", "belldet.protocol.composite_parts"),
        ("critical-eta", "belldet.protocol.critical_eta_high"),
        ("critical-visibility", "belldet.protocol.critical_visibility"),
        ("lhv-bound", "belldet.cli.lhv_bound"),
    ],
)
def test_commands_call_library_functions_patched_after_import(capsys, monkeypatch, command, site):
    module_name, attr = site.rsplit(".", 1)
    module = importlib.import_module(module_name)
    real, calls = getattr(module, attr), []

    def recorded(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, recorded)
    config = str(CONFIG_DIR / "ghz4.json")
    run_json(capsys, command, "--config", config, *restarts_flags(command, "2"))
    assert calls == [attr]


def test_lhv_bound_of_an_inline_expression_without_a_bound_is_computed_once(
    capsys, monkeypatch, tmp_path
):
    """The handler reads ``classical_bound``, which enumerates the bound on its first
    read, so lhv_bound is never called a second time."""
    doc = {"n_parties": 3, "settings_per_party": 2, "form": "probability", "terms": [
        {"settings": [0, 0, 1], "weight": 1.5, "outcomes": ["+", "-", "+"]},
        {"settings": [1, 1, 0], "weight": -0.25, "outcomes": ["*", "+", "0"]},
        {"settings": [0, 1, 1], "weight": 2.0, "outcomes": ["-", "*", "+"]},
        {"settings": [1, 0, 0], "weight": -1.0, "outcomes": ["0", "+", "*"]},
        {"settings": [0, 0, 0], "weight": 0.75, "outcomes": ["+", "+", "+"]},
    ]}
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(doc))
    calls = []
    monkeypatch.setattr("belldet.cli.lhv_bound", lambda expr: calls.append(expr))
    report = run_json(capsys, "lhv-bound", "--config", str(path))
    assert calls == []
    assert report == {
        "diagnostics": {},
        "inputs": {**doc, "classical_bound": 2.0},
        "result": {"lhv_bound": 2.0},
    }


def test_an_inline_expression_without_a_bound_reports_as_its_preset(capsys):
    """ghz4_inline.json is ghz4.json with CHSH written out and no classical_bound:
    every command gives the same exit code, stdout and stderr."""
    for command in COMMANDS:
        preset_run, inline_run = (
            run(capsys, command, "--config", str(CONFIG_DIR / name), *restarts_flags(command, "8"))
            for name in ("ghz4.json", "ghz4_inline.json")
        )
        assert inline_run == preset_run, command


def test_parsing_never_enumerates_the_bound(monkeypatch):
    """A missing bound is enumerated on first use, never while a document is parsed."""
    def fail(expr):
        raise AssertionError("lhv_bound ran while parsing")

    monkeypatch.setattr("belldet.bell.lhv_bound", fail)
    for path in CONFIG_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        doc = doc.get("scenario", doc)
        if "bell" in doc:
            ScenarioConfig.from_json_dict(doc)
        bell.BellExpression.from_json_dict(doc.get("bell", doc))
    bell.BellExpression.from_json_dict(_ghz_one_term(12, 1, "probability", bound=None)["bell"])


def test_sweep_and_duration_share_the_trial_ratio(capsys, tmp_path):
    report = run_json(capsys, "sweep", "--config", str(CONFIG_DIR / "fig2.json"))
    p_prod = math.prod(report["diagnostics"]["projection_probs"])
    for row in report["result"]["rows"]:
        assert row["n_prime"] == n_prime_from_ratio(p_prod, row["ratio"], 2)
    doc = json.loads((CONFIG_DIR / "fig2.json").read_text())["scenario"]
    doc.update(eta_L=0.45, eta_H=1.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    duration = run_json(capsys, "duration", "--config", str(path))
    assert duration["result"]["trial_ratio"] == n_prime_from_ratio(p_prod, 0.45, 2)


@pytest.mark.parametrize("eta_L,eta_H", [(0.0, 1.0), (0.5, 0.0)])
def test_duration_with_a_blind_detector_exits_3(capsys, tmp_path, eta_L, eta_H):
    doc = json.loads((CONFIG_DIR / "ghz4_duration.json").read_text())
    doc.update(eta_L=eta_L, eta_H=eta_H)
    path = tmp_path / "blind.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "duration", "--config", str(path))
    assert (code, out) == (EXIT_NOT_FOUND, "")
    assert err == "degenerate scenario: projected-scenario success probability is zero\n"


@pytest.mark.parametrize(
    "edit",
    [
        {"eta_L": 1e-51, "eta_H": 1e-51, "target_successes": 1000},
        {"eta_L": 1e-80},
        {"eta_L": 1.0, "eta_H": 1e-100, "target_successes": 100},
        {"eta_L": 1e-10, "eta_H": 1e-100, "target_successes": 100},
        {"eta_L": 1.0, "eta_H": 1e-100},
    ],
    ids=["infinite expected trials", "n-prime overflow", "eta_H^N underflow",
         "eta_H^N underflow at a tiny eta_L", "eta_H^N underflow without a target"],
)
def test_duration_beyond_the_float_range_exits_3(capsys, tmp_path, edit):
    doc = json.loads((CONFIG_DIR / "ghz6.json").read_text())
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**doc, **edit}))
    code, out, err = run(capsys, "duration", "--config", str(path))
    assert (code, out) == (EXIT_NOT_FOUND, "")
    assert err.startswith("degenerate scenario: ") and err.count("\n") == 1, err


def test_n_prime_overflow_names_n_prime_and_its_inputs(capsys, tmp_path):
    doc = json.loads((CONFIG_DIR / "ghz6.json").read_text())
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**doc, "eta_L": 1e-80}))
    code, out, err = run(capsys, "duration", "--config", str(path))
    assert (code, out) == (EXIT_NOT_FOUND, "")
    assert err == (
        "degenerate scenario: n' is beyond the float range: "
        "eta_L/eta_H = 1e-80 to the power -4, prod p_i = 0.0625\n"
    )


def _projector_theta(value):
    return lambda doc: doc["projectors"][0].update(theta=value)


def _setting_theta(value):
    return lambda doc: doc.update(settings=[[{"theta": value}, {"theta": 1.0}]] * 2)


# (config, edit, commands): each edit puts NaN or Infinity into one field,
# which Python's json module would otherwise read as a float.
NON_FINITE_FIELDS = {
    "projector theta NaN": ("eberhard_alpha005.json", _projector_theta(math.nan), ["eval"]),
    "PartialPair alpha NaN": (
        "ghz4.json", lambda doc: doc.update(state={"kind": "PartialPair", "alpha": math.nan}),
        ["eval"],
    ),
    "setting theta Infinity": ("ghz4.json", _setting_theta(math.inf), ["critical-eta"]),
    "setting theta NaN": ("ghz4.json", _setting_theta(math.nan), ["eval"]),
    "term weight NaN": (
        "ghz4.json", lambda doc: _inline_chsh(doc)["terms"][0].update(weight=math.nan),
        ["eval", "lhv-bound"],
    ),
    "eta_H NaN": ("ghz4.json", lambda doc: doc.update(eta_H=math.nan), []),
    "eta_L -Infinity": ("ghz4.json", lambda doc: doc.update(eta_L=-math.inf), []),
}


@pytest.mark.parametrize("case", list(NON_FINITE_FIELDS))
def test_non_finite_constants_are_not_json(capsys, tmp_path, case):
    name, edit, commands = NON_FINITE_FIELDS[case]
    doc = json.loads((CONFIG_DIR / name).read_text())
    edit(doc)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # json.dumps writes NaN, Infinity and -Infinity
    for command in commands + ["validate"]:
        code, out, err = run(capsys, command, "--config", str(path), *restarts_flags(command, "2"))
        assert (code, out) == (EXIT_CONFIG, ""), (command, err)
        assert err.startswith(f"config error: config {path} is not valid JSON: ")
        assert "is not a JSON number" in err


@pytest.mark.parametrize("number", ["1e400", "1" + "0" * 400, "-1" + "0" * 400])
def test_number_beyond_float_range_is_a_config_error(capsys, tmp_path, number):
    # json reads 1e400 as inf and a 401-digit integer as an int that no float holds
    text = (CONFIG_DIR / "ghz4.json").read_text().replace('"eta_H": 1.0', f'"eta_H": {number}')
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert "eta_H must be finite" in err
    [violation] = run_json(capsys, "validate", "--config", str(path))["result"]["violations"]
    assert violation.startswith("parse:") and "eta_H must be finite" in violation


@pytest.mark.parametrize("terms", ["x", [1], ["settings"]])
def test_terms_that_are_not_objects_are_a_config_error(capsys, tmp_path, terms):
    edit = lambda doc: _inline_chsh(doc).update(terms=terms)  # noqa: E731
    path = TestIntegerFields.write(tmp_path, "ghz4.json", edit)
    for command in ("eval", "lhv-bound"):
        code, out, err = run(capsys, command, "--config", path, *restarts_flags(command, "2"))
        assert (code, out) == (EXIT_CONFIG, ""), (command, err)
    [violation] = run_json(capsys, "validate", "--config", path)["result"]["violations"]
    assert violation.startswith("parse:")


# (edit, message): a section the parser indexes by field name or iterates holds another
# JSON type; the last rows lack a field, or hold a value the parser rejects.
WRONG_JSON_TYPES = {
    "state": (lambda doc: doc.update(state="GHZ"), "state must be a JSON object, got 'GHZ'"),
    "bell": (lambda doc: doc.update(bell="CHSH"), "bell must be a JSON object, got 'CHSH'"),
    "projectors": (
        lambda doc: doc.update(projectors=[1, 2]), "projector must be a JSON object, got 1"
    ),
    "settings": (
        lambda doc: doc.update(settings=[[1, 2], [3, 4]]), "setting must be a JSON object, got 1"
    ),
    "terms": (
        lambda doc: _inline_chsh(doc).update(terms=[1]), "term must be a JSON object, got 1"
    ),
    "projectors number": (
        lambda doc: doc.update(projectors=5), "projectors must be a JSON array, got 5"
    ),
    "settings number": (lambda doc: doc.update(settings=5), "settings must be a JSON array, got 5"),
    "party settings": (
        lambda doc: doc.update(settings=[1, 2]), "a party's settings must be a JSON array, got 1"
    ),
    "terms number": (
        lambda doc: _inline_chsh(doc).update(terms=5), "terms must be a JSON array, got 5"
    ),
    "terms object": (
        lambda doc: _inline_chsh(doc).update(terms={"settings": [0, 0]}),
        "terms must be a JSON array, got an object",
    ),
    "term settings": (
        lambda doc: _inline_chsh(doc)["terms"][0].update(settings=0),
        "term settings must be a JSON array, got 0",
    ),
    "kind": (
        lambda doc: doc["state"].update(kind=["GHZ"]),
        f"unknown state kind ['GHZ']; expected one of {STATE_KINDS}",
    ),
    "document": (lambda doc: [doc], "scenario must be a JSON object, got an array"),
    "number": (lambda doc: 5, "scenario must be a JSON object, got 5"),
    # only a kind of fixed qubit count may omit n
    "GHZ without n": (lambda doc: doc.update(state={"kind": "GHZ"}), "missing field 'n'"),
    "Dicke without n": (
        lambda doc: doc.update(state={"kind": "Dicke", "excitations": 2}), "missing field 'n'"
    ),
    "W without n": (lambda doc: doc.update(state={"kind": "W"}), "missing field 'n'"),
    "n_parties 0": (lambda doc: _inline_chsh(doc).update(n_parties=0), "n_parties must be >= 1"),
    "settings_per_party 0": (
        lambda doc: _inline_chsh(doc).update(settings_per_party=0),
        "settings_per_party must be >= 1",
    ),
    "correlation outcomes": (
        lambda doc: _inline_chsh(doc)["terms"][0].update(outcomes=["+", "+"]),
        "correlation terms carry no outcome labels",
    ),
}


@pytest.mark.parametrize("case", list(WRONG_JSON_TYPES))
def test_a_section_of_the_wrong_json_type_is_named(capsys, tmp_path, case):
    edit, message = WRONG_JSON_TYPES[case]
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(edit(doc) or doc))
    code, out, err = run(capsys, "eval", "--config", str(path), "--restarts", "2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: config does not describe a valid scenario: {message}\n"
    violations = run_json(capsys, "validate", "--config", str(path))["result"]["violations"]
    assert violations == [f"parse: {message}"]


@pytest.mark.parametrize(
    "state,message",
    [
        ({"kind": "W", "n": 4, "excitations": 3}, "excitations is for Dicke states only, not W"),
        ({"kind": "GHZ", "n": 4, "alpha": 0.3}, "alpha is for PartialPair states only, not GHZ"),
        ({"kind": "GHZ", "n": 0}, "n must be >= 1"),
        ({"kind": "GHZ", "n": 1}, "GHZ requires n >= 2"),
        ({"kind": "W", "n": 1}, "W requires n >= 2"),
    ],
    ids=["W excitations", "GHZ alpha", "n 0", "GHZ n 1", "W n 1"],
)
def test_a_state_field_the_kind_ignores_is_a_config_error(capsys, tmp_path, state, message):
    """No command builds one state and echoes a field that no factory read, nor a
    state with fewer qubits than its kind's least count."""
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc["state"] = state
    path = tmp_path / "ignored.json"
    path.write_text(json.dumps(doc))
    for command in ("eval", "critical-eta", "critical-visibility", "duration", "damaged"):
        code, out, err = run(capsys, command, "--config", str(path), *restarts_flags(command, "2"))
        assert (code, out) == (EXIT_CONFIG, ""), command
        assert err == f"config error: config does not describe a valid scenario: {message}\n"
    violations = run_json(capsys, "validate", "--config", str(path))["result"]["violations"]
    assert violations == [f"parse: {message}"]


def test_partial_pair_end_to_end(capsys, tmp_path):
    """eval on cos(a)|00> + sin(a)|11> echoes alpha and reaches Horodecki's CHSH maximum
    2 sqrt(1 + sin^2 2a); every kind's spec survives its JSON round trip."""
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc.update(state={"kind": "PartialPair", "alpha": 0.3}, k=2, eta_L=1.0)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, "eval", "--config", str(path), "--restarts", "8")
    assert report["inputs"]["state"] == {"kind": "PartialPair", "n": 2, "alpha": 0.3}
    horodecki = 2.0 * math.sqrt(1.0 + math.sin(0.6) ** 2)
    assert report["result"]["bell_value"] == pytest.approx(horodecki, abs=1e-9)
    specs = [
        StateSpec("GHZ", 3), StateSpec("Dicke", 4, excitations=2), StateSpec("W", 3),
        StateSpec("Cluster4", 4), StateSpec("BellPhiPlus", 2), StateSpec("BellPsiPlus", 2),
        StateSpec("PartialPair", 2, alpha=0.3),
    ]
    assert {spec.kind for spec in specs} == set(STATE_KINDS)
    for spec in specs:
        assert StateSpec.from_json_dict(spec.to_json_dict()) == spec


@pytest.mark.parametrize(
    "doc,message",
    [
        (5, "config must be a JSON object, got 5"),
        ([1], "config must be a JSON object, got an array"),
        ({"scenario": "ghz4"}, "scenario must be a JSON object, got 'ghz4'"),
        ({"bell": "CHSH"}, "bell must be a JSON object, got 'CHSH'"),
    ],
    ids=["number", "array", "scenario", "bell"],
)
def test_lhv_bound_names_a_section_of_the_wrong_json_type(capsys, tmp_path, doc, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lhv-bound", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: config does not describe a Bell expression: {message}\n"


def test_a_sweep_grid_of_the_wrong_json_type_is_named(capsys, tmp_path):
    doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
    doc["grid"] = [0.05, 1.0, 0.05]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    message = 'grid needs numeric "start", "stop", "step": grid must be a JSON object, got an array'
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: {message}\n"
    violations = run_json(capsys, "validate", "--config", str(path))["result"]["violations"]
    assert violations == [message]


@pytest.mark.parametrize("command", COMMANDS)
def test_an_unreadable_config_is_a_config_error(capsys, tmp_path, command):
    """The message names the path once, then the cause."""
    for path, cause in [(tmp_path / "absent.json", "No such file or directory"),
                        (tmp_path, "Is a directory")]:
        code, out, err = run(capsys, command, "--config", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error: cannot read config {path}: {cause}\n"


def test_non_utf8_config_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"k": "\xe9"}')
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"config error: config {path} is not valid JSON: ")


@pytest.mark.parametrize("outcomes", ["++", [0, "+"]], ids=["string", "integer label"])
def test_outcome_labels_must_be_a_list_of_strings(capsys, tmp_path, outcomes):
    def edit(doc):
        doc["bell"] = preset("EBERHARD_CH").to_json_dict()
        doc["bell"]["terms"][0]["outcomes"] = outcomes

    path = TestIntegerFields.write(tmp_path, "eberhard_alpha005.json", edit)
    for command in ("eval", "lhv-bound"):
        code, out, err = run(capsys, command, "--config", path, *restarts_flags(command, "2"))
        assert (code, out) == (EXIT_CONFIG, ""), (command, err)
        assert "outcomes must be a list of labels" in err
    [violation] = run_json(capsys, "validate", "--config", path)["result"]["violations"]
    assert violation.startswith("parse:") and "outcomes" in violation


def test_a_preset_takes_no_other_field(capsys, tmp_path):
    """A stated bound beside a preset was dropped: eval reported classical_bound 2.0
    and a violation, and lhv-bound no mismatch, under a claimed bound of 5."""
    bell = {"preset": "CHSH", "classical_bound": 5.0}
    path = TestIntegerFields.write(tmp_path, "ghz4.json", lambda doc: doc.update(bell=bell))
    text = "a preset Bell section takes no other field, got ['classical_bound']"
    for command in ("eval", "lhv-bound"):
        code, out, err = run(capsys, command, "--config", path, *restarts_flags(command, "2"))
        assert (code, out) == (EXIT_CONFIG, ""), command
        assert err.endswith(f": {text}\n"), err
    violations = run_json(capsys, "validate", "--config", path)["result"]["violations"]
    assert violations == [f"parse: {text}"]


def _ghz_one_term(k, settings_per_party, form="correlation", bound=1.0):
    """GHZ_k with every qubit in the Bell test and a one-term inline expression,
    whose bound is ``bound`` or, at None, left out."""
    term = {"settings": [settings_per_party - 1] * k, "weight": 1.0}
    if form == "probability":
        term["outcomes"] = ["+"] * k
    bell = {"form": form, "n_parties": k, "settings_per_party": settings_per_party,
            "terms": [term]}
    if bound is not None:
        bell["classical_bound"] = bound
    return {"state": {"kind": "GHZ", "n": k}, "k": k, "eta_L": 0.5, "eta_H": 1.0, "bell": bell}


# (k, settings per party, form, flags, bound): the k-qubit density matrix alone is 64 GiB
# at k = 16; the optimizer's (starts, D, D) Hessian is several GiB at 1000 settings;
# the probability-form expression tensor C ((4 s)^k floats) is 1 GiB at k = 9, s = 2.
# Without a stated bound, GHZ12's C (128 MiB) would be built to enumerate it.
OVER_BUDGET = {
    "GHZ16, k = 16": (16, 1, "correlation", [], 1.0),
    "1000 settings": (2, 1000, "correlation", ["--restarts", "64"], 1.0),
    "probability, k = 9": (9, 2, "probability", ["--restarts", "0"], 1.0),
    "probability, k = 12, no bound": (12, 1, "probability", [], None),
}


@pytest.mark.parametrize("case", list(OVER_BUDGET))
def test_working_set_above_the_memory_budget_is_a_config_error(
    capsys, monkeypatch, tmp_path, cell_builds, case
):
    def fail(spec):
        raise AssertionError("the state was built")

    monkeypatch.setattr("belldet.protocol.make_state", fail)
    k, s, form, flags, bound = OVER_BUDGET[case]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_ghz_one_term(k, s, form, bound)))
    report = run_json(capsys, "validate", "--config", str(path), *flags)
    [violation] = report["result"]["violations"]
    assert violation.startswith(f"k = {k} with {s} settings per party needs about")
    assert violation.endswith("MiB, above the budget 1024 MiB")
    for command in ("eval", "critical-eta", "critical-visibility", "damaged"):
        code, out, err = run(capsys, command, "--config", str(path), *flags)
        assert (code, out) == (EXIT_CONFIG, ""), command
        assert err == f"config error: config violates invariants: {violation}\n"
    # --restarts 0 still refines from 16 starts; duration never optimizes, so it budgets no
    # optimizer Hessian, which alone puts 1000 settings per party over the budget
    report = run_json(capsys, "validate", "--config", str(path), "--restarts", "0")
    [violation] = report["result"]["violations"]
    assert violation.endswith("MiB, above the budget 1024 MiB")
    if case == "1000 settings":
        with pytest.raises(AssertionError, match="the state was built"):  # admitted
            main(["duration", "--config", str(path)])
    else:
        code, out, err = run(capsys, "duration", "--config", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error: config violates invariants: {violation}\n"
    assert cell_builds == []  # C is (s L)^k floats: never built to check the budget


def test_working_set_beyond_the_float_range_is_a_config_error(capsys, tmp_path, cell_builds):
    """10^200 settings per party need about 8.4e403 bytes, a MiB count no float holds."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_ghz_one_term(2, 10**200)))
    [violation] = run_json(capsys, "validate", "--config", str(path))["result"]["violations"]
    assert violation == (f"k = 2 with {10**200} settings per party needs about 10^398 MiB, "
                         "above the budget 1024 MiB")
    code, out, err = run(capsys, "eval", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: config violates invariants: {violation}\n"
    assert cell_builds == []


def test_fixed_settings_budget_no_optimizer_hessian(capsys, tmp_path):
    """1000 settings per party, every one fixed: the optimizer's Hessian for 18 starts
    would need about 2.2 GiB, but no optimizer runs, and eval peaks near 74 MiB."""
    doc = json.loads((CONFIG_DIR / "ghz4.json").read_text())
    doc.update(bell=_ghz_one_term(2, 1000)["bell"], settings=[[{"theta": 0.0}] * 1000] * 2)
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(doc))
    assert run_json(capsys, "validate", "--config", str(path))["result"]["violations"] == []
    report = run_json(capsys, "eval", "--config", str(path), "--restarts", "0")
    assert report["result"]["bell_value"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_bytes", [2**19, 2**19 + 1, 10**300, 2**1043])
def test_mebibytes_match_float_division_where_it_fits(n_bytes):
    assert protocol._mebibytes(n_bytes) == f"{n_bytes / 2**20:.0f}"


@pytest.mark.parametrize(
    "command,name", [("duration", "ghz4_duration.json"), ("sweep", "fig2.json"),
                     ("validate", "fig2.json")],
)
def test_commands_that_never_optimize_budget_no_optimizer(capsys, tmp_path, cell_builds,
                                                          command, name):
    """duration, sweep and validate on a sweep document run no optimizer, so they admit
    what fits without its Hessian: with AUTO settings and 1000 settings per party, each
    exited 2 with "needs about 2284 MiB" when the budget counted 18 optimizer starts."""
    doc = json.loads((CONFIG_DIR / name).read_text())
    doc.get("scenario", doc).update(bell=_ghz_one_term(2, 1000)["bell"], settings="auto")
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    report = run_json(capsys, command, "--config", str(path))
    if command == "validate":
        assert report["result"]["violations"] == []
    assert cell_builds == []  # neither command evaluates the expression


@pytest.mark.parametrize("name", ["eberhard_alpha005.json", "ghz4.json"])
def test_critical_eta_builds_the_cell_tensor_once(capsys, cell_builds, name):
    """Every efficiency the threshold search visits dresses the one C of the config's expression."""
    run_json(capsys, "critical-eta", "--config", str(CONFIG_DIR / name), "--restarts", "8")
    assert len(cell_builds) == 1


def _at_n(kind, n):
    state = {"kind": kind, "n": n}
    if kind == "Dicke":
        state["excitations"] = n // 2
    return state


@pytest.mark.parametrize("kind", ["GHZ", "Dicke"])
def test_qubit_cap_boundary(capsys, monkeypatch, tmp_path, kind):
    """N = QUBIT_CAP validates and N = QUBIT_CAP + 1 is one config error for
    every command that reads a scenario, with no state built; make_state
    itself stops at the same cap, with the same text."""
    def fail(spec):
        raise AssertionError("the state was built")

    monkeypatch.setattr("belldet.protocol.make_state", fail)
    doc = json.loads((CONFIG_DIR / "ghz4_duration.json").read_text())
    path = tmp_path / "doc.json"
    doc["state"] = _at_n(kind, QUBIT_CAP)
    path.write_text(json.dumps(doc))
    assert run_json(capsys, "validate", "--config", str(path))["result"]["violations"] == []
    doc["state"] = _at_n(kind, QUBIT_CAP + 1)
    path.write_text(json.dumps(doc))
    [violation] = run_json(capsys, "validate", "--config", str(path))["result"]["violations"]
    assert violation == f"state uses {QUBIT_CAP + 1} qubits, above the cap {QUBIT_CAP}"
    for command in ("eval", "critical-eta", "critical-visibility", "duration", "damaged"):
        code, out, err = run(capsys, command, "--config", str(path))
        assert (code, out) == (EXIT_CONFIG, ""), command
        assert err == f"config error: config violates invariants: {violation}\n"
    sweep = json.loads((CONFIG_DIR / "fig2.json").read_text())
    sweep["scenario"]["state"] = doc["state"]
    path.write_text(json.dumps(sweep))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: config violates invariants: {violation}\n"
    with pytest.raises(QubitCapacityError) as caught:
        make_state(StateSpec.from_json_dict(doc["state"]))
    assert str(caught.value) == violation  # one text, whether built or validated


def test_each_command_takes_only_the_flags_it_reads(capsys):
    """The qubit cap has no flag: argparse rejects any flag not listed here (exit 2),
    with a usage line, before the config is read."""
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMAND_FLAGS)
    for name, parser in commands.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--config", "--out", *COMMAND_FLAGS[name]}, name
        for flag, value in (("--seed", "7"), ("--restarts", "8"), ("--output", "csv")):
            if flag in flags:
                continue
            with pytest.raises(SystemExit) as excinfo:
                main([name, "--config", str(CONFIG_DIR / "missing.json"), flag, value])
            assert excinfo.value.code == EXIT_CONFIG, (name, flag)
            err = capsys.readouterr().err
            assert err.startswith("usage: belldet") and f"arguments: {flag} {value}" in err


@pytest.mark.parametrize(
    "k,s,restarts,fits,form",
    [pytest.param(*case, "correlation", id="-".join(map(str, case))) for case in
     [(11, 2, 64, True), (12, 2, 0, False), (2, 300, 64, True), (2, 400, 64, False),
      (2, 400, 0, True)]]
    + [(8, 2, 64, True, "probability"), (9, 2, 0, False, "probability")],
)
def test_memory_budget_boundary(capsys, tmp_path, k, s, restarts, fits, form):
    """The largest k and settings count validate; one step beyond does not.
    Fewer restarts leave room for more settings (the solvers still refine
    from 16 random starts). Probability form has 4 cells per setting in the
    expression tensor C against 1 in correlation form, so it stops at a lower k."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_ghz_one_term(k, s, form)))
    report = run_json(capsys, "validate", "--config", str(path), "--restarts", str(restarts))
    assert (report["result"]["violations"] == []) == fits


def _reference_report(inputs, result, diagnostics):
    """What reports were before belldet wrote them with its own encoder."""
    report = {"inputs": inputs, "result": result, "diagnostics": diagnostics}
    return json.dumps(report, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_reports_are_what_json_dumps_writes(capsys, monkeypatch, name, command):
    real, reports = cli._json_report, []

    def checked(inputs, result, diagnostics):
        reports.append((real(inputs, result, diagnostics), (inputs, result, diagnostics)))
        return reports[-1][0]

    monkeypatch.setattr(cli, "_json_report", checked)
    config = str(CONFIG_DIR / name)
    code, out, _ = run(capsys, command, "--config", config, *restarts_flags(command, "2"))
    assert [text for text, _ in reports] == ([out] if out else [])
    for text, parts in reports:
        assert text == _reference_report(*parts)


class _Level(enum.IntEnum):
    LOW = 1


class _Tag(str, enum.Enum):
    A = "aé"


EDGE_DOCUMENTS = {
    "empty list": [],
    "empty dict": {},
    "nested empties": {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}]},
    "tuples": (1, (2.5, "x"), (), [()]),
    "non-ASCII": {"été": "日本 \U0001f600  ", "\ud800": "lone"},
    "escapes": ['quote " backslash \\ newline \n tab \t', "\x00\x1f\x7f", "/"],
    "constants": [True, False, None, {"t": True, "n": None}],
    "numpy scalars": [np.float64(0.1), np.int64(3), np.bool_(True), np.bool_(False),
                      np.float32(0.5), {"x": np.float64(-2.0)}],
    "enums": [_Level.LOW, _Tag.A, {"form": bell.BellForm.PROBABILITY}],
    "floats": [-0.0, 0.0, 1e300, -1e300, 5e-324, 1e16, 0.1, 1.0 / 3.0],
    "ints": [0, -1, 10**30, -(10**30)],
    "keys": {"b": 1, "a": 2, "é": 3, "A": 4, "": 5, _Tag.A: 6, "\n": 7},
    "deep": {"a": [{"b": [{"c": [1, [2, [3, {"d": None}]]]}]}]},
}


@pytest.mark.parametrize("case", list(EDGE_DOCUMENTS))
def test_report_encoder_matches_json_dumps_on_edge_documents(case):
    doc = EDGE_DOCUMENTS[case]
    assert cli._json_report(doc, {"r": doc}, {}) == _reference_report(doc, {"r": doc}, {})


@pytest.mark.parametrize(
    "value",
    [math.inf, -math.inf, math.nan, np.float64(math.nan), [1.0, {"x": math.inf}]],
    ids=["inf", "-inf", "nan", "numpy nan", "nested inf"],
)
def test_non_finite_report_is_an_arithmetic_error(value):
    with pytest.raises(ValueError) as reference:
        _reference_report({}, {"value": value}, {})
    with pytest.raises(ArithmeticError, match="non-finite") as caught:
        cli._json_report({}, {"value": value}, {})
    assert str(caught.value.__cause__) == str(reference.value)


def test_report_keys_must_be_strings():
    with pytest.raises(TypeError):
        cli._json_report({}, {1: "one"}, {})
