"""Command-line workflows end to end, including determinism and exit codes."""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from setflow import (
    Chain,
    extend_exhaustive,
    family_from_text,
    map_from_dict,
    parse_problem,
    potential_value,
    replay_witness,
    verify_chain,
)
from setflow.chains import ClassReport
from setflow.cli import BUDGET_ENV, EXIT_BUDGET, EXIT_INVALID, EXIT_SELECTION, main

from conftest import INERTIAL_GAP_PROBLEM, child_env


SIGN_PROBLEM = {
    "map": {
        "kind": "table",
        "regions": [
            {"where": {"kind": "halfspace", "normal": [1.0], "value": 0.0, "op": "lt"},
             "points": [[-1.0]]},
            {"where": {"kind": "halfspace", "normal": [1.0], "value": 0.0, "op": "eq"},
             "points": [[-1.0], [1.0]]},
            {"where": {"kind": "always"}, "points": [[1.0]]},
        ],
    },
    "x0": [0.0],
    "v0": [1.0],
    "T": 1.0,
    "h": 0.01,
    "strategy": "inertial",
    "tol": 1e-9,
    "grid": {"low": [-1.0], "high": [1.0], "counts": [5]},
}

STUCK_PROBLEM = {
    "map": {
        "kind": "table",
        "regions": [
            {"where": {"kind": "halfspace", "normal": [1.0], "value": 0.0, "op": "eq"},
             "points": [[0.0], [1.0]]},
            {"where": {"kind": "always"}, "points": [[0.0]]},
        ],
    },
    "x0": [0.0],
    "v0": [1.0],
    "T": 1.0,
    "h": 0.1,
    "strategy": "exhaustive",
    "tol": 1e-9,
}


@pytest.fixture
def sign_file(tmp_path):
    f = tmp_path / "problem.json"
    f.write_text(json.dumps(SIGN_PROBLEM, indent=2) + "\n")
    return f


def run(*argv):
    return main([str(a) for a in argv])


class TestSolve:
    def test_outputs_and_content(self, tmp_path, sign_file):
        out = tmp_path / "out"
        assert run("solve", "--input", sign_file, "--output", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["nodes"] == 101
        assert summary["final_state"] == [1.0]
        assert summary["chain_ok"] is True
        assert summary["node_residual"] == 0.0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0", "v0"]
        assert len(rows) == 102
        # csv round trip preserves node values exactly through repr
        assert float(rows[-1][1]) == 1.0

    def test_selection_failure_exit_and_replay(self, tmp_path):
        prob = tmp_path / "stuck.json"
        prob.write_text(json.dumps(STUCK_PROBLEM) + "\n")
        out = tmp_path / "out"
        assert run("solve", "--input", prob, "--output", out) == EXIT_SELECTION
        failure = json.loads((out / "selection_failure.json").read_text())
        F = map_from_dict(STUCK_PROBLEM["map"])
        chain = Chain(failure["chain"]["points"], failure["chain"]["velocities"])
        assert verify_chain(chain)[0]
        assert all(entry["slack"] < 0 for entry in failure["candidate_slacks"])

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_inertial_gap_exits_with_replayable_failure(self, tmp_path, flags):
        # the inertial pick at x = 1.91 is aligned but breaks the chain; the
        # run must end in the selection-failure contract, also under -O
        prob = tmp_path / "gap.json"
        prob.write_text(json.dumps(INERTIAL_GAP_PROBLEM) + "\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "setflow", "solve",
             "--input", str(prob), "--output", str(out)],
            capture_output=True, cwd=tmp_path, env=child_env(),
        )
        assert proc.returncode == EXIT_SELECTION, proc.stderr.decode()
        assert sorted(p.name for p in out.iterdir()) == ["selection_failure.json"]
        failure = json.loads((out / "selection_failure.json").read_text())
        assert failure["step_index"] == 2
        F = map_from_dict(INERTIAL_GAP_PROBLEM["map"])
        chain = Chain(failure["chain"]["points"], failure["chain"]["velocities"])
        tol = INERTIAL_GAP_PROBLEM["tol"]
        assert verify_chain(chain, tol)[0]
        assert extend_exhaustive(chain, np.array(failure["point"]), F, tol) is None

    def test_strategy_override(self, tmp_path, sign_file):
        out = tmp_path / "out"
        assert run("solve", "--input", sign_file, "--output", out,
                   "--strategy", "support") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "support"


class TestClassify:
    def test_reports_and_replay(self, tmp_path):
        prob = dict(SIGN_PROBLEM)
        prob["map"] = {"kind": "constant", "points": [[-1.0], [1.0]]}
        f = tmp_path / "p.json"
        f.write_text(json.dumps(prob) + "\n")
        out = tmp_path / "out"
        assert run("classify", "--input", f, "--output", out, "--max-length", 3) == 0
        doc = json.loads((out / "classification.json").read_text())
        byname = {r["class"]: r for r in doc["reports"]}
        assert byname["monotone"]["holds"] is False
        assert byname["weakly_monotone"]["holds"] is True
        assert byname["cyclic_monotone"]["holds"] is False
        assert byname["weak_cyclic_monotone"]["holds"] is True
        assert byname["support_chain"]["holds"] is False
        # negative verdicts replay from the file alone
        F = map_from_dict(prob["map"])
        for name in ("monotone", "cyclic_monotone", "support_chain"):
            r = byname[name]
            rep = ClassReport(name, r["holds"], r["witness"], r["tol"], r["samples"], r["details"])
            assert replay_witness(F, rep)

    def test_grid_required(self, tmp_path):
        prob = dict(STUCK_PROBLEM)
        f = tmp_path / "p.json"
        f.write_text(json.dumps(prob) + "\n")
        assert run("classify", "--input", f, "--output", tmp_path / "o") == EXIT_INVALID

    def test_grid_option(self, tmp_path):
        prob = dict(STUCK_PROBLEM)
        f = tmp_path / "p.json"
        f.write_text(json.dumps(prob) + "\n")
        out = tmp_path / "o"
        # values starting with a dash need the --option=value spelling
        assert run("classify", "--input", f, "--output", out,
                   "--grid=-1:1:3") == 0
        doc = json.loads((out / "classification.json").read_text())
        assert doc["grid"]["counts"] == [3]

    def test_budget_env_exit(self, tmp_path, sign_file, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "10")
        assert run("classify", "--input", sign_file, "--output", tmp_path / "o",
                   "--max-length", 3) == EXIT_BUDGET


    def test_huge_max_length_exits_on_budget(self, tmp_path):
        prob = dict(SIGN_PROBLEM, max_length=10**5)
        f = tmp_path / "p.json"
        f.write_text(json.dumps(prob) + "\n")
        assert run("classify", "--input", f, "--output", tmp_path / "o") == EXIT_BUDGET
        assert run("classify", "--input", f, "--output", tmp_path / "o2",
                   "--max-length", 10**5) == EXIT_BUDGET


class TestPotential:
    def test_family_and_values(self, tmp_path, sign_file):
        out = tmp_path / "out"
        assert run("potential", "--input", sign_file, "--output", out) == 0
        fam = family_from_text((out / "family.json").read_text())
        with open(out / "potential_values.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            x = [float(row["x0"])]
            assert float(row["potential"]) == potential_value(fam, x)
        sub = json.loads((out / "subgradient.json").read_text())
        for entry in sub["entries"]:
            for item in entry["values"]:
                if item["compatible"]:
                    assert item["subgradient_ok"] is True

    def test_anchor_value_zero(self, tmp_path, sign_file):
        out = tmp_path / "out"
        run("potential", "--input", sign_file, "--output", out)
        summary = json.loads((out / "potential_summary.json").read_text())
        assert summary["anchor_value"] == 0.0

    def test_query_phase_over_budget_exits_fast(self, tmp_path, monkeypatch):
        # 2001 (sample, value) pairs times 2000 probes, charged before any work
        prob = {
            "map": {"kind": "subdifferential", "slopes": [[1.0], [-1.0]],
                    "offsets": [0.0, 0.0]},
            "x0": [0.5], "v0": [1.0], "T": 1.0, "h": 0.01,
            "strategy": "inertial", "tol": 1e-9,
        }
        f = tmp_path / "p.json"
        f.write_text(json.dumps(prob) + "\n")
        monkeypatch.setenv(BUDGET_ENV, "10")
        out = tmp_path / "o"
        start = time.perf_counter()
        assert run("potential", "--input", f, "--output", out, "--grid=-1:1:2000") == EXIT_BUDGET
        assert time.perf_counter() - start < 5.0
        assert list(out.iterdir()) == []


class TestRefine:
    def test_rows(self, tmp_path, sign_file):
        out = tmp_path / "out"
        assert run("refine", "--input", sign_file, "--output", out,
                   "--steps", "10,20,40") == 0
        with open(out / "refinement.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["steps"]) for r in rows] == [10, 20, 40]
        assert rows[0]["sup_distance"] == ""
        assert all(r["chain_ok"] == "true" for r in rows)


class TestFailureModes:
    def test_bad_json_exit(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"map":\n')
        assert run("solve", "--input", f, "--output", tmp_path / "o") == EXIT_INVALID

    def test_missing_file_exit(self, tmp_path):
        assert run("solve", "--input", tmp_path / "absent.json",
                   "--output", tmp_path / "o") == EXIT_INVALID

    @pytest.mark.parametrize("command", ["solve", "classify", "potential", "refine"])
    def test_verbose_is_rejected(self, tmp_path, sign_file, command):
        with pytest.raises(SystemExit) as info:
            run(command, "--input", sign_file, "--output", tmp_path / "o", "--verbose")
        assert info.value.code == EXIT_INVALID

    def test_invalid_spec_exit(self, tmp_path):
        doc = dict(STUCK_PROBLEM)
        doc["v0"] = [9.0]  # not a value of the map at x0
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc) + "\n")
        assert run("solve", "--input", f, "--output", tmp_path / "o") == EXIT_INVALID


def _with_fields(**fields):
    doc = json.loads(json.dumps(SIGN_PROBLEM))
    for name, value in fields.items():
        if name == "counts":
            doc["grid"]["counts"] = value
        else:
            doc[name] = value
    return doc


class TestIntegerFields:
    @pytest.mark.parametrize("field, value, named", [
        ("max_length", [2], "max_length"),
        ("max_length", True, "max_length"),
        ("max_length", "2", "max_length"),
        ("max_length", 2.5, "max_length"),
        ("max_length", 2.0, "max_length"),
        ("max_length", None, "max_length"),
        ("counts", [3.5], "grid.counts"),
        ("counts", [True], "grid.counts"),
        ("counts", 3, "grid.counts"),
        ("steps", [True, 2], "steps"),
        ("steps", "25", "steps"),
        ("steps", 25, "steps"),
    ])
    def test_non_integer_rejected(self, tmp_path, capsys, field, value, named):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(_with_fields(**{field: value})) + "\n")
        assert run("classify", "--input", f, "--output", tmp_path / "o") == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {named}: must be ")

    json_values = st.one_of(
        st.integers(-2, 5), st.booleans(), st.none(), st.text(max_size=3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.lists(st.one_of(st.integers(-2, 5), st.booleans(), st.floats(-3, 3),
                           st.text(max_size=2)), max_size=3),
    )

    @given(field=st.sampled_from(["max_length", "counts", "steps"]), value=json_values)
    @settings(max_examples=90, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_fields_end_in_documented_codes(self, tmp_path, field, value):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(_with_fields(**{field: value})) + "\n")
        code = run("classify", "--input", f, "--output", tmp_path / "o")
        assert code in (0, EXIT_INVALID, EXIT_SELECTION, EXIT_BUDGET)


CONSTANT_PROBLEM = {
    "map": {"kind": "constant", "points": [[1.0]]},
    "x0": [0.0],
    "v0": [1.0],
    "T": 1.0,
    "h": 0.5,
    "strategy": "exhaustive",
    "tol": 1e-9,
}


def _timed_run(tmp_path, command, doc, *extra):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc) + "\n")
    out = tmp_path / "o"
    start = time.perf_counter()
    code = run(command, "--input", f, "--output", out, *extra)
    assert time.perf_counter() - start < 5.0
    return code, out


class TestStepBudget:
    @pytest.mark.parametrize("T, h", [
        (math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf), (1.0, math.nan),
    ])
    @pytest.mark.parametrize("command", ["solve", "refine"])
    def test_non_finite_horizon_or_step_is_invalid(self, tmp_path, capsys, command, T, h):
        code, _ = _timed_run(tmp_path, command, dict(CONSTANT_PROBLEM, T=T, h=h))
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith(("error: T: ", "error: h: "))

    def test_tiny_step_exits_on_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        code, out = _timed_run(tmp_path, "solve", dict(CONSTANT_PROBLEM, h=1e-300))
        assert code == EXIT_BUDGET
        assert not out.exists() or list(out.iterdir()) == []
        assert capsys.readouterr().err == "error: solve needs 1e+300 Euler steps, budget 1000000\n"

    def test_huge_refine_steps_exit_on_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        doc = dict(CONSTANT_PROBLEM, steps=[10, 10**9])
        code, out = _timed_run(tmp_path, "refine", doc)
        assert code == EXIT_BUDGET
        assert not out.exists() or list(out.iterdir()) == []
        assert capsys.readouterr().err == "error: refine needs 1000000010 Euler steps, budget 1000000\n"

    def test_budget_counts_steps(self, tmp_path, monkeypatch):
        # 1 / 0.02 = 50 steps fit a budget of 50; 1 / 0.01 = 100 do not
        monkeypatch.setenv(BUDGET_ENV, "50")
        assert _timed_run(tmp_path, "solve", dict(CONSTANT_PROBLEM, h=0.02))[0] == 0
        assert _timed_run(tmp_path, "solve", dict(CONSTANT_PROBLEM, h=0.01))[0] == EXIT_BUDGET
        assert _timed_run(tmp_path, "refine", CONSTANT_PROBLEM, "--steps", "10,40")[0] == 0
        assert _timed_run(tmp_path, "refine", CONSTANT_PROBLEM,
                          "--steps", "10,50")[0] == EXIT_BUDGET

    extremes = st.sampled_from([math.inf, -math.inf, math.nan, 1e-300, 1e308, 1.0, 0.25])

    @given(command=st.sampled_from(["solve", "refine"]), T=extremes, h=extremes)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_horizon_and_step_end_in_documented_codes(self, tmp_path, command, T, h):
        code, _ = _timed_run(tmp_path, command, _with_fields(T=T, h=h))
        assert code in (0, EXIT_INVALID, EXIT_SELECTION, EXIT_BUDGET)

    def test_high_dimensional_table_solve_is_fast(self, tmp_path):
        # the bound in summary.json is the largest region norm, 2.0, with no
        # sampling of the 8-dimensional ball
        e0 = [1.0] + [0.0] * 7
        doc = {
            "map": {"kind": "table", "regions": [
                {"where": {"kind": "halfspace", "normal": e0, "value": 0.0, "op": "lt"},
                 "points": [[-1.0] + [0.0] * 7]},
                {"where": {"kind": "always"}, "points": [e0, [0.0, 2.0] + [0.0] * 6]},
            ]},
            "x0": [0.5] + [0.0] * 7, "v0": e0, "T": 1.0, "h": 0.5,
            "strategy": "support", "tol": 1e-9,
        }
        start = time.perf_counter()
        code, out = _timed_run(tmp_path, "solve", doc)
        assert code == 0
        assert time.perf_counter() - start < 1.0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["nodes"] == 3
        assert summary["horizon_hint_unit_ball"] == 0.5


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, sign_file):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("solve", "--input", sign_file, "--output", out) == 0
            assert run("classify", "--input", sign_file, "--output", out) == 0
            assert run("potential", "--input", sign_file, "--output", out) == 0
            assert run("refine", "--input", sign_file, "--output", out,
                       "--steps", "10,20") == 0
            outs.append(out)
        a, b = outs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
