"""Command-line workflows end to end, including determinism and exit codes."""

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from setflow import (
    Chain,
    GridSpec,
    ProblemSpec,
    SetValuedMap,
    euler_solve,
    extend_exhaustive,
    family_from_text,
    map_from_dict,
    parse_problem,
    potential_value,
    replay_witness,
    verify_chain,
)
from setflow.chains import ClassReport
from setflow.cli import (BUDGET_ENV, EXIT_BUDGET, EXIT_INVALID, EXIT_SELECTION, _CSV_BLOCK, _fmt,
                         _write_csv, _write_json, build_parser, main)

from conftest import INERTIAL_GAP_PROBLEM, child_env
from oracles import write_csv_ref


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

    def test_trajectory_cells_are_fmt_of_each_node(self, tmp_path, sign_file):
        out = tmp_path / "out"
        assert run("solve", "--input", sign_file, "--output", out) == 0
        traj = euler_solve(parse_problem(Path(sign_file).read_text()))
        want = tmp_path / "want.csv"
        _write_csv(want, ["t", "x0", "v0"], [
            [_fmt(t)] + [_fmt(c) for c in x] + [_fmt(c) for c in v]
            for t, x, v in zip(traj.times, traj.states, traj.velocities)])
        assert (out / "trajectory.csv").read_bytes() == want.read_bytes()

    def test_strategy_override(self, tmp_path, sign_file):
        out = tmp_path / "out"
        assert run("solve", "--input", sign_file, "--output", out,
                   "--strategy", "support") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "support"


def test_float_rows_write_the_bytes_of_fmt_cells(tmp_path, capsys):
    # csv.writer writes a float as str(), which is repr() in Python 3
    values = np.array([[-0.0, 5e-324, 1e16, 0.1], [0.0, -2.5e-310, 1.0, 1 / 3]])
    header = ["a", "b", "c", "d"]
    _write_csv(tmp_path / "rows.csv", header, values.tolist())
    _write_csv(tmp_path / "fmt.csv", header, [[_fmt(c) for c in row] for row in values])
    text = (tmp_path / "rows.csv").read_bytes()
    assert text == (tmp_path / "fmt.csv").read_bytes()
    assert text.splitlines()[1:] == [b"-0.0,5e-324,1e+16,0.1",
                                     b"0.0,-2.5e-310,1.0,0.3333333333333333"]
    assert capsys.readouterr().out == "wrote rows.csv\nwrote fmt.csv\n"


def test_float_arrays_write_the_bytes_of_csv_writer(tmp_path, capsys):
    # a table of more than two blocks
    rng = np.random.default_rng(5)
    values = (rng.standard_normal((2 * (_CSV_BLOCK // 4) + 3, 4))
              * 10.0 ** rng.integers(-320, 300, (1, 4)))
    values[0] = [-0.0, 5e-324, math.inf, math.nan]
    values[-1] = [1e16, -2.5e-310, -math.inf, 1 / 3]
    header = ["a", "b", "c", "d"]
    _write_csv(tmp_path / "array.csv", header, values)
    with open(tmp_path / "writer.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + values.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()
    assert capsys.readouterr().out == "wrote array.csv\n"


def _assert_writes_reference(tmp_path, table):
    # under the errstate of cli.main, so the range test may not warn or raise
    header = [f"c{j}" for j in range(table.shape[1])]
    with np.errstate(over="raise", invalid="raise"), contextlib.redirect_stdout(io.StringIO()):
        _write_csv(tmp_path / "table.csv", header, table)
    write_csv_ref(tmp_path / "ref.csv", header, table)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _raw(pattern):
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


# raw 64-bit patterns, mixed with values inside and at the ends of the range
# that orjson writes as repr() does
_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(_raw),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
    st.sampled_from([0.0, -0.0]),
)


@given(st.integers(1, 8).flatmap(lambda cols: st.lists(
    st.lists(_CELLS, min_size=cols, max_size=cols), min_size=0, max_size=40).map(
    lambda rows: np.array(rows, dtype=float).reshape(len(rows), cols))))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_float_tables_write_the_bytes_of_repr(tmp_path, table):
    _assert_writes_reference(tmp_path, table)


_EDGE_VALUES = [0.0, -0.0, 1e-4, float(np.nextafter(1e-4, 0.0)), 1e16,
                float(np.nextafter(1e16, 0.0)), 2.0**53, 5e-324, sys.float_info.max,
                math.nan, math.inf, -math.inf, 1.2345e-17, -1e-4, -1e16]


@pytest.mark.parametrize("table", [
    np.array([_EDGE_VALUES]),
    np.array([_EDGE_VALUES]).T,
    np.array([[0.5, 1.2345e-17, 0.25], [0.125, 1.5, -2.0], [1e16, 3.0, 0.1]]),
    np.zeros((0, 3)),
    np.zeros((0, 1)),
    np.arange(7.0).reshape(7, 1) / 3,
], ids=["edge-row", "edge-column", "residue-rows", "empty", "empty-one-column", "one-column"])
def test_float_table_edge_cases_write_the_bytes_of_repr(tmp_path, table):
    _assert_writes_reference(tmp_path, table)


def test_json_files_write_the_bytes_of_json_dump(tmp_path, capsys):
    obj = {"a": [-0.0, 5e-324, 1e16, math.nan, None], "b": {"c": [[1.0, [2, []]], {}], "d": "e"}}
    _write_json(tmp_path / "one.json", obj)
    with open(tmp_path / "dump.json", "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "dump.json").read_bytes()
    assert capsys.readouterr().out == "wrote one.json\n"


# raw patterns and in-range values, with subnormals, values just outside the
# range orjson writes as repr() does, and non-finite values
_JSON_CELLS = st.one_of(_CELLS, st.sampled_from(
    [5e-324, -2.5e-310, 1e-5, -1e-5, 1e16, -1e16, math.nan, math.inf, -math.inf]))


@st.composite
def _potential_documents(draw):
    """A subgradient.json and a potential_summary.json document."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), max_size=6))
    cells = st.lists(_JSON_CELLS, min_size=d, max_size=d)
    samples = np.array(draw(st.lists(cells, min_size=len(sizes), max_size=len(sizes))),
                       dtype=float).reshape(len(sizes), d)
    V = np.array(draw(st.lists(cells, min_size=sum(sizes), max_size=sum(sizes))),
                 dtype=float).reshape(sum(sizes), d)
    flags = draw(st.lists(st.sampled_from([True, False, None]), min_size=2 * len(V),
                          max_size=2 * len(V)))
    values, entries, start = V.tolist(), [], 0
    for x, size in zip(samples.tolist(), sizes):
        pick = start + draw(st.integers(0, size - 1))
        entries.append({"x": x, "selected": draw(st.sampled_from([values[pick], None])),
                        "values": [{"v": values[a], "compatible": flags[2 * a] is not False,
                                    "subgradient_ok": flags[2 * a + 1]}
                                   for a in range(start, start + size)]})
        start += size
    anchor_value = draw(_JSON_CELLS)
    summary = {"family_size": draw(st.integers(1, 4096)), "anchor_value": anchor_value,
               "accepted_pairs": len(V), "chains_grown": draw(st.integers(0, 10**6)),
               "evaluations": draw(st.integers(0, 10**6)), "budget_exhausted": len(V) % 2 == 0}
    return [{"entries": entries}, summary]


@given(_potential_documents())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_potential_documents_write_the_bytes_of_json_dumps(tmp_path, docs):
    for doc in docs:
        with np.errstate(over="raise", invalid="raise"), \
                contextlib.redirect_stdout(io.StringIO()):
            _write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value, fallback", [
    (0.5, False), (-0.0, False), (1e-4, False), (1e-5, True), (1e16, True), (math.nan, True)])
def test_json_documents_leave_orjson_only_for_values_it_writes_otherwise(tmp_path, value,
                                                                         fallback):
    # orjson's own text is written as it is exactly where it writes each
    # value as repr() does; elsewhere the file still holds json.dumps's bytes
    doc = {"x": [value, 1.0]}
    with contextlib.redirect_stdout(io.StringIO()):
        _write_json(tmp_path / "doc.json", doc)
    want = (json.dumps(doc, indent=2) + "\n").encode()
    assert (tmp_path / "doc.json").read_bytes() == want
    assert (orjson.dumps(doc, option=orjson.OPT_INDENT_2) + b"\n" != want) is fallback


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

    def test_one_node_graph_at_a_huge_max_length(self, tmp_path):
        # one grid point with one value: every count is 10^6, within the
        # default budget
        doc = dict(CONSTANT_PROBLEM, grid={"low": [0.0], "high": [0.0], "counts": [1]},
                   max_length=10**6)
        code, out = _timed_run(tmp_path, "classify", doc)
        assert code == 0
        reports = json.loads((out / "classification.json").read_text())["reports"]
        assert [r["holds"] for r in reports] == [True] * 5
        keys = ["pairs_checked", "pairs_checked", "chains_checked", "extensions_checked",
                "sequences_checked"]
        assert [r["details"][k] for r, k in zip(reports, keys)] == [0, 0, 10**6, 10**6, 10**6]


    def test_an_overflow_past_each_witness_ends_no_search(self, tmp_path, capsys):
        # values near 2**511 on four points 2**512 * (-1, -1/3, 1/3, 1): every
        # class fails at its first or second check, while gaps and chain terms
        # of later checks overflow; a block of the weakly monotone scan had
        # formed those gaps and ended the run with exit 2
        counts = {"low": [-2.0**512], "high": [2.0**512], "counts": [4]}
        values = [[0.0], [-2.0**511], [2.0**511, -2.0**510], [2.0**510]]
        points = GridSpec(counts["low"], counts["high"], counts["counts"]).points()
        regions = [{"where": {"kind": "halfspace", "normal": [1.0], "value": float(x[0]),
                              "op": "eq"}, "points": [[v] for v in vs]}
                   for x, vs in zip(points, values)]
        doc = dict(STUCK_PROBLEM, map={"kind": "table", "regions": [
            *regions, {"where": {"kind": "always"}, "points": [[0.0]]}]},
            x0=[-2.0**512], v0=[0.0], tol=0.0, grid=counts, max_length=1)
        code, out = _timed_run(tmp_path, "classify", doc)
        assert (code, capsys.readouterr().err) == (0, "")
        reports = json.loads((out / "classification.json").read_text())["reports"]
        assert [r["holds"] for r in reports] == [False] * 5
        assert [r["details"] for r in reports] == [
            {"pairs_checked": 1}, {"pairs_checked": 1},
            {"max_length": 1, "chains_checked": 2},
            {"max_length": 1, "extensions_checked": 2}, {"sequences_checked": 2}]


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
        assert not out.exists()


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


class TestSpecValidation:
    @pytest.mark.parametrize("command", ["solve", "classify", "potential", "refine"])
    def test_a_run_without_flags_validates_once(self, tmp_path, sign_file, monkeypatch, command):
        calls = []
        validated = ProblemSpec.validated
        monkeypatch.setattr(ProblemSpec, "validated",
                            lambda spec: calls.append(command) or validated(spec))
        assert run(command, "--input", sign_file, "--output", tmp_path / "o") == 0
        assert calls == [command]

    @pytest.mark.parametrize("command", ["solve", "refine"])
    def test_override_flags_are_validated(self, tmp_path, sign_file, capsys, command):
        out = tmp_path / "o"
        assert run(command, "--input", sign_file, "--output", out, "--tol=-1") == EXIT_INVALID
        assert capsys.readouterr().err == "error: tol: must be nonnegative\n"
        with pytest.raises(SystemExit) as info:
            run(command, "--input", sign_file, "--output", out, "--strategy", "euler")
        assert info.value.code == EXIT_INVALID
        assert not out.exists()


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
        assert not out.exists()
        assert capsys.readouterr().err == "error: solve needs 1e+300 Euler steps, budget 1000000\n"

    def test_huge_refine_steps_exit_on_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        doc = dict(CONSTANT_PROBLEM, steps=[10, 10**9])
        code, out = _timed_run(tmp_path, "refine", doc)
        assert code == EXIT_BUDGET
        assert not out.exists()
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


class TestFiniteNodes:
    # v0 = 2 and h = 1e308 put the first node past the largest float
    OVERFLOW = {
        "map": {"kind": "constant", "points": [[2.0], [-2.0]]},
        "x0": [0.0], "v0": [2.0], "T": 1e308, "h": 1e308,
        "strategy": "exhaustive", "tol": 1e-9,
    }

    @pytest.mark.parametrize("strategy", ["exhaustive", "support", "inertial"])
    @pytest.mark.parametrize("command, extra", [("solve", ()), ("refine", ("--steps", "1,2"))])
    def test_overflowing_node_is_invalid(self, tmp_path, capsys, command, extra, strategy):
        doc = dict(self.OVERFLOW, strategy=strategy)
        code, out = _timed_run(tmp_path, command, doc, *extra)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "error: Euler node 1 (t=1e+308) is not finite\n"
        assert not out.exists()


class TestOverflowingChains:
    # nodes stay finite, but the chain sums and anchored products pass the
    # largest float, where a comparison with an inf or NaN slack is void
    DOCS = {
        "steps-past-max": dict(TestFiniteNodes.OVERFLOW, T=8.8e307, h=4e306, strategy="inertial"),
        "one-huge-step": TestFiniteNodes.OVERFLOW,
    }
    # TestFiniteNodes runs the one-huge-step document through solve; refine at
    # its default steps reaches the overflowing sums instead of a node past max
    CASES = [("steps-past-max", "solve"), ("steps-past-max", "refine"),
             ("one-huge-step", "refine")]

    @pytest.mark.parametrize("strategy", ["exhaustive", "support", "inertial"])
    @pytest.mark.parametrize("doc, command", CASES, ids=[f"{d}-{c}" for d, c in CASES])
    def test_chain_overflow_is_invalid(self, tmp_path, capsys, doc, command, strategy):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(dict(self.DOCS[doc], strategy=strategy)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(command, "--input", f, "--output", tmp_path / "o")
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: Euler node ")
        assert not (tmp_path / "o").exists()

    def test_overflow_after_the_solve_leaves_no_files(self, tmp_path, capsys):
        # the polygon stays near 0, but the residual squares the gap 2e160
        # between the two values
        doc = dict(TestFiniteNodes.OVERFLOW, map={"kind": "constant",
                                                  "points": [[1e160], [-1e160]]},
                   v0=[1e160], T=1e-200, h=0.5e-200)
        code, out = _timed_run(tmp_path, "solve", doc)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == \
            "error: arithmetic leaves the float range: overflow encountered in vecdot\n"
        assert not out.exists()


# numbers a document may hold where a float belongs: ordinary, near and past
# the largest float, and of the wrong type
_EXTREMES = [1e308, -1e308, 1.7976931348623157e308, 1e200, -1e160, math.nan, math.inf,
             -math.inf]
_numbers = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 2.0]),
                     st.sampled_from(_EXTREMES), st.sampled_from(["1", None, True, [1.0], {}]))


@st.composite
def _vectors(draw, d):
    # mostly of the right dimension; sometimes ragged, nested or not a list
    n = draw(st.sampled_from([d, d, d, d + 1, d - 1]))
    v = draw(st.lists(_numbers, min_size=n, max_size=n))
    return draw(st.sampled_from([v, v, v, v, "abc", 1.0, {"x": 1}, [v]]))


@st.composite
def _predicates(draw, d):
    kind = draw(st.sampled_from(["halfspace", "box", "always", "sphere"]))
    if kind == "halfspace":
        return {"kind": kind, "normal": draw(_vectors(d)), "value": draw(_numbers),
                "op": draw(st.sampled_from(["lt", "le", "eq", "ge", "gt", "ne"]))}
    if kind == "box":
        return {"kind": kind, "low": draw(_vectors(d)), "high": draw(_vectors(d))}
    return {"kind": kind}


@st.composite
def _maps(draw, d):
    points = st.lists(_vectors(d), max_size=3)
    kind = draw(st.sampled_from(["constant", "subdifferential", "linear", "table", "spiral"]))
    if kind == "constant":
        return {"kind": kind, "points": draw(points)}
    if kind == "subdifferential":
        return {"kind": kind, "slopes": draw(points), "offsets": draw(st.lists(_numbers, max_size=3))}
    if kind == "linear":
        return {"kind": kind, "matrix": draw(st.lists(_vectors(d), max_size=d + 1))}
    if kind == "table":
        regions = draw(st.lists(st.fixed_dictionaries({"where": _predicates(d), "points": points}),
                                max_size=3))
        return {"kind": kind, "regions": draw(st.sampled_from([regions] * 3 + [{"a": 1}, "r", 3]))}
    return {"kind": kind}


@st.composite
def _documents(draw):
    d = draw(st.integers(1, 2))
    doc = {"map": draw(_maps(d)), "x0": draw(_vectors(d)), "v0": draw(_vectors(d)),
           "T": draw(_numbers), "h": draw(_numbers),
           "strategy": draw(st.sampled_from(["exhaustive", "support", "inertial", "euler"])),
           "tol": draw(st.one_of(st.sampled_from([1e-9, 0.0]), _numbers))}
    if draw(st.booleans()):
        doc["grid"] = {"low": draw(_vectors(d)), "high": draw(_vectors(d)),
                       "counts": draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))}
    if draw(st.booleans()):
        doc["max_length"] = draw(st.integers(0, 3))
    return doc


def _huge_values(kind, **fields):
    # values of 1e200 on a grid out to 1e200: every product passes the float range
    doc = {"map": {"kind": "constant", "points": [[1e200], [-1e200]]}, "x0": [0.0],
           "v0": [1e200], "T": 1.0, "h": 0.5, "strategy": "support", "tol": 1e-9,
           "grid": {"low": [-1e200], "high": [1e200], "counts": [3]}}
    if kind == "subdifferential":
        doc["map"] = {"kind": kind, "slopes": [[1e200], [-1.0]], "offsets": [0.0, 0.0]}
    return dict(doc, **fields)


class TestMalformedDocuments:
    @given(command=st.sampled_from(["solve", "classify", "potential", "refine"]),
           doc=_documents())
    @example(command="solve", doc=TestOverflowingChains.DOCS["steps-past-max"])
    @example(command="refine", doc=TestOverflowingChains.DOCS["one-huge-step"])
    @example(command="classify", doc=dict(SIGN_PROBLEM, v0={"x": 1}))
    @example(command="solve", doc=dict(SIGN_PROBLEM, map={"kind": "constant",
                                                          "points": [[1e308], [1.0]]}))
    @example(command="classify", doc=_huge_values("constant"))
    @example(command="potential", doc=_huge_values("constant"))
    @example(command="solve", doc=_huge_values("constant", T=1e-200, h=0.5e-200))
    @example(command="classify", doc=_huge_values("subdifferential"))
    @example(command="solve", doc=_huge_values("subdifferential", x0=[1e200]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_documents_end_in_documented_codes(self, tmp_path, monkeypatch, command, doc):
        monkeypatch.setenv(BUDGET_ENV, "500")
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc) + "\n")
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(command, "--input", f, "--output", tmp_path / "o")
        assert time.perf_counter() - start < 5.0
        assert code in (0, EXIT_INVALID, EXIT_SELECTION, EXIT_BUDGET)


BIG = 10**400
GRID3 = {"low": [-1.0], "high": [1.0], "counts": [3]}
# one 401-digit integer literal, or one from 2^64 up, in place of a number:
# the command that reads it, the fields it changes in CONSTANT_PROBLEM on
# GRID3, the exit code and the start of the error line
HUGE_LITERALS = {
    "points": ("solve", {"map": {"kind": "constant", "points": [[BIG]]}},
               EXIT_INVALID, "map: bad 'constant' description: "),
    "slopes": ("solve", {"map": {"kind": "subdifferential", "slopes": [[BIG]],
                                 "offsets": [0.0]}},
               EXIT_INVALID, "map: bad 'subdifferential' description: "),
    "offsets": ("solve", {"map": {"kind": "subdifferential", "slopes": [[1.0]],
                                  "offsets": [BIG]}},
                EXIT_INVALID, "map: bad 'subdifferential' description: "),
    "matrix": ("solve", {"map": {"kind": "linear", "matrix": [[BIG]]}},
               EXIT_INVALID, "map: bad 'linear' description: "),
    "normal": ("solve", {"map": {"kind": "table", "regions": [
        {"where": {"kind": "halfspace", "normal": [BIG], "value": 0.0, "op": "lt"},
         "points": [[1.0]]},
        {"where": {"kind": "always"}, "points": [[1.0]]}]}},
        EXIT_INVALID, "map: bad 'table' description: "),
    "x0": ("solve", {"x0": [BIG]}, EXIT_INVALID, "x0: "),
    "v0": ("solve", {"v0": [BIG]}, EXIT_INVALID, "v0: "),
    "T": ("solve", {"T": BIG}, EXIT_INVALID, "T: "),
    "h": ("solve", {"h": BIG}, EXIT_INVALID, "h: "),
    "tol": ("solve", {"tol": BIG}, EXIT_INVALID, "tol: "),
    "low": ("classify", {"grid": dict(GRID3, low=[BIG])}, EXIT_INVALID, "grid: "),
    "high": ("classify", {"grid": dict(GRID3, high=[BIG])}, EXIT_INVALID, "grid: "),
    # (10^400)^2 pairs of grid points, and 10^400 Euler steps
    "counts": ("classify", {"grid": dict(GRID3, counts=[BIG])},
               EXIT_BUDGET, f"classify needs {BIG**2} pairs of grid points, budget "),
    "potential-counts": ("potential", {"grid": dict(GRID3, counts=[BIG])},
                         EXIT_BUDGET, f"potential needs {BIG**2} pairs of grid points, budget "),
    "steps": ("refine", {"steps": [BIG]},
              EXIT_BUDGET, f"refine needs {BIG} Euler steps, budget "),
    # integers from 2^64 up stay exact: a parser that read them as floats,
    # without an error, would turn each of these into exit 2
    "counts-2^64": ("classify", {"grid": dict(GRID3, counts=[2**64])}, EXIT_BUDGET,
                    "classify needs 3.40282366921e+38 pairs of grid points, budget 1000000\n"),
    "max_length-2^64": ("classify", {"max_length": 2**64}, EXIT_BUDGET,
                        "combinatorial budget exceeded: 1000001 chains evaluated, cap 1000000\n"),
    "steps-2^64": ("refine", {"steps": [2**64, 2**65]}, EXIT_BUDGET,
                   "refine needs 5.53402322211e+19 Euler steps, budget 1000000\n"),
}


class TestHugeIntegerLiterals:
    # an integer literal past the float range is a bad document (exit 2),
    # or, as a grid count or a step count, an amount past any budget (exit 4)
    @pytest.mark.parametrize("field", HUGE_LITERALS)
    def test_literal_ends_in_one_error_line(self, tmp_path, capsys, field):
        command, fields, code, message = HUGE_LITERALS[field]
        got, out = _timed_run(tmp_path, command, {**CONSTANT_PROBLEM, "grid": GRID3, **fields})
        assert got == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        if code == EXIT_INVALID:
            assert err.endswith("int too large to convert to float\n")


class TestGridBudget:
    @pytest.mark.parametrize("command", ["classify", "potential"])
    def test_huge_grid_exits_before_it_is_built(self, tmp_path, capsys, monkeypatch, command):
        # 10^6 points make 10^12 pairs against a budget of 10
        monkeypatch.setenv(BUDGET_ENV, "10")
        f = tmp_path / "p.json"
        f.write_text(json.dumps(SIGN_PROBLEM) + "\n")
        out = tmp_path / "o"
        start = time.perf_counter()
        assert run(command, "--input", f, "--output", out, "--grid=-1:1:1000000") == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        assert capsys.readouterr().err == \
            f"error: {command} needs 1e+12 pairs of grid points, budget 10\n"

    @pytest.mark.parametrize("command", ["classify", "potential"])
    def test_over_budget_wins_over_a_map_error(self, tmp_path, monkeypatch, command):
        # the table covers no grid point left of 0.5; 9 points make 81 pairs
        doc = dict(SIGN_PROBLEM, map={"kind": "table", "regions": [
            {"where": {"kind": "box", "low": [0.5], "high": [1.0]}, "points": [[1.0]]}]})
        doc["grid"] = {"low": [-1.0], "high": [1.0], "counts": [9]}
        doc["x0"] = [1.0]
        monkeypatch.setenv(BUDGET_ENV, "80")
        assert _timed_run(tmp_path, command, doc)[0] == EXIT_BUDGET
        monkeypatch.setenv(BUDGET_ENV, "81")
        assert _timed_run(tmp_path, command, doc)[0] == EXIT_INVALID

    def test_many_values_over_budget_stay_small(self, tmp_path, capsys):
        # 961 points make 923,521 pairs within the default budget; 300 values
        # across the first grid line give 30 pairs of 90,000 zero gaps, and
        # scanning every node against the first point took gigabytes
        doc = dict(SIGN_PROBLEM, x0=[0.0, 0.0], v0=[0.0, 0.0],
                   map={"kind": "constant", "points": [[float(k), 0.0] for k in range(300)]},
                   grid={"low": [-1.0, -1.0], "high": [1.0, 1.0], "counts": [31, 31]})
        tracemalloc.start()
        try:
            code, out = _timed_run(tmp_path, "classify", doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_BUDGET
        assert capsys.readouterr().err == \
            "error: combinatorial budget exceeded: 1000001 chains evaluated, cap 1000000\n"
        assert peak < 32 << 20

    def test_query_phase_charges_every_node(self, tmp_path, capsys, monkeypatch):
        # 3 points and 2 values each: 9 pairs of points fit a budget of 10,
        # 6 nodes times 3 points do not
        doc = dict(SIGN_PROBLEM, map={"kind": "constant", "points": [[-1.0], [1.0]]})
        doc["grid"] = {"low": [-1.0], "high": [1.0], "counts": [3]}
        monkeypatch.setenv(BUDGET_ENV, "10")
        code, out = _timed_run(tmp_path, "potential", doc)
        assert code == EXIT_BUDGET
        assert not out.exists()
        assert capsys.readouterr().err == "error: potential needs 18 node-sample checks, budget 10\n"


class TestHugeBudgets:
    KINK = Path(__file__).resolve().parent.parent / "demos" / "problems" / "kink_crossing.json"

    @pytest.mark.parametrize("command", ["classify", "potential"])
    def test_budgets_past_int64_give_the_default_outputs(self, tmp_path, monkeypatch, command):
        # the default budget covers every check; a larger one, past int64
        # too, changes only the budget the report records
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        assert run(command, "--input", self.KINK, "--output", tmp_path / "default") == 0
        want = {f.name: f.read_text() for f in (tmp_path / "default").iterdir()}
        for budget in (2**63 - 1, 2**63, 10**30):
            monkeypatch.setenv(BUDGET_ENV, str(budget))
            out = tmp_path / str(budget)
            assert run(command, "--input", self.KINK, "--output", out) == 0
            got = {f.name: f.read_text().replace(f'"budget": {budget},', '"budget": 1000000,')
                   for f in out.iterdir()}
            assert got == want


class TestEvaluationCounts:
    # |x| on five grid points, anchored off the grid
    DOC = {
        "map": {"kind": "subdifferential", "slopes": [[1.0], [-1.0]], "offsets": [0.0, 0.0]},
        "x0": [0.25], "v0": [1.0], "T": 1.0, "h": 0.5, "strategy": "support", "tol": 1e-9,
        "grid": {"low": [-1.0], "high": [1.0], "counts": [5]},
    }
    GRID = [(-1.0,), (-0.5,), (0.0,), (0.5,), (1.0,)]

    @staticmethod
    def _counted(monkeypatch, tmp_path, command):
        # every point evaluated, by method, over one run of the command
        rows = {"eval": [], "eval_many": []}
        eval_, eval_many = SetValuedMap.eval, SetValuedMap.eval_many

        def counted_eval(self, x):
            rows["eval"].append(tuple(np.asarray(x, dtype=float).tolist()))
            return eval_(self, x)

        def counted_eval_many(self, X):
            rows["eval_many"].extend(tuple(p) for p in np.asarray(X, dtype=float).tolist())
            return eval_many(self, X)

        monkeypatch.setattr(SetValuedMap, "eval", counted_eval)
        monkeypatch.setattr(SetValuedMap, "eval_many", counted_eval_many)
        f = tmp_path / "p.json"
        f.write_text(json.dumps(TestEvaluationCounts.DOC) + "\n")
        assert run(command, "--input", f, "--output", tmp_path / "o") == 0
        return rows

    def test_potential_evaluates_each_grid_point_once(self, tmp_path, monkeypatch):
        rows = self._counted(monkeypatch, tmp_path, "potential")
        assert rows["eval_many"] == self.GRID
        # only the anchor is evaluated alone, when the document is checked
        assert set(rows["eval"]) == {(0.25,)}

    def test_classify_evaluates_each_grid_point_once(self, tmp_path, monkeypatch):
        rows = self._counted(monkeypatch, tmp_path, "classify")
        assert rows["eval_many"] == self.GRID
        assert set(rows["eval"]) == {(0.25,)}


class TestGridBounds:
    BAD = [(math.nan, 1.0), (-1.0, math.nan), (-math.inf, 1.0), (-1.0, math.inf),
           (-1e308, 1e308)]

    @staticmethod
    def _run_strict(tmp_path, command, doc, *extra):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(command, "--input", f, "--output", tmp_path / "o", *extra)

    @pytest.mark.parametrize("low, high", BAD)
    @pytest.mark.parametrize("command", ["classify", "potential"])
    def test_document_bounds_are_invalid(self, tmp_path, capsys, command, low, high):
        doc = dict(SIGN_PROBLEM, grid={"low": [low], "high": [high], "counts": [3]})
        assert self._run_strict(tmp_path, command, doc) == EXIT_INVALID
        assert capsys.readouterr().err == \
            "error: grid: grid bounds and their spans must be finite\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["-inf:1:3", "nan:1:3", "-1:inf:3", "-1e308:1e308:3",
                                        "-1:1:3,0:nan:2"])
    @pytest.mark.parametrize("command", ["classify", "potential"])
    def test_option_bounds_are_invalid(self, tmp_path, capsys, command, option):
        code = self._run_strict(tmp_path, command, SIGN_PROBLEM, f"--grid={option}")
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == ("error: --grid: expected low:high:count per axis, "
                                           "grid bounds and their spans must be finite\n")


class TestTableDimensions:
    @pytest.mark.parametrize("where", [
        {"kind": "halfspace", "normal": [1.0], "value": 0.0, "op": "lt"},
        {"kind": "box", "low": [0.0], "high": [1.0]},
    ])
    def test_unreached_predicate_of_the_wrong_dimension_is_invalid(self, tmp_path, capsys, where):
        doc = dict(CONSTANT_PROBLEM, x0=[0.0, 0.0], v0=[1.0, 2.0], map={
            "kind": "table", "regions": [
                {"where": {"kind": "always"}, "points": [[1.0, 2.0]]},
                {"where": where, "points": [[0.0, 0.0]]},
            ]})
        code, _ = _timed_run(tmp_path, "solve", doc)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: map: bad 'table' description: region 1: ")
        assert "of dimension 1, values of dimension 2" in err


class TestTablePredicates:
    @pytest.mark.parametrize("where", [["always"], "always", 3])
    def test_a_predicate_that_is_not_an_object_is_invalid(self, tmp_path, capsys, where):
        doc = dict(CONSTANT_PROBLEM, map={"kind": "table", "regions": [
            {"where": where, "points": [[1.0]]}]})
        code, _ = _timed_run(tmp_path, "solve", doc)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"error: map.regions: predicate must be an object, got {type(where).__name__}\n"


class TestTableCoverage:
    def test_uncovered_point_prints_plain_floats(self, tmp_path, capsys):
        # the Euler node 45 / 64 lies past the only region
        doc = dict(CONSTANT_PROBLEM, map={"kind": "table", "regions": [
            {"where": {"kind": "box", "low": [-1.0], "high": [0.7]}, "points": [[1.0]]}]},
            x0=[0.0], v0=[1.0], T=1.0, h=1 / 64)
        code, _ = _timed_run(tmp_path, "solve", doc)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "error: point (0.703125,) matches no region\n"


# a table map that covers no point right of 0.5, so the polygon from 0 and
# the grid over [-1, 1] both reach an uncovered point
HALF_COVERED = dict(SIGN_PROBLEM, map={"kind": "table", "regions": [
    {"where": {"kind": "box", "low": [-1.0], "high": [0.5]}, "points": [[1.0]]}]})


class TestNoOutputDirectoryOnFailure:
    # the output directory is made with the first file written into it: the
    # document, exit code and commands of each failure
    COMMANDS = ["solve", "classify", "potential", "refine"]
    FAILURES = {
        "bad-document": ("{", EXIT_INVALID, COMMANDS),
        "no-grid": (json.dumps(CONSTANT_PROBLEM), EXIT_INVALID, ["classify", "potential"]),
        "uncovered-point": (json.dumps(HALF_COVERED), EXIT_INVALID, COMMANDS),
        "over-budget": (json.dumps(SIGN_PROBLEM), EXIT_BUDGET, COMMANDS),
    }

    @pytest.mark.parametrize("failure, command", [
        (failure, command) for failure, (_, _, commands) in FAILURES.items()
        for command in commands])
    def test_failed_run_leaves_no_output_path(self, tmp_path, monkeypatch, capsys, failure,
                                              command):
        text, code, _ = self.FAILURES[failure]
        f = tmp_path / "p.json"
        f.write_text(text + "\n")
        if failure == "over-budget":
            # below the first charge of every command
            monkeypatch.setenv(BUDGET_ENV, "2")
        out = tmp_path / "o"
        assert run(command, "--input", f, "--output", out) == code
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_parents_are_made(self, tmp_path, sign_file):
        out = tmp_path / "a" / "b"
        assert run("classify", "--input", sign_file, "--output", out) == 0
        assert [p.name for p in out.iterdir()] == ["classification.json"]


class TestDispatch:
    # main hands a command's arguments to that command's parser; argparse's
    # whole parse, which main falls back to, must give the same outcome
    ARGVS = {
        "empty": [],
        "unknown-command": ["nonsense"],
        "help": ["-h"],
        "help-then-command": ["-h", "solve"],
        "command-help": ["solve", "-h"],
        "abbreviated-help": ["refine", "--he"],
        "missing-output": ["solve", "--input", "{input}"],
        "missing-value": ["classify", "--input", "{input}", "--output", "{out}", "--grid"],
        "trailing-argument": ["classify", "--input", "{input}", "--output", "{out}", "extra"],
        "after-double-dash": ["refine", "--input", "{input}", "--output", "{out}", "--", "x"],
        "verbose": ["potential", "--input", "{input}", "--output", "{out}", "--verbose"],
        "bad-strategy": ["solve", "--input", "{input}", "--output", "{out}", "--strategy", "nope"],
        "negative-tol": ["potential", "--input", "{input}", "--output", "{out}", "--tol=-1"],
        "abbreviated": ["classify", "--inp", "{input}", "--out", "{out}"],
        "solve": ["solve", "--input", "{input}", "--output", "{out}", "--strategy", "support"],
        "classify": ["classify", "--input", "{input}", "--output", "{out}", "--grid=-1:1:3"],
        "potential": ["potential", "--input", "{input}", "--output", "{out}"],
        "refine": ["refine", "--input", "{input}", "--output", "{out}", "--steps", "10,20"],
    }

    @staticmethod
    def _outcome(argv, sign_file, out, capsys):
        shutil.rmtree(out, ignore_errors=True)
        try:
            code = main([a.format(input=sign_file, out=out) for a in argv])
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, capsys.readouterr(), files

    @pytest.mark.parametrize("name", ARGVS)
    def test_same_outcome_as_a_whole_parse(self, tmp_path, sign_file, capsys, monkeypatch, name):
        argv, out = self.ARGVS[name], tmp_path / "o"
        direct = self._outcome(argv, sign_file, out, capsys)
        monkeypatch.setattr(build_parser(), "commands", {})
        assert self._outcome(argv, sign_file, out, capsys) == direct

    def test_a_valid_run_skips_the_whole_parse(self, tmp_path, sign_file, capsys, monkeypatch):
        parser, parses = build_parser(), []
        whole = parser.parse_args

        def counted(argv):
            parses.append(argv)
            return whole(argv)

        monkeypatch.setattr(parser, "parse_args", counted)
        code, _, files = self._outcome(self.ARGVS["classify"], sign_file, tmp_path / "o", capsys)
        assert (code, list(files), parses) == (0, ["classification.json"], [])
        self._outcome(self.ARGVS["trailing-argument"], sign_file, tmp_path / "o", capsys)
        assert len(parses) == 1


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

    def test_repeated_calls_match_fresh_parsers(self, tmp_path, sign_file, capsys):
        # one parser serves every call of a process, bad argument lists too
        argvs = [
            ["potential", "--input", sign_file, "--output", "{out}"],
            ["potential", "--input", sign_file],
            ["nonsense"],
            ["classify", "--input", sign_file, "--output", "{out}", "--grid=-1:1:3"],
            ["solve", "--input", sign_file, "--output", "{out}", "--strategy", "nope"],
            ["solve", "--input", sign_file, "--output", "{out}"],
            ["refine", "--input", sign_file, "--output", "{out}", "--steps", "10,20"],
        ]

        def outcomes(tag, fresh):
            got = []
            for k, argv in enumerate(argvs):
                out = tmp_path / tag / str(k)
                if fresh:
                    build_parser.cache_clear()
                try:
                    code = main([str(a).format(out=out) for a in argv])
                except SystemExit as exc:
                    code = exc.code
                files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
                got.append((code, capsys.readouterr(), files))
            return got

        fresh = outcomes("fresh", True)
        cached = outcomes("cached", False)
        assert build_parser() is build_parser()
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 2, 2, 0, 2, 0, 0]
