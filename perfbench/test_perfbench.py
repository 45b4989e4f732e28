"""The benchmark's own checks: seeded inputs, certificates, span arithmetic.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json

import pytest

import certify
import run
import workloads
from tracer import Tracer, instrument


def ops_named(workload, seed, names):
    ops = {op.name: op for op in workloads.make_ops(workload, seed)}
    return [ops[name] for name in names]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [op.text() for op in workloads.make_ops(workload, 7)]
    again = [op.text() for op in workloads.make_ops(workload, 7)]
    other = [op.text() for op in workloads.make_ops(workload, 8)]
    assert first == again
    assert first != other
    names = [op.name for op in workloads.make_ops(workload, 7)]
    assert len(set(names)) == len(names) > run.TAIL_BEYOND


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.make_ops("nope", 1)


def certified_runner(tmp_path, ops):
    runner = run.Runner(ops, tmp_path)
    for op in ops:
        code, _, out = runner.run_op(op)
        assert certify.check(op, code, out) == []
    return runner


def test_velocity_outside_the_map_is_a_failure(tmp_path):
    (op,) = ops_named("euler", 3, ["solve-pl2-support-200"])
    runner = certified_runner(tmp_path, [op])
    code, _, out = runner.run_op(op)
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) + 0.5)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    runner.record(op, code, out)
    assert runner.failed == 1 and runner.attempted == 1
    assert any("not a value of the map" in p for p in runner.problems[op.name])


def test_flipped_witness_is_a_failure(tmp_path):
    (op,) = ops_named("classify", 3, ["classify-rot-g3-L2"])
    runner = certified_runner(tmp_path, [op])
    code, _, out = runner.run_op(op)
    path = out / "classification.json"
    doc = json.loads(path.read_text())
    (report,) = [r for r in doc["reports"] if r["class"] == "cyclic_monotone"]
    report["witness"]["velocities"] = [[0.0, 0.0] for _ in report["witness"]["velocities"]]
    path.write_text(json.dumps(doc))
    runner.record(op, code, out)
    assert runner.failed == 1
    assert runner.problems[op.name] == ["cyclic_monotone witness does not replay"]


def test_repeat_with_other_bytes_is_a_failure(tmp_path):
    (op,) = ops_named("potential", 3, ["potential-query-pl3-g2"])
    runner = run.Runner([op], tmp_path)
    code, _, out = runner.run_op(op)
    runner.record(op, code, out)
    code, _, out = runner.run_op(op)
    (out / "potential_summary.json").write_text("{}\n")
    runner.record(op, code, out)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_selection_failure_is_certified_by_its_slacks(tmp_path):
    doc = {
        "map": {"kind": "table", "regions": [
            {"where": {"kind": "halfspace", "normal": [1.0], "value": 0.0, "op": "eq"},
             "points": [[0.0], [1.0]]},
            {"where": {"kind": "always"}, "points": [[0.0]]},
        ]},
        "x0": [0.0], "v0": [1.0], "T": 1.0, "h": 0.1, "strategy": "exhaustive", "tol": 1e-9,
    }
    op = workloads.Op("stuck", "solve", "solve/exhaustive", doc, expect=(0, 3))
    runner = run.Runner([op], tmp_path)
    code, _, out = runner.run_op(op)
    assert code == 3
    assert certify.check(op, code, out) == []
    assert certify.check(workloads.Op("stuck", "solve", "g", doc), code, out) != []


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_duration_minus_child_coverage():
    # a [0, 10] holds b [1, 3] (which holds c [1.5, 2]) and b again [4, 5]
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.spans[("a", None)] == [1, 10.0, 10.0 - 3.0]
    assert tracer.spans[("b", "a")] == [2, 3.0, 3.0 - 0.5]
    assert tracer.spans[("c", "b")] == [1, 0.5, 0.5]
    assert tracer.by_function()["b"] == [2, 3.0, 2.5]


def test_instrument_restores_every_binding():
    import setflow.chains
    import setflow.geometry
    import setflow.setmaps

    before = (setflow.geometry.inner, setflow.chains.inner,
              setflow.setmaps.SetValuedMap.eval, setflow.chains.Chain.extended)
    tracer = Tracer()
    with instrument(tracer):
        assert setflow.chains.inner is setflow.geometry.inner is not before[0]
        setflow.chains.verify_chain(setflow.chains.Chain([[0.0], [1.0]], [[1.0], [1.0]]))
    after = (setflow.geometry.inner, setflow.chains.inner,
             setflow.setmaps.SetValuedMap.eval, setflow.chains.Chain.extended)
    assert after == before
    assert tracer.spans[("geometry.inner", "chains.verify_chain")][0] == 1
    assert tracer.counts["chains.verify_chain.pairs"] == 2


def test_layer_counts_repeat_exactly(tmp_path):
    names = ["solve-pl1-inertial-120", "solve-table1-support-200", "refine-table1-inertial"]
    ops = ops_named("euler", 5, names)
    counts = []
    for attempt in range(2):
        runner = run.Runner(ops, tmp_path / str(attempt))
        traces = runner.run_pass(Tracer).traces
        total = Tracer()
        for t in traces.values():
            total.merge(t)
        metrics = run.layer_metrics(total, 1.0, 2.0, runner.bytes_written)
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] != "s"})
        assert runner.failed == 0
    assert counts[0] == counts[1]
    assert counts[0]["solver.euler_solve.calls"] == 1 + 1 + 3
    assert counts[0]["chains.verify_chain.pairs"] > 0


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "euler", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
