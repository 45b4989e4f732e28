"""Seeded benchmark of the setflow command line, end to end or per layer.

    python3 perfbench/run.py --workload euler --seed 1 --seconds 25 --trace 0

The benchmark acts as a user of the four CLI subcommands.  It generates the
workload's problem documents from the seed (see ``workloads.py``), runs every
op in this process through ``setflow.cli.main`` and times it, and re-checks
every outcome's certificate through the public API (see ``certify.py``).  The
first pass warms caches and is certified in full; the timed passes that
follow, for ``--seconds``, must reproduce its exit codes and output bytes.

Op timings are rescaled to a nominal machine speed.  On a shared host the
speed of one long-running process drifts by a fifth or more within a minute,
for every kind of work at once.  A short fixed reference loop runs between
ops, and each op's wall time is multiplied by ``REF_NOMINAL_S`` over the mean
of the reference times just before and after it.  The raw wall seconds and
the reference times are kept in the results file.  ``setup_s`` is rescaled
the same way, by the reference time of each fresh interpreter.

``--trace 0`` reports the end-to-end metrics.  Each op's time is its median
over the timed passes; ``op_p50_s`` is the median over the workload's ops and
``op_tail_s`` the op with exactly ten slower ops (the 75th percentile of 40
ops).  ``pass_s`` is the median time of one pass over all ops, ``setup_s`` the
median time from a fresh interpreter to ``import setflow.cli`` plus parsing
the first document, and ``peak_rss_mb`` this process's peak resident memory.
Each op counts as failed unless it ends in a documented exit code with
certificates that re-check and output bytes that repeat; the fail ratio is
``failed / attempted`` in the last line.  ``--trace 1`` adds one traced
pass that wraps each layer's public functions from outside (``tracer.py``) and
reports per-layer counts and self times, plus the tracing overhead.  All load
comes from this one process, with no extra threads.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (per-op times and digests, per-group
attribution, machine facts) is written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from workloads import WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BUDGET_ENV = "SETFLOW_CHAIN_BUDGET"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# the reference loop's rounds, and its seconds at the nominal speed (its usual
# time on a shared 2-core Xeon host); end-to-end timings are reported at that speed
REF_ROUNDS = 3000
REF_NOMINAL_S = 3e-3

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = (
    ("chains.verify_chain.calls", _N), ("chains.verify_chain.self_s", _S),
    ("chains.verify_chain.pairs", _N),
    ("chains.extend_inertial.calls", _N), ("chains.extend_inertial.self_s", _S),
    ("chains.extend_inertial.declined", _N),
    ("chains.extend_support.calls", _N), ("chains.extend_support.self_s", _S),
    ("chains.extend_exhaustive.calls", _N), ("chains.extend_exhaustive.self_s", _S),
    ("chains.Chain.extended.calls", _N), ("chains.Chain.extended.self_s", _S),
    ("chains.extension_slack.calls", _N), ("chains.extension_slack.self_s", _S),
    ("chains.classify_monotone.self_s", _S), ("chains.classify_monotone.pairs_checked", _N),
    ("chains.classify_weakly_monotone.self_s", _S),
    ("chains.classify_weakly_monotone.pairs_checked", _N),
    ("chains.classify_cyclic_monotone.self_s", _S),
    ("chains.classify_cyclic_monotone.chains_checked", _N),
    ("chains.classify_weak_cyclic_monotone.self_s", _S),
    ("chains.classify_weak_cyclic_monotone.extensions_checked", _N),
    ("chains.check_support_chain.self_s", _S),
    ("chains.check_support_chain.sequences_checked", _N),
    ("chains.budget_exceeded", _N),
    ("setmaps.eval.calls", _N), ("setmaps.eval.self_s", _S), ("setmaps.eval.values", _N),
    ("setmaps.local_bound.self_s", _S), ("setmaps.local_bound.evals", _N),
    ("setmaps.sample_grid.self_s", _S), ("setmaps.parse_problem.self_s", _S),
    ("geometry.inner.calls", _N), ("geometry.inner.self_s", _S),
    ("geometry.support_value.calls", _N), ("geometry.support_value.self_s", _S),
    ("geometry.support_argmax.calls", _N), ("geometry.support_argmax.self_s", _S),
    ("geometry.dist_to_hull.calls", _N), ("geometry.dist_to_hull.self_s", _S),
    ("geometry.dist_to_set.self_s", _S),
    ("potential.build_family.self_s", _S), ("potential.build_family.evaluations", _N),
    ("potential.build_family.grown_ratio", _R),
    ("potential.grow_family.calls", _N), ("potential.grow_family.self_s", _S),
    ("potential.grow_family.kept_ratio", _R),
    ("potential.potential_value.calls", _N), ("potential.potential_value.self_s", _S),
    ("potential.potential_value.members", _N),
    ("potential.subgradient_test.calls", _N), ("potential.subgradient_test.self_s", _S),
    ("potential.submap_select.self_s", _S), ("potential.submap_contains.self_s", _S),
    ("solver.euler_solve.calls", _N), ("solver.euler_solve.self_s", _S),
    ("solver.steps", _N), ("solver.fallback_ratio", _R), ("solver.selection_failed", _N),
    ("solver.trajectory_residual.self_s", _S), ("solver.trajectory_cm_check.self_s", _S),
    ("solver.polygon_sup_distance.self_s", _S), ("solver.horizon_hint.self_s", _S),
    ("cli.self_s", _S), ("cli.bytes_written", "bytes"),
    ("geometry.self_s", _S), ("setmaps.self_s", _S), ("chains.self_s", _S),
    ("potential.self_s", _S), ("solver.self_s", _S),
    ("trace.untraced_pass_s", _S), ("trace.traced_pass_s", _S), ("trace.overhead_s", _S),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_seconds(rounds: int = REF_ROUNDS) -> float:
    """Seconds for a fixed mix of interpreter and small-array work."""
    a = np.arange(3.0)
    total = 0.0
    start = time.perf_counter()
    for i in range(rounds):
        total += float(np.dot(a, a)) + (i * i) % 7
    return time.perf_counter() - start


class Pass(NamedTuple):
    times: dict      # op name -> wall seconds
    scaled: dict     # op name -> wall seconds at the nominal speed
    wall: float      # summed op wall seconds
    cpu: float       # process CPU seconds over the pass
    ref: float       # mean reference-loop seconds over the pass
    traces: dict     # op name -> Tracer, for a traced pass


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest rank with TAIL_BEYOND values above it."""
    return max(n - TAIL_BEYOND - 1, 0)


class Runner:
    """Runs a workload's ops through the CLI and certifies every outcome."""

    def __init__(self, ops, work: Path):
        import setflow.cli
        import certify

        self.cli = setflow.cli
        self.certify = certify
        self.ops = ops
        self.work = work
        self.inputs = {}
        for op in ops:
            path = work / "inputs" / f"{op.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(op.text())
            self.inputs[op.name] = path
        self.first = {}            # op name -> (exit code, digest) of the certified pass
        self.problems = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0

    def run_op(self, op, tracer=None):
        out = self.work / "out" / op.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = [op.command, "--input", str(self.inputs[op.name]), "--output", str(out)]
        saved = os.environ.get(BUDGET_ENV)
        if op.budget is not None:
            os.environ[BUDGET_ENV] = str(op.budget)
        sink = io.StringIO()
        scope = contextlib.nullcontext()
        if tracer is not None:
            from tracer import instrument
            scope = instrument(tracer)
        try:
            with scope, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except (Exception, SystemExit):
                    code = "raised: " + traceback.format_exc(limit=-3)
                seconds = time.perf_counter() - start
        finally:
            if saved is None:
                os.environ.pop(BUDGET_ENV, None)
            else:
                os.environ[BUDGET_ENV] = saved
        return code, seconds, out

    def record(self, op, code, out):
        """Certify a first outcome in full, or match a repeat against it."""
        self.attempted += 1
        digest = self.certify.digest(out)
        if op.name not in self.first:
            self.first[op.name] = (code, digest)
            problems = self.certify.check(op, code, out)
        elif self.first[op.name] != (code, digest):
            problems = [f"repeat gave exit {code!r} and other output bytes"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.problems[op.name].extend(problems)

    def run_pass(self, tracer_factory=None) -> Pass:
        """One pass over the op list, with the reference loop around each op.

        An op's scaled time uses the mean of the reference times just before
        and just after it, so it follows the machine's speed while it ran.
        """
        times, traces = {}, {}
        refs = [reference_seconds()]
        cpu = time.process_time()
        for op in self.ops:
            tracer = tracer_factory() if tracer_factory else None
            code, seconds, out = self.run_op(op, tracer)
            refs.append(reference_seconds())
            times[op.name] = seconds
            if tracer is not None:
                traces[op.name] = tracer
                self.bytes_written += sum(p.stat().st_size for p in out.iterdir())
            self.record(op, code, out)
        scaled = {op.name: times[op.name] * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1])
                  for i, op in enumerate(self.ops)}
        return Pass(times, scaled, sum(times.values()), time.process_time() - cpu,
                    statistics.fmean(refs), traces)


def measure_setup(first_input: Path) -> list[tuple[float, float]]:
    """Fresh-interpreter seconds to import ``setflow.cli`` and parse one document.

    The child notes the monotonic clock, shared by all processes, once it has
    parsed, then times the reference loop three times where it runs; each
    sample is the pair (setup seconds, median child reference seconds).
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import setflow.cli; "
            "from setflow.setmaps import parse_problem; "
            "parse_problem(open(sys.argv[2]).read()); done = time.monotonic(); "
            "sys.path.insert(0, sys.argv[3]); import statistics; "
            "from run import reference_seconds; "
            "print(done, statistics.median(reference_seconds() for _ in range(3)))")
    cmd = [sys.executable, "-c", code, str(SRC), str(first_input), str(Path(__file__).parent)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        child = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        done, ref = (float(word) for word in child.stdout.split())
        if i:  # the first run compiles bytecode
            samples.append((done - start, ref))
    return samples


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def layer_metrics(tracer, untraced_pass_s, traced_pass_s, bytes_written):
    fns = tracer.by_function()
    counts = tracer.counts

    def calls(name):
        return fns.get(name, (0, 0.0, 0.0))[0]

    def self_s(prefix):
        return sum(row[2] for name, row in fns.items()
                   if name == prefix or name.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls(base)
        elif field == "self_s":
            values[name] = self_s(base)
        elif name in counts:
            values[name] = counts[name]
    steps = counts["solver.steps"]
    raised = Counter({k: v for k, v in counts.items() if ".raised." in k})
    values.update({
        "chains.budget_exceeded": sum(v for k, v in raised.items()
                                      if k.startswith("chains.")
                                      and k.endswith(".BudgetExceededError")),
        "setmaps.local_bound.evals": tracer.spans[("setmaps.eval", "setmaps.local_bound")][0],
        "potential.build_family.grown_ratio": ratio(counts["potential.build_family.grown"],
                                                    counts["potential.build_family.evaluations"]),
        "potential.grow_family.kept_ratio": ratio(counts["potential.grow_family.kept"],
                                                  counts["potential.grow_family.offered"]),
        "solver.fallback_ratio": ratio(
            tracer.spans[("chains.extend_exhaustive", "solver.euler_solve")][0], steps),
        "solver.selection_failed": raised["solver.euler_solve.raised.SelectionFailed"],
        "cli.bytes_written": bytes_written,
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.traced_pass_s": traced_pass_s,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
    })
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def attribution(ops, traces):
    """Per op group: layer self-time shares and the functions with most self time."""
    from tracer import LAYERS, Tracer

    groups = defaultdict(Tracer)
    for op in ops:
        groups[op.group].merge(traces[op.name])
    out = {}
    for group, tracer in sorted(groups.items()):
        fns = tracer.by_function()
        total = sum(row[2] for row in fns.values()) or 1.0
        layers = {layer: sum(row[2] for name, row in fns.items() if name.startswith(layer + "."))
                  for layer in LAYERS}
        top = sorted(fns.items(), key=lambda kv: -kv[1][2])[:8]
        out[group] = {
            "layer_self_share": {k: round(v / total, 4) for k, v in layers.items()},
            "top_self": [{"function": name, "calls": c, "self_s": s, "inclusive_s": d}
                         for name, (c, d, s) in top],
        }
    return out


def subcommand_summary(ops, per_op):
    """Median and tail of per-op seconds for each subcommand, with op counts.

    The tail is absent when a subcommand has too few ops to leave TAIL_BEYOND
    above any rank.
    """
    out = {}
    for command in sorted({op.command for op in ops}):
        values = sorted(per_op[op.name] for op in ops if op.command == command)
        row = {"ops": len(values), "p50_s": statistics.median(values),
               "tail_s": None, "tail_percentile": None}
        if len(values) > TAIL_BEYOND:
            i = tail_index(len(values))
            row.update(tail_s=values[i], tail_percentile=100.0 * (i + 1) / len(values))
        out[command] = row
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "setflow" / "cli.py").is_file():
        print(f"error: no setflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer

    ops = make_ops(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        runner = Runner(ops, work)
        setup = measure_setup(runner.inputs[ops[0].name])
        runner.run_pass()  # warm-up, certified in full
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(runner.run_pass())
        traced = runner.run_pass(Tracer) if args.trace else None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw_op = {op.name: statistics.median(p.times[op.name] for p in passes) for op in ops}
    per_op = {op.name: statistics.median(p.scaled[op.name] for p in passes) for op in ops}
    ranked = sorted(per_op.values())
    if args.trace:
        total = Tracer()
        for t in traced.traces.values():
            total.merge(t)
        untraced = statistics.median(sum(p.scaled.values()) for p in passes)
        metrics = layer_metrics(total, untraced, sum(traced.scaled.values()),
                                runner.bytes_written)
    else:
        metrics = {
            "op_p50_s": statistics.median(ranked),
            "op_tail_s": ranked[tail_index(len(ranked))],
            "pass_s": statistics.median(sum(p.scaled.values()) for p in passes),
            "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup),
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "op_counts": dict(Counter(op.command for op in ops)),
        "group_counts": dict(Counter(op.group for op in ops)),
        "timed_passes": len(passes),
        "ref_nominal_s": REF_NOMINAL_S,
        "pass_wall_s": [p.wall for p in passes],
        "pass_scaled_s": [sum(p.scaled.values()) for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        # (max - min) / median over the timed passes: how much one pass moves
        "pass_spread": {
            kind: (max(v) - min(v)) / statistics.median(v)
            for kind, v in (("wall", [p.wall for p in passes]), ("cpu", [p.cpu for p in passes]),
                            ("scaled", [sum(p.scaled.values()) for p in passes]))
        },
        "pass_ref_s": [p.ref for p in passes],
        "setup_wall_and_ref_s": setup,
        "tail": {"ops": len(ranked), "index": tail_index(len(ranked)),
                 "percentile": 100.0 * (tail_index(len(ranked)) + 1) / len(ranked)},
        "subcommands": subcommand_summary(ops, per_op),
        "subcommands_raw": subcommand_summary(ops, raw_op),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "problems": dict(runner.problems),
        "ops": [{"name": op.name, "group": op.group, "exit": runner.first[op.name][0],
                 "median_s": per_op[op.name], "median_wall_s": raw_op[op.name],
                 "digest": runner.first[op.name][1]}
                for op in ops],
        "metrics": metrics,
    }
    if args.trace:
        record["attribution"] = attribution(ops, traced.traces)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, problems in runner.problems.items():
        print(f"FAILED {name}: {'; '.join(problems[:3])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']!r} ratio")
    print(f"results {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
