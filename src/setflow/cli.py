"""Command-line front end: solve, classify, potential, refine.

Every command reads one problem-spec JSON document and writes plain-text
artifacts (CSV/JSON at full float precision) into an output directory.  Runs
are deterministic: the same inputs produce byte-identical outputs.  Exit
codes: 0 success (classification verdicts are data, not failures), 2 invalid
input, 3 velocity selection failed (replay state is written next to the other
outputs), 4 combinatorial budget exceeded.  The budget defaults to 10^6 chains
per classification call and can be overridden with the ``SETFLOW_CHAIN_BUDGET``
environment variable.  ``potential`` charges its query phase, every (sample,
value) pair times every sample, and ``solve`` and ``refine`` their Euler
steps, against the same budget before any work.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .chains import (
    BudgetExceededError,
    DEFAULT_CHAIN_BUDGET,
    check_support_chain,
    classify_cyclic_monotone,
    classify_monotone,
    classify_weak_cyclic_monotone,
    classify_weakly_monotone,
)
from .potential import (
    build_family,
    family_to_text,
    potential_value,
    potential_values,
    submap_contains,
    submap_select,
    subgradient_test,
)
from .setmaps import GridSpec, ProblemFormatError, parse_problem
from .solver import (
    SelectionFailed,
    euler_solve,
    horizon_hint,
    refine_study,
    trajectory_cm_check,
    trajectory_residual,
)

__all__ = ["main", "BUDGET_ENV", "EXIT_OK", "EXIT_INVALID", "EXIT_SELECTION", "EXIT_BUDGET"]

BUDGET_ENV = "SETFLOW_CHAIN_BUDGET"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SELECTION = 3
EXIT_BUDGET = 4

DEFAULT_MAX_LENGTH = 2
DEFAULT_STEP_COUNTS = (25, 50, 100, 200)


def _chain_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_CHAIN_BUDGET
    try:
        budget = int(raw)
        if budget < 1:
            raise ValueError
    except ValueError:
        raise ProblemFormatError(f"{BUDGET_ENV}: must be a positive integer, got {raw!r}")
    return budget


def _charge_steps(command: str, steps) -> None:
    # Euler steps to integrate (T / h for solve, which may be huge or
    # infinite), charged against the budget before any work
    budget = _chain_budget()
    if steps > budget:
        error = BudgetExceededError(steps, budget)
        error.args = (f"{command} needs {steps:.12g} Euler steps, budget {budget}",)
        raise error


def _parse_grid_option(text: str) -> GridSpec:
    # one low:high:count triple per axis, comma separated
    lows, highs, counts = [], [], []
    try:
        for axis in text.split(","):
            lo, hi, count = axis.split(":")
            lows.append(float(lo))
            highs.append(float(hi))
            counts.append(int(count))
        return GridSpec(lows, highs, counts)
    except (ValueError, TypeError) as exc:
        raise ProblemFormatError(f"--grid: expected low:high:count per axis, {exc}")


def _parse_steps_option(text: str):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ProblemFormatError(f"--steps: expected comma-separated integers, {exc}")


def _load_spec(args):
    text = Path(args.input).read_text()
    spec = parse_problem(text)
    grid = _parse_grid_option(args.grid) if getattr(args, "grid", None) else None
    steps = _parse_steps_option(args.steps) if getattr(args, "steps", None) else None
    return spec.with_overrides(
        tol=args.tol,
        strategy=getattr(args, "strategy", None),
        grid=grid,
        max_length=getattr(args, "max_length", None),
        steps=steps,
    )


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path.name}")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path.name}")


def _fmt(value) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# commands

def run_solve(args) -> int:
    spec = _load_spec(args)
    _charge_steps("solve", spec.horizon / spec.step)
    out = _out_dir(args)
    try:
        traj = euler_solve(spec)
    except SelectionFailed as failure:
        _write_json(out / "selection_failure.json", failure.to_json_dict())
        print(f"selection failed at step {failure.step_index}")
        return EXIT_SELECTION
    n = traj.dimension
    header = ["t"] + [f"x{c}" for c in range(n)] + [f"v{c}" for c in range(n)]
    rows = [
        [_fmt(t)] + [_fmt(c) for c in x] + [_fmt(c) for c in v]
        for t, x, v in zip(traj.times, traj.states, traj.velocities)
    ]
    _write_csv(out / "trajectory.csv", header, rows)
    node, hull = trajectory_residual(traj, spec.map)
    summary = {
        "nodes": traj.node_count(),
        "T": spec.horizon,
        "h": spec.step,
        "strategy": spec.strategy,
        "tol": spec.tol,
        "final_time": float(traj.times[-1]),
        "final_state": [float(c) for c in traj.states[-1]],
        "node_residual": node,
        "hull_residual": hull,
        "chain_ok": bool(trajectory_cm_check(traj, spec.tol)),
        # advisory horizon bound for the unit ball around x0; never applied
        "horizon_hint_unit_ball": horizon_hint(spec.map, spec.x0, 1.0),
    }
    _write_json(out / "summary.json", summary)
    print(f"solved {traj.node_count()} nodes, chain_ok={summary['chain_ok']}")
    return EXIT_OK


def _classify_grid(spec, command):
    if spec.grid is None:
        raise ProblemFormatError(
            f"grid: required for {command} (set it in the spec or pass --grid)"
        )
    return spec.grid


def run_classify(args) -> int:
    spec = _load_spec(args)
    out = _out_dir(args)
    grid = _classify_grid(spec, "classify")
    samples = grid.points()
    max_length = spec.max_length or DEFAULT_MAX_LENGTH
    budget = _chain_budget()
    reports = [
        classify_monotone(spec.map, samples, spec.tol, budget),
        classify_weakly_monotone(spec.map, samples, spec.tol, budget),
        classify_cyclic_monotone(spec.map, samples, max_length, spec.tol, budget),
        classify_weak_cyclic_monotone(spec.map, samples, max_length, spec.tol, budget),
        check_support_chain(spec.map, samples, max_length, spec.tol, budget),
    ]
    doc = {
        "grid": grid.to_dict(),
        "max_length": max_length,
        "budget": budget,
        "reports": [r.to_json_dict() for r in reports],
    }
    _write_json(out / "classification.json", doc)
    for report in reports:
        print(f"{report.name}: {'holds' if report.holds else 'fails'}")
    return EXIT_OK


def run_potential(args) -> int:
    spec = _load_spec(args)
    out = _out_dir(args)
    grid = _classify_grid(spec, "potential")
    samples = grid.points()
    max_length = spec.max_length or DEFAULT_MAX_LENGTH
    budget = _chain_budget()
    # the query phase checks every compatible pair against every sample, so
    # charge every (sample, value) pair times the sample count up front,
    # evaluating the map only until the charge passes the budget
    values, pairs = [], 0
    for p in samples:
        values.append(spec.map.eval(p).points)
        pairs += len(values[-1])
        if pairs * len(samples) > budget:
            raise BudgetExceededError(pairs * len(samples), budget)
    box = (np.array(grid.low), np.array(grid.high))
    family, stats = build_family(
        spec.map, spec.x0, spec.v0, samples, max_length,
        box=box, budget=budget, tol=spec.tol,
    )
    with open(out / "family.json", "w", newline="\n") as fh:
        fh.write(family_to_text(family))
    print("wrote family.json")

    probes = np.array(samples)
    header = [f"x{c}" for c in range(family.dimension)] + ["potential"]
    rows = [
        [_fmt(c) for c in p] + [_fmt(value)]
        for p, value in zip(samples, potential_values(family, probes))
    ]
    _write_csv(out / "potential_values.csv", header, rows)

    entries = []
    accepted = 0
    for p, vals in zip(samples, values):
        selected = submap_select(family, spec.map, p, spec.tol)
        checks = []
        for v in vals:
            compatible = submap_contains(family, spec.map, p, v, spec.tol)
            ok = None
            if compatible:
                accepted += 1
                ok = bool(subgradient_test(family, p, v, probes, spec.tol))
            checks.append({
                "v": [float(c) for c in v],
                "compatible": bool(compatible),
                "subgradient_ok": ok,
            })
        entries.append({
            "x": [float(c) for c in p],
            "selected": None if selected is None else [float(c) for c in selected],
            "values": checks,
        })
    _write_json(out / "subgradient.json", {"entries": entries})
    summary = {
        "family_size": len(family),
        "anchor_value": potential_value(family, spec.x0),
        "accepted_pairs": accepted,
        **stats,
    }
    _write_json(out / "potential_summary.json", summary)
    print(f"family of {len(family)} chains, {accepted} compatible pairs")
    return EXIT_OK


def run_refine(args) -> int:
    spec = _load_spec(args)
    counts = spec.step_counts or DEFAULT_STEP_COUNTS
    _charge_steps("refine", sum(counts))
    out = _out_dir(args)
    try:
        rows = refine_study(spec, counts)
    except SelectionFailed as failure:
        _write_json(out / "selection_failure.json", failure.to_json_dict())
        print(f"selection failed at step {failure.step_index}")
        return EXIT_SELECTION
    header = ["steps", "step_size", "sup_distance", "node_residual",
              "hull_residual", "chain_ok"]
    table = [
        [
            str(r.steps),
            _fmt(r.step_size),
            "" if r.sup_distance is None else _fmt(r.sup_distance),
            _fmt(r.node_residual),
            _fmt(r.hull_residual),
            str(r.chain_ok).lower(),
        ]
        for r in rows
    ]
    _write_csv(out / "refinement.csv", header, table)
    for r in rows:
        gap = "first" if r.sup_distance is None else _fmt(r.sup_distance)
        print(f"steps={r.steps} sup_distance={gap} chain_ok={str(r.chain_ok).lower()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setflow",
        description="Set-valued analysis and differential inclusions on finite data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strategy=False, grid=False, max_length=False, steps=False):
        p.add_argument("--input", required=True, help="problem-spec JSON file")
        p.add_argument("--output", required=True, help="output directory")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        if strategy:
            p.add_argument("--strategy", default=None,
                           choices=["exhaustive", "support", "inertial"])
        if grid:
            p.add_argument("--grid", default=None,
                           help="low:high:count per axis, comma separated")
        if max_length:
            p.add_argument("--max-length", dest="max_length", type=int, default=None)
        if steps:
            p.add_argument("--steps", default=None, help="comma-separated step counts")

    common(sub.add_parser("solve", help="integrate one Euler polygon"), strategy=True)
    common(sub.add_parser("classify", help="brute-force monotonicity verdicts"),
           grid=True, max_length=True)
    common(sub.add_parser("potential", help="grow a potential family over a grid"),
           grid=True, max_length=True)
    common(sub.add_parser("refine", help="compare polygons across step counts"),
           strategy=True, steps=True)
    return parser


_RUNNERS = {
    "solve": run_solve,
    "classify": run_classify,
    "potential": run_potential,
    "refine": run_refine,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ProblemFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
