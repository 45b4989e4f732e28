"""Command-line front end: solve, classify, potential, refine.

Every command reads one problem-spec JSON document and writes plain-text
artifacts (CSV/JSON at full float precision) into an output directory.  Runs
are deterministic: the same inputs produce byte-identical outputs.  Exit
codes: 0 success (classification verdicts are data, not failures), 2 invalid
input (arithmetic that overflows the float range included), 3 velocity
selection failed (replay state is written next to the other outputs), 4
combinatorial budget exceeded.  The budget defaults to 10^6 chains
per classification call and can be overridden with the ``SETFLOW_CHAIN_BUDGET``
environment variable.  ``classify`` and ``potential`` charge every pair of
grid points before they build the grid, ``potential`` its query phase, every
(sample, value) pair times every sample, and ``solve`` and ``refine`` their
Euler steps, against the same budget before any work.  The output directory
is made only when the first file is written, so a run that exits 2 or 4 leaves
none.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import os
import sys

import numpy as np
import orjson

from .chains import (
    BudgetExceededError,
    DEFAULT_CHAIN_BUDGET,
    _ChainGraph,
    _classify,
)
from .geometry import _segment_best_rows, inner_rows
from .potential import (
    _build_family,
    _subgradient_checks,
    family_to_json_dict,
    potential_value,
    potential_values,
)
from .setmaps import STRATEGIES, GridSpec, ProblemFormatError, _json_bytes, parse_problem
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
# cells of a float table formatted per write
_CSV_BLOCK = 1 << 16


def _charge(command: str, amount, unit: str) -> int:
    # work charged against the budget before any of it is done (Euler steps
    # T / h, which may be huge or infinite, or pairs of grid points); returns
    # the budget
    raw = os.environ.get(BUDGET_ENV)
    try:
        budget = DEFAULT_CHAIN_BUDGET if raw is None else int(raw)
        if budget < 1:
            raise ValueError
    except ValueError:
        raise ProblemFormatError(f"{BUDGET_ENV}: must be a positive integer, got {raw!r}")
    if amount > budget:
        error = BudgetExceededError(amount, budget)
        # an integer past the float range is written exactly, not as a float
        shown = f"{amount:.12g}" if amount <= sys.float_info.max else f"{amount}"
        error.args = (f"{command} needs {shown} {unit}, budget {budget}",)
        raise error
    return budget


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
    with open(args.input, "rb", buffering=0) as fh:
        spec = parse_problem(fh.read().decode())
    flags = {
        "tol": args.tol,
        "strategy": getattr(args, "strategy", None),
        "grid": _parse_grid_option(args.grid) if getattr(args, "grid", None) else None,
        "max_length": getattr(args, "max_length", None),
        "step_counts": _parse_steps_option(args.steps) if getattr(args, "steps", None) else None,
    }
    changed = {name: value for name, value in flags.items() if value is not None}
    # parse_problem has validated the spec, so only a copy that a flag
    # changes is validated again
    return dataclasses.replace(spec, **changed).validated() if changed else spec


def _write_bytes(path, blocks) -> None:
    # one unbuffered write per block, finished if it comes up short; the
    # directory is made with its first file
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        for block in blocks:
            while block:
                block = block[os.write(fd, block):]
    finally:
        os.close(fd)
    print(f"wrote {os.path.basename(path)}")


def _write_json(path, obj) -> None:
    # the text of json.dumps(obj, indent=2) and a newline, in one write
    _write_bytes(path, [_json_bytes(obj) + b"\n"])


def _write_csv(path, header, rows) -> None:
    # the bytes csv.writer writes: no cell here needs quoting, and it writes a
    # float cell as repr(), the shortest text that round-trips, as _fmt does.
    # A float64 array is formatted a block of rows at a time; any other rows
    # are rows of text or float cells
    head = (",".join(header) + "\n").encode()
    if isinstance(rows, np.ndarray):
        step = max(1, _CSV_BLOCK // max(1, rows.shape[1]))
        blocks = (_float_lines(rows[lo:lo + step]) for lo in range(0, len(rows), step))
        _write_bytes(path, itertools.chain([head], blocks))
    else:
        _write_bytes(path, [head + "".join([",".join(map(str, r)) + "\n" for r in rows]).encode()])


def _orjson_exact(a) -> np.ndarray:
    # where orjson writes a float as repr() does: 0.0, -0.0 and every 1e-4 <=
    # |x| < 1e16; it writes 5e24 for 5e+24, 0.0000117 for 1.17e-05 and null
    # for nan and inf
    size = np.abs(a)
    return ((size >= 1e-4) & (size < 1e16)) | (size == 0.0)


def _float_lines(block) -> bytes:
    # a row that holds a value orjson writes otherwise than repr() is
    # formatted by repr() instead
    block = np.ascontiguousarray(block, dtype=np.float64)
    lines = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    for i in np.flatnonzero(~_orjson_exact(block).all(axis=1)).tolist():
        lines[i] = ",".join(map(float.__repr__, block[i].tolist())).encode()
    return b"\n".join(lines) + b"\n"


def _fmt(value) -> str:
    # for cells that may also be empty or text
    return repr(float(value))


# ---------------------------------------------------------------------------
# commands

def run_solve(args) -> int:
    spec = _load_spec(args)
    _charge("solve", spec.horizon / spec.step, "Euler steps")
    traj = euler_solve(spec)
    n = traj.dimension
    header = ["t"] + [f"x{c}" for c in range(n)] + [f"v{c}" for c in range(n)]
    rows = np.column_stack([traj.times, traj.states, traj.velocities])
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
    _write_csv(os.path.join(args.output, "trajectory.csv"), header, rows)
    _write_json(os.path.join(args.output, "summary.json"), summary)
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
    grid = _classify_grid(spec, "classify")
    # the support-chain condition checks every pair of the n grid points
    budget = _charge("classify", math.prod(grid.counts) ** 2, "pairs of grid points")
    max_length = spec.max_length or DEFAULT_MAX_LENGTH
    reports = _classify(_ChainGraph(spec.map, grid.points()), max_length, spec.tol, budget)
    doc = {
        "grid": grid.to_dict(),
        "max_length": max_length,
        "budget": budget,
        "reports": [r.to_json_dict() for r in reports],
    }
    _write_json(os.path.join(args.output, "classification.json"), doc)
    for report in reports:
        print(f"{report.name}: {'holds' if report.holds else 'fails'}")
    return EXIT_OK


def run_potential(args) -> int:
    spec = _load_spec(args)
    grid = _classify_grid(spec, "potential")
    # the query phase checks at least every pair of the n grid points
    budget = _charge("potential", math.prod(grid.counts) ** 2, "pairs of grid points")
    samples = grid.points()
    max_length = spec.max_length or DEFAULT_MAX_LENGTH
    graph = _ChainGraph(spec.map, samples)
    # the query phase checks every compatible node against every sample, so
    # charge every (sample, value) node times the sample count up front
    _charge("potential", len(graph.V) * len(samples), "node-sample checks")
    box = (np.array(grid.low), np.array(grid.high))
    family, stats = _build_family(graph, spec.x0, spec.v0, max_length, box, budget, spec.tol)
    potentials = potential_values(family, samples)
    header = [f"x{c}" for c in range(family.dimension)] + ["potential"]
    rows = np.column_stack([samples, potentials])

    # a node is compatible when its extension's slack <x - x0, v> less the
    # model at x is at least -tol; the selected value of a sample is its
    # anchored pick, if compatible
    offsets = graph.X - spec.x0
    products = inner_rows(offsets, graph.V)
    compatible = products - potentials[graph.owner] >= -spec.tol
    passed = np.zeros(len(compatible), dtype=bool)
    passed[compatible] = _subgradient_checks(family, graph.X[compatible], graph.V[compatible],
                                             samples, spec.tol)
    # the anchored support rule scores a sample's values by their products,
    # or, at a sample equal to x0, by their nearness to v0, formed only over
    # that sample's values so that an overflow raises only there; one
    # segmented pass picks every sample's value by _best_row's tie rule
    scores = products
    at = np.flatnonzero(~offsets.any(axis=1))
    if at.size:
        turns = graph.V[at] - spec.v0
        scores = products.copy()
        scores[at] = -inner_rows(turns, turns)
    picks = _segment_best_rows(graph.V, scores, graph.owner, graph.start)
    start = graph.start.tolist()
    values, ok, sub = graph.V.tolist(), compatible.tolist(), passed.tolist()
    entries = [{
        "x": p,
        "selected": values[pick] if ok[pick] else None,
        "values": [{
            "v": values[a],
            "compatible": ok[a],
            "subgradient_ok": sub[a] if ok[a] else None,
        } for a in range(start[i], start[i + 1])],
    } for i, (p, pick) in enumerate(zip(samples.tolist(), picks.tolist()))]
    accepted = int(np.count_nonzero(compatible))
    anchor_value = potential_value(family, spec.x0)
    summary = {
        "family_size": len(family),
        "anchor_value": anchor_value,
        "accepted_pairs": accepted,
        **stats,
    }
    # every figure is computed before the first file is written, so a run
    # that fails leaves no outputs
    _write_json(os.path.join(args.output, "family.json"), family_to_json_dict(family))
    _write_csv(os.path.join(args.output, "potential_values.csv"), header, rows)
    _write_json(os.path.join(args.output, "subgradient.json"), {"entries": entries})
    _write_json(os.path.join(args.output, "potential_summary.json"), summary)
    print(f"family of {len(family)} chains, {accepted} compatible pairs")
    return EXIT_OK


def run_refine(args) -> int:
    spec = _load_spec(args)
    counts = spec.step_counts or DEFAULT_STEP_COUNTS
    _charge("refine", sum(counts), "Euler steps")
    rows = refine_study(spec, counts)
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
    _write_csv(os.path.join(args.output, "refinement.csv"), header, table)
    for r in rows:
        gap = "first" if r.sup_distance is None else _fmt(r.sup_distance)
        print(f"steps={r.steps} sup_distance={gap} chain_ok={str(r.chain_ok).lower()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: building it costs far more than a parse
    parser = argparse.ArgumentParser(
        prog="setflow",
        description="Set-valued analysis and differential inclusions on finite data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, strategy=False, grid=False, max_length=False, steps=False):
        p.set_defaults(run=run)
        p.add_argument("--input", required=True, help="problem-spec JSON file")
        p.add_argument("--output", required=True, help="output directory")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        if strategy:
            p.add_argument("--strategy", default=None, choices=STRATEGIES)
        if grid:
            p.add_argument("--grid", default=None,
                           help="low:high:count per axis, comma separated")
        if max_length:
            p.add_argument("--max-length", dest="max_length", type=int, default=None)
        if steps:
            p.add_argument("--steps", default=None, help="comma-separated step counts")

    common(sub.add_parser("solve", help="integrate one Euler polygon"), run_solve, strategy=True)
    common(sub.add_parser("classify", help="brute-force monotonicity verdicts"), run_classify,
           grid=True, max_length=True)
    common(sub.add_parser("potential", help="grow a potential family over a grid"),
           run_potential, grid=True, max_length=True)
    common(sub.add_parser("refine", help="compare polygons across step counts"), run_refine,
           strategy=True, steps=True)
    # each command's parser, which main hands that command's arguments
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command's own parser reads what follows its name, as in argparse's
    # whole parse; any other list, or one with arguments left, is parsed whole
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    args, extra = command.parse_known_args(argv[1:]) if command else (None, True)
    if extra:
        args = parser.parse_args(argv)
    try:
        # an overflowing product or an inf - inf would leave a verdict or a
        # slack that no comparison can trust, so it ends the run instead
        with np.errstate(over="raise", invalid="raise"):
            try:
                return args.run(args)
            except SelectionFailed as failure:
                # the replay state, where the outputs would have gone
                _write_json(os.path.join(args.output, "selection_failure.json"),
                            failure.to_json_dict())
                print(f"selection failed at step {failure.step_index}")
                return EXIT_SELECTION
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FloatingPointError as exc:
        print(f"error: arithmetic leaves the float range: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ProblemFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
