"""Per-layer timings of the library, for a parent tree against a change.

    python3 bench/layers.py --parent ../parent/src --change src \\
        --e2e-parent ../parent/.perfbench_out --e2e-change .perfbench_out \\
        --out BENCH_12.json

Each tree is measured in a fresh interpreter per round (``--measure SRC``
prints one JSON object), for ``--rounds`` rounds that alternate which tree
goes first.  Every figure is the least over rounds, recorded with the
interquartile range of its rounds: one process alone can read twice as slow
as the least of a dozen.  A figure is microseconds per call of
``SetValuedMap.eval`` for each built-in map kind, per row of
``SetValuedMap.eval_many``, per node of ``trajectory_residual``, per step
of ``euler_solve`` (1000 support steps from one point, for each map kind,
the linear one replaced by the
gradient map ``diag(1, 2)``, and 1000 exhaustive and inertial steps on the
constant map; and per step of the support solve on ``RAISE_AHEAD``, up to
the uncovered node 1025 where it raises, the blocks guessed across that node
raising with it), per call of ``time_grid`` at 1000 steps, per
``build_family`` op (the subdifferential
map on a 5x5 grid, ``max_length`` 3, boxed by the grid; and the
subdifferential of ``max(+-x1, +-x2)`` on a 9x9 grid over the square, anchored
at ``((0.5, 0.25), (1, 0))``, at ``max_length`` 4 and budget 10^6, timed once
per round, since a tree that stops filtering children on large levels takes
about a minute there) and per
``grow_family`` call (that family grown by each grid pair whose extension of
its best member there verifies, as ``subgradient_test`` grows it), per
compatible node of that family's query phase (every grid pair it accepts,
checked against every grid point in one kernel call), and likewise per
compatible node of the kink family built on the 9x9 grid at ``max_length``
3 (its 100 nodes), per point
of ``GridSpec.points`` on a 50x80 grid, per call of ``parse_problem`` on a
problem document of each built-in map kind (the maps of the ``eval``
figures), per call of both pairwise classifiers (``classify_monotone`` then
``classify_weakly_monotone``) on the rotation ``[[0, -1], [1, 0]]`` over a 7x7
grid, whose gaps are all zero, so that every pair is checked, per call of each of the five
classifiers and per ``setflow classify`` run (through ``cli.main``, its five
classifiers included) on the kink map of ``demos/problems/kink_crossing.json``
over a 9x9 grid at ``max_length`` 2, which holds every class, and on the
rotation ``[[0, -1], [1, 0]]`` over that grid at ``max_length`` 3 (budget
10^8), which is monotone but not cyclically monotone, per ``setflow classify`` run
on that kink problem over a budget of 10 (``cli.floor``), which exits 4 before
it builds the grid and so times only dispatch, spec load and the error line,
per call of ``classify_cyclic_monotone``
and ``check_support_chain`` on the constant map ``{+-e1, +-e2}`` over a 17x17
grid at ``max_length`` 2, and of ``classify_cyclic_monotone`` on the
subdifferential of ``max(+-x1, +-x2)`` over that grid (both at budget 10^8),
per call of both and of ``classify_weak_cyclic_monotone`` on the rotation
``[[0, -1], [1, 0]]`` over a 9x9 grid at ``max_length`` 3 (budget 10^8), whose
first violating chain has two steps, so that the witness descent tests a
level of candidates before its last, the tracemalloc peak in KiB of the five
classifiers of ``setflow classify`` (``chains._classify``, budget 10^6) on
that rotation over a 7x7 grid at ``max_length`` 2, whose weak cyclic witness
is the 7th chain of a level of 1337,
per ``verify_chain`` run over the node
chain of the subdifferential trajectory of the residual figure and over its
first two pairs, and per call
of ``inner``, ``extension_slack`` (one velocity), ``Chain.extended``,
``support_argmax`` and ``dist_to_hull`` (the constant map's four values), of
each ``extend_*`` rule and of ``submap_select`` (against the constant map,
from the ``build_family`` family), on fixed two dimensional inputs.  Four
figures time the CLI's writers: ``cli._write_json`` on the
``subgradient.json`` document of ``setflow potential`` and on the
``classification.json`` document of ``setflow classify`` on that kink problem,
and ``cli._write_csv`` on the 1001-row table of a 3-d polygon (1000 support
steps of the gradient map ``GRADIENT3``), as an array, and on that table
with a state of ``1e-17`` in every 50th row, which the writer formats by
``float.__repr__``.  Within a round each is the least of five timed
repeats.  Two figures time
whole ``setflow potential`` runs through ``cli.main``: a query op, the
3-d table map ``TABLE3`` on a 4x4x4 grid at ``max_length`` 2, and a growth
op, the subdifferential map of the ``build_family`` figure on its 5x5 grid
at ``max_length`` 3.  The CLI runs and the writers write under
``.bench_build/`` next to the measured tree.
``--e2e-parent`` and ``--e2e-change`` name ``perfbench/run.py --trace 0``
result directories; the medians over the seeds found in both, per workload
and end-to-end metric, are recorded with the number of seeds where the
change was lower.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPEATS = 5
GRID = [(-1.0 + i / 4, -1.0 + j / 4) for i in range(9) for j in range(9)]
MAPS = {
    "constant": {"kind": "constant", "points": [[2.0, 0.0], [1.0, 1.0], [-1.0, 0.5], [0.0, -1.0]]},
    "subdifferential": {"kind": "subdifferential",
                        "slopes": [[1.0, 0.0], [-1.0, 2.0], [0.0, -3.0], [2.0, 1.0], [-2.0, -1.0]],
                        "offsets": [0.0, 0.25, -0.5, 0.0, 0.5]},
    "linear": {"kind": "linear", "matrix": [[0.5, -1.0], [1.0, 0.5]]},
    "table": {"kind": "table", "regions": [
        {"where": {"kind": "box", "low": [0.5, 0.5], "high": [1.0, 1.0]},
         "points": [[1.0, 1.0]]},
        *({"where": {"kind": "halfspace", "normal": [1.0, 0.0], "value": k, "op": op},
           "points": points}
          for k, below, above in ((-0.5, -1.0, 0.0), (0.25, 0.0, 2.0))
          for op, points in (("lt", [[below, 0.5]]), ("eq", [[below, 0.5], [above, 0.5]]))),
        {"where": {"kind": "always"}, "points": [[2.0, 0.5]]},
    ]},
}
RESIDUAL_STEPS = 2000
# euler_solve per step: the constant map's first value dominates its other
# three (<a, b> < |a|^2), so every rule keeps it and it coasts with four
# values; the subdifferential and table maps coast most of the time with
# one; and this gradient linear map has one value at every node but turns
# there, so it never coasts
GRADIENT = {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 2.0]]}
SOLVE_STEPS = 1000
# from (0, 0) at v = (1, 0) and h = 1/1024, x1 + x2 reaches 1 at node 1024,
# where the value (2, 1) joins; the node after the turn to (2, 1) matches no
# region, so every block guessed across it raises
INF = float("inf")
RAISE_EDGE = 1 + 1 / 1024
RAISE_AHEAD = {"kind": "table", "regions": [
    {"where": {"kind": "halfspace", "normal": [1.0, 1.0], "value": 1.0, "op": "lt"},
     "points": [[1.0, 0.0]]},
    {"where": {"kind": "halfspace", "normal": [1.0, 1.0], "value": 1.0, "op": "eq"},
     "points": [[1.0, 0.0], [2.0, 1.0]]},
    {"where": {"kind": "box", "low": [-INF, -INF], "high": [RAISE_EDGE, INF]},
     "points": [[2.0, 1.0]]},
    {"where": {"kind": "box", "low": [RAISE_EDGE, 0.001], "high": [INF, INF]},
     "points": [[2.0, 1.0]]},
]}
RAISE_AHEAD_STEPS = 1025
FAMILY_GRID = ([-1.0, -1.0], [1.0, 1.0], [5, 5])
FAMILY_LENGTH = 3
POINTS_GRID = ([-1.0, -1.0], [1.0, 1.0], [50, 80])
KINK = {"kind": "subdifferential", "slopes": [[1.0, 0.0], [2.0, -1.0]], "offsets": [0.0, 0.0]}
KINK_GRID = {"low": [-1.0, -1.0], "high": [1.0, 1.0], "counts": [9, 9]}
KINK_LENGTH = 2
# the subdifferential of max(+-x1, +-x2), and the constant map of its slopes
SQUARE_SLOPES = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
SQUARE_KINK = {"kind": "subdifferential", "slopes": SQUARE_SLOPES, "offsets": [0.0] * 4}
FOUR_VALUED = {"kind": "constant", "points": SQUARE_SLOPES}
ROTATION = {"kind": "linear", "matrix": [[0.0, -1.0], [1.0, 0.0]]}
ROTATION_LENGTH = 3
# admits the 289**3 sequences and the 324**2 + 324**3 chains of the 17x17 grid
# figures at max_length 2, and the 81**4 sequences of the rotation figures
WIDE_BUDGET = 10**8
PRIMITIVE_CALLS = 2000
GRID_CALLS = 200
WRITES = 20
# the kink classify run over a budget of 10 exits 4 before its grid is built,
# so it times only what every op pays: dispatch, spec load and one error line
FLOOR_BUDGET = 10
FLOOR_CALLS = 50
# setflow potential per op: a table map stepping up in x1 across two kinks
# that 4x4x4 grid points lie on, anchored on one, at max_length 2 (query
# heavy); and the build_family figure's map and grid at max_length 3 (growth heavy)
TABLE3 = {"kind": "table", "regions": [
    *({"where": {"kind": "halfspace", "normal": [1.0, 0.0, 0.0], "value": k, "op": op},
       "points": points}
      for k, below, above in ((-0.25, -2.0, 0.0), (0.25, 0.0, 1.0))
      for op, points in (("lt", [[below, 1.0, 0.0]]),
                         ("eq", [[below, 1.0, 0.0], [above, 1.0, 0.0]]))),
    {"where": {"kind": "always"}, "points": [[1.0, 1.0, 0.0]]},
]}
QUERY_PROBLEM = {"map": TABLE3, "x0": [0.25, 0.0, 0.0], "v0": [1.0, 1.0, 0.0],
                 "grid": {"low": [-0.75] * 3, "high": [0.75] * 3, "counts": [4, 4, 4]},
                 "max_length": 2}
# the 3-d gradient map diag(1, 2, 1/2), whose polygon fills the CSV figure's table
GRADIENT3 = {"kind": "linear", "matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]]}


def _per_call_us(fn, calls, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def measure(src: str) -> dict:
    sys.path.insert(0, src)
    import numpy as np
    import setflow.cli
    from setflow import (CompactSet, GridSpec, ProblemSpec, UncoveredPointError, affine_value,
                         build_family, check_support_chain, classify_cyclic_monotone,
                         classify_monotone, classify_weak_cyclic_monotone,
                         classify_weakly_monotone, dist_to_hull, euler_solve, extend_exhaustive,
                         extend_inertial, extend_support, extension_slack, grow_family, inner,
                         map_from_dict, parse_problem, potential_value, sample_grid,
                         submap_select,
                         support_argmax, time_grid, trajectory_residual, verify_chain)

    points = [np.array(p) for p in GRID]
    X = np.array(GRID)
    out = {}
    for kind, doc in MAPS.items():
        svmap = map_from_dict(doc)

        def per_point():
            for x in points:
                svmap.eval(x)

        out[f"setmaps.eval.{kind}.us_per_call"] = _per_call_us(per_point, len(points))
        out[f"setmaps.eval_many.{kind}.us_per_row"] = _per_call_us(
            lambda: svmap.eval_many(X), len(X))
    for kind in ("subdifferential", "table"):
        svmap = map_from_dict(MAPS[kind])
        x0 = np.array([-0.75, 0.3])
        spec = ProblemSpec(map=svmap, x0=x0, v0=svmap.eval(x0).points[0], horizon=1.0,
                           step=1.0 / RESIDUAL_STEPS, strategy="support", tol=1e-9)
        traj = euler_solve(spec)
        out[f"solver.trajectory_residual.{kind}.us_per_node"] = _per_call_us(
            lambda: trajectory_residual(traj, svmap), traj.node_count())
        if kind == "subdifferential":
            node_chain = traj.chain()
            out["chains.verify_chain.us_per_run"] = _per_call_us(
                lambda: verify_chain(node_chain), 1)
            pair2 = node_chain.prefix(2)

            def verify_pair2():
                for _ in range(PRIMITIVE_CALLS):
                    verify_chain(pair2)

            out["chains.verify_chain.pair2.us_per_run"] = _per_call_us(
                verify_pair2, PRIMITIVE_CALLS)

    solves = [(kind, "support") for kind in (*MAPS, "linear")]
    solves += [("constant", "exhaustive"), ("constant", "inertial")]
    for kind, strategy in solves:
        svmap = map_from_dict(GRADIENT if kind == "linear" else MAPS[kind])
        x0 = np.array([-0.75, 0.3])
        spec = ProblemSpec(map=svmap, x0=x0, v0=svmap.eval(x0).points[0], horizon=1.0,
                           step=1.0 / SOLVE_STEPS, strategy=strategy, tol=1e-9)
        name = kind if strategy == "support" else f"{kind}.{strategy}"
        out[f"solver.euler_solve.{name}.us_per_step"] = _per_call_us(
            lambda: euler_solve(spec), SOLVE_STEPS)
    raise_ahead = ProblemSpec(map=map_from_dict(RAISE_AHEAD), x0=np.zeros(2),
                              v0=np.array([1.0, 0.0]), horizon=1.5, step=1 / 1024,
                              strategy="support", tol=1e-9)

    def solve_raise_ahead():
        try:
            euler_solve(raise_ahead)
        except UncoveredPointError:
            return
        raise AssertionError("the raise-ahead solve did not raise")

    out["solver.euler_solve.raise_ahead.us_per_step"] = _per_call_us(
        solve_raise_ahead, RAISE_AHEAD_STEPS)

    def grids():
        for _ in range(GRID_CALLS):
            time_grid(1.0, 1.0 / SOLVE_STEPS)

    out["solver.time_grid.n1000.us_per_call"] = _per_call_us(grids, GRID_CALLS)

    svmap = map_from_dict(MAPS["subdifferential"])
    grid = sample_grid(*FAMILY_GRID)
    x0 = grid[len(grid) // 2]
    v0 = svmap.eval(x0).points[0]
    box = FAMILY_GRID[:2]
    out["potential.build_family.us_per_op"] = _per_call_us(
        lambda: build_family(svmap, x0, v0, grid, FAMILY_LENGTH, box=box), 1)
    square, square_grid = map_from_dict(SQUARE_KINK), sample_grid(*FAMILY_GRID[:2], [9, 9])
    out["potential.build_family.kink9.L4.us_per_op"] = _per_call_us(
        lambda: build_family(square, [0.5, 0.25], [1.0, 0.0], square_grid, 4,
                             box=FAMILY_GRID[:2], budget=10**6), 1, repeats=1)
    family, _ = build_family(svmap, x0, v0, grid, FAMILY_LENGTH, box=box)
    chains = []
    for x in grid:
        best = max(family.members, key=lambda member: affine_value(member, x))
        for v in svmap.eval(x).points:
            chain = best.extended(x, v)
            if verify_chain(chain)[0]:
                chains.append(chain)

    def grow_each():
        for chain in chains:
            grow_family(family, chain)

    out["potential.grow_family.us_per_call"] = _per_call_us(grow_each, len(chains))
    checks = setflow.potential._subgradient_checks
    nodes = [(x, v) for x in grid for v in svmap.eval(x).points
             if inner(x - x0, v) >= potential_value(family, x)]
    NX, NV = (np.array(column) for column in zip(*nodes))
    probes = np.array(grid)
    out["potential.query.us_per_node"] = _per_call_us(
        lambda: checks(family, NX, NV, probes, 0.0), len(nodes))
    kink9, _ = build_family(square, [0.5, 0.25], [1.0, 0.0], square_grid, 3,
                            box=FAMILY_GRID[:2])
    nodes = [(x, v) for x in square_grid for v in square.eval(x).points
             if inner(x - kink9.anchor_point, v) >= potential_value(kink9, x)]
    KX, KV = (np.array(column) for column in zip(*nodes))
    out["potential.query.kink9.us_per_node"] = _per_call_us(
        lambda: checks(kink9, KX, KV, np.array(square_grid), 0.0), len(nodes))

    points = GridSpec(*POINTS_GRID)
    out["setmaps.GridSpec.points.us_per_point"] = _per_call_us(
        points.points, int(np.prod(POINTS_GRID[2])))
    for kind, doc in MAPS.items():
        x = [-0.75, 0.3]
        text = json.dumps({"map": doc, "x0": x, "v0": map_from_dict(doc).eval(x).points[0].tolist(),
                           "T": 1.0, "h": 0.5, "strategy": "support", "tol": 1e-9,
                           "grid": KINK_GRID, "max_length": KINK_LENGTH})

        def parses(text=text):
            for _ in range(GRID_CALLS):
                parse_problem(text)

        out[f"setmaps.parse_problem.{kind}.us_per_call"] = _per_call_us(parses, GRID_CALLS)
    kink = map_from_dict(KINK)
    kink_grid = sample_grid(KINK_GRID["low"], KINK_GRID["high"], KINK_GRID["counts"])
    for classify in (classify_monotone, classify_weakly_monotone):
        out[f"chains.{classify.__name__}.us_per_call"] = _per_call_us(
            lambda: classify(kink, kink_grid), 1)
    for classify in (classify_cyclic_monotone, classify_weak_cyclic_monotone,
                     check_support_chain):
        out[f"chains.{classify.__name__}.us_per_call"] = _per_call_us(
            lambda: classify(kink, kink_grid, KINK_LENGTH), 1)
    four, four_grid = map_from_dict(FOUR_VALUED), sample_grid(*FAMILY_GRID[:2], [17, 17])
    out["chains.classify_cyclic_monotone.four17.us_per_call"] = _per_call_us(
        lambda: classify_cyclic_monotone(four, four_grid, KINK_LENGTH), 1)
    out["chains.check_support_chain.four17.us_per_call"] = _per_call_us(
        lambda: check_support_chain(four, four_grid, KINK_LENGTH, budget=WIDE_BUDGET), 1)
    out["chains.classify_cyclic_monotone.kink17.us_per_call"] = _per_call_us(
        lambda: classify_cyclic_monotone(square, four_grid, KINK_LENGTH, budget=WIDE_BUDGET), 1)
    rotation = map_from_dict(ROTATION)
    rot7 = sample_grid(*FAMILY_GRID[:2], [7, 7])

    def pairwise():
        for _ in range(GRID_CALLS):
            classify_monotone(rotation, rot7)
            classify_weakly_monotone(rotation, rot7)

    out["chains.pairwise.rot7.us_per_call"] = _per_call_us(pairwise, GRID_CALLS)
    for classify in (classify_cyclic_monotone, check_support_chain,
                     classify_weak_cyclic_monotone):
        out[f"chains.{classify.__name__}.rot9.us_per_call"] = _per_call_us(
            lambda: classify(rotation, kink_grid, ROTATION_LENGTH, budget=WIDE_BUDGET), 1)
    graph = setflow.chains._ChainGraph(rotation, rot7)
    tracemalloc.start()
    setflow.chains._classify(graph, KINK_LENGTH, 1e-9, 10**6)
    out["chains.classify.rot7.peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
    tracemalloc.stop()

    u, w = np.array([0.75, -1.25]), np.array([2.0, 0.5])
    short = node_chain.prefix(3)
    values = CompactSet(MAPS["constant"]["points"])
    constant = map_from_dict(MAPS["constant"])
    outside = np.array([3.0, 2.5])
    primitives = {
        "geometry.inner": lambda: inner(u, w),
        "chains.extension_slack": lambda: extension_slack(short, u, w),
        "chains.Chain.extended": lambda: short.extended(u, w),
        "geometry.support_argmax": lambda: support_argmax(u, values),
        "geometry.dist_to_hull": lambda: dist_to_hull(outside, values),
        "chains.extend_exhaustive": lambda: extend_exhaustive(short, u, constant),
        "chains.extend_support": lambda: extend_support(short, u, constant),
        "chains.extend_inertial": lambda: extend_inertial(short, u, constant),
        "potential.submap_select": lambda: submap_select(family, constant, u),
    }
    for name, call in primitives.items():
        def repeated(call=call):
            for _ in range(PRIMITIVE_CALLS):
                call()

        out[f"{name}.us_per_call"] = _per_call_us(repeated, PRIMITIVE_CALLS)
    work = Path(src).resolve().parent / ".bench_build"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        problem = Path(tmp) / "kink.json"
        problem.write_text(json.dumps({"map": KINK, "x0": [0.0, 0.125], "v0": [1.0, 0.0],
                                       "T": 1.0, "h": 0.5, "strategy": "support", "tol": 1e-9,
                                       "grid": KINK_GRID, "max_length": KINK_LENGTH}))
        argv = ["classify", "--input", str(problem), "--output", tmp]
        rotation9 = Path(tmp) / "rotation9.json"
        rotation9.write_text(json.dumps({"map": ROTATION, "x0": [0.0, 0.125], "v0": [-0.125, 0.0],
                                         "T": 1.0, "h": 0.5, "strategy": "support", "tol": 1e-9,
                                         "grid": KINK_GRID, "max_length": ROTATION_LENGTH}))
        with contextlib.redirect_stdout(io.StringIO()):
            out["cli.classify.us_per_op"] = _per_call_us(lambda: setflow.cli.main(argv), 1)
            os.environ[setflow.cli.BUDGET_ENV] = str(FLOOR_BUDGET)
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    out["cli.floor.us_per_op"] = _per_call_us(
                        lambda: [setflow.cli.main(argv) for _ in range(FLOOR_CALLS)], FLOOR_CALLS)
            finally:
                del os.environ[setflow.cli.BUDGET_ENV]
            os.environ[setflow.cli.BUDGET_ENV] = str(WIDE_BUDGET)
            try:
                out["cli.classify.rot9.us_per_op"] = _per_call_us(
                    lambda: setflow.cli.main(["classify", "--input", str(rotation9),
                                              "--output", str(Path(tmp) / "rotation9")]), 1)
            finally:
                del os.environ[setflow.cli.BUDGET_ENV]
            classification = json.loads((Path(tmp) / "classification.json").read_text())
            target = Path(tmp) / "written.json"

            def write_classification():
                for _ in range(WRITES):
                    setflow.cli._write_json(target, classification)

            out["cli.write_json.classification.us_per_call"] = _per_call_us(
                write_classification, WRITES)
            setflow.cli.main(["potential", *argv[1:]])
            subgradient = json.loads((Path(tmp) / "subgradient.json").read_text())

            def write_json():
                for _ in range(WRITES):
                    setflow.cli._write_json(target, subgradient)

            out["cli.write_json.subgradient.us_per_call"] = _per_call_us(write_json, WRITES)
            for name, problem in (("query", QUERY_PROBLEM), ("growth", {
                    "map": MAPS["subdifferential"], "x0": list(grid[len(grid) // 2]),
                    "v0": svmap.eval(grid[len(grid) // 2]).points[0].tolist(),
                    "grid": dict(zip(("low", "high", "counts"), FAMILY_GRID)),
                    "max_length": FAMILY_LENGTH})):
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps({**problem, "T": 1.0, "h": 0.5,
                                            "strategy": "support", "tol": 1e-9}))
                run = ["potential", "--input", str(path), "--output", tmp]
                out[f"cli.potential.{name}.us_per_op"] = _per_call_us(
                    lambda: setflow.cli.main(run), 1)
            gradient = map_from_dict(GRADIENT3)
            x0 = np.array([-0.75, 0.3, 0.5])
            traj = euler_solve(ProblemSpec(map=gradient, x0=x0, v0=gradient.eval(x0).points[0],
                                           horizon=1.0, step=1.0 / SOLVE_STEPS,
                                           strategy="support", tol=1e-9))
            table = np.column_stack([traj.times, traj.states, traj.velocities])
            header = ["t", "x0", "x1", "x2", "v0", "v1", "v2"]
            target = Path(tmp) / "written.csv"

            def write_csv(table=table):
                for _ in range(WRITES):
                    setflow.cli._write_csv(target, header, table)

            out["cli.write_csv.trajectory.us_per_call"] = _per_call_us(write_csv, WRITES)
            # a state of 1e-17, as at a zero crossing, in every 50th row
            residues = table.copy()
            residues[::50, 1] = 1e-17
            out["cli.write_csv.fallback.us_per_call"] = _per_call_us(
                lambda: write_csv(residues), WRITES)
    return out


def _run_tree(src: Path) -> dict:
    child = subprocess.run([sys.executable, __file__, "--measure", str(src)], check=True,
                           stdout=subprocess.PIPE, text=True)
    return json.loads(child.stdout)


def _least_and_spread(rows, name):
    # (least, interquartile range) over rounds
    values = [row[name] for row in rows]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return min(values), q3 - q1


def end_to_end(parent_dir: Path, change_dir: Path) -> dict:
    out = {}
    for change_file in sorted(change_dir.glob("*-trace0.json")):
        parent_file = parent_dir / change_file.name
        if not parent_file.is_file():
            continue
        a = json.loads(parent_file.read_text())
        b = json.loads(change_file.read_text())
        row = out.setdefault(b["workload"], {"seeds": [], "parent": {}, "change": {}})
        row["seeds"].append(b["seed"])
        for name, metric in b["metrics"].items():
            row["change"].setdefault(name, []).append(metric["value"])
            row["parent"].setdefault(name, []).append(a["metrics"][name]["value"])
    for row in out.values():
        names = list(row["change"])
        row["change_lower"] = {n: sum(c < p for c, p in zip(row["change"][n], row["parent"][n]))
                               for n in names}
        for side in ("parent", "change"):
            row[side] = {n: statistics.median(v) for n, v in row[side].items()}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--measure", help="measure the tree whose sources are here, print JSON")
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--rounds", type=int, default=12)
    p.add_argument("--e2e-parent", type=Path)
    p.add_argument("--e2e-change", type=Path)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if not (args.parent and args.change and args.out):
        p.error("--parent, --change and --out are required unless --measure is given")
    if args.rounds < 2:
        p.error("--rounds must be at least 2 for a spread")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows = {side: [] for side in trees}
    for k in range(args.rounds):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            rows[side].append(_run_tree(trees[side]))
    per_layer = {}
    for name in rows["change"][0]:
        figures = {side: _least_and_spread(rows[side], name) for side in rows}
        per_layer[name] = {**{side: least for side, (least, _) in figures.items()},
                           "iqr": {side: iqr for side, (_, iqr) in figures.items()}}
    doc = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "dont_write_bytecode": sys.flags.dont_write_bytecode},
        "rounds": args.rounds,
        "per_layer": per_layer,
    }
    if args.e2e_parent and args.e2e_change:
        doc["end_to_end"] = end_to_end(args.e2e_parent, args.e2e_change)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
