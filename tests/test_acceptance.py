"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; plain
``pytest`` still enforces every assertion. Each criterion pins its own
tolerances and runtime budget and builds its own rng, so the verdicts do
not depend on test ordering.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from setflow import (
    Chain,
    PLConvexFunction,
    ProblemSpec,
    SequenceFamily,
    build_family,
    check_support_chain,
    classify_cyclic_monotone,
    classify_monotone,
    classify_weak_cyclic_monotone,
    classify_weakly_monotone,
    constant_map,
    euler_solve,
    extend_support,
    grow_family,
    inner,
    pl_subdifferential_map,
    potential_value,
    refine_study,
    replay_witness,
    sample_grid,
    subgradient_test,
    submap_contains,
    trajectory_cm_check,
    trajectory_residual,
    verify_chain,
)

from conftest import build_corpus, child_env
from oracles import first_chain_violation_exact, random_cm_chain, random_lattice_chain


def report(num, label, ok, elapsed=None):
    mark = "PASS" if ok else "FAIL"
    tail = "" if elapsed is None else f"  ({elapsed:.2f}s)"
    print(f"criterion {num:>2} {label:<44} {mark}{tail}", flush=True)


# the two step-sensitive integration problems used by criteria 10 and 11:
# each crosses its kink at t = 0.123, strictly between grid nodes for every
# step count below, so halving the step halves the crossing overshoot
KINK_1D = PLConvexFunction([[1.0], [3.0]], [0.0, -0.246])
KINK_2D = PLConvexFunction([[1.0, 0.0], [2.0, -1.0]], [0.0, 0.0])


def _problem(f, x0, v0, T=1.0, h=0.01, strategy="inertial"):
    return ProblemSpec(
        map=pl_subdifferential_map(f), x0=np.array(x0), v0=np.array(v0),
        horizon=T, step=h, strategy=strategy, tol=1e-9,
    ).validated()


def test_criterion_01_chain_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    agree = 0
    for k in range(1000):
        dim = int(rng.integers(1, 4))
        pairs = int(rng.integers(1, 7))
        if k % 10 < 7:
            xs, vs = random_lattice_chain(rng, dim, pairs)
        else:
            xs, vs = random_cm_chain(rng, dim, pairs)
        ok, bad = verify_chain(Chain(xs, vs), tol=0.0)
        want = first_chain_violation_exact(xs, vs)
        assert ok == (want is None) and bad == want, (xs, vs)
        agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree == 1000 and elapsed < 5.0
    report(1, "chain verdicts match exact arithmetic", ok, elapsed)
    assert ok


def test_criterion_02_prefix_closedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2007)
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        pairs = int(rng.integers(1, 7))
        xs, vs = random_cm_chain(rng, dim, pairs)
        chain = Chain(xs, vs)
        assert verify_chain(chain, tol=0.0)[0]
        for count in range(1, pairs + 1):
            assert verify_chain(chain.prefix(count), tol=0.0)[0]
            assert verify_chain(Chain(xs[:count], vs[:count]), tol=0.0)[0]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(2, "every prefix of a verified chain verifies", ok, elapsed)
    assert ok


def test_criterion_03_two_value_constant_classification():
    t0 = time.perf_counter()
    F = constant_map([[-1.0], [1.0]])
    grid = sample_grid([-1.0], [1.0], [3])
    wcm = classify_weak_cyclic_monotone(F, grid, max_length=3, tol=0.0)
    cyc = classify_cyclic_monotone(F, grid, max_length=2, tol=0.0)
    replays = (not cyc.holds) and replay_witness(F, cyc)
    elapsed = time.perf_counter() - t0
    ok = wcm.holds and not cyc.holds and replays and elapsed < 10.0
    report(3, "two-value constant: weak-cyclic only", ok, elapsed)
    assert ok


def test_criterion_04_class_hierarchy_over_corpus():
    t0 = time.perf_counter()
    verdicts = {}
    ok = True
    for entry in build_corpus():
        mono = classify_monotone(entry.svmap, entry.grid, tol=0.0)
        weak = classify_weakly_monotone(entry.svmap, entry.grid, tol=0.0)
        cyc = classify_cyclic_monotone(entry.svmap, entry.grid, max_length=2, tol=0.0)
        wcm = classify_weak_cyclic_monotone(entry.svmap, entry.grid, max_length=2, tol=0.0)
        verdicts[entry.name] = (mono.holds, weak.holds, cyc.holds, wcm.holds)
        expected = (entry.monotone, entry.weakly_monotone,
                    entry.cyclic_monotone, entry.weak_cyclic_monotone)
        ok = ok and verdicts[entry.name] == expected
        # hierarchy: cyclic => weak-cyclic => weakly monotone; monotone => weakly
        ok = ok and (not cyc.holds or wcm.holds)
        ok = ok and (not wcm.holds or weak.holds)
        ok = ok and (not mono.holds or weak.holds)
        if entry.name == "quarter_turn":
            ok = ok and mono.holds and not cyc.holds
            ok = ok and len(cyc.witness["points"]) == 3
            ok = ok and replay_witness(entry.svmap, cyc)
        for rep in (mono, weak, cyc, wcm):
            if not rep.holds:
                ok = ok and replay_witness(entry.svmap, rep)
    assert len(verdicts) >= 8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, "hierarchy verdicts across the map corpus", ok, elapsed)
    assert ok, verdicts


def test_criterion_05_pivot_rule_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5007)
    built = 0
    while built < 1000:
        dim = int(rng.integers(1, 4))
        pairs = int(rng.integers(1, 6))
        xs, vs = random_cm_chain(rng, dim, pairs)
        chain = Chain(xs, vs)
        x_next = rng.integers(-3, 4, size=dim).astype(float)
        v = rng.integers(-3, 4, size=dim).astype(float)
        # the pivot inequality against the anchored direction, exact on ints
        if inner(x_next - chain.anchor_point, v - chain.last_velocity) < 0.0:
            continue
        appended = chain.extended(x_next, v)
        assert verify_chain(appended, tol=0.0)[0], (xs, vs, x_next, v)
        built += 1
    elapsed = time.perf_counter() - t0
    ok = built == 1000 and elapsed < 10.0
    report(5, "pivot-aligned appends always verify", ok, elapsed)
    assert ok


def test_criterion_06_support_selection_under_chain_condition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6007)
    corpus = [e for e in build_corpus() if e.support_chain]
    assert len(corpus) >= 5
    extensions = 0
    for entry in corpus:
        grid = entry.grid
        # the support-function chain condition must hold on every sequence
        # of 2 or 3 grid points
        assert check_support_chain(entry.svmap, grid, max_length=2, tol=0.0).holds, entry.name
        # then support-argmax extension can never break a chain
        for _ in range(400):
            start = grid[int(rng.integers(len(grid)))]
            values = entry.svmap.eval(start)
            chain = Chain([start], [values.points[0]])
            for _ in range(5):
                nxt = grid[int(rng.integers(len(grid)))]
                v = extend_support(chain, nxt, entry.svmap)
                chain = chain.extended(nxt, v)
                extensions += 1
                assert verify_chain(chain, tol=0.0)[0], (entry.name, chain.xs)
    elapsed = time.perf_counter() - t0
    ok = extensions >= 10000 and elapsed < 60.0
    report(6, f"{extensions} support extensions, zero failures", ok, elapsed)
    assert ok


def _family_anchors(entry):
    grid = entry.grid
    for x0 in (grid[0], grid[-1]):
        v0 = entry.svmap.eval(x0).points[0]
        yield np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)


def _box(entry):
    pts = np.asarray(entry.grid, dtype=float)
    return pts.min(axis=0), pts.max(axis=0)


def test_criterion_07_potential_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7007)
    corpus = [e for e in build_corpus() if e.cyclic_monotone]
    ok = True
    pair_checks = 0
    grows = 0
    for entry in corpus:
        low, high = _box(entry)
        for x0, v0 in _family_anchors(entry):
            fam, _ = build_family(entry.svmap, x0, v0, entry.grid, 2,
                                  box=(low, high))
            # anchor value is exactly zero, not merely small
            ok = ok and potential_value(fam, x0) == 0.0
            for _ in range(90):
                x = rng.uniform(low, high)
                y = rng.uniform(low, high)
                mid = (x + y) / 2.0
                slack = (potential_value(fam, x) + potential_value(fam, y)) / 2.0 \
                    - potential_value(fam, mid)
                ok = ok and slack >= -1e-9
                pair_checks += 1
    # growth monotonicity: growing the family never lowers the model
    entry = next(e for e in corpus if e.pl_function is not None)
    low, high = _box(entry)
    x0 = np.zeros(entry.svmap.dimension)
    v0 = entry.svmap.eval(x0).points[0]
    for boxed in (False, True):
        fam = SequenceFamily.initial(x0, v0, box=(low, high) if boxed else None)
        for _ in range(50):
            chain = Chain([x0], [v0])
            for _ in range(int(rng.integers(1, 4))):
                nxt = entry.grid[int(rng.integers(len(entry.grid)))]
                chain = chain.extended(nxt, extend_support(chain, nxt, entry.svmap))
            before = fam
            fam = grow_family(fam, chain)
            grows += 1
            for _ in range(50):
                p = rng.uniform(low, high)
                gap = potential_value(fam, p) - potential_value(before, p)
                ok = ok and (gap >= 0.0 if not boxed else gap >= -1e-9)
    elapsed = time.perf_counter() - t0
    ok = ok and pair_checks >= 1000 and grows >= 100
    report(7, "potential: convex, zero anchor, monotone growth", ok, elapsed)
    assert ok


def test_criterion_08_submap_subgradient_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8007)
    accepted = 0
    ok = True
    for entry in build_corpus():
        if not entry.cyclic_monotone:
            continue
        dim = entry.svmap.dimension
        fine = sample_grid(*_box(entry), [101] if dim == 1 else [13, 13])
        low, high = _box(entry)
        for x0, v0 in _family_anchors(entry):
            fam, _ = build_family(entry.svmap, x0, v0, fine, 2,
                                  box=(low, high), tol=1e-9)
            probes = [rng.uniform(low, high) for _ in range(25)]
            for x in fine:
                for v in entry.svmap.eval(x).points:
                    if not submap_contains(fam, entry.svmap, x, v, tol=1e-9):
                        continue
                    accepted += 1
                    ok = ok and subgradient_test(fam, x, v, probes, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = ok and accepted >= 1000
    report(8, f"{accepted} accepted pairs act as subgradients", ok, elapsed)
    assert ok


def test_criterion_09_solver_exactness_on_forced_cases():
    t0 = time.perf_counter()
    # constant map with a dyadic step: every float operation is exact
    F = constant_map([[1.0, -2.0]])
    spec = ProblemSpec(map=F, x0=np.array([0.5, 0.5]), v0=np.array([1.0, -2.0]),
                       horizon=1.0, step=0.0078125, strategy="inertial",
                       tol=1e-9).validated()
    traj = euler_solve(spec)
    want = spec.x0[None, :] + traj.times[:, None] * spec.v0[None, :]
    err = float(np.max(np.abs(traj.states - want)))
    ok = err < 1e-12
    ok = ok and trajectory_cm_check(traj, tol=0.0)
    ok = ok and trajectory_residual(traj, F) == (0.0, 0.0)

    # one-dimensional switch map from the origin: states equal the node times
    from conftest import make_sign_map
    S = make_sign_map()
    spec2 = ProblemSpec(map=S, x0=np.array([0.0]), v0=np.array([1.0]),
                        horizon=1.0, step=0.01, strategy="inertial",
                        tol=1e-9).validated()
    traj2 = euler_solve(spec2)
    ok = ok and np.array_equal(traj2.states[:, 0], traj2.times)
    ok = ok and trajectory_cm_check(traj2, tol=0.0)
    ok = ok and trajectory_residual(traj2, S) == (0.0, 0.0)
    elapsed = time.perf_counter() - t0
    report(9, "forced trajectories are float-exact", ok, elapsed)
    assert ok


def _growth_runs():
    corpus = [e for e in build_corpus() if e.pl_function is not None]
    for entry in corpus:
        for x0 in entry.grid:
            v0 = entry.svmap.eval(x0).points[0]
            yield entry.pl_function, _problem(
                entry.pl_function, np.asarray(x0, dtype=float), v0)
    yield KINK_1D, _problem(KINK_1D, [0.0], [1.0])
    yield KINK_2D, _problem(KINK_2D, [0.0, 0.123], [1.0, 0.0])


def test_criterion_10_growth_along_subdifferential_flows():
    t0 = time.perf_counter()
    steps = 0
    ok = True
    for f, spec in _growth_runs():
        traj = euler_solve(spec)
        for k in range(traj.node_count() - 1):
            dt = traj.times[k + 1] - traj.times[k]
            vk = traj.velocities[k]
            lhs = f.value(traj.states[k + 1])
            rhs = f.value(traj.states[k]) + dt * inner(vk, vk)
            ok = ok and lhs >= rhs - 1e-9
            steps += 1
    elapsed = time.perf_counter() - t0
    ok = ok and steps >= 1000
    report(10, f"f grows by at least h|v|^2 over {steps} steps", ok, elapsed)
    assert ok


def test_criterion_11_refinement_distances_shrink():
    t0 = time.perf_counter()
    ok = True
    for f, x0, v0 in (
        (KINK_1D, [0.0], [1.0]),
        (KINK_2D, [0.0, 0.123], [1.0, 0.0]),
    ):
        spec = _problem(f, x0, v0, h=0.04)
        rows = refine_study(spec, [25, 50, 100, 200])
        dists = [r.sup_distance for r in rows[1:]]
        print(f"    refinement {len(x0)}d sup-distances: "
              + ", ".join(f"{d:.6f}" for d in dists), flush=True)
        ok = ok and all(r.chain_ok for r in rows)
        ok = ok and all(d > 0 for d in dists)
        ok = ok and all(b < a for a, b in zip(dists, dists[1:]))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(11, "halved steps shrink polygon distances", ok, elapsed)
    assert ok


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    problem = {
        "map": {"kind": "subdifferential",
                "slopes": [[1.0], [-1.0]], "offsets": [0.0, 0.0]},
        "x0": [0.5], "v0": [1.0], "T": 1.0, "h": 0.01,
        "strategy": "inertial", "tol": 1e-9,
        "grid": {"low": [-1.0], "high": [1.0], "counts": [5]},
        "steps": [10, 20, 40],
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem, indent=2) + "\n")
    env = child_env()
    outs = []
    logs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        stdout = b""
        for cmd in ("solve", "classify", "potential", "refine"):
            proc = subprocess.run(
                [sys.executable, "-m", "setflow", cmd,
                 "--input", str(src), "--output", str(out)],
                capture_output=True, cwd=tmp_path, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            stdout += proc.stdout
        outs.append(out)
        logs.append(stdout)
    ok = logs[0] == logs[1] and logs[0] != b""
    names = sorted(p.name for p in outs[0].iterdir())
    ok = ok and names == [
        "classification.json", "family.json", "potential_summary.json",
        "potential_values.csv", "refinement.csv", "subgradient.json",
        "summary.json", "trajectory.csv",
    ]
    ok = ok and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        ok = ok and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    elapsed = time.perf_counter() - t0
    report(12, "two identical CLI runs, byte-identical", ok, elapsed)
    assert ok
