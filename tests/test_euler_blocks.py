"""Coasting blocks in ``euler_solve`` against the per-step loop they replace.

Every case must end as ``euler_solve_ref`` ends: the same times, states and
velocities bit for bit, or the same exception type and message with the same
``SelectionFailed`` replay document.
"""

import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import (
    Always,
    Box,
    CompactSet,
    Halfspace,
    PLConvexFunction,
    ProblemSpec,
    SelectionFailed,
    SetValuedMap,
    UncoveredPointError,
    constant_map,
    euler_solve,
    linear_map,
    parse_problem,
    pl_subdifferential_map,
    table_map,
)
from setflow import solver
from setflow.cli import DEFAULT_STEP_COUNTS
from setflow.geometry import inner_rows

from conftest import bits, dyadic, signed_zeros
from oracles import euler_solve_ref

STRATEGIES = ["exhaustive", "support", "inertial"]


def outcome(solve, spec):
    try:
        traj = solve(spec)
    except Exception as exc:
        replay = exc.to_json_dict() if isinstance(exc, SelectionFailed) else None
        return type(exc), str(exc), json.dumps(replay)
    return tuple((a.shape, a.tobytes()) for a in (traj.times, traj.states, traj.velocities))


def assert_as_per_step(spec):
    got = outcome(euler_solve, spec)
    assert got == outcome(euler_solve_ref, spec)
    return got


def _spec(svmap, x0, v0, T=1.0, h=1 / 64, strategy="exhaustive", tol=0.0):
    # never validated, so the cases below may also break its invariants
    return ProblemSpec(map=svmap, x0=np.array(x0, dtype=float), v0=np.array(v0, dtype=float),
                       horizon=T, step=h, strategy=strategy, tol=tol)


class _Counted:
    """A map evaluator that counts its point and block evaluations."""

    def __init__(self, svmap):
        self.svmap = svmap
        self.calls = 0
        self.blocks = 0

    def __call__(self, x):
        self.calls += 1
        return self.svmap.eval(x)

    def many(self, X):
        self.blocks += 1
        return self.svmap.eval_many(X)


def _counted(svmap):
    evaluator = _Counted(svmap)
    return SetValuedMap(svmap.dimension, evaluator), evaluator


def _at_each_block_min(test):
    # runs the test at the default first block of a coasting run, then at 8
    # steps, whose doubling blocks (nodes 2-9, 10-25, 26-57, 58-121, ...) the
    # cases below were first placed in; what the test patches is undone
    # between the two runs
    @functools.wraps(test)
    def run(*args, **kwargs):
        for block_min in (solver._BLOCK_MIN, 8):
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(solver, "_BLOCK_MIN", block_min)
                test(*args, **kwargs)
            if "monkeypatch" in kwargs:
                kwargs["monkeypatch"].undo()

    return run


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_block_that_raises_halves_the_next(strategy):
    # (1, 0) coasts from x0 = 0 to the line x1 + x2 = 1 at node 1024, where
    # (2, 1) is the other value, and only (2, 1) is left past it; the node
    # after the turn to (2, 1) lies past x1 = 1 + h below x2 = 0.001, which
    # no region covers
    edge = 1 + 1 / 1024
    svmap, evaluator = _counted(table_map([
        (Halfspace([1.0, 1.0], 1.0, "lt"), [[1.0, 0.0]]),
        (Halfspace([1.0, 1.0], 1.0, "eq"), [[1.0, 0.0], [2.0, 1.0]]),
        (Box([-math.inf, -math.inf], [edge, math.inf]), [[2.0, 1.0]]),
        (Box([edge, 0.001], [math.inf, math.inf]), [[2.0, 1.0]])]))
    spec = _spec(svmap, [0.0, 0.0], [1.0, 0.0], T=1.5, h=1 / 1024, strategy=strategy)
    kind, message, _ = assert_as_per_step(spec)
    assert kind is UncoveredPointError and "0.0009765625" in message
    raised = []
    many = evaluator.many

    def counting(X):
        try:
            return many(X)
        except UncoveredPointError:
            raised.append(len(X))
            raise

    evaluator.many = counting
    with pytest.raises(UncoveredPointError):
        euler_solve(spec)
    # the block of nodes 770-1536 raises, and after one node selected alone
    # the next holds half its steps; a block that stops short of the
    # uncovered node doubles the next as before.  Had each block after one
    # that raised been the first of a run, 256 steps, one would raise for
    # every node from 770 to 1023
    assert raised[:2] == [767, 383]
    assert len(raised) <= 12


def _guessed(monkeypatch, spec):
    # the node ranges (first, last) of the blocks one euler_solve guesses, in
    # order, from counting the nodes that _select and _coast take
    blocks = []
    k = 0
    select, coast = solver._select, solver._coast

    def on_select(*args):
        nonlocal k
        k += 1
        return select(*args)

    def on_coast(tip, svmap, deltas, *rest):
        nonlocal k
        out = coast(tip, svmap, deltas, *rest)
        blocks.append((k + 1, k + len(deltas)))
        k += out[0]
        return out

    with monkeypatch.context() as patched:
        patched.setattr(solver, "_select", on_select)
        patched.setattr(solver, "_coast", on_coast)
        try:
            euler_solve(spec)
        except Exception:
            pass
    return blocks


def _inside(blocks, node):
    # whether a guessed block holds the node past its first one
    return any(first < node <= last for first, last in blocks)


def _random_map(rng, kind, dim):
    if kind == "constant":
        return constant_map(dyadic(rng, (int(rng.integers(1, 4)), dim)))
    if kind == "dominant":
        # one longest value a with <a, b> < |a|^2 for up to 7 others b,
        # duplicates and signed-zero twins included: every rule keeps a
        a = np.concatenate([[2.0 * rng.choice([-1.0, 1.0])], dyadic(rng, dim - 1, span=1, den=1)])
        others = dyadic(rng, (int(rng.integers(0, 8)), dim), span=1, den=4)
        points = np.vstack([others[inner_rows(others, a) < inner_rows(a, a)], a])
        return constant_map(signed_zeros(rng, rng.permutation(points)))
    if kind == "subdifferential":
        pieces = int(rng.integers(1, 4))
        return pl_subdifferential_map(
            PLConvexFunction(dyadic(rng, (pieces, dim)), dyadic(rng, pieces, den=4)))
    if kind == "linear":
        # the gradient of a quadratic form, singular now and then
        m = dyadic(rng, (dim, dim), span=1)
        return linear_map((m + m.T) / 2)
    regions = []
    for _ in range(int(rng.integers(1, 4))):
        normal = dyadic(rng, dim, span=1, den=1)
        op = ["lt", "le", "eq", "ge", "gt"][int(rng.integers(5))]
        regions.append((Halfspace(normal, float(dyadic(rng, (), den=4)), op),
                        dyadic(rng, (int(rng.integers(1, 3)), dim))))
    regions.append((Always(), dyadic(rng, (int(rng.integers(1, 3)), dim))))
    return table_map(regions)


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["constant", "dominant", "subdifferential", "linear", "table"]),
       dim=st.integers(1, 3), strategy=st.sampled_from(STRATEGIES),
       tol=st.sampled_from([0.0, 0.25]), steps=st.sampled_from([16, 100, 256]),
       block_min=st.sampled_from([1, 8, solver._BLOCK_MIN]))
@settings(max_examples=200, deadline=None)
def test_random_dyadic_maps_solve_as_per_step(seed, kind, dim, strategy, tol, steps, block_min):
    # first blocks of 1 and 8 steps reach doubled blocks within 256 steps,
    # which the default first block does not
    rng = np.random.default_rng(seed)
    svmap = _random_map(rng, kind, dim)
    x0 = dyadic(rng, dim, span=1, den=4)
    values = svmap.eval(x0).points
    longest = int(inner_rows(values, values).argmax())
    v0 = values[longest if kind == "dominant" else int(rng.integers(len(values)))]
    spec = _spec(svmap, x0, v0, T=2.0, h=2.0 / steps, strategy=strategy, tol=tol)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(solver, "_BLOCK_MIN", block_min)
        assert_as_per_step(spec)


def test_a_long_coasting_run_is_taken_in_blocks():
    svmap, evaluator = _counted(constant_map([[1.0, -0.5]]))
    spec = _spec(svmap, [0.0, 0.0], [1.0, -0.5], h=1 / 4096)
    assert_as_per_step(spec)
    evaluator.calls = evaluator.blocks = 0
    assert euler_solve(spec).node_count() == 4097
    # one check of v0, then node 1's pick, which repeats v0 and so starts
    # the blocks without a further evaluation
    assert evaluator.calls == 2
    # blocks of 256, 512, then 1024 three times and the last 255 steps
    assert evaluator.blocks == 6


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_velocity_that_turns_at_every_node_never_starts_a_block(strategy):
    # a singleton everywhere, but never the previous velocity: guessing
    # blocks here would break every one at its first node
    svmap, evaluator = _counted(linear_map([[1.0, 0.0], [0.0, 2.0]]))
    spec = _spec(svmap, [0.5, 0.25], [0.5, 0.5], h=1 / 256, strategy=strategy)
    assert_as_per_step(spec)
    assert evaluator.blocks == 0
    assert euler_solve(spec).node_count() == 257


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("value, h, fails_at", [([1 / 3, 0.1], 0.01, 73),
                                                ([0.7, 0.1, 0.3], 0.01, 27)])
@_at_each_block_min
def test_slack_below_tol_in_the_middle_of_a_block(monkeypatch, strategy, value, h, fails_at):
    # the exact slack stays 0 along a coasting run; at tol 0 rounding drops
    # it below 0 inside the block of nodes 2-100 (at a first block of 8, the
    # blocks of nodes 58-100 and 26-57)
    spec = _spec(constant_map([value]), [0.1] * len(value), value, h=h, strategy=strategy)
    kind, _, replay = assert_as_per_step(spec)
    assert kind is SelectionFailed
    assert json.loads(replay)["step_index"] == fails_at
    assert _inside(_guessed(monkeypatch, spec), fails_at)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_negative_zero_value_after_a_positive_zero_velocity(strategy):
    # -0.0 == 0.0, so only the bits tell the region x >= 0.5 from the first
    svmap = table_map([(Halfspace([1.0, 0.0], 0.5, "lt"), [[1.0, 0.0]]),
                       (Always(), [[1.0, -0.0]])])
    assert_as_per_step(_spec(svmap, [0.0, 0.0], [1.0, 0.0], strategy=strategy))
    velocities = euler_solve(_spec(svmap, [0.0, 0.0], [1.0, 0.0], strategy=strategy)).velocities
    assert np.signbit(velocities[-1, 1]) and not np.signbit(velocities[1, 1])


@pytest.mark.parametrize("strategy, turns", [("exhaustive", True), ("support", True),
                                             ("inertial", False)])
@_at_each_block_min
def test_a_two_valued_node_inside_a_block(monkeypatch, strategy, turns):
    # node 32 at x = 0.5, inside the block of nodes 2-64 (26-57 at a first
    # block of 8), holds the coasting velocity as its first value; only the
    # inertial rule keeps it, and the others turn to 2 and find no velocity
    # at the next node
    svmap = table_map([(Halfspace([1.0], 0.5, "eq"), [[1.0], [2.0]]), (Always(), [[1.0]])])
    spec = _spec(svmap, [0.0], [1.0], strategy=strategy)
    got = assert_as_per_step(spec)
    assert _inside(_guessed(monkeypatch, spec), 32)
    if turns:
        replay = json.loads(got[2])
        assert (got[0], replay["step_index"]) == (SelectionFailed, 33)
        assert replay["chain"]["velocities"][32] == [2.0]
    else:
        assert got[0][0] == (65,)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_evaluator_without_many(strategy):
    def sign(x):
        if x[0] < 0.25:
            return CompactSet([[1.0]])
        if x[0] == 0.25:
            return CompactSet([[1.0], [-1.0]])
        return CompactSet([[-1.0]])

    svmap = SetValuedMap(1, sign)
    for x0, v0 in [(0.0, 1.0), (0.5, -1.0), (-1.0, 1.0)]:
        assert_as_per_step(_spec(svmap, [x0], [v0], T=2.0, strategy=strategy))


@pytest.mark.parametrize("strategy", STRATEGIES)
@_at_each_block_min
def test_an_uncovered_table_point_in_the_middle_of_a_block(monkeypatch, strategy):
    svmap = table_map([(Box([-1.0], [0.7]), [[1.0]])])
    # the first node past 0.7 is node 45, inside the block of nodes 2-64
    # (26-57 at a first block of 8), which raises; the blocks after it are
    # halved until the per-step path reaches node 45
    spec = _spec(svmap, [0.0], [1.0], strategy=strategy)
    kind, message, _ = assert_as_per_step(spec)
    assert kind is UncoveredPointError
    assert "0.703125" in message
    blocks = _guessed(monkeypatch, spec)
    assert blocks[0] == ((2, 9) if solver._BLOCK_MIN == 8 else (2, 64))
    assert blocks[-1] == (45, 49 if solver._BLOCK_MIN == 8 else 47)


OVERFLOW = {"map": {"kind": "constant", "points": [[2.0], [-2.0]]}, "x0": [0.0], "v0": [2.0],
            "T": 1e308, "h": 1e308, "strategy": "exhaustive", "tol": 1e-9}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("points", [[[2.0], [-2.0]], [[2.0]]])
def test_overflow_documents(strategy, points):
    doc = dict(OVERFLOW, strategy=strategy, map={"kind": "constant", "points": points})
    spec = parse_problem(json.dumps(doc))
    kind, message, _ = assert_as_per_step(spec)
    assert (kind, message) == (ValueError, "Euler node 1 (t=1e+308) is not finite")
    # refine at its default steps: the chain terms leave the float range
    # inside a block when the map has the one value
    refine = [replace(spec, step=spec.horizon / steps) for steps in DEFAULT_STEP_COUNTS]
    for run in refine + [replace(spec, horizon=8.8e307, step=4e306)]:
        kind, message, _ = assert_as_per_step(run)
        assert kind is ValueError and "leaves the float range" in message


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_specs_that_were_never_validated(strategy):
    # from x0 = 0 the velocity turns from 1 to 2 with slack h / 2 = 0.5 and
    # coasts on with that slack: tol -0.5 takes it, tol -0.75 does not
    up = table_map([(Halfspace([1.0], 0.125, "lt"), [[1.0]]), (Always(), [[2.0]])])
    # from 2 to 1 the slack is -h: only a NaN tol accepts it
    down = table_map([(Halfspace([1.0], 0.125, "lt"), [[2.0]]), (Always(), [[1.0]])])
    cases = [
        (_spec(up, [0.0], [1.0], h=0.5, T=64.0, strategy=strategy, tol=-0.5), None),
        (_spec(up, [0.0], [1.0], h=0.5, T=64.0, strategy=strategy, tol=-0.75), SelectionFailed),
        (_spec(down, [0.0], [2.0], strategy=strategy, tol=math.nan), None),
        (_spec(down, [0.0], [2.0], strategy=strategy, tol=0.0), SelectionFailed),
        (_spec(up, [0.0], [1.0], strategy="bogus"), ValueError),
    ]
    for spec, error in cases:
        got = assert_as_per_step(spec)
        assert (got[0] if isinstance(got[0], type) else None) is error


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("x0, T, h, node", [(1.55e308, 4e307, 2e307, 2),
                                            (1.7e308, 1e307, 1e304, 977)])
@_at_each_block_min
def test_a_node_past_the_largest_float_inside_a_block(monkeypatch, strategy, x0, T, h, node):
    # the chain terms stay finite; the node leaves the float range in the
    # block of node 2 alone, or inside the block of nodes 770-1000 (506-1000
    # at a first block of 8)
    spec = _spec(constant_map([[1.0]]), [x0], [1.0], T=T, h=h, strategy=strategy)
    kind, message, _ = assert_as_per_step(spec)
    assert kind is ValueError
    assert message.startswith(f"Euler node {node} ") and message.endswith("is not finite")
    blocks = _guessed(monkeypatch, spec)
    assert (2, 2) in blocks if node == 2 else _inside(blocks, node)


def _solved_alone(spec, evaluator):
    # the block evaluations and point evaluations of one euler_solve
    evaluator.calls = evaluator.blocks = 0
    traj = euler_solve(spec)
    return traj, evaluator.calls, evaluator.blocks


def _turns(traj):
    # the nodes whose velocity differs from the last one, bit for bit
    return [k for k in range(1, traj.node_count())
            if bits(traj.velocities[k]) != bits(traj.velocities[k - 1])]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_dominant_value_among_eight_coasts_in_blocks(strategy):
    # <a, b> < |a|^2 for every other value b, so every rule keeps a: the
    # shape of a constant map whose one longest value carries the flow
    a = [2.0, -1.0]
    others = [[1.25, -0.5], [-1.0, 1.0], [0.0, 0.0], [0.5, 1.25], [-1.25, -1.25],
              [1.0, 0.75], [0.25, -1.0]]
    svmap, evaluator = _counted(constant_map(others[:3] + [a] + others[3:]))
    spec = _spec(svmap, [0.25, -0.5], a, h=1 / 4096, strategy=strategy)
    assert_as_per_step(spec)
    traj, calls, blocks = _solved_alone(spec, evaluator)
    assert traj.node_count() == 4097 and (traj.velocities == a).all()
    # the check of v0 and node 1's pick, then the blocks of the one-value run:
    # 256, 512, 1024 three times and the last 255 steps
    assert (calls, blocks) == (2, 6)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("points, v0", [
    # an exact duplicate of v ahead of it, and behind it
    ([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.5]], [1.0, 0.0]),
    # a signed-zero twin after v: ties in every score and in the order of
    # points, so the first row, v itself, is kept
    ([[1.0, 0.0], [1.0, -0.0], [-1.0, 0.5]], [1.0, 0.0]),
    # the twin first: node 1 turns to it, bit for bit, and coasts with it
    ([[1.0, -0.0], [-1.0, 0.5], [1.0, 0.0]], [1.0, 0.0]),
    ([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.5, -1.0]], [-0.0, 1.0]),
])
def test_duplicates_and_signed_zero_twins_of_the_velocity(strategy, points, v0):
    svmap, evaluator = _counted(constant_map(points))
    spec = _spec(svmap, [0.0, 0.0], v0, strategy=strategy)
    assert_as_per_step(spec)
    traj, _, blocks = _solved_alone(spec, evaluator)
    assert blocks > 0
    first = [k for k, row in enumerate(points) if row == traj.velocities[1].tolist()]
    assert bits(traj.velocities[-1]) == bits(points[first[0]])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("points, v0", [
    # along v = (1, 0), (1, 1) scores as v does under every slack and
    # support product: the lexicographic rule keeps v
    ([[1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0]),
    # and (1, -1) comes first in that order, so node 1 turns to it
    ([[1.0, 0.0], [1.0, -1.0]], [1.0, 0.0]),
    # ties on the first two coordinates, decided by the third
    ([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]], [1.0, 0.0, 0.0]),
    # v = (1, 1), node 1's pick, ties (0, 2.125) at node 6 alone, inside the
    # block of nodes 3-64 (3-10 at a first block of 8): the later row comes
    # first in that order
    ([[1.0, 1.0], [0.0, 2.125], [0.625, 0.0]], [0.625, 0.0]),
])
@_at_each_block_min
def test_equal_scores_go_by_the_lexicographic_rule(strategy, points, v0):
    svmap, evaluator = _counted(constant_map(points))
    spec = _spec(svmap, [0.0] * len(v0), v0, strategy=strategy)
    assert_as_per_step(spec)
    assert _solved_alone(spec, evaluator)[2] > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
@_at_each_block_min
def test_a_block_that_starts_where_a_twin_comes_first(monkeypatch, strategy):
    # the block of nodes 258-512 (26-57 at a first block of 8) starts at
    # x = node / 64, where the twin (1, -0.0) comes before v = (1, 0.0):
    # every rule takes the twin there
    node = 26 if solver._BLOCK_MIN == 8 else 258
    svmap = table_map([(Halfspace([1.0, 0.0], node / 64, "lt"), [[1.0, 0.0]]),
                       (Always(), [[1.0, -0.0], [1.0, 0.0]])])
    spec = _spec(svmap, [0.0, 0.0], [1.0, 0.0], T=8.0, strategy=strategy)
    assert_as_per_step(spec)
    assert node in [first for first, _ in _guessed(monkeypatch, spec)]


@pytest.mark.parametrize("strategy", STRATEGIES)
@_at_each_block_min
def test_a_pick_that_turns_inside_a_block(monkeypatch, strategy):
    # from v0 = (0, 1) the anchored direction turns toward v = (1, 2), node 1's
    # pick, until (5.5, 0) overtakes it at node 6, inside the block of nodes
    # 3-64 (3-10 at a first block of 8); the inertial rule keeps v0
    svmap, evaluator = _counted(constant_map([[0.0, 1.0], [1.0, 2.0], [5.5, 0.0]]))
    spec = _spec(svmap, [0.0, 0.0], [0.0, 1.0], strategy=strategy)
    assert_as_per_step(spec)
    traj, _, blocks = _solved_alone(spec, evaluator)
    assert blocks > 0
    assert _turns(traj) == ([] if strategy == "inertial" else [1, 6])
    assert strategy == "inertial" or _inside(_guessed(monkeypatch, spec), 6)


def _fallback_case(strategy, case):
    # a counted map, a spec and the first nodes where the velocity turns
    if case == "slack":
        # the singleton of test_slack_below_tol_in_the_middle_of_a_block plus
        # a value with a larger slack: the inertial rule keeps v until its
        # slack drops below 0 at node 73, inside the block of nodes 2-100
        # (58-100 at a first block of 8), where the exhaustive fallback
        # turns; the other rules turn at node 1
        svmap, evaluator = _counted(constant_map([[1 / 3, 0.1], [0.5, 0.1]]))
        spec = _spec(svmap, [0.1, 0.1], [1 / 3, 0.1], h=0.01, strategy=strategy)
        return evaluator, spec, [73] if strategy == "inertial" else [1]
    # at a negative tol v is never aligned with itself, so from node 2 the
    # inertial rule falls back to the exhaustive scan, which keeps v = (1, 1)
    # until u = (2.125, 0) gains h / 8 on it at node 7, inside the block of
    # nodes 3-16 (3-10 at a first block of 8) of the other rules; u is first
    # aligned only at node 8.  Every rule turns there.
    svmap, evaluator = _counted(table_map([
        (Halfspace([0.0, 1.0], 0.0, "eq"), [[0.0, 0.625]]),
        (Always(), [[1.0, 1.0], [2.125, 0.0]])]))
    spec = _spec(svmap, [0.0, 0.0], [0.0, 0.625], h=1 / 16, strategy=strategy, tol=-3 / 256)
    return evaluator, spec, [1, 7]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case", ["slack", "aligned"])
@_at_each_block_min
def test_a_fallback_that_turns_inside_a_block(monkeypatch, strategy, case):
    evaluator, spec, expected = _fallback_case(strategy, case)
    assert_as_per_step(spec)
    traj, _, blocks = _solved_alone(spec, evaluator)
    # the inertial rule never keeps v at a negative tol, and a pick of the
    # fallback starts no block
    assert (blocks == 0) == (case == "aligned" and strategy == "inertial")
    assert _turns(traj)[:len(expected)] == expected
    if blocks and expected[-1] > 1:
        assert _inside(_guessed(monkeypatch, spec), expected[-1])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case", ["slack", "aligned"])
@_at_each_block_min
def test_no_block_breaks_at_its_first_node(monkeypatch, strategy, case):
    # a repeat of the exhaustive fallback starts no block: where the rule does
    # not keep v, a block would break at its first node (13 times in the
    # inertial "aligned" run)
    counts = []
    coast = solver._coast

    def spy(*args):
        out = coast(*args)
        counts.append(out[0])
        return out

    monkeypatch.setattr(solver, "_coast", spy)
    euler_solve(_fallback_case(strategy, case)[1])
    assert 0 not in counts


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("after", [
    [[1.0, 0.0], [-1.0, 0.25]],                # one value changes, same count
    [[1.0, 0.0], [-1.0, 0.5], [0.0, -1.0]],    # one more value
    [[1.0, 0.0]],                              # one fewer
    [[-1.0, 0.5], [1.0, 0.0]],                 # the same values, reordered
])
@_at_each_block_min
def test_a_non_picked_value_that_changes_inside_a_block(monkeypatch, strategy, after):
    # x = 0.5 is node 32, inside the block of nodes 2-64 (26-57 at a first
    # block of 8)
    svmap, evaluator = _counted(table_map([
        (Halfspace([1.0, 0.0], 0.5, "lt"), [[1.0, 0.0], [-1.0, 0.5]]), (Always(), after)]))
    spec = _spec(svmap, [0.0, 0.0], [1.0, 0.0], strategy=strategy)
    assert_as_per_step(spec)
    traj, calls, _ = _solved_alone(spec, evaluator)
    assert traj.node_count() == 65 and (traj.velocities == [1.0, 0.0]).all()
    # node 32 alone is selected by the per-step path, besides node 1
    assert calls <= 6
    assert _inside(_guessed(monkeypatch, spec), 32)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("points", [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]])
def test_nodes_at_the_anchor(strategy, points):
    # a zero velocity keeps every node at the anchor, where the support rule
    # takes the value nearest the last velocity instead of a product
    assert_as_per_step(_spec(constant_map(points), [0.0, 0.0], [0.0, 0.0], strategy=strategy))


@pytest.mark.parametrize("strategy", STRATEGIES)
@_at_each_block_min
def test_a_block_that_crosses_the_anchor(monkeypatch, strategy):
    # past x = 0.25 only -1 is left; the inertial rule then keeps -1 back
    # through the anchor x0 = 0 at node 34, inside the block of nodes 19-64
    # (27-42 at a first block of 8), where {-1, 1} ties every product; the
    # other rules turn back at once
    svmap = table_map([(Halfspace([1.0], 0.25, "gt"), [[-1.0]]),
                       (Always(), [[-1.0], [1.0]])])
    spec = _spec(svmap, [0.0], [1.0], strategy=strategy, tol=4.0)
    assert_as_per_step(spec)
    if strategy == "inertial":
        assert euler_solve(spec).states[34, 0] == 0.0
        assert _inside(_guessed(monkeypatch, spec), 34)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("scale, far, error", [
    # v = -1 coasts from node 2 back to the anchor at node 3, the first of
    # the block of nodes 3-16 (3-10 at a first block of 8), where the far
    # value's nearness |1e200 + 1|^2 overflows
    (1.0, 1e200, "overflow encountered in vecdot"),
    # the same path scaled by 2^975 with steps of 2^-1000: there the
    # difference of the largest float and v = -2^975 overflows
    (2.0**975, np.finfo(float).max, "overflow encountered in subtract"),
], ids=["square", "difference"])
@_at_each_block_min
def test_an_overflowing_nearness_at_the_anchor_inside_a_block(strategy, scale, far, error):
    # the support rule scores a node at the anchor by the nearness to the
    # last velocity, which the per-step path forms for every value there;
    # the inertial rule forms the nearness wherever it aligns the far value
    v = -scale
    svmap = table_map([(Halfspace([1.0], 0.0, "gt"), [[v]]),
                       (Always(), [[v], [-2 * v], [far]])])
    h = 1 / 64 if scale == 1.0 else 2.0**-1000
    tol = 4.0 if scale == 1.0 else 1e300
    got = assert_as_per_step(_spec(svmap, [0.0], [-2 * v], T=16 * h, h=h, strategy=strategy,
                                   tol=tol))
    if strategy == "exhaustive":
        assert got[0][0] == (17,)
    elif strategy == "support":
        assert got[0] is ValueError
        assert got[1].startswith("Euler node 3 ") and got[1].endswith(error)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("tol", [math.nan, -0.25, -0.0, -1e-300])
def test_nan_or_negative_tol_on_a_multi_valued_map(strategy, tol):
    # up: the turn from 1 to 2 has slack h / 2; down: from 2 to 1, slack -h
    up = table_map([(Halfspace([1.0], 0.125, "lt"), [[1.0], [-1.0]]),
                    (Always(), [[2.0], [-2.0], [0.5]])])
    down = table_map([(Halfspace([1.0], 0.125, "lt"), [[2.0], [-1.0]]),
                      (Always(), [[1.0], [-1.0]])])
    for spec in [_spec(up, [0.0], [1.0], h=0.5, T=64.0, strategy=strategy, tol=tol),
                 _spec(up, [0.0], [1.0], strategy=strategy, tol=tol),
                 _spec(down, [0.0], [2.0], strategy=strategy, tol=tol),
                 _spec(constant_map([[1.0, 0.5], [-0.5, 1.0]]), [0.0, 0.0], [1.0, 0.5],
                       strategy=strategy, tol=tol)]:
        assert_as_per_step(spec)
    # no slack is below a NaN tol, so the exhaustive rule never fails and
    # coasts; the others never pass it and fall back at every node
    svmap, evaluator = _counted(constant_map([[1.0, 0.5], [-0.5, 1.0]]))
    spec = _spec(svmap, [0.0, 0.0], [1.0, 0.5], strategy=strategy, tol=tol)
    if strategy == "exhaustive" and math.isnan(tol):
        assert _solved_alone(spec, evaluator)[1] == 2


def _dominant(count):
    # (2, 1) and count - 1 other values b with <b, (2, 1)> < 5
    rng = np.random.default_rng(5)
    a = np.array([2.0, 1.0])
    others = dyadic(rng, (2 * count, 2), span=1, den=4)
    others = others[inner_rows(others, a) < inner_rows(a, a)][:count - 1]
    return a, np.vstack([others[:count // 4], a, others[count // 4:]])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("elements", [7, 1000])
def test_a_block_holds_at_most_block_elements_node_values(monkeypatch, strategy, elements):
    monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", elements)
    a, points = _dominant(200)
    svmap, evaluator = _counted(constant_map(points))
    spec = _spec(svmap, [0.0, 0.0], a, h=1 / 256, strategy=strategy)
    assert_as_per_step(spec)
    nodes = []
    many = evaluator.many
    evaluator.many = lambda X: nodes.append(len(X)) or many(X)
    traj = euler_solve(spec)
    assert (traj.velocities == a).all()
    # nodes 2-256 coast, 1 node per block at 7 elements and 5 at 1000
    assert max(nodes) == max(1, elements // 200) and sum(nodes) == 255


@pytest.mark.parametrize("strategy", STRATEGIES)
@_at_each_block_min
def test_a_block_sized_for_fewer_values_is_cut(monkeypatch, strategy):
    # one value before x = 0.5, node 128, and 200 after: the block after
    # node 128 (nodes 129-256, or 129-136 at a first block of 8) is sized
    # for one value per node, and its replay is cut to 5 nodes
    monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 1000)
    a, points = _dominant(200)
    svmap = table_map([(Halfspace([1.0, 0.0], 0.5, "lt"), [a]), (Always(), points)])
    spec = _spec(svmap, [0.0, 0.0], a, h=1 / 256, strategy=strategy)
    assert_as_per_step(spec)
    blocks = []
    coast = solver._coast

    def spy(*args):
        out = coast(*args)
        blocks.append((out[0], out[3]))
        return out

    monkeypatch.setattr(solver, "_coast", spy)
    assert (euler_solve(spec).velocities == a).all()
    assert (5, 200) in blocks and all(count * width <= 1000 for count, width in blocks)
