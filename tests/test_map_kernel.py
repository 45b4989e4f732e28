"""Compiled map kernels against the per-point evaluators they replaced.

Every built-in map kind is compiled once into read-only arrays; ``eval`` and
``eval_many`` both read them.  Their values must equal ``eval_ref`` in
``tests/oracles.py`` bit for bit (compared as int64 views, so ``-0.0`` and
``0.0`` differ), raise the same errors at the same point, and
``trajectory_residual`` must equal its per-node loop.
"""

import numpy as np
import pytest

from setflow import (
    ACTIVITY_TOL,
    Always,
    Box,
    CompactSet,
    Halfspace,
    PLConvexFunction,
    ProblemFormatError,
    SetValuedMap,
    Trajectory,
    UncoveredPointError,
    constant_map,
    euler_solve,
    linear_map,
    map_from_dict,
    norm,
    pl_subdifferential_map,
    table_map,
    trajectory_residual,
)
from setflow import solver
from setflow.setmaps import ProblemSpec
from setflow.solver import SelectionFailed

from conftest import bits, build_corpus, dyadic, pl_function, signed_zeros
from oracles import (
    active_slopes_ref,
    box_matches_ref,
    eval_ref,
    halfspace_matches_ref,
    trajectory_residual_ref,
)

OPS = ("lt", "le", "eq", "ge", "gt")


def table_regions(rng, dim, total=True):
    """Halfspaces of every op and boxes, each with a small dyadic value set."""
    regions = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.7:
            normal = signed_zeros(rng, rng.integers(-1, 2, size=dim))
            where = Halfspace(normal, float(dyadic(rng, ())), OPS[int(rng.integers(5))])
        else:
            low = dyadic(rng, dim, span=1)
            where = Box(low, low + rng.integers(0, 3, size=dim) / 2)
        regions.append((where, signed_zeros(rng, dyadic(rng, (int(rng.integers(1, 4)), dim)))))
    if total:
        regions.append((Always(), dyadic(rng, (int(rng.integers(1, 3)), dim))))
    return regions


def random_map(rng, dim):
    kind = int(rng.integers(4))
    if kind == 0:
        return constant_map(signed_zeros(rng, dyadic(rng, (int(rng.integers(1, 5)), dim))))
    if kind == 1:
        return pl_subdifferential_map(pl_function(rng, dim))
    if kind == 2:
        return linear_map(signed_zeros(rng, dyadic(rng, (dim, dim))))
    return table_map(table_regions(rng, dim))


def probe_points(rng, dim, count=12):
    """Dyadic points, so halfspace levels and box faces are hit exactly."""
    points = dyadic(rng, (count, dim), span=2, den=2)
    return np.concatenate([points, np.zeros((1, dim)), -np.zeros((1, dim))])


MAP_CASES = [(dim, seed) for dim in range(1, 6) for seed in range(16)]


def _maps(dim, seed):
    rng = np.random.default_rng([dim, seed, 7])
    return rng, [random_map(rng, dim) for _ in range(4)]


@pytest.mark.parametrize("dim, seed", MAP_CASES)
def test_eval_matches_reference_on_random_maps(dim, seed):
    rng, maps = _maps(dim, seed)
    for svmap in maps:
        for x in probe_points(rng, dim):
            assert bits(svmap.eval(x).points) == bits(eval_ref(svmap, x).points)


def test_eval_matches_reference_on_corpus():
    for entry in build_corpus():
        for x in entry.grid:
            assert bits(entry.svmap.eval(x).points) == bits(eval_ref(entry.svmap, x).points)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_active_slopes_collapse_twins_and_ties(dim):
    rng = np.random.default_rng([dim, 11])
    collapsed = ties = signed = 0
    for _ in range(40):
        f = pl_function(rng, dim)
        svmap = pl_subdifferential_map(f)
        for x in probe_points(rng, dim, count=4):
            want = active_slopes_ref(f, x)
            assert bits(f.active_slopes(x).points) == bits(want)
            assert bits(svmap.eval(x).points) == bits(want)
            vals = f.piece_values(x)
            active = vals >= vals.max() - ACTIVITY_TOL
            collapsed += len(want) < np.count_nonzero(active)
            ties += np.count_nonzero(active & (vals < vals.max()))
            signed += bool(np.signbit(want[want == 0.0]).any())
    assert collapsed and ties and signed


@pytest.mark.parametrize("op", OPS)
def test_every_halfspace_op_at_above_and_below(op):
    h = Halfspace([1.0, -2.0], 0.5, op)
    svmap = table_map([(h, [[1.0, 0.0]]), (Always(), [[0.0, 1.0]])])
    # <normal, x> equal to, above and below the level
    for x in ([0.5, 0.0], [1.0, 0.0], [0.0, 0.0], [-0.0, -0.25]):
        x = np.array(x)
        assert bits(svmap.eval(x).points) == bits(eval_ref(svmap, x).points)
        hit = bits(svmap.eval(x).points) == bits([[1.0, 0.0]])
        assert hit is halfspace_matches_ref(h, x)


def test_box_faces_corners_and_outside():
    b = Box([-1.0, 0.0], [1.0, 0.5])
    svmap = table_map([(b, [[1.0, 1.0]]), (Always(), [[-1.0, -1.0]])])
    points = [[-1.0, 0.0], [1.0, 0.5], [0.0, 0.5], [-0.0, -0.0], [1.0, 0.25],
              [1.0 + 2**-52, 0.25], [0.0, -2**-1074], [-1.5, 0.0], [0.0, 0.75]]
    inside = 0
    for x in map(np.array, points):
        assert bits(svmap.eval(x).points) == bits(eval_ref(svmap, x).points)
        hit = bits(svmap.eval(x).points) == bits([[1.0, 1.0]])
        assert hit is box_matches_ref(b, x)
        inside += hit
    assert 0 < inside < len(points)


def test_first_match_decides():
    svmap = table_map([
        (Halfspace([1.0], 0.0, "ge"), [[1.0]]),
        (Box([-1.0], [1.0]), [[2.0]]),
        (Halfspace([1.0], 0.0, "le"), [[3.0]]),
        (Always(), [[4.0]]),
    ])
    X = np.array([[0.0], [0.5], [-0.5], [-2.0]])
    values, owner = svmap.eval_many(X)
    assert values.ravel().tolist() == [1.0, 1.0, 2.0, 3.0]
    assert owner.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_uncovered_point_raises_at_the_first_uncovered_row(dim):
    rng = np.random.default_rng([dim, 3])
    raised = 0
    for _ in range(30):
        svmap = table_map(table_regions(rng, dim, total=False))
        X = probe_points(rng, dim)
        messages = []
        for x in X:
            try:
                svmap.eval(x)
            except UncoveredPointError as exc:
                with pytest.raises(UncoveredPointError) as ref:
                    eval_ref(svmap, x)
                assert str(exc) == str(ref.value)
                messages.append(str(exc))
        if messages:
            raised += 1
            with pytest.raises(UncoveredPointError) as info:
                svmap.eval_many(X)
            assert str(info.value) == messages[0]
        else:
            svmap.eval_many(X)
    assert raised


def _stacked_evals(svmap, X):
    sets = [svmap.eval(x).points for x in X]
    return np.concatenate(sets), np.repeat(np.arange(len(X)), [len(s) for s in sets])


@pytest.mark.parametrize("dim, seed", MAP_CASES[::3])
def test_eval_many_equals_per_point_eval(dim, seed):
    rng, maps = _maps(dim, seed)
    for svmap in maps:
        X = probe_points(rng, dim)
        values, owner = svmap.eval_many(X)
        want_values, want_owner = _stacked_evals(svmap, X)
        assert bits(values) == bits(want_values)
        assert owner.tolist() == want_owner.tolist()
        # the point-by-point loop that a custom evaluator gets
        looped = SetValuedMap(dim, svmap.eval).eval_many(X)
        assert bits(looped[0]) == bits(values)
        assert looped[1].tolist() == owner.tolist()


def test_eval_many_on_corpus_and_empty_input():
    for entry in build_corpus():
        X = np.array(entry.grid)
        values, owner = entry.svmap.eval_many(X)
        want_values, want_owner = _stacked_evals(entry.svmap, X)
        assert bits(values) == bits(want_values)
        assert owner.tolist() == want_owner.tolist()
        empty_values, empty_owner = entry.svmap.eval_many(np.empty((0, X.shape[1])))
        assert empty_values.shape == (0, X.shape[1]) and empty_owner.shape == (0,)
    with pytest.raises(ValueError, match="dimension mismatch"):
        constant_map([[1.0, 2.0]]).eval_many(np.zeros((3, 1)))


def test_custom_evaluator_loops_through_eval():
    calls = []

    def evaluator(x):
        calls.append(x)
        return CompactSet([[float(x[0])], [-1.0]])

    values, owner = SetValuedMap(1, evaluator).eval_many([[0.5], [2.0]])
    assert values.ravel().tolist() == [0.5, -1.0, 2.0, -1.0]
    assert owner.tolist() == [0, 0, 1, 1]
    assert len(calls) == 2


def test_values_are_read_only():
    maps = [
        constant_map([[1.0, 0.0], [0.0, 1.0]]),
        pl_subdifferential_map(PLConvexFunction([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])),
        linear_map([[0.0, -1.0], [1.0, 0.0]]),
        table_map([(Box([0.0, 0.0], [1.0, 1.0]), [[1.0, 1.0]]), (Always(), [[0.0, 0.0]])]),
    ]
    X = np.array([[0.0, 0.0], [0.5, 0.25], [2.0, 0.0]])
    for svmap in maps:
        for x in X:
            points = svmap.eval(x).points
            with pytest.raises(ValueError):
                points[0, 0] = 7.0
        for array in svmap.eval_many(X):
            with pytest.raises(ValueError):
                array[0] = 7
    # a cached singleton stays as it was
    assert maps[1].eval([1.0, 0.0]).points.tolist() == [[1.0, 0.0]]


def test_linear_map_rejects_non_finite_values():
    svmap = linear_map([[1e308, 1e308], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="set points must be finite"):
            svmap.eval([1.0, 1.0])
        with pytest.raises(ValueError, match="set points must be finite"):
            svmap.eval_many([[0.0, 0.0], [1.0, 1.0]])
    # a map none of whose values is finite is refused when it is built
    for entry in (np.nan, np.inf):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            linear_map([[1.0, entry], [0.0, 1.0]])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_linear_eval_many_equals_per_row_eval(dim):
    # matrices and points with long mantissas over several magnitudes, so
    # that any other summation order would round differently
    rng = np.random.default_rng([dim, 29])
    for _ in range(40):
        M = rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-3, 4, (dim, dim))
        svmap = linear_map(M)
        X = rng.standard_normal((25, dim)) * 10.0 ** rng.integers(-3, 4, (25, dim))
        values, owner = svmap.eval_many(X)
        want_values, want_owner = _stacked_evals(svmap, X)
        assert bits(values) == bits(want_values)
        assert bits(values) == bits([M @ x for x in X])
        assert owner.tolist() == want_owner.tolist()
        assert svmap.local_bound(X[0], 0.5) == np.linalg.norm(M, 2) * (norm(X[0]) + 0.5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linear_eval_many_raises_what_eval_raises_at_an_overflowing_row(dim):
    rng = np.random.default_rng([dim, 31])
    M = rng.standard_normal((dim, dim))
    M[0, -1] = 1e300
    svmap = linear_map(M)
    X = rng.standard_normal((9, dim))
    X[4, -1] = 1e10
    for mode, error in (("ignore", ValueError), ("raise", FloatingPointError)):
        with np.errstate(over=mode, invalid=mode):
            for x in X[:4]:
                svmap.eval(x)
            with pytest.raises(error) as want:
                svmap.eval(X[4])
            with pytest.raises(error) as got:
                svmap.eval_many(X)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("where", [
    {"kind": "halfspace", "normal": [1.0], "value": 0.0, "op": "lt"},
    {"kind": "box", "low": [0.0, 0.0, 0.0], "high": [1.0, 1.0, 1.0]},
])
def test_table_predicates_of_the_wrong_dimension_are_rejected(where):
    doc = {"kind": "table", "regions": [
        {"where": {"kind": "always"}, "points": [[1.0, 2.0]]},
        {"where": where, "points": [[0.0, 0.0]]},
    ]}
    with pytest.raises(ProblemFormatError, match="region 1: .* of dimension"):
        map_from_dict(doc)
    regions = [(Always(), [[1.0, 2.0]]),
               (Halfspace(**{k: where[k] for k in ("normal", "value", "op")})
                if where["kind"] == "halfspace" else Box(where["low"], where["high"]),
                [[0.0, 0.0]])]
    with pytest.raises(ValueError, match="values of dimension 2"):
        table_map(regions)


def test_table_predicates_must_be_built_in():
    class Anywhere:
        def to_dict(self):
            return {"kind": "anywhere"}

    with pytest.raises(TypeError, match="Halfspace, Box or Always"):
        table_map([(Anywhere(), [[1.0]])])


# ---------------------------------------------------------------------------
# trajectory residuals


def _solved(svmap, dim, rng, steps=24):
    x0 = dyadic(rng, dim, span=1, den=4)
    v0 = svmap.eval(x0).points[0]
    spec = ProblemSpec(map=svmap, x0=x0, v0=v0, horizon=1.0, step=1.0 / steps,
                       strategy="exhaustive", tol=1e-9)
    try:
        return euler_solve(spec)
    except (SelectionFailed, UncoveredPointError):
        return None


def _perturbed(traj, rng):
    noise = rng.integers(-2, 3, size=traj.velocities.shape) / 8
    return Trajectory(traj.times, traj.states, traj.velocities + noise, traj.step, traj.strategy)


def _residual_cases():
    rng = np.random.default_rng(2026)
    cases = []
    for entry in build_corpus():
        dim = len(entry.grid[0])
        traj = _solved(entry.svmap, dim, rng)
        if traj is not None:
            cases.append((entry.svmap, traj))
    for dim in range(1, 4):
        for _ in range(6):
            svmap = random_map(rng, dim)
            traj = _solved(svmap, dim, rng)
            if traj is not None:
                cases.append((svmap, traj))
    return rng, cases


def test_trajectory_residual_matches_per_node_loop():
    rng, cases = _residual_cases()
    hull_gaps = 0
    for svmap, traj in cases:
        assert trajectory_residual(traj, svmap) == (0.0, 0.0) == trajectory_residual_ref(traj, svmap)
        moved = _perturbed(traj, rng)
        got = trajectory_residual(moved, svmap)
        assert bits(got) == bits(trajectory_residual_ref(moved, svmap))
        hull_gaps += got[1] > 0.0
    assert len(cases) >= 12 and hull_gaps


def test_trajectory_residual_in_row_blocks_smaller_than_n(monkeypatch):
    rng, cases = _residual_cases()
    monkeypatch.setattr(solver, "_RESIDUAL_BLOCK", 4)
    for svmap, traj in cases:
        assert traj.node_count() > 4
        moved = _perturbed(traj, rng)
        assert bits(trajectory_residual(moved, svmap)) == bits(trajectory_residual_ref(moved, svmap))
