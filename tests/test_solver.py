"""Euler polygons: time grids, selection strategies, residuals, refinement."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import (
    Chain,
    ProblemSpec,
    SelectionFailed,
    Trajectory,
    constant_map,
    dist_to_hull,
    dist_to_set,
    euler_solve,
    horizon_hint,
    inner,
    norm,
    parse_problem,
    pl_subdifferential_map,
    polygon_sup_distance,
    refine_study,
    time_grid,
    trajectory_cm_check,
    trajectory_residual,
)

from setflow.solver import _states_at

from conftest import ABS_F, INERTIAL_GAP_PROBLEM, TWO_MAX_F, make_non_wcm_map, make_sign_map
from oracles import time_grid_ref


def _spec(svmap, x0, v0, T=1.0, h=0.01, strategy="inertial", tol=1e-9, **kw):
    return ProblemSpec(
        map=svmap, x0=np.array(x0, dtype=float), v0=np.array(v0, dtype=float),
        horizon=T, step=h, strategy=strategy, tol=tol, **kw,
    ).validated()


class TestTimeGrid:
    def test_lands_exactly_on_horizon(self):
        times, deltas = time_grid(1.0, 0.01)
        assert times[-1] == 1.0
        assert len(times) == 101
        assert len(deltas) == 100

    def test_non_dividing_step(self):
        # 0.3 is not a float multiple of 0.1; the last step absorbs the gap
        times, deltas = time_grid(0.3, 0.1)
        assert times[-1] == 0.3
        assert len(deltas) == 3
        assert all(d > 0 for d in deltas)

    def test_single_step(self):
        times, deltas = time_grid(0.5, 0.5)
        assert times.tolist() == [0.0, 0.5]

    def test_deltas_sum_to_nodes(self):
        times, deltas = time_grid(2.0, 0.3)
        assert times[0] == 0.0
        for k, d in enumerate(deltas[:-1]):
            assert times[k + 1] == times[k] + d

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            time_grid(0.0, 0.1)
        with pytest.raises(ValueError):
            time_grid(1.0, 0.0)


def _grid_or_error(grid, horizon, step):
    # the arrays' dtype, shape and bytes, or the ValueError's message
    try:
        return tuple((a.dtype, a.shape, a.tobytes()) for a in grid(horizon, step))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("horizon, step", [
    # step == horizon
    (1.0, 1.0), (0.3, 0.3), (1e308, 1e308),
    # 1, 2, 1,023-1,025 and 4,097 steps
    *((h, h / n) for h in (1.0, 0.7, 3.0) for n in (1, 2, 1023, 1024, 1025, 4097)),
    # horizon / step within 1e-13 of an integer, either side
    *((1.0, 1.0 / (n + d)) for n in (3, 1024, 4097) for d in (-1e-13, 1e-13)),
    # times past the largest float within the block formed after the last
    (1.7e308, 1e308), (8.8e307, 4e306),
    # bad input
    (0.0, 0.1), (1.0, 0.0), (1.0, 2.0), (-1.0, -0.5), (1.0, -0.1),
    (math.nan, 0.1), (1.0, math.nan),
])
def test_time_grid_is_the_loop(horizon, step):
    got = _grid_or_error(time_grid, horizon, step)
    assert got == _grid_or_error(time_grid_ref, horizon, step)


@given(horizon=st.floats(1e-6, 1e6), steps=st.integers(1, 5000),
       nudge=st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 0.25, -0.25]))
@settings(max_examples=300, deadline=None)
def test_random_time_grids_are_the_loop(horizon, steps, nudge):
    step = horizon / (steps + nudge)
    assert _grid_or_error(time_grid, horizon, step) == _grid_or_error(time_grid_ref, horizon, step)


class TestEulerSolve:
    def test_constant_map_is_exact(self):
        # dyadic step keeps every product and sum exactly representable
        F = constant_map([[1.0, -2.0]])
        spec = _spec(F, [0.5, 0.5], [1.0, -2.0], h=0.0078125)
        traj = euler_solve(spec)
        want = spec.x0[None, :] + traj.times[:, None] * spec.v0[None, :]
        assert np.max(np.abs(traj.states - want)) < 1e-12
        assert trajectory_cm_check(traj, tol=0.0)
        assert trajectory_residual(traj, F) == (0.0, 0.0)

    def test_constant_map_nondyadic_step_stays_tiny(self):
        F = constant_map([[1.0, -2.0]])
        traj = euler_solve(_spec(F, [0.5, 0.5], [1.0, -2.0], h=0.01))
        want = np.array([0.5, 0.5]) + traj.times[:, None] * np.array([1.0, -2.0])
        assert np.max(np.abs(traj.states - want)) < 1e-12
        assert trajectory_cm_check(traj, tol=1e-12)

    def test_sign_map_tracks_time_exactly(self):
        F = make_sign_map()
        traj = euler_solve(_spec(F, [0.0], [1.0]))
        assert np.array_equal(traj.states[:, 0], traj.times)
        assert trajectory_cm_check(traj, tol=0.0)

    def test_strategies_agree_on_singleton_values(self):
        F = constant_map([[2.0]])
        runs = [euler_solve(_spec(F, [0.0], [2.0], strategy=s))
                for s in ("exhaustive", "support", "inertial")]
        for other in runs[1:]:
            assert np.array_equal(runs[0].states, other.states)
            assert np.array_equal(runs[0].velocities, other.velocities)

    def test_selection_failure_carries_replay_state(self):
        F = make_non_wcm_map()
        spec = _spec(F, [0.0], [1.0], h=0.1, strategy="exhaustive")
        with pytest.raises(SelectionFailed) as exc:
            euler_solve(spec)
        err = exc.value
        assert err.step_index == 1
        assert err.point.tolist() == [0.1]
        cand, slack = err.candidate_slacks[0]
        assert slack == pytest.approx(-0.1)
        d = err.to_json_dict()
        assert d["strategy"] == "exhaustive"
        # the recorded chain plus candidate reproduces the dead end
        c = Chain(d["chain"]["points"], d["chain"]["velocities"])
        from setflow import extend_exhaustive
        assert extend_exhaustive(c, np.array(d["point"]), F, tol=spec.tol) is None

    def test_inertial_gap_fails_with_plain_float_message(self):
        spec = parse_problem(json.dumps(INERTIAL_GAP_PROBLEM))
        with pytest.raises(SelectionFailed) as exc:
            euler_solve(spec)
        err = exc.value
        assert str(err) == (
            "no velocity keeps the chain verified at step 2 "
            f"(t=2.0, best slack {err.candidate_slacks[0][1]!r}, tol 0.1)"
        )
        assert err.candidate_slacks[0][1] < -0.1
        assert err.to_json_dict()["time"] == 2.0

    @pytest.mark.parametrize("slacks", [[float("nan"), -1.0], [-1.0, float("nan")]])
    def test_message_best_slack_skips_a_nan_in_any_order(self, slacks):
        values = [np.array([1.0]), np.array([-1.0])]
        candidates = list(zip(values, slacks))
        err = SelectionFailed(3, 0.5, np.array([0.0]), Chain([[0.0]], [[1.0]]),
                              candidates, "exhaustive", 0.0)
        assert str(err) == ("no velocity keeps the chain verified at step 3 "
                            "(t=0.5, best slack -1.0, tol 0.0)")
        assert json.dumps(err.to_json_dict()["candidate_slacks"]) == json.dumps(
            [{"velocity": v.tolist(), "slack": s} for v, s in candidates])

    def test_message_best_slack_of_nans_is_nan(self):
        err = SelectionFailed(1, 0.25, np.array([0.0]), Chain([[0.0]], [[1.0]]),
                              [(np.array([1.0]), float("nan"))], "support", 0.0)
        assert "best slack nan," in str(err)

    def test_velocity_rows_come_from_the_map(self):
        F = pl_subdifferential_map(ABS_F)
        traj = euler_solve(_spec(F, [-0.5], [-1.0]))
        for x, v in zip(traj.states[:-1], traj.velocities[:-1]):
            assert F(x).contains(v)


class TestTrajectoryType:
    def test_interpolate_endpoints_and_midpoint(self):
        F = constant_map([[1.0]])
        traj = euler_solve(_spec(F, [0.0], [1.0], h=0.25))
        assert traj.interpolate(0.0).tolist() == [0.0]
        assert traj.interpolate(1.0).tolist() == [1.0]
        assert traj.interpolate(0.125).tolist() == [0.125]
        # a 2-d polygon reads the rows of _states_at, clamped outside [0, T]
        F = constant_map([[1.0, -0.3]])
        traj = euler_solve(_spec(F, [0.1, 0.7], [1.0, -0.3], T=0.9, h=0.2))
        for t, node in ((-0.5, 0), (1.9, -1), (0.37, None)):
            got = traj.interpolate(t)
            assert got.shape == (2,)
            assert got.tobytes() == _states_at(traj, [t])[0].tobytes()
            if node is not None:
                assert got.tobytes() == traj.states[node].tobytes()

    def test_chain_view_matches_nodes(self):
        F = constant_map([[1.0]])
        traj = euler_solve(_spec(F, [0.0], [1.0], h=0.5))
        c = traj.chain()
        # every node carries a selected velocity, the horizon node included
        assert np.array_equal(c.xs, traj.states)
        assert np.array_equal(c.vs, traj.velocities)

    def test_residual_flags_offgraph_velocity(self):
        F = constant_map([[1.0]])
        traj = euler_solve(_spec(F, [0.0], [1.0], h=0.5))
        doctored = Trajectory(
            times=traj.times, states=traj.states,
            velocities=np.full_like(traj.velocities, 3.0),
            step=traj.step, strategy=traj.strategy,
        )
        node, hull = trajectory_residual(doctored, F)
        assert node == pytest.approx(2.0)
        assert hull == pytest.approx(2.0)

    def test_residual_matches_unconditional_formula(self, rng):
        # members, hull points that are not members, and points off the hull
        F = constant_map([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        traj = euler_solve(_spec(F, [0.0, 0.0], [1.0, 0.0], h=0.125))
        vs = traj.velocities.copy()
        vs[1::3] = [0.0, 0.25]
        vs[2::3] += rng.normal(scale=0.05, size=vs[2::3].shape)
        doctored = Trajectory(traj.times, traj.states, vs, traj.step, traj.strategy)
        node = max(dist_to_set(v, F(x)) for x, v in zip(traj.states, vs))
        hull = max(dist_to_hull(v, F(x), 1e-9) for x, v in zip(traj.states, vs))
        assert node > 0.0 and hull > 0.0
        assert trajectory_residual(doctored, F) == (node, hull)

    def test_sup_distance_equals_interpolation_loop(self, rng):
        for n_a, n_b, dim in [(4, 8, 1), (8, 32, 2), (16, 16, 3), (64, 2, 2)]:
            polys = []
            for n in (n_a, n_b):
                times, _ = time_grid(1.0, 1.0 / n)
                states = rng.normal(size=(n + 1, dim))
                polys.append(Trajectory(times, states, states, 1.0 / n, "inertial"))
            a, b = polys
            want = 0.0
            for t in np.union1d(a.times, b.times):
                want = max(want, norm(a.interpolate(t) - b.interpolate(t)))
            assert polygon_sup_distance(a, b) == want

    def test_sup_distance_zero_on_self(self):
        F = constant_map([[1.0]])
        a = euler_solve(_spec(F, [0.0], [1.0], h=0.25))
        assert polygon_sup_distance(a, a) == 0.0

    def test_sup_distance_between_offset_runs(self):
        F = constant_map([[1.0]])
        a = euler_solve(_spec(F, [0.0], [1.0], h=0.25))
        b = euler_solve(_spec(F, [0.5], [1.0], h=0.25))
        assert polygon_sup_distance(a, b) == pytest.approx(0.5)


class TestRefineStudy:
    def test_rows_and_monotone_distances(self):
        F = pl_subdifferential_map(TWO_MAX_F)
        spec = _spec(F, [0.5], [1.0])
        rows = refine_study(spec, [10, 20, 40])
        assert [r.steps for r in rows] == [10, 20, 40]
        assert rows[0].sup_distance is None
        assert all(r.chain_ok for r in rows)
        assert all(r.node_residual == 0.0 for r in rows)

    def test_rejects_non_nested_counts(self):
        F = constant_map([[1.0]])
        spec = _spec(F, [0.0], [1.0])
        with pytest.raises(ValueError):
            refine_study(spec, [10, 15])
        with pytest.raises(ValueError):
            refine_study(spec, [20, 10])


class TestGrowthAndHints:
    def test_per_step_growth_inequality(self):
        F = pl_subdifferential_map(TWO_MAX_F)
        traj = euler_solve(_spec(F, [0.3], [1.0]))
        for k in range(traj.node_count() - 1):
            dt = traj.times[k + 1] - traj.times[k]
            lhs = TWO_MAX_F.value(traj.states[k + 1])
            rhs = TWO_MAX_F.value(traj.states[k]) + dt * inner(
                traj.velocities[k], traj.velocities[k])
            assert lhs >= rhs - 1e-9

    def test_horizon_hint(self):
        F = constant_map([[3.0, 4.0]])
        assert horizon_hint(F, [0.0, 0.0], 10.0) == 2.0
