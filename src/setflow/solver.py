"""Euler polygons whose node velocities form a verified chain.

The integrator advances ``x_{k+1} = x_k + dt_k * v_k`` on a uniform grid whose
final step shrinks to land exactly on the horizon.  At every new node a
velocity is selected from the map so that the running (point, velocity) chain
stays verified; when that is impossible at the requested tolerance the solver
raises :class:`SelectionFailed` carrying full replay state, which is the
computational witness that the map resists chain-preserving selection there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .chains import (
    Chain,
    extend_exhaustive,
    extend_inertial,
    extend_support,
    extension_slack,
    verify_chain,
)
from .geometry import dist_to_hull, dist_to_set, inner, inner_rows
from .setmaps import PLConvexFunction, ProblemSpec, SetValuedMap

__all__ = [
    "SelectionFailed",
    "Trajectory",
    "time_grid",
    "euler_solve",
    "trajectory_residual",
    "trajectory_cm_check",
    "refine_study",
    "lyapunov_check",
    "horizon_hint",
]


class SelectionFailed(RuntimeError):
    """No admissible velocity at a step.

    Carries everything needed to replay the failure: the step index and time,
    the point reached, the running chain, and the slack of every candidate
    velocity there.
    """

    def __init__(self, step_index, time, point, chain, candidate_slacks, strategy, tol):
        best = max(s for _, s in candidate_slacks)
        super().__init__(
            f"no velocity keeps the chain verified at step {step_index} "
            f"(t={float(time)!r}, best slack {float(best)!r}, tol {float(tol)!r})"
        )
        self.step_index = step_index
        self.time = time
        self.point = point
        self.chain = chain
        self.candidate_slacks = candidate_slacks
        self.strategy = strategy
        self.tol = tol

    def to_json_dict(self) -> dict:
        return {
            "step_index": self.step_index,
            "time": self.time,
            "point": [float(c) for c in self.point],
            "chain": self.chain.to_dict(),
            "candidate_slacks": [
                {"velocity": [float(c) for c in v], "slack": float(s)}
                for v, s in self.candidate_slacks
            ],
            "strategy": self.strategy,
            "tol": self.tol,
        }


@dataclass
class Trajectory:
    """Euler polygon nodes ``(t_k, x_k, v_k)``.

    Velocities are exact members of the map values at their nodes and the
    node chain verifies; both are solver postconditions, re-checkable with
    :func:`trajectory_residual` and :func:`trajectory_cm_check`.
    """

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    step: float
    strategy: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if not (self.times.ndim == 1 and self.states.ndim == 2
                and self.states.shape == self.velocities.shape
                and self.states.shape[0] == self.times.shape[0] >= 1):
            raise ValueError("trajectory arrays must align")
        for a in (self.times, self.states, self.velocities):
            a.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def node_count(self) -> int:
        return self.times.shape[0]

    def chain(self) -> Chain:
        return Chain(self.states, self.velocities)

    def interpolate(self, t) -> np.ndarray:
        """Piecewise-linear state at time ``t`` (clamped to the time range)."""
        t = float(t)
        return np.array([
            np.interp(t, self.times, self.states[:, c]) for c in range(self.dimension)
        ])


def time_grid(horizon: float, step: float):
    """Node times ``0, h, 2h, ...`` plus the horizon, and the step lengths.

    Times accumulate so that halved steps revisit the coarse nodes; the last
    node is pinned to the horizon and its step recomputed, which keeps the
    recursion ``x_{k+1} = x_k + dt_k v_k`` consistent with the stored times.
    The final step is at most a rounding error longer than ``step``.
    """
    if not (horizon > 0 and 0 < step <= horizon):
        raise ValueError("need 0 < step <= horizon")
    times = [0.0]
    deltas = []
    t = 0.0
    while horizon - t > step * (1.0 + 1e-12):
        deltas.append(step)
        t = t + step
        times.append(t)
    deltas.append(horizon - t)
    times.append(horizon)
    return np.array(times), np.array(deltas)


class _ChainTip(NamedTuple):
    """The four values of a chain that :func:`extension_slack` reads.

    Appending a pair adds one inequality, so whether a pick keeps a verified
    chain verified depends on nothing else; the extension rules accept a tip
    wherever they accept a :class:`Chain`.
    """

    anchor_point: np.ndarray
    last_point: np.ndarray
    last_velocity: np.ndarray
    last_sum: float

    def extended(self, x, v) -> "_ChainTip":
        # same expression as Chain.extended, so the sums round identically
        step = inner(x - self.last_point, self.last_velocity)
        return _ChainTip(self.anchor_point, x, v, self.last_sum + step)


def _select(chain, x_next, svmap, strategy, tol):
    if strategy == "exhaustive":
        return extend_exhaustive(chain, x_next, svmap, tol)
    if strategy == "support":
        v = extend_support(chain, x_next, svmap)
        if extension_slack(chain, x_next, v) >= -tol:
            return v
        return extend_exhaustive(chain, x_next, svmap, tol)
    if strategy == "inertial":
        v = extend_inertial(chain, x_next, svmap, tol)
        if v is not None:
            return v
        return extend_exhaustive(chain, x_next, svmap, tol)
    raise ValueError(f"unknown strategy {strategy!r}")


def euler_solve(spec: ProblemSpec) -> Trajectory:
    """Integrate the inclusion by Euler polygons with chain-preserving selection.

    ``support`` and ``inertial`` picks are checked at the final index and fall
    back to the exhaustive scan when they fail; consequently a
    :class:`SelectionFailed` from any strategy certifies that no value of the
    map extends the chain at that node within the tolerance.  Only the chain
    tip is carried, so each step costs the same however long the chain is.
    """
    svmap = spec.map
    x0 = np.asarray(spec.x0, dtype=float)
    v0 = np.asarray(spec.v0, dtype=float)
    if not svmap.eval(x0).contains(v0):
        raise ValueError("v0: initial velocity not in F(x0)")
    times, deltas = time_grid(spec.horizon, spec.step)
    tip = _ChainTip(x0, x0, v0, 0.0)
    states = [x0]
    velocities = [v0]
    x = x0
    for k, dt in enumerate(deltas):
        x = x + dt * velocities[-1]
        v = _select(tip, x, svmap, spec.strategy, spec.tol)
        if v is None:
            chain = Chain(states, velocities)
            candidates = svmap.eval(x).points
            slacks = list(zip(candidates, extension_slack(chain, x, candidates).tolist()))
            raise SelectionFailed(k + 1, times[k + 1], x, chain, slacks,
                                  spec.strategy, spec.tol)
        tip = tip.extended(x, v)
        states.append(x)
        velocities.append(v)
    return Trajectory(np.array(times), np.vstack(states), np.vstack(velocities),
                      spec.step, spec.strategy)


def trajectory_residual(traj: Trajectory, svmap: SetValuedMap, hull_tol: float = 1e-9):
    """Worst node distances from velocities to values and to their hulls.

    Returns ``(node_residual, hull_residual)``; the hull residual never
    exceeds the node residual.  Both are zero for solver output.
    """
    node = 0.0
    hull = 0.0
    for x, v in zip(traj.states, traj.velocities):
        values = svmap.eval(x)
        gap = dist_to_set(v, values)
        node = max(node, gap)
        # a member is its own nearest hull point: dist_to_hull would start at
        # the zero vector and return exactly 0.0
        if gap > 0.0:
            hull = max(hull, dist_to_hull(v, values, hull_tol))
    return node, hull


def trajectory_cm_check(traj: Trajectory, tol: float = 0.0) -> bool:
    """Whether the node (point, velocity) chain verifies at ``tol``."""
    ok, _ = verify_chain(traj.chain(), tol)
    return ok


def polygon_sup_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup distance between two polygons on the union of their node times."""
    times = np.union1d(a.times, b.times)
    gaps = _states_at(a, times) - _states_at(b, times)
    return math.sqrt(float(inner_rows(gaps, gaps).max()))


def _states_at(traj: Trajectory, times) -> np.ndarray:
    # one row per time, equal to Trajectory.interpolate at that time
    return np.column_stack([
        np.interp(times, traj.times, traj.states[:, c]) for c in range(traj.dimension)
    ])


@dataclass(frozen=True)
class RefinementRow:
    steps: int
    step_size: float
    sup_distance: float | None
    node_residual: float
    hull_residual: float
    chain_ok: bool


def refine_study(spec: ProblemSpec, step_counts) -> list[RefinementRow]:
    """Solve at increasing step counts and compare consecutive polygons.

    ``step_counts`` must be increasing and each must divide the next, so
    consecutive runs share node times.  Distances are reported as evidence of
    polygon convergence; no rate is asserted.
    """
    counts = [int(c) for c in step_counts]
    if len(counts) < 2:
        raise ValueError("need at least two step counts")
    for a, b in zip(counts, counts[1:]):
        if not (b > a and b % a == 0):
            raise ValueError("step counts must increase and each divide the next")
    rows = []
    previous = None
    for n in counts:
        run_spec = replace(spec, step=spec.horizon / n)
        traj = euler_solve(run_spec)
        node, hull = trajectory_residual(traj, spec.map)
        ok = trajectory_cm_check(traj, spec.tol)
        sup = None if previous is None else polygon_sup_distance(previous, traj)
        rows.append(RefinementRow(n, run_spec.step, sup, node, hull, ok))
        previous = traj
    return rows


def lyapunov_check(traj: Trajectory, f: PLConvexFunction, tol: float = 0.0) -> bool:
    """Monotone growth of ``f`` along the polygon: ``f(x_{k+1}) >= f(x_k) - tol*h``.

    For trajectories of the active-slope map of ``f`` the growth is in fact at
    least ``dt_k * |v_k|^2`` per step, by the subgradient inequality.
    """
    if f.dimension != traj.dimension:
        raise ValueError("function and trajectory dimensions differ")
    for k in range(traj.node_count() - 1):
        if f.value(traj.states[k + 1]) < f.value(traj.states[k]) - tol * traj.step:
            return False
    return True


def horizon_hint(svmap: SetValuedMap, x0, radius: float) -> float:
    """Suggested horizon ``radius / bound`` keeping polygons in the ball.

    Advisory only; nothing in the solver applies it automatically.  Raises
    :class:`ValueError` for a map built without a bound rule; every built-in
    constructor supplies one.
    """
    bound = svmap.local_bound(np.asarray(x0, dtype=float), radius)
    if bound == 0.0:
        return float("inf")
    return radius / bound
