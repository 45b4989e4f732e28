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
    _BLOCK_ELEMENTS,
    Chain,
    _rule_picks,
    extend_exhaustive,
    extend_inertial,
    extend_support,
    extension_slack,
    verify_chain,
)
from .geometry import CompactSet, dist_to_hull, inner, inner_rows
from .setmaps import ProblemSpec, SetValuedMap

__all__ = [
    "SelectionFailed",
    "Trajectory",
    "time_grid",
    "euler_solve",
    "trajectory_residual",
    "trajectory_cm_check",
    "refine_study",
    "horizon_hint",
    "polygon_sup_distance",
]


# nodes evaluated per eval_many call in trajectory_residual, which bounds its
# memory whatever the number of nodes
_RESIDUAL_BLOCK = 1024

# Steps in the first block of a coasting run, and the most in any block.  A
# block costs about as much fixed overhead (its eval_many and scoring calls)
# as 256 guessed nodes do, so a first block of 256 that breaks at once wastes
# about one block's overhead, while a shorter start pays that overhead again
# for every doubling on a long run.  A full block doubles the next, a block
# that breaks starts the next run at _BLOCK_MIN, and a block in which the map
# or the scoring raised is followed by one of half its size, at least 1, so
# that a failure a few nodes ahead costs a few blocks, not one per node.
# _BLOCK_MAX also bounds the blocks in which time_grid accumulates its times.
_BLOCK_MIN = 256
_BLOCK_MAX = 1024


class SelectionFailed(RuntimeError):
    """No admissible velocity at a step.

    Carries everything needed to replay the failure: the step index and time,
    the point reached, the running chain, and the slack of every candidate
    velocity there.
    """

    def __init__(self, step_index, time, point, chain, candidate_slacks, strategy, tol):
        # a NaN slack never beats a number, whatever the candidate order
        best = np.fmax.reduce([s for _, s in candidate_slacks])
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
        return _states_at(self, [float(t)])[0]


def time_grid(horizon: float, step: float):
    """Node times ``0, h, 2h, ...`` plus the horizon, and the step lengths.

    Times accumulate so that halved steps revisit the coarse nodes; the last
    node is pinned to the horizon and its step recomputed, which keeps the
    recursion ``x_{k+1} = x_k + dt_k v_k`` consistent with the stored times.
    The final step is at most a rounding error longer than ``step``.  The
    times are running sums ``t = t + h``, rounded one addition at a time, up
    to the first ``t`` with ``horizon - t`` at most ``h (1 + 1e-12)``; they
    are formed ``_BLOCK_MAX`` steps at a time, so no intermediate array grows
    with the number of steps.
    """
    if not (horizon > 0 and 0 < step <= horizon):
        raise ValueError("need 0 < step <= horizon")
    limit = step * (1.0 + 1e-12)
    runs = []
    t = 0.0
    while True:
        # t, t + h, t + 2h, ...: accumulate adds left to right, and a sum
        # past the largest float reads inf, as Python's float addition gives
        with np.errstate(over="ignore"):
            run = np.add.accumulate(np.concatenate([[t], np.full(_BLOCK_MAX, step)]))
        last = ~(horizon - run > limit)
        if last.any():
            runs.append(run[:int(last.argmax()) + 1])
            break
        runs.append(run[:-1])
        t = run[-1]
    times = np.concatenate([*runs, [horizon]])
    deltas = np.full(len(times) - 1, step, dtype=float)
    deltas[-1] = horizon - times[-2]
    return times, deltas


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
    # the pick, and whether the strategy's own rule made it
    if strategy == "exhaustive":
        return extend_exhaustive(chain, x_next, svmap, tol), True
    if strategy == "support":
        v = extend_support(chain, x_next, svmap)
        if extension_slack(chain, x_next, v) >= -tol:
            return v, True
    elif strategy == "inertial":
        v = extend_inertial(chain, x_next, svmap, tol)
        if v is not None:
            return v, True
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return extend_exhaustive(chain, x_next, svmap, tol), False


def _coast(tip, svmap, deltas, strategy, tol):
    """Steps from the tip that keep its velocity, as ``(count, nodes, sums, width)``.

    Guesses one node per step in ``deltas``, all at the tip velocity ``v``,
    evaluates them with one ``eval_many`` and returns the longest prefix that
    the per-step path would take with ``v`` too, and ``width``, the number of
    values at the first guessed node.  Every node of the prefix holds that
    node's value set ``S`` bit for bit, and there the strategy's rule, scored
    on all nodes at once by the per-step rules' own scorer
    (:func:`chains._rule_picks`), picks ``v`` bit for bit (``-0.0 == 0.0``,
    but the loop stores the map's own row) with no fallback; where ``S`` is
    one point, every rule takes it wherever its slack is not below ``-tol``.
    Everything one step forms there is finite, and the nodes and sums round
    as the loop's ``x + dt * v`` and :meth:`_ChainTip.extended` do, so a term
    past the largest float ends the prefix and the per-step path raises it
    at its own node.  The first node that breaks the prefix is left to the
    caller, and an ``eval_many`` that raises anywhere leaves the whole block
    to it.  The scoring reads at most ``_BLOCK_ELEMENTS`` (node, value)
    pairs, and one node at least.
    """
    x, v = tip.last_point, tip.last_velocity
    try:
        # an overflow only ends the prefix; the per-step path raises it at
        # its own node
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = np.add.accumulate(np.vstack([x, deltas[:, None] * v]))[1:]
        # under the caller's errstate, as the per-step path evaluates
        values, owner = svmap.eval_many(nodes)
        counts = np.bincount(owner, minlength=len(nodes))
        width = int(counts[0])
        # every node has a value, so the first with another count ends it
        n = min(int((counts != width).argmax()) or len(nodes), max(1, _BLOCK_ELEMENTS // width))
        nodes, S = nodes[:n], values[:width]
        with np.errstate(over="ignore", invalid="ignore"):
            steps = inner_rows(nodes - np.vstack([x, nodes[:-1]]), v)
            sums = np.add.accumulate(np.concatenate([[tip.last_sum], steps]))[1:]
            offsets = nodes - tip.anchor_point
            products = inner_rows(offsets[:, None], S)
            slacks = products - sums[:, None]
            if width == 1:
                slack = slacks[:, 0]
                pick, keep = 0, np.isfinite(slack) & ~(slack < -tol)
            else:
                pick, keep = _rule_picks(strategy, S, v, offsets,
                                         slacks if strategy == "exhaustive" else products, tol)
                picked = slacks[np.arange(n), pick]
                # where the per-step path takes the pick with no fallback
                keep &= np.isfinite(slacks).all(axis=1) & (
                    ~(picked < -tol) if strategy == "exhaustive" else picked >= -tol)
    except Exception:
        # the map raised somewhere in the block, or an underflow the caller
        # traps did: the per-step path raises it, or not, at its own node
        return 0, None, None, None
    rows = _bits(values[:n * width]).reshape(n, width, -1)
    keep &= (rows == rows[0]).all(axis=(1, 2)) & (rows[0] == _bits(v)).all(axis=1)[pick]
    count = n if keep.all() else int(keep.argmin())
    return count, nodes, sums, width


def _bits(a):
    # float entries as integers, equal only where the floats are bit for bit
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def euler_solve(spec: ProblemSpec) -> Trajectory:
    """Integrate the inclusion by Euler polygons with chain-preserving selection.

    ``support`` and ``inertial`` picks are checked at the final index and fall
    back to the exhaustive scan when they fail; consequently a
    :class:`SelectionFailed` from any strategy certifies that no value of the
    map extends the chain at that node within the tolerance.  Only the chain
    tip is carried, so each step costs the same however long the chain is.

    A node *coasts* when the strategy's own rule, not the exhaustive
    fallback, picks bit for bit the previous velocity there: a block keeps
    only such picks.  From a coasting node the solver guesses a block of
    steps at that velocity (:func:`_coast`), scores the whole block at once
    with the scorer the per-step rules use, and takes the prefix where the
    value set stays the same and the rule would take that velocity one step
    at a time; the node that breaks the prefix is selected alone.  A block
    holds 256 steps after a break and doubles after each full block, up to
    1024 and to at most ``_BLOCK_ELEMENTS`` (node, value) pairs at the width
    of the last block; after a block in which the map or the scoring raised,
    the next holds half as many steps, at least 1.  One block costs about
    as much fixed overhead as 256 guessed nodes, so a first block that
    breaks early wastes about one block's cost, and a long run takes few
    blocks.  Trajectories, errors and :class:`SelectionFailed` replay state
    equal those of selecting every node alone.
    """
    svmap = spec.map
    x0 = np.asarray(spec.x0, dtype=float)
    v0 = np.asarray(spec.v0, dtype=float)
    first = svmap.eval(x0)
    if not first.contains(v0):
        raise ValueError("v0: initial velocity not in F(x0)")
    times, deltas = time_grid(spec.horizon, spec.step)
    steps = deltas.tolist()
    tip = _ChainTip(x0, x0, v0, 0.0)
    states = [x0]
    velocities = [v0]
    k = 0
    block = _BLOCK_MIN
    # values per node in the last block evaluated, which caps the next one
    width = len(first)
    coasting = False
    try:
        # a chain term past the largest float raises, where it would leave
        # an inf or NaN slack that no comparison can trust
        with np.errstate(over="raise", invalid="raise"):
            while k < len(steps):
                if coasting:
                    size = min(block, len(steps) - k, max(1, _BLOCK_ELEMENTS // width))
                    count, nodes, sums, seen = _coast(tip, svmap, deltas[k:k + size],
                                                      spec.strategy, spec.tol)
                    width = seen or width
                    if count:
                        v = tip.last_velocity
                        tip = tip._replace(last_point=nodes[count - 1],
                                           last_sum=float(sums[count - 1]))
                        states.append(nodes[:count])
                        velocities.append(np.broadcast_to(v, (count, len(v))))
                    full = count == size
                    k += count
                    if seen is None:
                        block = max(1, size // 2)
                    else:
                        block = min(2 * block, _BLOCK_MAX) if full else _BLOCK_MIN
                    if full:
                        continue
                # Python floats round as numpy does but overflow without a
                # warning, so a node past the largest float is reported here
                dt = steps[k]
                node = [a + dt * b
                        for a, b in zip(tip.last_point.tolist(), tip.last_velocity.tolist())]
                if not all(map(math.isfinite, node)):
                    raise ValueError(
                        f"Euler node {k + 1} (t={float(times[k + 1])!r}) is not finite")
                x = np.array(node)
                v, ruled = _select(tip, x, svmap, spec.strategy, spec.tol)
                if v is None:
                    chain = Chain(np.vstack(states), np.vstack(velocities))
                    candidates = svmap.eval(x).points
                    slacks = list(zip(candidates, extension_slack(chain, x, candidates).tolist()))
                    raise SelectionFailed(k + 1, times[k + 1], x, chain, slacks,
                                          spec.strategy, spec.tol)
                coasting = ruled and v.tobytes() == tip.last_velocity.tobytes()
                tip = tip.extended(x, v)
                states.append(x)
                velocities.append(v)
                k += 1
    except FloatingPointError as exc:
        raise ValueError(
            f"Euler node {k + 1} (t={float(times[k + 1])!r}) leaves the float range: {exc}"
        ) from None
    return Trajectory(np.array(times), np.vstack(states), np.vstack(velocities),
                      spec.step, spec.strategy)


def trajectory_residual(traj: Trajectory, svmap: SetValuedMap, hull_tol: float = 1e-9):
    """Worst node distances from velocities to values and to their hulls.

    Returns ``(node_residual, hull_residual)``; the hull residual never
    exceeds the node residual.  Both are zero for solver output.  The map is
    evaluated afresh with :meth:`SetValuedMap.eval_many`, a block of nodes
    at a time, so an error from evaluating the map anywhere in a block is
    raised before the hull step of any node in that block.
    """
    node = 0.0
    hull = 0.0
    for lo in range(0, traj.node_count(), _RESIDUAL_BLOCK):
        velocities = traj.velocities[lo:lo + _RESIDUAL_BLOCK]
        values, owner = svmap.eval_many(traj.states[lo:lo + _RESIDUAL_BLOCK])
        diffs = values - velocities[owner]
        # every node has a value, so node i owns rows bounds[i] to bounds[i + 1]
        bounds = np.append(np.flatnonzero(np.diff(owner, prepend=-1)), len(owner))
        gaps = np.sqrt(np.minimum.reduceat(inner_rows(diffs, diffs), bounds[:-1]))
        # fmax skips a NaN gap, as max(node, gap) node by node would
        node = max(node, float(np.fmax.reduce(gaps)))
        # a member is its own nearest hull point: dist_to_hull would start at
        # the zero vector and return exactly 0.0
        for i in np.flatnonzero(gaps > 0.0):
            own = CompactSet(values[bounds[i]:bounds[i + 1]])
            hull = max(hull, dist_to_hull(velocities[i], own, hull_tol))
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
    # one row per time, each column interpolated and clamped by np.interp
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


def horizon_hint(svmap: SetValuedMap, x0, radius: float) -> float:
    """Suggested horizon ``radius / bound`` keeping polygons in the ball.

    Advisory only; nothing in the solver applies it automatically.  Raises
    :class:`ValueError` for a map built without a bound rule; every built-in
    constructor supplies one.
    """
    with np.errstate(over="ignore"):
        # a bound past the largest float reads inf, and the hint 0.0
        bound = svmap.local_bound(np.asarray(x0, dtype=float), radius)
    if bound == 0.0:
        return float("inf")
    return radius / bound
