"""Cyclically monotone chains: verification, extension, classification.

A chain is a finite sequence of (point, velocity) pairs.  It is cyclically
monotone when for every index m

    <x_m - x_0, v_m>  >=  sum_{i=1..m} <x_i - x_{i-1}, v_{i-1}>,

i.e. the anchored inner product of each velocity dominates the running sum of
step inner products.  A single pair is cyclically monotone by definition, and
truncating a chain preserves the property because the per-index inequalities
do not change.  The right-hand sums are cached on the chain so that appending
a pair costs one inner product.

Extension strategies offer three ways to continue a chain to a new point with
a velocity from a set-valued map: exhaustive slack maximization, support
maximization in the anchored direction, and an inertial rule that keeps the
new velocity aligned with the previous one.  Classifiers brute-force the
monotonicity hierarchy over finite sample sets; their verdicts are relative to
the samples and every negative verdict carries a witness that can be replayed.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import CompactSet, inner, nearest_point, support_argmax, support_value
from .setmaps import SetValuedMap

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_CHAIN_BUDGET",
    "BudgetExceededError",
    "Chain",
    "extension_slack",
    "verify_chain",
    "extend_exhaustive",
    "extend_support",
    "extend_inertial",
    "ClassReport",
    "classify_monotone",
    "classify_weakly_monotone",
    "classify_cyclic_monotone",
    "classify_weak_cyclic_monotone",
    "check_support_chain",
    "replay_witness",
]

DEFAULT_TOL = 1e-9

# hard cap on brute-force work per classification call; override per call or
# through the CLI environment variable
DEFAULT_CHAIN_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """A classifier hit its combinatorial budget before reaching a verdict."""

    def __init__(self, evaluated: int, budget: int):
        super().__init__(
            f"combinatorial budget exceeded: {evaluated} chains evaluated, cap {budget}"
        )
        self.evaluated = evaluated
        self.budget = budget


class Chain:
    """Immutable (point, velocity) sequence with cached step sums.

    ``sums[m]`` is the running sum of ``<x_i - x_{i-1}, v_{i-1}>`` for
    ``i = 1..m``; ``sums[0] == 0``.
    """

    __slots__ = ("xs", "vs", "sums")

    def __init__(self, xs, vs):
        xs = np.array(xs, dtype=float)
        vs = np.array(vs, dtype=float)
        if xs.ndim == 1:
            xs = xs.reshape(-1, 1)
        if vs.ndim == 1:
            vs = vs.reshape(-1, 1)
        if xs.shape != vs.shape or xs.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] < 1:
            raise ValueError("points and velocities must align, one pair minimum")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("chain entries must be finite")
        sums = np.zeros(xs.shape[0])
        for m in range(1, xs.shape[0]):
            sums[m] = sums[m - 1] + inner(xs[m] - xs[m - 1], vs[m - 1])
        for a in (xs, vs, sums):
            a.flags.writeable = False
        self.xs = xs
        self.vs = vs
        self.sums = sums

    @classmethod
    def from_pairs(cls, pairs) -> "Chain":
        pairs = list(pairs)
        return cls([p for p, _ in pairs], [v for _, v in pairs])

    @classmethod
    def _trusted(cls, xs, vs, sums) -> "Chain":
        # internal: arrays already validated and frozen, sums already cached
        out = object.__new__(cls)
        out.xs, out.vs, out.sums = xs, vs, sums
        return out

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def anchor_point(self) -> np.ndarray:
        return self.xs[0]

    @property
    def anchor_velocity(self) -> np.ndarray:
        return self.vs[0]

    @property
    def last_point(self) -> np.ndarray:
        return self.xs[-1]

    @property
    def last_velocity(self) -> np.ndarray:
        return self.vs[-1]

    @property
    def last_sum(self) -> float:
        return float(self.sums[-1])

    def pair(self, i) -> tuple:
        return self.xs[i], self.vs[i]

    def prefix(self, count: int) -> "Chain":
        """First ``count`` pairs, sharing this chain's cached sums."""
        if not (1 <= count <= len(self)):
            raise ValueError("prefix length out of range")
        return Chain._trusted(self.xs[:count], self.vs[:count], self.sums[:count])

    def extended(self, x, v) -> "Chain":
        """New chain with the pair appended."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        v = np.asarray(v, dtype=float).reshape(1, -1)
        if x.shape[1] != self.dimension:
            raise ValueError("dimension mismatch in extension")
        xs = np.vstack([self.xs, x])
        vs = np.vstack([self.vs, v])
        sums = np.append(self.sums, self.last_sum + inner(xs[-1] - self.xs[-1], self.vs[-1]))
        for a in (xs, vs, sums):
            a.flags.writeable = False
        return Chain._trusted(xs, vs, sums)

    def to_dict(self) -> dict:
        return {"points": self.xs.tolist(), "velocities": self.vs.tolist()}

    @classmethod
    def from_dict(cls, d) -> "Chain":
        return cls(d["points"], d["velocities"])

    def __repr__(self):
        return f"Chain({len(self)} pairs, dim {self.dimension})"


def verify_chain(chain: Chain, tol: float = 0.0):
    """Check the chain inequality at every index.

    Returns ``(True, None)`` or ``(False, m)`` with the first index whose
    slack ``<x_m - x_0, v_m> - sums[m]`` drops below ``-tol``.  With
    ``tol=0`` the comparison is sign-exact in floating point.
    """
    for m in range(1, len(chain)):
        slack = inner(chain.xs[m] - chain.xs[0], chain.vs[m]) - chain.sums[m]
        if slack < -tol:
            return False, m
    return True, None


def extension_slack(chain: Chain, x_next, v) -> float:
    """Final-index slack of the chain extended by ``(x_next, v)``.

    Appending only adds one inequality, so this slack alone decides whether a
    verified chain stays verified.
    """
    x_next = np.asarray(x_next, dtype=float)
    new_sum = chain.last_sum + inner(x_next - chain.last_point, chain.last_velocity)
    return inner(x_next - chain.anchor_point, v) - new_sum


def extend_exhaustive(chain: Chain, x_next, svmap: SetValuedMap, tol: float = DEFAULT_TOL):
    """Best velocity at ``x_next`` by slack, or ``None`` if all fall short.

    Scans every value of the map, maximizing :func:`extension_slack` (ties
    lexicographic).  A returned velocity keeps the extended chain verified at
    the same tolerance.
    """
    candidates = svmap.eval(x_next).points
    slacks = [extension_slack(chain, x_next, v) for v in candidates]
    best = max(slacks)
    if best < -tol:
        return None
    ties = [i for i, s in enumerate(slacks) if s == best]
    pick = min(ties, key=lambda i: tuple(candidates[i]))
    return candidates[pick]


def extend_support(chain: Chain, x_next, svmap: SetValuedMap) -> np.ndarray:
    """Support-maximizing velocity in the anchored direction ``x_next - x_0``.

    Always returns a velocity; it keeps the chain verified whenever the map
    satisfies the support-chain condition along the visited points (see
    :func:`check_support_chain`), so callers re-verify otherwise.  When
    ``x_next`` equals the anchor exactly the direction degenerates and the
    value nearest the last velocity is returned instead.
    """
    x_next = np.asarray(x_next, dtype=float)
    values = svmap.eval(x_next)
    if np.array_equal(x_next, chain.anchor_point):
        return nearest_point(chain.last_velocity, values)
    return support_argmax(x_next - chain.anchor_point, values)


def extend_inertial(chain: Chain, x_next, svmap: SetValuedMap, tol: float = DEFAULT_TOL):
    """Velocity aligned with the previous one, or ``None``.

    Among values with ``<x_next - x_0, v - v_last> >= -tol`` the one nearest
    ``v_last`` is picked (ties lexicographic).  That alignment plus the chain's
    own inequality at its last index bound the new final-index slack only by
    ``-2 * tol``, so the pick is returned only when its
    :func:`extension_slack` is ``>= -tol``; then a verified chain stays
    verified at the same tolerance.  ``None`` means no aligned value passes.
    """
    x_next = np.asarray(x_next, dtype=float)
    pts = svmap.eval(x_next).points
    d = x_next - chain.anchor_point
    feasible = [i for i, v in enumerate(pts) if inner(d, v - chain.last_velocity) >= -tol]
    if not feasible:
        return None
    dists = {i: inner(pts[i] - chain.last_velocity, pts[i] - chain.last_velocity) for i in feasible}
    best = min(dists.values())
    ties = [i for i in feasible if dists[i] == best]
    v = pts[min(ties, key=lambda i: tuple(pts[i]))]
    if extension_slack(chain, x_next, v) < -tol:
        return None
    return v


# ---------------------------------------------------------------------------
# classification

@dataclass
class ClassReport:
    """Verdict of one brute-force classification run.

    ``holds`` is relative to the sampled points and tolerance recorded here.
    A negative verdict always carries a ``witness`` dictionary with enough
    data to replay the violated inequality (:func:`replay_witness`).
    """

    name: str
    holds: bool
    witness: dict | None
    tol: float
    samples: str
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "class": self.name,
            "holds": self.holds,
            "witness": self.witness,
            "tol": self.tol,
            "samples": self.samples,
            "details": self.details,
        }

    def to_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _describe_samples(samples) -> str:
    dim = len(samples[0]) if samples else 0
    return f"{len(samples)} points in R^{dim}"


def _as_points(samples):
    pts = [np.asarray(p, dtype=float) for p in samples]
    if not pts:
        raise ValueError("need at least one sample point")
    return pts


class _Budget:
    __slots__ = ("used", "cap")

    def __init__(self, cap):
        self.used = 0
        self.cap = cap

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceededError(self.used, self.cap)


def classify_monotone(svmap, samples, tol=DEFAULT_TOL, budget=DEFAULT_CHAIN_BUDGET):
    """Pairwise monotonicity ``<x - y, v_x - v_y> >= -tol`` over the samples."""
    pts = _as_points(samples)
    values = [svmap.eval(p).points for p in pts]
    meter = _Budget(budget)
    for i, j in itertools.combinations(range(len(pts)), 2):
        for vx in values[i]:
            for vy in values[j]:
                meter.spend()
                gap = inner(pts[i] - pts[j], vx - vy)
                if gap < -tol:
                    witness = {
                        "x": pts[i].tolist(),
                        "y": pts[j].tolist(),
                        "v_x": vx.tolist(),
                        "v_y": vy.tolist(),
                        "gap": gap,
                    }
                    return ClassReport(
                        "monotone", False, witness, tol, _describe_samples(pts),
                        {"pairs_checked": meter.used},
                    )
    return ClassReport(
        "monotone", True, None, tol, _describe_samples(pts), {"pairs_checked": meter.used}
    )


def classify_weakly_monotone(svmap, samples, tol=DEFAULT_TOL, budget=DEFAULT_CHAIN_BUDGET):
    """For-all/exists monotonicity: each (x, v_x, y) admits a matching v_y."""
    pts = _as_points(samples)
    values = [svmap.eval(p).points for p in pts]
    meter = _Budget(budget)
    for i, x in enumerate(pts):
        for vx in values[i]:
            for j, y in enumerate(pts):
                if i == j:
                    continue
                meter.spend()
                best = max(inner(x - y, vx - vy) for vy in values[j])
                if best < -tol:
                    witness = {"x": x.tolist(), "y": y.tolist(), "v_x": vx.tolist(), "best_gap": best}
                    return ClassReport(
                        "weakly_monotone", False, witness, tol, _describe_samples(pts),
                        {"pairs_checked": meter.used},
                    )
    return ClassReport(
        "weakly_monotone", True, None, tol, _describe_samples(pts), {"pairs_checked": meter.used}
    )


def classify_cyclic_monotone(svmap, samples, max_length, tol=DEFAULT_TOL,
                             budget=DEFAULT_CHAIN_BUDGET):
    """Brute-force cyclic monotonicity over chains drawn from the samples.

    Enumerates every point tuple of up to ``max_length + 1`` samples (with
    repetition) and every combination of map values on it, checking the chain
    inequality at the final index; shorter tuples cover the earlier indices.
    The verdict is relative to the samples: ``holds`` certifies nothing off
    the grid, and a witness chain refutes the property globally.
    """
    pts = _as_points(samples)
    values = [svmap.eval(p).points for p in pts]
    meter = _Budget(budget)
    n = len(pts)
    for m in range(1, max_length + 1):
        for idxs in itertools.product(range(n), repeat=m + 1):
            xs = [pts[i] for i in idxs]
            steps = [xs[i] - xs[i - 1] for i in range(1, m + 1)]
            final = xs[m] - xs[0]
            for combo in itertools.product(*(range(len(values[i])) for i in idxs)):
                meter.spend()
                vs = [values[i][c] for i, c in zip(idxs, combo)]
                rhs = 0.0
                for i in range(1, m + 1):
                    rhs += inner(steps[i - 1], vs[i - 1])
                slack = inner(final, vs[m]) - rhs
                if slack < -tol:
                    witness = {
                        "points": [x.tolist() for x in xs],
                        "velocities": [v.tolist() for v in vs],
                        "index": m,
                        "slack": slack,
                    }
                    return ClassReport(
                        "cyclic_monotone", False, witness, tol, _describe_samples(pts),
                        {"max_length": max_length, "chains_checked": meter.used},
                    )
    return ClassReport(
        "cyclic_monotone", True, None, tol, _describe_samples(pts),
        {"max_length": max_length, "chains_checked": meter.used},
    )


def classify_weak_cyclic_monotone(svmap, samples, max_length, tol=DEFAULT_TOL,
                                  budget=DEFAULT_CHAIN_BUDGET):
    """Extendability of every sampled chain to every next sample point.

    Breadth-first enumeration of all verified chains of up to ``max_length``
    pairs built from the samples, anchored at every (sample, value) pair.  The
    property holds when :func:`extend_exhaustive` succeeds for every chain and
    every next sample point; a failure is returned as a (chain, next point)
    witness.
    """
    pts = _as_points(samples)
    values = [svmap.eval(p).points for p in pts]
    meter = _Budget(budget)
    queue = deque(
        Chain([pts[i]], [v]) for i in range(len(pts)) for v in values[i]
    )
    while queue:
        chain = queue.popleft()
        for j, x_next in enumerate(pts):
            feasible = []
            best = -np.inf
            for v in values[j]:
                meter.spend()
                s = extension_slack(chain, x_next, v)
                best = max(best, s)
                if s >= -tol:
                    feasible.append(v)
            if best < -tol:
                witness = {
                    "points": chain.xs.tolist(),
                    "velocities": chain.vs.tolist(),
                    "next_point": x_next.tolist(),
                    "best_slack": float(best),
                }
                return ClassReport(
                    "weak_cyclic_monotone", False, witness, tol, _describe_samples(pts),
                    {"max_length": max_length, "extensions_checked": meter.used},
                )
            if len(chain) < max_length:
                for v in feasible:
                    queue.append(chain.extended(x_next, v))
    return ClassReport(
        "weak_cyclic_monotone", True, None, tol, _describe_samples(pts),
        {"max_length": max_length, "extensions_checked": meter.used},
    )


def check_support_chain(svmap, point_sequences, tol=DEFAULT_TOL):
    """Support-function chain inequality along given point sequences.

    For a sequence x_0..x_m the condition is

        support(F(x_m), x_m - x_0) >= sum_i support(F(x_{i-1}), x_i - x_{i-1})

    with slack ``>= -tol``.  When it holds along every sequence a run visits,
    :func:`extend_support` selections never break the chain inequality.
    """
    sequences = [_as_points(seq) for seq in point_sequences]
    checked = 0
    for seq in sequences:
        if len(seq) < 2:
            continue
        checked += 1
        lhs = support_value(seq[-1] - seq[0], svmap.eval(seq[-1]))
        rhs = 0.0
        for i in range(1, len(seq)):
            rhs += support_value(seq[i] - seq[i - 1], svmap.eval(seq[i - 1]))
        if lhs - rhs < -tol:
            witness = {"points": [p.tolist() for p in seq], "lhs": lhs, "rhs": rhs}
            return ClassReport(
                "support_chain", False, witness, tol,
                f"{len(sequences)} sequences", {"sequences_checked": checked},
            )
    return ClassReport(
        "support_chain", True, None, tol,
        f"{len(sequences)} sequences", {"sequences_checked": checked},
    )


def replay_witness(svmap, report: ClassReport, tol=None) -> bool:
    """Recheck a negative verdict's witness; true when it still fails."""
    if report.holds or report.witness is None:
        raise ValueError("only negative verdicts carry witnesses")
    tol = report.tol if tol is None else tol
    w = report.witness
    if report.name == "monotone":
        gap = inner(np.array(w["x"]) - np.array(w["y"]),
                    np.array(w["v_x"]) - np.array(w["v_y"]))
        return gap < -tol
    if report.name == "weakly_monotone":
        x, y, vx = np.array(w["x"]), np.array(w["y"]), np.array(w["v_x"])
        best = max(inner(x - y, vx - vy) for vy in svmap.eval(y).points)
        return best < -tol
    if report.name == "cyclic_monotone":
        ok, _ = verify_chain(Chain(w["points"], w["velocities"]), tol)
        return not ok
    if report.name == "weak_cyclic_monotone":
        chain = Chain(w["points"], w["velocities"])
        ok, _ = verify_chain(chain, tol)
        if not ok:
            return False  # witness chain must itself be verified
        return extend_exhaustive(chain, np.array(w["next_point"]), svmap, tol) is None
    if report.name == "support_chain":
        seq = [np.array(p) for p in w["points"]]
        lhs = support_value(seq[-1] - seq[0], svmap.eval(seq[-1]))
        rhs = sum(
            support_value(seq[i] - seq[i - 1], svmap.eval(seq[i - 1]))
            for i in range(1, len(seq))
        )
        return lhs - rhs < -tol
    raise ValueError(f"unknown report class {report.name!r}")
