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
new velocity aligned with the previous one.  Classifiers decide the
monotonicity hierarchy over finite sample sets: the pairwise classes by
enumeration, the chain classes on one (point, value) graph, by a max-plus
dynamic program or a batched breadth-first search.  Their verdicts are
relative to the samples and every negative verdict carries a witness that can
be replayed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import inner, inner_rows, nearest_point, support_argmax, support_value
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
        xs = np.concatenate([self.xs, x])
        vs = np.concatenate([self.vs, v])
        step = inner(xs[-1] - self.xs[-1], self.vs[-1])
        sums = np.concatenate([self.sums, [self.last_sum + step]])
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
    """Pairwise monotonicity ``<x - y, v_x - v_y> >= -tol`` over the samples.

    The map is evaluated at a sample when the pair loop first reaches it, so
    an over-budget run stops evaluating once the budget is spent.
    """
    pts = _as_points(samples)
    values = []
    meter = _Budget(budget)
    for i, j in itertools.combinations(range(len(pts)), 2):
        while len(values) <= j:
            values.append(svmap.eval(pts[len(values)]).points)
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


# array entries per block in the chain kernels
_BLOCK_ELEMENTS = 1 << 16


class _ChainGraph:
    """The (point, value) nodes of a map on the samples and their chain terms.

    Node ``a`` pairs the point ``X[a]`` with a value ``V[a]`` of the map there,
    in sample order and then value order; the nodes of sample ``i`` are
    ``start[i]:start[i + 1]`` and ``owner[a]`` is the sample of node ``a``.  A
    chain through nodes ``a_0, ..., a_m`` has step sums
    ``W[a_0, a_1] + ... + W[a_{m-1}, a_m]`` (added left to right) and final
    anchored term ``E[owner[a_0], a_m]``, where

        W[a, b] = <X[b] - X[a], V[a]>,    E[i, b] = <X[b] - x_i, V[b]>.

    Both come from :func:`inner_rows` over the difference vectors, built in
    row blocks so that only ``W`` (``K x K`` for ``K`` nodes) and ``E``
    (samples by nodes) are held whole; every term equals the scalar
    :func:`inner` of :class:`Chain` and :func:`verify_chain` bit for bit.
    """

    __slots__ = ("start", "owner", "X", "V", "W", "E")

    def __init__(self, svmap, pts):
        values = [svmap.eval(p).points for p in pts]
        counts = [len(v) for v in values]
        self.start = np.concatenate([[0], np.cumsum(counts)])
        self.owner = np.repeat(np.arange(len(pts)), counts)
        self.X = np.repeat(np.array(pts), counts, axis=0)
        self.V = np.concatenate(values)
        self.W = self._terms(self.X, self.V[:, None, :])
        self.E = self._terms(np.array(pts), self.V[None, :, :])

    def _terms(self, tails, velocities):
        # <X[b] - tails[r], velocities[r, b]> for every row r and node b
        K, d = self.X.shape
        velocities = np.broadcast_to(velocities, (len(tails), K, d))
        out = np.empty((len(tails), K))
        block = max(1, _BLOCK_ELEMENTS // (K * d))
        for lo in range(0, len(tails), block):
            diffs = self.X[None, :, :] - tails[lo:lo + block, None, :]
            out[lo:lo + block] = inner_rows(diffs, velocities[lo:lo + block])
        return out


class _MaxPlusPaths:
    """Worst anchored chain slacks over a grouped node graph, by max-plus DP.

    Chains of ``m`` steps run through nodes of ``m + 1`` groups (contiguous
    node ranges ``start[g]:start[g + 1]``), with step weights ``W`` and end
    weights ``E[g_0]`` of the anchor group.  They are ordered by ``m``, then
    by group tuple, then by node tuple within the groups, both
    lexicographically; a chain violates when ``E[g_0, a_m] - sums < -tol``.

    Because float addition is monotone, ``max_a fl(S[a] + W[a, b])`` over the
    best sums ``S`` of shorter chains is exactly the largest left-to-right sum
    of any chain ending at ``b``, and ``fl(E - S)`` is then its smallest
    slack.  So one forward pass per anchor decides every length at ``O(K^2)``
    per step, and a depth-first descent with the same pass as an existence
    test finds the first violating chain in the order above.
    """

    def __init__(self, W, E, start, tol):
        self.W, self.E, self.tol = W, E, tol
        self.start = [int(s) for s in start]
        self.size = W.shape[0]
        self.groups = len(start) - 1
        self.every = [(0, self.size)]

    def _advance(self, S, ranges):
        # best sums after one step into each node range in turn
        for lo, hi in ranges:
            nxt = np.full(self.size, -np.inf)
            nxt[lo:hi] = np.max(S[:, None] + self.W[:, lo:hi], axis=0)
            S = nxt
        return S

    def _violates(self, S, g0) -> bool:
        return bool(np.any(self.E[g0] - S < -self.tol))

    def _group(self, g):
        return (self.start[g], self.start[g + 1])

    def _seed(self, lo, hi):
        S = np.full(self.size, -np.inf)
        S[lo:hi] = 0.0
        return S

    def first_violation(self, max_length, budget=math.inf):
        """``(chains up to and including it, its nodes)`` or ``(count, None)``.

        Raises :class:`BudgetExceededError` exactly when enumerating the
        chains one by one would pass ``budget`` before reaching a violation;
        anchors whose chains start past it are skipped.
        """
        K, n = self.size, self.groups
        # chains of fewer than m steps, listed up to the first count past
        # the budget: every longer length lies past it too
        shorter = [0, 0]
        while len(shorter) < max_length + 2 and shorter[-1] <= budget:
            shorter.append(shorter[-1] + K ** len(shorter))

        def past_budget(m, g0):
            # the first chain of m steps anchored in g0 lies beyond the budget
            return m >= len(shorter) or shorter[m] + self.start[g0] * K ** m >= budget

        found = None  # (m, g0) of the first violation seen so far
        for g0 in range(n):
            if past_budget(1, g0):
                break
            reach = max_length if found is None else found[0] - 1
            S = self._seed(*self._group(g0))
            for m in range(1, reach + 1):
                if past_budget(m, g0):
                    break
                S = self._advance(S, self.every)
                if self._violates(S, g0):
                    found = (m, g0)
                    break
        if found is None:
            if max_length + 1 >= len(shorter) or shorter[max_length + 1] > budget:
                raise BudgetExceededError(budget + 1, budget)
            return shorter[max_length + 1], None
        m, g0 = found
        groups = self._first_groups(m, g0)
        nodes = self._first_nodes(groups)
        # chains of shorter length, of earlier group tuples, of earlier node
        # tuples on these groups, and this one
        sizes = [self.start[g + 1] - self.start[g] for g in groups]
        rank = shorter[m] + 1
        for j, (g, a) in enumerate(zip(groups, nodes)):
            rank += math.prod(sizes[:j]) * self.start[g] * K ** (m - j)
            rank += (a - self.start[g]) * math.prod(sizes[j + 1:])
        if rank > budget:
            raise BudgetExceededError(budget + 1, budget)
        return rank, nodes

    def _first_groups(self, m, g0):
        # lexicographically first group tuple with a violating chain
        groups = [g0]
        S = self._seed(*self._group(g0))
        for j in range(1, m + 1):
            for g in range(self.groups):
                T = self._advance(S, [self._group(g)])
                if self._violates(self._advance(T, self.every * (m - j)), g0):
                    groups.append(g)
                    S = T
                    break
        return groups

    def _first_nodes(self, groups):
        # lexicographically first node tuple on those groups that violates
        ranges = [self._group(g) for g in groups]
        nodes = []
        S = None
        for j, (lo, hi) in enumerate(ranges):
            for a in range(lo, hi):
                T = self._seed(a, a + 1) if S is None else self._advance(S, [(a, a + 1)])
                if self._violates(self._advance(T, ranges[j + 1:]), groups[0]):
                    nodes.append(a)
                    S = T
                    break
        return nodes


def classify_cyclic_monotone(svmap, samples, max_length, tol=DEFAULT_TOL,
                             budget=DEFAULT_CHAIN_BUDGET):
    """Cyclic monotonicity over chains drawn from the samples.

    Covers every point tuple of up to ``max_length + 1`` samples (with
    repetition) and every combination of map values on it, checking the chain
    inequality at the final index; shorter tuples cover the earlier indices.
    A max-plus dynamic program over the (point, value) graph decides this in
    ``O(n * max_length * K^2)`` for ``n`` samples and ``K`` nodes, and the
    report reads as if the ``K^(m+1)`` chains of each length ``m`` had been
    enumerated in order: the witness is the first violating chain and
    ``chains_checked`` its position.  The verdict is relative to the samples:
    ``holds`` certifies nothing off the grid, and a witness chain refutes the
    property globally.
    """
    pts = _as_points(samples)
    graph = _ChainGraph(svmap, pts)
    paths = _MaxPlusPaths(graph.W, graph.E, graph.start, tol)
    checked, nodes = paths.first_violation(max_length, budget)
    details = {"max_length": max_length, "chains_checked": checked}
    if nodes is None:
        return ClassReport("cyclic_monotone", True, None, tol, _describe_samples(pts), details)
    rhs = 0.0
    for a, b in zip(nodes, nodes[1:]):
        rhs += float(graph.W[a, b])
    witness = {
        "points": graph.X[nodes].tolist(),
        "velocities": graph.V[nodes].tolist(),
        "index": len(nodes) - 1,
        "slack": float(graph.E[graph.owner[nodes[0]], nodes[-1]]) - rhs,
    }
    return ClassReport("cyclic_monotone", False, witness, tol, _describe_samples(pts), details)


def classify_weak_cyclic_monotone(svmap, samples, max_length, tol=DEFAULT_TOL,
                                  budget=DEFAULT_CHAIN_BUDGET):
    """Extendability of every sampled chain to every next sample point.

    Breadth-first enumeration of all verified chains of up to ``max_length``
    pairs built from the samples, anchored at every (sample, value) pair.  The
    property holds when :func:`extend_exhaustive` succeeds for every chain and
    every next sample point; a failure is returned as a (chain, next point)
    witness.  Each level is checked against all ``K`` nodes at once, in
    blocks of chains, carrying only each chain's node path and step sum;
    ``extensions_checked`` counts one check per chain and node, in queue
    order.
    """
    pts = _as_points(samples)
    graph = _ChainGraph(svmap, pts)
    K = len(graph.V)
    firsts = graph.start[:-1]
    # chains whose first check falls within the budget
    cap = (budget - 1) // K + 1
    block = max(1, _BLOCK_ELEMENTS // K)
    done = 0
    paths, sums = np.arange(K)[:, None], np.zeros(K)
    while len(paths):
        room = cap - done
        grow = paths.shape[1] < max_length
        kids_paths, kids_sums, kids = [], [], 0
        for lo in range(0, min(len(paths), room), block):
            rows = paths[lo:min(lo + block, room)]
            stepped = sums[lo:lo + len(rows), None] + graph.W[rows[:, -1]]
            slack = graph.E[graph.owner[rows[:, 0]]] - stepped
            best = np.maximum.reduceat(slack, firsts, axis=1)
            stuck = np.flatnonzero(best < -tol)
            if stuck.size:
                r, j = divmod(int(stuck[0]), len(pts))
                used = (done + lo + r) * K + int(graph.start[j + 1])
                if used > budget:
                    raise BudgetExceededError(budget + 1, budget)
                witness = {
                    "points": graph.X[rows[r]].tolist(),
                    "velocities": graph.V[rows[r]].tolist(),
                    "next_point": pts[j].tolist(),
                    "best_slack": float(best[r, j]),
                }
                return ClassReport(
                    "weak_cyclic_monotone", False, witness, tol, _describe_samples(pts),
                    {"max_length": max_length, "extensions_checked": used},
                )
            if grow and kids <= room - len(paths):
                r, b = np.nonzero(slack >= -tol)
                kids_paths.append(np.column_stack([rows[r], b]))
                kids_sums.append(stepped[r, b])
                kids += len(r)
        if len(paths) > room:
            raise BudgetExceededError(budget + 1, budget)
        done += len(paths)
        if not kids_paths:
            break
        paths, sums = np.concatenate(kids_paths), np.concatenate(kids_sums)
    used = done * K
    if used > budget:
        raise BudgetExceededError(budget + 1, budget)
    return ClassReport(
        "weak_cyclic_monotone", True, None, tol, _describe_samples(pts),
        {"max_length": max_length, "extensions_checked": used},
    )


def check_support_chain(svmap, samples, max_length, tol=DEFAULT_TOL,
                        budget=DEFAULT_CHAIN_BUDGET):
    """Support-function chain inequality along every sample sequence.

    For a sequence x_0..x_m of samples, ``1 <= m <= max_length``, the
    condition is

        support(F(x_m), x_m - x_0) >= sum_i support(F(x_{i-1}), x_i - x_{i-1})

    with slack ``>= -tol``.  When it holds along every sequence a run visits,
    :func:`extend_support` selections never break the chain inequality.  The
    same max-plus program as :func:`classify_cyclic_monotone` runs over the
    samples with support values as weights; the witness is the first
    violating sequence in length-then-lexicographic order and
    ``sequences_checked`` its position.  Raises :class:`BudgetExceededError`
    up front when some length has more than ``budget`` sequences.
    """
    pts = _as_points(samples)
    n = len(pts)
    for length in range(2, max_length + 2):
        if n ** length > budget:
            raise BudgetExceededError(n ** length, budget)
    graph = _ChainGraph(svmap, pts)
    firsts = graph.start[:-1]
    # support(F(x_i), x_j - x_i) and support(F(x_j), x_j - x_0) per sample
    steps = np.maximum.reduceat(graph.W[:, firsts], firsts, axis=0)
    ends = np.maximum.reduceat(graph.E, firsts, axis=1)
    paths = _MaxPlusPaths(steps, ends, np.arange(n + 1), tol)
    checked, seq = paths.first_violation(max_length)
    samples_text = f"{sum(n ** length for length in range(2, max_length + 2))} sequences"
    if seq is None:
        return ClassReport(
            "support_chain", True, None, tol, samples_text, {"sequences_checked": checked},
        )
    rhs = 0.0
    for i, j in zip(seq, seq[1:]):
        rhs += float(steps[i, j])
    witness = {"points": [pts[i].tolist() for i in seq],
               "lhs": float(ends[seq[0], seq[-1]]), "rhs": rhs}
    return ClassReport(
        "support_chain", False, witness, tol, samples_text, {"sequences_checked": checked},
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
