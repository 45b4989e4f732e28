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
monotonicity hierarchy over finite sample sets on one (point, value) graph:
the pairwise classes by scans, the chain classes by a max-plus
dynamic program or a batched breadth-first search.  Their verdicts are
relative to the samples and every negative verdict carries a witness that can
be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import _best_row, inner, inner_rows, support_value
from .setmaps import SetValuedMap, _json_bytes, _point_rows

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
        # left-to-right running sums from 0.0, as Chain.extended adds them
        sums = np.cumsum(np.concatenate([[0.0], inner_rows(xs[1:] - xs[:-1], vs[:-1])]))
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
    slack ``<x_m - x_0, v_m> - sums[m]`` is not at least ``-tol``, a NaN
    slack of overflowing terms included.  With ``tol=0`` the comparison is
    sign-exact in floating point.  The slacks are one :func:`inner` scan over
    the rows, each rounding as that index's scalar expression does.  Where
    the caller's errstate raises on overflow or an invalid operation, this
    raises at the index where checking the indices in order would, and not
    for an index past the first failing one.  The same holds for an
    underflow where the caller's errstate does not ignore it.
    """
    xs, vs, sums = chain.xs, chain.vs, chain.sums
    if len(sums) < 2:
        return True, None
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        slacks = inner(xs[1:] - xs[0], vs[1:]) - sums[1:]
    held = slacks >= -tol
    ok = held.all()
    # the last index checked: the first that fails, or the last one
    stop = len(slacks) if ok else int(held.argmin()) + 1
    # form indices up to the stop again, in order, under the caller's
    # errstate: every one where it heeds an underflow, which leaves no trace
    # in the slacks, and otherwise those whose slack is not finite, which an
    # overflow or inf - inf in an offset, product or slack leaves
    if np.geterr()["under"] != "ignore":
        replay = range(1, stop + 1)
    else:
        finite = np.isfinite(slacks[:stop])
        replay = () if finite.all() else np.flatnonzero(~finite) + 1
    for m in replay:
        inner(xs[m] - xs[0], vs[m]) - sums[m]
    return (True, None) if ok else (False, stop)


def extension_slack(chain: Chain, x_next, v):
    """Final-index slack of the chain extended by ``(x_next, v)``.

    Appending only adds one inequality, so this slack alone decides whether a
    verified chain stays verified.  ``v`` may also be a stack of velocities,
    one per row; the result is then one slack per row.
    """
    x_next = np.asarray(x_next, dtype=float)
    new_sum = chain.last_sum + inner(x_next - chain.last_point, chain.last_velocity)
    return inner_rows(x_next - chain.anchor_point, v) - new_sum


def _rule_picks(strategy, S, v, offsets, scores, tol):
    """The row of ``S`` that ``strategy``'s rule picks at each of n nodes.

    The nodes share the value set ``S`` and the last velocity ``v``, and
    ``offsets`` holds each node less the anchor, one row per node.
    Exhaustive scores by ``scores``, the final-index slacks, and support by
    ``scores``, the products ``inner_rows(offsets[:, None], S)``, or at a
    node that equals the anchor by the nearness ``-|s - v|^2``; inertial
    scores by the nearness over the values with ``<s - v, offset> >= -tol``.
    Ties go by :func:`geometry._best_row`.  Returns the rows and where the
    rule picks one: not where no value is aligned, nor where a difference,
    product or square formed here is not finite.  For one node this forms
    what the rule forms there, in order, so under an errstate that raises it
    raises where the rule does, with the same message.
    """
    if strategy == "exhaustive":
        return _best_row(S, scores), np.ones(len(scores), dtype=bool)
    if strategy == "support":
        at = ~offsets.any(axis=1)
        finite = True
        if at.any():
            turns = S - v
            nearness = -inner_rows(turns, turns)
            finite = np.isfinite(nearness).all()
            scores = np.where(at[:, None], nearness, scores)
        return _best_row(S, scores), ~at | finite
    turns = S - v
    aligned = inner_rows(turns, offsets[:, None])
    feasible = aligned >= -tol
    # squares only of the values aligned somewhere, as one node forms them
    wanted = feasible.any(axis=0)
    nearness = np.zeros(len(S))
    aligned_turns = turns[wanted]
    nearness[wanted] = -inner_rows(aligned_turns, aligned_turns)
    # the values not aligned score NaN, which never wins, so the least
    # score is a number where some value is aligned and no square overflowed
    scores = np.where(feasible, nearness, np.nan)
    found = np.isfinite(np.fmin.reduce(scores, axis=1)) & np.isfinite(aligned).all(axis=1)
    return _best_row(S, scores), found


def extend_exhaustive(chain: Chain, x_next, svmap: SetValuedMap, tol: float = DEFAULT_TOL):
    """Best velocity at ``x_next`` by slack, or ``None`` if all fall short.

    Scans every value of the map, maximizing :func:`extension_slack` (ties
    lexicographic).  A returned velocity keeps the extended chain verified at
    the same tolerance.  A NaN slack, of terms past the largest float, never
    beats a number, and a pick whose slack is NaN is declined.
    """
    candidates = svmap.eval(x_next).points
    slacks = extension_slack(chain, x_next, candidates)
    pick = _rule_picks("exhaustive", candidates, None, None, slacks[None], None)[0][0]
    if math.isnan(slacks[pick]) or slacks[pick] < -tol:
        return None
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
    values = svmap.eval(x_next).points
    offsets = (x_next - chain.anchor_point)[None]
    pick = _rule_picks("support", values, chain.last_velocity, offsets,
                       inner_rows(offsets[:, None], values), None)[0][0]
    return values[pick]


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
    picks, found = _rule_picks("inertial", pts, chain.last_velocity,
                               (x_next - chain.anchor_point)[None], None, tol)
    v = pts[picks[0]]
    if not (found[0] and extension_slack(chain, x_next, v) >= -tol):
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
        return _json_bytes(self.to_json_dict()).decode() + "\n"


# an overflowing term or an inf - inf leaves a gap or slack that no comparison
# can trust, so the public classifiers raise FloatingPointError instead of
# giving a verdict
_float_checked = np.errstate(over="raise", invalid="raise")


def _describe(points) -> str:
    return f"{len(points)} points in R^{points.shape[1]}"


def _samples(svmap, samples) -> np.ndarray:
    pts = _point_rows(samples, svmap.dimension)
    if not len(pts):
        raise ValueError("need at least one sample point")
    return pts


@_float_checked
def classify_monotone(svmap, samples, tol=DEFAULT_TOL, budget=DEFAULT_CHAIN_BUDGET):
    """Pairwise monotonicity ``<x - y, v_x - v_y> >= -tol`` over the samples.

    The first ``budget`` checks pair the first sample's ``s`` values with the
    values of the next samples, at least one each, so the samples are
    evaluated in doubling blocks, none past the first ``ceil(budget / s) + 1``,
    until those pairs hold ``budget`` checks.
    """
    pts = _samples(svmap, samples)
    values, owner = svmap.eval_many(pts[:1])
    m, first = 1, len(values)
    # the pairs (0, 1) ... (0, m - 1) hold first * (len(values) - first) checks
    while m < len(pts) and first * (len(values) - first) < budget:
        step = min(m, -((first * (len(values) - first) - budget) // first))
        V, own = svmap.eval_many(pts[m:m + step])
        values, owner = np.concatenate([values, V]), np.concatenate([owner, own + m])
        m = min(m + step, len(pts))
    report = _monotone(_ChainGraph(svmap, pts[:m], (values, owner)), tol, budget)
    if report.holds and len(pts) > m:
        raise BudgetExceededError(budget + 1, budget)
    return replace(report, samples=_describe(pts))


def _monotone(graph, tol, budget):
    # checks run over sample pairs i < j, then the nodes a of i, then the
    # nodes b of j: (a, b) is check skip[i] + sizes[i] * (start[j] - start[i + 1])
    # + (a - start[i]) * sizes[j] + b - start[j], where skip[i] counts the
    # checks of the samples before i
    (K, d), start, owner = graph.X.shape, graph.start, graph.owner
    n, sizes = len(start) - 1, start[1:] - start[:-1]
    skip = np.zeros(n, dtype=np.int64)
    skip[1:] = (sizes[:-1] * (K - start[1:-1])).cumsum()
    # a budget past every check acts as one just past them, and stays in int64
    budget = min(budget, int(skip[-1]) + 1)
    # the samples before cut hold checks within the budget alone, and are
    # scanned whole.  Where cut's first check lies within it too, only its
    # rows a below start[cut] + rows and the nodes b below end of the later
    # samples hold checks within the budget
    cut = int(skip[1:].searchsorted(budget, "right"))
    spans = [(0, int(start[cut]), K)]
    if cut < n - 1 and skip[cut] < budget:
        room = budget - int(skip[cut])
        rows = min(int(sizes[cut]), -(-room // int(sizes[cut + 1])))
        end = start[min(start.searchsorted(start[cut + 1] - (-room // sizes[cut])), n)]
        spans.append((int(start[cut]), int(start[cut]) + rows, int(end)))
    found = None  # (check number, node a, node b, gap)
    for lo, hi, end in spans:
        # rows narrow down a span, so its first row sizes the blocks
        width = max(1, (end - int(start[owner[lo] + 1])) * d)
        for r, stop in _blocks(hi - lo, width, graph.safe_gaps):
            r += lo
            # a sample's checks all follow those of the samples before it
            if found is not None and skip[owner[r]] > found[0]:
                break
            mid = int(start[owner[r] + 1])
            rs = slice(r, lo + stop)
            gaps = graph.gaps(rs, slice(mid, end))
            checked = owner[mid:end] > owner[rs, None]
            a, b = (checked & (gaps < -tol)).nonzero()
            if a.size:
                i, j = owner[r + a], owner[mid + b]
                order = (skip[i] + sizes[i] * (start[j] - start[i + 1])
                         + (r + a - start[i]) * sizes[j] + mid + b - start[j])
                k = int(order.argmin())
                if found is None or order[k] < found[0]:
                    found = (int(order[k]), r + a[k], mid + b[k], float(gaps[a[k], b[k]]))
    used = int(skip[-1]) if found is None else found[0] + 1
    if used > budget:
        raise BudgetExceededError(budget + 1, budget)
    witness = None
    if found is not None:
        _, x, y, gap = found
        witness = {"x": graph.X[x].tolist(), "y": graph.X[y].tolist(),
                   "v_x": graph.V[x].tolist(), "v_y": graph.V[y].tolist(), "gap": gap}
    return ClassReport("monotone", witness is None, witness, tol, _describe(graph.points),
                       {"pairs_checked": used})


@_float_checked
def classify_weakly_monotone(svmap, samples, tol=DEFAULT_TOL, budget=DEFAULT_CHAIN_BUDGET):
    """For-all/exists monotonicity: each (x, v_x, y) admits a matching v_y.

    Nodes are checked against every sample in the blocks of :func:`_blocks`,
    one node each where a gap could overflow, so that an overflow raises
    only for a node up to the first that fails, as a node-by-node scan would.
    """
    return _weakly_monotone(_ChainGraph(svmap, _samples(svmap, samples)), tol, budget)


# array entries per block in the chain kernels.  A scan that stops at its
# first witness starts with a block of _FIRST_BLOCK_ELEMENTS, so that a witness
# near the start is found before a large block is formed
_BLOCK_ELEMENTS = 1 << 16
_FIRST_BLOCK_ELEMENTS = _BLOCK_ELEMENTS >> 4


def _blocks(stop, width, bounded):
    """Spans ``(lo, hi)`` of rows of ``width`` entries that cover ``range(stop)``.

    The one block rule of every chain scan.  Where ``bounded``, no term the
    scan forms can overflow: the first span holds ``_FIRST_BLOCK_ELEMENTS``
    entries, each later one four times as many, up to ``_BLOCK_ELEMENTS``,
    and at least one row each.  Elsewhere each span holds one row, so that
    under the caller's errstate a row raises where a row-by-row search
    would, and no row past the first witness is formed.  After ``send(True)``
    every later span holds the most.
    """
    most = max(1, _BLOCK_ELEMENTS // width) if bounded else 1
    lo, size = 0, max(1, min(_FIRST_BLOCK_ELEMENTS // width, most))
    while lo < stop:
        full = yield lo, min(lo + size, stop)
        if full:
            yield  # what send returns; the next span goes to the loop
        lo, size = lo + size, most if full else min(4 * size, most)


def _weakly_monotone(graph, tol, budget):
    n, (K, d) = len(graph.points), graph.X.shape
    # node a against sample j != owner[a] is check a * (n - 1) + j + (j < owner[a]);
    # nodes whose first check lies past the budget are not examined
    reach = 0 if n == 1 else min(K, (budget - 1) // (n - 1) + 1)
    used, witness = K * (n - 1), None
    for lo, hi in _blocks(reach, K * d, graph.safe_gaps):
        gaps = graph.gaps(slice(lo, hi))
        # max over v_y in F(y) of the gap, never with y = x
        best = np.maximum.reduceat(gaps, graph.start[:-1], axis=1)
        best[np.arange(len(best)), graph.owner[lo:hi]] = np.inf
        stuck = best < -tol
        r, j = divmod(int(stuck.argmax()), n)
        if stuck[r, j]:
            i = int(graph.owner[lo + r])
            used = (lo + r) * (n - 1) + j + (j < i)
            witness = {"x": graph.points[i].tolist(), "y": graph.points[j].tolist(),
                       "v_x": graph.V[lo + r].tolist(), "best_gap": float(best[r, j])}
            break
    if used > budget:
        raise BudgetExceededError(budget + 1, budget)
    return ClassReport("weakly_monotone", witness is None, witness, tol,
                       _describe(graph.points), {"pairs_checked": used})


class _ChainGraph:
    """The (point, value) nodes of a map on the samples and their chain terms.

    Node ``a`` pairs the point ``X[a]`` with a value ``V[a]`` of the map there,
    in sample order and then value order, all from one ``eval_many`` call at
    the ``(n, d)`` array ``points``; the nodes of sample ``i`` are
    ``start[i]:start[i + 1]`` and ``owner[a]`` is the sample of node ``a``.  A
    step reads its head only through its point, so a chain through nodes
    ``a_0, ..., a_m`` has step sums ``W[a_0, owner[a_1]] + ...`` (added left
    to right) and final anchored term ``E[owner[a_0], a_m]``, where

        W[a, j] = <points[j] - X[a], V[a]>,    E[i, b] = <X[b] - points[i], V[b]>.

    ``ends[i, j]`` and ``lows[i, j]`` are the largest and least ``E[i, b]``
    over the nodes ``b`` of sample ``j``.  The terms come from
    :func:`inner_rows` over the difference vectors, built once on first use
    in row blocks, so that only ``W`` (``K x n`` for ``K`` nodes) and ``E``
    are held whole; each equals the scalar :func:`inner` of :class:`Chain`
    and :func:`verify_chain` bit for bit.
    """

    def __init__(self, svmap, points, evaluated=None):
        self.points = points
        self.V, self.owner = svmap.eval_many(points) if evaluated is None else evaluated
        self.start = np.searchsorted(self.owner, np.arange(len(points) + 1))
        self.X = points[self.owner]

    def gaps(self, rows, cols=slice(None)):
        """``<X[a] - X[b], V[a] - V[b]>`` for the nodes ``a`` of ``rows`` and ``b`` of ``cols``.

        The gap of the monotone classes, one row per node of ``rows``; its
        inner products run in either order bit for bit.
        """
        return inner_rows(self.X[rows, None] - self.X[cols], self.V[rows, None] - self.V[cols])

    @cached_property
    def safe_gaps(self):
        """Whether no gap can overflow.

        Each difference stays below ``2 max(max|X|, max|V|)`` and each gap
        below ``4 d max|X| max|V|``, both kept under 2^1000.
        """
        x, v = float(np.abs(self.X).max()), float(np.abs(self.V).max())
        return max(x, v, 4 * self.X.shape[1] * x * v) < 2.0**1000

    @cached_property
    def safe_steps(self):
        """The step count below which no chain term can overflow.

        A left-to-right sum of ``s`` terms of ``W``, and a term of ``E`` less
        such a sum, stay below ``s * 2 max|W|`` (``E`` is ``W`` negated),
        kept under 2^1000.  Forms ``W``.
        """
        # max|W| without a temporary the size of W
        size = 2 * max(float(self.W.max()), -float(self.W.min()))
        return 2.0**1000 / size if size else math.inf

    W = cached_property(lambda self: _terms(self.X, self.points, self.V[:, None]))
    # each E[i, b] negates W[b, i]: rounding is symmetric under negation, and
    # 0.0 - w gives 0.0 for a zero, as the sum of inner_rows does
    E = cached_property(lambda self: np.subtract(0.0, self.W.T, order="C"))
    ends = cached_property(lambda self: np.maximum.reduceat(self.E, self.start[:-1], axis=1))
    lows = cached_property(lambda self: np.minimum.reduceat(self.E, self.start[:-1], axis=1))


def _terms(tails, heads, velocities):
    # <heads[c] - tails[r], velocities[r, c]> for every row r and column c, in
    # row blocks; velocities holds one row for every tail or one row per tail
    out = np.empty((len(tails), len(heads)))
    block = max(1, _BLOCK_ELEMENTS // max(1, heads.size))
    for lo in range(0, len(tails), block):
        rows = velocities if len(velocities) == 1 else velocities[lo:lo + block]
        out[lo:lo + block] = inner_rows(heads - tails[lo:lo + block, None], rows)
    return out


class _MaxPlusPaths:
    """Worst anchored chain slacks over a grouped node graph, by max-plus DP.

    Chains of ``m`` steps run through nodes of ``m + 1`` groups (contiguous
    node ranges, ``owner[a]`` the group of node ``a``), with step weights
    ``W[a, owner[b]]`` and end weights ``E[g_0]`` of the anchor group.  They
    are ordered by ``m``, then by group tuple, then by node tuple within the
    groups, both lexicographically; a chain violates when
    ``E[g_0, a_m] - sums < -tol``.

    Because float addition is monotone, ``max_a fl(S[a] + W[a, g])`` over the
    best sums ``S`` of shorter chains is exactly the largest left-to-right sum
    of any chain ending in group ``g``, and ``fl(E - S)`` is then the smallest
    slack at each node.  So one forward pass per block of anchors decides
    every length at ``O(K * groups)`` per anchor and step, and a depth-first
    descent with the same pass as an existence test finds the first violating
    chain in that order, testing a block of candidates per pass.  Anchors and
    candidates are rows of ``K * groups`` entries in the spans of
    :func:`_blocks`, bounded where the sweep takes fewer steps than
    ``safe_steps`` (see :attr:`_ChainGraph.safe_steps`).  Once the sweep finds
    a violation its later blocks search only shorter lengths, and hold the
    most.
    """

    def __init__(self, W, E, owner, tol, safe_steps):
        self.W, self.E, self.owner, self.tol, self.safe_steps = W, E, owner, tol, safe_steps
        self.size, self.groups = W.shape
        self.start = np.searchsorted(owner, np.arange(self.groups + 1)).tolist()

    def _step(self, S, span, nodes):
        # best sums after one step from each row of S, the sums at the nodes
        # span (-inf off it), to each node of the range nodes: a step's term
        # depends on its head's group alone
        (a, b), (lo, hi) = span, nodes
        g = self.owner[lo]
        best = np.maximum.reduce(S[:, :, None] + self.W[a:b, g:self.owner[hi - 1] + 1], axis=1)
        return best[:, self.owner[lo:hi] - g]

    def first_violation(self, max_length, budget=math.inf):
        """``(chains up to and including it, its nodes)`` or ``(count, None)``.

        Raises :class:`BudgetExceededError` exactly when enumerating the
        chains one by one would pass ``budget`` before reaching a violation;
        anchors whose chains start past it are skipped.
        """
        K, n = self.size, self.groups
        # chains of fewer than m steps, for m >= 1, listed up to the first
        # count past the budget: every longer length lies past it too
        if K == 1:
            shorter = range(-1, min(max_length + 1, budget + 2))  # m - 1
        else:
            shorter = [0, 0]
            while len(shorter) < max_length + 2 and shorter[-1] <= budget:
                shorter.append(shorter[-1] + K ** len(shorter))

        def past_budget(m, g0):
            # the first chain of m steps anchored in g0 lies beyond the budget
            return m >= len(shorter) or shorter[m] + self.start[g0] * K ** m >= budget

        bounded = min(max_length, len(shorter)) < self.safe_steps
        found = None  # (m, g0) of the first violation seen so far
        spans = _blocks(n, K * n, bounded)
        for lo, hi in spans:
            reach = max_length if found is None else found[0] - 1
            if past_budget(1, lo) or reach < 1:
                break
            anchors = np.arange(lo, hi)
            S = np.where(self.owner == anchors[:, None], 0.0, -np.inf)
            ends = self.E[lo:hi]
            for m in range(1, reach + 1):
                # later anchors start their chains later, so those past the
                # budget are the last ones
                keep = len(anchors)
                while keep and past_budget(m, int(anchors[keep - 1])):
                    keep -= 1
                if not keep:
                    break
                anchors, ends, last = anchors[:keep], ends[:keep], S[:keep]
                if m == 1:
                    # from the seed sums, 0.0 on an anchor's own nodes and
                    # -inf elsewhere, a step gives 0.0 plus the largest term
                    # of those nodes into each group; the 0.0 turns a -0.0
                    # into 0.0, as adding it to each term does
                    first, end = self.start[lo], self.start[lo + keep]
                    offsets = [self.start[g] - first for g in range(lo, lo + keep)]
                    step = np.maximum.reduceat(self.W[first:end], offsets, axis=0) + 0.0
                    S = step[:, self.owner]
                else:
                    S = self._step(last, (0, K), (0, K))
                low = ends - S < -self.tol
                if low.any():
                    if found is None:
                        # later anchors search only shorter lengths
                        spans.send(True)
                    found = (m, int(anchors[low.any(axis=1).argmax()]))
                    break
                # every longer chain of an anchor whose sums repeat bit for
                # bit repeats them
                moving = np.logical_or.reduce(S.view(np.int64) != last.view(np.int64), axis=1)
                if not moving.all():
                    anchors, ends, S = anchors[moving], ends[moving], S[moving]
        if found is None:
            if max_length + 1 >= len(shorter) or shorter[max_length + 1] > budget:
                raise BudgetExceededError(budget + 1, budget)
            return shorter[max_length + 1], None
        m, g0 = found
        # the first violating group tuple, then node tuple on its groups
        first, end = self.start[g0], self.start[g0 + 1]
        heads = self._descend(np.zeros((1, end - first)), (first, end), [self.start] * m,
                              self.owner, g0, bounded)
        # each node of those groups is a cell of its own
        levels = [range(self.start[g], self.start[g + 1] + 1)
                  for g in [g0, *self.owner[heads].tolist()]]
        if all(len(level) == 2 for level in levels):
            # every group holds one node: the group tuple is the node tuple
            nodes = [self.start[g0], *heads]
        else:
            nodes = self._descend(None, None, levels, np.arange(K), g0, bounded)
        # chains of shorter length, of earlier group tuples, of earlier node
        # tuples on these groups, and this one
        sizes = [len(level) - 1 for level in levels]
        rank = shorter[m] + 1
        for j, (level, a) in enumerate(zip(levels, nodes)):
            rank += math.prod(sizes[:j]) * level[0] * K ** (m - j)
            rank += (a - level[0]) * math.prod(sizes[j + 1:])
        if rank > budget:
            raise BudgetExceededError(budget + 1, budget)
        return rank, nodes

    def _descend(self, S, span, levels, labels, g0, bounded):
        # the first violating chain through one cell of each level in turn:
        # the first node of its cell at each level but the last, then its
        # last node.  A level is the node boundaries of its cells, and
        # labels numbers consecutive cells consecutively.  S holds the sums
        # of the chain so far at the nodes span, or is None for 0.0 at the
        # first level's cells.  A level tests a block of candidate cells per
        # pass, one row each, finite on its own cell, in the spans of _blocks;
        # the last level is read off one stepped row
        nodes = []
        for j, bounds in enumerate(levels[:-1]):
            rest = [(level[0], level[-1]) for level in levels[j + 1:]]
            for c0, c1 in _blocks(len(bounds) - 1, self.size * self.groups, bounded):
                cells = bounds[c0:c1 + 1]
                a, b = cells[0], cells[-1]
                T = np.zeros((1, b - a)) if S is None else self._step(S, span, (a, b))
                if len(cells) > 2:
                    own = labels[a:b]
                    T = np.where(own - own[0] == np.arange(len(cells) - 1)[:, None], T, -np.inf)
                U, reached = T, (a, b)
                for nxt in rest:
                    U, reached = self._step(U, reached, nxt), nxt
                low = (self.E[g0, reached[0]:reached[1]] - U < -self.tol).any(axis=1)
                if low.any():
                    c = int(low.argmax())
                    span = cells[c], cells[c + 1]
                    S = T[c:c + 1, span[0] - a:span[1] - a]
                    nodes.append(span[0])
                    break
        lo, hi = levels[-1][0], levels[-1][-1]
        low = self.E[g0, lo:hi] - self._step(S, span, (lo, hi))[0] < -self.tol
        nodes.append(lo + int(low.argmax()))
        return nodes


@_float_checked
def classify_cyclic_monotone(svmap, samples, max_length, tol=DEFAULT_TOL,
                             budget=DEFAULT_CHAIN_BUDGET):
    """Cyclic monotonicity over chains drawn from the samples.

    Covers every point tuple of up to ``max_length + 1`` samples (with
    repetition) and every combination of map values on it, checking the chain
    inequality at the final index; shorter tuples cover the earlier indices.
    A max-plus dynamic program over the (point, value) graph decides this in
    ``O(n^2 * max_length * K)`` for ``n`` samples and ``K`` nodes, on step
    terms formed whole first, under the caller's errstate, before any budget
    applies.  The report reads as if the ``K^(m+1)`` chains of each length
    ``m`` had been enumerated in order: the witness is the first violating chain and
    ``chains_checked`` its position.  The verdict is relative to the samples:
    ``holds`` certifies nothing off the grid, and a witness chain refutes the
    property globally.
    """
    return _cyclic_monotone(_ChainGraph(svmap, _samples(svmap, samples)), max_length, tol, budget)


def _cyclic_monotone(graph, max_length, tol, budget):
    paths = _MaxPlusPaths(graph.W, graph.E, graph.owner, tol, graph.safe_steps)
    checked, nodes = paths.first_violation(max_length, budget)
    details = {"max_length": max_length, "chains_checked": checked}
    if nodes is None:
        return ClassReport("cyclic_monotone", True, None, tol, _describe(graph.points), details)
    rhs = 0.0
    for a, b in zip(nodes, nodes[1:]):
        rhs += float(graph.W[a, graph.owner[b]])
    witness = {
        "points": graph.X[nodes].tolist(),
        "velocities": graph.V[nodes].tolist(),
        "index": len(nodes) - 1,
        "slack": float(graph.E[graph.owner[nodes[0]], nodes[-1]]) - rhs,
    }
    return ClassReport("cyclic_monotone", False, witness, tol, _describe(graph.points), details)


@_float_checked
def classify_weak_cyclic_monotone(svmap, samples, max_length, tol=DEFAULT_TOL,
                                  budget=DEFAULT_CHAIN_BUDGET):
    """Extendability of every sampled chain to every next sample point.

    Breadth-first enumeration of all verified chains of up to ``max_length``
    pairs built from the samples, anchored at every (sample, value) pair.  The
    property holds when :func:`extend_exhaustive` succeeds for every chain and
    every next sample point; a failure is returned as a (chain, next point)
    witness.  Each level is checked against all ``K`` nodes at once,
    carrying only each chain's node path and step sum, in the blocks of
    chains of :func:`_blocks`, one chain each where a step sum or slack could
    overflow, so that an overflow raises only for a chain up to the first
    that fails, as a chain-by-chain search would.  The step terms are formed
    whole first, under the caller's errstate, before any budget applies.
    ``extensions_checked`` counts one check per chain and node, in queue
    order.
    """
    return _weak_cyclic_monotone(_ChainGraph(svmap, _samples(svmap, samples)), max_length, tol,
                                 budget)


def _weak_cyclic_monotone(graph, max_length, tol, budget):
    n, K = len(graph.points), len(graph.V)
    # chains whose first check falls within the budget
    cap = (budget - 1) // K + 1
    done = 0
    paths, sums, last = np.arange(K)[:, None], np.zeros(K), None
    while len(paths):
        # chains act through their anchor samples, tips and sums alone: a
        # level whose rows repeat the last one's repeats at every longer
        # length, where none fails
        level = graph.owner[paths[:, 0]].tobytes(), paths[:, -1].tobytes(), sums.tobytes()
        if level == last:
            done += (max_length - paths.shape[1] + 1) * len(paths)
            break
        last = level
        room = cap - done
        grow = paths.shape[1] < max_length
        kids_paths, kids_sums, kids = [], [], 0
        # a chain of p nodes steps to a sum of p terms
        bounded = paths.shape[1] < graph.safe_steps
        for lo, hi in _blocks(min(len(paths), room), K, bounded):
            rows = paths[lo:hi]
            collect = grow and kids <= room - len(paths)
            anchors = graph.owner[rows[:, 0]]
            # one step sum per sample; rounding is monotone, so the best slack is
            # the largest E less it, and the least E less it raises as a node
            # would
            stepped = sums[lo:hi, None] + graph.W[rows[:, -1]]
            best = graph.ends[anchors] - stepped
            slack = (graph.E[anchors] - stepped[:, graph.owner] if collect
                     else graph.lows[anchors] - stepped)
            stuck = best < -tol
            r, j = divmod(int(stuck.argmax()), n)
            if stuck[r, j]:
                used = (done + lo + r) * K + int(graph.start[j + 1])
                if used > budget:
                    raise BudgetExceededError(budget + 1, budget)
                witness = {"points": graph.X[rows[r]].tolist(),
                           "velocities": graph.V[rows[r]].tolist(),
                           "next_point": graph.points[j].tolist(), "best_slack": float(best[r, j])}
                return ClassReport(
                    "weak_cyclic_monotone", False, witness, tol, _describe(graph.points),
                    {"max_length": max_length, "extensions_checked": used},
                )
            if collect:
                r, b = np.nonzero(slack >= -tol)
                kids_paths.append(np.column_stack([rows[r], b]))
                kids_sums.append(stepped[r, graph.owner[b]])
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
        "weak_cyclic_monotone", True, None, tol, _describe(graph.points),
        {"max_length": max_length, "extensions_checked": used},
    )


@_float_checked
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
    before forming support values when a length has over ``budget`` sequences.
    """
    return _support_chain(_ChainGraph(svmap, _samples(svmap, samples)), max_length, tol, budget)


def _support_chain(graph, max_length, tol, budget, implied=False):
    # implied: the condition is known to hold, so only the count is formed
    n = len(graph.points)
    total = 0  # sequences of 2 to max_length + 1 samples
    for length in range(2, max_length + 2):
        if n ** length > budget:
            raise BudgetExceededError(n ** length, budget)
        if n == 1:
            total = max_length
            break
        total += n ** length
    checked, seq = total, None
    if not implied:
        # support(F(x_i), x_j - x_i) and support(F(x_j), x_j - x_0) per sample
        steps = np.maximum.reduceat(graph.W, graph.start[:-1], axis=0)
        paths = _MaxPlusPaths(steps, graph.ends, np.arange(n), tol, graph.safe_steps)
        checked, seq = paths.first_violation(max_length)
    samples_text = f"{total} sequences"
    if seq is None:
        return ClassReport(
            "support_chain", True, None, tol, samples_text, {"sequences_checked": checked},
        )
    rhs = 0.0
    for i, j in zip(seq, seq[1:]):
        rhs += float(steps[i, j])
    witness = {"points": graph.points[seq].tolist(),
               "lhs": float(graph.ends[seq[0], seq[-1]]), "rhs": rhs}
    return ClassReport(
        "support_chain", False, witness, tol, samples_text, {"sequences_checked": checked},
    )


def _classify(graph, max_length, tol, budget):
    """The five reports of ``setflow classify`` on one graph, in its order.

    Monotone implies weakly monotone, and cyclic monotone implies weak cyclic
    monotone and the support-chain condition, so where the stronger class
    holds the weaker ones are reported without their searches, with the
    counts those searches give: ``K * (n - 1)`` pairs, the chains cyclic
    monotonicity checked, and every sequence.  A search is skipped only where
    no term it forms can overflow (:attr:`_ChainGraph.safe_gaps`,
    :attr:`_ChainGraph.safe_steps`), since it also forms terms the stronger
    class does not: the gaps within a sample, the least chain sums.
    """
    K, n = len(graph.V), len(graph.points)
    monotone = _monotone(graph, tol, budget)
    if monotone.holds and graph.safe_gaps:
        if K * (n - 1) > budget:
            raise BudgetExceededError(budget + 1, budget)
        weakly = replace(monotone, name="weakly_monotone", details={"pairs_checked": K * (n - 1)})
    else:
        weakly = _weakly_monotone(graph, tol, budget)
    cyclic = _cyclic_monotone(graph, max_length, tol, budget)
    if cyclic.holds and max_length < graph.safe_steps:
        checked = cyclic.details["chains_checked"]
        weak_cyclic = replace(cyclic, name="weak_cyclic_monotone",
                              details={"max_length": max_length, "extensions_checked": checked})
        support = _support_chain(graph, max_length, tol, budget, implied=True)
    else:
        weak_cyclic = _weak_cyclic_monotone(graph, max_length, tol, budget)
        support = _support_chain(graph, max_length, tol, budget)
    return [monotone, weakly, cyclic, weak_cyclic, support]


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
        return float(inner_rows(vx - svmap.eval(y).points, x - y).max()) < -tol
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
