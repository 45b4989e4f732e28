"""Finite-family convex potentials and the compatible-velocity submap.

Every verified chain anchored at ``(x_0, v_0)`` induces the affine function

    x  ->  <x - x_k, v_k> + sums[k]

whose supremum over all such chains would be the exact convex potential of the
map.  A :class:`SequenceFamily` keeps finitely many chains and uses the max of
their affine functions as a piecewise-affine lower model of that potential.
The model is convex by construction, vanishes at the anchor, and can only grow
as chains are added.  Velocities whose anchored inner product clears the model
value form the compatible submap; accepted pairs behave like subgradients of
the grown model, which :func:`subgradient_test` checks at probe points.

Each family carries its model as read-only stacked arrays (the members' last
points, last velocities and last sums, their dedup keys and, under a box,
their values at the box vertices), built once and carried through growth, so
growing evaluates only the new prefixes.  The model is evaluated at many
points by one :func:`inner_rows` call per block of members, in the operand
order of :func:`affine_value`, so batched and one-at-a-time values agree bit
for bit.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .chains import _BLOCK_ELEMENTS, Chain, _anchored_pick, verify_chain
from .geometry import inner, inner_rows
from .setmaps import SetValuedMap

__all__ = [
    "DEFAULT_FAMILY_CAP",
    "SequenceFamily",
    "affine_value",
    "potential_value",
    "potential_values",
    "grow_family",
    "submap_select",
    "submap_contains",
    "subgradient_test",
    "build_family",
    "family_to_json_dict",
    "family_from_json_dict",
    "family_to_text",
    "family_from_text",
]

DEFAULT_FAMILY_CAP = 4096


def affine_value(chain: Chain, x) -> float:
    """Value at ``x`` of the affine function the chain induces."""
    x = np.asarray(x, dtype=float)
    return inner(x - chain.last_point, chain.last_velocity) + chain.last_sum


def _frozen(a):
    a.flags.writeable = False
    return a


def _same(a, b) -> bool:
    # np.array_equal on float arrays, at a fraction of its call overhead
    return a.shape == b.shape and a.tolist() == b.tolist()


def _affine_blocks(P, S, c, X):
    # <X[j] - P[k], S[k]> + c[k] for every row k and point j, in row blocks
    step = max(1, _BLOCK_ELEMENTS // max(1, X.size))
    for lo in range(0, len(c), step):
        hi = lo + step
        yield inner_rows(X[None, :, :] - P[lo:hi, None, :], S[lo:hi, None, :]) + c[lo:hi, None]


def _affine_values(P, S, c, X) -> np.ndarray:
    return np.concatenate([np.empty((0, len(X))), *_affine_blocks(P, S, c, X)])


class _AffineModel:
    """The affine functions of a family's members, stacked row by row.

    Row ``k`` is ``x -> <x - P[k], S[k]> + c[k]`` for member ``k``'s last
    point, last velocity and last sum; ``keys[k]`` is its dedup key and, when
    the family has a box, ``at_vertices[k]`` its values at the box
    ``vertices``.  Arrays are read-only: growth builds a new model.
    """

    __slots__ = ("P", "S", "c", "keys", "vertices", "at_vertices")

    def __init__(self, P, S, c, keys, vertices, at_vertices=None):
        self.P, self.S, self.c = _frozen(P), _frozen(S), _frozen(c)
        self.keys = keys
        self.vertices = vertices
        if vertices is not None and at_vertices is None:
            at_vertices = _affine_values(P, S, c, vertices)
        self.at_vertices = None if at_vertices is None else _frozen(at_vertices)

    def values(self, X) -> np.ndarray:
        """Members by points matrix of affine values."""
        return _affine_values(self.P, self.S, self.c, X)

    def max(self, X) -> np.ndarray:
        """Largest member value at each point."""
        best = np.full(len(X), -np.inf)
        for block in _affine_blocks(self.P, self.S, self.c, X):
            np.maximum(best, block.max(axis=0), out=best)
        return best

    def appended(self, P, S, c, keys) -> "_AffineModel":
        # only the new rows are evaluated at the vertices
        at_vertices = None
        if self.vertices is not None:
            at_vertices = np.concatenate([self.at_vertices,
                                          _affine_values(P, S, c, self.vertices)])
        return _AffineModel(
            np.concatenate([self.P, P]), np.concatenate([self.S, S]),
            np.concatenate([self.c, c]), self.keys + keys, self.vertices, at_vertices,
        )

    def take(self, keep) -> "_AffineModel":
        return _AffineModel(
            self.P[keep], self.S[keep], self.c[keep],
            tuple(itertools.compress(self.keys, keep)), self.vertices,
            None if self.at_vertices is None else self.at_vertices[keep],
        )


class SequenceFamily:
    """Finitely many verified chains sharing one anchor pair.

    ``members[0]`` is always the trivial one-pair chain ``[(x_0, v_0)]``, so
    the family value at the anchor is exactly zero: every other member's
    affine function is nonpositive there by its own chain inequality.

    ``box`` (a ``(low, high)`` pair) is the working box used for dominance
    pruning during growth; without one, growth only deduplicates.  ``tol`` is
    the verification tolerance members must meet; the default 0 keeps the
    anchor value exact.
    """

    __slots__ = ("anchor_point", "anchor_velocity", "members", "box", "tol", "cap", "_model")

    def __init__(self, anchor_point, anchor_velocity, members, box=None,
                 tol: float = 0.0, cap: int = DEFAULT_FAMILY_CAP):
        anchor_point = np.asarray(anchor_point, dtype=float)
        anchor_velocity = np.asarray(anchor_velocity, dtype=float)
        members = list(members)
        if not members:
            raise ValueError("a family needs at least its trivial member")
        trivial = members[0]
        if len(trivial) != 1 or not (
            _same(trivial.anchor_point, anchor_point)
            and _same(trivial.anchor_velocity, anchor_velocity)
        ):
            raise ValueError("members[0] must be the trivial anchor chain")
        for chain in members:
            if not (
                _same(chain.anchor_point, anchor_point)
                and _same(chain.anchor_velocity, anchor_velocity)
            ):
                raise ValueError("all members must share the anchor pair")
            ok, index = verify_chain(chain, tol)
            if not ok:
                raise ValueError(f"member fails the chain inequality at index {index}")
        if cap < 1:
            raise ValueError("cap must be positive")
        self.anchor_point = anchor_point
        self.anchor_velocity = anchor_velocity
        self.members = tuple(members)
        self.box = _check_box(box, anchor_point.shape[0])
        self.tol = float(tol)
        self.cap = int(cap)
        vertices = None if self.box is None else _frozen(np.array(_box_vertices(self.box)))
        self._model = _AffineModel(
            np.array([chain.last_point for chain in self.members]),
            np.array([chain.last_velocity for chain in self.members]),
            np.array([chain.last_sum for chain in self.members]),
            tuple((c.xs.tobytes(), c.vs.tobytes()) for c in self.members), vertices,
        )

    @classmethod
    def initial(cls, x0, v0, box=None, tol: float = 0.0,
                cap: int = DEFAULT_FAMILY_CAP) -> "SequenceFamily":
        """Family holding only the trivial chain."""
        return cls(x0, v0, [Chain([x0], [v0])], box=box, tol=tol, cap=cap)

    @classmethod
    def _grown(cls, parent, members, model):
        out = object.__new__(cls)
        out.anchor_point = parent.anchor_point
        out.anchor_velocity = parent.anchor_velocity
        out.members = members
        out.box = parent.box
        out.tol = parent.tol
        out.cap = parent.cap
        out._model = model
        return out

    @property
    def dimension(self) -> int:
        return self.anchor_point.shape[0]

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"SequenceFamily({len(self.members)} chains, dim {self.dimension})"


def _check_box(box, dim):
    if box is None:
        return None
    low = np.asarray(box[0], dtype=float)
    high = np.asarray(box[1], dtype=float)
    if low.shape != (dim,) or high.shape != (dim,):
        raise ValueError("box bounds must match the anchor dimension")
    if np.any(high < low):
        raise ValueError("box is inverted")
    return (low, high)


def _box_vertices(box):
    low, high = box
    vertices = sorted({tuple(c) for c in itertools.product(*zip(low, high))})
    return [np.array(v) for v in vertices]


def _point_rows(points, dim) -> np.ndarray:
    # points as an (n, dim) array; a wrong dimension raises, never broadcasts
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        X = X.reshape(0, dim)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"dimension mismatch: points of shape {X.shape}, dimension {dim}")
    return X


def potential_values(family: SequenceFamily, points) -> np.ndarray:
    """Lower-model potential at each of ``points`` (an ``n x d`` array)."""
    return family._model.max(_point_rows(points, family.dimension))


def potential_value(family: SequenceFamily, x) -> float:
    """Lower-model potential: max of member affine values at ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.dimension,):
        raise ValueError(f"dimension mismatch: {x.shape} vs ({family.dimension},)")
    return float(family._model.max(x[None, :])[0])


def grow_family(family: SequenceFamily, chain: Chain) -> SequenceFamily:
    """Family extended by a chain and all its prefixes.

    The chain must share the family anchor and verify at the family tolerance.
    Growth deduplicates exact repeats, prunes members whose affine function
    another member dominates at every vertex of the working box (domination on
    the vertices is domination on the whole box), and finally evicts oldest
    members (never the trivial one) down to the cap.  At points of the working
    box the grown family's value never drops below the old one.  Only the new
    prefixes are evaluated; the pruning runs over all members' cached vertex
    values, so members that dominated each other before growth are pruned too.
    """
    if not (
        _same(chain.anchor_point, family.anchor_point)
        and _same(chain.anchor_velocity, family.anchor_velocity)
    ):
        raise ValueError("chain anchor does not match the family anchor")
    ok, index = verify_chain(chain, family.tol)
    if not ok:
        raise ValueError(f"chain fails the chain inequality at index {index}")

    seen = set(family._model.keys)
    rows, keys = [], []
    for count in range(1, len(chain) + 1):
        key = (chain.xs[:count].tobytes(), chain.vs[:count].tobytes())
        if key not in seen:
            seen.add(key)
            rows.append(count - 1)
            keys.append(key)
    members = family.members + tuple(chain.prefix(r + 1) for r in rows)
    model = family._model.appended(chain.xs[rows], chain.vs[rows], chain.sums[rows],
                                   tuple(keys))

    keep = np.ones(len(members), dtype=bool)
    if model.at_vertices is not None and len(members) > 1:
        # i dominates j when it is >= at every vertex and either > at one or
        # earlier; where geq[i, j] holds no value is NaN, so "> at one" is
        # "not geq[j, i]", and no member dominates itself
        V = model.at_vertices
        geq = (V[:, None, :] >= V[None, :, :]).all(axis=2)
        order = np.arange(len(V))
        keep = ~(geq & (~geq.T | np.less.outer(order, order))).any(axis=0)
        keep[0] = True  # the trivial member is load-bearing

    # evict the oldest non-trivial members down to the cap
    if np.count_nonzero(keep) > family.cap:
        kept = np.flatnonzero(keep)
        keep[kept[1:len(kept) - family.cap + 1]] = False

    if not keep.all():
        members = tuple(itertools.compress(members, keep))
        model = model.take(keep)
    return SequenceFamily._grown(family, members, model)


def submap_select(family: SequenceFamily, svmap: SetValuedMap, x, tol: float = 0.0):
    """Support-maximizing velocity at ``x`` if it clears the model, else None.

    The candidate is ``support_argmax(x - x_0, F(x))`` (nearest to the anchor
    velocity when ``x`` is the anchor itself, where any value clears a zero
    bound).  It is returned iff ``<x - x_0, candidate> >= potential - tol``.
    """
    x = np.asarray(x, dtype=float)
    v = _anchored_pick(family.anchor_point, family.anchor_velocity, x, svmap.eval(x))
    if inner(x - family.anchor_point, v) >= potential_value(family, x) - tol:
        return v
    return None


def submap_contains(family: SequenceFamily, svmap: SetValuedMap, x, v,
                    tol: float = 0.0) -> bool:
    """Whether ``v`` is a compatible velocity at ``x``.

    ``v`` must be an exact value of the map at ``x``; the test is then
    ``<x - x_0, v> >= potential - tol``.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not svmap.eval(x).contains(v):
        raise ValueError("velocity is not a value of the map at x")
    return inner(x - family.anchor_point, v) >= potential_value(family, x) - tol


def subgradient_test(family: SequenceFamily, x, v, probes, tol: float = 0.0) -> bool:
    """Check that an accepted pair acts as a subgradient of the grown model.

    The best member at ``x`` (the first, on ties) is extended by ``(x, v)``
    and the family grown with it; the test passes when at every probe ``y``

        potential(grown, y) >= potential(family, x) + <v, y - x> - tol.

    Growing raises when the pair was not actually compatible (the extension
    then fails the chain inequality), surfacing precondition violations.  All
    probes are checked at once; with none, only the growth is checked.
    """
    dim = family.dimension
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != (dim,) or v.shape != (dim,):
        raise ValueError(f"dimension mismatch: x {x.shape}, v {v.shape}, family ({dim},)")
    Y = _point_rows(probes, dim)
    at_x = family._model.values(x[None, :])[:, 0]
    best = int(np.argmax(at_x))
    grown = grow_family(family, family.members[best].extended(x, v))
    floor = at_x[best] + inner_rows(v, Y - x) - tol
    return not np.any(grown._model.max(Y) < floor)


def build_family(svmap: SetValuedMap, x0, v0, grid_points, max_length: int,
                 box=None, cap: int = DEFAULT_FAMILY_CAP, budget: int = 10**6,
                 tol: float = 0.0):
    """Grow a family from every verified chain discoverable over a grid.

    Breadth-first enumeration of chains anchored at ``(x0, v0)`` whose points
    run over ``grid_points`` and whose extension slacks stay nonnegative (so
    every member verifies exactly, whatever ``tol`` the family carries).
    Enumeration stops quietly once ``budget`` slack evaluations are spent; the
    family built so far is returned along with a stats dictionary.  A
    heuristic constructor: richer families give tighter models, and any
    verified chain may be grown in afterwards.

    Each level scores its chains against every (point, value) node at once,
    in blocks of chains, and grows the family with the children in the order
    a one-at-a-time queue would: chain by chain, then node by node (grid
    order, then value order).  A slack evaluation is one chain and one node.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not svmap.eval(x0).contains(v0):
        raise ValueError("anchor velocity not in F(x0)")
    dim = x0.shape[0]
    values = [svmap.eval(np.asarray(p, dtype=float)).points for p in grid_points]
    counts = [len(vals) for vals in values]
    X = np.repeat(_point_rows(grid_points, dim), counts, axis=0)
    V = np.concatenate(values) if values else np.empty((0, dim))
    K = len(V)
    # <x_b - x_0, v_b>: the anchored side of every node's extension slack
    ends = inner_rows(X - x0, V)
    # chain tips are nodes, or the anchor (row K) for the trivial chain
    tip_points, tip_velocities = np.vstack([X, x0]), np.vstack([V, v0])
    family = SequenceFamily.initial(x0, v0, box=box, tol=tol, cap=cap)
    used = 0
    grown = 0
    exhausted = False
    level, tips, sums = [Chain([x0], [v0])], [K], [0.0]
    step = max(1, _BLOCK_ELEMENTS // max(1, K * dim))
    while level and not exhausted:
        next_level, next_tips, next_sums = [], [], []
        for lo in range(0, len(level), step):
            rows = np.array(tips[lo:lo + step])
            diffs = X[None, :, :] - tip_points[rows, None, :]
            stepped = np.array(sums[lo:lo + step])[:, None] + inner_rows(
                diffs, tip_velocities[rows, None, :])
            slack = ends - stepped
            for r, chain in enumerate(level[lo:lo + step]):
                reach = max(0, min(K, budget - used))
                for b in np.flatnonzero(slack[r, :reach] >= 0.0):
                    child = chain.extended(X[b], V[b])
                    family = grow_family(family, child)
                    grown += 1
                    if len(child) < max_length:
                        next_level.append(child)
                        next_tips.append(b)
                        next_sums.append(stepped[r, b])
                used += reach
                if reach < K:
                    used += 1
                    exhausted = True
                    break
            if exhausted:
                break
        level, tips, sums = next_level, next_tips, next_sums
    stats = {"chains_grown": grown, "evaluations": used, "budget_exhausted": exhausted}
    return family, stats


# ---------------------------------------------------------------------------
# serialization

def family_to_json_dict(family: SequenceFamily) -> dict:
    return {
        "anchor_point": family.anchor_point.tolist(),
        "anchor_velocity": family.anchor_velocity.tolist(),
        "tol": family.tol,
        "cap": family.cap,
        "box": None if family.box is None else {
            "low": family.box[0].tolist(),
            "high": family.box[1].tolist(),
        },
        "members": [chain.to_dict() for chain in family.members],
    }


def family_from_json_dict(d) -> SequenceFamily:
    box = None
    if d.get("box") is not None:
        box = (d["box"]["low"], d["box"]["high"])
    return SequenceFamily(
        d["anchor_point"],
        d["anchor_velocity"],
        [Chain.from_dict(c) for c in d["members"]],
        box=box,
        tol=d.get("tol", 0.0),
        cap=d.get("cap", DEFAULT_FAMILY_CAP),
    )


def family_to_text(family: SequenceFamily) -> str:
    return json.dumps(family_to_json_dict(family), indent=2) + "\n"


def family_from_text(text: str) -> SequenceFamily:
    return family_from_json_dict(json.loads(text))
