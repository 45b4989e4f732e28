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
growing evaluates only the new prefixes.  One growth kernel grows a model by
chains offered as rows of one pair table: the prefixes of a public chain,
or, while :func:`build_family` grows its levels, node paths, whose members
become chains only once the last level is grown.  The model is evaluated at many
points by one :func:`inner_rows` call per block of members, in the operand
order of :func:`affine_value`, so batched and one-at-a-time values agree bit
for bit.  Members are verified once, when they join.  Subgradient tests of
many nodes run as one batched kernel.  It regrows no family within its cap:
an extension's own row is the tangent the test compares against, so a grown
family that keeps or holds that row passes, and one that drops it (a member
as high at every box vertex, or a cap of 1) is the family itself, whose
maximum at the probes is taken once.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .chains import (DEFAULT_CHAIN_BUDGET, _BLOCK_ELEMENTS, BudgetExceededError, Chain,
                     _ChainGraph, _levels, _rule_picks, _terms, verify_chain)
from .geometry import inner, inner_rows
from .setmaps import SetValuedMap, _json_bytes, _point_rows

__all__ = [
    "SequenceFamily",
    "affine_value",
    "potential_value",
    "potential_values",
    "grow_family",
    "submap_select",
    "submap_contains",
    "subgradient_test",
    "build_family",
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


def _affine_values(P, S, c, X) -> np.ndarray:
    # <X[j] - P[k], S[k]> + c[k] for every row k and point j
    return _terms(P, X, S[:, None]) + c[:, None]


class _AffineModel:
    """The affine functions of a family's members, stacked row by row.

    Row ``k`` is ``x -> <x - P[k], S[k]> + c[k]`` for member ``k``'s last
    point, last velocity and last sum; ``keys[k]`` is its dedup key and, when
    the family has a box, ``at_vertices[k]`` its values at the box
    ``vertices``.  Arrays are read-only: growth builds a new model, which it
    marks :attr:`settled`.

    ``closed`` holds when every proper prefix of a member is a member, or
    some member is at least as high at every box vertex; a constructor's
    members are closed when each proper prefix is a member.  Growth keeps it
    until the cap first evicts, since a row leaves only for one at least as
    high.  So a pruned prefix that comes back is pruned again, and a chain
    whose proper prefixes are members or pruned prefixes adds at most its
    last row.
    """

    __slots__ = ("P", "S", "c", "keys", "vertices", "closed", "at_vertices", "_settled")

    def __init__(self, P, S, c, keys, vertices, closed, at_vertices=None, settled=None):
        self.P, self.S, self.c = _frozen(P), _frozen(S), _frozen(c)
        self.keys = keys
        self.vertices = vertices
        self.closed = closed
        if vertices is not None and at_vertices is None:
            at_vertices = _affine_values(P, S, c, vertices)
        self.at_vertices = None if at_vertices is None else _frozen(at_vertices)
        self._settled = settled

    @property
    def settled(self) -> bool:
        """Whether no member but the trivial one is dominated by another.

        Growth leaves only rows that no other row dominates, so a grown
        model is settled; a constructor's members are checked on first use.
        """
        if self._settled is None:
            self._settled = self.at_vertices is None or not _dominated(self.at_vertices)[1:].any()
        return self._settled


class SequenceFamily:
    """Finitely many verified chains sharing one anchor pair.

    ``members[0]`` is always the trivial one-pair chain ``[(x_0, v_0)]``, so
    the family value at the anchor is exactly zero: every other member's
    affine function is nonpositive there by its own chain inequality.

    ``box`` (a ``(low, high)`` pair) is the working box used for dominance
    pruning during growth; without one, growth only deduplicates.  ``tol`` is
    the verification tolerance members must meet, nonnegative; the default 0
    keeps the anchor value exact.
    """

    __slots__ = ("anchor_point", "anchor_velocity", "members", "box", "tol", "cap", "_model")

    def __init__(self, anchor_point, anchor_velocity, members, box=None,
                 tol: float = 0.0, cap: int = DEFAULT_FAMILY_CAP):
        anchor_point = np.asarray(anchor_point, dtype=float)
        anchor_velocity = np.asarray(anchor_velocity, dtype=float)
        members = list(members)
        if not members:
            raise ValueError("a family needs at least its trivial member")
        # a NaN or negative tol would fail every later growth at index 1
        if not tol >= 0:
            raise ValueError("tol must be nonnegative")
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
        keys = tuple((c.xs.tobytes(), c.vs.tobytes()) for c in self.members)
        seen = set(keys)
        self._model = _AffineModel(
            np.array([chain.last_point for chain in self.members]),
            np.array([chain.last_velocity for chain in self.members]),
            np.array([chain.last_sum for chain in self.members]), keys, vertices,
            all((c.xs[:n].tobytes(), c.vs[:n].tobytes()) in seen
                for c in self.members for n in range(1, len(c))),
        )

    @classmethod
    def initial(cls, x0, v0, box=None, tol: float = 0.0,
                cap: int = DEFAULT_FAMILY_CAP) -> "SequenceFamily":
        """Family holding only the trivial chain."""
        return cls(x0, v0, [Chain([x0], [v0])], box=box, tol=tol, cap=cap)

    @classmethod
    def _trusted(cls, anchor_point, anchor_velocity, members, box, tol, cap, model):
        # internal: arguments checked, members verified, model built from them
        out = object.__new__(cls)
        out.anchor_point = anchor_point
        out.anchor_velocity = anchor_velocity
        out.members = members
        out.box = box
        out.tol = tol
        out.cap = cap
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
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        raise ValueError("box bounds must be finite")
    if np.any(high < low):
        raise ValueError("box is inverted")
    return (low, high)


def _box_vertices(box):
    low, high = box
    vertices = sorted({tuple(c) for c in itertools.product(*zip(low, high))})
    return [np.array(v) for v in vertices]


def potential_values(family: SequenceFamily, points) -> np.ndarray:
    """Lower-model potential at each of ``points`` (an ``n x d`` array)."""
    return _model_max(family._model, _point_rows(points, family.dimension))


def potential_value(family: SequenceFamily, x) -> float:
    """Lower-model potential: max of member affine values at ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.dimension,):
        raise ValueError(f"dimension mismatch: {x.shape} vs ({family.dimension},)")
    return float(potential_values(family, x[None, :])[0])


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

    Growing by many chains at once, as :func:`build_family` does once per
    block of chains, gives the family this gives one chain at a time; see
    :func:`_grow_rows`.
    """
    if not (
        _same(chain.anchor_point, family.anchor_point)
        and _same(chain.anchor_velocity, family.anchor_velocity)
    ):
        raise ValueError("chain anchor does not match the family anchor")
    ok, index = verify_chain(chain, family.tol)
    if not ok:
        raise ValueError(f"chain fails the chain inequality at index {index}")
    return _grow_verified(family, [chain])


def _grow_verified(family, chains):
    """The family :func:`grow_family` gives after each of ``chains`` in turn.

    Every chain is checked by the caller; see :func:`_grow_rows`.
    """
    model, members = _grow_rows(family._model, family.members, family.cap,
                                _Offer.of_chains(chains, family.dimension,
                                                 family._model.vertices))
    return SequenceFamily._trusted(family.anchor_point, family.anchor_velocity, members,
                                   family.box, family.tol, family.cap, model)


class _Offer:
    """Chains offered to growth, stacked as rows of one pair table.

    Chain ``j`` is the pairs ``(P[a], S[a])`` for ``a`` in
    ``paths[j, :lengths[j]]``, with step sums ``sums[j, :lengths[j]]``;
    ``T[a]``, when the family has a box, holds ``<y - P[a], S[a]>`` at each
    box vertex ``y``.  The dedup key of a prefix is the bytes of its points
    and of its velocities, as for a member.  A kept prefix becomes the member
    :meth:`part` gives: a prefix of the offered :class:`Chain`, or, without
    ``chains``, the prefix's node path and step sums, made into a chain once
    growth is done.
    """

    __slots__ = ("P", "S", "T", "paths", "sums", "lengths", "chains")

    def __init__(self, P, S, T, paths, sums, lengths, chains=None):
        self.P, self.S, self.T = P, S, T
        self.paths, self.sums, self.lengths = paths, sums, lengths
        self.chains = chains

    @classmethod
    def of_chains(cls, chains, dim, vertices):
        lengths = np.array([len(chain) for chain in chains], dtype=np.intp)
        first = np.cumsum(lengths) - lengths
        # columns past a chain's end repeat its last row
        paths = first[:, None] + np.minimum(np.arange(lengths.max(initial=1)), lengths[:, None] - 1)
        P = np.concatenate([np.empty((0, dim)), *(chain.xs for chain in chains)])
        S = np.concatenate([np.empty((0, dim)), *(chain.vs for chain in chains)])
        sums = np.concatenate([np.empty(0), *(chain.sums for chain in chains)])
        return cls(P, S, _vertex_terms(P, S, vertices), paths, sums[paths], lengths,
                   chains=chains)

    def __len__(self) -> int:
        return len(self.paths)

    def rows(self, J, counts):
        # the last point, velocity and sum of the prefix of counts[k] pairs of chain J[k]
        at = self.paths[J, counts - 1]
        return self.P[at], self.S[at], self.sums[J, counts - 1]

    def at_vertices(self, J, counts):
        # the values at the box vertices of those prefixes' affine functions
        return self.T[self.paths[J, counts - 1]] + self.sums[J, counts - 1][:, None]

    def keys(self, J):
        # the dedup keys of every prefix of each chain of J, shortest first,
        # cut from the bytes of all their padded rows
        xs, vs = self.P[self.paths[J]].tobytes(), self.S[self.paths[J]].tobytes()
        w = self.P.itemsize * self.P.shape[1]
        return [[(xs[a:a + n * w], vs[a:a + n * w]) for n in range(1, count + 1)]
                for a, count in zip(range(0, len(xs), self.paths.shape[1] * w),
                                    self.lengths[J].tolist())]

    def part(self, j, count):
        if self.chains is not None:
            return self.chains[j].prefix(count)
        return self.paths[j, :count].copy(), self.sums[j, :count].copy()


def _vertex_terms(P, S, vertices):
    # <y - P[a], S[a]> at every box vertex y, or None without a box
    return None if vertices is None else _terms(P, vertices, S[:, None])


def _grow_rows(model, members, cap, offer, chains=None):
    """The model and members growth leaves after each chain of ``offer`` in turn.

    ``members`` holds one entry per model row, and ``chains`` (default: all)
    the offered chains to grow, in order.  While the cap evicts nothing,
    growing one chain at a time keeps exactly the rows that no row grown so
    far dominates.  Dominance (at least as high at every box vertex, and
    higher at one or earlier) is transitive, so a pruned prefix that comes
    back is pruned again, and a row it would prune is pruned by a row that
    stays.  So the new prefixes of all chains are deduplicated, evaluated and
    pruned in one step.  When the new prefixes could take the family past its
    cap, and eviction could start partway through, the chains are grown in
    halves, down to one at a time.
    """
    m = len(model.c)
    chains = np.arange(len(offer)) if chains is None else chains
    seen = set(model.keys)
    picks, keys = [], []
    for j, prefixes in zip(chains.tolist(), offer.keys(chains)):
        for count, key in enumerate(prefixes, 1):
            if key not in seen:
                seen.add(key)
                picks.append((j, count))
                keys.append(key)
    if not keys and m <= cap and model.settled:
        return model, members  # growth would keep every member and add none
    if len(chains) > 1 and m + len(keys) > cap:
        # the cap may evict partway through
        half = len(chains) // 2
        model, members = _grow_rows(model, members, cap, offer, chains[:half])
        return _grow_rows(model, members, cap, offer, chains[half:])

    J, counts = np.array(picks, dtype=np.intp).reshape(-1, 2).T
    P, S, c = offer.rows(J, counts)
    P, S, c = np.concatenate([model.P, P]), np.concatenate([model.S, S]), np.concatenate([model.c, c])
    keep = np.ones(len(c), dtype=bool)
    at_vertices = None
    if model.vertices is not None:
        at_vertices = np.concatenate([model.at_vertices, offer.at_vertices(J, counts)])
        # first drop the new rows a member dominates: members come first, so
        # one as high at every vertex does, ties included; the matrix below
        # then spans the members and the surviving new rows only
        keep[m:] = ~_dominated_by(at_vertices[:m], at_vertices[m:])
        V = at_vertices[keep]
        if len(V) > 1:
            keep[keep] = ~_dominated(V)
            keep[0] = True  # the trivial member is load-bearing

    # evict the oldest non-trivial members down to the cap
    evicts = np.count_nonzero(keep) > cap
    if evicts:
        kept = np.flatnonzero(keep)
        keep[kept[1:len(kept) - cap + 1]] = False

    members = tuple(itertools.compress(members, keep[:m])) + tuple(
        offer.part(*picks[k]) for k in np.flatnonzero(keep[m:]).tolist())
    model = _AffineModel(
        P[keep], S[keep], c[keep], tuple(itertools.compress(model.keys + tuple(keys), keep)),
        model.vertices, model.closed and not evicts,
        None if at_vertices is None else at_vertices[keep], settled=True,
    )
    return model, members


def _dominated(V) -> np.ndarray:
    """Which rows of the vertex-value matrix ``V`` another row dominates.

    Row i dominates row j when it is >= at every vertex and either > at one
    or earlier; where geq[i, j] holds no value is NaN, so "> at one" is "not
    geq[j, i]", and no row dominates itself.
    """
    geq = (V[:, None, :] >= V[None, :, :]).all(axis=2)
    order = np.arange(len(V))
    return (geq & (~geq.T | np.less.outer(order, order))).any(axis=0)


def _dominated_by(A, R) -> np.ndarray:
    # whether some row of A is at least each row of R at every column, in
    # chunks of R: a level's block may hold tens of thousands of children
    out = np.empty(len(R), dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // max(1, A.size))
    for lo in range(0, len(R), step):
        out[lo:lo + step] = (A[None, :, :] >= R[lo:lo + step, None, :]).all(axis=2).any(axis=1)
    return out


def submap_select(family: SequenceFamily, svmap: SetValuedMap, x, tol: float = 0.0):
    """Support-maximizing velocity at ``x`` if it clears the model, else None.

    The candidate is ``support_argmax(x - x_0, F(x))`` (nearest to the anchor
    velocity when ``x`` is the anchor itself, where any value clears a zero
    bound).  It is returned iff it is compatible: its extension's slack
    ``<x - x_0, candidate> - potential`` is at least ``-tol``.
    """
    x = np.asarray(x, dtype=float)
    values = svmap.eval(x).points
    offsets = (x - family.anchor_point)[None]
    products = inner_rows(offsets[:, None], values)
    pick = _rule_picks("support", values, family.anchor_velocity, offsets, products, None)[0][0]
    if products[0, pick] - potential_value(family, x) >= -tol:
        return values[pick]
    return None


def submap_contains(family: SequenceFamily, svmap: SetValuedMap, x, v,
                    tol: float = 0.0) -> bool:
    """Whether ``v`` is a compatible velocity at ``x``.

    ``v`` must be an exact value of the map at ``x``; the test is then
    that its extension's slack ``<x - x_0, v> - potential`` is at least
    ``-tol``, as :func:`subgradient_test` checks it.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not svmap.eval(x).contains(v):
        raise ValueError("velocity is not a value of the map at x")
    return inner(x - family.anchor_point, v) - potential_value(family, x) >= -tol


def subgradient_test(family: SequenceFamily, x, v, probes, tol: float = 0.0) -> bool:
    """Check that an accepted pair acts as a subgradient of the grown model.

    The best member at ``x`` (the first, on ties) is extended by ``(x, v)``
    and the family grown with it; the test passes when at every probe ``y``

        potential(grown, y) >= potential(family, x) + <v, y - x> - tol.

    Growing raises when the pair was not actually compatible (the extension
    then fails the chain inequality), surfacing precondition violations.  All
    probes are checked at once; with none, only the growth is checked.  The
    extension's own affine function is the right-hand side before ``tol`` is
    taken off, so at ``tol >= 0`` the test passes whenever growth keeps it, and
    otherwise compares the family grown by no chain; see
    :func:`_subgradient_checks`.
    """
    dim = family.dimension
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != (dim,) or v.shape != (dim,):
        raise ValueError(f"dimension mismatch: x {x.shape}, v {v.shape}, family ({dim},)")
    return bool(_subgradient_checks(family, x[None, :], v[None, :],
                                    _point_rows(probes, dim), tol)[0])


def _subgradient_checks(family, X, V, Y, tol) -> np.ndarray:
    """:func:`subgradient_test` of every node ``(X[n], V[n])`` at the probes ``Y``.

    Nodes are taken in blocks.  Every member was verified when it joined, so
    a node's extension, whose last sum is the best member's model value
    ``base`` at ``X[n]``, needs only its final slack checked; the first node
    whose extension fails raises the error of :func:`grow_family`.  Growing a
    settled and closed family within its cap (see :class:`_AffineModel`) by
    an extension adds at most its last row, and evicts only for it.  At a
    probe ``y`` that row is ``<y - X[n], V[n]> + base``, the test's bound
    before ``tol`` is taken off, as rounded: so at ``tol >= 0`` a grown family
    that keeps the row, or whose members hold it already, passes.  Growth
    drops a new row when a member is as high at every box vertex, or when a
    cap of 1 evicts it; the grown family is then the family itself, whose
    maximum at the probes is computed once.  Any other family, and any
    ``tol`` below 0 or NaN, grows each node's extension through
    :func:`_grow_verified`.
    """
    model = family._model
    m, dim = len(family), family.dimension
    nv = 0 if model.vertices is None else len(model.vertices)
    batched = tol >= 0 and m <= family.cap and model.closed and model.settled
    top = None
    out = np.empty(len(X), dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // ((m + dim) * (len(Y) + nv + dim)))
    for lo in range(0, len(X), step):
        Xb, Vb = X[lo:lo + step], V[lo:lo + step]
        best, base = _best_members(model, Xb)
        # verify_chain's final slack of each extension, whose last sum is base
        failed = ~(inner_rows(Xb - family.anchor_point, Vb) - base >= -family.tol)
        if failed.any():
            raise ValueError("chain fails the chain inequality at index "
                             f"{len(family.members[best[failed.argmax()]])}")
        floor = base[:, None] + inner_rows(Vb[:, None, :], Y[None, :, :] - Xb[:, None, :]) - tol
        if not batched:
            for j, k in enumerate(best.tolist()):
                grown = _grow_verified(family, [family.members[k].extended(Xb[j], Vb[j])])
                out[lo + j] = not np.any(potential_values(grown, Y) < floor[j])
            continue
        # whether growth drops the new row
        dropped = np.full(len(Xb), family.cap == 1)
        if nv:
            dropped |= _dominated_by(model.at_vertices,
                                     _affine_values(Xb, Vb, base, model.vertices))
        if top is None:
            top = _model_max(model, Y)
        out[lo:lo + len(Xb)] = ~dropped | ~(top < floor).any(axis=1)
    return out


def _best_members(model, X):
    # the first member of highest value at each point, and that value
    at_x = _affine_values(model.P, model.S, model.c, X)
    best = at_x.argmax(axis=0)
    return best, at_x[best, np.arange(len(X))]


def _model_max(model, Y) -> np.ndarray:
    # the largest value at each of Y over the model's rows, in row blocks
    P, S, c = model.P, model.S, model.c
    top = np.full(len(Y), -np.inf)
    step = max(1, _BLOCK_ELEMENTS // max(1, len(Y)))
    for lo in range(0, len(c), step):
        hi = lo + step
        np.maximum(top, _affine_values(P[lo:hi], S[lo:hi], c[lo:hi], Y).max(axis=0), out=top)
    return top


def build_family(svmap: SetValuedMap, x0, v0, grid_points, max_length: int,
                 box=None, cap: int = DEFAULT_FAMILY_CAP, budget: int = DEFAULT_CHAIN_BUDGET,
                 tol: float = 0.0):
    """Grow a family from every verified chain discoverable over a grid.

    Breadth-first enumeration of chains anchored at ``(x0, v0)`` whose points
    run over ``grid_points`` and whose extension slacks stay nonnegative (so
    every member verifies exactly at any ``tol >= 0`` the family carries).
    Enumeration stops quietly once ``budget`` slack evaluations are spent; the
    family built so far is returned along with a stats dictionary.  A
    heuristic constructor: richer families give tighter models, and any
    verified chain may be grown in afterwards.

    The levels are the weak cyclic search's (``chains._levels``): each span
    of chains is scored against every (point, value) node at once, and the
    family grows once per span with its children in queue order: chain by
    chain, then node by node (grid order, then value order).  The span where
    the budget runs out grows the children found before that point, and no
    chain whose first evaluation lies past the budget is formed.  Growing a
    span at once gives the family growing each child in turn would (see
    :func:`grow_family`).  A slack evaluation is one chain and one node.
    While the family is closed (see :class:`_AffineModel`), children
    that a member is as high as at every vertex are dropped first, unless
    the others could take the family past its cap: growth would prune them.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not svmap.eval(x0).contains(v0):
        raise ValueError("anchor velocity not in F(x0)")
    graph = _ChainGraph(svmap, _point_rows(grid_points, x0.shape[0]))
    return _build_family(graph, x0, v0, max_length, box, budget, tol, cap)


def _build_family(graph, x0, v0, max_length, box, budget, tol, cap=DEFAULT_FAMILY_CAP):
    # the checks of SequenceFamily.initial, in its order; children have
    # slack >= 0 in verify_chain's own terms, so they verify only at tol >= 0
    if not (np.isfinite(x0).all() and np.isfinite(v0).all()):
        raise ValueError("chain entries must be finite")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    cap = int(cap)
    box = _check_box(box, x0.shape[0])
    K = len(graph.V)
    # <x_b - x_0, v_b>: the anchored side of every node's extension slack
    ends = _terms(x0[None], graph.X, graph.V[None])[0]
    # node K stands for the anchor, the first pair of every chain
    points, velocities = np.vstack([graph.X, x0]), np.vstack([graph.V, v0])
    vertices = None if box is None else _frozen(np.array(_box_vertices(box)))
    at_vertices = _vertex_terms(points, velocities, vertices)
    # the trivial member, a member being its node path and step sums until
    # the last level is grown
    trivial = (np.array([K]), np.zeros(1))
    model = _AffineModel(points[K:], velocities[K:], np.zeros(1),
                         ((points[K:].tobytes(), velocities[K:].tobytes()),), vertices, True,
                         None if vertices is None else at_vertices[K:] + trivial[1][:, None],
                         settled=True)
    members = (trivial,)
    grown = 0
    # a step reads its head only through its sample; every chain within the
    # budget is formed, whatever the span, so no step count bounds the spans
    search = _levels(trivial[0][None], trivial[1][None],
                     lambda tips: _terms(points[tips], graph.points, velocities[tips, None]),
                     K, graph.V.size, max_length - 1, budget, np.inf)
    try:
        for done, paths, sums, lo, hi, stepped, want in search:
            # row-major (chain, node) order is queue order, so the span's
            # evaluations within the budget are a prefix
            slack = (ends - stepped[:, graph.owner]).ravel()[:budget - (done + lo) * K]
            r, b = np.divmod(np.flatnonzero(slack >= 0.0), K)
            if not r.size:
                continue
            kid_paths = np.concatenate([paths[lo:hi][r], b[:, None]], axis=1)
            kid_sums = np.concatenate([sums[lo:hi][r], stepped[r, graph.owner[b], None]], axis=1)
            offer = _Offer(points, velocities, at_vertices, kid_paths, kid_sums,
                           np.full(len(r), kid_paths.shape[1]))
            live = None
            if vertices is not None and model.closed:
                # every proper prefix of a child was grown at an earlier
                # level, so a survivor adds at most its last row: under the
                # gate nothing is evicted, so a dropped child is pruned at its turn
                kept = ~_dominated_by(model.at_vertices, at_vertices[b] + kid_sums[:, -1:])
                if len(members) + np.count_nonzero(kept) <= cap:
                    live = np.flatnonzero(kept)
            model, members = _grow_rows(model, members, cap, offer, live)
            grown += len(r)
            if want:
                search.send((kid_paths, kid_sums))
        used, exhausted = (done + len(paths)) * K, False
    except BudgetExceededError:
        # running out counts one evaluation past the budget
        used, exhausted = max(budget, 0) + 1, True
    # each member gets its own read-only rows
    members = tuple(Chain._trusted(_frozen(points[p]), _frozen(velocities[p]), _frozen(s))
                    for p, s in members)
    family = SequenceFamily._trusted(x0, v0, members, box, float(tol), cap, model)
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
    return _json_bytes(family_to_json_dict(family)).decode() + "\n"


def family_from_text(text: str) -> SequenceFamily:
    return family_from_json_dict(json.loads(text))
