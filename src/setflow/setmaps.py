"""Set-valued maps with finite values, and the problem-spec document format.

A map sends a point of R^n to a nonempty :class:`~setflow.geometry.CompactSet`.
Built-in constructors cover the cases the rest of the package is exercised on:
constant maps, active-slope maps of piecewise-linear convex functions, linear
single-valued maps, and region tables.  A :class:`ProblemSpec` bundles a map
with an initial condition and integration parameters; it round-trips through a
JSON document whose exact field names are part of the public interface (see
``parse_problem``).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import orjson

from .geometry import CompactSet, as_vector, inner_rows, norm

__all__ = [
    "ACTIVITY_TOL",
    "UncoveredPointError",
    "ProblemFormatError",
    "SetValuedMap",
    "PLConvexFunction",
    "Halfspace",
    "Box",
    "Always",
    "constant_map",
    "pl_subdifferential_map",
    "linear_map",
    "table_map",
    "map_from_dict",
    "map_to_dict",
    "sample_grid",
    "GridSpec",
    "ProblemSpec",
    "parse_problem",
    "serialize_problem",
]

# a max-of-affine piece counts as active when its value is within this
# absolute tolerance of the max
ACTIVITY_TOL = 1e-12

STRATEGIES = ("exhaustive", "support", "inertial")


class UncoveredPointError(ValueError):
    """A table map was evaluated at a point no region covers."""


class ProblemFormatError(ValueError):
    """A problem-spec document failed to parse or validate."""


class SetValuedMap:
    """A rule ``x -> F(x)`` with nonempty finite values.

    Parameters
    ----------
    dimension : int
        Dimension n of both arguments and values.
    evaluator : callable
        Maps a point array to a :class:`CompactSet` of the same dimension.
        If it also has a method ``many(X) -> (values, owner)``, as the
        compiled kernel of every built-in constructor does, :meth:`eval_many`
        calls that; any other evaluator is called point by point.
    bound_rule : callable, optional
        ``(center, radius) -> float`` bounding ``max |F(x)|`` over the closed
        ball; without one, :meth:`local_bound` raises.
    kind, params
        Descriptive metadata; for the built-in constructors ``params`` is
        exactly the JSON description the map round-trips through.
    """

    __slots__ = ("dimension", "_evaluator", "_bound_rule", "kind", "params")

    def __init__(self, dimension, evaluator, bound_rule=None, kind="custom", params=None):
        if int(dimension) < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension = int(dimension)
        self._evaluator = evaluator
        self._bound_rule = bound_rule
        self.kind = kind
        self.params = params

    def eval(self, x) -> CompactSet:
        """Evaluate the map; the result is checked nonempty and dimensioned."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"dimension mismatch: point {x.shape} vs map ({self.dimension},)")
        value = self._evaluator(x)
        if not isinstance(value, CompactSet):
            raise TypeError("evaluator must return a CompactSet")
        if value.dimension != self.dimension:
            raise ValueError("evaluator returned a set of the wrong dimension")
        return value

    __call__ = eval

    def eval_many(self, X):
        """The values at every row of ``X`` at once, as ``(values, owner)``.

        ``values`` stacks the value rows of each point in order and
        ``owner[j]`` is the row of ``X`` that ``values[j]`` belongs to, so
        ``values[owner == i]`` is ``eval(X[i]).points`` bit for bit.  It
        raises what :meth:`eval` raises at the first row where that raises.
        Both arrays are read-only.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError(f"dimension mismatch: points {X.shape} vs map (n, {self.dimension})")
        many = getattr(self._evaluator, "many", None)
        if many is not None:
            values, owner = many(X)
        else:
            sets = [self.eval(x).points for x in X]
            values = np.concatenate(sets) if sets else np.empty((0, self.dimension))
            owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
        values.flags.writeable = False
        owner.flags.writeable = False
        return values, owner

    def local_bound(self, center, radius: float) -> float:
        """Bound on ``max |F(x)|`` over the ball around ``center``.

        Given by the map's bound rule; every built-in constructor supplies
        one.  Raises :class:`ValueError` for a map built without a rule.
        """
        center = np.asarray(center, dtype=float)
        if center.shape != (self.dimension,):
            raise ValueError("dimension mismatch for local_bound center")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if self._bound_rule is None:
            raise ValueError(f"map of kind {self.kind!r} has no bound rule")
        return float(self._bound_rule(center, float(radius)))

    def __repr__(self):
        return f"SetValuedMap(kind={self.kind!r}, dimension={self.dimension})"


@dataclass(frozen=True)
class PLConvexFunction:
    """Convex function given as a finite max of affine pieces.

    ``value(x) = max_i (<slopes[i], x> + offsets[i])``.
    """

    slopes: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        slopes = np.array(self.slopes, dtype=float)
        if slopes.ndim == 1:
            slopes = slopes.reshape(-1, 1)
        offsets = np.array(self.offsets, dtype=float)
        if slopes.ndim != 2 or slopes.shape[0] < 1:
            raise ValueError("at least one affine piece is required")
        if offsets.shape != (slopes.shape[0],):
            raise ValueError("offsets must match the number of pieces")
        if not (np.isfinite(slopes).all() and np.isfinite(offsets).all()):
            raise ValueError("pieces must be finite")
        slopes.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "_active", _ActiveSlopes(slopes, offsets))

    @property
    def dimension(self) -> int:
        return self.slopes.shape[1]

    def piece_values(self, x) -> np.ndarray:
        """Value of every affine piece at ``x``, in piece order."""
        return inner_rows(self.slopes, np.asarray(x, dtype=float)) + self.offsets

    def value(self, x) -> float:
        return float(self.piece_values(x).max())

    def active_slopes(self, x) -> CompactSet:
        """Slopes of the pieces active at ``x`` within :data:`ACTIVITY_TOL`.

        Each distinct slope appears once, at its first active piece.
        """
        return self._active(np.asarray(x, dtype=float))


class _ActiveSlopes:
    """Compiled active-slope map of a :class:`PLConvexFunction`.

    ``twins`` holds each pair ``(i, j)``, ``j < i``, of pieces with equal
    slopes: piece ``i`` is dropped wherever piece ``j`` is active too.
    ``singletons[i]`` is the frozen value ``{slopes[i]}``, returned as it is
    wherever one piece alone is active.
    """

    __slots__ = ("slopes", "offsets", "twins", "singletons")

    def __init__(self, slopes, offsets):
        self.slopes = slopes
        self.offsets = offsets
        rows = [tuple(row) for row in slopes.tolist()]
        self.twins = [(i, j) for i in range(len(rows)) for j in range(i) if rows[i] == rows[j]]
        self.singletons = [CompactSet._trusted(slopes[i:i + 1]) for i in range(len(slopes))]

    def _kept(self, active):
        # each slope at its first active piece
        kept = active.copy()
        for i, j in self.twins:
            kept[..., i] &= ~active[..., j]
        return kept

    def __call__(self, x) -> CompactSet:
        vals = inner_rows(self.slopes, x) + self.offsets
        active = vals >= vals.max() - ACTIVITY_TOL
        if np.count_nonzero(active) == 1:
            return self.singletons[active.argmax()]
        # no active piece (NaN values) fails the check of CompactSet
        return CompactSet(self.slopes[self._kept(active)])

    def many(self, X):
        vals = inner_rows(X[:, None, :], self.slopes) + self.offsets
        kept = self._kept(vals >= vals.max(axis=1, keepdims=True) - ACTIVITY_TOL)
        empty = ~kept.any(axis=1)
        if empty.any():
            self(X[empty.argmax()])  # raises what eval raises there
        owner, piece = np.nonzero(kept)
        return self.slopes[piece], owner


# ---------------------------------------------------------------------------
# region predicates for table maps

# each comparison op as a ufunc, so one call tests a point or a batch
_OP_UFUNCS = {
    "lt": np.less,
    "le": np.less_equal,
    "eq": np.equal,
    "ge": np.greater_equal,
    "gt": np.greater,
}


def _in_boxes(low, high, x):
    # closed box test over the last axis, batched or not
    return ((low <= x) & (x <= high)).all(axis=-1)


@dataclass(frozen=True)
class Halfspace:
    """Points with ``<normal, x> op value`` for op in lt/le/eq/ge/gt."""

    normal: tuple
    value: float
    op: str

    def __post_init__(self):
        if self.op not in _OP_UFUNCS:
            raise ValueError(f"unknown comparison op {self.op!r}")
        object.__setattr__(self, "normal", tuple(map(float, self.normal)))
        object.__setattr__(self, "value", float(self.value))

    def to_dict(self):
        return {"kind": "halfspace", "normal": list(self.normal), "value": self.value, "op": self.op}


@dataclass(frozen=True)
class Box:
    """Closed coordinate box ``low <= x <= high``."""

    low: tuple
    high: tuple

    def __post_init__(self):
        object.__setattr__(self, "low", tuple(map(float, self.low)))
        object.__setattr__(self, "high", tuple(map(float, self.high)))
        if len(self.low) != len(self.high):
            raise ValueError("box bounds must share a dimension")

    def to_dict(self):
        return {"kind": "box", "low": list(self.low), "high": list(self.high)}


@dataclass(frozen=True)
class Always:
    """Catch-all region."""

    def to_dict(self):
        return {"kind": "always"}


def predicate_from_dict(d) -> Halfspace | Box | Always:
    if not isinstance(d, dict):
        raise ProblemFormatError(f"map.regions: predicate must be an object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "halfspace":
        return Halfspace(d["normal"], d["value"], d["op"])
    if kind == "box":
        return Box(d["low"], d["high"])
    if kind == "always":
        return Always()
    raise ProblemFormatError(f"map.regions: unknown predicate kind {kind!r}")


# ---------------------------------------------------------------------------
# constructors

class _Constant:
    """Compiled constant map: its one value set."""

    __slots__ = ("value",)

    def __init__(self, value: CompactSet):
        self.value = value

    def __call__(self, x) -> CompactSet:
        return self.value

    def many(self, X):
        n, m = len(X), len(self.value)
        return np.tile(self.value.points, (n, 1)), np.repeat(np.arange(n), m)


def _norm_bound(points):
    # the largest norm over the rows of points, as a bound rule formed on its
    # first call: classify and potential never ask for one
    bound = None

    def rule(center, radius):
        nonlocal bound
        if bound is None:
            bound = CompactSet._trusted(points).norm_max()
        return bound
    return rule


def constant_map(A) -> SetValuedMap:
    """The map with value ``A`` everywhere. ``A`` may be any point array."""
    if not isinstance(A, CompactSet):
        A = CompactSet(A)
    return SetValuedMap(
        A.dimension,
        _Constant(A),
        bound_rule=_norm_bound(A.points),
        kind="constant",
        params={"kind": "constant", "points": A.points.tolist()},
    )


def pl_subdifferential_map(f: PLConvexFunction) -> SetValuedMap:
    """Active-slope map of a piecewise-linear convex function.

    The value at ``x`` is the set of slopes of pieces active at ``x``: the
    extreme points of the subdifferential, a singleton wherever ``f`` is
    differentiable.
    """
    return SetValuedMap(
        f.dimension,
        f._active,
        bound_rule=_norm_bound(f.slopes),
        kind="subdifferential",
        params={
            "kind": "subdifferential",
            "slopes": f.slopes.tolist(),
            "offsets": f.offsets.tolist(),
        },
    )


class _Linear:
    """Compiled linear map ``x -> {M x}``."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = matrix

    def __call__(self, x) -> CompactSet:
        value = (self.matrix @ x).reshape(1, -1)
        if not np.isfinite(value).all():
            raise ValueError("set points must be finite")
        return CompactSet._trusted(value)

    def many(self, X):
        # one matrix-vector product per row, as __call__ forms it
        values = np.matmul(self.matrix, X[:, :, None])[:, :, 0]
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            self(X[finite.argmin()])  # raises what eval raises there
        return values, np.arange(len(X))


def linear_map(M) -> SetValuedMap:
    """Singleton-valued map ``x -> {M x}``."""
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    M.flags.writeable = False
    # the operator norm is an SVD, and only a bound reads it
    opnorm = None

    def rule(center, radius):
        nonlocal opnorm
        if opnorm is None:
            opnorm = float(np.linalg.norm(M, 2))
        return opnorm * (norm(center) + radius)
    return SetValuedMap(
        M.shape[0],
        _Linear(M),
        bound_rule=rule,
        kind="linear",
        params={"kind": "linear", "matrix": M.tolist()},
    )


def _frozen(rows, shape) -> np.ndarray:
    a = np.array(rows, dtype=float).reshape(shape)
    a.flags.writeable = False
    return a


class _Table:
    """Compiled first-match region table.

    Each predicate is one test column: the halfspaces first, grouped by op
    so that one comparison covers each group, then the boxes, then one
    column that always holds.  Every halfspace normal is a row of one
    matrix, so one :func:`inner_rows` forms all their products.
    ``slot[r]`` is the column of region ``r``.  The region values are
    stacked in the read-only ``points``, region ``r`` at rows ``start[r]``
    to ``start[r] + count[r]``, and ``sets[r]`` is that slice.
    """

    __slots__ = ("sets", "normals", "levels", "groups", "boxes", "low", "high", "slot",
                 "points", "start", "count")

    def __init__(self, preds, points, count):
        dim = points.shape[1]
        halfspaces = [r for op in _OP_UFUNCS for r, p in enumerate(preds)
                      if isinstance(p, Halfspace) and p.op == op]
        boxes = [r for r, p in enumerate(preds) if isinstance(p, Box)]
        slot = [len(halfspaces) + len(boxes)] * len(preds)
        for column, r in enumerate(halfspaces + boxes):
            slot[r] = column
        self.slot = np.array(slot)
        self.normals = _frozen([preds[r].normal for r in halfspaces], (-1, dim))
        self.levels = _frozen([preds[r].value for r in halfspaces], -1)
        self.groups, stop = [], 0
        for op, run in itertools.groupby(preds[r].op for r in halfspaces):
            start, stop = stop, stop + len(list(run))
            self.groups.append((_OP_UFUNCS[op], slice(start, stop)))
        self.boxes = slice(len(halfspaces), len(halfspaces) + len(boxes))
        self.low = _frozen([preds[r].low for r in boxes], (-1, dim))
        self.high = _frozen([preds[r].high for r in boxes], (-1, dim))
        points.flags.writeable = False
        self.points = points
        self.count = np.array(count)
        self.start = np.cumsum(self.count) - self.count
        self.sets = [CompactSet._trusted(points[a:a + c])
                     for a, c in zip(self.start.tolist(), count)]

    def _hits(self, X):
        # one column per region: whether its predicate holds at each row of X
        # (or at the one point X)
        tests = np.empty(X.shape[:-1] + (len(self.levels) + len(self.low) + 1,), dtype=bool)
        tests[..., -1] = True
        if self.groups:
            # products of regions past the first match are formed too; the
            # first-match rule never reads them, so an overflow there must
            # not warn
            with np.errstate(over="ignore", invalid="ignore"):
                t = inner_rows(X[..., None, :], self.normals)
            for compare, columns in self.groups:
                compare(t[..., columns], self.levels[columns], out=tests[..., columns])
        if len(self.low):
            tests[..., self.boxes] = _in_boxes(self.low, self.high, X[..., None, :])
        return tests.take(self.slot, axis=-1)

    def __call__(self, x) -> CompactSet:
        hits = self._hits(x)
        first = hits.argmax()
        if not hits[first]:
            raise _uncovered(x)
        return self.sets[first]

    def many(self, X):
        hits = self._hits(X)
        first = hits.argmax(axis=1)
        covered = hits[np.arange(len(X)), first]
        if not covered.all():
            raise _uncovered(X[covered.argmin()])
        count = self.count[first]
        owner = np.repeat(np.arange(len(X)), count)
        # row j of point i's value is stacked row start[first[i]] + j
        rows = np.arange(len(owner)) + np.repeat(self.start[first] - (np.cumsum(count) - count), count)
        return self.points[rows], owner


def _uncovered(x) -> UncoveredPointError:
    return UncoveredPointError(f"point {tuple(x.tolist())} matches no region")


def _predicate_size(r, where):
    # the dimension the predicate of region r tests, None for Always
    if isinstance(where, Halfspace):
        return len(where.normal)
    if isinstance(where, Box):
        return len(where.low)
    if isinstance(where, Always):
        return None
    raise TypeError(f"region {r}: predicate must be a Halfspace, Box or Always")


def _compiled_table(preds, points, count) -> SetValuedMap:
    # the map of checked predicates and their stacked, finite value rows
    table = _Table(preds, points, count)
    rows = points.tolist()
    params = {
        "kind": "table",
        "regions": [{"where": pred.to_dict(), "points": rows[a:a + c]}
                    for pred, a, c in zip(preds, table.start.tolist(), count)],
    }
    return SetValuedMap(points.shape[1], table, bound_rule=_norm_bound(points), kind="table",
                        params=params)


def table_map(regions) -> SetValuedMap:
    """First-match region table ``[(predicate, CompactSet), ...]``.

    Predicates are :class:`Halfspace`, :class:`Box` or :class:`Always`, of
    the dimension of the values.  Evaluation raises
    :class:`UncoveredPointError` at points no region matches; listing an
    :class:`Always` region last makes a table total.  Its bound rule is the
    largest norm over all region values.  Any other predicate object, even
    one with a ``to_dict`` method, raises ``TypeError``: the compiled table
    reads the fields of the built-in kinds.
    """
    regions = [
        (where, value if isinstance(value, CompactSet) else CompactSet(value))
        for where, value in regions
    ]
    if not regions:
        raise ValueError("a table map needs at least one region")
    dim = regions[0][1].dimension
    for r, (where, value) in enumerate(regions):
        if value.dimension != dim:
            raise ValueError("all region values must share a dimension")
        size = _predicate_size(r, where)
        if size not in (None, dim):
            raise ValueError(f"region {r}: {type(where).__name__.lower()} of dimension {size}, "
                             f"values of dimension {dim}")
    return _compiled_table([where for where, _ in regions],
                           np.concatenate([value.points for _, value in regions]),
                           [len(value) for _, value in regions])


def _table_from_dicts(regions) -> SetValuedMap:
    # every region's points converted and checked as one stacked array.  A
    # description that does not give each region a nonempty list of finite
    # rows of the predicates' dimension goes through table_map, region by
    # region, which raises the first fault in region order, a region's
    # predicate before its points
    regions = list(regions)
    try:
        preds = [predicate_from_dict(r["where"]) for r in regions]
        count = [len(r["points"]) for r in regions]
        points = np.array([row for r in regions for row in r["points"]], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        points = None
    if (points is None or points.ndim != 2 or not points.shape[1] or not all(count)
            or not np.isfinite(points).all()
            or any(_predicate_size(r, p) not in (None, points.shape[1])
                   for r, p in enumerate(preds))):
        return table_map([(predicate_from_dict(r["where"]), CompactSet(r["points"]))
                          for r in regions])
    return _compiled_table(preds, points, count)


def map_from_dict(d) -> SetValuedMap:
    """Build a map from its JSON description (see ``parse_problem``)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ProblemFormatError("map: description must be an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "constant":
            return constant_map(d["points"])
        if kind == "subdifferential":
            return pl_subdifferential_map(PLConvexFunction(d["slopes"], d["offsets"]))
        if kind == "linear":
            return linear_map(d["matrix"])
        if kind == "table":
            return _table_from_dicts(d["regions"])
    except ProblemFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"map: bad {kind!r} description: {exc}") from exc
    raise ProblemFormatError(f"map.kind: unknown kind {kind!r}")


def map_to_dict(svmap: SetValuedMap) -> dict:
    if svmap.params is None:
        raise ValueError("only maps built from descriptions can be serialized")
    return svmap.params


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class GridSpec:
    """Inclusive lattice over a coordinate box: ``counts[i]`` points per axis."""

    low: tuple
    high: tuple
    counts: tuple

    def __post_init__(self):
        low = tuple(map(float, self.low))
        high = tuple(map(float, self.high))
        counts = tuple(map(int, self.counts))
        if not (len(low) == len(high) == len(counts)) or len(low) < 1:
            raise ValueError("grid low/high/counts must share a positive length")
        if not all(math.isfinite(h - l) for l, h in zip(low, high)):
            raise ValueError("grid bounds and their spans must be finite")
        if any(h < l for l, h in zip(low, high)):
            raise ValueError("grid box is inverted")
        if any(c < 1 for c in counts):
            raise ValueError("grid counts must be at least 1")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "counts", counts)

    def points(self) -> np.ndarray:
        """Lattice points of the box, one per row of a read-only array.

        Endpoints are included on every axis; a count of 1 keeps the low
        endpoint only.  Rows are in row-major order (last axis fastest).
        """
        d = len(self.counts)
        points = np.empty(self.counts + (d,))
        for k, (l, h, c) in enumerate(zip(self.low, self.high, self.counts)):
            # axis k of the lattice, broadcast over the axes after it
            points[..., k] = np.linspace(l, h, c).reshape((c,) + (1,) * (d - 1 - k))
        points = points.reshape(-1, d)
        points.flags.writeable = False
        return points

    def to_dict(self):
        return {"low": list(self.low), "high": list(self.high), "counts": list(self.counts)}


def sample_grid(low, high, counts) -> np.ndarray:
    """The ``(n, d)`` points of ``GridSpec(low, high, counts)``, which checks the box.

    ``counts`` may also be one number, for a one dimensional box.
    """
    return GridSpec(low, high, np.atleast_1d(counts)).points()


def _point_rows(points, dim) -> np.ndarray:
    # points as an (n, dim) array; a wrong dimension raises, never broadcasts
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        X = X.reshape(0, dim)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"dimension mismatch: points of shape {X.shape}, dimension {dim}")
    return X


# ---------------------------------------------------------------------------
# problem specs

_REQUIRED_FIELDS = ("map", "x0", "v0", "T", "h", "strategy", "tol")
_OPTIONAL_FIELDS = ("grid", "max_length", "steps")
_FIELDS = frozenset(_REQUIRED_FIELDS + _OPTIONAL_FIELDS)


@dataclass
class ProblemSpec:
    """A differential-inclusion problem plus integration parameters.

    ``horizon`` and ``step`` are the document fields ``T`` and ``h``.  The
    optional fields drive the classify/potential/refine workflows and are
    carried through serialization unchanged.
    """

    map: SetValuedMap
    x0: np.ndarray
    v0: np.ndarray
    horizon: float
    step: float
    strategy: str
    tol: float
    grid: GridSpec | None = None
    max_length: int | None = None
    step_counts: tuple | None = None

    def validated(self) -> "ProblemSpec":
        """Check every spec invariant, raising :class:`ProblemFormatError`."""
        x0, v0 = _spec_vector("x0", self.x0), _spec_vector("v0", self.v0)
        if x0.shape != (self.map.dimension,):
            raise ProblemFormatError("x0: dimension does not match the map")
        if v0.shape != (self.map.dimension,):
            raise ProblemFormatError("v0: dimension does not match the map")
        if not self.map.eval(x0).contains(v0):
            raise ProblemFormatError("v0: initial velocity not in F(x0)")
        if not (0 < self.horizon < math.inf):
            raise ProblemFormatError("T: must be positive and finite")
        if not (0 < self.step <= self.horizon):
            raise ProblemFormatError("h: must satisfy 0 < h <= T")
        if self.strategy not in STRATEGIES:
            raise ProblemFormatError(
                f"strategy: must be one of {', '.join(STRATEGIES)}"
            )
        if not (self.tol >= 0):
            raise ProblemFormatError("tol: must be nonnegative")
        if self.grid is not None and len(self.grid.low) != self.map.dimension:
            raise ProblemFormatError("grid: dimension does not match the map")
        if self.max_length is not None and self.max_length < 1:
            raise ProblemFormatError("max_length: must be at least 1")
        if self.step_counts is not None:
            counts = tuple(int(c) for c in self.step_counts)
            if any(c < 1 for c in counts):
                raise ProblemFormatError("steps: entries must be positive")
            self.step_counts = counts
        self.x0 = x0
        self.v0 = v0
        return self

    def __eq__(self, other):
        # fields hold arrays and closures, so compare the canonical document
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return serialize_problem(self) == serialize_problem(other)

    __hash__ = None


def _spec_vector(name, coords) -> np.ndarray:
    try:
        return as_vector(coords)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"{name}: {exc}") from exc


def _integer(name, value) -> int:
    # JSON integers only: no bools, strings or floats, even integral ones
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(f"{name}: must be an integer, got {json.dumps(value)}")
    return value


def _integers(name, values) -> list[int]:
    if not isinstance(values, list):
        raise ProblemFormatError(f"{name}: must be a list of integers, got {json.dumps(values)}")
    return [_integer(name, v) for v in values]


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem-spec JSON document.

    Required fields: ``map`` (an object with a ``kind`` of ``constant``,
    ``subdifferential``, ``linear`` or ``table`` plus its parameters), ``x0``,
    ``v0``, ``T``, ``h``, ``strategy`` (one of exhaustive/support/inertial)
    and ``tol``.  Optional: ``grid`` ({low, high, counts}), ``max_length``,
    ``steps``; ``max_length`` and the entries of ``counts`` and ``steps``
    must be JSON integers.  Unknown fields are rejected.  Numbers survive a
    serialize -> parse round trip exactly.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("document: top level must be an object")
    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise ProblemFormatError(f"{name}: required field is missing")
    unknown = doc.keys() - _FIELDS
    if unknown:
        raise ProblemFormatError(f"document: unknown fields {sorted(unknown)}")

    svmap = map_from_dict(doc["map"])
    grid = None
    if "grid" in doc:
        g = doc["grid"]
        try:
            grid = GridSpec(g["low"], g["high"], _integers("grid.counts", g["counts"]))
        except ProblemFormatError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProblemFormatError(f"grid: {exc}") from exc
    step_counts = tuple(_integers("steps", doc["steps"])) if "steps" in doc else None

    def _number(name):
        value = doc[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProblemFormatError(f"{name}: must be a number")
        try:
            return float(value)
        except OverflowError as exc:  # an integer literal past the float range
            raise ProblemFormatError(f"{name}: {exc}") from exc

    spec = ProblemSpec(
        map=svmap,
        x0=doc["x0"],
        v0=doc["v0"],
        horizon=_number("T"),
        step=_number("h"),
        strategy=doc["strategy"],
        tol=_number("tol"),
        grid=grid,
        max_length=_integer("max_length", doc["max_length"]) if "max_length" in doc else None,
        step_counts=step_counts,
    )
    return spec.validated()


# orjson writes a float outside 1e-4 <= |x| < 1e16 otherwise than repr():
# 1e-9 for 1e-09, 5e24 for 5e+24, and 0.0000117 for 1.17e-05.  Only a token
# that ends its line is rewritten: a string's line ends with its quote
_EXPONENT = re.compile(rb"e(-?)(\d+)(?=,?$)", re.M)
_FIFTH_PLACE = re.compile(rb"(?<![\d.])0\.0000([1-9])(\d*)(?=,?$)", re.M)


def _json_bytes(obj) -> bytes:
    """The text of ``json.dumps(obj, indent=2)``, as ASCII bytes.

    orjson writes it, with its exponent forms rewritten to those of
    ``float.__repr__``.  json writes it where orjson refuses ``obj``, where
    orjson's text holds a character that json escapes (past ASCII, or DEL),
    and where that text does not read back as ``obj``: NaN and infinities,
    which orjson writes as ``null``, and tuples, which read back as lists.
    """
    try:
        text = orjson.dumps(obj, option=orjson.OPT_INDENT_2)
    except TypeError:  # orjson.JSONEncodeError
        return json.dumps(obj, indent=2).encode()
    text = _EXPONENT.sub(lambda m: b"e" + (m[1] or b"+") + m[2].zfill(2), text)
    if b"0.0000" in text:
        text = _FIFTH_PLACE.sub(lambda m: m[1] + (b"." + m[2] if m[2] else b"") + b"e-05", text)
    if not text.isascii() or b"\x7f" in text or orjson.loads(text) != obj:
        return json.dumps(obj, indent=2).encode()
    return text


def serialize_problem(spec: ProblemSpec) -> str:
    """Inverse of :func:`parse_problem`, to full float precision."""
    doc = {
        "map": map_to_dict(spec.map),
        "x0": [float(c) for c in spec.x0],
        "v0": [float(c) for c in spec.v0],
        "T": float(spec.horizon),
        "h": float(spec.step),
        "strategy": spec.strategy,
        "tol": float(spec.tol),
    }
    if spec.grid is not None:
        doc["grid"] = spec.grid.to_dict()
    if spec.max_length is not None:
        doc["max_length"] = int(spec.max_length)
    if spec.step_counts is not None:
        doc["steps"] = [int(c) for c in spec.step_counts]
    return _json_bytes(doc).decode() + "\n"
