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
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CompactSet, as_vector, inner, norm, support_argmax, dist_to_set

__all__ = [
    "ACTIVITY_TOL",
    "STRATEGIES",
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
    "closed_graph_diagnostic",
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
    bound_rule : callable, optional
        ``(center, radius) -> float`` bounding ``max |F(x)|`` over the closed
        ball; when omitted, :meth:`local_bound` falls back to sampling.
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

    def local_bound(self, center, radius: float) -> float:
        """Bound on ``max |F(x)|`` over the ball around ``center``.

        Uses the analytic rule when one was provided, otherwise the max of
        ``|F(p)|`` over a fixed lattice inside the ball (a heuristic sample,
        not a certificate).
        """
        center = np.asarray(center, dtype=float)
        if center.shape != (self.dimension,):
            raise ValueError("dimension mismatch for local_bound center")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if self._bound_rule is not None:
            return float(self._bound_rule(center, float(radius)))
        best = self.eval(center).norm_max()
        if radius == 0:
            return best
        axes = [np.linspace(c - radius, c + radius, 5) for c in center]
        for coords in itertools.product(*axes):
            p = np.array(coords)
            if norm(p - center) <= radius:
                best = max(best, self.eval(p).norm_max())
        return best

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
        if not (np.all(np.isfinite(slopes)) and np.all(np.isfinite(offsets))):
            raise ValueError("pieces must be finite")
        slopes.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "offsets", offsets)

    @property
    def dimension(self) -> int:
        return self.slopes.shape[1]

    def piece_values(self, x) -> list[float]:
        x = np.asarray(x, dtype=float)
        return [inner(a, x) + float(b) for a, b in zip(self.slopes, self.offsets)]

    def value(self, x) -> float:
        return max(self.piece_values(x))

    def active_slopes(self, x) -> CompactSet:
        """Slopes of the pieces active at ``x`` within :data:`ACTIVITY_TOL`."""
        vals = self.piece_values(x)
        top = max(vals)
        seen = []
        for a, t in zip(self.slopes, vals):
            if t >= top - ACTIVITY_TOL:
                key = tuple(a)
                if key not in [tuple(s) for s in seen]:
                    seen.append(a)
        return CompactSet(np.array(seen))


# ---------------------------------------------------------------------------
# region predicates for table maps

@dataclass(frozen=True)
class Halfspace:
    """Points with ``<normal, x> op value`` for op in lt/le/eq/ge/gt."""

    normal: tuple
    value: float
    op: str

    def __post_init__(self):
        if self.op not in ("lt", "le", "eq", "ge", "gt"):
            raise ValueError(f"unknown comparison op {self.op!r}")
        object.__setattr__(self, "normal", tuple(float(c) for c in self.normal))
        object.__setattr__(self, "value", float(self.value))

    def matches(self, x) -> bool:
        t = inner(np.array(self.normal), x)
        return {
            "lt": t < self.value,
            "le": t <= self.value,
            "eq": t == self.value,
            "ge": t >= self.value,
            "gt": t > self.value,
        }[self.op]

    def to_dict(self):
        return {"kind": "halfspace", "normal": list(self.normal), "value": self.value, "op": self.op}


@dataclass(frozen=True)
class Box:
    """Closed coordinate box ``low <= x <= high``."""

    low: tuple
    high: tuple

    def __post_init__(self):
        object.__setattr__(self, "low", tuple(float(c) for c in self.low))
        object.__setattr__(self, "high", tuple(float(c) for c in self.high))
        if len(self.low) != len(self.high):
            raise ValueError("box bounds must share a dimension")

    def matches(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(np.array(self.low) <= x) and np.all(x <= np.array(self.high)))

    def to_dict(self):
        return {"kind": "box", "low": list(self.low), "high": list(self.high)}


@dataclass(frozen=True)
class Always:
    """Catch-all region."""

    def matches(self, x) -> bool:
        return True

    def to_dict(self):
        return {"kind": "always"}


def predicate_from_dict(d) -> Halfspace | Box | Always:
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

def constant_map(A) -> SetValuedMap:
    """The map with value ``A`` everywhere. ``A`` may be any point array."""
    if not isinstance(A, CompactSet):
        A = CompactSet(A)
    bound = A.norm_max()
    return SetValuedMap(
        A.dimension,
        lambda x: A,
        bound_rule=lambda c, r: bound,
        kind="constant",
        params={"kind": "constant", "points": A.points.tolist()},
    )


def pl_subdifferential_map(f: PLConvexFunction) -> SetValuedMap:
    """Active-slope map of a piecewise-linear convex function.

    The value at ``x`` is the set of slopes of pieces active at ``x``: the
    extreme points of the subdifferential, a singleton wherever ``f`` is
    differentiable.
    """
    bound = max(norm(a) for a in f.slopes)
    return SetValuedMap(
        f.dimension,
        f.active_slopes,
        bound_rule=lambda c, r: bound,
        kind="subdifferential",
        params={
            "kind": "subdifferential",
            "slopes": f.slopes.tolist(),
            "offsets": f.offsets.tolist(),
        },
    )


def linear_map(M) -> SetValuedMap:
    """Singleton-valued map ``x -> {M x}``."""
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    M.flags.writeable = False
    opnorm = float(np.linalg.norm(M, 2))
    return SetValuedMap(
        M.shape[0],
        lambda x: CompactSet((M @ x).reshape(1, -1)),
        bound_rule=lambda c, r: opnorm * (norm(c) + r),
        kind="linear",
        params={"kind": "linear", "matrix": M.tolist()},
    )


def table_map(regions) -> SetValuedMap:
    """First-match region table ``[(predicate, CompactSet), ...]``.

    Evaluation raises :class:`UncoveredPointError` at points no region
    matches; listing an :class:`Always` region last makes a table total.
    """
    regions = [
        (where, value if isinstance(value, CompactSet) else CompactSet(value))
        for where, value in regions
    ]
    if not regions:
        raise ValueError("a table map needs at least one region")
    dim = regions[0][1].dimension
    for _, value in regions:
        if value.dimension != dim:
            raise ValueError("all region values must share a dimension")

    def evaluate(x):
        for predicate, value in regions:
            if predicate.matches(x):
                return value
        raise UncoveredPointError(f"point {tuple(x)} matches no region")

    params = {
        "kind": "table",
        "regions": [
            {"where": pred.to_dict(), "points": value.points.tolist()}
            for pred, value in regions
        ],
    }
    return SetValuedMap(dim, evaluate, kind="table", params=params)


def map_from_dict(d) -> SetValuedMap:
    """Build a map from its JSON description (see ``parse_problem``)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ProblemFormatError("map: description must be an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "constant":
            return constant_map(CompactSet(np.array(d["points"], dtype=float)))
        if kind == "subdifferential":
            return pl_subdifferential_map(PLConvexFunction(d["slopes"], d["offsets"]))
        if kind == "linear":
            return linear_map(d["matrix"])
        if kind == "table":
            regions = [
                (predicate_from_dict(r["where"]), CompactSet(np.array(r["points"], dtype=float)))
                for r in d["regions"]
            ]
            return table_map(regions)
    except ProblemFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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
        low = tuple(float(c) for c in self.low)
        high = tuple(float(c) for c in self.high)
        counts = tuple(int(c) for c in self.counts)
        if not (len(low) == len(high) == len(counts)) or len(low) < 1:
            raise ValueError("grid low/high/counts must share a positive length")
        if any(h < l for l, h in zip(low, high)):
            raise ValueError("grid box is inverted")
        if any(c < 1 for c in counts):
            raise ValueError("grid counts must be at least 1")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "counts", counts)

    def points(self) -> list[np.ndarray]:
        return sample_grid(self.low, self.high, self.counts)

    def to_dict(self):
        return {"low": list(self.low), "high": list(self.high), "counts": list(self.counts)}


def sample_grid(low, high, counts) -> list[np.ndarray]:
    """Lattice points of the box, endpoints included on every axis.

    A count of 1 keeps the low endpoint only.  Points are emitted in row-major
    order (last axis fastest), deterministically.
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    counts = [int(c) for c in np.atleast_1d(counts)]
    if low.shape != high.shape or low.ndim != 1 or len(counts) != low.size:
        raise ValueError("grid low/high/counts must share a positive length")
    if np.any(high < low):
        raise ValueError("grid box is inverted")
    if any(c < 1 for c in counts):
        raise ValueError("grid counts must be at least 1")
    axes = [np.linspace(l, h, c) for l, h, c in zip(low, high, counts)]
    return [as_vector(t) for t in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# problem specs

_REQUIRED_FIELDS = ("map", "x0", "v0", "T", "h", "strategy", "tol")
_OPTIONAL_FIELDS = ("grid", "max_length", "steps")


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
        try:
            x0 = as_vector(self.x0)
            v0 = as_vector(self.v0)
        except ValueError as exc:
            raise ProblemFormatError(f"x0/v0: {exc}") from exc
        if x0.shape != (self.map.dimension,):
            raise ProblemFormatError("x0: dimension does not match the map")
        if v0.shape != (self.map.dimension,):
            raise ProblemFormatError("v0: dimension does not match the map")
        if not self.map.eval(x0).contains(v0):
            raise ProblemFormatError("v0: initial velocity not in F(x0)")
        if not (self.horizon > 0):
            raise ProblemFormatError("T: must be positive")
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

    def with_overrides(self, tol=None, strategy=None, grid=None, max_length=None, steps=None):
        out = replace(self)
        if tol is not None:
            out.tol = float(tol)
        if strategy is not None:
            out.strategy = strategy
        if grid is not None:
            out.grid = grid
        if max_length is not None:
            out.max_length = int(max_length)
        if steps is not None:
            out.step_counts = tuple(int(c) for c in steps)
        return out.validated()


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
    unknown = sorted(set(doc) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS))
    if unknown:
        raise ProblemFormatError(f"document: unknown fields {unknown}")

    svmap = map_from_dict(doc["map"])
    grid = None
    if "grid" in doc:
        g = doc["grid"]
        try:
            grid = GridSpec(g["low"], g["high"], _integers("grid.counts", g["counts"]))
        except ProblemFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemFormatError(f"grid: {exc}") from exc
    step_counts = tuple(_integers("steps", doc["steps"])) if "steps" in doc else None

    def _number(name):
        value = doc[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProblemFormatError(f"{name}: must be a number")
        return float(value)

    spec = ProblemSpec(
        map=svmap,
        x0=np.asarray(doc["x0"], dtype=float),
        v0=np.asarray(doc["v0"], dtype=float),
        horizon=_number("T"),
        step=_number("h"),
        strategy=doc["strategy"],
        tol=_number("tol"),
        grid=grid,
        max_length=_integer("max_length", doc["max_length"]) if "max_length" in doc else None,
        step_counts=step_counts,
    )
    return spec.validated()


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
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# diagnostics

def closed_graph_diagnostic(svmap: SetValuedMap, points, limit_point, directions, tol: float) -> bool:
    """Sampling check that graph limits land back in the value set.

    Along each probe direction a support-maximizing velocity is selected at
    every point of the (convergent) sample sequence; whenever that selection
    settles, the settled velocity must lie within ``tol`` of the value at the
    limit point.  A sampling diagnostic, not a proof of upper semicontinuity.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if len(points) < 2:
        raise ValueError("need at least two sample points")
    limit_value = svmap.eval(limit_point)
    for d in directions:
        picks = [support_argmax(d, svmap.eval(p)) for p in points]
        tail = picks[-min(3, len(picks)):]
        settled = all(norm(a - b) <= tol for a in tail for b in tail)
        if settled and dist_to_set(tail[-1], limit_value) > tol:
            return False
    return True
