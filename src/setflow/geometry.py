"""Euclidean primitives over finite point sets.

Points and directions are one dimensional float64 arrays.  A compact set is
represented by a nonempty finite list of points, so every supremum over it is
an exact maximum and support values, maximizers and distances can be computed
by enumeration.  Every inner product in the package goes through
:func:`inner_rows` (one pair at a time through :func:`inner`) so that identical
expressions round identically, batched or not, and every scan of a finite set
is one :func:`inner_rows` call over its rows.  A scan that picks a row breaks
ties by one rule, :func:`_best_row`: highest score, then the
lexicographically smallest point, then the first row.  That keeps repeated
runs byte-for-byte reproducible.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CompactSet",
    "HullProjectionError",
    "as_vector",
    "inner",
    "inner_rows",
    "norm",
    "support_value",
    "support_argmax",
    "nearest_point",
    "dist_to_set",
    "dist_to_hull",
    "HULL_MAX_ITER",
]

HULL_MAX_ITER = 10_000


class HullProjectionError(RuntimeError):
    """The nearest-point iteration did not reach the requested duality gap."""


def as_vector(coords) -> np.ndarray:
    """Validate ``coords`` as a point/direction and return a read-only array.

    Parameters
    ----------
    coords : array-like
        One dimensional, at least one entry, all entries finite.
    """
    v = np.array(coords, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("a vector must be one dimensional with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    v.flags.writeable = False
    return v


# The single dot-product primitive of the package: inner products over the
# last axis, broadcasting the leading axes.  :func:`inner` is this function on
# one pair, so a batched product and the scalar products of the same rows
# agree bit for bit.  Callers that need two expressions to agree must both
# route through here: a sum of elementwise products rounds differently for
# d >= 2, and ``np.dot`` keeps the sign of a zero result that this drops.
inner_rows = np.vecdot


def inner(u, v) -> float:
    """Standard inner product ``<u, v>`` of two vectors (see :func:`inner_rows`)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(inner_rows(u, v))


def norm(v) -> float:
    """Euclidean norm, routed through :func:`inner`."""
    return math.sqrt(inner(v, v))


class CompactSet:
    """Nonempty finite set of points in R^n, one point per row.

    Duplicate points are permitted; :meth:`canonical` returns a sorted,
    deduplicated copy.  The row array is read-only.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("a compact set needs at least one point of dimension >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("set points must be finite")
        pts.flags.writeable = False
        self.points = pts

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        rows = ", ".join("(" + ", ".join(repr(float(c)) for c in p) + ")"
                         for p in self.points)
        return f"CompactSet([{rows}])"

    def canonical(self) -> "CompactSet":
        """Lexicographically sorted copy with exact duplicates removed."""
        rows = sorted(tuple(p) for p in self.points)
        out = [rows[0]]
        for row in rows[1:]:
            if row != out[-1]:
                out.append(row)
        return CompactSet(np.array(out, dtype=float))

    def contains(self, p) -> bool:
        """Exact membership: some row equals ``p`` componentwise."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dimension,):
            raise ValueError(f"dimension mismatch: {p.shape} vs ({self.dimension},)")
        return bool(np.any(np.all(self.points == p, axis=1)))

    def norm_max(self) -> float:
        """Largest Euclidean norm over the points."""
        return math.sqrt(float(inner_rows(self.points, self.points).max()))

    def __eq__(self, other):
        if not isinstance(other, CompactSet):
            return NotImplemented
        a, b = self.canonical().points, other.canonical().points
        return a.shape == b.shape and bool(np.all(a == b))

    __hash__ = None


def _best_row(points: np.ndarray, scores: np.ndarray) -> int:
    # the package's one tie-break rule: the highest score, then the
    # lexicographically smallest point (-0.0 ties 0.0), then the first row
    ties = np.flatnonzero(scores == scores.max())
    for c in range(points.shape[1]):
        if len(ties) == 1:
            break
        column = points[ties, c]
        ties = ties[column == column.min()]
    return int(ties[0])


def support_value(d, A: CompactSet) -> float:
    """Support function ``max_{a in A} <d, a>`` of the finite set ``A``."""
    return float(inner_rows(A.points, np.asarray(d, dtype=float)).max())


def support_argmax(d, A: CompactSet) -> np.ndarray:
    """A point of ``A`` attaining :func:`support_value`.

    Among ties the lexicographically smallest point is returned, and
    ``inner(d, support_argmax(d, A)) == support_value(d, A)`` holds exactly
    because both take max over the same computed products.
    """
    scores = inner_rows(A.points, np.asarray(d, dtype=float))
    return A.points[_best_row(A.points, scores)]


def nearest_point(p, A: CompactSet) -> np.ndarray:
    """The point of ``A`` closest to ``p`` (ties lexicographic)."""
    diffs = A.points - np.asarray(p, dtype=float)
    return A.points[_best_row(A.points, -inner_rows(diffs, diffs))]


def dist_to_set(p, A: CompactSet) -> float:
    """Distance from ``p`` to the finite set ``A``; zero iff ``p`` is a member."""
    p = np.asarray(p, dtype=float)
    if p.shape != (A.dimension,):
        raise ValueError(f"dimension mismatch: {p.shape} vs ({A.dimension},)")
    diffs = A.points - p
    # sqrt is monotone, so the root of the least square is the least norm
    return math.sqrt(float(inner_rows(diffs, diffs).min()))


def _affine_min_weights(P: np.ndarray) -> np.ndarray:
    # minimize |sum_i mu_i P_i|^2 subject to sum mu = 1 (KKT system)
    k = P.shape[0]
    M = np.zeros((k + 1, k + 1))
    M[:k, :k] = P @ P.T
    M[:k, k] = 1.0
    M[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return sol[:k]


def dist_to_hull(p, A: CompactSet, tol: float = 1e-9, max_iter: int = HULL_MAX_ITER) -> float:
    """Distance from ``p`` to the convex hull of ``A``, within ``tol``.

    Nearest-point iteration over convex combinations of the points of ``A``
    (min-norm-point scheme: repeatedly add the best support vertex, then pull
    the iterate to the nearest point of the affine hull of the active vertices,
    dropping vertices whose coefficient would turn negative).  Iteration stops
    once the duality gap certifies the returned value is within ``tol`` of the
    true distance; it raises :class:`HullProjectionError` after ``max_iter``
    rounds without that certificate.

    The result never exceeds :func:`dist_to_set` of the same inputs: the
    iterate starts at the nearest point of ``A`` and the scheme is monotone.
    """
    p = np.asarray(p, dtype=float)
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if p.shape != (A.dimension,):
        raise ValueError(f"dimension mismatch: {p.shape} vs ({A.dimension},)")

    B = A.canonical().points - p
    start = _best_row(B, -inner_rows(B, B))
    active = [start]
    weights = np.array([1.0])
    x = B[start].astype(float)

    # the gap bounds the squared-distance error, so tol^2 certifies tol on the
    # distance itself; for tol >= 1 the plain gap is already enough
    threshold = min(tol, tol * tol)

    prev_xx = math.inf
    for _ in range(max_iter):
        xx = inner(x, x)
        if xx == 0.0:
            return 0.0
        if xx >= prev_xx:
            # exact arithmetic decreases |x|^2 every round, so a stall means
            # float precision is exhausted and the iterate cannot improve
            return math.sqrt(xx)
        prev_xx = xx
        dots = inner_rows(B, x)
        best = _best_row(B, -dots)
        gap = 2.0 * (xx - float(dots[best]))
        if gap <= threshold:
            return math.sqrt(xx)
        if best in active:
            # at the affine minimum every active dot equals xx, so a positive
            # gap here is pure roundoff; the iterate is as good as it gets
            return math.sqrt(xx)
        active.append(best)
        weights = np.append(weights, 0.0)
        while True:
            mu = _affine_min_weights(B[active])
            if np.all(mu > 1e-12):
                weights = mu
                break
            # step toward mu until the first coefficient hits zero, drop those
            shrink = 1.0
            for lam_i, mu_i in zip(weights, mu):
                if mu_i <= 1e-12 and lam_i > mu_i:
                    shrink = min(shrink, lam_i / (lam_i - mu_i))
            weights = weights + shrink * (mu - weights)
            keep = [i for i, w in enumerate(weights) if w > 1e-12]
            if not keep:
                keep = [int(np.argmax(weights))]
            active = [active[i] for i in keep]
            weights = weights[keep]
            weights = weights / weights.sum()
        x = weights @ B[active]
    raise HullProjectionError(
        f"no duality-gap certificate below {threshold!r} after {max_iter} iterations"
    )
