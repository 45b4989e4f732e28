"""Independent reference implementations used only by the test suite.

Everything here is written against the library from scratch, with
different algorithms and different summation orders, so agreement is
evidence rather than tautology.  The exception is the brute-force
classifier references at the end: they enumerate every chain with the
library's own inner product and summation order, so the batched
classifiers must match their reports byte for byte.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from setflow import (
    BudgetExceededError,
    Chain,
    ClassReport,
    extension_slack,
    inner,
    support_value,
)


def first_chain_violation_exact(points, velocities):
    """Exact-rational check of the chain inequality.

    Re-derives every partial sum from scratch with Fraction arithmetic.
    Input coordinates must be exactly representable floats (integers,
    halves, ...). Returns the first index m >= 1 where

        <x_m - x_0, v_m>  <  sum_{i<=m} <x_i - x_{i-1}, v_{i-1}>

    or None when the inequality holds at every index.
    """
    xs = [[Fraction(float(c)) for c in row] for row in points]
    vs = [[Fraction(float(c)) for c in row] for row in velocities]

    def dot(a, b):
        return sum(p * q for p, q in zip(a, b))

    def sub(a, b):
        return [p - q for p, q in zip(a, b)]

    for m in range(1, len(xs)):
        lhs = dot(sub(xs[m], xs[0]), vs[m])
        rhs = sum(dot(sub(xs[i], xs[i - 1]), vs[i - 1]) for i in range(1, m + 1))
        if lhs < rhs:
            return m
    return None


def chain_holds_exact(points, velocities):
    return first_chain_violation_exact(points, velocities) is None


def hull_distance_by_faces(point, vertices, coeff_tol=1e-9):
    """Distance from a point to conv(vertices) by face enumeration.

    Projects onto the affine hull of every subset of at most n+1
    vertices, keeps projections whose barycentric coordinates are
    nonnegative (those land inside the hull), and takes the minimum
    distance. Carathéodory guarantees the true nearest point shows up
    among these candidates. Exponential, fine for small inputs.
    """
    p = np.asarray(point, dtype=float)
    A = np.asarray(vertices, dtype=float)
    n = A.shape[1]
    best = min(float(np.linalg.norm(p - row)) for row in A)
    for size in range(2, min(len(A), n + 1) + 1):
        for idx in combinations(range(len(A)), size):
            S = A[list(idx)]
            # minimize |p - S^T w| subject to sum w = 1 via KKT system
            G = S @ S.T
            k = len(idx)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = G
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.append(S @ p, 1.0)
            w = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if abs(float(np.sum(w)) - 1.0) > 1e-7:
                continue
            if np.any(w < -coeff_tol):
                continue
            q = w @ S
            best = min(best, float(np.linalg.norm(p - q)))
    return best


def support_value_naive(direction, points):
    """Support function by a bare python loop, no vectorization."""
    d = list(map(float, direction))
    out = None
    for row in points:
        s = 0.0
        for a, b in zip(d, row):
            s += a * float(b)
        if out is None or s > out:
            out = s
    return out


def random_lattice_chain(rng, dim, pairs, span=3):
    """Random integer-lattice graph sequence (not necessarily CM)."""
    xs = rng.integers(-span, span + 1, size=(pairs, dim)).astype(float)
    vs = rng.integers(-span, span + 1, size=(pairs, dim)).astype(float)
    return xs, vs


def random_cm_chain(rng, dim, pairs, span=3):
    """Random CM sequence built from subgradients of a random PL function.

    Velocities are active slopes of f(x) = max_j (<s_j, x> + b_j) with
    integer data, so the chain inequality holds exactly and every
    quantity is an exact float.
    """
    pieces = int(rng.integers(1, 4))
    slopes = rng.integers(-span, span + 1, size=(pieces, dim)).astype(float)
    offsets = rng.integers(-span, span + 1, size=pieces).astype(float)
    xs = rng.integers(-span, span + 1, size=(pairs, dim)).astype(float)
    vs = np.empty_like(xs)
    for k, x in enumerate(xs):
        vals = slopes @ x + offsets
        active = np.flatnonzero(vals == vals.max())
        vs[k] = slopes[int(rng.choice(active))]
    return xs, vs


# ---------------------------------------------------------------------------
# brute-force classifier references
#
# The enumerations the chain-graph kernel replaced: every point tuple, every
# value combination and every point sequence, in the order the reports count
# them.  Their reports and budget errors are the byte-level reference for the
# kernel's.


class _Meter:
    def __init__(self, cap):
        self.used = 0
        self.cap = cap

    def spend(self):
        self.used += 1
        if self.used > self.cap:
            raise BudgetExceededError(self.used, self.cap)


def _describe(pts):
    return f"{len(pts)} points in R^{len(pts[0])}"


def cyclic_monotone_brute(svmap, samples, max_length, tol, budget):
    """Chain inequality at the final index of every chain, one at a time."""
    pts = [np.asarray(p, dtype=float) for p in samples]
    values = [svmap.eval(p).points for p in pts]
    meter = _Meter(budget)
    for m in range(1, max_length + 1):
        for idxs in product(range(len(pts)), repeat=m + 1):
            xs = [pts[i] for i in idxs]
            for combo in product(*(range(len(values[i])) for i in idxs)):
                meter.spend()
                vs = [values[i][c] for i, c in zip(idxs, combo)]
                rhs = 0.0
                for i in range(1, m + 1):
                    rhs += inner(xs[i] - xs[i - 1], vs[i - 1])
                slack = inner(xs[m] - xs[0], vs[m]) - rhs
                if slack < -tol:
                    witness = {
                        "points": [x.tolist() for x in xs],
                        "velocities": [v.tolist() for v in vs],
                        "index": m,
                        "slack": slack,
                    }
                    return ClassReport(
                        "cyclic_monotone", False, witness, tol, _describe(pts),
                        {"max_length": max_length, "chains_checked": meter.used},
                    )
    return ClassReport(
        "cyclic_monotone", True, None, tol, _describe(pts),
        {"max_length": max_length, "chains_checked": meter.used},
    )


def weak_cyclic_monotone_brute(svmap, samples, max_length, tol, budget):
    """Breadth-first queue of Chain objects, one extension slack at a time."""
    pts = [np.asarray(p, dtype=float) for p in samples]
    values = [svmap.eval(p).points for p in pts]
    meter = _Meter(budget)
    queue = deque(Chain([pts[i]], [v]) for i in range(len(pts)) for v in values[i])
    while queue:
        chain = queue.popleft()
        for x_next, candidates in zip(pts, values):
            feasible = []
            best = -np.inf
            for v in candidates:
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
                    "weak_cyclic_monotone", False, witness, tol, _describe(pts),
                    {"max_length": max_length, "extensions_checked": meter.used},
                )
            if len(chain) < max_length:
                for v in feasible:
                    queue.append(chain.extended(x_next, v))
    return ClassReport(
        "weak_cyclic_monotone", True, None, tol, _describe(pts),
        {"max_length": max_length, "extensions_checked": meter.used},
    )


def support_chain_brute(svmap, samples, max_length, tol, budget):
    """Support-function chain inequality along every materialised sequence."""
    pts = [np.asarray(p, dtype=float) for p in samples]
    sequences = []
    for length in range(2, max_length + 2):
        if len(pts) ** length > budget:
            raise BudgetExceededError(len(pts) ** length, budget)
        sequences.extend(product(pts, repeat=length))
    for checked, seq in enumerate(sequences, start=1):
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
        f"{len(sequences)} sequences", {"sequences_checked": len(sequences)},
    )
