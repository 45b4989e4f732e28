"""Independent reference implementations used only by the test suite.

Everything here is written against the library from scratch, with
different algorithms and different summation orders, so agreement is
evidence rather than tautology.  The exceptions are the brute-force
classifier references and the per-member potential references at the end:
they run chain by chain and member by member with the library's own inner
product and summation order, so the batched kernels must match their
outputs byte for byte.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from setflow import (
    BudgetExceededError,
    Chain,
    ClassReport,
    SequenceFamily,
    affine_value,
    extension_slack,
    inner,
    support_value,
    verify_chain,
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


# ---------------------------------------------------------------------------
# per-member potential references
#
# The family operations the affine-model kernel replaced: one affine value
# per member and point, one probe at a time, one extension slack per node.
# Families come from the public constructor, so every member is verified
# again at each step.


def _box_vertices_ref(box):
    low, high = box
    vertices = sorted({tuple(c) for c in product(*zip(low, high))})
    return [np.array(v) for v in vertices]


def potential_value_ref(family, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (family.dimension,):
        raise ValueError(f"dimension mismatch: {x.shape} vs ({family.dimension},)")
    return max(affine_value(chain, x) for chain in family.members)


def grow_family_ref(family, chain):
    if not (
        np.array_equal(chain.anchor_point, family.anchor_point)
        and np.array_equal(chain.anchor_velocity, family.anchor_velocity)
    ):
        raise ValueError("chain anchor does not match the family anchor")
    ok, index = verify_chain(chain, family.tol)
    if not ok:
        raise ValueError(f"chain fails the chain inequality at index {index}")

    members = list(family.members)
    seen = {(c.xs.tobytes(), c.vs.tobytes()) for c in members}
    for count in range(1, len(chain) + 1):
        prefix = chain.prefix(count)
        key = (prefix.xs.tobytes(), prefix.vs.tobytes())
        if key not in seen:
            seen.add(key)
            members.append(prefix)

    if family.box is not None and len(members) > 1:
        vertices = _box_vertices_ref(family.box)
        V = np.array([[affine_value(c, vtx) for vtx in vertices] for c in members])
        geq = np.all(V[:, None, :] >= V[None, :, :], axis=2)
        gt = np.any(V[:, None, :] > V[None, :, :], axis=2)
        m = len(members)
        earlier = np.arange(m)[:, None] < np.arange(m)[None, :]
        dom = geq & (gt | earlier)
        np.fill_diagonal(dom, False)
        drop = dom.any(axis=0)
        drop[0] = False
        members = [c for c, d in zip(members, drop) if not d]

    while len(members) > family.cap:
        members.pop(1)

    return SequenceFamily(family.anchor_point, family.anchor_velocity, members,
                          box=family.box, tol=family.tol, cap=family.cap)


def subgradient_test_ref(family, x, v, probes, tol=0.0):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    vals = [affine_value(chain, x) for chain in family.members]
    base = max(vals)
    best = family.members[vals.index(base)]
    grown = grow_family_ref(family, best.extended(x, v))
    for y in probes:
        y = np.asarray(y, dtype=float)
        if potential_value_ref(grown, y) < base + inner(v, y - x) - tol:
            return False
    return True


def build_family_ref(svmap, x0, v0, grid_points, max_length, box=None,
                     cap=4096, budget=10**6, tol=0.0):
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not svmap.eval(x0).contains(v0):
        raise ValueError("anchor velocity not in F(x0)")
    pts = [np.asarray(p, dtype=float) for p in grid_points]
    values = [svmap.eval(p).points for p in pts]
    family = SequenceFamily.initial(x0, v0, box=box, tol=tol, cap=cap)
    used = 0
    grown = 0
    exhausted = False
    queue = deque([Chain([x0], [v0])])
    while queue and not exhausted:
        chain = queue.popleft()
        for j, x_next in enumerate(pts):
            for v in values[j]:
                used += 1
                if used > budget:
                    exhausted = True
                    break
                if extension_slack(chain, x_next, v) >= 0.0:
                    child = chain.extended(x_next, v)
                    family = grow_family_ref(family, child)
                    grown += 1
                    if len(child) < max_length:
                        queue.append(child)
            if exhausted:
                break
    stats = {"chains_grown": grown, "evaluations": used, "budget_exhausted": exhausted}
    return family, stats
