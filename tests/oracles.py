"""Independent reference implementations used only by the test suite.

Everything here is written against the library from scratch, with
different algorithms and different summation orders, so agreement is
evidence rather than tautology.  The exceptions are the brute-force
classifier references, the per-member potential references and the per-row
scan references at the end: they run chain by chain, member by member and
row by row with the library's own inner product and summation order, so the
batched kernels must match their outputs byte for byte.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from setflow import (
    ACTIVITY_TOL,
    BudgetExceededError,
    Chain,
    ClassReport,
    HullProjectionError,
    SequenceFamily,
    affine_value,
    extension_slack,
    inner,
    norm,
    support_value,
    verify_chain,
)
from setflow.geometry import HULL_MAX_ITER, _affine_min_weights


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


# ---------------------------------------------------------------------------
# per-row scan references
#
# The value-set, chain and piece-list loops that one ``inner_rows`` call per
# finite set replaced, one scalar ``inner`` per row, each with its own copy of
# the lexicographic tie-break.  The batched scans must return their values bit
# for bit, the same picks and ``None``s and the same first failing indices.


def lex_min_index_ref(points, indices):
    return min(indices, key=lambda i: tuple(points[i]))


def support_value_ref(d, A):
    d = np.asarray(d, dtype=float)
    return max(inner(p, d) for p in A.points)


def support_argmax_ref(d, A):
    d = np.asarray(d, dtype=float)
    vals = [inner(p, d) for p in A.points]
    best = max(vals)
    ties = [i for i, t in enumerate(vals) if t == best]
    return A.points[lex_min_index_ref(A.points, ties)]


def nearest_point_ref(p, A):
    p = np.asarray(p, dtype=float)
    dists = [inner(q - p, q - p) for q in A.points]
    best = min(dists)
    ties = [i for i, t in enumerate(dists) if t == best]
    return A.points[lex_min_index_ref(A.points, ties)]


def dist_to_set_ref(p, A):
    p = np.asarray(p, dtype=float)
    return min(norm(q - p) for q in A.points)


def norm_max_ref(A):
    return max(norm(p) for p in A.points)


def dist_to_hull_ref(p, A, tol=1e-9, max_iter=HULL_MAX_ITER):
    p = np.asarray(p, dtype=float)
    B = A.canonical().points - p
    m = B.shape[0]
    sq = [inner(b, b) for b in B]
    start = min(range(m), key=lambda i: (sq[i], tuple(B[i])))
    active = [start]
    weights = np.array([1.0])
    x = B[start].astype(float)
    threshold = min(tol, tol * tol)
    prev_xx = math.inf
    for _ in range(max_iter):
        xx = inner(x, x)
        if xx == 0.0:
            return 0.0
        if xx >= prev_xx:
            return math.sqrt(xx)
        prev_xx = xx
        dots = [inner(x, b) for b in B]
        best = min(range(m), key=lambda i: (dots[i], tuple(B[i])))
        gap = 2.0 * (xx - dots[best])
        if gap <= threshold or best in active:
            return math.sqrt(xx)
        active.append(best)
        weights = np.append(weights, 0.0)
        while True:
            mu = _affine_min_weights(B[active])
            if np.all(mu > 1e-12):
                weights = mu
                break
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
    raise HullProjectionError("no certificate")


def chain_sums_ref(xs, vs):
    xs = np.array(xs, dtype=float).reshape(len(xs), -1)
    vs = np.array(vs, dtype=float).reshape(len(vs), -1)
    sums = np.zeros(xs.shape[0])
    for m in range(1, xs.shape[0]):
        sums[m] = sums[m - 1] + inner(xs[m] - xs[m - 1], vs[m - 1])
    return sums


def extension_slack_ref(chain, x_next, v):
    x_next = np.asarray(x_next, dtype=float)
    new_sum = chain.last_sum + inner(x_next - chain.last_point, chain.last_velocity)
    return inner(x_next - chain.anchor_point, v) - new_sum


def extend_exhaustive_ref(chain, x_next, svmap, tol=1e-9):
    candidates = svmap.eval(x_next).points
    slacks = [extension_slack_ref(chain, x_next, v) for v in candidates]
    best = max(slacks)
    if best < -tol:
        return None
    ties = [i for i, s in enumerate(slacks) if s == best]
    pick = min(ties, key=lambda i: tuple(candidates[i]))
    return candidates[pick]


def extend_support_ref(chain, x_next, svmap):
    x_next = np.asarray(x_next, dtype=float)
    values = svmap.eval(x_next)
    if np.array_equal(x_next, chain.anchor_point):
        return nearest_point_ref(chain.last_velocity, values)
    return support_argmax_ref(x_next - chain.anchor_point, values)


def extend_inertial_ref(chain, x_next, svmap, tol=1e-9):
    x_next = np.asarray(x_next, dtype=float)
    pts = svmap.eval(x_next).points
    d = x_next - chain.anchor_point
    feasible = [i for i, v in enumerate(pts) if inner(d, v - chain.last_velocity) >= -tol]
    if not feasible:
        return None
    dists = {i: inner(pts[i] - chain.last_velocity, pts[i] - chain.last_velocity)
             for i in feasible}
    best = min(dists.values())
    ties = [i for i in feasible if dists[i] == best]
    v = pts[min(ties, key=lambda i: tuple(pts[i]))]
    if extension_slack_ref(chain, x_next, v) < -tol:
        return None
    return v


def submap_select_ref(family, svmap, x, tol=0.0):
    x = np.asarray(x, dtype=float)
    values = svmap.eval(x)
    if np.array_equal(x, family.anchor_point):
        v = nearest_point_ref(family.anchor_velocity, values)
    else:
        v = support_argmax_ref(x - family.anchor_point, values)
    if inner(x - family.anchor_point, v) >= potential_value_ref(family, x) - tol:
        return v
    return None


def weakly_monotone_ref(svmap, samples, tol, budget):
    pts = [np.asarray(p, dtype=float) for p in samples]
    values = [svmap.eval(p).points for p in pts]
    meter = _Meter(budget)
    for i, x in enumerate(pts):
        for vx in values[i]:
            for j, y in enumerate(pts):
                if i == j:
                    continue
                meter.spend()
                best = max(inner(x - y, vx - vy) for vy in values[j])
                if best < -tol:
                    witness = {"x": x.tolist(), "y": y.tolist(), "v_x": vx.tolist(),
                               "best_gap": best}
                    return ClassReport("weakly_monotone", False, witness, tol, _describe(pts),
                                       {"pairs_checked": meter.used})
    return ClassReport("weakly_monotone", True, None, tol, _describe(pts),
                       {"pairs_checked": meter.used})


def piece_values_ref(f, x):
    x = np.asarray(x, dtype=float)
    return [inner(a, x) + float(b) for a, b in zip(f.slopes, f.offsets)]


def active_slopes_ref(f, x):
    vals = piece_values_ref(f, x)
    top = max(vals)
    seen = []
    for a, t in zip(f.slopes, vals):
        if t >= top - ACTIVITY_TOL:
            key = tuple(a)
            if key not in [tuple(s) for s in seen]:
                seen.append(a)
    return np.array(seen)


def halfspace_matches_ref(h, x):
    t = inner(np.array(h.normal), x)
    return {
        "lt": t < h.value,
        "le": t <= h.value,
        "eq": t == h.value,
        "ge": t >= h.value,
        "gt": t > h.value,
    }[h.op]
