"""Seeded problem generators for the benchmark workloads.

Each workload is a fixed list of CLI operations.  Its maps are drawn once
from a fixed generator, so the combinatorial structure of every op (map kind,
dimension, value-set sizes on the grid, grid size, chain length, step count,
budget, and which verdicts hold) is the same on every seed.  The seed then
draws, per map, a power-of-two scale and a signed permutation of the
coordinates and applies it to the map, the anchor, the initial velocity and
(for Euler ops) the horizon.  The grids are symmetric boxes, so this maps each
problem onto an equivalent one: the program sees other numbers on every seed,
while the work a pass does stays the same and seeds can be compared.  Maps of the classify ops built to fail early
are only scaled, because there the enumeration order decides where the first
witness is found.  All numbers are dyadic and grids have spacing 1/4, so
ties at kinks are exact, and one seed gives byte-identical documents.

Every map is cyclically monotone or weakly cyclically monotone by
construction, except the classify ops built to fail early, so no op of a
workload is expected to fail:

* ``subdifferential`` maps are active-slope maps of max-of-affine convex
  functions (cyclically monotone);
* ``table`` maps are the subdifferential of ``g(x_0) + <c, x_rest>`` for a
  piecewise-linear convex ``g``, two-valued on the kink hyperplanes;
* ``constant`` maps hold one dominant value ``a`` (the unique longest) and
  shorter points ``b`` with ``<a, b> < |a|^2``, so every selection rule keeps
  ``a`` and the Euler chain stays verified.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

TOL = 1e-9
WORKLOADS = ("euler", "classify", "potential")


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload.

    ``expect`` lists the exit codes documented for the op, ``budget`` the
    ``SETFLOW_CHAIN_BUDGET`` set for the call (``None`` keeps the default),
    and ``verdicts`` the classification verdicts known by construction.
    """

    name: str
    command: str
    group: str
    doc: dict
    expect: tuple = (0,)
    budget: int | None = None
    verdicts: dict | None = None

    def text(self) -> str:
        return json.dumps(self.doc, indent=1) + "\n"


def _dyadic(rng, lo, hi, den=8):
    return rng.randint(round(lo * den), round(hi * den)) / den


def _point(rng, d, lo=-0.5, hi=0.5):
    return [_dyadic(rng, lo, hi) for _ in range(d)]


def _pl_map(rng, d, k):
    slopes = []
    while len(slopes) < k:
        s = [float(rng.randint(-3, 3)) for _ in range(d)]
        if any(s) and s not in slopes:
            slopes.append(s)
    offsets = [rng.randint(-4, 4) / 4 for _ in range(k)]
    return {"kind": "subdifferential", "slopes": slopes, "offsets": offsets}


def _pl_value(m, x):
    # the first active slope; exact because every number is dyadic
    vals = [sum(a * c for a, c in zip(s, x)) + b for s, b in zip(m["slopes"], m["offsets"])]
    return list(m["slopes"][vals.index(max(vals))])


def _constant_map(rng, d, m):
    a = [float(rng.choice((-2, 2)))] + [float(rng.randint(-1, 1)) for _ in range(d - 1)]
    points = [a]
    while len(points) < m:
        b = [_dyadic(rng, -1.25, 1.25, 4) for _ in range(d)]
        if b not in points:
            points.append(b)
    rng.shuffle(points)
    return {"kind": "constant", "points": points}, a


def _table_map(rng, d, kinks):
    ks = sorted(rng.sample(range(-6, 7), kinks))
    cs = sorted(rng.sample(range(-3, 4), kinks + 1))
    rest = [float(rng.randint(-2, 2)) for _ in range(d - 1)]
    normal = [1.0] + [0.0] * (d - 1)
    regions = []
    for i, k in enumerate(ks):
        where = {"kind": "halfspace", "normal": normal, "value": k / 8}
        regions.append({"where": {**where, "op": "lt"}, "points": [[float(cs[i])] + rest]})
        regions.append({"where": {**where, "op": "eq"},
                        "points": [[float(cs[i])] + rest, [float(cs[i + 1])] + rest]})
    regions.append({"where": {"kind": "always"}, "points": [[float(cs[-1])] + rest]})
    # start on a kink, so F(x0) has two values and v0 picks one of them
    i = rng.randrange(kinks)
    x0 = [ks[i] / 8] + _point(rng, d - 1)
    v0 = [float(cs[i + rng.randint(0, 1)])] + rest
    return {"kind": "table", "regions": regions}, x0, v0


def _linear_map(rng, alpha):
    # a rotation with a nonpositive symmetric part: never cyclically monotone
    beta = rng.choice((-1.5, -1.0, -0.5, 0.5, 1.0, 1.5))
    return {"kind": "linear", "matrix": [[alpha, -beta], [beta, alpha]]}


def _spike_map(rng):
    # one extra value at a single point wrecks every class (a "lonely spike")
    at = _dyadic(rng, -0.5, 0.5, 4)
    base, extra = rng.choice(((0.0, 1.0), (0.5, -1.0), (-0.5, 1.5)))
    regions = [
        {"where": {"kind": "halfspace", "normal": [1.0], "value": at, "op": "eq"},
         "points": [[base], [extra]]},
        {"where": {"kind": "always"}, "points": [[base]]},
    ]
    return {"kind": "table", "regions": regions}, [at], [base]


def _doc(svmap, x0, v0, strategy="support", steps=None, horizon=1.0, h=0.125, grid=None,
         max_length=None):
    doc = {"map": svmap, "x0": x0, "v0": v0, "T": horizon, "h": h,
           "strategy": strategy, "tol": TOL}
    if grid is not None:
        # a symmetric box with spacing 1/4, so every grid point is dyadic and
        # chain slacks on the grid are computed exactly
        d, half = len(x0), (grid - 1) / 8
        doc["grid"] = {"low": [-half] * d, "high": [half] * d, "counts": [grid] * d}
    if max_length is not None:
        doc["max_length"] = max_length
    if steps is not None:
        doc["steps"] = list(steps)
    return doc


def _pl(rng, d, k):
    m = _pl_map(rng, d, k)
    x0 = _point(rng, d)
    return m, x0, _pl_value(m, x0)


def _constant(rng, d, m):
    svmap, a = _constant_map(rng, d, m)
    return svmap, _point(rng, d), a


def _symmetric_copy(item, rng, reorder=True):
    """``item`` under ``x -> Q^T x`` and value scale ``c``: F'(x) = c Q^T F(Q x).

    ``Q`` permutes coordinates and flips signs, so it maps the symmetric grid
    onto itself.  ``c`` is a power of two, so every product and sum the
    program forms is scaled exactly and each comparison it makes comes out as
    before.  Each kind keeps its class.  Returns ``(map, x0, v0, c)``.
    """
    svmap, x0, v0 = item
    d = len(x0)
    c = rng.choice((0.5, 1.0, 2.0))
    perm, signs = list(range(d)), [1.0] * d
    if reorder:
        rng.shuffle(perm)
        signs = [rng.choice((-1.0, 1.0)) for _ in range(d)]

    def vec(v, scale=1.0):
        out = [0.0] * d
        for i in range(d):
            out[perm[i]] = scale * signs[i] * v[i] + 0.0
        return out

    kind = svmap["kind"]
    if kind == "subdifferential":
        new = {"kind": kind, "slopes": [vec(a, c) for a in svmap["slopes"]],
               "offsets": [c * b for b in svmap["offsets"]]}
    elif kind == "constant":
        new = {"kind": kind, "points": [vec(p, c) for p in svmap["points"]]}
    elif kind == "linear":
        M = [[0.0] * d for _ in range(d)]
        for i in range(d):
            for k in range(d):
                M[perm[i]][perm[k]] = c * signs[i] * signs[k] * svmap["matrix"][i][k] + 0.0
        new = {"kind": kind, "matrix": M}
    else:
        regions = []
        for r in svmap["regions"]:
            where = dict(r["where"])
            if where["kind"] == "halfspace":
                where["normal"] = vec(where["normal"])
            regions.append({"where": where, "points": [vec(p, c) for p in r["points"]]})
        new = {"kind": kind, "regions": regions}
    return new, vec(x0), vec(v0, c), c


def _symmetric_copies(maps, rng, scale_only=()):
    return {label: _symmetric_copy(item, rng, reorder=label not in scale_only)
            for label, item in maps.items()}


# ---------------------------------------------------------------------------
# workloads

# Euler: step counts per strategy, and refine studies (map, strategy, counts).
# Inertial re-verifies the whole chain at every step, so its counts are kept
# lower to hold a pass near three seconds.
EULER_STEPS = {"inertial": (120, 320), "support": (200, 1000), "exhaustive": (200, 500)}
EULER_REFINES = (
    ("pl2", "support", (100, 200, 400, 800)),
    ("pl3", "inertial", (50, 100, 200)),
    ("const2", "exhaustive", (100, 200, 400)),
    ("table1", "inertial", (40, 80, 160)),
)


def euler_ops(shape, draw):
    maps = {
        "pl1": _pl(shape, 1, 4),
        "pl2": _pl(shape, 2, 5),
        "pl3": _pl(shape, 3, 6),
        "const2": _constant(shape, 2, 8),
        "table1": _table_map(shape, 1, 3),
        "table3": _table_map(shape, 3, 3),
    }
    maps = _symmetric_copies(maps, draw)
    ops = []
    # velocities scale by c, so the horizon scales by 1/c and the Euler nodes
    # stay where they were
    for label, (svmap, x0, v0, c) in maps.items():
        for strategy, counts in EULER_STEPS.items():
            for n in counts:
                ops.append(Op(f"solve-{label}-{strategy}-{n}", "solve", f"solve/{strategy}",
                              _doc(svmap, x0, v0, strategy, horizon=1.0 / c, h=1.0 / (c * n)),
                              expect=(0, 3)))
    for label, strategy, counts in EULER_REFINES:
        svmap, x0, v0, c = maps[label]
        ops.append(Op(f"refine-{label}-{strategy}", "refine", f"refine/{strategy}",
                      _doc(svmap, x0, v0, strategy, steps=counts, horizon=1.0 / c,
                           h=1.0 / (c * counts[0])),
                      expect=(0, 3)))
    return ops


ALL_HOLD = {"monotone": True, "weakly_monotone": True, "cyclic_monotone": True,
            "weak_cyclic_monotone": True, "support_chain": True}
# (map, points per axis, max_length); 3-d grids stay at 2 points per axis
CLASSIFY_HOLDS = (
    ("pl1", 7, 2), ("pl1", 9, 2), ("pl1", 11, 2), ("pl1b", 7, 2), ("pl1b", 9, 2),
    ("pl1b", 11, 2), ("table1", 9, 2), ("table1b", 11, 2), ("pl1", 5, 3), ("table1", 5, 3),
    ("pl2", 3, 2), ("pl2b", 3, 2), ("table2", 3, 2), ("table2b", 3, 2),
    ("pl3", 2, 2), ("pl3b", 2, 2),
)
CLASSIFY_FAILS = (
    ("rot", 3, 2), ("rot", 4, 2), ("rot", 5, 2), ("rot", 7, 2),
    ("rotb", 3, 2), ("rotb", 4, 2), ("rotb", 5, 2), ("rotb", 7, 2),
    ("const1", 5, 2), ("const1", 9, 2), ("const1b", 7, 2), ("const2", 3, 2),
    ("spike", 9, 2), ("spike", 17, 2), ("spikeb", 9, 2), ("spikeb", 17, 2),
)
# (dimension, points per axis) run with a budget of OVER_BUDGET chains
CLASSIFY_OVER_BUDGET = ((1, 1000), (1, 2000), (1, 3000), (1, 4000),
                        (2, 20), (2, 30), (2, 40), (2, 50))
OVER_BUDGET = 10


def _rotation(shape, x0, alpha):
    svmap = _linear_map(shape, alpha)
    return svmap, x0, [sum(a * c for a, c in zip(row, x0)) for row in svmap["matrix"]]


def classify_ops(shape, draw):
    maps = {
        "pl1": _pl(shape, 1, 4), "pl1b": _pl(shape, 1, 3),
        "pl2": _pl(shape, 2, 4), "pl2b": _pl(shape, 2, 6),
        "pl3": _pl(shape, 3, 4), "pl3b": _pl(shape, 3, 5),
        "table1": _table_map(shape, 1, 3), "table1b": _table_map(shape, 1, 2),
        "table2": _table_map(shape, 2, 2), "table2b": _table_map(shape, 2, 3),
        "rot": _rotation(shape, [0.5, 0.25], 0.0), "rotb": _rotation(shape, [0.25, -0.5], -0.25),
        "const1": _constant(shape, 1, 3), "const1b": _constant(shape, 1, 4),
        "const2": _constant(shape, 2, 4),
        "spike": _spike_map(shape), "spikeb": _spike_map(shape),
    }
    maps = _symmetric_copies(maps, draw, scale_only={label for label, _, _ in CLASSIFY_FAILS})
    ops = []
    for group, table, verdicts in (("holds", CLASSIFY_HOLDS, ALL_HOLD),
                                   ("fails-early", CLASSIFY_FAILS, {"cyclic_monotone": False})):
        for label, count, length in table:
            svmap, x0, v0, _ = maps[label]
            ops.append(Op(f"classify-{label}-g{count}-L{length}", "classify",
                          f"classify/{group}", _doc(svmap, x0, v0, grid=count, max_length=length),
                          verdicts=verdicts))
    for d, count in CLASSIFY_OVER_BUDGET:
        svmap, x0, v0, _ = maps["pl1" if d == 1 else "pl2"]
        ops.append(Op(f"classify-over-budget-d{d}-g{count}", "classify", "classify/over-budget",
                      _doc(svmap, x0, v0, grid=count, max_length=2),
                      expect=(4,), budget=OVER_BUDGET))
    return ops


# growth ops: 2-d grids at max_length 3; query ops: 3-d grids at max_length 2
POTENTIAL_GROWTH = (
    ("const2", 3), ("const2b", 3), ("const2c", 3), ("const2c", 4),
    ("pl2", 3), ("pl2", 4), ("pl2", 5), ("pl2b", 3), ("pl2b", 4), ("pl2b", 5),
    ("pl2c", 3), ("pl2c", 4), ("pl2c", 5), ("pl2d", 4),
    ("table2", 3), ("table2", 4), ("table2", 5), ("table2b", 3), ("table2b", 4), ("table2b", 5),
)
POTENTIAL_QUERY = (
    ("const3", 3), ("const3b", 3), ("const3c", 3), ("const3c", 2),
    ("pl3", 2), ("pl3", 3), ("pl3", 4), ("pl3b", 2), ("pl3b", 3), ("pl3b", 4),
    ("pl3c", 2), ("pl3c", 3), ("pl3d", 2), ("pl3d", 3),
    ("table3", 2), ("table3", 3), ("table3", 4), ("table3b", 2), ("table3b", 3), ("const3", 2),
)


def potential_ops(shape, draw):
    maps = {
        "const2": _constant(shape, 2, 4), "const2b": _constant(shape, 2, 4),
        "const2c": _constant(shape, 2, 3),
        "pl2": _pl(shape, 2, 4), "pl2b": _pl(shape, 2, 5), "pl2c": _pl(shape, 2, 6),
        "pl2d": _pl(shape, 2, 4),
        "table2": _table_map(shape, 2, 3), "table2b": _table_map(shape, 2, 2),
        "const3": _constant(shape, 3, 4), "const3b": _constant(shape, 3, 5),
        "const3c": _constant(shape, 3, 6),
        "pl3": _pl(shape, 3, 4), "pl3b": _pl(shape, 3, 5), "pl3c": _pl(shape, 3, 7),
        "pl3d": _pl(shape, 3, 5),
        "table3": _table_map(shape, 3, 3), "table3b": _table_map(shape, 3, 2),
    }
    maps = _symmetric_copies(maps, draw)
    ops = []
    for group, table, length in (("growth", POTENTIAL_GROWTH, 3), ("query", POTENTIAL_QUERY, 2)):
        for label, count in table:
            svmap, x0, v0, _ = maps[label]
            ops.append(Op(f"potential-{group}-{label}-g{count}", "potential", f"potential/{group}",
                          _doc(svmap, x0, v0, grid=count, max_length=length)))
    return ops


_GENERATORS = {"euler": euler_ops, "classify": classify_ops, "potential": potential_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op list of ``workload``; the same seed gives byte-identical documents."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    shape = random.Random(f"perfbench/{workload}")
    return _GENERATORS[workload](shape, random.Random(f"perfbench/{workload}/{seed}"))
