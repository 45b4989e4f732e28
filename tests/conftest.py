"""Shared fixtures: the map corpus every classification test runs against."""

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import setflow
from setflow import (
    ACTIVITY_TOL,
    Always,
    Halfspace,
    PLConvexFunction,
    UncoveredPointError,
    constant_map,
    linear_map,
    pl_subdifferential_map,
    sample_grid,
    table_map,
)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    svmap: object
    grid: tuple
    # expected classification verdicts, hand-checked on the grid
    monotone: bool
    weakly_monotone: bool
    cyclic_monotone: bool
    weak_cyclic_monotone: bool
    # whether the support-function chain inequality holds on the grid
    support_chain: bool
    pl_function: object = field(default=None)


def _grid1(lo=-1.0, hi=1.0, n=5):
    return sample_grid([lo], [hi], [n])


def _grid2(lo=-1.0, hi=1.0, n=3):
    return sample_grid([lo, lo], [hi, hi], [n, n])


ABS_F = PLConvexFunction([[1.0], [-1.0]], [0.0, 0.0])
TWO_MAX_F = PLConvexFunction([[1.0], [-2.0]], [0.0, 0.0])
PLANAR_F = PLConvexFunction([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.0, 0.0, 0.0])


def make_sign_map():
    # {-1} left of zero, {-1, 1} at zero, {1} to the right
    return table_map([
        (Halfspace([1.0], 0.0, "lt"), [[-1.0]]),
        (Halfspace([1.0], 0.0, "eq"), [[-1.0], [1.0]]),
        (Always(), [[1.0]]),
    ])


def make_non_wcm_map():
    # single extra value at the origin wrecks every monotonicity class
    return table_map([
        (Halfspace([1.0], 0.0, "eq"), [[0.0], [1.0]]),
        (Always(), [[0.0]]),
    ])


def _below(value):
    return {"kind": "halfspace", "normal": [1.0], "value": value, "op": "lt"}


# From x0 = 0, v0 = 1 with h = 1 and tol = 0.1 the chain reaches (1, 0.91)
# with slack -0.09.  At x = 1.91 the only value is aligned with 0.91 (pivot
# product -0.05), yet its final-index slack is -0.14: alignment alone bounds
# the slack only by -2 * tol, and no value extends the chain there.
INERTIAL_GAP_PROBLEM = {
    "map": {
        "kind": "table",
        "regions": [
            {"where": _below(0.5), "points": [[1.0]]},
            {"where": _below(1.5), "points": [[0.91]]},
            {"where": {"kind": "always"}, "points": [[0.91 - 0.05 / 1.91]]},
        ],
    },
    "x0": [0.0],
    "v0": [1.0],
    "T": 2.0,
    "h": 1.0,
    "strategy": "inertial",
    "tol": 0.1,
}


def dyadic(rng, shape, span=2, den=2):
    return rng.integers(-span * den, span * den + 1, size=shape) / den


def bits(values):
    """Float values as int64 views, so ``-0.0`` and ``0.0`` compare unequal."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def region_hit(predicate, x):
    """Whether the compiled table of one region with ``predicate`` covers ``x``."""
    x = np.asarray(x, dtype=float)
    try:
        table_map([(predicate, [[0.0] * len(x)])]).eval(x)
    except UncoveredPointError:
        return False
    return True


def signed_zeros(rng, a):
    """``a`` with the sign of about half its zero entries flipped."""
    a = np.array(a, dtype=float)
    flip = (a == 0.0) & (rng.random(a.shape) < 0.5)
    a[flip] = -0.0
    return a


def pl_function(rng, dim):
    """Pieces with repeated slopes, signed zeros and ties within ACTIVITY_TOL."""
    pieces = int(rng.integers(1, 6))
    slopes = rng.integers(-1, 2, size=(pieces, dim)).astype(float)
    slopes = np.concatenate([slopes, slopes[rng.integers(0, pieces, size=2)]])
    offsets = rng.integers(-1, 2, size=len(slopes)) / 2
    # some offsets a hair below their neighbours: active within the tolerance
    offsets -= (rng.random(len(slopes)) < 0.3) * rng.choice([ACTIVITY_TOL / 2, 2 * ACTIVITY_TOL],
                                                            size=len(slopes))
    order = rng.permutation(len(slopes))
    return PLConvexFunction(signed_zeros(rng, slopes)[order], offsets[order])


def random_dyadic_map(rng, dim):
    """A subdifferential map of a random PL function, or a random table map."""
    if rng.random() < 0.5:
        pieces = int(rng.integers(1, 4))
        return pl_subdifferential_map(
            PLConvexFunction(dyadic(rng, (pieces, dim)), dyadic(rng, pieces, den=4)))
    regions = []
    for _ in range(int(rng.integers(0, 3))):
        normal = dyadic(rng, dim, span=1, den=1)
        op = ["lt", "le", "eq", "ge", "gt"][int(rng.integers(5))]
        regions.append((Halfspace(normal, float(dyadic(rng, (), den=2)), op),
                        dyadic(rng, (int(rng.integers(1, 3)), dim))))
    regions.append((Always(), dyadic(rng, (int(rng.integers(1, 3)), dim))))
    return table_map(regions)


def child_env():
    """Environment for a ``python -m setflow`` subprocess.

    Its ``PYTHONPATH`` starts with the absolute directory holding the setflow
    package this process imported, so the child runs the code under test
    whatever its working directory; an inherited relative entry (such as
    ``src``) would resolve against that directory.
    """
    paths = [str(Path(setflow.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def build_corpus():
    rotation = linear_map([[0.0, -1.0], [1.0, 0.0]])
    identity = linear_map([[1.0, 0.0], [0.0, 1.0]])
    return [
        CorpusEntry(
            "constant_two_values", constant_map([[-1.0], [1.0]]), _grid1(),
            monotone=False, weakly_monotone=True,
            cyclic_monotone=False, weak_cyclic_monotone=True,
            support_chain=False,
        ),
        CorpusEntry(
            "constant_singleton", constant_map([[2.0]]), _grid1(),
            monotone=True, weakly_monotone=True,
            cyclic_monotone=True, weak_cyclic_monotone=True,
            support_chain=True,
        ),
        CorpusEntry(
            "abs_subdifferential", pl_subdifferential_map(ABS_F), _grid1(),
            monotone=True, weakly_monotone=True,
            cyclic_monotone=True, weak_cyclic_monotone=True,
            support_chain=True, pl_function=ABS_F,
        ),
        CorpusEntry(
            "two_slope_subdifferential", pl_subdifferential_map(TWO_MAX_F), _grid1(),
            monotone=True, weakly_monotone=True,
            cyclic_monotone=True, weak_cyclic_monotone=True,
            support_chain=True, pl_function=TWO_MAX_F,
        ),
        CorpusEntry(
            "planar_max_subdifferential", pl_subdifferential_map(PLANAR_F), _grid2(),
            monotone=True, weakly_monotone=True,
            cyclic_monotone=True, weak_cyclic_monotone=True,
            support_chain=True, pl_function=PLANAR_F,
        ),
        CorpusEntry(
            "quarter_turn", rotation, _grid2(),
            monotone=True, weakly_monotone=True,
            cyclic_monotone=False, weak_cyclic_monotone=False,
            support_chain=False,
        ),
        CorpusEntry(
            "identity", identity, _grid2(),
            monotone=True, weakly_monotone=True,
            cyclic_monotone=True, weak_cyclic_monotone=True,
            support_chain=True,
        ),
        CorpusEntry(
            "sign_table", make_sign_map(), _grid1(),
            monotone=True, weakly_monotone=True,
            cyclic_monotone=True, weak_cyclic_monotone=True,
            support_chain=True,
        ),
        CorpusEntry(
            "lonely_spike", make_non_wcm_map(), _grid1(),
            monotone=False, weakly_monotone=False,
            cyclic_monotone=False, weak_cyclic_monotone=False,
            support_chain=False,
        ),
    ]


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def cm_corpus(corpus):
    """Entries whose map is cyclically monotone on the grid."""
    return [e for e in corpus if e.cyclic_monotone]


@pytest.fixture(scope="session")
def pl_corpus(corpus):
    return [e for e in corpus if e.pl_function is not None]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)
