"""One ``inner_rows`` scan per finite set against the per-row loops it replaced.

The value-set primitives of ``geometry``, the chain sums, the extension
rules, the pairwise best gap of ``classify_weakly_monotone``,
``piece_values`` / ``active_slopes`` and ``Halfspace.matches`` must return
what the loops in ``tests/oracles.py`` return: values bit for bit (compared
as int64 views, so ``-0.0`` and ``0.0`` differ), the same picked rows and
``None``s.
"""

import json

import numpy as np
import pytest

from setflow import (
    ACTIVITY_TOL,
    Chain,
    CompactSet,
    Halfspace,
    PLConvexFunction,
    build_family,
    classify_weakly_monotone,
    constant_map,
    dist_to_hull,
    dist_to_set,
    euler_solve,
    extend_exhaustive,
    extend_inertial,
    extend_support,
    extension_slack,
    nearest_point,
    replay_witness,
    sample_grid,
    submap_select,
    support_argmax,
    support_value,
)
from setflow.chains import BudgetExceededError
from setflow.geometry import _best_row
from setflow.setmaps import ProblemSpec
from setflow.solver import SelectionFailed

from conftest import build_corpus, make_non_wcm_map, random_dyadic_map
from oracles import (
    active_slopes_ref,
    chain_sums_ref,
    dist_to_hull_ref,
    dist_to_set_ref,
    extend_exhaustive_ref,
    extend_inertial_ref,
    extend_support_ref,
    extension_slack_ref,
    halfspace_matches_ref,
    lex_min_index_ref,
    nearest_point_ref,
    norm_max_ref,
    piece_values_ref,
    submap_select_ref,
    support_argmax_ref,
    support_value_ref,
    weakly_monotone_ref,
)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def same_pick(got, want):
    if want is None:
        return got is None
    return got is not None and bits(got) == bits(want)


def _signed_zeros(rng, a):
    # flip the sign of about half the zero entries
    a = np.array(a, dtype=float)
    flip = (a == 0.0) & (rng.random(a.shape) < 0.5)
    a[flip] = -0.0
    return a


def value_set(rng, dim):
    """Small dyadic rows with duplicates, score ties, -0.0 entries, shuffled."""
    rows = rng.integers(-2, 3, size=(int(rng.integers(1, 7)), dim)) / 2
    extra = rows[rng.integers(0, len(rows), size=int(rng.integers(0, 3)))]
    rows = _signed_zeros(rng, np.concatenate([rows, extra]))
    return CompactSet(rows[rng.permutation(len(rows))])


def directions(rng, dim):
    """Dyadic directions with zero coordinates, so scores tie often."""
    out = [np.zeros(dim), -np.zeros(dim)]
    for _ in range(4):
        d = rng.integers(-1, 2, size=dim).astype(float)
        out.append(_signed_zeros(rng, d))
    out.append(rng.normal(size=dim))
    return out


SET_CASES = [(dim, seed) for dim in range(1, 6) for seed in range(12)]


@pytest.mark.parametrize("dim, seed", SET_CASES)
def test_value_set_scans_match_row_loops(dim, seed):
    rng = np.random.default_rng([dim, seed])
    A = value_set(rng, dim)
    assert bits(A.norm_max()) == bits(norm_max_ref(A))
    for d in directions(rng, dim):
        assert bits(support_value(d, A)) == bits(support_value_ref(d, A))
        assert bits(support_argmax(d, A)) == bits(support_argmax_ref(d, A))
        # the pick attains the support value exactly
        assert np.vecdot(support_argmax(d, A), d) == support_value(d, A)
    probes = [A.points[0], rng.normal(size=dim), rng.integers(-2, 3, size=dim) / 4]
    for p in probes:
        assert bits(nearest_point(p, A)) == bits(nearest_point_ref(p, A))
        assert bits(dist_to_set(p, A)) == bits(dist_to_set_ref(p, A))
        assert bits(dist_to_hull(p, A)) == bits(dist_to_hull_ref(p, A))


def test_value_sets_exercise_every_tie_kind():
    # the corpus above holds duplicate rows, rows that tie on score but not
    # lexicographically, and rows equal up to the sign of a zero
    duplicates = lex_ties = signed = 0
    for dim, seed in SET_CASES:
        rng = np.random.default_rng([dim, seed])
        A = value_set(rng, dim)
        P = A.points
        equal = (P[:, None, :] == P[None, :, :]).all(axis=2)
        exact = (P[:, None, :].view(np.int64) == P[None, :, :].view(np.int64)).all(axis=2)
        duplicates += int(np.triu(exact, 1).sum())
        signed += int(np.triu(equal & ~exact, 1).sum())
        for d in directions(rng, dim):
            scores = np.vecdot(P, d)
            top = np.flatnonzero(scores == scores.max())
            lex_ties += int(len({tuple(P[i]) for i in top}) > 1)
    assert duplicates and lex_ties and signed


def test_tie_break_rule_matches_the_reference():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        P = _signed_zeros(rng, rng.integers(-1, 2, size=(int(rng.integers(1, 9)), dim)))
        scores = rng.integers(0, 3, size=len(P)).astype(float)
        top = np.flatnonzero(scores == scores.max()).tolist()
        assert _best_row(P, scores) == lex_min_index_ref(P, top)


def _chain_data(rng, pairs, dim, dyadic):
    if dyadic:
        xs = rng.integers(-4, 5, size=(pairs, dim)) / 2
        vs = rng.integers(-4, 5, size=(pairs, dim)) / 2
        return _signed_zeros(rng, xs), _signed_zeros(rng, vs)
    return rng.normal(size=(pairs, dim)), rng.normal(size=(pairs, dim))


CHAIN_CASES = [(pairs, dyadic) for pairs in (1, 2, 3, 5, 8, 13, 21, 34, 64)
               for dyadic in (True, False)]


@pytest.mark.parametrize("pairs, dyadic", CHAIN_CASES)
def test_chain_sums_match_row_loops(pairs, dyadic):
    rng = np.random.default_rng([pairs, int(dyadic)])
    for dim in (1, 2, 3):
        for _ in range(8):
            xs, vs = _chain_data(rng, pairs, dim, dyadic)
            chain = Chain(xs, vs)
            assert bits(chain.sums) == bits(chain_sums_ref(xs, vs))
            # the sums Chain.extended appends are those of the constructor
            grown = Chain([xs[0]], [vs[0]])
            for x, v in zip(xs[1:], vs[1:]):
                grown = grown.extended(x, v)
            assert bits(grown.sums) == bits(chain.sums)


def _maps(rng, dim):
    yield random_dyadic_map(rng, dim)
    yield constant_map(value_set(rng, dim).points)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
def test_extension_rules_match_row_loops(dim, tol):
    rng = np.random.default_rng([dim, int(tol * 100)])
    checked = declined = 0
    for _ in range(20):
        for F in _maps(rng, dim):
            xs, vs = _chain_data(rng, int(rng.integers(1, 5)), dim, dyadic=True)
            chain = Chain(xs, vs)
            nexts = [xs[0], xs[-1], rng.integers(-4, 5, size=dim) / 2]
            for x_next in nexts:
                values = F.eval(x_next).points
                assert bits(extension_slack(chain, x_next, values)) == bits(
                    [extension_slack_ref(chain, x_next, v) for v in values])
                assert bits(extension_slack(chain, x_next, values[0])) == bits(
                    extension_slack_ref(chain, x_next, values[0]))
                want = extend_exhaustive_ref(chain, x_next, F, tol)
                assert same_pick(extend_exhaustive(chain, x_next, F, tol), want)
                assert same_pick(extend_support(chain, x_next, F),
                                 extend_support_ref(chain, x_next, F))
                want = extend_inertial_ref(chain, x_next, F, tol)
                assert same_pick(extend_inertial(chain, x_next, F, tol), want)
                checked += 1
                declined += want is None
    assert 0 < declined < checked


def test_selection_failure_slacks_are_the_row_loop_floats():
    spec = ProblemSpec(map=make_non_wcm_map(), x0=np.array([0.0]), v0=np.array([1.0]),
                       horizon=1.0, step=0.1, strategy="exhaustive", tol=1e-9).validated()
    with pytest.raises(SelectionFailed) as info:
        euler_solve(spec)
    err = info.value
    want = [extension_slack_ref(err.chain, err.point, v) for v, _ in err.candidate_slacks]
    assert [type(s) for _, s in err.candidate_slacks] == [float] * len(want)
    assert bits([s for _, s in err.candidate_slacks]) == bits(want)


def weakly_outcome(fn, svmap, grid, tol, budget):
    try:
        return json.dumps(fn(svmap, grid, tol, budget).to_json_dict())
    except BudgetExceededError as exc:
        return ("budget", exc.evaluated, exc.budget)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("budget", [1, 50, 10**6])
def test_weakly_monotone_matches_row_loop(tol, budget):
    rng = np.random.default_rng([int(tol > 0), budget])
    cases = [(e.svmap, e.grid) for e in build_corpus()]
    for dim in (1, 2, 3):
        for _ in range(4):
            cases.append((random_dyadic_map(rng, dim),
                          sample_grid([-1.0] * dim, [1.0] * dim, [3] * dim)))
    for svmap, grid in cases:
        want = weakly_outcome(weakly_monotone_ref, svmap, grid, tol, budget)
        assert weakly_outcome(classify_weakly_monotone, svmap, grid, tol, budget) == want
        if isinstance(want, str) and not json.loads(want)["holds"]:
            assert replay_witness(svmap, classify_weakly_monotone(svmap, grid, tol, budget))


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.name)
def test_submap_select_matches_row_loop(entry):
    x0 = np.asarray(entry.grid[len(entry.grid) // 2])
    v0 = entry.svmap.eval(x0).points[-1]
    family, _ = build_family(entry.svmap, x0, v0, entry.grid, 2)
    for x in entry.grid:
        for tol in (0.0, 1e-9):
            assert same_pick(submap_select(family, entry.svmap, x, tol),
                             submap_select_ref(family, entry.svmap, x, tol))


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
    return PLConvexFunction(_signed_zeros(rng, slopes)[order], offsets[order])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_piece_scans_match_row_loops(dim):
    rng = np.random.default_rng(dim)
    collapsed = 0
    for _ in range(40):
        f = pl_function(rng, dim)
        for x in [np.zeros(dim), rng.integers(-2, 3, size=dim) / 2, rng.normal(size=dim)]:
            assert bits(f.piece_values(x)) == bits(piece_values_ref(f, x))
            assert bits(f.value(x)) == bits(max(piece_values_ref(f, x)))
            got = f.active_slopes(x).points
            want = active_slopes_ref(f, x)
            assert bits(got) == bits(want)
            vals = np.array(piece_values_ref(f, x))
            collapsed += len(want) < np.count_nonzero(vals >= vals.max() - ACTIVITY_TOL)
    assert collapsed


@pytest.mark.parametrize("op", ["lt", "le", "eq", "ge", "gt"])
def test_halfspace_ops_at_above_and_below(op):
    h = Halfspace([1.0, -2.0], 0.5, op)
    expected = {
        "lt": (False, False, True),
        "le": (True, False, True),
        "eq": (True, False, False),
        "ge": (True, True, False),
        "gt": (False, True, False),
    }[op]
    # <normal, x> equal to, above and below the value
    points = [np.array([0.5, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 0.0])]
    for x, want in zip(points, expected):
        assert h.matches(x) is want
        assert h.matches(x) == halfspace_matches_ref(h, x)
    with pytest.raises(ValueError):
        Halfspace([1.0], 0.0, "ne")
