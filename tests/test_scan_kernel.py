"""One ``inner_rows`` scan per finite set against the per-row loops it replaced.

The value-set primitives of ``geometry``, the chain sums and verification,
the extension rules, the pairwise best gap of ``classify_weakly_monotone``,
``piece_values`` / ``active_slopes`` and a compiled halfspace must return
what the loops in ``tests/oracles.py`` return: values bit for bit (compared
as int64 views, so ``-0.0`` and ``0.0`` differ), the same picked rows and
``None``s.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import (
    ACTIVITY_TOL,
    Chain,
    CompactSet,
    Halfspace,
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
    verify_chain,
)
from setflow import chains
from setflow.chains import BudgetExceededError
from setflow.geometry import _best_row, inner
from setflow.setmaps import ProblemSpec
from setflow.solver import SelectionFailed

from conftest import (
    bits,
    build_corpus,
    dyadic,
    make_non_wcm_map,
    pl_function,
    random_dyadic_map,
    region_hit,
    signed_zeros,
)
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
    verify_chain_ref,
    weakly_monotone_ref,
)


def same_pick(got, want):
    if want is None:
        return got is None
    return got is not None and bits(got) == bits(want)


def value_set(rng, dim):
    """Small dyadic rows with duplicates, score ties, -0.0 entries, shuffled."""
    rows = rng.integers(-2, 3, size=(int(rng.integers(1, 7)), dim)) / 2
    extra = rows[rng.integers(0, len(rows), size=int(rng.integers(0, 3)))]
    rows = signed_zeros(rng, np.concatenate([rows, extra]))
    return CompactSet(rows[rng.permutation(len(rows))])


def directions(rng, dim):
    """Dyadic directions with zero coordinates, so scores tie often."""
    out = [np.zeros(dim), -np.zeros(dim)]
    for _ in range(4):
        d = rng.integers(-1, 2, size=dim).astype(float)
        out.append(signed_zeros(rng, d))
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
        P = signed_zeros(rng, rng.integers(-1, 2, size=(int(rng.integers(1, 9)), dim)))
        scores = rng.integers(0, 3, size=len(P)).astype(float)
        top = np.flatnonzero(scores == scores.max()).tolist()
        assert _best_row(P, scores) == lex_min_index_ref(P, top)


def test_tie_break_rule_over_many_scans_and_nan_scores():
    # (n, m) scores pick one row per scan, as (m,) scores of each scan do; a
    # NaN score never beats a number, and where every score is NaN all tie
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        P = signed_zeros(rng, rng.integers(-1, 2, size=(int(rng.integers(1, 9)), dim)))
        scores = rng.choice([0.0, 1.0, 2.0, -np.inf, np.nan], size=(4, len(P)))
        picks = _best_row(P, scores)
        for row, pick in zip(scores, picks):
            numbers = np.flatnonzero(~np.isnan(row))
            top = numbers[row[numbers] == row[numbers].max()] if len(numbers) else range(len(P))
            assert _best_row(P, row) == pick == lex_min_index_ref(P, list(top))


def _chain_data(rng, pairs, dim, dyadic):
    if dyadic:
        xs = rng.integers(-4, 5, size=(pairs, dim)) / 2
        vs = rng.integers(-4, 5, size=(pairs, dim)) / 2
        return signed_zeros(rng, xs), signed_zeros(rng, vs)
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


def verify_outcomes(fn, chain, tol):
    """``fn(chain, tol)`` with every float error ignored, and the outcome
    (the result, or the error's message) where overflow and invalid raise."""
    with np.errstate(all="ignore"):
        quiet = fn(chain, tol)
    try:
        with np.errstate(over="raise", invalid="raise"):
            loud = fn(chain, tol)
    except FloatingPointError as exc:
        loud = str(exc)
    for result in (quiet, loud):
        if isinstance(result, tuple):
            assert type(result[0]) is bool and type(result[1]) in (int, type(None))
    return quiet, loud


@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 1200), dim=st.integers(1, 4),
       tol=st.sampled_from([0.0, 1e-9, 0.5, math.nan, math.inf]), planted=st.booleans(),
       huge_before=st.booleans(), huge_after=st.booleans())
@settings(max_examples=300, deadline=None)
def test_verify_chain_matches_the_index_loop(seed, pairs, dim, tol, planted, huge_before,
                                             huge_after):
    rng = np.random.default_rng(seed)
    # v = x, the gradient of |x|^2 / 2, at dyadic points: every slack is
    # exact and not negative, up to a violation planted at index bad
    xs = signed_zeros(rng, dyadic(rng, (pairs, dim)))
    vs = xs.copy()
    bad = int(rng.integers(1, pairs)) if planted and pairs > 1 else pairs
    if bad < pairs:
        xs[bad, 0] = xs[0, 0] + 1.0
        vs[bad] = (xs[0] - xs[bad]) * 2.0**20
    # rows scaled toward the largest float, at or before bad and past it; a
    # row whose entries lie below 2**top stays below 2**1024, so finite
    spans = [(huge_before, 0, min(bad, pairs - 1)), (huge_after, bad + 1, pairs - 1)]
    for wanted, low, high in spans:
        if wanted and low <= high:
            rows = rng.integers(low, high + 1, size=int(rng.integers(1, 4)))
            top = np.frexp(np.abs(np.concatenate([xs[rows], vs[rows]], axis=1)).max(axis=1))[1]
            scale = 2.0 ** rng.integers(500, np.minimum(1022, 1024 - top))[:, None]
            xs[rows] *= scale
            vs[rows] *= scale
    with np.errstate(all="ignore"):
        chain = Chain(xs, vs)
    got = verify_outcomes(verify_chain, chain, tol)
    assert got == verify_outcomes(verify_chain_ref, chain, tol)
    if not huge_before and tol == 0.0:
        want = (False, bad) if bad < pairs else (True, None)
        assert got == (want, want)


# (points, velocities, outcome with errors ignored, outcome where they raise)
EDGE_CHAINS = [
    # index 1 fails; the product at index 2 overflows past it and raises nothing
    ([[0.0], [1.0], [2.0**1020]], [[1.0], [-1.0], [2.0**1020]], (False, 1), (False, 1)),
    # the product at index 1 overflows before index 2 would fail
    ([[0.0], [2.0**1020], [1.0]], [[1.0], [2.0**1020], [-1.0]], (True, None),
     "overflow encountered in vecdot"),
    # an offset overflows at index 1, and its slack is inf - inf
    ([[-(2.0**1023)], [2.0**1023]], [[1.0], [1.0]], (False, 1),
     "overflow encountered in subtract"),
    # sums[1] is already inf, so index 1 fails with nothing left to trap
    ([[0.0], [2.0**1000]], [[2.0**100], [1.0]], (False, 1), (False, 1)),
]


@pytest.mark.parametrize("xs, vs, quiet, loud", EDGE_CHAINS)
def test_verify_chain_traps_only_up_to_the_first_failure(xs, vs, quiet, loud):
    with np.errstate(all="ignore"):
        chain = Chain(xs, vs)
    assert verify_outcomes(verify_chain, chain, 0.0) == (quiet, loud)
    assert verify_outcomes(verify_chain_ref, chain, 0.0) == (quiet, loud)


# (points, velocities, outcome where underflow raises); either chain fails
# at index 1 where it does not
UNDERFLOW_CHAINS = [
    # the product at index 2 underflows past the failure and raises nothing
    ([[0.0], [1.0], [2.0**-600]], [[1.0], [-1.0], [2.0**-600]], (False, 1)),
    # the product at index 1 underflows, as that index is checked
    ([[0.0], [2.0**-600], [1.0]], [[1.0], [2.0**-600], [-1.0]],
     "underflow encountered in vecdot"),
]


@pytest.mark.parametrize("xs, vs, loud", UNDERFLOW_CHAINS)
def test_verify_chain_traps_underflow_only_up_to_the_first_failure(xs, vs, loud):
    chain = Chain(xs, vs)
    for fn in (verify_chain, verify_chain_ref):
        assert fn(chain, 0.0) == (False, 1)
        try:
            with np.errstate(under="raise"):
                got = fn(chain, 0.0)
        except FloatingPointError as exc:
            got = str(exc)
        assert got == loud


def test_verify_chain_is_one_inner_scan(monkeypatch):
    # one inner call over the stacked rows, and none for a single pair
    calls = []

    def spy(u, v):
        calls.append(np.shape(u))
        return inner(u, v)

    monkeypatch.setattr(chains, "inner", spy)
    rng = np.random.default_rng(5)
    for pairs in (1, 2, 50, 1000):
        xs = dyadic(rng, (pairs, 2))
        chain = Chain(xs, xs)
        for tol in (0.0, math.nan):
            calls.clear()
            held = pairs == 1 or tol == 0.0
            assert verify_chain(chain, tol) == ((True, None) if held else (False, 1))
            assert calls == ([] if pairs == 1 else [(pairs - 1, 2)])


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
        assert region_hit(h, x) is want
        assert region_hit(h, x) == halfspace_matches_ref(h, x)
    with pytest.raises(ValueError):
        Halfspace([1.0], 0.0, "ne")
