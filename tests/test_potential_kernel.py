"""The affine-model potential kernel against the per-member references.

``build_family``, ``grow_family``, ``potential_value`` / ``potential_values``
and ``subgradient_test`` must give the families (as text), stats, values
(bit for bit) and booleans of the member-by-member, probe-by-probe loops they
replaced, which live on in ``tests/oracles.py``.  Built members are also
checked in exact arithmetic.  Growing by a list of chains at once must give
the family that growing by one chain at a time gives.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import setflow.cli as cli
import setflow.potential as potential
from setflow import (
    Always,
    Chain,
    Halfspace,
    SequenceFamily,
    build_family,
    constant_map,
    family_to_text,
    grow_family,
    map_from_dict,
    map_to_dict,
    parse_problem,
    potential_value,
    potential_values,
    sample_grid,
    subgradient_test,
    submap_contains,
    table_map,
)
from setflow.chains import extension_slack
from setflow.geometry import inner, inner_rows
from setflow.potential import (
    affine_value,
    family_from_json_dict,
    family_from_text,
    family_to_json_dict,
)

import oracles
from conftest import bits, build_corpus, random_dyadic_map
from oracles import (
    build_family_ref,
    first_chain_violation_exact,
    grow_family_ref,
    grid_points_ref,
    potential_value_ref,
    selected_values_ref,
    subgradient_entries_ref,
    subgradient_test_ref,
)

DEMO_PROBLEMS = sorted(
    (Path(__file__).resolve().parent.parent / "demos" / "problems").glob("*.json"))
POTENTIAL_FILES = ("family.json", "potential_values.csv", "subgradient.json",
                   "potential_summary.json")


def outcome(fn, *args):
    """The result, or the error's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("error", str(exc))


@contextlib.contextmanager
def grown_chains(module, name):
    """Record the chains ``module.name(family, chain)`` is called with."""
    seen = []
    original = getattr(module, name)

    def spy(family, chain):
        seen.append(chain.to_dict())
        return original(family, chain)

    setattr(module, name, spy)
    try:
        yield seen
    finally:
        setattr(module, name, original)


@contextlib.contextmanager
def best_members():
    """Record the member indices the kernel picks to extend, node by node."""
    seen = []
    original = potential._best_members

    def spy(model, X):
        best, base = original(model, X)
        seen.extend(best.tolist())
        return best, base

    potential._best_members = spy
    try:
        yield seen
    finally:
        potential._best_members = original


def assert_same_subgradients(svmap, grid, family, want, tols, compatible_only=True):
    """Same booleans (or errors) and the same extended best members."""
    results, got_chains = [], []
    with best_members() as picked, grown_chains(oracles, "grow_family_ref") as want_chains:
        for tol in tols:
            for p in grid:
                for v in svmap.eval(p).points:
                    if compatible_only and not submap_contains(family, svmap, p, v, tol):
                        continue
                    picked.clear()
                    result = outcome(subgradient_test, family, p, v, grid, tol)
                    assert result == outcome(subgradient_test_ref, want, p, v, grid, tol)
                    results.append(result)
                    got_chains += [family.members[k].extended(p, v).to_dict() for k in picked]
    assert got_chains == want_chains
    return results


def assert_same_queries(svmap, grid, family, want, tol):
    """Values and subgradient tests of ``family`` match ``want``'s references."""
    rng = np.random.default_rng(len(grid))
    dim = family.dimension
    points = np.vstack([np.array(grid), family.anchor_point,
                        rng.integers(-8, 9, size=(8, dim)) / 4.0])
    assert bits(potential_values(family, points)) == bits(
        [potential_value_ref(want, p) for p in points])
    assert bits([potential_value(family, p) for p in points]) == bits(
        [potential_value_ref(want, p) for p in points])
    assert_same_subgradients(svmap, grid, family, want, [tol])


def assert_same_build(svmap, grid, x0, v0, max_length, box, budget, cap=4096, tol=0.0):
    got, got_stats = build_family(svmap, x0, v0, grid, max_length, box=box, cap=cap,
                                  budget=budget, tol=tol)
    want, want_stats = build_family_ref(svmap, x0, v0, grid, max_length, box=box, cap=cap,
                                        budget=budget, tol=tol)
    assert got_stats == want_stats
    assert family_to_text(got) == family_to_text(want)
    assert potential_value(got, x0) == 0.0
    for member in got.members:
        assert first_chain_violation_exact(member.xs, member.vs) is None
    assert_same_queries(svmap, grid, got, want, 1e-9)
    return got, got_stats


def anchors(svmap, grid):
    # every value at the first and the middle grid point
    for x0 in (grid[0], grid[len(grid) // 2]):
        for v0 in svmap.eval(x0).points:
            yield x0, v0


def bounds(grid):
    pts = np.array(grid)
    return pts.min(axis=0), pts.max(axis=0)


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.name)
def test_corpus_matches_per_member_references(entry):
    for x0, v0 in anchors(entry.svmap, entry.grid):
        for box in (None, bounds(entry.grid)):
            for budget in (1, 50, 10**6):
                for max_length in (1, 2, 3):
                    assert_same_build(entry.svmap, entry.grid, x0, v0, max_length,
                                      box, budget)


def random_cases(count=18):
    rng = np.random.default_rng(8191)
    for k in range(count):
        dim = 1 + k % 3
        points = [2, 3, 5][int(rng.integers(4 - dim))]
        grid = sample_grid([-1.0] * dim, [1.0] * dim, [points] * dim)
        yield random_dyadic_map(rng, dim), grid, 2 + int(rng.integers(2))


def test_random_dyadic_maps_match_per_member_references():
    sizes = set()
    for svmap, grid, max_length in random_cases():
        x0 = grid[len(grid) // 2]
        v0 = svmap.eval(x0).points[-1]
        for box in (None, bounds(grid)):
            for budget in (1, 50, 10**6):
                family, _ = assert_same_build(svmap, grid, x0, v0, max_length, box, budget)
                sizes.add(len(family))
    assert max(sizes) > 5


@pytest.mark.parametrize("cap", [2, 3])
def test_binding_cap_with_box_matches_references(cap):
    evicted = False
    for entry in build_corpus():
        for x0, v0 in anchors(entry.svmap, entry.grid):
            family, stats = assert_same_build(entry.svmap, entry.grid, x0, v0, 3,
                                              bounds(entry.grid), 10**6, cap=cap)
            assert len(family) <= cap
            evicted = evicted or stats["chains_grown"] > cap
    assert evicted


# a value listed twice, and values equal but for the sign of a zero: node
# paths through different nodes of equal bits are one chain
TWICE = table_map([(Halfspace([1.0, 0.0], 0.0, "lt"), [[1.0, 0.5], [1.0, 0.5], [0.0, -1.0]]),
                   (Always(), [[-0.0, 1.0], [0.0, 1.0], [-1.0, 0.5], [-1.0, 0.5]])])


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 4096])
def test_built_members_match_the_reference_bit_for_bit(cap):
    # points, velocities and step sums of every member, in order, with the
    # anchor a grid node bit for bit
    cases = [(entry.svmap, entry.grid, 3) for entry in build_corpus()]
    cases += list(random_cases(8)) + [(TWICE, sample_grid([-1.0] * 2, [1.0] * 2, [3, 3]), 3)]
    for svmap, grid, max_length in cases:
        x0 = grid[len(grid) // 2]
        v0 = svmap.eval(x0).points[0]
        for box in (None, bounds(grid)):
            got, got_stats = build_family(svmap, x0, v0, grid, max_length, box=box, cap=cap)
            want, want_stats = build_family_ref(svmap, x0, v0, grid, max_length, box=box,
                                                cap=cap)
            assert got_stats == want_stats
            assert [len(chain) for chain in got.members] == [len(chain) for chain in want.members]
            for a, b in zip(got.members, want.members):
                for name in ("xs", "vs", "sums"):
                    assert bits(getattr(a, name)) == bits(getattr(b, name))


def test_subgradient_tolerance_and_failures_match_references():
    # a cap of 1 or 2 evicts the new member, so some tests fail, by margins
    # that a tolerance can cover; incompatible pairs raise in both
    results = []
    for entry in build_corpus():
        for x0, v0 in anchors(entry.svmap, entry.grid):
            for cap in (1, 2):
                got, _ = build_family(entry.svmap, x0, v0, entry.grid, 2,
                                      box=bounds(entry.grid), cap=cap)
                want, _ = build_family_ref(entry.svmap, x0, v0, entry.grid, 2,
                                           box=bounds(entry.grid), cap=cap)
                results += assert_same_subgradients(entry.svmap, entry.grid, got, want,
                                                    [0.0, 0.3, 1.0], compatible_only=False)
    assert {True, False} <= set(results)
    assert any(isinstance(r, tuple) for r in results)


def dominated_family(box, cap):
    """Members whose affine functions dominate each other on the box."""
    x0, v0 = [0.0], [1.0]
    members = [
        Chain([x0], [v0]),                       # x -> x
        Chain([[0.0], [0.5]], [[1.0], [1.0]]),   # x -> x again
        Chain([[0.0], [0.25]], [[1.0], [1.0]]),  # and again
        Chain([[0.0], [-1.0]], [[1.0], [-1.0]]),  # x -> -x - 2
        Chain([[0.0], [-0.5]], [[1.0], [-1.0]]),  # x -> -x - 1, above the one before
    ]
    return SequenceFamily(x0, v0, members, box=box, cap=cap)


@pytest.mark.parametrize("box", [None, ([-1.0], [1.0])], ids=["unboxed", "boxed"])
@pytest.mark.parametrize("cap", [2, 4096])
def test_first_grow_prunes_members_given_to_the_constructor(box, cap):
    for family in (dominated_family(box, cap),
                   family_from_json_dict(family_to_json_dict(dominated_family(box, cap)))):
        # the constructor keeps every member; only growth prunes
        assert len(family) == 5
        for chain in (Chain([[0.0], [1.0]], [[1.0], [2.0]]), Chain([[0.0]], [[1.0]])):
            got, want = grow_family(family, chain), grow_family_ref(family, chain)
            assert family_to_text(got) == family_to_text(want)
            if box is not None:
                assert len(got) < len(family) + len(chain)
            grid = sample_grid([-1.0], [1.0], [9])
            assert bits(potential_values(got, np.array(grid))) == bits(
                [potential_value_ref(want, p) for p in grid])


def test_a_closed_family_grows_chains_whose_prefixes_it_lacks():
    # the trivial member is as high as the chain's last row x -> x - 1 at
    # both vertices, but not as its 2-pair prefix x -> 2x - 0.5, which growth
    # keeps; before the chain's own prefix, or beside another chain
    family = SequenceFamily.initial([0.0], [1.0], box=([-1.0], [1.0]))
    chain = Chain([[0.0], [0.5], [-0.5]], [[1.0], [2.0], [1.0]])
    other = Chain([[0.0], [-0.5]], [[1.0], [-1.0]])
    got, want = grow_family(family, chain), grow_family_ref(family, chain)
    assert family_to_text(got) == family_to_text(want)
    assert [len(member) for member in got.members] == [1, 2]
    for batch in ([chain], [chain, chain.prefix(2)], [chain, other, chain.prefix(2)],
                  [other, chain]):
        assert_batch_matches_fold(family, batch)


def test_chains_without_their_prefixes_match_one_at_a_time():
    for svmap, grid, _ in random_cases(6):
        box = bounds(grid)
        for x0 in grid[::max(1, len(grid) // 3)]:
            v0 = svmap.eval(x0).points[-1]
            # 3-pair chains only: their 2-pair prefixes are never offered
            longest = [chain for chain in verified_chains(svmap, grid, x0, v0, 3, 100)
                       if len(chain) == 3]
            start = SequenceFamily.initial(x0, v0, box=box)
            for chain in longest[:20]:
                got, want = grow_family(start, chain), grow_family_ref(start, chain)
                assert family_to_text(got) == family_to_text(want)
            for cap in (2, 5, 4096):
                start = SequenceFamily.initial(x0, v0, box=box, cap=cap)
                assert_batch_matches_fold(start, longest)
                assert_batch_matches_fold(start, longest[::-1])


def verified_chains(svmap, grid, x0, v0, max_length, limit):
    """The first ``limit`` chains a breadth-first build grows, in its order."""
    out, queue = [], deque([Chain([x0], [v0])])
    while queue and len(out) < limit:
        chain = queue.popleft()
        for p in grid:
            for v in svmap.eval(p).points:
                if extension_slack(chain, p, v) >= 0.0:
                    out.append(chain.extended(p, v))
                    if len(out[-1]) < max_length:
                        queue.append(out[-1])
    return out[:limit]


def assert_batch_matches_fold(start, chains):
    want = functools.reduce(grow_family_ref, chains, start)
    assert family_to_text(potential._grow_verified(start, chains)) == family_to_text(want)


def test_batched_growth_matches_one_chain_at_a_time(monkeypatch):
    # record how many chains each growth step is called with
    sizes, grow = [], potential._grow_rows

    def counted(model, members, cap, offer, chains=None):
        sizes.append(len(offer) if chains is None else len(chains))
        return grow(model, members, cap, offer, chains)

    monkeypatch.setattr(potential, "_grow_rows", counted)
    rng = np.random.default_rng(4099)
    halved = set()
    for svmap, grid, max_length in random_cases(10):
        x0 = grid[len(grid) // 2]
        v0 = svmap.eval(x0).points[-1]
        chains = verified_chains(svmap, grid, x0, v0, max_length, 30)
        # any order, with repeats: every prefix may come before its chain
        shuffled = [chains[i] for i in rng.permutation(len(chains))]
        for box in (None, bounds(grid)):
            for cap in (2, 5, 4096):
                start = SequenceFamily.initial(x0, v0, box=box, cap=cap)
                for batch in (chains, shuffled + chains[:3]):
                    sizes.clear()
                    assert_batch_matches_fold(start, batch)
                    if len(sizes) > 1:
                        halved.add(cap)
    # small caps bind inside a batch, which is then grown in halves
    assert halved == {2, 5}


@pytest.mark.parametrize("box", [None, ([-1.0], [1.0])], ids=["unboxed", "boxed"])
@pytest.mark.parametrize("cap", [2, 6, 4096])
def test_batched_growth_of_families_given_to_the_constructor(box, cap):
    # members that dominate each other, and more of them than a cap of 2
    svmap = build_corpus()[2].svmap
    grid = sample_grid([-1.0], [1.0], [5])
    chains = verified_chains(svmap, grid, [0.0], [1.0], 3, 40)
    for count in (1, 2, 7, len(chains)):
        assert_batch_matches_fold(dominated_family(box, cap), chains[:count])


def test_batched_growth_checks_every_chain_first():
    family = dominated_family(([-1.0], [1.0]), 4096)
    good = Chain([[0.0], [1.0]], [[1.0], [2.0]])
    bad = Chain([[0.0], [1.0]], [[1.0], [-2.0]])
    foreign = Chain([[1.0]], [[1.0]])
    for chains in ([good, bad, good], [good, foreign, bad], [bad, foreign]):
        want = outcome(functools.reduce, grow_family_ref, chains, family)
        assert outcome(functools.reduce, grow_family, chains, family) == want


def test_rows_a_member_ties_are_dropped_before_the_dominance_matrix():
    # each chain's new row is x -> x again, the trivial member's function;
    # dropping ties with members first keeps the dominance matrix at 1 x 1
    # instead of 2001 x 2001 (a 12 MB peak; about 1 MB with the first pass)
    family = SequenceFamily.initial([0.0], [1.0], box=([-1.0], [1.0]))
    chains = [Chain([[0.0], [k / 1024]], [[1.0], [1.0]]) for k in range(-1000, 1001) if k]
    tracemalloc.start()
    try:
        grown = potential._grow_verified(family, chains)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family_to_text(grown) == family_to_text(family)
    assert peak < 4 << 20


def test_budget_inside_a_block_matches_references(monkeypatch):
    # blocks of three chains; budgets run out at every part of a block
    for entry in build_corpus()[2:6]:
        x0, v0 = next(anchors(entry.svmap, entry.grid))
        K = sum(len(entry.svmap.eval(p)) for p in entry.grid)
        monkeypatch.setattr(potential, "_BLOCK_ELEMENTS", 3 * K * len(x0))
        for box in (None, bounds(entry.grid)):
            for budget in range(K // 2, 8 * K, K // 2):
                assert_same_build(entry.svmap, entry.grid, x0, v0, 3, box, budget)


def test_a_chain_past_the_budget_forms_no_step_terms():
    # values -1, 0 and 2**512 at -2**511, 0 and 2**511: the third child of
    # the anchor steps to -2**1024 at its first point, yet its first
    # evaluation, the 10th, lies past a budget of 9, where the queue stops
    P = 2.0**511
    svmap = table_map([(Halfspace([1.0], x, "eq"), [[v]])
                       for x, v in ((-P, -1.0), (0.0, 0.0), (P, 2.0**512))]
                      + [(Always(), [[0.0]])])
    args = (svmap, [0.0], [0.0], [[-P], [0.0], [P]], 3)
    with np.errstate(over="raise", invalid="raise"):
        got, got_stats = build_family(*args, budget=9)
        want, want_stats = build_family_ref(*args, budget=9)
    assert got_stats == want_stats == {"chains_grown": 9, "evaluations": 10,
                                       "budget_exhausted": True}
    assert family_to_text(got) == family_to_text(want)


def test_small_blocks_match_references(monkeypatch):
    # blocks of a few members or chains split every evaluation
    monkeypatch.setattr(potential, "_BLOCK_ELEMENTS", 7)
    for entry in build_corpus()[2:6]:
        x0, v0 = next(anchors(entry.svmap, entry.grid))
        for box in (None, bounds(entry.grid)):
            for budget in (50, 10**6):
                assert_same_build(entry.svmap, entry.grid, x0, v0, 3, box, budget)


def test_children_are_neither_extended_nor_verified_again(monkeypatch):
    # children are gathered from the level's node paths and step sums, whose
    # slacks the level scan has checked, and the trivial member is built
    # without the constructor; chains are made only for the members kept
    calls = []

    def counted(name, fn):
        def spy(*args):
            calls.append(name)
            return fn(*args)
        return spy

    monkeypatch.setattr(Chain, "extended", counted("extended", Chain.extended))
    monkeypatch.setattr(Chain, "_trusted", classmethod(
        lambda cls, *args, trusted=Chain._trusted: counted("chain", trusted)(*args)))
    monkeypatch.setattr(potential, "verify_chain",
                        counted("verify_chain", potential.verify_chain))
    entry = build_corpus()[4]
    x0, v0 = next(anchors(entry.svmap, entry.grid))
    family, stats = build_family(entry.svmap, x0, v0, entry.grid, 3, box=bounds(entry.grid))
    assert stats["chains_grown"] > 10
    assert calls == ["chain"] * len(family)


def test_built_members_are_read_only_and_chain_sized():
    entry = build_corpus()[4]
    for x0, v0 in anchors(entry.svmap, entry.grid):
        family, _ = build_family(entry.svmap, x0, v0, entry.grid, 3)
        assert max(len(member) for member in family.members) == 3
        for member in family.members:
            for a in (member.xs, member.vs, member.sums):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0.0
                # its own rows or its chain's, never a view into a level
                assert len(a if a.base is None else a.base) <= 3


def test_negative_or_nan_tolerance_is_refused():
    entry = build_corpus()[4]
    x0, v0 = next(anchors(entry.svmap, entry.grid))
    for tol in (-1e-9, float("nan")):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            build_family(entry.svmap, x0, v0, entry.grid, 2, tol=tol)


def test_a_non_finite_anchor_is_refused():
    # a constant map has the anchor velocity at any point, finite or not
    svmap = constant_map([[1.0]])
    grid = sample_grid([-1.0], [1.0], [3])
    for x0, v0 in (([math.nan], [1.0]), ([math.inf], [1.0]), ([-math.inf], [1.0])):
        for box in (None, ([-1.0], [1.0])):
            want = outcome(build_family_ref, svmap, x0, v0, grid, 2, box)
            assert want == ("error", "chain entries must be finite")
            assert outcome(build_family, svmap, x0, v0, grid, 2, box) == want


def test_budgets_past_int64_give_the_default_family():
    for entry in build_corpus():
        x0, v0 = next(anchors(entry.svmap, entry.grid))
        box = bounds(entry.grid)
        want, want_stats = build_family(entry.svmap, x0, v0, entry.grid, 3, box=box)
        assert not want_stats["budget_exhausted"]
        for budget in (2**63 - 1, 2**63, 10**30):
            got, stats = build_family(entry.svmap, x0, v0, entry.grid, 3, box=box, budget=budget)
            assert stats == want_stats
            assert family_to_text(got) == family_to_text(want)


def planar_family():
    entry = build_corpus()[4]
    x0, v0 = entry.grid[4], entry.svmap.eval(entry.grid[4]).points[0]
    family, _ = build_family(entry.svmap, x0, v0, entry.grid, 2, box=bounds(entry.grid))
    return family


def test_wrong_dimensions_raise():
    family = planar_family()
    x, v = family.anchor_point, family.anchor_velocity
    for probes in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(2), [[0.0, 0.0], [0.0]]):
        with pytest.raises(ValueError):
            subgradient_test(family, x, v, probes)
        with pytest.raises(ValueError):
            potential_values(family, probes)
    for bad in ([0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            potential_value(family, bad)
        with pytest.raises(ValueError):
            subgradient_test(family, bad, v, [x])
        with pytest.raises(ValueError):
            subgradient_test(family, x, bad, [x])


def test_empty_probes_pass():
    family = planar_family()
    for probes in ([], np.empty((0, 2)), ()):
        assert subgradient_test(family, family.anchor_point, family.anchor_velocity, probes)
    assert potential_values(family, []).shape == (0,)


def test_growing_a_parent_twice_leaves_it_unchanged():
    parent = planar_family()
    model = parent._model
    arrays = (model.P, model.S, model.c, model.at_vertices, model.vertices)
    before = [a.copy() for a in arrays]
    keys = model.keys
    chain = Chain([parent.anchor_point, [1.0, 1.0], [-1.0, 1.0]],
                  [parent.anchor_velocity, [1.0, 0.0], [0.0, 1.0]])
    first, second = grow_family(parent, chain), grow_family(parent, chain)
    assert family_to_text(first) == family_to_text(second)
    assert first._model.keys == second._model.keys
    for a, b in zip(arrays, before):
        assert not a.flags.writeable
        assert bits(a) == bits(b)
    assert parent._model.keys == keys
    for grown in (first, second):
        m = grown._model
        for a in (m.P, m.S, m.c, m.at_vertices):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0


def run_potential(problem, out):
    return cli.main(["potential", "--input", str(problem), "--output", str(out)])


@pytest.mark.parametrize("problem", DEMO_PROBLEMS, ids=lambda p: p.stem)
def test_cli_outputs_match_the_references(problem, tmp_path, monkeypatch):
    assert run_potential(problem, tmp_path / "kernel") == 0
    svmap = parse_problem(problem.read_text()).map

    def family_ref(graph, x0, v0, max_length, box, budget, tol,
                   cap=potential.DEFAULT_FAMILY_CAP):
        # the reference evaluates the map at every grid point itself
        return build_family_ref(svmap, x0, v0, graph.points, max_length, box, cap, budget, tol)

    monkeypatch.setattr(cli, "_build_family", family_ref)
    monkeypatch.setattr(cli, "potential_values", lambda family, points: np.array(
        [potential_value_ref(family, p) for p in points]))
    monkeypatch.setattr(cli, "potential_value", potential_value_ref)
    monkeypatch.setattr(cli, "_subgradient_checks", lambda family, X, V, probes, tol: np.array(
        [subgradient_test_ref(family, x, v, probes, tol) for x, v in zip(X, V)], dtype=bool))
    monkeypatch.setattr(potential, "potential_value", potential_value_ref)
    assert run_potential(problem, tmp_path / "reference") == 0
    for name in POTENTIAL_FILES:
        assert (tmp_path / "kernel" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name
    summary = json.loads((tmp_path / "kernel" / "potential_summary.json").read_text())
    assert summary["chains_grown"] > 0


def query_problems():
    """The demo problems, then random dyadic maps on 1-d to 3-d grids."""
    docs = [(path.stem, json.loads(path.read_text())) for path in DEMO_PROBLEMS]
    rng = np.random.default_rng(909)
    for k in range(9):
        dim = 1 + k % 3
        svmap = random_dyadic_map(rng, dim)
        counts = [5, 3, 2][dim - 1]
        grid = sample_grid([-1.0] * dim, [1.0] * dim, [counts] * dim)
        x0 = grid[int(rng.integers(len(grid)))]
        v0 = svmap.eval(x0).points[int(rng.integers(len(svmap.eval(x0))))]
        docs.append((f"random-{k}", {
            "map": map_to_dict(svmap), "x0": x0.tolist(), "v0": v0.tolist(), "T": 1.0,
            "h": 0.5, "strategy": "support", "tol": [0.0, 1e-9, 0.25][k % 3],
            "grid": {"low": [-1.0] * dim, "high": [1.0] * dim, "counts": [counts] * dim},
            "max_length": 1 + k % 2,
        }))
    # map values orjson writes otherwise than json (0.00001, 1e-20 and 1e17),
    # and a tolerance that family.json writes as Infinity
    for name, points, tol in (("tiny-values", [[1e-5, 0.5], [1e-20, -0.25], [-1.0, 1.0]], 1e-9),
                              ("huge-value", [[1e17, 0.0], [-1.0, 1.0]], 1e-9),
                              ("infinite-tol", [[1.0, 0.5], [-0.5, -1.0]], math.inf)):
        docs.append((name, {
            "map": {"kind": "constant", "points": points}, "x0": [0.5, -0.5], "v0": points[0],
            "T": 1.0, "h": 0.5, "strategy": "support", "tol": tol, "max_length": 2,
            "grid": {"low": [-1.0, -1.0], "high": [1.0, 1.0], "counts": [3, 3]},
        }))
    # at the node ([-1, -1], [-0.0, 1.0]) the product -1.125 clears the model
    # value -0.6249999999999999 less tol, as rounded, but the extension's
    # slack, -0.5000000000000001, falls short of -tol: the node is not
    # compatible, where the run had tested it as a subgradient and exited 2
    docs.append(("rounding-edge", {
        "map": {"kind": "table", "regions": [
            {"where": {"kind": "always"}, "points": [[0.5, 0.5], [-0.0, 1.0]]}]},
        "x0": [-0.875, 0.125], "v0": [0.5, 0.5], "T": 1.0, "h": 0.5, "strategy": "support",
        "tol": 0.5, "max_length": 2,
        "grid": {"low": [-1.0, -1.0], "high": [1.0, 1.0], "counts": [4, 3]},
    }))
    return docs


QUERY_PROBLEMS = query_problems()


@pytest.mark.parametrize("name, doc", QUERY_PROBLEMS, ids=[name for name, _ in QUERY_PROBLEMS])
def test_query_phase_matches_the_per_pair_loop(name, doc, tmp_path):
    # subgradient.json against the entries built pair by pair through the
    # public submap tests, on the family the command wrote
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc) + "\n")
    assert run_potential(f, tmp_path / "o") == 0
    spec = parse_problem(f.read_text())
    family = family_from_text((tmp_path / "o" / "family.json").read_text())
    want = subgradient_entries_ref(family, spec.map, grid_points_ref(spec.grid), spec.tol)
    assert (tmp_path / "o" / "subgradient.json").read_text() == json.dumps(want, indent=2) + "\n"
    # every JSON file is json's text of its own contents
    for name in ("family.json", "subgradient.json", "potential_summary.json"):
        text = (tmp_path / "o" / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


def _halfspace(value, op, points):
    return {"where": {"kind": "halfspace", "normal": [1.0, 0.0], "value": value, "op": op},
            "points": points}


def _pick_case(svmap, x0, v0, counts):
    return {"map": svmap, "x0": x0, "v0": v0, "T": 1.0, "h": 0.5, "strategy": "support",
            "tol": 1e-9, "max_length": 2,
            "grid": {"low": [-1.0, -1.0], "high": [1.0, 1.0], "counts": counts}}


# each case with the number of samples of each distinct value set
PICK_CASES = {
    "constant": (_pick_case(
        {"kind": "constant", "points": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]},
        [0.3, -0.2], [1.0, 0.0], [4, 4]), [16]),
    # one value left and right of x1 = 0, both on it
    "kinked-table": (_pick_case({"kind": "table", "regions": [
        _halfspace(0.0, "lt", [[-1.0, 0.5]]),
        _halfspace(0.0, "eq", [[-1.0, 0.5], [1.0, 0.5]]),
        {"where": {"kind": "always"}, "points": [[1.0, 0.5]]},
    ]}, [0.5, 0.25], [1.0, 0.5], [5, 3]), [6, 3, 6]),
    # the anchor is a grid point, where the rule scores by nearness to v0
    "anchor-on-grid": (_pick_case(
        {"kind": "constant", "points": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.5, 0.5]]},
        [0.0, 0.0], [0.0, 1.0], [3, 3]), [9]),
    # value sets equal but for the sign of a zero
    "signed-zeros": (_pick_case({"kind": "table", "regions": [
        _halfspace(0.0, "lt", [[0.0, 1.0], [1.0, 0.0]]),
        {"where": {"kind": "always"}, "points": [[-0.0, 1.0], [1.0, 0.0]]},
    ]}, [0.5, 0.5], [1.0, 0.0], [4, 4]), [8, 8]),
}


@pytest.mark.parametrize("name", PICK_CASES)
def test_selected_values_match_the_per_sample_picks(name, tmp_path, monkeypatch):
    doc, sizes = PICK_CASES[name]
    segments = []
    picks = cli._segment_best_rows
    monkeypatch.setattr(cli, "_segment_best_rows",
                        lambda *args: segments.append(len(args[3]) - 1) or picks(*args))
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc) + "\n")
    assert run_potential(f, tmp_path / "o") == 0
    # one segmented pick for all samples at once
    assert segments == [sum(sizes)]
    spec = parse_problem(f.read_text())
    samples = spec.grid.points()
    family = family_from_text((tmp_path / "o" / "family.json").read_text())
    with np.errstate(over="raise", invalid="raise"):
        want = selected_values_ref(spec.map, samples, spec.x0, spec.v0,
                                   potential_values(family, samples), spec.tol)
    entries = json.loads((tmp_path / "o" / "subgradient.json").read_text())["entries"]
    # as text, where -0.0 and 0.0 differ
    assert json.dumps([entry["selected"] for entry in entries]) == json.dumps(want)
    if name == "signed-zeros":
        assert {"[0.0, 1.0]", "[-0.0, 1.0]"} <= {json.dumps(v) for v in want}


# duplicate values, and values equal but for the sign of a zero
PICK_VALUES = [[1.0, 0.5], [1.0, 0.5], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 0.0],
               [-1.0, -1.0], [0.5, 0.5], [-0.5, 1.0]]


@st.composite
def pick_documents(draw):
    """Table maps whose value sets repeat along the first axis, anchored on a
    grid point or off the grid."""
    values = st.lists(st.sampled_from(PICK_VALUES), min_size=1, max_size=4)
    regions = [_halfspace(draw(st.sampled_from([-0.5, 0.0, 0.5])),
                          draw(st.sampled_from(["lt", "le", "eq"])), draw(values))
               for _ in range(draw(st.integers(0, 2)))]
    regions.append({"where": {"kind": "always"}, "points": draw(values)})
    svmap = {"kind": "table", "regions": regions}
    counts = [draw(st.integers(1, 4)), draw(st.integers(1, 4))]
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], counts)
    x0 = grid[draw(st.integers(0, len(grid) - 1))] + draw(st.sampled_from([0.0, 0.125]))
    at_x0 = map_from_dict(svmap).eval(x0).points
    doc = _pick_case(svmap, x0.tolist(), at_x0[draw(st.integers(0, len(at_x0) - 1))].tolist(),
                     counts)
    doc["tol"] = draw(st.sampled_from([0.0, 1e-9, 0.5, 1e300]))
    return doc


@given(pick_documents())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_segmented_picks_match_the_per_sample_picks(tmp_path, doc):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_potential(f, tmp_path / "o") == 0
    spec = parse_problem(f.read_text())
    samples = spec.grid.points()
    family = family_from_text((tmp_path / "o" / "family.json").read_text())
    with np.errstate(over="raise", invalid="raise"):
        want = selected_values_ref(spec.map, samples, spec.x0, spec.v0,
                                   potential_values(family, samples), spec.tol)
    entries = json.loads((tmp_path / "o" / "subgradient.json").read_text())["entries"]
    assert json.dumps([entry["selected"] for entry in entries]) == json.dumps(want)


def test_an_anchor_whose_nearness_overflows_exits_invalid(tmp_path, capsys):
    # the anchor's turn to the other value squares past the float range; every
    # other figure of the run stays in it
    doc = {"map": {"kind": "constant", "points": [[1e200], [-1e200]]}, "x0": [0.0],
           "v0": [1e200], "T": 1.0, "h": 0.5, "strategy": "support", "tol": 1e-9,
           "grid": {"low": [-1.0], "high": [1.0], "counts": [3]}}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc) + "\n")
    assert run_potential(f, tmp_path / "o") == cli.EXIT_INVALID
    assert capsys.readouterr().err == \
        "error: arithmetic leaves the float range: overflow encountered in vecdot\n"
    assert not (tmp_path / "o").exists()
    spec = parse_problem(f.read_text())
    samples = spec.grid.points()
    with pytest.raises(FloatingPointError), np.errstate(over="raise", invalid="raise"):
        selected_values_ref(spec.map, samples, spec.x0, spec.v0, np.zeros(len(samples)),
                            spec.tol)


def graph_nodes(svmap, grid):
    """Every (point, value) node of the map on the grid, in grid order."""
    pairs = [(p, v) for p in grid for v in svmap.eval(p).points]
    return np.array([p for p, _ in pairs]), np.array([v for _, v in pairs])


def compatible(family, X, V):
    """Which nodes the family's model accepts at tol 0."""
    return np.array([potential_value(family, x) <= inner_rows(x - family.anchor_point, v)
                     for x, v in zip(X, V)], dtype=bool)


def kernel_answers(family, X, V, probes, tol):
    """The kernel's booleans as a list, or the error it raises."""
    got = outcome(potential._subgradient_checks, family, X, V, probes, tol)
    return got if isinstance(got, tuple) else got.tolist()


def assert_kernel_matches(family, X, V, probes, tol):
    """The kernel over all nodes at once against the reference node by node:
    the same booleans, or the error of the first node that raises."""
    want = []
    for x, v in zip(X, V):
        result = outcome(subgradient_test_ref, family, x, v, probes, tol)
        if isinstance(result, tuple):
            want = result
            break
        want.append(result)
    assert kernel_answers(family, X, V, probes, tol) == want
    return want


def kernel_cases():
    """Built families at caps 1, 2, 3 and the default, boxed, with their nodes."""
    maps = [(entry.svmap, entry.grid, 3) for entry in build_corpus()]
    for svmap, grid, max_length in maps + list(random_cases(9)):
        x0 = grid[len(grid) // 2]
        v0 = svmap.eval(x0).points[-1]
        X, V = graph_nodes(svmap, grid)
        for cap in (1, 2, 3, 4096):
            family, _ = build_family(svmap, x0, v0, grid, max_length, box=bounds(grid), cap=cap)
            yield family, svmap, grid, X, V
        family, _ = build_family(svmap, x0, v0, grid, max_length)
        yield family, svmap, grid, X, V


@pytest.fixture
def grown_in_kernel(monkeypatch):
    """Count the nodes the kernel grows through ``_grow_verified``."""
    calls = []
    grow = potential._grow_verified
    monkeypatch.setattr(potential, "_grow_verified",
                        lambda family, chains: calls.append(len(chains)) or grow(family, chains))
    return calls


def test_kernel_matches_per_node_references(grown_in_kernel):
    cases = list(kernel_cases())
    grown_in_kernel.clear()
    nodes = 0
    outcomes = set()
    for family, svmap, grid, X, V in cases:
        probes = np.array(grid).reshape(len(grid), -1)
        ok = compatible(family, X, V)
        for tol in (0.0, 0.3):
            # compatible nodes only, then every node: an incompatible one raises
            outcomes.update(assert_kernel_matches(family, X[ok], V[ok], probes, tol))
            outcomes.add(type(assert_kernel_matches(family, X, V, probes, tol)))
            nodes += np.count_nonzero(ok)
    assert {True, False, tuple} <= outcomes
    # both the batched rows and the nodes grown one at a time were exercised
    assert 0 < len(grown_in_kernel) < nodes


def test_kernel_grows_no_node_of_a_family_that_never_evicted(grown_in_kernel):
    # under the default cap a build evicts nothing, so a pruned prefix that
    # comes back is pruned again and every extension adds at most one row
    nodes = 0
    for family, svmap, grid, X, V in kernel_cases():
        if family.cap != potential.DEFAULT_FAMILY_CAP:
            continue
        ok = compatible(family, X, V)
        grown_in_kernel.clear()
        assert_kernel_matches(family, X[ok], V[ok], np.array(grid).reshape(len(grid), -1), 0.0)
        assert grown_in_kernel == []
        nodes += np.count_nonzero(ok)
    assert nodes > 200


def invariant_families():
    """Families that are closed, settled and within their cap, with their
    nodes and probes: builds at caps 2, 5 and the default, boxed and
    unboxed, and initial families grown by verified chains."""
    maps = [(entry.svmap, entry.grid, 3) for entry in build_corpus()]
    for svmap, grid, max_length in maps + list(random_cases(9)):
        x0 = grid[len(grid) // 2]
        v0 = svmap.eval(x0).points[-1]
        X, V = graph_nodes(svmap, grid)
        probes = np.array(grid).reshape(len(grid), -1)
        chains = verified_chains(svmap, grid, x0, v0, max_length, 30)
        for box in (None, bounds(grid)):
            for cap in (2, 5, 4096):
                built, _ = build_family(svmap, x0, v0, grid, max_length, box=box, cap=cap)
                start = SequenceFamily.initial(x0, v0, box=box, cap=cap)
                # the first chain alone keeps a cap of 2 from evicting
                for family in (built, functools.reduce(grow_family, chains, start),
                               functools.reduce(grow_family, chains[:1], start)):
                    model = family._model
                    if model.closed and model.settled and len(family) <= family.cap:
                        yield family, X, V, probes


def test_families_within_their_invariants_answer_every_node_batched(grown_in_kernel):
    # every member was verified when it joined, and a family that is closed,
    # settled and within its cap grows by an extension at most its last row,
    # which clears the test's bound; an extension that is a member already
    # holds that row in the family itself
    caps, member_extensions, nodes = set(), 0, 0
    for family, X, V, probes in invariant_families():
        ok = compatible(family, X, V)
        keys = set(family._model.keys)
        for x, v in zip(X[ok], V[ok]):
            values = [affine_value(chain, x) for chain in family.members]
            extension = family.members[values.index(max(values))].extended(x, v)
            member_extensions += (extension.xs.tobytes(), extension.vs.tobytes()) in keys
        for tol in (0.0, 0.3):
            grown_in_kernel.clear()
            assert_kernel_matches(family, X[ok], V[ok], probes, tol)
            assert grown_in_kernel == []
        caps.add((family.cap, family.box is None))
        nodes += np.count_nonzero(ok)
    assert caps == {(cap, unboxed) for cap in (2, 5, 4096) for unboxed in (True, False)}
    assert member_extensions > 0 and nodes > 1000


def test_an_extension_that_is_a_member_adds_no_row(grown_in_kernel):
    # at 1 the best member is the trivial one (the first of two at 0), whose
    # extension by (1, 1) is the member [(0, 0), (1, 1)]: growing adds no row
    # and the cap of 2 evicts that member, so the grown model, max(0, -y - 1),
    # falls below the tangent y - 1 at y = 2.  A second copy of the row would
    # have been kept and passed the test.  Three members are past the cap,
    # so the node is grown on its own
    x0, v0 = [0.0], [0.0]
    family = SequenceFamily(x0, v0, [Chain([x0], [v0]), Chain([x0, [1.0]], [v0, [1.0]]),
                                     Chain([x0, [-1.0]], [v0, [-1.0]])], cap=2)
    probes = np.arange(-8, 9)[:, None] / 4.0
    x, v = np.array([1.0]), np.array([1.0])
    assert not subgradient_test_ref(family, x, v, probes)
    assert not subgradient_test(family, x, v, probes)
    assert grown_in_kernel == [1]


def test_a_row_dominated_on_the_box_is_dropped_past_it(grown_in_kernel):
    # on the box [-1, 1] the extension row y - 1 of (1, 1) is nowhere above
    # the trivial member's 0, so growth prunes it, and past the box, at
    # y = 2, the tangent 1 is above the grown model's 0.  Inside the box the
    # member that prunes a row is as high as it, so the test passes there
    family = SequenceFamily.initial([0.0], [0.0], box=([-1.0], [1.0]))
    probes = np.arange(-12, 13)[:, None] / 4.0
    x, v = np.array([1.0]), np.array([1.0])
    assert not subgradient_test_ref(family, x, v, probes)
    assert not subgradient_test(family, x, v, probes)
    assert subgradient_test(family, x, v, probes[np.abs(probes[:, 0]) <= 1.0])
    assert grown_in_kernel == []


def test_families_read_back_answer_as_built():
    # a file holds the members, not the prefixes growth pruned, so a family
    # read back may not be closed by key; its nodes are then grown one at a
    # time, and must get the built family's answers
    opened = 0
    for family, svmap, grid, X, V in kernel_cases():
        loaded = family_from_text(family_to_text(family))
        opened += not loaded._model.closed
        probes = np.array(grid).reshape(len(grid), -1)
        ok = compatible(family, X, V)
        for tol in (0.0, 0.3):
            for nodes in (ok, slice(None)):
                assert kernel_answers(loaded, X[nodes], V[nodes], probes, tol) == \
                    kernel_answers(family, X[nodes], V[nodes], probes, tol)
    assert opened


def test_kernel_in_small_blocks_matches_per_node_references(monkeypatch):
    # blocks of a node or two, and of single members at the probes
    monkeypatch.setattr(potential, "_BLOCK_ELEMENTS", 7)
    for family, svmap, grid, X, V in itertools.islice(kernel_cases(), 0, None, 3):
        probes = np.array(grid).reshape(len(grid), -1)
        assert_kernel_matches(family, X, V, probes, 0.3)


@pytest.mark.parametrize("box", [None, ([-1.0], [1.0])], ids=["unboxed", "boxed"])
@pytest.mark.parametrize("cap", [2, 4, 4096])
def test_kernel_on_families_given_to_the_constructor(box, cap, grown_in_kernel):
    # members that dominate each other, more of them than a small cap, and
    # members whose proper prefixes are not members
    family = dominated_family(box, cap)
    grid = np.array(sample_grid([-1.0], [1.0], [9]))
    X = np.repeat(grid, 4, axis=0)
    V = np.tile([[1.0], [2.0], [-1.0], [0.5]], (len(grid), 1))
    ok = compatible(family, X, V)
    for tol in (0.0, 0.3):
        assert_kernel_matches(family, X[ok], V[ok], grid, tol)
        assert_kernel_matches(family, X, V, grid, tol)
    # a family whose members dominate each other, or that holds more of
    # them than its cap, is grown node by node; without a box none
    # dominates, and every proper prefix is a member
    grown_in_kernel.clear()
    potential._subgradient_checks(family, X[ok], V[ok], grid, 0.0)
    batched = box is None and len(family) <= cap
    assert len(grown_in_kernel) == (0 if batched else np.count_nonzero(ok))


def constructor_nodes(box, cap):
    """``dominated_family(box, cap)`` with four values at each of nine points."""
    grid = np.array(sample_grid([-1.0], [1.0], [9]))
    X = np.repeat(grid, 4, axis=0)
    V = np.tile([[1.0], [2.0], [-1.0], [0.5]], (len(grid), 1))
    return dominated_family(box, cap), grid, X, V


def test_a_kept_extension_row_passes_and_a_dropped_one_leaves_the_family_ungrown():
    # at a probe y the extension's row, <y - x, v> + base, is the test's bound
    # base + <v, y - x> before tol is taken off, as rounded; so a grown family
    # that keeps the row passes at tol >= 0, and one that drops it answers as
    # the family grown by no chain (the trivial one, which adds no row)
    cases = [(family, grid, X, V) for family, _, grid, X, V in kernel_cases()]
    cases += [constructor_nodes(box, cap)
              for box in (None, ([-1.0], [1.0])) for cap in (2, 4, 4096)]
    seen = set()
    for family, grid, X, V in cases:
        probes = np.array(grid).reshape(len(grid), -1)
        ungrown = grow_family_ref(family, family.members[0])
        ok = compatible(family, X, V)
        for x, v in zip(X[ok], V[ok]):
            values = [affine_value(chain, x) for chain in family.members]
            base = max(values)
            extension = family.members[values.index(base)].extended(x, v)
            key = (extension.xs.tobytes(), extension.vs.tobytes())
            kept = key in {(c.xs.tobytes(), c.vs.tobytes())
                           for c in grow_family_ref(family, extension).members}
            for tol in (0.0, 0.3):
                want = subgradient_test_ref(family, x, v, probes, tol)
                if kept:
                    assert want
                else:
                    assert want == all(
                        potential_value_ref(ungrown, y) >= base + inner(v, y - x) - tol
                        for y in probes)
                seen.add((kept, want))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("tol", [-0.25, np.nan], ids=["negative", "nan"])
def test_negative_or_nan_query_tolerances_grow_each_node(tol, grown_in_kernel):
    # below 0 a kept row no longer clears its own bound, so such a tol, and
    # NaN with it, is answered by growing node by node, errors included
    outcomes, batched = set(), 0
    for family, svmap, grid, X, V in itertools.islice(kernel_cases(), 0, None, 4):
        probes = np.array(grid).reshape(len(grid), -1)
        ok = compatible(family, X, V)
        outcomes.update(assert_kernel_matches(family, X[ok], V[ok], probes, tol))
        outcomes.add(type(assert_kernel_matches(family, X, V, probes, tol)))
        grown_in_kernel.clear()
        potential._subgradient_checks(family, X[ok], V[ok], probes, tol)
        assert grown_in_kernel == [1] * np.count_nonzero(ok)
        if family._model.closed and family._model.settled:
            grown_in_kernel.clear()
            for nonnegative in (0.0, 0.3):
                potential._subgradient_checks(family, X[ok], V[ok], probes, nonnegative)
            assert grown_in_kernel == []
            batched += 1
    assert batched
    # each node is a probe, where a tol below 0 fails every test and NaN none
    assert {not tol < 0, tuple} <= outcomes


@pytest.mark.parametrize("block", [None, 3, 2 * 17], ids=["one-block", "row-blocks", "pairs"])
def test_signed_zero_ties_in_potential_values_keep_the_last_row(block, monkeypatch):
    # rows tied at zero everywhere, their zeros signed +, -, +, - in member
    # order: np.maximum keeps its second operand on a tie of +0.0 and -0.0,
    # so the maximum is the last row's -0.0 however the rows are bracketed.
    # The model's own rows never give -0.0 (vecdot sums from +0.0), so the
    # signs are put in where the rows are evaluated
    x0, v0 = [0.0], [0.0]
    family = SequenceFamily(x0, v0, [Chain([x0], [v0])] + [
        Chain([x0, [p]], [v0, [0.0]]) for p in (0.5, -0.5, 1.0)])
    probes = np.arange(-8, 9)[:, None] / 4.0
    evaluate = potential._affine_values

    def signed(P, S, c, X):
        out = evaluate(P, S, c, X)
        out[P[:, 0] > 0.0] *= -1.0
        return out

    monkeypatch.setattr(potential, "_affine_values", signed)
    if block is not None:
        monkeypatch.setattr(potential, "_BLOCK_ELEMENTS", block)
    got = potential_values(family, probes)
    assert bits(got) == bits(np.full(len(probes), -0.0))
    assert bits([potential_value(family, y) for y in probes]) == bits(np.full(len(probes), -0.0))


def test_kernel_with_empty_probes():
    for family, svmap, grid, X, V in itertools.islice(kernel_cases(), 0, None, 4):
        empty = np.empty((0, family.dimension))
        ok = compatible(family, X, V)
        assert assert_kernel_matches(family, X[ok], V[ok], empty, 0.0) == \
            [True] * np.count_nonzero(ok)
        assert potential._subgradient_checks(family, X[:0], V[:0], empty, 0.0).shape == (0,)


# a node whose product clears the model less tol 0.75 * 2**-53, whose
# extension fails by one ulp: 1 - 2**-53 >= 1.0 - tol, as rounded, yet
# (1 - 2**-53) - 1.0 < -tol
ULP_DOC = {
    "map": {"kind": "constant", "points": [[1.0], [1.0 - 2.0**-53]]},
    "x0": [0.0], "v0": [1.0], "T": 1.0, "h": 0.5, "strategy": "support",
    "tol": 0.75 * 2.0**-53,
    "grid": {"low": [0.0], "high": [1.0], "counts": [2]}, "max_length": 2,
}


def test_compatible_node_whose_extension_fails(tmp_path, capsys):
    # compatible means the extension's own slack test, so the node is not
    # compatible and the run, which had exited 2 on it, tests no subgradient
    # there; the kernel still raises for it when asked
    f = tmp_path / "p.json"
    f.write_text(json.dumps(ULP_DOC) + "\n")
    assert run_potential(f, tmp_path / "o") == 0
    assert capsys.readouterr().err == ""
    entries = json.loads((tmp_path / "o" / "subgradient.json").read_text())["entries"]
    assert entries[1]["values"][1] == {"v": [1.0 - 2.0**-53], "compatible": False,
                                       "subgradient_ok": None}
    spec = parse_problem(f.read_text())
    family, _ = build_family(spec.map, spec.x0, spec.v0, [[0.0], [1.0]], 2,
                             box=([0.0], [1.0]), tol=spec.tol)
    x, v = np.array([1.0]), np.array([1.0 - 2.0**-53])
    assert inner_rows(x, v) >= potential_value(family, x) - spec.tol
    assert not submap_contains(family, spec.map, x, v, spec.tol)
    message = "chain fails the chain inequality at index 1"
    X, V = np.array([[0.0], [1.0], [1.0]]), np.array([[1.0], [1.0], [1.0 - 2.0**-53]])
    assert assert_kernel_matches(family, X, V, X, spec.tol) == ("error", message)


def test_kernel_grows_back_prefixes_that_are_not_members(grown_in_kernel):
    # the member's prefix [(1/4, 3/4), (0, -1/2)] is not a member; growing
    # brings it back, and past the box it is the row that clears the probes
    xs, vs = [[0.25], [0.0], [0.25]], [[0.75], [-0.5], [0.25]]
    family = SequenceFamily(xs[0], vs[0], [Chain(xs[:1], vs[:1]), Chain(xs, vs)],
                            box=([-1.0], [1.0]), cap=3)
    probes = np.arange(-12, 13)[:, None] / 4.0
    x, v = np.array([-1.0]), np.array([-0.25])
    assert subgradient_test_ref(family, x, v, probes)
    assert subgradient_test(family, x, v, probes)
    assert len(grown_in_kernel) == 1


def test_children_are_not_filtered_once_the_cap_has_evicted():
    # F = {1, -2, 2} for x >= 0 and {-1} below, anchored at (0, -2), cap 2:
    # the anchor's child (0, 2) evicts its first child (0, 1), whose own
    # first child is one the members dominate.  Growing it still brings
    # (0, 1) back, which evicts (0, 2); a budget of 8 stops right there
    svmap = table_map([(Halfspace([1.0], 0.0, "ge"), [[1.0], [-2.0], [2.0]]),
                       (Always(), [[-1.0]])])
    grid = sample_grid([-1.0], [1.0], [3])
    for budget in (8, 50):
        family, _ = assert_same_build(svmap, grid, [0.0], [-2.0], 4, bounds(grid), budget,
                                      cap=2)
        assert family.members[1].vs.tolist() == [[-2.0], [1.0]]


def test_capped_builds_match_the_reference_fold():
    # caps of 2 to 11 that bind partway through a level, and budgets that
    # stop a level partway, where a filtered child would change the family
    rng = np.random.default_rng(1009)
    evicted = 0
    for k in range(40):
        dim = 1 + k % 2
        grid = sample_grid([-1.0] * dim, [1.0] * dim, [int(rng.integers(2, 5 - dim))] * dim)
        svmap = random_dyadic_map(rng, dim)
        x0 = grid[int(rng.integers(len(grid)))]
        values = svmap.eval(x0).points
        v0 = values[int(rng.integers(len(values)))]
        cap, max_length = 2 + k % 10, 2 + k % 3
        for budget in (8, 50, 400):
            got = build_family(svmap, x0, v0, grid, max_length, box=bounds(grid), cap=cap,
                               budget=budget)
            want = build_family_ref(svmap, x0, v0, grid, max_length, box=bounds(grid), cap=cap,
                                    budget=budget)
            assert got[1] == want[1]
            assert family_to_text(got[0]) == family_to_text(want[0])
            evicted += got[1]["chains_grown"] > cap
    assert evicted > 20


def test_children_are_filtered_only_while_the_cap_cannot_evict():
    # a block whose children could take this family past a cap of 3: a
    # dropped child's prefix may come back and be what the cap evicts
    svmap = map_from_dict({"kind": "table", "regions": [
        {"where": {"kind": "halfspace", "normal": [0.0, 1.0], "value": 0.0, "op": "le"},
         "points": [[1.0, 2.0], [-2.0, 1.5]]},
        {"where": {"kind": "always"}, "points": [[1.0, -1.0], [-2.0, 1.0]]}]})
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [3, 3])
    _, stats = assert_same_build(svmap, grid, [1.0, 0.0], [1.0, 2.0], 3, bounds(grid), 10**6,
                                 cap=3)
    assert stats["chains_grown"] > 3


def test_children_are_not_filtered_where_the_survivors_reach_past_the_cap():
    # level 2 leaves three members and no eviction; at level 3 one of 34
    # children survives the filter, and growing it takes the family to four
    # rows, so the cap evicts, and children the filter would drop can then
    # survive.  A gate one above the cap filters there and keeps another family
    # (found by a sweep of random dyadic maps at caps 2-11)
    svmap = map_from_dict({"kind": "table", "regions": [
        {"where": {"kind": "halfspace", "normal": [1.0, -1.0], "value": 1.0, "op": "lt"},
         "points": [[-2.0, 1.0], [1.0, -1.5]]},
        {"where": {"kind": "always"}, "points": [[2.0, 1.0], [-1.5, 2.0]]}]})
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [2, 2])
    family, stats = assert_same_build(svmap, grid, [-1.0, -1.0], [-2.0, 1.0], 3, bounds(grid),
                                      50, cap=3)
    assert stats["budget_exhausted"]
    assert [m.vs.tolist() for m in family.members] == [
        [[-2.0, 1.0]], [[-2.0, 1.0], [1.0, -1.5]], [[-2.0, 1.0], [-2.0, 1.0], [-1.5, 2.0]]]
