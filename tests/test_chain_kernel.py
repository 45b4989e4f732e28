"""The batched chain-graph classifiers against the brute-force enumerations.

``classify_cyclic_monotone``, ``classify_weak_cyclic_monotone`` and
``check_support_chain`` must produce the reports of the per-chain loops they
replaced byte for byte, and raise the same budget errors; so must the scans
of ``classify_monotone`` and ``classify_weakly_monotone`` against their pair
loops.  On dyadic data the
verdicts are also checked in exact arithmetic.
"""

import contextlib
import itertools
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import setflow.chains as chains
from setflow import (
    Always,
    Box,
    BudgetExceededError,
    Halfspace,
    PLConvexFunction,
    SetValuedMap,
    check_support_chain,
    classify_cyclic_monotone,
    classify_monotone,
    classify_weak_cyclic_monotone,
    classify_weakly_monotone,
    constant_map,
    inner,
    linear_map,
    pl_subdifferential_map,
    replay_witness,
    sample_grid,
    support_argmax,
    table_map,
)
from setflow.geometry import inner_rows

from conftest import bits, build_corpus, random_dyadic_map
from oracles import (
    chain_holds_exact,
    cyclic_monotone_brute,
    first_chain_violation_exact,
    monotone_ref,
    support_chain_brute,
    weak_cyclic_monotone_brute,
    weakly_monotone_ref,
)

PAIRS = (
    (classify_cyclic_monotone, cyclic_monotone_brute),
    (classify_weak_cyclic_monotone, weak_cyclic_monotone_brute),
    (check_support_chain, support_chain_brute),
)


def outcome(fn, *args):
    """Report bytes (of a list of reports, too), or the budget error's values
    and message, or the float error's message, under the CLI's errstate."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            got = fn(*args)
    except BudgetExceededError as exc:
        return ("budget", exc.evaluated, exc.budget, str(exc))
    except FloatingPointError as exc:
        return ("float", str(exc))
    return json.dumps([r.to_json_dict() for r in got] if isinstance(got, list)
                      else got.to_json_dict())


def assert_same_as_brute(svmap, grid, max_length, tol, budget):
    for fast, brute in PAIRS:
        want = outcome(brute, svmap, grid, max_length, tol, budget)
        got = outcome(fast, svmap, grid, max_length, tol, budget)
        assert got == want, (fast.__name__, max_length, tol, budget)


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.name)
def test_corpus_matches_brute_force(entry):
    for max_length in (1, 2, 3):
        for tol in (0.0, 1e-9):
            for budget in (1, 50, 10**6):
                assert_same_as_brute(entry.svmap, entry.grid, max_length, tol, budget)


def test_long_chains_match_brute_force_budget():
    # lengths far past the budget: the chain counts stop at the first one
    # over it, and the errors match the chain-by-chain enumeration
    for entry in build_corpus()[:6]:
        for budget in (1, 50, 10**4):
            assert_same_as_brute(entry.svmap, entry.grid, 40, 0.0, budget)


def _below_half(low, high):
    # {low} left of 0.5, {high} from there on
    return table_map([(Halfspace([1.0], 0.5, "lt"), [[low]]), (Always(), [[high]])])


FEW_NODE_CASES = {
    "one-node": (constant_map([[1.0]]), [[0.0]]),
    "one-point-two-values": (constant_map([[-1.0], [1.0]]), [[0.5]]),
    "two-points-holding": (constant_map([[1.0]]), [[0.0], [1.0]]),
    "two-points-monotone": (_below_half(0.0, 1.0), [[0.0], [1.0]]),
    "two-points-failing": (_below_half(1.0, 0.0), [[0.0], [1.0]]),
}


@pytest.mark.parametrize("case", FEW_NODE_CASES, ids=str)
def test_one_and_two_node_graphs_match_brute_force(case):
    # levels and dynamic-program steps that repeat are stopped early and the
    # remaining lengths counted in closed form
    svmap, grid = FEW_NODE_CASES[case]
    for max_length in range(1, 41):
        for budget in (1, 20, 300):
            assert_same_as_brute(svmap, np.array(grid), max_length, 0.0, budget)


@pytest.mark.parametrize("fn", [fast for fast, _ in PAIRS], ids=lambda f: f.__name__)
def test_one_node_graph_at_a_huge_max_length_is_fast(fn):
    start = time.perf_counter()
    report = fn(constant_map([[1.0]]), np.array([[0.0]]), 10**6, 0.0, 10**6)
    assert time.perf_counter() - start < 1.0
    assert report.holds
    assert max(report.details.values()) == 10**6
    with pytest.raises(BudgetExceededError) if fn is not check_support_chain \
            else contextlib.nullcontext():
        fn(constant_map([[1.0]]), np.array([[0.0]]), 10**6 + 1, 0.0, 10**6)


@pytest.mark.parametrize("fn", [fast for fast, _ in PAIRS], ids=lambda f: f.__name__)
def test_huge_max_length_hits_the_budget(fn):
    # the gradient of a linear function: every class holds on every chain
    grid = sample_grid([-1.0], [1.0], [5])
    with pytest.raises(BudgetExceededError) as info:
        fn(constant_map([[1.0]]), grid, 10**5, 0.0, 10**6)
    assert info.value.budget == 10**6


def test_weak_cyclic_blocks_match_brute_force(monkeypatch):
    # blocks of a few chains split every level and cap the next one
    monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", 7)
    for entry in build_corpus():
        for budget in (1, 17, 50, 333, 10**6):
            for max_length in (1, 2, 3):
                want = outcome(weak_cyclic_monotone_brute, entry.svmap, entry.grid,
                               max_length, 0.0, budget)
                got = outcome(classify_weak_cyclic_monotone, entry.svmap, entry.grid,
                              max_length, 0.0, budget)
                assert got == want, (entry.name, max_length, budget)


def test_the_span_of_a_weak_cyclic_witness_forms_no_children(monkeypatch):
    # a span's children are formed after its witness test: on a 7 x 7
    # rotation the witness is the 7th chain of level 2, in a span whose
    # children level 3 would take, and that span hands none back.  Forming
    # each span's children first made the searches that fail early about
    # five times slower
    spans, sent = [], []

    def spy(*args, levels=chains._levels):
        search = levels(*args)
        for span in search:
            spans.append(span)
            kids = yield span
            if kids is not None:
                sent.append(len(spans) - 1)
                search.send(kids)
                yield

    monkeypatch.setattr(chains, "_levels", spy)
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [7, 7])
    report = classify_weak_cyclic_monotone(ROTATION, grid, 3, 1e-9)
    assert not report.holds and len(report.witness["points"]) == 2
    *_, want = spans[-1]
    assert want and sent and sent[-1] < len(spans) - 1


# ---------------------------------------------------------------------------
# blocks of anchors in the max-plus sweep of classify_cyclic_monotone and
# check_support_chain

ANCHOR_BLOCKS = (1, 2, 3, None)  # anchors per block; None for all of them
# entries in the first block of a scan: one row, the default, and a full block
FIRST_BLOCKS = (1, chains._FIRST_BLOCK_ELEMENTS, chains._BLOCK_ELEMENTS)


def max_plus_graphs(svmap, grid):
    """Each max-plus classifier with its oracle, node count and group starts."""
    graph = chains._ChainGraph(svmap, np.asarray(grid, dtype=float))
    n = len(graph.points)
    return n, ((classify_cyclic_monotone, cyclic_monotone_brute, len(graph.V), graph.start),
               (check_support_chain, support_chain_brute, n, np.arange(n + 1)))


def cut_budgets(nodes, starts, lengths):
    """Budgets just before and at the first chain of each length anchored in
    each group but the first, so that they cut a length's anchors inside a
    block of two or more."""
    shorter = [0, 0]  # chains of fewer than m steps
    while len(shorter) <= max(lengths):
        shorter.append(shorter[-1] + nodes ** len(shorter))
    return {shorter[m] + int(start) * nodes ** m + extra
            for m in lengths for start in starts[1:-1] for extra in (0, 1)}


def classify_all(svmap, grid, max_length, tol, budget):
    """The five reports of ``setflow classify``, from one graph."""
    graph = chains._ChainGraph(svmap, np.asarray(grid, dtype=float))
    return chains._classify(graph, max_length, tol, budget)


def classify_all_brute(svmap, grid, max_length, tol, budget):
    return [monotone_ref(svmap, grid, tol, budget), weakly_monotone_ref(svmap, grid, tol, budget),
            *(brute(svmap, grid, max_length, tol, budget) for _, brute in PAIRS)]


def assert_blocks_match_brute(monkeypatch, svmap, grid, max_lengths, budgets, cut_lengths,
                              cut_groups=None, every_scan=False):
    n, graphs = max_plus_graphs(svmap, grid)
    for fast, brute, nodes, starts in graphs:
        cuts = cut_budgets(nodes, starts[:cut_groups], cut_lengths)
        for max_length in max_lengths:
            for budget in sorted(set(budgets) | cuts):
                want = outcome(brute, svmap, grid, max_length, 0.0, budget)
                for anchors, first in itertools.product(ANCHOR_BLOCKS, FIRST_BLOCKS):
                    monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", (anchors or n) * nodes * n)
                    monkeypatch.setattr(chains, "_FIRST_BLOCK_ELEMENTS", first)
                    got = outcome(fast, svmap, grid, max_length, 0.0, budget)
                    assert got == want, (fast.__name__, anchors, first, max_length, budget)
    if not every_scan:
        return
    # the other scans and the five reports of setflow classify, at the
    # default block sizes and with a first block of one row
    monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", FIRST_BLOCKS[2])
    scans = [(classify_monotone, monotone_ref, ()),
             (classify_weakly_monotone, weakly_monotone_ref, ())]
    scans += [(fast, brute, (max_length,)) for max_length in max_lengths
              for fast, brute in ((classify_weak_cyclic_monotone, weak_cyclic_monotone_brute),
                                  (classify_all, classify_all_brute))]
    for fast, brute, length in scans:
        for budget in budgets:
            want = outcome(brute, svmap, grid, *length, 0.0, budget)
            for first in FIRST_BLOCKS[:2]:
                monkeypatch.setattr(chains, "_FIRST_BLOCK_ELEMENTS", first)
                got = outcome(fast, svmap, grid, *length, 0.0, budget)
                assert got == want, (fast.__name__, first, length, budget)


# every scan that stops at its first witness, with its oracle and max_length
SCANS = ((classify_monotone, monotone_ref, None),
         (classify_weakly_monotone, weakly_monotone_ref, None),
         *((fast, brute, max_length) for max_length in (1, 2, 3) for fast, brute in PAIRS))


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.name)
def test_anchor_blocks_match_brute_force(monkeypatch, entry):
    assert_blocks_match_brute(monkeypatch, entry.svmap, entry.grid, (1, 2, 3), (1, 50, 10**6),
                              (1, 2), cut_groups=5)
    # every scan that stops at a witness, with first blocks of one row, of the
    # default size and of the full size, at budgets just before and at its
    # first witness
    for fast, brute, max_length in SCANS:
        args = (entry.svmap, entry.grid) + (() if max_length is None else (max_length,))
        budgets = {10**6}
        report = json.loads(outcome(brute, *args, 0.0, 10**6))
        if not report["holds"]:
            count = next(v for k, v in report["details"].items() if k.endswith("_checked"))
            budgets |= {count - 1, count} - {0}
        for budget in sorted(budgets):
            want = outcome(brute, *args, 0.0, budget)
            for first in FIRST_BLOCKS:
                monkeypatch.setattr(chains, "_FIRST_BLOCK_ELEMENTS", first)
                assert outcome(fast, *args, 0.0, budget) == want, (fast.__name__, first, budget)


def scaled(entry, k):
    """The entry's map and grid with every coordinate times 2**k: a table of
    the scaled values at each scaled grid point."""
    s = 2.0**k
    regions = [(Box(p * s, p * s), entry.svmap.eval(p).points * s) for p in entry.grid]
    return table_map(regions + [(Always(), [[0.0] * entry.grid.shape[1]])]), entry.grid * s


# a monotone map that is not cyclically monotone, a cyclically monotone one
# and one that is not monotone
EDGE_ENTRIES = ("quarter_turn", "planar_max_subdifferential", "constant_two_values")


def test_scans_match_brute_force_across_the_overflow_bounds(monkeypatch):
    # coordinates 2**k scale the gaps and chain terms by 2**(2k): near
    # k = 500 the predicates stop holding, so the scans take one row per
    # block, while every term stays finite up to k = 509
    regimes = set()
    for entry in (e for e in build_corpus() if e.name in EDGE_ENTRIES):
        for k in range(494, 510, 3):
            svmap, grid = scaled(entry, k)
            graph = chains._ChainGraph(svmap, grid)
            with np.errstate(over="ignore"):
                regimes.add((graph.safe_gaps, 2 < graph.safe_steps))
            assert_blocks_match_brute(monkeypatch, svmap, grid, (1, 2), (50, 10**6), (1,),
                                      every_scan=True)
    assert {(True, True), (False, False)} <= regimes


def test_corpus_scans_form_whole_blocks(monkeypatch):
    # an over-cautious bound would send every scan to one-row blocks, which
    # only time would show
    bounded = []
    blocks = chains._blocks
    monkeypatch.setattr(chains, "_blocks", lambda stop, width, safe:
                        bounded.append(safe) or blocks(stop, width, safe))
    for entry in build_corpus():
        graph = chains._ChainGraph(entry.svmap, entry.grid)
        assert graph.safe_gaps and 3 < graph.safe_steps, entry.name
        for fast, _, length in SCANS:
            outcome(fast, entry.svmap, entry.grid, *(() if length is None else (length,)), 0.0)
        outcome(classify_all, entry.svmap, entry.grid, 3, 0.0, 10**6)
    assert bounded and all(bounded)


GRID5 = sample_grid([-1.0], [1.0], [5])


def point_table(values):
    """The map with the values ``values[i]`` (one number or a list) at the
    ``i``-th point of GRID5."""
    return table_map([(Halfspace([1.0], float(x[0]), "eq"), np.reshape(v, (-1, 1)))
                      for x, v in zip(GRID5, values)] + [(Always(), [[0.0]])])


def anchor_runs(svmap, grid, max_length):
    """How each anchor's own loop of max-plus steps ends, at tol 0: its first
    violation, its sums repeating bit for bit, or still moving."""
    graph = chains._ChainGraph(svmap, np.asarray(grid, dtype=float))
    runs = []
    for g in range(len(graph.points)):
        # the best sum of a chain anchored in g at each node: 0.0 on its own
        # nodes, and after a step the largest sum into the node's sample
        S, run = np.where(graph.owner == g, 0.0, -np.inf), ("moving", max_length)
        for m in range(1, max_length + 1):
            S, last = np.max(S[:, None] + graph.W, axis=0)[graph.owner], S
            fails = bool(np.any(graph.E[g] - S < 0.0))
            if fails or bits(S) == bits(last):
                run = ("fails" if fails else "repeats", m)
                break
        runs.append(run)
    return runs


# (values at GRID5, how each anchor's loop ends within 6 steps)
BLOCK_CASES = {
    # the pair (0, 0.5) alone is not monotone: anchors 2 and 3 fail at the
    # same length, and in one block the lower one must win
    "two-anchors-fail-together": ([-1.0, -0.5, 0.75, 0.5, 1.0],
                                  [("moving", 6), ("moving", 6), ("fails", 1), ("fails", 1),
                                   ("fails", 4)]),
    # as above, with two values at 0.5 that both fail a step from 0: the
    # witness takes the first
    "two-last-nodes-fail": ([-1.0, -0.5, 0.75, [0.25, 0.5], 1.0],
                            [("moving", 6), ("fails", 4), ("fails", 1), ("fails", 1),
                             ("fails", 2)]),
    # anchor 1 fails while anchor 0 of its block keeps moving
    "a-later-anchor-fails-first": ([-1.0, 0.5, 0.25, 0.5, 1.0],
                                   [("moving", 6), ("fails", 1), ("fails", 1), ("fails", 2),
                                    ("moving", 6)]),
    # the gradient of x^2 / 2: anchor 2's sums repeat after 3 steps, while the
    # other anchors of its block keep rising for one or two more
    "anchors-settle-apart": ([-1.0, -0.5, 0.0, 0.5, 1.0],
                             [("repeats", 5), ("repeats", 4), ("repeats", 3), ("repeats", 4),
                              ("repeats", 5)]),
}


@pytest.mark.parametrize("case", BLOCK_CASES, ids=str)
def test_anchor_blocks_keep_each_anchors_own_loop(monkeypatch, case):
    values, runs = BLOCK_CASES[case]
    svmap = point_table(values)
    assert anchor_runs(svmap, GRID5, 6) == runs
    assert_blocks_match_brute(monkeypatch, svmap, GRID5, (1, 2, 3, 4, 6), (1, 50, 10**6),
                              (1, 2, 3))


# Two anchors of one group each, with the step terms W and end terms E of
# _MaxPlusPaths.  "lower-overflows-later": anchor 0 holds at one step and its
# sums overflow at the second, while anchor 1 fails at one step; anchor 0's
# own loop reaches the overflow first.  "upper-overflows-later": anchor 0
# fails at two steps, and anchor 1's sums would overflow only at a second
# step that its loop no longer takes.
OVERFLOW_ORDER = {
    "lower-overflows-later": ([[1e308, 0.0], [0.0, 0.0]], [[1e308, 1e308], [-1.0, -1.0]],
                              "overflow encountered in add"),
    "upper-overflows-later": ([[1.0, 0.0], [0.0, 1e308]], [[1.0, 1.0], [0.0, 1e308]],
                              (5, [0, 0, 0])),
}


@pytest.mark.parametrize("case", OVERFLOW_ORDER, ids=str)
@pytest.mark.parametrize("anchors", (1, 2))
def test_anchor_blocks_raise_where_each_anchors_loop_does(monkeypatch, case, anchors):
    # a block steps every anchor in it at once, so where a sum could overflow
    # the sweep takes one anchor at a time
    W, E, want = OVERFLOW_ORDER[case]
    monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", anchors * 4)
    # terms near 1e308: no step count is safe from overflow
    paths = chains._MaxPlusPaths(np.array(W), np.array(E), np.arange(2), 0.0, 0.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            got = paths.first_violation(3)
    except FloatingPointError as exc:
        got = str(exc)
    assert got == want


# Hand-built W, E graphs whose anchor 0 fails first, with the chain the
# descent finds under an errstate that raises and one that ignores overflow.
# "group-earlier-fails": three groups of one node each; at the first level
# candidate 0 (steps of 1 from node 0) fails at three steps, while candidate
# 2's chain 0 -> 2 -> 1 -> 2 sums three terms of -0.7e308, which overflow; the
# sweep's best sums never come near.  "group-earlier-overflows": the same
# three-term sum 0 -> 0 -> 0 -> 0 belongs to candidate 0, and candidate 2
# (steps of 1 through node 2) fails.  "node-earlier-fails": two groups of two
# nodes; the first violating chain runs through groups 0, 1, 0, where node 0
# fails, while node 1's chains through node 3 sum -1e308 twice.  In
# "node-earlier-overflows" nodes 0 and 1 trade places.
P = 0.7e308
DESCENT_OVERFLOW_ORDER = {
    "group-earlier-fails": ([[1.0, 0.0, -P], [0.0, 0.0, -P], [0.0, -P, 0.0]],
                            [[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
                            (37, [0, 0, 0, 0]), (37, [0, 0, 0, 0])),
    "group-earlier-overflows": ([[-P, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                                [[1.0, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
                                "overflow encountered in add", (61, [0, 2, 2, 0])),
    "node-earlier-fails": ([[-1.0, 0.0], [-1.0, -1e308], [1.0, 0.0], [-1e308, 0.0]],
                           [[0.0] * 4, [1.0] * 4], (33, [0, 2, 0]), (33, [0, 2, 0])),
    "node-earlier-overflows": ([[-1.0, -1e308], [-1.0, 0.0], [1.0, 0.0], [-1e308, 0.0]],
                               [[0.0] * 4, [1.0] * 4], "overflow encountered in add",
                               (37, [1, 2, 0])),
}


@pytest.mark.parametrize("case", DESCENT_OVERFLOW_ORDER, ids=str)
@pytest.mark.parametrize("candidates", (1, 3))
def test_descent_tests_one_candidate_at_a_time_where_sums_could_overflow(monkeypatch, case,
                                                                           candidates):
    # a block of candidates forms all their sums at once, so where one could
    # overflow the descent tests one candidate at a time, in order, as the
    # sweep steps one anchor
    W, E, want, ignoring = DESCENT_OVERFLOW_ORDER[case]
    W, E = np.array(W), np.array(E)
    (K, n), owner = W.shape, np.repeat(np.arange(len(E)), len(W) // len(E))
    monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", candidates * K * n)
    paths = chains._MaxPlusPaths(W, E, owner, 0.0, 0.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            got = paths.first_violation(3)
    except FloatingPointError as exc:
        got = str(exc)
    assert got == want
    with np.errstate(over="ignore"):
        assert paths.first_violation(3) == ignoring


ROTATION = linear_map([[0.0, -1.0], [1.0, 0.0]])
THREE_VALUED = constant_map([[1.0, -1.0], [-1.0, -1.0], [0.0, 1.0]])


@pytest.mark.parametrize("svmap, counts, candidates", [
    # the first violating chain's second sample is the fourth of nine
    (ROTATION, [3, 3], 2), (ROTATION, [3, 3], 3),
    # its first value is the third of the first sample's three
    (THREE_VALUED, [2, 2], 2),
], ids=["rotation-2", "rotation-3", "three-valued-2"])
def test_descent_blocks_split_a_level(monkeypatch, svmap, counts, candidates):
    # a descent level tests blocks of candidates, and the first that fails
    # lies in a later block than the first
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], counts)
    report = classify_cyclic_monotone(svmap, grid, 2)
    first = (report.witness["points"][1] == grid[3].tolist() if svmap is ROTATION
             else report.witness["velocities"][0] == svmap.eval(grid[0]).points[2].tolist())
    assert first
    n, graphs = max_plus_graphs(svmap, grid)
    for fast, brute, nodes, _ in graphs:
        monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", candidates * nodes * n)
        for max_length in (1, 2, 3):
            want = outcome(brute, svmap, grid, max_length, 0.0, 10**6)
            assert outcome(fast, svmap, grid, max_length, 0.0, 10**6) == want, fast.__name__


def test_weakly_monotone_blocks_match_the_row_loop(monkeypatch):
    # blocks of a few nodes, and budgets that end inside and between them
    monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", 7)
    rng = np.random.default_rng(77)
    cases = [(e.svmap, e.grid) for e in build_corpus()]
    cases += [(random_dyadic_map(rng, dim), sample_grid([-1.0] * dim, [1.0] * dim, [3] * dim))
              for dim in (1, 2, 2, 3) for _ in range(3)]
    verdicts = set()
    for svmap, grid in cases:
        for budget in (1, 2, 3, 5, 8, 17, 50, 333, 10**6):
            want = outcome(weakly_monotone_ref, svmap, grid, 0.0, budget)
            assert outcome(classify_weakly_monotone, svmap, grid, 0.0, budget) == want
            verdicts.add(want if isinstance(want, tuple) else json.loads(want)["holds"])
    assert {True, False} <= verdicts


def test_monotone_scan_matches_the_pair_loop():
    # budgets that end inside the first sample's checks of grids with more
    # than budget + 1 points, and budgets that cover whole grids
    rng = np.random.default_rng(1966)
    cases = [(e.svmap, e.grid) for e in build_corpus()]
    cases += [(random_dyadic_map(rng, dim), sample_grid([-1.0] * dim, [1.0] * dim, [n] * dim))
              for dim, sizes in ((1, (2, 9, 17)), (2, (3, 5)), (3, (2, 3)))
              for n in sizes for _ in range(4)]
    verdicts = set()
    for svmap, grid in cases:
        for tol in (0.0, 1e-9, 0.3):
            for budget in (1, 2, 3, 5, 7, 50, 10**6):
                want = outcome(monotone_ref, svmap, grid, tol, budget)
                assert outcome(classify_monotone, svmap, grid, tol, budget) == want
                verdicts.add(want[0] if isinstance(want, tuple) else json.loads(want)["holds"])
    assert verdicts == {True, False, "budget"}


def test_monotone_blocks_match_the_pair_loop(monkeypatch):
    # blocks of a few rows; many-valued maps whose budgets end inside a row,
    # between the rows of a pair of samples and between samples
    monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", 7)
    rng = np.random.default_rng(1967)
    cases = [(e.svmap, e.grid) for e in build_corpus()]
    cases += [(constant_map(rng.integers(-4, 5, (k, dim)) / 4),
               sample_grid([-1.0] * dim, [1.0] * dim, [n] * dim))
              for dim, n in ((1, 9), (2, 3), (2, 4)) for k in (2, 3, 5)]
    cases += [(random_dyadic_map(rng, dim), sample_grid([-1.0] * dim, [1.0] * dim, [3] * dim))
              for dim in (1, 2, 2, 3) for _ in range(3)]
    # values across the line of the samples: every gap is 0
    cases += [(constant_map([[float(k), 0.0] for k in range(k)]),
               sample_grid([0.0, -1.0], [0.0, 1.0], [1, 7])) for k in (1, 4, 6)]
    verdicts = set()
    for svmap, grid in cases:
        for tol in (0.0, 0.3):
            for budget in (1, 2, 3, 5, 8, 17, 50, 333, 10**6):
                want = outcome(monotone_ref, svmap, grid, tol, budget)
                assert outcome(classify_monotone, svmap, grid, tol, budget) == want
                verdicts.add(want[0] if isinstance(want, tuple) else json.loads(want)["holds"])
    assert verdicts == {True, False, "budget"}


def test_one_gap_kernel_matches_both_pair_loops_at_every_block_size(monkeypatch):
    # K x K gap matrices below, at and just above _BLOCK_ELEMENTS, on
    # many-valued maps, with budgets that end inside sample 0's checks and
    # inside a later sample's; every witness replays
    rng = np.random.default_rng(2072)
    cases = [(constant_map(rng.integers(-4, 5, (k, dim)) / 4),
              sample_grid([-1.0] * dim, [1.0] * dim, [n] * dim))
             for dim, n, k in ((1, 9, 3), (2, 3, 4), (2, 4, 2), (3, 2, 3))]
    cases += [(random_dyadic_map(rng, dim), sample_grid([-1.0] * dim, [1.0] * dim, [3] * dim))
              for dim in (1, 2, 2, 3)]
    cases += [(linear_map([[0.0, -1.0], [1.0, 0.0]]), sample_grid([-1.0] * 2, [1.0] * 2, [4, 4]))]
    verdicts = set()
    for svmap, grid in cases:
        graph = chains._ChainGraph(svmap, grid)
        K, d = graph.X.shape
        first = int(graph.start[1]) * (K - int(graph.start[1]))  # sample 0's checks
        budgets = {1, 2, first // 2, first, first + 1, first + 3, 10**6}
        for elements in (K * K * d + 1, K * K * d, K * K * d - 1, K * d, 1):
            monkeypatch.setattr(chains, "_BLOCK_ELEMENTS", elements)
            for tol in (0.0, 0.3):
                for budget in sorted(b for b in budgets if b >= 1):
                    for fast, ref in ((classify_monotone, monotone_ref),
                                      (classify_weakly_monotone, weakly_monotone_ref)):
                        want = outcome(ref, svmap, grid, tol, budget)
                        assert outcome(fast, svmap, grid, tol, budget) == want, \
                            (fast.__name__, elements, tol, budget)
                        if isinstance(want, tuple):
                            verdicts.add("budget")
                            continue
                        report = fast(svmap, grid, tol, budget)
                        verdicts.add(report.holds)
                        if not report.holds:
                            assert replay_witness(svmap, report)
    assert verdicts == {True, False, "budget"}


def test_the_gap_kernel_equals_both_products_bit_for_bit():
    # <X[a] - X[b], V[a] - V[b]> for every pair, in either order of operands
    rng = np.random.default_rng(7)
    svmap = random_dyadic_map(rng, 3)
    graph = chains._ChainGraph(svmap, sample_grid([-1.0] * 3, [1.0] * 3, [3] * 3)
                               * rng.standard_normal(3))
    gaps = graph.gaps(slice(None))
    dx = graph.X[:, None] - graph.X[None]
    dv = graph.V[:, None] - graph.V[None]
    assert bits(gaps) == bits(inner_rows(dx, dv)) == bits(inner_rows(dv, dx))
    assert bits(graph.gaps(np.arange(3, 9), slice(2, 11))) == bits(gaps[3:9, 2:11])


# samples (0, 0), (1/4, 0) and (1/2, 0).  "earlier-violation": sample 0
# fails against sample 1 while sample 1's own checks overflow.
# "overflow-first": sample 0's checks overflow before sample 1's violation.
# "overflow-after-violation": sample 0's first check fails and a later one of
# its checks overflows.  "own-values": the values of sample 1 lie 2e308
# apart, which no check of the monotone scan pairs
_HUGE = 1e308
OVERFLOW_CASES = {
    "earlier-violation": ([0.0], [_HUGE, -_HUGE], [-_HUGE], False),
    "overflow-first": ([_HUGE], [-_HUGE], [-1.0], "overflow encountered in subtract"),
    "overflow-after-violation": ([_HUGE], [1.0], [-_HUGE], "overflow encountered in subtract"),
    "own-values": ([0.0], [0.0, 0.0], [0.0], True),
}


@pytest.mark.parametrize("case", OVERFLOW_CASES, ids=str)
def test_monotone_raises_for_an_overflow_its_scan_reaches(case):
    # a sample's scan raises where one of its checks overflows, unless a
    # violation of an earlier sample ended the scan before it; pairs of
    # values of one sample are never checked
    *firsts, want = OVERFLOW_CASES[case]
    # "own-values" puts its two values of sample 1 across the line of the samples
    seconds = [[0.0], [_HUGE, -_HUGE], [0.0]] if case == "own-values" else [[0.0] * 3] * 3
    values = [[[a, b] for a, b in zip(first, second)] for first, second in zip(firsts, seconds)]
    svmap = table_map([(Halfspace([1.0, 0.0], 0.0, "eq"), values[0]),
                       (Halfspace([1.0, 0.0], 0.25, "eq"), values[1]), (Always(), values[2])])
    grid = sample_grid([0.0, 0.0], [0.5, 0.0], [3, 1])
    for elements in (1, 4, 1 << 16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chains, "_BLOCK_ELEMENTS", elements)
            try:
                got = classify_monotone(svmap, grid, 0.0).holds
            except FloatingPointError as exc:
                got = str(exc)
        assert got == want
    if case == "own-values":
        with pytest.raises(FloatingPointError, match="overflow encountered in subtract"):
            classify_weakly_monotone(svmap, grid, 0.0)


def random_cases(count=24):
    rng = np.random.default_rng(4096)
    for k in range(count):
        dim = 1 + k % 3
        # dyadic grid points; 3-d grids stay at 2 per axis
        points = [2, 3, 5][int(rng.integers(4 - dim))]
        grid = sample_grid([-1.0] * dim, [1.0] * dim, [points] * dim)
        yield random_dyadic_map(rng, dim), grid, 1 + int(rng.integers(2))


def node_chains(svmap, grid, max_length):
    """Every (points, velocities) chain of 2 to max_length + 1 pairs."""
    nodes = [(p, v) for p in grid for v in svmap.eval(p).points]
    for m in range(1, max_length + 1):
        for chain in itertools.product(nodes, repeat=m + 1):
            yield [p for p, _ in chain], [v for _, v in chain]


def test_random_dyadic_maps_match_brute_force_and_exact_verdicts():
    verdicts = set()
    for svmap, grid, max_length in random_cases():
        for tol in (0.0, 1e-9):
            for budget in (50, 10**6):
                assert_same_as_brute(svmap, grid, max_length, tol, budget)

        cyclic = classify_cyclic_monotone(svmap, grid, max_length, tol=0.0)
        exact_holds = all(chain_holds_exact(xs, vs)
                          for xs, vs in node_chains(svmap, grid, max_length))
        assert cyclic.holds == exact_holds
        verdicts.add(cyclic.holds)
        if not cyclic.holds:
            w = cyclic.witness
            assert first_chain_violation_exact(w["points"], w["velocities"]) == w["index"]
            assert replay_witness(svmap, cyclic)

        weak = classify_weak_cyclic_monotone(svmap, grid, max_length, tol=0.0)
        if not weak.holds:
            w = weak.witness
            assert chain_holds_exact(w["points"], w["velocities"])
            for v in svmap.eval(np.array(w["next_point"])).points:
                assert not chain_holds_exact(w["points"] + [w["next_point"]],
                                             w["velocities"] + [v.tolist()])
            assert replay_witness(svmap, weak)

        support = check_support_chain(svmap, grid, max_length, tol=0.0)
        if not support.holds:
            # support maximizers along the sequence form an exactly violating chain
            seq = [np.array(p) for p in support.witness["points"]]
            vs = [support_argmax(b - a, svmap.eval(a)) for a, b in zip(seq, seq[1:])]
            vs.append(support_argmax(seq[-1] - seq[0], svmap.eval(seq[-1])))
            assert not chain_holds_exact(seq, vs)
            assert replay_witness(svmap, support)
    assert verdicts == {True, False}


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_scalar_and_batched_inner_agree_bitwise(dim):
    rng = np.random.default_rng(100 + dim)
    xs = rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-3, 4, size=(40, 1))
    vs = rng.standard_normal((40, dim)) / 3.0
    diffs = xs[None, :, :] - xs[:, None, :]
    batched = inner_rows(diffs, vs[:, None, :])
    scalar = np.array([[inner(diffs[a, b], vs[a]) for b in range(40)] for a in range(40)])
    assert np.array_equal(batched.view(np.int64), scalar.view(np.int64))
    assert np.array_equal(inner_rows(xs, vs).view(np.int64),
                          np.array([inner(x, v) for x, v in zip(xs, vs)]).view(np.int64))


def test_monotone_over_budget_stops_evaluating():
    calls = []
    base = constant_map([[1.0]])

    def counted(x):
        calls.append(x)
        return base.eval(x)

    svmap = SetValuedMap(1, counted)
    grid = sample_grid([-1.0], [1.0], [4000])
    with pytest.raises(BudgetExceededError) as info:
        classify_monotone(svmap, grid, tol=0.0, budget=10)
    assert (info.value.evaluated, info.value.budget) == (11, 10)
    assert len(calls) <= 10 + 2


def test_monotone_over_budget_stays_small(monkeypatch):
    # 40 values across the line of the samples: every gap is 0, and the budget
    # ends with the pair (0, 625), where the pair loop had evaluated 627
    # samples; scanning every node against sample 0 took a 125 MB peak
    svmap = constant_map([[float(k), 0.0] for k in range(40)])
    grid = sample_grid([0.0, 0.0], [0.0, 1.0], [1, 2000])
    rows = []
    eval_many = SetValuedMap.eval_many

    def counted(self, X):
        rows.extend(X)
        return eval_many(self, X)

    monkeypatch.setattr(SetValuedMap, "eval_many", counted)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as info:
            classify_monotone(svmap, grid, tol=0.0, budget=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.evaluated, info.value.budget) == (10**6 + 1, 10**6)
    assert len(rows) <= 2 * 627
    assert peak < 8 << 20


CLASSIFIERS = (
    (classify_monotone, (), False),
    (classify_weakly_monotone, (), True),
    (classify_cyclic_monotone, (2,), False),
    (classify_weak_cyclic_monotone, (2,), True),
    (check_support_chain, (2,), False),
)


@pytest.mark.parametrize("fn, length, holds", CLASSIFIERS,
                         ids=[fn.__name__ for fn, _, _ in CLASSIFIERS])
def test_overflowing_terms_raise_instead_of_a_verdict(fn, length, holds):
    # on a 2 x 2 grid at +-1e200, values of +-1 give finite terms; values of
    # +-1e200 overflow them, where the classifiers had given verdicts (cyclic
    # monotonicity and the support chain held) with only a warning.  One such
    # value beside a finite one at every sample overflows too, though each
    # sample's largest term per step is then the finite value's
    grid = sample_grid([-1e200] * 2, [1e200] * 2, [2, 2])
    settings = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fn(constant_map([[1.0, -1.0], [-1.0, 1.0]]), grid, *length, 0.0)
    assert report.holds is holds
    for values in ([[1e200, -1e200], [-1e200, 1e200]], [[1.0, -1.0], [1e200, -1e200]]):
        with pytest.raises(FloatingPointError):
            fn(constant_map(values), grid, *length, 0.0)
    assert np.geterr() == settings


def test_a_slack_that_overflows_below_its_samples_best_raises():
    # F(0) = {5e307, 1e307} and F(1) = {+-1.5e308}: from (0, 5e307) the step
    # to 1 sums to 5e307, and the value -1.5e308 there leaves the slack
    # -2e308 while the sample's best, 1e308, is finite; from (1, -1.5e308)
    # no value of F(0) extends the chain, which the search would report
    svmap = table_map([(Halfspace([1.0], 0.5, "le"), [[5e307], [1e307]]),
                       (Always(), [[1.5e308], [-1.5e308]])])
    with pytest.raises(FloatingPointError):
        classify_weak_cyclic_monotone(svmap, sample_grid([0.0], [1.0], [2]), 1, 0.0)


def test_a_slack_that_overflows_past_the_witness_ends_no_search():
    # values 2**510 * (1, -2, -1, 1) at 2**512 * (-1, -1/3, 1/3, 1): no value at
    # the second point extends the chain of the first, and a later chain's step
    # sum or slack overflows; a block that formed them all had raised
    P = 2.0**512
    points = np.array([[-P], [-P / 3], [P / 3], [P]])
    svmap = table_map([(Halfspace([1.0], float(x[0]), "eq"), [[2.0**510 * c]])
                       for x, c in zip(points, (1, -2, -1, 1))] + [(Always(), [[0.0]])])
    report = classify_weak_cyclic_monotone(svmap, points, 1, 0.0)
    assert not report.holds and report.details["extensions_checked"] == 2
    assert report.witness["next_point"] == points[1].tolist()


def test_the_step_terms_are_formed_whole_before_any_budget_applies():
    # values 0, 1, -2**512 and 2**512 at 0, 1, -2**511 and 2**511: the step
    # from the third point to the fourth is -2**1024.  The chain searches form
    # every step term under the caller's errstate first, so they raise where
    # the chain-by-chain loops stop at a budget of 8 before reaching it
    P = 2.0**511
    points = np.array([[0.0], [1.0], [-P], [P]])
    svmap = table_map([(Halfspace([1.0], float(x[0]), "eq"), [[v]])
                       for x, v in zip(points, (0.0, 1.0, -2 * P, 2 * P))] + [(Always(), [[0.0]])])
    for fast, brute in PAIRS[:2]:
        with pytest.raises(FloatingPointError, match="overflow encountered in vecdot"):
            fast(svmap, points, 2, 0.0, 8)
        with np.errstate(over="raise", invalid="raise"), pytest.raises(BudgetExceededError):
            brute(svmap, points, 2, 0.0, 8)


FOUR_VALUED = constant_map([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def test_step_terms_are_held_per_sample():
    # W[a, j] = <x_j - X[a], V[a]>: expanded by owner it is the node-by-node
    # matrix bit for bit
    rng = np.random.default_rng(3)
    for svmap, counts in ((FOUR_VALUED, [5, 5]), (random_dyadic_map(rng, 2), [4, 3])):
        graph = chains._ChainGraph(svmap, sample_grid([-1.0, -1.0], [1.0, 1.0], counts))
        K, n = len(graph.V), len(graph.points)
        assert graph.W.shape == (K, n) and graph.E.shape == (n, K)
        nodes = inner_rows(graph.X[None, :, :] - graph.X[:, None, :], graph.V[:, None, :])
        assert bits(graph.W[:, graph.owner]) == bits(nodes)
        for table, pick in ((graph.ends, np.max), (graph.lows, np.min)):
            assert bits(table) == bits([[pick(graph.E[i, graph.start[j]:graph.start[j + 1]])
                                         for j in range(n)] for i in range(n)])


def test_cyclic_monotone_on_a_four_valued_grid_stays_small():
    # 1156 nodes on 289 samples: a K x K step matrix alone is 10 MiB, and the
    # run peaked at 23 MiB with one
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [17, 17])
    tracemalloc.start()
    try:
        report = classify_cyclic_monotone(FOUR_VALUED, grid, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.holds
    assert peak < 12 << 20


def test_support_chain_on_a_four_valued_grid_stays_small():
    # the same graph as above, stepped over its 289 samples one anchor at a time
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [17, 17])
    tracemalloc.start()
    try:
        report = check_support_chain(FOUR_VALUED, grid, 2, budget=10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.holds
    assert peak < 12 << 20


def test_classify_on_a_seven_by_seven_rotation_stays_small():
    # 49 nodes, and the weak cyclic witness is the 7th chain of level 2: a
    # level stepped as one block of its 1337 rows had peaked at 2 MiB
    graph = chains._ChainGraph(ROTATION, sample_grid([-1.0, -1.0], [1.0, 1.0], [7, 7]))
    tracemalloc.start()
    try:
        with np.errstate(over="raise", invalid="raise"):
            reports = chains._classify(graph, 2, 1e-9, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.holds for r in reports] == [True, True, False, False, False]
    assert peak < 1 << 20


def test_end_terms_negate_the_step_terms_bit_for_bit():
    # E[i, b] = <X[b] - points[i], V[b]> is W[b, i] negated, zero products
    # (a node at its own sample, zero coordinates) and overflows to +-inf
    # included
    rng = np.random.default_rng(1307)
    seen = set()
    for k in range(200):
        d, n = 1 + k % 4, int(rng.integers(1, 7))
        scale = 10.0 ** rng.integers(-5, 6) if k % 5 else 1e200
        points = rng.standard_normal((n, d)) * scale / 3
        values = rng.standard_normal((int(rng.integers(1, 4)), d)) * scale / 7
        values[rng.random(values.shape) < 0.2] = 0.0
        graph = chains._ChainGraph(constant_map(values), points)
        with np.errstate(over="ignore", invalid="ignore"):
            want = chains._terms(graph.points, graph.X, graph.V[None])
            got = graph.E
        assert bits(got) == bits(want)
        seen |= {"zero" if (want == 0).any() else "", "inf" if np.isinf(want).any() else ""}
    assert {"zero", "inf"} <= seen


KINK = pl_subdifferential_map(PLConvexFunction(FOUR_VALUED.eval([0.0, 0.0]).points, [0.0] * 4))


def test_cyclic_monotone_on_a_kink_grid_stays_small():
    # the subdifferential of max(+-x1, +-x2) on a 9x9 grid: 100 nodes on 81
    # samples, so a block steps several anchors at once, and its temporary
    # stays within the block's 2**16 entries
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [9, 9])
    nodes = len(KINK.eval_many(grid)[0])
    assert chains._BLOCK_ELEMENTS // (nodes * len(grid)) > 1
    tracemalloc.start()
    try:
        report = classify_cyclic_monotone(KINK, grid, 3, budget=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and report.details["chains_checked"] == nodes**2 + nodes**3 + nodes**4
    assert peak < 2 << 20


@pytest.mark.parametrize("fn, length", [(fn, length) for fn, length, _ in CLASSIFIERS],
                         ids=[fn.__name__ for fn, _, _ in CLASSIFIERS])
def test_budgets_past_int64_give_the_default_reports(fn, length):
    for entry in build_corpus():
        want = outcome(fn, entry.svmap, entry.grid, *length, 0.0)
        assert isinstance(want, str)
        for budget in (2**63 - 1, 2**63, 10**30):
            assert outcome(fn, entry.svmap, entry.grid, *length, 0.0, budget) == want
