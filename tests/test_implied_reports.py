"""``setflow classify`` reports the classes a holding verdict implies.

``chains._classify`` runs the five classes of ``setflow classify`` on one
graph.  Where monotonicity holds it writes the weakly monotone report in
closed form, and where cyclic monotonicity holds, the weak cyclic and
support-chain reports, unless the skipped search could overflow.  Its
reports, or its budget and float errors, must be those of the five private
classifiers run one by one, and those of the brute-force loops in
``tests/oracles.py``.
"""

import json

import numpy as np
import pytest

import setflow.chains as chains
from setflow import (
    BudgetExceededError,
    PLConvexFunction,
    constant_map,
    linear_map,
    map_from_dict,
    pl_subdifferential_map,
    sample_grid,
)
from setflow.cli import EXIT_INVALID, main

from conftest import build_corpus, dyadic, random_dyadic_map
from oracles import (
    cyclic_monotone_brute,
    monotone_ref,
    support_chain_brute,
    weak_cyclic_monotone_brute,
    weakly_monotone_ref,
)

def checked():
    # the CLI's errstate
    return np.errstate(over="raise", invalid="raise")


def _ended(fn):
    # the reports' text, or the error that ended the run
    try:
        with checked():
            return fn()
    except BudgetExceededError as exc:
        return ("budget", exc.evaluated, exc.budget, str(exc))
    except FloatingPointError as exc:
        return ("float", str(exc))


def classified(svmap, grid, max_length, tol, budget):
    graph = chains._ChainGraph(svmap, grid)
    return _ended(lambda: [r.to_text() for r in chains._classify(graph, max_length, tol, budget)])


def one_by_one(svmap, grid, max_length, tol, budget):
    graph = chains._ChainGraph(svmap, grid)
    return _ended(lambda: [
        chains._monotone(graph, tol, budget).to_text(),
        chains._weakly_monotone(graph, tol, budget).to_text(),
        chains._cyclic_monotone(graph, max_length, tol, budget).to_text(),
        chains._weak_cyclic_monotone(graph, max_length, tol, budget).to_text(),
        chains._support_chain(graph, max_length, tol, budget).to_text(),
    ])


def brute(svmap, grid, max_length, tol, budget):
    return _ended(lambda: [
        monotone_ref(svmap, grid, tol, budget).to_text(),
        weakly_monotone_ref(svmap, grid, tol, budget).to_text(),
        *(ref(svmap, grid, max_length, tol, budget).to_text()
          for ref in (cyclic_monotone_brute, weak_cyclic_monotone_brute, support_chain_brute)),
    ])


def _cases():
    cases = [(e.name, e.svmap, e.grid) for e in build_corpus()]
    rng = np.random.default_rng(30)
    for d in (1, 2, 3):
        counts = {1: [4], 2: [3, 2], 3: [2, 2, 2]}[d]
        for k in range(4):
            grid = sample_grid([-1.0] * d, [1.0] * d, counts)
            cases.append((f"random-{d}d-{k}", random_dyadic_map(rng, d), grid))
            values = dyadic(rng, (int(rng.integers(1, 4)), d))
            cases.append((f"constant-{d}d-{k}", constant_map(values), grid))
            pieces = int(rng.integers(1, 4))
            f = PLConvexFunction(dyadic(rng, (pieces, d)), dyadic(rng, pieces, den=4))
            cases.append((f"pl-{d}d-{k}", pl_subdifferential_map(f), grid))
    # one point, one value at each point, and both
    cases += [
        ("one-point", constant_map([[-1.0], [0.5], [1.0]]), np.array([[0.25]])),
        ("one-point-one-value", constant_map([[1.0, 2.0]]), np.array([[0.0, 0.5]])),
        ("one-value-gradient", linear_map([[2.0, 1.0], [1.0, 1.0]]),
         sample_grid([-1.0, -1.0], [1.0, 1.0], [3, 2])),
        ("one-value-rotation", linear_map([[0.0, -1.0], [1.0, 0.0]]),
         sample_grid([-1.0, -1.0], [1.0, 1.0], [2, 2])),
    ]
    return cases


CASES = _cases()


def _budgets(svmap, grid, max_length, tol):
    # at, just below and just above the weakly monotone count K * (n - 1) and
    # the chains cyclic monotonicity checks, and the default
    graph = chains._ChainGraph(svmap, grid)
    K, n = len(graph.V), len(graph.points)
    with checked():
        cyclic = chains._cyclic_monotone(graph, max_length, tol, 10**9)
    marks = {K * (n - 1), cyclic.details["chains_checked"]}
    return sorted({b for m in marks for b in (m - 1, m, m + 1) if b >= 1} | {10**6})


@pytest.mark.parametrize("name, svmap, grid", CASES, ids=[c[0] for c in CASES])
def test_the_five_reports_match_the_searches_one_by_one(name, svmap, grid):
    for tol in (0.0, 1e-9, 0.3):
        for max_length in (1, 2, 3):
            for budget in _budgets(svmap, grid, max_length, tol):
                want = one_by_one(svmap, grid, max_length, tol, budget)
                assert classified(svmap, grid, max_length, tol, budget) == want, \
                    (tol, max_length, budget)


@pytest.mark.parametrize("name, svmap, grid", CASES, ids=[c[0] for c in CASES])
def test_the_five_reports_match_the_brute_force_loops(name, svmap, grid):
    K = len(svmap.eval_many(grid)[0])
    for tol in (0.0, 1e-9, 0.3):
        for max_length in (1, 2, 3):
            if sum(K**j for j in range(2, max_length + 2)) > 1000:
                continue  # the chain-by-chain loops would take too long
            for budget in _budgets(svmap, grid, max_length, tol):
                want = brute(svmap, grid, max_length, tol, budget)
                assert classified(svmap, grid, max_length, tol, budget) == want, \
                    (tol, max_length, budget)


@pytest.fixture
def searches(monkeypatch):
    """Calls of the weakly monotone and weak cyclic searches and of the sweep."""
    calls = {"weakly": 0, "weak_cyclic": 0, "sweep": 0}

    def spy(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(chains, "_weakly_monotone", spy("weakly", chains._weakly_monotone))
    monkeypatch.setattr(chains, "_weak_cyclic_monotone",
                        spy("weak_cyclic", chains._weak_cyclic_monotone))
    monkeypatch.setattr(chains._MaxPlusPaths, "first_violation",
                        spy("sweep", chains._MaxPlusPaths.first_violation))
    return calls


KINK = pl_subdifferential_map(PLConvexFunction([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                                [0.0, -1.0]], [0.0] * 4))
GRID3 = sample_grid([-1.0, -1.0], [1.0, 1.0], [3, 3])


def test_implied_searches_are_not_run(searches):
    # the kink map holds every class: only the monotone scan and the cyclic
    # sweep run
    reports = chains._classify(chains._ChainGraph(KINK, GRID3), 2, 0.0, 10**6)
    assert all(r.holds for r in reports)
    assert searches == {"weakly": 0, "weak_cyclic": 0, "sweep": 1}


def test_the_weakly_monotone_count_past_the_budget_raises_before_the_sweep(searches):
    # 16 nodes on 9 samples: 110 monotone checks, then 16 * 8 weakly monotone
    # ones, one past a budget of 127
    graph = chains._ChainGraph(KINK, GRID3)
    with pytest.raises(BudgetExceededError) as info:
        chains._classify(graph, 2, 0.0, 127)
    assert (info.value.evaluated, info.value.budget) == (128, 127)
    assert searches == {"weakly": 0, "weak_cyclic": 0, "sweep": 0}
    assert chains._monotone(graph, 0.0, 127).details["pairs_checked"] == 110


def test_searches_run_where_the_stronger_class_fails(searches):
    # the rotation is monotone but not cyclically monotone; a map with two
    # values at one point is neither
    chains._classify(chains._ChainGraph(linear_map([[0.0, -1.0], [1.0, 0.0]]), GRID3),
                     2, 0.0, 10**6)
    assert searches == {"weakly": 0, "weak_cyclic": 1, "sweep": 2}
    chains._classify(chains._ChainGraph(constant_map([[-1.0], [1.0]]), np.array([[0.0], [1.0]])),
                     2, 0.0, 10**6)
    assert searches == {"weakly": 1, "weak_cyclic": 2, "sweep": 4}


B = 1e200
BIG_KINK = {"kind": "subdifferential", "slopes": [[B, 0.0], [-B, 0.0], [0.0, B], [0.0, -B]],
            "offsets": [0.0] * 4}


def _square(a):
    return {"low": [-a, -a], "high": [a, a], "counts": [2, 2]}


OVERFLOW = "error: arithmetic leaves the float range: overflow encountered in "

# documents past a bound of the implications, with the v0 of x0 = grid low,
# the tol, and the exit code and error line of the searched path: either a
# skipped search would raise, or all five classes hold and are searched
PAST_THE_BOUNDS = {
    # values of +-1e308 at one point: monotonicity holds at tol inf, and the
    # weakly monotone gap of those two values overflows
    "table-spread": ({"kind": "table", "regions": [
        {"where": {"kind": "halfspace", "normal": [1.0], "value": 0.0, "op": "eq"},
         "points": [[1e308], [-1e308]]},
        {"where": {"kind": "always"}, "points": [[0.0]]}]},
        {"low": [-1.0], "high": [1.0], "counts": [3]}, [0.0], float("inf"),
        (EXIT_INVALID, OVERFLOW + "subtract")),
    # the README's map: its monotone gaps overflow already
    "readme-constant": ({"kind": "constant", "points": [[B, -B], [-B, B]]}, _square(B), [B, -B],
                        1e-9, (EXIT_INVALID, OVERFLOW + "vecdot")),
    # 1e200 max(+-x1, +-x2) at +-4e107 is cyclically monotone, its terms reach
    # 8e307, and an end term less the least sum of two steps overflows
    "kink-slack": (BIG_KINK, _square(4e107), [-B, 0.0], 1e-9,
                   (EXIT_INVALID, OVERFLOW + "subtract")),
    # past the sweep's bound, where no sum overflows
    "kink-holds": (BIG_KINK, _square(1e107), [-B, 0.0], 1e-9, (0, None)),
    "readme-constant-holds": ({"kind": "constant", "points": [[B, -B], [-B, B]]}, _square(1e100),
                              [B, -B], float("inf"), (0, None)),
}


@pytest.mark.parametrize("case", PAST_THE_BOUNDS, ids=str)
def test_past_the_bounds_classify_searches(tmp_path, capsys, case):
    svmap, grid, v0, tol, (code, message) = PAST_THE_BOUNDS[case]
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"map": svmap, "x0": grid["low"], "v0": v0, "T": 1.0, "h": 0.5,
                             "strategy": "support", "tol": tol, "grid": grid, "max_length": 2}))
    assert main(["classify", "--input", str(f), "--output", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == ("" if message is None else message + "\n")
    svmap, points = map_from_dict(svmap), sample_grid(grid["low"], grid["high"], grid["counts"])
    want = one_by_one(svmap, points, 2, tol, 10**6)
    assert classified(svmap, points, 2, tol, 10**6) == want
    if not code:
        graph = chains._ChainGraph(svmap, points)
        assert all(json.loads(text)["holds"] for text in want)
        assert graph.safe_steps <= 2


ROTATION = linear_map([[0.0, -1.0], [1.0, 0.0]])
FOUR_VALUED = constant_map([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
GRID9 = sample_grid([-1.0, -1.0], [1.0, 1.0], [9, 9])
GRID17 = sample_grid([-1.0, -1.0], [1.0, 1.0], [17, 17])


@pytest.mark.parametrize("svmap, grid, max_length, support, count", [
    (ROTATION, GRID9, 3, False, 7292),
    (ROTATION, GRID9, 3, True, 7292),
    (FOUR_VALUED, GRID17, 2, False, 20),
    (FOUR_VALUED, GRID17, 2, True, 83811),
], ids=["rotation", "rotation-support", "four-valued", "four-valued-support"])
def test_one_node_groups_skip_the_node_descent(monkeypatch, svmap, grid, max_length, support,
                                               count):
    # where every group of the first violating group tuple holds one node,
    # the group descent's nodes are the chain: the node descent over those
    # groups finds the same nodes, and the count is the searched one
    graph = chains._ChainGraph(svmap, grid)
    if support:
        W, E = np.maximum.reduceat(graph.W, graph.start[:-1], axis=0), graph.ends
        owner = np.arange(len(grid))
    else:
        W, E, owner = graph.W, graph.E, graph.owner
    paths = chains._MaxPlusPaths(W, E, owner, 0.0, graph.safe_steps)
    descents = []
    descend = paths._descend
    monkeypatch.setattr(paths, "_descend",
                        lambda *args: descents.append(args[2]) or descend(*args))
    with checked():
        got, nodes = paths.first_violation(max_length, 10**8)
    assert got == count
    groups = owner[nodes].tolist()
    levels = [range(paths.start[g], paths.start[g + 1] + 1) for g in groups]
    one_node = all(len(level) == 2 for level in levels)
    assert one_node == (support or svmap is ROTATION)
    assert len(descents) == (1 if one_node else 2)
    with checked():
        assert descend(None, None, levels, np.arange(len(W)), groups[0], False) == nodes
