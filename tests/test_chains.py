"""Chain verification, extension rules, and the classification routines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import (
    BudgetExceededError,
    Chain,
    check_support_chain,
    classify_cyclic_monotone,
    classify_monotone,
    classify_weak_cyclic_monotone,
    classify_weakly_monotone,
    constant_map,
    extend_exhaustive,
    extend_inertial,
    extend_support,
    extension_slack,
    inner,
    linear_map,
    map_from_dict,
    pl_subdifferential_map,
    replay_witness,
    sample_grid,
    verify_chain,
)

from conftest import ABS_F, INERTIAL_GAP_PROBLEM, make_non_wcm_map, make_sign_map
from oracles import (
    chain_holds_exact,
    first_chain_violation_exact,
    random_cm_chain,
    random_lattice_chain,
)


lattice = st.integers(-3, 3)


def chains_strategy(max_dim=3, max_pairs=6):
    def build(n):
        row = st.lists(lattice, min_size=n, max_size=n)
        return st.tuples(
            st.lists(row, min_size=1, max_size=max_pairs),
            st.lists(row, min_size=1, max_size=max_pairs),
        ).filter(lambda t: len(t[0]) == len(t[1]))

    return st.integers(1, max_dim).flatmap(build)


class TestChainBasics:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Chain([[0.0], [1.0]], [[1.0]])

    def test_single_pair_always_verifies(self):
        ok, bad = verify_chain(Chain([[5.0, 1.0]], [[-2.0, 3.0]]))
        assert ok and bad is None

    def test_sums_match_fresh_resummation(self):
        xs = [[0.0], [1.0], [3.0], [2.0]]
        vs = [[1.0], [2.0], [-1.0], [0.0]]
        c = Chain(xs, vs)
        for m in range(1, 4):
            want = sum(
                inner(np.array(xs[i]) - np.array(xs[i - 1]), vs[i - 1])
                for i in range(1, m + 1)
            )
            assert c.sums[m] == pytest.approx(want, abs=1e-12)

    def test_from_pairs_and_dict_round_trip(self):
        c = Chain.from_pairs([([0.0], [1.0]), ([2.0], [0.5])])
        c2 = Chain.from_dict(c.to_dict())
        assert np.array_equal(c.xs, c2.xs) and np.array_equal(c.vs, c2.vs)

    def test_extended_equals_fresh_chain(self):
        c = Chain([[0.0], [1.0]], [[1.0], [0.0]])
        d = c.extended([3.0], [2.0])
        f = Chain([[0.0], [1.0], [3.0]], [[1.0], [0.0], [2.0]])
        assert np.array_equal(d.xs, f.xs)
        assert d.sums == pytest.approx(f.sums)

    def test_prefix_shares_verdict(self):
        c = Chain([[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]])
        p = c.prefix(2)
        assert len(p) == 2
        assert verify_chain(p)[0]


class TestVerifyAgainstOracle:
    @given(chains_strategy())
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_arithmetic(self, data):
        xs, vs = data
        c = Chain(np.array(xs, dtype=float), np.array(vs, dtype=float))
        ok, first_bad = verify_chain(c, tol=0.0)
        oracle_bad = first_chain_violation_exact(xs, vs)
        assert ok == (oracle_bad is None)
        assert first_bad == oracle_bad

    def test_known_violation_index(self):
        # third pair breaks the inequality first
        xs = [[0.0], [1.0], [2.0]]
        vs = [[1.0], [1.0], [-1.0]]
        ok, bad = verify_chain(Chain(xs, vs))
        assert not ok and bad == 2
        assert not chain_holds_exact(xs, vs)

    def test_tolerance_forgives_small_slack(self):
        xs = [[0.0], [1.0]]
        vs = [[1.0], [1.0 - 1e-12]]
        assert not verify_chain(Chain(xs, vs), tol=0.0)[0]
        assert verify_chain(Chain(xs, vs), tol=1e-9)[0]

    def test_overflowing_sums_fail(self):
        # sums[2] and the anchored product at index 2 both overflow, so the
        # slack there is inf - inf = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            chain = Chain([[0.0], [1e308], [1.7e308]], [[1.7], [1.7], [1.7]])
            assert verify_chain(chain) == (False, 2)

    def test_constructive_cm_chains_verify_at_zero(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            pairs = int(rng.integers(1, 7))
            xs, vs = random_cm_chain(rng, dim, pairs)
            assert verify_chain(Chain(xs, vs), tol=0.0)[0]
            assert chain_holds_exact(xs, vs)


class TestExtensionRules:
    def test_extension_slack_definition(self):
        c = Chain([[0.0], [1.0]], [[1.0], [2.0]])
        # appending (x, v): slack = <x - x0, v> - (sum + <x - x1, v1>)
        x, v = np.array([3.0]), np.array([1.0])
        want = 3.0 * 1.0 - (1.0 + 2.0 * 2.0)
        assert extension_slack(c, x, v) == want

    def test_exhaustive_prefers_max_slack(self):
        F = constant_map([[-1.0], [0.0], [1.0]])
        c = Chain([[0.0]], [[1.0]])
        v = extend_exhaustive(c, np.array([1.0]), F, tol=0.0)
        assert v.tolist() == [1.0]

    def test_exhaustive_tie_break_lexicographic(self):
        F = constant_map([[0.0, 1.0], [1.0, 0.0]])
        c = Chain([[0.0, 0.0]], [[0.0, 0.0]])
        v = extend_exhaustive(c, np.array([1.0, 1.0]), F, tol=0.0)
        assert v.tolist() == [0.0, 1.0]

    def test_exhaustive_returns_none_when_stuck(self):
        F = make_non_wcm_map()
        c = Chain([[0.0]], [[1.0]])
        assert extend_exhaustive(c, np.array([1.0]), F, tol=0.0) is None

    def test_support_matches_support_argmax(self):
        F = pl_subdifferential_map(ABS_F)
        c = Chain([[-1.0]], [[-1.0]])
        v = extend_support(c, np.array([2.0]), F)
        assert v.tolist() == [1.0]
        d = c.extended([2.0], v)
        assert verify_chain(d, tol=0.0)[0]

    def test_support_degenerate_next_point(self):
        # next point equals the anchor: fall back to the value nearest v0
        F = constant_map([[-1.0], [1.0]])
        c = Chain([[0.0]], [[1.0]])
        v = extend_support(c, np.array([0.0]), F)
        assert v.tolist() == [1.0]

    def test_inertial_keeps_chain_cm(self, rng):
        F = make_sign_map()
        c = Chain([[0.0]], [[1.0]])
        for x in ([1.0], [2.0], [-1.0]):
            v = extend_inertial(c, np.array(x), F, tol=0.0)
            if v is not None:
                c = c.extended(x, v)
        assert verify_chain(c, tol=0.0)[0]

    def test_inertial_declines_aligned_pick_below_tol(self):
        F = map_from_dict(INERTIAL_GAP_PROBLEM["map"])
        c = Chain([[0.0], [1.0]], [[1.0], [0.91]])
        x_next = np.array([1.91])
        (v,) = F(x_next).points
        # aligned within tol, yet the final-index slack is below -tol
        assert inner(x_next - c.anchor_point, v - c.last_velocity) >= -0.1
        assert extension_slack(c, x_next, v) < -0.1
        assert extend_inertial(c, x_next, F, tol=0.1) is None

    def test_inertial_declines_a_nan_slack(self):
        # the aligned pick's final-index slack is inf - inf = NaN
        c = Chain([[0.0], [1e308]], [[1.7], [1.7]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(extension_slack(c, np.array([1.7e308]), np.array([1.7])))
            assert extend_inertial(c, np.array([1.7e308]), constant_map([[1.7]]), 0.0) is None

    def test_exhaustive_declines_a_nan_slack(self):
        # the new sum 1e308 * 2 overflows, so every slack is inf - inf = NaN
        c = Chain([[0.0]], [[2.0]])
        with np.errstate(all="ignore"):
            assert extend_exhaustive(c, [1e308], constant_map([[2.0]]), 0.0) is None
            # 0.5 has the slack 5e307 - inf, a number, which beats NaN
            assert extend_exhaustive(c, [1e308], constant_map([[2.0], [0.5]]), 0.0) is None

    def test_inertial_prefers_smallest_velocity_change(self):
        F = constant_map([[-1.0], [1.0]])
        c = Chain([[0.0]], [[1.0]])
        # both velocities satisfy the pivot inequality at the anchor direction 0
        v = extend_inertial(c, np.array([0.0]), F, tol=0.0)
        assert v.tolist() == [1.0]


class TestClassifiers:
    def test_monotone_witness_replays(self):
        F = constant_map([[-1.0], [1.0]])
        grid = sample_grid([-1.0], [1.0], [3])
        rep = classify_monotone(F, grid, tol=0.0)
        assert not rep.holds
        assert replay_witness(F, rep)

    def test_weakly_monotone_holds_for_two_point_constant(self):
        F = constant_map([[-1.0], [1.0]])
        grid = sample_grid([-1.0], [1.0], [3])
        assert classify_weakly_monotone(F, grid, tol=0.0).holds

    def test_cyclic_fails_for_two_point_constant(self):
        F = constant_map([[-1.0], [1.0]])
        grid = sample_grid([-1.0], [1.0], [3])
        rep = classify_cyclic_monotone(F, grid, max_length=2, tol=0.0)
        assert not rep.holds
        assert replay_witness(F, rep)

    def test_weak_cyclic_holds_for_two_point_constant(self):
        F = constant_map([[-1.0], [1.0]])
        grid = sample_grid([-1.0], [1.0], [3])
        assert classify_weak_cyclic_monotone(F, grid, max_length=3, tol=0.0).holds

    def test_rotation_monotone_but_not_cyclic(self):
        F = linear_map([[0.0, -1.0], [1.0, 0.0]])
        grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [3, 3])
        assert classify_monotone(F, grid, tol=0.0).holds
        rep = classify_cyclic_monotone(F, grid, max_length=2, tol=0.0)
        assert not rep.holds
        assert len(rep.witness["points"]) == 3
        assert replay_witness(F, rep)

    def test_weak_cyclic_witness_replays(self):
        F = make_non_wcm_map()
        grid = sample_grid([-1.0], [1.0], [3])
        rep = classify_weak_cyclic_monotone(F, grid, max_length=2, tol=0.0)
        assert not rep.holds
        assert replay_witness(F, rep)

    def test_budget_guard_raises(self):
        F = constant_map([[-1.0], [1.0]])
        grid = sample_grid([-1.0], [1.0], [5])
        with pytest.raises(BudgetExceededError):
            classify_weak_cyclic_monotone(F, grid, max_length=4, budget=50)

    def test_report_round_trip_text_and_json(self):
        F = constant_map([[1.0]])
        rep = classify_monotone(F, sample_grid([-1.0], [1.0], [3]), tol=0.0)
        d = rep.to_json_dict()
        assert d["class"] == "monotone" and d["holds"] is True
        assert "monotone" in rep.to_text()


class TestSupportChainCondition:
    def test_holds_on_abs_subdifferential(self):
        F = pl_subdifferential_map(ABS_F)
        grid = sample_grid([-1.0], [1.0], [5])
        # every sequence of 2 or 3 grid points
        rep = check_support_chain(F, grid, max_length=2, tol=0.0)
        assert rep.holds
        assert rep.details["sequences_checked"] == 5**2 + 5**3

    def test_fails_for_two_point_constant(self):
        F = constant_map([[-1.0], [1.0]])
        # the sequences over {0, 1} include (0, 1, 0)
        rep = check_support_chain(F, sample_grid([0.0], [1.0], [2]), max_length=2, tol=0.0)
        assert not rep.holds
        assert replay_witness(F, rep)


class TestRandomLatticeSweep:
    def test_thousand_random_chains_match_oracle(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            pairs = int(rng.integers(1, 7))
            xs, vs = random_lattice_chain(rng, dim, pairs)
            ok, bad = verify_chain(Chain(xs, vs), tol=0.0)
            want = first_chain_violation_exact(xs, vs)
            assert bad == want and ok == (want is None)
