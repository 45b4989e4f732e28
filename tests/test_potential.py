"""Potential construction: max-of-affine families and the compatible submap."""

import json

import numpy as np
import pytest

from setflow import (
    Chain,
    SequenceFamily,
    affine_value,
    build_family,
    constant_map,
    family_from_text,
    family_to_text,
    grow_family,
    inner,
    pl_subdifferential_map,
    potential_value,
    sample_grid,
    subgradient_test,
    submap_contains,
    submap_select,
)
from setflow.potential import family_from_json_dict

from conftest import ABS_F, PLANAR_F, make_sign_map


def abs_family(grid_n=5, max_length=3):
    F = pl_subdifferential_map(ABS_F)
    grid = sample_grid([-1.0], [1.0], [grid_n])
    fam, stats = build_family(
        F, np.array([0.0]), np.array([1.0]), grid, max_length,
        box=([-1.0], [1.0]),
    )
    return F, fam, stats


class TestAffineValue:
    def test_single_pair(self):
        c = Chain([[1.0]], [[2.0]])
        # <x - x_0, v_0> + 0
        assert affine_value(c, [4.0]) == 6.0

    def test_longer_chain_uses_final_pair_and_sum(self):
        c = Chain([[0.0], [1.0]], [[1.0], [3.0]])
        # sum = <1-0, 1> = 1; value at x: <x-1, 3> + 1
        assert affine_value(c, [2.0]) == 4.0


class TestFamilyBasics:
    def test_initial_family_is_the_trivial_chain(self):
        fam = SequenceFamily.initial([0.0], [1.0])
        assert len(fam) == 1
        assert potential_value(fam, [0.0]) == 0.0
        assert potential_value(fam, [3.0]) == 3.0

    def test_anchor_value_stays_exactly_zero(self):
        F, fam, _ = abs_family()
        assert potential_value(fam, [0.0]) == 0.0

    @pytest.mark.parametrize("low, high", [
        ([np.nan], [1.0]), ([-np.inf], [1.0]), ([-1.0], [np.inf]), ([-1.0], [np.nan]),
    ])
    def test_box_bounds_must_be_finite(self, low, high):
        with pytest.raises(ValueError, match="box bounds must be finite"):
            SequenceFamily.initial([0.0], [1.0], box=(low, high))
        with pytest.raises(ValueError, match="box bounds must be finite"):
            build_family(pl_subdifferential_map(ABS_F), [0.0], [1.0],
                         sample_grid([-1.0], [1.0], [3]), 2, box=(low, high))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_tolerance_must_be_nonnegative(self, tol):
        # refused before any member is checked, where every later growth
        # would fail at index 1
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            SequenceFamily.initial([0.0], [1.0], tol=tol)
        bad_member = Chain([[0.0], [1.0]], [[1.0], [-1.0]])
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            SequenceFamily([0.0], [1.0], [Chain([[0.0]], [[1.0]]), bad_member], tol=tol)
        doc = json.loads(family_to_text(SequenceFamily.initial([0.0], [1.0])))
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            family_from_json_dict(dict(doc, tol=tol))

    def test_nan_tolerance_in_a_document_is_refused(self):
        text = family_to_text(SequenceFamily.initial([0.0], [1.0]))
        assert '"tol": 0.0' in text
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            family_from_text(text.replace('"tol": 0.0', '"tol": NaN'))

    def test_grow_rejects_wrong_anchor(self):
        fam = SequenceFamily.initial([0.0], [1.0])
        with pytest.raises(ValueError):
            grow_family(fam, Chain([[1.0]], [[1.0]]))

    def test_grow_rejects_non_cm_chain(self):
        fam = SequenceFamily.initial([0.0], [1.0])
        bad = Chain([[0.0], [1.0]], [[1.0], [-1.0]])
        with pytest.raises(ValueError):
            grow_family(fam, bad)

    def test_growth_never_lowers_the_potential(self):
        fam = SequenceFamily.initial([0.0], [1.0])
        chain = Chain([[0.0], [-1.0]], [[1.0], [-1.0]])
        grown = grow_family(fam, chain)
        for x in np.linspace(-2, 2, 41):
            assert potential_value(grown, [x]) >= potential_value(fam, [x])

    def test_prefixes_are_included(self):
        fam = SequenceFamily.initial([0.0, 0.0], [1.0, 0.0])
        chain = Chain(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        )
        grown = grow_family(fam, chain)
        lengths = sorted(len(m) for m in grown.members)
        assert lengths == [1, 2, 3]


class TestDominationPruning:
    def test_dominated_member_is_dropped(self):
        # second chain's affine map dominates the first extension on the box
        fam = SequenceFamily.initial([0.0], [1.0], box=([-1.0], [1.0]))
        weak = Chain([[0.0], [0.5]], [[1.0], [1.0]])
        fam = grow_family(fam, weak)
        n_before = len(fam)
        # identical affine behavior, so one of the two non-trivial members goes
        also = Chain([[0.0], [0.25]], [[1.0], [1.0]])
        fam2 = grow_family(fam, also)
        assert len(fam2) <= n_before + 1

    def test_pruning_preserves_values_on_the_box(self):
        F = pl_subdifferential_map(PLANAR_F)
        grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [3, 3])
        boxed, _ = build_family(
            F, np.array([0.0, 0.0]), np.array([1.0, 0.0]), grid, 2,
            box=([-1.0, -1.0], [1.0, 1.0]),
        )
        plain, _ = build_family(
            F, np.array([0.0, 0.0]), np.array([1.0, 0.0]), grid, 2,
        )
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-1, 1, size=2)
            a = potential_value(boxed, x)
            b = potential_value(plain, x)
            assert a == pytest.approx(b, abs=1e-12)

    def test_trivial_member_survives_cap(self):
        fam = SequenceFamily.initial([0.0], [1.0], cap=2)
        fam = grow_family(fam, Chain([[0.0], [1.0]], [[1.0], [2.0]]))
        fam = grow_family(fam, Chain([[0.0], [-1.0]], [[1.0], [-3.0]]))
        assert len(fam) <= 2
        assert len(fam.members[0]) == 1  # anchor chain still first


class TestSubmap:
    def test_select_returns_compatible_velocity(self):
        F, fam, _ = abs_family()
        v = submap_select(fam, F, [0.5])
        assert v is not None and v.tolist() == [1.0]
        assert submap_contains(fam, F, [0.5], v)

    def test_select_at_anchor(self):
        F, fam, _ = abs_family()
        v = submap_select(fam, F, [0.0])
        assert v is not None
        assert submap_contains(fam, F, [0.0], v)

    def test_contains_rejects_foreign_velocity(self):
        F, fam, _ = abs_family()
        with pytest.raises(ValueError):
            submap_contains(fam, F, [0.5], [2.0])

    def test_contains_false_for_incompatible_value(self):
        F = constant_map([[-1.0], [1.0]])
        fam = SequenceFamily.initial([0.0], [1.0])
        # the anchor plane forces g(1) >= 1, which -1 cannot clear
        assert not submap_contains(fam, F, [1.0], [-1.0])
        assert submap_contains(fam, F, [1.0], [1.0])

    def test_subgradient_test_positive(self):
        F, fam, _ = abs_family()
        probes = [np.array([p]) for p in np.linspace(-1, 1, 21)]
        assert subgradient_test(fam, [0.5], [1.0], probes)
        assert subgradient_test(fam, [0.0], [-1.0], probes)

    def test_subgradient_test_rejects_incompatible_pair(self):
        # a pair whose extension breaks the chain inequality cannot be grown
        fam = SequenceFamily.initial([0.0], [1.0])
        probes = [np.array([p]) for p in np.linspace(-2, 2, 11)]
        with pytest.raises(ValueError):
            subgradient_test(fam, [1.0], [-5.0], probes)


class TestBuildFamily:
    def test_stats_and_growth(self):
        F, fam, stats = abs_family()
        assert stats["chains_grown"] >= 1
        assert not stats["budget_exhausted"]
        # the built potential matches |x| on the grid for the abs map
        for x in np.linspace(-1, 1, 9):
            assert potential_value(fam, [x]) == pytest.approx(abs(x), abs=1e-12)

    def test_budget_exhaustion_is_quiet(self):
        F = make_sign_map()
        grid = sample_grid([-1.0], [1.0], [5])
        fam, stats = build_family(
            F, np.array([0.0]), np.array([1.0]), grid, 4, budget=10
        )
        assert stats["budget_exhausted"]
        assert potential_value(fam, [0.0]) == 0.0

    def test_text_round_trip(self):
        F, fam, _ = abs_family()
        fam2 = family_from_text(family_to_text(fam))
        assert len(fam2) == len(fam)
        for x in np.linspace(-1, 1, 17):
            assert potential_value(fam2, [x]) == potential_value(fam, [x])


class TestConvexity:
    def test_midpoint_convexity_random(self):
        F, fam, _ = abs_family()
        rng = np.random.default_rng(3)
        for _ in range(300):
            x, y = rng.uniform(-1, 1, size=2)
            gx = potential_value(fam, [x])
            gy = potential_value(fam, [y])
            gm = potential_value(fam, [(x + y) / 2])
            assert (gx + gy) / 2 - gm >= -1e-12

    def test_potential_is_supported_by_member_planes(self):
        F, fam, _ = abs_family()
        for member in fam.members:
            for x in np.linspace(-1, 1, 11):
                assert affine_value(member, [x]) <= potential_value(fam, [x])
