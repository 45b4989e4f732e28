"""Set-valued maps, predicates, grids, and the problem file format."""

import json

import numpy as np
import pytest

from setflow import (
    ACTIVITY_TOL,
    Always,
    Box,
    CompactSet,
    GridSpec,
    Halfspace,
    PLConvexFunction,
    ProblemFormatError,
    ProblemSpec,
    SetValuedMap,
    UncoveredPointError,
    closed_graph_diagnostic,
    constant_map,
    linear_map,
    map_from_dict,
    map_to_dict,
    parse_problem,
    pl_subdifferential_map,
    sample_grid,
    serialize_problem,
    table_map,
)

from conftest import make_non_wcm_map, make_sign_map


class TestPLConvexFunction:
    def test_value_is_max_of_pieces(self):
        f = PLConvexFunction([[1.0], [-1.0]], [0.0, 0.0])  # |x|
        assert f.value([3.0]) == 3.0
        assert f.value([-2.0]) == 2.0

    def test_active_slopes_at_kink(self):
        f = PLConvexFunction([[1.0], [-1.0]], [0.0, 0.0])
        assert f.active_slopes([0.0]) == CompactSet([[-1.0], [1.0]])
        assert f.active_slopes([1.0]) == CompactSet([[1.0]])

    def test_activity_tolerance(self):
        f = PLConvexFunction([[1.0], [-1.0]], [0.0, 0.0])
        near = f.active_slopes([ACTIVITY_TOL / 4])
        assert len(near.points) == 2

    def test_duplicate_active_slopes_collapse(self):
        f = PLConvexFunction([[1.0], [1.0]], [0.0, 0.0])
        assert f.active_slopes([2.0]) == CompactSet([[1.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PLConvexFunction([[1.0], [2.0]], [0.0])


class TestConstructors:
    def test_constant(self):
        F = constant_map([[-1.0], [1.0]])
        assert F(np.array([0.3])) == CompactSet([[-1.0], [1.0]])
        assert F.local_bound([0.0], 10.0) == 1.0

    def test_subdifferential(self):
        f = PLConvexFunction([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.0] * 3)
        F = pl_subdifferential_map(f)
        assert F(np.array([2.0, 1.0])) == CompactSet([[1.0, 0.0]])
        assert F(np.array([1.0, 1.0])) == CompactSet([[1.0, 0.0], [0.0, 1.0]])
        assert F.local_bound([0.0, 0.0], 5.0) == 1.0

    def test_table_bound_is_largest_region_norm(self):
        F = table_map([
            (Halfspace([1.0, 0.0], 0.0, "lt"), [[3.0, 4.0]]),
            (Always(), [[1.0, 0.0], [0.0, -2.0]]),
        ])
        for center, radius in (([0.0, 0.0], 0.0), ([9.0, 9.0], 1.0), ([-1.0, 0.0], 100.0)):
            assert F.local_bound(center, radius) == 5.0

    def test_map_without_bound_rule_raises(self):
        F = SetValuedMap(1, lambda x: CompactSet([[1.0]]))
        with pytest.raises(ValueError, match="no bound rule"):
            F.local_bound([0.0], 1.0)

    def test_linear(self):
        F = linear_map([[0.0, -1.0], [1.0, 0.0]])
        assert F(np.array([1.0, 0.0])) == CompactSet([[0.0, 1.0]])
        with pytest.raises(ValueError):
            linear_map([[1.0, 2.0]])

    def test_table_first_match_wins(self):
        F = table_map([
            (Halfspace([1.0], 0.0, "le"), [[-1.0]]),
            (Always(), [[1.0]]),
        ])
        assert F(np.array([0.0])) == CompactSet([[-1.0]])
        assert F(np.array([0.5])) == CompactSet([[1.0]])

    def test_table_uncovered_point(self):
        F = table_map([(Halfspace([1.0], 0.0, "lt"), [[-1.0]])])
        with pytest.raises(UncoveredPointError):
            F(np.array([1.0]))

    def test_eval_validates_argument(self):
        F = constant_map([[1.0]])
        with pytest.raises(ValueError):
            F(np.array([1.0, 2.0]))


class TestPredicates:
    def test_halfspace_ops(self):
        h = Halfspace([1.0, 0.0], 2.0, "le")
        assert h.matches(np.array([2.0, 5.0]))
        assert not h.matches(np.array([2.1, 0.0]))
        assert Halfspace([1.0], 0.0, "eq").matches(np.array([0.0]))
        assert Halfspace([1.0], 0.0, "gt").matches(np.array([0.1]))
        with pytest.raises(ValueError):
            Halfspace([1.0], 0.0, "!=")

    def test_box(self):
        b = Box([0.0, 0.0], [1.0, 1.0])
        assert b.matches(np.array([0.5, 1.0]))
        assert not b.matches(np.array([0.5, 1.5]))

    def test_always(self):
        assert Always().matches(np.array([999.0]))


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: constant_map([[-1.0], [1.0]]),
        lambda: pl_subdifferential_map(PLConvexFunction([[1.0], [-2.0]], [0.0, 1.0])),
        lambda: linear_map([[0.0, -1.0], [1.0, 0.0]]),
        make_sign_map,
        make_non_wcm_map,
    ])
    def test_map_dict_round_trip(self, make):
        F = make()
        G = map_from_dict(map_to_dict(F))
        pts = sample_grid([-1.0] * F.dimension, [1.0] * F.dimension, [5] * F.dimension)
        for p in pts:
            assert F(p) == G(p)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProblemFormatError):
            map_from_dict({"kind": "mystery"})


class TestGrids:
    def test_sample_grid_values(self):
        pts = sample_grid([0.0], [1.0], [3])
        assert [p.tolist() for p in pts] == [[0.0], [0.5], [1.0]]

    def test_row_major_order(self):
        pts = sample_grid([0.0, 0.0], [1.0, 1.0], [2, 2])
        assert [p.tolist() for p in pts] == [
            [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]

    def test_count_one_keeps_low(self):
        pts = sample_grid([2.0], [9.0], [1])
        assert [p.tolist() for p in pts] == [[2.0]]

    def test_gridspec_round_trip(self):
        g = GridSpec((0.0, -1.0), (1.0, 1.0), (2, 3))
        g2 = GridSpec(**g.to_dict())
        assert g == g2
        assert len(g.points()) == 6

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((1.0,), (0.0,), (2,))

    @pytest.mark.parametrize("low, high, counts, message", [
        ([0.0, 0.0], [1.0], [2, 2], "grid low/high/counts must share a positive length"),
        ([], [], [], "grid low/high/counts must share a positive length"),
        ([1.0], [0.0], [2], "grid box is inverted"),
        ([0.0], [1.0], [0], "grid counts must be at least 1"),
    ])
    def test_one_set_of_checks(self, low, high, counts, message):
        for build in (GridSpec, sample_grid):
            with pytest.raises(ValueError) as info:
                build(low, high, counts)
            assert str(info.value) == message

    def test_scalar_count_for_one_axis(self):
        assert [p.tolist() for p in sample_grid([0.0], [1.0], 3)] == [[0.0], [0.5], [1.0]]


def _spec(**overrides):
    base = dict(
        map=constant_map([[1.0]]),
        x0=np.array([0.0]),
        v0=np.array([1.0]),
        horizon=1.0,
        step=0.1,
        strategy="exhaustive",
        tol=1e-9,
    )
    base.update(overrides)
    return ProblemSpec(**base)


class TestProblemSpec:
    def test_valid(self):
        s = _spec().validated()
        assert s.horizon == 1.0

    def test_v0_must_be_a_value(self):
        with pytest.raises(ValueError, match="v0"):
            _spec(v0=np.array([2.0])).validated()

    @pytest.mark.parametrize("field,value,match", [
        ("horizon", 0.0, "T"),
        ("horizon", -1.0, "T"),
        ("step", 0.0, "h"),
        ("step", 2.0, "h"),
        ("strategy", "magic", "strategy"),
        ("tol", -1e-9, "tol"),
    ])
    def test_scalar_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            _spec(**{field: value}).validated()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _spec(x0=np.array([0.0, 0.0])).validated()


PROBLEM_TEXT = """{
  "map": {"kind": "constant", "points": [[1.0]]},
  "x0": [0.0],
  "v0": [1.0],
  "T": 1.0,
  "h": 0.25,
  "strategy": "inertial",
  "tol": 1e-09
}
"""


class TestProblemFormat:
    def test_parse(self):
        s = parse_problem(PROBLEM_TEXT)
        assert s.step == 0.25
        assert s.strategy == "inertial"

    def test_round_trip_is_identity(self):
        s = parse_problem(PROBLEM_TEXT)
        text = serialize_problem(s)
        assert parse_problem(text) == s
        assert serialize_problem(parse_problem(text)) == text

    def test_optional_fields(self):
        d = json.loads(PROBLEM_TEXT)
        d["grid"] = {"low": [-1.0], "high": [1.0], "counts": [3]}
        d["max_length"] = 3
        d["steps"] = [10, 20]
        s = parse_problem(json.dumps(d))
        assert s.grid.counts == (3,)
        assert s.step_counts == (10, 20)

    def test_missing_field(self):
        d = json.loads(PROBLEM_TEXT)
        del d["v0"]
        with pytest.raises(ProblemFormatError, match="v0"):
            parse_problem(json.dumps(d))

    def test_unknown_field_rejected(self):
        d = json.loads(PROBLEM_TEXT)
        d["surprise"] = 1
        with pytest.raises(ProblemFormatError, match="surprise"):
            parse_problem(json.dumps(d))

    def test_parse_error_carries_location(self):
        with pytest.raises(ProblemFormatError, match="line 2, column"):
            parse_problem('{\n  "map": }')


def test_closed_graph_diagnostic_smoke():
    F = make_sign_map()
    approach = [np.array([x]) for x in (0.5, 0.25, 0.125, 0.0625)]
    ok = closed_graph_diagnostic(F, approach, np.array([0.0]), [np.array([1.0])], 1e-9)
    assert ok
