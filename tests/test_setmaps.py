"""Set-valued maps, predicates, grids, and the problem file format."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from setflow.setmaps import _json_text

from conftest import bits, build_corpus, make_non_wcm_map, make_sign_map
from oracles import closed_graph_diagnostic_ref, grid_points_meshgrid_ref, grid_points_ref


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
        ([math.nan], [1.0], [3], "grid bounds and their spans must be finite"),
        ([0.0], [math.nan], [3], "grid bounds and their spans must be finite"),
        ([-math.inf], [1.0], [3], "grid bounds and their spans must be finite"),
        ([0.0, 0.0], [1.0, math.inf], [2, 2], "grid bounds and their spans must be finite"),
        ([-1e308], [1e308], [3], "grid bounds and their spans must be finite"),
        ([-1e308], [1e308], [1], "grid bounds and their spans must be finite"),
    ])
    def test_one_set_of_checks(self, low, high, counts, message):
        for build in (GridSpec, sample_grid):
            with pytest.raises(ValueError) as info, warnings.catch_warnings():
                warnings.simplefilter("error")
                build(low, high, counts)
            assert str(info.value) == message

    def test_widest_finite_span_samples_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = sample_grid([-1e308], [7e307], [3])
        assert [p.tolist() for p in pts[::2]] == [[-1e308], [7e307]]
        assert np.isfinite(pts[1]).all()

    @pytest.mark.parametrize("low, high, counts", [
        ([0.0], [1.0], [3]), ([-1.0], [1.0], [5]), ([-1.0], [1.0], [4000]), ([2.0], [9.0], [1]),
        ([-1.0, -0.3], [1.0, 0.7], [5, 7]), ([-1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [3, 4, 1]),
        ([-1e308], [7e307], [3]), ([-0.1, -3.0], [0.3, 5.0], [11, 3]),
    ])
    def test_points_are_one_read_only_array(self, low, high, counts):
        g = GridSpec(low, high, counts)
        pts = g.points()
        assert pts.shape == (math.prod(counts), len(counts)) and pts.dtype == np.float64
        assert bits(pts.ravel()) == bits(np.ravel(grid_points_ref(g)))
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5
        assert bits(sample_grid(low, high, counts).ravel()) == bits(pts.ravel())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(sorted),
                 min_size=d, max_size=d),
        st.lists(st.integers(1, 6), min_size=d, max_size=d))))
    def test_points_are_the_bytes_of_meshgrid(self, axes):
        bounds, counts = axes
        g = GridSpec([lo for lo, _ in bounds], [hi for _, hi in bounds], counts)
        pts = g.points()
        want = grid_points_meshgrid_ref(g)
        assert pts.shape == want.shape and pts.tobytes() == want.tobytes()
        assert not pts.flags.writeable

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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_closed_graph_diagnostic_matches_the_per_direction_loop():
    # sequences along the grid, back, and toward the origin, with limits on
    # and off them, and no direction, one or three
    verdicts = set()
    for entry in build_corpus():
        dim = entry.grid.shape[1]
        axis = np.eye(dim)[0]
        toward_origin = [2.0 ** -k * np.ones(dim) for k in range(1, 6)]
        for points in (entry.grid, entry.grid[::-1], toward_origin, entry.grid[:2], entry.grid[:1]):
            for limit in (points[-1], -points[-1], np.zeros(dim)):
                for directions in ([], [axis], [axis, -np.ones(dim), np.eye(dim)[-1]]):
                    for tol in (1e-9, 0.5):
                        args = (entry.svmap, points, limit, directions, tol)
                        want = _outcome(closed_graph_diagnostic_ref, *args)
                        assert _outcome(closed_graph_diagnostic, *args) == want, entry.name
                        verdicts.add(want)
    assert verdicts == {True, False, "need at least two sample points"}


def test_closed_graph_diagnostic_evaluates_each_point_once():
    calls = []
    base = make_sign_map()

    def counted(x):
        calls.append(tuple(x))
        return base.eval(x)

    points = [np.array([2.0 ** -k]) for k in range(10)]
    directions = [np.array([1.0]), np.array([-1.0]), np.array([0.5])]
    assert closed_graph_diagnostic(SetValuedMap(1, counted), points, np.array([0.0]),
                                   directions, 1e-9)
    assert calls == [(0.0,)] + [tuple(p) for p in points]


_json_leaves = st.one_of(
    st.text(),
    st.sampled_from(["caf\u00e9", "\u2211 x\U0001f600", 'say "hi"\\', "\x00\x1f\t\n\x7f"]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
_json_keys = st.one_of(st.text(max_size=4), st.integers(), st.booleans(), st.none(),
                       st.sampled_from([-0.0, 1e16, math.nan, math.inf]))
_json_trees = st.recursive(
    _json_leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_json_keys, children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_json_text_writes_the_text_of_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def assert_refused_alike(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        _json_text(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1.0}, object()])
def test_json_text_refuses_the_values_json_refuses(value):
    for obj in (value, [1.0, [value]], {"a": {"b": value}}):
        assert_refused_alike(obj)


@pytest.mark.parametrize("key", [np.int64(3), np.bool_(True), (1.0,), object()])
def test_json_text_refuses_the_keys_json_refuses(key):
    assert_refused_alike({"a": {key: 1.0}})
