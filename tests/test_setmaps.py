"""Set-valued maps, predicates, grids, and the problem file format."""

import json
import math
import sys
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
    constant_map,
    horizon_hint,
    linear_map,
    map_from_dict,
    map_to_dict,
    norm,
    parse_problem,
    pl_subdifferential_map,
    sample_grid,
    serialize_problem,
    table_map,
)
from setflow.setmaps import _json_bytes

from conftest import bits, make_non_wcm_map, make_sign_map, region_hit
from oracles import (eval_ref, grid_points_meshgrid_ref, grid_points_ref, norm_max_ref,
                     table_from_dict_ref)


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
        assert region_hit(h, [2.0, 5.0])
        assert not region_hit(h, [2.1, 0.0])
        assert region_hit(Halfspace([1.0], 0.0, "eq"), [0.0])
        assert region_hit(Halfspace([1.0], 0.0, "gt"), [0.1])
        with pytest.raises(ValueError):
            Halfspace([1.0], 0.0, "!=")

    def test_box(self):
        b = Box([0.0, 0.0], [1.0, 1.0])
        assert region_hit(b, [0.5, 1.0])
        assert not region_hit(b, [0.5, 1.5])

    def test_always(self):
        assert region_hit(Always(), [999.0])


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
    assert _json_bytes(obj) == json.dumps(obj, indent=2).encode()


_JSON_EDGES = [
    "\x00\x1f\t\n\x7f", "caf\u00e9", ("a", 1.0), [("a",), [1.0]], math.nan, math.inf,
    -math.inf, 2**64, -2**63 - 1, 2**64 - 1, -2**63, 1e-5, -1.17e-5, 9.999999999999999e-05,
    1.0000001000000002e-05, 1e-4, 1e16, -1.5e16, 9999999999999998.0, 1e22, 5e24,
    sys.float_info.max, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-9, -1e-7, 1e-100,
    -0.0, 0.0, 10.00001, -10.0000125,
]


@pytest.mark.parametrize("value", _JSON_EDGES, ids=repr)
def test_json_text_writes_edge_values_as_json_dumps_does(value):
    # orjson refuses, escapes otherwise, reads back otherwise or writes an
    # exponent form for some of these; each alone, in a list and as a value
    for obj in (value, [value], [[value, 0.5], {"k": value}], {"a": [value], "b": "e5"}):
        assert _json_bytes(obj) == json.dumps(obj, indent=2).encode()


def assert_refused_alike(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        _json_bytes(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1.0}, object()])
def test_json_text_refuses_the_values_json_refuses(value):
    for obj in (value, [1.0, [value]], {"a": {"b": value}}):
        assert_refused_alike(obj)


@pytest.mark.parametrize("key", [np.int64(3), np.bool_(True), (1.0,), object()])
def test_json_text_refuses_the_keys_json_refuses(key):
    assert_refused_alike({"a": {key: 1.0}})


# ---------------------------------------------------------------------------
# table documents, compiled from one stacked array of their points

# a total 2-D table: a halfspace, a box and a catch-all, and faults that each
# replace one region
_TABLE_REGIONS = [
    {"where": {"kind": "halfspace", "normal": [1.0, 0.0], "value": -0.5, "op": "lt"},
     "points": [[-1.0, 0.0], [-1.0, 0.5]]},
    {"where": {"kind": "box", "low": [-0.5, -0.5], "high": [0.5, 0.5]}, "points": [[0.0, 1.0]]},
    {"where": {"kind": "always"}, "points": [[1.0, 0.0], [2.0, -1.0], [1.0, 0.0]]},
]
_ALWAYS = {"kind": "always"}
_TABLE_FAULTS = {
    "empty": {"where": _ALWAYS, "points": []},
    "empty-row": {"where": _ALWAYS, "points": [[]]},
    "ragged": {"where": _ALWAYS, "points": [[0.0, 1.0], [2.0]]},
    "nan": {"where": _ALWAYS, "points": [[math.nan, 0.0]]},
    "inf": {"where": _ALWAYS, "points": [[0.0, 1.0], [0.0, -math.inf]]},
    "wrong-dimension": {"where": _ALWAYS, "points": [[0.0, 1.0, 2.0]]},
    "nested": {"where": _ALWAYS, "points": [[[0.0, 1.0]]]},
    "text": {"where": _ALWAYS, "points": [["a", 1.0]]},
    "string": {"where": _ALWAYS, "points": "ab"},
    "number": {"where": _ALWAYS, "points": 3},
    "no-points": {"where": _ALWAYS},
    "no-where": {"points": [[0.0, 1.0]]},
    "halfspace-dimension": {"where": {"kind": "halfspace", "normal": [1.0], "value": 0.0,
                                      "op": "lt"}, "points": [[0.0, 1.0]]},
    "box-dimension": {"where": {"kind": "box", "low": [0.0] * 3, "high": [1.0] * 3},
                      "points": [[0.0, 1.0]]},
    "unknown-kind": {"where": {"kind": "cone"}, "points": [[0.0, 1.0]]},
    "unknown-op": {"where": {"kind": "halfspace", "normal": [1.0, 0.0], "value": 0.0,
                             "op": "ne"}, "points": [[0.0, 1.0]]},
    "not-an-object": {"where": "always", "points": [[0.0, 1.0]]},
    # the predicate is read before the points
    "both": {"where": {"kind": "cone"}, "points": [[math.nan, 0.0]]},
    # one flat point, which numpy and CompactSet read as one row
    "flat-point": {"where": _ALWAYS, "points": [0.5, 0.5]},
    "integers": {"where": _ALWAYS, "points": [[1, 0], [True, -2]]},
}


def _table_documents():
    for fault, region in _TABLE_FAULTS.items():
        for at in range(len(_TABLE_REGIONS)):
            regions = list(_TABLE_REGIONS)
            regions[at] = region
            yield f"{fault}-{at}", {"kind": "table", "regions": regions}
    # two faulty regions: the first in region order is reported
    yield "two-faults", {"kind": "table", "regions": [
        _TABLE_REGIONS[0], _TABLE_FAULTS["ragged"], _TABLE_FAULTS["unknown-kind"]]}
    yield "no-regions", {"kind": "table", "regions": []}
    yield "valid", {"kind": "table", "regions": _TABLE_REGIONS}


@pytest.mark.parametrize("name, doc", list(_table_documents()),
                         ids=[name for name, _ in _table_documents()])
def test_table_documents_read_as_region_by_region(tmp_path, capsys, name, doc):
    # a fault gives the message that reading the regions one by one gives,
    # from map_from_dict and as the CLI's error line; a table that reads
    # holds the same regions, values and bound
    from setflow.cli import EXIT_INVALID, main

    want = table_from_dict_ref(doc)
    if isinstance(want, str):
        with pytest.raises(ProblemFormatError) as info:
            map_from_dict(doc)
        assert str(info.value) == want
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"map": doc, "x0": [0.0, 0.0], "v0": [0.0, 1.0], "T": 1.0,
                                       "h": 0.5, "strategy": "support", "tol": 1e-9}))
        assert main(["solve", "--input", str(problem), "--output", str(tmp_path / "o")]) \
            == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {want}\n"
        return
    svmap = map_from_dict(doc)
    assert map_to_dict(svmap) == {"kind": "table", "regions": [
        {"where": where.to_dict(), "points": value.points.tolist()} for where, value in want]}
    assert map_to_dict(map_from_dict(map_to_dict(svmap))) == map_to_dict(svmap)
    grid = sample_grid([-1.0, -1.0], [1.0, 1.0], [9, 9])
    for x in grid:
        assert bits(svmap.eval(x).points) == bits(eval_ref(svmap, x).points)
    values, owner = svmap.eval_many(grid)
    assert bits(values) == bits(np.concatenate([eval_ref(svmap, x).points for x in grid]))
    bound = max(norm_max_ref(value) for _, value in want)
    assert svmap.local_bound([0.25, -3.0], 2.0) == bound


@pytest.mark.parametrize("doc", [
    {"kind": "constant", "points": [[3.0, 4.0], [-1.0, 0.5]]},
    {"kind": "subdifferential", "slopes": [[1.0, 0.0], [0.0, -2.5], [1.0, 0.0]],
     "offsets": [0.0, 0.25, -1.0]},
    {"kind": "table", "regions": _TABLE_REGIONS},
    {"kind": "table", "regions": [{"where": _ALWAYS, "points": [[1e200, 1e200]]}]},
    {"kind": "linear", "matrix": [[0.5, -2.0], [1.0, 0.0]]},
    {"kind": "linear", "matrix": [[0.0, 1e300], [0.0, 0.0]]},
], ids=["constant", "subdifferential", "table", "table-overflowing-norm", "linear",
        "linear-overflowing-bound"])
def test_bound_rules_formed_on_first_use_equal_the_eager_ones(doc):
    # the bound that constructing a map computed, and the horizon hint it gives
    svmap = map_from_dict(doc)
    if doc["kind"] == "linear":
        opnorm = float(np.linalg.norm(doc["matrix"], 2))
        eager = lambda c, r: opnorm * (norm(c) + r)
    else:
        values = {"constant": lambda: [doc["points"]],
                  "subdifferential": lambda: [doc["slopes"]],
                  "table": lambda: [r["points"] for r in doc["regions"]]}[doc["kind"]]()
        with np.errstate(over="ignore"):
            top = max(norm_max_ref(CompactSet(points)) for points in values)
        eager = lambda c, r: top
    reference = SetValuedMap(svmap.dimension, svmap._evaluator, bound_rule=eager)
    for center, radius in (([0.0, 0.0], 0.0), ([0.5, -2.0], 1.0), ([3.0, 4.0], 10.0)):
        with np.errstate(over="ignore"):
            assert svmap.local_bound(center, radius) == reference.local_bound(center, radius)
        assert horizon_hint(svmap, center, radius) == horizon_hint(reference, center, radius)


@pytest.mark.parametrize("tol", [1e-9, 0.0, 1.17e-05, 2.5e-310, 1e16])
def test_serialized_problems_round_trip_to_json_dumps_text(tol):
    doc = {"map": {"kind": "table", "regions": _TABLE_REGIONS + [
        {"where": {"kind": "box", "low": [-1e-5, -0.0], "high": [5e24, 1e-300]},
         "points": [[1, -0.0]]}]},
        "x0": [0.0, 0.0], "v0": [0.0, 1.0], "T": 1e20, "h": 1e-7, "strategy": "inertial",
        "tol": tol, "grid": {"low": [-1.0, -2e-5], "high": [1.0, 0.5], "counts": [3, 4]},
        "max_length": 3, "steps": [10, 20]}
    spec = parse_problem(json.dumps(doc))
    text = serialize_problem(spec)
    canonical = {**doc, "map": map_to_dict(spec.map),
                 "grid": {"low": [-1.0, -2e-5], "high": [1.0, 0.5], "counts": [3, 4]}}
    assert text == json.dumps(canonical, indent=2) + "\n"
    again = parse_problem(text)
    assert again == spec
    assert serialize_problem(again) == text
    assert map_to_dict(again.map)["regions"][-1]["points"] == [[1.0, -0.0]]
