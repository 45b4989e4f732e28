"""Euclidean primitives against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import (
    CompactSet,
    as_vector,
    dist_to_hull,
    dist_to_set,
    inner,
    nearest_point,
    norm,
    support_argmax,
    support_value,
)

from setflow.geometry import inner_rows

from conftest import bits, signed_zeros
from oracles import hull_distance_by_faces, support_value_naive


coord = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


def finite_sets(max_dim=3, max_points=7):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=max_points
        )
    )


def test_as_vector_checks():
    v = as_vector([1.0, 2.0])
    assert v.shape == (2,)
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan])


def test_inner_and_norm():
    assert inner([1.0, 2.0], [3.0, -1.0]) == 1.0
    assert norm([3.0, 4.0]) == 5.0
    assert isinstance(inner([1.0], [1.0]), float)


def test_inner_on_stacks_is_inner_rows_bit_for_bit():
    rng = np.random.default_rng(3)
    for n, dim in [(1, 1), (2, 3), (7, 2), (40, 4)]:
        U = signed_zeros(rng, np.where(rng.random((n, dim)) < 0.3, 0.0,
                                       rng.normal(size=(n, dim))))
        V = signed_zeros(rng, np.where(rng.random((n, dim)) < 0.3, 0.0,
                                       rng.normal(size=(n, dim))))
        got = inner(U, V)
        assert isinstance(got, np.ndarray) and got.shape == (n,)
        assert bits(got) == bits(inner_rows(U, V))
        assert bits(got) == bits([inner(u, v) for u, v in zip(U, V)])
        assert isinstance(inner(U[0], V[0]), float)


@pytest.mark.parametrize("u, v", [
    (np.ones((3, 2)), np.ones((2, 2))),
    (np.ones(2), np.ones(3)),
    (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
    (np.ones(()), np.ones(())),
    (np.ones(2), np.ones((1, 2))),
])
def test_inner_refuses_other_shapes(u, v):
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner(u, v)


def test_norm_is_of_one_vector():
    with pytest.raises(ValueError, match="dimension mismatch"):
        norm(np.ones((1, 2)))


class TestCompactSet:
    def test_one_dimensional_input_is_a_single_point(self):
        A = CompactSet([1.0, 2.0])
        assert A.points.shape == (1, 2)

    def test_canonical_sorts_and_dedupes(self):
        A = CompactSet([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        B = A.canonical()
        assert B.points.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_equality_ignores_order_and_duplicates(self):
        A = CompactSet([[2.0], [1.0]])
        B = CompactSet([[1.0], [2.0], [2.0]])
        assert A == B

    def test_contains_is_exact(self):
        A = CompactSet([[0.5], [1.5]])
        assert A.contains([0.5])
        assert not A.contains([0.5 + 1e-12])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            CompactSet(np.empty((0, 2)))
        with pytest.raises(ValueError):
            CompactSet([[np.inf]])

    def test_norm_max(self):
        assert CompactSet([[3.0, 4.0], [1.0, 0.0]]).norm_max() == 5.0


class TestSupport:
    def test_worked_example(self):
        A = CompactSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert support_value([1.0, 0.0], A) == 1.0

    def test_argmax_tie_is_lexicographic(self):
        A = CompactSet([[1.0, 0.0], [0.0, 1.0]])
        # both attain <(1,1), a> = 1; smaller tuple wins
        assert support_argmax([1.0, 1.0], A).tolist() == [0.0, 1.0]

    def test_argmax_attains_value(self):
        A = CompactSet([[2.0, -1.0], [0.0, 3.0], [1.0, 1.0]])
        d = [0.7, -0.3]
        v = support_argmax(d, A)
        assert inner(d, v) == support_value(d, A)

    @given(finite_sets(), st.lists(coord, min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_loop(self, rows, d):
        A = CompactSet(rows)
        d = d[: A.dimension]
        got = support_value(d, A)
        want = support_value_naive(d, rows)
        assert got == pytest.approx(want, abs=1e-9)

    def test_zero_direction_returns_lex_min(self):
        A = CompactSet([[1.0, 0.0], [0.0, 1.0]])
        assert support_argmax([0.0, 0.0], A).tolist() == [0.0, 1.0]


class TestNearest:
    def test_nearest_point_brute(self):
        A = CompactSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert nearest_point([1.9, 0.1], A).tolist() == [2.0, 0.0]

    def test_nearest_tie_lexicographic(self):
        A = CompactSet([[-1.0], [1.0]])
        assert nearest_point([0.0], A).tolist() == [-1.0]

    def test_dist_to_set(self):
        A = CompactSet([[0.0, 0.0], [3.0, 4.0]])
        assert dist_to_set([6.0, 8.0], A) == 5.0


class TestHullDistance:
    def test_point_inside_triangle(self):
        A = CompactSet([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        assert dist_to_hull([1.0, 1.0], A) == pytest.approx(0.0, abs=1e-12)

    def test_point_on_vertex(self):
        A = CompactSet([[1.0, 2.0], [5.0, 5.0]])
        assert dist_to_hull([1.0, 2.0], A) == 0.0

    def test_segment_projection(self):
        # distance from origin to the segment x + y = 2
        A = CompactSet([[2.0, 0.0], [0.0, 2.0]])
        assert dist_to_hull([0.0, 0.0], A) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_never_exceeds_vertex_distance(self):
        A = CompactSet([[1.0, 1.0], [3.0, -2.0], [0.0, 4.0]])
        p = [-2.0, -2.0]
        assert dist_to_hull(p, A) <= dist_to_set(p, A) + 1e-12

    @given(finite_sets(), st.lists(coord, min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_face_enumeration(self, rows, p):
        A = CompactSet(rows)
        p = np.array(p[: A.dimension])
        got = dist_to_hull(p, A, tol=1e-12)
        want = hull_distance_by_faces(p, rows)
        assert got == pytest.approx(want, abs=1e-7)

    @given(finite_sets(max_dim=3, max_points=6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_zero_on_convex_combinations(self, rows, data):
        A = CompactSet(rows)
        w = np.array(
            data.draw(
                st.lists(
                    st.floats(0.01, 1.0, allow_nan=False),
                    min_size=len(rows),
                    max_size=len(rows),
                )
            )
        )
        w = w / w.sum()
        p = w @ np.asarray(rows, dtype=float)
        assert dist_to_hull(p, A, tol=1e-12) <= 1e-6

    def test_duplicate_points_are_harmless(self):
        A = CompactSet([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert dist_to_hull([0.0, 0.0], A) == pytest.approx(np.sqrt(0.5), abs=1e-12)
