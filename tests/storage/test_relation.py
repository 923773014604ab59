"""Relation tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage import Relation, Schema


@pytest.fixture
def relation():
    return Relation("R", ("a", "b", "c"),
                    [(1, 2, 3), (1, 5, 6), (2, 2, 3)])


class TestBasics:
    def test_len_iter_contains(self, relation):
        assert len(relation) == 3
        assert (1, 2, 3) in relation
        assert (9, 9, 9) not in relation
        assert sorted(relation) == [(1, 2, 3), (1, 5, 6), (2, 2, 3)]

    def test_schema_from_sequence(self):
        relation = Relation("R", ["x", "y"], [(1, 2)])
        assert isinstance(relation.schema, Schema)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", "b"), [(1, 2, 3)])

    def test_column(self, relation):
        assert relation.column("a") == [1, 1, 2]
        assert relation.column("c") == [3, 6, 3]


class TestOperations:
    def test_project(self, relation):
        projected = relation.project(("c", "a"))
        assert projected.schema.attributes == ("c", "a")
        assert sorted(projected) == [(3, 1), (3, 2), (6, 1)]

    def test_project_distinct(self, relation):
        projected = relation.project(("b",), distinct=True)
        assert sorted(projected) == [(2,), (5,)]

    def test_select(self, relation):
        selected = relation.select(lambda row: row[0] == 1)
        assert len(selected) == 2

    def test_reordered(self, relation):
        reordered = relation.reordered(("c", "b", "a"))
        assert reordered.schema.attributes == ("c", "b", "a")
        assert (3, 2, 1) in reordered

    def test_reordered_identity_returns_self(self, relation):
        assert relation.reordered(("a", "b", "c")) is relation

    def test_renamed_shares_rows(self, relation):
        view = relation.renamed(("x", "y", "z"))
        assert view.rows is relation.rows
        assert view.schema.attributes == ("x", "y", "z")

    def test_renamed_arity_checked(self, relation):
        with pytest.raises(SchemaError):
            relation.renamed(("x", "y"))

    def test_distinct(self):
        relation = Relation("R", ("a",), [(1,), (1,), (2,)])
        assert len(relation.distinct()) == 2

    def test_sorted(self):
        relation = Relation("R", ("a", "b"), [(2, 1), (1, 9), (1, 2)])
        assert list(relation.sorted()) == [(1, 2), (1, 9), (2, 1)]

    def test_sample_rows(self, relation):
        rng = random.Random(1)
        sample = relation.sample_rows(10, rng)
        assert len(sample) == 10
        assert all(row in relation.rows for row in sample)

    def test_sample_empty(self):
        relation = Relation("R", ("a",), [])
        assert relation.sample_rows(5, random.Random(1)) == []


class TestLosslessColumns:
    """``column_array`` is ``int64`` only when every value round-trips."""

    def test_all_int_column_stays_int64(self):
        relation = Relation("R", ("a",), [(3,), (-(2 ** 63),), (2 ** 63 - 1,)])
        column = relation.column_array("a")
        assert column.dtype == np.int64
        assert column.tolist() == [3, -(2 ** 63), 2 ** 63 - 1]
        assert relation.column_dtype_class("a") == "int64"

    def test_numpy_integers_stay_int64(self):
        relation = Relation("R", ("a",), [(np.int64(4),), (np.int32(5),), (6,)])
        assert relation.column_array("a").dtype == np.int64

    @pytest.mark.parametrize("values", [
        [1, 2.5],            # truncated to 2 by a plain int64 cast
        [2.0, 3.0],          # integral floats keep their type too
        ["007", 7],          # parsed to 7 by a plain int64 cast
        ["007"],
        [True, 2],           # promoted to 1 by a plain int64 cast
        [False],
        [2 ** 63],           # does not fit
        [1, None],
    ])
    def test_lossy_values_fall_back_to_object(self, values):
        relation = Relation("R", ("a",), [(v,) for v in values])
        column = relation.column_array("a")
        assert column.dtype == object
        assert relation.column_dtype_class("a") == "object"
        assert [type(v) for v in column.tolist()] == [type(v) for v in values]
        assert column.tolist() == values

    def test_empty_column_is_int64(self):
        assert Relation("R", ("a",), []).column_array("a").dtype == np.int64


# ----------------------------------------------------------------------
# Incremental maintenance across appends
# ----------------------------------------------------------------------

#: values that exercise every conversion branch: small ints (int64,
#: repeated so distinct counts move), the int64 edges and one past them
#: (overflow → object), floats, a digit string, bools
SMALL_INTS = st.integers(-6, 6)
ODD_VALUES = st.one_of(
    st.sampled_from([2 ** 63 - 1, -(2 ** 63), 2 ** 63, -(2 ** 63) - 1,
                     "007", True, False]),
    st.floats(allow_nan=False, allow_infinity=False),
    SMALL_INTS,
)
INT_CHUNKS = st.lists(st.tuples(SMALL_INTS, SMALL_INTS), max_size=6)
MIXED_CHUNKS = st.lists(st.tuples(ODD_VALUES, SMALL_INTS), max_size=4)
#: what a step reads (through the original or a renamed view) before
#: the next append, so every mix of warm and cold caches is appended to
TOUCHES = st.sampled_from(["none", "array", "distinct", "columns"])


def typed(array: np.ndarray) -> list:
    return [(type(value), value) for value in array.tolist()]


def assert_matches_fresh(relation: Relation) -> None:
    fresh = Relation("fresh", relation.schema, list(relation.rows))
    for attribute in relation.schema:
        column = relation.column_array(attribute)
        expected = fresh.column_array(attribute)
        assert column.dtype == expected.dtype, attribute
        assert typed(column) == typed(expected), attribute
        assert (relation.column_dtype_class(attribute)
                == fresh.column_dtype_class(attribute)), attribute
        assert (relation.distinct_count(attribute)
                == fresh.distinct_count(attribute)), attribute
    assert [len(c) for c in relation.columns()] == [len(relation)] * 2


class TestIncrementalAppend:
    @settings(max_examples=150, deadline=None)
    @given(initial=INT_CHUNKS,
           steps=st.lists(st.tuples(st.one_of(INT_CHUNKS, MIXED_CHUNKS),
                                    TOUCHES, st.booleans()),
                          max_size=6))
    def test_appends_match_a_fresh_relation(self, initial, steps):
        relation = Relation("R", ("a", "b"), initial)
        view = relation.renamed(("x", "y"))
        for chunk, touch, through_view in steps:
            reader = view if through_view else relation
            if touch == "array":
                reader.column_array(reader.schema.attributes[0])
            elif touch == "distinct":
                for attribute in reader.schema:
                    reader.distinct_count(attribute)
            elif touch == "columns":
                reader.columns()
            writer = relation if through_view else view
            writer.extend(chunk)
        assert_matches_fresh(relation)
        assert_matches_fresh(view)

    def test_published_arrays_are_never_mutated(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        before = relation.column_array("a")
        pinned = before.copy()
        relation.distinct_count("a")
        relation.extend([(5, 6)])
        after = relation.column_array("a")
        assert after is not before
        assert before.tolist() == pinned.tolist()
        assert after.tolist() == [1, 3, 5]

    def test_int_column_promoted_to_object_on_append(self):
        relation = Relation("R", ("a",), [(1,), (2,)])
        assert relation.distinct_count("a") == 2
        relation.extend([("007",), (2.0,)])
        assert relation.column_dtype_class("a") == "object"
        # 2.0 == 2 under Python equality, so it is not a new value
        assert relation.distinct_count("a") == 3
        assert typed(relation.column_array("a")) == [
            (int, 1), (int, 2), (str, "007"), (float, 2.0)]

    def test_count_of_a_replaced_array_is_not_published(self, monkeypatch):
        from repro.storage import relation as module

        relation = Relation("R", ("a",), [(1,), (2,)])
        original = module._distinct_values

        def racing(array):
            # a writer appends while this reader counts outside the lock
            monkeypatch.setattr(module, "_distinct_values", original)
            relation.extend([(3,)])
            return original(array)

        monkeypatch.setattr(module, "_distinct_values", racing)
        assert relation.distinct_count("a") == 2  # the reader's snapshot
        assert relation.distinct_count("a") == 3  # not the stale count

    def test_distinct_values_absorb_appended_chunk(self):
        relation = Relation("R", ("a",), [(5,), (1,), (5,)])
        assert relation.distinct_count("a") == 2
        relation.extend([(3,), (1,), (9,), (3,)])
        assert relation.distinct_count("a") == 4
        relation.extend([])
        assert relation.distinct_count("a") == 4
