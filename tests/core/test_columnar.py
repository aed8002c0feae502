"""Tests for the columnar instance view and ``Instance.from_columns``."""

import pickle

import pytest

from repro.core.columnar import null_code
from repro.core.errors import InstanceError, SchemaError
from repro.core.instance import Instance
from repro.core.schema import RelationSchema, Schema
from repro.core.values import LabeledNull, is_null


def small_instance():
    N1, N2 = LabeledNull("N1"), LabeledNull("N2")
    return Instance.from_rows(
        "R", ("A", "B"),
        [("x", 1), ("y", N1), ("x", N2), (N1, 1)],
    )


class TestCoding:
    def test_null_code_round_trip(self):
        # The compatibility lane inverts a null code inline: -code - 1.
        for index in range(5):
            assert -null_code(index) - 1 == index
            assert null_code(index) < 0

    def test_constants_coded_by_first_occurrence(self):
        view = small_instance().columns()
        # Scan order: ("x", 1), ("y", N1), ("x", N2), (N1, 1)
        assert view.decode == ["x", 1, "y"]
        crel = view.relations["R"]
        assert list(crel.columns[0]) == [0, 2, 0, -1]
        assert list(crel.columns[1]) == [1, -1, -2, 1]

    def test_null_identity_preserved_by_code(self):
        view = small_instance().columns()
        crel = view.relations["R"]
        # N1 appears at (row 1, B-position... actually col A row 3) and
        # (row 1, col B): same label -> same negative code.
        assert crel.columns[1][1] == crel.columns[0][3] == -1
        assert view.null_values[0].label == "N1"
        assert view.null_values[1].label == "N2"

    def test_equal_values_share_code_across_relations(self):
        schema = Schema([
            RelationSchema("R", ("A",)), RelationSchema("S", ("B",)),
        ])
        instance = Instance(schema)
        from repro.core.tuples import Tuple

        instance.add(Tuple("t1", schema.relation("R"), ("x",)))
        instance.add(Tuple("t2", schema.relation("S"), ("x",)))
        view = instance.columns()
        assert view.relations["R"].columns[0][0] == 0
        assert view.relations["S"].columns[0][0] == 0


class TestRoundTrip:
    def test_to_columns_from_columns_identity(self):
        original = small_instance()
        rebuilt = Instance.from_columns(
            RelationSchema("R", ("A", "B")),
            original.to_columns()["R"],
            name=original.name,
        )
        assert [t.values for t in rebuilt.relation("R")] == [
            t.values for t in original.relation("R")
        ]


class TestFromColumns:
    def test_mapping_and_sequence_forms_agree(self):
        by_name = Instance.from_columns(
            "R", {"A": ["x", "y"], "B": [1, 2]}
        )
        by_position = Instance.from_columns(
            RelationSchema("R", ("A", "B")), [["x", "y"], [1, 2]]
        )
        assert [t.values for t in by_name.relation("R")] == [
            t.values for t in by_position.relation("R")
        ]

    def test_null_mask_boolean_and_index_forms(self):
        masked = Instance.from_columns(
            "R",
            {"A": ["x", "y", "z"]},
            nulls={"A": [False, True, False]},
        )
        indexed = Instance.from_columns(
            "R", {"A": ["x", "y", "z"]}, nulls={"A": [1]}
        )
        for built in (masked, indexed):
            values = [t.values[0] for t in built.relation("R")]
            assert values[0] == "x" and values[2] == "z"
            assert is_null(values[1])

    def test_fresh_null_labels_are_scan_ordered(self):
        built = Instance.from_columns(
            "R",
            {"A": ["x", "y"], "B": ["u", "v"]},
            nulls={"A": [0], "B": [1]},
        )
        rows = [t.values for t in built.relation("R")]
        assert rows[0][0].label == "N1"  # row 0 before row 1
        assert rows[1][1].label == "N2"

    def test_multi_relation_schema(self):
        schema = Schema([
            RelationSchema("R", ("A",)), RelationSchema("S", ("B",)),
        ])
        built = Instance.from_columns(
            schema, {"R": {"A": ["x"]}, "S": {"B": ["y"]}}
        )
        assert len(built.relation("R")) == 1
        assert len(built.relation("S")) == 1
        # Tuple-id counter is continuous across relations.
        ids = [t.tuple_id for rel in built.relations() for t in rel]
        assert ids == ["t1", "t2"]

    def test_view_is_prebuilt_and_cached(self):
        # Bulk ingest codes nothing up front: the view is built on first use.
        built = Instance.from_columns("R", {"A": ["x"]})
        assert built._columnar is None
        view = built.columns()
        assert built._columnar is view
        assert built.columns() is view

    def test_ragged_columns_rejected(self):
        with pytest.raises(InstanceError, match="ragged"):
            Instance.from_columns("R", {"A": ["x"], "B": [1, 2]})

    def test_missing_and_unknown_columns_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            Instance.from_columns(
                RelationSchema("R", ("A", "B")), {"A": ["x"]}
            )
        with pytest.raises(SchemaError, match="unknown"):
            Instance.from_columns(
                RelationSchema("R", ("A",)), {"A": ["x"], "C": ["y"]}
            )

    def test_bad_null_mask_rejected(self):
        with pytest.raises(InstanceError, match="out of range"):
            Instance.from_columns("R", {"A": ["x"]}, nulls={"A": [5]})
        with pytest.raises(InstanceError, match="length"):
            Instance.from_columns(
                "R", {"A": ["x", "y"]}, nulls={"A": [True]}
            )


class TestCacheLifecycle:
    def test_add_invalidates_cached_view(self):
        from repro.core.tuples import Tuple

        instance = small_instance()
        first = instance.columns()
        instance.add(
            Tuple("t9", instance.schema.relation("R"), ("z", 7))
        )
        second = instance.columns()
        assert second is not first
        assert second.relations["R"].n_rows == 5

    def test_pickle_excludes_view(self):
        instance = small_instance()
        instance.columns()
        clone = pickle.loads(pickle.dumps(instance))
        assert clone._columnar is None
        # And the view being cached does not change the pickled bytes.
        fresh = small_instance()
        assert pickle.dumps(instance) == pickle.dumps(fresh)
