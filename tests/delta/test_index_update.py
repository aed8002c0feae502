"""Live index maintenance: ``UpdateReport`` modes and sketch/LSH parity."""

from __future__ import annotations

import pytest

from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.delta.batch import DeltaBatch, TupleOp
from repro.delta.report import (
    MODE_ADDED,
    MODE_INCREMENTAL,
    MODE_REBUILT,
)
from repro.index import IndexParams, SimilarityIndex
from repro.index.sketch import InstanceSketch, sketch_to_dict

from .conftest import rand_batch, rand_instance

PARAMS = IndexParams(num_perms=32, bands=8, rows=4)


def lsh_state(index):
    return (
        dict(index.lsh._members),
        [dict(band) for band in index.lsh._buckets],
    )


def cold_index(tables):
    """An index built from scratch over the final table states."""
    index = SimilarityIndex(params=PARAMS)
    for name, instance in tables.items():
        index.add(name, instance)
    return index


class TestAdd:
    def test_add_reports_added(self, rng):
        index = SimilarityIndex(params=PARAMS)
        instance = rand_instance(rng, "r", "NR", 8)
        report = index.add("t", instance)
        assert report.mode == MODE_ADDED
        assert report.table == "t"
        assert report.lsh_buckets_entered == PARAMS.bands
        assert report.sketch is index.sketch("t")
        assert index.last_update is report
        assert sketch_to_dict(report.sketch) == sketch_to_dict(
            InstanceSketch.build(instance, PARAMS)
        )

    def test_add_existing_name_rejected(self, rng):
        index = SimilarityIndex(params=PARAMS)
        instance = rand_instance(rng, "r", "NR", 4)
        index.add("t", instance)
        with pytest.raises(ValueError, match="already in the index"):
            index.add("t", instance)

    def test_report_as_dict_is_json_shaped(self, rng):
        index = SimilarityIndex(params=PARAMS)
        report = index.add("t", rand_instance(rng, "r", "NR", 4))
        payload = report.as_dict()
        assert payload["mode"] == "added"
        assert "sketch" not in payload
        assert payload["tuples"] == {
            "inserted": 0, "deleted": 0, "updated": 0
        }


class TestUpdate:
    def test_update_is_incremental_and_exact(self, rng):
        index = SimilarityIndex(params=PARAMS)
        instance = rand_instance(rng, "r", "NR", 10)
        index.add("t", instance)
        new_instance = rand_batch(rng, instance, [0]).apply(instance)
        report = index.update("t", new_instance)
        assert report.mode == MODE_INCREMENTAL
        assert sketch_to_dict(index.sketch("t")) == sketch_to_dict(
            InstanceSketch.build(new_instance, PARAMS)
        )
        assert lsh_state(index) == lsh_state(cold_index({"t": new_instance}))

    def test_update_delta_applies_batch(self, rng):
        index = SimilarityIndex(params=PARAMS)
        instance = rand_instance(rng, "r", "NR", 10)
        index.add("t", instance)
        batch = rand_batch(rng, instance, [0])
        report = index.update_delta("t", batch)
        new_instance = batch.apply(instance)
        summary = batch.summary()
        assert report.mode == MODE_INCREMENTAL
        assert report.tuples_inserted == summary["inserted"]
        assert report.tuples_deleted == summary["deleted"]
        assert report.tuples_updated == summary["updated"]
        assert index.get("t").ids() == new_instance.ids()
        assert sketch_to_dict(index.sketch("t")) == sketch_to_dict(
            InstanceSketch.build(new_instance, PARAMS)
        )

    def test_chained_updates_track_cold_state(self, rng):
        index = SimilarityIndex(params=PARAMS)
        instance = rand_instance(rng, "r", "NR", 12)
        index.add("t", instance)
        counter = [0]
        for _ in range(4):
            batch = rand_batch(rng, instance, counter)
            instance = batch.apply(instance)
            index.update_delta("t", batch)
        assert sketch_to_dict(index.sketch("t")) == sketch_to_dict(
            InstanceSketch.build(instance, PARAMS)
        )
        assert lsh_state(index) == lsh_state(cold_index({"t": instance}))

    def test_schema_change_falls_back_to_rebuild(self, rng):
        index = SimilarityIndex(params=PARAMS)
        index.add("t", Instance.from_rows("R", ("A",), [("x",)]))
        widened = Instance.from_rows("R", ("A", "B"), [("x", 1)])
        report = index.update("t", widened)
        assert report.mode == MODE_REBUILT
        assert report.sketch_columns_rebuilt == 2
        assert sketch_to_dict(index.sketch("t")) == sketch_to_dict(
            InstanceSketch.build(widened, PARAMS)
        )

    def test_update_unknown_table_raises_keyerror(self, rng):
        index = SimilarityIndex(params=PARAMS)
        with pytest.raises(KeyError):
            index.update("ghost", rand_instance(rng, "r", "NR", 2))
        with pytest.raises(KeyError):
            index.update_delta("ghost", DeltaBatch())


class TestLazySeeding:
    def test_store_restored_table_updates_incrementally(self, rng, tmp_path):
        from repro.index.store import load_index

        instance = rand_instance(rng, "r", "NR", 8)
        index = SimilarityIndex(params=PARAMS)
        index.add("t", instance)
        index.save(tmp_path / "store")
        restored = load_index(tmp_path / "store")
        assert restored._maintainers == {}  # seeded lazily, not on load
        batch = rand_batch(rng, restored.get("t"), [0])
        report = restored.update_delta("t", batch)
        assert report.mode == MODE_INCREMENTAL
        final = batch.apply(instance)
        assert sketch_to_dict(restored.sketch("t")) == sketch_to_dict(
            InstanceSketch.build(final, PARAMS)
        )


class TestRemove:
    def test_remove_drops_maintainer_and_lsh(self, rng):
        index = SimilarityIndex(params=PARAMS)
        instance = rand_instance(rng, "r", "NR", 6)
        index.add("t", instance)
        assert "t" in index._maintainers
        index.remove("t")
        assert index._maintainers == {}
        assert "t" not in index.lsh
        with pytest.raises(KeyError):
            index.remove("t")
