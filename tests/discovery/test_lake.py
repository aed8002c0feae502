"""Data-lake discovery on the similarity index: search and near-duplicates.

The paper's two Sec. 1 applications, dataset search by example and
near-duplicate detection, served by :class:`SimilarityIndex` and checked
against the brute-force oracle.
"""

import pytest

from repro.core.instance import Instance
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.index import (
    QueryComparer,
    SimilarityIndex,
    brute_force_dedup,
    brute_force_search,
    cluster_duplicates,
)
from repro.versioning.operations import removed_columns_version


def simple(rows, name="I", relation="R", attrs=("A", "B")):
    return Instance.from_rows(relation, attrs, rows, name=name)


@pytest.fixture
def lake():
    lake = SimilarityIndex()
    lake.add("orig", simple([("x", 1), ("y", 2), ("z", 3)]))
    lake.add("copy", simple([("x", 1), ("y", 2), ("z", 3)]))
    lake.add("near", simple([("x", 1), ("y", 2), ("q", 9)]))
    lake.add("far", simple([("p", 7), ("q", 8), ("r", 9)]))
    return lake


class TestRegistry:
    def test_add_and_len(self, lake):
        assert len(lake) == 4
        assert "orig" in lake
        assert lake.names() == ["copy", "far", "near", "orig"]

    def test_duplicate_name_rejected(self, lake):
        with pytest.raises(ValueError, match="already"):
            lake.add("orig", simple([("a", 0)]))

    def test_remove(self, lake):
        lake.remove("far")
        assert "far" not in lake

    def test_get_unknown_names_known_tables(self, lake):
        """A typo'd lookup should not require a second call to debug."""
        with pytest.raises(KeyError, match="known tables.*'copy'"):
            lake.get("mistyped")

    def test_remove_unknown_names_known_tables(self, lake):
        with pytest.raises(KeyError, match="known tables"):
            lake.remove("mistyped")


class TestSearch:
    def test_ranking(self, lake):
        hits = lake.search(simple([("x", 1), ("y", 2), ("z", 3)]), top_k=4)
        names = [h.name for h in hits]
        assert set(names[:2]) == {"copy", "orig"}
        assert names[2] == "near"
        assert names[3] == "far"
        assert hits[0].similarity == 1.0
        assert hits[3].similarity == 0.0

    def test_top_k_limits(self, lake):
        assert len(lake.search(simple([("x", 1)]), top_k=2)) == 2

    def test_zero_top_k_fast_path(self, lake):
        """top_k=0 must return [] without running a single comparison."""
        assert lake.search(simple([("x", 1)]), top_k=0) == []
        assert lake.cache.stats()["misses"] == 0

    def test_negative_top_k_fast_path(self, lake):
        assert lake.search(simple([("x", 1)]), top_k=-3) == []

    def test_empty_lake_fast_path(self):
        empty = SimilarityIndex()
        assert empty.search(simple([("x", 1)])) == []
        assert empty.cache.stats()["misses"] == 0

    def test_alphabetical_tie_breaking(self, lake):
        """Equal-similarity hits are ordered by name for reproducibility."""
        hits = lake.search(simple([("x", 1), ("y", 2), ("z", 3)]), top_k=2)
        assert [h.name for h in hits] == ["copy", "orig"]
        assert hits[0].similarity == hits[1].similarity == 1.0

    def test_index_and_brute_force_agree(self, lake):
        """The sketch index path returns exactly the brute-force hits."""
        for query in (
            simple([("x", 1), ("y", 2), ("z", 3)]),
            simple([("x", 1)]),
            simple([("p", 7), ("q", 8)]),
        ):
            for top_k in (1, 2, 10):
                assert lake.search(query, top_k=top_k) == brute_force_search(
                    lake, query, top_k
                )

    def test_query_prepared_once_across_candidates(self, lake):
        """The hoisted query side is prepared once, not per candidate."""
        query = simple([("unique", 0), ("y", 2), ("z", 3)])
        lake.search(query, top_k=4)
        stats = lake.cache.stats()
        # 1 query + 3 distinct candidate contents ("orig" and "copy" share
        # a fingerprint) = 4 prepares; the historical loop re-prepared the
        # query for every one of the 4 candidates.
        assert stats["misses"] == 4
        lake.search(query, top_k=4)
        assert lake.cache.stats()["misses"] == 4  # everything cached now

    def test_incomparable_relation_skipped(self, lake):
        query = Instance.from_rows("Other", ("A", "B"), [("x", 1)])
        assert lake.search(query) == []

    def test_schema_drift_bridged_with_padding(self, lake):
        # A candidate that lost a column still matches via Sec. 4.3 padding.
        projected = removed_columns_version(lake.get("orig"), seed=1)
        lake.add("projected", projected)
        hits = lake.search(lake.get("orig"), top_k=10)
        hit = next(h for h in hits if h.name == "projected")
        assert hit.matched_tuples == 3
        assert 0.5 < hit.similarity < 1.0


class TestNearDuplicates:
    def test_threshold(self, lake):
        pairs = lake.near_duplicates(threshold=0.99)
        assert [(p.first, p.second) for p in pairs] == [("copy", "orig")]

    def test_lower_threshold_catches_near(self, lake):
        pairs = lake.near_duplicates(threshold=0.6)
        names = {frozenset((p.first, p.second)) for p in pairs}
        assert frozenset(("copy", "orig")) in names
        assert frozenset(("near", "orig")) in names
        assert frozenset(("far", "orig")) not in names

    def test_clusters(self, lake):
        clusters = lake.duplicate_clusters(threshold=0.6)
        assert {"copy", "orig", "near"} in clusters
        assert all("far" not in cluster for cluster in clusters)

    def test_no_duplicates(self):
        lake = SimilarityIndex()
        lake.add("a", simple([("1", "2")]))
        lake.add("b", simple([("3", "4")]))
        assert lake.near_duplicates() == []
        assert lake.duplicate_clusters() == []

    def test_cluster_transitivity(self):
        """a~b, b~c (but not a~c) still cluster {a, b, c} together."""
        lake = SimilarityIndex()
        lake.add("a", simple([("1", "2"), ("3", "4"), ("5", "6")]))
        lake.add("b", simple([("1", "2"), ("3", "4"), ("7", "8")]))
        lake.add("c", simple([("9", "0"), ("3", "4"), ("7", "8")]))
        lake.add("z", simple([("p", "q"), ("r", "s"), ("t", "u")]))
        pairs = {
            frozenset((p.first, p.second))
            for p in lake.near_duplicates(threshold=0.6)
        }
        assert frozenset(("a", "b")) in pairs
        assert frozenset(("b", "c")) in pairs
        assert frozenset(("a", "c")) not in pairs
        clusters = lake.duplicate_clusters(threshold=0.6)
        assert {"a", "b", "c"} in clusters
        assert all("z" not in cluster for cluster in clusters)

    def test_dedup_index_and_brute_force_agree(self, lake):
        for threshold in (0.5, 0.8, 0.99):
            brute = brute_force_dedup(lake, threshold)
            assert lake.near_duplicates(threshold=threshold) == brute
            assert lake.duplicate_clusters(
                threshold=threshold
            ) == cluster_duplicates(lake.names(), brute)


class TestIncomparableSchemas:
    def test_incomparable_pairs_skipped_in_dedup(self, lake):
        """Tables over different relations never pair, even at threshold 0."""
        lake.add("alien", Instance.from_rows("Other", ("A",), [("x",)]))
        pairs = lake.near_duplicates(threshold=0.0)
        assert all(
            "alien" not in (p.first, p.second) for p in pairs
        )

    def test_compare_incomparable_returns_none(self, lake):
        query = Instance.from_rows("Other", ("A", "B"), [("x", 1)])
        comparer = QueryComparer(lake.cache, lake.options, query)
        assert comparer.compare(lake.get("orig")) is None


class TestPersistence:
    def test_save_and_load_roundtrip(self, lake, tmp_path):
        lake.save(tmp_path / "store")
        loaded = SimilarityIndex.load(tmp_path / "store")
        assert loaded.names() == lake.names()
        query = simple([("x", 1), ("y", 2), ("z", 3)])
        assert loaded.search(query, top_k=4) == lake.search(query, top_k=4)


class TestIncompleteTables:
    def test_null_tables_found(self):
        """Lake dedup over incomplete tables (the paper's XASH use case)."""
        base = generate_dataset("iris", rows=40, seed=0)
        dirty = perturb(base, PerturbationConfig.mod_cell(8.0, seed=1)).target
        dirty = Instance.from_rows(
            "Iris", base.schema.relation("Iris").attributes,
            [t.values for t in dirty.tuples()], name="dirty",
        )
        lake = SimilarityIndex()
        lake.add("base", base)
        lake.add("dirty-version", dirty)
        lake.add("other", generate_dataset("iris", rows=40, seed=99))
        pairs = lake.near_duplicates(threshold=0.5)
        assert any(
            {p.first, p.second} == {"base", "dirty-version"} for p in pairs
        )
