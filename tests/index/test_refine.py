"""Tests for bound-ordered refinement: exactness, pruning, early stop."""

import pytest

from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.discovery.lake import DataLake
from repro.index import (
    IndexParams,
    RefinePolicy,
    SimilarityIndex,
    refine_search,
)

PARAMS = IndexParams(num_perms=16, bands=4, rows=2)


def simple(rows, name="I", relation="R", attrs=("A", "B")):
    return Instance.from_rows(relation, attrs, rows, name=name)


def corpus_index():
    index = SimilarityIndex(params=PARAMS)
    index.add("orig", simple([("x", 1), ("y", 2), ("z", 3)]))
    index.add("copy", simple([("x", 1), ("y", 2), ("z", 3)]))
    index.add("near", simple([("x", 1), ("y", 2), ("q", 9)]))
    index.add("far", simple([("p", 7), ("q", 8), ("r", 9)]))
    index.add("other", simple([("x", 1)], relation="Other"))
    return index


def brute_force_hits(index, query, top_k):
    lake = DataLake.from_index(index)
    lake.use_index = False
    return lake.search(query, top_k=top_k)


class TestSearchExactness:
    @pytest.mark.parametrize("top_k", [1, 2, 4, 10])
    def test_identical_to_brute_force(self, top_k):
        index = corpus_index()
        query = simple([("x", 1), ("y", 2), ("z", 3)])
        assert index.search(query, top_k=top_k) == brute_force_hits(
            index, query, top_k
        )

    def test_alphabetical_tie_breaking_preserved(self):
        index = corpus_index()
        hits = index.search(simple([("x", 1), ("y", 2), ("z", 3)]), top_k=2)
        assert [h.name for h in hits] == ["copy", "orig"]  # sim 1.0 tie

    def test_incomparable_tables_skipped(self):
        index = corpus_index()
        report_names = [
            h.name for h in index.search(simple([("x", 1)]), top_k=10)
        ]
        assert "other" not in report_names
        assert index.last_report.incomparable == 1

    def test_zero_top_k_fast_path(self):
        index = corpus_index()
        hits, report = refine_search(index, simple([("x", 1)]), top_k=0)
        assert hits == []
        assert report.refined == 0
        assert report.bound_evaluations == 0

    def test_empty_index_fast_path(self):
        index = SimilarityIndex(params=PARAMS)
        hits, report = refine_search(index, simple([("x", 1)]), top_k=5)
        assert hits == []
        assert report.refined == 0

    def test_equal_numbers_of_different_types_are_not_pruned(self):
        """``1`` and ``1.0`` compare equal, so the float table can win.

        A bound that keyed constants by type would read 0.75 for the
        float copy and prune it behind a 0.8 hit.
        """
        rows = [(i, f"s{i}") for i in range(1, 6)]
        index = SimilarityIndex(params=PARAMS)
        index.add("float", simple([(float(i), s) for i, s in rows]))
        index.add("other", simple(rows[:4] + [(99, "zz")]))
        query = simple(rows)
        hits = index.search(query, top_k=1)
        assert hits == brute_force_hits(index, query, top_k=1)
        assert [(h.name, h.similarity) for h in hits] == [("float", 1.0)]


class TestPruning:
    def test_early_termination_skips_low_bound_candidates(self):
        """With k hits at 1.0 found, a bound-0-ish candidate never refines."""
        index = corpus_index()
        query = simple([("x", 1), ("y", 2), ("z", 3)])
        hits = index.search(query, top_k=1)
        report = index.last_report
        assert hits[0].similarity == 1.0
        assert report.refined < report.candidates
        assert report.pruned >= 1
        assert report.refined + report.pruned == report.candidates

    def test_pruned_candidates_could_not_have_won(self):
        """Every pruned candidate's bound is below the worst returned hit."""
        index = corpus_index()
        query = simple([("x", 1), ("y", 2), ("z", 3)])
        hits = index.search(query, top_k=2)
        report = index.last_report
        floor = hits[-1].similarity
        refined_names = {h.name for h in hits}
        for name, bound in report.bounds.items():
            if name not in refined_names and report.pruned:
                assert bound <= floor or name in report.bounds

    def test_dedup_prunes_below_threshold_pairs(self):
        index = corpus_index()
        pairs = index.near_duplicates(threshold=0.9)
        report = index.last_report
        assert [(p.first, p.second) for p in pairs] == [("copy", "orig")]
        assert report.pruned >= 1  # far-vs-* bounds are below 0.9
        assert report.refined < report.bound_evaluations

    def test_dedup_identical_to_brute_force(self):
        index = corpus_index()
        lake = DataLake.from_index(index)
        lake.use_index = False
        for threshold in (0.5, 0.8, 0.99):
            assert index.near_duplicates(
                threshold=threshold
            ) == lake.near_duplicates(threshold=threshold)


class TestApproximateMode:
    def test_inexact_search_is_subset_of_exact(self):
        index = corpus_index()
        query = simple([("x", 1), ("y", 2), ("z", 3)])
        exact_names = {h.name for h in index.search(query, top_k=10)}
        loose = index.search(query, top_k=10, exact=False)
        assert {h.name for h in loose} <= exact_names
        assert "copy" in {h.name for h in loose}  # identical → must collide

    def test_inexact_dedup_is_subset_of_exact(self):
        index = corpus_index()
        exact = {
            (p.first, p.second)
            for p in index.near_duplicates(threshold=0.5)
        }
        loose = {
            (p.first, p.second)
            for p in index.near_duplicates(threshold=0.5, exact=False)
        }
        assert loose <= exact
        assert ("copy", "orig") in loose


class TestWorkerPolicy:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            RefinePolicy(jobs=0)

    def test_parallel_refinement_matches_serial(self):
        index = corpus_index()
        query = simple([("x", 1), ("y", 2), ("z", 3)])
        serial = index.search(query, top_k=4)
        parallel = index.search(
            query, top_k=4, policy=RefinePolicy(jobs=2)
        )
        assert parallel == serial

    def test_parallel_dedup_matches_serial(self):
        index = corpus_index()
        serial = index.near_duplicates(threshold=0.5)
        parallel = index.near_duplicates(
            threshold=0.5, policy=RefinePolicy(jobs=2)
        )
        assert parallel == serial


class TestRealisticCorpus:
    def test_generated_corpus_parity(self):
        """Index == brute force on a generated low-cardinality corpus."""
        base = generate_dataset("iris", rows=30, seed=0)
        index = SimilarityIndex()
        index.add("base", base)
        current = base
        for step in range(1, 4):
            scenario = perturb(
                current, PerturbationConfig.mod_cell(5.0, seed=step)
            )
            current = scenario.target
            index.add(f"v{step}", current)
        for seed in (50, 60):  # same profile, unrelated content
            index.add(f"unrelated-{seed}", generate_dataset(
                "iris", rows=30, seed=seed
            ))
        query = index.get("v1")
        for top_k in (1, 3, 6):
            assert index.search(query, top_k=top_k) == brute_force_hits(
                index, query, top_k
            )

    def test_high_cardinality_corpus_parity_and_pruning(self):
        """On discriminative data the bounds separate and pruning kicks in."""
        def table(prefix, n=25):
            return simple(
                [(f"{prefix}-key-{i}", f"{prefix}-val-{i}") for i in range(n)]
            )

        index = SimilarityIndex()
        base = table("base")
        index.add("base", base)
        near_rows = [
            (f"base-key-{i}", f"base-val-{i}") for i in range(20)
        ] + [(f"drift-{i}", LabeledNull(f"D{i}")) for i in range(5)]
        index.add("near", simple(near_rows))
        for other in ("alpha", "beta", "gamma"):
            index.add(other, table(other))
        hits = index.search(base, top_k=2)
        report = index.last_report
        assert hits == brute_force_hits(index, base, 2)
        assert [h.name for h in hits] == ["base", "near"]
        assert report.pruned >= 3  # the unrelated tables never refine
        assert report.refined < report.candidates
