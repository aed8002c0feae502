"""Direct tests of the worker-side job functions' degradation ladders.

The service-level suite (``test_service.py``) exercises the jobs through
the supervisor; here the ladder semantics are pinned down in-process: each
:class:`DegradationLevel` walks exactly as far as allowed, and the payload
names the rung that answered.  The constructed greedy trap (see
``tests/algorithms/test_assignment.py``) separates the rungs observably:
signature answers 0.90625, the assignment rung 0.96875.
"""

from __future__ import annotations

import pytest

from repro.core.instance import Instance
from repro.index import IndexParams, SimilarityIndex, brute_force_search
from repro.mappings.constraints import MatchOptions
from repro.serve.admission import DegradationLevel
from repro.serve.jobs import compare_job, dedup_job, search_job

from tests.algorithms.test_assignment import (
    TRAP_GREEDY,
    TRAP_OPTIMAL,
    trap_pair,
)


@pytest.fixture
def trap():
    left, right = trap_pair()
    return left, right, MatchOptions.versioning()


class TestCompareJobLadder:
    def test_signature_only_stays_greedy(self, trap):
        left, right, options = trap
        out = compare_job(
            left, right, level=DegradationLevel.SIGNATURE_ONLY,
            options=options,
        )
        payload = out["payload"]
        assert payload["rung"] == "signature"
        assert payload["similarity"] == pytest.approx(TRAP_GREEDY)
        assert not payload["score_is_exact"]

    def test_no_exact_reaches_assignment_rung(self, trap):
        left, right, options = trap
        out = compare_job(
            left, right, level=DegradationLevel.NO_EXACT, options=options
        )
        payload = out["payload"]
        assert payload["rung"] == "assignment"
        assert payload["algorithm"] == "assignment"
        assert payload["similarity"] == pytest.approx(TRAP_OPTIMAL)
        assert not payload["score_is_exact"]

    def test_full_ladder_reaches_exact(self, trap):
        left, right, options = trap
        out = compare_job(
            left, right, level=DegradationLevel.FULL, options=options
        )
        payload = out["payload"]
        assert payload["similarity"] == pytest.approx(TRAP_OPTIMAL)
        assert payload["score_is_exact"]
        assert payload["rung"] == "exact"

    def test_no_exact_zero_deadline_degrades_to_signature(self, trap):
        left, right, options = trap
        out = compare_job(
            left, right, level=DegradationLevel.NO_EXACT, options=options,
            deadline=0,
        )
        payload = out["payload"]
        assert payload["rung"] == "signature"
        assert payload["algorithm"] == "signature"
        assert payload["similarity"] == pytest.approx(TRAP_GREEDY)

    def test_metrics_snapshot_ships_with_payload(self, trap):
        left, right, options = trap
        out = compare_job(
            left, right, level=DegradationLevel.NO_EXACT, options=options
        )
        counters = out["metrics"]["counters"]
        assert any(k.startswith("assignment.") for k in counters)


def _table(rows, relation="R"):
    return Instance.from_rows(relation, ("A", "B"), rows)


@pytest.fixture
def small_index():
    index = SimilarityIndex(params=IndexParams(num_perms=16, bands=4, rows=2))
    index.add("orig", _table([("x", 1), ("y", 2), ("z", 3)]))
    index.add("copy", _table([("x", 1), ("y", 2), ("z", 3)]))
    index.add("near", _table([("x", 1), ("y", 2), ("q", 9)]))
    index.add("far", _table([("p", 7), ("q", 8), ("r", 9)]))
    index.add("other", _table([("x", 1)], relation="Other"))
    return index, _table([("x", 1), ("y", 2), ("z", 3)])


class TestBoundOnlyLevels:
    """``SIGNATURE_ONLY`` search and dedup: LSH candidates ranked by bound.

    Pinned payloads: the hits, pairs, their order and the report keys.
    Dedup keeps ``LSHIndex.candidate_pairs()`` order, not bound order.
    """

    def test_search_ranks_shortlist_by_bound(self, small_index):
        index, query = small_index
        payload = search_job(
            index, query, top_k=3, level=DegradationLevel.SIGNATURE_ONLY
        )["payload"]
        assert payload["approximate"]
        assert payload["hits"] == [
            {"name": "copy", "similarity": 1.0, "matched_tuples": None},
            {"name": "orig", "similarity": 1.0, "matched_tuples": None},
            {"name": "near", "similarity": 5 / 6, "matched_tuples": None},
        ]
        assert list(payload["report"].items()) == [
            ("lsh_candidates", 3),
            ("bound_evaluations", 3),
            ("incomparable", 0),
            ("refined", 0),
        ]

    @pytest.mark.parametrize(
        "threshold, expected",
        [
            (0.5, [("copy", "near", 5 / 6), ("copy", "orig", 1.0),
                   ("near", "orig", 5 / 6)]),
            (0.9, [("copy", "orig", 1.0)]),
        ],
    )
    def test_dedup_keeps_candidate_pair_order(
        self, small_index, threshold, expected
    ):
        index, _query = small_index
        payload = dedup_job(
            index, threshold=threshold, level=DegradationLevel.SIGNATURE_ONLY
        )["payload"]
        assert payload["approximate"]
        assert payload["pairs"] == [
            {"first": first, "second": second, "similarity": bound}
            for first, second, bound in expected
        ]
        assert list(payload["report"].items()) == [
            ("bound_evaluations", 3),
            ("refined", 0),
        ]

    def test_full_search_reads_no_lsh(self, small_index):
        index, query = small_index
        payload = search_job(
            index, query, top_k=3, level=DegradationLevel.FULL
        )["payload"]
        assert not payload["approximate"]
        assert [
            (hit["name"], hit["similarity"]) for hit in payload["hits"]
        ] == [
            (hit.name, hit.similarity)
            for hit in brute_force_search(index, query, 3)
        ]
        assert payload["report"]["lsh_candidates"] == 0
