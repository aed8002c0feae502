"""``Comparator.compare_delta`` / ``delta_session``: the public warm API."""

from __future__ import annotations

import gc
import math
import random

import pytest

from repro.algorithms.signature import signature_compare
from repro.comparator import Comparator
from repro.core.errors import DeltaError
from repro.delta.batch import DeltaBatch, TupleOp
from repro.mappings.constraints import MatchOptions
from repro.scoring.match_score import score_match

from .conftest import rand_batch, rand_instance


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class TestDeltaSession:
    def test_session_result_matches_cold_compare(self, rng):
        left = rand_instance(rng, "l", "NL", 8)
        right = rand_instance(rng, "r", "NR", 8)
        comparator = Comparator()
        session = comparator.delta_session(left, right)
        cold = signature_compare(left, right)
        assert close(session.last_result.similarity, cold.similarity)
        assert session.last_result.stats["delta_mode"] == "cold"


class TestCompareDelta:
    def test_live_session_is_reused(self, rng):
        left = rand_instance(rng, "l", "NL", 10)
        right = rand_instance(rng, "r", "NR", 10)
        comparator = Comparator()
        session = comparator.delta_session(left, right)
        r0 = session.last_result
        batch = rand_batch(rng, right, [0])
        r1 = comparator.compare_delta(r0, batch)
        # Same live session advanced — no replay, state moved to r1.
        assert session.last_result is r1
        assert r1.stats["delta_mode"] in ("incremental", "cold-fallback")
        assert r1.similarity == score_match(r1.match, lam=r1.options.lam)

    def test_chained_compare_delta(self, rng):
        left = rand_instance(rng, "l", "NL", 10)
        right = rand_instance(rng, "r", "NR", 10)
        comparator = Comparator()
        result = comparator.delta_session(left, right).last_result
        counter = [0]
        current = right
        for _ in range(3):
            batch = rand_batch(rng, current, counter)
            if batch.is_empty:
                continue
            result = comparator.compare_delta(result, batch)
            current = batch.apply(current)
            assert result.match.right.ids() == current.ids()
            cold = signature_compare(left, current)
            bound = result.stats["staleness_bound"]
            assert cold.similarity <= result.similarity + bound + 1e-9

    def test_foreign_result_replayed(self, rng):
        """A result produced outside the comparator's delta machinery is
        warm-started via match replay, not a greedy re-run."""
        left = rand_instance(rng, "l", "NL", 8)
        right = rand_instance(rng, "r", "NR", 8)
        comparator = Comparator()
        cold = signature_compare(left, right)
        batch = rand_batch(rng, right, [0])
        warm = comparator.compare_delta(cold, batch)
        assert warm.algorithm == "signature-delta"
        assert warm.similarity == score_match(
            warm.match, lam=warm.options.lam
        )

    def test_superseded_result_falls_back_to_replay(self, rng):
        """Advancing from an *old* result (the session has moved on)
        must not rewind the live session; it replays instead."""
        left = rand_instance(rng, "l", "NL", 8)
        right = rand_instance(rng, "r", "NR", 8)
        comparator = Comparator()
        r0 = comparator.delta_session(left, right).last_result
        batch = rand_batch(rng, right, [0])
        r1 = comparator.compare_delta(r0, batch)
        # r0 is now superseded; advancing from it again works via replay
        # and yields the same score as the first advance.
        r1_again = comparator.compare_delta(r0, batch)
        assert r1_again is not r1
        assert close(r1_again.similarity, r1.similarity)

    def test_held_result_outlives_the_next_advance(self):
        """Each warm result owns its pairs: the next advance leaves a held
        result a valid match of its instances, and a branch from it
        replays a valid match of its right instance plus the batch."""
        rng = random.Random(3)
        left = rand_instance(rng, "l", "NL", 6)
        right = rand_instance(rng, "r", "NR", 6)
        options = MatchOptions.versioning()
        comparator = Comparator()
        session = comparator.delta_session(left, right, options=options)
        counter = [0]
        first = comparator.compare_delta(
            session.last_result, rand_batch(rng, right, counter)
        )
        pairs = sorted(first.match.m)
        batch = rand_batch(rng, first.match.right, counter)
        second = comparator.compare_delta(first, batch)
        assert second.stats["delta_mode"] == "incremental"
        assert second.match.m is not first.match.m
        assert sorted(first.match.m) == pairs
        assert score_match(first.match, lam=options.lam) == first.similarity
        branch = comparator.compare_delta(first, batch)
        assert branch.match.right.ids() == batch.apply(first.match.right).ids()
        assert branch.similarity == score_match(branch.match, lam=options.lam)

    def test_registry_purges_superseded_results(self, rng):
        """The latest result per session is kept alive on purpose (the
        session pins it); a *superseded* result is collectable and its
        registry entry must be purged."""
        left = rand_instance(rng, "l", "NL", 6)
        right = rand_instance(rng, "r", "NR", 6)
        comparator = Comparator()
        r0 = comparator.delta_session(left, right).last_result
        r0_key = id(r0)
        batch = rand_batch(rng, right, [0])
        r1 = comparator.compare_delta(r0, batch)
        del r0
        gc.collect()
        comparator._purge_delta_sessions()
        assert r0_key not in comparator._delta_sessions
        assert id(r1) in comparator._delta_sessions

    def test_invalid_batch_propagates_delta_error(self, rng):
        left = rand_instance(rng, "l", "NL", 6)
        right = rand_instance(rng, "r", "NR", 6)
        comparator = Comparator()
        result = comparator.delta_session(left, right).last_result
        stale = DeltaBatch(
            [TupleOp("delete", "R", "nonexistent",
                     old_values=("a", 1, "x"))]
        )
        with pytest.raises(DeltaError):
            comparator.compare_delta(result, stale)
