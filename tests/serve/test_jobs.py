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

from repro.mappings.constraints import MatchOptions
from repro.serve.admission import DegradationLevel
from repro.serve.jobs import compare_job

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
