"""Property: pruning never changes the exact search's answer.

The exact search prunes with two admissible bounds: the per-pair arity
bound and the solved assignment relaxation.  An admissible bound cuts only
subtrees that hold no strictly better leaf, and pruning leaves the search
order alone, so the pruned search must return what the unpruned search
returns: the same similarity and the same tuple pairs.  A bound that
undershoots the optimum anywhere shows up here as a lower score or a
different match.

Instances hold ≤4 tuples a side of arity 3, with nulls drawn from a small
per-side pool so they repeat across tuples.  The general setting and the
Sec. 4.3 presets each run at λ ∈ {0, 0.5, 0.9}.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.exact import exact_compare
from repro.core.instance import Instance, prepare_for_comparison
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions

PRESETS = {
    "general": MatchOptions.general,
    "versioning": MatchOptions.versioning,
    "data-repair": MatchOptions.data_repair,
    "universal-vs-core": MatchOptions.universal_vs_core,
    "universal-vs-universal": MatchOptions.universal_vs_universal,
    "record-merging": MatchOptions.record_merging,
}
LAMBDAS = (0.0, 0.5, 0.9)
CONSTANTS = "abcd"
ATTRIBUTES = ("A0", "A1", "A2")


@st.composite
def instance_pair(draw, max_rows: int = 4):
    """Two prepared same-schema instances with repeating nulls."""

    def side(prefix: str) -> Instance:
        pool = [LabeledNull(f"{prefix}{k}") for k in range(4)]
        cell = st.sampled_from(pool) | st.sampled_from(CONSTANTS)
        rows = draw(
            st.lists(
                st.tuples(*[cell] * len(ATTRIBUTES)), max_size=max_rows
            )
        )
        return Instance.from_rows(
            "R", ATTRIBUTES, rows, id_prefix=prefix.lower()
        )

    return prepare_for_comparison(side("L"), side("R"))


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=instance_pair())
def test_pruned_search_returns_the_unpruned_answer(preset, lam, pair):
    left, right = pair
    options = PRESETS[preset](lam=lam)
    pruned = exact_compare(left, right, options)
    plain = exact_compare(left, right, options, prune=False)
    assert pruned.outcome.is_complete and plain.outcome.is_complete
    assert sorted(pruned.match.m) == sorted(plain.match.m)
    assert pruned.similarity == plain.similarity
