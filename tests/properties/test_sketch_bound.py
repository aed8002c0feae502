"""Property test: the sketch upper bound is admissible.

For any two instances and any match-option preset the index supports,
``similarity_upper_bound`` computed from the two sketches must dominate the
true ``signature_compare`` similarity — this is the inequality that makes
bound-based pruning exact (a pruned candidate can never outscore a refined
one).  Checked on random instance pairs and on randomly perturbed variants
of a base instance (the data-versioning workload the index targets).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.signature import signature_compare
from repro.cli import PRESETS
from repro.core.instance import Instance, prepare_for_comparison
from repro.core.values import LabeledNull
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.index import RefineReport, SimilarityIndex
from repro.index.refine import bound_tables
from repro.index.sketch import (
    IndexParams,
    InstanceSketch,
    similarity_upper_bound,
)
from repro.mappings.constraints import MatchOptions
from repro.versioning.operations import align_schemas

PARAMS = IndexParams(num_perms=16, bands=4, rows=2)
# 1, 1.0 and True compare equal, and so do 0.0 and -0.0: the bound must
# see every equality the matcher sees.
CONSTANTS = ["a", "b", "c", 1, 2, 1.0, True, 0.0, -0.0]
OPTIONS = [MatchOptions.versioning(), MatchOptions.general()]


@st.composite
def instance_pair(draw, max_rows: int = 4, arity: int = 2):
    """Two random same-relation instances with overlapping constants."""

    def build(prefix: str):
        n_rows = draw(st.integers(min_value=0, max_value=max_rows))
        null_pool = [LabeledNull(f"{prefix}{k}") for k in range(3)]
        rows = [
            tuple(
                draw(st.sampled_from(null_pool))
                if draw(st.booleans())
                else draw(st.sampled_from(CONSTANTS))
                for _ in range(arity)
            )
            for _ in range(n_rows)
        ]
        return Instance.from_rows(
            "R", tuple(f"A{i}" for i in range(arity)), rows, name=prefix
        )

    return build("L"), build("R")


def true_similarity(left: Instance, right: Instance, options) -> float:
    left, right = prepare_for_comparison(left, right)
    return signature_compare(left, right, options).similarity


def bound(left: Instance, right: Instance, options) -> float:
    return similarity_upper_bound(
        InstanceSketch.build(left, PARAMS),
        InstanceSketch.build(right, PARAMS),
        options,
    )


class TestBoundDominatesRandomPairs:
    @pytest.mark.parametrize(
        "options", OPTIONS, ids=["versioning", "general"]
    )
    @given(pair=instance_pair())
    @settings(max_examples=60, deadline=None)
    def test_bound_at_least_similarity(self, pair, options):
        left, right = pair
        assert bound(left, right, options) >= true_similarity(
            left, right, options
        ) - 1e-12


class TestBoundDominatesPerturbedInstances:
    """The workload from the paper's versioning experiments (Sec. 6)."""

    @pytest.mark.parametrize(
        "options", OPTIONS, ids=["versioning", "general"]
    )
    @pytest.mark.parametrize("rate", [2.0, 10.0, 25.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bound_at_least_similarity(self, options, rate, seed):
        base = generate_dataset("iris", rows=20, seed=0)
        perturbed = perturb(
            base, PerturbationConfig.mod_cell(rate, seed=seed)
        ).target
        assert bound(base, perturbed, options) >= true_similarity(
            base, perturbed, options
        ) - 1e-12

    def test_bound_under_schema_drift(self):
        """Perturbations that drop columns exercise the padded-bound path."""
        from repro.versioning.operations import removed_columns_version

        options = MatchOptions.versioning()
        base = generate_dataset("iris", rows=15, seed=0)
        projected = removed_columns_version(base, seed=4)
        aligned = align_schemas(base, projected)
        assert bound(base, projected, options) >= true_similarity(
            aligned[0], aligned[1], options
        ) - 1e-12


class TestColumnStatisticsBound:
    """Exact search bounds the query from its column statistics alone.

    Its query sketch takes no min-hash, so the bound it reads must equal,
    bit for bit, the bound over the full :meth:`InstanceSketch.build`.
    A dropped candidate column exercises the padded-column path.
    """

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @given(pair=instance_pair(), drop_column=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_light_query_bound_equals_full(self, pair, drop_column, preset):
        options = PRESETS[preset]()
        query, candidate = pair
        if drop_column:
            candidate = Instance.from_rows(
                "R", ("A0",), [t.values[:1] for t in candidate.tuples()]
            )
        index = SimilarityIndex(params=PARAMS, options=options)
        index.add("c", candidate)
        full = similarity_upper_bound(
            InstanceSketch.build(query, PARAMS), index.sketch("c"), options
        )
        report = RefineReport()
        assert bound_tables(index, query, report, exact=True) == {"c": full}
        assert report.lsh_candidates == 0
