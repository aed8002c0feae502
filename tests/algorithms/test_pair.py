"""The prepared pair: one comparability check and one Alg. 2 map per ladder.

Every rung of the anytime ladder reads the same
:class:`~repro.algorithms.pair.PreparedPair`, so one ``compare_anytime``
call checks comparability once, builds the compatible-tuple map and the
candidate blocks once, and takes its unifiers from the pair's null sets.
A pair built from other instances, other options or with a mismatched
index is rejected.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.algorithms import compatibility
from repro.algorithms.assignment import (
    assignment_bounds,
    assignment_compare,
    candidate_blocks,
)
from repro.algorithms.exact import exact_compare
from repro.algorithms.pair import PreparedPair
from repro.algorithms.refine import refine_match
from repro.algorithms.signature import (
    SignatureIndex,
    signature_compare,
    signature_step_only_score,
)
from repro.algorithms.unifier import Unifier
from repro.core.errors import InstanceError
from repro.core.instance import Instance, prepare_for_comparison
from repro.core.values import LabeledNull
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.mappings.constraints import MatchOptions
from repro.mappings.instance_match import InstanceMatch
from repro.mappings.tuple_mapping import TupleMapping
from repro.runtime.anytime import compare_anytime
from repro.scoring.match_score import score_match

from .test_assignment import trap_pair


def modcell_pair(rows=8, seed=3):
    scenario = perturb(
        generate_dataset("doct", rows=rows, seed=seed),
        PerturbationConfig.mod_cell(5.0, seed=seed),
    )
    return prepare_for_comparison(scenario.source, scenario.target)


def n_to_m_pair():
    """Under general options, ``l2`` matches three right tuples."""

    def rows(*specs):
        return [
            tuple(LabeledNull(v) if v.isupper() else v for v in spec.split())
            for spec in specs
        ]

    attrs = ("A", "B", "C")
    left = Instance.from_rows(
        "R", attrs, rows("a N1 a", "N2 N3 b"), id_prefix="l"
    )
    right = Instance.from_rows("R", attrs, rows(
        "R4 R5 b", "a R6 b", "a b b", "b R7 R8", "b a b", "a R9 a"
    ), id_prefix="r")
    return left, right


PRESETS = [
    "general", "versioning", "data_repair", "record_merging",
    "universal_vs_core", "universal_vs_universal",
]


def _count_function(monkeypatch, counts, original):
    """Count calls to ``original`` through every ``repro`` name bound to it."""

    def counted(*args, **kwargs):
        counts[original.__name__] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)


class TestOneLadderOnePair:
    @pytest.mark.parametrize(
        "make_pair", [trap_pair, modcell_pair], ids=["trap", "modcell"]
    )
    def test_shared_state_is_built_once(self, monkeypatch, make_pair):
        left, right = make_pair()
        counts: Counter = Counter()
        _count_function(
            monkeypatch, counts, compatibility.compatible_tuples_of_instances
        )
        _count_function(monkeypatch, counts, candidate_blocks)

        assert_comparable = Instance.assert_comparable_with

        def counted_assert(self, other):
            counts["assert_comparable_with"] += 1
            return assert_comparable(self, other)

        monkeypatch.setattr(Instance, "assert_comparable_with", counted_assert)
        for_instances = Unifier.__dict__["for_instances"].__func__

        def counted_for_instances(cls, *args):
            counts["for_instances"] += 1
            return for_instances(cls, *args)

        monkeypatch.setattr(
            Unifier, "for_instances", classmethod(counted_for_instances)
        )
        pairs: list[PreparedPair] = []
        init = PreparedPair.__init__

        def recorded_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pairs.append(self)

        monkeypatch.setattr(PreparedPair, "__init__", recorded_init)

        result = compare_anytime(
            left, right, options=MatchOptions.versioning(), prepare=False
        )

        assert result.stats["anytime_rungs_run"] == (
            "signature,refine,assignment,exact"
        )
        assert counts["compatible_tuples_of_instances"] == 1
        assert counts["assert_comparable_with"] == 1
        assert counts["for_instances"] == 0
        assert counts["candidate_blocks"] == 0
        # One pair serves all four rungs, and its blocks were built (once:
        # a cached property) for the assignment rung and exact's bound.
        assert len(pairs) == 1
        assert "blocks" in vars(pairs[0])


class TestSharedPairSameAnswers:
    @pytest.mark.parametrize(
        "options",
        [MatchOptions.versioning(), MatchOptions.general()],
        ids=["versioning", "general"],
    )
    def test_each_rung_matches_its_own_pair(self, options):
        left, right = modcell_pair()
        pair = PreparedPair(left, right, options)
        floor = signature_compare(left, right, options)
        assert signature_compare(left, right, pair=pair).match.m == floor.match.m
        refined = refine_match(floor)
        shared = refine_match(floor, pair=pair)
        assert shared.similarity == refined.similarity
        assert shared.match.m == refined.match.m
        assigned = assignment_compare(left, right, options, seed_result=floor)
        shared = assignment_compare(left, right, seed_result=floor, pair=pair)
        assert shared.similarity == assigned.similarity
        assert shared.match.m == assigned.match.m
        exact = exact_compare(left, right, options, node_budget=20_000)
        shared = exact_compare(left, right, node_budget=20_000, pair=pair)
        assert shared.similarity == exact.similarity
        assert shared.stats["nodes_explored"] == exact.stats["nodes_explored"]
        bound = assignment_bounds(left, right, pair=pair)
        assert bound == assignment_bounds(left, right, options)
        assert bound.blocks is pair.blocks

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_rung_scores_as_score_match(self, preset):
        """The rungs score committed pairs from the unifier's class
        counts; each similarity equals ``score_match`` of the match it
        returns, bit for bit, with a shared pair or without one."""
        options = getattr(MatchOptions, preset)()
        for left, right in (modcell_pair(), n_to_m_pair()):
            pair = PreparedPair(left, right, options)
            floor = signature_compare(left, right, pair=pair)
            results = [
                floor,
                refine_match(floor, pair=pair),
                assignment_compare(left, right, seed_result=floor, pair=pair),
                assignment_compare(left, right, options),
                exact_compare(left, right, node_budget=20_000, pair=pair),
                compare_anytime(
                    left, right, options=options, node_budget=20_000
                ),
            ]
            for result in results:
                assert result.similarity == score_match(
                    result.match, lam=options.lam
                ), result.algorithm
            # Table 4's score replays the signature step's pairs.
            unifier = Unifier.for_instances(left, right)
            kept = [
                (l, r) for l, r in floor.stats["pairs_after_signature"]
                if unifier.try_unify_tuples(
                    left.get_tuple(l), right.get_tuple(r)
                )
            ]
            h_l, h_r = unifier.to_value_mappings()
            assert signature_step_only_score(floor) == score_match(
                InstanceMatch(left, right, h_l, h_r, TupleMapping(kept)),
                lam=options.lam,
            )

    def test_lazy_values_equal_the_one_shot_builders(self):
        left, right = modcell_pair()
        pair = PreparedPair(left, right, MatchOptions(lam=0.25))
        assert pair.compatible == (
            compatibility.compatible_tuples_of_instances(left, right)
        )
        assert list(pair.blocks) == candidate_blocks(left, right, 0.25)
        assert pair.nulls == (frozenset(left.vars()), frozenset(right.vars()))
        fresh = pair.unifier()
        assert fresh is not pair.unifier()
        assert fresh.to_value_mappings() == (
            Unifier.for_instances(left, right).to_value_mappings()
        )


class TestMismatchesAreRejected:
    def test_index_of_another_instance(self):
        left, right = modcell_pair()
        _, longer = modcell_pair(rows=9)
        with pytest.raises(ValueError, match="left_index"):
            PreparedPair(left, right, left_index=SignatureIndex.build(longer))
        with pytest.raises(ValueError, match="right_index"):
            PreparedPair(left, right, right_index=SignatureIndex.build(longer))

    def test_pair_of_other_instances(self):
        left, right = modcell_pair()
        other_left, other_right = modcell_pair(seed=4)
        pair = PreparedPair(other_left, other_right)
        with pytest.raises(ValueError, match="other instances"):
            signature_compare(left, right, pair=pair)
        floor = signature_compare(left, right)
        with pytest.raises(ValueError, match="other instances"):
            refine_match(floor, pair=pair)
        with pytest.raises(ValueError, match="other instances"):
            exact_compare(left, right, pair=pair)

    def test_pair_with_other_options(self):
        left, right = modcell_pair()
        pair = PreparedPair(left, right, MatchOptions.general())
        with pytest.raises(ValueError, match="other options"):
            assignment_compare(
                left, right, MatchOptions.versioning(), pair=pair
            )
        with pytest.raises(ValueError, match="other options"):
            refine_match(
                signature_compare(left, right, MatchOptions.versioning()),
                pair=pair,
            )

    def test_incomparable_instances_are_checked_once_at_build(self):
        left, _ = modcell_pair()
        with pytest.raises(InstanceError, match="share tuple ids"):
            PreparedPair(left, left)
