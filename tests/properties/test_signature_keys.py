"""Property tests: position-keyed Alg. 4 equals the name-keyed definition.

The signature index compiles every null pattern once into a plan (a
constant-position bitmask and ``(attribute, position)`` pairs in
lexicographic attribute order) and probes by position.  Def. 6.2's
name-keyed :func:`signature_of` / :func:`maximal_signature` stay as the
oracle:

* every bucket key is the maximal signature of each tuple in it, and
  buckets keep relation order;
* for every probe and plan, the bitmask test agrees with
  ``pattern <= A_ground(probe)``, and where it holds the positional key
  is ``signature_of(probe, pattern)``;
* ``signature_compare`` commits the same pairs in the same order, and
  scores them the same, as a run of the name-keyed probe below.

Schemas list attributes out of lexicographic order, nulls are shared
across tuples and relations, and constants include ``==``-equal values
of different types (``1``, ``1.0``, ``True``).
"""

from __future__ import annotations

from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import signature as signature_module
from repro.algorithms.signature import (
    SignatureIndex,
    _constant_mask,
    _MatchState,
    _RelationSignatures,
    maximal_signature,
    signature_compare,
    signature_of,
)
from repro.core.instance import Instance
from repro.core.schema import RelationSchema, Schema
from repro.core.tuples import Tuple
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions

CONSTANTS = ["a", "b", 1, 1.0, True, 2]
PRESETS = {
    "general": MatchOptions.general,
    "versioning": MatchOptions.versioning,
    "universal_vs_core": MatchOptions.universal_vs_core,
    "universal_vs_universal": MatchOptions.universal_vs_universal,
    "data_repair": MatchOptions.data_repair,
}


@st.composite
def schemas(draw):
    """1–3 relations, each listing its attributes out of sorted order."""
    relations = []
    for name in ("R", "S", "T")[: draw(st.integers(1, 3))]:
        arity = draw(st.integers(2, 4))
        attributes = draw(
            st.permutations(("C", "A", "D", "B")[:arity]).filter(
                lambda p: list(p) != sorted(p)
            )
        )
        relations.append(RelationSchema(name, tuple(attributes)))
    return Schema(tuple(relations))


def instance_of(draw, schema: Schema, prefix: str, max_rows: int = 5):
    """Rows drawn from shared constants and a small pool of nulls."""
    nulls = [LabeledNull(f"{prefix}N{k}") for k in range(3)]
    instance = Instance(schema, name=prefix)
    for name in schema.relation_names():
        relation = schema.relation(name)
        for i in range(draw(st.integers(0, max_rows))):
            instance.add_row(
                relation.name,
                f"{prefix}{relation.name}{i}",
                tuple(
                    draw(st.sampled_from(nulls))
                    if draw(st.booleans())
                    else draw(st.sampled_from(CONSTANTS))
                    for _ in relation.attributes
                ),
            )
    return instance


@st.composite
def instance_pairs(draw):
    schema = draw(schemas())
    return instance_of(draw, schema, "l"), instance_of(draw, schema, "r")


def _name_keyed_find_signature_matches(
    state: _MatchState,
    indexed_signatures: _RelationSignatures,
    probes: Sequence[Tuple],
    indexed_is_left: bool,
    policy: str = "any",
) -> int:
    """Alg. 4 keyed by attribute name: the reference the plans must match.

    Rebuilds the map from the indexed relation in relation order with
    :func:`maximal_signature`, orders the frozenset patterns by
    ``(-size, sorted names)``, sorts the probes itself and keys every
    lookup with :func:`signature_of`.  Pruned buckets go into a copy.
    """
    del indexed_signatures  # rebuilt by name below
    if not probes:
        return 0
    options = state.options
    indexed_injective = (
        options.left_injective if indexed_is_left else options.right_injective
    )
    probe_injective = (
        options.right_injective if indexed_is_left else options.left_injective
    )
    indexed_matched = (
        state.matched_left if indexed_is_left else state.matched_right
    )
    probe_matched = (
        state.matched_right if indexed_is_left else state.matched_left
    )
    indexed_instance = state.left if indexed_is_left else state.right
    sigmap: dict = {}
    patterns: set[frozenset[str]] = set()
    for t in indexed_instance.relation(probes[0].relation.name):
        sigmap.setdefault(maximal_signature(t), []).append(t)
        patterns.add(frozenset(t.constant_attributes()))
    ordered_patterns = sorted(patterns, key=lambda p: (-len(p), sorted(p)))
    probe_scan = sorted(
        probes, key=lambda t: (-t.constant_count(), t.tuple_id)
    )
    added = 0
    for probe in probe_scan:
        if not state.control.spend():
            break
        if probe_injective and probe.tuple_id in probe_matched:
            continue
        ground = set(probe.constant_attributes())
        probe_done = False
        for pattern in ordered_patterns:
            if not pattern <= ground:
                continue
            key = signature_of(probe, pattern)
            candidates = sigmap.get(key)
            if not candidates:
                continue
            ordered = state.order_candidates(
                candidates, probe, probe_is_right=indexed_is_left
            )
            for candidate in ordered:
                if indexed_injective and candidate.tuple_id in indexed_matched:
                    continue
                if indexed_is_left:
                    success = state.try_add(candidate, probe, policy)
                else:
                    success = state.try_add(probe, candidate, policy)
                if success:
                    added += 1
                    if probe_injective:
                        probe_done = True
                        break
            if indexed_injective:
                sigmap[key] = [
                    c for c in candidates if c.tuple_id not in indexed_matched
                ]
            if probe_done:
                break
    return added


def _pattern(pairs) -> frozenset[str]:
    return frozenset(a for a, _ in pairs)


@settings(max_examples=80, deadline=None)
@given(instance_pairs())
def test_buckets_hold_their_maximal_signature(pair):
    for instance in pair:
        index = SignatureIndex.build(instance)
        for relation in instance.relations():
            rel = index.relation(relation.schema.name)
            order = {t.tuple_id: i for i, t in enumerate(relation)}
            for key, bucket in rel.sigmap.items():
                assert bucket
                for t in bucket:
                    assert key == maximal_signature(t)
                ranks = [order[t.tuple_id] for t in bucket]
                assert ranks == sorted(ranks)
            assert sum(len(b) for b in rel.sigmap.values()) == len(order)
            assert list(rel.probe_order) == sorted(
                relation, key=lambda t: (-t.constant_count(), t.tuple_id)
            )


@settings(max_examples=80, deadline=None)
@given(instance_pairs())
def test_plans_agree_with_signature_of(pair):
    left, right = pair
    for relation in left.relations():
        name = relation.schema.name
        rel = SignatureIndex.build(left).relation(name)
        patterns = [_pattern(pairs) for _, pairs in rel.plans]
        assert set(patterns) == {
            frozenset(t.constant_attributes()) for t in relation
        }
        assert patterns == sorted(
            patterns, key=lambda p: (-len(p), sorted(p))
        )
        for mask, pairs in rel.plans:
            assert [a for a, _ in pairs] == sorted(_pattern(pairs))
            assert all(
                relation.schema.attributes[p] == a for a, p in pairs
            )
            assert mask == sum(1 << p for _, p in pairs)
        for probe in (*relation, *right.relation(name)):
            ground = _constant_mask(probe.values)
            constant = set(probe.constant_attributes())
            for mask, pairs in rel.plans:
                pattern = _pattern(pairs)
                assert (mask & ground == mask) == (pattern <= constant)
                if pattern <= constant:
                    key = tuple((a, probe.values[p]) for a, p in pairs)
                    assert key == signature_of(probe, pattern)


@pytest.mark.parametrize("align_preference", [True, False])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=40, deadline=None)
@given(pair=instance_pairs())
def test_compare_matches_name_keyed_reference(preset, align_preference, pair):
    left, right = pair
    options = PRESETS[preset]()
    result = signature_compare(
        left, right, options, align_preference=align_preference
    )
    with mock.patch.object(
        signature_module,
        "_find_signature_matches",
        _name_keyed_find_signature_matches,
    ):
        reference = signature_compare(
            left, right, options, align_preference=align_preference
        )
    assert (
        result.stats["pairs_after_signature"]
        == reference.stats["pairs_after_signature"]
    )
    assert sorted(result.match.m) == sorted(reference.match.m)
    assert result.similarity == reference.similarity
