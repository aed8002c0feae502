"""A warm step's maintained state equals the rebuild it replaces.

Each advance patches the staleness bound's column overlaps and the two
value mappings instead of recomputing them.  After every advance of a
seeded chain, under all five presets, this suite checks them against
their cold oracles with ``==``:

* the staleness bound against a cold ``similarity_upper_bound`` over
  freshly built sketches of both sides;
* ``h_l`` and ``h_r`` against ``Unifier.to_value_mappings`` of the
  session's own unifier (classes never split, so a replay of the current
  pairs is not the oracle);
* the match against completeness, and every earlier result against the
  mappings and pairs it was returned with.

``DeltaBatch.apply``'s copy-and-edit has its own oracle in
``test_batch.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.signature import signature_compare
from repro.delta.engine import MODE_COLD_FALLBACK, DeltaSession
from repro.delta.maintenance import SketchMaintainer
from repro.index.sketch import (
    IndexParams,
    InstanceSketch,
    column_overlaps,
    patch_column_overlaps,
    similarity_upper_bound,
)
from repro.mappings.constraints import MatchOptions

from .conftest import rand_batch, rand_instance

PRESETS = ["general", "versioning", "data_repair", "universal_vs_core",
           "universal_vs_universal"]
PARAMS = IndexParams()
STEPS = 8


def cold_staleness(left, right, options, similarity):
    upper = similarity_upper_bound(
        InstanceSketch.build(left, PARAMS),
        InstanceSketch.build(right, PARAMS),
        options,
    )
    return max(0.0, min(1.0, upper) - similarity)


def snapshot(result):
    match = result.match
    return dict(match.h_l.items()), dict(match.h_r.items()), sorted(match.m)


def check_result(session, left, options, result):
    right = result.match.right
    assert result.stats["staleness_bound"] == cold_staleness(
        left, right, options, result.similarity
    )
    h_l, h_r = session._state.unifier.to_value_mappings()
    assert result.match.h_l == h_l
    assert result.match.h_r == h_r
    assert result.match.is_complete()


def run_chain(session, left, options, rng):
    """Advance ``session`` through a seeded chain, checking every step."""
    history = [(session.last_result, snapshot(session.last_result))]
    check_result(session, left, options, session.last_result)
    counter = [0]
    modes = []
    for _ in range(STEPS):
        batch = rand_batch(rng, session.right, counter)
        result = session.advance(batch)
        modes.append(result.stats["delta_mode"])
        check_result(session, left, options, result)
        history.append((result, snapshot(result)))
        for earlier, state in history:
            assert snapshot(earlier) == state
    return modes


def pair(rng):
    left = rand_instance(rng, "l", "NL", rng.randint(3, 14))
    right = rand_instance(rng, "r", "NR", rng.randint(3, 14))
    return left, right


@pytest.mark.parametrize("trial", range(4))
@pytest.mark.parametrize("preset", PRESETS)
def test_warm_session(preset, trial):
    rng = random.Random(f"warm:{preset}:{trial}")
    options = getattr(MatchOptions, preset)()
    left, right = pair(rng)
    session = DeltaSession(left, right, options,
                           align_preference=bool(trial % 2))
    run_chain(session, left, options, rng)


@pytest.mark.parametrize("preset", PRESETS)
def test_cold_fallback_session(preset):
    rng = random.Random(f"fallback:{preset}")
    options = getattr(MatchOptions, preset)()
    left, right = pair(rng)
    session = DeltaSession(left, right, options, fallback_fraction=0.0)
    modes = run_chain(session, left, options, rng)
    assert MODE_COLD_FALLBACK in modes


@pytest.mark.parametrize("preset", PRESETS)
def test_replayed_session(preset):
    rng = random.Random(f"replay:{preset}")
    options = getattr(MatchOptions, preset)()
    left, right = pair(rng)
    session = DeltaSession.from_result(signature_compare(left, right, options))
    run_chain(session, left, options, rng)


@pytest.mark.parametrize("preset", ["general", "versioning"])
@pytest.mark.parametrize("trial", range(4))
def test_patched_overlaps_equal_cold(preset, trial):
    """General and injective overlaps take different patch rules."""
    rng = random.Random(f"overlaps:{preset}:{trial}")
    options = getattr(MatchOptions, preset)()
    left, right = pair(rng)
    query = InstanceSketch.build(left, PARAMS)
    maintainer = SketchMaintainer(right, PARAMS, track_minhash=False)
    overlaps = column_overlaps(query, maintainer.materialize(), options)
    counter = [0]
    for _ in range(STEPS):
        batch = rand_batch(rng, right, counter)
        right = batch.apply(right)
        sketch, repair = maintainer.apply(batch, fingerprint=False)
        patch_column_overlaps(
            overlaps, query, sketch, repair.constants_before, options
        )
        cold = column_overlaps(query, InstanceSketch.build(right, PARAMS),
                               options)
        assert overlaps == cold
