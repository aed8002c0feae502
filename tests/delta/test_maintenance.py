"""SketchMaintainer ≡ cold ``InstanceSketch.build``, under any batch.

The acceptance bar for live maintenance is *exact* equality: after every
chain of batches, the maintained sketch must be dict-identical to a cold
re-sketch of the post-batch instance — same column multisets, same null
counts, same min-hash signature, slot for slot.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import DeltaError
from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.delta.batch import DeltaBatch, TupleOp
from repro.delta.maintenance import SketchMaintainer
from repro.index.sketch import (
    EMPTY_SLOT,
    IndexParams,
    InstanceSketch,
    _MERSENNE_PRIME,
    sketch_to_dict,
    stable_hash64,
)

from .conftest import TWO_REL_SCHEMA, rand_batch, rand_instance

PARAMS = IndexParams(num_perms=32, bands=8, rows=4)


def cold_dict(instance):
    return sketch_to_dict(InstanceSketch.build(instance, PARAMS))


def maintained_dict(maintainer, instance):
    return sketch_to_dict(maintainer.sketch_for(instance))


class TestEquivalence:
    def test_seed_matches_cold_build(self, rng):
        instance = rand_instance(rng, "r", "NR", 12)
        maintainer = SketchMaintainer(instance, PARAMS)
        assert maintained_dict(maintainer, instance) == cold_dict(instance)

    @pytest.mark.parametrize("trial", range(8))
    def test_chained_batches_match_cold_build(self, trial):
        rng = random.Random(4200 + trial)
        instance = rand_instance(rng, "r", "NR", rng.randint(3, 14))
        maintainer = SketchMaintainer(instance, PARAMS)
        counter = [0]
        for _ in range(5):
            batch = rand_batch(rng, instance, counter)
            instance = batch.apply(instance)
            sketch, repair = maintainer.apply(batch, instance)
            assert sketch_to_dict(sketch) == cold_dict(instance)
            assert repair.minhash_slots_patched + \
                repair.minhash_slots_rebuilt == PARAMS.num_perms

    def test_delete_retiring_slot_minimum_forces_rebuild(self):
        """Deleting the tuple whose token holds a slot minimum must
        recompute that slot over the survivors, not keep the stale min."""
        instance = Instance.from_rows(
            "R", ("A",), [(f"v{i}",) for i in range(20)], id_prefix="t"
        )
        maintainer = SketchMaintainer(instance, PARAMS)
        # Find a tuple whose token is the minimum witness of some slot.
        coefficients = PARAMS.coefficients()
        before = maintainer.materialize().minhash
        victim = None
        for t in instance.tuples():
            token = f"str:{t.values[0]!r}"
            h = stable_hash64(f"R\x1fA\x1fC\x1f{token}\x1f0")
            if any(
                (a * h + b) % _MERSENNE_PRIME == before[i]
                for i, (a, b) in enumerate(coefficients)
            ):
                victim = t
                break
        assert victim is not None, "some slot minimum must have a witness"
        batch = DeltaBatch([
            TupleOp("delete", "R", victim.tuple_id, old_values=victim.values)
        ])
        new_instance = batch.apply(instance)
        sketch, repair = maintainer.apply(batch, new_instance)
        assert repair.minhash_slots_rebuilt > 0
        assert sketch_to_dict(sketch) == cold_dict(new_instance)

    def test_drain_to_empty_instance(self):
        instance = Instance.from_rows(
            "R", ("A",), [("x",), (LabeledNull("N1"),)], id_prefix="t"
        )
        maintainer = SketchMaintainer(instance, PARAMS)
        batch = DeltaBatch(
            TupleOp("delete", "R", t.tuple_id, old_values=t.values)
            for t in instance.tuples()
        )
        empty = batch.apply(instance)
        sketch, _ = maintainer.apply(batch, empty)
        assert sketch.minhash == (EMPTY_SLOT,) * PARAMS.num_perms
        assert sketch_to_dict(sketch) == cold_dict(empty)

    def test_all_null_instance(self):
        nulls = [(LabeledNull(f"N{i}"),) for i in range(4)]
        instance = Instance.from_rows("R", ("A",), nulls, id_prefix="t")
        maintainer = SketchMaintainer(instance, PARAMS)
        t0 = instance.get_tuple("t1")
        batch = DeltaBatch(
            [TupleOp("update", "R", "t1", values=("c",),
                     old_values=t0.values)]
        )
        new_instance = batch.apply(instance)
        sketch, _ = maintainer.apply(batch, new_instance)
        assert sketch_to_dict(sketch) == cold_dict(new_instance)

    def test_duplicate_constants_are_multiset_tokens(self):
        """Two rows with equal cells contribute distinct multiset tokens;
        deleting one must leave the other's token alive."""
        instance = Instance.from_rows(
            "R", ("A",), [("x",), ("x",), ("x",)], id_prefix="t"
        )
        maintainer = SketchMaintainer(instance, PARAMS)
        batch = DeltaBatch([TupleOp("delete", "R", "t3", old_values=("x",))])
        new_instance = batch.apply(instance)
        sketch, _ = maintainer.apply(batch, new_instance)
        assert sketch_to_dict(sketch) == cold_dict(new_instance)

    def test_signed_zeros_match_cold_build(self):
        """``0.0 == -0.0``: both spell as one constant, so the maintainer's
        constant cache cannot make its sketch differ from a cold build."""
        instance = Instance.from_rows(
            "R", ("A",), [(0.0,), (-0.0,), ("x",)], id_prefix="t"
        )
        maintainer = SketchMaintainer(instance, PARAMS)
        assert maintained_dict(maintainer, instance) == cold_dict(instance)
        batch = DeltaBatch([
            TupleOp("delete", "R", "t1", old_values=(0.0,)),
            TupleOp("insert", "R", "t4", values=(-0.0,)),
            TupleOp("update", "R", "t3", values=(0.0,), old_values=("x",)),
        ])
        new_instance = batch.apply(instance)
        sketch, _ = maintainer.apply(batch, new_instance)
        assert sketch_to_dict(sketch) == cold_dict(new_instance)


class TestLightMode:
    def test_column_stats_without_minhash(self, rng):
        instance = rand_instance(rng, "r", "NR", 8)
        light = SketchMaintainer(instance, PARAMS, track_minhash=False)
        counter = [0]
        batch = rand_batch(rng, instance, counter)
        new_instance = batch.apply(instance)
        sketch, repair = light.apply(batch, fingerprint=False)
        assert sketch.minhash == ()
        assert repair.minhash_slots_patched == 0
        assert repair.minhash_slots_rebuilt == 0
        cold = sketch_to_dict(InstanceSketch.build(new_instance, PARAMS))
        got = sketch_to_dict(sketch)
        # Everything but the min-hash signature and fingerprint is exact.
        for payload in (cold, got):
            payload.pop("minhash", None)
            payload.pop("fingerprint", None)
        assert got == cold


class TestValidation:
    def test_fingerprint_needs_instance(self):
        instance = Instance.from_rows("R", ("A",), [("x",)])
        maintainer = SketchMaintainer(instance, PARAMS)
        with pytest.raises(DeltaError, match="post-batch instance"):
            maintainer.apply(DeltaBatch())

    def test_unknown_relation_rejected(self):
        instance = Instance.from_rows("R", ("A",), [("x",)])
        maintainer = SketchMaintainer(instance, PARAMS)
        batch = DeltaBatch([TupleOp("insert", "Q", "q1", values=("y",))])
        with pytest.raises(DeltaError, match="unknown to"):
            maintainer.apply(batch, fingerprint=False)

    def test_retiring_absent_constant_rejected(self):
        instance = Instance.from_rows("R", ("A",), [("x",)])
        maintainer = SketchMaintainer(instance, PARAMS)
        batch = DeltaBatch(
            [TupleOp("delete", "R", "t1", old_values=("ghost",))]
        )
        with pytest.raises(DeltaError, match="absent from column"):
            maintainer.apply(batch, fingerprint=False)

    def test_arity_mismatch_rejected(self):
        instance = Instance(TWO_REL_SCHEMA)
        maintainer = SketchMaintainer(instance, PARAMS)
        batch = DeltaBatch([TupleOp("insert", "R", "t1", values=("x",))])
        with pytest.raises(DeltaError, match="arity"):
            maintainer.apply(batch, fingerprint=False)
