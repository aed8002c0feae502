"""The :class:`DeltaBatch` algebra: apply/invert/compose and constructors."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.errors import DeltaError, InstanceError
from repro.core.instance import Instance
from repro.core.schema import RelationSchema, Schema
from repro.core.tuples import Tuple
from repro.core.values import LabeledNull
from repro.delta.batch import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    DeltaBatch,
    TupleOp,
    batch_from_wal_record,
)

from .conftest import TWO_REL_SCHEMA, VALUE_POOLS, rand_batch, rand_instance


def rows_of(instance):
    """``{relation: {tuple_id: values}}`` for structural comparison."""
    return {
        relation.schema.name: {t.tuple_id: t.values for t in relation}
        for relation in instance.relations()
    }


def make(rows, attrs=("A",), relation="R", prefix="t"):
    return Instance.from_rows(relation, attrs, rows, id_prefix=prefix)


def two_relations():
    """``R(A)`` holding ``r1`` and ``S(B)`` holding ``s1``."""
    schema = Schema((RelationSchema("R", ("A",)), RelationSchema("S", ("B",))))
    instance = Instance(schema)
    instance.add_row("R", "r1", ("x",))
    instance.add_row("S", "s1", ("y",))
    return instance


class TestTupleOp:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DeltaError, match="unknown delta op kind"):
            TupleOp("upsert", "R", "t1", values=("x",))

    def test_insert_needs_values(self):
        with pytest.raises(DeltaError, match="needs values"):
            TupleOp(OP_INSERT, "R", "t1")

    def test_delete_needs_old_values(self):
        with pytest.raises(DeltaError, match="needs old_values"):
            TupleOp(OP_DELETE, "R", "t1")

    def test_update_needs_both(self):
        with pytest.raises(DeltaError):
            TupleOp(OP_UPDATE, "R", "t1", values=("x",))
        with pytest.raises(DeltaError):
            TupleOp(OP_UPDATE, "R", "t1", old_values=("x",))

    def test_sequences_coerced_to_tuples(self):
        op = TupleOp(OP_UPDATE, "R", "t1", values=["x"], old_values=["y"])
        assert op.values == ("x",) and op.old_values == ("y",)


class TestApply:
    def test_insert_update_delete(self):
        old = make([("x",), ("y",), ("z",)])
        batch = DeltaBatch([
            TupleOp(OP_DELETE, "R", "t1", old_values=("x",)),
            TupleOp(OP_UPDATE, "R", "t2", values=("Y",), old_values=("y",)),
            TupleOp(OP_INSERT, "R", "t9", values=("w",)),
        ])
        new = old if batch.is_empty else batch.apply(old)
        assert rows_of(new) == {
            "R": {"t2": ("Y",), "t3": ("z",), "t9": ("w",)}
        }
        # untouched tuple objects are shared, not copied
        assert new.get_tuple("t3") is old.get_tuple("t3")

    def test_duplicate_ops_per_tuple_rejected(self):
        with pytest.raises(DeltaError, match="two ops for tuple"):
            DeltaBatch([
                TupleOp(OP_DELETE, "R", "t1", old_values=("x",)),
                TupleOp(OP_INSERT, "R", "t1", values=("y",)),
            ])

    def test_insert_of_existing_id_rejected(self):
        old = make([("x",)])
        batch = DeltaBatch([TupleOp(OP_INSERT, "R", "t1", values=("y",))])
        with pytest.raises(DeltaError, match="insert of existing tuple"):
            batch.apply(old)

    def test_insert_of_id_held_by_another_relation_rejected(self):
        batch = DeltaBatch([TupleOp(OP_INSERT, "S", "r1", values=("z",))])
        with pytest.raises(DeltaError, match="'r1'"):
            batch.apply(two_relations())

    def test_insert_may_reuse_id_deleted_from_another_relation(self):
        batch = DeltaBatch([
            TupleOp(OP_INSERT, "S", "r1", values=("z",)),
            TupleOp(OP_DELETE, "R", "r1", old_values=("x",)),
        ])
        new = batch.apply(two_relations())
        assert rows_of(new) == {"R": {}, "S": {"s1": ("y",), "r1": ("z",)}}
        assert list(new.tuple_ids()) == ["s1", "r1"]

    def test_stale_old_values_rejected(self):
        old = make([("x",)])
        batch = DeltaBatch(
            [TupleOp(OP_DELETE, "R", "t1", old_values=("stale",))]
        )
        with pytest.raises(DeltaError, match="stale old values"):
            batch.apply(old)

    def test_delete_of_unknown_tuple_rejected(self):
        old = make([("x",)])
        batch = DeltaBatch(
            [TupleOp(OP_DELETE, "R", "missing", old_values=("x",))]
        )
        with pytest.raises(DeltaError, match="unknown tuple"):
            batch.apply(old)

    def test_unknown_relation_rejected(self):
        old = make([("x",)])
        batch = DeltaBatch([TupleOp(OP_INSERT, "Q", "q1", values=("y",))])
        with pytest.raises(DeltaError, match="unknown relation"):
            batch.apply(old)


def rebuilt(batch: DeltaBatch, instance: Instance) -> Instance:
    """The reference ``apply``: re-add every survivor through ``Instance.add``.

    Survivors go relation by relation in instance order, updates in
    place, then inserts in op order; an insert whose id another relation
    still holds raises :class:`DeltaError`.
    """
    by_key = {(op.relation, op.tuple_id): op for op in batch}
    for op in batch:
        if op.relation not in instance.schema:
            raise DeltaError(f"unknown relation {op.relation!r}")
    result = Instance(instance.schema, name=instance.name)
    seen = set()
    for relation in instance.relations():
        name = relation.schema.name
        for t in relation:
            op = by_key.get((name, t.tuple_id))
            if op is None:
                result.add(t)
                continue
            seen.add((name, t.tuple_id))
            if op.kind == OP_INSERT or op.old_values != t.values:
                raise DeltaError(f"bad {op.kind} of {t.tuple_id!r}")
            if op.kind == OP_UPDATE:
                result.add(Tuple(t.tuple_id, relation.schema, op.values))
    for op in batch:
        if (op.relation, op.tuple_id) in seen:
            continue
        if op.kind != OP_INSERT:
            raise DeltaError(f"{op.kind} of unknown tuple {op.tuple_id!r}")
        t = Tuple(op.tuple_id, instance.schema.relation(op.relation), op.values)
        try:
            result.add(t)
        except InstanceError as error:
            raise DeltaError(str(error)) from error
    return result


def raised(fn, *args):
    """The type of the exception ``fn(*args)`` raises, or ``None``."""
    try:
        fn(*args)
    except Exception as error:  # noqa: BLE001 - the type is the result
        return type(error)
    return None


def with_reused_ids(rng, batch, freed):
    """``batch`` plus inserts that reuse ids freed by deletes.

    Ids deleted in this batch or an earlier one move to the other
    relation, which only a copy that rebuilds the id index in
    relation-then-insert order gets right.
    """
    ops = list(batch)
    keys = {(op.relation, op.tuple_id) for op in ops}
    candidates = freed + [op.tuple_id for op in ops if op.kind == OP_DELETE]
    for tuple_id in rng.sample(candidates, min(2, len(candidates))):
        relation = rng.choice(["R", "S"])
        if (relation, tuple_id) in keys or tuple_id in (
            op.tuple_id for op in ops if op.kind == OP_INSERT
        ):
            continue
        keys.add((relation, tuple_id))
        arity = len(TWO_REL_SCHEMA.relation(relation).attributes)
        ops.insert(rng.randrange(len(ops) + 1), TupleOp(
            OP_INSERT, relation, tuple_id,
            values=tuple(rng.choice(VALUE_POOLS[relation])
                         for _ in range(arity)),
        ))
    return DeltaBatch(ops)


def faulty(rng, batch, instance, fault):
    """``batch`` with one op that breaks a precondition added at random."""
    ops = list(batch)
    touched = {op.tuple_id for op in ops}
    untouched = [t for t in instance.tuples() if t.tuple_id not in touched]
    t = rng.choice(untouched)
    name = t.relation.name
    other = "S" if name == "R" else "R"
    arity = len(t.values)
    bad = {
        "stale": TupleOp(OP_UPDATE, name, t.tuple_id, values=t.values,
                         old_values=("stale",) * arity),
        "unknown-tuple": TupleOp(OP_DELETE, name, "nope",
                                 old_values=t.values),
        "unknown-relation": TupleOp(OP_INSERT, "Q", "q1", values=("v",)),
        "insert-existing": TupleOp(OP_INSERT, name, t.tuple_id,
                                   values=t.values),
        "insert-other-relation": TupleOp(
            OP_INSERT, other, t.tuple_id,
            values=("v",) * len(TWO_REL_SCHEMA.relation(other).attributes),
        ),
        "update-arity": TupleOp(OP_UPDATE, name, t.tuple_id,
                                values=("v",) * (arity + 1),
                                old_values=t.values),
        "insert-arity": TupleOp(OP_INSERT, name, "fresh",
                                values=("v",) * (arity + 1)),
    }[fault]
    ops.insert(rng.randrange(len(ops) + 1), bad)
    return DeltaBatch(ops)


FAULTS = ["stale", "unknown-tuple", "unknown-relation", "insert-existing",
          "insert-other-relation", "update-arity", "insert-arity"]


class TestApplyMatchesRebuild:
    """``apply`` copies and edits; the per-tuple rebuild is its oracle."""

    @pytest.mark.parametrize("trial", range(12))
    def test_chained_batches(self, trial):
        rng = random.Random(7100 + trial)
        current = rand_instance(rng, "r", "NR", rng.randint(3, 14))
        counter, freed = [0], []
        for _ in range(6):
            batch = with_reused_ids(
                rng, rand_batch(rng, current, counter), freed
            )
            got, want = batch.apply(current), rebuilt(batch, current)
            assert list(got.tuples()) == list(want.tuples())
            assert list(got.tuple_ids()) == list(want.tuple_ids())
            assert pickle.dumps(got) == pickle.dumps(want)
            freed = sorted(current.ids() - got.ids())
            current = got

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("trial", range(3))
    def test_errors_match(self, fault, trial):
        rng = random.Random(7300 + trial)
        current = rand_instance(rng, "r", "NR", rng.randint(3, 10))
        batch = faulty(rng, rand_batch(rng, current, [0]), current, fault)
        expected = raised(rebuilt, batch, current)
        assert expected is not None
        assert raised(batch.apply, current) is expected


class TestAlgebra:
    def test_invert_round_trip(self, rng):
        base = rand_instance(rng, "r", "NR", 10)
        batch = rand_batch(rng, base, [0])
        forward = batch.apply(base)
        assert rows_of(batch.invert().apply(forward)) == rows_of(base)

    def test_compose_equals_sequential_apply(self, rng):
        counter = [0]
        base = rand_instance(rng, "r", "NR", 10)
        first = rand_batch(rng, base, counter)
        mid = first.apply(base)
        second = rand_batch(rng, mid, counter)
        assert rows_of(first.compose(second).apply(base)) == rows_of(
            second.apply(mid)
        )

    def test_compose_insert_then_delete_annihilates(self):
        first = DeltaBatch([TupleOp(OP_INSERT, "R", "t9", values=("w",))])
        second = DeltaBatch([TupleOp(OP_DELETE, "R", "t9", old_values=("w",))])
        assert first.compose(second).is_empty

    def test_compose_incoherent_pair_rejected(self):
        first = DeltaBatch([TupleOp(OP_DELETE, "R", "t1", old_values=("x",))])
        second = DeltaBatch([TupleOp(OP_DELETE, "R", "t1", old_values=("x",))])
        with pytest.raises(DeltaError, match="cannot compose"):
            first.compose(second)

    def test_compose_update_update_keeps_first_old_values(self):
        first = DeltaBatch(
            [TupleOp(OP_UPDATE, "R", "t1", values=("b",), old_values=("a",))]
        )
        second = DeltaBatch(
            [TupleOp(OP_UPDATE, "R", "t1", values=("c",), old_values=("b",))]
        )
        (folded,) = first.compose(second).ops
        assert folded.values == ("c",) and folded.old_values == ("a",)

    def test_compose_drops_no_op_updates(self):
        first = DeltaBatch(
            [TupleOp(OP_UPDATE, "R", "t1", values=("b",), old_values=("a",))]
        )
        assert first.compose(first.invert()).is_empty


class TestConstructors:
    def test_from_instances_round_trip(self, rng):
        old = rand_instance(rng, "r", "NR", 12)
        new = rand_batch(rng, old, [0]).apply(old)
        diff = DeltaBatch.from_instances(old, new)
        assert rows_of(diff.apply(old)) == rows_of(new)

    def test_from_instances_identical_is_empty(self):
        old = make([("x",), ("y",)])
        assert DeltaBatch.from_instances(old, old).is_empty

    def test_from_instances_incompatible_schema_rejected(self):
        old = make([("x",)])
        other = make([("x", 1)], attrs=("A", "B"))
        with pytest.raises(DeltaError, match="incompatible schemas"):
            DeltaBatch.from_instances(old, other)

    def test_inserts_from_columns_matches_from_columns(self):
        schema = Schema.single("R", ("A", "B"))
        columns = {"R": {"A": ["x", "y"], "B": [1, None]}}
        nulls = {"R": {"B": [False, True]}}
        batch = DeltaBatch.inserts_from_columns(
            schema, columns, nulls=nulls, id_prefix="n", null_prefix="NB"
        )
        staged = Instance.from_columns(
            schema, columns, nulls=nulls, id_prefix="n", null_prefix="NB"
        )
        assert rows_of(batch.apply(Instance(schema))) == rows_of(staged)
        assert batch.summary() == {"inserted": 2, "deleted": 0, "updated": 0}


class TestWalRecordBridge:
    def test_first_put_is_all_inserts(self):
        from repro.io_.serialization import instance_to_dict

        instance = make([("x",), (LabeledNull("N1"),)])
        record = {
            "op": "put",
            "name": "t",
            "table": {"instance": instance_to_dict(instance)},
        }
        name, batch, new = batch_from_wal_record(record, previous=None)
        assert name == "t"
        assert batch.summary() == {"inserted": 2, "deleted": 0, "updated": 0}
        assert rows_of(new) == rows_of(instance)

    def test_del_inverts_previous(self):
        previous = make([("x",), ("y",)])
        name, batch, new = batch_from_wal_record(
            {"op": "del", "name": "t"}, previous=previous
        )
        assert new is None
        assert batch.summary() == {"inserted": 0, "deleted": 2, "updated": 0}
        assert rows_of(batch.apply(previous)) == {"R": {}}

    def test_del_without_previous_rejected(self):
        with pytest.raises(DeltaError, match="without a previous instance"):
            batch_from_wal_record({"op": "del", "name": "t"}, previous=None)

    def test_malformed_records_rejected(self):
        with pytest.raises(DeltaError, match="no table name"):
            batch_from_wal_record({"op": "put"})
        with pytest.raises(DeltaError, match="unknown WAL record op"):
            batch_from_wal_record({"op": "compact", "name": "t"})
        with pytest.raises(DeltaError, match="malformed WAL put record"):
            batch_from_wal_record({"op": "put", "name": "t", "table": {}})


class TestIntrospection:
    def test_summary_relations_kinds(self):
        batch = DeltaBatch([
            TupleOp(OP_INSERT, "S", "s9", values=("p", 7)),
            TupleOp(OP_DELETE, "R", "r1", old_values=("a", 1, "x")),
        ])
        assert len(batch) == 2 and bool(batch)
        assert batch.relations_touched() == ("R", "S")
        assert [op.kind for op in batch.ops_of_kind(OP_INSERT)] == [OP_INSERT]
        assert repr(batch) == "<DeltaBatch +1 -1 ~0>"
        assert DeltaBatch().is_empty
