"""The :class:`DeltaBatch` model: tuple-level edits between instance versions.

A delta batch is a set of per-relation tuple operations — ``insert``,
``delete``, ``update`` — describing how one instance evolves into the next.
Batches are the common currency of the incremental pipeline
(:mod:`repro.delta`): sketch maintenance, LSH rebucketing, signature-index
patching, and warm-started comparison all consume the same batch.

Batches can be expressed from several sources:

* two instance versions (:meth:`DeltaBatch.from_instances`),
* a :mod:`repro.versioning` diff
  (:func:`repro.versioning.batch_from_diff`),
* column-shaped bulk data with null masks, mirroring
  :meth:`Instance.from_columns` (:meth:`DeltaBatch.inserts_from_columns`),
* replayed write-ahead-log records of an index store
  (:func:`batch_from_wal_record`).

Labeled-null identity is respected throughout: nulls inside a batch carry
their labels, so a batch that re-asserts a null of the base instance keeps
referring to the *same* unknown value, while fresh labels introduce new
unknowns.  ``apply``/``compose``/``invert`` obey the usual delta algebra:

    batch.invert().apply(batch.apply(I)) == I        (up to object identity)
    a.compose(b).apply(I) == b.apply(a.apply(I))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..core.errors import DeltaError, InstanceError
from ..core.instance import Instance
from ..core.tuples import Tuple
from ..core.values import Value

OP_INSERT = "insert"
OP_DELETE = "delete"
OP_UPDATE = "update"
_KINDS = (OP_INSERT, OP_DELETE, OP_UPDATE)


@dataclass(frozen=True)
class TupleOp:
    """One tuple-level operation of a delta batch.

    Attributes
    ----------
    kind:
        ``"insert"``, ``"delete"``, or ``"update"``.
    relation, tuple_id:
        The target tuple.  An ``update`` keeps its tuple id and replaces
        the values, so identity-tracking consumers (warm matching, the
        versioning report) can follow a tuple across versions.
    values:
        The new cell values (``insert``/``update``).
    old_values:
        The previous cell values (``delete``/``update``); required so
        batches are invertible and so sketch maintenance can retire the
        old tokens without consulting the base instance.
    """

    kind: str
    relation: str
    tuple_id: str
    values: tuple[Value, ...] | None = None
    old_values: tuple[Value, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DeltaError(f"unknown delta op kind {self.kind!r}")
        if self.kind in (OP_INSERT, OP_UPDATE) and self.values is None:
            raise DeltaError(f"{self.kind} op {self.tuple_id!r} needs values")
        if self.kind in (OP_DELETE, OP_UPDATE) and self.old_values is None:
            raise DeltaError(
                f"{self.kind} op {self.tuple_id!r} needs old_values"
            )
        if self.values is not None and not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if self.old_values is not None and not isinstance(
            self.old_values, tuple
        ):
            object.__setattr__(self, "old_values", tuple(self.old_values))


class DeltaBatch:
    """An ordered set of tuple operations, at most one per tuple id.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> old = Instance.from_rows("R", ("A",), [("x",), ("y",)])
    >>> new = Instance.from_rows("R", ("A",), [("x",), ("z",)])
    >>> batch = DeltaBatch.from_instances(old, new)
    >>> batch.summary()
    {'inserted': 0, 'deleted': 0, 'updated': 1}
    >>> [t.values for t in batch.apply(old).relation("R")]
    [('x',), ('z',)]
    """

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[TupleOp] = ()) -> None:
        self.ops: tuple[TupleOp, ...] = tuple(ops)
        keys: set[tuple[str, str]] = set()
        for op in self.ops:
            key = (op.relation, op.tuple_id)
            if key in keys:
                raise DeltaError(
                    f"batch holds two ops for tuple {op.tuple_id!r} of "
                    f"relation {op.relation!r}; compose batches instead"
                )
            keys.add(key)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TupleOp]:
        return iter(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    @property
    def is_empty(self) -> bool:
        return not self.ops

    def relations_touched(self) -> tuple[str, ...]:
        """Relation names touched by this batch, sorted."""
        return tuple(sorted({op.relation for op in self.ops}))

    def ops_of_kind(self, kind: str) -> tuple[TupleOp, ...]:
        return tuple(op for op in self.ops if op.kind == kind)

    def summary(self) -> dict[str, int]:
        """Op counts by kind."""
        counts = {"inserted": 0, "deleted": 0, "updated": 0}
        for op in self.ops:
            if op.kind == OP_INSERT:
                counts["inserted"] += 1
            elif op.kind == OP_DELETE:
                counts["deleted"] += 1
            else:
                counts["updated"] += 1
        return counts

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"<DeltaBatch +{s['inserted']} -{s['deleted']} "
            f"~{s['updated']}>"
        )

    # -- delta algebra ------------------------------------------------------

    def apply(self, instance: Instance, name: str | None = None) -> Instance:
        """The instance after this batch, sharing untouched tuple objects.

        Ordering is preserved exactly as an in-place edit would: surviving
        tuples keep their positions, updated tuples are replaced in place,
        inserted tuples are appended in op order.  Preconditions are
        checked in op order (:class:`~repro.core.errors.DeltaError` on
        violation): inserts must be fresh ids (an id may be reused only
        once its tuple is deleted, in this batch or earlier),
        deletes/updates must name existing tuples whose current values
        equal the recorded ``old_values``.  The work is one dict copy per
        relation plus the ops (:meth:`Instance.edited`).
        """
        for op in self.ops:
            if op.relation not in instance.schema:
                raise DeltaError(
                    f"batch touches unknown relation {op.relation!r}"
                )
        edits: dict[str, dict[str, Tuple | None]] = {}
        for op in self.ops:
            relation = instance.relation(op.relation)
            if op.tuple_id not in relation:
                if op.kind != OP_INSERT:
                    raise DeltaError(
                        f"{op.kind} of unknown tuple {op.tuple_id!r} in "
                        f"relation {op.relation!r}"
                    )
                continue
            t = relation.get(op.tuple_id)
            if op.kind == OP_INSERT:
                raise DeltaError(
                    f"insert of existing tuple {t.tuple_id!r} in "
                    f"relation {op.relation!r}"
                )
            if op.old_values != t.values:
                raise DeltaError(
                    f"{op.kind} of tuple {t.tuple_id!r} records stale "
                    f"old values {op.old_values!r} (instance holds "
                    f"{t.values!r})"
                )
            edits.setdefault(op.relation, {})[op.tuple_id] = (
                Tuple(t.tuple_id, relation.schema, op.values)
                if op.kind == OP_UPDATE
                else None
            )
        inserts = (
            Tuple(op.tuple_id, instance.schema.relation(op.relation), op.values)
            for op in self.ops
            if op.kind == OP_INSERT
        )
        try:
            return instance.edited(edits, inserts, name=name)
        except InstanceError as error:
            # Same-relation reuse failed above; this is another relation's id.
            raise DeltaError(f"insert reuses a live tuple id: {error}") from error

    def invert(self) -> "DeltaBatch":
        """The batch undoing this one: ``b.invert().apply(b.apply(I)) ≅ I``."""
        inverted = []
        for op in self.ops:
            if op.kind == OP_INSERT:
                inverted.append(
                    TupleOp(OP_DELETE, op.relation, op.tuple_id, old_values=op.values)
                )
            elif op.kind == OP_DELETE:
                inverted.append(
                    TupleOp(OP_INSERT, op.relation, op.tuple_id, values=op.old_values)
                )
            else:
                inverted.append(
                    TupleOp(
                        OP_UPDATE,
                        op.relation,
                        op.tuple_id,
                        values=op.old_values,
                        old_values=op.values,
                    )
                )
        return DeltaBatch(inverted)

    def compose(self, later: "DeltaBatch") -> "DeltaBatch":
        """The single batch equivalent to this batch followed by ``later``.

        Per tuple id the usual fold rules apply (``insert∘delete``
        annihilates, ``insert∘update`` stays an insert with the later
        values, ``update∘update`` keeps the first old values, ...);
        incoherent sequences (e.g. ``delete∘delete``) raise
        :class:`~repro.core.errors.DeltaError`.
        """
        merged: dict[tuple[str, str], TupleOp | None] = {
            (op.relation, op.tuple_id): op for op in self.ops
        }
        order: list[tuple[str, str]] = [
            (op.relation, op.tuple_id) for op in self.ops
        ]
        for op in later.ops:
            key = (op.relation, op.tuple_id)
            first = merged.get(key)
            if first is None:
                if key not in merged:
                    order.append(key)
                merged[key] = op
                continue
            pair = (first.kind, op.kind)
            if pair == (OP_INSERT, OP_UPDATE):
                folded: TupleOp | None = TupleOp(
                    OP_INSERT, op.relation, op.tuple_id, values=op.values
                )
            elif pair == (OP_INSERT, OP_DELETE):
                folded = None  # inserted then deleted: nothing happened
            elif pair == (OP_UPDATE, OP_UPDATE):
                folded = TupleOp(
                    OP_UPDATE,
                    op.relation,
                    op.tuple_id,
                    values=op.values,
                    old_values=first.old_values,
                )
            elif pair == (OP_UPDATE, OP_DELETE):
                folded = TupleOp(
                    OP_DELETE, op.relation, op.tuple_id, old_values=first.old_values
                )
            elif pair == (OP_DELETE, OP_INSERT):
                folded = TupleOp(
                    OP_UPDATE,
                    op.relation,
                    op.tuple_id,
                    values=op.values,
                    old_values=first.old_values,
                )
            else:
                raise DeltaError(
                    f"cannot compose {first.kind} with {op.kind} for tuple "
                    f"{op.tuple_id!r} of relation {op.relation!r}"
                )
            merged[key] = folded
        return DeltaBatch(
            op
            for key in order
            if (op := merged[key]) is not None
            and not (op.kind == OP_UPDATE and op.values == op.old_values)
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_instances(cls, old: Instance, new: Instance) -> "DeltaBatch":
        """The batch turning ``old`` into ``new``, keyed by tuple id.

        Tuples present only in ``new`` become inserts (in insertion
        order), tuples present only in ``old`` become deletes, and shared
        ids with differing values become updates.  Both instances must
        share a compatible schema.
        """
        if not old.schema.is_compatible_with(new.schema):
            raise DeltaError(
                "cannot diff instances with incompatible schemas"
            )
        ops: list[TupleOp] = []
        for relation in old.relations():
            rel_name = relation.schema.name
            new_relation = new.relation(rel_name)
            for t in relation:
                if t.tuple_id not in new_relation:
                    ops.append(
                        TupleOp(
                            OP_DELETE, rel_name, t.tuple_id, old_values=t.values
                        )
                    )
                    continue
                t_new = new_relation.get(t.tuple_id)
                if t_new.values != t.values:
                    ops.append(
                        TupleOp(
                            OP_UPDATE,
                            rel_name,
                            t.tuple_id,
                            values=t_new.values,
                            old_values=t.values,
                        )
                    )
            for t_new in new_relation:
                if t_new.tuple_id not in relation:
                    ops.append(
                        TupleOp(
                            OP_INSERT, rel_name, t_new.tuple_id, values=t_new.values
                        )
                    )
        return cls(ops)

    @classmethod
    def inserts_from_columns(
        cls,
        schema,
        columns,
        *,
        nulls=None,
        id_prefix: str = "d",
        id_start: int = 1,
        null_prefix: str = "ND",
    ) -> "DeltaBatch":
        """Bulk-insert batch from column-shaped data with null masks.

        Mirrors :meth:`Instance.from_columns` (same schema/columns/nulls
        conventions); every produced row becomes one insert op.  Pick
        ``id_prefix``/``null_prefix`` disjoint from the target instance's
        id and label spaces.
        """
        staged = Instance.from_columns(
            schema,
            columns,
            nulls=nulls,
            id_prefix=id_prefix,
            id_start=id_start,
            null_prefix=null_prefix,
        )
        return cls(
            TupleOp(OP_INSERT, t.relation.name, t.tuple_id, values=t.values)
            for t in staged.tuples()
        )


def batch_from_wal_record(
    record: Mapping, previous: Instance | None = None
) -> tuple[str, DeltaBatch, Instance | None]:
    """Express one decoded index-store WAL record as a delta batch.

    ``record`` is a decoded log payload (``{"op": "put"|"del", "name":
    ..., ...}``, see :mod:`repro.index.store`); ``previous`` is the
    table's instance before the record (``None`` for a first ``put``).
    Returns ``(table_name, batch, new_instance)`` where ``new_instance``
    is ``None`` after a ``del``.  Replaying a store's durable log through
    :class:`~repro.delta.SketchMaintainer` with these batches reproduces
    recovery-on-open byte-for-byte (property-tested).
    """
    from ..io_.serialization import instance_from_dict

    op = record.get("op")
    name = record.get("name")
    if not isinstance(name, str):
        raise DeltaError(f"WAL record has no table name: {record!r}")
    if op == "put":
        try:
            new_instance = instance_from_dict(record["table"]["instance"])
        except (KeyError, TypeError) as error:
            raise DeltaError(f"malformed WAL put record: {error}") from error
        base = (
            previous
            if previous is not None
            else Instance(new_instance.schema, name=new_instance.name)
        )
        return name, DeltaBatch.from_instances(base, new_instance), new_instance
    if op == "del":
        if previous is None:
            raise DeltaError(
                f"WAL del record for {name!r} without a previous instance"
            )
        batch = DeltaBatch(
            TupleOp(OP_DELETE, t.relation.name, t.tuple_id, old_values=t.values)
            for t in previous.tuples()
        )
        return name, batch, None
    raise DeltaError(f"unknown WAL record op {op!r}")


__all__ = [
    "DeltaBatch",
    "TupleOp",
    "OP_DELETE",
    "OP_INSERT",
    "OP_UPDATE",
    "batch_from_wal_record",
]
