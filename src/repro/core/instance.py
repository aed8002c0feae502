"""Instances with labeled nulls.

An instance (paper Sec. 2) assigns to each relation symbol a finite set of
tuples over ``Consts ∪ Vars``.  This module provides:

* :class:`RelationInstance` — the tuples of a single relation;
* :class:`Instance` — a full multi-relation instance with the derived notions
  the paper uses throughout: ``Consts(I)``, ``Vars(I)``, ``adom(I)``,
  ``ids(I)``, ``size(I)``, groundness, null renaming, and schema padding.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InstanceError, SchemaError
from .schema import RelationSchema, Schema
from .tuples import Tuple
from .values import LabeledNull, NullFactory, Value, is_constant, is_null


class RelationInstance:
    """The tuples of one relation inside an instance.

    Tuples are stored in insertion order; lookup by tuple id is O(1).
    """

    def __init__(self, schema: RelationSchema, tuples: Iterable[Tuple] = ()) -> None:
        self.schema = schema
        self._tuples: dict[str, Tuple] = {}
        for t in tuples:
            self.add(t)

    def add(self, t: Tuple) -> None:
        """Add a tuple, enforcing schema agreement and id uniqueness."""
        if t.relation.name != self.schema.name:
            raise SchemaError(
                f"tuple {t.tuple_id!r} belongs to relation {t.relation.name!r}, "
                f"not {self.schema.name!r}"
            )
        if t.relation.attributes != self.schema.attributes:
            raise SchemaError(
                f"tuple {t.tuple_id!r} disagrees with relation schema "
                f"{self.schema.name!r} on attributes"
            )
        if t.tuple_id in self._tuples:
            raise InstanceError(
                f"duplicate tuple id {t.tuple_id!r} in relation {self.schema.name!r}"
            )
        self._tuples[t.tuple_id] = t

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples.values())

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, tuple_id: str) -> bool:
        return tuple_id in self._tuples

    def get(self, tuple_id: str) -> Tuple:
        """Return the tuple with the given id (raises if absent)."""
        try:
            return self._tuples[tuple_id]
        except KeyError:
            raise InstanceError(
                f"relation {self.schema.name!r} has no tuple {tuple_id!r}"
            ) from None

    def ids(self) -> set[str]:
        """The tuple ids of this relation."""
        return set(self._tuples)

    def content_multiset(self) -> Counter:
        """Multiset of identity-free tuple contents (for ground comparison)."""
        return Counter(t.content() for t in self)


class Instance:
    """A multi-relation instance with labeled nulls.

    Parameters
    ----------
    schema:
        The relational schema of this instance.
    name:
        Optional human-readable name used in reports and explanations.

    Examples
    --------
    >>> from repro.core.values import LabeledNull
    >>> inst = Instance.from_rows(
    ...     "Conf", ("Name", "Year"),
    ...     [("VLDB", 1975), ("SIGMOD", LabeledNull("N1"))],
    ... )
    >>> len(inst)
    2
    >>> sorted(n.label for n in inst.vars())
    ['N1']
    """

    def __init__(self, schema: Schema, name: str = "I") -> None:
        self.schema = schema
        self.name = name
        self._relations: dict[str, RelationInstance] = {
            rel.name: RelationInstance(rel) for rel in schema
        }
        self._ids: dict[str, str] = {}  # tuple id -> relation name
        self._columnar = None  # cached ColumnarInstance view (never pickled)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        relation_name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[Value]],
        name: str = "I",
        id_prefix: str = "t",
        id_start: int = 1,
    ) -> "Instance":
        """Build a single-relation instance from plain rows.

        Tuple ids are generated as ``{id_prefix}{counter}``.  This is the main
        entry point for examples and tests.
        """
        schema = Schema.single(relation_name, attributes)
        instance = cls(schema, name=name)
        relation = schema.relation(relation_name)
        for offset, row in enumerate(rows):
            instance.add(Tuple(f"{id_prefix}{id_start + offset}", relation, row))
        return instance

    @classmethod
    def from_dicts(
        cls,
        relation_name: str,
        records: Sequence[Mapping[str, Value]],
        attributes: Sequence[str] | None = None,
        name: str = "I",
        id_prefix: str = "t",
    ) -> "Instance":
        """Build a single-relation instance from dict records.

        ``attributes`` fixes the column order; when omitted it is taken
        from the first record's keys.  Missing keys raise — use explicit
        :class:`~repro.core.values.LabeledNull` values for unknowns (the
        library never silently invents nulls).
        """
        records = list(records)
        if attributes is None:
            if not records:
                raise SchemaError(
                    "attributes are required for an empty record list"
                )
            attributes = tuple(records[0].keys())
        rows = []
        for record in records:
            missing = [a for a in attributes if a not in record]
            if missing:
                raise SchemaError(
                    f"record is missing attributes {missing}; use "
                    "LabeledNull values for unknowns"
                )
            rows.append(tuple(record[a] for a in attributes))
        return cls.from_rows(
            relation_name, attributes, rows, name=name, id_prefix=id_prefix
        )

    @classmethod
    def from_columns(
        cls,
        schema,
        columns,
        *,
        nulls=None,
        name: str = "I",
        id_prefix: str = "t",
        id_start: int = 1,
        null_prefix: str = "N",
    ) -> "Instance":
        """Build an instance from column-shaped data (the bulk-ingest path).

        ``schema`` is a relation name (attributes taken from the mapping
        order of ``columns``), a :class:`RelationSchema`, or a full
        :class:`Schema`; ``columns`` holds one value sequence per attribute
        (nested per relation for a full schema).  ``nulls`` optionally marks
        cells to replace with fresh :class:`LabeledNull` values — per
        attribute either one boolean per row or an iterable of row indices.

        Tuple ids, values, and iteration order are byte-identical to the
        equivalent :meth:`from_rows` build; like any instance, it builds
        its columnar view (:meth:`columns`) on first use.

        Examples
        --------
        >>> inst = Instance.from_columns(
        ...     "Conf", {"Name": ["VLDB", "SIGMOD"], "Year": [1975, 1974]},
        ...     nulls={"Year": [False, True]},
        ... )
        >>> sorted(n.label for n in inst.vars())
        ['N1']
        """
        from .columnar import build_from_columns

        return build_from_columns(
            cls,
            schema,
            columns,
            nulls=nulls,
            name=name,
            id_prefix=id_prefix,
            id_start=id_start,
            null_prefix=null_prefix,
        )

    @classmethod
    def empty_like(cls, other: "Instance", name: str | None = None) -> "Instance":
        """An empty instance over the same schema as ``other``."""
        return cls(other.schema, name=name if name is not None else other.name)

    def add(self, t: Tuple) -> None:
        """Add a tuple to the relation it belongs to."""
        if t.tuple_id in self._ids:
            raise InstanceError(f"duplicate tuple id {t.tuple_id!r} in instance {self.name!r}")
        if t.relation.name not in self._relations:
            raise SchemaError(
                f"instance {self.name!r} has no relation {t.relation.name!r}"
            )
        self._relations[t.relation.name].add(t)
        self._ids[t.tuple_id] = t.relation.name
        self._columnar = None

    def edited(
        self,
        edits: Mapping[str, Mapping[str, Tuple | None]],
        inserts: Iterable[Tuple] = (),
        name: str | None = None,
    ) -> "Instance":
        """A copy with tuples replaced or dropped in place, then ``inserts``.

        ``edits[relation][tuple_id]`` is the tuple that takes the listed
        tuple's position, or ``None`` to drop it; the caller vouches that
        each listed id is in that relation and each replacement keeps its
        id and relation.  ``inserts`` go through :meth:`add`, with its
        checks.  Untouched tuple objects are shared.  Tuples, ids and
        pickled bytes come out as re-adding the survivors relation by
        relation, then the inserts, would give them, but the survivors
        cost one dict copy per relation instead of a pass in Python.
        """
        result = Instance(self.schema, name=self.name if name is None else name)
        ids = result._ids
        for rel_name, relation in self._relations.items():
            tuples = dict(relation._tuples)
            for tuple_id, t in edits.get(rel_name, {}).items():
                if t is None:
                    del tuples[tuple_id]
                else:
                    tuples[tuple_id] = t
            result._relations[rel_name]._tuples = tuples
            ids.update(dict.fromkeys(tuples, rel_name))
        for t in inserts:
            result.add(t)
        return result

    def add_row(
        self, relation_name: str, tuple_id: str, values: Sequence[Value]
    ) -> Tuple:
        """Create and add a tuple from raw values; returns the new tuple."""
        t = Tuple(tuple_id, self.schema.relation(relation_name), values)
        self.add(t)
        return t

    # -- columnar view --------------------------------------------------------

    def columns(self):
        """The cached columnar view of this instance.

        Built on first access (one pass over all cells) for compatible-tuple
        discovery; see :mod:`repro.core.columnar` for the representation.
        :meth:`add` discards the cached view.  Mutating relations directly
        (bypassing :meth:`add`) does not invalidate the cache.
        """
        view = self._columnar
        if view is None:
            from .columnar import ColumnarInstance

            view = ColumnarInstance.from_instance(self)
            self._columnar = view
        return view

    def to_columns(self) -> dict[str, dict[str, list[Value]]]:
        """Column-shaped export: ``{relation: {attribute: [values...]}}``.

        ``Instance.from_columns(self.schema, self.to_columns())`` round-trips
        the cell values (tuple ids are regenerated in scan order).
        """
        return {
            relation.schema.name: {
                attribute: [t.values[position] for t in relation]
                for position, attribute in enumerate(
                    relation.schema.attributes
                )
            }
            for relation in self.relations()
        }

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The columnar view is a derived cache; dropping it keeps pickles
        # canonical (row-wise and from_columns builds serialize identically).
        state = self.__dict__.copy()
        state.pop("_columnar", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Intern the attribute names, as pickle's default BUILD path would:
        # without this, an instance that round-tripped through a worker
        # re-pickles with different string memoization than one that never
        # left the process, breaking byte-identical result comparisons.
        self.__dict__.update(
            (sys.intern(k) if type(k) is str else k, v)
            for k, v in state.items()
        )
        self._columnar = None

    # -- access ---------------------------------------------------------------

    def relation(self, name: str) -> RelationInstance:
        """Return the :class:`RelationInstance` for ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"instance {self.name!r} has no relation {name!r}"
            ) from None

    def relations(self) -> Iterator[RelationInstance]:
        """Iterate over the relation instances."""
        return iter(self._relations.values())

    def tuples(self) -> Iterator[Tuple]:
        """Iterate over all tuples of all relations."""
        for relation in self._relations.values():
            yield from relation

    def get_tuple(self, tuple_id: str) -> Tuple:
        """Return the tuple with the given id, searching all relations."""
        try:
            relation_name = self._ids[tuple_id]
        except KeyError:
            raise InstanceError(
                f"instance {self.name!r} has no tuple {tuple_id!r}"
            ) from None
        return self._relations[relation_name].get(tuple_id)

    def ids(self) -> set[str]:
        """``ids(I)``: the set of all tuple ids."""
        return set(self._ids)

    def tuple_ids(self) -> Iterator[str]:
        """All tuple ids in :meth:`tuples` order."""
        return itertools.chain.from_iterable(
            relation._tuples for relation in self._relations.values()
        )

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Tuple]:
        return self.tuples()

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{name}:{len(rel)}" for name, rel in self._relations.items()
        )
        return f"<Instance {self.name!r} [{counts}]>"

    # -- derived notions from the paper ---------------------------------------

    def consts(self) -> set[Value]:
        """``Consts(I)``: the set of constants appearing in the instance."""
        return {v for t in self.tuples() for v in t.values if is_constant(v)}

    def vars(self) -> set[LabeledNull]:
        """``Vars(I)``: the set of labeled nulls appearing in the instance."""
        return {v for t in self.tuples() for v in t.values if is_null(v)}

    def adom(self) -> set[Value]:
        """``adom(I) = Consts(I) ∪ Vars(I)``."""
        return {v for t in self.tuples() for v in t.values}

    def is_ground(self) -> bool:
        """Whether ``Vars(I) = ∅``."""
        return all(t.is_ground() for t in self.tuples())

    def size(self) -> int:
        """``size(I) = Σ_t arity(R)`` (Def. 5.1), summed over relations."""
        return sum(len(rel) * rel.schema.arity for rel in self._relations.values())

    def null_occurrence_count(self) -> int:
        """Number of null-valued cells (the ``#V`` column of Tables 2–3)."""
        return sum(1 for t in self.tuples() for v in t.values if is_null(v))

    def constant_occurrence_count(self) -> int:
        """Number of constant-valued cells (the ``#C`` column of Tables 2–3)."""
        return sum(1 for t in self.tuples() for v in t.values if is_constant(v))

    def distinct_value_count(self) -> int:
        """Number of distinct values in ``adom(I)`` (Table 1's ``#Distinct``)."""
        return len(self.adom())

    # -- transformation ---------------------------------------------------------

    def map_values(
        self, mapping: Mapping[Value, Value], name: str | None = None
    ) -> "Instance":
        """Return a copy with ``mapping`` applied to every cell.

        Values not in ``mapping`` are unchanged.  Used to apply value mappings
        ``h(I)`` and null renamings.
        """
        result = Instance(self.schema, name=name if name is not None else self.name)
        for t in self.tuples():
            result.add(t.substituted(mapping))
        return result

    def rename_nulls(
        self, renaming: Mapping[LabeledNull, LabeledNull], name: str | None = None
    ) -> "Instance":
        """Apply an *injective* null renaming (semantics-preserving).

        Raises :class:`InstanceError` if the renaming equates nulls that were
        distinct, which would change the represented incomplete database.
        """
        images = list(renaming.values())
        if len(set(images)) != len(images):
            raise InstanceError("null renaming must be injective")
        targets = set(images)
        untouched = {v for v in self.vars() if v not in renaming}
        if targets & untouched:
            raise InstanceError(
                "null renaming would capture an existing null: "
                f"{sorted((targets & untouched), key=lambda n: n.label)}"
            )
        return self.map_values(dict(renaming), name=name)

    def with_fresh_ids(
        self, prefix: str, name: str | None = None, start: int = 1
    ) -> "Instance":
        """Return a copy whose tuple ids are ``{prefix}1, {prefix}2, ...``.

        Comparison assumes ``ids(I) ∩ ids(I') = ∅``; this helper establishes
        that precondition.  Relative tuple order is preserved.
        """
        result = Instance(self.schema, name=name if name is not None else self.name)
        counter = itertools.count(start)
        for t in self.tuples():
            result.add(t.with_id(f"{prefix}{next(counter)}"))
        return result

    def shuffled(self, rng, name: str | None = None) -> "Instance":
        """Return a copy with tuple order shuffled per relation (versioning S op)."""
        result = Instance(self.schema, name=name if name is not None else self.name)
        for relation in self.relations():
            order = list(relation)
            rng.shuffle(order)
            for t in order:
                result.add(t)
        return result

    def filtered(
        self, predicate: Callable[[Tuple], bool], name: str | None = None
    ) -> "Instance":
        """Return a copy keeping only tuples satisfying ``predicate``."""
        result = Instance(self.schema, name=name if name is not None else self.name)
        for t in self.tuples():
            if predicate(t):
                result.add(t)
        return result

    def padded_to(
        self,
        target_schema: Schema,
        fresh: NullFactory | None = None,
        name: str | None = None,
    ) -> "Instance":
        """Pad this instance to ``target_schema`` with fresh-null columns.

        Implements the schema-alignment trick of Sec. 4.3: an attribute
        present in the target schema but missing here is added with a distinct
        labeled null per row, so tuples can be matched without constraints on
        that attribute.
        """
        fresh = fresh if fresh is not None else NullFactory(prefix="Pad")
        result = Instance(target_schema, name=name if name is not None else self.name)
        for relation in self.relations():
            target_rel = target_schema.relation(relation.schema.name)
            extra = [
                a for a in target_rel.attributes
                if not relation.schema.has_attribute(a)
            ]
            dropped = [
                a for a in relation.schema.attributes
                if not target_rel.has_attribute(a)
            ]
            if dropped:
                raise SchemaError(
                    f"padded_to cannot drop attributes {dropped} of relation "
                    f"{relation.schema.name!r}; project first"
                )
            for t in relation:
                values = []
                for attribute in target_rel.attributes:
                    if attribute in extra:
                        values.append(fresh())
                    else:
                        values.append(t[attribute])
                result.add(Tuple(t.tuple_id, target_rel, values))
        return result

    def projected(self, relation_name: str, attributes: Sequence[str],
                  name: str | None = None) -> "Instance":
        """Project a single-relation instance onto ``attributes``.

        Used by the versioning substrate's column-removal (C) operation.
        """
        old_rel = self.schema.relation(relation_name)
        new_rel = old_rel.project(attributes)
        result = Instance(Schema([new_rel]), name=name if name is not None else self.name)
        for t in self.relation(relation_name):
            result.add(Tuple(t.tuple_id, new_rel, [t[a] for a in new_rel.attributes]))
        return result

    def pretty(self, max_rows: int = 20) -> str:
        """Render the instance as aligned text tables (one per relation).

        Labeled nulls render as their labels; intended for examples,
        debugging, and documentation, not for serialization (use
        :mod:`repro.io_` for that).
        """
        blocks = []
        for relation in self.relations():
            headers = ("id",) + relation.schema.attributes
            rows = []
            for index, t in enumerate(relation):
                if index >= max_rows:
                    rows.append(("...",) * len(headers))
                    break
                rows.append(
                    (t.tuple_id,)
                    + tuple(
                        v.label if is_null(v) else str(v) for v in t.values
                    )
                )
            widths = [len(h) for h in headers]
            for row in rows:
                for position, cell in enumerate(row):
                    widths[position] = max(widths[position], len(cell))
            lines = [f"{relation.schema.name} ({len(relation)} tuples)"]
            lines.append(
                "  ".join(
                    h.ljust(widths[i]) for i, h in enumerate(headers)
                )
            )
            lines.append("  ".join("-" * w for w in widths))
            for row in rows:
                lines.append(
                    "  ".join(
                        cell.ljust(widths[i]) for i, cell in enumerate(row)
                    )
                )
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)

    # -- comparison-oriented helpers -------------------------------------------

    def content_multiset(self) -> Counter:
        """Multiset of identity-free tuple contents across all relations."""
        counter: Counter = Counter()
        for relation in self.relations():
            counter.update(relation.content_multiset())
        return counter

    def assert_comparable_with(self, other: "Instance") -> None:
        """Validate the preconditions of instance comparison (Sec. 4).

        Both instances must share a schema, and their tuple ids and labeled
        nulls must be disjoint.  Raises on violation; use
        :func:`prepare_for_comparison` to repair violations automatically.
        """
        if not self.schema.is_compatible_with(other.schema):
            raise SchemaError(
                f"instances {self.name!r} and {other.name!r} have incompatible schemas"
            )
        shared_ids = self.ids() & other.ids()
        if shared_ids:
            raise InstanceError(
                f"instances share tuple ids, e.g. {sorted(shared_ids)[:5]}"
            )
        shared_nulls = self.vars() & other.vars()
        if shared_nulls:
            raise InstanceError(
                "instances share labeled nulls, e.g. "
                f"{sorted(n.label for n in shared_nulls)[:5]}"
            )


def prepare_side(instance: Instance, side: str) -> Instance:
    """Canonical prepared form of one comparison side.

    Like :func:`prepare_for_comparison`, but each side is prepared
    *independently*: tuple ids become ``l1, l2, ...`` / ``r1, r2, ...`` and
    **every** labeled null is renamed to ``NL1, NL2, ...`` / ``NR1, NR2,
    ...`` in first-occurrence order.  Because the two sides draw from
    disjoint id and label spaces, any instance prepared as ``"left"`` is
    comparable with any instance prepared as ``"right"`` without looking at
    the other side — which is what lets the parallel engine cache one
    prepared copy (and its signature index) per instance and reuse it
    across every pair it participates in.

    Renaming nulls and re-identifying tuples are semantics-preserving
    (paper Sec. 4); the prepared instance is isomorphic to the input.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    id_prefix, null_prefix = ("l", "NL") if side == "left" else ("r", "NR")
    prepared = instance.with_fresh_ids(id_prefix)
    renaming: dict[LabeledNull, LabeledNull] = {}
    counter = itertools.count(1)
    for t in prepared.tuples():
        for value in t.values:
            if is_null(value) and value not in renaming:
                renaming[value] = LabeledNull(f"{null_prefix}{next(counter)}")
    if renaming:
        prepared = prepared.map_values(dict(renaming))
    return prepared


def prepare_for_comparison(left: Instance, right: Instance) -> tuple[Instance, Instance]:
    """Return copies of ``left``/``right`` satisfying comparison preconditions.

    Re-ids the tuples (``l*`` on the left, ``r*`` on the right) and renames the
    right instance's nulls away from the left's.  Neither change affects the
    semantics of the instances (paper Sec. 4's "not a limiting assumption").
    """
    if not left.schema.is_compatible_with(right.schema):
        raise SchemaError(
            f"instances {left.name!r} and {right.name!r} have incompatible schemas"
        )
    left_prepared = left.with_fresh_ids("l")
    right_prepared = right.with_fresh_ids("r")
    left_labels = {n.label for n in left_prepared.vars()}
    taken = left_labels | {n.label for n in right_prepared.vars()}
    renaming = {}
    counter = itertools.count()
    for null in sorted(right_prepared.vars(), key=lambda n: n.label):
        if null.label in left_labels:
            while True:
                candidate = f"Rn{next(counter)}"
                if candidate not in taken:
                    break
            renaming[null] = LabeledNull(candidate)
            taken.add(candidate)
    if renaming:
        right_prepared = right_prepared.rename_nulls(renaming)
    return left_prepared, right_prepared
