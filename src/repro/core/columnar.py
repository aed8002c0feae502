"""Columnar view of instances: per-relation code arrays over a coded adom.

The object model (:mod:`repro.core.instance`) stores one Python object per
cell, which is the right shape for the algorithms' correctness story but the
wrong shape for Alg. 2's bulk pass: compatible-tuple discovery touches every
cell and compares cells across the two instances pairwise.  This module
provides the columnar twin that pass runs on
(:func:`repro.algorithms.compatibility.compatible_tuples_columnar`):

* every distinct **constant** of the instance gets a non-negative integer
  code (first occurrence order, scanning relations in schema order, tuples
  in insertion order, attributes left-to-right);
* every distinct **labeled null** gets a negative code: the ``k``-th null
  (same scan order) is ``-(k + 1)``.  ``code < 0`` therefore *is* the null
  mask, and null identity (label equality) is preserved by the code;
* each relation stores one ``array('q')`` (signed 64-bit) column per
  attribute, plus the tuple ids.

Constants are coded by ``==`` equality — exactly the equality the
compatibility machinery uses — so two cells share a code iff the object
algorithms would treat them as the same value (``1``, ``1.0`` and ``True``
share one code).  The view therefore answers equality questions only; it
cannot reconstruct a cell's type.

The view is built on first use and cached on the instance
(:meth:`repro.core.instance.Instance.columns`); :meth:`Instance.add
<repro.core.instance.Instance.add>` discards it.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import InstanceError, SchemaError
from .schema import RelationSchema, Schema
from .tuples import Tuple
from .values import LabeledNull, Value, is_null

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instance import Instance


def null_code(index: int) -> int:
    """Code of the ``index``-th labeled null (0-based): ``-(index + 1)``."""
    return -(index + 1)


class _Coder:
    """Assigns integer codes to values in first-occurrence scan order."""

    __slots__ = (
        "decode",
        "value_codes",
        "null_values",
        "null_codes",
        "has_none",
        "has_nan",
    )

    def __init__(self) -> None:
        self.decode: list[Value] = []
        self.value_codes: dict[Value, int] = {}
        self.null_values: list[LabeledNull] = []
        self.null_codes: dict[str, int] = {}

        self.has_none = False
        self.has_nan = False

    def code(self, value: Value) -> int:
        """Code ``value``, assigning the next free code on first sight."""
        if is_null(value):
            code = self.null_codes.get(value.label)
            if code is None:
                code = null_code(len(self.null_values))
                self.null_codes[value.label] = code
                self.null_values.append(value)
            return code
        code = self.value_codes.get(value)
        if code is None:
            code = len(self.decode)
            self.value_codes[value] = code
            self.decode.append(value)
            if value is None:
                self.has_none = True
            elif value != value:  # NaN-like: != is not a partial order
                self.has_nan = True
        return code


class ColumnarRelation:
    """One relation as code columns: ``columns[pos][row]`` is a cell code."""

    __slots__ = ("schema", "tuple_ids", "columns")

    def __init__(
        self,
        schema: RelationSchema,
        tuple_ids: tuple[str, ...],
        columns: tuple[array, ...],
    ) -> None:
        self.schema = schema
        self.tuple_ids = tuple_ids
        self.columns = columns

    @property
    def n_rows(self) -> int:
        return len(self.tuple_ids)


class ColumnarInstance:
    """The columnar twin of one :class:`~repro.core.instance.Instance`."""

    __slots__ = (
        "relations",
        "decode",
        "value_codes",
        "null_values",
        "null_codes",
        "has_none",
        "has_nan",
    )

    def __init__(
        self, relations: dict[str, ColumnarRelation], coder: _Coder
    ) -> None:
        self.relations = relations
        self.decode = coder.decode
        self.value_codes = coder.value_codes
        self.null_values = coder.null_values
        self.null_codes = coder.null_codes
        self.has_none = coder.has_none
        self.has_nan = coder.has_nan

    @classmethod
    def from_instance(cls, instance: "Instance") -> "ColumnarInstance":
        """Code every cell of ``instance`` (deterministic scan order)."""
        coder = _Coder()
        code = coder.code
        relations: dict[str, ColumnarRelation] = {}
        for relation in instance.relations():
            schema = relation.schema
            arity = schema.arity
            columns = tuple(array("q") for _ in range(arity))
            ids: list[str] = []
            for t in relation:
                ids.append(t.tuple_id)
                values = t.values
                for position in range(arity):
                    columns[position].append(code(values[position]))
            relations[schema.name] = ColumnarRelation(
                schema, tuple(ids), columns
            )
        return cls(relations, coder)


# -- column-shaped input normalization (Instance.from_columns) --------------


def _normalize_relation_columns(
    schema: RelationSchema, columns
) -> tuple[list[Sequence[Value]], int]:
    """Per-attribute sequences in schema order, plus the row count."""
    if isinstance(columns, Mapping):
        missing = [a for a in schema.attributes if a not in columns]
        if missing:
            raise SchemaError(
                f"from_columns: relation {schema.name!r} is missing "
                f"columns {missing!r}"
            )
        extra = [a for a in columns if a not in schema.attributes]
        if extra:
            raise SchemaError(
                f"from_columns: relation {schema.name!r} got unknown "
                f"columns {extra!r}"
            )
        ordered = [columns[a] for a in schema.attributes]
    else:
        ordered = list(columns)
        if len(ordered) != schema.arity:
            raise SchemaError(
                f"from_columns: relation {schema.name!r} expects "
                f"{schema.arity} columns, got {len(ordered)}"
            )
    lengths = {len(column) for column in ordered}
    if len(lengths) > 1:
        raise InstanceError(
            f"from_columns: relation {schema.name!r} has ragged columns "
            f"(lengths {sorted(lengths)!r})"
        )
    return ordered, (lengths.pop() if lengths else 0)


def _normalize_null_mask(mask, n_rows: int, where: str) -> set[int]:
    """A null mask (bools per row, or row indices) as a set of row indices."""
    if mask is None:
        return set()
    rows: set[int] = set()
    entries = list(mask)
    if entries and all(isinstance(e, bool) for e in entries):
        if len(entries) != n_rows:
            raise InstanceError(
                f"from_columns: boolean null mask for {where} has length "
                f"{len(entries)}, expected {n_rows}"
            )
        rows = {i for i, flagged in enumerate(entries) if flagged}
        return rows
    for entry in entries:
        if not isinstance(entry, int) or isinstance(entry, bool):
            raise InstanceError(
                f"from_columns: null mask for {where} must hold booleans "
                f"or row indices, got {entry!r}"
            )
        if not 0 <= entry < n_rows:
            raise InstanceError(
                f"from_columns: null mask row {entry} for {where} is out "
                f"of range (0..{n_rows - 1})"
            )
        rows.add(entry)
    return rows


def build_from_columns(
    instance_cls,
    schema,
    columns,
    *,
    nulls=None,
    name: str = "I",
    id_prefix: str = "t",
    id_start: int = 1,
    null_prefix: str = "N",
):
    """Backend of :meth:`Instance.from_columns` (kept here with the view).

    ``schema`` may be a relation name (attributes inferred from the
    ``columns`` mapping order), a :class:`RelationSchema`, or a full
    :class:`Schema` (then ``columns`` maps relation name → per-relation
    columns).  ``nulls`` marks cells to replace with fresh labeled nulls
    (``{null_prefix}1``, ``{null_prefix}2``, … in scan order): per
    attribute either a boolean per row or an iterable of row indices,
    nested the same way as ``columns``.
    """
    if isinstance(schema, str):
        if not isinstance(columns, Mapping):
            raise SchemaError(
                "from_columns: passing a relation name requires a "
                "columns mapping (attribute -> values)"
            )
        schema = RelationSchema(schema, tuple(columns))
    if isinstance(schema, RelationSchema):
        full_schema = Schema([schema])
        per_relation = {schema.name: columns}
        null_spec = {schema.name: nulls} if nulls is not None else {}
    else:
        full_schema = schema
        if not isinstance(columns, Mapping):
            raise SchemaError(
                "from_columns: a multi-relation schema requires a columns "
                "mapping (relation name -> columns)"
            )
        per_relation = dict(columns)
        unknown = [r for r in per_relation if r not in full_schema]
        if unknown:
            raise SchemaError(
                f"from_columns: unknown relations {unknown!r}"
            )
        null_spec = dict(nulls) if nulls is not None else {}

    instance = instance_cls(full_schema, name=name)
    counter = id_start
    fresh = 0
    for relation_schema in full_schema:
        rel_name = relation_schema.name
        if rel_name not in per_relation:
            continue
        ordered, n_rows = _normalize_relation_columns(
            relation_schema, per_relation[rel_name]
        )
        rel_nulls = null_spec.get(rel_name)
        masks: list[set[int]] = []
        for position, attribute in enumerate(relation_schema.attributes):
            mask = None
            if rel_nulls is not None:
                if isinstance(rel_nulls, Mapping):
                    mask = rel_nulls.get(attribute)
                else:
                    mask = list(rel_nulls)[position]
            masks.append(
                _normalize_null_mask(
                    mask, n_rows, f"{rel_name}.{attribute}"
                )
            )
        any_nulls = any(masks)
        for row in range(n_rows):
            if any_nulls:
                values = []
                for position, column in enumerate(ordered):
                    if row in masks[position]:
                        fresh += 1
                        values.append(LabeledNull(f"{null_prefix}{fresh}"))
                    else:
                        values.append(column[row])
                values = tuple(values)
            else:
                values = tuple(column[row] for column in ordered)
            instance.add(
                Tuple(f"{id_prefix}{counter}", relation_schema, values)
            )
            counter += 1
    return instance


__all__ = [
    "ColumnarInstance",
    "ColumnarRelation",
    "build_from_columns",
    "null_code",
]
