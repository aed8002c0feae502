"""CSV import/export for instances with labeled nulls.

Labeled nulls are encoded as ``_N:<label>`` cells (configurable); everything
else round-trips as strings.  This mirrors how data-repair tools exchange
instances containing variables via CSV files.

Constants that would collide with the null encoding — a constant whose text
itself starts with the null prefix (or with the escape prefix) — are written
with the ``_C:`` escape prefix, so ``"_N:x"`` the *constant* round-trips as
a constant instead of silently becoming ``LabeledNull("x")`` on re-read.
``read_csv`` turns malformed input (empty files, ragged rows, empty null
labels) into a :class:`~repro.core.errors.FormatError` naming the
offending row and column; ``strict=True`` additionally rejects dangling
escapes the encoder could not have produced.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, TextIO

from ..core.errors import FormatError
from ..core.instance import Instance
from ..core.schema import RelationSchema
from ..core.values import LabeledNull, Value, is_null
from ..runtime.faults import fault_checkpoint

NULL_PREFIX = "_N:"
"""Default cell prefix marking a labeled null in CSV files."""

CONSTANT_ESCAPE = "_C:"
"""Escape prefix for constants that would otherwise parse as nulls."""


def _encode(value: Value, null_prefix: str) -> str:
    if is_null(value):
        return f"{null_prefix}{value.label}"
    text = str(value)
    if text.startswith(null_prefix) or text.startswith(CONSTANT_ESCAPE):
        # Without the escape, the constant "_N:x" would come back from
        # read_csv as LabeledNull("x") — a silent semantic corruption.
        return f"{CONSTANT_ESCAPE}{text}"
    return text


def _decode(
    cell: str, null_prefix: str, strict: bool = False, where: str = ""
) -> Value:
    if cell.startswith(CONSTANT_ESCAPE):
        text = cell[len(CONSTANT_ESCAPE):]
        if strict and not (
            text.startswith(null_prefix) or text.startswith(CONSTANT_ESCAPE)
        ):
            raise FormatError(
                f"ambiguous cell {cell!r}{where}: the {CONSTANT_ESCAPE!r} "
                f"escape must be followed by a {null_prefix!r}- or "
                f"{CONSTANT_ESCAPE!r}-prefixed constant"
            )
        return text
    if cell.startswith(null_prefix):
        label = cell[len(null_prefix):]
        if not label:
            raise FormatError(
                f"ambiguous cell {cell!r}{where}: a labeled null needs a "
                "non-empty label"
            )
        return LabeledNull(label)
    return cell


def write_csv(
    instance: Instance,
    destination: str | Path | TextIO,
    relation_name: str | None = None,
    null_prefix: str = NULL_PREFIX,
    include_ids: bool = False,
) -> None:
    """Write one relation of ``instance`` as CSV with a header row.

    Constants colliding with the null encoding are escaped with
    ``_C:`` so the file round-trips losslessly through :func:`read_csv`.

    Parameters
    ----------
    relation_name:
        Relation to export; defaults to the only relation of a
        single-relation instance.
    include_ids:
        Prepend a ``_tid`` column with tuple identifiers (useful for
        debugging; ids are regenerated on load anyway).
    """
    if relation_name is None:
        names = instance.schema.relation_names()
        if len(names) != 1:
            raise ValueError(
                "relation_name is required for multi-relation instances"
            )
        relation_name = names[0]
    relation = instance.relation(relation_name)

    def dump(handle: TextIO) -> None:
        writer = csv.writer(handle)
        header = list(relation.schema.attributes)
        if include_ids:
            header = ["_tid"] + header
        writer.writerow(header)
        for t in relation:
            fault_checkpoint("io")
            row = [_encode(v, null_prefix) for v in t.values]
            if include_ids:
                row = [t.tuple_id] + row
            writer.writerow(row)

    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            dump(handle)
    else:
        dump(destination)


def read_csv(
    source: str | Path | TextIO,
    relation_name: str = "R",
    null_prefix: str = NULL_PREFIX,
    name: str = "I",
    id_prefix: str = "t",
    strict: bool = False,
) -> Instance:
    """Read a CSV with a header row into a single-relation instance.

    Cells starting with ``null_prefix`` become labeled nulls; cells
    starting with the ``_C:`` escape are unescaped back to constants.
    Malformed input — an empty file, a row whose cell count differs from
    the header — raises :class:`~repro.core.errors.FormatError` naming
    the offending row, never a bare ``KeyError``/``IndexError``.
    Empty null labels (the bare ``_N:`` cell) are rejected in every mode
    (``LabeledNull`` forbids them); ``strict=True`` additionally rejects
    dangling escapes that a :func:`write_csv` encoder could not have
    produced.

    Examples
    --------
    >>> text = "A,B\\nx,_N:N1\\ny,2\\n"
    >>> inst = read_csv(io.StringIO(text))
    >>> inst.get_tuple("t1")["B"]
    Null(N1)
    """
    def load(handle: TextIO) -> Instance:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(
                "CSV input is empty (no header row)"
            ) from None
        except csv.Error as error:
            raise FormatError(
                f"malformed CSV header row: {error}"
            ) from error

        def decoded_rows() -> Iterable[list[Value]]:
            row_number = 1
            while True:
                try:
                    row = next(reader)
                except StopIteration:
                    return
                except csv.Error as error:
                    raise FormatError(
                        f"malformed CSV near row {row_number + 1}: {error}"
                    ) from error
                row_number += 1
                fault_checkpoint("io")
                if len(row) != len(header):
                    raise FormatError(
                        f"CSV row {row_number} has {len(row)} cell(s), "
                        f"expected {len(header)} (columns "
                        f"{', '.join(header)}); the file may be truncated"
                    )
                yield [
                    _decode(
                        cell, null_prefix, strict=strict,
                        where=(
                            f" (row {row_number}, "
                            f"column {header[index]!r})"
                        ),
                    )
                    for index, cell in enumerate(row)
                ]

        # Bulk ingest goes through the column-shaped constructor: cells are
        # decoded once into per-attribute columns.  The schema is built
        # first so a bad header (duplicate names) raises before any data
        # row is consumed, as the row-wise path did.
        schema = RelationSchema(relation_name, tuple(header))
        columns: list[list[Value]] = [[] for _ in header]
        for decoded in decoded_rows():
            for index, value in enumerate(decoded):
                columns[index].append(value)
        return Instance.from_columns(
            schema, columns, name=name, id_prefix=id_prefix
        )

    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return load(handle)
    return load(source)


def instance_to_csv_text(instance: Instance, **kwargs) -> str:
    """Render a single-relation instance as a CSV string."""
    buffer = io.StringIO()
    write_csv(instance, buffer, **kwargs)
    return buffer.getvalue()
