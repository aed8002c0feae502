"""Incremental sketch and min-hash maintenance under a delta batch.

:class:`SketchMaintainer` keeps the :class:`~repro.index.sketch.SketchScan`
behind an :class:`~repro.index.sketch.InstanceSketch` alive — per-column
constant multisets, null counts, and the count-tracked token multiset
feeding the min-hash signature — and repairs it in ``O(|batch|)`` instead
of re-sketching the whole instance:

* **inserts** admit their cell tokens and min-merge the new token hashes
  into the signature slot-by-slot;
* **deletes** retire tokens from the per-base occurrence counters.  A
  retired hash only *dirties* a signature slot when its permuted value
  equals the slot's current minimum; only dirty slots are recomputed,
  over the surviving distinct hash set the scan keeps — never by
  rescanning the instance;
* **updates** retire the old cells and admit the new ones (cells whose
  value is unchanged are skipped).

The seed is the same scan a cold
:meth:`InstanceSketch.build <repro.index.sketch.InstanceSketch.build>`
freezes, so the cold build stays an independent oracle for
:meth:`~SketchMaintainer.apply`: after any chain of batches the maintained
sketch is byte-identical to a cold build of the post-batch instance
(property-tested in ``tests/delta/test_maintenance.py``).  Column state is
exact arithmetic on counts, and the min-hash repair recomputes exactly the
slots whose minimum could have moved.

``track_minhash=False`` runs a *light* maintainer that keeps only the
column statistics — enough for
:func:`~repro.index.sketch.similarity_upper_bound` — skipping all
per-cell token hashing.  The warm comparison engine
(:mod:`repro.delta.engine`) uses this mode for its staleness bound, and
patches the bound's column overlaps from the constants each repair
reports it moved (:attr:`SketchRepair.constants_before`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import DeltaError
from ..core.instance import Instance
from ..core.values import is_null
from ..index.sketch import (
    EMPTY_SLOT,
    _MERSENNE_PRIME,
    IndexParams,
    InstanceSketch,
    SketchScan,
    _minhash,
)
from ..parallel.cache import instance_fingerprint
from .batch import OP_DELETE, OP_INSERT, OP_UPDATE, DeltaBatch

_FULL_RECOMPUTE_DIRTY_FRACTION = 0.5
"""Recompute every slot at once when at least this fraction is dirty."""


@dataclass(frozen=True)
class SketchRepair:
    """What one :meth:`SketchMaintainer.apply` call actually did.

    ``minhash_slots_patched`` counts slots updated by pure min-merges of
    admitted hashes (or left untouched); ``minhash_slots_rebuilt`` counts
    slots whose minimum was retired and had to be recomputed over the
    surviving token set.  ``full_minhash_rebuild`` is set when the dirty
    fraction made a whole-signature recompute cheaper than per-slot
    repair — still over the count-tracked hash set, never the instance.
    ``constants_before`` lists ``(relation, attribute, key, count
    before the batch)`` for every column constant the batch retired or
    admitted, keyed as :class:`~repro.index.sketch.ColumnSketch` keys
    them (:func:`~repro.index.sketch.patch_column_overlaps` reads it).
    """

    tokens_added: int = 0
    tokens_removed: int = 0
    relations_touched: tuple[str, ...] = ()
    columns_touched: tuple[tuple[str, str], ...] = ()
    minhash_slots_patched: int = 0
    minhash_slots_rebuilt: int = 0
    full_minhash_rebuild: bool = False
    constants_before: tuple[tuple[str, str, int, int], ...] = ()

    @property
    def columns_repaired(self) -> int:
        return len(self.columns_touched)


class SketchMaintainer:
    """Live, incrementally-maintained sketch state for one instance.

    Parameters
    ----------
    instance:
        The base instance; one :class:`~repro.index.sketch.SketchScan`
        of its cells seeds the state.
    params:
        Sketch parameters (fixed for the maintainer's lifetime).
    track_minhash:
        When ``False``, skip the token multiset and min-hash entirely
        (column statistics only — the light mode used for admissible
        bounds).
    """

    def __init__(
        self,
        instance: Instance,
        params: IndexParams,
        *,
        track_minhash: bool = True,
    ) -> None:
        self._params = params
        self._track_minhash = track_minhash
        self._coefficients = params.coefficients() if track_minhash else ()
        self._scan = SketchScan(instance, tokens=track_minhash)
        # Token hash -> its count before the batch, for hashes the running
        # apply() touched; likewise (relation, attribute, key) -> count
        # for column constants.
        self._touched: dict[int, int] = {}
        self._constants_before: dict[tuple[str, str, int], int] = {}
        self._minhash: list[int] = (
            list(_minhash(self._scan.hash_counts.keys(), params))
            if track_minhash
            else []
        )

    @property
    def params(self) -> IndexParams:
        return self._params

    @property
    def track_minhash(self) -> bool:
        return self._track_minhash

    @property
    def token_count(self) -> int:
        return self._scan.cell_count

    # -- cell admission / retirement ---------------------------------------

    def _note_constant(self, column, value) -> None:
        if is_null(value):
            return
        key = self._scan.constant_key(value)
        slot = (column.relation, column.attribute, key)
        if slot not in self._constants_before:
            self._constants_before[slot] = column.constants.get(key, 0)

    def _admit(self, column, value) -> None:
        self._note_constant(column, value)
        h = self._scan.admit(column, value)
        if h is not None and h not in self._touched:
            self._touched[h] = self._scan.hash_counts[h] - 1

    def _retire(self, column, value) -> None:
        self._note_constant(column, value)
        h = self._scan.retire(column, value)
        if h is not None and h not in self._touched:
            self._touched[h] = self._scan.hash_counts.get(h, 0) + 1

    # -- batch application --------------------------------------------------

    def apply(
        self,
        batch: DeltaBatch,
        new_instance: Instance | None = None,
        *,
        fingerprint: bool = True,
    ) -> tuple[InstanceSketch, SketchRepair]:
        """Repair the state under ``batch``; return the new sketch + report.

        ``new_instance`` (the post-batch instance) is only needed when
        ``fingerprint`` is true — content fingerprints cannot be patched
        incrementally, so they are recomputed from the instance (the same
        cost the cold path pays).  With ``fingerprint=False`` the
        returned sketch carries an empty fingerprint, which is fine for
        bounds and LSH but must not be persisted.
        """
        if fingerprint and new_instance is None:
            raise DeltaError(
                "apply(fingerprint=True) needs the post-batch instance"
            )
        prev_minhash = tuple(self._minhash)
        self._touched = touched = {}
        self._constants_before = {}
        columns_touched: set[tuple[str, str]] = set()
        for op in batch:
            state = self._scan.relations.get(op.relation)
            if state is None:
                raise DeltaError(
                    f"batch touches relation {op.relation!r} unknown to "
                    "the maintained sketch"
                )
            attributes = state.attributes
            if op.kind == OP_INSERT:
                self._check_arity(op, len(op.values), len(attributes))
                state.tuple_count += 1
                for attribute, value in zip(attributes, op.values):
                    self._admit(state.columns[attribute], value)
                    columns_touched.add((op.relation, attribute))
            elif op.kind == OP_DELETE:
                self._check_arity(op, len(op.old_values), len(attributes))
                state.tuple_count -= 1
                if state.tuple_count < 0:
                    raise DeltaError(
                        f"delete from empty relation {op.relation!r}"
                    )
                for attribute, value in zip(attributes, op.old_values):
                    self._retire(state.columns[attribute], value)
                    columns_touched.add((op.relation, attribute))
            else:
                self._check_arity(op, len(op.values), len(attributes))
                self._check_arity(op, len(op.old_values), len(attributes))
                for attribute, old_value, new_value in zip(
                    attributes, op.old_values, op.values
                ):
                    if type(old_value) is type(new_value) and (
                        old_value is new_value or old_value == new_value
                    ):
                        continue
                    column = state.columns[attribute]
                    self._retire(column, old_value)
                    self._admit(column, new_value)
                    columns_touched.add((op.relation, attribute))
        hash_counts = self._scan.hash_counts
        added: list[int] = []
        removed: list[int] = []
        for h, before in touched.items():
            after = hash_counts.get(h, 0)
            if before == 0 and after > 0:
                added.append(h)
            elif before > 0 and after == 0:
                removed.append(h)
        patched, rebuilt, full_rebuild = self._repair_minhash(
            prev_minhash, added, removed
        )
        sketch = self.materialize(
            fingerprint=instance_fingerprint(new_instance) if fingerprint else ""
        )
        report = SketchRepair(
            tokens_added=len(added),
            tokens_removed=len(removed),
            relations_touched=batch.relations_touched(),
            columns_touched=tuple(sorted(columns_touched)),
            minhash_slots_patched=patched,
            minhash_slots_rebuilt=rebuilt,
            full_minhash_rebuild=full_rebuild,
            constants_before=tuple(
                (relation, attribute, key, before)
                for (relation, attribute, key), before
                in self._constants_before.items()
            ),
        )
        return sketch, report

    @staticmethod
    def _check_arity(op, got: int, expected: int) -> None:
        if got != expected:
            raise DeltaError(
                f"{op.kind} op for tuple {op.tuple_id!r} carries {got} "
                f"values but relation {op.relation!r} has arity {expected}"
            )

    # -- min-hash repair -----------------------------------------------------

    def _repair_minhash(
        self,
        prev: tuple[int, ...],
        added: list[int],
        removed: list[int],
    ) -> tuple[int, int, bool]:
        """Patch ``self._minhash`` in place; returns (patched, rebuilt, full)."""
        if not self._track_minhash:
            return 0, 0, False
        params = self._params
        num_perms = params.num_perms
        hash_counts = self._scan.hash_counts
        if not hash_counts:
            self._minhash = [EMPTY_SLOT] * num_perms
            return num_perms, 0, False
        coefficients = self._coefficients
        # A retired hash can only move a slot's minimum when its permuted
        # value *was* that minimum; every other slot keeps its witness.
        dirty: list[int] = []
        if removed:
            for i, (a, b) in enumerate(coefficients):
                slot = prev[i]
                if any((a * h + b) % _MERSENNE_PRIME == slot for h in removed):
                    dirty.append(i)
        if dirty and len(dirty) >= max(
            1, int(num_perms * _FULL_RECOMPUTE_DIRTY_FRACTION)
        ):
            self._minhash = list(_minhash(hash_counts.keys(), params))
            return num_perms - len(dirty), len(dirty), True
        signature = list(prev)
        if added:
            added_min = _minhash(added, params)
            signature = [min(s, v) for s, v in zip(signature, added_min)]
        if dirty:
            survivors = list(hash_counts)
            for i in dirty:
                a, b = coefficients[i]
                signature[i] = min(
                    (a * h + b) % _MERSENNE_PRIME for h in survivors
                )
        self._minhash = signature
        return num_perms - len(dirty), len(dirty), False

    # -- materialization -----------------------------------------------------

    def materialize(self, *, fingerprint: str = "") -> InstanceSketch:
        """Freeze the current state into an :class:`InstanceSketch`."""
        return self._scan.freeze(
            tuple(self._minhash) if self._track_minhash else (), fingerprint
        )

    def sketch_for(self, instance: Instance) -> InstanceSketch:
        """Materialize with the fingerprint of ``instance``."""
        return self.materialize(fingerprint=instance_fingerprint(instance))


__all__ = ["SketchMaintainer", "SketchRepair"]
