"""The :class:`SimilarityIndex` facade: sketches + LSH + cache + store.

One object owns everything a data lake needs for sub-linear similarity
discovery: the registered instances, their sketches
(:mod:`~repro.index.sketch`), the banded LSH tables
(:mod:`~repro.index.lsh`), a shared signature cache for refinement
(:mod:`repro.parallel`), and — optionally — a bound on-disk store
(:mod:`~repro.index.store`) that mirrors every ``add``/``remove``/
``update`` incrementally.

The index is *maintained*, not rebuilt: adding, removing, or replacing a
single table touches only that table's sketch, its LSH buckets, and (when
bound) its one store file — in the spirit of incremental maintenance of
incomplete databases (Chabin et al.), where re-deriving the world on every
update is the thing to avoid.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..delta.batch import DeltaBatch
from ..delta.maintenance import SketchMaintainer
from ..delta.report import (
    MODE_ADDED,
    MODE_INCREMENTAL,
    MODE_REBUILT,
    UpdateReport,
)
from ..mappings.constraints import MatchOptions
from ..parallel.cache import SignatureCache
from .lsh import LSHIndex
from .refine import (
    DuplicatePair,
    RefinePolicy,
    RefineReport,
    SearchHit,
    refine_dedup,
    refine_search,
)
from .sketch import IndexParams, InstanceSketch

if True:  # pragma: no cover - typing convenience, avoids a cycle at runtime
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        from .store import IndexStore


class SimilarityIndex:
    """A persistent, incrementally maintained sketch index over instances.

    Parameters
    ----------
    params:
        Sketch/LSH shape (:class:`IndexParams`); fixed for the life of the
        index and persisted with it.
    options:
        Match constraints and λ used for bounds *and* refinement — the
        bound is admissible with respect to exactly these options.
    cache:
        A :class:`SignatureCache` shared with other components (e.g. a
        :class:`~repro.Comparator`); a private one is created if omitted.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> index = SimilarityIndex()
    >>> index.add("a", Instance.from_rows("R", ("X",), [("1",), ("2",)]))
    >>> index.add("b", Instance.from_rows("R", ("X",), [("9",)]))
    >>> [hit.name for hit in index.search(
    ...     Instance.from_rows("R", ("X",), [("1",)]), top_k=1)]
    ['a']
    """

    def __init__(
        self,
        params: IndexParams | None = None,
        options: MatchOptions | None = None,
        cache: SignatureCache | None = None,
    ) -> None:
        self.params = params if params is not None else IndexParams()
        self.options = (
            options if options is not None else MatchOptions.versioning()
        )
        self.cache = cache if cache is not None else SignatureCache()
        self.lsh = LSHIndex(self.params)
        self._instances: dict[str, Instance] = {}
        self._sketches: dict[str, InstanceSketch] = {}
        self._maintainers: dict[str, SketchMaintainer] = {}
        self._store: "IndexStore | None" = None
        self.last_report: RefineReport | None = None
        self.last_update: UpdateReport | None = None

    # -- registry -------------------------------------------------------------

    def add(self, name: str, instance: Instance) -> UpdateReport:
        """Register ``instance`` under ``name``; sketches and persists it.

        The table's sketch is the seed of a live
        :class:`~repro.delta.SketchMaintainer`, so later ``update``/
        ``update_delta`` calls repair it instead of re-sketching.  Returns
        an :class:`~repro.delta.UpdateReport` with ``mode == "added"``
        (the new sketch rides on ``report.sketch``).
        """
        if name in self._instances:
            raise ValueError(f"table {name!r} already in the index")
        sketch = self._seed(name, instance)
        self._instances[name] = instance
        self._sketches[name] = sketch
        self.lsh.add(name, sketch.minhash)
        if self._store is not None:
            self._store.write_table(name, instance, sketch)
        report = UpdateReport(
            table=name,
            mode=MODE_ADDED,
            relations_touched=tuple(sorted(instance.schema.relation_names())),
            lsh_buckets_entered=self.params.bands,
            sketch=sketch,
        )
        self.last_update = report
        return report

    def remove(self, name: str) -> None:
        """Drop a table from the index (and the bound store, if any)."""
        if name not in self._instances:
            raise KeyError(self._unknown(name))
        del self._instances[name]
        del self._sketches[name]
        self._maintainers.pop(name, None)
        self.lsh.remove(name)
        if self._store is not None:
            self._store.remove_table(name)

    def update(self, name: str, instance: Instance) -> UpdateReport:
        """Replace the instance registered under ``name`` (must exist).

        Deliberately NOT remove-then-add: the store mirrors an update as a
        single upsert log record, so a crash mid-update recovers to the
        old instance or the new one — never to the table missing.

        With an unchanged schema, the replacement is diffed into a
        :class:`~repro.delta.DeltaBatch` and maintained incrementally
        (``mode == "incremental"``): sketch columns are repaired
        token-by-token, min-hash slots patched or selectively recomputed,
        and only the changed LSH band buckets are touched.  A table
        restored from disk seeds its maintainer lazily here.  A schema
        change re-sketches the table instead (``"rebuilt"``).
        """
        if name not in self._instances:
            raise KeyError(self._unknown(name))
        old = self._instances[name]
        if old.schema.is_compatible_with(instance.schema):
            maintainer = self._maintainers.get(name)
            if maintainer is None:
                # Store-restored tables skip seeding until the first
                # mutation actually needs the maintainer.
                maintainer = SketchMaintainer(old, self.params)
                self._maintainers[name] = maintainer
            batch = DeltaBatch.from_instances(old, instance)
            return self._apply_maintained(name, maintainer, batch, instance)
        return self._rebuild(name, instance)

    def update_delta(self, name: str, batch: DeltaBatch) -> UpdateReport:
        """Apply a :class:`~repro.delta.DeltaBatch` to a registered table.

        The batch's ops reference the stored instance's tuple ids; the
        sketch, min-hash, and LSH membership are repaired in place and the
        bound store (if any) mirrors the result as one upsert.  A table
        restored from disk without a live maintainer is seeded lazily
        from its current instance first, then maintained.
        """
        if name not in self._instances:
            raise KeyError(self._unknown(name))
        old = self._instances[name]
        new_instance = batch.apply(old)
        maintainer = self._maintainers.get(name)
        if maintainer is None:
            # Lazily seed (store-restored tables skip seeding until the
            # first mutation actually needs it).
            maintainer = SketchMaintainer(old, self.params)
            self._maintainers[name] = maintainer
        return self._apply_maintained(name, maintainer, batch, new_instance)

    def _apply_maintained(
        self,
        name: str,
        maintainer: SketchMaintainer,
        batch: DeltaBatch,
        instance: Instance,
    ) -> UpdateReport:
        sketch, repair = maintainer.apply(batch, instance)
        self._instances[name] = instance
        self._sketches[name] = sketch
        entered, left = self.lsh.rebucket(name, sketch.minhash)
        if self._store is not None:
            self._store.write_table(name, instance, sketch)
        summary = batch.summary()
        report = UpdateReport(
            table=name,
            mode=MODE_INCREMENTAL,
            tuples_inserted=summary["inserted"],
            tuples_deleted=summary["deleted"],
            tuples_updated=summary["updated"],
            relations_touched=tuple(sorted(batch.relations_touched())),
            sketch_columns_repaired=len(repair.columns_touched),
            sketch_columns_rebuilt=0,
            minhash_slots_patched=repair.minhash_slots_patched,
            minhash_slots_rebuilt=repair.minhash_slots_rebuilt,
            lsh_buckets_entered=entered,
            lsh_buckets_left=left,
            sketch=sketch,
        )
        self.last_update = report
        return report

    def _seed(self, name: str, instance: Instance) -> InstanceSketch:
        """Seed a fresh maintainer for ``name``; returns its sketch."""
        maintainer = SketchMaintainer(instance, self.params)
        self._maintainers[name] = maintainer
        return maintainer.sketch_for(instance)

    def _rebuild(self, name: str, instance: Instance) -> UpdateReport:
        """Full re-sketch fallback after a schema change."""
        sketch = self._seed(name, instance)
        self._instances[name] = instance
        self._sketches[name] = sketch
        self.lsh.remove(name)
        self.lsh.add(name, sketch.minhash)
        if self._store is not None:
            self._store.write_table(name, instance, sketch)
        n_columns = sum(
            len(instance.schema.relation(rel_name).attributes)
            for rel_name in instance.schema.relation_names()
        )
        report = UpdateReport(
            table=name,
            mode=MODE_REBUILT,
            relations_touched=tuple(sorted(instance.schema.relation_names())),
            sketch_columns_rebuilt=n_columns,
            minhash_slots_rebuilt=self.params.num_perms,
            lsh_buckets_entered=self.params.bands,
            lsh_buckets_left=self.params.bands,
            sketch=sketch,
        )
        self.last_update = report
        return report

    def get(self, name: str) -> Instance:
        """The registered instance called ``name``."""
        try:
            return self._instances[name]
        except KeyError:
            raise KeyError(self._unknown(name)) from None

    def sketch(self, name: str) -> InstanceSketch:
        """The stored sketch of table ``name``."""
        try:
            return self._sketches[name]
        except KeyError:
            raise KeyError(self._unknown(name)) from None

    def names(self) -> list[str]:
        """Registered table names, sorted."""
        return sorted(self._instances)

    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, name: str) -> bool:
        return name in self._instances

    def _unknown(self, name: str) -> str:
        known = ", ".join(repr(n) for n in self.names()) or "none"
        return f"no table {name!r} in the index (known tables: {known})"

    def _restore(
        self, name: str, instance: Instance, sketch: InstanceSketch
    ) -> None:
        """Install a loaded table without re-sketching (store reload path)."""
        self._instances[name] = instance
        self._sketches[name] = sketch
        self.lsh.add(name, sketch.minhash)

    # -- discovery ------------------------------------------------------------

    def search(
        self,
        query: Instance,
        top_k: int = 5,
        policy: RefinePolicy | None = None,
        exact: bool = True,
    ) -> list[SearchHit]:
        """Exact top-k similarity search (see :func:`refine_search`).

        The per-run :class:`RefineReport` (refined/pruned/bound counters)
        is kept in :attr:`last_report`.
        """
        hits, self.last_report = refine_search(
            self, query, top_k, policy=policy, exact=exact
        )
        return hits

    def near_duplicates(
        self,
        threshold: float = 0.8,
        policy: RefinePolicy | None = None,
        exact: bool = True,
    ) -> list[DuplicatePair]:
        """All pairs with true similarity ≥ ``threshold`` (bound-pruned)."""
        pairs, self.last_report = refine_dedup(
            self, threshold, policy=policy, exact=exact
        )
        return pairs

    def duplicate_clusters(
        self,
        threshold: float = 0.8,
        policy: RefinePolicy | None = None,
        exact: bool = True,
    ) -> list[set[str]]:
        """Connected components of the near-duplicate graph (size ≥ 2)."""
        from ..utils.unionfind import UnionFind

        components: UnionFind = UnionFind(self.names())
        for pair in self.near_duplicates(
            threshold=threshold, policy=policy, exact=exact
        ):
            components.union(pair.first, pair.second)
        clusters = [
            set(group) for group in components.classes() if len(group) >= 2
        ]
        clusters.sort(key=lambda c: (-len(c), sorted(c)))
        return clusters

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> "IndexStore":
        """Write the whole index to ``path`` and bind the store.

        Saving uses the store's bulk snapshot path (table files plus one
        manifest commit, no log records), so re-saving an unchanged index
        is byte-identical.  After ``save``, every ``add``/``remove``/
        ``update`` is mirrored to disk as a write-ahead log record.
        """
        from .store import IndexStore

        store = IndexStore(path)
        store.initialize(self.params, self.options)
        store.bulk_write(
            [
                (name, self._instances[name], self._sketches[name])
                for name in self.names()
            ]
        )
        self._store = store
        return store

    @classmethod
    def load(cls, path, cache: SignatureCache | None = None) -> "SimilarityIndex":
        """Reload an index from disk, deterministically (see store docs)."""
        from .store import load_index

        return load_index(path, cache=cache)

    def bind(self, store: "IndexStore | None") -> None:
        """Attach (or detach with ``None``) a store for incremental writes."""
        self._store = store

    @property
    def store(self) -> "IndexStore | None":
        return self._store

    def stats(self) -> dict:
        """Counters for diagnostics: size, LSH occupancy, cache, last run."""
        return {
            "tables": len(self),
            "params": self.params.as_dict(),
            "lsh": self.lsh.bucket_stats(),
            "cache": self.cache.stats(),
            "last_report": (
                self.last_report.as_dict() if self.last_report else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"SimilarityIndex(tables={len(self)}, "
            f"params={self.params.as_dict()})"
        )


__all__ = ["SimilarityIndex"]
