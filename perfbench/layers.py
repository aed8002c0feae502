"""Outside-in per-layer timing for the traced benchmark run.

The traced run times calls into each layer's public entry points from the
benchmark's own files.  :class:`LayerTrace` swaps each entry point for a
timing wrapper, both where it is defined and in every ``repro`` module
that imported the name: ``repro.index.refine.signature_compare`` is the
same function object as ``repro.algorithms.signature.signature_compare``,
and both are swapped.  No program file changes, and leaving the context
puts the original objects back.

A layer's time is its *self* time: a wrapped call's duration minus the
duration of wrapped calls nested inside it, summed over the run.  Counts
come from public return values (``result.stats``, ``RefineReport``,
``SketchRepair``, ``SignatureCache.stats()``, ``SegmentWriter.in_sync``)
and from facts the workload measures itself (WAL file sizes).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

_EPS = 1e-12
RUNGS = ("signature", "refine", "assignment", "exact")

#: Every per-layer metric in report order: name -> (unit, better).
PER_LAYER = {
    "anytime.rung.signature": ("count", "higher"),
    "anytime.rung.refine": ("count", "lower"),
    "anytime.rung.assignment": ("count", "lower"),
    "anytime.rung.exact": ("count", "lower"),
    "exact.busy_ms": ("ms", "lower"),
    "exact.nodes": ("count", "lower"),
    "exact.completed_ratio": ("ratio", "higher"),
    "refine.busy_ms": ("ms", "lower"),
    "refine.win_ratio": ("ratio", "higher"),
    "assignment.busy_ms": ("ms", "lower"),
    "assignment.blocks_solved": ("count", "lower"),
    "assignment.win_ratio": ("ratio", "higher"),
    "signature.busy_ms": ("ms", "lower"),
    "compatibility.busy_ms": ("ms", "lower"),
    "core.prepare_ms": ("ms", "lower"),
    "core.columns_ms": ("ms", "lower"),
    "cache.get_ms": ("ms", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "delta.advance_ms": ("ms", "lower"),
    "delta.rescored_pairs": ("count", "lower"),
    "delta.reuse_ratio": ("ratio", "higher"),
    "delta.certified_ratio": ("ratio", "higher"),
    "delta.staleness_mean": ("score", "lower"),
    "maintenance.apply_ms": ("ms", "lower"),
    "maintenance.slots_patched": ("count", "lower"),
    "maintenance.slots_rebuilt": ("count", "lower"),
    "sketch.build_ms": ("ms", "lower"),
    "sketch.bound_evals": ("count", "lower"),
    "sketch.bound_ms": ("ms", "lower"),
    "search.candidates": ("count", "lower"),
    "search.refined": ("count", "lower"),
    "search.prune_ratio": ("ratio", "higher"),
    "lsh.candidates": ("count", "lower"),
    "lsh.rebucket_ms": ("ms", "lower"),
    "lsh.buckets_moved": ("count", "lower"),
    "store.write_ms": ("ms", "lower"),
    "wal.sync_ms": ("ms", "lower"),
    "wal.fsyncs": ("count", "lower"),
    "wal.bytes_per_update": ("B", "lower"),
    "wal.write_amplification": ("ratio", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTrace:
    """Timing wrappers around every layer entry point, while entered.

    Enter around the traced timed phase only, then read :meth:`metrics`.
    The workloads are single-threaded, so one call stack suffices.
    """

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self._stack: list[float] = []
        self._ladders: list[tuple[int, list]] = []
        self._caches: dict[int, tuple[object, dict]] = {}
        self._swapped: list[tuple[object, object]] = []
        self._patched: list[tuple[type, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, bucket: str, fn, before=None, after=None):
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self_s[bucket] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result, token)
            return result

        return timed

    def _function(self, module: str, attr: str, bucket: str, before=None, after=None):
        original = getattr(sys.modules[module], attr)
        wrapper = self._timed(bucket, original, before, after)
        self._swapped.append((original, wrapper))
        _rebind(original, wrapper)

    def _method(self, cls: type, attr: str, bucket: str, before=None, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._timed(bucket, raw.__func__, before, after))
        else:
            wrapper = self._timed(bucket, raw, before, after)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    # -- count hooks ----------------------------------------------------------

    def _ladder_enter(self, args):
        self._ladders.append((len(self._stack) + 1, []))

    def _ladder_exit(self, args, result, token):
        # Credit the cheapest rung that already reached the final score:
        # when exact completes the ladder itself always names "exact".
        _depth, rungs = self._ladders.pop()
        first = next(
            (rung for rung, score in rungs if score >= result.similarity - _EPS),
            result.stats.get("anytime_rung", "exact"),
        )
        self.counts[f"anytime.rung.{first}"] += 1

    def _rung(self, name: str, args, result) -> None:
        # Only calls made by the ladder itself, not ones nested deeper.
        if self._ladders and self._ladders[-1][0] == len(self._stack):
            self._ladders[-1][1].append((name, result.similarity))

    def _after_signature(self, args, result, token):
        self._rung("signature", args, result)

    def _after_exact(self, args, result, token):
        self._rung("exact", args, result)
        self.counts["exact.runs"] += 1
        self.counts["exact.nodes"] += result.stats.get("nodes_explored", 0)
        self.counts["exact.completed"] += int(result.outcome.is_complete)

    def _after_refine(self, args, result, token):
        self._rung("refine", args, result)
        self.counts["refine.runs"] += 1
        self.counts["refine.wins"] += int(result.stats.get("refine_gain", 0.0) > 0)

    def _after_assignment(self, args, result, token):
        self._rung("assignment", args, result)
        self.counts["assignment.runs"] += 1
        self.counts["assignment.blocks_solved"] += result.stats.get(
            "assignment_blocks_solved", 0
        )
        self.counts["assignment.wins"] += int(bool(result.stats.get("assignment_improved")))

    def _cache_seen(self, args):
        cache = args[0]
        if id(cache) not in self._caches:
            self._caches[id(cache)] = (cache, cache.stats())

    def _after_advance(self, args, result, token):
        stats = result.stats
        self.counts["delta.advances"] += 1
        self.counts["delta.rescored_pairs"] += stats.get("rescored_pairs", 0)
        self.counts["delta.reused_pairs"] += stats.get("reused_pairs", 0)
        self.counts["delta.certified"] += int(bool(stats.get("certified_exact")))
        self.sums["delta.staleness"] += stats.get("staleness_bound", 0.0)

    def _after_maintenance(self, args, result, token):
        repair = result[1]
        self.counts["maintenance.slots_patched"] += repair.minhash_slots_patched
        self.counts["maintenance.slots_rebuilt"] += repair.minhash_slots_rebuilt

    def _after_bound(self, args, result, token):
        self.counts["sketch.bound_evals"] += 1

    def _after_search(self, args, result, token):
        report = result[1]
        self.counts["search.candidates"] += report.candidates
        self.counts["search.refined"] += report.refined
        self.counts["search.pruned"] += report.pruned

    def _after_lsh_candidates(self, args, result, token):
        self.counts["lsh.candidates"] += len(result)

    def _after_rebucket(self, args, result, token):
        self.counts["lsh.buckets_moved"] += result[0]

    @staticmethod
    def _sync_pending(args):
        return not args[0].in_sync

    def _after_sync(self, args, result, pending):
        self.counts["wal.fsyncs"] += int(pending)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)  # undo the wrappers already in
            raise
        return self

    def _install(self) -> None:
        from repro.algorithms.signature import MutableSignatureIndex, SignatureIndex
        from repro.core.instance import Instance
        from repro.delta.engine import DeltaSession
        from repro.delta.maintenance import SketchMaintainer
        from repro.index.lsh import LSHIndex
        from repro.index.sketch import InstanceSketch
        from repro.index.store import IndexStore
        from repro.index.wal import SegmentWriter
        from repro.parallel.cache import SignatureCache

        fn = self._function
        fn("repro.runtime.anytime", "compare_anytime", "anytime",
           before=self._ladder_enter, after=self._ladder_exit)
        fn("repro.algorithms.exact", "exact_compare", "exact", after=self._after_exact)
        fn("repro.algorithms.refine", "refine_match", "refine", after=self._after_refine)
        fn("repro.algorithms.assignment", "assignment_compare", "assignment",
           after=self._after_assignment)
        fn("repro.algorithms.signature", "signature_compare", "signature",
           after=self._after_signature)
        for name in ("compatible_tuples", "compatible_tuples_of_instances",
                     "compatible_tuples_columnar"):
            fn("repro.algorithms.compatibility", name, "compatibility")
        for name in ("prepare_for_comparison", "prepare_side"):
            fn("repro.core.instance", name, "core.prepare")
        fn("repro.index.sketch", "similarity_upper_bound", "sketch.bound",
           after=self._after_bound)
        fn("repro.index.refine", "refine_search", "search", after=self._after_search)

        method = self._method
        method(SignatureIndex, "build", "signature")
        method(MutableSignatureIndex, "build", "signature")
        method(MutableSignatureIndex, "apply_batch", "signature")
        method(Instance, "columns", "core.columns")
        method(SignatureCache, "get", "cache", before=self._cache_seen)
        method(DeltaSession, "advance", "delta", after=self._after_advance)
        method(SketchMaintainer, "apply", "maintenance", after=self._after_maintenance)
        method(InstanceSketch, "build", "sketch.build")
        method(LSHIndex, "candidates", "lsh.candidates", after=self._after_lsh_candidates)
        method(LSHIndex, "rebucket", "lsh.rebucket", after=self._after_rebucket)
        method(IndexStore, "write_table", "store.write")
        method(SegmentWriter, "sync", "wal.sync",
               before=self._sync_pending, after=self._after_sync)

    def __exit__(self, *exc_info) -> None:
        for original, wrapper in reversed(self._swapped):
            _rebind(wrapper, original)
        for cls, attr, raw in reversed(self._patched):
            setattr(cls, attr, raw)
        self._swapped.clear()
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def cache_counts(self) -> Counter:
        """Hits, misses and evictions of every cache used while entered."""
        totals: Counter = Counter()
        for cache, initial in self._caches.values():
            final = cache.stats()
            for key in ("hits", "misses", "evictions"):
                totals[key] += final[key] - initial[key]
        return totals

    def work_counts(self, facts: dict) -> dict[str, int]:
        """The exact work counts a rerun at the same seed must reproduce."""
        counts = {key: int(value) for key, value in self.counts.items()}
        counts.update(
            {f"cache.{key}": value for key, value in self.cache_counts().items()}
        )
        counts.update({f"fact.{key}": value for key, value in facts.items()})
        return dict(sorted(counts.items()))

    def metrics(self, facts: dict, overhead_pct: float) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric; ``facts`` come from the workload."""
        ms = {bucket: seconds * 1000.0 for bucket, seconds in self.self_s.items()}
        c = self.counts
        cache = self.cache_counts()
        reused, rescored = c["delta.reused_pairs"], c["delta.rescored_pairs"]
        wal_bytes = facts.get("wal_bytes", 0)
        values = {
            **{f"anytime.rung.{rung}": c[f"anytime.rung.{rung}"] for rung in RUNGS},
            "exact.busy_ms": ms.get("exact", 0.0),
            "exact.nodes": c["exact.nodes"],
            "exact.completed_ratio": _ratio(c["exact.completed"], c["exact.runs"]),
            "refine.busy_ms": ms.get("refine", 0.0),
            "refine.win_ratio": _ratio(c["refine.wins"], c["refine.runs"]),
            "assignment.busy_ms": ms.get("assignment", 0.0),
            "assignment.blocks_solved": c["assignment.blocks_solved"],
            "assignment.win_ratio": _ratio(c["assignment.wins"], c["assignment.runs"]),
            "signature.busy_ms": ms.get("signature", 0.0),
            "compatibility.busy_ms": ms.get("compatibility", 0.0),
            "core.prepare_ms": ms.get("core.prepare", 0.0),
            "core.columns_ms": ms.get("core.columns", 0.0),
            "cache.get_ms": ms.get("cache", 0.0),
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
            "cache.evictions": cache["evictions"],
            "delta.advance_ms": ms.get("delta", 0.0),
            "delta.rescored_pairs": rescored,
            "delta.reuse_ratio": _ratio(reused, reused + rescored),
            "delta.certified_ratio": _ratio(c["delta.certified"], c["delta.advances"]),
            "delta.staleness_mean": _ratio(self.sums["delta.staleness"], c["delta.advances"]),
            "maintenance.apply_ms": ms.get("maintenance", 0.0),
            "maintenance.slots_patched": c["maintenance.slots_patched"],
            "maintenance.slots_rebuilt": c["maintenance.slots_rebuilt"],
            "sketch.build_ms": ms.get("sketch.build", 0.0),
            "sketch.bound_evals": c["sketch.bound_evals"],
            "sketch.bound_ms": ms.get("sketch.bound", 0.0),
            "search.candidates": c["search.candidates"],
            "search.refined": c["search.refined"],
            "search.prune_ratio": _ratio(c["search.pruned"], c["search.candidates"]),
            "lsh.candidates": c["lsh.candidates"],
            "lsh.rebucket_ms": ms.get("lsh.rebucket", 0.0),
            "lsh.buckets_moved": c["lsh.buckets_moved"],
            "store.write_ms": ms.get("store.write", 0.0),
            "wal.sync_ms": ms.get("wal.sync", 0.0),
            "wal.fsyncs": c["wal.fsyncs"],
            "wal.bytes_per_update": _ratio(wal_bytes, facts.get("wal_updates", 0)),
            "wal.write_amplification": _ratio(wal_bytes, facts.get("changed_cell_bytes", 0)),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: values[name] for name in PER_LAYER}


def _rebind(old, new) -> None:
    """Point every ``repro`` module-level name bound to ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new
