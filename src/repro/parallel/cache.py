"""Content-addressed signature cache for the batch-comparison engine.

Comparing *many* pairs drawn from a smaller set of instances — the Tables
2–3 grids compare every perturbed version against one base instance —
recomputes the same per-instance work for every pair: re-identification,
null disjoining, and the Alg. 4 signature index.  This module caches that
work **per instance and side**:

* :func:`instance_fingerprint` — a SHA-256 over the instance's schema and
  tuple contents with canonical null numbering, so two content-identical
  instances (regardless of tuple ids or null label spelling) share a cache
  entry;
* :class:`PreparedSide` — the canonical prepared copy
  (:func:`~repro.core.instance.prepare_side`) together with its
  :class:`~repro.algorithms.signature.SignatureIndex`;
* :class:`SignatureCache` — an LRU over ``(fingerprint, side)`` with
  hit/miss/eviction counters, surfaced by the engine in
  ``ComparisonResult.stats``.

Why caching survives pairing: a prepared ``"left"`` side uses tuple ids
``l1, l2, ...`` and null labels ``NL1, NL2, ...``; a prepared ``"right"``
side uses ``r*`` / ``NR*``.  Any left entry is therefore disjoint from any
right entry *by construction* — no per-pair renaming is needed, the cached
tuple objects are the ones the algorithms see, and the signature index
(which references those exact tuples) stays valid for every pair the
instance participates in.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from ..algorithms.signature import SignatureIndex
from ..core.instance import Instance, prepare_side
from ..core.values import is_null
from ..obs.metrics import counter_inc


def instance_fingerprint(instance: Instance) -> str:
    """Content hash of an instance, stable across runs and processes.

    Covers the instance name, schema (relation names and attribute order),
    and every tuple's values in insertion order.  Labeled nulls are encoded
    by first-occurrence index rather than label, so isomorphic renamings of
    nulls — which represent the same incomplete database — fingerprint
    identically.  Tuple ids are deliberately excluded: the prepared form
    re-identifies tuples positionally, so ids cannot affect any result
    computed from a cache entry.

    Examples
    --------
    >>> from repro.core.values import LabeledNull
    >>> a = Instance.from_rows("R", ("A",), [(LabeledNull("N1"),)])
    >>> b = Instance.from_rows("R", ("A",), [(LabeledNull("X9"),)])
    >>> instance_fingerprint(a) == instance_fingerprint(b)
    True
    """
    digest = hashlib.sha256()
    digest.update(repr(instance.name).encode())
    null_numbers: dict[str, int] = {}
    for relation in instance.relations():
        digest.update(b"\x00R")
        digest.update(repr(relation.schema.name).encode())
        digest.update(repr(relation.schema.attributes).encode())
        for t in relation:
            digest.update(b"\x00T")
            for value in t.values:
                if is_null(value):
                    number = null_numbers.setdefault(
                        value.label, len(null_numbers)
                    )
                    encoded = f"\x00N{number}"
                else:
                    encoded = f"\x00C{type(value).__name__}:{value!r}"
                digest.update(encoded.encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class PreparedSide:
    """One instance prepared for one side of comparisons, plus its index."""

    fingerprint: str
    side: str  # "left" | "right"
    instance: Instance
    index: SignatureIndex


class SignatureCache:
    """LRU cache of :class:`PreparedSide` entries keyed by content.

    Parameters
    ----------
    max_entries:
        Entry cap; least-recently-used entries are evicted beyond it.
        Each entry holds a full prepared copy of an instance plus its
        signature index, so size the cap to the working set of distinct
        instances, not the number of pairs.

    Examples
    --------
    >>> cache = SignatureCache(max_entries=8)
    >>> I = Instance.from_rows("R", ("A",), [("x",)])
    >>> first = cache.get(I, "left")
    >>> again = cache.get(I, "left")
    >>> first is again, cache.hits, cache.misses
    (True, 1, 1)
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, str], PreparedSide] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, instance: Instance, side: str) -> PreparedSide:
        """The prepared form of ``instance`` for ``side`` (built on miss)."""
        fingerprint = instance_fingerprint(instance)
        key = (fingerprint, side)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            counter_inc("parallel.cache.hits")
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        counter_inc("parallel.cache.misses")
        prepared = prepare_side(instance, side)
        entry = PreparedSide(
            fingerprint=fingerprint,
            side=side,
            instance=prepared,
            index=SignatureIndex.build(prepared),
        )
        self._entries[key] = entry
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            counter_inc("parallel.cache.evictions")
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Counters as a JSON-ready dictionary."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


__all__ = ["PreparedSide", "SignatureCache", "instance_fingerprint"]
