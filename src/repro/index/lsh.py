"""Banded locality-sensitive hashing over min-hash sketches.

The classic banding scheme: a signature of ``bands * rows`` slots is cut
into ``bands`` contiguous bands; two instances become *candidates* when at
least one band agrees on all of its ``rows`` slots.  With Jaccard
similarity ``s``, the candidate probability is ``1 - (1 - s^rows)^bands`` —
an S-curve whose threshold is tuned by the band shape
(:class:`~repro.index.sketch.IndexParams`).

The LSH tables are an in-memory acceleration structure, deliberately *not*
persisted: they rebuild deterministically from the stored sketches on
:func:`repro.index.store.load_index`, keeping the on-disk format minimal.

Role in discovery: LSH selects candidates only where recall may fall
below 1.  ``exact=False`` search/dedup and serve's degraded levels trust
the LSH shortlist alone (sub-linear, recall < 1 possible).  The default
exact modes read no bucket: they bound every comparable table (or pair)
with the **admissible sketch bound**
(:func:`~repro.index.sketch.similarity_upper_bound`), which is what
certifies pruning.
"""

from __future__ import annotations

from typing import Sequence

from .sketch import IndexParams


class LSHIndex:
    """Banded LSH buckets mapping band keys to member names.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> from repro.index.sketch import InstanceSketch, IndexParams
    >>> params = IndexParams(num_perms=8, bands=4, rows=2)
    >>> lsh = LSHIndex(params)
    >>> sketch = InstanceSketch.build(
    ...     Instance.from_rows("R", ("A",), [("x",)]), params)
    >>> lsh.add("a", sketch.minhash)
    >>> lsh.candidates(sketch.minhash)
    {'a'}
    """

    def __init__(self, params: IndexParams) -> None:
        self.params = params
        self._buckets: list[dict[tuple[int, ...], set[str]]] = [
            {} for _ in range(params.bands)
        ]
        self._members: dict[str, tuple[tuple[int, ...], ...]] = {}

    def _band_keys(
        self, minhash: Sequence[int]
    ) -> tuple[tuple[int, ...], ...]:
        if len(minhash) < self.params.bands * self.params.rows:
            raise ValueError(
                f"signature of length {len(minhash)} is too short for "
                f"{self.params.bands} bands x {self.params.rows} rows"
            )
        rows = self.params.rows
        return tuple(
            tuple(minhash[band * rows : (band + 1) * rows])
            for band in range(self.params.bands)
        )

    def add(self, name: str, minhash: Sequence[int]) -> None:
        """Insert ``name`` under every band key of its signature."""
        if name in self._members:
            raise ValueError(f"{name!r} is already in the LSH index")
        keys = self._band_keys(minhash)
        self._members[name] = keys
        for band, key in enumerate(keys):
            self._buckets[band].setdefault(key, set()).add(name)

    def remove(self, name: str) -> None:
        """Remove ``name`` from all of its buckets."""
        try:
            keys = self._members.pop(name)
        except KeyError:
            raise KeyError(f"{name!r} is not in the LSH index") from None
        for band, key in enumerate(keys):
            bucket = self._buckets[band].get(key)
            if bucket is not None:
                bucket.discard(name)
                if not bucket:
                    del self._buckets[band][key]

    def rebucket(self, name: str, minhash: Sequence[int]) -> tuple[int, int]:
        """Move ``name`` to the buckets of a repaired signature.

        Only bands whose key actually changed are touched — for a small
        delta most band keys survive, so this is the cheap path behind
        incremental index maintenance.  Returns ``(entered, left)``: the
        number of band buckets joined and abandoned (equal by
        construction, and 0 for an unchanged signature).
        """
        try:
            old_keys = self._members[name]
        except KeyError:
            raise KeyError(f"{name!r} is not in the LSH index") from None
        new_keys = self._band_keys(minhash)
        changed = 0
        for band, (old_key, new_key) in enumerate(zip(old_keys, new_keys)):
            if old_key == new_key:
                continue
            changed += 1
            bucket = self._buckets[band].get(old_key)
            if bucket is not None:
                bucket.discard(name)
                if not bucket:
                    del self._buckets[band][old_key]
            self._buckets[band].setdefault(new_key, set()).add(name)
        self._members[name] = new_keys
        return changed, changed

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def candidates(self, minhash: Sequence[int]) -> set[str]:
        """All members sharing at least one band with ``minhash``."""
        found: set[str] = set()
        for band, key in enumerate(self._band_keys(minhash)):
            bucket = self._buckets[band].get(key)
            if bucket:
                found.update(bucket)
        return found

    def candidate_pairs(self) -> list[tuple[str, str]]:
        """All intra-bucket member pairs, deduplicated and sorted.

        Only pairs landing in a shared bucket are *likely*
        near-duplicates; inexact dedup bounds and refines just these
        (exact dedup reads no bucket).
        """
        pairs: set[tuple[str, str]] = set()
        for band_buckets in self._buckets:
            for bucket in band_buckets.values():
                members = sorted(bucket)
                for i, first in enumerate(members):
                    for second in members[i + 1 :]:
                        pairs.add((first, second))
        return sorted(pairs)

    def bucket_stats(self) -> dict:
        """Occupancy counters for diagnostics and the benchmark report."""
        sizes = [
            len(bucket)
            for band_buckets in self._buckets
            for bucket in band_buckets.values()
        ]
        return {
            "members": len(self._members),
            "bands": self.params.bands,
            "rows": self.params.rows,
            "buckets": len(sizes),
            "largest_bucket": max(sizes, default=0),
        }


__all__ = ["LSHIndex"]
