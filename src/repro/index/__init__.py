"""``repro.index`` — persistent sketch-based similarity index.

The retrieval layer over the paper's similarity measure: per-instance
sketches with an admissible upper bound on the similarity score
(:mod:`~repro.index.sketch`), banded LSH candidate generation for the
inexact modes (:mod:`~repro.index.lsh`), versioned on-disk persistence
with incremental maintenance (:mod:`~repro.index.store`), and
bound-ordered exact refinement through the parallel engine
(:mod:`~repro.index.refine`) — assembled by
:class:`~repro.index.core.SimilarityIndex`, the discovery API for the
paper's Sec. 1 dataset-search and deduplication applications.
:func:`~repro.index.brute_force_search` and
:func:`~repro.index.brute_force_dedup` are the brute-force oracle that
search and dedup must equal.

See ``docs/INDEX.md`` for the full tour.
"""

from ..delta.report import UpdateReport
from .core import SimilarityIndex
from .lsh import LSHIndex
from .refine import (
    DuplicatePair,
    QueryComparer,
    RefinePolicy,
    RefineReport,
    SearchHit,
    brute_force_dedup,
    brute_force_search,
    cluster_duplicates,
    refine_dedup,
    refine_search,
)
from .sketch import (
    IndexParams,
    InstanceSketch,
    comparable,
    estimated_jaccard,
    similarity_upper_bound,
    sketch_from_dict,
    sketch_to_dict,
    stable_hash64,
)
from ..core.errors import StoreCorruptionError
from .store import (
    FORMAT_NAME,
    FORMAT_VERSION,
    CompactionReport,
    IndexStore,
    RecoveryReport,
    StoreFinding,
    load_index,
    save_index,
)
from .wal import (
    LogReader,
    ScanResult,
    SegmentWriter,
    TornTail,
    crc32c,
    segment_name,
)

__all__ = [
    "CompactionReport",
    "DuplicatePair",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "IndexParams",
    "IndexStore",
    "InstanceSketch",
    "LSHIndex",
    "LogReader",
    "QueryComparer",
    "RecoveryReport",
    "RefinePolicy",
    "RefineReport",
    "ScanResult",
    "SearchHit",
    "SegmentWriter",
    "SimilarityIndex",
    "StoreCorruptionError",
    "StoreFinding",
    "TornTail",
    "UpdateReport",
    "brute_force_dedup",
    "brute_force_search",
    "cluster_duplicates",
    "comparable",
    "crc32c",
    "estimated_jaccard",
    "load_index",
    "refine_dedup",
    "refine_search",
    "save_index",
    "segment_name",
    "similarity_upper_bound",
    "sketch_from_dict",
    "sketch_to_dict",
    "stable_hash64",
]
