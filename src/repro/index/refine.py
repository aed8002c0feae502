"""Candidate refinement: from admissible bounds to exact ranked hits.

The index answers a query in two phases.  **Candidate generation**
(:mod:`~repro.index.sketch` bounds + :mod:`~repro.index.lsh`) is cheap and
approximate-from-above; **refinement** (this module) runs the real
:func:`~repro.algorithms.signature.signature_compare` on as few candidates
as the bounds allow, through the PR-3 batch machinery:

* every full comparison goes through the shared
  :class:`~repro.parallel.SignatureCache`, so an instance is prepared and
  signature-indexed once no matter how many queries touch it;
* with ``RefinePolicy(jobs > 1)`` refinement chunks fan over the
  :class:`~repro.parallel.pool.WorkerPool` (with the PR-2 retry/limit/fault
  policies) via :func:`repro.parallel.compare_many`;
* **upper-bound-ordered early termination**: candidates are refined in
  descending bound order, and refinement stops as soon as the best
  unrefined bound drops *strictly below* the current k-th best true
  similarity — an unrefined candidate can then never enter the top-k (its
  true score is ≤ its bound), and ties are never cut (ties refine).

Exactness: with admissible bounds and complete outcomes, the refined hits
are *identical* — names, scores, matched-tuple counts, tie order — to the
brute-force oracle (:func:`brute_force_search`, :func:`brute_force_dedup`),
which compares every comparable table through the same
:class:`QueryComparer` and reads no sketch, bound or LSH bucket.
``benchmarks/bench_index.py`` gates on that equality (recall@k = 1.0).

The sketch bound is the only bound here.  The solved assignment relaxation
(:func:`repro.algorithms.assignment.assignment_bounds`) is tighter, but
each candidate it prunes saves one polynomial signature comparison, which
costs less than the solve; it prunes the exponential exact search instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..algorithms.dispatch import run_algorithm
from ..algorithms.options import (
    Algorithm,
    AlgorithmOptions,
    SignatureOptions,
    resolve_algorithm,
)
from ..algorithms.result import ComparisonResult
from ..core.instance import Instance
from ..mappings.constraints import MatchOptions
from ..obs.metrics import active_metrics
from ..obs.trace import span
from ..parallel.cache import PreparedSide, SignatureCache
from ..parallel.engine import compare_many
from ..runtime.faults import FaultPlan
from ..runtime.isolation import WorkerLimits
from ..runtime.retry import RetryPolicy
from ..utils.unionfind import UnionFind
from ..versioning.operations import align_schemas
from .sketch import InstanceSketch, comparable, similarity_upper_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import SimilarityIndex


@dataclass(frozen=True)
class SearchHit:
    """One ranked search result."""

    name: str
    similarity: float
    matched_tuples: int

    def __repr__(self) -> str:
        return (
            f"SearchHit({self.name!r}, sim={self.similarity:.3f}, "
            f"matched={self.matched_tuples})"
        )


@dataclass(frozen=True)
class DuplicatePair:
    """A near-duplicate table pair found in the index."""

    first: str
    second: str
    similarity: float


@dataclass(frozen=True)
class RefinePolicy:
    """Execution policy for the refinement phase.

    ``jobs > 1`` fans refinement chunks over fork workers;
    ``deadline``/``limits``/``retry``/``fault_plan`` are the PR-2/PR-3
    worker policies, applied per comparison.  Note that a deadline that
    actually trips makes the affected scores lower bounds, which weakens
    the exactness guarantee — keep policies off when bit-exact parity with
    the brute-force oracle is required.

    ``algorithm`` accepts the same vocabulary as :func:`repro.compare`
    (an :class:`~repro.Algorithm` member or a typed options instance).
    ``None`` — the default — refines with the signature algorithm, whose
    scores the sketch bounds are admissible for and which the oracle
    runs; other algorithms re-rank with their own scores, so parity with
    the oracle then no longer holds.
    """

    jobs: int = 1
    deadline: float | None = None
    limits: WorkerLimits | None = None
    retry: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    out: Callable[[str], None] | None = None
    algorithm: "Algorithm | AlgorithmOptions | None" = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def resolved_algorithm(self) -> AlgorithmOptions:
        """The refinement algorithm as typed options (signature default)."""
        if self.algorithm is None:
            return SignatureOptions()
        return resolve_algorithm(self.algorithm)

    @property
    def needs_workers(self) -> bool:
        return (
            self.jobs > 1
            or self.limits is not None
            or self.fault_plan is not None
        )


@dataclass
class RefineReport:
    """What a search/dedup run did, for benchmarks and diagnostics.

    ``refined`` counts full comparisons — the quantity the index exists
    to minimize; the brute-force oracle spends one per comparable table
    (or pair).  ``pruned`` candidates were eliminated by the admissible
    bound alone; ``incomparable`` were skipped for different relation
    names, exactly as the oracle skips them.
    """

    candidates: int = 0
    bound_evaluations: int = 0
    refined: int = 0
    pruned: int = 0
    incomparable: int = 0
    lsh_candidates: int = 0
    bounds: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "bound_evaluations": self.bound_evaluations,
            "refined": self.refined,
            "pruned": self.pruned,
            "incomparable": self.incomparable,
            "lsh_candidates": self.lsh_candidates,
        }

    def publish(self, op: str) -> None:
        """Mirror the report's counters into the active metrics registry.

        ``op`` labels the operation (``search`` / ``dedup``) so one run's
        searches and dedups aggregate separately.  No-op when metrics are
        disabled.
        """
        registry = active_metrics()
        if registry is None:
            return
        registry.counter("index.runs", 1, op=op)
        for key, value in self.as_dict().items():
            registry.counter(f"index.{key}", value, op=op)


class QueryComparer:
    """One query instance compared against many candidates, prep hoisted.

    The query is prepared once through the shared :class:`SignatureCache`
    and the prepared side (tuples + Alg. 4 signature index) is reused
    across all schema-compatible candidates.  Candidates with differing
    attribute sets fall back to per-pair Sec. 4.3 alignment — padding
    depends on the candidate's schema, so it cannot be hoisted — but the
    padded sides still flow through the cache.
    """

    def __init__(
        self,
        cache: SignatureCache,
        options: MatchOptions,
        query: Instance,
        spec: AlgorithmOptions | None = None,
    ) -> None:
        self.cache = cache
        self.options = options
        self.query = query
        self.spec = SignatureOptions() if spec is None else spec
        self._query_names = set(query.schema.relation_names())
        self._query_entry: PreparedSide | None = None

    def prepared_pair(
        self, candidate: Instance
    ) -> tuple[PreparedSide, PreparedSide] | None:
        """Cache entries for (query, candidate), or ``None`` if incomparable."""
        if self._query_names != set(candidate.schema.relation_names()):
            return None
        if self.query.schema.is_compatible_with(candidate.schema):
            if self._query_entry is None:
                self._query_entry = self.cache.get(self.query, "left")
            left_entry = self._query_entry
            right_entry = self.cache.get(candidate, "right")
        else:
            left, right = align_schemas(self.query, candidate)
            left_entry = self.cache.get(left, "left")
            right_entry = self.cache.get(right, "right")
        return left_entry, right_entry

    def compare(self, candidate: Instance) -> ComparisonResult | None:
        """Full comparison with the policy algorithm, or ``None``.

        Runs through the common dispatcher, which forwards the cached
        Alg. 4 indexes to the algorithms able to exploit them.  Returns
        ``None`` when the tables are incomparable (different relation
        names).
        """
        pair = self.prepared_pair(candidate)
        if pair is None:
            return None
        left_entry, right_entry = pair
        return run_algorithm(
            left_entry.instance,
            right_entry.instance,
            self.spec,
            self.options,
            left_index=left_entry.index,
            right_index=right_entry.index,
        )


def _hit(name: str, result: ComparisonResult) -> SearchHit:
    return SearchHit(
        name=name,
        similarity=result.similarity,
        matched_tuples=len(result.match.m),
    )


def _hit_order(hit: SearchHit) -> tuple[float, str]:
    return -hit.similarity, hit.name


def _pair_order(pair: DuplicatePair) -> tuple[float, str, str]:
    return -pair.similarity, pair.first, pair.second


def brute_force_search(
    index: "SimilarityIndex", query: Instance, top_k: int
) -> list[SearchHit]:
    """The exact top-k by comparing ``query`` with every table: the oracle.

    Reads no sketch, bound or LSH bucket.  Every comparable table gets a
    full comparison through :class:`QueryComparer`, which prepares and
    aligns (Sec. 4.3) exactly as :func:`refine_search` does, so the
    index's hits must equal these, tie order included.  ``top_k <= 0`` and
    an empty index return ``[]`` without a comparison.
    """
    if top_k <= 0 or len(index) == 0:
        return []
    comparer = QueryComparer(index.cache, index.options, query)
    hits = []
    for name in index.names():
        result = comparer.compare(index.get(name))
        if result is not None:
            hits.append(_hit(name, result))
    hits.sort(key=_hit_order)
    return hits[:top_k]


def brute_force_dedup(
    index: "SimilarityIndex", threshold: float
) -> list[DuplicatePair]:
    """Every comparable pair with similarity ≥ ``threshold``: the oracle.

    Compares all *n(n−1)/2* pairs in full, with no bound or LSH pruning;
    :func:`refine_dedup` must return exactly these pairs, in this order.
    """
    comparers = {
        name: QueryComparer(index.cache, index.options, index.get(name))
        for name in index.names()
    }
    pairs = []
    for first, second in _comparable_pairs(index):
        result = comparers[first].compare(index.get(second))
        if result is not None and result.similarity >= threshold:
            pairs.append(DuplicatePair(first, second, result.similarity))
    pairs.sort(key=_pair_order)
    return pairs


def cluster_duplicates(
    names: Iterable[str], pairs: Iterable[DuplicatePair]
) -> list[set[str]]:
    """Connected components (size ≥ 2) of the near-duplicate graph.

    Clusters are the groups a deduplication pass would resolve together
    (merge, drop, or version-link), sorted largest first.
    """
    components: UnionFind = UnionFind(names)
    for pair in pairs:
        components.union(pair.first, pair.second)
    clusters = [
        set(group) for group in components.classes() if len(group) >= 2
    ]
    clusters.sort(key=lambda c: (-len(c), sorted(c)))
    return clusters


def _aligned_pair(
    query: Instance, candidate: Instance
) -> tuple[Instance, Instance]:
    """The pair as :class:`QueryComparer` compares it (aligned if needed)."""
    if query.schema.is_compatible_with(candidate.schema):
        return query, candidate
    return align_schemas(query, candidate)


def _refine_batch(
    index: "SimilarityIndex",
    batch: Sequence[tuple[QueryComparer, str]],
    policy: RefinePolicy,
) -> list[ComparisonResult]:
    """Run full comparisons for a chunk of (comparer, candidate) pairs.

    Serial by default; pooled through :func:`compare_many` when the policy
    needs workers.
    """
    if not policy.needs_workers:
        results = []
        for comparer, name in batch:
            result = comparer.compare(index.get(name))
            assert result is not None  # comparability pre-checked by bounds
            results.append(result)
        return results
    pairs = [
        _aligned_pair(comparer.query, index.get(name))
        for comparer, name in batch
    ]
    return compare_many(
        pairs,
        policy.resolved_algorithm(),
        index.options,
        jobs=policy.jobs,
        cache=index.cache,
        deadline=policy.deadline,
        limits=policy.limits,
        retry=policy.retry,
        fault_plan=policy.fault_plan,
        out=policy.out,
    )


def refine_search(
    index: "SimilarityIndex",
    query: Instance,
    top_k: int,
    policy: RefinePolicy | None = None,
    exact: bool = True,
) -> tuple[list[SearchHit], RefineReport]:
    """Rank index tables against ``query``; exact top-k with pruning.

    With ``exact=True`` (default) the result is identical to brute force:
    every comparable table gets a bound, refinement proceeds in descending
    bound order, and stops only when no unrefined table can reach the
    top-k.  ``exact=False`` restricts the candidate set to the LSH
    shortlist — sub-linear, but a sufficiently similar table outside every
    shared bucket can be missed.
    """
    with span("index.search", top_k=top_k, exact=exact) as search_span:
        hits, report = _refine_search_impl(index, query, top_k, policy, exact)
        search_span.set(**report.as_dict())
    report.publish("search")
    return hits, report


def _refine_search_impl(
    index: "SimilarityIndex",
    query: Instance,
    top_k: int,
    policy: RefinePolicy | None,
    exact: bool,
) -> tuple[list[SearchHit], RefineReport]:
    policy = policy if policy is not None else RefinePolicy()
    report = RefineReport()
    if top_k <= 0 or len(index) == 0:
        return [], report

    query_sketch = InstanceSketch.build(query, index.params)
    shortlist = index.lsh.candidates(query_sketch.minhash)
    report.lsh_candidates = len(shortlist)

    names = sorted(shortlist & set(index.names())) if not exact else index.names()
    bounds: dict[str, float] = {}
    for name in names:
        candidate_sketch = index.sketch(name)
        if not comparable(query_sketch, candidate_sketch):
            report.incomparable += 1
            continue
        report.bound_evaluations += 1
        bounds[name] = similarity_upper_bound(
            query_sketch, candidate_sketch, index.options
        )
    report.candidates = len(bounds)
    report.bounds = dict(bounds)

    order = sorted(bounds, key=lambda name: (-bounds[name], name))
    comparer = QueryComparer(
        index.cache, index.options, query, spec=policy.resolved_algorithm()
    )
    hits: list[SearchHit] = []
    position = 0
    chunk = max(1, policy.jobs)
    while position < len(order):
        if len(hits) >= top_k:
            hits.sort(key=_hit_order)
            kth_similarity = hits[top_k - 1].similarity
            if bounds[order[position]] < kth_similarity:
                break  # nothing left can enter the top-k (bound admissible)
        batch = order[position : position + chunk]
        position += len(batch)
        results = _refine_batch(
            index, [(comparer, name) for name in batch], policy
        )
        for name, result in zip(batch, results):
            report.refined += 1
            hits.append(_hit(name, result))
    report.pruned = len(order) - report.refined
    hits.sort(key=_hit_order)
    return hits[:top_k], report


def _comparable_pairs(index: "SimilarityIndex") -> Iterator[tuple[str, str]]:
    names = index.names()
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            yield first, second


def refine_dedup(
    index: "SimilarityIndex",
    threshold: float,
    policy: RefinePolicy | None = None,
    exact: bool = True,
) -> tuple[list[DuplicatePair], RefineReport]:
    """All table pairs with true similarity ≥ ``threshold``.

    Exact mode bound-checks every pair (cheap) and refines only pairs whose
    admissible bound reaches the threshold — a pair below it provably
    cannot be a duplicate.  ``exact=False`` refines only LSH candidate
    pairs (sub-quadratic; may miss duplicates whose signatures never share
    a band).
    """
    with span("index.dedup", threshold=threshold, exact=exact) as dedup_span:
        pairs, report = _refine_dedup_impl(index, threshold, policy, exact)
        dedup_span.set(**report.as_dict())
    report.publish("dedup")
    return pairs, report


def _refine_dedup_impl(
    index: "SimilarityIndex",
    threshold: float,
    policy: RefinePolicy | None,
    exact: bool,
) -> tuple[list[DuplicatePair], RefineReport]:
    policy = policy if policy is not None else RefinePolicy()
    report = RefineReport()
    lsh_pairs = set(index.lsh.candidate_pairs())
    report.lsh_candidates = len(lsh_pairs)

    pair_source = (
        sorted(lsh_pairs) if not exact else list(_comparable_pairs(index))
    )
    survivors: list[tuple[str, str, float]] = []
    for first, second in pair_source:
        first_sketch, second_sketch = index.sketch(first), index.sketch(second)
        if not comparable(first_sketch, second_sketch):
            report.incomparable += 1
            continue
        report.bound_evaluations += 1
        bound = similarity_upper_bound(
            first_sketch, second_sketch, index.options
        )
        if bound < threshold:
            report.pruned += 1
            continue
        survivors.append((first, second, bound))
    report.candidates = len(survivors)

    # LSH-confirmed pairs first within equal bounds: the likeliest
    # duplicates refine early (pure ordering; the result set is unaffected).
    survivors.sort(
        key=lambda item: (
            -item[2],
            (item[0], item[1]) not in lsh_pairs,
            item[0],
            item[1],
        )
    )
    # One comparer per first table, so each is looked up in the cache once.
    spec = policy.resolved_algorithm()
    comparers = {
        first: QueryComparer(
            index.cache, index.options, index.get(first), spec=spec
        )
        for first in {first for first, _second, _bound in survivors}
    }
    pairs: list[DuplicatePair] = []
    position = 0
    chunk = max(1, policy.jobs)
    while position < len(survivors):
        batch = survivors[position : position + chunk]
        position += len(batch)
        results = _refine_batch(
            index,
            [(comparers[first], second) for first, second, _bound in batch],
            policy,
        )
        for (first, second, _bound), result in zip(batch, results):
            report.refined += 1
            if result.similarity >= threshold:
                pairs.append(DuplicatePair(first, second, result.similarity))
    pairs.sort(key=_pair_order)
    return pairs, report


__all__ = [
    "DuplicatePair",
    "QueryComparer",
    "RefinePolicy",
    "RefineReport",
    "SearchHit",
    "brute_force_dedup",
    "brute_force_search",
    "cluster_duplicates",
    "refine_dedup",
    "refine_search",
]
