"""The approximate signature algorithm (paper Sec. 6.2, Algs. 3–4).

The signature algorithm greedily builds a single instance match:

1. **Signature-based matching** (Alg. 4, run in both directions): tuples that
   agree on the constants of a maximal signature are matched first.  A
   *signature* of tuple ``t`` on attribute set ``A`` is the positional
   encoding ``[A_1: v_1, ...]`` of ``t``'s constants on ``A`` in
   lexicographic attribute order (Def. 6.2); the *maximal* signature uses all
   constant attributes.  By Property 1, ``S_max[t] = S[t', A_max(t)]``
   implies c-compatibility, so a hash map from maximal signatures to tuples
   finds candidates without pairwise scans.
2. **Greedy completion** (Alg. 3 line 5 onwards): remaining tuples are
   matched via :func:`~repro.algorithms.compatibility.compatible_tuples`,
   confirming the first extension consistent with the growing match.

Implementation note — *pattern-keyed probing*: Alg. 4 line 6 enumerates the
powerset of a probe tuple's constant attributes, which is infeasible at arity
19+.  Only subsets equal to some indexed tuple's maximal constant-attribute
set can hit the signature map, so we enumerate the distinct *null-position
patterns* occurring on the indexed side (largest first), keeping the step
combinatorial in the number of columns containing nulls — the complexity the
paper states for Case 2 — instead of in the arity.

The four cases of Sec. 6.2 fall out of :class:`~repro.mappings.MatchOptions`:
general (Case 1), fully signature-based inputs (Case 2, the completion step
finds nothing left to do), functional (Case 3), fully injective (Case 4).
"""

from __future__ import annotations

import bisect
import time
from typing import Iterable, Sequence

from ..core.instance import Instance
from ..core.tuples import Tuple
from ..core.values import Value, is_constant
from ..core.values import is_null as is_null_value
from ..mappings.constraints import MatchOptions
from ..mappings.instance_match import InstanceMatch
from ..mappings.tuple_mapping import TupleMapping
from ..obs.metrics import active_metrics
from ..obs.profile import active_profiler
from ..obs.trace import annotate_budget, span
from ..runtime.budget import Budget, resolve_control
from ..scoring.match_score import score_match
from .compatibility import compatible_tuples
from .result import ComparisonResult
from .unifier import Unifier

SignatureKey = tuple[tuple[str, Value], ...]
"""Hashable signature: ``((attr, const), ...)`` in lexicographic attr order."""


def signature_of(t: Tuple, attributes: Iterable[str]) -> SignatureKey:
    """``S[t, A]``: the signature of ``t`` on ``attributes`` (Def. 6.2).

    All listed attributes must hold constants in ``t``.
    """
    return tuple((a, t[a]) for a in sorted(attributes))


def maximal_signature(t: Tuple) -> SignatureKey:
    """``S_max[t]``: the signature on all constant attributes of ``t``."""
    return signature_of(t, t.constant_attributes())


class _RelationSignatures:
    """Precomputed signature structures for one relation of one instance.

    * ``sigmap`` — maximal signature → tuples carrying it (the Alg. 4 hash
      map, unfiltered);
    * ``patterns`` — the distinct constant-attribute sets, largest first
      (the pattern-keyed probing order);
    * ``probe_order`` — all tuples, most-constant-first (the Alg. 4 probe
      scan order).

    All three depend only on attribute names and *constants* — labeled
    nulls never appear in a signature — so the structures survive null
    renaming unchanged.  They do depend on tuple ids (probe tie-breaking
    and the tuple objects themselves), so an index is only valid for the
    exact instance it was built from.
    """

    __slots__ = ("sigmap", "patterns", "probe_order")

    def __init__(
        self,
        sigmap: dict[SignatureKey, tuple[Tuple, ...]],
        patterns: tuple[frozenset[str], ...],
        probe_order: tuple[Tuple, ...],
    ) -> None:
        self.sigmap = sigmap
        self.patterns = patterns
        self.probe_order = probe_order


class SignatureIndex:
    """Per-instance signature precomputation, reusable across comparisons.

    Building the Alg. 4 signature map is the per-pair fixed cost of the
    signature algorithm; when one instance participates in many pairs (the
    Tables 2–3 grids, data-lake probing, the parallel batch engine), that
    cost can be paid once.  ``signature_compare`` accepts prebuilt indexes
    via ``left_index``/``right_index`` and otherwise builds them itself
    (reusing them across its internal phases).

    An index is bound to the identity of the instance it was built from:
    same tuple ids, same tuple objects.  Renaming *nulls* does not
    invalidate an index (signatures only contain constants) **as long as
    the instance's tuple objects are unchanged** — which is why the
    parallel engine caches instances in a canonical prepared form instead
    of renaming per pair.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> I = Instance.from_rows("R", ("A",), [("x",), ("y",)])
    >>> index = SignatureIndex.build(I)
    >>> index.matches(I)
    True
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: dict[str, _RelationSignatures]) -> None:
        self._relations = relations

    @classmethod
    def build(cls, instance: Instance) -> "SignatureIndex":
        """Index every relation of ``instance``."""
        profiler = active_profiler()
        relations: dict[str, _RelationSignatures] = {}
        for relation in instance.relations():
            sigmap: dict[SignatureKey, list[Tuple]] = {}
            patterns: set[frozenset[str]] = set()
            for t in relation:
                sigmap.setdefault(maximal_signature(t), []).append(t)
                patterns.add(frozenset(t.constant_attributes()))
            if profiler is not None:
                for key, bucket in sigmap.items():
                    profiler.observe(
                        "signature.bucket_size",
                        len(bucket),
                        f"{relation.schema.name}:{len(key)}-attrs",
                    )
            relations[relation.schema.name] = _RelationSignatures(
                sigmap={key: tuple(bucket) for key, bucket in sigmap.items()},
                patterns=tuple(
                    sorted(patterns, key=lambda p: (-len(p), sorted(p)))
                ),
                probe_order=tuple(
                    sorted(
                        relation, key=lambda t: (-t.constant_count(), t.tuple_id)
                    )
                ),
            )
        return cls(relations)

    def relation(self, name: str) -> _RelationSignatures:
        """The precomputed structures for relation ``name``."""
        return self._relations[name]

    def matches(self, instance: Instance) -> bool:
        """Cheap sanity check that this index could describe ``instance``.

        Verifies relation names and per-relation tuple counts — enough to
        catch an index passed with the wrong instance, without re-hashing
        every tuple.
        """
        names = set(instance.schema.relation_names())
        if names != set(self._relations):
            return False
        return all(
            len(self._relations[name].probe_order)
            == sum(1 for _ in instance.relation(name))
            for name in names
        )


class _MutableRelationSignatures:
    """Live, editable counterpart of :class:`_RelationSignatures`.

    Buckets are kept as rank-sorted lists so that materialization
    reproduces the *cold-build* bucket order exactly: ranks follow the
    relation's insertion order, updates keep their rank (an in-place
    replacement, matching how :meth:`DeltaBatch.apply
    <repro.delta.DeltaBatch.apply>` preserves tuple positions), and
    inserts take fresh ranks at the tail.
    """

    __slots__ = (
        "schema",
        "buckets",
        "pattern_counts",
        "probe",
        "rank",
        "next_rank",
    )

    def __init__(self, schema) -> None:
        self.schema = schema
        self.buckets: dict[SignatureKey, list[tuple[int, Tuple]]] = {}
        self.pattern_counts: dict[frozenset[str], int] = {}
        self.probe: list[tuple[int, str, Tuple]] = []
        self.rank: dict[str, int] = {}
        self.next_rank = 0

    def insert(self, t: Tuple) -> None:
        if t.tuple_id in self.rank:
            raise ValueError(
                f"tuple {t.tuple_id!r} already indexed in relation "
                f"{self.schema.name!r}"
            )
        rank = self.next_rank
        self.next_rank += 1
        self.rank[t.tuple_id] = rank
        self._insert_structures(t, rank)

    def _insert_structures(self, t: Tuple, rank: int) -> None:
        key = maximal_signature(t)
        bucket = self.buckets.setdefault(key, [])
        bisect.insort(bucket, (rank, t))
        pattern = frozenset(t.constant_attributes())
        self.pattern_counts[pattern] = self.pattern_counts.get(pattern, 0) + 1
        bisect.insort(self.probe, (-t.constant_count(), t.tuple_id, t))

    def _remove_structures(self, t: Tuple, rank: int) -> None:
        key = maximal_signature(t)
        bucket = self.buckets.get(key)
        if bucket is None:
            raise ValueError(
                f"tuple {t.tuple_id!r} not found under its signature in "
                f"relation {self.schema.name!r}"
            )
        i = bisect.bisect_left(bucket, (rank,))
        if i >= len(bucket) or bucket[i][0] != rank:
            raise ValueError(
                f"tuple {t.tuple_id!r} missing from its signature bucket "
                f"in relation {self.schema.name!r}"
            )
        bucket.pop(i)
        if not bucket:
            del self.buckets[key]
        pattern = frozenset(t.constant_attributes())
        count = self.pattern_counts.get(pattern, 0)
        if count <= 1:
            self.pattern_counts.pop(pattern, None)
        else:
            self.pattern_counts[pattern] = count - 1
        probe_key = (-t.constant_count(), t.tuple_id)
        j = bisect.bisect_left(self.probe, probe_key)
        if j >= len(self.probe) or self.probe[j][:2] != probe_key:
            raise ValueError(
                f"tuple {t.tuple_id!r} missing from the probe order of "
                f"relation {self.schema.name!r}"
            )
        self.probe.pop(j)

    def delete(self, t: Tuple) -> None:
        try:
            rank = self.rank.pop(t.tuple_id)
        except KeyError:
            raise ValueError(
                f"tuple {t.tuple_id!r} not indexed in relation "
                f"{self.schema.name!r}"
            ) from None
        self._remove_structures(t, rank)

    def replace(self, old: Tuple, new: Tuple) -> None:
        if old.tuple_id != new.tuple_id:
            raise ValueError("replace requires matching tuple ids")
        rank = self.rank.get(old.tuple_id)
        if rank is None:
            raise ValueError(
                f"tuple {old.tuple_id!r} not indexed in relation "
                f"{self.schema.name!r}"
            )
        self._remove_structures(old, rank)
        self._insert_structures(new, rank)

    def materialize(self) -> _RelationSignatures:
        return _RelationSignatures(
            sigmap={
                key: tuple(t for _, t in bucket)
                for key, bucket in self.buckets.items()
            },
            patterns=tuple(
                sorted(
                    self.pattern_counts, key=lambda p: (-len(p), sorted(p))
                )
            ),
            probe_order=tuple(t for _, _, t in self.probe),
        )


class MutableSignatureIndex(SignatureIndex):
    """A :class:`SignatureIndex` that can be patched under a delta batch.

    Instead of invalidating and rebuilding the whole index when its
    instance evolves, individual tuples can be inserted, deleted, or
    replaced; the (lazily re-materialized) structures are *structurally
    identical* to a cold :meth:`SignatureIndex.build` of the post-edit
    instance — same buckets in the same order, same pattern order, same
    probe order (regression-tested in ``tests/delta/test_signature_delta``).

    Drop-in compatible with ``signature_compare``'s ``left_index`` /
    ``right_index`` parameters.
    """

    __slots__ = ("_mutable",)

    def __init__(self, mutable: dict[str, _MutableRelationSignatures]) -> None:
        super().__init__({})
        self._mutable = mutable

    @classmethod
    def build(cls, instance: Instance) -> "MutableSignatureIndex":
        """Index every relation of ``instance``, in editable form."""
        mutable: dict[str, _MutableRelationSignatures] = {}
        for relation in instance.relations():
            state = _MutableRelationSignatures(relation.schema)
            mutable[relation.schema.name] = state
            for t in relation:
                state.insert(t)
        return cls(mutable)

    def relation(self, name: str) -> _RelationSignatures:
        cached = self._relations.get(name)
        if cached is None:
            cached = self._mutable[name].materialize()
            self._relations[name] = cached
        return cached

    def matches(self, instance: Instance) -> bool:
        names = set(instance.schema.relation_names())
        if names != set(self._mutable):
            return False
        return all(
            len(self._mutable[name].rank)
            == sum(1 for _ in instance.relation(name))
            for name in names
        )

    def insert_tuple(self, t: Tuple) -> None:
        """Index a newly inserted tuple."""
        self._mutable[t.relation.name].insert(t)
        self._relations.pop(t.relation.name, None)

    def delete_tuple(self, t: Tuple) -> None:
        """Drop a deleted tuple (matched by id; values drive bucket lookup)."""
        self._mutable[t.relation.name].delete(t)
        self._relations.pop(t.relation.name, None)

    def replace_tuple(self, old: Tuple, new: Tuple) -> None:
        """Re-index an updated tuple in place, keeping its position."""
        self._mutable[old.relation.name].replace(old, new)
        self._relations.pop(old.relation.name, None)

    def apply_batch(self, batch, new_instance: Instance) -> None:
        """Patch the index under a delta batch.

        ``new_instance`` is the post-batch instance (inserted/updated
        tuple objects are taken from it, so the index shares them).
        """
        for op in batch:
            schema = new_instance.schema.relation(op.relation)
            if op.kind == "insert":
                self.insert_tuple(new_instance.get_tuple(op.tuple_id))
            elif op.kind == "delete":
                self.delete_tuple(Tuple(op.tuple_id, schema, op.old_values))
            else:
                self.replace_tuple(
                    Tuple(op.tuple_id, schema, op.old_values),
                    new_instance.get_tuple(op.tuple_id),
                )


def optimistic_cell_score(
    left_value: Value, right_value: Value, lam: float
) -> float:
    """Upper bound on one cell's score independent of the value mappings.

    Equal constants score 1, null-null cells at most 1 (``2/⊓`` with
    ``⊓ ≥ 2``), null-constant cells at most λ, conflicting constants 0.
    Greedy candidate ordering, the assignment relaxation (and through it
    exact pruning) and the refine rung's move bound all read this table.
    """
    left_null = is_null_value(left_value)
    right_null = is_null_value(right_value)
    if not left_null and not right_null:
        return 1.0 if left_value == right_value else 0.0
    if left_null and right_null:
        return 1.0
    return lam


def optimistic_pair_score(t: Tuple, t_prime: Tuple, lam: float) -> float:
    """Upper bound on ``score(M, t, t')`` independent of the value mappings.

    The sum of :func:`optimistic_cell_score` over the pair's cells.  Greedy
    candidate ordering uses this to try the most promising matches first
    (the intuition behind the signature algorithm, Sec. 6.2).
    """
    total = 0.0
    for left_value, right_value in zip(t.values, t_prime.values):
        total += optimistic_cell_score(left_value, right_value, lam)
    return total


class _MatchState:
    """The growing instance match shared by all phases of the algorithm."""

    def __init__(
        self,
        left: Instance,
        right: Instance,
        options: MatchOptions,
        align_preference: bool = True,
        control: Budget | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.options = options
        self.align_preference = align_preference
        self.control = resolve_control(control)
        self.unifier = Unifier.for_instances(left, right)
        self.mapping = TupleMapping()
        self.matched_left: set[str] = set()
        self.matched_right: set[str] = set()

    def order_candidates(
        self, candidates: list[Tuple], probe: Tuple, probe_is_right: bool
    ) -> list[Tuple]:
        """Order candidate tuples, cheapest value-mapping merges first.

        With ``align_preference`` off (the paper's plain greedy), candidates
        keep their bucket order.  With it on, candidates already aligned
        with the accumulated value mappings — e.g. sharing a surrogate null
        bound while matching another relation — are tried first, so the
        greedy commit creates as little non-injectivity as possible.
        """
        if not self.align_preference or len(candidates) <= 1:
            return candidates
        unifier = self.unifier
        lam = self.options.lam

        def key(candidate: Tuple) -> tuple[int, float]:
            if probe_is_right:
                left_t, right_t = candidate, probe
            else:
                left_t, right_t = probe, candidate
            return (
                unifier.merge_cost(left_t, right_t),
                -optimistic_pair_score(left_t, right_t, lam),
            )

        return sorted(candidates, key=key)

    def blocked(self, left_id: str, right_id: str) -> bool:
        """Whether injectivity constraints forbid the pair."""
        if self.options.left_injective and left_id in self.matched_left:
            return True
        if self.options.right_injective and right_id in self.matched_right:
            return True
        return False

    def admissible(self, t: Tuple, t_prime: Tuple, policy: str) -> bool:
        """Whether the greedy phase ``policy`` may commit this pair.

        * ``"any"`` — no restriction (the paper's plain greedy);
        * ``"zero"`` — only pairs whose unification merges nothing new
          (phase A of the aligned greedy);
        * ``"coverage"`` — merging pairs are allowed only when they give an
          otherwise-unmatched tuple its first match, preventing one
          non-injective probe from absorbing tuples other probes need.
        """
        if policy == "any":
            return True
        cost = self.unifier.merge_cost(t, t_prime)
        if cost == 0:
            return True
        if policy == "zero":
            return False
        return (
            t.tuple_id not in self.matched_left
            or t_prime.tuple_id not in self.matched_right
        )

    def try_add(self, t: Tuple, t_prime: Tuple, policy: str = "any") -> bool:
        """``IsCompatible`` + ``UpdateInstanceMatch`` of Algs. 3–4.

        Attempts to unify the pair against the growing value mappings; on
        success the pair is committed to the tuple mapping.
        """
        if self.blocked(t.tuple_id, t_prime.tuple_id):
            return False
        if (t.tuple_id, t_prime.tuple_id) in self.mapping:
            return False
        if not self.admissible(t, t_prime, policy):
            return False
        if not self.unifier.try_unify_tuples(t, t_prime):
            return False
        self.mapping.add(t.tuple_id, t_prime.tuple_id)
        self.matched_left.add(t.tuple_id)
        self.matched_right.add(t_prime.tuple_id)
        return True

    def build_match(self, pairs: Iterable[tuple[str, str]] | None = None) -> InstanceMatch:
        """Materialize the (possibly partial) match as an InstanceMatch."""
        mapping = self.mapping if pairs is None else TupleMapping(pairs)
        h_l, h_r = self.unifier.to_value_mappings()
        return InstanceMatch(
            left=self.left, right=self.right, h_l=h_l, h_r=h_r, m=mapping
        )


def _find_signature_matches(
    state: _MatchState,
    indexed: Sequence[Tuple],
    probes: Sequence[Tuple],
    indexed_is_left: bool,
    policy: str = "any",
    indexed_signatures: _RelationSignatures | None = None,
    probe_signatures: _RelationSignatures | None = None,
) -> int:
    """``FindSigMatches`` (Alg. 4) for one relation and one direction.

    ``indexed`` tuples go into the signature map keyed by their maximal
    signatures; ``probes`` are scanned against it.  ``policy`` is the
    admissibility rule of the current greedy phase (see
    :meth:`_MatchState.admissible`).  Returns the number of pairs added.

    When precomputed :class:`_RelationSignatures` are supplied, the
    signature map / pattern list / probe order are taken from them instead
    of being rebuilt.  The cached map is unfiltered, so already-matched
    indexed tuples are skipped at hit time — which the scan below does
    anyway — making the cached and rebuilt paths commit identical pairs in
    identical order.
    """
    options = state.options
    # Injectivity of the *indexed* side (the side a hit consumes from the map).
    indexed_injective = (
        options.left_injective if indexed_is_left else options.right_injective
    )
    probe_injective = (
        options.right_injective if indexed_is_left else options.left_injective
    )
    indexed_matched = (
        state.matched_left if indexed_is_left else state.matched_right
    )
    probe_matched = (
        state.matched_right if indexed_is_left else state.matched_left
    )

    sigmap: dict[SignatureKey, list[Tuple]]
    ordered_patterns: Sequence[frozenset[str]]
    if indexed_signatures is not None:
        # Per-call mutable copy: the scan prunes consumed buckets in place
        # and must never write back into the shared cached index.
        sigmap = {
            key: list(bucket)
            for key, bucket in indexed_signatures.sigmap.items()
        }
        ordered_patterns = indexed_signatures.patterns
    else:
        sigmap = {}
        patterns: set[frozenset[str]] = set()
        for t in indexed:
            if indexed_injective and t.tuple_id in indexed_matched:
                continue
            sigmap.setdefault(maximal_signature(t), []).append(t)
            patterns.add(frozenset(t.constant_attributes()))
        # Largest patterns first: prefer matches sharing the most constants.
        ordered_patterns = sorted(patterns, key=lambda p: (-len(p), sorted(p)))

    if probe_signatures is not None:
        probe_scan: Sequence[Tuple] = probe_signatures.probe_order
    else:
        # Scan probes most-constant-first so constrained tuples commit early.
        probe_scan = sorted(
            probes, key=lambda t: (-t.constant_count(), t.tuple_id)
        )

    added = 0
    for probe in probe_scan:
        if not state.control.spend():
            break  # budget tripped: keep the pairs committed so far
        if probe_injective and probe.tuple_id in probe_matched:
            continue
        ground = set(probe.constant_attributes())
        probe_done = False
        for pattern in ordered_patterns:
            if not pattern <= ground:
                continue
            key = signature_of(probe, pattern)
            candidates = sigmap.get(key)
            if not candidates:
                continue
            ordered = state.order_candidates(
                candidates, probe, probe_is_right=indexed_is_left
            )
            for candidate in ordered:
                if indexed_injective and candidate.tuple_id in indexed_matched:
                    continue  # consumed by an earlier probe
                if indexed_is_left:
                    success = state.try_add(candidate, probe, policy)
                else:
                    success = state.try_add(probe, candidate, policy)
                if success:
                    added += 1
                    if probe_injective:
                        probe_done = True
                        break
            if indexed_injective:
                # Drop consumed tuples from the bucket (Alg. 4 lines 10–12).
                sigmap[key] = [
                    c for c in candidates if c.tuple_id not in indexed_matched
                ]
            if probe_done:
                break
        # Continue with the next probe (Alg. 4 line 15's "goto 4").
    return added


def _completion_step(state: _MatchState) -> int:
    """Step 3 of the signature algorithm: greedy non-signature matches.

    Runs ``CompatibleTuples`` on the tuples still eligible for new pairs and
    confirms each first consistent extension (Alg. 3 lines 5–13).
    Returns the number of pairs added.
    """
    options = state.options
    added = 0
    for relation in state.left.relations():
        right_relation = state.right.relation(relation.schema.name)
        left_pool = [
            t
            for t in relation
            if not (options.left_injective and t.tuple_id in state.matched_left)
        ]
        right_pool = [
            t
            for t in right_relation
            if not (
                options.right_injective and t.tuple_id in state.matched_right
            )
        ]
        if not left_pool or not right_pool:
            continue
        right_lookup = {t.tuple_id: t for t in right_pool}
        compatible = compatible_tuples(left_pool, right_pool, right_lookup)
        policy = "coverage" if state.align_preference else "any"
        # Most-constrained (most constants) left tuples commit first.
        for t in sorted(
            left_pool, key=lambda x: (-x.constant_count(), x.tuple_id)
        ):
            if not state.control.spend():
                return added  # budget tripped: partial greedy match stands
            if options.left_injective and t.tuple_id in state.matched_left:
                continue
            candidates = [
                right_lookup[right_id]
                for right_id in compatible.get(t.tuple_id, [])
            ]
            for t_prime in state.order_candidates(
                candidates, t, probe_is_right=False
            ):
                if state.try_add(t, t_prime, policy):
                    added += 1
                    if options.left_injective:
                        break  # Alg. 3 line 13: next left tuple
    return added


def _relation_order(
    state: _MatchState,
    left_index: SignatureIndex | None = None,
    right_index: SignatureIndex | None = None,
) -> list[str]:
    """Relation names, most signature-selective first.

    Relations whose maximal signatures are nearly unique (e.g. entities with
    key-like constants) are matched before relations whose signatures
    collide heavily (e.g. fact tables sharing categorical values), so
    surrogate nulls are bound by the reliable matches first.
    """
    if left_index is None:
        left_index = SignatureIndex.build(state.left)
    if right_index is None:
        right_index = SignatureIndex.build(state.right)

    def selectivity(name: str) -> float:
        left_rel = left_index.relation(name)
        right_rel = right_index.relation(name)
        total = len(left_rel.probe_order) + len(right_rel.probe_order)
        if not total:
            return 0.0
        distinct = len(left_rel.sigmap.keys() | right_rel.sigmap.keys())
        return distinct / total

    names = list(state.left.schema.relation_names())
    return sorted(names, key=lambda n: (-selectivity(n), n))


def signature_compare(
    left: Instance,
    right: Instance,
    options: MatchOptions | None = None,
    align_preference: bool = True,
    control: Budget | None = None,
    left_index: SignatureIndex | None = None,
    right_index: SignatureIndex | None = None,
) -> ComparisonResult:
    """Run the signature algorithm (Alg. 3) and score the greedy match.

    The returned similarity approximates :func:`exact_compare`'s from below
    with respect to the search space the greedy strategy explores; Sec. 7.1
    of the paper measures the gap at < 1% on realistic workloads.

    Parameters
    ----------
    align_preference:
        Order greedy candidates by how little non-injectivity committing
        them would create (see :meth:`Unifier.merge_cost`).  ``False``
        reproduces the paper's plain first-consistent-extension greedy; the
        ablation bench quantifies the difference.
    control:
        Optional :class:`~repro.runtime.Budget`.  The algorithm is
        polynomial, so this mostly matters for cooperative cancellation:
        when the budget trips, the pairs committed so far are scored and
        returned with the triggering outcome.
    left_index, right_index:
        Optional precomputed :class:`SignatureIndex` objects for ``left`` /
        ``right``, e.g. from the parallel engine's signature cache.  They
        must have been built from exactly these instances (checked
        cheaply); when omitted they are built here and reused across the
        algorithm's internal phases.  Supplying an index never changes the
        result — only skips the per-pair index construction.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> from repro.core.values import LabeledNull
    >>> I = Instance.from_rows("R", ("A", "B"),
    ...     [("x", LabeledNull("N1"))], id_prefix="l")
    >>> J = Instance.from_rows("R", ("A", "B"),
    ...     [("x", LabeledNull("Na"))], id_prefix="r")
    >>> signature_compare(I, J).similarity
    1.0
    """
    if options is None:
        options = MatchOptions.general()
    left.assert_comparable_with(right)
    started = time.perf_counter()
    if left_index is None:
        left_index = SignatureIndex.build(left)
    elif not left_index.matches(left):
        raise ValueError(
            "left_index was not built from the left instance "
            "(relation names or tuple counts differ)"
        )
    if right_index is None:
        right_index = SignatureIndex.build(right)
    elif not right_index.matches(right):
        raise ValueError(
            "right_index was not built from the right instance "
            "(relation names or tuple counts differ)"
        )
    state = _MatchState(
        left, right, options,
        align_preference=align_preference, control=control,
    )
    spends_before = state.control.nodes

    signature_pairs = 0
    with span(
        "signature.compare", align_preference=align_preference
    ) as compare_span:
        # With alignment on, the signature phase runs twice: phase A commits
        # only merge-free pairs (building reliable value-mapping anchors),
        # phase B then allows merging pairs under the coverage rule.  With
        # alignment off, a single unrestricted phase reproduces the paper's
        # plain greedy.
        phases = ("zero", "coverage") if align_preference else ("any",)
        ordered_relations = _relation_order(state, left_index, right_index)
        for policy in phases:
            for relation_name in ordered_relations:
                left_signatures = left_index.relation(relation_name)
                right_signatures = right_index.relation(relation_name)
                # Pass 1: index left, probe with right (Alg. 3 line 3).
                signature_pairs += _find_signature_matches(
                    state, left_signatures.probe_order,
                    right_signatures.probe_order,
                    indexed_is_left=True, policy=policy,
                    indexed_signatures=left_signatures,
                    probe_signatures=right_signatures,
                )
                # Pass 2: index right, probe with left (Alg. 3 line 4).
                signature_pairs += _find_signature_matches(
                    state, right_signatures.probe_order,
                    left_signatures.probe_order,
                    indexed_is_left=False, policy=policy,
                    indexed_signatures=right_signatures,
                    probe_signatures=left_signatures,
                )
        pairs_after_signature = list(state.mapping)

        completion_pairs = _completion_step(state)
        annotate_budget(compare_span, state.control)
        compare_span.set(
            signature_pairs=signature_pairs, completion_pairs=completion_pairs
        )

    match = state.build_match()
    score = score_match(match, lam=options.lam)
    total_pairs = len(state.mapping)
    registry = active_metrics()
    if registry is not None:
        registry.counter("signature.runs")
        registry.counter("signature.pairs", total_pairs)
        registry.counter("signature.signature_pairs", signature_pairs)
        registry.counter("signature.completion_pairs", completion_pairs)
        registry.counter(
            "signature.spends", state.control.nodes - spends_before
        )
        registry.counter(
            "signature.outcome", 1, outcome=state.control.outcome.value
        )
    return ComparisonResult(
        similarity=score,
        match=match,
        options=options,
        algorithm="signature",
        outcome=state.control.outcome,
        stats={
            "signature_pairs": signature_pairs,
            "completion_pairs": completion_pairs,
            "pairs_after_signature": pairs_after_signature,
            "signature_fraction": (
                signature_pairs / total_pairs if total_pairs else 1.0
            ),
            "case": _classify_case(options, completion_pairs),
        },
        elapsed_seconds=time.perf_counter() - started,
    )


def _classify_case(options: MatchOptions, completion_pairs: int) -> str:
    """Which of the paper's Sec. 6.2 runtime cases this run realized.

    Case 4 (fully injective) ⊃ Case 3 (functional) in speed benefit; the
    "fully signature-based" Case 2 is a property of the data (the completion
    step found nothing), reported when it occurred under general options.
    """
    if options.fully_injective:
        return "case-4-fully-injective"
    if options.left_injective:
        return "case-3-functional"
    if completion_pairs == 0:
        return "case-2-fully-signature-based"
    return "case-1-general"


def signature_step_only_score(
    result: ComparisonResult,
) -> float:
    """Score of the match restricted to signature-based pairs (Table 4).

    Rebuilds the instance match using only the pairs discovered before the
    completion step and re-derives minimal value mappings for them.
    """
    left, right = result.match.left, result.match.right
    pairs = result.stats.get("pairs_after_signature", [])
    unifier = Unifier.for_instances(left, right)
    kept: list[tuple[str, str]] = []
    for left_id, right_id in pairs:
        if unifier.try_unify_tuples(
            left.get_tuple(left_id), right.get_tuple(right_id)
        ):
            kept.append((left_id, right_id))
    h_l, h_r = unifier.to_value_mappings()
    sb_match = InstanceMatch(
        left=left, right=right, h_l=h_l, h_r=h_r, m=TupleMapping(kept)
    )
    return score_match(sb_match, lam=result.options.lam)
