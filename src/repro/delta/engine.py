"""Warm-started delta-aware comparison (the ``compare_delta`` engine).

A :class:`DeltaSession` keeps the full greedy matching state of one
left/right comparison alive — the growing :class:`~repro.algorithms.unifier.Unifier`,
the committed tuple mapping, per-pair scores, and a mutable signature
index over the evolving right side.  The session starts (and falls back
to) the signature algorithm run by
:func:`~repro.algorithms.signature.signature_compare`'s own steps, so a
cold start commits exactly its pairs.  After a
:class:`~repro.delta.batch.DeltaBatch` mutates the right instance, only
the disturbed part of the match is recomputed:

* pairs whose right tuple was deleted or updated are dropped;
* the freed left tuples and the new/updated right tuples are re-probed
  through the same signature and completion helpers, restricted to the
  disturbed tuples;
* pair scores are repaired incrementally: a committed pair's score only
  depends on the value-mapping classes of its null cells, so the session
  indexes each class's incident pairs and re-scores exactly the pairs
  whose classes merged or whose class lost or gained a right-side null
  occurrence.

The warm result is always a *valid* instance match of the current
instances, and its similarity equals ``score_match`` of the returned
match exactly — but the greedy search is restricted to the disturbed
region, so it may trail the cold greedy optimum.  Every result therefore
carries a certified ``staleness_bound``: the admissible sketch bound
(:func:`~repro.index.sketch.similarity_upper_bound`) minus the warm
similarity, an upper bound on how far *any* rematch (cold greedy or even
the exact algorithm) can pull ahead.  A bound of zero certifies the warm
answer as exact.  The session keeps the bound's column overlaps
(:func:`~repro.index.sketch.column_overlaps`) and patches them from the
constants each sketch repair moved, so a warm bound walks no column.

Pair-score algebra
------------------
The session runs the steps of
:func:`~repro.scoring.match_score.score_committed_pairs`.  Its ⊓ lookup
reads a class's ``L`` left nulls off the unifier (the left instance never
changes) and counts its ``R`` right nulls still present (classes never
split when a tuple is deleted).  Deletions shrink ``R``, merges grow
``L``/``R`` — both are tracked as *dirty classes* and their incident
pairs re-scored.

Value mappings
--------------
The session keeps ``h_l`` and ``h_r`` as dicts and retargets only the
dirty classes: every null member maps to the class's
:func:`~repro.algorithms.unifier.class_image`, the choice
:meth:`~repro.algorithms.unifier.Unifier.to_value_mappings` makes, so
each result's mappings equal a fresh extraction.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..algorithms.pair import PreparedPair
from ..algorithms.result import ComparisonResult
from ..algorithms.signature import (
    MutableSignatureIndex,
    SignatureIndex,
    _complete_relation,
    _completion_step,
    _find_signature_matches,
    _MatchState,
    _probe_sort_key,
    _relation_order,
    _signature_step,
)
from ..algorithms.unifier import class_image
from ..core.errors import DeltaError
from ..core.instance import Instance
from ..core.tuples import Tuple
from ..core.values import LabeledNull, is_null
from ..index.sketch import (
    IndexParams,
    column_overlaps,
    patch_column_overlaps,
    similarity_upper_bound,
)
from ..mappings.constraints import MatchOptions
from ..mappings.instance_match import InstanceMatch
from ..mappings.value_mapping import ValueMapping
from ..scoring.match_score import (
    committed_pair_score,
    tuple_score_sum,
    tuple_scores,
)
from ..scoring.sizes import normalization_denominator
from .batch import OP_DELETE, OP_INSERT, DeltaBatch
from .maintenance import SketchMaintainer

_EXACTNESS_EPS = 1e-12
"""Staleness bounds at or below this are reported as certified exact."""

DEFAULT_FALLBACK_FRACTION = 0.5
"""Batches touching more than this fraction of right tuples re-run cold."""

MODE_NOOP = "noop"
MODE_COLD = "cold"
MODE_WARM_START = "warm-start"
MODE_INCREMENTAL = "incremental"
MODE_COLD_FALLBACK = "cold-fallback"


class _ClassTracker:
    """Union-find mirror of the unifier's committed value-mapping classes.

    The unifier itself cannot answer "which pairs touch this class" or
    "which nulls does this class hold", so the session maintains this
    shadow structure: for every class root, the null members (both
    sides, deleted right nulls included, as in the unifier) and the
    committed pairs incident to the class.  Unions merge
    small-into-large, keeping total set movement ``O(n log n)``.
    """

    __slots__ = ("_parent", "_size", "_nulls", "_pairs")

    def __init__(self) -> None:
        self._parent: dict = {}
        self._size: dict = {}
        self._nulls: dict = {}
        self._pairs: dict = {}

    def __contains__(self, value) -> bool:
        return value in self._parent

    def add(self, value, null: bool):
        """Ensure ``value`` is tracked; ``null`` marks a labeled null."""
        if value in self._parent:
            return self.find(value)
        self._parent[value] = value
        self._size[value] = 1
        self._nulls[value] = {value} if null else set()
        self._pairs[value] = set()
        return value

    def find(self, value):
        # Identity comparisons throughout: values can be NaN (equality-
        # hostile) and dict lookups already canonicalize equal values to
        # the stored key object, so ``is`` against the stored parent is
        # both safe and exact.
        parent = self._parent
        root = value
        while True:
            above = parent[root]
            if above is root:
                break
            root = above
        while True:
            above = parent[value]
            if above is root:
                break
            parent[value] = root
            value = above
        return root

    def union(self, a, b):
        """Merge the classes of ``a`` and ``b``.

        Returns the surviving root when a real merge happened, ``None``
        when the two values were already in one class.
        """
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return None
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)
        self._nulls[ra] |= self._nulls.pop(rb)
        self._pairs[ra] |= self._pairs.pop(rb)
        return ra

    def attach_pair(self, root, pair: tuple[str, str]) -> None:
        self._pairs[root].add(pair)

    def pairs_of(self, root) -> set:
        return self._pairs[root]

    def nulls(self, root) -> set:
        return self._nulls[root]


class _ObservedState(_MatchState):
    """A :class:`_MatchState` that mirrors committed pairs into a session.

    Only pairs that actually committed are observed; failed attempts roll
    the unifier back and must leave the class tracker untouched.
    """

    def __init__(self, session: "DeltaSession", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.session = session

    def try_add(self, t: Tuple, t_prime: Tuple, policy: str = "any") -> bool:
        if not super().try_add(t, t_prime, policy):
            return False
        self.session._observe_pair(t, t_prime)
        return True


class DeltaSession:
    """Live matching state for one evolving comparison.

    The left instance is fixed; the right instance evolves through
    :meth:`advance` calls, each applying one :class:`DeltaBatch` and
    returning a fresh :class:`ComparisonResult` with ``algorithm
    == "signature-delta"`` and delta-specific stats (``delta_mode``,
    ``staleness_bound``, ``certified_exact``, pair churn counters).

    The constructor runs the signature algorithm once, committing exactly
    :func:`~repro.algorithms.signature.signature_compare`'s pairs, and
    keeps the state warm; :meth:`DeltaSession.from_result` warm-starts
    from an existing result's match without re-running the greedy search.
    """

    def __init__(
        self,
        left: Instance,
        right: Instance,
        options: MatchOptions | None = None,
        *,
        align_preference: bool = True,
        fallback_fraction: float = DEFAULT_FALLBACK_FRACTION,
        _defer_matching: bool = False,
    ) -> None:
        if options is None:
            options = MatchOptions.general()
        self.left = left
        self.options = options
        self.align_preference = align_preference
        self.fallback_fraction = fallback_fraction
        self._left_index = SignatureIndex.build(left)
        self._left_ids = left.ids()
        self._left_nulls = left.vars()
        self._left_sketch = SketchMaintainer(
            left, IndexParams(), track_minhash=False
        ).materialize()
        self.last_result: ComparisonResult | None = None
        self._reset_right_state(right)
        # Relation priority fixed at session start: warm advances only
        # reorder *within* this cold ordering, keeping runs deterministic.
        self._relation_priority = {
            name: position
            for position, name in enumerate(
                _relation_order(self._state, self._left_index, self._right_index)
            )
        }
        if not _defer_matching:
            started = time.perf_counter()
            self._run_cold_matching()
            self._rescore_dirty(removed_pairs=())
            self.last_result = self._build_result(
                started, mode=MODE_COLD, batch=None
            )

    @classmethod
    def from_result(cls, result: ComparisonResult) -> "DeltaSession":
        """Warm-start from an existing result's match.

        The committed pairs are replayed through a fresh unifier — the
        class partition is determined by the pair set alone, so the
        replay reconstructs the exact value-mapping state without
        re-running the greedy search.  The result's match must be a
        valid match of its own instances (any :class:`ComparisonResult`
        produced by this package qualifies).
        """
        match = result.match
        session = cls(
            match.left, match.right, result.options, _defer_matching=True
        )
        state = session._state
        for left_id, right_id in sorted(match.m):
            t = match.left.get_tuple(left_id)
            t_prime = match.right.get_tuple(right_id)
            if not state.try_add(t, t_prime, policy="any"):
                raise DeltaError(
                    f"cannot replay pair ({left_id}, {right_id}): the "
                    "previous match is not internally consistent"
                )
        session._rescore_dirty(removed_pairs=())
        session.last_result = session._build_result(
            time.perf_counter(), mode=MODE_WARM_START, batch=None
        )
        return session

    def _reset_right_state(self, right: Instance) -> None:
        """(Re)build all state that depends on the right instance."""
        self.right = right
        self._right_index = MutableSignatureIndex.build(right)
        self._right_maintainer = SketchMaintainer(
            right, IndexParams(), track_minhash=False
        )
        self._right_sketch = self._right_maintainer.materialize()
        self._overlaps = column_overlaps(
            self._left_sketch, self._right_sketch, self.options
        )
        # The pair checks the comparison preconditions for every right
        # instance the session starts from.
        self._state = _ObservedState(
            self, PreparedPair(self.left, right, self.options),
            align_preference=self.align_preference,
        )
        self._tracker = _ClassTracker()
        self._pairs: dict[tuple[str, str], tuple[Tuple, Tuple]] = {}
        self._pair_scores: dict[tuple[str, str], float] = {}
        self._left_scores: dict[str, float] = {}
        self._right_scores: dict[str, float] = {}
        self._dirty_roots: set = set()
        self._new_pairs: set[tuple[str, str]] = set()
        self._rc_cache: dict = {}
        self._h_l: dict = {}
        self._h_r: dict = {}
        self._right_refs: dict[LabeledNull, int] = {}
        for t in right.tuples():
            for value in t.values:
                if is_null(value):
                    self._right_refs[value] = (
                        self._right_refs.get(value, 0) + 1
                    )
        self.similarity = 0.0

    # -- observation hooks ------------------------------------------------

    def _observe_pair(self, t: Tuple, t_prime: Tuple) -> None:
        """Mirror one committed pair into the class tracker."""
        tracker = self._tracker
        pair = (t.tuple_id, t_prime.tuple_id)
        self._pairs[pair] = (t, t_prime)
        self._new_pairs.add(pair)
        for left_value, right_value in zip(t.values, t_prime.values):
            left_null = is_null(left_value)
            right_null = is_null(right_value)
            if not left_null and not right_null:
                continue
            tracker.add(left_value, null=left_null)
            tracker.add(right_value, null=right_null)
            survivor = tracker.union(left_value, right_value)
            if survivor is not None:
                self._dirty_roots.add(survivor)
            tracker.attach_pair(tracker.find(left_value), pair)

    def _change_ref(self, null: LabeledNull, delta: int) -> None:
        """Adjust a right null's occurrence count; dirty its class on flips."""
        refs = self._right_refs
        before = refs.get(null, 0)
        after = before + delta
        if after < 0:
            raise DeltaError(
                f"right null {null!r} retired more times than it occurs"
            )
        if after:
            refs[null] = after
        else:
            refs.pop(null, None)
        if (before == 0) != (after == 0) and null in self._tracker:
            self._dirty_roots.add(self._tracker.find(null))

    # -- scoring ----------------------------------------------------------

    def _class_counts(self, value) -> tuple[int, int]:
        """``(L, R)`` of ``value``'s class: the ⊓ lookup (module docs)."""
        root = self._tracker.find(value)
        right = self._rc_cache.get(root)
        if right is None:
            # _right_refs holds exactly the right nulls still present;
            # left nulls never enter it.
            right = len(self._tracker.nulls(root) & self._right_refs.keys())
            self._rc_cache[root] = right
        return self._state.unifier.side_counts(value)[0], right

    def _rescore_dirty(
        self, removed_pairs: Sequence[tuple[str, str]]
    ) -> tuple[int, int]:
        """Re-score disturbed pairs and refresh affected tuple scores.

        A fresh state (cold start, replay, cold fallback) holds only new
        pairs, so this scores every pair.  Returns ``(pairs_added,
        pairs_rescored)``.
        """
        self._rc_cache.clear()
        tracker = self._tracker
        dirty_pairs = set(self._new_pairs)
        pairs_added = len(self._new_pairs)
        for root in {tracker.find(root) for root in self._dirty_roots}:
            dirty_pairs |= tracker.pairs_of(root)
            self._retarget(root)
        self._dirty_roots.clear()
        self._new_pairs.clear()
        lam = self.options.lam
        rescored = 0
        for pair in dirty_pairs:
            members = self._pairs.get(pair)
            if members is None:
                continue  # the pair was removed this advance
            self._pair_scores[pair] = committed_pair_score(
                *members, self._class_counts, lam
            )
            rescored += 1
        affected_left = {pair[0] for pair in dirty_pairs}
        affected_right = {pair[1] for pair in dirty_pairs}
        affected_left.update(pair[0] for pair in removed_pairs)
        affected_right.update(pair[1] for pair in removed_pairs)
        mapping = self._state.mapping
        self._left_scores.update(tuple_scores(
            affected_left, self._pair_scores, "left", mapping.image
        ))
        self._right_scores.update(tuple_scores(
            affected_right, self._pair_scores, "right", mapping.preimage
        ))
        numerator = tuple_score_sum(
            self._left_scores, self.left.tuple_ids(),
            self._right_scores, self.right.tuple_ids(),
        )
        denominator = normalization_denominator(self.left, self.right)
        self.similarity = numerator / denominator if denominator else 1.0
        return pairs_added, rescored

    def _retarget(self, root) -> None:
        """Point every null of ``root``'s class at the class's image."""
        nulls = self._tracker.nulls(root)
        target = class_image(self._state.unifier.class_constant(root), nulls)
        h_l, h_r, left_nulls = self._h_l, self._h_r, self._left_nulls
        for null in nulls:
            # A class's target only moves to a constant or a smaller
            # label, so no mapped null ever becomes one.
            if null != target:
                (h_l if null in left_nulls else h_r)[null] = target

    # -- matching ---------------------------------------------------------

    def _run_cold_matching(self) -> None:
        """The signature algorithm through ``signature_compare``'s steps."""
        _signature_step(self._state, self._left_index, self._right_index)
        _completion_step(self._state)

    # -- delta application ------------------------------------------------

    def _validate_batch(self, batch: DeltaBatch) -> None:
        """New right values must stay disjoint from the fixed left side."""
        for op in batch:
            if op.kind == OP_DELETE:
                continue
            if op.kind == OP_INSERT and op.tuple_id in self._left_ids:
                raise DeltaError(
                    f"inserted tuple id {op.tuple_id!r} collides with a "
                    "left-instance id"
                )
            for value in op.values:
                if is_null(value) and value in self._left_nulls:
                    raise DeltaError(
                        f"right-side null {value!r} collides with a "
                        "left-instance null"
                    )

    def advance(self, batch: DeltaBatch) -> ComparisonResult:
        """Apply ``batch`` to the right instance and re-score warm.

        Returns a :class:`ComparisonResult` whose match is a valid match
        of ``(left, new right)`` and whose ``stats["staleness_bound"]``
        bounds the gap to any rematch honoring the same options.
        """
        started = time.perf_counter()
        if not isinstance(batch, DeltaBatch):
            raise DeltaError("advance() expects a DeltaBatch")
        if batch.is_empty:
            result = self._build_result(started, mode=MODE_NOOP, batch=batch)
            self.last_result = result
            return result
        self._validate_batch(batch)
        new_right = batch.apply(self.right)
        right_tuples = len(self.right)
        if len(batch) > self.fallback_fraction * max(1, right_tuples):
            return self._cold_fallback(new_right, batch, started)

        # 1. Sketch + signature-index maintenance under the batch.
        self._right_sketch, repair = self._right_maintainer.apply(
            batch, fingerprint=False
        )
        patch_column_overlaps(
            self._overlaps, self._left_sketch, self._right_sketch,
            repair.constants_before, self.options,
        )
        self._right_index.apply_batch(batch, new_right)

        # 2. Retire pairs of deleted/updated right tuples; track null
        #    occurrence flips (they change fiber sizes of live classes).
        state = self._state
        mapping = state.mapping
        removed_pairs: list[tuple[str, str]] = []
        freed_left: set[str] = set()
        changed_right: dict[str, list[Tuple]] = {}
        for op in batch:
            if op.kind != OP_INSERT:
                right_id = op.tuple_id
                for left_id in list(mapping.preimage(right_id)):
                    mapping.remove(left_id, right_id)
                    pair = (left_id, right_id)
                    removed_pairs.append(pair)
                    self._pairs.pop(pair, None)
                    self._pair_scores.pop(pair, None)
                    if not mapping.image(left_id):
                        state.matched_left.discard(left_id)
                        freed_left.add(left_id)
                state.matched_right.discard(right_id)
                for value in op.old_values:
                    if is_null(value):
                        self._change_ref(value, -1)
            if op.kind != OP_DELETE:
                for value in op.values:
                    if is_null(value):
                        self._change_ref(value, +1)
                changed_right.setdefault(op.relation, []).append(
                    new_right.get_tuple(op.tuple_id)
                )
        self.right = new_right
        state.right = new_right

        # 3. Re-probe the disturbed region through the signature phases.
        freed_left_by_rel: dict[str, list[Tuple]] = {}
        for left_id in freed_left:
            t = self.left.get_tuple(left_id)
            freed_left_by_rel.setdefault(t.relation.name, []).append(t)
        touched = sorted(
            set(changed_right) | set(freed_left_by_rel),
            key=lambda name: self._relation_priority.get(name, len(self._relation_priority)),
        )
        for policy in state.phases:
            for name in touched:
                left_signatures = self._left_index.relation(name)
                right_signatures = self._right_index.relation(name)
                probes = changed_right.get(name)
                if probes:
                    _find_signature_matches(
                        state, left_signatures,
                        sorted(probes, key=_probe_sort_key),
                        indexed_is_left=True, policy=policy,
                    )
                probes = freed_left_by_rel.get(name)
                if probes:
                    _find_signature_matches(
                        state, right_signatures,
                        sorted(probes, key=_probe_sort_key),
                        indexed_is_left=False, policy=policy,
                    )

        # 4. Restricted completion: only currently-unmatched tuples are
        #    pooled (full-pool alignment sweeps are deferred to the
        #    staleness bound).
        matched_left = state.matched_left
        matched_right = state.matched_right
        for name in touched:
            changed = [
                t
                for t in changed_right.get(name, ())
                if t.tuple_id not in matched_right
            ]
            if changed:
                left_pool = [
                    t
                    for t in self.left.relation(name)
                    if t.tuple_id not in matched_left
                ]
                _complete_relation(state, left_pool, changed)
            freed = [
                t
                for t in freed_left_by_rel.get(name, ())
                if t.tuple_id not in matched_left
            ]
            if freed:
                right_pool = [
                    t
                    for t in self.right.relation(name)
                    if t.tuple_id not in matched_right
                ]
                _complete_relation(state, freed, right_pool)

        # 5. Repair scores and build the warm result.
        pairs_added, rescored = self._rescore_dirty(removed_pairs)
        result = self._build_result(
            started,
            mode=MODE_INCREMENTAL,
            batch=batch,
            pairs_added=pairs_added,
            pairs_removed=len(removed_pairs),
            rescored_pairs=rescored,
        )
        self.last_result = result
        return result

    def _cold_fallback(
        self, new_right: Instance, batch: DeltaBatch, started: float
    ) -> ComparisonResult:
        """Rebuild the right-side state and re-run the greedy matching."""
        self._reset_right_state(new_right)
        self._run_cold_matching()
        pairs_added, _ = self._rescore_dirty(removed_pairs=())
        result = self._build_result(
            started,
            mode=MODE_COLD_FALLBACK,
            batch=batch,
            pairs_added=pairs_added,
        )
        self.last_result = result
        return result

    # -- results ----------------------------------------------------------

    def staleness_bound(self) -> float:
        """``min(1, sketch upper bound) - warm similarity``, floored at 0."""
        upper = min(
            1.0,
            similarity_upper_bound(
                self._left_sketch, self._right_sketch, self.options,
                overlaps=self._overlaps,
            ),
        )
        return max(0.0, upper - self.similarity)

    def _build_result(
        self,
        started: float,
        *,
        mode: str,
        batch: DeltaBatch | None,
        pairs_added: int = 0,
        pairs_removed: int = 0,
        rescored_pairs: int = 0,
    ) -> ComparisonResult:
        match = InstanceMatch(
            self.left, self.right,
            ValueMapping.copy_of(self._h_l), ValueMapping.copy_of(self._h_r),
            self._state.mapping.copy(),
        )
        bound = self.staleness_bound()
        summary = batch.summary() if batch is not None else {
            "inserted": 0, "deleted": 0, "updated": 0
        }
        stats = {
            "delta_mode": mode,
            "staleness_bound": bound,
            "certified_exact": bound <= _EXACTNESS_EPS,
            "pairs_added": pairs_added,
            "pairs_removed": pairs_removed,
            "rescored_pairs": rescored_pairs,
            "reused_pairs": len(self._state.mapping) - pairs_added,
            "ops": summary,
            "relations_touched": sorted(
                batch.relations_touched()
            ) if batch is not None else [],
        }
        return ComparisonResult(
            similarity=self.similarity,
            match=match,
            options=self.options,
            algorithm="signature-delta",
            stats=stats,
            elapsed_seconds=time.perf_counter() - started,
        )


__all__ = [
    "DeltaSession",
    "DEFAULT_FALLBACK_FRACTION",
    "MODE_NOOP",
    "MODE_COLD",
    "MODE_WARM_START",
    "MODE_INCREMENTAL",
    "MODE_COLD_FALLBACK",
]
