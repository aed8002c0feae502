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

Implementation note — *pattern-keyed, position-keyed probing*: Alg. 4 line 6
enumerates the powerset of a probe tuple's constant attributes, which is
infeasible at arity 19+.  Only subsets equal to some indexed tuple's maximal
constant-attribute set can hit the signature map, so we enumerate the distinct
*null-position patterns* occurring on the indexed side (largest first),
keeping the step combinatorial in the number of columns containing nulls —
the complexity the paper states for Case 2 — instead of in the arity.

Each index compiles every pattern once into a *plan*: the bitmask of the
pattern's constant positions and its ``(attribute, position)`` pairs in
lexicographic attribute order.  A probe computes its own constant-position
mask once per scan; a pattern applies iff ``mask & ground == mask``, and its
key is read off the probe's values by position.  The keys are exactly the
``((attr, value), ...)`` tuples :func:`signature_of` builds, which stays as
the Def. 6.2 oracle the tests check the plans against.

The four cases of Sec. 6.2 fall out of :class:`~repro.mappings.MatchOptions`:
general (Case 1), fully signature-based inputs (Case 2, the completion step
finds nothing left to do), functional (Case 3), fully injective (Case 4).
"""

from __future__ import annotations

import bisect
import time
import weakref
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.instance import Instance, RelationInstance
from ..core.schema import RelationSchema
from ..core.tuples import Tuple
from ..core.values import LabeledNull, Value
from ..core.values import is_null as is_null_value
from ..mappings.constraints import MatchOptions
from ..mappings.instance_match import InstanceMatch
from ..mappings.tuple_mapping import TupleMapping
from ..obs.metrics import active_metrics
from ..obs.profile import active_profiler
from ..obs.trace import annotate_budget, span
from ..runtime.budget import Budget, resolve_control
from ..scoring.match_score import score_committed_pairs
from .compatibility import compatible_tuples
from .result import ComparisonResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pair import PreparedPair

SignatureKey = tuple[tuple[str, Value], ...]
"""Hashable signature: ``((attr, const), ...)`` in lexicographic attr order."""

Positions = tuple[tuple[str, int], ...]
"""``(attribute, position)`` pairs in lexicographic attribute order."""

Plan = tuple[int, Positions]
"""A null pattern compiled for probing: ``(mask, pairs)``.

``mask`` has bit ``p`` set for every constant position ``p`` of the
pattern, and ``pairs`` lists those positions with their attributes, so
``tuple((a, t.values[p]) for a, p in pairs)`` is
``signature_of(t, pattern)``."""


def signature_of(t: Tuple, attributes: Iterable[str]) -> SignatureKey:
    """``S[t, A]``: the signature of ``t`` on ``attributes`` (Def. 6.2).

    All listed attributes must hold constants in ``t``.
    """
    return tuple((a, t[a]) for a in sorted(attributes))


def maximal_signature(t: Tuple) -> SignatureKey:
    """``S_max[t]``: the signature on all constant attributes of ``t``."""
    return signature_of(t, t.constant_attributes())


def _lexicographic_positions(schema: RelationSchema) -> Positions:
    """Every attribute of ``schema`` with its position, sorted by name."""
    return tuple(sorted((a, p) for p, a in enumerate(schema.attributes)))


def _shape(
    values: Sequence[Value], order: Positions
) -> tuple[int, SignatureKey]:
    """A tuple's constant-position mask and maximal signature, in one pass."""
    mask = 0
    key = []
    for attribute, position in order:
        value = values[position]
        if not isinstance(value, LabeledNull):
            mask |= 1 << position
            key.append((attribute, value))
    return mask, tuple(key)


def _constant_mask(values: Sequence[Value]) -> int:
    """The positions of ``values`` that hold constants, as a bitmask."""
    mask = 0
    for position, value in enumerate(values):
        if not isinstance(value, LabeledNull):
            mask |= 1 << position
    return mask


def _compile_plans(order: Positions, masks: Iterable[int]) -> tuple[Plan, ...]:
    """One plan per pattern mask, largest first, then by sorted names."""
    plans = [
        (mask, tuple((a, p) for a, p in order if mask >> p & 1))
        for mask in masks
    ]
    plans.sort(key=lambda plan: (-len(plan[1]), [a for a, _ in plan[1]]))
    return tuple(plans)


def _scan_relation(
    relation: RelationInstance, order: Positions
) -> tuple[dict[SignatureKey, tuple[Tuple, ...]], dict[int, int], list[Tuple]]:
    """One pass over ``relation``: signature map, pattern counts, probe order.

    Buckets keep relation order; the probe order is Alg. 4's (sorting
    ``(-constant count, tuple id, tuple)`` never compares tuples, since
    ids are unique).
    """
    buckets: dict[SignatureKey, list[Tuple]] = {}
    pattern_counts: dict[int, int] = {}
    probe: list[tuple[int, str, Tuple]] = []
    for t in relation:
        mask, key = _shape(t.values, order)
        buckets.setdefault(key, []).append(t)
        pattern_counts[mask] = pattern_counts.get(mask, 0) + 1
        probe.append((-len(key), t.tuple_id, t))
    probe.sort()
    sigmap = {key: tuple(bucket) for key, bucket in buckets.items()}
    return sigmap, pattern_counts, [t for _, _, t in probe]


def _probe_sort_key(t: Tuple) -> tuple[int, str]:
    """Alg. 4's probe order: most constants first, then by tuple id."""
    return (-t.constant_count(), t.tuple_id)


class _RelationSignatures:
    """Precomputed signature structures for one relation of one instance.

    * ``sigmap`` — maximal signature → tuples carrying it, in relation
      order (the Alg. 4 hash map, unfiltered);
    * ``plans`` — one :data:`Plan` per distinct null pattern, largest
      first, ties by sorted attribute names (the pattern-keyed probing
      order);
    * ``probe_order`` — all tuples, most-constant-first, ties by tuple id
      (the Alg. 4 probe scan order).

    All three depend only on attribute names, positions and *constants* —
    labeled nulls never appear in a signature — so the structures survive
    null renaming unchanged.  They do depend on tuple ids (probe
    tie-breaking and the tuple objects themselves), so an index is only
    valid for the exact instance it was built from.  Probing never writes
    into them: one index serves any number of comparisons.
    """

    __slots__ = ("sigmap", "plans", "probe_order", "__weakref__")

    def __init__(
        self,
        sigmap: dict[SignatureKey, tuple[Tuple, ...]],
        plans: tuple[Plan, ...],
        probe_order: Sequence[Tuple],
    ) -> None:
        self.sigmap = sigmap
        self.plans = plans
        self.probe_order = probe_order


class SignatureIndex:
    """Per-instance signature precomputation, reusable across comparisons.

    Building the Alg. 4 signature map is the per-pair fixed cost of the
    signature algorithm; when one instance participates in many pairs (the
    Tables 2–3 grids, data-lake probing, the parallel batch engine), that
    cost can be paid once.  A :class:`~repro.algorithms.pair.PreparedPair`
    takes prebuilt indexes and otherwise builds them on first use.

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
        """Index every relation of ``instance``, one pass over each tuple."""
        profiler = active_profiler()
        relations: dict[str, _RelationSignatures] = {}
        for relation in instance.relations():
            order = _lexicographic_positions(relation.schema)
            sigmap, pattern_counts, probe_order = _scan_relation(
                relation, order
            )
            if profiler is not None:
                for key, bucket in sigmap.items():
                    profiler.observe(
                        "signature.bucket_size",
                        len(bucket),
                        f"{relation.schema.name}:{len(key)}-attrs",
                    )
            relations[relation.schema.name] = _RelationSignatures(
                sigmap=sigmap,
                plans=_compile_plans(order, pattern_counts),
                probe_order=tuple(probe_order),
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

    Holds the three structures a view reads and patches them per edited
    tuple, so an edit costs the tuples it touches, not the relation:

    * a bucket is a tuple of its members in rank order; an edit replaces
      only the buckets of the keys it touches;
    * ``plans`` are recompiled only when a pattern appears (its count
      goes 0 → 1) or vanishes (1 → 0);
    * ``probe_order`` is a list kept sorted by :func:`_probe_sort_key`.

    Ranks follow the relation's insertion order, updates keep their rank
    (an in-place replacement, matching how :meth:`DeltaBatch.apply
    <repro.delta.DeltaBatch.apply>` preserves tuple positions), and
    inserts take fresh ranks at the tail — so every structure equals a
    cold :meth:`SignatureIndex.build` of the edited relation.

    :meth:`view` hands out a :class:`_RelationSignatures` over the live
    structures.  Before an edit, a view that is still referenced gets its
    own copies, so a view never changes after it was taken; one released
    before the edit (the delta engine's case) costs nothing.
    """

    __slots__ = (
        "schema",
        "order",
        "sigmap",
        "pattern_counts",
        "plans",
        "probe_order",
        "rank",
        "next_rank",
        "_view",
    )

    def __init__(self, relation: RelationInstance) -> None:
        self.schema = relation.schema
        self.order = _lexicographic_positions(self.schema)
        self.sigmap, self.pattern_counts, self.probe_order = _scan_relation(
            relation, self.order
        )
        self.plans = _compile_plans(self.order, self.pattern_counts)
        self.rank = {t.tuple_id: rank for rank, t in enumerate(relation)}
        self.next_rank = len(self.rank)
        self._view: weakref.ref[_RelationSignatures] | None = None

    def view(self) -> _RelationSignatures:
        """The live structures, shared by every caller until the next edit."""
        view = self._view() if self._view is not None else None
        if view is None:
            view = _RelationSignatures(
                self.sigmap, self.plans, self.probe_order
            )
            self._view = weakref.ref(view)
        return view

    def _detach_view(self) -> None:
        """Before an edit: a view still held keeps the pre-edit structures."""
        view = self._view() if self._view is not None else None
        self._view = None
        if view is not None:
            view.sigmap = dict(view.sigmap)
            view.probe_order = tuple(view.probe_order)

    def _rank_of(self, t: Tuple) -> int:
        return self.rank[t.tuple_id]

    def insert(self, t: Tuple) -> None:
        if t.tuple_id in self.rank:
            raise ValueError(
                f"tuple {t.tuple_id!r} already indexed in relation "
                f"{self.schema.name!r}"
            )
        self._detach_view()
        rank = self.next_rank
        self.next_rank += 1
        self.rank[t.tuple_id] = rank
        self._move_pattern(None, self._insert_structures(t, rank))

    def _move_pattern(self, old: int | None, new: int | None) -> None:
        """Move one tuple's pattern count from mask ``old`` to ``new``.

        The plans are recompiled only when a pattern appears or vanishes.
        """
        if old == new:
            return
        counts = self.pattern_counts
        changed = False
        if old is not None:
            if counts[old] == 1:
                del counts[old]
                changed = True
            else:
                counts[old] -= 1
        if new is not None:
            count = counts.get(new, 0)
            counts[new] = count + 1
            changed = changed or not count
        if changed:
            self.plans = _compile_plans(self.order, counts)

    def _insert_structures(self, t: Tuple, rank: int) -> int:
        """File ``t`` in its bucket and probe order; returns its mask."""
        mask, key = _shape(t.values, self.order)
        bucket = self.sigmap.get(key, ())
        i = bisect.bisect(bucket, rank, key=self._rank_of)
        self.sigmap[key] = bucket[:i] + (t,) + bucket[i:]
        j = bisect.bisect(
            self.probe_order, (-len(key), t.tuple_id), key=_probe_sort_key
        )
        self.probe_order.insert(j, t)
        return mask

    def _remove_structures(self, t: Tuple, rank: int) -> int:
        """Take ``t`` out of its bucket and probe order; returns its mask."""
        mask, key = _shape(t.values, self.order)
        bucket = self.sigmap.get(key)
        if bucket is None:
            raise ValueError(
                f"tuple {t.tuple_id!r} not found under its signature in "
                f"relation {self.schema.name!r}"
            )
        i = bisect.bisect_left(bucket, rank, key=self._rank_of)
        if i >= len(bucket) or bucket[i].tuple_id != t.tuple_id:
            raise ValueError(
                f"tuple {t.tuple_id!r} missing from its signature bucket "
                f"in relation {self.schema.name!r}"
            )
        if len(bucket) == 1:
            del self.sigmap[key]
        else:
            self.sigmap[key] = bucket[:i] + bucket[i + 1:]
        j = bisect.bisect_left(
            self.probe_order, (-len(key), t.tuple_id), key=_probe_sort_key
        )
        if (
            j >= len(self.probe_order)
            or self.probe_order[j].tuple_id != t.tuple_id
        ):
            raise ValueError(
                f"tuple {t.tuple_id!r} missing from the probe order of "
                f"relation {self.schema.name!r}"
            )
        del self.probe_order[j]
        return mask

    def delete(self, t: Tuple) -> None:
        rank = self.rank.get(t.tuple_id)
        if rank is None:
            raise ValueError(
                f"tuple {t.tuple_id!r} not indexed in relation "
                f"{self.schema.name!r}"
            )
        self._detach_view()
        self._move_pattern(self._remove_structures(t, rank), None)
        del self.rank[t.tuple_id]

    def replace(self, old: Tuple, new: Tuple) -> None:
        if old.tuple_id != new.tuple_id:
            raise ValueError("replace requires matching tuple ids")
        rank = self.rank.get(old.tuple_id)
        if rank is None:
            raise ValueError(
                f"tuple {old.tuple_id!r} not indexed in relation "
                f"{self.schema.name!r}"
            )
        self._detach_view()
        self._move_pattern(
            self._remove_structures(old, rank),
            self._insert_structures(new, rank),
        )


class MutableSignatureIndex(SignatureIndex):
    """A :class:`SignatureIndex` that is patched in place under a delta batch.

    Instead of invalidating and rebuilding the whole index when its
    instance evolves, individual tuples can be inserted, deleted, or
    replaced.  Each edit patches only the signature buckets, the pattern
    plans and the probe positions of the tuple it touches, so a batch
    costs its own size, not the relation's.  The structures stay
    *structurally identical* to a cold :meth:`SignatureIndex.build` of the
    post-edit instance — same buckets in the same order, same plans, same
    probe order (regression-tested in ``tests/delta/test_signature_delta``).

    :meth:`relation` returns a view over the live structures; a later edit
    never changes a view taken before it.

    Drop-in compatible with :class:`~repro.algorithms.pair.PreparedPair`'s
    ``left_index`` / ``right_index`` parameters.
    """

    __slots__ = ("_mutable",)

    def __init__(self, mutable: dict[str, _MutableRelationSignatures]) -> None:
        super().__init__({})
        self._mutable = mutable

    @classmethod
    def build(cls, instance: Instance) -> "MutableSignatureIndex":
        """Index every relation of ``instance``, in editable form."""
        return cls(
            {
                relation.schema.name: _MutableRelationSignatures(relation)
                for relation in instance.relations()
            }
        )

    def relation(self, name: str) -> _RelationSignatures:
        return self._mutable[name].view()

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

    def delete_tuple(self, t: Tuple) -> None:
        """Drop a deleted tuple (matched by id; values drive bucket lookup)."""
        self._mutable[t.relation.name].delete(t)

    def replace_tuple(self, old: Tuple, new: Tuple) -> None:
        """Re-index an updated tuple in place, keeping its position."""
        self._mutable[old.relation.name].replace(old, new)

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
        pair: "PreparedPair",
        align_preference: bool = True,
        control: Budget | None = None,
    ) -> None:
        self.left = pair.left
        self.right = pair.right
        self.options = pair.options
        self.align_preference = align_preference
        self.control = resolve_control(control)
        self.unifier = pair.unifier()
        self.mapping = TupleMapping()
        self.matched_left: set[str] = set()
        self.matched_right: set[str] = set()

    @property
    def phases(self) -> tuple[str, ...]:
        """The signature step's greedy phases, as :meth:`admissible` policies.

        With alignment on, phase A commits only merge-free pairs (building
        reliable value-mapping anchors) and phase B then allows merging
        pairs under the coverage rule.  With alignment off, a single
        unrestricted phase reproduces the paper's plain greedy.
        """
        return ("zero", "coverage") if self.align_preference else ("any",)

    def order_candidates(
        self, candidates: Sequence[Tuple], probe: Tuple, probe_is_right: bool
    ) -> Sequence[Tuple]:
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

    def build_match(self) -> InstanceMatch:
        """Materialize the committed pairs as an InstanceMatch.

        The match holds its own copy of the pairs, so a later
        :meth:`try_add` (or a delta session's next advance) leaves it as
        it was built.
        """
        h_l, h_r = self.unifier.to_value_mappings()
        return InstanceMatch(
            self.left, self.right, h_l, h_r, self.mapping.copy()
        )

    def score(self) -> float:
        """``score(M)`` of the committed pairs, read off the unifier."""
        return score_committed_pairs(
            self.left, self.right, self.mapping, self.unifier.side_counts,
            self.options.lam,
        ).score


def _find_signature_matches(
    state: _MatchState,
    indexed_signatures: _RelationSignatures,
    probes: Sequence[Tuple],
    indexed_is_left: bool,
    policy: str = "any",
) -> int:
    """``FindSigMatches`` (Alg. 4) for one relation and one direction.

    ``indexed_signatures`` holds the indexed side's signature map and
    pattern plans; ``probes`` are scanned against it in the order given,
    which callers keep to Alg. 4's: a ``probe_order``, or raw tuples
    sorted by :func:`_probe_sort_key`.  ``policy`` is the
    admissibility rule of the current greedy phase (see
    :meth:`_MatchState.admissible`).  Returns the number of pairs added.

    The map is unfiltered, so already-matched indexed tuples are skipped
    at hit time.  When the indexed side is injective, the buckets the scan
    prunes (Alg. 4 lines 10–12) go into a call-local overlay that shadows
    the map: the index itself is never written, so one index serves every
    comparison that shares it (signature-cache entries, delta sessions).
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
    sigmap = indexed_signatures.sigmap
    plans = indexed_signatures.plans
    overlay: dict[SignatureKey, list[Tuple]] = {}

    added = 0
    for probe in probes:
        if not state.control.spend():
            break  # budget tripped: keep the pairs committed so far
        if probe_injective and probe.tuple_id in probe_matched:
            continue
        values = probe.values
        ground = _constant_mask(values)
        probe_done = False
        for mask, pairs in plans:
            if mask & ground != mask:
                continue
            key = tuple([(a, values[p]) for a, p in pairs])
            candidates = sigmap.get(key)
            if candidates and indexed_injective:
                candidates = overlay.get(key, candidates)
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
                overlay[key] = [
                    c for c in candidates if c.tuple_id not in indexed_matched
                ]
            if probe_done:
                break
        # Continue with the next probe (Alg. 4 line 15's "goto 4").
    return added


def _signature_step(
    state: _MatchState, left_index: SignatureIndex, right_index: SignatureIndex
) -> int:
    """Steps 1–2 of the signature algorithm: signature-based matches.

    Runs both ``FindSigMatches`` passes (Alg. 3 lines 3–4) per relation,
    most signature-selective relation first, once per greedy phase of
    :attr:`_MatchState.phases`.  Returns the number of pairs added.
    """
    added = 0
    ordered_relations = _relation_order(state, left_index, right_index)
    for policy in state.phases:
        for relation_name in ordered_relations:
            left_signatures = left_index.relation(relation_name)
            right_signatures = right_index.relation(relation_name)
            # Pass 1: index left, probe with right (Alg. 3 line 3).
            added += _find_signature_matches(
                state, left_signatures, right_signatures.probe_order,
                indexed_is_left=True, policy=policy,
            )
            # Pass 2: index right, probe with left (Alg. 3 line 4).
            added += _find_signature_matches(
                state, right_signatures, left_signatures.probe_order,
                indexed_is_left=False, policy=policy,
            )
    return added


def _completion_step(state: _MatchState) -> int:
    """Step 3 of the signature algorithm: greedy non-signature matches.

    Completes each relation, in schema order, over the tuples still
    eligible for new pairs (:func:`_complete_relation`), and stops at the
    first tripped budget.  Returns the number of pairs added.
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
        added += _complete_relation(state, left_pool, right_pool)
        if state.control.interrupted:
            break  # budget tripped: partial greedy match stands
    return added


def _complete_relation(
    state: _MatchState, left_pool: Sequence[Tuple], right_pool: Sequence[Tuple]
) -> int:
    """Alg. 3 lines 5–13 over one relation's pools of candidate tuples.

    Runs ``CompatibleTuples`` on the pools and confirms each left tuple's
    first consistent extension.  Returns the number of pairs added; a
    tripped budget ends the sweep early.
    """
    if not left_pool or not right_pool:
        return 0
    options = state.options
    right_lookup = {t.tuple_id: t for t in right_pool}
    compatible = compatible_tuples(left_pool, right_pool, right_lookup)
    policy = "coverage" if state.align_preference else "any"
    added = 0
    # Most-constrained (most constants) left tuples commit first.
    for t in sorted(left_pool, key=_probe_sort_key):
        if not state.control.spend():
            break
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
    state: _MatchState, left_index: SignatureIndex, right_index: SignatureIndex
) -> list[str]:
    """Relation names, most signature-selective first.

    Relations whose maximal signatures are nearly unique (e.g. entities with
    key-like constants) are matched before relations whose signatures
    collide heavily (e.g. fact tables sharing categorical values), so
    surrogate nulls are bound by the reliable matches first.
    """

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
    pair: "PreparedPair | None" = None,
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
    pair:
        The :class:`~repro.algorithms.pair.PreparedPair` of ``left`` and
        ``right``, e.g. one sharing the parallel engine's cached signature
        indexes; built here when omitted.  Supplying one never changes the
        result — only skips the work it has already done.

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
    from .pair import PreparedPair  # pair.py imports this module

    pair = PreparedPair.of(pair, left, right, options)
    options = pair.options
    started = time.perf_counter()
    state = _MatchState(
        pair, align_preference=align_preference, control=control
    )
    spends_before = state.control.nodes

    with span(
        "signature.compare", align_preference=align_preference
    ) as compare_span:
        signature_pairs = _signature_step(
            state, pair.left_index, pair.right_index
        )
        pairs_after_signature = sorted(state.mapping)

        completion_pairs = _completion_step(state)
        annotate_budget(compare_span, state.control)
        compare_span.set(
            signature_pairs=signature_pairs, completion_pairs=completion_pairs
        )

    match = state.build_match()
    score = state.score()
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

    Replays the pairs discovered before the completion step through a
    fresh match state, which re-derives minimal value mappings for them.
    """
    from .pair import PreparedPair  # pair.py imports this module

    left, right = result.match.left, result.match.right
    state = _MatchState(PreparedPair(left, right, result.options))
    for left_id, right_id in result.stats.get("pairs_after_signature", []):
        state.try_add(left.get_tuple(left_id), right.get_tuple(right_id))
    return state.score()
