"""Per-instance sketches: null-aware token multisets, min-hash, upper bounds.

A :class:`InstanceSketch` is a small, serializable summary of one instance,
built once when the instance enters the index and reused for every query:

* **column summaries** — per ``(relation, attribute)``, the multiset of
  constant values (stored as stable 64-bit hashes with counts) plus the
  number of null cells.  A constant's hash is taken over its spelling
  (:func:`_constant_token`), and constants that compare equal spell
  equally, so the summaries see the equalities the matcher sees.  These
  drive :func:`similarity_upper_bound`, an **admissible** upper bound on
  the paper's instance-similarity score: the bound never
  under-estimates, so pruning a candidate whose bound is below the
  current top-k floor can never drop a true hit;
* **min-hash signature** — over the instance's null-aware token multiset
  (one token per cell, constants by value, nulls by position only — null
  *labels* never enter a token, mirroring how the Alg. 4 signatures ignore
  them).  Banded LSH (:mod:`repro.index.lsh`) uses the signature for
  sub-linear candidate generation.

Why the bound is admissible (sketch of the argument): a matched cell scores
at most 1 when both sides hold the *same* constant, at most 1 for null-null,
at most λ for null-vs-constant, and exactly 0 for conflicting constants
(:mod:`repro.scoring.cell_score`; ``⊓ ≥ 2`` caps the null cases).  Summing
those per-cell maxima column-by-column over both sides over-approximates the
score numerator ``Σ_t score(M,t) + Σ_t' score(M,t')`` for *any* instance
match ``M`` — each tuple's score is an average of pair scores, each of which
the column-wise maxima dominate.  Dividing by the exact denominator
``size(I) + size(I')`` (computed on the Sec. 4.3 aligned schema, exactly as
full comparison pads it) yields the bound.  Under fully injective
options the bound tightens to multiset intersections and a
``min(|I|,|I'|)·arity`` cap per relation, both of which still dominate any
1:1 match.  ``tests/properties/test_sketch_bound.py`` checks the inequality
on random perturbed instances.

One cell scan (:class:`SketchScan`) computes all of it, once per instance:
:meth:`InstanceSketch.build` freezes a fresh scan, and
:class:`~repro.delta.SketchMaintainer` keeps one alive and edits it under
delta batches.
"""

from __future__ import annotations

import hashlib
import numbers
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from ..core.errors import DeltaError, FormatError
from ..core.instance import Instance
from ..core.values import is_null
from ..mappings.constraints import MatchOptions
from ..parallel.cache import instance_fingerprint

try:  # pragma: no cover - exercised through both lanes
    import numpy as _np
except Exception:  # pragma: no cover - numpy genuinely absent
    _np = None

_NUMPY_MIN_TOKENS = 256
"""Below this many distinct tokens the pure min-hash loop wins."""

_MERSENNE_PRIME = (1 << 61) - 1
"""Modulus of the universal hash family behind the min-hash permutations."""

EMPTY_SLOT = _MERSENNE_PRIME
"""Signature value of an empty token set (no token can ever hash to it)."""


def stable_hash64(text: str) -> int:
    """A 64-bit hash of ``text`` that is stable across runs and processes.

    Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
    so sketches built from it would not reload deterministically; BLAKE2b
    is stable, fast, and collision-resistant far beyond sketch sizes.
    Collisions, if they ever happened, would only *raise* the upper bound
    (a query constant spuriously counted as present) — admissibility is
    preserved by construction.
    """
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class IndexParams:
    """Sketch and LSH tuning knobs, fixed per index (and persisted with it).

    Attributes
    ----------
    num_perms:
        Min-hash signature length.  More permutations → better Jaccard
        estimates and finer LSH bands, at linear sketch cost.
    bands, rows:
        Banded-LSH shape; ``bands * rows`` must not exceed ``num_perms``.
        Two instances collide in a band when their signatures agree on all
        ``rows`` slots of that band, so more rows per band → fewer, more
        similar candidates.
    seed:
        Seed of the permutation coefficients; part of the index identity
        (two stores built with different seeds are not comparable).
    """

    num_perms: int = 64
    bands: int = 16
    rows: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_perms < 1:
            raise ValueError(f"num_perms must be >= 1, got {self.num_perms}")
        if self.bands < 1 or self.rows < 1:
            raise ValueError(
                f"bands and rows must be >= 1, got bands={self.bands} "
                f"rows={self.rows}"
            )
        if self.bands * self.rows > self.num_perms:
            raise ValueError(
                f"bands*rows = {self.bands * self.rows} exceeds "
                f"num_perms = {self.num_perms}"
            )

    def coefficients(self) -> tuple[tuple[int, int], ...]:
        """The ``(a, b)`` pairs of the universal hash family, deterministic."""
        rng = random.Random(self.seed)
        return tuple(
            (rng.randrange(1, _MERSENNE_PRIME), rng.randrange(_MERSENNE_PRIME))
            for _ in range(self.num_perms)
        )

    def as_dict(self) -> dict:
        return {
            "num_perms": self.num_perms,
            "bands": self.bands,
            "rows": self.rows,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexParams":
        try:
            return cls(
                num_perms=int(payload["num_perms"]),
                bands=int(payload["bands"]),
                rows=int(payload["rows"]),
                seed=int(payload["seed"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise FormatError(f"invalid index params payload: {error}") from error


@dataclass(frozen=True)
class ColumnSketch:
    """Summary of one attribute column: constant multiset + null count."""

    constants: dict[int, int] = field(default_factory=dict)
    null_count: int = 0

    @property
    def constant_count(self) -> int:
        return sum(self.constants.values())

    @property
    def cell_count(self) -> int:
        return self.constant_count + self.null_count


@dataclass(frozen=True)
class RelationSketch:
    """Per-relation summary: schema shape plus one column sketch per attribute."""

    name: str
    attributes: tuple[str, ...]
    tuple_count: int
    columns: dict[str, ColumnSketch]


def _constant_token(value) -> str:
    """The spelling of a constant in column keys and tokens.

    The matcher compares cells with ``==``, so constants that compare
    equal must spell equally, or the bound would count them absent from
    each other's column.  Numbers therefore spell by their exact value:
    an integral number reads ``int:N`` whatever its type (``True``,
    ``1.0`` and ``Decimal("1")`` all read ``int:1``; ``-0.0`` reads
    ``int:0``), a number some float equals reads as that float
    (``Fraction(1, 2)`` reads ``float:0.5``), and any other rational reads
    ``Fraction:n/d``.  Strings, ints and non-integral floats take the fast
    path; other values spell by type and repr.
    """
    kind = type(value)
    if kind is str or kind is int or (kind is float and not value.is_integer()):
        return f"{kind.__name__}:{value!r}"
    if not isinstance(value, numbers.Number):
        return f"{kind.__name__}:{value!r}"
    if isinstance(value, complex) and not value.imag:
        value = value.real
    try:
        exact = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        try:  # infinities and NaNs equal floats only
            return f"float:{float(value)!r}"
        except (TypeError, ValueError):
            return f"{kind.__name__}:{value!r}"
    if exact.denominator == 1:
        return f"int:{exact.numerator}"
    if abs(exact) < 2**53 and float(exact) == exact:
        return f"float:{float(exact)!r}"
    return f"Fraction:{exact.numerator}/{exact.denominator}"


def _token_hash(base: str, occurrence: int) -> int:
    """Hash of the token ``base␟occurrence``: a cell's base and how many
    earlier cells of the instance share it (multiset semantics)."""
    return stable_hash64(f"{base}\x1f{occurrence}")


class _ColumnScan:
    """Live state of one column: constant multiset, null count, token bases.

    A cell's token base is ``rel␟attr␟N`` for a null and
    ``rel␟attr␟C␟<constant>`` for a constant (``␟`` is ``\\x1f``).
    """

    __slots__ = (
        "relation", "attribute", "name", "constants", "nulls", "null_base",
        "constant_prefix",
    )

    def __init__(self, relation: str, attribute: str) -> None:
        self.relation = relation
        self.attribute = attribute
        self.name = f"{relation}.{attribute}"
        self.constants: dict[int, int] = {}
        self.nulls = 0
        self.null_base = f"{relation}\x1f{attribute}\x1fN"
        self.constant_prefix = f"{relation}\x1f{attribute}\x1fC\x1f"


class _RelationScan:
    """Live state of one relation: its shape plus one column per attribute."""

    __slots__ = ("attributes", "tuple_count", "columns")

    def __init__(self, relation: str, attributes: tuple[str, ...]) -> None:
        self.attributes = attributes
        self.tuple_count = 0
        self.columns = {a: _ColumnScan(relation, a) for a in attributes}


class SketchScan:
    """One pass over an instance's cells, kept as editable per-column state.

    Per column the scan records the constant multiset, keyed by the
    :func:`stable_hash64` of each constant's :func:`_constant_token`, and
    the null count.  With ``tokens`` it also records each token base's
    occurrence count and the multiset of token hashes the min-hash
    signature is taken over.  Tokens are multiset elements: the k-th
    occurrence of a base is its own token, so duplicated rows shift the
    Jaccard estimate instead of collapsing.

    :meth:`admit` and :meth:`retire` count one cell in or out and return
    its token hash; :meth:`freeze` copies the state into an
    :class:`InstanceSketch`.
    """

    def __init__(self, instance: Instance, *, tokens: bool) -> None:
        self.tokens = tokens
        self.relations: dict[str, _RelationScan] = {}
        self.base_counts: dict[str, int] = {}
        self.hash_counts: dict[int, int] = {}
        self.cell_count = 0
        # (type, constant) -> (spelling, key): columns repeat values, and
        # blake2b per cell is the dominant cost.
        self._encoded: dict[tuple, tuple[str, int]] = {}
        admit = self.admit
        for relation in instance.relations():
            name = relation.schema.name
            state = _RelationScan(name, relation.schema.attributes)
            self.relations[name] = state
            columns = tuple(state.columns.values())
            for t in relation:
                state.tuple_count += 1
                for column, value in zip(columns, t.values):
                    admit(column, value)

    def _encode(self, value) -> tuple[str, int]:
        try:
            cache_key = (type(value), value)
            cached = self._encoded.get(cache_key)
        except TypeError:  # unhashable constant: encode without caching
            encoded = _constant_token(value)
            return encoded, stable_hash64(encoded)
        if cached is None:
            encoded = _constant_token(value)
            cached = self._encoded[cache_key] = (encoded, stable_hash64(encoded))
        return cached

    def constant_key(self, value) -> int:
        """The key a constant counts under in its column's multiset."""
        return self._encode(value)[1]

    def admit(self, column: _ColumnScan, value) -> int | None:
        """Count one cell in; returns its token hash (``None`` without tokens)."""
        self.cell_count += 1
        if is_null(value):
            column.nulls += 1
            if not self.tokens:
                return None
            base = column.null_base
        else:
            encoded, key = self._encode(value)
            constants = column.constants
            constants[key] = constants.get(key, 0) + 1
            if not self.tokens:
                return None
            base = column.constant_prefix + encoded
        occurrence = self.base_counts.get(base, 0)
        self.base_counts[base] = occurrence + 1
        h = _token_hash(base, occurrence)
        self.hash_counts[h] = self.hash_counts.get(h, 0) + 1
        return h

    def retire(self, column: _ColumnScan, value) -> int | None:
        """Count one cell out, the inverse of :meth:`admit`.

        Raises :class:`~repro.core.errors.DeltaError` when the column
        does not hold the cell.
        """
        if is_null(value):
            if column.nulls <= 0:
                raise DeltaError(f"retiring a null from empty column {column.name}")
            column.nulls -= 1
            base = column.null_base
        else:
            encoded, key = self._encode(value)
            count = column.constants.get(key, 0)
            if count <= 0:
                raise DeltaError(
                    f"retiring constant {value!r} absent from column {column.name}"
                )
            if count == 1:
                del column.constants[key]
            else:
                column.constants[key] = count - 1
            base = column.constant_prefix + encoded
        self.cell_count -= 1
        if not self.tokens:
            return None
        # Tokens are indexed by occurrence, so removing one occurrence of
        # a base always retires its *last* index.
        occurrence = self.base_counts.get(base, 0) - 1
        if occurrence < 0:
            raise DeltaError(f"retiring token with no occurrences: {base!r}")
        if occurrence == 0:
            del self.base_counts[base]
        else:
            self.base_counts[base] = occurrence
        h = _token_hash(base, occurrence)
        before = self.hash_counts.get(h, 0)
        if before <= 0:
            raise DeltaError(f"retiring unknown token hash for base {base!r}")
        if before == 1:
            del self.hash_counts[h]
        else:
            self.hash_counts[h] = before - 1
        return h

    def freeze(self, minhash: tuple[int, ...], fingerprint: str) -> "InstanceSketch":
        """Copy the current state into an :class:`InstanceSketch`.

        Dictionaries are copied, so editing the scan later never mutates a
        sketch already handed out (sketches are shared with the LSH index
        and the store).
        """
        return InstanceSketch(
            fingerprint=fingerprint,
            relations={
                name: RelationSketch(
                    name=name,
                    attributes=state.attributes,
                    tuple_count=state.tuple_count,
                    columns={
                        attribute: ColumnSketch(
                            constants=dict(column.constants),
                            null_count=column.nulls,
                        )
                        for attribute, column in state.columns.items()
                    },
                )
                for name, state in self.relations.items()
            },
            minhash=minhash,
            token_count=self.cell_count,
        )


@dataclass(frozen=True)
class InstanceSketch:
    """The full per-instance sketch held by the similarity index.

    Everything here is invariant under null relabeling and tuple re-id
    (``fingerprint`` is the content hash of
    :func:`repro.parallel.instance_fingerprint`), so semantically equal
    instances sketch identically — the same invariance the signature
    cache relies on.
    """

    fingerprint: str
    relations: dict[str, RelationSketch]
    minhash: tuple[int, ...]
    token_count: int

    @classmethod
    def build(cls, instance: Instance, params: IndexParams) -> "InstanceSketch":
        """Sketch ``instance`` under ``params`` (deterministic).

        One :class:`SketchScan` over the cells, frozen with the min-hash
        signature of its token multiset.
        """
        scan = SketchScan(instance, tokens=True)
        return scan.freeze(
            _minhash(scan.hash_counts.keys(), params),
            instance_fingerprint(instance),
        )

    def relation_names(self) -> frozenset[str]:
        return frozenset(self.relations)


def _minhash(distinct, params: IndexParams) -> tuple[int, ...]:
    """Min-hash signature of a collection of distinct token hashes."""
    if not distinct:
        return (EMPTY_SLOT,) * params.num_perms
    if _np is not None and len(distinct) >= _NUMPY_MIN_TOKENS:
        return _minhash_numpy(distinct, params)
    signature = []
    for a, b in params.coefficients():
        signature.append(
            min((a * h + b) % _MERSENNE_PRIME for h in distinct)
        )
    return tuple(signature)


def _minhash_numpy(distinct, params: IndexParams) -> tuple[int, ...]:
    """Vectorized min-hash, bit-exact with the pure loop.

    ``(a*h + b) mod p`` with ``p = 2^61 - 1`` cannot be computed directly
    in uint64 (``a*h`` overflows), so the product is assembled from 31-bit
    limbs using ``2^61 ≡ 1 (mod p)``:

        a*h = a_hi*h_hi*2^62 + (a_hi*h_lo + a_lo*h_hi)*2^31 + a_lo*h_lo
        2^62 ≡ 2,   m*2^31 ≡ (m >> 30) + (m & (2^30-1)) * 2^31

    Every intermediate stays below 2^64 (terms are < 2^62 each), so the
    congruence is exact and one final ``% p`` recovers the value.
    """
    h = _np.fromiter(distinct, dtype=_np.uint64, count=len(distinct))
    p = _np.uint64(_MERSENNE_PRIME)
    h = h % p
    one = _np.uint64(1)
    shift31 = _np.uint64(31)
    shift30 = _np.uint64(30)
    mask31 = _np.uint64((1 << 31) - 1)
    mask30 = _np.uint64((1 << 30) - 1)
    h_hi = h >> shift31
    h_lo = h & mask31
    signature = []
    for a, b in params.coefficients():
        a_hi = _np.uint64(a >> 31)
        a_lo = _np.uint64(a & ((1 << 31) - 1))
        t1 = (a_hi * h_hi) << one
        mid = a_hi * h_lo + a_lo * h_hi
        t2 = (mid >> shift30) + ((mid & mask30) << shift31)
        t3 = a_lo * h_lo
        total = (t1 + t2 + t3) % p
        signature.append(int(((total + _np.uint64(b)) % p).min()))
    return tuple(signature)


def estimated_jaccard(left: InstanceSketch, right: InstanceSketch) -> float:
    """Fraction of agreeing signature slots — the min-hash Jaccard estimate."""
    if len(left.minhash) != len(right.minhash):
        raise ValueError("sketches built with different num_perms")
    agreeing = sum(1 for a, b in zip(left.minhash, right.minhash) if a == b)
    return agreeing / len(left.minhash)


def comparable(query: InstanceSketch, candidate: InstanceSketch) -> bool:
    """Whether the sketched instances are comparable (same relations)."""
    return query.relation_names() == candidate.relation_names()


def _column(sketch: RelationSketch, attribute: str) -> ColumnSketch:
    """The column sketch for ``attribute``, or a virtual padded column.

    An attribute the relation lacks is exactly what Sec. 4.3 alignment pads
    with one fresh null per row, so the virtual column is all nulls.
    """
    column = sketch.columns.get(attribute)
    if column is not None:
        return column
    return ColumnSketch(constants={}, null_count=sketch.tuple_count)


Overlaps = dict[str, dict[str, tuple[int, int]]]
"""Per relation, per attribute: ``(query side, candidate side)`` overlap."""

_NO_OVERLAP = (0, 0)


def _overlap(
    probe: dict[int, int], other: dict[int, int], injective: bool
) -> tuple[int, int]:
    """One column's constant overlap, the only part of the bound that
    visits keys (those both columns hold).

    Fully injective: ``Σ_key min(count, count′)`` on both sides.
    Otherwise: how many of each side's constants the other column holds.
    """
    common = probe.keys() & other.keys()
    if injective:
        shared = sum(min(probe[key], other[key]) for key in common)
        return shared, shared
    return (
        sum(probe[key] for key in common),
        sum(other[key] for key in common),
    )


def _relation_overlaps(
    query: RelationSketch, candidate: RelationSketch, injective: bool
) -> dict[str, tuple[int, int]]:
    """The overlap of every column both relation sketches hold."""
    columns = candidate.columns
    return {
        attribute: _overlap(
            column.constants, columns[attribute].constants, injective
        )
        for attribute, column in query.columns.items()
        if attribute in columns
    }


def column_overlaps(
    query: InstanceSketch,
    candidate: InstanceSketch,
    options: MatchOptions,
) -> Overlaps:
    """The constant overlap of every column both sketches hold.

    Keyed by relation, then attribute; each value is ``(query side,
    candidate side)`` as :func:`_overlap` counts them under ``options``.
    Columns only one side holds share no constant and are left out.
    :func:`similarity_upper_bound` takes this map as ``overlaps``; a
    caller that keeps one alive edits it with :func:`patch_column_overlaps`.
    """
    injective = options.fully_injective
    return {
        name: _relation_overlaps(q_rel, candidate.relations[name], injective)
        for name, q_rel in query.relations.items()
        if name in candidate.relations
    }


def patch_column_overlaps(
    overlaps: Overlaps,
    query: InstanceSketch,
    candidate: InstanceSketch,
    changes: Iterable[tuple[str, str, int, int]],
    options: MatchOptions,
) -> None:
    """Edit ``overlaps`` in place after the candidate's constants moved.

    ``changes`` holds ``(relation, attribute, key, count before)`` for
    each candidate column constant whose count changed (the
    ``constants_before`` of a :class:`~repro.delta.SketchRepair`); the
    count after is read off ``candidate``.  Each change costs O(1), and
    the result equals :func:`column_overlaps` of the two sketches.
    """
    injective = options.fully_injective
    for relation, attribute, key, before in changes:
        q_rel = query.relations.get(relation)
        q_col = q_rel.columns.get(attribute) if q_rel is not None else None
        q_count = q_col.constants.get(key, 0) if q_col is not None else 0
        if not q_count:
            continue  # a constant the query column lacks overlaps nothing
        after = candidate.relations[relation].columns[attribute].constants.get(
            key, 0
        )
        shared = overlaps[relation]
        q_shared, c_shared = shared[attribute]
        if injective:
            moved = min(q_count, after) - min(q_count, before)
            q_shared += moved
            c_shared += moved
        else:
            q_shared += q_count * ((after > 0) - (before > 0))
            c_shared += after - before
        shared[attribute] = (q_shared, c_shared)


def _side_bound_general(
    probe: RelationSketch,
    other: RelationSketch,
    attributes: tuple[str, ...],
    shared: dict[str, tuple[int, int]],
    side: int,
    lam: float,
) -> float:
    """Upper bound on ``Σ_{t ∈ probe} score(M, t)`` with no injectivity.

    Any probe cell can pair with the best cell anywhere in the other
    column: a constant scores 1 when the other column contains it at all
    (``shared[attribute][side]`` counts those), λ when the other column
    has a null, 0 otherwise; a null scores 1 against another null, λ
    against a constant.
    """
    total = 0.0
    for attribute in attributes:
        probe_col = _column(probe, attribute)
        other_col = _column(other, attribute)
        other_has_null = other_col.null_count > 0
        other_has_constant = bool(other_col.constants)
        matched = shared.get(attribute, _NO_OVERLAP)[side]
        total += matched
        total += (probe_col.constant_count - matched) * (
            lam if other_has_null else 0.0
        )
        if probe_col.null_count:
            if other_has_null:
                total += probe_col.null_count
            elif other_has_constant:
                total += probe_col.null_count * lam
    return total


def _side_bound_injective(
    probe: RelationSketch,
    other: RelationSketch,
    attributes: tuple[str, ...],
    shared: dict[str, tuple[int, int]],
    side: int,
    lam: float,
) -> float:
    """Upper bound on the probe-side sum under a fully injective match.

    1:1 tuple mappings mean at most ``min(count, count')`` disjoint pairs
    can realize a 1-score on any given constant (``shared`` sums those),
    at most ``min(nulls, nulls')`` pairs a 1-score on null-null cells,
    and at most ``min(|probe|, |other|)`` probe tuples have a non-empty
    image at all.
    """
    per_tuple_cap = min(probe.tuple_count, other.tuple_count) * len(attributes)
    total = 0.0
    for attribute in attributes:
        probe_col = _column(probe, attribute)
        other_col = _column(other, attribute)
        matched_constants = shared.get(attribute, _NO_OVERLAP)[side]
        matched_nulls = min(probe_col.null_count, other_col.null_count)
        rest = probe_col.cell_count - matched_constants - matched_nulls
        total += matched_constants + matched_nulls + rest * lam
    return min(total, per_tuple_cap)


def similarity_upper_bound(
    query: InstanceSketch,
    candidate: InstanceSketch,
    options: MatchOptions,
    overlaps: Overlaps | None = None,
) -> float:
    """Admissible upper bound on ``signature_compare`` / exact similarity.

    Computed entirely from the two sketches in ``O(sketch size)`` — no
    tuple alignment, no unification — on the Sec. 4.3 *aligned* schema
    (union of attributes per relation), exactly the shape full comparison
    pads to.  Returns 0.0 for incomparable sketches (different relation
    names), mirroring the skip in search and dedup.

    ``overlaps`` is :func:`column_overlaps` of the two sketches under
    ``options``, the one part of the bound that walks every constant
    key.  Left out, it is computed here; a caller that maintains it
    (the delta engine) passes it in and pays ``O(columns)``.  Either way
    the arithmetic is the same, so the two agree bit for bit.

    The bound dominates the true score for *any* instance match honoring
    ``options``; pruning with it therefore never drops a true top-k hit or
    an above-threshold duplicate.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> params = IndexParams()
    >>> a = InstanceSketch.build(
    ...     Instance.from_rows("R", ("A",), [("x",)]), params)
    >>> b = InstanceSketch.build(
    ...     Instance.from_rows("R", ("A",), [("y",)]), params)
    >>> similarity_upper_bound(a, a, MatchOptions.versioning())
    1.0
    >>> similarity_upper_bound(a, b, MatchOptions.versioning())
    0.0
    """
    if not comparable(query, candidate):
        return 0.0
    injective = options.fully_injective
    side = _side_bound_injective if injective else _side_bound_general
    numerator = 0.0
    denominator = 0
    for name in sorted(query.relations):
        q_rel = query.relations[name]
        c_rel = candidate.relations[name]
        extra = tuple(
            a for a in c_rel.attributes if a not in q_rel.attributes
        )
        attributes = q_rel.attributes + extra
        denominator += (q_rel.tuple_count + c_rel.tuple_count) * len(attributes)
        if q_rel.tuple_count == 0 or c_rel.tuple_count == 0:
            continue  # no pairs possible in this relation
        shared = (
            _relation_overlaps(q_rel, c_rel, injective)
            if overlaps is None
            else overlaps[name]
        )
        numerator += side(q_rel, c_rel, attributes, shared, 0, options.lam)
        numerator += side(c_rel, q_rel, attributes, shared, 1, options.lam)
    if denominator == 0:
        return 1.0  # two empty instances are vacuously isomorphic
    return min(1.0, numerator / denominator)


def sketch_to_dict(sketch: InstanceSketch) -> dict:
    """JSON-ready encoding, deterministic (sorted hashes, sorted relations)."""
    return {
        "fingerprint": sketch.fingerprint,
        "token_count": sketch.token_count,
        "minhash": list(sketch.minhash),
        "relations": {
            name: {
                "attributes": list(rel.attributes),
                "tuples": rel.tuple_count,
                "columns": {
                    attribute: {
                        "nulls": column.null_count,
                        "constants": sorted(
                            [key, count]
                            for key, count in column.constants.items()
                        ),
                    }
                    for attribute, column in rel.columns.items()
                },
            }
            for name, rel in sorted(sketch.relations.items())
        },
    }


def sketch_from_dict(payload: dict) -> InstanceSketch:
    """Decode :func:`sketch_to_dict` output; raises FormatError when malformed."""
    try:
        relations = {}
        for name, rel in payload["relations"].items():
            columns = {}
            for attribute, column in rel["columns"].items():
                columns[attribute] = ColumnSketch(
                    constants={
                        int(key): int(count)
                        for key, count in column["constants"]
                    },
                    null_count=int(column["nulls"]),
                )
            relations[name] = RelationSketch(
                name=name,
                attributes=tuple(rel["attributes"]),
                tuple_count=int(rel["tuples"]),
                columns=columns,
            )
        return InstanceSketch(
            fingerprint=payload["fingerprint"],
            relations=relations,
            minhash=tuple(int(v) for v in payload["minhash"]),
            token_count=int(payload["token_count"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise FormatError(f"invalid sketch payload: {error}") from error


__all__ = [
    "ColumnSketch",
    "EMPTY_SLOT",
    "IndexParams",
    "InstanceSketch",
    "RelationSketch",
    "SketchScan",
    "column_overlaps",
    "comparable",
    "estimated_jaccard",
    "patch_column_overlaps",
    "similarity_upper_bound",
    "sketch_from_dict",
    "sketch_to_dict",
    "stable_hash64",
]
