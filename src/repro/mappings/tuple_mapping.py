"""Tuple mappings (paper Def. 4.2) and their taxonomy.

A tuple mapping between instances ``I`` and ``I'`` is a *relation*
``m ⊆ I × I'`` — deliberately not a function, so the framework covers
non-functional matches (universal-solution comparison) as well as functional
ones (versioning, repair).  The classification predicates below implement the
paper's taxonomy:

* left injective — no tuple of ``I`` maps to two tuples of ``I'``;
* right injective — no tuple of ``I'`` is hit by two tuples of ``I``;
* fully injective — both;
* left/right total — every tuple of ``I`` / ``I'`` participates.

Note the paper names totality by the *covered* side: a mapping is "left
total" when it is defined on all of ``I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.errors import MappingError
from ..core.instance import Instance


@dataclass(frozen=True)
class MappingClassification:
    """Summary of a tuple mapping's structural properties."""

    left_injective: bool
    right_injective: bool
    left_total: bool
    right_total: bool

    @property
    def fully_injective(self) -> bool:
        """Both left and right injective."""
        return self.left_injective and self.right_injective

    @property
    def total(self) -> bool:
        """Total on both sides."""
        return self.left_total and self.right_total

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``"1:1, partial"``."""
        if self.fully_injective:
            shape = "1:1"
        elif self.left_injective:
            shape = "n:1"
        elif self.right_injective:
            shape = "1:n"
        else:
            shape = "n:m"
        coverage = "total" if self.total else "partial"
        return f"{shape}, {coverage}"


class TupleMapping:
    """A tuple mapping ``m ⊆ I × I'`` stored as id pairs with indexes.

    The mapping stores tuple *ids* (instances guarantee id disjointness) and
    maintains forward and backward image indexes so that the image sets
    ``m(t)`` / ``m(t')`` used by the tuple score (Def. 5.2) are O(1) lookups.

    Examples
    --------
    >>> m = TupleMapping()
    >>> m.add("t1", "t4")
    >>> m.add("t2", "t4")
    >>> sorted(m.preimage("t4"))
    ['t1', 't2']
    """

    __slots__ = ("_pairs", "_forward", "_backward")

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()) -> None:
        self._pairs: set[tuple[str, str]] = {
            (left_id, right_id) for left_id, right_id in pairs
        }
        # Image indexes, built on first use (see :meth:`_indexes`).
        self._forward: dict[str, set[str]] | None = None
        self._backward: dict[str, set[str]] | None = None

    def _indexes(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """The forward and backward image indexes, built on first use."""
        if self._forward is None:
            self._forward, self._backward = {}, {}
            for left_id, right_id in self._pairs:
                self._forward.setdefault(left_id, set()).add(right_id)
                self._backward.setdefault(right_id, set()).add(left_id)
        return self._forward, self._backward

    def add(self, left_id: str, right_id: str) -> None:
        """Add the pair ``(left_id, right_id)`` (idempotent)."""
        pair = (left_id, right_id)
        if pair in self._pairs:
            return
        self._pairs.add(pair)
        if self._forward is not None:
            self._forward.setdefault(left_id, set()).add(right_id)
            self._backward.setdefault(right_id, set()).add(left_id)

    def remove(self, left_id: str, right_id: str) -> None:
        """Remove a pair; raises :class:`MappingError` if absent."""
        pair = (left_id, right_id)
        if pair not in self._pairs:
            raise MappingError(f"pair {pair} not in tuple mapping")
        self._pairs.remove(pair)
        if self._forward is None:
            return
        self._forward[left_id].discard(right_id)
        if not self._forward[left_id]:
            del self._forward[left_id]
        self._backward[right_id].discard(left_id)
        if not self._backward[right_id]:
            del self._backward[right_id]

    # -- images (Def. 5.2) -----------------------------------------------------

    def image(self, left_id: str) -> frozenset[str]:
        """``m(t)`` for a left tuple: the right ids it is matched to."""
        return frozenset(self._indexes()[0].get(left_id, ()))

    def preimage(self, right_id: str) -> frozenset[str]:
        """``m(t')`` for a right tuple: the left ids matched to it."""
        return frozenset(self._indexes()[1].get(right_id, ()))

    def matched_left_ids(self) -> set[str]:
        """Left ids participating in at least one pair."""
        return set(self._indexes()[0])

    def matched_right_ids(self) -> set[str]:
        """Right ids participating in at least one pair."""
        return set(self._indexes()[1])

    # -- container protocol ------------------------------------------------------

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._pairs

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleMapping):
            return NotImplemented
        return self._pairs == other._pairs

    def __reduce__(self):
        # Canonical pickled form: pairs in sorted order.  The internal set has
        # an arbitrary, insertion-dependent iteration order, so two
        # content-equal mappings would otherwise serialize to different bytes
        # — breaking the cache-identity guarantees of the parallel engine.
        return (TupleMapping, (sorted(self._pairs),))

    def __repr__(self) -> str:
        sample = sorted(self._pairs)[:4]
        suffix = ", ..." if len(self._pairs) > 4 else ""
        return f"TupleMapping({sample}{suffix} |m|={len(self._pairs)})"

    def copy(self) -> "TupleMapping":
        """Return an independent copy.

        Copies the pair set only; the copy builds its image indexes on
        first use.
        """
        clone = TupleMapping()
        clone._pairs = set(self._pairs)
        return clone

    def inverted(self) -> "TupleMapping":
        """``m^{-1}``: the mapping with every pair flipped (Lemma 5.4 (4))."""
        return TupleMapping((r, l) for (l, r) in self._pairs)

    # -- taxonomy ------------------------------------------------------------

    def is_left_injective(self) -> bool:
        """No left tuple maps to two right tuples (functional on ``I``)."""
        return all(len(images) <= 1 for images in self._indexes()[0].values())

    def is_right_injective(self) -> bool:
        """No right tuple is hit by two left tuples."""
        return all(
            len(preimages) <= 1 for preimages in self._indexes()[1].values()
        )

    def is_fully_injective(self) -> bool:
        """Both left and right injective (1:1)."""
        return self.is_left_injective() and self.is_right_injective()

    def is_left_total(self, left: Instance) -> bool:
        """Every tuple of the left instance participates."""
        return left.ids() <= self.matched_left_ids()

    def is_right_total(self, right: Instance) -> bool:
        """Every tuple of the right instance participates."""
        return right.ids() <= self.matched_right_ids()

    def classify(self, left: Instance, right: Instance) -> MappingClassification:
        """Classify this mapping with respect to the given instances."""
        return MappingClassification(
            left_injective=self.is_left_injective(),
            right_injective=self.is_right_injective(),
            left_total=self.is_left_total(left),
            right_total=self.is_right_total(right),
        )

    def validate_against(self, left: Instance, right: Instance) -> None:
        """Check that every pair references existing tuples.

        Raises :class:`MappingError` on a dangling tuple id.
        """
        left_ids, right_ids = left.ids(), right.ids()
        for left_id, right_id in self._pairs:
            if left_id not in left_ids:
                raise MappingError(
                    f"tuple mapping references unknown left id {left_id!r}"
                )
            if right_id not in right_ids:
                raise MappingError(
                    f"tuple mapping references unknown right id {right_id!r}"
                )
