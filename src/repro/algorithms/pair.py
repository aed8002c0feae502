"""One prepared pair per comparison: the state the ladder's rungs share.

Exact search (Alg. 1) and the signature algorithm's completion step
(Alg. 3) both start from ``CompatibleTuples`` (Alg. 2) over two instances
that meet the comparison preconditions of Sec. 4.  A :class:`PreparedPair`
checks those preconditions once and builds, on first use, what the four
rungs of the anytime ladder (signature, refine, assignment, exact) would
otherwise each re-derive:

* ``left_index`` / ``right_index`` — the Alg. 4 signature indexes;
* ``compatible`` — Alg. 2's compatible-tuple map over all relations;
* ``blocks`` — one :class:`RelationBlock` per relation over ``compatible``;
* ``nulls`` — ``(Vars(left), Vars(right))``;
* ``denominator`` — ``size(I) + size(I')`` (Def. 5.3).

Rungs read these values and never write them, so one pair serves a whole
ladder; a rung that needs a unifier takes a fresh one from
:meth:`PreparedPair.unifier`, because rungs roll back or grow their own.
Every rung accepts ``pair=`` and builds its own pair without one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from ..core.instance import Instance
from ..core.values import LabeledNull
from ..mappings.constraints import MatchOptions
from ..scoring.sizes import normalization_denominator
from .compatibility import compatible_tuples_of_instances
from .signature import SignatureIndex, optimistic_pair_score
from .unifier import Unifier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.cache import PreparedSide


@dataclass(frozen=True)
class RelationBlock:
    """One relation's candidate weight matrix in canonical (id-sorted) order.

    Rows and columns are the relation's left and right tuple ids, sorted
    (what makes the assignment solver invariant under tuple shuffles);
    ``weights`` maps each compatible ``(row, col)`` to its
    :func:`~repro.algorithms.signature.optimistic_pair_score`.
    """

    name: str
    left_ids: tuple[str, ...]
    right_ids: tuple[str, ...]
    weights: dict[tuple[int, int], float]

    @property
    def size(self) -> int:
        return max(len(self.left_ids), len(self.right_ids))

    def row_maxima(self) -> list[float]:
        out = [0.0] * len(self.left_ids)
        for (row, _col), w in self.weights.items():
            if w > out[row]:
                out[row] = w
        return out

    def col_maxima(self) -> list[float]:
        out = [0.0] * len(self.right_ids)
        for (_row, col), w in self.weights.items():
            if w > out[col]:
                out[col] = w
        return out


class PreparedPair:
    """Two comparable instances, their options, and their shared state.

    The constructor asserts comparability once and checks each supplied
    signature index with :meth:`SignatureIndex.matches`; the other values
    are built on first use.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> I = Instance.from_rows("R", ("A",), [("x",), ("y",)], id_prefix="l")
    >>> J = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
    >>> pair = PreparedPair(I, J)
    >>> pair.compatible
    {'l1': ['r1'], 'l2': []}
    >>> pair.denominator
    3
    """

    def __init__(
        self,
        left: Instance,
        right: Instance,
        options: MatchOptions | None = None,
        *,
        left_index: SignatureIndex | None = None,
        right_index: SignatureIndex | None = None,
    ) -> None:
        left.assert_comparable_with(right)
        self.left = left
        self.right = right
        self.options = MatchOptions.general() if options is None else options
        for side, index, instance in (
            ("left", left_index, left),
            ("right", right_index, right),
        ):
            if index is not None and not index.matches(instance):
                raise ValueError(
                    f"{side}_index was not built from the {side} instance "
                    "(relation names or tuple counts differ)"
                )
        # A supplied index seeds its cached property below.
        if left_index is not None:
            self.left_index = left_index
        if right_index is not None:
            self.right_index = right_index

    @classmethod
    def from_sides(
        cls,
        left: "PreparedSide",
        right: "PreparedSide",
        options: MatchOptions | None = None,
    ) -> "PreparedPair":
        """The pair over two signature-cache entries, sharing their indexes."""
        return cls(
            left.instance, right.instance, options,
            left_index=left.index, right_index=right.index,
        )

    @classmethod
    def of(
        cls,
        pair: "PreparedPair | None",
        left: Instance,
        right: Instance,
        options: MatchOptions | None,
    ) -> "PreparedPair":
        """``pair`` checked against a rung's arguments, or a new pair.

        ``options=None`` takes the pair's options.
        """
        if pair is None:
            return cls(left, right, options)
        if pair.left is not left or pair.right is not right:
            raise ValueError("pair was built from other instances")
        if options is not None and options != pair.options:
            raise ValueError("pair was built with other options")
        return pair

    @cached_property
    def left_index(self) -> SignatureIndex:
        return SignatureIndex.build(self.left)

    @cached_property
    def right_index(self) -> SignatureIndex:
        return SignatureIndex.build(self.right)

    @cached_property
    def compatible(self) -> dict[str, list[str]]:
        """Alg. 2: each left tuple id → its compatible right tuple ids."""
        return compatible_tuples_of_instances(self.left, self.right)

    @cached_property
    def blocks(self) -> tuple[RelationBlock, ...]:
        """One weight block per relation over :attr:`compatible`.

        Relations without candidate pairs yield empty-weight blocks.
        """
        left, right = self.left, self.right
        lam = self.options.lam
        blocks = []
        for relation in left.relations():
            name = relation.schema.name
            left_ids = tuple(sorted(t.tuple_id for t in relation))
            right_ids = tuple(sorted(t.tuple_id for t in right.relation(name)))
            col_index = {right_id: j for j, right_id in enumerate(right_ids)}
            weights: dict[tuple[int, int], float] = {}
            for row, left_id in enumerate(left_ids):
                t = left.get_tuple(left_id)
                for right_id in self.compatible.get(left_id, ()):
                    col = col_index.get(right_id)
                    if col is None:  # candidate from another relation
                        continue
                    weights[(row, col)] = optimistic_pair_score(
                        t, right.get_tuple(right_id), lam
                    )
            blocks.append(RelationBlock(name, left_ids, right_ids, weights))
        return tuple(blocks)

    @cached_property
    def nulls(self) -> tuple[frozenset[LabeledNull], frozenset[LabeledNull]]:
        """``(Vars(left), Vars(right))``."""
        return frozenset(self.left.vars()), frozenset(self.right.vars())

    @cached_property
    def denominator(self) -> int:
        return normalization_denominator(self.left, self.right)

    def unifier(self) -> Unifier:
        """A fresh, empty unifier over both sides' nulls."""
        return Unifier(*self.nulls)


__all__ = ["PreparedPair", "RelationBlock"]
