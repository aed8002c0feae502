"""Most-general unifier for growing value mappings.

Both algorithms (Sec. 6) repeatedly extend a pair of value mappings
``(h_l, h_r)`` so that every matched tuple pair satisfies
``h_l(t) = h_r(t')``.  The *most general* such extension merges only what
matching forces, which is exactly a union-find over
``adom(I) ⊎ adom(I')``:

* unifying the two cell values of a matched pair unions their classes;
* a class containing two distinct constants is a **conflict** — the tuple
  mapping admits no complete instance match (constants are fixed by value
  mappings, Def. 4.1);
* a class containing one constant maps all its nulls to that constant
  (λ-penalized cells);
* a class of nulls only maps all its nulls to one canonical null.

The ⊓ measure (Eq. 6) of a null is then the number of *same-side* nulls in
its class, so keeping classes minimal maximizes the score for a fixed tuple
mapping — which is why the algorithms can separate "choose the tuple mapping"
from "choose the value mappings".

The unifier supports snapshots with rollback so the greedy signature
algorithm and the exact branch-and-bound search can tentatively try a pair
and cheaply undo it.
"""

from __future__ import annotations

from typing import Iterable

from ..core.errors import UnificationConflict
from ..core.instance import Instance
from ..core.tuples import Tuple
from ..core.values import LabeledNull, Value, is_null
from ..mappings.value_mapping import ValueMapping


def class_image(constant: Value | None, nulls: Iterable[LabeledNull]) -> Value:
    """The value every null of one class maps to.

    The class constant if there is one; otherwise the member null with
    the smallest label (deterministic, and a member, so no fresh label
    is needed).
    """
    if constant is not None:
        return constant
    return min(nulls, key=lambda n: n.label)


class Unifier:
    """Union-find over values with per-class constant and side-counts.

    Parameters
    ----------
    left_nulls, right_nulls:
        The labeled nulls of the left / right instance.  They must be
        disjoint (comparison precondition, Sec. 4).

    Examples
    --------
    >>> from repro.core.values import LabeledNull
    >>> N1, Va = LabeledNull("N1"), LabeledNull("Va")
    >>> u = Unifier({N1}, {Va})
    >>> u.unify(N1, Va)
    >>> u.unify(N1, "VLDB")   # Va transitively maps to "VLDB" too
    >>> u.unify(Va, "SIGMOD")
    Traceback (most recent call last):
        ...
    repro.core.errors.UnificationConflict: ...
    """

    __slots__ = (
        "_left_nulls",
        "_right_nulls",
        "_parent",
        "_rank",
        "_constant",
        "_left_count",
        "_right_count",
        "_log",
        "_snapshots",
    )

    def __init__(
        self,
        left_nulls: Iterable[LabeledNull],
        right_nulls: Iterable[LabeledNull],
    ) -> None:
        self._left_nulls = frozenset(left_nulls)
        self._right_nulls = frozenset(right_nulls)
        overlap = self._left_nulls & self._right_nulls
        if overlap:
            raise UnificationConflict(
                f"instances share labeled nulls: "
                f"{sorted(n.label for n in overlap)[:5]}"
            )
        self._parent: dict[Value, Value] = {}
        self._rank: dict[Value, int] = {}
        # Per-root metadata.
        self._constant: dict[Value, Value] = {}
        self._left_count: dict[Value, int] = {}
        self._right_count: dict[Value, int] = {}
        # Journal entries: ("union", child_root, parent_root,
        #                   parent_prev_constant_flag, parent_prev_constant,
        #                   parent_prev_left, parent_prev_right, rank_bumped)
        # or ("add", value).
        self._log: list[tuple] = []
        self._snapshots = 0

    # -- basic union-find ------------------------------------------------------

    def _add(self, value: Value) -> None:
        if value in self._parent:
            return
        self._parent[value] = value
        self._rank[value] = 0
        if is_null(value):
            is_left = value in self._left_nulls
            self._left_count[value] = 1 if is_left else 0
            self._right_count[value] = 0 if is_left else 1
        else:
            self._constant[value] = value
            self._left_count[value] = 0
            self._right_count[value] = 0
        if self._snapshots:
            self._log.append(("add", value))

    def find(self, value: Value) -> Value:
        """Canonical representative of ``value``'s class (adds if absent)."""
        self._add(value)
        parent = self._parent
        root = value
        while parent[root] != root:
            root = parent[root]
        if self._snapshots == 0:
            current = value
            while parent[current] != root:
                parent[current], current = root, parent[current]
        return root

    def unify(self, a: Value, b: Value) -> None:
        """Force ``a`` and ``b`` into one class.

        Raises :class:`UnificationConflict` when the merge would put two
        distinct constants into the same class; the unifier state is
        unchanged in that case.
        """
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        const_a = self._constant.get(root_a)
        const_b = self._constant.get(root_b)
        if const_a is not None and const_b is not None and const_a != const_b:
            raise UnificationConflict(
                f"cannot unify distinct constants {const_a!r} and {const_b!r}"
            )
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        rank_bumped = self._rank[root_a] == self._rank[root_b]

        if self._snapshots:
            self._log.append((
                "union",
                root_b,
                root_a,
                root_a in self._constant,
                self._constant.get(root_a),
                self._left_count[root_a],
                self._right_count[root_a],
                rank_bumped,
            ))

        self._parent[root_b] = root_a
        if rank_bumped:
            self._rank[root_a] += 1
        merged_constant = const_a if const_a is not None else const_b
        if merged_constant is not None:
            self._constant[root_a] = merged_constant
        self._left_count[root_a] += self._left_count[root_b]
        self._right_count[root_a] += self._right_count[root_b]

    def can_unify(self, a: Value, b: Value) -> bool:
        """Whether :meth:`unify` would succeed (no state change)."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return True
        const_a = self._constant.get(root_a)
        const_b = self._constant.get(root_b)
        return const_a is None or const_b is None or const_a == const_b

    # -- tuple-level operations ----------------------------------------------

    def unify_tuples(self, t: Tuple, t_prime: Tuple) -> None:
        """Unify the two tuples cell-wise (raises on conflict, state kept).

        On conflict the partially applied unifications are rolled back, so
        failed attempts leave the unifier unchanged.
        """
        token = self.snapshot()
        try:
            for left_value, right_value in zip(t.values, t_prime.values):
                self.unify(left_value, right_value)
        except UnificationConflict:
            self.rollback(token)
            raise
        self.commit(token)

    def try_unify_tuples(self, t: Tuple, t_prime: Tuple) -> bool:
        """Like :meth:`unify_tuples` but returns success instead of raising."""
        try:
            self.unify_tuples(t, t_prime)
        except UnificationConflict:
            return False
        return True

    def compatible_tuples(self, t: Tuple, t_prime: Tuple) -> bool:
        """Whether the pair could be unified *given the current state*.

        Implements ``IsCompatible(t, t', M)`` of Algs. 3–4: the check is
        performed against the growing match and fully rolled back.
        """
        token = self.snapshot()
        try:
            for left_value, right_value in zip(t.values, t_prime.values):
                self.unify(left_value, right_value)
        except UnificationConflict:
            return False
        finally:
            self.rollback(token)
        return True

    def merge_cost(self, t: Tuple, t_prime: Tuple) -> int:
        """How much non-injectivity matching this pair would newly create.

        For each cell pair whose classes are distinct, the cost is the
        number of nulls beyond one per side that the merged class would
        hold — 0 for fresh-null-to-fresh-null or already-unified cells.
        Greedy matching uses this to prefer candidates *aligned* with the
        value mappings accumulated so far (e.g. a tuple whose surrogate
        null was already bound by an earlier relation), which measurably
        improves the approximation on data-exchange workloads.

        The cost is a heuristic preference, not part of the paper's
        algorithm statement; disabling the preference reproduces the plain
        greedy behaviour (see the ablation bench).
        """
        cost = 0
        for left_value, right_value in zip(t.values, t_prime.values):
            root_a, root_b = self.find(left_value), self.find(right_value)
            if root_a == root_b:
                continue
            merged_left = self._left_count[root_a] + self._left_count[root_b]
            merged_right = (
                self._right_count[root_a] + self._right_count[root_b]
            )
            cost += max(0, merged_left - 1) + max(0, merged_right - 1)
        return cost

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> int:
        """Open a snapshot; returns a rollback token."""
        self._snapshots += 1
        return len(self._log)

    def rollback(self, token: int) -> None:
        """Undo everything after ``token`` and close the snapshot."""
        if self._snapshots <= 0:
            raise RuntimeError("rollback without a matching snapshot")
        while len(self._log) > token:
            entry = self._log.pop()
            if entry[0] == "add":
                _, value = entry
                del self._parent[value]
                del self._rank[value]
                self._constant.pop(value, None)
                self._left_count.pop(value, None)
                self._right_count.pop(value, None)
            else:
                (_, child, parent, had_constant, prev_constant,
                 prev_left, prev_right, rank_bumped) = entry
                self._parent[child] = child
                if rank_bumped:
                    self._rank[parent] -= 1
                if had_constant:
                    self._constant[parent] = prev_constant
                else:
                    self._constant.pop(parent, None)
                self._left_count[parent] = prev_left
                self._right_count[parent] = prev_right
        self._snapshots -= 1

    def commit(self, token: int) -> None:
        """Close the most recent snapshot, keeping its changes.

        When no outer snapshot remains, the journal prefix up to ``token`` is
        no longer needed and is dropped.
        """
        if self._snapshots <= 0:
            raise RuntimeError("commit without a matching snapshot")
        self._snapshots -= 1
        if self._snapshots == 0:
            self._log.clear()

    # -- extraction ---------------------------------------------------------------

    def class_constant(self, value: Value) -> Value | None:
        """The constant of ``value``'s class, or ``None``."""
        return self._constant.get(self.find(value))

    def side_counts(self, value: Value) -> tuple[int, int]:
        """``(left nulls, right nulls)`` in ``value``'s class."""
        root = self.find(value)
        return self._left_count[root], self._right_count[root]

    def to_value_mappings(self) -> tuple[ValueMapping, ValueMapping]:
        """Extract ``(h_l, h_r)`` realizing the current unification.

        Classes with a constant map their nulls to it; null-only classes map
        every member to one canonical null of the class (preferring a null
        that already belongs to the class, so no fresh labels are needed).
        """
        # Group nulls by root.
        groups: dict[Value, list[LabeledNull]] = {}
        for value in self._parent:
            if is_null(value):
                groups.setdefault(self.find(value), []).append(value)
        h_l, h_r = ValueMapping(), ValueMapping()
        for root, nulls in groups.items():
            target = class_image(self._constant.get(root), nulls)
            for null in nulls:
                if null == target:
                    continue
                if null in self._left_nulls:
                    h_l.assign(null, target)
                else:
                    h_r.assign(null, target)
        return h_l, h_r

    @classmethod
    def for_instances(cls, left: Instance, right: Instance) -> "Unifier":
        """Build a unifier for a pair of instances being compared."""
        return cls(left.vars(), right.vars())
