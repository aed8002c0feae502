"""Value mappings (paper Def. 4.1).

A value mapping for instance ``I`` is a total function
``adom(I) → Vars ∪ Consts`` that is the identity on constants.  Following the
paper's notational convention, we store only the *non-identity* part (the
null assignments) and treat every unlisted value as mapped to itself.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..core.errors import MappingError
from ..core.instance import Instance
from ..core.tuples import Tuple
from ..core.values import LabeledNull, Value, is_null


class ValueMapping:
    """A value mapping, stored as a partial function on labeled nulls.

    Parameters
    ----------
    assignments:
        Mapping from labeled nulls to their images (nulls or constants).
        Values outside the mapping are implicitly fixed.

    Examples
    --------
    >>> from repro.core.values import LabeledNull
    >>> h = ValueMapping({LabeledNull("N1"): "VLDB End."})
    >>> h(LabeledNull("N1"))
    'VLDB End.'
    >>> h("SIGMOD")  # constants are fixed
    'SIGMOD'
    """

    __slots__ = ("_assignments",)

    def __init__(
        self, assignments: Mapping[LabeledNull, Value] | None = None
    ) -> None:
        self._assignments: dict[LabeledNull, Value] = {}
        if assignments:
            for null, image in assignments.items():
                self.assign(null, image)

    def assign(self, null: LabeledNull, image: Value) -> None:
        """Set ``h(null) = image``; re-assignments must agree.

        Raises :class:`MappingError` when ``null`` is not a labeled null
        (constants must stay fixed) or when it already has a different image
        (a value mapping is a function).
        """
        if not is_null(null):
            raise MappingError(
                f"value mappings must fix constants; cannot remap {null!r}"
            )
        existing = self._assignments.get(null)
        if existing is not None and existing != image:
            raise MappingError(
                f"conflicting images for {null!r}: {existing!r} vs {image!r}"
            )
        self._assignments[null] = image

    def __call__(self, value: Value) -> Value:
        """Apply the mapping to one value."""
        if is_null(value):
            return self._assignments.get(value, value)
        return value

    def apply_tuple(self, t: Tuple) -> Tuple:
        """``h(t)``: apply the mapping to every cell of ``t``."""
        return t.with_values(tuple(self(v) for v in t.values))

    def apply_instance(self, instance: Instance, name: str | None = None) -> Instance:
        """``h(I)``: apply the mapping to every tuple of ``instance``."""
        result = Instance(
            instance.schema, name=name if name is not None else instance.name
        )
        for t in instance.tuples():
            result.add(self.apply_tuple(t))
        return result

    # -- introspection -------------------------------------------------------

    def items(self) -> Iterator[tuple[LabeledNull, Value]]:
        """Yield the explicit (non-identity) assignments."""
        return iter(self._assignments.items())

    def domain_nulls(self) -> set[LabeledNull]:
        """Nulls with an explicit assignment."""
        return set(self._assignments)

    def __len__(self) -> int:
        return len(self._assignments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueMapping):
            return NotImplemented
        return self._assignments == other._assignments

    def __reduce__(self):
        # Canonical pickled form: assignments sorted by null label, so
        # content-equal mappings serialize to identical bytes regardless of
        # the order in which assignments were made.
        ordered = sorted(self._assignments.items(), key=lambda kv: kv[0].label)
        return (ValueMapping, (dict(ordered),))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n.label}→{v.label if is_null(v) else v!r}"
            for n, v in sorted(self._assignments.items(), key=lambda kv: kv[0].label)
        )
        return f"ValueMapping({{{parts}}})"

    def is_identity_on(self, instance: Instance) -> bool:
        """Whether the mapping fixes every value of ``adom(instance)``."""
        return all(self(v) == v for v in instance.adom())

    def is_injective_on_nulls(self, instance: Instance) -> bool:
        """Whether distinct nulls of ``instance`` have distinct images.

        Injectivity on nulls is what makes ⊓ equal to 1 everywhere, hence no
        scoring penalty (Sec. 5.1 discussion).
        """
        images = [self(n) for n in instance.vars()]
        return len(images) == len(set(images))

    def fiber_sizes(self, instance: Instance) -> dict[LabeledNull, int]:
        """For each null ``v`` of ``instance``, ``|{v' ∈ Vars(I) : h(v')=h(v)}|``.

        This is the ⊓ measure of paper Eq. 6 restricted to one side; see
        :mod:`repro.scoring.noninjectivity`.
        """
        nulls = instance.vars()
        by_image: dict[Value, int] = {}
        for null in nulls:
            image = self(null)
            by_image[image] = by_image.get(image, 0) + 1
        return {null: by_image[self(null)] for null in nulls}

    def copy(self) -> "ValueMapping":
        """Return an independent copy."""
        return ValueMapping.copy_of(self._assignments)

    @classmethod
    def copy_of(cls, assignments: Mapping[LabeledNull, Value]) -> "ValueMapping":
        """A mapping over a copy of ``assignments``, taken unchecked.

        For callers that maintain a null-keyed dict themselves (the delta
        engine retargets one per class); the constructor's per-null
        checks would cost a pass in Python on every copy.
        """
        clone = cls()
        clone._assignments = dict(assignments)
        return clone
