"""Sort orders: ``Order(r)``, ``Prefix``, and ``IsPrefixOf`` (Table 1, S1–S3).

The paper describes the order of a relation as a list of attributes paired
with a sorting direction (``ASC`` or ``DESC``); an unordered relation has the
empty list.  Table 1 derives the order of every operation's result from the
order of its argument(s) using two helpers: ``Prefix`` (the largest common
prefix of two attribute lists) and the implicit projection of an order onto a
set of surviving attributes.  The sorting transformation rules (S1–S3) use
``IsPrefixOf``.

This module provides the value types :class:`SortKey` and :class:`OrderSpec`
together with those helpers, the comparison-key builder of the reference
sort and the comparator-free row sort of the physical ``SortOp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .exceptions import AttributeNotFound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tuples import Tuple as ReproTuple


class SortDirection(Enum):
    """Sorting direction of a single sort key."""

    ASC = "ASC"
    DESC = "DESC"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


ASC = SortDirection.ASC
DESC = SortDirection.DESC


class _Reversed:
    """Reversing comparator wrapper implementing DESC sort keys.

    Wrapping (rather than negating) keeps heterogeneous, non-negatable
    values sortable.  Only the reference sort (:meth:`OrderSpec.comparison_key`)
    pays for it; the physical sort is :meth:`OrderSpec.sort_rows`.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


@dataclass(frozen=True)
class SortKey:
    """A single ``attribute ASC|DESC`` entry of an order specification."""

    attribute: str
    direction: SortDirection = ASC

    def __str__(self) -> str:
        return f"{self.attribute} {self.direction.value}"


class OrderSpec:
    """An ordered list of :class:`SortKey` entries.

    The empty specification denotes an unordered relation (``Order(r) = <>``).
    Instances are immutable and hashable.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Iterable[SortKey] = ()) -> None:
        self._keys: Tuple[SortKey, ...] = tuple(keys)

    # -- construction ----------------------------------------------------------

    @classmethod
    def unordered(cls) -> "OrderSpec":
        """The order of an unordered relation."""
        return cls(())

    @classmethod
    def ascending(cls, *attributes: str) -> "OrderSpec":
        """Shorthand for an all-ascending specification."""
        return cls(SortKey(a, ASC) for a in attributes)

    @classmethod
    def of(cls, *entries: Any) -> "OrderSpec":
        """Build a specification from attribute names and/or ``SortKey`` objects.

        Plain strings default to ascending.  A string of the form
        ``"Attr DESC"`` or ``"Attr ASC"`` is also accepted for convenience in
        tests and examples.
        """
        keys: List[SortKey] = []
        for entry in entries:
            if isinstance(entry, SortKey):
                keys.append(entry)
            elif isinstance(entry, str):
                parts = entry.split()
                if len(parts) == 2 and parts[1].upper() in ("ASC", "DESC"):
                    keys.append(SortKey(parts[0], SortDirection(parts[1].upper())))
                else:
                    keys.append(SortKey(entry, ASC))
            else:
                raise TypeError(f"cannot build a sort key from {entry!r}")
        return cls(keys)

    # -- queries -----------------------------------------------------------------

    @property
    def keys(self) -> Tuple[SortKey, ...]:
        """The sort keys in significance order."""
        return self._keys

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attribute names of the sort keys, in order."""
        return tuple(key.attribute for key in self._keys)

    def is_unordered(self) -> bool:
        """True for the empty specification."""
        return not self._keys

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    # -- the paper's helper functions ----------------------------------------------

    def is_prefix_of(self, other: "OrderSpec") -> bool:
        """``IsPrefixOf(self, other)``: True if ``self`` is a prefix of ``other``.

        Used by rules S1 and S3: sorting on ``A`` is redundant when ``A`` is a
        prefix of the existing order of the argument.
        """
        if len(self._keys) > len(other._keys):
            return False
        return all(mine == theirs for mine, theirs in zip(self._keys, other._keys))

    def common_prefix(self, other: "OrderSpec") -> "OrderSpec":
        """``Prefix(self, other)``: the largest common prefix of the two specs."""
        keys: List[SortKey] = []
        for mine, theirs in zip(self._keys, other._keys):
            if mine != theirs:
                break
            keys.append(mine)
        return OrderSpec(keys)

    def prefix_on_attributes(self, attributes: Iterable[str]) -> "OrderSpec":
        """The longest prefix whose keys all lie within ``attributes``.

        Table 1 uses this to derive the order of a projection result: if a
        relation is sorted on ``A, B, C`` and is projected on ``A`` and ``C``,
        the result is sorted on ``A`` (the prefix stops at ``B``).
        """
        available = set(attributes)
        keys: List[SortKey] = []
        for key in self._keys:
            if key.attribute not in available:
                break
            keys.append(key)
        return OrderSpec(keys)

    def without_attributes(self, attributes: Iterable[str]) -> "OrderSpec":
        """The longest prefix not mentioning any attribute in ``attributes``.

        Table 1 writes this as ``Order(r) \\ TimePairs``: temporal operations
        that rewrite the period attributes preserve the argument order only up
        to the first sort key that mentions ``T1`` or ``T2``.
        """
        excluded = set(attributes)
        keys: List[SortKey] = []
        for key in self._keys:
            if key.attribute in excluded:
                break
            keys.append(key)
        return OrderSpec(keys)

    def concat(self, other: "OrderSpec") -> "OrderSpec":
        """Concatenate two specifications, dropping duplicate attributes."""
        seen = set(self.attributes)
        keys = list(self._keys)
        for key in other._keys:
            if key.attribute not in seen:
                keys.append(key)
                seen.add(key.attribute)
        return OrderSpec(keys)

    def rename_attributes(self, mapping: "dict[str, str]") -> "OrderSpec":
        """Rename sort-key attributes according to ``mapping``.

        Used by operations that demote the reserved time attributes
        (``T1`` -> ``1.T1``) so that their derived result order refers to the
        attribute names of the *result* schema.
        """
        return OrderSpec(
            SortKey(mapping.get(key.attribute, key.attribute), key.direction)
            for key in self._keys
        )

    def restricted_to(self, attributes: Iterable[str]) -> "OrderSpec":
        """Keys projected onto ``attributes`` (keeping only matching keys).

        Unlike :meth:`prefix_on_attributes` this keeps later keys as well; it
        is used by the ≡L,A equivalence of Definition 5.1 where only the
        ORDER BY attributes matter.
        """
        available = set(attributes)
        return OrderSpec(key for key in self._keys if key.attribute in available)

    # -- evaluation ------------------------------------------------------------------

    def comparison_key(self) -> Callable[["ReproTuple"], Tuple]:
        """Return a key function for :func:`sorted` implementing this order.

        Descending keys are handled by wrapping values in a reversing
        comparator, so heterogeneous (non-negatable) values sort correctly.
        """
        keys = self._keys

        def key_fn(tup: "ReproTuple") -> Tuple:
            parts: List[Any] = []
            for sort_key in keys:
                if not tup.schema.has_attribute(sort_key.attribute):
                    raise AttributeNotFound(
                        f"sort key {sort_key.attribute!r} not in schema {tup.schema}"
                    )
                value = tup[sort_key.attribute]
                parts.append(value if sort_key.direction is ASC else _Reversed(value))
            return tuple(parts)

        return key_fn

    def sort_rows(self, rows: List[Sequence[Any]], attributes: Sequence[str]) -> None:
        """Stably sort value rows (in ``attributes`` order) in place.

        The physical sort: yields the sequence ``sorted(tuples,
        key=comparison_key())`` yields for the corresponding tuples, ties
        included, without a Python-level comparator.  The keys are applied
        from least to most significant, one stable ``list.sort`` per run of
        same-direction keys — ``reverse=True`` keeps equal elements in input
        order, so descending keys need no negation and non-negatable values
        sort correctly.  Raises :class:`AttributeNotFound` before touching
        ``rows`` when a sort attribute is missing.
        """
        runs: List[Tuple[SortDirection, List[int]]] = []
        for sort_key in self._keys:
            if sort_key.attribute not in attributes:
                raise AttributeNotFound(
                    f"sort key {sort_key.attribute!r} not in attributes {attributes!r}"
                )
            index = attributes.index(sort_key.attribute)
            if runs and runs[-1][0] is sort_key.direction:
                runs[-1][1].append(index)
            else:
                runs.append((sort_key.direction, [index]))
        for direction, indexes in reversed(runs):
            rows.sort(key=itemgetter(*indexes), reverse=direction is DESC)

    # -- comparison / presentation ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderSpec):
            return NotImplemented
        return self._keys == other._keys

    def __hash__(self) -> int:
        return hash(self._keys)

    def __repr__(self) -> str:
        if not self._keys:
            return "OrderSpec(<unordered>)"
        return "OrderSpec(" + ", ".join(str(key) for key in self._keys) + ")"

    def __str__(self) -> str:
        if not self._keys:
            return "<unordered>"
        return ", ".join(str(key) for key in self._keys)
