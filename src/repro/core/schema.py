"""Relation schemas: attributes, domains, and the ``dom`` function.

Definition 2.1 of the paper models a relation schema as a three-tuple
``S = (Omega, Delta, dom)`` where ``Omega`` is a finite set of attributes,
``Delta`` a finite set of domains and ``dom`` associates a domain with each
attribute.  This module realises that definition, with one pragmatic
addition: attributes are kept in a declaration *order* so that relations can
be displayed, projected and joined deterministically.  The order carries no
semantic weight — schema equality ignores it for the purposes of the algebra
where the paper's definition is a set.

Two attribute names are reserved for temporal relations (Section 2.3):
``T1`` and ``T2`` hold the inclusive start and exclusive end of a tuple's
valid-time period.  A schema that declares both, with the time domain, is a
*temporal* schema; a schema that declares neither is a *snapshot* schema.
Declaring only one of the two is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .exceptions import SchemaError, TemporalSchemaError
from .period import T1, T2


@dataclass(frozen=True)
class Domain:
    """A value domain, identified by name, with an optional membership test.

    The paper leaves domains abstract; we provide the handful needed by the
    examples and workloads (strings, integers, floats, booleans and the time
    domain ``T``) plus the ability to define new ones.
    """

    name: str
    validator: Optional[Callable[[Any], bool]] = field(default=None, compare=False)

    def contains(self, value: Any) -> bool:
        """Return True if ``value`` belongs to the domain."""
        if self.validator is None:
            return True
        return bool(self.validator(value))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Domain of character strings.
STRING = Domain("string", lambda value: isinstance(value, str))
#: Domain of integers.
INTEGER = Domain("integer", _is_int)
#: Domain of floating point numbers (integers are accepted as well).
FLOAT = Domain("float", lambda value: isinstance(value, (int, float)) and not isinstance(value, bool))
#: Domain of booleans.
BOOLEAN = Domain("boolean", lambda value: isinstance(value, bool))
#: The time domain ``T`` (Section 2.3); granules are modelled as integers.
TIME = Domain("T", _is_int)

#: Domains available by default when building schemas from plain names.
BUILTIN_DOMAINS: Dict[str, Domain] = {
    domain.name: domain for domain in (STRING, INTEGER, FLOAT, BOOLEAN, TIME)
}


@dataclass(frozen=True)
class RelationSchema:
    """A relation schema ``(Omega, Delta, dom)`` with a fixed attribute order.

    Parameters
    ----------
    attributes:
        The attribute names in declaration order.  Names must be unique.
    domains:
        Mapping from attribute name to :class:`Domain`.  Every attribute must
        be mapped; extra entries are rejected.
    name:
        Optional schema (relation) name used for display and for the DBMS
        catalog.
    """

    attributes: Tuple[str, ...]
    domains: Mapping[str, Domain]
    name: Optional[str] = None

    def __init__(
        self,
        attributes: Sequence[str],
        domains: Mapping[str, Domain],
        name: Optional[str] = None,
    ) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in schema: {attrs}")
        doms = dict(domains)
        missing = [a for a in attrs if a not in doms]
        if missing:
            raise SchemaError(f"attributes without a domain: {missing}")
        extra = [a for a in doms if a not in attrs]
        if extra:
            raise SchemaError(f"domains declared for unknown attributes: {extra}")
        has_t1 = T1 in attrs
        has_t2 = T2 in attrs
        if has_t1 != has_t2:
            raise TemporalSchemaError(
                "a temporal schema must declare both T1 and T2 (or neither)"
            )
        if has_t1:
            for attr in (T1, T2):
                if doms[attr].name != TIME.name:
                    raise TemporalSchemaError(
                        f"reserved attribute {attr} must use the time domain T"
                    )
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "domains", doms)
        object.__setattr__(self, "name", name)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple[str, Domain]],
        name: Optional[str] = None,
    ) -> "RelationSchema":
        """Build a schema from ``(attribute, domain)`` pairs in order."""
        return cls([a for a, _ in pairs], {a: d for a, d in pairs}, name=name)

    @classmethod
    def snapshot(
        cls,
        pairs: Sequence[Tuple[str, Domain]],
        name: Optional[str] = None,
    ) -> "RelationSchema":
        """Build a snapshot (non-temporal) schema; rejects T1/T2."""
        if any(a in (T1, T2) for a, _ in pairs):
            raise TemporalSchemaError("snapshot schemas may not use T1 or T2")
        return cls.from_pairs(pairs, name=name)

    @classmethod
    def temporal(
        cls,
        pairs: Sequence[Tuple[str, Domain]],
        name: Optional[str] = None,
    ) -> "RelationSchema":
        """Build a temporal schema: the given pairs followed by ``T1``, ``T2``."""
        if any(a in (T1, T2) for a, _ in pairs):
            raise TemporalSchemaError(
                "temporal() appends T1/T2 itself; do not declare them explicitly"
            )
        full = list(pairs) + [(T1, TIME), (T2, TIME)]
        return cls.from_pairs(full, name=name)

    # -- queries ---------------------------------------------------------------

    @property
    def is_temporal(self) -> bool:
        """True if the schema carries the reserved period attributes."""
        return T1 in self.attributes and T2 in self.attributes

    @property
    def nontemporal_attributes(self) -> Tuple[str, ...]:
        """The explicit (non ``T1``/``T2``) attributes, in declaration order."""
        return tuple(a for a in self.attributes if a not in (T1, T2))

    def domain_of(self, attribute: str) -> Domain:
        """Return the domain of ``attribute``; raise if unknown."""
        try:
            return self.domains[attribute]
        except KeyError:
            raise SchemaError(f"unknown attribute {attribute!r} in schema {self}") from None

    def has_attribute(self, attribute: str) -> bool:
        """Return True if the schema declares ``attribute``."""
        return attribute in self.domains

    def attribute_set(self) -> frozenset:
        """The attributes as a set (``Omega``), built once per schema."""
        cached = getattr(self, "_attribute_set", None)
        if cached is None:
            cached = frozenset(self.attributes)
            object.__setattr__(self, "_attribute_set", cached)
        return cached

    def index_of(self, attribute: str) -> int:
        """Return the position of ``attribute`` in declaration order."""
        try:
            return self.index_map()[attribute]
        except KeyError:
            raise SchemaError(f"unknown attribute {attribute!r} in schema {self}") from None

    def index_map(self) -> Mapping[str, int]:
        """Mapping from attribute name to position, built once per schema.

        Tuple attribute access resolves positions through this map; caching it
        on the (immutable) schema keeps the per-tuple work O(1) instead of a
        linear scan of the attribute tuple.
        """
        cached = getattr(self, "_index_map", None)
        if cached is None:
            cached = {attribute: i for i, attribute in enumerate(self.attributes)}
            object.__setattr__(self, "_index_map", cached)
        return cached

    def value_indexes(self) -> Tuple[int, ...]:
        """Positions of the non-temporal attributes, built once per schema."""
        cached = getattr(self, "_value_indexes", None)
        if cached is None:
            cached = tuple(
                i for i, attribute in enumerate(self.attributes) if attribute not in (T1, T2)
            )
            object.__setattr__(self, "_value_indexes", cached)
        return cached

    # -- derivation -------------------------------------------------------------

    def project(self, attributes: Sequence[str], name: Optional[str] = None) -> "RelationSchema":
        """Return the schema restricted to ``attributes`` (in the given order)."""
        for attribute in attributes:
            if attribute not in self.domains:
                raise SchemaError(
                    f"cannot project on unknown attribute {attribute!r} (schema {self})"
                )
        return RelationSchema(
            list(attributes), {a: self.domains[a] for a in attributes}, name=name
        )

    def rename(self, name: Optional[str]) -> "RelationSchema":
        """Return a copy of the schema with a new relation name."""
        return RelationSchema(self.attributes, dict(self.domains), name=name)

    def drop_time(self, prefix: str = "1.") -> "RelationSchema":
        """Return the snapshot schema obtained by demoting ``T1``/``T2``.

        Regular (non-temporal) duplicate elimination and aggregation treat a
        temporal argument as an ordinary relation; their results are snapshot
        relations and therefore may not contain attributes *named* ``T1`` or
        ``T2``.  Following Figure 3 of the paper, the time attributes are kept
        but renamed with a numeric prefix (``1.T1``, ``1.T2``).
        """
        if not self.is_temporal:
            return self
        renamed: List[Tuple[str, Domain]] = []
        for attribute in self.attributes:
            if attribute in (T1, T2):
                renamed.append((prefix + attribute, self.domains[attribute]))
            else:
                renamed.append((attribute, self.domains[attribute]))
        return RelationSchema.from_pairs(renamed, name=self.name)

    def concat(self, other: "RelationSchema", prefixes: Tuple[str, str] = ("1.", "2.")) -> "RelationSchema":
        """Return the concatenation of two schemas, disambiguating clashes.

        Used by the Cartesian products.  Attributes whose names clash between
        the two inputs are prefixed with ``1.`` / ``2.`` (the paper uses the
        same convention for the temporal attributes of a temporal product,
        e.g. ``1.T1``).
        """
        left_names = set(self.attributes)
        right_names = set(other.attributes)
        clashes = left_names & right_names
        pairs: List[Tuple[str, Domain]] = []
        for attribute in self.attributes:
            label = prefixes[0] + attribute if attribute in clashes else attribute
            pairs.append((label, self.domains[attribute]))
        for attribute in other.attributes:
            label = prefixes[1] + attribute if attribute in clashes else attribute
            pairs.append((label, other.domains[attribute]))
        return RelationSchema.from_pairs(pairs)

    def is_union_compatible(self, other: "RelationSchema") -> bool:
        """True if both schemas have the same attributes and domains.

        Attribute order is ignored, mirroring the paper's set-based schema
        definition; union, difference and the equivalence checks only require
        the two schemas to agree as mappings.
        """
        if set(self.attributes) != set(other.attributes):
            return False
        return all(self.domains[a].name == other.domains[a].name for a in self.attributes)

    # -- presentation ------------------------------------------------------------

    def __str__(self) -> str:
        label = self.name or "relation"
        cols = ", ".join(f"{a}: {self.domains[a]}" for a in self.attributes)
        return f"{label}({cols})"

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(tuple(sorted((a, d.name) for a, d in self.domains.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            set(self.attributes) == set(other.attributes)
            and all(self.domains[a].name == other.domains[a].name for a in self.attributes)
        )
