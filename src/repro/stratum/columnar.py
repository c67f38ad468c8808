"""Columnar batches for the stratum's vectorized physical operators.

This module provides the chunk format the operators of
:mod:`repro.stratum.physical` exchange — a :class:`ColumnBatch` holding one
value list per schema attribute (valid-time ``T1``/``T2`` are ordinary
columns of a temporal schema) — so that operators build, probe and sort on
plain value columns and convert to :class:`~repro.core.tuples.Tuple` objects
only at operator-tree boundaries.

The list-compatibility contract of the stratum is preserved exactly: a batch
is an array-of-columns view of a *slice* of the operator's output sequence,
so concatenating ``batch.to_tuples()`` over an operator's batches yields the
identical tuple list the reference semantics produce, for every batch size.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..core.schema import RelationSchema
from ..core.tuples import Tuple


class ColumnBatch:
    """A fixed-schema chunk of rows stored column-wise.

    ``columns`` holds one sequence per attribute of ``schema``, in schema
    attribute order, all of length ``length``.  Batches are exchanged between
    batch operators; they are cheap views, not validated containers — values
    always originate from tuples that were validated at construction or from
    kernels over such values.
    """

    __slots__ = ("schema", "columns", "length")

    def __init__(
        self,
        schema: RelationSchema,
        columns: Sequence[Sequence[Any]],
        length: int,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.length = length

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_tuples(cls, schema: RelationSchema, tuples: Sequence[Tuple]) -> "ColumnBatch":
        """Transpose a slice of tuples into columns.

        Tuples whose schema permutes the attribute order are normalized into
        ``schema`` order here, once at the source boundary — downstream
        kernels are purely positional.
        """
        attributes = schema.attributes
        rows: List[PyTuple[Any, ...]] = [
            tup.values()
            if tup.schema is schema or tup.schema.attributes == attributes
            else tuple(tup[a] for a in attributes)
            for tup in tuples
        ]
        return cls.from_rows(schema, rows)

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Sequence[Sequence[Any]]
    ) -> "ColumnBatch":
        """Transpose value rows (already in schema attribute order)."""
        if rows:
            columns: Sequence[Sequence[Any]] = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in schema.attributes]
        return cls(schema, columns, len(rows))

    # -- conversion ------------------------------------------------------------

    def rows(self) -> Iterator[PyTuple[Any, ...]]:
        """Iterate the batch row-wise as plain value tuples."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*self.columns)

    def to_tuples(self) -> List[Tuple]:
        """Materialize the batch as validated-by-provenance ``Tuple`` objects.

        This is the only place the columnar path builds ``Tuple`` objects;
        it uses the trusted constructor because every value came out of a
        tuple validated at its own construction.
        """
        schema = self.schema
        trusted = Tuple.trusted
        return [trusted(schema, row) for row in self.rows()]

    def take(self, indexes: Sequence[int]) -> "ColumnBatch":
        """A new batch keeping the given row indexes, in the given order."""
        columns = [[column[i] for i in indexes] for column in self.columns]
        return ColumnBatch(self.schema, columns, len(indexes))


class BatchBuilder:
    """Accumulates value rows and emits full :class:`ColumnBatch` chunks.

    Join operators produce output rows one at a time while probing; the
    builder rechunks them so downstream operators always see batches of at
    most ``size`` rows regardless of the join's match pattern.
    """

    __slots__ = ("schema", "size", "rows")

    def __init__(self, schema: RelationSchema, size: int) -> None:
        self.schema = schema
        self.size = size
        self.rows: List[Sequence[Any]] = []

    def add(self, row: Sequence[Any]) -> Optional[ColumnBatch]:
        """Add one row; return a full batch when the chunk size is reached."""
        rows = self.rows
        rows.append(row)
        if len(rows) >= self.size:
            self.rows = []
            return ColumnBatch.from_rows(self.schema, rows)
        return None

    def flush(self) -> Optional[ColumnBatch]:
        """Return the final partial batch, or None when empty."""
        rows = self.rows
        if not rows:
            return None
        self.rows = []
        return ColumnBatch.from_rows(self.schema, rows)
