"""Columnar batches: the chunk format of the physical operators.

The operators of :mod:`repro.core.physical` — the one operator set both the
stratum and the conventional DBMS execute on — exchange
:class:`ColumnBatch` chunks holding one value list per schema attribute
(valid-time ``T1``/``T2`` are ordinary columns of a temporal schema), so that
operators build, probe and sort on plain value columns and convert to
:class:`~repro.core.tuples.Tuple` objects only at operator-tree boundaries.

A batch is an array-of-columns view of a *slice* of the operator's output
sequence, so concatenating ``batch.to_tuples()`` over an operator's batches
yields the same tuple list for every batch size — the identical list the
reference semantics produce, for the operators that promise list
compatibility.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple as PyTuple

from .schema import RelationSchema
from .tuples import Tuple


class ColumnBatch:
    """A fixed-schema chunk of rows stored column-wise.

    ``columns`` holds one sequence per attribute of ``schema``, in schema
    attribute order, all of length ``length``.  Batches are exchanged between
    batch operators; they are cheap views, not validated containers — values
    always originate from tuples that were validated at construction or from
    kernels over such values.

    A batch built :meth:`from_tuples` transposes its tuples on the first
    read of ``columns``, so a source slice nobody computes on (a bare table
    scan handed across ``TS``) or that is only read row-wise (a sort or a
    hash build directly over a source) never pays for columns.
    """

    __slots__ = ("schema", "length", "_columns", "_tuples")

    def __init__(
        self,
        schema: RelationSchema,
        columns: Sequence[Sequence[Any]],
        length: int,
    ) -> None:
        self.schema = schema
        self.length = length
        self._columns: Optional[Sequence[Sequence[Any]]] = columns
        self._tuples: Sequence[Tuple] = ()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_tuples(cls, schema: RelationSchema, tuples: Sequence[Tuple]) -> "ColumnBatch":
        """A batch over a slice of tuples (transposed on first use).

        Tuples whose schema permutes the attribute order are normalized into
        ``schema`` order when the slice is first read, once at the source
        boundary — downstream kernels are purely positional.
        """
        batch = cls(schema, None, len(tuples))
        batch._tuples = tuples
        return batch

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Sequence[Sequence[Any]]
    ) -> "ColumnBatch":
        """Transpose value rows (already in schema attribute order)."""
        return cls(schema, _transposed(schema, rows), len(rows))

    @property
    def columns(self) -> Sequence[Sequence[Any]]:
        """One value sequence per schema attribute."""
        columns = self._columns
        if columns is None:
            columns = self._columns = _transposed(self.schema, self._tuple_rows())
            self._tuples = ()
        return columns

    def _tuple_rows(self) -> List[PyTuple[Any, ...]]:
        """The source tuples' values, each in schema attribute order."""
        tuples = self._tuples
        if not tuples:
            return []
        schema = self.schema
        attributes = schema.attributes
        # Almost always the tuples share one schema object in the batch's
        # attribute order (the batch's own, or a stored table's under another
        # name): one identity test per tuple instead of a re-check by value.
        shared = tuples[0]._schema
        if shared is schema or shared.attributes == attributes:
            rows = [tup._values for tup in tuples if tup._schema is shared]
            if len(rows) == len(tuples):
                return rows
        return [
            tup.values()
            if tup.schema is schema or tup.schema.attributes == attributes
            else tuple(tup[a] for a in attributes)
            for tup in tuples
        ]

    # -- conversion ------------------------------------------------------------

    def rows(self) -> Iterator[PyTuple[Any, ...]]:
        """Iterate the batch row-wise as plain value tuples."""
        columns = self._columns
        if columns is None:
            return iter(self._tuple_rows())
        if not columns:
            return iter([()] * self.length)
        return zip(*columns)

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


def _transposed(
    schema: RelationSchema, rows: Sequence[Sequence[Any]]
) -> Sequence[Sequence[Any]]:
    """The columns of value rows given in ``schema`` attribute order."""
    if rows:
        return [list(column) for column in zip(*rows)]
    return [[] for _ in schema.attributes]
