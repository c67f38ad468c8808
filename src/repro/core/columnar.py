"""Columnar batches: the chunk format of the physical operators.

The operators of :mod:`repro.core.physical` — the one operator set both the
stratum and the conventional DBMS execute on — exchange
:class:`ColumnBatch` chunks holding one value list per schema attribute
(valid-time ``T1``/``T2`` are ordinary columns of a temporal schema), so that
operators build, probe and sort on plain value columns and rows and never
touch a :class:`~repro.core.tuples.Tuple`.

A batch is an array-of-columns view of a *slice* of the operator's output
sequence, so concatenating ``batch.rows()`` over an operator's batches
yields the same row list for every batch size — the identical list the
reference semantics produce, for the operators that promise list
compatibility.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple as PyTuple

from .relation import Relation
from .schema import RelationSchema
from .tuples import Tuple


class ColumnBatch:
    """A fixed-schema chunk of rows stored column-wise.

    ``columns`` holds one sequence per attribute of ``schema``, in schema
    attribute order, all of length ``length``.  Batches are exchanged between
    batch operators; they are cheap views, not validated containers — values
    always originate from tuples that were validated at construction or from
    kernels over such values.

    A batch built :meth:`from_rows` keeps its rows and transposes them on
    the first read of ``columns``, so a slice nobody computes on (a bare
    table scan handed across ``TS``, a sort's output at the root of a tree)
    or that is only read row-wise (a sort or a hash build directly over a
    source) never pays for columns.
    """

    __slots__ = ("schema", "length", "_columns", "_rows")

    def __init__(
        self,
        schema: RelationSchema,
        columns: Sequence[Sequence[Any]],
        length: int,
    ) -> None:
        self.schema = schema
        self.length = length
        self._columns: Optional[Sequence[Sequence[Any]]] = columns
        self._rows: Optional[Sequence[PyTuple[Any, ...]]] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Sequence[PyTuple[Any, ...]]
    ) -> "ColumnBatch":
        """A batch over value rows already in schema attribute order
        (transposed on first use)."""
        batch = cls(schema, None, len(rows))
        batch._rows = rows
        return batch

    @classmethod
    def from_tuples(cls, schema: RelationSchema, tuples: Sequence[Tuple]) -> "ColumnBatch":
        """A batch over the rows of ``tuples`` — a convenience for callers
        holding ``Tuple`` objects; no operator goes through it.

        Tuples whose schema permutes the attribute order are normalized into
        ``schema`` order, as :class:`~repro.core.relation.Relation` does.
        """
        return cls.from_rows(schema, Relation(schema, tuples).rows)

    @property
    def columns(self) -> Sequence[Sequence[Any]]:
        """One value sequence per schema attribute."""
        columns = self._columns
        if columns is None:
            columns = self._columns = _transposed(self.schema, self._rows)
        return columns

    # -- conversion ------------------------------------------------------------

    def rows(self) -> Iterator[PyTuple[Any, ...]]:
        """Iterate the batch row-wise as plain value tuples."""
        rows = self._rows
        if rows is not None:
            return iter(rows)
        columns = self._columns
        if not columns:
            return iter([()] * self.length)
        return zip(*columns)

    def to_tuples(self) -> List[Tuple]:
        """The batch as ``Tuple`` views, valid by provenance — the counterpart
        of :meth:`from_tuples`, equally off every operator's path."""
        schema = self.schema
        trusted = Tuple.trusted
        return [trusted(schema, row) for row in self.rows()]

    def take(self, indexes: Sequence[int]) -> "ColumnBatch":
        """A new batch keeping the given row indexes, in the given order."""
        if self._columns is None:
            rows = self._rows
            return ColumnBatch.from_rows(self.schema, [rows[i] for i in indexes])
        columns = [[column[i] for i in indexes] for column in self._columns]
        return ColumnBatch(self.schema, columns, len(indexes))


def _transposed(
    schema: RelationSchema, rows: Sequence[Sequence[Any]]
) -> Sequence[Sequence[Any]]:
    """The columns of value rows given in ``schema`` attribute order."""
    if rows:
        return [list(column) for column in zip(*rows)]
    return [[] for _ in schema.attributes]
