"""Row chunks: the unit the physical operators exchange.

The operators of :mod:`repro.core.physical` — the one operator set both the
stratum and the conventional DBMS execute on — pull :class:`ColumnBatch`
chunks: a schema and a slice of the operator's output as value rows (plain
tuples in schema attribute order; valid-time ``T1``/``T2`` are ordinary
positions of a temporal schema).  Operators build, probe, sort and run their
generated row kernels on those rows and never touch a
:class:`~repro.core.tuples.Tuple`.

Concatenating ``batch.rows()`` over an operator's batches yields the same row
list for every batch size — the identical list the reference semantics
produce, for the operators that promise list compatibility.

The class keeps its historical name although it stores no columns: the
frozen performance ledger (``benchmarks/ledger/replay.py``) imports it as
``repro.stratum.columnar.ColumnBatch`` and times :meth:`from_tuples` /
:meth:`to_tuples`, a round trip no operator takes.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple as PyTuple

from .relation import Relation
from .schema import RelationSchema
from .tuples import Tuple


class ColumnBatch:
    """A fixed-schema chunk of value rows.

    ``rows()`` are in ``schema`` attribute order and ``length`` counts them.
    Batches are cheap views, not validated containers — values always
    originate from tuples that were validated at construction or from
    kernels over such values — and nobody mutates a batch's rows, so a batch
    may share them with a relation or another batch.
    """

    __slots__ = ("schema", "length", "_rows")

    def __init__(self, schema: RelationSchema, rows: Sequence[PyTuple[Any, ...]]) -> None:
        self.schema = schema
        self.length = len(rows)
        self._rows = rows

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Sequence[PyTuple[Any, ...]]
    ) -> "ColumnBatch":
        """A batch over value rows already in schema attribute order."""
        return cls(schema, rows)

    @classmethod
    def from_tuples(cls, schema: RelationSchema, tuples: Sequence[Tuple]) -> "ColumnBatch":
        """A batch over the rows of ``tuples`` — a convenience for callers
        holding ``Tuple`` objects; no operator goes through it.

        Tuples whose schema permutes the attribute order are normalized into
        ``schema`` order, as :class:`~repro.core.relation.Relation` does.
        """
        return cls(schema, Relation(schema, tuples).rows)

    def rows(self) -> Sequence[PyTuple[Any, ...]]:
        """The batch's value rows, in order."""
        return self._rows

    def to_tuples(self) -> List[Tuple]:
        """The batch as ``Tuple`` views, valid by provenance — the counterpart
        of :meth:`from_tuples`, equally off every operator's path."""
        schema = self.schema
        trusted = Tuple.trusted
        return [trusted(schema, row) for row in self._rows]
