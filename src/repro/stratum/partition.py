"""Partitioning of query plans between the stratum and the DBMS.

A plan's transfer operations (``TS``/``TD``) mark where execution crosses the
boundary between the temporal layer and the conventional DBMS: everything
below a ``TS`` (until a ``TD`` switches back) runs in the DBMS, everything
else runs in the stratum.  This module records that engine assignment — a
walk over :func:`repro.core.lowering.child_engine`, the switch the lowering
and the cost model follow — with the DBMS fragments and the transfer count,
for EXPLAIN and the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.lowering import DBMS_ENGINE, STRATUM_ENGINE, Engine, child_engine
from ..core.operations import Operation
from ..core.operations.base import PlanPath, ROOT_PATH

#: Engine labels.
STRATUM = STRATUM_ENGINE.name
DBMS = DBMS_ENGINE.name


@dataclass
class PlanPartition:
    """The engine assignment of one plan."""

    assignment: Dict[PlanPath, str] = field(default_factory=dict)
    dbms_fragments: List[PlanPath] = field(default_factory=list)
    """Locations of the subtrees shipped to the DBMS (the children of each TS)."""
    transfer_count: int = 0

    def engine_of(self, path: PlanPath) -> str:
        """The engine executing the node at ``path``."""
        return self.assignment[path]

    def operator_counts(self) -> Dict[str, int]:
        """Number of operators executed by each engine."""
        counts = {STRATUM: 0, DBMS: 0}
        for engine in self.assignment.values():
            counts[engine] += 1
        return counts


def partition_plan(plan: Operation) -> PlanPartition:
    """Compute the engine assignment of ``plan``.

    The root executes in the stratum (the layer receives the user query); a
    ``TS`` node itself belongs to the engine *receiving* the data (the
    stratum) while its subtree belongs to the DBMS, and symmetrically for
    ``TD``.  A transfer into the engine already running crosses nothing.
    """
    partition = PlanPartition()

    def assign(node: Operation, path: PlanPath, engine: Engine) -> None:
        partition.assignment[path] = engine.name
        below = child_engine(node, engine)
        if below is not engine:
            partition.transfer_count += 1
            if below is DBMS_ENGINE:
                partition.dbms_fragments.append(path + (0,))
        for index, child in enumerate(node.children):
            assign(child, path + (index,), below)

    assign(plan, ROOT_PATH, STRATUM_ENGINE)
    return partition
