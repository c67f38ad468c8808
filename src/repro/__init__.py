"""repro — a reproduction of Slivinskas, Jensen & Snodgrass (ICDE 2000).

*Query Plans for Conventional and Temporal Queries Involving Duplicates and
Ordering* describes an algebraic foundation for optimizing conventional and
temporal queries with first-class treatment of duplicates, tuple order and
coalescing.  This package implements that foundation end to end:

``repro.core``
    the list-based temporally extended algebra, the six equivalence types,
    the transformation-rule catalogue, the Table 2 operation properties, the
    plan enumeration algorithm, and a cost model for plan selection.

``repro.search``
    the memo-based, cost-guided plan search (the one optimizer): shared
    equivalence groups, task-driven exploration, branch-and-bound extraction.

``repro.stats``
    statistics collection and cardinality estimation: per-table equi-depth
    and valid-time interval histograms, distinct-count estimation, the
    ``CardinalityEstimator`` whose answers about the data feed the cost
    model, and calibration of the cost model's engine constants from
    measured timings.

``repro.dbms``
    a conventional (multiset-semantics) in-memory DBMS substrate: catalog,
    execution of a plan fragment as given under the DBMS's engine
    descriptor, and a SQL generator for the fragments shipped to it.

``repro.stratum``
    the temporal layer on top of the DBMS: efficient implementations of the
    temporal operations, partitioning of plans at the transfer operations,
    and the end-to-end temporal query service.

``repro.tsql``
    a small temporal SQL front end that produces initial algebra plans.

``repro.session``
    the unified query lifecycle: a ``Session`` façade running parse →
    translate → optimize → execute, an LRU plan cache keyed by statement
    fingerprint and statistics epoch, ``?`` parameter binding, and
    ``EXPLAIN [ANALYZE]`` with per-operator estimates vs. actuals.

``repro.server``
    the concurrent serving layer: a ``Server`` of session slots over one shared
    database and plan cache, snapshot-pinned reads, admission control, and
    a newline-JSON TCP front end.

``repro.obs``
    observability: per-request structured traces (Chrome-trace export,
    injectable clocks, deterministic sampling), a process-wide metrics
    registry with Prometheus text exposition, and a slow-query log
    carrying per-operator estimate-vs-actual q-errors.

``repro.faults``
    fault tolerance: named, deterministic fault-injection points on every
    hot path (one attribute read when disarmed), cooperative cancellation
    tokens and deadlines checked inside both engines' pull loops, and
    per-request row/byte resource guards.

``repro.workloads``
    the paper's example relations and scalable synthetic temporal workloads
    used by the examples, tests and benchmarks.

Quick start::

    import repro
    from repro.workloads import employee_relation, project_relation

    db = repro.connect()
    db.register("EMPLOYEE", employee_relation())
    db.register("PROJECT", project_relation())
    result = db.query(
        "SELECT EmpName FROM EMPLOYEE "
        "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
        "ORDER BY EmpName COALESCE"
    )
    print(result.to_table())

**The public surface.**  The blessed entry points are the names in
``__all__`` below: :func:`connect`, :class:`ExecutionOptions`,
:class:`TemporalDatabase`, :class:`Session`, :class:`Relation`,
:class:`RelationSchema`, :class:`Tuple` and friends — everything execution
takes as configuration rides in one frozen :class:`ExecutionOptions`.
``from repro.core import *`` re-exports remain importable for backward
compatibility.
"""

from typing import Optional

from . import core
from .core import *  # noqa: F401,F403 - the core API is the package API
from .core import Relation, RelationSchema, Tuple  # noqa: F401 - blessed names
from .core import __all__ as _core_all
from .options import DEFAULT_BATCH_SIZE, ExecutionOptions
from .stratum import TemporalDatabase
from .session import Session

__version__ = "2.1.0"


def connect(options: Optional[ExecutionOptions] = None) -> TemporalDatabase:
    """The one-call entry point: a :class:`TemporalDatabase` wired from ``options``.

    ``repro.connect()`` gives the defaults; pass an
    :class:`ExecutionOptions` to turn knobs::

        db = repro.connect(repro.ExecutionOptions(use_statistics=True))

    Sessions created via :meth:`TemporalDatabase.session` (and servers
    constructed over the database) inherit the same options.
    """
    return TemporalDatabase(options=options)


#: The blessed public API, in suggested-reading order; the trailing
#: ``core`` re-exports (operations, expressions, …) stay importable for
#: backward compatibility.
__all__ = [
    "connect",
    "ExecutionOptions",
    "DEFAULT_BATCH_SIZE",
    "TemporalDatabase",
    "Session",
    "Relation",
    "RelationSchema",
    "Tuple",
    "__version__",
] + [name for name in _core_all if name not in {"Relation", "RelationSchema", "Tuple"}]
