"""The unified query lifecycle: Session façade, plan cache and EXPLAIN.

This package is the serving-path entry point of the reproduction: one
:class:`Session` object drives parse → translate → optimize → execute over
a :class:`~repro.stratum.layer.TemporalDatabase`, caches optimized physical
plans in an LRU keyed by ``(statement fingerprint, statistics epoch)``,
binds ``?`` parameter markers per execution, and renders ``EXPLAIN``
reports with per-operator estimated vs. actual cardinalities.

See ``docs/architecture.md`` for the layer dataflow and ``docs/explain.md``
for the EXPLAIN output format.
"""

from .cache import CachedPlan, PlanCache, PlanCacheInfo, PlanCacheKey
from .explain import ExplainReport, OperatorLine
from .fingerprint import statement_fingerprint
from .parameters import bind_parameters, collect_parameters
from .session import Session, SessionResult, SessionTimings

__all__ = [
    "CachedPlan",
    "ExplainReport",
    "OperatorLine",
    "PlanCache",
    "PlanCacheInfo",
    "PlanCacheKey",
    "Session",
    "SessionResult",
    "SessionTimings",
    "bind_parameters",
    "collect_parameters",
    "statement_fingerprint",
]
