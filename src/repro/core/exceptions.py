"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class.  Exceptions are grouped to mirror the layers of the
system described in DESIGN.md: data-model errors, algebra errors, rule /
optimization errors, and engine (DBMS / stratum / front-end) errors.

Every class carries a stable, machine-readable ``code`` (a SCREAMING_SNAKE
string) that survives serialization over the TCP wire — clients branch on
codes, never on message text.  :func:`error_code` maps *any* exception to a
code (``"INTERNAL"`` for non-library errors), and :data:`RETRYABLE_CODES`
names the codes a client may safely retry with backoff: transient serving
conditions, not statement or data errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""

    #: Stable error code; subclasses override.  Serialized on the wire as
    #: ``{"status": "error", "code": ...}`` so clients can branch on it.
    code: str = "INTERNAL"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A relation schema is malformed or used inconsistently.

    Raised for example when an attribute is declared twice, when a tuple does
    not provide a value for every attribute, or when a value lies outside the
    declared domain of its attribute.
    """

    code = "SCHEMA_ERROR"


class PeriodError(ReproError):
    """A time period is malformed (e.g. end not after start)."""

    code = "PERIOD_ERROR"


class TemporalSchemaError(SchemaError):
    """A temporal operation was applied to a non-temporal relation (or the
    reverse), or the reserved attributes ``T1``/``T2`` are misused."""


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


class AlgebraError(ReproError):
    """An algebra operation was constructed or evaluated incorrectly."""

    code = "ALGEBRA_ERROR"


class ArityError(AlgebraError):
    """An operation received the wrong number of child operations."""


class AttributeNotFound(AlgebraError):
    """A selection predicate, projection list, sort key or grouping list
    references an attribute that does not exist in the input schema."""

    code = "ATTRIBUTE_NOT_FOUND"


class EvaluationError(AlgebraError):
    """Reference evaluation of an operator tree failed."""

    code = "EVALUATION_ERROR"


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


class EnumerationError(ReproError):
    """The plan enumeration algorithm was configured inconsistently (e.g. a
    non-terminating rule set without a plan budget)."""

    code = "ENUMERATION_ERROR"


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for physical-execution errors (DBMS substrate or stratum)."""

    code = "ENGINE_ERROR"


class CatalogError(EngineError):
    """A table is missing from, or duplicated in, the DBMS catalog."""

    code = "CATALOG_ERROR"


class SQLGenerationError(EngineError):
    """An algebra fragment assigned to the DBMS cannot be rendered as SQL."""

    code = "SQL_GENERATION_ERROR"


class PartitionError(EngineError):
    """A query plan cannot be partitioned between stratum and DBMS (e.g.
    unbalanced transfer operations)."""

    code = "PARTITION_ERROR"


class ParameterError(ReproError):
    """A statement's positional parameters were bound inconsistently (wrong
    count, or execution of a plan that still contains unbound markers)."""

    code = "PARAMETER_ERROR"


class ParseError(ReproError):
    """The temporal SQL front end could not parse the input statement.

    ``position`` is the zero-based character offset of the offending token in
    the input text when the front end knows it, ``None`` otherwise — error
    messages always embed the offset textually, but tools (editors, the test
    suite's error-position assertions) want it structurally.
    """

    code = "PARSE_ERROR"

    def __init__(self, message: str, position: "int | None" = None) -> None:
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# Serving: cancellation, resource limits, fault injection
# ---------------------------------------------------------------------------


class CancelledError(ReproError):
    """The request was cancelled cooperatively while executing.

    Raised by :meth:`~repro.faults.control.CancellationToken.check` from the
    operator pull loops and the lifecycle checkpoints, so a running query
    stops within one check interval of the cancel.
    """

    code = "CANCELLED"


class DeadlineExceededError(CancelledError):
    """The request's deadline passed while it was executing.

    A :class:`CancelledError` subclass: both stop execution through the same
    cooperative token, they differ only in who pulled the trigger (the clock
    versus an explicit ``cancel``) — which the code preserves.
    """

    code = "TIMED_OUT"


class ResourceExhaustedError(ReproError):
    """A per-request resource budget (rows pulled, bytes materialized) was hit."""

    code = "RESOURCE_EXHAUSTED"


class DataCorruptionError(EngineError):
    """Stored or in-flight data failed a consistency check.

    In this repository real corruption cannot occur spontaneously (tuples
    are immutable and domain-checked on construction); the class exists so
    fault injection can exercise the corrupt-and-detect path end to end and
    so detection sites have one typed error to raise.
    """

    code = "DATA_CORRUPTED"


class InjectedFaultError(ReproError):
    """The default exception an armed fault point raises (see :mod:`repro.faults`)."""

    code = "FAULT_INJECTED"


#: Codes a client may retry with backoff: transient serving conditions.
#: Statement errors, data errors and cancellations are deliberately absent —
#: retrying those repeats the failure (or resurrects a request the caller
#: just killed).
RETRYABLE_CODES = frozenset({"OVERLOADED", "UNAVAILABLE"})


def error_code(exc: BaseException) -> str:
    """The stable error code for any exception (``"INTERNAL"`` if foreign).

    The single mapping used everywhere an error crosses a boundary — the
    server's :class:`Response`, the TCP wire, trace-span attributes and the
    ``repro_request_errors_total`` counter all agree by construction.
    """
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) else "INTERNAL"
