"""Cooperative cancellation, deadlines and per-request resource budgets.

Python threads cannot be preempted, so stopping a running query is
necessarily *cooperative*: the executors call back into a small control
object at cheap, regular points — every ``interval`` tuples pulled through
a physical operator, and once per plan node / lifecycle phase — and that
object raises when the request should stop:

* :class:`CancellationToken` — carried from the server's admission through the
  :class:`~repro.session.session.Session` into both engines' pull loops.
  ``cancel()`` (any thread) or an expired deadline makes the *next* check
  raise :class:`~repro.core.exceptions.CancelledError` /
  :class:`~repro.core.exceptions.DeadlineExceededError`, so the query stops
  within one check interval instead of running to completion;
* :class:`ResourceGuard` — row and materialized-byte budgets charged from
  the same hook, raising
  :class:`~repro.core.exceptions.ResourceExhaustedError`;
* :class:`ExecutionControl` — the bundle the executors actually hold: one
  object, one ``is None`` branch on the default path (the same zero-cost
  gating pattern the observability clock uses).

The check interval trades responsiveness for overhead: at the default of
128 tuples the cost is one integer division per batch, and a cancel lands
within 128 pulled tuples (or one batch, if larger) plus one operator drain.
The one place that ticks is the drain of a physical operator
(:meth:`repro.core.physical.BatchOperator.batches`).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..core.exceptions import (
    CancelledError,
    DeadlineExceededError,
    ResourceExhaustedError,
)

#: Tuples pulled between two control checks (see module docstring).
DEFAULT_CHECK_INTERVAL = 128


class CancellationToken:
    """One request's stop signal: explicit cancel or deadline, same check.

    Thread-safe by construction: ``cancel()`` only ever sets an attribute
    (atomic under the GIL), ``check()`` only reads, so the executing worker
    and any number of cancelling threads need no lock.
    """

    __slots__ = ("deadline", "clock", "_cancelled", "_reason")

    def __init__(
        self,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        #: Absolute deadline on ``clock``'s timeline (``None``: no deadline).
        self.deadline = deadline
        self.clock = clock
        self._cancelled = False
        self._reason: Optional[str] = None

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (deadline not included)."""
        return self._cancelled

    def cancel(self, reason: str = "cancelled") -> None:
        """Request a stop; the executing thread raises at its next check."""
        self._reason = reason
        self._cancelled = True

    def expired(self) -> bool:
        """True if the deadline (when set) has passed."""
        return self.deadline is not None and self.clock() > self.deadline

    def check(self) -> None:
        """Raise if the request should stop; no-op (two reads) otherwise."""
        if self._cancelled:
            raise CancelledError(self._reason or "cancelled")
        deadline = self.deadline
        if deadline is not None and self.clock() > deadline:
            raise DeadlineExceededError(
                f"deadline exceeded after {self.clock() - deadline:.3f}s overrun"
            )


class ResourceGuard:
    """Per-request row / materialized-byte budgets.

    ``charge_rows`` is called from the pull loops in ``interval`` quanta
    (total tuples pulled through *all* operators — a proxy for work done);
    ``charge_bytes`` from the stratum executor for every relation it
    materializes.  Either budget overrunning raises
    :class:`~repro.core.exceptions.ResourceExhaustedError`.  Budgets are
    per-request: one guard is created per request, used by one worker, so
    no locking is needed.
    """

    __slots__ = ("max_rows", "max_bytes", "rows", "bytes")

    #: Rough per-tuple materialization estimate: a fixed object overhead
    #: plus a per-attribute slot cost.  Deliberately coarse — the budget
    #: bounds magnitude, not accounting precision.
    TUPLE_OVERHEAD_BYTES = 50
    ATTRIBUTE_BYTES = 12

    def __init__(
        self, max_rows: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> None:
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.rows = 0
        self.bytes = 0

    def charge_rows(self, count: int) -> None:
        """Account ``count`` pulled tuples against the row budget."""
        self.rows += count
        if self.max_rows is not None and self.rows > self.max_rows:
            raise ResourceExhaustedError(
                f"row budget exhausted: pulled {self.rows} tuples, limit {self.max_rows}"
            )

    def charge_bytes(self, count: int) -> None:
        """Account ``count`` materialized bytes against the byte budget."""
        self.bytes += count
        if self.max_bytes is not None and self.bytes > self.max_bytes:
            raise ResourceExhaustedError(
                f"materialization budget exhausted: {self.bytes} bytes, "
                f"limit {self.max_bytes}"
            )

    def charge_relation(self, relation) -> None:
        """Charge a materialized relation's estimated footprint."""
        if self.max_bytes is None:
            return
        width = len(relation.schema.attributes)
        self.charge_bytes(
            len(relation) * (self.TUPLE_OVERHEAD_BYTES + self.ATTRIBUTE_BYTES * width)
        )


class ExecutionControl:
    """The per-request control bundle the executors hold.

    Bundles the (optional) :class:`CancellationToken`, the (optional)
    :class:`ResourceGuard` and the armed-fault registry behind one object:
    executors keep a single ``_control`` attribute that is ``None`` on the
    default path — the same one-branch gating as the observability timer —
    and call :meth:`tick` once per ``interval`` tuples when it is not.
    """

    __slots__ = ("token", "guard", "interval", "_faults")

    def __init__(
        self,
        token: Optional[CancellationToken] = None,
        guard: Optional[ResourceGuard] = None,
        interval: int = DEFAULT_CHECK_INTERVAL,
        faults=None,
    ) -> None:
        if interval < 1:
            raise ValueError("check interval must be at least 1 tuple")
        self.token = token
        self.guard = guard
        self.interval = interval
        if faults is None:
            from .registry import FAULTS as faults
        self._faults = faults

    def checkpoint(self) -> None:
        """A token-only check: once per plan node / lifecycle phase."""
        if self.token is not None:
            self.token.check()

    def tick(self, point: str) -> None:
        """One full control check from a pull loop at fault point ``point``."""
        token = self.token
        if token is not None:
            token.check()
        if self.guard is not None:
            self.guard.charge_rows(self.interval)
        if self._faults.active:
            self._faults.check(point, token=token)
