"""A process-wide registry of named, deterministic fault-injection points.

Every layer of the serving stack declares a named point and calls
``FAULTS.check("<point>")`` (or is wrapped by
:meth:`~repro.faults.control.ExecutionControl.tick`) at the place a real
fault would surface:

=================  ==========================================================
``tsql.parse``     statement parsing (:func:`repro.tsql.parser.parse_statement`)
``search.memo``    memo-based plan search (degrades to the default plan)
``session.bind``   positional-parameter binding in the session
``stratum.pull``   the stratum physical operators' pull loops
``dbms.scan``      the conventional DBMS physical operators' pull loops
``catalog.append`` catalog append (supports corrupt-and-detect)
``server.worker``  the thread running a server request, before it executes
``server.tcp``     the TCP front end's request dispatch
=================  ==========================================================

Arming is per-point and explicitly bounded: a fault fires with probability
``rate`` from a seeded :class:`random.Random` (deterministic schedules for
the chaos suite) at most ``times`` times, and can **raise** a chosen
exception, **inject latency** (sliced so a cancellation token still
interrupts the sleep), or **corrupt** data for a downstream validity check
to catch.  Disabled — the default, and the only state production code ever
sees — the whole machinery is one attribute read: callers gate on
``FAULTS.active`` exactly like the observability layer gates on
``_timer is None``.
"""

from __future__ import annotations

import threading
import time
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple as PyTuple

from ..core.exceptions import DataCorruptionError, InjectedFaultError

#: The fault points the library declares, with the layer that owns each.
FAULT_POINTS: PyTuple[str, ...] = (
    "tsql.parse",
    "search.memo",
    "session.bind",
    "stratum.pull",
    "dbms.scan",
    "catalog.append",
    "server.worker",
    "server.tcp",
)

#: Seconds per slice of an injected latency sleep — the granularity at
#: which a cancellation token can interrupt the injected stall.
LATENCY_SLICE_SECONDS = 0.002

#: The sentinel value corruption writes into a row: outside every declared
#: domain, so schema validation at the next construction site detects it.
CORRUPTION_SENTINEL = object()


class FaultSpec:
    """One armed fault: what to do at a point, how often, how many times."""

    __slots__ = ("point", "kind", "exception", "latency", "times", "rate", "_rng", "fired")

    def __init__(
        self,
        point: str,
        kind: str,
        exception: Optional[BaseException] = None,
        latency: float = 0.0,
        times: Optional[int] = 1,
        rate: float = 1.0,
        seed: Optional[int] = None,
    ) -> None:
        if kind not in ("error", "latency", "corrupt"):
            raise ValueError(f"unknown fault kind {kind!r}")
        if kind == "latency" and latency <= 0.0:
            raise ValueError("latency faults need a positive latency")
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        self.point = point
        self.kind = kind
        self.exception = exception
        self.latency = latency
        self.times = times
        self.rate = rate
        self._rng = Random(seed)
        self.fired = 0

    def should_fire(self) -> bool:
        """Decide (and record) one firing; called under the registry lock."""
        if self.times is not None and self.fired >= self.times:
            return False
        if self.rate < 1.0 and self._rng.random() >= self.rate:
            return False
        self.fired += 1
        return True

    def make_exception(self) -> BaseException:
        """A fresh exception instance for one firing."""
        template = self.exception
        if template is None:
            return InjectedFaultError(f"injected fault at {self.point!r}")
        if isinstance(template, type):
            return template(f"injected fault at {self.point!r}")
        # An instance template: re-instantiate so tracebacks never chain
        # across firings.
        return type(template)(*template.args)


class FaultRegistry:
    """Process-wide named fault points, armed per test and off by default.

    The registry is the single switchboard for every injection site in the
    stack: tests arm a point (:meth:`arm`, or the :meth:`armed` context
    manager), production code calls :meth:`check` at the site, and
    :attr:`active` gates the whole thing behind one attribute read when
    nothing is armed.  Firing decisions are serialized under a lock and
    drawn from a per-fault seeded generator, so a chaos schedule replays
    exactly given the same seed.

    >>> from repro.faults import FAULTS
    >>> from repro.core.exceptions import InjectedFaultError
    >>> with FAULTS.armed("dbms.scan", times=1):
    ...     try:
    ...         FAULTS.check("dbms.scan")
    ...     except InjectedFaultError as exc:
    ...         print(exc)
    injected fault at 'dbms.scan'
    >>> FAULTS.active
    False
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._specs: Dict[str, FaultSpec] = {}
        self._fired_history: Dict[str, int] = {}
        #: True while at least one point is armed — the one-read gate the
        #: hot paths branch on.  Maintained, never computed, on the hot path.
        self.active = False

    # -- arming -------------------------------------------------------------------

    def arm(
        self,
        point: str,
        kind: str = "error",
        exception: Optional[BaseException] = None,
        latency: float = 0.0,
        times: Optional[int] = 1,
        rate: float = 1.0,
        seed: Optional[int] = None,
    ) -> FaultSpec:
        """Arm ``point``; returns the spec (its ``fired`` count is live).

        ``kind`` is ``"error"`` (raise ``exception`` — class or template
        instance — or :class:`~repro.core.exceptions.InjectedFaultError`),
        ``"latency"`` (sleep ``latency`` seconds, sliced so a cancellation
        token interrupts it), or ``"corrupt"`` (corrupt data where the
        point supports it, raise
        :class:`~repro.core.exceptions.DataCorruptionError` directly where
        it does not).  The fault fires at most ``times`` times (``None``:
        unbounded) with probability ``rate`` per hit, drawn from a
        generator seeded with ``seed``.
        """
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; declared points: {', '.join(FAULT_POINTS)}"
            )
        spec = FaultSpec(
            point,
            kind,
            exception=exception,
            latency=latency,
            times=times,
            rate=rate,
            seed=seed,
        )
        with self._lock:
            self._specs[point] = spec
            self.active = True
        return spec

    def disarm(self, point: str) -> None:
        """Disarm ``point`` (idempotent); keeps its fired count in history."""
        with self._lock:
            spec = self._specs.pop(point, None)
            if spec is not None:
                self._fired_history[point] = self._fired_history.get(point, 0) + spec.fired
            self.active = bool(self._specs)

    def reset(self) -> None:
        """Disarm everything and clear the fired history."""
        with self._lock:
            self._specs.clear()
            self._fired_history.clear()
            self.active = False

    def armed(self, point: str, **kwargs) -> "_ArmedContext":
        """Context manager: arm ``point`` on entry, disarm it on exit."""
        return _ArmedContext(self, point, kwargs)

    # -- introspection ------------------------------------------------------------

    def fired(self, point: str) -> int:
        """Total firings at ``point``, armed spec plus disarmed history."""
        with self._lock:
            total = self._fired_history.get(point, 0)
            spec = self._specs.get(point)
            if spec is not None:
                total += spec.fired
            return total

    def snapshot_fired(self) -> Dict[str, int]:
        """Fired counts for every point that has fired at least once."""
        with self._lock:
            totals = dict(self._fired_history)
            for point, spec in self._specs.items():
                if spec.fired:
                    totals[point] = totals.get(point, 0) + spec.fired
            return totals

    # -- the injection sites ------------------------------------------------------

    def check(self, point: str, token=None) -> None:
        """The injection site: act if ``point`` is armed and elects to fire.

        Error and corrupt kinds raise; latency sleeps (sliced, checking
        ``token`` between slices so cancellation interrupts the stall).
        Callers on hot paths gate this behind ``if FAULTS.active`` — with
        nothing armed the call is never reached.
        """
        spec = self._fire(point)
        if spec is None:
            return
        if spec.kind == "latency":
            self._sleep(spec.latency, token)
            return
        if spec.kind == "corrupt":
            raise DataCorruptionError(
                f"injected corruption at {point!r} detected by consistency check"
            )
        raise spec.make_exception()

    def corrupt_rows(self, point: str, rows: Sequence[Sequence[Any]]) -> Sequence[Sequence[Any]]:
        """Corrupt one value of ``rows`` if a corrupt fault fires at ``point``.

        Used by sites that carry raw data (catalog append): instead of
        raising here, the first row's first value is replaced with a
        sentinel outside every domain, and the *existing* schema validation
        downstream detects it — exercising the real corrupt-and-detect
        path, not a simulation of it.  Non-corrupt kinds behave exactly
        like :meth:`check`.
        """
        spec = self._fire(point)
        if spec is None:
            return rows
        if spec.kind == "latency":
            self._sleep(spec.latency, None)
            return rows
        if spec.kind != "corrupt":
            raise spec.make_exception()
        corrupted: List[List[Any]] = [list(row) for row in rows]
        if corrupted and corrupted[0]:
            corrupted[0][0] = CORRUPTION_SENTINEL
        return corrupted

    # -- internals ----------------------------------------------------------------

    def _fire(self, point: str) -> Optional[FaultSpec]:
        with self._lock:
            spec = self._specs.get(point)
            if spec is None or not spec.should_fire():
                return None
            return spec

    @staticmethod
    def _sleep(duration: float, token) -> None:
        deadline = time.monotonic() + duration
        while True:
            if token is not None:
                token.check()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(LATENCY_SLICE_SECONDS, remaining))


class _ArmedContext:
    """Arm-on-enter / disarm-on-exit (returned by :meth:`FaultRegistry.armed`)."""

    def __init__(self, registry: FaultRegistry, point: str, kwargs: Dict[str, Any]) -> None:
        self._registry = registry
        self._point = point
        self._kwargs = kwargs
        self.spec: Optional[FaultSpec] = None

    def __enter__(self) -> FaultSpec:
        self.spec = self._registry.arm(self._point, **self._kwargs)
        return self.spec

    def __exit__(self, *exc_info) -> None:
        self._registry.disarm(self._point)


#: The process-wide registry every injection site consults.
FAULTS = FaultRegistry()
