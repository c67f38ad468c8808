"""Structured tracing: span trees rendered from per-request records.

A request's journey through the layers — parse → optimize → bind →
execute, with per-operator children under the execute span — is *measured*
by the session, which stamps every phase of every request on one record
(:class:`~repro.session.session.SessionResult`).  This module holds what is
the tracer's own and the export format:

* the :class:`Tracer` decides by a deterministic modular sampler whether a
  request is sampled (which is also what turns the executors' per-operator
  clock on), stamps its trace id, and keeps the last N sampled requests —
  as the names, numbers and plan paths of their records, nothing heavier —
  for the ``trace`` introspection command of the TCP front end;
* :class:`Trace`/:class:`Span` trees are built from those numbers **on
  export** (:meth:`Tracer.recent`) by :func:`build_trace`; an unsampled
  request never builds a span, and a sampled one only when somebody looks.
* **the clock is injected** — every timestamp of a request comes from the
  tracer's ``clock`` callable (default :func:`time.perf_counter`), so tests
  drive a fake monotonic clock and assert exact durations.

Traces export two ways: :meth:`Trace.to_dict` (structured, JSON-safe) and
:meth:`Trace.to_chrome_trace` — the Chrome trace-event format (complete
``"X"`` events with microsecond ``ts``/``dur``), loadable directly in
Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple


class Span:
    """One timed, attributed section of a trace.

    ``start`` is in the trace's clock domain (monotonic seconds);
    ``duration`` is filled when the span closes.  ``attributes`` is a flat
    ``str -> JSON-safe value`` mapping; ``children`` are the spans opened
    while this span was the innermost open one.
    """

    __slots__ = ("name", "start", "duration", "attributes", "children")

    def __init__(
        self,
        name: str,
        start: float,
        duration: Optional[float] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.attributes: Dict[str, Any] = dict(attributes or ())
        self.children: List["Span"] = []

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; later calls overwrite on key collision."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The span subtree as plain dicts (JSON-safe)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


class Trace:
    """One request's span tree, rooted at the request span itself (built
    complete by :func:`build_trace`)."""

    def __init__(self, trace_id: str, root: Span) -> None:
        self.trace_id = trace_id
        self.root = root

    @property
    def duration(self) -> Optional[float]:
        return self.root.duration

    def spans(self) -> List[Span]:
        """Every span of the trace, pre-order."""
        out: List[Span] = []

        def walk(span: Span) -> None:
            out.append(span)
            for child in span.children:
                walk(child)

        walk(self.root)
        return out

    def find(self, name: str) -> Optional[Span]:
        """The first span (pre-order) with the given name, or ``None``."""
        for span in self.spans():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        """The whole trace as plain dicts (JSON-safe)."""
        return {"trace_id": self.trace_id, "root": self.root.to_dict()}

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace in Chrome trace-event format (Perfetto-loadable).

        Every span becomes one complete (``"ph": "X"``) event with
        microsecond ``ts``/``dur`` relative to the trace root, all on one
        ``pid``/``tid`` track — the viewer nests them by time.  Attributes
        land in ``args``.
        """
        origin = self.root.start
        events: List[Dict[str, Any]] = []
        for span in self.spans():
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round((span.duration or 0.0) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": dict(span.attributes),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": self.trace_id},
        }


def build_trace(
    trace_id: str,
    statement: str,
    phases: Mapping[str, Tuple[float, float, Mapping[str, Any]]],
    operators: Iterable[Any] = (),
    error_code: Optional[str] = None,
) -> Trace:
    """Render the numbers one sampled request left behind as its span tree.

    ``phases`` is the request record's ``name -> (start, seconds,
    attributes)`` mapping, in lifecycle order; the root ``request`` span
    covers them and, for a failed request, carries ``error``/``error_code``.
    ``operators`` are the record's EXPLAIN lines
    (:class:`~repro.session.explain.OperatorLine`): those either engine
    timed become children of the ``execute`` span, in plan order, each with
    its plan ``path``, actual ``rows`` and the ``engine`` that ran it.
    """
    spans = [Span(name, *stamp) for name, stamp in phases.items()]
    start = spans[0].start if spans else 0.0
    end = spans[-1].start + spans[-1].duration if spans else start
    root = Span("request", start, end - start, {"statement": statement})
    if error_code is not None:
        root.set(error=True, error_code=error_code)
    root.children = spans
    for span in spans:
        if span.name == "execute":
            span.children = [
                Span(
                    line.label,
                    line.start_seconds,
                    line.time_seconds,
                    {"path": list(line.path), "rows": line.actual_rows, "engine": line.engine},
                )
                for line in operators
                if line.time_seconds is not None
            ]
    return Trace(trace_id, root)


class Tracer:
    """Sampler, trace-id source and retention ring.

    >>> from repro.obs import Tracer
    >>> tracer = Tracer(sample_every=2)
    >>> [tracer.sample() for _ in range(3)]
    ['t00000001', None, 't00000002']
    >>> tracer.retain(trace_id="t00000001", statement="SELECT 1",
    ...               phases={"parse": (0.0, 0.25, {}), "execute": (0.25, 1.0, {})})
    >>> trace = tracer.recent()[0]
    >>> [(span.name, span.duration) for span in trace.spans()]
    [('request', 1.25), ('parse', 0.25), ('execute', 1.0)]

    Sampling is **deterministic**: with ``sample_every=n`` exactly every
    n-th :meth:`sample` call is sampled (the first call always is), so tests
    — and capacity planning — see a fixed fraction instead of a coin flip.
    ``enabled=False`` (or ``sample_every=0``) disables tracing entirely:
    nothing is ever sampled and the clock is never read here.
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_every: int = 1,
        clock: Callable[[], float] = time.perf_counter,
        keep: int = 32,
    ) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0 (0 disables tracing)")
        self.enabled = enabled and sample_every > 0
        self.sample_every = sample_every
        self.clock = clock
        self._ids = itertools.count(1)
        self._calls = itertools.count()
        #: Per sampled request, the keyword arguments of :func:`build_trace`.
        self._finished: "deque[Dict[str, Any]]" = deque(maxlen=max(1, keep))
        self._lock = threading.Lock()

    def sample(self) -> Optional[str]:
        """The sampling decision: a fresh trace id, or ``None`` (not sampled)."""
        if not self.enabled or next(self._calls) % self.sample_every:
            return None
        return f"t{next(self._ids):08x}"

    def retain(self, **request: Any) -> None:
        """Keep one sampled request — :func:`build_trace`'s arguments — in the ring."""
        with self._lock:
            self._finished.append(request)

    def recent(self, limit: Optional[int] = None) -> List[Trace]:
        """The most recently finished traces, oldest first (built here, on export)."""
        with self._lock:
            entries = list(self._finished)
        if limit is not None and limit >= 0:
            entries = entries[-limit:] if limit else []
        return [build_trace(**entry) for entry in entries]
