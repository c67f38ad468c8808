"""A process-wide metrics registry: counters, gauges and histograms.

The serving layer needs aggregate telemetry that outlives any single
request: plan-cache hits/misses, memo tasks expanded, operator rows
produced, admission line length, per-statement-kind latency
distributions.  :class:`MetricsRegistry` holds typed instruments for all
of these and renders them two ways — :meth:`MetricsRegistry.snapshot`
(a plain dict for programmatic readers such as ``ServerStats``) and
:meth:`MetricsRegistry.exposition` (Prometheus text format, served by the
TCP front end's ``metrics`` command).

Instruments are cheap and thread-safe: one lock per instrument, integer
counters stay integers, and label lookups are a dict get.  Values that
live elsewhere (queue depth, the catalog epoch, plan-cache counters) are
registered as *callbacks* and read only at exposition/snapshot time, so
the owning structures stay the single source of truth.

``REGISTRY`` is the module-global default for process-wide use; code that
needs isolation (every ``Server`` by default, and any test) constructs a
private :class:`MetricsRegistry` instead.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class _Instrument:
    """Shared shell: name, help text, and the labelled-child table."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, Any] = {}

    def labels(self, **labels: str):
        """The child instrument for one label combination (get-or-create)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled; call .labels(...) first")
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._make_child()
                self._children[()] = child
            return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _series(self) -> List[Tuple[LabelKey, Any]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Instrument):
    """A monotonically increasing count (requests, rows, cache hits)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    def value(self) -> float:
        return self._default_child().value()


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that goes up and down (active workers, queue depth)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default_child().dec(amount)

    def value(self) -> float:
        return self._default_child().value()


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum: float = 0.0
        self._count: int = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self._bounds, counts):
            running += bucket
            cumulative.append((bound, running))
        return {
            "buckets": cumulative,
            "sum": total,
            "count": count,
        }


class Histogram(_Instrument):
    """A distribution over fixed buckets (per-statement-kind latency)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def snapshot(self) -> Dict[str, Any]:
        return self._default_child().snapshot()


class _Callback:
    """A pull-time value owned elsewhere (queue depth, cache counters)."""

    __slots__ = ("name", "help", "kind", "fn")

    def __init__(self, name: str, help: str, kind: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.fn = fn


class MetricsRegistry:
    """Named instruments plus pull-time callbacks, rendered on demand.

    >>> from repro.obs import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> requests = registry.counter("requests_total", "Requests served.")
    >>> requests.inc()
    >>> print(registry.exposition().splitlines()[2])
    requests_total 1

    ``counter``/``gauge``/``histogram`` are get-or-create by name, so
    instrumented code can re-request an instrument without coordinating
    creation order; re-requesting with a different type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        self._callbacks: Dict[str, _Callback] = {}

    # -- instrument creation -----------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            if name in self._callbacks:
                raise ValueError(f"metric {name!r} already registered as a callback")
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter` by name."""
        return self._get_or_create(Counter, name, help, labelnames=labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge` by name."""
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram` by name."""
        return self._get_or_create(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )

    def callback(
        self, name: str, help: str, fn: Callable[[], float], kind: str = "gauge"
    ) -> None:
        """Register a value read lazily at exposition/snapshot time."""
        with self._lock:
            if name in self._instruments:
                raise ValueError(f"metric {name!r} already registered as {kind}")
            self._callbacks[name] = _Callback(name, help, kind, fn)

    # -- rendering ---------------------------------------------------------------

    @staticmethod
    def _format_value(value: float) -> str:
        if isinstance(value, bool):  # bools are ints; be explicit
            return str(int(value))
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return repr(float(value))

    def exposition(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            instruments = sorted(self._instruments.items())
            callbacks = sorted(self._callbacks.items())
        for name, instrument in instruments:
            lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for key, child in instrument._series():
                if instrument.kind == "histogram":
                    snap = child.snapshot()
                    for bound, cumulative in snap["buckets"]:
                        bucket_key = key + (("le", self._format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_key)} {cumulative}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(f"{name}_bucket{_render_labels(inf_key)} {snap['count']}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {self._format_value(snap['sum'])}"
                    )
                    lines.append(f"{name}_count{_render_labels(key)} {snap['count']}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} {self._format_value(child.value())}"
                    )
        for name, callback in callbacks:
            lines.append(f"# HELP {name} {callback.help}")
            lines.append(f"# TYPE {name} {callback.kind}")
            lines.append(f"{name} {self._format_value(callback.fn())}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """All current values as one plain dict (JSON-safe).

        Unlabelled counters/gauges map to a number; labelled ones map to a
        ``{rendered_labels: value}`` dict; histograms map to their bucket
        snapshot.  Callback values are read now.
        """
        out: Dict[str, Any] = {}
        with self._lock:
            instruments = sorted(self._instruments.items())
            callbacks = sorted(self._callbacks.items())
        for name, instrument in instruments:
            series = instrument._series()
            if instrument.kind == "histogram":
                out[name] = {
                    _render_labels(key) or "": child.snapshot() for key, child in series
                }
            elif len(series) == 1 and series[0][0] == ():
                out[name] = series[0][1].value()
            else:
                out[name] = {_render_labels(key): child.value() for key, child in series}
        for name, callback in callbacks:
            out[name] = callback.fn()
        return out

    def value(self, name: str, default: Optional[float] = None) -> Optional[float]:
        """The current scalar value of an unlabelled instrument or callback."""
        with self._lock:
            instrument = self._instruments.get(name)
            callback = self._callbacks.get(name)
        if instrument is not None:
            return instrument._default_child().value()
        if callback is not None:
            return callback.fn()
        return default


#: Process-wide default registry for code without an obvious owner.
REGISTRY = MetricsRegistry()
