"""An optional TCP front end: newline-delimited JSON over ``socketserver``.

The wire protocol is one JSON object per line in both directions.  Requests
carry an ``op``:

``{"op": "query", "statement": "...", "params": [...], "timeout": 1.5}``
    Run a statement (``params`` and ``timeout`` optional).  The response is
    ``{"status": "ok", "columns": [...], "rows": [[...], ...], "epoch": N,
    "cache_hit": true, "latency_seconds": ...}`` — for an ``EXPLAIN
    [ANALYZE]`` statement ``"explain"``, the rendered report, in place of
    the rows — or ``status`` of
    ``"error"``/``"timed_out"``/``"cancelled"``/``"rejected"`` with an
    ``"error"`` message and a stable ``"code"`` (see
    :mod:`repro.core.exceptions`).  An optional client-chosen ``"id"``
    registers the in-flight request so another connection can cancel it.

``{"op": "cancel", "id": "..."}`` / ``{"op": "cancel", "request_id": N}``
    Cancel an in-flight query by the client-chosen ``id`` it was submitted
    with, or by the server-assigned ``request_id``.  Replies
    ``{"status": "ok", "cancelled": true|false}`` — false means the
    request was unknown or already answered (cancellation races
    completion by design).

``{"op": "append", "table": "EMPLOYEE", "rows": [[...], ...]}``
    Append rows in schema order; an ``ok`` response reports
    ``rows_inserted`` and the ``epoch`` the catalog advanced to.

``{"op": "stats"}``
    The server's :class:`~repro.server.metrics.ServerStats` as JSON.

``{"op": "metrics"}``
    ``{"status": "ok", "exposition": "..."}`` — the server's metrics
    registry in Prometheus text exposition format (one scrape).

``{"op": "trace", "limit": 5}``
    ``{"status": "ok", "traces": [...]}`` — the last-N finished request
    traces as structured dicts (``limit`` optional; empty unless the
    server runs with a tracer).

``{"op": "ping"}``
    ``{"status": "ok", "pong": true}`` — liveness only.

Request lines are capped at ``max_request_bytes`` (1 MiB by default): an
oversized line is answered ``{"status": "error", "code":
"REQUEST_TOO_LARGE"}`` and the connection is closed, so a misbehaving (or
malicious) client cannot buffer unbounded memory server-side.  A line that
is no JSON — malformed, not UTF-8, or nested too deep to parse — and valid
JSON that is no request: not an object, an unknown ``op``, a missing
``statement``/``table``, ``params``/``rows`` that are not lists, a row that
is not a list, a ``timeout`` that is not a finite number, a
``request_id``/``limit`` that is not an integer — answers ``code:
"BAD_REQUEST"`` naming what is wrong, and keeps the connection; a client
that disconnects mid-line is dropped silently.

The front end is a ``ThreadingTCPServer`` whose handler threads parse lines
and call the wrapped :class:`~repro.server.server.Server`'s blocking
``query``/``append``: the handler thread runs the request itself, so a
request crosses no thread (on a saturated server it first waits in the
server's line for a slot).  All admission control, concurrency limits and
snapshots stay in the server; the TCP layer adds no second scheduling
policy.  :class:`TCPClient` is the matching blocking client used by the
examples and the tests; give it a :class:`RetryPolicy` and it retries
``OVERLOADED``/``UNAVAILABLE`` replies with capped exponential backoff and
jitter, and reconnects once per request on a broken connection.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, FrozenSet, Optional, Sequence

from ..core.exceptions import RETRYABLE_CODES, error_code
from ..faults import FAULTS
from .server import Response, Server, ServerOverloadedError

#: Default cap on one request line, bytes (including the newline).
DEFAULT_MAX_REQUEST_BYTES = 1 << 20


class _BadRequest(Exception):
    """A request line the client got wrong: answered ``BAD_REQUEST``."""


def _field(message: Dict[str, Any], name: str, kind, described: str, required: bool = False):
    """``message[name]`` if it is a ``kind`` (never a bool); ``None`` when absent or null."""
    value = message.get(name)
    if value is None:
        if required:
            raise _BadRequest(f"missing field {name!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _BadRequest(f"field {name!r} must be {described}, got {type(value).__name__}")
    return value


def _timeout(message: Dict[str, Any]) -> Optional[float]:
    """``message["timeout"]``, a finite number or ``None`` (JSON admits
    ``NaN`` and integers too large for a float)."""
    timeout = _field(message, "timeout", (int, float), "a number")
    if timeout is None:
        return None
    try:
        seconds = float(timeout)
    except OverflowError:
        seconds = math.inf if timeout > 0 else -math.inf
    if not math.isfinite(seconds):
        raise _BadRequest(f"field 'timeout' must be finite, got {seconds}")
    return seconds


def response_to_wire(response: Response) -> Dict[str, Any]:
    """Flatten a :class:`Response` into a JSON-serializable dictionary."""
    payload: Dict[str, Any] = {
        "status": response.status,
        "kind": response.kind,
        "epoch": response.epoch,
        "latency_seconds": response.latency_seconds,
        "request_id": response.request_id,
    }
    if response.error is not None:
        payload["error"] = response.error
    if response.code is not None:
        payload["code"] = response.code
    if response.kind == "query" and response.relation is not None:
        payload["columns"] = list(response.relation.schema.attributes)
        payload["rows"] = [list(row) for row in response.relation.rows]
        payload["cache_hit"] = response.cache_hit
    if response.explain is not None:
        payload["explain"] = response.explain
    if response.kind == "append":
        payload["rows_inserted"] = response.rows_inserted
    if response.timings is not None:
        payload["timings"] = dict(response.timings)
    if response.trace_id is not None:
        payload["trace_id"] = response.trace_id
    return payload


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connected client; handles any number of newline-framed requests."""

    def handle(self) -> None:  # pragma: no branch - loop exits on EOF
        server: Server = self.server.repro_server  # type: ignore[attr-defined]
        limit: int = self.server.max_request_bytes  # type: ignore[attr-defined]
        while True:
            # Bounded read: at most limit+1 bytes buffer regardless of what
            # the client sends, instead of readline()'s unbounded growth.
            raw = self.rfile.readline(limit + 1)
            if not raw:
                return  # EOF: client closed cleanly between requests
            if len(raw) > limit:
                self._reply(
                    {
                        "status": "error",
                        "error": f"request line exceeds {limit} bytes",
                        "code": "REQUEST_TOO_LARGE",
                    }
                )
                return  # the rest of the oversized line would be garbage
            if not raw.endswith(b"\n"):
                return  # half a line then EOF: client died mid-send
            line = raw.strip()
            if not line:
                continue
            try:
                message = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, nested too deep
                reply = {"status": "error", "error": f"bad JSON: {exc}", "code": "BAD_REQUEST"}
            else:
                reply = self._answer(server, message)
            if not self._reply(reply):
                return

    def _answer(self, server: Server, message: Any) -> Dict[str, Any]:
        """The one reply to a parsed request line."""
        try:
            return self._dispatch(server, message)
        except _BadRequest as exc:
            return {"status": "error", "error": str(exc), "code": "BAD_REQUEST"}
        except ServerOverloadedError as exc:
            return {"status": "rejected", "error": str(exc), "code": exc.code}
        except Exception as exc:  # defensive: never kill the connection
            return {"status": "error", "error": str(exc), "code": error_code(exc)}

    def _reply(self, reply: Dict[str, Any]) -> bool:
        """Write one reply line; False when the client is already gone."""
        try:
            self.wfile.write(json.dumps(reply).encode("utf-8") + b"\n")
            self.wfile.flush()
            return True
        except OSError:
            return False

    def _dispatch(self, server: Server, message: Any) -> Dict[str, Any]:
        if FAULTS.active:
            FAULTS.check("server.tcp")
        if not isinstance(message, dict):
            raise _BadRequest(f"a request is a JSON object, got {type(message).__name__}")
        op = message.get("op")
        if op == "ping":
            return {"status": "ok", "pong": True}
        if op == "stats":
            return {"status": "ok", "stats": dataclasses.asdict(server.stats())}
        if op == "metrics":
            return {"status": "ok", "exposition": server.metrics_exposition()}
        if op == "trace":
            limit = _field(message, "limit", int, "an integer")
            return {"status": "ok", "traces": server.recent_traces(limit)}
        if op == "cancel":
            return {"status": "ok", "cancelled": self._cancel(server, message)}
        if op == "query":
            return self._query(server, message)
        if op == "append":
            table = _field(message, "table", str, "a string", required=True)
            rows = _field(message, "rows", list, "a list") or ()
            for row in rows:
                if not isinstance(row, list):
                    raise _BadRequest(f"each of 'rows' must be a list, got {type(row).__name__}")
            return response_to_wire(server.append(table, rows, timeout=_timeout(message)))
        raise _BadRequest(f"unknown op: {op!r}")

    def _query(self, server: Server, message: Dict[str, Any]) -> Dict[str, Any]:
        statement = _field(message, "statement", str, "a string", required=True)
        params = tuple(_field(message, "params", list, "a list") or ())
        timeout = _timeout(message)
        key = message.get("id")
        if key is None:
            return response_to_wire(server.query(statement, params, timeout=timeout))
        key = str(key)
        pending, lock = self.server.pending, self.server.pending_lock  # type: ignore[attr-defined]

        def register(request_id: int) -> None:
            # Before the request runs (or waits in line), so a second
            # connection's cancel finds it while this one blocks.
            with lock:
                pending[key] = request_id

        try:
            response = server.query(statement, params, timeout=timeout, admitted=register)
        finally:
            with lock:
                pending.pop(key, None)
        return response_to_wire(response)

    def _cancel(self, server: Server, message: Dict[str, Any]) -> bool:
        request_id = _field(message, "request_id", int, "an integer")
        if request_id is None:
            key = message.get("id")
            if key is None:
                return False
            with self.server.pending_lock:  # type: ignore[attr-defined]
                request_id = self.server.pending.get(str(key))  # type: ignore[attr-defined]
        if request_id is None:
            return False
        return server.cancel(request_id)


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TCPFrontend:
    """Serve a :class:`Server` over TCP with the line-JSON protocol.

    Binds at construction (``port=0`` picks a free port — read ``.address``),
    serves from a background thread after :meth:`start`, and is a context
    manager like the server it wraps.  ``max_request_bytes`` caps how much
    one request line may buffer before being rejected
    ``REQUEST_TOO_LARGE``.
    """

    def __init__(
        self,
        server: Server,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ) -> None:
        if max_request_bytes < 1:
            raise ValueError("max_request_bytes must be at least 1")
        self.server = server
        self._tcp = _ThreadingTCPServer((host, port), _RequestHandler)
        self._tcp.repro_server = server  # type: ignore[attr-defined]
        self._tcp.max_request_bytes = max_request_bytes  # type: ignore[attr-defined]
        # Client-chosen id -> server request id, for the cancel op.
        self._tcp.pending = {}  # type: ignore[attr-defined]
        self._tcp.pending_lock = threading.Lock()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._tcp.server_address

    def start(self) -> "TCPFrontend":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                name="repro-server-tcp",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._tcp.shutdown()
            self._thread.join()
            self._thread = None
        self._tcp.server_close()

    def __enter__(self) -> "TCPFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclasses.dataclass
class RetryPolicy:
    """Capped exponential backoff with jitter for retryable error codes.

    The delay before retry ``n`` (0-based) is ``min(max_delay, base_delay ·
    2ⁿ)`` scaled by a random factor in ``[1 - jitter, 1]`` so a herd of
    rejected clients does not retry in lockstep.  Only replies whose
    ``code`` is in ``retryable`` (by default
    :data:`~repro.core.exceptions.RETRYABLE_CODES` — ``OVERLOADED`` and
    ``UNAVAILABLE``) are retried; a deterministic ``seed`` makes the jitter
    reproducible in tests.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5
    retryable: FrozenSet[str] = RETRYABLE_CODES
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        capped = min(self.max_delay, self.base_delay * (2**attempt))
        return capped * (1.0 - self.jitter * self._rng.random())


class TCPClient:
    """A blocking line-JSON client for :class:`TCPFrontend`.

    Fault-tolerant by configuration, not by default: with ``retry`` set,
    replies carrying a retryable code are retried with the policy's
    backoff; with ``read_timeout`` set, a reply that never comes raises
    :class:`TimeoutError` instead of blocking forever.  A broken
    connection (server restarted, socket reset) is re-established at most
    once per request before the error propagates.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        read_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._address = (host, port)
        self._connect_timeout = connect_timeout
        self._read_timeout = read_timeout
        self._retry = retry
        self._sleep = sleep
        self._socket: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # -- connection plumbing ------------------------------------------------------

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            self._address, timeout=self._connect_timeout
        )
        self._socket.settimeout(self._read_timeout)
        self._file = self._socket.makefile("rwb")

    def _drop_connection(self) -> None:
        try:
            self.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        self._socket = None
        self._file = None

    def _roundtrip(self, payload: bytes) -> Dict[str, Any]:
        if self._file is None:
            self._connect()
        try:
            self._file.write(payload)
            self._file.flush()
            raw = self._file.readline()
        except socket.timeout:
            # The reply may still arrive later and desynchronize the
            # stream, so the connection is unusable: drop it.
            self._drop_connection()
            raise TimeoutError(
                f"no reply within {self._read_timeout} seconds"
            ) from None
        except OSError as exc:
            self._drop_connection()
            raise ConnectionError(f"connection broken: {exc}") from exc
        if not raw:
            self._drop_connection()
            raise ConnectionError("server closed the connection")
        return json.loads(raw)

    # -- the protocol -------------------------------------------------------------

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, block for its reply object.

        Reconnects once on a broken connection; with a :class:`RetryPolicy`
        configured, retries retryable-coded replies with backoff.
        """
        payload = json.dumps(message).encode("utf-8") + b"\n"
        attempts = self._retry.max_attempts if self._retry is not None else 1
        for attempt in range(attempts):
            try:
                reply = self._roundtrip(payload)
            except ConnectionError:
                # Reconnect-once: a fresh connection gets one more shot at
                # this request; if it breaks too, the error propagates.
                reply = self._roundtrip(payload)
            code = reply.get("code")
            if (
                self._retry is not None
                and code in self._retry.retryable
                and attempt + 1 < attempts
            ):
                self._sleep(self._retry.delay(attempt))
                continue
            return reply
        raise AssertionError("unreachable")  # pragma: no cover

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def metrics(self) -> Dict[str, Any]:
        """One Prometheus-format scrape of the server's metrics registry."""
        return self.request({"op": "metrics"})

    def trace(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The last-N finished request traces as structured dicts."""
        message: Dict[str, Any] = {"op": "trace"}
        if limit is not None:
            message["limit"] = limit
        return self.request(message)

    def query(
        self,
        statement: str,
        params: Sequence[object] = (),
        timeout: Optional[float] = None,
        id: Optional[str] = None,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "query", "statement": statement}
        if params:
            message["params"] = list(params)
        if timeout is not None:
            message["timeout"] = timeout
        if id is not None:
            message["id"] = id
        return self.request(message)

    def cancel(
        self, id: Optional[str] = None, request_id: Optional[int] = None
    ) -> Dict[str, Any]:
        """Cancel an in-flight query by client-chosen id or server id."""
        message: Dict[str, Any] = {"op": "cancel"}
        if id is not None:
            message["id"] = id
        if request_id is not None:
            message["request_id"] = request_id
        return self.request(message)

    def append(
        self,
        table: str,
        rows: Sequence[Sequence[object]],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "op": "append",
            "table": table,
            "rows": [list(row) for row in rows],
        }
        if timeout is not None:
            message["timeout"] = timeout
        return self.request(message)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                if self._socket is not None:
                    self._socket.close()

    def __enter__(self) -> "TCPClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
