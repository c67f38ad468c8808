"""Serving-layer robustness: wire hygiene, retries, crash containment."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.faults import FAULTS
from repro.obs.trace import Tracer
from repro.options import ExecutionOptions
from repro.server import (
    RetryPolicy,
    Server,
    ServerOverloadedError,
    TCPClient,
    TCPFrontend,
)
from repro.stratum import TemporalDatabase
from repro.workloads import employee_relation, project_relation

from .conftest import in_threads, wait_until


def make_server(**kwargs) -> Server:
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return Server(database, max_concurrency=2, **kwargs)


@pytest.fixture
def frontend():
    with make_server() as server:
        with TCPFrontend(server, max_request_bytes=4096) as front:
            yield front


def raw_exchange(front: TCPFrontend, payload: bytes) -> bytes:
    """One raw write + readline against the front end."""
    with socket.create_connection(front.address, timeout=5.0) as sock:
        sock.sendall(payload)
        return sock.makefile("rb").readline()


class TestWireHygiene:
    def test_malformed_json_answers_bad_request_and_keeps_connection(self, frontend):
        host, port = frontend.address
        with TCPClient(host, port) as client:
            client._file.write(b"{this is not json}\n")
            client._file.flush()
            reply = json.loads(client._file.readline())
            assert reply["status"] == "error"
            assert reply["code"] == "BAD_REQUEST"
            # same connection still serves
            assert client.ping()["pong"] is True

    @pytest.mark.parametrize(
        "line, field",
        [
            (b"[1]", "list"),
            (b'"x"', "str"),
            (b'{"op": "query"}', "statement"),
            (b'{"op": "query", "statement": 5}', "statement"),
            (b'{"op": "query", "statement": "SELECT EmpName FROM EMPLOYEE", "timeout": "5"}', "timeout"),
            (b'{"op": "query", "statement": "SELECT EmpName FROM EMPLOYEE", "params": 5}', "params"),
            (b'{"op": "append", "rows": []}', "table"),
            (b'{"op": "append", "table": "EMPLOYEE", "rows": 5}', "rows"),
            (b'{"op": "cancel", "request_id": "abc"}', "request_id"),
            (b'{"op": "trace", "limit": "x"}', "limit"),
            (b'{"op": "trace", "limit": true}', "limit"),
        ],
    )
    def test_valid_json_that_is_no_request_answers_bad_request(self, line, field):
        # With a tracer, so that a ``trace`` limit reaches ``Tracer.recent``.
        with make_server(options=ExecutionOptions(tracer=Tracer())) as server:
            with TCPFrontend(server) as front, TCPClient(*front.address) as client:
                client._file.write(line + b"\n")
                client._file.flush()
                reply = json.loads(client._file.readline())
                assert (reply["status"], reply["code"]) == ("error", "BAD_REQUEST")
                assert field in reply["error"]
                assert client.ping()["pong"] is True

    def test_unknown_op_answers_bad_request(self, frontend):
        host, port = frontend.address
        with TCPClient(host, port) as client:
            reply = client.request({"op": "frobnicate"})
            assert reply["code"] == "BAD_REQUEST"

    def test_oversized_request_rejected_then_connection_closed(self, frontend):
        padding = "x" * 8000  # over the 4096-byte cap
        reply_line = raw_exchange(
            frontend, json.dumps({"op": "ping", "pad": padding}).encode() + b"\n"
        )
        reply = json.loads(reply_line)
        assert reply["status"] == "error"
        assert reply["code"] == "REQUEST_TOO_LARGE"

    def test_oversized_request_does_not_buffer_unboundedly(self, frontend):
        # A "line" far beyond the cap, never terminated: the bounded read
        # must reject after cap+1 bytes instead of buffering forever.
        with socket.create_connection(frontend.address, timeout=5.0) as sock:
            sock.sendall(b"y" * 100_000)
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["code"] == "REQUEST_TOO_LARGE"

    def test_half_line_disconnect_is_dropped_silently(self, frontend):
        sock = socket.create_connection(frontend.address, timeout=5.0)
        sock.sendall(b'{"op": "ping"')  # no newline
        sock.close()
        time.sleep(0.05)
        # the server neither crashed nor wedged: a fresh client is served
        host, port = frontend.address
        with TCPClient(host, port) as probe:
            assert probe.ping()["pong"] is True

    def test_rejected_admission_carries_overloaded_code(self, monkeypatch):
        from repro.session.session import Session

        release = threading.Event()
        original = Session.execute

        def parked(self, statement, *args, **kwargs):
            if statement == "SELECT EmpName FROM EMPLOYEE":
                assert release.wait(timeout=30.0), "test never released the slots"
            return original(self, statement, *args, **kwargs)

        monkeypatch.setattr(Session, "execute", parked)
        with make_server(queue_limit=1) as server:
            with TCPFrontend(server) as front, TCPClient(*front.address) as client:
                try:
                    # Both slots busy and the one place in line taken.
                    blockers = in_threads(
                        *[lambda: server.query("SELECT EmpName FROM EMPLOYEE")] * 2
                    )
                    wait_until(lambda: server.stats().active_workers == 2)
                    waiting = in_threads(lambda: server.query("SELECT EmpName FROM EMPLOYEE"))
                    wait_until(lambda: server.stats().queue_depth == 1)
                    overloaded = client.query("SELECT EmpName FROM PROJECT")
                finally:
                    release.set()
                assert all(response.ok for response in blockers() + waiting())
                assert client.query("SELECT EmpName FROM PROJECT")["status"] == "ok"
        assert overloaded["status"] == "rejected"
        assert overloaded["code"] == "OVERLOADED"

    def test_wire_error_replies_carry_stable_codes(self, frontend):
        host, port = frontend.address
        with TCPClient(host, port) as client:
            reply = client.query("SELECT Nope FROM EMPLOYEE")
            assert reply["status"] == "error"
            assert reply["code"] == "PARSE_ERROR"  # unknown attribute in SELECT
            assert reply["request_id"] > 0


class TestTCPCancel:
    def test_cancel_by_client_chosen_id_from_second_connection(self, frontend):
        host, port = frontend.address
        results = {}

        def run_query():
            with TCPClient(host, port) as runner:
                with FAULTS.armed("dbms.scan", kind="latency", latency=10.0, times=4):
                    results["reply"] = runner.query(
                        "SELECT EmpName FROM EMPLOYEE", id="slow-query"
                    )

        thread = threading.Thread(target=run_query)
        thread.start()
        time.sleep(0.1)
        with TCPClient(host, port) as controller:
            assert controller.cancel(id="slow-query")["cancelled"] is True
        thread.join(timeout=5.0)
        assert results["reply"]["status"] == "cancelled"
        assert results["reply"]["code"] == "CANCELLED"

    def test_cancel_unknown_id_reports_false(self, frontend):
        host, port = frontend.address
        with TCPClient(host, port) as client:
            assert client.cancel(id="never-submitted")["cancelled"] is False
            assert client.cancel(request_id=424242)["cancelled"] is False
            assert client.cancel()["cancelled"] is False

    def test_pending_id_cleared_after_the_query_answers(self, frontend):
        host, port = frontend.address
        with TCPClient(host, port) as client:
            assert client.query("SELECT EmpName FROM EMPLOYEE", id="q1")["status"] == "ok"
            assert client.cancel(id="q1")["cancelled"] is False


class TestClientRetry:
    def test_policy_validates_and_backoff_is_capped_with_jitter(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        policy = RetryPolicy(base_delay=0.1, max_delay=0.3, jitter=0.5, seed=1)
        delays = [policy.delay(n) for n in range(6)]
        for index, delay in enumerate(delays):
            cap = min(0.3, 0.1 * 2**index)
            assert 0.5 * cap <= delay <= cap

    def test_seeded_policies_produce_identical_schedules(self):
        a = RetryPolicy(seed=99)
        b = RetryPolicy(seed=99)
        assert [a.delay(n) for n in range(5)] == [b.delay(n) for n in range(5)]

    def test_client_retries_overloaded_then_succeeds(self, frontend):
        host, port = frontend.address
        sleeps: list = []
        policy = RetryPolicy(max_attempts=3, seed=7)
        with TCPClient(host, port, retry=policy, sleep=sleeps.append) as client:
            with FAULTS.armed(
                "server.tcp",
                kind="error",
                exception=ServerOverloadedError("queue full"),
                times=2,
            ):
                reply = client.ping()
        assert reply["status"] == "ok"
        assert len(sleeps) == 2  # two rejected attempts, two backoffs

    def test_client_gives_up_after_max_attempts(self, frontend):
        host, port = frontend.address
        sleeps: list = []
        policy = RetryPolicy(max_attempts=2, seed=7)
        with TCPClient(host, port, retry=policy, sleep=sleeps.append) as client:
            with FAULTS.armed(
                "server.tcp",
                kind="error",
                exception=ServerOverloadedError("queue full"),
                times=None,
            ):
                reply = client.ping()
        assert reply["status"] == "rejected" and reply["code"] == "OVERLOADED"
        assert len(sleeps) == 1  # one backoff between the two attempts

    def test_non_retryable_errors_are_not_retried(self, frontend):
        host, port = frontend.address
        sleeps: list = []
        with TCPClient(
            host, port, retry=RetryPolicy(max_attempts=3), sleep=sleeps.append
        ) as client:
            reply = client.query("SELECT Nope FROM EMPLOYEE")
        assert reply["code"] == "PARSE_ERROR"
        assert sleeps == []

    def test_read_timeout_raises_and_next_request_reconnects(self, frontend):
        host, port = frontend.address
        client = TCPClient(host, port, read_timeout=0.1)
        try:
            with FAULTS.armed("server.tcp", kind="latency", latency=2.0, times=1):
                with pytest.raises(TimeoutError):
                    client.ping()
            assert client.ping()["pong"] is True  # fresh connection, served
        finally:
            client.close()

    def test_reconnect_once_on_server_closed_connection(self, frontend):
        host, port = frontend.address
        client = TCPClient(host, port)
        try:
            # provoke a server-side close with an oversized line...
            client._file.write(b"z" * 5000 + b"\n")
            client._file.flush()
            assert json.loads(client._file.readline())["code"] == "REQUEST_TOO_LARGE"
            # ...then the next request transparently reconnects
            assert client.ping()["pong"] is True
        finally:
            client.close()


class TestWorkerCrashContainment:
    def test_a_base_exception_crashes_one_request_not_the_server(self, monkeypatch):
        class SimulatedCrash(BaseException):
            """KeyboardInterrupt-like: beyond what except Exception catches."""

        from repro.session.session import Session

        original = Session.execute
        crashes = {"remaining": 1}

        def crashing(self, *args, **kwargs):
            if crashes["remaining"]:
                crashes["remaining"] -= 1
                raise SimulatedCrash("worker hit a BaseException")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Session, "execute", crashing)
        with make_server() as server:
            crashed = server.query("SELECT EmpName FROM EMPLOYEE")
            assert crashed.status == "error"
            assert "crashed" in crashed.error
            # the server keeps serving; the crashed slot holds a fresh session
            for _ in range(4):
                assert server.query("SELECT EmpName FROM EMPLOYEE").ok
            stats = server.stats()
            assert stats.worker_crashes == 1
            assert stats.failed == 1 and stats.completed == 4
            assert stats.completed + stats.failed == stats.submitted
        # close() saw every request answered and every slot free — reaching here is the proof

    def test_crash_metrics_exposed(self, monkeypatch):
        class SimulatedCrash(BaseException):
            pass

        from repro.session.session import Session

        def crashing(self, *args, **kwargs):
            raise SimulatedCrash("boom")

        monkeypatch.setattr(Session, "execute", crashing)
        with make_server() as server:
            server.query("SELECT EmpName FROM EMPLOYEE")
            assert "repro_server_worker_crashes_total 1" in server.metrics_exposition()
