"""Fuzzing the TCP request line: every line gets exactly one typed reply.

Hypothesis sends a live :class:`~repro.server.tcp.TCPFrontend` arbitrary
bytes, JSON that is no object, and requests of every op whose fields have
the wrong kind: ``params`` holding lists, objects or nulls, a ``timeout`` of
±inf, NaN, a negative number or an integer too large for a float, ``rows``
that are no lists, an ``id`` of any JSON value.  Whatever arrives:

* each line is answered by exactly one reply, and a ``ping`` on the same
  connection still answers afterwards;
* a reply that is not ``ok`` carries a stable error code the library
  defines — never none, never ``INTERNAL`` (an error the front end did not
  type);
* the server's books balance: every submitted request was completed,
  failed, timed out, cancelled or rejected.

Derandomized in tier-1 (``tests/conftest.py``'s ``default`` profile); the
``random`` profile draws fresh examples.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import ReproError
from repro.server import Server, TCPFrontend
from repro.stratum import TemporalDatabase
from repro.workloads import PAPER_SQL, POINT_SQL, employee_relation, project_relation


def _codes(cls) -> set:
    return {cls.code}.union(*(_codes(sub) for sub in cls.__subclasses__()))


#: Every code a reply may carry: the library's error codes and the front
#: end's own; ``INTERNAL`` is what an untyped error maps to.
TYPED_CODES = (_codes(ReproError) | {"BAD_REQUEST", "REQUEST_TOO_LARGE"}) - {"INTERNAL"}

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

STATEMENTS = st.sampled_from(
    [
        PAPER_SQL,
        POINT_SQL,
        "SELECT EmpName FROM EMPLOYEE WHERE T1 < ?",
        "SELECT EmpName FROM EMPLOYEE WHERE T1 + ? > 3",
        "EXPLAIN " + POINT_SQL,
        "EXPLAIN ANALYZE SELECT EmpName FROM PROJECT",
        "SELECT FROM WHERE",
    ]
) | st.text(max_size=30)

TIMEOUTS = (
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -1.0, 0.0, 30.0, 10**400, -(10**400)])
    | JSON
)

FIELDS = {
    "statement": STATEMENTS | JSON,
    "params": st.lists(JSON, max_size=3) | JSON,
    "timeout": TIMEOUTS,
    "id": JSON,
    "table": st.sampled_from(["EMPLOYEE", "PROJECT", "NOPE"]) | JSON,
    "rows": st.lists(st.lists(JSON, max_size=5) | JSON, max_size=3) | JSON,
    "request_id": st.integers(min_value=-1, max_value=50) | JSON,
    "limit": st.integers(min_value=-3, max_value=3) | JSON,
}

OPS = ["query", "append", "cancel", "trace", "stats", "metrics", "ping"]


@st.composite
def requests(draw):
    """A request object: an op (or none, or another value) and any of the fields."""
    message = {"op": draw(st.sampled_from(OPS) | JSON)}
    for name in draw(st.sets(st.sampled_from(sorted(FIELDS)))):
        message[name] = draw(FIELDS[name])
    return json.dumps(message).encode()


#: One line: a request, JSON that is no object, or bytes.  A line holds no
#: newline and is not blank (a blank line is skipped, answered by nothing).
LINES = (
    requests()
    | JSON.map(lambda value: json.dumps(value).encode())
    | st.binary(min_size=1, max_size=40)
).filter(lambda line: b"\n" not in line and line.strip())


@pytest.fixture(scope="module")
def frontend():
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    with Server(database, max_concurrency=2) as server, TCPFrontend(server) as front:
        yield front


@settings(max_examples=150)
@given(lines=st.lists(LINES, min_size=1, max_size=4))
@example(lines=[b"[" * 100_000])  # nested deeper than the parser recurses
@example(lines=[b'{"op": "append", "table": "EMPLOYEE", "rows": [], "timeout": 1' + b"0" * 400 + b"}"])
def test_every_line_gets_one_typed_reply(frontend, lines):
    with socket.create_connection(frontend.address, timeout=30.0) as sock:
        stream = sock.makefile("rwb")
        for line in lines:
            stream.write(line + b"\n")
            stream.flush()
            reply = json.loads(stream.readline())
            assert isinstance(reply, dict) and "status" in reply, (line, reply)
            if reply["status"] != "ok":
                assert reply.get("code") in TYPED_CODES, (line, reply)
        # Had a line been answered twice, this would read the second answer.
        stream.write(b'{"op": "ping"}\n')
        stream.flush()
        assert json.loads(stream.readline()) == {"status": "ok", "pong": True}
    stats = frontend.server.stats()
    assert (
        stats.completed + stats.failed + stats.timed_out + stats.cancelled + stats.rejected
        == stats.submitted
    ), stats
