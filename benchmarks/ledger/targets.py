"""The two closed-loop drivers: in-process ``Session`` and ``TCPClient`` ×2.

A target's constructor *is* the set-up the ``setup_s`` metric times: data
generation, ``register``, (server child start,) and the warm-up requests
that fill every cache and finish lazy initialisation.  ``run_round`` then
executes one round and returns its ok samples and wall; every result is
digested and checked against :class:`~.oracles.Expectations`.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Tuple

from repro.server import RetryPolicy, TCPClient

from . import LEDGER_DIR
from .calibrate import Round, tick
from .oracles import Expectations, digest_key, digest_rows
from .workloads import Op, Workload, build_database, round_ops, warmup_ops

#: How long a client waits for one reply before the operation counts as failed.
READ_TIMEOUT_S = 60.0


class Checker:
    """Counts attempted/failed operations; an operation fails if it raises,
    is refused, answers non-``ok``, or its digest differs from the expected."""

    def __init__(self, expectations: Expectations) -> None:
        self.expectations = expectations
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        #: (class, params, appends) -> digest, as observed (for the report).
        self.digests: Dict[str, str] = {}

    def fail(self, op: Op, message: str) -> bool:
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"{op.cls}{op.params if op.kind == 'query' else ''}: {message}")
        return False

    def passed(self) -> bool:
        self.attempted += 1
        return True

    def check_rows(self, op: Op, columns: Sequence[str], rows, appends: int = 0) -> bool:
        digest = digest_rows(op.cls, columns, rows)
        self.digests[digest_key(op.cls, op.params, appends)] = digest
        if digest != self.expectations.digest(op.cls, op.params, appends):
            return self.fail(op, f"digest {digest} differs from the expected one")
        return self.passed()


class InProcessTarget:
    """One client calling ``Session.execute`` (tracing off)."""

    def __init__(self, workload: Workload, seed: int, checker: Checker) -> None:
        self.workload, self.seed, self.checker = workload, seed, checker
        self.database = build_database(workload.scale, seed)
        self.session = self.database.session()
        for op in warmup_ops(workload):
            self.session.execute(op.text, op.params)

    def run_round(self, round_index: int) -> Round:
        result = Round()
        session = self.session
        speed_after = tick()
        for op in round_ops(self.workload, self.seed, round_index):
            if self.workload.clear_cache:
                session.cache.clear()
            speed_before = speed_after
            started = time.perf_counter()
            try:
                relation = session.execute(op.text, op.params).relation
            except Exception as exc:  # the benchmark must outlive a failing operation
                self.checker.fail(op, f"raised {exc!r}")
                continue
            elapsed = time.perf_counter() - started
            speed_after = tick()
            rows = [t.values() for t in relation.tuples]
            if self.checker.check_rows(op, relation.schema.attributes, rows):
                speed = (speed_before + speed_after) / 2
                result.samples.append((op.cls, elapsed, speed))
                result.wall += elapsed
                result.calibrated_wall += elapsed / speed
        return result

    def final_check(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class TcpTarget:
    """Two ``TCPClient`` threads against the server child (``serve.py``)."""

    def __init__(self, workload: Workload, seed: int, checker: Checker) -> None:
        self.workload, self.seed, self.checker = workload, seed, checker
        self.retries = 0
        self.clients: List[TCPClient] = []
        #: Per ok reply: server/tcp-layer seconds at reference speed.
        self.service: List[float] = []
        self.dispatch: List[float] = []
        self.wire: List[float] = []
        self.append_latency: List[float] = []
        self.statement_epochs: set = set()
        self.last_epoch = [0] * workload.clients
        self.appends_sent = 0
        self.child = subprocess.Popen(
            [sys.executable, str(LEDGER_DIR / "serve.py"),
             "--scale", str(workload.scale), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            port = json.loads(self.child.stdout.readline())["port"]
            for _ in range(workload.clients):
                self.clients.append(
                    TCPClient(
                        "127.0.0.1", port, read_timeout=READ_TIMEOUT_S,
                        retry=RetryPolicy(seed=seed), sleep=self._count_retry,
                    )
                )
            for client in self.clients:
                for op in warmup_ops(workload):
                    reply = client.query(op.text, op.params)
                    if reply.get("status") != "ok":
                        raise RuntimeError(f"warm-up failed: {reply}")
                    self.statement_epochs.add((op.text, reply["epoch"]))
            self.base_epoch = self.clients[0].stats()["stats"]["epoch"]
        except BaseException:
            self.close()
            raise

    def _count_retry(self, delay: float) -> None:
        self.retries += 1
        time.sleep(delay)

    def stats(self) -> dict:
        return self.clients[0].stats()["stats"]

    def _request(self, client: int, op: Op) -> Tuple[float, dict]:
        connection = self.clients[client]
        sent = time.perf_counter()
        try:
            if op.kind == "append":
                reply = connection.append(op.text, op.params)
            else:
                reply = connection.query(op.text, op.params)
        except (OSError, TimeoutError, ValueError) as exc:
            reply = {"status": "raised", "error": repr(exc)}
        return time.perf_counter() - sent, reply

    def run_round(self, round_index: int) -> Round:
        """Lockstep: step ``i`` sends every client's ``i``-th operation at
        once and waits for all replies; the kernel runs between steps."""
        plans = [
            round_ops(self.workload, self.seed, round_index, client)
            for client in range(self.workload.clients)
        ]
        result = Round()
        speed_after = tick()
        with ThreadPoolExecutor(self.workload.clients) as pool:
            for step in range(max(len(ops) for ops in plans)):
                ops = [(c, plan[step]) for c, plan in enumerate(plans) if step < len(plan)]
                speed_before = speed_after
                started = time.perf_counter()
                futures = [pool.submit(self._request, client, op) for client, op in ops]
                outcomes = [future.result() for future in futures]
                wall = time.perf_counter() - started
                speed_after = tick()
                speed = (speed_before + speed_after) / 2
                result.wall += wall
                result.calibrated_wall += wall / speed
                for (client, op), (seconds, reply) in zip(ops, outcomes):
                    if self._accept(client, op, reply, seconds, speed):
                        result.samples.append((op.cls, seconds, speed))
        return result

    def _accept(self, client: int, op: Op, reply: dict, seconds: float, speed: float) -> bool:
        """Check one reply (status, epoch order, digest) and keep its
        server/tcp-layer observations, at reference speed."""
        if reply.get("status") != "ok":
            return self.checker.fail(op, f"answered {reply.get('status')}: {reply.get('error')}")
        if reply["epoch"] < self.last_epoch[client]:
            return self.checker.fail(op, "epoch went backwards for this client")
        self.last_epoch[client] = reply["epoch"]
        self.wire.append((seconds - reply["latency_seconds"]) / speed)
        if op.kind == "append":
            self.appends_sent += 1
            self.append_latency.append(reply["latency_seconds"] / speed)
            if reply.get("rows_inserted") != len(op.params):
                return self.checker.fail(op, f"inserted {reply.get('rows_inserted')} rows")
            return self.checker.passed()
        service = sum(reply["timings"].values())
        self.service.append(service / speed)
        self.dispatch.append((reply["latency_seconds"] - service) / speed)
        self.statement_epochs.add((op.text, reply["epoch"]))
        appends = reply["epoch"] - self.base_epoch
        return self.checker.check_rows(op, reply["columns"], reply["rows"], appends)

    def final_check(self) -> List[str]:
        """Quiesced after the run: every statement once more against the
        reference at the final epoch, and no append lost."""
        for op in warmup_ops(self.workload):
            reply = self.clients[0].query(op.text, op.params)
            if reply.get("status") != "ok":
                self.checker.fail(op, f"final read answered {reply.get('status')}")
            else:
                self.checker.check_rows(op, reply["columns"], reply["rows"], self.appends_sent)
        reply = self.clients[0].query("SELECT EmpName FROM EMPLOYEE")
        expected = self.checker.expectations.employee_rows(self.appends_sent)
        if reply.get("status") != "ok" or len(reply["rows"]) != expected:
            return [f"EMPLOYEE should hold {expected} rows after {self.appends_sent} appends"]
        return []

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.child.poll() is None:
            self.child.stdin.close()
            try:
                self.child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()


def make_target(workload: Workload, seed: int, checker: Checker):
    cls = TcpTarget if workload.driver == "tcp" else InProcessTarget
    return cls(workload, seed, checker)
