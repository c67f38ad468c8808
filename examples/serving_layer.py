"""Serving-layer demo: many clients, one server, over TCP.

Starts a :class:`repro.server.Server` over the paper's example data, puts
the newline-delimited-JSON TCP front end on a free local port, and drives
it with several concurrent clients running the shared ``concurrent-mix``
workload — parameterized reads plus interleaved appends.  Afterwards the
server's own metrics show what happened: latency percentiles and the
shared plan cache's cross-session hit rate (every statement is optimized
once, whichever client sent it first).  Each request runs on the front
end's thread for its connection; at most ``max_concurrency`` run at once.

Run with::

    PYTHONPATH=src python examples/serving_layer.py
"""

import threading

from repro.server import Server, TCPClient, TCPFrontend
from repro.stratum import TemporalDatabase
from repro.workloads import (
    concurrent_mix_operations,
    employee_relation,
    project_relation,
)

CLIENTS = 4
OPS_PER_CLIENT = 12


def build_database() -> TemporalDatabase:
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


def run_client(index: int, host: str, port: int, log: list, lock) -> None:
    with TCPClient(host, port) as client:
        for kind, target, payload in concurrent_mix_operations(
            OPS_PER_CLIENT, client=index, append_every=5
        ):
            if kind == "append":
                reply = client.append(target, payload)
                line = (
                    f"client {index}: append {reply['rows_inserted']} rows "
                    f"-> epoch {reply['epoch']}"
                )
            else:
                reply = client.query(target, params=list(payload))
                hit = "hit" if reply.get("cache_hit") else "miss"
                line = (
                    f"client {index}: {len(reply['rows']):3d} rows at epoch "
                    f"{reply['epoch']} (cache {hit})"
                )
            assert reply["status"] == "ok", reply
            with lock:
                log.append(line)


def main() -> None:
    database = build_database()
    with Server(database, max_concurrency=2, queue_limit=32) as server:
        with TCPFrontend(server) as frontend:
            host, port = frontend.address
            print(f"serving on {host}:{port} with {server.max_concurrency} session slots\n")

            log: list = []
            lock = threading.Lock()
            threads = [
                threading.Thread(target=run_client, args=(i, host, port, log, lock))
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for line in log:
                print(line)

            stats = server.stats()
            print(f"\nserved {stats.completed} requests, epoch now {stats.epoch}")
            print(
                f"latency: p50={stats.latency.p50 * 1e3:.2f}ms "
                f"p99={stats.latency.p99 * 1e3:.2f}ms"
            )
            print(
                f"plan cache: {stats.plan_cache.hits} hits, "
                f"{stats.plan_cache.misses} misses "
                f"(hit rate {stats.plan_cache.hit_rate:.2f}) — one optimize per "
                f"statement shape and epoch, shared by every client"
            )


if __name__ == "__main__":
    main()
