"""The server child of the TCP workloads.

Builds the database from ``(scale, seed)``, serves it on a free port with two
workers and an unbounded queue, prints ``{"port": N}`` and runs until its
stdin is closed.  A process of its own so the load generator never shares a
GIL with the system under test.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # started as a script, from any directory
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.workloads import build_database  # noqa: E402
from repro.server import Server, TCPFrontend  # noqa: E402

SERVER_WORKERS = 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = Server(
        build_database(args.scale, args.seed),
        max_concurrency=SERVER_WORKERS,
        queue_limit=None,
    )
    with server, TCPFrontend(server, port=0) as frontend:
        print(json.dumps({"port": frontend.address[1]}), flush=True)
        sys.stdin.read()


if __name__ == "__main__":
    main()
