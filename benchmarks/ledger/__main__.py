"""``python -m benchmarks.ledger run | compare | digests`` (see README.md)."""

import argparse
import sys
from pathlib import Path

from .report import compare, run_all, write_expected_digests


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="all five workloads, one report")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=Path, help="report file (default: out/report-*.json)")
    run.add_argument("--smoke", action="store_true", help="tiny fixed-size self-check preset")
    cmp_ = commands.add_parser("compare", help="compare end-to-end medians of two sets of reports")
    cmp_.add_argument("--base", type=Path, nargs="+", required=True)
    cmp_.add_argument("--new", type=Path, nargs="+", required=True)
    commands.add_parser("digests", help="regenerate expected_digests.json from the oracles")
    args = parser.parse_args()
    if args.command == "run":
        return run_all(args.seed, args.out, args.smoke)
    if args.command == "compare":
        return compare(args.base, args.new)
    return write_expected_digests()


if __name__ == "__main__":
    sys.exit(main())
