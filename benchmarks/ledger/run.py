"""The BENCHMARK.json command: one workload, one JSON result line.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Runs from any checkout of the repository; needs ``src/repro`` beside it.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # started as a script, from any directory
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
